//! Priority preemption: a high-priority tenant arrives mid-drive and
//! the package re-partitions under it.
//!
//! A preemption event is simulated as two DES epochs around the arrival
//! instant. Epoch 1 runs the incumbent colocation undisturbed. At the
//! arrival instant the co-scheduler re-partitions with the arriving
//! tenant included — its boosted demand weight shrinks best-effort
//! regions first — and each tenant is charged the
//! [`npu_sched::rematch_cost_against`] of migrating its region from the
//! old mapping to the new one, **make-before-break**: chiplets a tenant
//! keeps serve straight across the event, chiplets that were idle
//! package-wide prestage over the epoch-1 tail, and only chiplets
//! re-programmed in place (or handed over from a co-tenant) stall. A
//! tenant whose whole region quiesces (a full-barrier migration) also
//! flushes its epoch-1 in-flight frames at the event. Epoch 2 then runs
//! the new colocation, arriving tenant included.
//!
//! The two epochs are two separate [`simulate`] calls, each starting on
//! an empty package, as in [`npu_pipesim::simulate_phases`]:
//! an outgoing epoch-1 backlog never contends with the epoch-2 frames,
//! so latencies right after the event are optimistic. Running both
//! epochs in one engine pass is ROADMAP.md's open item 1 (cross-phase
//! contention).
//! Frame accounting balances exactly: per tenant,
//! `offered = served + dropped + flushed` across both epochs.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use npu_maestro::ReconfigModel;
use npu_pipesim::{simulate, PhaseReport, Readiness, SimPhase};
use npu_sched::{rematch_cost_against, RematchOutcome, Schedule};
use npu_tensor::{Dtype, Seconds};

use crate::colocation::{CoScheduler, Colocation};
use crate::tenant::{canonical_order, Priority, RejectReason, Tenant};

/// One tenant's trajectory across a preemption event.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantPhases {
    /// The tenant's name.
    pub name: String,
    /// Its priority class.
    pub priority: Priority,
    /// Columns held before the event (0 for the arriving tenant).
    pub columns_before: u32,
    /// Columns held after the re-partition.
    pub columns_after: u32,
    /// Epoch-1 report (`None` for the arriving tenant, which does not
    /// exist before the event).
    pub before: Option<PhaseReport>,
    /// Chiplets reprogrammed when migrating to the new partition.
    pub reprogrammed: usize,
    /// Re-programmed chiplets that stall across the event (busy — the
    /// tenant's own or a co-tenant's — until the break). The remainder
    /// prestage on package-idle silicon over the epoch-1 tail.
    pub stalled: usize,
    /// The migration's spin-up latency under the old package-wide
    /// barrier model: the pessimistic reference the make-before-break
    /// handover is measured against.
    pub transition: Seconds,
    /// How long after the event the last stalled chiplet comes back
    /// online (`transition` for a full-barrier migration; zero when
    /// everything kept or prestaged).
    pub stall_window: Seconds,
    /// Epoch-2 report, on the re-partitioned region.
    pub after: PhaseReport,
}

impl TenantPhases {
    /// Frames offered across both epochs.
    pub fn offered(&self) -> usize {
        self.before.as_ref().map_or(0, |r| r.offered) + self.after.offered
    }

    /// Frames served across both epochs.
    pub fn served(&self) -> usize {
        self.before.as_ref().map_or(0, |r| r.served()) + self.after.served()
    }

    /// Frames dropped (all in the epoch-2 spin-up window; epoch 1
    /// starts on a ready region).
    pub fn dropped(&self) -> usize {
        self.before.as_ref().map_or(0, |r| r.dropped) + self.after.dropped
    }

    /// Frames flushed in flight at the event boundary (only a
    /// full-barrier migration quiesces the region under them).
    pub fn flushed(&self) -> usize {
        self.before.as_ref().map_or(0, |r| r.flushed) + self.after.flushed
    }

    /// p99 frame latency before the event (`None` for the arriver).
    pub fn p99_before(&self) -> Option<Seconds> {
        self.before.as_ref().map(|r| r.report.tails.p99)
    }

    /// p99 frame latency after the event.
    pub fn p99_after(&self) -> Seconds {
        self.after.report.tails.p99
    }
}

/// The simulated before/after of a priority preemption event.
#[derive(Debug, Clone, PartialEq)]
pub struct PreemptionReport {
    /// The arrival instant (seconds on the shared calendar).
    pub at: Seconds,
    /// The arriving tenant's name.
    pub arriving: String,
    /// Every tenant's trajectory, in the canonical order of the
    /// post-event colocation.
    pub tenants: Vec<TenantPhases>,
    /// The post-event colocation.
    pub colocation: Colocation,
}

impl PreemptionReport {
    /// A tenant's trajectory by name.
    pub fn tenant(&self, name: &str) -> Option<&TenantPhases> {
        self.tenants.iter().find(|t| t.name == name)
    }

    /// Whether every tenant balances
    /// `offered == served + dropped + flushed` across the event.
    pub fn balanced(&self) -> bool {
        self.tenants
            .iter()
            .all(|t| t.offered() == t.served() + t.dropped() + t.flushed())
    }
}

/// Serializable summary of one tenant's preemption trajectory (for the
/// `repro fleet` artifact).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantPhasesSummary {
    /// Tenant name.
    pub name: String,
    /// Priority label.
    pub priority: String,
    /// Columns before → after.
    pub columns_before: u32,
    /// Columns after the re-partition.
    pub columns_after: u32,
    /// Chiplets reprogrammed at the event.
    pub reprogrammed: usize,
    /// Re-programmed chiplets that stall across the event (the rest
    /// prestage on package-idle silicon).
    pub stalled: usize,
    /// Migration spin-up latency under the barrier model (ms).
    pub transition_ms: f64,
    /// When the last stalled chiplet comes back online, relative to the
    /// event (ms).
    pub stall_window_ms: f64,
    /// p99 before the event (ms; absent for the arriver).
    pub p99_before_ms: Option<f64>,
    /// p99 after the event (ms).
    pub p99_after_ms: f64,
    /// p99 bound from the tenant's SLO (ms).
    pub p99_bound_ms: f64,
    /// Whether the tail SLO holds after the event.
    pub slo_holds: bool,
    /// Frames offered across both epochs.
    pub offered: usize,
    /// Frames served across both epochs.
    pub served: usize,
    /// Frames dropped in the spin-up window.
    pub dropped: usize,
    /// Frames flushed in flight at the event boundary.
    pub flushed: usize,
}

impl TenantPhasesSummary {
    /// Summarizes one trajectory against its tenant's SLO.
    pub fn new(phases: &TenantPhases, p99_bound: Seconds) -> TenantPhasesSummary {
        TenantPhasesSummary {
            name: phases.name.clone(),
            priority: phases.priority.label().to_string(),
            columns_before: phases.columns_before,
            columns_after: phases.columns_after,
            reprogrammed: phases.reprogrammed,
            stalled: phases.stalled,
            transition_ms: phases.transition.as_millis(),
            stall_window_ms: phases.stall_window.as_millis(),
            p99_before_ms: phases.p99_before().map(|s| s.as_millis()),
            p99_after_ms: phases.p99_after().as_millis(),
            p99_bound_ms: p99_bound.as_millis(),
            slo_holds: phases.p99_after().as_secs() <= p99_bound.as_secs(),
            offered: phases.offered(),
            served: phases.served(),
            dropped: phases.dropped(),
            flushed: phases.flushed(),
        }
    }
}

/// Simulates a preemption event: `incumbents` run undisturbed until
/// `at`, where `arriving` joins, the mesh re-partitions, and every
/// tenant pays its region-migration latency before serving again.
///
/// Each incumbent offers `2 × frames_per_epoch` frames of its arrival
/// process, split at `at` between the epochs; the arriver offers
/// `frames_per_epoch` frames starting at `at`. Fails with the compile
/// error if the post-event partition does not exist (more tenants than
/// columns). SLO checks are **not** enforced here — preemption
/// deliberately degrades best-effort tenants, and the report carries
/// the per-tenant p99s for the caller to judge.
pub fn preemption_event(
    sched: &mut CoScheduler<'_>,
    incumbents: &[Tenant],
    arriving: &Tenant,
    at: f64,
    frames_per_epoch: usize,
    reconfig: &ReconfigModel,
) -> Result<PreemptionReport, RejectReason> {
    assert!(
        at.is_finite() && at > 0.0,
        "preemption instant must be positive"
    );
    let mut before_tenants = incumbents.to_vec();
    canonical_order(&mut before_tenants);
    let colo1 = sched.compile(&before_tenants)?;

    // Each incumbent's full arrival timeline, split at the event.
    let all_times: Vec<Vec<f64>> = before_tenants
        .iter()
        .map(|t| t.scenario.arrivals().times(2 * frames_per_epoch))
        .collect();
    let splits: Vec<usize> = all_times
        .iter()
        .map(|times| times.partition_point(|&t| t < at))
        .collect();

    // Re-partition with the arriver included.
    let mut after_tenants = before_tenants.clone();
    after_tenants.push(arriving.clone());
    canonical_order(&mut after_tenants);
    let colo2 = sched.compile(&after_tenants)?;
    // Both colocations in full-package chiplet ids, which the rematch
    // diffs and the shared-calendar epochs read.
    let full = |colo: &Colocation| -> Vec<Schedule> {
        colo.placements
            .iter()
            .map(|p| p.schedule.translated())
            .collect()
    };
    let (full1, full2) = (full(&colo1), full(&colo2));

    // Per-tenant migration cost: diff its old mapping (empty for the
    // arriver) against its new one, make-before-break. Every chiplet
    // busy anywhere in the outgoing colocation counts as occupied, so a
    // chiplet handed over between tenants stalls like one re-programmed
    // in place; only package-idle silicon prestages over the epoch-1
    // tail.
    let occupied: BTreeSet<_> = full1.iter().flat_map(Schedule::chiplets_used).collect();
    let empty = Schedule { stages: Vec::new() };
    let transitions: Vec<RematchOutcome> = colo2
        .placements
        .iter()
        .zip(&full2)
        .map(|(p, new)| {
            let old = colo1
                .placements
                .iter()
                .position(|q| q.tenant.name == p.tenant.name)
                .map_or(&empty, |i| &full1[i]);
            rematch_cost_against(old, new, &occupied, reconfig, Dtype::Fp16)
        })
        .collect();
    let diff_of = |name: &str| {
        colo2
            .placements
            .iter()
            .position(|q| q.tenant.name == name)
            .map(|i| &transitions[i])
            .expect("every tenant is placed in the post-event colocation")
    };

    // Epoch 1: the incumbents run undisturbed. A tenant whose migration
    // quiesces its whole region (full-barrier diff) flushes its
    // in-flight frames at the event; anyone else drains them across the
    // handover.
    let epoch1_streams: Vec<SimPhase<'_>> = colo1
        .placements
        .iter()
        .zip(&full1)
        .zip(all_times.iter().zip(&splits))
        .map(|((p, schedule), (times, &split))| SimPhase {
            schedule,
            times: times[..split].to_vec(),
            readiness: Readiness::Barrier(0.0),
            warmup: None,
            cutoff: diff_of(&p.tenant.name).is_full_barrier().then_some(at),
        })
        .collect();
    let epoch1 = simulate(&epoch1_streams, sched.package(), sched.model(), Dtype::Fp16)
        .expect("matched bands under scenario arrivals split at a finite instant are valid");

    let epoch2_times: Vec<Vec<f64>> = colo2
        .placements
        .iter()
        .map(|p| {
            if p.tenant.name == arriving.name {
                p.tenant
                    .scenario
                    .arrivals()
                    .times(frames_per_epoch)
                    .iter()
                    .map(|t| at + t)
                    .collect()
            } else {
                let i = before_tenants
                    .iter()
                    .position(|t| t.name == p.tenant.name)
                    .expect("incumbent present in both colocations");
                all_times[i][splits[i]..].to_vec()
            }
        })
        .collect();
    let epoch2_streams: Vec<SimPhase<'_>> = full2
        .iter()
        .zip(epoch2_times.iter().zip(&transitions))
        .map(|(schedule, (times, diff))| SimPhase {
            schedule,
            times: times.clone(),
            readiness: Readiness::make_before_break(diff, at),
            warmup: None,
            cutoff: None,
        })
        .collect();
    let epoch2 = simulate(&epoch2_streams, sched.package(), sched.model(), Dtype::Fp16)
        .expect("matched bands under scenario arrivals split at a finite instant are valid");

    let tenants = colo2
        .placements
        .iter()
        .zip(epoch2.iter().zip(&transitions))
        .map(|(p, (after, diff))| {
            let before_idx = colo1
                .placements
                .iter()
                .position(|q| q.tenant.name == p.tenant.name);
            TenantPhases {
                name: p.tenant.name.clone(),
                priority: p.tenant.priority,
                columns_before: before_idx.map_or(0, |i| colo1.placements[i].region.width()),
                columns_after: p.region.width(),
                before: before_idx.map(|i| epoch1[i].clone()),
                reprogrammed: diff.reprogrammed.len(),
                stalled: diff.stalled(),
                transition: diff.latency,
                stall_window: diff.stall_window(),
                after: after.clone(),
            }
        })
        .collect();

    Ok(PreemptionReport {
        at: Seconds::new(at),
        arriving: arriving.name.clone(),
        tenants,
        colocation: colo2,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use npu_maestro::FittedMaestro;
    use npu_mcm::McmPackage;
    use npu_scenario::{CameraRig, OperatingMode, Scenario};

    fn tenant(name: &str, cameras: u64, priority: Priority) -> Tenant {
        Tenant::new(
            name,
            Scenario::new(
                name,
                CameraRig::new(cameras, (360, 640), 30.0),
                OperatingMode::HighwayCruise,
            ),
            priority,
        )
    }

    fn event() -> PreemptionReport {
        let model = FittedMaestro::new();
        let mut sched = CoScheduler::new(McmPackage::simba_6x6(), &model);
        let incumbents = vec![
            tenant("ride-hail", 6, Priority::Standard),
            tenant("mining", 6, Priority::BestEffort),
        ];
        let arriving = tenant("av-stack", 8, Priority::Safety);
        preemption_event(
            &mut sched,
            &incumbents,
            &arriving,
            1.0,
            40,
            &ReconfigModel::default(),
        )
        .unwrap()
    }

    #[test]
    fn preemption_shrinks_best_effort_first() {
        let report = event();
        assert_eq!(report.tenants.len(), 3);
        let victim = report.tenant("mining").unwrap();
        let arriver = report.tenant("av-stack").unwrap();
        assert!(victim.columns_after < victim.columns_before);
        assert!(arriver.columns_before == 0 && arriver.columns_after > 0);
        // The arriver's new region outranks the victim's shrunken one.
        assert!(arriver.columns_after > victim.columns_after);
    }

    #[test]
    fn transitions_are_charged_and_frames_balance() {
        let report = event();
        assert!(
            report.balanced(),
            "offered == served + dropped + flushed per tenant"
        );
        for t in &report.tenants {
            if t.columns_before != t.columns_after {
                assert!(
                    t.transition.as_secs() > 0.0,
                    "{} migrated without paying reconfiguration",
                    t.name
                );
                assert!(t.reprogrammed > 0);
            }
            assert!(t.stalled <= t.reprogrammed);
            assert!(t.stall_window <= t.transition);
            // This event repartitions a fully occupied package, so every
            // migration is a full-barrier handover: nothing prestages and
            // the stall window degenerates to the barrier latency.
            assert_eq!(t.stalled, t.reprogrammed, "{}", t.name);
            assert_eq!(
                t.stall_window.as_secs().to_bits(),
                t.transition.as_secs().to_bits(),
                "{}: full handover must reproduce the barrier window",
                t.name
            );
        }
        // Someone drops frames in the spin-up window.
        let dropped: usize = report.tenants.iter().map(TenantPhases::dropped).sum();
        assert!(dropped > 0, "spin-up windows drop arriving frames");
        // The incumbents' regions quiesce under them, flushing whatever
        // was in flight at the event; the arriver has no epoch-1 frames
        // to flush.
        for name in ["ride-hail", "mining"] {
            assert!(report.tenant(name).unwrap().flushed() > 0, "{name}");
        }
        assert_eq!(report.tenant("av-stack").unwrap().flushed(), 0);
    }

    #[test]
    fn victim_p99_shifts_while_arriver_is_served() {
        let report = event();
        let victim = report.tenant("mining").unwrap();
        let before = victim.p99_before().unwrap();
        let after = victim.p99_after();
        assert!(
            (after.as_secs() - before.as_secs()).abs() > 1e-9,
            "preemption must change the victim's p99 ({before} vs {after})"
        );
        let arriver = report.tenant("av-stack").unwrap();
        assert!(arriver.served() > 0);
    }

    #[test]
    fn preemption_is_deterministic() {
        let a = event();
        let b = event();
        assert_eq!(a, b);
    }
}
