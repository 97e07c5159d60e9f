//! Fleet-scale multi-tenant serving DSE: the `repro fleet` artifact
//! (ISSUE 9).
//!
//! The tail-latency DSE ([`crate::tails`]) sizes one package for one
//! vehicle. This artifact asks the fleet operator's question: given
//! **hundreds** of vehicles — mixed rigs, mixed drive modes, mixed
//! priority classes, each a [`npu_fleet::Tenant`] with its own mean and
//! p99 SLO — which package configuration serves the whole fleet
//! cheapest?
//!
//! Three layers ride on `npu-fleet`:
//!
//! * **Uniform-pool packing** — a seeded [`FleetSpec`] is first-fit
//!   packed onto instances of each candidate geometry
//!   ([`pack_fleet`]); every colocation is admission-verified by the
//!   DES, each co-tenant on its own disjoint band (which makes a run of
//!   one tenant alone exact), so an instance only hosts vehicles whose
//!   mean *and* tail SLOs all hold together.
//! * **Package-mix selection** — a [`Study`] sweeps the geometries
//!   under `Objective::minimize` fleet chiplets subject to full
//!   admission and a `Constraint::tail_at_most` cap on the worst
//!   admitted p99; a mixed-configuration pool ([`pack_fleet_mixed`])
//!   is packed alongside for comparison.
//! * **Priority preemption** — a safety-critical vehicle arrives on a
//!   busy instance mid-drive: the mesh re-partitions (best-effort
//!   regions shrink first), every migrating tenant is charged the
//!   `rematch_cost` spin-up and drops the frames arriving during it,
//!   and the per-tenant p99 before/after shows the best-effort victim
//!   degrading while the arriver's SLO holds.

use std::fmt;

use serde::{Deserialize, Serialize};

use npu_fleet::{
    os256_package, pack_fleet, pack_fleet_mixed, preemption_event, CoScheduler, FleetSpec,
    MixedPackOutcome, PackingOutcome, TenantPhasesSummary, VehicleProfile,
};
use npu_maestro::{FittedMaestro, ReconfigModel};
use npu_study::{Axis, Constraint, Grid, Objective, Percentile, Study, TailLatency};
use npu_tensor::Seconds;

use crate::text::{ms, TextTable};

/// Vehicles in the sampled fleet.
pub const FLEET_SIZE: usize = 120;

/// The fleet sampling seed.
pub const FLEET_SEED: u64 = 2025;

/// DES frames per admission verification (and per preemption epoch
/// scale; the preemption demo uses [`PREEMPT_FRAMES`] per epoch).
pub const FLEET_FRAMES: usize = 24;

/// Candidate package geometries for the uniform pools, ascending cost.
pub const FLEET_GEOMETRIES: [(u32, u32); 4] = [(4, 4), (5, 5), (6, 6), (8, 6)];

/// Frames per preemption epoch (epoch 1 before the arrival, epoch 2
/// after).
pub const PREEMPT_FRAMES: usize = 48;

/// The preemption arrival instant on the shared calendar (seconds).
pub const PREEMPT_AT: f64 = 6.0;

/// One profile's share of the sampled fleet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileCount {
    /// Profile name.
    pub profile: String,
    /// Priority label.
    pub priority: String,
    /// Vehicles sampled from this profile.
    pub count: usize,
}

/// Rejections of one profile on one configuration, grouped by rendered
/// reason. Vehicles are profile clones, and [`pack_fleet`] memoizes a
/// failed shape's reason, so every later clone carries the reason of the
/// profile's first rejected clone — naming that clone (e.g. all rejected
/// `av-cruise` vehicles cite `av-cruise-000`) — and the clones fall into
/// one group.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RejectSummary {
    /// Profile name.
    pub profile: String,
    /// Priority label.
    pub priority: String,
    /// Vehicles of this profile rejected.
    pub count: usize,
    /// The rendered [`npu_fleet::RejectReason`], shared by the group.
    pub reason: String,
}

/// One uniform-pool configuration's fleet-packing outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetConfigPoint {
    /// Package configuration name (`os256-WxH`).
    pub config: String,
    /// Chiplets per instance.
    pub chiplets_per_instance: u64,
    /// Instances opened.
    pub instances: usize,
    /// Total fleet silicon (instances × chiplets).
    pub total_chiplets: u64,
    /// Vehicles admitted.
    pub admitted: usize,
    /// Vehicles rejected.
    pub rejected: usize,
    /// Admitted / offered.
    pub admission_rate: f64,
    /// Worst admitted p99 per priority class (ms), in
    /// [`npu_fleet::Priority::ALL`] order; `None` where the class has no admitted
    /// vehicle.
    pub worst_p99_ms_by_class: [Option<f64>; 3],
    /// The fleet's worst admitted p99 (the `tail_at_most` surface).
    pub fleet_p99: Seconds,
    /// Whether the configuration admits the whole fleet within the
    /// tail cap.
    pub feasible: bool,
    /// Rejections grouped by (profile, reason).
    pub rejects: Vec<RejectSummary>,
}

/// How the winning configuration serves one profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileServing {
    /// Profile name.
    pub profile: String,
    /// Priority label.
    pub priority: String,
    /// Vehicles of this profile admitted on the winner.
    pub vehicles: usize,
    /// Worst p99 across those vehicles (ms).
    pub worst_p99_ms: f64,
    /// The profile's p99 bound (ms).
    pub p99_bound_ms: f64,
}

/// The preemption demo: a safety arrival on a busy instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PreemptionDemo {
    /// Package the event runs on.
    pub package: String,
    /// Arrival instant.
    pub at: Seconds,
    /// Frames offered per epoch per tenant.
    pub frames_per_epoch: usize,
    /// Every tenant's trajectory across the event, post-event canonical
    /// order.
    pub tenants: Vec<TenantPhasesSummary>,
}

/// The fleet-serving DSE result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetDse {
    /// Vehicles sampled.
    pub fleet_size: usize,
    /// Sampling seed.
    pub seed: u64,
    /// DES frames per admission verification.
    pub frames: usize,
    /// Fleet composition by profile, catalog order.
    pub composition: Vec<ProfileCount>,
    /// Vehicles per priority class, [`npu_fleet::Priority::ALL`] order.
    pub class_counts: [usize; 3],
    /// The fleet-wide tail cap: the loosest per-vehicle p99 bound (the
    /// per-vehicle bounds themselves are enforced during admission).
    pub tail_cap: Seconds,
    /// Every uniform-pool configuration, ascending cost.
    pub configs: Vec<FleetConfigPoint>,
    /// Cheapest configuration admitting the whole fleet within the cap.
    pub cheapest_feasible: Option<String>,
    /// Per-profile serving stats on the winner.
    pub winner_profiles: Vec<ProfileServing>,
    /// The mixed-configuration pool packed over the same geometries.
    pub mixed: MixedPackOutcome,
    /// Mixed-pool chiplets minus winner chiplets (negative: the pool is
    /// cheaper); `None` when no uniform configuration is feasible.
    pub mixed_chiplet_delta: Option<i64>,
    /// The priority-preemption demo.
    pub preemption: PreemptionDemo,
}

/// The profile prefix of a sampled vehicle name (`av-cruise-017` →
/// `av-cruise`).
fn profile_of(name: &str) -> &str {
    name.rsplit_once('-').map_or(name, |(prefix, _)| prefix)
}

/// Runs the fleet DSE: sample, pack every uniform pool, select the
/// cheapest feasible configuration, pack the mixed pool, and simulate
/// the preemption event. Deterministic at any `--jobs` count: the
/// sampler is seeded, packing is canonical-order first-fit, and the
/// Study selection folds with first-minimum tie-breaks.
pub fn run() -> FleetDse {
    let fleet = FleetSpec::sample(FLEET_SIZE, FLEET_SEED);
    let model = FittedMaestro::new();

    // Uniform pools: one first-fit packing per geometry, fanned out on
    // the worker pool, every geometry calling the one cost model.
    let grid = Grid::of(Axis::new("geometry", FLEET_GEOMETRIES.to_vec()));
    let study = Study::new("fleet", grid, &model).run(|&(w, h), model| {
        pack_fleet(&fleet.vehicles, &os256_package(w, h), model, FLEET_FRAMES)
    });

    // The fleet-wide tail cap is the loosest per-vehicle bound: every
    // admitted vehicle already holds its own (tighter) bound, so the
    // Study constraint asserts the packing surface agrees.
    let tail_cap = Seconds::new(
        fleet
            .vehicles
            .iter()
            .map(|v| v.slo.p99_bound.as_secs())
            .fold(0.0, f64::max),
    );
    let constraints = [
        Constraint::new("every vehicle admitted", |m: &PackingOutcome| {
            m.rejected.is_empty()
        }),
        Constraint::tail_at_most(Percentile::P99, tail_cap.as_secs()),
    ];
    let objective = Objective::minimize("fleet chiplets", |m: &PackingOutcome| {
        m.total_chiplets() as f64
    });
    let winner = study.select(&objective, &constraints);
    let feasible = study.feasible(&constraints);

    let configs: Vec<FleetConfigPoint> = study
        .metrics()
        .iter()
        .zip(&feasible)
        .map(|(m, &ok)| {
            let mut rejects: Vec<RejectSummary> = Vec::new();
            for r in &m.rejected {
                let profile = profile_of(&r.name).to_string();
                let reason = r.reason.to_string();
                match rejects
                    .iter_mut()
                    .find(|g| g.profile == profile && g.reason == reason)
                {
                    Some(group) => group.count += 1,
                    None => rejects.push(RejectSummary {
                        profile,
                        priority: r.priority.clone(),
                        count: 1,
                        reason,
                    }),
                }
            }
            FleetConfigPoint {
                config: m.config.clone(),
                chiplets_per_instance: m.chiplets_per_instance,
                instances: m.instance_count(),
                total_chiplets: m.total_chiplets(),
                admitted: m.admitted(),
                rejected: m.rejected.len(),
                admission_rate: m.admission_rate(),
                worst_p99_ms_by_class: m.worst_p99_ms_by_class(),
                fleet_p99: Seconds::new(m.tail_latency(Percentile::P99)),
                feasible: ok,
                rejects,
            }
        })
        .collect();
    let cheapest_feasible = winner.map(|i| configs[i].config.clone());

    // Per-profile serving stats on the winner.
    let mut winner_profiles: Vec<ProfileServing> = Vec::new();
    if let Some(i) = winner {
        for inst in &study.metrics()[i].instances {
            for t in &inst.tenants {
                let profile = profile_of(&t.name);
                match winner_profiles.iter_mut().find(|p| p.profile == profile) {
                    Some(p) => {
                        p.vehicles += 1;
                        p.worst_p99_ms = p.worst_p99_ms.max(t.p99_ms);
                    }
                    None => winner_profiles.push(ProfileServing {
                        profile: profile.to_string(),
                        priority: t.priority.clone(),
                        vehicles: 1,
                        worst_p99_ms: t.p99_ms,
                        p99_bound_ms: t.p99_bound_ms,
                    }),
                }
            }
        }
    }

    // The mixed pool over the same geometries.
    let mixed = pack_fleet_mixed(&fleet.vehicles, &FLEET_GEOMETRIES, &model, FLEET_FRAMES);
    let mixed_chiplet_delta =
        winner.map(|i| mixed.total_chiplets as i64 - configs[i].total_chiplets as i64);

    // Preemption demo on the tail-DSE's p99 winner geometry: two
    // healthy best-effort miners split the mesh evenly — a colocation
    // admission itself would accept — until a safety-critical cruise
    // stack arrives mid-drive and its boosted weight takes most of
    // their silicon.
    let catalog = VehicleProfile::catalog();
    let profile = |name: &str| {
        catalog
            .iter()
            .find(|p| p.name == name)
            .expect("catalog profile")
    };
    let incumbents = vec![profile("mining").vehicle(1), profile("mining").vehicle(2)];
    let arriving = profile("av-cruise").vehicle(0);
    let pkg = os256_package(8, 6);
    let package = pkg.name().to_string();
    let mut sched = CoScheduler::new(pkg, &model).with_verify_frames(FLEET_FRAMES);
    let event = preemption_event(
        &mut sched,
        &incumbents,
        &arriving,
        PREEMPT_AT,
        PREEMPT_FRAMES,
        &ReconfigModel::default(),
    )
    .expect("the post-event partition exists");
    let bound_of = |name: &str| -> Seconds {
        incumbents
            .iter()
            .chain(std::iter::once(&arriving))
            .find(|t| t.name == name)
            .map(|t| t.slo.p99_bound)
            .expect("event tenant")
    };
    let preemption = PreemptionDemo {
        package,
        at: event.at,
        frames_per_epoch: PREEMPT_FRAMES,
        tenants: event
            .tenants
            .iter()
            .map(|t| TenantPhasesSummary::new(t, bound_of(&t.name)))
            .collect(),
    };

    // Fleet composition, catalog order.
    let composition = catalog
        .iter()
        .map(|p| ProfileCount {
            profile: p.name.to_string(),
            priority: p.priority.label().to_string(),
            count: fleet
                .vehicles
                .iter()
                .filter(|v| profile_of(&v.name) == p.name)
                .count(),
        })
        .collect();

    FleetDse {
        fleet_size: FLEET_SIZE,
        seed: FLEET_SEED,
        frames: FLEET_FRAMES,
        composition,
        class_counts: fleet.class_counts(),
        tail_cap,
        configs,
        cheapest_feasible,
        winner_profiles,
        mixed,
        mixed_chiplet_delta,
        preemption,
    }
}

impl fmt::Display for FleetDse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let opt_ms = |v: Option<f64>| v.map_or_else(|| "-".into(), |x| format!("{x:.2}"));
        let mut t = TextTable::new(
            format!(
                "Fleet package-mix DSE - {} vehicles (seed {}), {} DES frames per admission",
                self.fleet_size, self.seed, self.frames
            ),
            &[
                "config",
                "chiplets",
                "inst",
                "fleet chiplets",
                "admitted",
                "rejected",
                "adm%",
                "p99 safety",
                "p99 standard",
                "p99 best-eff",
                "feasible",
            ],
        );
        for c in &self.configs {
            let [safety, standard, best_effort] = c.worst_p99_ms_by_class;
            t.row(vec![
                c.config.clone(),
                c.chiplets_per_instance.to_string(),
                c.instances.to_string(),
                c.total_chiplets.to_string(),
                c.admitted.to_string(),
                c.rejected.to_string(),
                format!("{:.1}", c.admission_rate * 100.0),
                opt_ms(safety),
                opt_ms(standard),
                opt_ms(best_effort),
                if c.feasible {
                    if Some(&c.config) == self.cheapest_feasible.as_ref() {
                        "yes <<"
                    } else {
                        "yes"
                    }
                } else {
                    "no"
                }
                .to_string(),
            ]);
        }
        let composition = self
            .composition
            .iter()
            .map(|p| format!("{} {} ({})", p.count, p.profile, p.priority))
            .collect::<Vec<_>>()
            .join(", ");
        t.note(format!("fleet: {composition}"));
        t.note(format!(
            "cheapest feasible uniform pool: {} (tail cap {} ms; per-vehicle \
             bounds enforced at admission)",
            self.cheapest_feasible.as_deref().unwrap_or("-"),
            ms(self.tail_cap),
        ));
        for c in self.configs.iter().filter(|c| !c.rejects.is_empty()) {
            for g in &c.rejects {
                t.note(format!(
                    "{}: rejects {} {} - {}",
                    c.config, g.count, g.profile, g.reason
                ));
            }
        }
        let mix = self
            .mixed
            .mix
            .iter()
            .map(|(name, n)| format!("{n}x {name}"))
            .collect::<Vec<_>>()
            .join(" + ");
        t.note(format!(
            "mixed pool: {} admits {}/{} on {} chiplets ({} vs the uniform winner)",
            mix,
            self.mixed.admitted,
            self.fleet_size,
            self.mixed.total_chiplets,
            match self.mixed_chiplet_delta {
                Some(d) if d < 0 => format!("{d}"),
                Some(d) => format!("+{d}"),
                None => "no winner".into(),
            },
        ));
        t.fmt(f)?;

        let mut p = TextTable::new(
            format!(
                "Priority preemption on {} - safety arrival at t={}, \
                 {} frames/epoch",
                self.preemption.package, self.preemption.at, self.preemption.frames_per_epoch
            ),
            &[
                "tenant",
                "class",
                "cols",
                "reprog",
                "stall",
                "stallwin[ms]",
                "p99 before",
                "p99 after",
                "bound",
                "SLO",
                "served",
                "dropped",
                "flushed",
            ],
        );
        for t in &self.preemption.tenants {
            p.row(vec![
                t.name.clone(),
                t.priority.clone(),
                format!("{}->{}", t.columns_before, t.columns_after),
                t.reprogrammed.to_string(),
                t.stalled.to_string(),
                format!("{:.2}", t.stall_window_ms),
                opt_ms(t.p99_before_ms),
                format!("{:.2}", t.p99_after_ms),
                format!("{:.2}", t.p99_bound_ms),
                if t.slo_holds { "ok" } else { "miss" }.to_string(),
                t.served.to_string(),
                t.dropped.to_string(),
                t.flushed.to_string(),
            ]);
        }
        p.note(
            "the arriving safety stack takes its region from the best-effort \
             victim; migrating tenants stall only their re-programmed busy \
             chiplets, drop the frames arriving inside that window, and — \
             when the whole region quiesces — flush the frames in flight at \
             the event",
        );
        p.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use npu_fleet::Priority;

    use super::*;

    /// Hundreds of admission DES runs; run once and share across tests.
    fn dse() -> &'static FleetDse {
        static DSE: OnceLock<FleetDse> = OnceLock::new();
        DSE.get_or_init(run)
    }

    #[test]
    fn fleet_covers_the_required_scale() {
        let dse = dse();
        assert!(dse.fleet_size >= 100, "ISSUE 9 floor: a 100+ vehicle fleet");
        assert!(dse.configs.len() >= 3, "at least three package configs");
        assert_eq!(
            dse.composition.iter().map(|p| p.count).sum::<usize>(),
            dse.fleet_size
        );
        assert!(dse.class_counts.iter().all(|&c| c > 0));
        for c in &dse.configs {
            assert_eq!(c.admitted + c.rejected, dse.fleet_size);
            assert!((0.0..=1.0).contains(&c.admission_rate));
        }
    }

    #[test]
    fn the_cheapest_feasible_configuration_wins() {
        let dse = dse();
        let winner = dse.cheapest_feasible.as_deref().expect("a feasible config");
        let win = dse.configs.iter().find(|c| c.config == winner).unwrap();
        assert!(win.feasible && win.rejected == 0);
        assert!((win.admission_rate - 1.0).abs() < 1e-12);
        // First-minimum: no feasible config is cheaper.
        for c in dse.configs.iter().filter(|c| c.feasible) {
            assert!(c.total_chiplets >= win.total_chiplets, "{}", c.config);
        }
        // And some cheaper geometry is infeasible with typed reasons —
        // the admission-control layer is load-bearing, not decorative.
        let infeasible: Vec<_> = dse.configs.iter().filter(|c| !c.feasible).collect();
        assert!(!infeasible.is_empty());
        for c in &infeasible {
            assert!(!c.rejects.is_empty(), "{} rejects carry reasons", c.config);
            assert_eq!(c.rejects.iter().map(|g| g.count).sum::<usize>(), c.rejected);
        }
    }

    #[test]
    fn the_winner_reports_per_class_tails_within_bounds() {
        let dse = dse();
        let winner = dse.cheapest_feasible.as_deref().expect("a feasible config");
        let win = dse.configs.iter().find(|c| c.config == winner).unwrap();
        for (class, p99) in Priority::ALL.iter().zip(win.worst_p99_ms_by_class) {
            let p99 = p99.unwrap_or_else(|| panic!("{class} has admitted vehicles"));
            assert!(p99 / 1e3 <= dse.tail_cap.as_secs(), "{class}: {p99} ms");
        }
        assert!(win.fleet_p99 <= dse.tail_cap);
        // Every profile is served within its own (tighter) bound.
        assert_eq!(dse.winner_profiles.len(), dse.composition.len());
        for p in &dse.winner_profiles {
            assert!(p.worst_p99_ms <= p.p99_bound_ms, "{}", p.profile);
        }
    }

    #[test]
    fn preemption_degrades_the_victim_but_not_the_safety_arriver() {
        let dse = dse();
        let t = |name: &str| {
            dse.preemption
                .tenants
                .iter()
                .find(|t| t.name.starts_with(name))
                .unwrap_or_else(|| panic!("{name} in the demo"))
        };
        // The safety arriver lands, is served, and holds its p99 SLO.
        let arriver = t("av-cruise");
        assert_eq!(arriver.priority, "safety");
        assert_eq!(arriver.columns_before, 0);
        assert!(arriver.columns_after > 0);
        assert!(arriver.served > 0);
        assert!(arriver.slo_holds, "{arriver:?}");
        // The best-effort victim loses columns and its p99 moves.
        let victim = t("mining");
        assert_eq!(victim.priority, "best-effort");
        assert!(victim.columns_after < victim.columns_before);
        let before = victim.p99_before_ms.expect("victim ran in epoch 1");
        assert!(
            (victim.p99_after_ms - before).abs() > 1e-6,
            "preemption must move the victim's p99 ({before} vs {})",
            victim.p99_after_ms
        );
        // Migrations are charged and frames balance across the event.
        let migrated = dse
            .preemption
            .tenants
            .iter()
            .filter(|t| t.columns_before != t.columns_after);
        for t in migrated {
            assert!(t.transition_ms > 0.0, "{} migrated for free", t.name);
        }
        let dropped: usize = dse.preemption.tenants.iter().map(|t| t.dropped).sum();
        assert!(dropped > 0, "spin-up windows drop frames");
        for t in &dse.preemption.tenants {
            assert_eq!(t.offered, t.served + t.dropped + t.flushed, "{}", t.name);
            assert!(t.stalled <= t.reprogrammed, "{}", t.name);
            assert!(t.stall_window_ms <= t.transition_ms, "{}", t.name);
        }
    }

    #[test]
    fn the_mixed_pool_is_compared_against_the_winner() {
        let dse = dse();
        assert_eq!(dse.mixed.admitted + dse.mixed.rejected, dse.fleet_size);
        assert!(!dse.mixed.mix.is_empty());
        let delta = dse.mixed_chiplet_delta.expect("winner exists");
        let winner = dse.cheapest_feasible.as_deref().unwrap();
        let win = dse.configs.iter().find(|c| c.config == winner).unwrap();
        assert_eq!(
            delta,
            dse.mixed.total_chiplets as i64 - win.total_chiplets as i64
        );
        // The pool admits at least as much as the best uniform config.
        assert!(dse.mixed.admitted >= win.admitted);
    }

    #[test]
    fn renders_both_formats_from_one_run() {
        let dse = dse();
        let text = dse.to_string();
        assert!(text.contains("Fleet package-mix DSE"));
        assert!(text.contains("Priority preemption"));
        assert!(text.contains("cheapest feasible"));
        let json = serde_json::to_string_pretty(dse).expect("serializes");
        assert!(json.contains("\"cheapest_feasible\""));
        assert!(json.contains("\"preemption\""));
        assert!(json.contains("\"mixed\""));
    }
}
