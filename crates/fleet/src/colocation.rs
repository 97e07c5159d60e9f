//! Region partitioning and co-scheduling: N tenants sharing one
//! package.
//!
//! The co-scheduler partitions a package's chiplet mesh into contiguous
//! **column bands**, one per tenant, sized by priority-boosted compute
//! demand under a deterministic divisor apportionment (D'Hondt with
//! first-index tie-break). Each tenant's workload is then matched onto
//! its band in isolation — a band is an isometric sub-mesh, so the
//! matched schedule translates chiplet-for-chiplet onto the full
//! package — and each tenant is verified by a DES run of its placement
//! alone ([`npu_pipesim::simulate`] on one stream). The bands are
//! disjoint, so no tenant's stream shares a chiplet with another's, and
//! `simulate` gives such a stream an engine pass of its own, the same
//! report, bit for bit, as one shared calendar over all the streams
//! would: verifying the tenants one at a time is exactly verifying them
//! together. A tenant's report therefore depends only on its scenario
//! and its band, and the co-scheduler simulates each (band, scenario)
//! placement once.
//!
//! Re-partitioning (admission trials, preemption) recompiles the same
//! few scenarios onto the same few bands over and over, so the
//! co-scheduler keeps three memos, all keyed by the scenario's
//! fingerprint: each scenario's built perception pipeline and demand,
//! each (band width, scenario) match, and each (band, scenario)
//! verification report. A band match computes only what admission
//! reads, the schedule and its analytic pipe
//! ([`ThroughputMatcher::match_schedule`]). A placement's schedule is a
//! view ([`PlacedSchedule`]) that shares its band's match with the memo
//! and translates to full-package chiplet ids only where they are read.
//!
//! Admission is deterministic and two-staged: an analytic feasibility
//! screen (the matcher's predicted steady interval against each trial
//! tenant's mean target) rejects hopeless colocations cheaply, then the
//! DES verifies every tenant's mean *and* p99 SLO on the trial
//! partition. The screen runs per tenant, as soon as its band is
//! matched, and a trial stops at its first failing tenant, before the
//! tenants after it are matched. Candidates are processed in canonical
//! (priority, name) order, so the outcome is invariant under
//! permutation of the input.

use std::collections::BTreeMap;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

use npu_maestro::CostModel;
use npu_mcm::{ChipletId, McmPackage};
use npu_noc::Mesh2d;
use npu_pipesim::{simulate, PhaseReport, Readiness, SimConfig, SimPhase};
use npu_scenario::PerceptionPipeline;
use npu_sched::{MatcherConfig, Schedule, ThroughputMatcher};
use npu_tensor::{Dtype, Seconds};

use crate::tenant::{canonical_order, scenario_demand, scenario_key, RejectReason, Tenant};

/// Frames per tenant in the admission DES verification: long enough to
/// resolve queueing tails on the trimmed window, short enough that
/// packing hundreds of vehicles stays interactive.
pub const VERIFY_FRAMES: usize = 64;

/// A contiguous column band `[lo, hi)` of the package mesh: one
/// tenant's chiplet region. Column bands are isometric sub-meshes —
/// translating `(x, y) → (x + lo, y)` preserves every hop distance
/// between chiplets — so a schedule matched on the band keeps its
/// chiplet-to-chiplet transfers when flattened onto the full package.
/// Its DRAM reads get longer: the DRAM ports sit on the package's west
/// edge, so every chiplet of a band at `lo > 0` is `lo` hops further
/// from DRAM than on the band alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Region {
    /// First mesh column of the band (inclusive).
    pub lo: u32,
    /// One past the last column.
    pub hi: u32,
}

impl Region {
    /// Columns in the band.
    pub fn width(&self) -> u32 {
        self.hi - self.lo
    }

    /// The band's chiplets on the full mesh, ascending id order.
    pub fn chiplets(&self, mesh: Mesh2d) -> Vec<ChipletId> {
        let mut out = Vec::with_capacity((self.width() * mesh.height()) as usize);
        for y in 0..mesh.height() {
            for x in self.lo..self.hi {
                out.push(ChipletId(y * mesh.width() + x));
            }
        }
        out
    }
}

/// Apportions `total_cols` mesh columns over positive demand weights,
/// at least one column each: start everyone at one column, then hand
/// the remaining columns one at a time to the tenant with the highest
/// per-column demand (D'Hondt divisor method, strict `>` so ties keep
/// the first index — deterministic). Returns `None` when there are more
/// tenants than columns, or when any weight is non-finite or
/// non-positive (a NaN weight would otherwise poison every divisor
/// comparison and silently starve the remaining tenants).
pub fn apportion_columns(weights: &[f64], total_cols: u32) -> Option<Vec<u32>> {
    let k = weights.len();
    if k == 0 || k as u32 > total_cols {
        return None;
    }
    if !weights.iter().all(|w| w.is_finite() && *w > 0.0) {
        return None;
    }
    let mut cols = vec![1u32; k];
    for _ in 0..total_cols - k as u32 {
        let mut best = 0;
        let mut best_score = weights[0] / cols[0] as f64;
        for (i, &w) in weights.iter().enumerate().skip(1) {
            let score = w / cols[i] as f64;
            if score > best_score {
                best = i;
                best_score = score;
            }
        }
        cols[best] += 1;
    }
    Some(cols)
}

/// A placed schedule as a view: the band-local match, shared with the
/// co-scheduler's band memo and with every other placement of the same
/// scenario on a band of the same width, plus the band it sits on.
///
/// The co-scheduler's own readers of full-package chiplet ids take an
/// owned translation where they read them. The view also dereferences
/// to the full-package schedule, translated once on first use and kept,
/// for readers that only borrow it.
#[derive(Debug, Clone)]
pub struct PlacedSchedule {
    band: Arc<Schedule>,
    region: Region,
    mesh_w: u32,
    full: OnceLock<Schedule>,
}

impl PlacedSchedule {
    /// A new copy of the schedule in full-package chiplet ids (see
    /// [`translate_schedule`]).
    pub(crate) fn translated(&self) -> Schedule {
        translate_schedule(
            Arc::clone(&self.band),
            self.region,
            self.mesh_w,
            self.region.width(),
        )
    }
}

impl Deref for PlacedSchedule {
    type Target = Schedule;

    /// The schedule in full-package chiplet ids, translated on first use.
    fn deref(&self) -> &Schedule {
        self.full.get_or_init(|| self.translated())
    }
}

impl PartialEq for PlacedSchedule {
    /// Equal views translate to equal schedules; the kept translation is
    /// a cache and takes no part.
    fn eq(&self, other: &PlacedSchedule) -> bool {
        (self.region, self.mesh_w) == (other.region, other.mesh_w) && self.band == other.band
    }
}

/// One tenant's compiled placement in a colocation.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantPlacement {
    /// The tenant.
    pub tenant: Tenant,
    /// Its column band.
    pub region: Region,
    /// Its schedule: the band-local match shared with the co-scheduler's
    /// memo, read in full-package chiplet ids through the view.
    pub schedule: PlacedSchedule,
    /// The matcher's analytic pipelining latency on the band.
    pub predicted_pipe: Seconds,
}

/// A compiled colocation: every tenant placed on its band, in canonical
/// (priority, name) order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Colocation {
    /// Placements in canonical tenant order.
    pub placements: Vec<TenantPlacement>,
}

impl Colocation {
    /// Looks a tenant's placement up by name.
    pub fn placement(&self, name: &str) -> Option<&TenantPlacement> {
        self.placements.iter().find(|p| p.tenant.name == name)
    }
}

/// The result of running deterministic admission control over a set of
/// candidate tenants.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionOutcome {
    /// The final colocation of all admitted tenants.
    pub colocation: Colocation,
    /// The final DES verification reports, aligned with
    /// `colocation.placements`.
    pub reports: Vec<PhaseReport>,
    /// Tenants turned away, in the order they were considered, each
    /// with its typed reason.
    pub rejected: Vec<(Tenant, RejectReason)>,
}

impl AdmissionOutcome {
    /// Admitted tenant count.
    pub fn admitted(&self) -> usize {
        self.colocation.placements.len()
    }
}

/// One scenario's facts that every trial reads: its built perception
/// pipeline and its compute demand.
struct ScenarioEntry {
    workload: PerceptionPipeline,
    demand: f64,
}

/// The co-scheduler: one package, one cost model, and three memos so
/// re-partitioning (admission trials, preemption) never rebuilds a
/// scenario's pipeline it has already built, never re-runs the matcher
/// for a (workload, band width) pair it has already compiled, nor the
/// DES for a (band, workload) placement it has already verified.
///
/// [`compile`](Self::compile) (which preemption calls) matches every
/// tenant; [`try_colocate`](Self::try_colocate) runs the same placement
/// loop but screens each tenant as it is placed and matches no tenant
/// after the first one the screen rejects.
pub struct CoScheduler<'m> {
    pkg: McmPackage,
    model: &'m dyn CostModel,
    verify_frames: usize,
    /// Scenario fingerprint → built pipeline and demand: `compile`'s
    /// apportionment weights and the band matches both read it.
    scenarios: BTreeMap<String, ScenarioEntry>,
    /// (band width, scenario fingerprint) → (band-local schedule,
    /// analytic pipe). Bands of equal width are identical sub-meshes on
    /// a homogeneous package, so the match result is position-free, and
    /// every placement it serves shares the one schedule.
    cache: BTreeMap<(u32, String), (Arc<Schedule>, Seconds)>,
    /// (band `lo`, band width, scenario fingerprint) → the placement's
    /// verification report over `verify_frames` frames. Not
    /// position-free: a band further east reads DRAM over more hops.
    verified: BTreeMap<(u32, u32, String), PhaseReport>,
}

impl<'m> CoScheduler<'m> {
    /// Creates a co-scheduler for one package.
    pub fn new(pkg: McmPackage, model: &'m dyn CostModel) -> CoScheduler<'m> {
        CoScheduler {
            pkg,
            model,
            verify_frames: VERIFY_FRAMES,
            scenarios: BTreeMap::new(),
            cache: BTreeMap::new(),
            verified: BTreeMap::new(),
        }
    }

    /// Overrides the admission verification window. Reports verified
    /// over the old window are dropped.
    pub fn with_verify_frames(mut self, frames: usize) -> CoScheduler<'m> {
        self.verify_frames = frames;
        self.verified.clear();
        self
    }

    /// The package being co-scheduled.
    pub fn package(&self) -> &McmPackage {
        &self.pkg
    }

    /// The cost model driving the matcher and the DES.
    pub fn model(&self) -> &'m dyn CostModel {
        self.model
    }

    /// Frames per tenant in the DES verification.
    pub fn verify_frames(&self) -> usize {
        self.verify_frames
    }

    /// Partitions the mesh over `tenants` (which must already be in
    /// canonical order — admission and preemption maintain that) and
    /// matches every tenant onto its band. Fails only when there are
    /// more tenants than mesh columns.
    pub fn compile(&mut self, tenants: &[Tenant]) -> Result<Colocation, RejectReason> {
        self.place(tenants, |_| Ok(()))
    }

    /// The partition-and-place loop of [`compile`](Self::compile) and
    /// [`try_colocate`](Self::try_colocate): apportions the mesh columns,
    /// then places the tenants left to right, matching each onto its band
    /// and handing the placement to `check` before the next tenant is
    /// matched. The first error `check` returns ends the loop, so no
    /// tenant after the one it rejects is matched.
    fn place(
        &mut self,
        tenants: &[Tenant],
        mut check: impl FnMut(&TenantPlacement) -> Result<(), RejectReason>,
    ) -> Result<Colocation, RejectReason> {
        let mesh = self.pkg.mesh();
        let weights: Vec<f64> = tenants.iter().map(|t| self.weight(t)).collect();
        let cols = apportion_columns(&weights, mesh.width()).ok_or(RejectReason::NoCapacity {
            tenants: tenants.len(),
            columns: mesh.width(),
        })?;
        let mut placements = Vec::with_capacity(tenants.len());
        let mut lo = 0u32;
        for (tenant, &width) in tenants.iter().zip(&cols) {
            let region = Region { lo, hi: lo + width };
            lo += width;
            let (band, pipe) = self.band_schedule(tenant, width);
            let placement = TenantPlacement {
                tenant: tenant.clone(),
                region,
                schedule: PlacedSchedule {
                    band,
                    region,
                    mesh_w: mesh.width(),
                    full: OnceLock::new(),
                },
                predicted_pipe: pipe,
            };
            check(&placement)?;
            placements.push(placement);
        }
        Ok(Colocation { placements })
    }

    /// A tenant's scenario entry: built and stored on first use.
    fn scenario(&mut self, tenant: &Tenant) -> &ScenarioEntry {
        self.scenarios
            .entry(scenario_key(tenant))
            .or_insert_with(|| {
                let workload = tenant.scenario.workload();
                let demand = scenario_demand(&tenant.scenario, &workload);
                ScenarioEntry { workload, demand }
            })
    }

    /// A tenant's apportionment weight: [`Tenant::weighted_demand`] on
    /// the memoized demand.
    fn weight(&mut self, tenant: &Tenant) -> f64 {
        self.scenario(tenant).demand * tenant.priority.weight_boost()
    }

    /// Matches a tenant's workload onto a width-`width` band, cached
    /// per (width, scenario). The schedule, in band-local chiplet ids,
    /// is the memo's own: a hit copies a pointer, not the schedule.
    ///
    /// The match is [`ThroughputMatcher::match_schedule`]: admission
    /// reads only the schedule and its analytic pipe, so the band match
    /// builds no step trace and no Fig. 9 NoP attribution, and returns
    /// what `match_throughput` would, bit for bit.
    fn band_schedule(&mut self, tenant: &Tenant, width: u32) -> (Arc<Schedule>, Seconds) {
        let key = (width, scenario_key(tenant));
        if let Some((band, pipe)) = self.cache.get(&key) {
            return (Arc::clone(band), *pipe);
        }
        let (band_pkg, model) = (self.band_package(width), self.model);
        let cfg = MatcherConfig {
            allow_fe_split: true,
            ..MatcherConfig::default()
        };
        let (schedule, pipe) = ThroughputMatcher::new(model, cfg)
            .match_schedule(&self.scenario(tenant).workload, &band_pkg);
        let band = Arc::new(schedule);
        self.cache.insert(key, (Arc::clone(&band), pipe));
        (band, pipe)
    }

    /// The width-`width` sub-package a band schedule is matched on.
    fn band_package(&self, width: u32) -> McmPackage {
        let mesh = self.pkg.mesh();
        McmPackage::from_fn(
            format!("{}/band{}", self.pkg.name(), width),
            Mesh2d::new(width, mesh.height()),
            |i| {
                // Band node i = (x, y) = (i % width, i / width) maps to
                // global column i % width (position-free: bands of one
                // width share this package on a homogeneous mesh).
                let (x, y) = (i % width, i / width);
                self.pkg
                    .chiplet(ChipletId(y * mesh.width() + x))
                    .accelerator()
                    .clone()
            },
        )
    }

    /// Verifies a colocation: every tenant serves `verify_frames` frames
    /// of its own arrival process, its band ready at t = 0. Reports are
    /// aligned with `colo.placements`.
    ///
    /// `colo` must come from [`compile`](Self::compile), whose bands are
    /// disjoint: a tenant's stream then shares no chiplet with any
    /// other, and [`npu_pipesim::simulate`] gives it bit for bit
    /// the report it gets alone. So each placement is simulated alone,
    /// once per (band, scenario), and served from a memo afterwards.
    pub fn verify(&mut self, colo: &Colocation) -> Vec<PhaseReport> {
        debug_assert!(
            colo.placements
                .windows(2)
                .all(|w| w[0].region.hi <= w[1].region.lo),
            "verification memo needs the disjoint bands `compile` lays out"
        );
        colo.placements.iter().map(|p| self.report(p)).collect()
    }

    /// One placement's verification report: the memo's, or a DES run of
    /// the placement alone on its own full-package translation.
    fn report(&mut self, p: &TenantPlacement) -> PhaseReport {
        let key = (p.region.lo, p.region.width(), scenario_key(&p.tenant));
        let frames = self.verify_frames;
        let (pkg, model) = (&self.pkg, self.model);
        self.verified
            .entry(key)
            .or_insert_with(|| {
                let full = p.schedule.translated();
                let stream = SimPhase {
                    schedule: &full,
                    times: p.tenant.scenario.arrivals().times(frames),
                    readiness: Readiness::Barrier(0.0),
                    warmup: Some(SimConfig::default_warmup(frames)),
                    cutoff: None,
                };
                simulate(&[stream], pkg, model, Dtype::Fp16)
                    .expect("a matched band under scenario arrivals is a valid stream")
                    .remove(0)
            })
            .clone()
    }

    /// Compiles and fully checks one trial colocation: the analytic
    /// screen of each tenant as soon as its band is matched, then the
    /// DES verification of each tenant's mean and p99 SLO in canonical
    /// order. Both stop at their first failure: a tenant after the first
    /// one the screen rejects is never matched, and a tenant after the
    /// first SLO violation (the one [`slo_violation`] names) is never
    /// simulated. The screen of a tenant reads only its own placement,
    /// so this returns the rejection a full [`compile`](Self::compile)
    /// followed by a screen of every tenant in order would. `tenants`
    /// must be in canonical order.
    pub fn try_colocate(
        &mut self,
        tenants: &[Tenant],
    ) -> Result<(Colocation, Vec<PhaseReport>), RejectReason> {
        let colo = self.place(tenants, analytic_screen)?;
        let mut reports = Vec::with_capacity(colo.placements.len());
        for p in &colo.placements {
            let report = self.report(p);
            if let Some(reason) = placement_violation(p, &report) {
                return Err(reason);
            }
            reports.push(report);
        }
        Ok((colo, reports))
    }

    /// Deterministic admission control: candidates are considered in
    /// canonical (priority, name) order; each is admitted iff the
    /// re-partitioned colocation passes the analytic screen and the DES
    /// verification for **every** tenant (the candidate and all
    /// incumbents, whose regions it shrinks). The outcome is invariant
    /// under permutation of `candidates`.
    pub fn admit(&mut self, candidates: &[Tenant]) -> AdmissionOutcome {
        let mut ordered = candidates.to_vec();
        canonical_order(&mut ordered);
        let mut admitted: Vec<Tenant> = Vec::new();
        let mut rejected = Vec::new();
        let mut best: Option<(Colocation, Vec<PhaseReport>)> = None;
        for cand in ordered {
            let mut trial = admitted.clone();
            trial.push(cand.clone());
            canonical_order(&mut trial);
            match self.try_colocate(&trial) {
                Ok(ok) => {
                    admitted = trial;
                    best = Some(ok);
                }
                Err(reason) => rejected.push((cand, reason)),
            }
        }
        let (colocation, reports) = best.unwrap_or_default();
        AdmissionOutcome {
            colocation,
            reports,
            rejected,
        }
    }
}

/// The analytic admission screen of one placement: the matcher's
/// predicted steady interval against the tenant's mean target.
fn analytic_screen(p: &TenantPlacement) -> Result<(), RejectReason> {
    let predicted = p.tenant.scenario.predicted_interval(p.predicted_pipe);
    if predicted.as_secs() > p.tenant.slo.latency_target.as_secs() {
        return Err(RejectReason::AnalyticInfeasible {
            tenant: p.tenant.name.clone(),
            predicted,
            target: p.tenant.slo.latency_target,
        });
    }
    Ok(())
}

/// The first SLO violation in a verified colocation, in canonical
/// tenant order: mean target first, then the p99 bound.
pub fn slo_violation(colo: &Colocation, reports: &[PhaseReport]) -> Option<RejectReason> {
    colo.placements
        .iter()
        .zip(reports)
        .find_map(|(p, rep)| placement_violation(p, rep))
}

/// One tenant's SLO violation, if any: mean target first, then the p99
/// bound.
fn placement_violation(p: &TenantPlacement, rep: &PhaseReport) -> Option<RejectReason> {
    let measured = rep.report.steady_interval;
    if measured.as_secs() > p.tenant.slo.latency_target.as_secs() {
        return Some(RejectReason::MeanSloViolated {
            tenant: p.tenant.name.clone(),
            measured,
            target: p.tenant.slo.latency_target,
        });
    }
    let p99 = rep.report.tails.p99;
    if p99.as_secs() > p.tenant.slo.p99_bound.as_secs() {
        return Some(RejectReason::TailSloViolated {
            tenant: p.tenant.name.clone(),
            p99,
            bound: p.tenant.slo.p99_bound,
        });
    }
    None
}

/// Rebases a band-local schedule onto the full mesh: band chiplet
/// `(x, y)` (id `y·width + x`) becomes global chiplet
/// `(region.lo + x, y)` (id `y·mesh_w + region.lo + x`). The ids are
/// rewritten on a new copy of the schedule, or in place when `band` is
/// its only reference.
///
/// Column bands are isometric, so every hop count between two chiplets
/// is preserved. Hops to DRAM are not: the DRAM ports sit on the
/// package's west edge, `x + 1` hops from column `x`
/// ([`npu_noc::DramPorts::hops_to_dram`]), so a band at `region.lo > 0`
/// pays `region.lo` more hops on every root-layer input read than the
/// band-local match assumed. The DES charges those hops; the cached
/// [`TenantPlacement::predicted_pipe`] of the analytic admission screen
/// does not.
fn translate_schedule(band: Arc<Schedule>, region: Region, mesh_w: u32, width: u32) -> Schedule {
    let mut band = Arc::unwrap_or_clone(band);
    let map = |c: ChipletId| {
        let (x, y) = (c.0 % width, c.0 / width);
        ChipletId(y * mesh_w + region.lo + x)
    };
    for stage in &mut band.stages {
        for c in &mut stage.region {
            *c = map(*c);
        }
        for mp in &mut stage.models {
            for lp in &mut mp.layers {
                for shard in &mut lp.shards {
                    shard.chiplet = map(shard.chiplet);
                }
            }
        }
    }
    band
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::Priority;
    use npu_maestro::FittedMaestro;
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

    #[test]
    fn apportionment_is_proportional_and_total() {
        let cols = apportion_columns(&[3.0, 1.0], 8).unwrap();
        assert_eq!(cols.iter().sum::<u32>(), 8);
        assert_eq!(cols, vec![6, 2]);
        // Everyone keeps at least one column even with tiny demand.
        let cols = apportion_columns(&[100.0, 1e-6], 6).unwrap();
        assert_eq!(cols, vec![5, 1]);
        // More tenants than columns: no partition.
        assert!(apportion_columns(&[1.0; 7], 6).is_none());
        assert!(apportion_columns(&[], 6).is_none());
        // Ties break to the first index.
        let cols = apportion_columns(&[1.0, 1.0, 1.0], 5).unwrap();
        assert_eq!(cols, vec![2, 2, 1]);
    }

    #[test]
    fn degenerate_weights_are_rejected_in_release_builds_too() {
        // A NaN weight poisons every `>` divisor comparison and a zero
        // or negative weight starves its tenant: all must fail closed,
        // not just under `debug_assert!`.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0] {
            assert!(
                apportion_columns(&[1.0, bad, 2.0], 8).is_none(),
                "weight {bad} must be rejected"
            );
        }
        assert!(apportion_columns(&[f64::NAN], 4).is_none());
    }

    #[test]
    fn regions_tile_the_mesh() {
        let mesh = Mesh2d::new(6, 6);
        let a = Region { lo: 0, hi: 4 };
        let b = Region { lo: 4, hi: 6 };
        let mut all = a.chiplets(mesh);
        all.extend(b.chiplets(mesh));
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 36, "bands tile the mesh without overlap");
        assert_eq!(a.chiplets(mesh)[0], ChipletId(0));
        // Row 1 of band b starts at global id 1*6 + 4.
        assert!(b.chiplets(mesh).contains(&ChipletId(10)));
    }

    #[test]
    fn compile_places_tenants_on_disjoint_bands() {
        let model = FittedMaestro::new();
        let mut sched = CoScheduler::new(McmPackage::simba_6x6(), &model);
        let mut tenants = vec![
            tenant("a", 8, Priority::Safety),
            tenant("b", 4, Priority::BestEffort),
        ];
        canonical_order(&mut tenants);
        let colo = sched.compile(&tenants).unwrap();
        assert_eq!(colo.placements.len(), 2);
        // Bands tile left to right in canonical order.
        assert_eq!(colo.placements[0].region.lo, 0);
        assert_eq!(colo.placements[0].region.hi, colo.placements[1].region.lo);
        assert_eq!(colo.placements[1].region.hi, 6);
        // The safety tenant's boosted demand gets the wider band.
        assert!(colo.placements[0].region.width() > colo.placements[1].region.width());
        // Every shard lands inside its tenant's band.
        let mesh = sched.package().mesh();
        for p in &colo.placements {
            let band: Vec<ChipletId> = p.region.chiplets(mesh);
            for stage in &p.schedule.stages {
                for mp in &stage.models {
                    for lp in &mp.layers {
                        for shard in &lp.shards {
                            assert!(
                                band.contains(&shard.chiplet),
                                "shard on {:?} outside band {:?}",
                                shard.chiplet,
                                p.region
                            );
                        }
                    }
                }
            }
        }
    }

    /// Every chiplet a placement's schedule names: stage regions first,
    /// then shard hosts, in schedule order.
    fn placement_chiplets(p: &TenantPlacement) -> Vec<ChipletId> {
        let stages = &p.schedule.stages;
        let regions = stages.iter().flat_map(|s| s.region.iter().copied());
        let shards = stages
            .iter()
            .flat_map(|s| &s.models)
            .flat_map(|mp| &mp.layers)
            .flat_map(|lp| lp.shards.iter().map(|sh| sh.chiplet));
        regions.chain(shards).collect()
    }

    #[test]
    fn recompile_from_the_band_cache_translates_in_place() {
        let model = FittedMaestro::new();
        let mut sched = CoScheduler::new(McmPackage::simba_6x6(), &model);
        // Two tenants on one scenario: equal demand splits the mesh 3/3,
        // so the right band is a band-cache hit on the left band's match
        // even in the first compile, and the second compile is all hits.
        let shared = Scenario::new(
            "shared",
            CameraRig::new(4, (288, 512), 8.0),
            OperatingMode::HighwayCruise,
        );
        let mut tenants = vec![
            Tenant::new("left", shared.clone(), Priority::Standard),
            Tenant::new("right", shared, Priority::Standard),
        ];
        canonical_order(&mut tenants);
        let first = sched.compile(&tenants).unwrap();
        assert_eq!(sched.cache.len(), 1, "one (width, scenario) match");
        let again = sched.compile(&tenants).unwrap();
        assert_eq!(sched.cache.len(), 1, "the recompile matched nothing");
        assert_eq!(first, again);

        let mesh = sched.package().mesh();
        for p in &again.placements {
            let chiplets = placement_chiplets(p);
            assert!(!chiplets.is_empty());
            for c in chiplets {
                let x = c.0 % mesh.width();
                assert!(
                    (p.region.lo..p.region.hi).contains(&x),
                    "{}: {c:?} outside columns {:?}",
                    p.tenant.name,
                    p.region
                );
            }
        }
        // Translating one copy never touches the cached band: the right
        // placement is the left one shifted by the band width.
        let [l, r] = &again.placements[..] else {
            panic!("two placements");
        };
        assert_eq!(l.region.width(), r.region.width());
        let shifted: Vec<ChipletId> = placement_chiplets(l)
            .into_iter()
            .map(|c| ChipletId(c.0 + r.region.lo - l.region.lo))
            .collect();
        assert_eq!(shifted, placement_chiplets(r));
        assert_eq!(l.predicted_pipe, r.predicted_pipe);

        // A hit copies nothing: both bands and both compiles share the
        // one cached match, and each view reads as its translation.
        assert!(Arc::ptr_eq(&l.schedule.band, &r.schedule.band));
        assert!(Arc::ptr_eq(
            &first.placements[0].schedule.band,
            &l.schedule.band
        ));
        for p in &again.placements {
            let copy = Arc::new(Schedule::clone(&p.schedule.band));
            let full = translate_schedule(copy, p.region, mesh.width(), p.region.width());
            assert_eq!(*p.schedule, full, "{}", p.tenant.name);
            assert_eq!(p.schedule.translated(), full, "{}", p.tenant.name);
        }
    }

    #[test]
    fn apportionment_weights_are_the_tenants_weighted_demand() {
        let model = FittedMaestro::new();
        let mut sched = CoScheduler::new(crate::fleet::os256_package(6, 6), &model);
        for profile in crate::fleet::VehicleProfile::catalog() {
            for priority in Priority::ALL {
                let mut t = profile.vehicle(1);
                t.priority = priority;
                assert_eq!(
                    sched.weight(&t).to_bits(),
                    t.weighted_demand().to_bits(),
                    "{} at {priority}",
                    profile.name
                );
            }
        }
        // The memo keys the whole scenario, not its name: one name on
        // two rigs is two demands.
        let named = |cameras| {
            Tenant::new(
                "same",
                Scenario::new(
                    "same",
                    CameraRig::new(cameras, (288, 512), 8.0),
                    OperatingMode::HighwayCruise,
                ),
                Priority::Standard,
            )
        };
        let (quad, octa) = (named(4), named(8));
        let (wq, wo) = (sched.weight(&quad), sched.weight(&octa));
        assert_ne!(wq.to_bits(), wo.to_bits());
        assert_eq!(wq.to_bits(), quad.weighted_demand().to_bits());
        assert_eq!(wo.to_bits(), octa.weighted_demand().to_bits());
    }

    #[test]
    fn band_matches_equal_full_matches() {
        let model = FittedMaestro::new();
        let mut sched = CoScheduler::new(crate::fleet::os256_package(8, 6), &model);
        let cfg = MatcherConfig {
            allow_fe_split: true,
            ..MatcherConfig::default()
        };
        for profile in crate::fleet::VehicleProfile::catalog() {
            let tenant = profile.vehicle(1);
            let workload = tenant.scenario.workload();
            for width in 1..=8 {
                let (band, pipe) = sched.band_schedule(&tenant, width);
                let full = ThroughputMatcher::new(&model, cfg.clone())
                    .match_throughput(&workload, &sched.band_package(width));
                let at = format!("{} on {width} columns", profile.name);
                assert_eq!(*band, full.schedule, "{at}");
                assert_eq!(
                    pipe.as_secs().to_bits(),
                    full.report.pipe.as_secs().to_bits(),
                    "{at}"
                );
            }
        }
    }

    #[test]
    fn screen_stops_matching_at_the_first_failing_tenant() {
        let model = FittedMaestro::new();
        let pkg = crate::fleet::os256_package(6, 6);
        let catalog = crate::fleet::VehicleProfile::catalog();
        let vehicle = |name: &str, i| catalog.iter().find(|p| p.name == name).unwrap().vehicle(i);
        // Bands of 3, 2 and 1 columns: the ride-hail tenant in the middle
        // fails the screen, and the delivery van after it has a
        // (width, scenario) pair of its own.
        let mut trial = vec![
            vehicle("av-degraded", 1),
            vehicle("ride-hail", 2),
            vehicle("delivery", 3),
        ];
        canonical_order(&mut trial);

        // The eager reference: every band matched, then every tenant
        // screened in order.
        let mut eager = CoScheduler::new(pkg.clone(), &model);
        let colo = eager.compile(&trial).unwrap();
        let failing = colo
            .placements
            .iter()
            .position(|p| analytic_screen(p).is_err())
            .expect("a tenant fails the screen");
        assert_eq!(failing, 1, "the rejected tenant has one after it");
        let expected = analytic_screen(&colo.placements[failing]).unwrap_err();
        assert!(matches!(expected, RejectReason::AnalyticInfeasible { .. }));

        let mut sched = CoScheduler::new(pkg, &model);
        assert_eq!(sched.try_colocate(&trial).unwrap_err(), expected);
        // The band memo holds the matches up to the rejected tenant only.
        let key = |p: &TenantPlacement| (p.region.width(), scenario_key(&p.tenant));
        let mut upto: Vec<_> = colo.placements[..=failing].iter().map(key).collect();
        upto.sort();
        let held: Vec<_> = sched.cache.keys().cloned().collect();
        assert_eq!(held, upto);
        assert_eq!(eager.cache.len(), colo.placements.len());
    }

    #[test]
    fn translation_keeps_chiplet_hops_but_not_dram_hops() {
        use npu_sched::flatten_items;

        let model = FittedMaestro::new();
        let pkg = McmPackage::simba_6x6();
        let mut sched = CoScheduler::new(pkg.clone(), &model);
        let (width, region) = (2, Region { lo: 4, hi: 6 });
        let band_pkg = sched.band_package(width);
        let (band, _) = sched.band_schedule(&tenant("t", 4, Priority::Standard), width);
        let full = translate_schedule(band.clone(), region, pkg.mesh().width(), width);

        let hosts = |s: &Schedule| -> Vec<ChipletId> {
            let models = s.stages.iter().flat_map(|st| &st.models);
            let shards = models.flat_map(|mp| &mp.layers).flat_map(|lp| &lp.shards);
            shards.map(|sh| sh.chiplet).collect()
        };
        let (local, global) = (hosts(&band), hosts(&full));
        assert_eq!(local.len(), global.len());
        for (&a, &ga) in local.iter().zip(&global) {
            for (&b, &gb) in local.iter().zip(&global) {
                assert_eq!(band_pkg.hops(a, b), pkg.hops(ga, gb));
            }
            // DRAM is `region.lo` hops further away on the full package.
            assert_eq!(
                pkg.dram_hops(ga),
                band_pkg.dram_hops(a) + u64::from(region.lo)
            );
        }

        // So only the items that read DRAM (the first stage's roots)
        // take longer once translated; every other item is bit-identical.
        let before = flatten_items(&band, &band_pkg, &model, Dtype::Fp16);
        let after = flatten_items(&full, &pkg, &model, Dtype::Fp16);
        assert_eq!(before.len(), after.len());
        let mut dram_readers = 0;
        for (b, a) in before.iter().zip(&after) {
            if b.deps.is_empty() {
                dram_readers += 1;
                assert!(a.duration > b.duration);
            } else {
                assert_eq!(
                    a.duration.as_secs().to_bits(),
                    b.duration.as_secs().to_bits()
                );
            }
        }
        assert!(dram_readers > 0);
    }

    /// A keyframe-rate quad-rig tenant: small enough that two of them
    /// genuinely co-locate on one package (full 30 FPS rigs are not
    /// tail-serveable anywhere — see the tails artifact).
    fn quad_tenant(name: &str, priority: Priority) -> Tenant {
        Tenant::new(
            name,
            Scenario::new(
                name,
                npu_scenario::CameraRig::new(4, (288, 512), 8.0),
                OperatingMode::HighwayCruise,
            ),
            priority,
        )
    }

    #[test]
    fn verified_colocation_matches_slo_math() {
        let model = FittedMaestro::new();
        let mut sched =
            CoScheduler::new(crate::fleet::os256_package(6, 6), &model).with_verify_frames(32);
        // Equal class and demand: the bands split 3/3, which serves the
        // keyframe-rate quad rig with tail headroom.
        let mut tenants = vec![
            quad_tenant("patrol", Priority::Standard),
            quad_tenant("mapper", Priority::Standard),
        ];
        canonical_order(&mut tenants);
        let (colo, reports) = sched.try_colocate(&tenants).unwrap();
        assert_eq!(reports.len(), 2);
        assert!(slo_violation(&colo, &reports).is_none());
        for rep in &reports {
            assert_eq!(rep.dropped, 0);
            assert_eq!(rep.offered, 32);
        }
    }

    /// Every number in a report, floats as their bits; busy fractions
    /// over every chiplet of `pkg`.
    fn report_bits(rep: &PhaseReport, pkg: &McmPackage) -> Vec<u64> {
        let r = &rep.report;
        let floats = [
            r.steady_interval.as_secs(),
            r.mean_latency.as_secs(),
            r.max_latency.as_secs(),
            r.tails.p50.as_secs(),
            r.tails.p95.as_secs(),
            r.tails.p99.as_secs(),
            r.tails.p999.as_secs(),
            r.throughput_fps,
            rep.admitted_from,
        ];
        let busy = (0..pkg.len() as u32).map(|c| r.busy_fraction(ChipletId(c)));
        let counts = [r.measured_frames, rep.offered, rep.dropped, rep.flushed];
        floats
            .into_iter()
            .map(f64::to_bits)
            .chain(busy.map(|b| b.map_or(u64::MAX, f64::to_bits)))
            .chain(counts.map(|n| n as u64))
            .collect()
    }

    /// All of a colocation's tenants in one `simulate` call.
    /// The bands are disjoint, so the call runs each tenant in an engine
    /// pass of its own: this is the grouped path, not an independent
    /// one-calendar run. The oracle that grouping equals one shared
    /// calendar is the reference engine in `tests/engine_refactor_pin.rs`.
    fn shared_calendar_run(sched: &CoScheduler<'_>, colo: &Colocation) -> Vec<PhaseReport> {
        let frames = sched.verify_frames();
        let streams: Vec<SimPhase<'_>> = colo
            .placements
            .iter()
            .map(|p| SimPhase {
                schedule: &p.schedule,
                times: p.tenant.scenario.arrivals().times(frames),
                readiness: Readiness::Barrier(0.0),
                warmup: Some(SimConfig::default_warmup(frames)),
                cutoff: None,
            })
            .collect();
        simulate(&streams, sched.package(), sched.model(), Dtype::Fp16).expect("valid streams")
    }

    /// Replays `admit`'s trial loop over `candidates`, verifying each
    /// trial through the memo and by a fresh co-scheduler's
    /// `simulate` call over all its tenants, bit for bit. Returns the
    /// admitted count and the DES rejections.
    fn replay_admission(pkg: &McmPackage, candidates: &[Tenant]) -> (usize, usize) {
        let model = FittedMaestro::new();
        let fresh = || CoScheduler::new(pkg.clone(), &model).with_verify_frames(24);
        let mut sched = fresh();
        let mut ordered = candidates.to_vec();
        canonical_order(&mut ordered);
        let (mut admitted, mut placements, mut des_rejections) = (Vec::new(), 0, 0);
        for cand in ordered {
            let mut trial = admitted.clone();
            trial.push(cand);
            canonical_order(&mut trial);
            let colo = sched.compile(&trial).unwrap();
            let memo = sched.verify(&colo);
            let whole = shared_calendar_run(&fresh(), &fresh().compile(&trial).unwrap());
            assert_eq!(memo.len(), whole.len());
            for ((m, w), p) in memo.iter().zip(&whole).zip(&colo.placements) {
                let name = &p.tenant.name;
                assert_eq!(report_bits(m, pkg), report_bits(w, pkg), "{name}");
            }
            placements += colo.placements.len();
            // Stopping at the first violation names the one the whole
            // run's `slo_violation` names.
            match sched.try_colocate(&trial) {
                Ok(_) => admitted = trial,
                Err(RejectReason::AnalyticInfeasible { .. }) => {}
                Err(reason) => {
                    des_rejections += 1;
                    assert_eq!(Some(reason), slo_violation(&colo, &whole));
                }
            }
        }
        assert!(
            sched.verified.len() < placements,
            "{} reports for {placements} verified placements: no trial reused one",
            sched.verified.len()
        );
        // The replay admits exactly what `admit` does.
        let out = fresh().admit(candidates);
        let placed: Vec<&str> = out
            .colocation
            .placements
            .iter()
            .map(|p| p.tenant.name.as_str())
            .collect();
        let replayed: Vec<&str> = admitted.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(placed, replayed);
        (admitted.len(), des_rejections)
    }

    #[test]
    fn memoized_verification_matches_the_shared_calendar_run() {
        let catalog = crate::fleet::VehicleProfile::catalog();
        let vehicles = |name: &str, ids: std::ops::Range<usize>| {
            let profile = catalog.iter().find(|p| p.name == name).unwrap();
            ids.map(|i| profile.vehicle(i)).collect::<Vec<_>>()
        };
        // Five miners on 8x6: two admit, and the rest fail the screen on
        // bands whose (offset, width, scenario) earlier trials verified.
        let (admitted, _) = replay_admission(
            &crate::fleet::os256_package(8, 6),
            &vehicles("mining", 1..6),
        );
        assert_eq!(admitted, 2);
        // A delivery van alone on 6x6, then four miners: each trial fails
        // the van's p99 in the DES.
        let mut mixed = vehicles("delivery", 1..2);
        mixed.extend(vehicles("mining", 1..5));
        let (admitted, des_rejections) =
            replay_admission(&crate::fleet::os256_package(6, 6), &mixed);
        assert_eq!((admitted, des_rejections), (1, 4));
    }

    #[test]
    fn verification_memo_serves_repeats_and_forgets_old_windows() {
        let model = FittedMaestro::new();
        let pkg = crate::fleet::os256_package(6, 6);
        let mut sched = CoScheduler::new(pkg.clone(), &model).with_verify_frames(32);
        let mut tenants = vec![
            quad_tenant("patrol", Priority::Standard),
            quad_tenant("mapper", Priority::Standard),
        ];
        canonical_order(&mut tenants);
        let colo = sched.compile(&tenants).unwrap();
        let first = sched.verify(&colo);
        assert_eq!(sched.verified.len(), 2);

        // A second verify simulates nothing: it returns the memo's
        // reports, marked here so a fresh run could not produce them.
        for rep in sched.verified.values_mut() {
            rep.dropped = usize::MAX;
        }
        let again = sched.verify(&colo);
        assert_eq!(sched.verified.len(), 2);
        assert!(again.iter().all(|r| r.dropped == usize::MAX));
        for rep in sched.verified.values_mut() {
            rep.dropped = 0;
        }
        assert_eq!(sched.verify(&colo), first);

        // A new window never serves a report of the old one.
        let mut sched = sched.with_verify_frames(16);
        let short = sched.verify(&colo);
        assert!(short.iter().all(|r| r.offered == 16));
        let fresh = CoScheduler::new(pkg, &model)
            .with_verify_frames(16)
            .verify(&colo);
        assert_eq!(short, fresh);
    }

    #[test]
    fn admission_is_permutation_invariant() {
        let model = FittedMaestro::new();
        let candidates = vec![
            tenant("octa-a", 8, Priority::Safety),
            tenant("hexa-b", 6, Priority::Standard),
            tenant("quad-c", 4, Priority::BestEffort),
            tenant("octa-d", 8, Priority::BestEffort),
        ];
        let mut permuted = candidates.clone();
        permuted.reverse();
        permuted.swap(0, 2);
        let run = |cands: &[Tenant]| {
            CoScheduler::new(McmPackage::simba_6x6(), &model)
                .with_verify_frames(32)
                .admit(cands)
        };
        let a = run(&candidates);
        let b = run(&permuted);
        assert_eq!(a.colocation, b.colocation);
        assert_eq!(a.reports, b.reports);
        assert_eq!(a.rejected, b.rejected);
    }

    #[test]
    fn admission_rejects_with_typed_reasons() {
        let model = FittedMaestro::new();
        // A 4x4 package cannot host five tenants on four columns — and
        // the analytic screen catches overloaded bands first.
        let mut sched = CoScheduler::new(
            McmPackage::from_fn("os256-4x4", Mesh2d::new(4, 4), |_| {
                npu_maestro::Accelerator::shidiannao_like(256)
            }),
            &model,
        )
        .with_verify_frames(32);
        let candidates: Vec<Tenant> = (0..5)
            .map(|i| tenant(&format!("t{i}"), 8, Priority::Standard))
            .collect();
        let out = sched.admit(&candidates);
        assert!(!out.rejected.is_empty(), "4 columns cannot serve 5 octas");
        assert!(out.admitted() + out.rejected.len() == 5);
        for (_, reason) in &out.rejected {
            assert!(matches!(
                reason,
                RejectReason::NoCapacity { .. }
                    | RejectReason::AnalyticInfeasible { .. }
                    | RejectReason::MeanSloViolated { .. }
                    | RejectReason::TailSloViolated { .. }
            ));
        }
    }
}
