//! The three workloads: seeded input generation, one pass over the op
//! set through the public entry points, the output checks, and the
//! traced run's probes.
//!
//! All three are closed-loop batch jobs: the next op starts when a worker
//! frees, with no arrival schedule.

use std::collections::BTreeSet;

use serde::Serialize;

use npu_fleet::{
    canonical_order, os256_package, pack_fleet, preemption_event, slo_violation, CoScheduler,
    FleetSpec, PackingOutcome, PreemptionReport, Tenant, TenantPhasesSummary, VehicleProfile,
};
use npu_maestro::{CostModel, ReconfigModel};
use npu_mcm::{ChipletId, McmPackage};
use npu_noc::Mesh2d;
use npu_pipesim::{
    simulate_phases, simulate_with_stats, ArrivalSegment, Arrivals, PhaseReport, Readiness,
    SimPhase,
};
use npu_scenario::{
    evaluate_point, match_scenario, simulate_drive, Drive, DriveOutcome, DriveSegment,
    OperatingMode, Scenario, ScenarioPoint, SWEEP_FRAMES, TAIL_SWEEP_FRAMES,
};
use npu_sched::{flatten_items, rematch_cost, MatcherConfig, Schedule, ThroughputMatcher};
use npu_study::{Axis, Grid, Study};
use npu_tensor::{Dtype, Seconds};

use crate::speed::{OpTime, Stopwatch};
use crate::trace::{span, Kind, Tracer};

/// Worker threads for the `dse-grid` Study queries.
pub const GRID_WORKERS: usize = 2;
/// Geometry bins: the 45 meshes of 4–12 × 4–8, sorted by chiplet count,
/// split into this many equal bins; each seed draws one mesh per bin, so
/// every seed sweeps the same spread of package sizes.
const GRID_BINS: usize = 9;
/// Grid points re-run on one worker for the determinism check.
const DETERMINISM_POINTS: usize = 8;

/// Drives per `long-drive` pass, and frames each drive offers: four
/// minutes at 30 FPS, so legs last minutes.
const DRIVES: usize = 7;
const DRIVE_FRAMES: usize = 7200;
/// Fewest frames per segment: past the 512 frames the `Quantiles`
/// sketch holds exactly, so every segment's tail sketch compacts.
const SEGMENT_MIN_FRAMES: usize = 720;

/// Vehicles per sampled fleet, and fleets per `fleet-pack` pass.
const FLEET_SIZE: usize = 16;
const FLEETS: usize = 2;
/// DES frames per admission verification (as `repro fleet`).
const FLEET_FRAMES: usize = 24;
/// Preemption events per pass, and frames per preemption epoch.
const PREEMPTIONS: usize = 8;
const PREEMPT_FRAMES: usize = 48;

/// A workload by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DseGrid,
    LongDrive,
    FleetPack,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::DseGrid, Workload::LongDrive, Workload::FleetPack];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DseGrid => "dse-grid",
            Workload::LongDrive => "long-drive",
            Workload::FleetPack => "fleet-pack",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Worker threads the workload's ops run on.
    pub fn workers(self) -> usize {
        match self {
            Workload::DseGrid => GRID_WORKERS,
            _ => 1,
        }
    }
}

/// SplitMix64: a tiny seeded generator, so inputs depend only on the seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a over a result's JSON serialization.
pub fn digest<T: Serialize>(value: &T) -> u64 {
    let json = serde_json::to_string(value).expect("results serialize");
    json.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// What one pass measured and checked.
#[derive(Debug, Default)]
pub struct PassResult {
    /// Host time per op, in op order.
    pub op_times: Vec<OpTime>,
    /// Digest per op, in op order.
    pub digests: Vec<u64>,
    /// Ops whose outputs failed a check.
    pub failed: u64,
    /// DES frames offered by the pass, as visible from the results.
    pub frames: u64,
    /// Where each fan-out query's ops end in op order (`dse-grid`);
    /// empty when all ops run one after another on one thread.
    pub query_ends: Vec<usize>,
}

impl PassResult {
    fn record(&mut self, secs: OpTime, digest: u64, ok: bool) {
        self.op_times.push(secs);
        self.digests.push(digest);
        self.failed += u64::from(!ok);
    }
}

/// A scenario family with seeded mode parameters. The seed moves arrival
/// jitter, burst sizes and recorded-trace gaps; it keeps each family's
/// rig and workload graph, so every seed costs about the same to run.
fn vary(s: Scenario, rng: &mut Rng) -> Scenario {
    let mode = match s.mode {
        OperatingMode::UrbanDense { .. } => OperatingMode::UrbanDense {
            jitter_frac: rng.uniform(0.1, 0.4),
            seed: rng.next_u64(),
        },
        OperatingMode::BurstRelocalization { .. } => OperatingMode::BurstRelocalization {
            burst: 2 + rng.below(5),
        },
        OperatingMode::TraceReplay { trace } => {
            // Move every recorded gap by up to ±10%, keeping the order.
            let mut t = 0.0;
            let mut out = vec![Seconds::new(0.0)];
            for w in trace.windows(2) {
                t += (w[1].as_secs() - w[0].as_secs()) * rng.uniform(0.9, 1.1);
                out.push(Seconds::new(t));
            }
            OperatingMode::TraceReplay { trace: out }
        }
        mode => mode,
    };
    Scenario::new(s.name, s.rig, mode)
}

/// The generated inputs of one workload.
pub enum Inputs {
    Grid {
        packages: Vec<McmPackage>,
        families: Vec<Scenario>,
        /// (query, point) pairs re-run on one worker.
        check: Vec<(usize, usize)>,
    },
    Drives {
        pkg: McmPackage,
        drives: Vec<Drive>,
        reconfig: ReconfigModel,
    },
    Fleet {
        fleets: Vec<FleetSpec>,
        packages: Vec<McmPackage>,
        events: Vec<Preemption>,
        reconfig: ReconfigModel,
    },
}

/// One seeded preemption event.
pub struct Preemption {
    pkg: McmPackage,
    incumbents: Vec<Tenant>,
    arriving: Tenant,
    at: f64,
}

impl Inputs {
    /// Builds the workload's inputs from the seed alone.
    pub fn generate(w: Workload, seed: u64) -> Inputs {
        match w {
            Workload::DseGrid => grid_inputs(seed),
            Workload::LongDrive => drive_inputs(seed),
            Workload::FleetPack => fleet_inputs(seed),
        }
    }

    /// Ops per pass.
    pub fn ops(&self) -> usize {
        match self {
            Inputs::Grid {
                packages, families, ..
            } => 2 * packages.len() * families.len(),
            Inputs::Drives { drives, .. } => drives.len(),
            Inputs::Fleet {
                fleets,
                packages,
                events,
                ..
            } => fleets.len() * packages.len() + events.len(),
        }
    }

    /// One untimed op on fixed (seed-independent) inputs.
    pub fn warm_up(&self, model: &dyn CostModel) {
        let pkg = os256_package(6, 6);
        match self {
            Inputs::Grid { .. } => {
                let s = &Scenario::builtin()[0];
                std::hint::black_box(evaluate_point(s, &pkg, model, SWEEP_FRAMES));
            }
            Inputs::Drives { reconfig, .. } => {
                let d = Drive::cruise_urban_degraded();
                std::hint::black_box(simulate_drive(&d, &pkg, model, reconfig));
            }
            Inputs::Fleet { .. } => {
                let fleet = FleetSpec::sample(6, 1);
                std::hint::black_box(pack_fleet(&fleet.vehicles, &pkg, model, FLEET_FRAMES));
            }
        }
    }

    /// Runs every op once, checking each output. Ops are timed on their
    /// thread's CPU clock, so the pass pins `npu-par` to one worker (the
    /// `dse-grid` queries then fan out on [`GRID_WORKERS`]): no op hands
    /// work to a thread its clock cannot see.
    pub fn pass(&self, model: &dyn CostModel, tr: Option<&Tracer>) -> PassResult {
        npu_par::with_jobs(1, || {
            span(tr, "pass", Kind::Pass, || match self {
                Inputs::Grid {
                    packages, families, ..
                } => grid_pass(packages, families, model, tr),
                Inputs::Drives {
                    pkg,
                    drives,
                    reconfig,
                } => drive_pass(pkg, drives, reconfig, model, tr),
                Inputs::Fleet {
                    fleets,
                    packages,
                    events,
                    reconfig,
                } => fleet_pass(fleets, packages, events, reconfig, model, tr),
            })
        })
    }

    /// The `dse-grid` determinism check: re-runs a seeded subset of grid
    /// points on one worker and compares each digest with the 2-worker
    /// pass. Returns (points checked, mismatches).
    pub fn determinism(&self, model: &dyn CostModel, digests: &[u64]) -> (u64, u64) {
        let Inputs::Grid {
            packages,
            families,
            check,
        } = self
        else {
            return (0, 0);
        };
        let per_query = packages.len() * families.len();
        let mut mismatches = 0;
        for (q, frames) in [SWEEP_FRAMES, TAIL_SWEEP_FRAMES].into_iter().enumerate() {
            let subset: Vec<usize> = check.iter().filter(|c| c.0 == q).map(|c| c.1).collect();
            let points: Vec<(McmPackage, Scenario)> = subset
                .iter()
                .map(|&i| {
                    (
                        packages[i / families.len()].clone(),
                        families[i % families.len()].clone(),
                    )
                })
                .collect();
            let run = npu_par::with_jobs(1, || {
                Study::new(
                    "dse-grid-serial",
                    Grid::of(Axis::new("point", points)),
                    model,
                )
                .run(|(pkg, s), m| evaluate_point(s, pkg, m, frames))
            });
            for (&i, point) in subset.iter().zip(run.metrics()) {
                mismatches += u64::from(digest(point) != digests[q * per_query + i]);
            }
        }
        (check.len() as u64, mismatches)
    }
}

fn grid_inputs(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, 1);
    let mut meshes: Vec<(u32, u32)> = (4..=12)
        .flat_map(|w| (4..=8).map(move |h| (w, h)))
        .collect();
    meshes.sort_by_key(|&(w, h)| (w * h, w, h));
    let per_bin = meshes.len() / GRID_BINS;
    let packages = (0..GRID_BINS)
        .map(|b| {
            let (w, h) = meshes[b * per_bin + rng.below(per_bin)];
            os256_package(w, h)
        })
        .collect::<Vec<_>>();
    let families: Vec<Scenario> = Scenario::builtin()
        .into_iter()
        .map(|s| vary(s, &mut rng))
        .collect();
    let per_query = packages.len() * families.len();
    let check = (0..DETERMINISM_POINTS)
        .map(|_| (rng.below(2), rng.below(per_query)))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    Inputs::Grid {
        packages,
        families,
        check,
    }
}

/// Checks one ScenarioPoint: every figure finite and positive, and the
/// tails ordered p50 ≤ p95 ≤ p99 ≤ p99.9 ≤ max.
fn point_ok(p: &ScenarioPoint) -> bool {
    let positive = [
        p.pipe.as_secs(),
        p.predicted_interval.as_secs(),
        p.des_interval.as_secs(),
        p.mean_latency.as_secs(),
        p.max_latency.as_secs(),
        p.tails.p50.as_secs(),
        p.throughput_fps,
        p.energy.as_joules(),
        p.utilization,
    ]
    .iter()
    .all(|v| v.is_finite() && *v > 0.0);
    let t = &p.tails;
    positive
        && p.drift.is_finite()
        && t.p50 <= t.p95
        && t.p95 <= t.p99
        && t.p99 <= t.p999
        && t.p999 <= p.max_latency
}

fn grid_pass(
    packages: &[McmPackage],
    families: &[Scenario],
    model: &dyn CostModel,
    tr: Option<&Tracer>,
) -> PassResult {
    let mut out = PassResult::default();
    // As `scenario-dse` and then `tails` issue them: the same points at
    // the golden window and at the tail-resolving window.
    for frames in [SWEEP_FRAMES, TAIL_SWEEP_FRAMES] {
        let grid = Grid::of(Axis::new("package", packages.to_vec()))
            .cross(Axis::new("scenario", families.to_vec()));
        let run = span(tr, "study.query", Kind::Query, || {
            let query = tr.and_then(Tracer::current);
            npu_par::with_jobs(GRID_WORKERS, || {
                Study::new("dse-grid", grid, model).run(|(pkg, s), m| {
                    let point_op = || {
                        let sw = Stopwatch::start();
                        let point = span(tr, "scenario.point", Kind::Composite, || {
                            evaluate_point(s, pkg, m, frames)
                        });
                        let secs = sw.stop(tr.is_none());
                        let probe_ok = tr.is_none_or(|t| probe_point(t, s, pkg, m, frames, &point));
                        (point, secs, probe_ok)
                    };
                    match tr {
                        Some(t) => t.span_under(query, "study.point", Kind::Op, point_op),
                        None => point_op(),
                    }
                })
            })
        });
        for (point, secs, probe_ok) in run.into_metrics() {
            out.record(secs, digest(&point), point_ok(&point) && probe_ok);
            out.frames += frames as u64;
        }
        out.query_ends.push(out.op_times.len());
    }
    out
}

/// Re-runs the layers `evaluate_point` hides on the same inputs, and
/// checks that they reproduce the composite's figures.
fn probe_point(
    t: &Tracer,
    s: &Scenario,
    pkg: &McmPackage,
    m: &dyn CostModel,
    frames: usize,
    point: &ScenarioPoint,
) -> bool {
    t.span("trace.probe", Kind::Probe, || {
        let outcome = t.span("sched.match", Kind::Probe, || match_scenario(s, pkg, m));
        t.add("sched.match.steps", outcome.trace.len() as f64);
        let cfg = s.sim_config(frames);
        let items = t.span("sched.flatten", Kind::Probe, || {
            flatten_items(&outcome.schedule, pkg, m, cfg.dtype)
        });
        t.add("sched.flatten.items", items.len() as f64);
        let (report, stats) = t.span("pipesim.des", Kind::Probe, || {
            simulate_with_stats(&outcome.schedule, pkg, m, &cfg)
        });
        t.add("pipesim.des.frames", stats.frames as f64);
        t.add("pipesim.des.flushed", stats.flushed as f64);
        t.max("pipesim.des.peak_in_flight", stats.peak_in_flight as f64);
        outcome.report.pipe.as_secs().to_bits() == point.pipe.as_secs().to_bits()
            && report.steady_interval.as_secs().to_bits() == point.des_interval.as_secs().to_bits()
    })
}

fn drive_inputs(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, 2);
    let families = Scenario::builtin();
    // Drives of 3–5 segments, filled from a shuffled pool that holds
    // every family equally often. Every drive offers the same frames, so
    // drives cost about the same whatever families the seed deals them.
    let counts: Vec<usize> = (0..DRIVES).map(|_| 3 + rng.below(3)).collect();
    let mut pool: Vec<usize> = (0..counts.iter().sum::<usize>())
        .map(|i| i % families.len())
        .collect();
    rng.shuffle(&mut pool);
    let mut pool = pool.into_iter();
    let drives = counts
        .iter()
        .enumerate()
        .map(|(d, &k)| {
            let weights: Vec<f64> = (0..k).map(|_| rng.uniform(0.0, 1.0)).collect();
            let total: f64 = weights.iter().sum();
            let spare = (DRIVE_FRAMES - k * SEGMENT_MIN_FRAMES) as f64;
            let mut segments: Vec<DriveSegment> = Vec::new();
            for w in weights {
                // One boundary in three repeats the scenario: a no-op
                // re-match.
                let scenario = match segments.last() {
                    Some(prev) if rng.below(3) == 0 => prev.scenario.clone(),
                    _ => {
                        let f = pool.next().expect("one pool family per segment");
                        vary(families[f].clone(), &mut rng)
                    }
                };
                let frames = SEGMENT_MIN_FRAMES as f64 + spare * w / total;
                let interval = scenario
                    .arrivals()
                    .mean_interval()
                    .expect("scenario arrivals have a rate")
                    .as_secs();
                segments.push(DriveSegment::new(scenario, Seconds::new(frames * interval)));
            }
            Drive::new(format!("drive-{d}"), segments)
        })
        .collect();
    Inputs::Drives {
        pkg: McmPackage::simba_6x6(),
        drives,
        reconfig: ReconfigModel::default(),
    }
}

fn drive_ok(d: &DriveOutcome, drive: &Drive) -> bool {
    d.segments.len() == drive.segments.len()
        && d.transitions.len() + 1 == d.segments.len()
        && d.segments
            .iter()
            .all(|s| s.offered == s.served + s.dropped + s.flushed)
}

fn drive_pass(
    pkg: &McmPackage,
    drives: &[Drive],
    reconfig: &ReconfigModel,
    model: &dyn CostModel,
    tr: Option<&Tracer>,
) -> PassResult {
    let mut out = PassResult::default();
    for drive in drives {
        span(tr, "drive", Kind::Op, || {
            let sw = Stopwatch::start();
            let outcome = span(tr, "scenario.drive", Kind::Composite, || {
                simulate_drive(drive, pkg, model, reconfig)
            });
            let secs = sw.stop(tr.is_none());
            let probe_ok = tr.is_none_or(|t| probe_drive(t, drive, pkg, model, reconfig, &outcome));
            out.record(
                secs,
                digest(&outcome),
                drive_ok(&outcome, drive) && probe_ok,
            );
            out.frames += outcome.total_offered as u64;
        });
    }
    out
}

/// Re-runs the layers `simulate_drive` hides: the matcher on every
/// segment, the flatten of every segment schedule, and the phased DES
/// over phases laid out as the drive runner lays them out. Checks that
/// the DES reproduces the drive's per-segment figures.
fn probe_drive(
    t: &Tracer,
    drive: &Drive,
    pkg: &McmPackage,
    m: &dyn CostModel,
    reconfig: &ReconfigModel,
    outcome: &DriveOutcome,
) -> bool {
    let dtype = Dtype::Fp16;
    t.add(
        "scenario.drive.transitions",
        outcome.transitions.len() as f64,
    );
    t.add(
        "scenario.drive.stalled",
        outcome.transitions.iter().map(|x| x.stalled).sum::<usize>() as f64,
    );
    t.add(
        "scenario.drive.prestaged",
        outcome
            .transitions
            .iter()
            .map(|x| x.prestaged)
            .sum::<usize>() as f64,
    );
    t.span("trace.probe", Kind::Probe, || {
        let schedules: Vec<Schedule> = drive
            .segments
            .iter()
            .map(|seg| {
                let o = t.span("sched.match", Kind::Probe, || {
                    match_scenario(&seg.scenario, pkg, m)
                });
                t.add("sched.match.steps", o.trace.len() as f64);
                o.schedule
            })
            .collect();
        for s in &schedules {
            let items = t.span("sched.flatten", Kind::Probe, || {
                flatten_items(s, pkg, m, dtype)
            });
            t.add("sched.flatten.items", items.len() as f64);
        }
        let counts: Vec<usize> = drive.segments.iter().map(|s| s.frames()).collect();
        let times = Arrivals::piecewise(
            drive
                .segments
                .iter()
                .zip(&counts)
                .map(|(seg, &frames)| ArrivalSegment {
                    arrivals: seg.scenario.arrivals(),
                    frames,
                    span: seg.duration,
                })
                .collect(),
        )
        .times(counts.iter().sum());
        let mut phases: Vec<SimPhase<'_>> = Vec::new();
        let (mut offset, mut cursor) = (0.0, 0);
        for (i, seg) in drive.segments.iter().enumerate() {
            let readiness = if i == 0 {
                Readiness::Barrier(offset)
            } else {
                let cost = rematch_cost(&schedules[i - 1], &schedules[i], reconfig, dtype);
                if cost.is_full_barrier() {
                    phases[i - 1].cutoff = Some(offset);
                }
                Readiness::make_before_break(&cost, offset)
            };
            let slice = times[cursor..cursor + counts[i]].to_vec();
            phases.push(SimPhase::new(&schedules[i], slice, readiness));
            cursor += counts[i];
            offset += seg.duration.as_secs();
        }
        let reports: Vec<PhaseReport> = t.span("pipesim.des", Kind::Probe, || {
            simulate_phases(&phases, pkg, m, dtype)
        });
        for r in &reports {
            t.add("pipesim.des.frames", r.offered as f64);
            t.add("pipesim.des.dropped", r.dropped as f64);
            t.add("pipesim.des.flushed", r.flushed as f64);
        }
        reports.iter().zip(&outcome.segments).all(|(r, s)| {
            r.offered == s.offered
                && r.dropped == s.dropped
                && r.flushed == s.flushed
                && r.report.steady_interval.as_secs().to_bits()
                    == s.des_interval.as_secs().to_bits()
        })
    })
}

fn fleet_inputs(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, 3);
    let catalog = VehicleProfile::catalog();
    // Each fleet is the first seeded sample whose profile mix is within
    // one vehicle of the catalog weights, so seeds reorder and rename
    // vehicles without moving the packing cost much.
    let total: f64 = catalog.iter().map(|p| p.weight).sum();
    let fleets = (0..FLEETS)
        .map(|_| loop {
            let fleet = FleetSpec::sample(FLEET_SIZE, rng.next_u64());
            let typical = catalog.iter().all(|p| {
                let n = fleet
                    .vehicles
                    .iter()
                    .filter(|v| v.scenario.name == p.name)
                    .count();
                (n as f64 - p.weight / total * FLEET_SIZE as f64).abs() <= 1.0
            });
            if typical {
                break fleet;
            }
        })
        .collect();
    // Preemptions: 2 or 3 incumbents each, the catalog profiles taking
    // turns among them, the arrivals taking turns over the safety
    // profiles. These sets are the same on every seed, because the
    // median op of a pass is a preemption and its cost depends on the
    // set. The seed sets each event's time and the events' order.
    let safety: Vec<usize> = (0..catalog.len())
        .filter(|&i| catalog[i].priority == npu_fleet::Priority::Safety)
        .collect();
    let mut slots = (0..).map(|i| i % catalog.len());
    let mut events: Vec<Preemption> = (0..PREEMPTIONS)
        .map(|e| {
            let incumbents = (0..2 + e % 2)
                .map(|i| catalog[slots.next().expect("endless slots")].vehicle(10 * e + i))
                .collect();
            let (w, h) = [(6, 6), (8, 6)][(e / 2) % 2];
            Preemption {
                pkg: os256_package(w, h),
                incumbents,
                arriving: catalog[safety[e % safety.len()]].vehicle(10 * e + 9),
                at: rng.uniform(3.0, 8.0),
            }
        })
        .collect();
    rng.shuffle(&mut events);
    Inputs::Fleet {
        fleets,
        packages: vec![os256_package(6, 6), os256_package(8, 6)],
        events,
        reconfig: ReconfigModel::default(),
    }
}

/// Checks a packing: every vehicle is admitted or rejected once, and
/// every admitted vehicle meets its mean and p99 SLO with its frames
/// accounted for.
fn pack_ok(p: &PackingOutcome, fleet: &[Tenant]) -> bool {
    let slo_met = p.instances.iter().flat_map(|i| &i.tenants).all(|v| {
        fleet.iter().find(|t| t.name == v.name).is_some_and(|t| {
            v.interval_ms <= t.slo.latency_target.as_millis()
                && v.p99_ms <= t.slo.p99_bound.as_millis()
                && v.offered == v.served + v.dropped
        })
    });
    slo_met && p.admitted() + p.rejected.len() == fleet.len()
}

fn preempt_digest(r: &PreemptionReport, tenants: &[&Tenant]) -> u64 {
    let summary: Vec<TenantPhasesSummary> = r
        .tenants
        .iter()
        .map(|ph| {
            let bound = tenants
                .iter()
                .find(|t| t.name == ph.name)
                .map_or(Seconds::ZERO, |t| t.slo.p99_bound);
            TenantPhasesSummary::new(ph, bound)
        })
        .collect();
    digest(&summary)
}

fn fleet_pass(
    fleets: &[FleetSpec],
    packages: &[McmPackage],
    events: &[Preemption],
    reconfig: &ReconfigModel,
    model: &dyn CostModel,
    tr: Option<&Tracer>,
) -> PassResult {
    let mut out = PassResult::default();
    for fleet in fleets {
        for pkg in packages {
            span(tr, "pack", Kind::Op, || {
                let sw = Stopwatch::start();
                let packed = span(tr, "fleet.pack", Kind::Composite, || {
                    pack_fleet(&fleet.vehicles, pkg, model, FLEET_FRAMES)
                });
                let secs = sw.stop(tr.is_none());
                let probe_ok =
                    tr.is_none_or(|t| probe_pack(t, &fleet.vehicles, pkg, model, &packed));
                if let Some(t) = tr {
                    t.add("fleet.offered", fleet.vehicles.len() as f64);
                    t.add("fleet.admitted", packed.admitted() as f64);
                    t.add("fleet.instances", packed.instance_count() as f64);
                }
                out.record(
                    secs,
                    digest(&packed),
                    pack_ok(&packed, &fleet.vehicles) && probe_ok,
                );
                out.frames += packed
                    .instances
                    .iter()
                    .flat_map(|i| &i.tenants)
                    .map(|v| v.offered as u64)
                    .sum::<u64>();
            });
        }
    }
    for ev in events {
        span(tr, "preempt", Kind::Op, || {
            let sw = Stopwatch::start();
            let report = span(tr, "fleet.preempt", Kind::Composite, || {
                let mut sched =
                    CoScheduler::new(ev.pkg.clone(), model).with_verify_frames(FLEET_FRAMES);
                preemption_event(
                    &mut sched,
                    &ev.incumbents,
                    &ev.arriving,
                    ev.at,
                    PREEMPT_FRAMES,
                    reconfig,
                )
            });
            let secs = sw.stop(tr.is_none());
            let tenants: Vec<&Tenant> = ev
                .incumbents
                .iter()
                .chain(std::iter::once(&ev.arriving))
                .collect();
            match report {
                Ok(r) => {
                    let ok = r.balanced() && r.tenants.len() == tenants.len();
                    out.record(secs, preempt_digest(&r, &tenants), ok);
                    out.frames += r.tenants.iter().map(|p| p.offered() as u64).sum::<u64>();
                }
                Err(_) => out.record(secs, 0, false),
            }
        });
    }
    out
}

/// The shape key `pack_fleet` memoizes failed trials under.
fn shape(tenants: &[Tenant]) -> String {
    let parts: Vec<String> = tenants
        .iter()
        .map(|t| format!("{:?}#{:?}", t.priority, t.scenario))
        .collect();
    parts.join("|")
}

/// The band match `CoScheduler::compile` runs, unmemoized: the tenant's
/// workload matched onto a `width`-column sub-mesh of `pkg`. Returns the
/// outcome's analytic pipe and its matcher steps.
fn band_match(pkg: &McmPackage, m: &dyn CostModel, tenant: &Tenant, width: u32) -> (f64, usize) {
    let mesh = pkg.mesh();
    let band = McmPackage::from_fn(
        format!("{}/band{}", pkg.name(), width),
        Mesh2d::new(width, mesh.height()),
        |i| {
            let (x, y) = (i % width, i / width);
            pkg.chiplet(ChipletId(y * mesh.width() + x))
                .accelerator()
                .clone()
        },
    );
    let cfg = MatcherConfig {
        allow_fe_split: true,
        ..MatcherConfig::default()
    };
    let outcome =
        ThroughputMatcher::new(m, cfg).match_throughput(&tenant.scenario.workload(), &band);
    (outcome.report.pipe.as_secs(), outcome.trace.len())
}

/// Replays `pack_fleet`'s first-fit trials through the co-scheduler's
/// public steps (compile, analytic screen, DES verify, SLO check), so
/// the matcher, flatten and DES time inside a packing can be measured.
/// `compile` memoizes its band matches per (band width, scenario); the
/// replay re-runs each band match the first time that pair appears, as
/// `pack_fleet`'s own co-scheduler does, and checks its pipe. Checks
/// that the replay packs exactly as `pack_fleet` did.
fn probe_pack(
    t: &Tracer,
    fleet: &[Tenant],
    pkg: &McmPackage,
    m: &dyn CostModel,
    packed: &PackingOutcome,
) -> bool {
    t.span("trace.probe", Kind::Probe, || {
        let mut sched = CoScheduler::new(pkg.clone(), m).with_verify_frames(FLEET_FRAMES);
        let mut matched: BTreeSet<(u32, String)> = BTreeSet::new();
        let mut pipes_ok = true;
        // `CoScheduler::try_colocate`, one public step at a time.
        let mut trial = |tenants: &[Tenant]| -> bool {
            let Ok(colo) = t.span("fleet.compile", Kind::Probe, || sched.compile(tenants)) else {
                return false;
            };
            for p in &colo.placements {
                let width = p.region.hi - p.region.lo;
                if matched.insert((width, format!("{:?}", p.tenant.scenario))) {
                    let (pipe, steps) = t.span("sched.match", Kind::Probe, || {
                        band_match(pkg, m, &p.tenant, width)
                    });
                    t.add("sched.match.steps", steps as f64);
                    pipes_ok &= pipe.to_bits() == p.predicted_pipe.as_secs().to_bits();
                }
            }
            let screened = colo.placements.iter().all(|p| {
                let predicted = p.tenant.scenario.predicted_interval(p.predicted_pipe);
                predicted.as_secs() <= p.tenant.slo.latency_target.as_secs()
            });
            if !screened {
                return false;
            }
            for p in &colo.placements {
                let items = t.span("sched.flatten", Kind::Probe, || {
                    flatten_items(&p.schedule, sched.package(), m, Dtype::Fp16)
                });
                t.add("sched.flatten.items", items.len() as f64);
            }
            let reports = t.span("pipesim.des", Kind::Probe, || sched.verify(&colo));
            t.add(
                "pipesim.des.frames",
                reports.iter().map(|r| r.offered).sum::<usize>() as f64,
            );
            slo_violation(&colo, &reports).is_none()
        };
        let mut ordered = fleet.to_vec();
        canonical_order(&mut ordered);
        let mut instances: Vec<Vec<Tenant>> = Vec::new();
        let mut rejected: Vec<String> = Vec::new();
        let mut failed: BTreeSet<String> = BTreeSet::new();
        for vehicle in &ordered {
            let mut placed = false;
            for inst in &mut instances {
                let mut candidate = inst.clone();
                candidate.push(vehicle.clone());
                canonical_order(&mut candidate);
                let key = shape(&candidate);
                if failed.contains(&key) {
                    continue;
                }
                if trial(&candidate) {
                    *inst = candidate;
                    placed = true;
                    break;
                }
                failed.insert(key);
            }
            if !placed {
                let solo = std::slice::from_ref(vehicle);
                let key = shape(solo);
                if !failed.contains(&key) && trial(solo) {
                    instances.push(solo.to_vec());
                } else {
                    failed.insert(key);
                    rejected.push(vehicle.name.clone());
                }
            }
        }
        let names = |ts: &[Tenant]| ts.iter().map(|t| t.name.clone()).collect::<Vec<_>>();
        pipes_ok
            && instances.len() == packed.instances.len()
            && instances.iter().zip(&packed.instances).all(|(a, b)| {
                names(a) == b.tenants.iter().map(|v| v.name.clone()).collect::<Vec<_>>()
            })
            && rejected
                == packed
                    .rejected
                    .iter()
                    .map(|r| r.name.clone())
                    .collect::<Vec<_>>()
    })
}
