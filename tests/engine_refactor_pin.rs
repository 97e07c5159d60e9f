//! Refactor pin for the ISSUE 8 DES hot-path rebuild.
//!
//! The rebuilt engine (per-item frame counters instead of per-frame
//! dependency state, lazy arrival cursor, dense chiplet state, streamed
//! report) must be **bit-identical in every observable statistic** to
//! the old materialize-everything engine. This suite keeps an in-test
//! reference implementation of the old O(frames × items) algorithm and
//! replays all seven built-in scenario families through both, comparing
//! each `SimReport` field — including the tail percentiles — by bit
//! pattern: at sweep length at `--jobs 1` and `--jobs 8`, and in the
//! overloaded regime with up to over a hundred frames in flight. A
//! million-frame saturated smoke then pins the memory bound: the run
//! completes with a handful of frames in flight, and the engine holds no
//! per-frame state for any of them.
//!
//! The reference also runs K streams on one calendar with shared
//! chiplets, and a property test pins `simulate_tenants` against it bit
//! for bit on random DAG streams with same-instant arrivals. Two more
//! cases pin the engine's per-group passes (streams linked by shared
//! chiplets run together, the rest apart) against the reference's one
//! calendar: streams on two chiplet islands, and a transitive chain.

use std::collections::{BTreeMap, BinaryHeap};

use proptest::prelude::*;

use npu_core::noc::LinkParams;
use npu_dnn::{Graph, Layer, LayerId, OpKind, StageKind};
use npu_maestro::{Accelerator, CostModel, FittedMaestro, LayerCost};
use npu_mcm::{ChipletId, McmPackage};
use npu_pipesim::{
    simulate, simulate_tenants, simulate_with_stats, LatencyQuantiles, Quantiles, Readiness,
    SimConfig, SimPhase, SimReport,
};
use npu_scenario::{match_scenario, Scenario, SWEEP_FRAMES};
use npu_sched::{flatten_items, LayerPlan, ModelPlan, Schedule, SimItem, StagePlan};
use npu_tensor::{Dtype, Seconds};

/// Raw outcome of the reference pass: exactly what the old engine
/// materialized before ISSUE 8.
struct RefRun {
    arrivals: Vec<f64>,
    completions: Vec<f64>,
    busy: BTreeMap<ChipletId, f64>,
}

/// Priority `(global frame, item)`: the global frame is the frame's rank
/// in the merged arrivals and belongs to one stream, so the stream and
/// its local frame index ride along without ever deciding the order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct RefJob {
    frame: usize,
    item: usize,
    stream: usize,
    local: usize,
}

enum RefEvent {
    Arrival {
        frame: usize,
        stream: usize,
        local: usize,
    },
    Done {
        chiplet: ChipletId,
        job: RefJob,
    },
}

/// One stream through [`reference_run_streams`].
fn reference_run(items: &[SimItem], times: &[f64]) -> RefRun {
    reference_run_streams(&[(items, times)])
        .pop()
        .expect("one run per stream")
}

/// The old engine, verbatim in structure: all arrivals heaped
/// upfront (seq order = frame order, below every completion seq), a
/// per-frame O(items) dependency-counter table, `BTreeMap`-keyed chiplet
/// state, and full arrival/completion vectors.
///
/// It runs K streams, each `(items, arrival times)`, on one calendar.
/// Arrivals merge by `(time, stream index)`, and a frame's rank in the
/// merge is its global frame, which sets job priority. Streams share
/// every chiplet they both use; each stream's run reports the total busy
/// time of the chiplets its own items use.
fn reference_run_streams(streams: &[(&[SimItem], &[f64])]) -> Vec<RefRun> {
    let mut dependents: Vec<Vec<Vec<usize>>> = Vec::new();
    let mut deps_left: Vec<Vec<Vec<usize>>> = Vec::new();
    let mut remaining: Vec<Vec<usize>> = Vec::new();
    for &(items, times) in streams {
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); items.len()];
        for (i, item) in items.iter().enumerate() {
            for &d in &item.deps {
                succs[d].push(i);
            }
        }
        dependents.push(succs);
        deps_left.push(
            times
                .iter()
                .map(|_| items.iter().map(|it| it.deps.len()).collect())
                .collect(),
        );
        remaining.push(vec![items.len(); times.len()]);
    }

    let mut ready: BTreeMap<ChipletId, BinaryHeap<std::cmp::Reverse<RefJob>>> = BTreeMap::new();
    let mut busy_until: BTreeMap<ChipletId, f64> = BTreeMap::new();
    let mut busy_time: BTreeMap<ChipletId, f64> = BTreeMap::new();
    for item in streams.iter().flat_map(|&(items, _)| items) {
        ready.entry(item.chiplet).or_default();
        busy_time.entry(item.chiplet).or_insert(0.0);
    }

    let mut heap: BinaryHeap<std::cmp::Reverse<(u64, u64, usize)>> = BinaryHeap::new();
    // Events are stored out-of-band so the heap key stays `Ord`:
    // (time bits via total order, seq, event index).
    let mut events: Vec<RefEvent> = Vec::new();
    let mut seq = 0u64;
    let key = |t: f64, seq: u64, idx: usize| {
        // f64 total-order bits: flip sign bit for positives, all bits
        // for negatives — same order as `total_cmp`.
        let b = t.to_bits();
        let ord = if b >> 63 == 0 { b | (1 << 63) } else { !b };
        std::cmp::Reverse((ord, seq, idx))
    };
    // Merge the arrivals by (time, stream). Times are finite, so
    // `partial_cmp` is total here, and it ties -0.0 with +0.0 as the
    // engine's `<` does.
    let mut merged: Vec<(f64, usize, usize)> = streams
        .iter()
        .enumerate()
        .flat_map(|(k, &(_, times))| times.iter().enumerate().map(move |(f, &t)| (t, k, f)))
        .collect();
    merged.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .expect("finite arrival times")
            .then((a.1, a.2).cmp(&(b.1, b.2)))
    });
    let mut event_time: Vec<f64> = Vec::new();
    for (frame, &(t, stream, local)) in merged.iter().enumerate() {
        seq += 1;
        events.push(RefEvent::Arrival {
            frame,
            stream,
            local,
        });
        event_time.push(t);
        heap.push(key(t, seq, events.len() - 1));
    }

    let mut arrivals: Vec<Vec<f64>> = streams.iter().map(|(_, t)| vec![0.0; t.len()]).collect();
    let mut completions: Vec<Vec<f64>> = streams
        .iter()
        .map(|(_, t)| vec![f64::NAN; t.len()])
        .collect();

    macro_rules! dispatch {
        ($chiplet:expr, $now:expr) => {{
            let c = $chiplet;
            let now = $now;
            // A chiplet that never ran is free at any instant, negative
            // arrival times included.
            if busy_until.get(&c).copied().unwrap_or(f64::NEG_INFINITY) <= now {
                if let Some(std::cmp::Reverse(job)) = ready.get_mut(&c).and_then(|q| q.pop()) {
                    let dur = streams[job.stream].0[job.item].duration.as_secs();
                    busy_until.insert(c, now + dur);
                    *busy_time.get_mut(&c).unwrap() += dur;
                    seq += 1;
                    events.push(RefEvent::Done { chiplet: c, job });
                    event_time.push(now + dur);
                    heap.push(key(now + dur, seq, events.len() - 1));
                }
            }
        }};
    }
    macro_rules! enqueue {
        ($job:expr, $now:expr) => {{
            let job: RefJob = $job;
            let c = streams[job.stream].0[job.item].chiplet;
            ready.get_mut(&c).unwrap().push(std::cmp::Reverse(job));
            dispatch!(c, $now);
        }};
    }

    while let Some(std::cmp::Reverse((_, _, idx))) = heap.pop() {
        let time = event_time[idx];
        match events[idx] {
            RefEvent::Arrival {
                frame,
                stream,
                local,
            } => {
                arrivals[stream][local] = time;
                for (item, it) in streams[stream].0.iter().enumerate() {
                    if it.deps.is_empty() {
                        enqueue!(
                            RefJob {
                                frame,
                                item,
                                stream,
                                local,
                            },
                            time
                        );
                    }
                }
            }
            RefEvent::Done { chiplet, job } => {
                let (k, f) = (job.stream, job.local);
                remaining[k][f] -= 1;
                if remaining[k][f] == 0 {
                    completions[k][f] = time;
                }
                for &succ in &dependents[k][job.item] {
                    deps_left[k][f][succ] -= 1;
                    if deps_left[k][f][succ] == 0 {
                        enqueue!(RefJob { item: succ, ..job }, time);
                    }
                }
                dispatch!(chiplet, time);
            }
        }
    }

    assert!(
        remaining.iter().flatten().all(|&r| r == 0),
        "all frames completed"
    );
    streams
        .iter()
        .zip(arrivals.into_iter().zip(completions))
        .map(|(&(items, _), (arrivals, completions))| RefRun {
            arrivals,
            completions,
            busy: items
                .iter()
                .map(|it| (it.chiplet, busy_time[&it.chiplet]))
                .collect(),
        })
        .collect()
}

/// Replays the old report math over the reference run and compares every
/// observable `SimReport` field to the engine's, bit for bit.
fn assert_matches_reference(what: &str, rep: &SimReport, run: &RefRun, warmup: usize) {
    let n = run.completions.len();
    let trim = warmup.min(n.saturating_sub(1) / 2);
    let (lo, hi) = (trim, n - trim);
    let len = hi - lo;
    let lat = |i: usize| run.completions[i] - run.arrivals[i];

    let steady = if len >= 2 {
        (run.completions[hi - 1] - run.completions[lo]) / (len - 1) as f64
    } else {
        lat(lo)
    };
    let mean: f64 = (lo..hi).map(lat).sum::<f64>() / len as f64;
    let max: f64 = (lo..hi).map(lat).fold(0.0, f64::max);
    let mut sketch = Quantiles::new();
    for i in lo..hi {
        sketch.insert(lat(i));
    }
    let tails = LatencyQuantiles::from_stream(&sketch);

    let bits = |v: f64| v.to_bits();
    assert_eq!(rep.measured_frames, len, "{what}: measured_frames");
    assert_eq!(
        bits(rep.steady_interval.as_secs()),
        bits(steady),
        "{what}: steady_interval"
    );
    assert_eq!(
        bits(rep.mean_latency.as_secs()),
        bits(mean),
        "{what}: mean_latency"
    );
    assert_eq!(
        bits(rep.max_latency.as_secs()),
        bits(max),
        "{what}: max_latency"
    );
    for (label, got, want) in [
        ("p50", rep.tails.p50, tails.p50),
        ("p95", rep.tails.p95, tails.p95),
        ("p99", rep.tails.p99, tails.p99),
        ("p99.9", rep.tails.p999, tails.p999),
    ] {
        assert_eq!(
            bits(got.as_secs()),
            bits(want.as_secs()),
            "{what}: tail {label}"
        );
    }
    assert_eq!(
        bits(rep.throughput_fps),
        bits(if steady == 0.0 { 0.0 } else { 1.0 / steady }),
        "{what}: throughput"
    );
    let span = run.completions.iter().fold(0.0, |a, &c| f64::max(a, c)) - run.arrivals[0];
    for (&c, &b) in &run.busy {
        let want = if span > 0.0 { b / span } else { 0.0 };
        assert_eq!(
            bits(rep.busy_fraction(c).expect("chiplet hosted work")),
            bits(want),
            "{what}: busy fraction of {c:?}"
        );
    }
}

/// Every built-in scenario family, matched and simulated on the paper's
/// 6×6 package, produces a bit-identical report from the rebuilt engine
/// — at one worker and at eight.
#[test]
fn all_scenario_families_pin_the_old_engine_bit_for_bit() {
    let model = FittedMaestro::new();
    let pkg = McmPackage::simba_6x6();
    for scenario in Scenario::builtin() {
        let outcome = match_scenario(&scenario, &pkg, &model);
        let cfg = scenario.sim_config(SWEEP_FRAMES);
        let items = flatten_items(&outcome.schedule, &pkg, &model, cfg.dtype);
        let times = cfg.arrivals.times(cfg.frames);
        let reference = reference_run(&items, &times);
        for jobs in [1, 8] {
            let rep = npu_par::with_jobs(jobs, || simulate(&outcome.schedule, &pkg, &model, &cfg));
            assert_matches_reference(
                &format!("{} (jobs {jobs})", scenario.name),
                &rep,
                &reference,
                cfg.warmup,
            );
        }
    }
}

/// Frames per family in the overloaded pin: 24 s of 30 FPS video.
const OVERLOADED_FRAMES: usize = 720;

/// The same bit-for-bit pin in the overloaded regime. All builtin
/// families but the 8 FPS night one offer frames faster than the 6×6
/// package's matched pipe serves them, so runs of `OVERLOADED_FRAMES`
/// hold dozens of frames in flight, and trace replay over a hundred,
/// where the 24-frame runs above hold only a few. The families run on
/// the `npu-par` workers to keep the debug build fast.
#[test]
fn overloaded_families_pin_the_old_engine_bit_for_bit() {
    let model = FittedMaestro::new();
    let pkg = McmPackage::simba_6x6();
    let peaks = npu_par::par_map(&Scenario::builtin(), |scenario| {
        let outcome = match_scenario(scenario, &pkg, &model);
        let cfg = scenario.sim_config(OVERLOADED_FRAMES);
        let items = flatten_items(&outcome.schedule, &pkg, &model, cfg.dtype);
        let reference = reference_run(&items, &cfg.arrivals.times(cfg.frames));
        let (rep, stats) = simulate_with_stats(&outcome.schedule, &pkg, &model, &cfg);
        assert_matches_reference(&scenario.name, &rep, &reference, cfg.warmup);
        assert_eq!(stats.frames, OVERLOADED_FRAMES, "{}", scenario.name);
        (scenario.name.clone(), stats.peak_in_flight)
    });
    assert!(
        peaks.iter().any(|&(_, peak)| peak >= 100),
        "no family reached 100 frames in flight: {peaks:?}"
    );
}

/// A million saturated frames through a two-chiplet pipeline: the run
/// completes, the statistics stay sane, and at most a handful of frames
/// are ever in flight — three orders of magnitude under the frame
/// count.
#[test]
fn million_frame_saturated_run_keeps_the_pool_bounded() {
    use npu_dnn::models::attention::{fusion_block, FusionConfig};

    let g = fusion_block(&FusionConfig::spatial_default());
    let pkg = McmPackage::simba_6x6();
    let model = FittedMaestro::new();
    // Heavy trunk on chiplet 0 (the entry bottleneck), cheap output
    // compression on chiplet 1: frames drain as fast as they clear the
    // trunk, so in-flight occupancy is the pipeline depth, not the
    // frame backlog.
    let mut mp = ModelPlan::on_single_chiplet("s", g.clone(), ChipletId(0));
    let out = g.find("s_fuse.compress").expect("fusion block compresses");
    *mp.layer_plan_mut(out) = LayerPlan::single(g.layer(out).clone(), ChipletId(1));
    let schedule = Schedule {
        stages: vec![StagePlan {
            kind: StageKind::SpatialFusion,
            models: vec![mp],
            region: vec![ChipletId(0), ChipletId(1)],
        }],
    };

    let frames = 1_000_000;
    let (rep, stats) = simulate_with_stats(&schedule, &pkg, &model, &SimConfig::saturated(frames));
    assert_eq!(stats.frames, frames);
    assert!(
        stats.peak_in_flight < 16,
        "pool must stay bounded by pipelining depth, got {} slots",
        stats.peak_in_flight
    );
    assert_eq!(rep.measured_frames, frames - 2 * 4);
    assert!(rep.steady_interval.as_secs() > 0.0);
    assert!(rep.tails.p50 <= rep.tails.p999);
    assert!(rep.busy_fraction(ChipletId(0)).unwrap() > 0.9, "saturated");
}

/// A cost model answering from a fixed per-layer latency table, so a
/// hand-built schedule flattens to exactly the items a test names.
struct TableModel(&'static [(&'static str, f64)]);

impl CostModel for TableModel {
    fn layer_cost(&self, layer: &Layer, acc: &Accelerator) -> LayerCost {
        let (_, secs) = self
            .0
            .iter()
            .find(|(name, _)| layer.name() == *name)
            .expect("layer in the table");
        LayerCost {
            latency: Seconds::new(*secs),
            ..LayerCost::zero(acc.array().pes())
        }
    }

    fn name(&self) -> &str {
        "table"
    }
}

/// Two completions at one instant, and the first starts a job on the
/// second's chiplet before that chiplet's own completion is processed.
///
/// Roots A (c0, 1 s) and B (c1, 1 s) both finish at t = 1, A's event
/// first. A releases C (c1, 1 s); c1 is free at `busy_until <= now`, so
/// C starts at once, while B's completion is still on the calendar. B
/// then releases D (c1, 2 s), which waits for C. C releases E (c2, 5 s)
/// at t = 2, so the frame completes at 7 s. Treating c1 as busy until
/// B's event is processed would run D (the lower item index) before C
/// and finish at 9 s.
#[test]
fn same_instant_completion_frees_the_chiplet_before_its_event() {
    let dense = |name: &str| {
        Layer::intrinsic(
            name,
            OpKind::Dense {
                tokens: 64,
                in_features: 64,
                out_features: 64,
            },
        )
    };
    // Item order follows graph order: A, B, D, C, E.
    let mut g = Graph::new("same-instant");
    let a = g.add(dense("a"), &[]).unwrap();
    let b = g.add(dense("b"), &[]).unwrap();
    let d = g.add(dense("d"), &[b]).unwrap();
    let c = g.add(dense("c"), &[a]).unwrap();
    let e = g.add(dense("e"), &[c]).unwrap();
    let mut mp = ModelPlan::on_single_chiplet("m", g.clone(), ChipletId(0));
    for (id, chiplet) in [(b, 1), (d, 1), (c, 1), (e, 2)] {
        *mp.layer_plan_mut(id) = LayerPlan::single(g.layer(id).clone(), ChipletId(chiplet));
    }
    let schedule = Schedule {
        stages: vec![StagePlan {
            kind: StageKind::SpatialFusion,
            models: vec![mp],
            region: vec![ChipletId(0), ChipletId(1), ChipletId(2)],
        }],
    };
    // A free NoP: item durations are exactly the table's latencies.
    let pkg = McmPackage::simba_6x6().with_link(LinkParams {
        bandwidth_bytes_per_sec: f64::INFINITY,
        hop_latency: Seconds::ZERO,
        ..LinkParams::simba_28nm()
    });
    let model = TableModel(&[("a", 1.0), ("b", 1.0), ("d", 2.0), ("c", 1.0), ("e", 5.0)]);

    let cfg = SimConfig::saturated(1);
    let items = flatten_items(&schedule, &pkg, &model, cfg.dtype);
    let durations: Vec<f64> = items.iter().map(|it| it.duration.as_secs()).collect();
    assert_eq!(durations, [1.0, 1.0, 2.0, 1.0, 5.0]);
    let deps: Vec<&[usize]> = items.iter().map(|it| &it.deps[..]).collect();
    assert_eq!(deps, [&[][..], &[], &[1], &[0], &[3]]);

    let reference = reference_run(&items, &cfg.arrivals.times(cfg.frames));
    let rep = simulate(&schedule, &pkg, &model, &cfg);
    assert_matches_reference("same-instant", &rep, &reference, cfg.warmup);
    assert_eq!(rep.mean_latency.as_secs(), 7.0);
}

/// A release onto a free chiplet whose item already waits there starts
/// the waiting frame, before a lower-key job that a same-instant
/// completion releases later.
///
/// Two saturated frames. P (c0, 1 s) releases X (c1, 1 s) at t = 1, and
/// X0 waits: V (c1, 1.5 s) holds c1. At t = 1.5 W (c2, 1.5 s) releases Z
/// (c1, 0.5 s), which beats X0 and runs to t = 2. At t = 2 P's frame-1
/// completion comes first: it releases X1 onto c1, free at
/// `busy_until <= now`, so X0 starts. Z0's completion then releases Y
/// (c1, 1 s), which waits; Y releases E (c0, 5 s) at t = 4, and the
/// frames complete at 9 s and 14 s. Not offering c1 a dispatch because
/// X is already queued would start Y0, the lower item index, at t = 2
/// and finish at 8 s and 13 s.
#[test]
fn release_onto_a_free_chiplet_starts_its_queued_frame() {
    let dense = |name: &str| {
        Layer::intrinsic(
            name,
            OpKind::Dense {
                tokens: 64,
                in_features: 64,
                out_features: 64,
            },
        )
    };
    // Item order follows graph order: P, W, V, Z, Y, X, E.
    let mut g = Graph::new("queued-release");
    let p = g.add(dense("p"), &[]).unwrap();
    let w = g.add(dense("w"), &[]).unwrap();
    let v = g.add(dense("v"), &[]).unwrap();
    let z = g.add(dense("z"), &[w]).unwrap();
    let y = g.add(dense("y"), &[z]).unwrap();
    let x = g.add(dense("x"), &[p]).unwrap();
    g.add(dense("e"), &[y]).unwrap();
    let mut mp = ModelPlan::on_single_chiplet("m", g.clone(), ChipletId(0));
    for (id, chiplet) in [(w, 2), (v, 1), (z, 1), (y, 1), (x, 1)] {
        *mp.layer_plan_mut(id) = LayerPlan::single(g.layer(id).clone(), ChipletId(chiplet));
    }
    let schedule = Schedule {
        stages: vec![StagePlan {
            kind: StageKind::SpatialFusion,
            models: vec![mp],
            region: vec![ChipletId(0), ChipletId(1), ChipletId(2)],
        }],
    };
    // A free NoP: item durations are exactly the table's latencies.
    let pkg = McmPackage::simba_6x6().with_link(LinkParams {
        bandwidth_bytes_per_sec: f64::INFINITY,
        hop_latency: Seconds::ZERO,
        ..LinkParams::simba_28nm()
    });
    let model = TableModel(&[
        ("p", 1.0),
        ("w", 1.5),
        ("v", 1.5),
        ("z", 0.5),
        ("y", 1.0),
        ("x", 1.0),
        ("e", 5.0),
    ]);

    let cfg = SimConfig::saturated(2);
    let items = flatten_items(&schedule, &pkg, &model, cfg.dtype);
    let durations: Vec<f64> = items.iter().map(|it| it.duration.as_secs()).collect();
    assert_eq!(durations, [1.0, 1.5, 1.5, 0.5, 1.0, 1.0, 5.0]);
    let deps: Vec<&[usize]> = items.iter().map(|it| &it.deps[..]).collect();
    assert_eq!(deps, [&[][..], &[], &[], &[1], &[3], &[0], &[4]]);

    let reference = reference_run(&items, &cfg.arrivals.times(cfg.frames));
    let rep = simulate(&schedule, &pkg, &model, &cfg);
    assert_matches_reference("queued-release", &rep, &reference, cfg.warmup);
    assert_eq!(rep.mean_latency.as_secs(), 11.5);
    assert_eq!(rep.max_latency.as_secs(), 14.0);
}

/// The `Dtype` import is part of the pinned surface: the reference and
/// the engine must flatten with the same accounting datatype.
#[test]
fn sim_config_dtype_matches_flatten_default() {
    let cfg = SimConfig::saturated(4);
    assert_eq!(cfg.dtype, Dtype::Fp16);
}

/// Chiplets the generated streams draw from: few, so streams share them.
const SHARED_CHIPLETS: u64 = 3;

/// A cost model charging a `Dense` layer `tokens` eighths of a second.
/// Durations and arrival times on one binary grid make same-instant
/// events, and so the calendar's tie-breaks, common.
struct EighthsModel;

impl CostModel for EighthsModel {
    fn layer_cost(&self, layer: &Layer, acc: &Accelerator) -> LayerCost {
        let OpKind::Dense { tokens, .. } = layer.op() else {
            panic!("generated graphs hold dense layers only");
        };
        LayerCost {
            latency: Seconds::new(tokens as f64 / 8.0),
            ..LayerCost::zero(acc.array().pes())
        }
    }

    fn name(&self) -> &str {
        "eighths"
    }
}

/// A random DAG of 2–6 dense layers drawn from `seed`, one stage on the
/// shared chiplets. Layer 0 is a root on chiplet 0, so every stream
/// queues a root there. Each later layer takes up to two earlier
/// layers as inputs (none makes it another root, a repeat a duplicated
/// edge), lasts 1–4 eighths of a second and runs on a drawn chiplet.
fn generated_schedule(seed: u64) -> Schedule {
    let mut z = seed;
    // splitmix64: one draw in `0..n` per call.
    let mut draw = |n: u64| {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = z;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (x ^ (x >> 31)) % n
    };
    let layers = 2 + draw(5) as usize;
    let mut g = Graph::new("generated");
    let mut placed: Vec<(LayerId, ChipletId)> = Vec::with_capacity(layers);
    for l in 0..layers {
        let inputs: Vec<_> = if l == 0 {
            Vec::new()
        } else {
            (0..draw(3))
                .map(|_| placed[draw(l as u64) as usize].0)
                .collect()
        };
        let layer = Layer::intrinsic(
            format!("l{l}"),
            OpKind::Dense {
                tokens: 1 + draw(4),
                in_features: 8,
                out_features: 8,
            },
        );
        let chiplet = if l == 0 { 0 } else { draw(SHARED_CHIPLETS) };
        let id = g.add(layer, &inputs).expect("inputs precede the layer");
        placed.push((id, ChipletId(chiplet as u32)));
    }
    let mut mp = ModelPlan::on_single_chiplet("m", g.clone(), ChipletId(0));
    for &(id, chiplet) in &placed {
        *mp.layer_plan_mut(id) = LayerPlan::single(g.layer(id).clone(), chiplet);
    }
    Schedule {
        stages: vec![StagePlan {
            kind: StageKind::SpatialFusion,
            region: mp.chiplets().into_iter().collect(),
            models: vec![mp],
        }],
    }
}

/// One generated stream: `(frames, arrival offset, arrival interval)` in
/// eighths of a second, then `(schedule seed, warmup)`.
type StreamDraw = ((usize, i64, i64), (u64, usize));

/// Co-simulates the drawn streams on three shared chiplets and checks
/// each stream's report against the K-stream reference bit for bit.
fn assert_shared_streams_match_reference(draws: &[StreamDraw]) {
    let schedules: Vec<Schedule> = draws
        .iter()
        .map(|&(_, (seed, _))| generated_schedule(seed))
        .collect();
    assert_streams_match_reference(&schedules, draws);
}

/// Co-simulates `schedules[k]` under the arrivals and warmup of
/// `draws[k]` and checks each stream's report against the K-stream
/// reference, which runs every stream on one calendar, bit for bit.
fn assert_streams_match_reference(schedules: &[Schedule], draws: &[StreamDraw]) {
    // A free NoP: item durations are exactly the model's eighths.
    let pkg = McmPackage::simba_6x6().with_link(LinkParams {
        bandwidth_bytes_per_sec: f64::INFINITY,
        hop_latency: Seconds::ZERO,
        ..LinkParams::simba_28nm()
    });
    let model = EighthsModel;
    let times: Vec<Vec<f64>> = draws
        .iter()
        .map(|&((frames, offset, interval), _)| {
            (0..frames as i64)
                .map(|f| (offset + f * interval) as f64 / 8.0)
                .collect()
        })
        .collect();
    let streams: Vec<SimPhase<'_>> = schedules
        .iter()
        .zip(&times)
        .zip(draws)
        .map(|((schedule, times), &(_, (_, warmup)))| SimPhase {
            schedule,
            times: times.clone(),
            readiness: Readiness::Barrier(times[0]),
            warmup: Some(warmup),
            cutoff: None,
        })
        .collect();
    let reps = simulate_tenants(&streams, &pkg, &model, Dtype::Fp16);
    let items: Vec<Vec<SimItem>> = schedules
        .iter()
        .map(|s| flatten_items(s, &pkg, &model, Dtype::Fp16))
        .collect();
    let inputs: Vec<(&[SimItem], &[f64])> = items
        .iter()
        .zip(&times)
        .map(|(i, t)| (&i[..], &t[..]))
        .collect();
    let reference = reference_run_streams(&inputs);
    for (k, ((rep, run), &(_, (_, warmup)))) in reps.iter().zip(&reference).zip(draws).enumerate() {
        assert_eq!((rep.dropped, rep.flushed), (0, 0));
        assert_matches_reference(
            &format!("stream {k} of {draws:?}"),
            &rep.report,
            run,
            warmup,
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Two or three streams of random DAGs on three shared chiplets,
    /// each with its own arrivals on an eighth-second grid (negative
    /// offsets and zero intervals included, so streams often arrive at
    /// one instant), co-simulated on one calendar, match the K-stream
    /// reference engine bit for bit, stream by stream.
    #[test]
    fn shared_chiplet_streams_pin_the_reference_bit_for_bit(
        draws in proptest::collection::vec(
            ((1usize..12, -3i64..3, 0i64..5), (0u64..u64::MAX, 0usize..3)),
            2..4,
        ),
    ) {
        assert_shared_streams_match_reference(&draws);
    }
}

/// A fixed draw of the property above. A completion releases the next
/// frame of an item whose earlier frame already waits on a free chiplet,
/// while that chiplet's own completion at the same instant is still on
/// the calendar; the engine must offer the chiplet a dispatch then, as a
/// release onto a free chiplet does in the reference, or a lower-key job
/// released by the pending completion starts first.
#[test]
fn shared_chiplet_release_onto_a_queued_item_pins_the_reference() {
    assert_shared_streams_match_reference(&[
        ((10, 2, 3), (4106166808575755941, 1)),
        ((7, -3, 4), (11951658683618473250, 0)),
        ((2, -2, 4), (7412023205174904577, 1)),
    ]);
}

/// `schedule` with every chiplet id moved up by `base`.
fn shifted(mut schedule: Schedule, base: u32) -> Schedule {
    for stage in &mut schedule.stages {
        for c in &mut stage.region {
            c.0 += base;
        }
        let layers = stage.models.iter_mut().flat_map(|m| &mut m.layers);
        for shard in layers.flat_map(|lp| &mut lp.shards) {
            shard.chiplet.0 += base;
        }
    }
    schedule
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Two to five streams of random DAGs, each on one of two chiplet
    /// islands, island 0 (chiplets `0..3`) or island 1 (chiplets
    /// `3..6`): streams on one island share its first chiplet, streams
    /// on different islands share nothing. The engine runs each island's
    /// streams in a pass of their own, yet every stream's report
    /// matches the reference running all of them on one calendar bit
    /// for bit, in input order, however the islands interleave.
    #[test]
    fn chiplet_islands_pin_the_one_calendar_reference(
        draws in proptest::collection::vec(
            (((1usize..12, -3i64..3, 0i64..5), (0u64..u64::MAX, 0usize..3)), 0u32..2),
            2..6,
        ),
    ) {
        let schedules: Vec<Schedule> = draws
            .iter()
            .map(|&((_, (seed, _)), island)| {
                shifted(generated_schedule(seed), island * SHARED_CHIPLETS as u32)
            })
            .collect();
        let draws: Vec<StreamDraw> = draws.iter().map(|&(d, _)| d).collect();
        assert_streams_match_reference(&schedules, &draws);
    }
}

/// Two dense layers in a chain, each given as `(chiplet, eighths of a
/// second)`: `first` runs, then `second`.
fn chain_schedule(first: (u32, u64), second: (u32, u64)) -> Schedule {
    let dense = |name: &str, tokens| {
        Layer::intrinsic(
            name,
            OpKind::Dense {
                tokens,
                in_features: 8,
                out_features: 8,
            },
        )
    };
    let mut g = Graph::new("chain");
    let a = g.add(dense("a", first.1), &[]).expect("a root");
    let b = g.add(dense("b", second.1), &[a]).expect("input precedes");
    let mut mp = ModelPlan::on_single_chiplet("m", g.clone(), ChipletId(first.0));
    *mp.layer_plan_mut(b) = LayerPlan::single(g.layer(b).clone(), ChipletId(second.0));
    Schedule {
        stages: vec![StagePlan {
            kind: StageKind::SpatialFusion,
            region: mp.chiplets().into_iter().collect(),
            models: vec![mp],
        }],
    }
}

/// A transitive chain: A shares chiplet 1 with B and C shares chiplet 2
/// with B, while A and C share nothing, and B comes last. All three
/// contend, so they must run as one group; grouping by direct overlap
/// with the streams before it would run C apart from B.
#[test]
fn transitive_chiplet_chain_pins_the_one_calendar_reference() {
    let schedules = [
        chain_schedule((0, 2), (1, 3)),
        chain_schedule((3, 1), (2, 3)),
        chain_schedule((1, 2), (2, 2)),
    ];
    assert_streams_match_reference(
        &schedules,
        &[
            ((8, 0, 2), (0, 1)),
            ((8, 1, 2), (0, 1)),
            ((8, 0, 1), (0, 1)),
        ],
    );
}
