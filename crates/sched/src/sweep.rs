//! Design-space sweeps beyond the paper's fixed configurations.
//!
//! * [`chiplet_count_sweep`] — pipelining latency / utilization / energy
//!   as the package grows from a handful of chiplets to two full NPUs:
//!   where does throughput matching saturate?
//! * [`failure_sweep`] — chiplet failure injection: disable `k` chiplets
//!   and re-run Algorithm 1 on the degraded package, measuring graceful
//!   degradation (the modularity argument for chiplets in §I).
//!
//! Every sweep is a thin wrapper over the unified [`Study`] query
//! surface (`npu-study`): one [`Axis`] per swept quantity, cartesian
//! expansion in deterministic input order, execution fanned out on the
//! `npu-par` worker pool with every point calling the caller's cost
//! model directly; results come back in input order and are
//! bit-identical to a serial run at any jobs count (pin with
//! `npu_par::with_jobs`). Nothing caches layer costs: the closed-form
//! model answers in ~44 ns, under the ~400 ns a hashed, locked lookup
//! would take.

use serde::{Deserialize, Serialize};

use npu_dnn::PerceptionPipeline;
use npu_maestro::{Accelerator, CostModel};
use npu_mcm::McmPackage;
use npu_noc::{LinkParams, Mesh2d};
use npu_study::{Axis, Grid, Study};
use npu_tensor::{Joules, Seconds};

use crate::throughput_match::{MatcherConfig, ThroughputMatcher};

/// One sweep point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Swept quantity (chiplet count / failed count).
    pub x: u64,
    /// Matched pipelining latency.
    pub pipe: Seconds,
    /// End-to-end latency.
    pub e2e: Seconds,
    /// Energy per frame.
    pub energy: Joules,
    /// PE utilization over used chiplets.
    pub utilization: f64,
}

/// Builds a `w × h` package of 256-PE OS chiplets.
fn package(w: u32, h: u32) -> McmPackage {
    McmPackage::from_fn(format!("sweep-{w}x{h}"), Mesh2d::new(w, h), |_| {
        Accelerator::shidiannao_like(256)
    })
}

/// Sweeps mesh sizes (each point is `w × h` chiplets of 256 PEs) and
/// matches the pipeline on each.
pub fn chiplet_count_sweep(
    pipeline: &PerceptionPipeline,
    meshes: &[(u32, u32)],
    model: &dyn CostModel,
) -> Vec<SweepPoint> {
    Study::new(
        "chiplet-count",
        Grid::of(Axis::new("mesh", meshes.to_vec())),
        model,
    )
    .run(|&(w, h), model| {
        let pkg = package(w, h);
        let cfg = MatcherConfig {
            allow_fe_split: true,
            ..MatcherConfig::default()
        };
        let outcome = ThroughputMatcher::new(model, cfg).minimize(pipeline, &pkg);
        SweepPoint {
            x: (w * h) as u64,
            pipe: outcome.report.pipe,
            e2e: outcome.report.e2e,
            energy: outcome.report.energy(),
            utilization: outcome.report.utilization_used,
        }
    })
    .into_metrics()
}

/// Failure injection: re-schedules the pipeline on a 6×6 package with the
/// last `k` chiplets disabled (for each `k` in `failed`), modelling field
/// failures of individual chiplets.
///
/// Disabled chiplets are modelled by shrinking the mesh region the
/// scheduler may use: a 6×6 package with `k` failures keeps `36 - k`
/// chiplets.
pub fn failure_sweep(
    pipeline: &PerceptionPipeline,
    failed: &[u64],
    model: &dyn CostModel,
) -> Vec<SweepPoint> {
    Study::new(
        "failure-injection",
        Grid::of(Axis::new("failed", failed.to_vec())),
        model,
    )
    .run(|&k, model| {
        // Remove whole trailing rows/chiplets by rebuilding a smaller
        // mesh: 36 - k chiplets arranged as close to 6x6 as possible.
        let keep = 36u64.saturating_sub(k).max(4);
        let w = 6u32;
        let h = keep.div_ceil(u64::from(w)) as u32;
        let pkg = package(w, h.max(1));
        let outcome = ThroughputMatcher::new(model, MatcherConfig::default())
            .match_throughput(pipeline, &pkg);
        SweepPoint {
            x: k,
            pipe: outcome.report.pipe,
            e2e: outcome.report.e2e,
            energy: outcome.report.energy(),
            utilization: outcome.report.utilization_used,
        }
    })
    .into_metrics()
}

/// One NoP-bandwidth sensitivity point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NopPoint {
    /// Per-chiplet link bandwidth in GB/s.
    pub bandwidth_gbps: f64,
    /// Matched pipelining latency at this bandwidth.
    pub pipe: Seconds,
    /// Aggregate NoP transfer latency as a share of the total per-frame
    /// chiplet busy time (grows as the link starves).
    pub nop_latency_share: f64,
}

/// Sweeps the NoP link bandwidth on the 6×6 package and re-matches the
/// pipeline at each point — probing where the paper's "NoP overheads are
/// two orders of magnitude below compute" conclusion (§IV-D) stops
/// holding.
pub fn nop_bandwidth_sweep(
    pipeline: &PerceptionPipeline,
    bandwidths_gbps: &[f64],
    model: &dyn CostModel,
) -> Vec<NopPoint> {
    // NoP transfer costs depend on the link parameters, not on
    // `CostModel::layer_cost`, so one layer-cost cache is sound across
    // the bandwidth grid.
    Study::new(
        "nop-bandwidth",
        Grid::of(Axis::new("bandwidth_gbps", bandwidths_gbps.to_vec())),
        model,
    )
    .run(|&gbps, model| {
        let link = LinkParams {
            bandwidth_bytes_per_sec: gbps * 1e9,
            ..LinkParams::simba_28nm()
        };
        let pkg = McmPackage::simba_6x6().with_link(link);
        let outcome = ThroughputMatcher::new(model, MatcherConfig::default())
            .match_throughput(pipeline, &pkg);
        let nop_total: f64 = outcome
            .report
            .nop_by_layer
            .iter()
            .map(|(_, l, _)| l.as_secs())
            .sum();
        let busy_total: f64 = outcome.report.busy.iter().map(|(_, b)| b.as_secs()).sum();
        NopPoint {
            bandwidth_gbps: gbps,
            pipe: outcome.report.pipe,
            nop_latency_share: nop_total / busy_total,
        }
    })
    .into_metrics()
}

#[cfg(test)]
mod tests {
    use super::*;
    use npu_dnn::PerceptionConfig;
    use npu_maestro::FittedMaestro;

    #[test]
    fn pipe_improves_then_saturates_with_chiplets() {
        let pipeline = PerceptionConfig::default().build();
        let model = FittedMaestro::new();
        let points = chiplet_count_sweep(&pipeline, &[(4, 4), (6, 6), (12, 6)], &model);
        assert_eq!(points.len(), 3);
        // More chiplets never hurt.
        assert!(points[1].pipe <= points[0].pipe);
        assert!(points[2].pipe <= points[1].pipe);
        // The 72-chiplet point roughly halves the 36-chiplet latency
        // (paper Fig. 10), but gains saturate: far from another 2x of the
        // per-chiplet ideal.
        let gain = points[1].pipe / points[2].pipe;
        assert!((1.5..2.5).contains(&gain), "gain {gain:.2}");
    }

    #[test]
    fn nop_conclusion_holds_until_bandwidth_collapses() {
        let pipeline = PerceptionConfig::default().build();
        let model = FittedMaestro::new();
        let pts = nop_bandwidth_sweep(&pipeline, &[100.0, 10.0, 1.0, 0.1], &model);
        // At the paper's 100 GB/s the pipe is compute-bound (~88 ms).
        assert!(
            (80.0..95.0).contains(&pts[0].pipe.as_millis()),
            "{}",
            pts[0].pipe
        );
        // A 10x bandwidth cut barely moves the pipe (the paper's claim).
        let drift = pts[1].pipe / pts[0].pipe;
        assert!(drift < 1.1, "10 GB/s drift {drift:.3}");
        // At 0.1 GB/s the NoP dominates and the conclusion breaks.
        assert!(
            pts[3].pipe.as_secs() > pts[0].pipe.as_secs() * 1.5,
            "0.1 GB/s pipe {}",
            pts[3].pipe
        );
        // Pipe latency is monotone in falling bandwidth, within greedy
        // noise (lower NoP costs can steer the matcher differently).
        for pair in pts.windows(2) {
            assert!(pair[1].pipe.as_secs() >= pair[0].pipe.as_secs() * 0.95);
        }
        // The NoP latency share explodes as the link starves.
        assert!(pts[0].nop_latency_share < 0.05);
        assert!(pts[3].nop_latency_share > 10.0 * pts[0].nop_latency_share);
    }

    #[test]
    fn failures_degrade_gracefully() {
        let pipeline = PerceptionConfig::default().build();
        let model = FittedMaestro::new();
        let points = failure_sweep(&pipeline, &[0, 6, 12], &model);
        // Any failure degrades the pipe vs the healthy package. Note the
        // degradation is NOT monotone in the failure count: quadrant
        // geometry matters more than raw chiplet count (a 6x5 split
        // fragments the FE region worse than 6x4 does) — a real fragility
        // of quadrant-based initial allocation worth knowing about.
        assert!(points[1].pipe.as_secs() > points[0].pipe.as_secs());
        assert!(points[2].pipe.as_secs() > points[0].pipe.as_secs());
        // A third of the package lost degrades throughput by at most ~2.5x
        // (the FE quadrant shrinks below the 8 concurrent instances and
        // cameras start time-sharing chiplets) — the pipeline still runs,
        // the modularity argument of §I.
        for p in &points[1..] {
            let degradation = p.pipe / points[0].pipe;
            assert!(
                (1.0..2.6).contains(&degradation),
                "k={}: degradation {degradation:.2}",
                p.x
            );
        }
    }
}
