//! ASCII occupancy chart: chiplet × time view of one pipeline interval.
//!
//! Renders each chiplet's busy time within the pipelining window as a bar,
//! labelled with its dominant workload — a quick visual of how well the
//! throughput matcher balanced the package (compare with the paper's
//! Figs. 5–8 quadrant drawings).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use npu_maestro::CostModel;
use npu_mcm::{ChipletId, McmPackage};
use npu_tensor::{Dtype, Seconds};

use crate::eval::{evaluate_stages, fold_scores};
use crate::plan::Schedule;

/// Renders the per-chiplet occupancy chart with `width` characters per
/// full pipelining window. A chiplet's label is the layer of its largest
/// shard by stage-pass busy time (compute plus input transfer), the same
/// times its bar sums.
pub fn render(
    schedule: &Schedule,
    pkg: &McmPackage,
    model: &dyn CostModel,
    width: usize,
) -> String {
    let width = width.max(10);
    let stages = evaluate_stages::<()>(schedule, pkg, model, Dtype::Fp16);
    let report = fold_scores(pkg, &stages);
    let window = report.pipe;

    // Dominant workload label per chiplet. The stage passes list their
    // shards in stage → model → layer (graph order) → shard order.
    let mut shards = stages.iter().flat_map(|s| &s.shards);
    let mut labels: BTreeMap<ChipletId, (String, Seconds)> = BTreeMap::new();
    for stage in &schedule.stages {
        for mp in &stage.models {
            for (id, _) in mp.graph.iter() {
                let lp = mp.layer_plan(id);
                for &(chiplet, t, _) in shards.by_ref().take(lp.shards.len()) {
                    let entry = labels
                        .entry(chiplet)
                        .or_insert((String::new(), Seconds::ZERO));
                    if t > entry.1 {
                        *entry = (format!("{}/{}", mp.name, lp.source.name()), t);
                    }
                }
            }
        }
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "chiplet occupancy over one {window} pipelining window ('#' = busy)"
    );
    for (chiplet, busy) in &report.busy {
        let frac = (busy.as_secs() / window.as_secs()).clamp(0.0, 1.0);
        let filled = (frac * width as f64).round() as usize;
        let bar: String = "#".repeat(filled) + &" ".repeat(width - filled.min(width));
        let label = labels
            .get(chiplet)
            .map(|(l, _)| l.as_str())
            .unwrap_or("idle");
        let _ = writeln!(
            out,
            "{:>4} |{bar}| {:5.1}%  {label}",
            chiplet.to_string(),
            frac * 100.0
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::throughput_match::{MatcherConfig, ThroughputMatcher};
    use npu_dnn::PerceptionConfig;
    use npu_maestro::FittedMaestro;

    #[test]
    fn renders_all_used_chiplets() {
        let pipeline = PerceptionConfig::default().build();
        let pkg = McmPackage::simba_6x6();
        let model = FittedMaestro::new();
        let outcome = ThroughputMatcher::new(&model, MatcherConfig::default())
            .match_throughput(&pipeline, &pkg);
        let chart = render(&outcome.schedule, &pkg, &model, 40);
        let used = outcome.schedule.chiplets_used().len();
        // One line per used chiplet plus the header.
        assert_eq!(chart.lines().count(), used + 1);
        // The FE chiplets are nearly fully busy.
        assert!(chart.contains("fe_bfpn"));
        assert!(chart.contains('#'));
    }

    #[test]
    fn bars_never_overflow() {
        let pipeline = PerceptionConfig::default().build();
        let pkg = McmPackage::simba_6x6();
        let model = FittedMaestro::new();
        let outcome = ThroughputMatcher::new(&model, MatcherConfig::default())
            .match_throughput(&pipeline, &pkg);
        let chart = render(&outcome.schedule, &pkg, &model, 20);
        for line in chart.lines().skip(1) {
            let bar = line.split('|').nth(1).expect("bar section");
            assert_eq!(bar.len(), 20, "{line}");
        }
    }
}
