//! Ablation studies on the simulator's three central modelling choices.
//!
//! 1. **Scheduler ablation** — Algorithm 1 vs naive longest-processing-
//!    time balancing: how much of the paper's gain is structure-aware
//!    sharding rather than load balancing?
//! 2. **Dataflow ablation** — the OS/WS study extended with the
//!    Eyeriss-like row-stationary dataflow (extension beyond the paper).
//! 3. **Cost-model ablation** — the fitted MAESTRO-calibrated model vs a
//!    first-principles roofline: which paper conclusions depend on
//!    MAESTRO's dataflow serialization effects?

use std::fmt;

use serde::{Deserialize, Serialize};

use npu_dnn::{PerceptionConfig, StageKind};
use npu_maestro::{graph_cost, Accelerator, CostModel, FirstPrinciples, FittedMaestro};
use npu_mcm::McmPackage;
use npu_sched::lpt::lpt_schedule;
use npu_sched::{evaluate, MatcherConfig, ThroughputMatcher};
use npu_tensor::{Dtype, Joules, Seconds};

use crate::text::{ms, TextTable};

/// Scheduler-ablation result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchedulerAblation {
    /// Pipe latency under naive LPT balancing.
    pub lpt_pipe: Seconds,
    /// Pipe latency under Algorithm 1.
    pub matched_pipe: Seconds,
    /// Utilization under LPT.
    pub lpt_utilization: f64,
    /// Utilization under Algorithm 1.
    pub matched_utilization: f64,
}

/// Dataflow-ablation row: one perception component on three dataflows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataflowRow {
    /// Component label.
    pub component: String,
    /// (latency, energy) per dataflow: OS, WS, RS.
    pub os: (Seconds, Joules),
    /// NVDLA-like results.
    pub ws: (Seconds, Joules),
    /// Eyeriss-like results (extension).
    pub rs: (Seconds, Joules),
}

/// Cost-model-ablation result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModelAblation {
    /// Monolithic-over-MCM E2E ratio under the fitted model (paper: ≈3.6x
    /// in favour of the MCM).
    pub fitted_mono_over_mcm: f64,
    /// The same ratio under the first-principles roofline.
    pub roofline_mono_over_mcm: f64,
}

/// All three ablations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ablations {
    /// Scheduler ablation.
    pub scheduler: SchedulerAblation,
    /// Dataflow ablation rows.
    pub dataflows: Vec<DataflowRow>,
    /// Cost-model ablation.
    pub cost_model: CostModelAblation,
}

/// Runs all ablations.
pub fn run() -> Ablations {
    let pipeline = PerceptionConfig::default().build();
    let pkg = McmPackage::simba_6x6();
    let model = FittedMaestro::new();

    // 1. Scheduler ablation.
    let lpt = evaluate(
        &lpt_schedule(&pipeline, &pkg, &model),
        &pkg,
        &model,
        Dtype::Fp16,
    );
    let matched =
        ThroughputMatcher::new(&model, MatcherConfig::default()).match_throughput(&pipeline, &pkg);
    let scheduler = SchedulerAblation {
        lpt_pipe: lpt.pipe,
        matched_pipe: matched.report.pipe,
        lpt_utilization: lpt.utilization_used,
        matched_utilization: matched.report.utilization_used,
    };

    // 2. Dataflow ablation on single 256-PE chiplets.
    let accs = [
        Accelerator::shidiannao_like(256),
        Accelerator::nvdla_like(256),
        Accelerator::eyeriss_like(256),
    ];
    let mut dataflows = Vec::new();
    for (label, graph) in [
        (
            "FE+BFPN (1 cam)",
            pipeline.stage(StageKind::FeatureExtraction).models()[0].graph(),
        ),
        (
            "S_FUSE",
            pipeline.stage(StageKind::SpatialFusion).models()[0].graph(),
        ),
        (
            "T_FUSE",
            pipeline.stage(StageKind::TemporalFusion).models()[0].graph(),
        ),
        (
            "OCUP_TR",
            pipeline.stage(StageKind::Trunks).models()[0].graph(),
        ),
    ] {
        let c: Vec<(Seconds, Joules)> = accs
            .iter()
            .map(|a| {
                let gc = graph_cost(&model, graph, a);
                (gc.serial_latency(), gc.energy())
            })
            .collect();
        dataflows.push(DataflowRow {
            component: label.to_string(),
            os: c[0],
            ws: c[1],
            rs: c[2],
        });
    }

    // 3. Cost-model ablation: monolithic-vs-MCM E2E ratio under both
    // cost models, on the first three stages.
    let three = pipeline.bottleneck_stages();
    let ratio = |m: &dyn CostModel| -> f64 {
        let mono_pkg = McmPackage::monolithic_9216();
        let mono = evaluate(
            &npu_sched::baseline_schedule(&three, &mono_pkg, npu_sched::Pipelining::Stagewise, m),
            &mono_pkg,
            m,
            Dtype::Fp16,
        );
        let mcm =
            ThroughputMatcher::new(m, MatcherConfig::default()).match_throughput(&pipeline, &pkg);
        mono.e2e.as_secs() / mcm.report.e2e.as_secs()
    };
    let cost_model = CostModelAblation {
        fitted_mono_over_mcm: ratio(&model),
        roofline_mono_over_mcm: ratio(&FirstPrinciples::default()),
    };

    Ablations {
        scheduler,
        dataflows,
        cost_model,
    }
}

impl fmt::Display for Ablations {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(
            "Ablation 1 - Algorithm 1 vs naive LPT balancing (6x6 MCM)",
            &["scheduler", "Pipe[ms]", "Util[%]"],
        );
        t.row(vec![
            "LPT (no sharding)".into(),
            ms(self.scheduler.lpt_pipe),
            format!("{:.1}", self.scheduler.lpt_utilization * 100.0),
        ]);
        t.row(vec![
            "Algorithm 1".into(),
            ms(self.scheduler.matched_pipe),
            format!("{:.1}", self.scheduler.matched_utilization * 100.0),
        ]);
        t.note(format!(
            "structure-aware sharding buys {:.1}x pipelining latency over load balancing",
            self.scheduler.lpt_pipe / self.scheduler.matched_pipe
        ));
        t.fmt(f)?;

        let mut t = TextTable::new(
            "Ablation 2 - dataflow extension: OS vs WS vs RS (one 256-PE chiplet)",
            &[
                "component",
                "OS lat[ms]",
                "WS lat[ms]",
                "RS lat[ms]",
                "OS E[mJ]",
                "WS E[mJ]",
                "RS E[mJ]",
            ],
        );
        for r in &self.dataflows {
            t.row(vec![
                r.component.clone(),
                ms(r.os.0),
                ms(r.ws.0),
                ms(r.rs.0),
                format!("{:.1}", r.os.1.as_millijoules()),
                format!("{:.1}", r.ws.1.as_millijoules()),
                format!("{:.1}", r.rs.1.as_millijoules()),
            ]);
        }
        t.note("RS (Eyeriss-like) is an extension beyond the paper: literature-informed profile");
        t.note(
            "extension finding: RS does not starve on token operands and \
             relieves the fusion bottleneck OS suffers, at a conv-latency cost",
        );
        t.fmt(f)?;

        let mut t = TextTable::new(
            "Ablation 3 - cost-model sensitivity (monolithic/MCM E2E ratio)",
            &["cost model", "mono/MCM E2E"],
        );
        t.row(vec![
            "fitted (MAESTRO-calibrated)".into(),
            format!("{:.2}x", self.cost_model.fitted_mono_over_mcm),
        ]);
        t.row(vec![
            "first-principles roofline".into(),
            format!("{:.2}x", self.cost_model.roofline_mono_over_mcm),
        ]);
        t.note(
            "the paper's monolithic disadvantage rests on MAESTRO's dataflow \
             serialization: a pure roofline erases most of it",
        );
        t.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharding_beats_balancing_by_factors() {
        let a = run();
        let gain = a.scheduler.lpt_pipe / a.scheduler.matched_pipe;
        assert!(gain > 3.0, "gain {gain:.2}");
        assert!(a.scheduler.matched_utilization > a.scheduler.lpt_utilization);
    }

    #[test]
    fn rs_relieves_the_fusion_bottleneck() {
        // Extension finding: the Eyeriss-like row mapping does not starve
        // on token-shaped operands, so it beats the paper's OS choice on
        // the fusion stages (while losing on the conv-heavy FE).
        let a = run();
        let fusion = a
            .dataflows
            .iter()
            .find(|r| r.component == "T_FUSE")
            .unwrap();
        assert!(fusion.rs.0 < fusion.os.0, "RS beats OS on fusion");
        assert!(fusion.os.0 < fusion.ws.0, "OS beats WS on fusion");
        let fe = a
            .dataflows
            .iter()
            .find(|r| r.component.starts_with("FE"))
            .unwrap();
        assert!(fe.os.0 < fe.rs.0, "OS stays fastest on convs");
        assert!(fe.rs.0 < fe.ws.0, "RS between OS and WS on convs");
    }

    #[test]
    fn rs_is_most_energy_efficient_on_convs() {
        let a = run();
        let fe = a
            .dataflows
            .iter()
            .find(|r| r.component.starts_with("FE"))
            .unwrap();
        assert!(fe.rs.1 < fe.os.1, "row reuse beats OS energy on convs");
    }

    #[test]
    fn paper_conclusion_depends_on_fitted_model() {
        let a = run();
        // Under the fitted model the monolith is far slower end to end;
        // under the roofline the gap collapses (or inverts).
        assert!(a.cost_model.fitted_mono_over_mcm > 2.0);
        assert!(
            a.cost_model.roofline_mono_over_mcm < a.cost_model.fitted_mono_over_mcm * 0.5,
            "roofline {} vs fitted {}",
            a.cost_model.roofline_mono_over_mcm,
            a.cost_model.fitted_mono_over_mcm
        );
    }
}
