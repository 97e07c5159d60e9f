//! Analytical pipeline evaluation of a [`Schedule`].
//!
//! Computes the paper's four reporting metrics for any schedule:
//!
//! * **E2E latency** — one frame's path through all stages: per stage the
//!   maximum over models of the critical path through (sharded) layers,
//!   including NoP gathers, bounded below by per-chiplet serialization.
//! * **Pipelining latency** — the steady-state frame interval: the
//!   maximum per-chiplet busy time per frame (compute + input transfer
//!   serialization).
//! * **Energy** — compute energy plus NoP transmission energy.
//! * **Utilization** — time-weighted active PEs over all package PEs per
//!   pipelining window.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use npu_dnn::{LayerId, StageKind};
use npu_maestro::CostModel;
use npu_mcm::{ChipletId, McmPackage};
use npu_noc::TransferCost;
use npu_tensor::{Bytes, Dtype, Edp, Joules, Seconds};

use crate::plan::Schedule;

/// Per-stage evaluation results (the paper's Figs. 5–8 panels).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageReport {
    /// Stage kind.
    pub kind: StageKind,
    /// Steady-state pipelining latency of the stage (max busy among its
    /// chiplets).
    pub pipe: Seconds,
    /// One frame's end-to-end time through the stage.
    pub e2e: Seconds,
    /// Compute energy per frame.
    pub compute_energy: Joules,
    /// NoP energy per frame.
    pub nop_energy: Joules,
}

impl StageReport {
    /// Total stage energy.
    pub fn energy(&self) -> Joules {
        self.compute_energy + self.nop_energy
    }

    /// Stage EDP (pipe × energy), as reported in Figs. 5–8.
    pub fn edp(&self) -> Edp {
        self.pipe * self.energy()
    }
}

/// Full-schedule evaluation results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalReport {
    /// One frame's end-to-end latency through all stages.
    pub e2e: Seconds,
    /// Steady-state pipelining latency (max chiplet busy per frame).
    pub pipe: Seconds,
    /// Compute energy per frame.
    pub compute_energy: Joules,
    /// NoP energy per frame.
    pub nop_energy: Joules,
    /// Time-weighted active-PE fraction per pipelining window, over all
    /// package PEs.
    pub utilization: f64,
    /// Same, but over the PEs of chiplets that host work (the paper's
    /// "utilization across all chiplets' PEs" for the allocated stages).
    pub utilization_used: f64,
    /// Per-stage breakdown.
    pub per_stage: Vec<StageReport>,
    /// Per-chiplet busy time per frame (used chiplets only, ordered).
    pub busy: Vec<(ChipletId, Seconds)>,
    /// NoP cost aggregated by source layer name (Fig. 9 series).
    pub nop_by_layer: Vec<(String, Seconds, Joules)>,
}

impl EvalReport {
    /// Total energy per frame.
    pub fn energy(&self) -> Joules {
        self.compute_energy + self.nop_energy
    }

    /// Energy-delay product (pipe × energy).
    pub fn edp(&self) -> Edp {
        self.pipe * self.energy()
    }

    /// Sustained throughput in frames/second.
    pub fn throughput_fps(&self) -> f64 {
        if self.pipe.is_zero() {
            0.0
        } else {
            1.0 / self.pipe.as_secs()
        }
    }

    /// The stage report of a kind.
    pub fn stage(&self, kind: StageKind) -> Option<&StageReport> {
        self.per_stage.iter().find(|s| s.kind == kind)
    }
}

/// Rough input volume of a source layer (sensor ingress): reduction extent
/// × input spatial extent.
fn input_bytes_estimate(layer: &npu_dnn::Layer, dtype: Dtype) -> Bytes {
    let d = layer.dims();
    let elems = d.c * (d.y * d.stride) * (d.x * d.stride);
    dtype.sized(elems)
}

fn slice_bytes(b: Bytes, parts: u64) -> Bytes {
    Bytes::new(b.as_u64().div_ceil(parts))
}

/// A NoP transfer's producing layer, for Fig. 9 attribution: `(stage,
/// model, layer)` indices into the evaluated schedule. Resolved to the
/// layer's name only when [`fold_nop_by_layer`] runs, so a pass
/// allocates no label strings.
pub(crate) type LayerRef = (usize, usize, LayerId);

/// One sink shard of a stage: where the next stage's inputs come from.
pub(crate) type Exit = (ChipletId, Bytes, LayerRef);

/// One stage's pass of an [`evaluate`]: everything the stage contributes
/// to the schedule-wide report, with each term that the fold
/// ([`fold_scores`], [`fold_nop_by_layer`]) sums across stages kept
/// separately, in evaluation order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StageEval {
    kind: StageKind,
    /// Stage E2E: critical model path, bounded below by the stage's own
    /// per-chiplet serialization.
    e2e: Seconds,
    compute_energy: Joules,
    nop_energy: Joules,
    /// Chiplets hosting the stage's shards, ascending.
    chiplets: Vec<ChipletId>,
    /// Per shard: its chiplet, busy time (compute + input transfer) and
    /// active PE-seconds.
    shards: Vec<(ChipletId, Seconds, f64)>,
    /// Per-transfer NoP latency and energy, by producing layer.
    nop: Vec<(LayerRef, Seconds, Joules)>,
    /// Sink shards feeding the next stage.
    pub(crate) exits: Vec<Exit>,
}

/// Evaluates a schedule on a package under a cost model.
///
/// `dtype` sets the NoP accounting width for feature maps (paper: 2 B per
/// element).
///
/// The evaluation is split in two. A per-stage pass
/// (`evaluate_stage`) scores one stage from its plan and the upstream
/// stage's exits alone. A fold (`fold_scores`, plus `fold_nop_by_layer`
/// for the Fig. 9 attribution) then combines the passes of every stage
/// into the report. The throughput matcher keeps the passes
/// of its current schedule and, after a sharding step, re-runs only the
/// stage it touched (plus the next stage, when the touched stage's exits
/// moved) before folding again. It folds the Fig. 9 `nop_by_layer`
/// attribution, which none of its decisions read, only for the final
/// schedule.
///
/// The split keeps the float accumulation order of one serial walk over
/// the schedule, so a fold of cached passes equals a from-scratch
/// `evaluate` bit for bit:
///
/// * per-stage sums (compute and NoP energy, each chiplet's stage-local
///   busy time) accumulate inside the pass, from zero, in
///   model → layer → shard → input-transfer order;
/// * schedule-wide sums (each chiplet's busy time, active PE-seconds and
///   per-layer NoP cost) are never pre-summed per stage: the pass records
///   each term, and the fold adds them stage by stage in that same order.
pub fn evaluate(
    schedule: &Schedule,
    pkg: &McmPackage,
    model: &dyn CostModel,
    dtype: Dtype,
) -> EvalReport {
    let stages = evaluate_stages(schedule, pkg, model, dtype);
    let mut report = fold_scores(pkg, &stages);
    report.nop_by_layer = fold_nop_by_layer(schedule, &stages);
    report
}

/// The per-stage passes of a whole schedule, in pipeline order.
pub(crate) fn evaluate_stages(
    schedule: &Schedule,
    pkg: &McmPackage,
    model: &dyn CostModel,
    dtype: Dtype,
) -> Vec<StageEval> {
    let mut stages: Vec<StageEval> = Vec::with_capacity(schedule.stages.len());
    for si in 0..schedule.stages.len() {
        let upstream = stages.last().map_or(&[][..], |s| &s.exits[..]);
        let stage = evaluate_stage(schedule, si, upstream, pkg, model, dtype);
        stages.push(stage);
    }
    stages
}

/// The per-stage pass: scores stage `si` of `schedule` given the exits
/// of the stage before it (empty for the first stage = DRAM ingress).
pub(crate) fn evaluate_stage(
    schedule: &Schedule,
    si: usize,
    upstream: &[Exit],
    pkg: &McmPackage,
    model: &dyn CostModel,
    dtype: Dtype,
) -> StageEval {
    let link = pkg.link();
    let stage = &schedule.stages[si];
    let mut local_busy: BTreeMap<ChipletId, Seconds> = BTreeMap::new();
    let mut compute_energy = Joules::ZERO;
    let mut nop_energy = Joules::ZERO;
    let mut shards: Vec<(ChipletId, Seconds, f64)> = Vec::new();
    let mut nop: Vec<(LayerRef, Seconds, Joules)> = Vec::new();
    let mut exits: Vec<Exit> = Vec::new();
    let mut stage_path = Seconds::ZERO;

    for (mi, mp) in stage.models.iter().enumerate() {
        let mut path: Vec<Seconds> = vec![Seconds::ZERO; mp.graph.len()];
        for (id, _) in mp.graph.iter() {
            let lp = mp.layer_plan(id);
            let parts = lp.parts();
            let preds = mp.graph.preds(id);
            let mut layer_time = Seconds::ZERO;

            for shard in &lp.shards {
                let acc = pkg.chiplet(shard.chiplet).accelerator();
                let cost = model.layer_cost(&shard.layer, acc);

                // Input transfers for this shard: one store-and-forward
                // move per producing shard, attributed to the producer
                // (the paper's Fig. 9 charges a layer for shipping its
                // output feature map).
                let mut transfer = TransferCost::ZERO;
                let mut charge = |src: LayerRef, bytes: Bytes, hops: u64| {
                    let t = TransferCost::unicast(bytes, hops, link);
                    nop.push((src, t.latency, t.energy));
                    transfer = transfer + t;
                };
                if preds.is_empty() {
                    if upstream.is_empty() {
                        let bytes = slice_bytes(input_bytes_estimate(&lp.source, dtype), parts);
                        charge((si, mi, id), bytes, pkg.dram_hops(shard.chiplet));
                    } else {
                        for &(c, b, src) in upstream {
                            charge(src, slice_bytes(b, parts), pkg.hops(c, shard.chiplet));
                        }
                    }
                } else {
                    for &p in preds {
                        for ps in &mp.layer_plan(p).shards {
                            charge(
                                (si, mi, p),
                                slice_bytes(ps.layer.output_bytes(dtype), parts),
                                pkg.hops(ps.chiplet, shard.chiplet),
                            );
                        }
                    }
                }

                let shard_time = cost.latency + transfer.latency;
                *local_busy.entry(shard.chiplet).or_insert(Seconds::ZERO) += shard_time;
                compute_energy += cost.energy;
                nop_energy += transfer.energy;
                let active = cost.active_pes * cost.latency.as_secs();
                shards.push((shard.chiplet, shard_time, active));
                layer_time = layer_time.max(shard_time);
            }

            let pred_path = preds
                .iter()
                .map(|&p| path[p.index()])
                .fold(Seconds::ZERO, Seconds::max);
            path[id.index()] = pred_path + layer_time;
        }

        let model_path = path.iter().copied().fold(Seconds::ZERO, Seconds::max);
        stage_path = stage_path.max(model_path);

        for sink in mp.graph.sinks() {
            for shard in &mp.layer_plan(sink).shards {
                exits.push((
                    shard.chiplet,
                    shard.layer.output_bytes(dtype),
                    (si, mi, sink),
                ));
            }
        }
    }

    // Stage E2E: parallel-model path, bounded by serialization on any
    // chiplet the stage shares (e.g. 8 FE models on one monolithic
    // accelerator execute back to back).
    let local_max = local_busy
        .values()
        .copied()
        .fold(Seconds::ZERO, Seconds::max);
    StageEval {
        kind: stage.kind,
        e2e: stage_path.max(local_max),
        compute_energy,
        nop_energy,
        chiplets: local_busy.into_keys().collect(),
        shards,
        nop,
        exits,
    }
}

/// The fold: combines the per-stage passes of a schedule (in pipeline
/// order) into its report, adding every schedule-wide term in the order
/// one serial walk over the schedule would. The Fig. 9 attribution is
/// left to [`fold_nop_by_layer`]: `nop_by_layer` is empty.
pub(crate) fn fold_scores(pkg: &McmPackage, stages: &[StageEval]) -> EvalReport {
    let mut busy: BTreeMap<ChipletId, Seconds> = BTreeMap::new();
    let mut active_weighted = 0.0_f64; // PE-seconds
    for &(c, t, active) in stages.iter().flat_map(|s| &s.shards) {
        *busy.entry(c).or_insert(Seconds::ZERO) += t;
        active_weighted += active;
    }

    // Stage pipe latencies come from *global* chiplet busy times: a chiplet
    // shared between stages must fit all its work in one frame interval.
    let per_stage: Vec<StageReport> = stages
        .iter()
        .map(|s| StageReport {
            kind: s.kind,
            pipe: s
                .chiplets
                .iter()
                .map(|c| busy[c])
                .fold(Seconds::ZERO, Seconds::max),
            e2e: s.e2e,
            compute_energy: s.compute_energy,
            nop_energy: s.nop_energy,
        })
        .collect();

    let pipe = busy.values().copied().fold(Seconds::ZERO, Seconds::max);
    let e2e: Seconds = per_stage.iter().map(|s| s.e2e).sum();
    let compute_energy: Joules = per_stage.iter().map(|s| s.compute_energy).sum();
    let nop_energy: Joules = per_stage.iter().map(|s| s.nop_energy).sum();
    let used_pes: u64 = busy
        .keys()
        .map(|&c| pkg.chiplet(c).accelerator().array().pes())
        .sum();
    let utilization = if pipe.is_zero() {
        0.0
    } else {
        active_weighted / (pkg.total_pes() as f64 * pipe.as_secs())
    };
    let utilization_used = if pipe.is_zero() || used_pes == 0 {
        0.0
    } else {
        active_weighted / (used_pes as f64 * pipe.as_secs())
    };

    EvalReport {
        e2e,
        pipe,
        compute_energy,
        nop_energy,
        utilization,
        utilization_used,
        per_stage,
        busy: busy.into_iter().collect(),
        nop_by_layer: Vec::new(),
    }
}

/// The fold's Fig. 9 NoP attribution: each transfer's cost summed per
/// producing layer name, stage by stage in evaluation order.
pub(crate) fn fold_nop_by_layer(
    schedule: &Schedule,
    stages: &[StageEval],
) -> Vec<(String, Seconds, Joules)> {
    let mut by_name: BTreeMap<&str, (Seconds, Joules)> = BTreeMap::new();
    for &((si, mi, id), latency, energy) in stages.iter().flat_map(|s| &s.nop) {
        let name = schedule.stages[si].models[mi].layer_plan(id).source.name();
        let entry = by_name.entry(name).or_insert((Seconds::ZERO, Joules::ZERO));
        entry.0 += latency;
        entry.1 += energy;
    }
    by_name
        .into_iter()
        .map(|(name, (l, e))| (name.to_string(), l, e))
        .collect()
}

/// One schedulable work unit for discrete-event simulation: a layer shard
/// with its chiplet, duration (compute + input transfer) and dependencies
/// on other items of the same frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimItem {
    /// `stage/model/layer#shard` label.
    pub name: String,
    /// Executing chiplet.
    pub chiplet: ChipletId,
    /// Service time (compute + input transfer serialization).
    pub duration: Seconds,
    /// Indices of items this one waits for (same frame).
    pub deps: Vec<usize>,
}

/// Flattens a schedule into dependency-ordered work items, using the same
/// cost accounting as [`evaluate`]. Items are indexed in topological order
/// (dependencies always point to lower indices).
pub fn flatten_items(
    schedule: &Schedule,
    pkg: &McmPackage,
    model: &dyn CostModel,
    dtype: Dtype,
) -> Vec<SimItem> {
    let link = pkg.link();
    let mut items: Vec<SimItem> = Vec::new();
    // Item indices of the previous stage's sink shards.
    let mut prev_exit_items: Vec<usize> = Vec::new();
    let mut prev_exits: Vec<(ChipletId, Bytes)> = Vec::new();

    for stage in &schedule.stages {
        let mut exits: Vec<(ChipletId, Bytes)> = Vec::new();
        let mut exit_items: Vec<usize> = Vec::new();

        for mp in &stage.models {
            // Per-layer item index ranges for dependency wiring.
            let mut layer_items: Vec<Vec<usize>> = Vec::with_capacity(mp.graph.len());
            for (id, _) in mp.graph.iter() {
                let lp = mp.layer_plan(id);
                let parts = lp.parts();
                let preds = mp.graph.preds(id);
                let mut this_layer = Vec::with_capacity(lp.shards.len());
                for (shard_i, shard) in lp.shards.iter().enumerate() {
                    let acc = pkg.chiplet(shard.chiplet).accelerator();
                    let cost = model.layer_cost(&shard.layer, acc);
                    let transfer = if preds.is_empty() {
                        if prev_exits.is_empty() {
                            let bytes = slice_bytes(input_bytes_estimate(&lp.source, dtype), parts);
                            TransferCost::unicast(bytes, pkg.dram_hops(shard.chiplet), link)
                        } else {
                            let srcs: Vec<(Bytes, u64)> = prev_exits
                                .iter()
                                .map(|&(c, b)| (slice_bytes(b, parts), pkg.hops(c, shard.chiplet)))
                                .collect();
                            TransferCost::gather(&srcs, link)
                        }
                    } else {
                        let srcs: Vec<(Bytes, u64)> = preds
                            .iter()
                            .flat_map(|&p| mp.layer_plan(p).shards.iter())
                            .map(|ps| {
                                (
                                    slice_bytes(ps.layer.output_bytes(dtype), parts),
                                    pkg.hops(ps.chiplet, shard.chiplet),
                                )
                            })
                            .collect();
                        TransferCost::gather(&srcs, link)
                    };
                    let deps: Vec<usize> = if preds.is_empty() {
                        prev_exit_items.clone()
                    } else {
                        preds
                            .iter()
                            .flat_map(|&p| layer_items[p.index()].iter().copied())
                            .collect()
                    };
                    let idx = items.len();
                    items.push(SimItem {
                        name: format!(
                            "{}/{}/{}#{}",
                            stage.kind,
                            mp.name,
                            lp.source.name(),
                            shard_i
                        ),
                        chiplet: shard.chiplet,
                        duration: cost.latency + transfer.latency,
                        deps,
                    });
                    this_layer.push(idx);
                }
                layer_items.push(this_layer);
            }
            for sink in mp.graph.sinks() {
                for (i, shard) in mp.layer_plan(sink).shards.iter().enumerate() {
                    exits.push((shard.chiplet, shard.layer.output_bytes(dtype)));
                    exit_items.push(layer_items[sink.index()][i]);
                }
            }
        }
        prev_exits = exits;
        prev_exit_items = exit_items;
    }
    items
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::plan::{ModelPlan, StagePlan};
    use npu_dnn::models::attention::{fusion_block, FusionConfig};
    use npu_dnn::StageKind;
    use npu_maestro::FittedMaestro;

    /// The bit pattern of every number in a report, labelled, so a
    /// mismatch names the field that differs.
    pub(crate) fn report_bits(r: &EvalReport) -> Vec<String> {
        let bits = |x: f64| format!("{:016x}", x.to_bits());
        let mut out = vec![
            format!("e2e {}", bits(r.e2e.as_secs())),
            format!("pipe {}", bits(r.pipe.as_secs())),
            format!("compute {}", bits(r.compute_energy.as_joules())),
            format!("nop {}", bits(r.nop_energy.as_joules())),
            format!("utilization {}", bits(r.utilization)),
            format!("utilization_used {}", bits(r.utilization_used)),
        ];
        out.extend(r.per_stage.iter().map(|s| {
            format!(
                "stage {} pipe {} e2e {} compute {} nop {}",
                s.kind,
                bits(s.pipe.as_secs()),
                bits(s.e2e.as_secs()),
                bits(s.compute_energy.as_joules()),
                bits(s.nop_energy.as_joules())
            )
        }));
        out.extend(
            r.busy
                .iter()
                .map(|(c, t)| format!("busy {} {}", c.0, bits(t.as_secs()))),
        );
        out.extend(
            r.nop_by_layer
                .iter()
                .map(|(l, t, e)| format!("nop {l} {} {}", bits(t.as_secs()), bits(e.as_joules()))),
        );
        out
    }

    /// Reference oracle: the evaluator as one serial walk over the
    /// schedule, accumulating every schedule-wide sum in place. The
    /// per-stage pass and fold must reproduce it bit for bit.
    fn serial_walk(
        schedule: &Schedule,
        pkg: &McmPackage,
        model: &dyn CostModel,
        dtype: Dtype,
    ) -> EvalReport {
        let link = pkg.link();
        let mut busy: BTreeMap<ChipletId, Seconds> = BTreeMap::new();
        let mut nop_by_layer: BTreeMap<String, (Seconds, Joules)> = BTreeMap::new();
        let mut active_weighted = 0.0_f64;
        let mut partial: Vec<(StageKind, Seconds, Joules, Joules, Vec<ChipletId>)> = Vec::new();
        let mut prev_exits: Vec<(ChipletId, Bytes, String)> = Vec::new();
        for stage in &schedule.stages {
            let mut local: BTreeMap<ChipletId, Seconds> = BTreeMap::new();
            let (mut ce, mut ne) = (Joules::ZERO, Joules::ZERO);
            let mut exits = Vec::new();
            let mut stage_path = Seconds::ZERO;
            for mp in &stage.models {
                let mut path = vec![Seconds::ZERO; mp.graph.len()];
                for (id, _) in mp.graph.iter() {
                    let lp = mp.layer_plan(id);
                    let parts = lp.parts();
                    let preds = mp.graph.preds(id);
                    let mut layer_time = Seconds::ZERO;
                    for shard in &lp.shards {
                        let cost = model
                            .layer_cost(&shard.layer, pkg.chiplet(shard.chiplet).accelerator());
                        let mut srcs: Vec<(String, Bytes, u64)> = Vec::new();
                        if preds.is_empty() && prev_exits.is_empty() {
                            let b = slice_bytes(input_bytes_estimate(&lp.source, dtype), parts);
                            let hops = pkg.dram_hops(shard.chiplet);
                            srcs.push((lp.source.name().to_string(), b, hops));
                        } else if preds.is_empty() {
                            for (c, b, label) in &prev_exits {
                                let hops = pkg.hops(*c, shard.chiplet);
                                srcs.push((label.clone(), slice_bytes(*b, parts), hops));
                            }
                        }
                        for &p in preds {
                            for ps in &mp.layer_plan(p).shards {
                                srcs.push((
                                    mp.layer_plan(p).source.name().to_string(),
                                    slice_bytes(ps.layer.output_bytes(dtype), parts),
                                    pkg.hops(ps.chiplet, shard.chiplet),
                                ));
                            }
                        }
                        let mut transfer = TransferCost::ZERO;
                        for (label, bytes, hops) in srcs {
                            let t = TransferCost::unicast(bytes, hops, link);
                            let e = nop_by_layer.entry(label).or_default();
                            e.0 += t.latency;
                            e.1 += t.energy;
                            transfer = transfer + t;
                        }
                        let shard_time = cost.latency + transfer.latency;
                        *busy.entry(shard.chiplet).or_default() += shard_time;
                        *local.entry(shard.chiplet).or_default() += shard_time;
                        ce += cost.energy;
                        ne += transfer.energy;
                        active_weighted += cost.active_pes * cost.latency.as_secs();
                        layer_time = layer_time.max(shard_time);
                    }
                    let pred_path = preds.iter().map(|&p| path[p.index()]);
                    path[id.index()] = pred_path.fold(Seconds::ZERO, Seconds::max) + layer_time;
                }
                stage_path = stage_path.max(path.into_iter().fold(Seconds::ZERO, Seconds::max));
                for sink in mp.graph.sinks() {
                    let name = mp.layer_plan(sink).source.name();
                    for shard in &mp.layer_plan(sink).shards {
                        let b = shard.layer.output_bytes(dtype);
                        exits.push((shard.chiplet, b, name.to_string()));
                    }
                }
            }
            let local_max = local.values().copied().fold(Seconds::ZERO, Seconds::max);
            let keys = local.into_keys().collect();
            partial.push((stage.kind, stage_path.max(local_max), ce, ne, keys));
            prev_exits = exits;
        }
        let per_stage: Vec<StageReport> = partial
            .into_iter()
            .map(
                |(kind, e2e, compute_energy, nop_energy, keys)| StageReport {
                    kind,
                    pipe: keys
                        .iter()
                        .map(|c| busy[c])
                        .fold(Seconds::ZERO, Seconds::max),
                    e2e,
                    compute_energy,
                    nop_energy,
                },
            )
            .collect();
        let pipe = busy.values().copied().fold(Seconds::ZERO, Seconds::max);
        let used_pes: u64 = busy
            .keys()
            .map(|&c| pkg.chiplet(c).accelerator().array().pes())
            .sum();
        let share = |pes: u64| match pipe.is_zero() || pes == 0 {
            true => 0.0,
            false => active_weighted / (pes as f64 * pipe.as_secs()),
        };
        EvalReport {
            e2e: per_stage.iter().map(|s| s.e2e).sum(),
            pipe,
            compute_energy: per_stage.iter().map(|s| s.compute_energy).sum(),
            nop_energy: per_stage.iter().map(|s| s.nop_energy).sum(),
            utilization: share(pkg.total_pes()),
            utilization_used: share(used_pes),
            per_stage,
            busy: busy.into_iter().collect(),
            nop_by_layer: nop_by_layer
                .into_iter()
                .map(|(k, (l, e))| (k, l, e))
                .collect(),
        }
    }

    #[test]
    fn split_evaluate_matches_the_serial_walk() {
        use crate::{baseline_schedule, MatcherConfig, Pipelining, ThroughputMatcher};
        use npu_dnn::PerceptionConfig;

        let model = FittedMaestro::new();
        let full = PerceptionConfig::default().build();
        let mut cases: Vec<(Schedule, McmPackage)> = Vec::new();
        // Baselines share chiplets across stages, so per-chiplet busy
        // sums mix terms from several stages.
        for pkg in [
            McmPackage::monolithic_9216(),
            McmPackage::dual_4608(),
            McmPackage::quad_2304(),
        ] {
            for pipelining in [Pipelining::Stagewise, Pipelining::Layerwise] {
                for pipeline in [full.clone(), full.bottleneck_stages()] {
                    cases.push((
                        baseline_schedule(&pipeline, &pkg, pipelining, &model),
                        pkg.clone(),
                    ));
                }
            }
        }
        let simba = McmPackage::simba_6x6();
        let matched = ThroughputMatcher::new(&model, MatcherConfig::default())
            .match_throughput(&full, &simba);
        cases.push((matched.schedule, simba));
        let dual = McmPackage::dual_npu_12x6();
        let cfg = MatcherConfig {
            allow_fe_split: true,
            ..MatcherConfig::default()
        };
        let minimized = ThroughputMatcher::new(&model, cfg).minimize(&full, &dual);
        cases.push((minimized.schedule, dual));

        for (schedule, pkg) in &cases {
            assert_eq!(
                report_bits(&evaluate(schedule, pkg, &model, Dtype::Fp16)),
                report_bits(&serial_walk(schedule, pkg, &model, Dtype::Fp16)),
                "{}",
                pkg.name()
            );
        }
    }

    fn single_stage_schedule(chiplet: u32) -> Schedule {
        let g = fusion_block(&FusionConfig::spatial_default());
        Schedule {
            stages: vec![StagePlan {
                kind: StageKind::SpatialFusion,
                models: vec![ModelPlan::on_single_chiplet(
                    "s_fuse",
                    g,
                    ChipletId(chiplet),
                )],
                region: vec![ChipletId(chiplet)],
            }],
        }
    }

    #[test]
    fn single_chiplet_stage_pipe_equals_e2e_compute() {
        let pkg = McmPackage::simba_6x6();
        let r = evaluate(
            &single_stage_schedule(9),
            &pkg,
            &FittedMaestro::new(),
            Dtype::Fp16,
        );
        // One chiplet serializes everything: pipe == e2e.
        assert!((r.pipe.as_millis() - r.e2e.as_millis()).abs() < 1e-9);
        // Roughly qkv + attn + ffn + compress ≈ 365 ms.
        assert!((330.0..400.0).contains(&r.pipe.as_millis()), "{}", r.pipe);
        assert_eq!(r.busy.len(), 1);
    }

    #[test]
    fn utilization_is_between_zero_and_one() {
        let pkg = McmPackage::simba_6x6();
        let r = evaluate(
            &single_stage_schedule(0),
            &pkg,
            &FittedMaestro::new(),
            Dtype::Fp16,
        );
        assert!(r.utilization > 0.0 && r.utilization < 1.0);
    }

    #[test]
    fn nop_energy_positive_with_dram_ingress() {
        let pkg = McmPackage::simba_6x6();
        let r = evaluate(
            &single_stage_schedule(35),
            &pkg,
            &FittedMaestro::new(),
            Dtype::Fp16,
        );
        assert!(r.nop_energy > Joules::ZERO);
        // NoP stays far below compute (paper §IV-D (iii)); the farthest
        // chiplet from the DRAM port is the worst case.
        assert!(r.nop_energy.as_joules() < 0.05 * r.compute_energy.as_joules());
    }

    #[test]
    fn flatten_matches_schedule_items() {
        let pkg = McmPackage::simba_6x6();
        let s = single_stage_schedule(4);
        let items = flatten_items(&s, &pkg, &FittedMaestro::new(), Dtype::Fp16);
        assert_eq!(items.len(), s.items());
        // Dependencies always point backwards (topological order).
        for (i, item) in items.iter().enumerate() {
            for &d in &item.deps {
                assert!(d < i);
            }
        }
        // Total duration equals the single chiplet's busy time.
        let total: Seconds = items.iter().map(|i| i.duration).sum();
        let r = evaluate(&s, &pkg, &FittedMaestro::new(), Dtype::Fp16);
        assert!((total.as_secs() - r.pipe.as_secs()).abs() < 1e-12);
    }

    #[test]
    fn throughput_is_inverse_pipe() {
        let pkg = McmPackage::simba_6x6();
        let r = evaluate(
            &single_stage_schedule(3),
            &pkg,
            &FittedMaestro::new(),
            Dtype::Fp16,
        );
        assert!((r.throughput_fps() - 1.0 / r.pipe.as_secs()).abs() < 1e-9);
    }
}
