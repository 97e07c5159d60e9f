//! Analytical pipeline evaluation of a [`Schedule`].
//!
//! Computes the paper's four reporting metrics for any schedule:
//!
//! * **E2E latency** — one frame's path through all stages: per stage the
//!   maximum over models of the critical path through (sharded) layers,
//!   each shard's time including its input transfers, bounded below by
//!   per-chiplet serialization.
//! * **Pipelining latency** — the steady-state frame interval: the
//!   maximum per-chiplet busy time per frame (compute + input transfer
//!   serialization).
//! * **Energy** — compute energy plus NoP transmission energy.
//! * **Utilization** — time-weighted active PEs over all package PEs per
//!   pipelining window.
//!
//! A shard's time is compute plus one §IV-D store-and-forward
//! [`TransferCost::unicast`] per producing shard, summed. It is priced in
//! one place, the per-stage pass; [`flatten_items`] hands the DES those
//! same shard times.

use std::collections::BTreeMap;
use std::ops::Range;

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

/// Where a stage pass records each NoP transfer's latency and energy
/// under its producing layer: the terms only [`fold_nop_by_layer`]
/// reads. A pass whose schedule never gets a Fig. 9 attribution
/// records into `()`, which keeps nothing.
pub(crate) trait NopSink: Default {
    /// Records one transfer.
    fn record(&mut self, src: LayerRef, latency: Seconds, energy: Joules);
}

/// Every transfer's NoP cost by producing layer, in evaluation order.
pub(crate) type NopTerms = Vec<(LayerRef, Seconds, Joules)>;

impl NopSink for NopTerms {
    fn record(&mut self, src: LayerRef, latency: Seconds, energy: Joules) {
        self.push((src, latency, energy));
    }
}

impl NopSink for () {
    fn record(&mut self, _: LayerRef, _: Seconds, _: Joules) {}
}

/// One stage's pass of an [`evaluate`]: everything the stage contributes
/// to the schedule-wide report, with each term that the fold
/// ([`fold_scores`], [`fold_nop_by_layer`]) sums across stages kept
/// separately, in evaluation order. `N` keeps the per-transfer NoP
/// terms of the Fig. 9 attribution, or nothing.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StageEval<N = NopTerms> {
    kind: StageKind,
    /// Stage E2E: critical model path, bounded below by the stage's own
    /// per-chiplet serialization.
    e2e: Seconds,
    compute_energy: Joules,
    nop_energy: Joules,
    /// Chiplets hosting the stage's shards, ascending.
    chiplets: Vec<ChipletId>,
    /// Per shard: its chiplet, busy time (compute + input transfer) and
    /// active PE-seconds. [`flatten_items`] makes one DES item of each,
    /// and the occupancy chart labels each chiplet by its largest.
    pub(crate) shards: Vec<(ChipletId, Seconds, f64)>,
    /// Per-transfer NoP latency and energy, by producing layer.
    nop: N,
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
/// schedule, and a schedule-only match's passes do not record the
/// per-transfer terms that fold reads at all. [`flatten_items`] reads the
/// same passes: its DES items are their shards, so the DES serves exactly
/// the busy times this report sums.
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
pub(crate) fn evaluate_stages<N: NopSink>(
    schedule: &Schedule,
    pkg: &McmPackage,
    model: &dyn CostModel,
    dtype: Dtype,
) -> Vec<StageEval<N>> {
    let mut stages: Vec<StageEval<N>> = Vec::with_capacity(schedule.stages.len());
    for si in 0..schedule.stages.len() {
        let upstream = stages.last().map_or(&[][..], |s| &s.exits[..]);
        let stage = evaluate_stage(schedule, si, upstream, pkg, model, dtype);
        stages.push(stage);
    }
    stages
}

/// The per-stage pass: scores stage `si` of `schedule` given the exits
/// of the stage before it (empty for the first stage = DRAM ingress).
/// Each transfer's NoP cost goes into the pass's sink `N` as well as
/// into the stage's sums, which never read the sink.
pub(crate) fn evaluate_stage<N: NopSink>(
    schedule: &Schedule,
    si: usize,
    upstream: &[Exit],
    pkg: &McmPackage,
    model: &dyn CostModel,
    dtype: Dtype,
) -> StageEval<N> {
    let link = pkg.link();
    let stage = &schedule.stages[si];
    // Each chiplet's stage-local busy time, indexed by `ChipletId::index`;
    // `None` where the stage places no shard.
    let mut local_busy: Vec<Option<Seconds>> = vec![None; pkg.len()];
    let mut compute_energy = Joules::ZERO;
    let mut nop_energy = Joules::ZERO;
    let mut shards: Vec<(ChipletId, Seconds, f64)> = Vec::new();
    let mut nop = N::default();
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
                    nop.record(src, t.latency, t.energy);
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
                *local_busy[shard.chiplet.index()].get_or_insert(Seconds::ZERO) += shard_time;
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
        .iter()
        .flatten()
        .copied()
        .fold(Seconds::ZERO, Seconds::max);
    StageEval {
        kind: stage.kind,
        e2e: stage_path.max(local_max),
        compute_energy,
        nop_energy,
        chiplets: used_chiplets(&local_busy).map(|(c, _)| c).collect(),
        shards,
        nop,
        exits,
    }
}

/// The fold: combines the per-stage passes of a schedule (in pipeline
/// order) into its report, adding every schedule-wide term in the order
/// one serial walk over the schedule would. The Fig. 9 attribution is
/// left to [`fold_nop_by_layer`]: `nop_by_layer` is empty.
pub(crate) fn fold_scores<N>(pkg: &McmPackage, stages: &[StageEval<N>]) -> EvalReport {
    // Each chiplet's busy time, indexed by `ChipletId::index`; `None`
    // where no shard runs.
    let mut dense: Vec<Option<Seconds>> = vec![None; pkg.len()];
    let mut active_weighted = 0.0_f64; // PE-seconds
    for &(c, t, active) in stages.iter().flat_map(|s| &s.shards) {
        *dense[c.index()].get_or_insert(Seconds::ZERO) += t;
        active_weighted += active;
    }
    let busy: Vec<(ChipletId, Seconds)> = used_chiplets(&dense).collect();

    // Stage pipe latencies come from *global* chiplet busy times: a chiplet
    // shared between stages must fit all its work in one frame interval.
    let per_stage: Vec<StageReport> = stages
        .iter()
        .map(|s| StageReport {
            kind: s.kind,
            pipe: s
                .chiplets
                .iter()
                .filter_map(|c| dense[c.index()])
                .fold(Seconds::ZERO, Seconds::max),
            e2e: s.e2e,
            compute_energy: s.compute_energy,
            nop_energy: s.nop_energy,
        })
        .collect();

    let pipe = busy
        .iter()
        .map(|&(_, t)| t)
        .fold(Seconds::ZERO, Seconds::max);
    let e2e: Seconds = per_stage.iter().map(|s| s.e2e).sum();
    let compute_energy: Joules = per_stage.iter().map(|s| s.compute_energy).sum();
    let nop_energy: Joules = per_stage.iter().map(|s| s.nop_energy).sum();
    let used_pes: u64 = busy
        .iter()
        .map(|&(c, _)| pkg.chiplet(c).accelerator().array().pes())
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
        busy,
        nop_by_layer: Vec::new(),
    }
}

/// The used entries of a dense per-chiplet table, ascending id order.
fn used_chiplets(dense: &[Option<Seconds>]) -> impl Iterator<Item = (ChipletId, Seconds)> + '_ {
    dense
        .iter()
        .enumerate()
        .filter_map(|(i, t)| t.map(|t| (ChipletId(i as u32), t)))
}

/// The fold's Fig. 9 NoP attribution: each transfer's cost summed per
/// producing layer name, stage by stage in evaluation order, in rows
/// sorted by name. Every layer of the schedule gets its name's dense slot
/// once, so a transfer adds into its slot by index; each name's sums
/// still start from zero and take their terms in evaluation order.
pub(crate) fn fold_nop_by_layer(
    schedule: &Schedule,
    stages: &[StageEval],
) -> Vec<(String, Seconds, Joules)> {
    // Name → slot. `layers` holds every layer's name and slot in (stage,
    // model, layer) order, and `first[si][mi]` is where model `mi` of
    // stage `si` starts in it. Instances of one model have the same
    // layer names, so a model whose names repeat an earlier model's
    // copies that model's slots instead of looking each name up.
    let mut names: BTreeMap<&str, usize> = BTreeMap::new();
    let mut layers: Vec<(&str, usize)> = Vec::new();
    let mut distinct: Vec<Range<usize>> = Vec::new();
    let mut first: Vec<Vec<usize>> = Vec::with_capacity(schedule.stages.len());
    for stage in &schedule.stages {
        let mut models = Vec::with_capacity(stage.models.len());
        for mp in &stage.models {
            let start = layers.len();
            models.push(start);
            let repeat = distinct.iter().find(|r| {
                let seen = &layers[r.start..r.end];
                seen.len() == mp.layers.len()
                    && (seen.iter().zip(&mp.layers))
                        .all(|(&(name, _), lp)| name == lp.source.name())
            });
            if let Some(r) = repeat.cloned() {
                layers.extend_from_within(r);
                continue;
            }
            for lp in &mp.layers {
                let next = names.len();
                let name = lp.source.name();
                layers.push((name, *names.entry(name).or_insert(next)));
            }
            distinct.push(start..layers.len());
        }
        first.push(models);
    }
    let mut sums: Vec<Option<(Seconds, Joules)>> = vec![None; names.len()];
    for &((si, mi, id), latency, energy) in stages.iter().flat_map(|s| &s.nop) {
        let (_, slot) = layers[first[si][mi] + id.index()];
        let sum = sums[slot].get_or_insert((Seconds::ZERO, Joules::ZERO));
        sum.0 += latency;
        sum.1 += energy;
    }
    names
        .into_iter()
        .filter_map(|(name, slot)| sums[slot].map(|(l, e)| (name.to_string(), l, e)))
        .collect()
}

/// One schedulable work unit for discrete-event simulation: a layer shard
/// with its chiplet, duration (compute + input transfer) and dependencies
/// on other items of the same frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimItem {
    /// Executing chiplet.
    pub chiplet: ChipletId,
    /// Service time (compute + input transfer serialization).
    pub duration: Seconds,
    /// Indices of items this one waits for (same frame).
    pub deps: Vec<usize>,
}

/// Flattens a schedule into dependency-ordered work items. Items are
/// indexed in topological order (dependencies always point to lower
/// indices).
///
/// Item *i* is the *i*-th shard of [`evaluate`]'s stage passes (stage →
/// model → layer → shard order): its chiplet and its duration *are* that
/// shard's busy time, so each chiplet's item durations sum to its
/// [`EvalReport::busy`]. This function prices nothing itself; it only
/// wires the dependencies: a shard waits for every shard of its layer's
/// predecessors, and a root layer's shards wait for the previous stage's
/// sink shards.
pub fn flatten_items(
    schedule: &Schedule,
    pkg: &McmPackage,
    model: &dyn CostModel,
    dtype: Dtype,
) -> Vec<SimItem> {
    let stages = evaluate_stages::<()>(schedule, pkg, model, dtype);
    let mut shards = stages.iter().flat_map(|s| &s.shards);
    let mut items: Vec<SimItem> = Vec::with_capacity(schedule.items());
    // Item indices of the previous stage's sink shards.
    let mut prev_exit_items: Vec<usize> = Vec::new();

    for stage in &schedule.stages {
        let mut exit_items: Vec<usize> = Vec::new();
        for mp in &stage.models {
            // Per-layer item index ranges for dependency wiring.
            let mut layer_items: Vec<Range<usize>> = Vec::with_capacity(mp.graph.len());
            for (id, _) in mp.graph.iter() {
                let preds = mp.graph.preds(id);
                let deps: Vec<usize> = if preds.is_empty() {
                    prev_exit_items.clone()
                } else {
                    preds
                        .iter()
                        .flat_map(|&p| layer_items[p.index()].clone())
                        .collect()
                };
                let start = items.len();
                let n = mp.layer_plan(id).shards.len();
                for &(chiplet, duration, _) in shards.by_ref().take(n) {
                    items.push(SimItem {
                        chiplet,
                        duration,
                        deps: deps.clone(),
                    });
                }
                layer_items.push(start..items.len());
            }
            for sink in mp.graph.sinks() {
                exit_items.extend(layer_items[sink.index()].clone());
            }
        }
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

    /// The default pipeline matched on `simba_6x6`, and its minimized
    /// match with FE splits on `dual_npu_12x6`.
    fn matched_cases(model: &FittedMaestro) -> Vec<(Schedule, McmPackage)> {
        use crate::{MatcherConfig, ThroughputMatcher};

        let full = npu_dnn::PerceptionConfig::default().build();
        let simba = McmPackage::simba_6x6();
        let matched =
            ThroughputMatcher::new(model, MatcherConfig::default()).match_throughput(&full, &simba);
        let dual = McmPackage::dual_npu_12x6();
        let cfg = MatcherConfig {
            allow_fe_split: true,
            ..MatcherConfig::default()
        };
        let minimized = ThroughputMatcher::new(model, cfg).minimize(&full, &dual);
        vec![(matched.schedule, simba), (minimized.schedule, dual)]
    }

    #[test]
    fn split_evaluate_matches_the_serial_walk() {
        use crate::{baseline_schedule, Pipelining};
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
        cases.extend(matched_cases(&model));

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

    /// Each chiplet's item durations, summed in item order, equal its
    /// `busy` time in the report, bit for bit.
    fn assert_items_sum_to_busy(items: &[SimItem], report: &EvalReport, what: &str) {
        let mut sums: BTreeMap<ChipletId, Seconds> = BTreeMap::new();
        for it in items {
            *sums.entry(it.chiplet).or_default() += it.duration;
        }
        let bits = |(c, t): (ChipletId, Seconds)| (c, t.as_secs().to_bits());
        let busy: Vec<_> = report.busy.iter().copied().map(bits).collect();
        assert_eq!(
            sums.into_iter().map(bits).collect::<Vec<_>>(),
            busy,
            "{what}"
        );
    }

    /// The DES items are the evaluator's stage-pass shards, bit for bit,
    /// so each chiplet's item durations sum to its `busy` time; a root
    /// layer's items wait on exactly the previous stage's sink items.
    #[test]
    fn flatten_matches_schedule_items() {
        let model = FittedMaestro::new();
        for (schedule, pkg) in &matched_cases(&model) {
            let items = flatten_items(schedule, pkg, &model, Dtype::Fp16);
            assert_eq!(items.len(), schedule.items(), "{}", pkg.name());
            let stages: Vec<StageEval> = evaluate_stages(schedule, pkg, &model, Dtype::Fp16);
            let shards = stages.iter().flat_map(|s| &s.shards);
            let want: Vec<_> = shards
                .map(|&(c, t, _)| (c, t.as_secs().to_bits()))
                .collect();
            let got: Vec<_> = (items.iter())
                .map(|it| (it.chiplet, it.duration.as_secs().to_bits()))
                .collect();
            assert_eq!(got, want, "{}", pkg.name());
            let report = evaluate(schedule, pkg, &model, Dtype::Fp16);
            assert_items_sum_to_busy(&items, &report, pkg.name());

            let mut next = 0;
            let mut prev_sinks: Vec<usize> = Vec::new();
            for (k, stage) in schedule.stages.iter().enumerate() {
                assert_eq!(prev_sinks.is_empty(), k == 0);
                let mut sinks = Vec::new();
                for mp in &stage.models {
                    let mut ranges: Vec<Range<usize>> = Vec::new();
                    for (id, _) in mp.graph.iter() {
                        let range = next..next + mp.layer_plan(id).shards.len();
                        next = range.end;
                        if mp.graph.preds(id).is_empty() {
                            for item in &items[range.clone()] {
                                assert_eq!(item.deps, prev_sinks, "{} stage {k}", pkg.name());
                            }
                        }
                        ranges.push(range);
                    }
                    for sink in mp.graph.sinks() {
                        sinks.extend(ranges[sink.index()].clone());
                    }
                }
                prev_sinks = sinks;
            }
            for (i, item) in items.iter().enumerate() {
                assert!(item.deps.iter().all(|&d| d < i), "topological order");
            }
        }
    }

    /// A consumer whose producer is sharded onto the consumer's own
    /// chiplet and onto chiplets 2 and 4 hops away pays one
    /// store-and-forward transfer per remote shard, 2 + 4 = 6 hop-loads,
    /// and nothing for the local shard: in its DES item and in the
    /// evaluator's busy times alike.
    #[test]
    fn remote_producer_shards_serialize_into_the_consumer() {
        use crate::plan::{LayerPlan, ShardAssignment};
        use crate::shard_layer;
        use npu_dnn::{Graph, Layer, OpKind};

        let dense = |name: &str| {
            Layer::intrinsic(
                name,
                OpKind::Dense {
                    tokens: 24,
                    in_features: 16,
                    out_features: 16,
                },
            )
        };
        let mut g = Graph::new("gather");
        let a = g.add(dense("a"), &[]).expect("root");
        let b = g.add(dense("b"), &[a]).expect("input precedes");
        let pkg = McmPackage::simba_6x6();
        let home = ChipletId(0);
        let producers = [home, ChipletId(2), ChipletId(4)];
        assert_eq!(producers.map(|c| pkg.hops(c, home)), [0, 2, 4]);

        let parts = shard_layer(g.layer(a), 3).expect("3 token slices");
        let mut mp = ModelPlan::on_single_chiplet("m", g.clone(), home);
        *mp.layer_plan_mut(a) = LayerPlan {
            source: g.layer(a).clone(),
            shards: (parts.into_iter().zip(producers))
                .map(|(layer, chiplet)| ShardAssignment { layer, chiplet })
                .collect(),
        };
        let bytes: Vec<Bytes> = (mp.layer_plan(a).shards.iter())
            .map(|s| s.layer.output_bytes(Dtype::Fp16))
            .collect();
        assert!(bytes.iter().all(|&b| b == bytes[0]), "equal slices");
        let schedule = Schedule {
            stages: vec![StagePlan {
                kind: StageKind::SpatialFusion,
                region: producers.to_vec(),
                models: vec![mp],
            }],
        };

        let model = FittedMaestro::new();
        let items = flatten_items(&schedule, &pkg, &model, Dtype::Fp16);
        assert_eq!(items.len(), 4);
        let consumer = &items[3];
        assert_eq!(
            (consumer.chiplet, &consumer.deps[..]),
            (home, &[0, 1, 2][..])
        );

        let link = pkg.link();
        let compute = model.layer_cost(g.layer(b), pkg.chiplet(home).accelerator());
        let hop_load =
            bytes[0].as_f64() / link.bandwidth_bytes_per_sec + link.hop_latency.as_secs();
        let expected = compute.latency.as_secs() + 6.0 * hop_load;
        assert!((consumer.duration.as_secs() - expected).abs() < 1e-15);

        let report = evaluate(&schedule, &pkg, &model, Dtype::Fp16);
        assert_items_sum_to_busy(&items, &report, "gather");
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
