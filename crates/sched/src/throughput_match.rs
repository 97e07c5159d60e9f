//! Algorithm 1: nested greedy throughput matching.
//!
//! The paper schedules the perception pipeline by (1) allocating a chiplet
//! quadrant per stage, (2) choosing the FE+BFPN latency as the base
//! pipelining latency, (3) repeatedly sharding the bottleneck layer of any
//! stage whose pipelining latency exceeds the base (outer loop over
//! stages, inner loop over layers), re-allocating surplus chiplets along
//! the way, until pipelining latencies match or sharding is exhausted.
//!
//! Two modes are provided:
//!
//! * [`ThroughputMatcher::match_throughput`] — match every stage to the
//!   FE+BFPN base latency (the 6×6 study, Figs. 5–8).
//! * [`ThroughputMatcher::minimize`] — keep attacking the global
//!   bottleneck while spare chiplets remain, including splitting the
//!   FE+BFPN into two pipeline sub-stages (the 72-chiplet study, Fig. 10).

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use npu_dnn::{LayerId, OpClass, PerceptionPipeline, StageKind};
use npu_maestro::{CostModel, MemoCostModel};
use npu_mcm::{stage_regions, ChipletId, McmPackage};
use npu_tensor::{float, Dtype, Seconds};

use crate::eval::{
    evaluate_stage, evaluate_stages, fold_nop_by_layer, fold_scores, EvalReport, StageEval,
};
use crate::plan::{LayerPlan, ModelPlan, Schedule, ShardAssignment, StagePlan};
use crate::shard::{shard_cap, shard_layer};

/// Semantic shard caps per stage (beyond the intrinsic token caps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardCaps {
    /// S_FUSE layers split at camera granularity (8 feature sets).
    pub s_fuse: u64,
    /// T_FUSE layers split at temporal-frame granularity (12 frames).
    pub t_fuse: u64,
    /// Trunk layers split at spatial-block granularity.
    pub trunks: u64,
}

impl Default for ShardCaps {
    fn default() -> Self {
        ShardCaps {
            s_fuse: 8,
            t_fuse: 12,
            trunks: 4,
        }
    }
}

/// Matcher configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatcherConfig {
    /// Tolerance over the base latency (`pipe ≤ base × (1 + tolerance)`).
    pub tolerance: f64,
    /// Semantic shard caps.
    pub caps: ShardCaps,
    /// Allow splitting FE+BFPN models into two pipeline sub-stages
    /// (enabled for the two-NPU study).
    pub allow_fe_split: bool,
    /// Iteration guard.
    pub max_steps: usize,
    /// NoP accounting datatype.
    pub dtype: Dtype,
}

impl Default for MatcherConfig {
    fn default() -> Self {
        MatcherConfig {
            tolerance: 0.05,
            caps: ShardCaps::default(),
            allow_fe_split: false,
            max_steps: 128,
            dtype: Dtype::Fp16,
        }
    }
}

/// One step of the matching trace (Fig. 10's annotations).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatchStep {
    /// Human-readable action, e.g. `shard t_fuse.ffn -> 6`.
    pub description: String,
    /// Pipelining latency after the step.
    pub pipe: Seconds,
    /// Free (unused) chiplets after the step.
    pub chiplets_remaining: usize,
}

/// The matcher's result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatchOutcome {
    /// The final schedule.
    pub schedule: Schedule,
    /// Its evaluation.
    pub report: EvalReport,
    /// The step-by-step trace.
    pub trace: Vec<MatchStep>,
}

/// Algorithm 1 implementation.
pub struct ThroughputMatcher<'m> {
    /// The caller's model behind a memoization cache: after every
    /// sharding step the matcher re-evaluates the stage it touched (and
    /// the next one when the touched stage's exits moved), so the same
    /// `(accelerator, layer)` costs repeat many times per match. The
    /// cache is bit-transparent (see [`MemoCostModel`]).
    model: MemoCostModel<'m>,
    cfg: MatcherConfig,
}

impl<'m> ThroughputMatcher<'m> {
    /// Creates a matcher over a cost model.
    pub fn new(model: &'m dyn CostModel, cfg: MatcherConfig) -> Self {
        ThroughputMatcher {
            model: MemoCostModel::with_dtype(model, cfg.dtype),
            cfg,
        }
    }

    /// Initial allocation (Algorithm 1 line 2): one region per stage; FE
    /// instances one-per-chiplet, fusion stages one layer per chiplet,
    /// trunk models one per chiplet.
    pub fn initial_schedule(&self, pipeline: &PerceptionPipeline, pkg: &McmPackage) -> Schedule {
        let regions = stage_regions(pkg, pipeline.stages().len());
        let stages = pipeline
            .stages()
            .iter()
            .zip(&regions)
            .map(|(stage, region)| {
                let mut models = Vec::new();
                let mut slot = 0usize;
                for sm in stage.models() {
                    for inst in 0..sm.instances() {
                        let name = format!("{}#{inst}", sm.graph().name());
                        let plan = match stage.kind() {
                            StageKind::SpatialFusion | StageKind::TemporalFusion => {
                                // Heavy (linear-class) layers get their own
                                // chiplet; attention and data-movement
                                // layers share one auxiliary chiplet, as in
                                // the paper's Figs. 6-7 layouts.
                                let mut aux: Option<ChipletId> = None;
                                let layers = sm
                                    .graph()
                                    .iter()
                                    .map(|(_, l)| {
                                        let heavy = matches!(l.class(), OpClass::Linear);
                                        let chiplet = if heavy {
                                            let c = region[slot % region.len()];
                                            slot += 1;
                                            c
                                        } else {
                                            *aux.get_or_insert_with(|| {
                                                let c = region[slot % region.len()];
                                                slot += 1;
                                                c
                                            })
                                        };
                                        LayerPlan::single(l.clone(), chiplet)
                                    })
                                    .collect();
                                ModelPlan {
                                    name,
                                    graph: sm.graph().clone(),
                                    layers,
                                }
                            }
                            _ => {
                                // Model-per-chiplet.
                                let c = region[slot % region.len()];
                                slot += 1;
                                ModelPlan::on_single_chiplet(name, sm.graph().clone(), c)
                            }
                        };
                        models.push(plan);
                    }
                }
                StagePlan {
                    kind: stage.kind(),
                    models,
                    region: region.clone(),
                }
            })
            .collect();
        Schedule { stages }
    }

    /// Runs the base-matching mode: every stage's pipelining latency is
    /// brought within tolerance of the FE+BFPN base latency, then surplus
    /// region chiplets absorb further shards of the longest layers.
    pub fn match_throughput(
        &self,
        pipeline: &PerceptionPipeline,
        pkg: &McmPackage,
    ) -> MatchOutcome {
        let (scored, trace) = self.match_throughput_core(pipeline, pkg, true);
        scored.into_outcome(trace)
    }

    /// Base matching with surplus absorption optional (the minimizing mode
    /// replaces absorption with improvement-gated sharding).
    fn match_throughput_core(
        &self,
        pipeline: &PerceptionPipeline,
        pkg: &McmPackage,
        absorb: bool,
    ) -> (Scored, Vec<MatchStep>) {
        let mut scored = self.score(self.initial_schedule(pipeline, pkg), pkg);
        let mut trace = vec![step(
            "initial quadrant allocation".to_string(),
            &scored.report,
            pkg,
        )];

        let mut exhausted: BTreeSet<(usize, usize, LayerId)> = BTreeSet::new();
        for _ in 0..self.cfg.max_steps {
            let report = &scored.report;
            let base = self.base_latency(report);
            let limit = base * (1.0 + self.cfg.tolerance);

            // Outer loop: worst bottleneck stage above the base latency.
            let Some(si) = float::total_max_by_key(
                report.per_stage.iter().enumerate().filter(|(i, s)| {
                    scored.schedule.stages[*i].kind != StageKind::FeatureExtraction
                        && s.pipe > limit
                }),
                |(_, s)| s.pipe.as_secs(),
            )
            .map(|(i, _)| i) else {
                break;
            };

            // Inner loop: shard the longest shardable layer of the stage.
            let Some(desc) = self.shard_step(
                &mut scored.schedule,
                &scored.report,
                pkg,
                si,
                false,
                &mut exhausted,
            ) else {
                break; // sharding exhausted everywhere
            };
            self.rescore(&mut scored, pkg, si);
            trace.push(step(desc, &scored.report, pkg));
        }

        // Surplus absorption: spend remaining free chiplets on deeper
        // shards of each stage's already-sharded layers, in pipeline order
        // (the paper's extra S_FUSE FFN sharding steps: 4-fold, then
        // 8-fold using the FE quadrant's spare chiplet).
        let absorb_stages = if absorb {
            scored.schedule.stages.len()
        } else {
            0
        };
        for si in 0..absorb_stages {
            if scored.schedule.stages[si].kind == StageKind::FeatureExtraction {
                continue;
            }
            for _ in 0..self.cfg.max_steps {
                if free_chiplets(&scored.report, pkg).is_empty() {
                    break;
                }
                let Some(desc) = self.shard_step(
                    &mut scored.schedule,
                    &scored.report,
                    pkg,
                    si,
                    true,
                    &mut BTreeSet::new(),
                ) else {
                    break;
                };
                self.rescore(&mut scored, pkg, si);
                trace.push(step(format!("surplus: {desc}"), &scored.report, pkg));
            }
        }

        (scored, trace)
    }

    /// Runs the minimizing mode (two-NPU study): first match to base, then
    /// keep attacking the global bottleneck chiplet — sharding its longest
    /// layer or splitting FE+BFPN into two pipeline sub-stages — while the
    /// pipelining latency improves.
    pub fn minimize(&self, pipeline: &PerceptionPipeline, pkg: &McmPackage) -> MatchOutcome {
        let (mut scored, mut trace) = self.match_throughput_core(pipeline, pkg, false);

        for _ in 0..self.cfg.max_steps {
            let old_pipe = scored.report.pipe;
            let improves = |s: &Scored| s.report.pipe.as_secs() < old_pipe.as_secs() * 0.999;
            let mut improved = false;

            // Try every stage in descending bottleneck order; within a
            // stage, shard_step's exhaustion set walks its layers. Accept
            // the first step that strictly improves the global pipe. A
            // rejected step restores the schedule together with its
            // cached evaluation.
            let mut order: Vec<usize> = (0..scored.schedule.stages.len()).collect();
            float::total_sort_desc_by_key(&mut order, |&si| {
                scored.report.per_stage[si].pipe.as_secs()
            });

            'stages: for si in order {
                if scored.schedule.stages[si].kind == StageKind::FeatureExtraction {
                    if self.cfg.allow_fe_split {
                        let backup = scored.checkpoint(si);
                        if self.split_fe(&mut scored.schedule, &scored.report, pkg, si) {
                            self.rescore(&mut scored, pkg, si);
                            if improves(&scored) {
                                trace.push(step(
                                    "split FE+BFPN into two pipeline sub-stages".to_string(),
                                    &scored.report,
                                    pkg,
                                ));
                                improved = true;
                                break 'stages;
                            }
                            scored.restore(backup);
                        }
                    }
                    continue;
                }
                // Walk the stage's shardable layers, longest first, until
                // one improves the pipe.
                let mut skip: BTreeSet<(usize, usize, LayerId)> = BTreeSet::new();
                loop {
                    let backup = scored.checkpoint(si);
                    let Some(desc) = self.shard_step(
                        &mut scored.schedule,
                        &scored.report,
                        pkg,
                        si,
                        false,
                        &mut skip,
                    ) else {
                        break;
                    };
                    self.rescore(&mut scored, pkg, si);
                    if improves(&scored) {
                        trace.push(step(desc, &scored.report, pkg));
                        improved = true;
                        break 'stages;
                    }
                    // Revert and mark this target as tried.
                    let target = last_target(&backup.plan, &scored.schedule.stages[si]);
                    scored.restore(backup);
                    let Some((mi, target)) = target else {
                        break;
                    };
                    skip.insert((si, mi, target));
                }
            }
            if !improved {
                break;
            }
        }

        scored.into_outcome(trace)
    }

    /// Scores a schedule from scratch: every stage's pass, then the fold.
    fn score(&self, schedule: Schedule, pkg: &McmPackage) -> Scored {
        let stages = evaluate_stages(&schedule, pkg, &self.model, self.cfg.dtype);
        let report = fold_scores(pkg, &stages);
        Scored {
            schedule,
            stages,
            report,
        }
    }

    /// Re-scores after a change confined to stage `si`: re-runs that
    /// stage's pass, and the next stage's only if `si`'s exits (the next
    /// stage's only input from it) moved, then folds again.
    fn rescore(&self, scored: &mut Scored, pkg: &McmPackage, si: usize) {
        let (model, dtype) = (&self.model, self.cfg.dtype);
        let upstream = match si {
            0 => &[][..],
            _ => &scored.stages[si - 1].exits[..],
        };
        let fresh = evaluate_stage(&scored.schedule, si, upstream, pkg, model, dtype);
        let exits_moved = fresh.exits != scored.stages[si].exits;
        scored.stages[si] = fresh;
        if exits_moved && si + 1 < scored.stages.len() {
            let upstream = &scored.stages[si].exits;
            scored.stages[si + 1] =
                evaluate_stage(&scored.schedule, si + 1, upstream, pkg, model, dtype);
        }
        scored.report = fold_scores(pkg, &scored.stages);
    }

    /// The base pipelining latency: the FE stage's pipe latency, or the
    /// minimum stage pipe if the pipeline has no FE stage.
    fn base_latency(&self, report: &EvalReport) -> Seconds {
        report
            .per_stage
            .iter()
            .find(|s| s.kind == StageKind::FeatureExtraction)
            .map(|s| s.pipe)
            .unwrap_or_else(|| {
                report
                    .per_stage
                    .iter()
                    .map(|s| s.pipe)
                    .fold(Seconds::new(f64::MAX), Seconds::min)
            })
    }

    /// Semantic shard cap for a layer of a stage.
    fn cap_for(&self, kind: StageKind, layer: &npu_dnn::Layer) -> u64 {
        let semantic = match kind {
            StageKind::FeatureExtraction => 1,
            StageKind::SpatialFusion => self.cfg.caps.s_fuse,
            StageKind::TemporalFusion => self.cfg.caps.t_fuse,
            StageKind::Trunks => self.cfg.caps.trunks,
        };
        semantic.min(shard_cap(layer))
    }

    /// One inner-loop step: shard the longest shardable layer of stage
    /// `si` one level deeper and re-place its shards on the least busy
    /// available chiplets. `report` is the caller's current evaluation of
    /// `schedule`; the step reads its busy map instead of re-scoring a
    /// schedule that has not changed. With `only_sharded`, restricts
    /// targets to layers that are already sharded (the surplus-absorption
    /// rule). Only stage `si` changes. Returns a step description, or
    /// `None` if the stage has nothing left to shard.
    fn shard_step(
        &self,
        schedule: &mut Schedule,
        report: &EvalReport,
        pkg: &McmPackage,
        si: usize,
        only_sharded: bool,
        exhausted: &mut BTreeSet<(usize, usize, LayerId)>,
    ) -> Option<String> {
        let kind = schedule.stages[si].kind;

        // Candidate (model, layer) pairs that can still be sharded: the
        // filters are cheap and stay serial.
        let tried: &BTreeSet<(usize, usize, LayerId)> = exhausted;
        let candidates: Vec<(usize, LayerId, u64)> = schedule.stages[si]
            .models
            .iter()
            .enumerate()
            .flat_map(|(mi, mp)| {
                mp.graph.iter().filter_map(move |(id, _)| {
                    if tried.contains(&(si, mi, id)) {
                        return None;
                    }
                    let lp = mp.layer_plan(id);
                    if lp.source.class() == OpClass::Memory {
                        return None;
                    }
                    if only_sharded && lp.parts() == 1 {
                        return None;
                    }
                    let cap = self.cap_for(kind, &lp.source);
                    if lp.parts() >= cap {
                        return None;
                    }
                    Some((mi, id, lp.parts() + 1))
                })
            })
            .collect();

        // Score candidates by their current worst per-shard time. Scoring
        // is pure and per-candidate independent, so very large stages fan
        // out on the worker pool. The threshold is deliberately high:
        // per-candidate work is microseconds (mostly memo-cache hits),
        // shard_step runs once per match step — often nested inside a
        // sweep-level par_map — and spawning scoped threads that often
        // would cost more than it saves and oversubscribe the host. All
        // paper-scale stages (< 100 candidate layers) stay serial. The
        // fold below walks input order with a strict `>`, so the chosen
        // target is identical to the serial loop's at any jobs count.
        let stage = &schedule.stages[si];
        let times: Vec<Seconds> = npu_par::par_map_threshold(&candidates, 256, |&(mi, id, _)| {
            stage.models[mi]
                .layer_plan(id)
                .shards
                .iter()
                .map(|s| {
                    self.model
                        .layer_cost(&s.layer, pkg.chiplet(s.chiplet).accelerator())
                        .latency
                })
                .fold(Seconds::ZERO, Seconds::max)
        });
        let mut best: Option<(usize, LayerId, Seconds, u64)> = None;
        for (&(mi, id, parts), &shard_time) in candidates.iter().zip(&times) {
            if best
                .as_ref()
                .map(|&(_, _, t, _)| shard_time > t)
                .unwrap_or(true)
            {
                best = Some((mi, id, shard_time, parts));
            }
        }
        let (mi, id, _, parts) = best?;

        // Busy map excluding the target layer's current shards.
        let mut busy: std::collections::BTreeMap<ChipletId, Seconds> =
            report.busy.iter().copied().collect();
        {
            let lp = schedule.stages[si].models[mi].layer_plan(id);
            for s in &lp.shards {
                let t = self
                    .model
                    .layer_cost(&s.layer, pkg.chiplet(s.chiplet).accelerator())
                    .latency;
                if let Some(b) = busy.get_mut(&s.chiplet) {
                    *b = Seconds::new((b.as_secs() - t.as_secs()).max(0.0));
                }
            }
        }

        // Available chiplets: the stage's region plus globally free ones,
        // ordered by projected load (10 ms buckets) with a preference for
        // staying in the stage's own quadrant (NoP locality, Figs. 6-7).
        let shard_time_est = {
            let lp = schedule.stages[si].models[mi].layer_plan(id);
            let ref_acc = pkg.chiplet(schedule.stages[si].region[0]).accelerator();
            self.model.layer_cost(&lp.source, ref_acc).latency / parts as f64
        };
        let region = schedule.stages[si].region.clone();
        let mut available: Vec<ChipletId> = region.clone();
        available.extend(free_chiplets(report, pkg));
        available.sort();
        available.dedup();
        available.sort_by_key(|c| {
            let b = busy.get(c).copied().unwrap_or(Seconds::ZERO) + shard_time_est;
            let bucket = (b.as_millis() / 10.0) as u64;
            (bucket, !region.contains(c), b.as_micros() as u64)
        });

        let mp = &mut schedule.stages[si].models[mi];
        let source = mp.layer_plan(id).source.clone();
        let Ok(shards) = shard_layer(&source, parts) else {
            exhausted.insert((si, mi, id));
            return self.shard_step(schedule, report, pkg, si, only_sharded, exhausted);
        };
        let assignments: Vec<ShardAssignment> = shards
            .into_iter()
            .enumerate()
            .map(|(i, layer)| ShardAssignment {
                layer,
                chiplet: available[i % available.len()],
            })
            .collect();
        *mp.layer_plan_mut(id) = LayerPlan {
            source,
            shards: assignments,
        };
        let name = mp.layer_plan(id).source.name().to_string();
        Some(format!("shard {kind} {name} -> {parts}"))
    }

    /// Splits every model of the FE stage `si` into two pipeline
    /// sub-stages at the cut balancing the halves, placing the suffix on
    /// a free chiplet. Returns false, leaving the schedule untouched, if
    /// there are not enough free chiplets or a model is already split.
    /// `report` is the caller's current evaluation of `schedule`.
    fn split_fe(
        &self,
        schedule: &mut Schedule,
        report: &EvalReport,
        pkg: &McmPackage,
        si: usize,
    ) -> bool {
        let free = free_chiplets(report, pkg);
        let n_models = schedule.stages[si].models.len();
        if free.len() < n_models {
            return false;
        }
        if schedule.stages[si]
            .models
            .iter()
            .any(|mp| mp.chiplets().len() > 1)
        {
            return false;
        }

        for (mi, fresh) in (0..n_models).zip(free) {
            let mp = &mut schedule.stages[si].models[mi];
            let times: Vec<f64> = mp
                .layers
                .iter()
                .map(|lp| {
                    lp.shards
                        .iter()
                        .map(|s| {
                            self.model
                                .layer_cost(&s.layer, pkg.chiplet(s.chiplet).accelerator())
                                .latency
                                .as_secs()
                        })
                        .sum()
                })
                .collect();
            // Cut minimizing the larger pipeline half.
            let total: f64 = times.iter().sum();
            let mut acc = 0.0;
            let mut cut = 0;
            let mut best = f64::MAX;
            for (i, t) in times.iter().enumerate() {
                acc += t;
                let worst_half = acc.max(total - acc);
                if worst_half < best {
                    best = worst_half;
                    cut = i;
                }
            }
            for (i, lp) in mp.layers.iter_mut().enumerate() {
                if i > cut {
                    for s in &mut lp.shards {
                        s.chiplet = fresh;
                    }
                }
            }
        }
        true
    }
}

/// A schedule kept in step with its per-stage evaluation passes and
/// their fold (see [`evaluate`](crate::eval::evaluate)). `report` equals
/// a from-scratch `evaluate` of `schedule` bit for bit, except that its
/// Fig. 9 `nop_by_layer` stays empty until [`Scored::into_outcome`]: no
/// matcher decision reads it, so only the final schedule's is folded.
struct Scored {
    schedule: Schedule,
    stages: Vec<StageEval>,
    report: EvalReport,
}

impl Scored {
    /// Saves what a step confined to stage `si` can change.
    fn checkpoint(&self, si: usize) -> Checkpoint {
        let passes = (si + 2).min(self.stages.len());
        Checkpoint {
            si,
            plan: self.schedule.stages[si].clone(),
            passes: self.stages[si..passes].to_vec(),
            report: self.report.clone(),
        }
    }

    /// Rolls a step back: the stage plan together with its cached passes.
    fn restore(&mut self, cp: Checkpoint) {
        let end = cp.si + cp.passes.len();
        self.schedule.stages[cp.si] = cp.plan;
        self.stages.splice(cp.si..end, cp.passes);
        self.report = cp.report;
    }

    fn into_outcome(mut self, trace: Vec<MatchStep>) -> MatchOutcome {
        self.report.nop_by_layer = fold_nop_by_layer(&self.schedule, &self.stages);
        MatchOutcome {
            schedule: self.schedule,
            report: self.report,
            trace,
        }
    }
}

/// A [`Scored`] before a step on stage `si`: that stage's plan, its pass
/// and the next stage's (the passes a step on `si` may re-run), and the
/// report.
struct Checkpoint {
    si: usize,
    plan: StagePlan,
    passes: Vec<StageEval>,
    report: EvalReport,
}

/// A trace entry for the schedule `report` evaluates.
fn step(description: String, report: &EvalReport, pkg: &McmPackage) -> MatchStep {
    MatchStep {
        description,
        pipe: report.pipe,
        chiplets_remaining: free_chiplets(report, pkg).len(),
    }
}

/// Free chiplets: present in the package but hosting no work. A report's
/// busy map lists exactly the chiplets that host shards, in id order.
fn free_chiplets(report: &EvalReport, pkg: &McmPackage) -> Vec<ChipletId> {
    pkg.ids()
        .filter(|c| report.busy.binary_search_by_key(c, |&(b, _)| b).is_err())
        .collect()
}

/// Finds the (model, layer) whose shard count differs between two versions
/// of a stage plan — used by the minimizing loop to mark tried targets.
fn last_target(b: &StagePlan, a: &StagePlan) -> Option<(usize, LayerId)> {
    for (mi, (mb, ma)) in b.models.iter().zip(&a.models).enumerate() {
        for (id, _) in mb.graph.iter() {
            if mb.layer_plan(id).parts() != ma.layer_plan(id).parts() {
                return Some((mi, id));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use crate::eval::tests::report_bits;
    use npu_dnn::PerceptionConfig;
    use npu_maestro::{Accelerator, FittedMaestro};
    use npu_noc::Mesh2d;
    use proptest::prelude::*;

    fn matched() -> MatchOutcome {
        let pipeline = PerceptionConfig::default().build();
        let pkg = McmPackage::simba_6x6();
        let model = FittedMaestro::new();
        ThroughputMatcher::new(&model, MatcherConfig::default()).match_throughput(&pipeline, &pkg)
    }

    #[test]
    fn matched_pipe_is_near_fe_base() {
        let out = matched();
        let fe = out.report.stage(StageKind::FeatureExtraction).unwrap().pipe;
        // Paper: ~87 ms overall pipe for the 36-chiplet solution.
        assert!(
            out.report.pipe.as_secs() <= fe.as_secs() * 1.12,
            "pipe {} vs base {}",
            out.report.pipe,
            fe
        );
        assert!((75.0..100.0).contains(&out.report.pipe.as_millis()));
    }

    #[test]
    fn fusion_stages_get_sharded_as_in_figs_6_and_7() {
        let out = matched();
        let t = out.schedule.stage(StageKind::TemporalFusion).unwrap();
        let ffn = t.models[0]
            .layers
            .iter()
            .find(|lp| lp.source.name() == "t_fuse.ffn")
            .unwrap();
        assert!(
            (5..=8).contains(&(ffn.parts() as i32)),
            "paper shards T_FUSE FFN over 6 chiplets, got {}",
            ffn.parts()
        );
        let qkv = t.models[0]
            .layers
            .iter()
            .find(|lp| lp.source.name() == "t_fuse.qkv")
            .unwrap();
        assert_eq!(qkv.parts(), 2, "paper shards T_FUSE QKV over 2 chiplets");
    }

    #[test]
    fn budget_never_exceeded() {
        let out = matched();
        assert!(out.schedule.chiplets_used().len() <= 36);
    }

    #[test]
    fn trace_is_monotonically_improving_overall() {
        let out = matched();
        assert!(out.trace.len() > 3);
        let first = out.trace.first().unwrap().pipe;
        let last = out.trace.last().unwrap().pipe;
        assert!(last <= first);
    }

    /// The cached passes and their fold equal a from-scratch `evaluate`
    /// of the cached schedule, bit for bit.
    fn assert_cache_exact(m: &ThroughputMatcher, scored: &Scored, pkg: &McmPackage) {
        let fresh = evaluate(&scored.schedule, pkg, &m.model, m.cfg.dtype);
        let cached = EvalReport {
            nop_by_layer: fold_nop_by_layer(&scored.schedule, &scored.stages),
            ..scored.report.clone()
        };
        assert_eq!(report_bits(&cached), report_bits(&fresh));
        assert_eq!(
            scored.stages,
            evaluate_stages(&scored.schedule, pkg, &m.model, m.cfg.dtype)
        );
    }

    /// A uniform mesh of OS-dataflow 256-PE chiplets (the scenario DSE's
    /// workhorse package).
    fn os256(w: u32, h: u32) -> McmPackage {
        McmPackage::from_fn(format!("os256-{w}x{h}"), Mesh2d::new(w, h), |_| {
            Accelerator::shidiannao_like(256)
        })
    }

    /// The workloads of the seven builtin scenario families (which live
    /// downstream, in `npu-scenario`): active cameras, camera resolution
    /// and the urban detector head.
    fn family(i: usize) -> PerceptionConfig {
        let (cameras, input_hw, detectors) = [
            (8, (360, 640), None),    // highway-cruise
            (8, (360, 640), Some(4)), // urban-dense
            (6, (360, 640), None),    // hexa-highway
            (5, (360, 640), None),    // degraded-dropout
            (8, (360, 640), None),    // burst-relocalization
            (8, (360, 640), None),    // night-low-rate
            (4, (288, 512), None),    // trace-replay
        ][i];
        let base = PerceptionConfig::default();
        let mut cfg = PerceptionConfig {
            cameras,
            detectors: detectors.unwrap_or(base.detectors),
            ..base
        };
        cfg.fe.input_hw = input_hw;
        cfg.s_fuse.proj_tokens = cameras * cfg.bifpn.out_grid.0 * cfg.bifpn.out_grid.1;
        cfg
    }

    #[test]
    fn outcome_reports_equal_a_full_evaluate() {
        let model = FittedMaestro::new();
        let pipeline = PerceptionConfig::default().build();
        let simba = McmPackage::simba_6x6();
        let m = ThroughputMatcher::new(&model, MatcherConfig::default());
        let out = m.match_throughput(&pipeline, &simba);
        let fresh = evaluate(&out.schedule, &simba, &model, Dtype::Fp16);
        assert_eq!(report_bits(&out.report), report_bits(&fresh));

        // Fig. 10's minimizing mode: rejected steps restore the cache.
        let dual = McmPackage::dual_npu_12x6();
        let cfg = MatcherConfig {
            allow_fe_split: true,
            ..MatcherConfig::default()
        };
        let out = ThroughputMatcher::new(&model, cfg).minimize(&pipeline, &dual);
        let fresh = evaluate(&out.schedule, &dual, &model, Dtype::Fp16);
        assert_eq!(report_bits(&out.report), report_bits(&fresh));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// After any sequence of shard steps on any stage, the matcher's
        /// incrementally maintained fold is a from-scratch `evaluate`.
        #[test]
        fn cached_fold_tracks_random_shard_steps(
            mesh in (4u32..13, 4u32..9),
            fam in 0usize..7,
            steps in prop::collection::vec((0usize..4, 0usize..2), 1..24),
        ) {
            let model = FittedMaestro::new();
            let pkg = os256(mesh.0, mesh.1);
            let pipeline = family(fam).build();
            let m = ThroughputMatcher::new(&model, MatcherConfig::default());
            let mut scored = m.score(m.initial_schedule(&pipeline, &pkg), &pkg);
            assert_cache_exact(&m, &scored, &pkg);
            let mut exhausted = BTreeSet::new();
            for (pick, surplus) in steps {
                let si = pick % scored.schedule.stages.len();
                let only_sharded = surplus == 1;
                let mut fresh_set = BTreeSet::new();
                let tried = if only_sharded { &mut fresh_set } else { &mut exhausted };
                let stepped = m
                    .shard_step(&mut scored.schedule, &scored.report, &pkg, si, only_sharded, tried)
                    .is_some();
                if stepped {
                    m.rescore(&mut scored, &pkg, si);
                }
                assert_cache_exact(&m, &scored, &pkg);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// `minimize`'s revert path on the two-NPU package: a step (a
        /// shard or the FE split) is kept or rolled back together with
        /// its cache, and the cache stays exact either way.
        #[test]
        fn reverted_steps_restore_an_exact_cache(
            ops in prop::collection::vec((0usize..4, 0usize..2), 1..12),
        ) {
            let model = FittedMaestro::new();
            let pkg = McmPackage::dual_npu_12x6();
            let pipeline = PerceptionConfig::default().build();
            let cfg = MatcherConfig {
                allow_fe_split: true,
                ..MatcherConfig::default()
            };
            let m = ThroughputMatcher::new(&model, cfg);
            let (mut scored, _) = m.match_throughput_core(&pipeline, &pkg, false);
            assert_cache_exact(&m, &scored, &pkg);
            for (pick, keep) in ops {
                let si = pick % scored.schedule.stages.len();
                let backup = scored.checkpoint(si);
                let stepped = if scored.schedule.stages[si].kind == StageKind::FeatureExtraction {
                    m.split_fe(&mut scored.schedule, &scored.report, &pkg, si)
                } else {
                    m.shard_step(
                        &mut scored.schedule,
                        &scored.report,
                        &pkg,
                        si,
                        false,
                        &mut BTreeSet::new(),
                    )
                    .is_some()
                };
                if stepped {
                    m.rescore(&mut scored, &pkg, si);
                    assert_cache_exact(&m, &scored, &pkg);
                }
                if keep == 0 {
                    scored.restore(backup);
                    assert_cache_exact(&m, &scored, &pkg);
                }
            }
        }
    }
}
