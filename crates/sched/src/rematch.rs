//! Region re-matching between two schedules: what an online mode switch
//! costs.
//!
//! When a drive transitions between operating modes (cruise → urban →
//! degraded), the matcher produces a *different* schedule for the new
//! workload, and the package must migrate from the old mapping to the
//! new one while frames keep arriving. This module computes the diff
//! between two schedules at chiplet granularity — which chiplets keep
//! their program, which must be re-programmed, how many weight bytes the
//! re-programmed ones reload — and prices the transition with
//! [`ReconfigModel`].
//!
//! The outcome carries two prices for the same diff. `latency` is the
//! legacy package-wide barrier (everything waits for the slowest
//! reload), kept as the pessimistic reference. `readiness` is the
//! make-before-break schedule: chiplets that keep their program
//! ([`RematchOutcome::kept`]) never stop serving, re-programmed chiplets
//! that were idle in the outgoing mapping ([`RematchOutcome::prestaged`])
//! are loaded over the idle west-edge port cycles of the outgoing
//! schedule's tail and are ready at the switch instant, and only the
//! re-programmed chiplets that were busy until the break
//! (`readiness`) pay a staged post-switch spin-up. `npu-pipesim`'s
//! phased engine turns that schedule into a per-chiplet admission gate
//! instead of a package-wide drop window.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use npu_dnn::{Layer, StageKind};
use npu_maestro::ReconfigModel;
use npu_mcm::ChipletId;
use npu_tensor::{Bytes, Dtype, Seconds};

use crate::plan::Schedule;

/// The priced diff between an outgoing and an incoming schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RematchOutcome {
    /// Chiplets whose program changes (new shard set, or newly enlisted).
    /// Chiplets that fall idle in the new mapping simply power down and
    /// cost nothing.
    pub reprogrammed: Vec<ChipletId>,
    /// Incoming chiplets whose program is unchanged: they keep serving
    /// across the boundary and their in-flight frames survive.
    pub kept: Vec<ChipletId>,
    /// Re-programmed chiplets that sat idle in the outgoing package
    /// state: their control walk and weight reload overlap the outgoing
    /// schedule's tail (the west-edge ports are idle between frames), so
    /// they are ready the instant the mapping switches.
    pub prestaged: Vec<ChipletId>,
    /// Staged post-switch readiness of the re-programmed chiplets that
    /// served the outgoing mapping until the break (ascending chiplet
    /// order — the control-plane walk order). Offsets are relative to
    /// the switch instant; the last entry of a diff with no prestaged
    /// chiplets is bit-identical to the scalar `latency`.
    pub readiness: Vec<(ChipletId, Seconds)>,
    /// Weight bytes the re-programmed chiplets reload in total.
    pub weight_bytes: Bytes,
    /// The transition's spin-up latency under the package-wide barrier
    /// model: every chiplet waits for the full control walk and reload.
    /// Kept as the pessimistic reference the make-before-break schedule
    /// is measured against.
    pub latency: Seconds,
}

impl RematchOutcome {
    /// Whether the transition changes nothing (identical mappings).
    pub fn is_noop(&self) -> bool {
        self.reprogrammed.is_empty()
    }

    /// Whether the diff leaves no serving pipeline across the boundary:
    /// every incoming chiplet is re-programmed out of a busy state, so
    /// the package quiesces and the old single-`ready_at` barrier
    /// semantics apply exactly.
    pub fn is_full_barrier(&self) -> bool {
        !self.reprogrammed.is_empty() && self.kept.is_empty() && self.prestaged.is_empty()
    }

    /// Number of chiplets that stall across the switch (re-programmed
    /// while busy in the outgoing mapping).
    pub fn stalled(&self) -> usize {
        self.readiness.len()
    }

    /// The post-switch spin-up window: how long after the switch the
    /// last stalled chiplet comes back online. Zero when nothing stalls;
    /// equal to `latency` when nothing could be prestaged.
    pub fn stall_window(&self) -> Seconds {
        self.readiness
            .iter()
            .map(|&(_, r)| r)
            .fold(Seconds::ZERO, |a, b| if b > a { b } else { a })
    }
}

/// Prices the transition from `old` to `new`.
///
/// A chiplet counts as re-programmed when the **set** of shards the
/// schedule assigns to it — identified by stage kind, model instance,
/// source layer and shard slice — differs between the two schedules.
/// The comparison is content-based: a chiplet that keeps exactly its
/// region contents costs nothing even if the incoming schedule lists the
/// same shards in a different order or under different slice indices
/// (before ISSUE 9 such a chiplet was charged a full weight reload).
/// Re-matching a schedule onto itself is a no-op with zero latency,
/// which is what makes a single-segment drive bit-identical to its
/// standalone scenario run.
///
/// # Examples
///
/// ```
/// use npu_dnn::PerceptionConfig;
/// use npu_maestro::{FittedMaestro, ReconfigModel};
/// use npu_mcm::McmPackage;
/// use npu_sched::rematch::rematch_cost;
/// use npu_sched::{MatcherConfig, ThroughputMatcher};
/// use npu_tensor::Dtype;
///
/// let pkg = McmPackage::simba_6x6();
/// let model = FittedMaestro::new();
/// let matcher = ThroughputMatcher::new(&model, MatcherConfig::default());
/// let cruise = matcher.match_throughput(&PerceptionConfig::default().build(), &pkg);
/// let noop = rematch_cost(
///     &cruise.schedule,
///     &cruise.schedule,
///     &ReconfigModel::default(),
///     Dtype::Fp16,
/// );
/// assert!(noop.is_noop() && noop.latency.is_zero());
/// ```
pub fn rematch_cost(
    old: &Schedule,
    new: &Schedule,
    model: &ReconfigModel,
    dtype: Dtype,
) -> RematchOutcome {
    rematch_cost_against(old, new, &BTreeSet::new(), model, dtype)
}

/// [`rematch_cost`] with extra outgoing-side occupancy.
///
/// `also_occupied` lists chiplets that are busy in the outgoing package
/// state beyond `old`'s own footprint — co-tenants' regions in a
/// multi-tenant colocation, for example (the union of their
/// [`Schedule::chiplets_used`]). A re-programmed chiplet only
/// prestages over the outgoing tail if nothing at all runs on it before
/// the switch; a chiplet handed over from another tenant stalls exactly
/// like one re-programmed in place.
pub fn rematch_cost_against(
    old: &Schedule,
    new: &Schedule,
    also_occupied: &BTreeSet<ChipletId>,
    model: &ReconfigModel,
    dtype: Dtype,
) -> RematchOutcome {
    let before = chiplet_programs(old);
    let after = chiplet_programs(new);

    let mut reprogrammed = Vec::new();
    let mut kept = Vec::new();
    let mut prestaged = Vec::new();
    let mut stalled_reloads: Vec<(ChipletId, Bytes)> = Vec::new();
    let mut weight_bytes = Bytes::ZERO;
    for (chiplet, program) in &after {
        if before.get(chiplet) == Some(program) {
            kept.push(*chiplet);
            continue;
        }
        reprogrammed.push(*chiplet);
        let bytes = program
            .iter()
            .map(|(_, layer)| layer.weight_bytes(dtype))
            .sum::<Bytes>();
        weight_bytes += bytes;
        if before.contains_key(chiplet) || also_occupied.contains(chiplet) {
            stalled_reloads.push((*chiplet, bytes));
        } else {
            prestaged.push(*chiplet);
        }
    }

    let staged = model.readiness_schedule(
        &stalled_reloads
            .iter()
            .map(|&(_, bytes)| bytes)
            .collect::<Vec<_>>(),
    );
    let readiness = stalled_reloads
        .iter()
        .map(|&(chiplet, _)| chiplet)
        .zip(staged)
        .collect();

    let latency = model.transition_latency(reprogrammed.len(), weight_bytes);
    RematchOutcome {
        reprogrammed,
        kept,
        prestaged,
        readiness,
        weight_bytes,
        latency,
    }
}

/// A shard's program label: stage kind, model instance, source layer.
type ShardLabel<'s> = (StageKind, &'s str, &'s str);

/// The program a schedule loads onto each chiplet: its shards as a
/// canonically ordered multiset, labelled (stage, model, layer) and
/// paired with the (sliced) layer so a re-slice of the same layer still
/// reads as a change. The sort makes the comparison order-insensitive —
/// two schedules assigning the same shard contents to a chiplet compare
/// equal no matter how stage iteration or slice indexing lists them, so
/// only genuine content changes are charged a weight reload. Labels and
/// layers are borrowed from the schedule, so no shard is formatted or
/// copied.
fn chiplet_programs(s: &Schedule) -> BTreeMap<ChipletId, Vec<(ShardLabel<'_>, &Layer)>> {
    let mut programs: BTreeMap<ChipletId, Vec<(ShardLabel<'_>, &Layer)>> = BTreeMap::new();
    for stage in &s.stages {
        for mp in &stage.models {
            for lp in &mp.layers {
                for shard in &lp.shards {
                    programs.entry(shard.chiplet).or_default().push((
                        (stage.kind, mp.name.as_str(), lp.source.name()),
                        &shard.layer,
                    ));
                }
            }
        }
    }
    for program in programs.values_mut() {
        // Same-label entries (several slices of one layer on one
        // chiplet) tie-break on the sliced layer's contents: name,
        // operator, output shape. The order is total and agrees with
        // `Eq`, so equal multisets sort to equal vectors.
        program.sort_unstable();
    }
    programs
}

#[cfg(test)]
mod tests {
    use super::*;
    use npu_dnn::PerceptionConfig;
    use npu_maestro::FittedMaestro;

    use crate::throughput_match::{MatcherConfig, ThroughputMatcher};

    fn matched(cameras: u64, detectors: u64) -> Schedule {
        let cfg = PerceptionConfig {
            cameras,
            detectors,
            ..PerceptionConfig::default()
        };
        let pkg = npu_mcm::McmPackage::simba_6x6();
        let model = FittedMaestro::new();
        ThroughputMatcher::new(&model, MatcherConfig::default())
            .match_throughput(&cfg.build(), &pkg)
            .schedule
    }

    #[test]
    fn identical_schedules_are_a_noop() {
        let s = matched(8, 3);
        let out = rematch_cost(&s, &s, &ReconfigModel::default(), Dtype::Fp16);
        assert!(out.is_noop());
        assert_eq!(out.weight_bytes, Bytes::ZERO);
        assert!(out.latency.is_zero());
    }

    #[test]
    fn workload_change_reprograms_chiplets_and_costs_time() {
        let cruise = matched(8, 3);
        let urban = matched(8, 4);
        let out = rematch_cost(&cruise, &urban, &ReconfigModel::default(), Dtype::Fp16);
        assert!(!out.is_noop(), "an extra detector must change the mapping");
        assert!(out.weight_bytes > Bytes::ZERO);
        assert!(out.latency > Seconds::ZERO);
        // The transition back is priced from the cruise program set: also
        // a real change, not necessarily the same size.
        let back = rematch_cost(&urban, &cruise, &ReconfigModel::default(), Dtype::Fp16);
        assert!(!back.is_noop());
    }

    /// The pre-ISSUE-9 diff: shards in schedule order, labelled with
    /// their slice index. Used to pin the regression — the content-set
    /// diff must never charge more than this ordered diff did.
    fn ordered_programs(s: &Schedule) -> BTreeMap<ChipletId, Vec<(String, Layer)>> {
        let mut programs: BTreeMap<ChipletId, Vec<(String, Layer)>> = BTreeMap::new();
        for stage in &s.stages {
            for mp in &stage.models {
                for lp in &mp.layers {
                    for (i, shard) in lp.shards.iter().enumerate() {
                        programs.entry(shard.chiplet).or_default().push((
                            format!("{}/{}/{}#{i}", stage.kind, mp.name, lp.source.name()),
                            shard.layer.clone(),
                        ));
                    }
                }
            }
        }
        programs
    }

    fn ordered_rematch_cost(
        old: &Schedule,
        new: &Schedule,
        model: &ReconfigModel,
        dtype: Dtype,
    ) -> RematchOutcome {
        let before = ordered_programs(old);
        let after = ordered_programs(new);
        let mut reprogrammed = Vec::new();
        let mut weight_bytes = Bytes::ZERO;
        for (chiplet, program) in &after {
            if before.get(chiplet) == Some(program) {
                continue;
            }
            reprogrammed.push(*chiplet);
            weight_bytes += program
                .iter()
                .map(|(_, layer)| layer.weight_bytes(dtype))
                .sum::<Bytes>();
        }
        let latency = model.transition_latency(reprogrammed.len(), weight_bytes);
        RematchOutcome {
            reprogrammed,
            kept: Vec::new(),
            prestaged: Vec::new(),
            readiness: Vec::new(),
            weight_bytes,
            latency,
        }
    }

    /// Reorders a schedule's internals without changing any chiplet's
    /// assigned contents: models within each stage reversed, shards
    /// within each layer plan reversed.
    fn permuted(s: &Schedule) -> Schedule {
        let mut p = s.clone();
        for stage in &mut p.stages {
            stage.models.reverse();
            for mp in &mut stage.models {
                for lp in &mut mp.layers {
                    lp.shards.reverse();
                }
            }
        }
        p
    }

    #[test]
    fn content_preserving_permutation_is_a_noop() {
        let s = matched(8, 3);
        let p = permuted(&s);
        let out = rematch_cost(&s, &p, &ReconfigModel::default(), Dtype::Fp16);
        assert!(
            out.is_noop(),
            "reordered-but-identical chiplet contents must cost nothing, got {:?}",
            out.reprogrammed
        );
        assert!(out.latency.is_zero());
        // The old ordered+indexed diff charged this permutation a real
        // reload — exactly the bug the content-set diff fixes.
        let old = ordered_rematch_cost(&s, &p, &ReconfigModel::default(), Dtype::Fp16);
        assert!(
            !old.is_noop(),
            "test permutation must be visible to the old ordered diff"
        );
        assert!(old.latency > Seconds::ZERO);
    }

    #[test]
    fn content_diff_never_exceeds_ordered_diff_on_drive_boundaries() {
        // The builtin cruise→urban→degraded drive's mode boundaries on
        // the paper package: the content-set diff must charge at most
        // what the old ordered diff did, chiplet-for-chiplet.
        let cruise = matched(8, 3);
        let urban = matched(8, 4);
        let degraded = matched(5, 3);
        let model = ReconfigModel::default();
        for (a, b) in [(&cruise, &urban), (&urban, &degraded)] {
            let new = rematch_cost(a, b, &model, Dtype::Fp16);
            let old = ordered_rematch_cost(a, b, &model, Dtype::Fp16);
            assert!(
                new.reprogrammed.len() <= old.reprogrammed.len(),
                "content diff reprograms {} chiplets, ordered diff {}",
                new.reprogrammed.len(),
                old.reprogrammed.len()
            );
            assert!(new.weight_bytes <= old.weight_bytes);
            assert!(new.latency <= old.latency);
            // Every chiplet the content diff charges, the ordered diff
            // charged too (the fix only removes false positives).
            assert!(new
                .reprogrammed
                .iter()
                .all(|c| old.reprogrammed.contains(c)));
        }
    }

    #[test]
    fn cost_is_deterministic_and_ordered() {
        let a = matched(8, 3);
        let b = matched(5, 3);
        let x = rematch_cost(&a, &b, &ReconfigModel::default(), Dtype::Fp16);
        let y = rematch_cost(&a, &b, &ReconfigModel::default(), Dtype::Fp16);
        assert_eq!(x, y);
        // BTreeMap iteration: chiplets come back sorted.
        assert!(x.reprogrammed.windows(2).all(|w| w[0] < w[1]));
        assert!(x.kept.windows(2).all(|w| w[0] < w[1]));
        assert!(x.readiness.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn classification_partitions_the_incoming_chiplets() {
        let cruise = matched(8, 3);
        let urban = matched(8, 4);
        let out = rematch_cost(&cruise, &urban, &ReconfigModel::default(), Dtype::Fp16);
        // kept ∪ reprogrammed = incoming chiplet set, disjoint.
        let incoming = chiplet_programs(&urban).len();
        assert_eq!(out.kept.len() + out.reprogrammed.len(), incoming);
        assert!(out.kept.iter().all(|c| !out.reprogrammed.contains(c)));
        // prestaged ∪ stalled = reprogrammed, disjoint.
        let stalled: Vec<ChipletId> = out.readiness.iter().map(|&(c, _)| c).collect();
        assert_eq!(out.prestaged.len() + stalled.len(), out.reprogrammed.len());
        assert!(out
            .reprogrammed
            .iter()
            .all(|c| out.prestaged.contains(c) ^ stalled.contains(c)));
        // Readiness offsets are strictly increasing along the control
        // walk and never exceed the barrier latency.
        assert!(out.readiness.windows(2).all(|w| w[0].1 < w[1].1));
        assert!(out.stall_window() <= out.latency);
    }

    #[test]
    fn full_reprogram_readiness_is_bit_identical_to_the_barrier() {
        // Diff against an empty-but-occupying outgoing state: every
        // incoming chiplet is re-programmed while busy, so the diff
        // degenerates to the old package-wide barrier and the staged
        // schedule's last stage lands on the scalar latency exactly.
        let urban = matched(8, 4);
        let cruise = matched(8, 3);
        let occupied: BTreeSet<ChipletId> = chiplet_programs(&urban).keys().copied().collect();
        let empty = Schedule { stages: Vec::new() };
        let out = rematch_cost_against(
            &empty,
            &urban,
            &occupied,
            &ReconfigModel::default(),
            Dtype::Fp16,
        );
        assert!(out.is_full_barrier());
        assert!(out.kept.is_empty() && out.prestaged.is_empty());
        assert_eq!(out.stalled(), out.reprogrammed.len());
        assert_eq!(
            out.stall_window().as_secs().to_bits(),
            out.latency.as_secs().to_bits()
        );
        // A partial diff is not a full barrier.
        let partial = rematch_cost(&cruise, &urban, &ReconfigModel::default(), Dtype::Fp16);
        assert!(!partial.is_full_barrier());
        assert!(!partial.kept.is_empty());
    }

    #[test]
    fn idle_chiplets_prestage_over_the_outgoing_tail() {
        // With no outgoing occupancy at all, a newly enlisted chiplet is
        // programmed during the old schedule's tail: ready at the switch.
        let urban = matched(8, 4);
        let empty = Schedule { stages: Vec::new() };
        let out = rematch_cost(&empty, &urban, &ReconfigModel::default(), Dtype::Fp16);
        assert!(!out.is_noop());
        assert_eq!(out.prestaged.len(), out.reprogrammed.len());
        assert!(out.readiness.is_empty());
        assert!(out.stall_window().is_zero());
        // The pessimistic barrier reference still prices the full reload.
        assert!(out.latency > Seconds::ZERO);
    }
}
