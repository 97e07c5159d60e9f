//! Drive timelines: online mode switching as one continuous simulation.
//!
//! The scenario workbench evaluates each operating mode at a fixed
//! operating point, but a real drive *transitions* between modes —
//! highway cruise into dense urban traffic into degraded operation after
//! a camera dropout — and each transition forces the matcher's region
//! allocation to be re-established for the new workload while frames
//! keep arriving. A [`Drive`] is an ordered sequence of
//! `(Scenario, duration)` segments compiled into:
//!
//! * **one** piecewise arrival stream ([`Arrivals::Piecewise`]) covering
//!   the whole timeline;
//! * one matched schedule per segment (the same Algorithm 1 compilation
//!   the standalone sweep uses, via [`match_scenario`]);
//! * one priced re-match per boundary ([`rematch_cost`]): the chiplets
//!   whose program changes and the mapping spin-up latency they cost.
//!
//! The phased DES ([`npu_pipesim::simulate_phases`]) then drives the
//! timeline end to end — the paper-style tail question ("how many frames
//! does a mode switch cost?") that per-scenario steady-state means
//! cannot answer. Boundaries are **make-before-break** handovers: the
//! re-match diff classifies each incoming chiplet as kept (keeps
//! serving, in-flight frames survive), prestaged (reloaded over the
//! outgoing tail's idle west-edge port cycles, ready at the switch) or
//! stalled (re-programmed out of a busy state, back online per the
//! staged readiness schedule), and a frame is dropped only when its
//! critical path lands on a still-reloading chiplet. A diff that
//! re-programs every busy chiplet leaves no serving pipeline and
//! degenerates to the old package-wide barrier bit for bit; dropped
//! frames surface as a perception-staleness window on each
//! [`SegmentReport`].

use serde::{Deserialize, Serialize};

use npu_maestro::{CostModel, ReconfigModel};
use npu_mcm::McmPackage;
use npu_pipesim::{
    simulate_phases, ArrivalSegment, Arrivals, LatencyQuantiles, Readiness, SimPhase,
};
use npu_sched::rematch::rematch_cost;
use npu_sched::Schedule;
use npu_study::{Axis, Grid, Study};
use npu_tensor::{Bytes, Dtype, Seconds};

use crate::rig::CameraRig;
use crate::scenario::{OperatingMode, Scenario};
use crate::sweep::match_scenario;

/// One leg of a drive: a scenario held for a duration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriveSegment {
    /// The operating point during this leg.
    pub scenario: Scenario,
    /// How long the vehicle stays in it.
    pub duration: Seconds,
}

impl DriveSegment {
    /// Creates a segment.
    pub fn new(scenario: Scenario, duration: Seconds) -> Self {
        DriveSegment { scenario, duration }
    }

    /// Frames the segment's arrival process offers within its duration:
    /// as many as fit with the last frame arriving strictly inside the
    /// segment, at least one.
    ///
    /// # Panics
    ///
    /// Panics if not even the first frame arrives within the duration
    /// (the segment is shorter than its own arrival process), or if the
    /// process never advances (a degenerate constant-timestamp trace).
    pub fn frames(&self) -> usize {
        let arrivals = self.scenario.arrivals();
        let mean = arrivals
            .mean_interval()
            .expect("scenario arrivals always have a rate")
            .as_secs();
        let span = self.duration.as_secs();
        // A non-advancing process (mean gap 0) would fit infinitely many
        // frames; reject it rather than looping below.
        assert!(
            mean.is_finite() && mean > 0.0,
            "segment `{}`: arrival process never advances (mean interval {mean})",
            self.scenario.name
        );
        // The mean-rate estimate can land on either side for unevenly
        // paced processes (bursts, trace stalls): back off until the
        // last frame fits, then grow while the next frame still fits.
        let mut frames = ((span / mean).ceil() as usize).max(1);
        while frames > 1 && arrivals.times(frames)[frames - 1] >= span {
            frames -= 1;
        }
        while arrivals.times(frames + 1)[frames] < span {
            frames += 1;
        }
        let last = arrivals.times(frames)[frames - 1];
        assert!(
            last < span,
            "segment `{}` lasts {}s but its first frames arrive at {last}s",
            self.scenario.name,
            span
        );
        frames
    }
}

/// A named drive timeline: ordered segments, simulated as one run.
///
/// # Examples
///
/// ```
/// use npu_scenario::Drive;
///
/// let drive = Drive::cruise_urban_degraded();
/// assert_eq!(drive.segments.len(), 3);
/// // The timeline compiles to one piecewise arrival stream.
/// let times = drive.arrivals().times(drive.total_frames());
/// assert!(times.windows(2).all(|w| w[0] <= w[1]));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Drive {
    /// Timeline name (unique within a sweep).
    pub name: String,
    /// The legs, in driving order.
    pub segments: Vec<DriveSegment>,
}

impl Drive {
    /// Creates a validated drive.
    ///
    /// # Panics
    ///
    /// Panics if there are no segments, or any segment's duration is not
    /// finite and positive, or a segment cannot fit its first frame.
    pub fn new(name: impl Into<String>, segments: Vec<DriveSegment>) -> Self {
        assert!(!segments.is_empty(), "a drive needs at least one segment");
        for seg in &segments {
            let d = seg.duration.as_secs();
            assert!(
                d.is_finite() && d > 0.0,
                "segment `{}` duration must be finite and positive, got {d}",
                seg.scenario.name
            );
            let _ = seg.frames(); // validates the frame fit
        }
        Drive {
            name: name.into(),
            segments,
        }
    }

    /// The whole timeline as one [`Arrivals::Piecewise`] stream.
    pub fn arrivals(&self) -> Arrivals {
        Arrivals::piecewise(
            self.segments
                .iter()
                .map(|seg| ArrivalSegment {
                    arrivals: seg.scenario.arrivals(),
                    frames: seg.frames(),
                    span: seg.duration,
                })
                .collect(),
        )
    }

    /// Frames the timeline offers end to end.
    pub fn total_frames(&self) -> usize {
        self.segments.iter().map(|s| s.frames()).sum()
    }

    /// Wall-clock length of the timeline.
    pub fn total_duration(&self) -> Seconds {
        Seconds::new(self.segments.iter().map(|s| s.duration.as_secs()).sum())
    }

    /// The headline timeline: one second of highway cruise, then dense
    /// urban traffic (jittered arrivals + an extra detector head), then
    /// degraded operation after losing three cameras.
    pub fn cruise_urban_degraded() -> Drive {
        Drive::cruise_urban_degraded_scaled(Seconds::new(1.0))
    }

    /// [`cruise_urban_degraded`](Drive::cruise_urban_degraded) with each
    /// leg stretched to `leg` seconds: the same mode sequence at highway
    /// scale. The long-timeline workbench (`repro drive-long`) and the
    /// `des_engine` bench run minutes-long legs through this — with the
    /// ISSUE 8 engine a segment's cost no longer scales with the frames
    /// it holds in memory, only with the events it processes.
    pub fn cruise_urban_degraded_scaled(leg: Seconds) -> Drive {
        let rig = CameraRig::octa_ring();
        Drive::new(
            "cruise-urban-degraded",
            vec![
                DriveSegment::new(
                    Scenario::new("highway-cruise", rig, OperatingMode::HighwayCruise),
                    leg,
                ),
                DriveSegment::new(
                    Scenario::new(
                        "urban-dense",
                        rig,
                        OperatingMode::UrbanDense {
                            jitter_frac: 0.25,
                            seed: 11,
                        },
                    ),
                    leg,
                ),
                DriveSegment::new(
                    Scenario::new(
                        "degraded-dropout",
                        rig,
                        OperatingMode::DegradedDropout { lost_cameras: 3 },
                    ),
                    leg,
                ),
            ],
        )
    }

    /// A recorded-log timeline: replay of the anonymized underpass-glare
    /// camera trace (loaded from the in-repo CSV fixture), then a burst
    /// re-localization phase once tracking is lost.
    pub fn glare_relocalization() -> Drive {
        let rig = CameraRig::quad_economy();
        let trace =
            match Arrivals::from_csv_str(include_str!("../../../tests/traces/urban_glare.csv"))
                .expect("in-repo fixture trace parses")
            {
                Arrivals::Trace(times) => times,
                _ => unreachable!("loaders return traces"),
            };
        Drive::new(
            "glare-relocalization",
            vec![
                DriveSegment::new(
                    Scenario::new("glare-replay", rig, OperatingMode::TraceReplay { trace }),
                    Seconds::new(1.0),
                ),
                DriveSegment::new(
                    Scenario::new(
                        "burst-relocalization",
                        rig,
                        OperatingMode::BurstRelocalization { burst: 4 },
                    ),
                    Seconds::new(1.0),
                ),
            ],
        )
    }

    /// The built-in timelines the drive workbench sweeps.
    pub fn builtin() -> Vec<Drive> {
        vec![
            Drive::cruise_urban_degraded(),
            Drive::glare_relocalization(),
        ]
    }
}

/// Per-segment steady-state measurements of a simulated drive.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SegmentReport {
    /// Scenario family active during the segment.
    pub scenario: String,
    /// When the segment starts on the drive clock.
    pub start: Seconds,
    /// The segment's duration.
    pub duration: Seconds,
    /// Frames the arrival process offered.
    pub offered: usize,
    /// Frames dropped while the segment's mapping was spinning up.
    pub dropped: usize,
    /// Frames flushed in flight at the segment's end by a full-barrier
    /// handover (0 when the next switch is make-before-break or the
    /// segment is last).
    pub flushed: usize,
    /// Frames that entered the pipeline and completed.
    pub served: usize,
    /// Perception staleness at the segment's entry: how long after the
    /// segment starts its first *served* frame arrives. Dropped spin-up
    /// frames widen this blind window — perception emits nothing new
    /// while the mapping reloads; a segment serving nothing is stale for
    /// its whole duration.
    pub staleness: Seconds,
    /// Analytic matched pipelining latency of the segment's schedule.
    pub pipe: Seconds,
    /// Predicted steady interval: `max(pipe, mean arrival interval)`.
    pub predicted_interval: Seconds,
    /// DES-measured steady interval over the served frames.
    pub des_interval: Seconds,
    /// DES mean per-frame latency (arrival → completion) in steady state.
    pub mean_latency: Seconds,
    /// DES worst per-frame latency in steady state.
    pub max_latency: Seconds,
    /// DES tail percentiles (p50/p95/p99/p99.9) of the segment's
    /// steady-state latency stream.
    pub tails: LatencyQuantiles,
}

/// One mode switch: the priced re-match between two segments' mappings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransitionReport {
    /// Scenario the vehicle leaves.
    pub from: String,
    /// Scenario the vehicle enters.
    pub to: String,
    /// When the switch happens on the drive clock.
    pub at: Seconds,
    /// Re-match latency under the package-wide **barrier** model: the
    /// pessimistic reference the make-before-break handover is measured
    /// against (and the exact spin-up window of a full-diff switch).
    pub rematch_latency: Seconds,
    /// Chiplets whose program the switch rewrites.
    pub reprogrammed: usize,
    /// Incoming chiplets that keep their program and serve straight
    /// across the boundary (a partial diff has `kept > 0`).
    pub kept: usize,
    /// Re-programmed chiplets that stall across the switch (busy in the
    /// outgoing mapping until the break).
    pub stalled: usize,
    /// Re-programmed chiplets reloaded over the outgoing schedule's tail
    /// (idle before the switch): ready the instant the mapping flips.
    pub prestaged: usize,
    /// How long after the switch the last stalled chiplet comes back
    /// online (`rematch_latency` when nothing could be prestaged or
    /// overlapped; zero for a no-op diff).
    pub stall_window: Seconds,
    /// Spin-up time the make-before-break handover hides relative to the
    /// barrier model: `rematch_latency` minus the effective admission
    /// stall (prestaging over the outgoing tail plus the pipeline
    /// wavefront slack absorbing the stalled chiplets' reloads).
    pub overlap_saving: Seconds,
    /// Weight bytes those chiplets reload.
    pub weight_bytes: Bytes,
    /// Frames dropped inside the spin-up window.
    pub dropped: usize,
}

/// A fully simulated drive timeline on one package.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriveOutcome {
    /// Timeline name.
    pub drive: String,
    /// Package name.
    pub package: String,
    /// Chiplets in the package.
    pub chiplets: u64,
    /// Per-segment steady-state reports, in driving order.
    pub segments: Vec<SegmentReport>,
    /// Per-boundary re-match reports (`segments.len() - 1` entries).
    pub transitions: Vec<TransitionReport>,
    /// Frames offered end to end.
    pub total_offered: usize,
    /// Frames dropped end to end (all inside spin-up windows).
    pub total_dropped: usize,
    /// Frames flushed in flight end to end (all at full-barrier
    /// handovers).
    pub total_flushed: usize,
    /// Wall-clock length of the timeline.
    pub duration: Seconds,
}

impl DriveOutcome {
    /// Fraction of offered frames lost to mode switches.
    pub fn drop_rate(&self) -> f64 {
        if self.total_offered == 0 {
            0.0
        } else {
            self.total_dropped as f64 / self.total_offered as f64
        }
    }
}

/// Simulates a drive timeline on one package: match every segment,
/// price every boundary re-match, then run the phased DES over the
/// piecewise arrival stream.
///
/// A single-segment drive has no transition, so its (only) segment
/// report is bit-identical to the standalone scenario run of the same
/// (scenario, package) pair — the cross-validation suite pins this at
/// `--jobs 1` and `--jobs 8`.
pub fn simulate_drive(
    drive: &Drive,
    pkg: &McmPackage,
    model: &dyn CostModel,
    reconfig: &ReconfigModel,
) -> DriveOutcome {
    let dtype = Dtype::Fp16;

    // Compile: one matched schedule per segment (the expensive step; every
    // segment's matcher calls the caller's model directly).
    let outcomes: Vec<_> = drive
        .segments
        .iter()
        .map(|seg| match_scenario(&seg.scenario, pkg, model))
        .collect();
    let schedules: Vec<&Schedule> = outcomes.iter().map(|o| &o.schedule).collect();

    // The whole timeline as one arrival stream, sliced back per segment.
    // Frame counts are derived once here (each derivation walks the
    // segment's arrival process) and reused for the piecewise stream,
    // the slicing and the warmup trims.
    let frame_counts: Vec<usize> = drive.segments.iter().map(|s| s.frames()).collect();
    let all_times = Arrivals::piecewise(
        drive
            .segments
            .iter()
            .zip(&frame_counts)
            .map(|(seg, &frames)| ArrivalSegment {
                arrivals: seg.scenario.arrivals(),
                frames,
                span: seg.duration,
            })
            .collect(),
    )
    .times(frame_counts.iter().sum());

    // Price each boundary and lay out the phases: per-chiplet
    // make-before-break readiness at every switch (degenerating to the
    // old barrier for full diffs), and a boundary cutoff on the
    // *outgoing* phase only when the next switch quiesces the package —
    // a make-before-break handover lets in-flight frames drain.
    let mut transitions = Vec::new();
    let mut phases: Vec<SimPhase<'_>> = Vec::new();
    let mut offset = 0.0;
    let mut cursor = 0;
    for (i, seg) in drive.segments.iter().enumerate() {
        let times = all_times[cursor..cursor + frame_counts[i]].to_vec();
        cursor += frame_counts[i];
        let readiness = if i == 0 {
            // The first mapping is loaded before the drive starts.
            Readiness::Barrier(offset)
        } else {
            let cost = rematch_cost(schedules[i - 1], schedules[i], reconfig, dtype);
            if cost.is_full_barrier() {
                phases[i - 1].cutoff = Some(offset);
            }
            transitions.push(TransitionReport {
                from: drive.segments[i - 1].scenario.name.clone(),
                to: seg.scenario.name.clone(),
                at: Seconds::new(offset),
                rematch_latency: cost.latency,
                reprogrammed: cost.reprogrammed.len(),
                kept: cost.kept.len(),
                stalled: cost.stalled(),
                prestaged: cost.prestaged.len(),
                stall_window: cost.stall_window(),
                overlap_saving: Seconds::ZERO, // filled from the phase report below
                weight_bytes: cost.weight_bytes,
                dropped: 0, // filled from the phase report below
            });
            Readiness::make_before_break(&cost, offset)
        };
        phases.push(SimPhase::new(schedules[i], times, readiness));
        offset += seg.duration.as_secs();
    }

    let reports = simulate_phases(&phases, pkg, model, dtype);

    let mut segments = Vec::new();
    let mut start = 0.0;
    for (i, (seg, phase)) in drive.segments.iter().zip(&reports).enumerate() {
        if i > 0 {
            let t = &mut transitions[i - 1];
            t.dropped = phase.dropped;
            // What the barrier model would have charged as admission
            // stall, minus what the handover actually stalled.
            let stall = (phase.admitted_from - t.at.as_secs()).max(0.0);
            t.overlap_saving = Seconds::new((t.rematch_latency.as_secs() - stall).max(0.0));
        }
        let pipe = outcomes[i].report.pipe;
        // First served arrival, on the segment clock: dropped frames are
        // exactly the prefix arriving before the admission gate.
        let staleness = phases[i]
            .times
            .get(phase.dropped)
            .map(|&t| Seconds::new(t - start))
            .unwrap_or(seg.duration);
        segments.push(SegmentReport {
            scenario: seg.scenario.name.clone(),
            start: Seconds::new(start),
            duration: seg.duration,
            offered: phase.offered,
            dropped: phase.dropped,
            flushed: phase.flushed,
            served: phase.served(),
            staleness,
            pipe,
            predicted_interval: seg.scenario.predicted_interval(pipe),
            des_interval: phase.report.steady_interval,
            mean_latency: phase.report.mean_latency,
            max_latency: phase.report.max_latency,
            tails: phase.report.tails,
        });
        start += seg.duration.as_secs();
    }

    DriveOutcome {
        drive: drive.name.clone(),
        package: pkg.name().to_string(),
        chiplets: pkg.len() as u64,
        total_offered: segments.iter().map(|s| s.offered).sum(),
        total_dropped: segments.iter().map(|s| s.dropped).sum(),
        total_flushed: segments.iter().map(|s| s.flushed).sum(),
        duration: drive.total_duration(),
        segments,
        transitions,
    }
}

/// Evaluates every drive on every package: the drive × package grid as
/// one [`Study`] query, fanned out on the worker pool with the caller's
/// cost model and input-ordered, jobs-invariant results.
pub fn drive_sweep(
    drives: &[Drive],
    packages: &[McmPackage],
    model: &dyn CostModel,
    reconfig: &ReconfigModel,
) -> Vec<DriveOutcome> {
    let grid = Grid::of(Axis::new("drive", drives.to_vec()))
        .cross(Axis::new("package", packages.to_vec()));
    Study::new("drive-grid", grid, model)
        .run(|(drive, pkg), model| simulate_drive(drive, pkg, model, reconfig))
        .into_metrics()
}

#[cfg(test)]
mod tests {
    use super::*;
    use npu_maestro::FittedMaestro;

    #[test]
    fn builtin_timelines_are_valid_and_distinct() {
        let drives = Drive::builtin();
        assert!(drives.len() >= 2);
        let mut names: Vec<&str> = drives.iter().map(|d| d.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), drives.len(), "names must be unique");
        for d in &drives {
            assert!(d.total_frames() >= d.segments.len());
            assert!(d.total_duration().as_secs() > 0.0);
        }
        // The headline timeline is the ROADMAP's cruise → urban → degraded.
        let names: Vec<&str> = drives[0]
            .segments
            .iter()
            .map(|s| s.scenario.name.as_str())
            .collect();
        assert_eq!(names, ["highway-cruise", "urban-dense", "degraded-dropout"]);
        // One built-in timeline replays a recorded fixture trace.
        assert!(drives.iter().any(|d| d
            .segments
            .iter()
            .any(|s| matches!(s.scenario.mode, OperatingMode::TraceReplay { .. }))));
    }

    #[test]
    fn segment_frames_fit_their_duration() {
        for d in Drive::builtin() {
            for seg in &d.segments {
                let frames = seg.frames();
                let last = seg.scenario.arrivals().times(frames)[frames - 1];
                assert!(
                    last < seg.duration.as_secs(),
                    "{}/{}: frame at {last}s outside {}",
                    d.name,
                    seg.scenario.name,
                    seg.duration
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one segment")]
    fn empty_drive_is_rejected() {
        let _ = Drive::new("empty", Vec::new());
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn non_finite_duration_is_rejected() {
        let _ = Drive::new(
            "bad",
            vec![DriveSegment::new(
                Scenario::new("c", CameraRig::octa_ring(), OperatingMode::HighwayCruise),
                Seconds::new(f64::NAN),
            )],
        );
    }

    #[test]
    fn mode_switches_charge_latency_without_quiescing() {
        let drive = Drive::cruise_urban_degraded();
        let pkg = McmPackage::simba_6x6();
        let model = FittedMaestro::new();
        let out = simulate_drive(&drive, &pkg, &model, &ReconfigModel::default());
        assert_eq!(out.segments.len(), 3);
        assert_eq!(out.transitions.len(), 2);
        for t in &out.transitions {
            assert!(
                t.reprogrammed > 0,
                "{} -> {}: the workload changes, so must the mapping",
                t.from,
                t.to
            );
            assert!(t.rematch_latency > Seconds::ZERO);
            // Both headline switches are partial diffs: some chiplets keep
            // their program, so the handover never quiesces the package.
            assert!(t.stalled > 0 && t.stalled <= t.reprogrammed);
            assert!(t.stall_window > Seconds::ZERO);
            assert!(t.stall_window <= t.rematch_latency);
            // The wavefront offset of the stalled chiplets dwarfs the
            // spin-up window, so make-before-break drops nothing here.
            assert_eq!(t.dropped, 0, "{} -> {}", t.from, t.to);
            assert!(t.overlap_saving > Seconds::ZERO);
        }
        // Dropped frames are exactly the transition drops, and no
        // handover on this drive quiesces the package (nothing flushed).
        let transition_drops: usize = out.transitions.iter().map(|t| t.dropped).sum();
        assert_eq!(out.total_dropped, transition_drops);
        assert_eq!(out.total_flushed, 0);
        assert_eq!(
            out.total_offered,
            out.segments.iter().map(|s| s.offered).sum::<usize>()
        );
        assert!(out.drop_rate() < 0.5, "switching must not eat the drive");
        // Segment staleness: the opening segment serves from its first
        // frame; later segments recover within their own duration.
        for (i, s) in out.segments.iter().enumerate() {
            assert!(s.staleness >= Seconds::ZERO);
            assert!(s.staleness <= s.duration);
            assert_eq!(
                s.offered,
                s.served + s.dropped + s.flushed,
                "segment {i} frame accounting must balance"
            );
        }
    }

    #[test]
    fn make_before_break_drops_strictly_fewer_than_the_barrier() {
        // Under the old full-barrier model every frame arriving inside
        // [at, at + rematch_latency) was dropped. Make-before-break must
        // beat that on every partial-diff transition that the barrier
        // would have charged.
        let model = FittedMaestro::new();
        let mut strict = 0;
        for pkg in [McmPackage::simba_6x6(), McmPackage::dual_npu_12x6()] {
            for drive in Drive::builtin() {
                let out = simulate_drive(&drive, &pkg, &model, &ReconfigModel::default());
                let all_times = Arrivals::piecewise(
                    drive
                        .segments
                        .iter()
                        .map(|seg| ArrivalSegment {
                            arrivals: seg.scenario.arrivals(),
                            frames: seg.frames(),
                            span: seg.duration,
                        })
                        .collect(),
                )
                .times(out.total_offered);
                let mut cursor = out.segments[0].offered;
                for (t, seg) in out.transitions.iter().zip(&out.segments[1..]) {
                    let times = &all_times[cursor..cursor + seg.offered];
                    let barrier_end = t.at.as_secs() + t.rematch_latency.as_secs();
                    let barrier_drops = times.partition_point(|&x| x < barrier_end);
                    if t.reprogrammed > 0 && t.kept > 0 && barrier_drops > 0 {
                        assert!(
                            t.dropped < barrier_drops,
                            "{}/{} -> {}: {} under make-before-break vs {} barrier",
                            drive.name,
                            t.from,
                            t.to,
                            t.dropped,
                            barrier_drops
                        );
                        strict += 1;
                    }
                    assert!(t.dropped <= barrier_drops, "never worse than the barrier");
                    cursor += seg.offered;
                }
            }
        }
        assert!(
            strict >= 4,
            "the builtin drives must exercise partial diffs"
        );
    }

    #[test]
    fn simulate_drive_is_deterministic() {
        let drive = Drive::glare_relocalization();
        let pkg = McmPackage::simba_6x6();
        let model = FittedMaestro::new();
        let a = simulate_drive(&drive, &pkg, &model, &ReconfigModel::default());
        let b = simulate_drive(&drive, &pkg, &model, &ReconfigModel::default());
        assert_eq!(a, b);
    }

    #[test]
    fn drives_serialize_round_trip() {
        for d in Drive::builtin() {
            let json = serde_json::to_string(&d).expect("serialize");
            let back: Drive = serde_json::from_str(&json).expect("deserialize");
            assert_eq!(back, d);
        }
    }
}
