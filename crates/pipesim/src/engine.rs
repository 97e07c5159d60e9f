//! The discrete-event engine.
//!
//! [`simulate`] is the one entry point. It runs K arrival streams —
//! each a [`SimPhase`] with its own compiled schedule, arrival timeline,
//! readiness model, warmup trim and cutoff — as if through **one shared
//! event calendar**, so streams that share chiplets genuinely contend
//! for them while streams on disjoint regions behave exactly as if they
//! ran alone. It checks its streams first and refuses malformed ones
//! with a [`SimError`]. Two wrappers sit on it:
//!
//! - [`simulate_phases`], a drive's rule: each phase in its own
//!   [`simulate`] call, so each phase starts on an empty package;
//! - [`simulate_with_stats`], one [`SimConfig::phase`] stream reported
//!   as [`EngineStats`], kept only for the `e2ebench` harness.
//!
//! Arrivals from all streams merge into one global sequence ordered by
//! `(time, stream index)`; a frame's rank in it is its global frame
//! index, so job priority `(global frame, item)` is total and tie-free.
//! For one stream the global index is the stream's own frame index.
//!
//! Streams that share no chiplet, directly or through a chain of other
//! streams, never touch the same engine state: no queue, no chiplet, no
//! frame counter. Their event orders interleave on a shared calendar
//! but never decide each other's, and priorities only compare jobs on
//! one chiplet, where restricting the merged arrival ranks to a group
//! keeps their order. So each such group runs in its own pass, with
//! its streams in input order, bit-identical to the one-calendar run
//! (pinned against an independent reference engine in
//! `tests/engine_refactor_pin.rs`), and each pass's calendar and
//! arrival merge only hold the group's own streams.
//!
//! The core keeps no per-frame state. Each chiplet serves an item's jobs
//! in frame order, so one counter per item — the stream frames it has
//! completed — decides when a job is ready and when a frame is done, and
//! a chiplet's ready queue holds each of its items at most once, under
//! its lowest ready frame. Memory is O(items + chiplets) however many
//! frames are in flight or waiting.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt;

use serde::{Deserialize, Serialize};

use npu_maestro::CostModel;
use npu_mcm::{ChipletId, McmPackage};
use npu_sched::rematch::RematchOutcome;
use npu_sched::{flatten_items, Schedule, SimItem};
use npu_tensor::Dtype;

use crate::arrivals::Arrivals;
use crate::report::{ReportBuilder, SimReport};

/// Simulation configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Number of frames to push through the pipeline.
    pub frames: usize,
    /// The frame arrival process (saturation, periodic, jittered, bursty
    /// or trace replay — see [`Arrivals`]).
    pub arrivals: Arrivals,
    /// Frames discarded from the steady-state statistics at **each end**
    /// of the run: the first `warmup` frames (pipeline fill) and the last
    /// `warmup` frames (pipeline drain). The report clamps the trim so
    /// the measured window keeps at least one frame.
    pub warmup: usize,
    /// NoP accounting datatype.
    pub dtype: Dtype,
}

impl SimConfig {
    /// Default symmetric trim for an `frames`-frame run: a quarter of the
    /// run from each end, capped at 4 frames. Short runs keep most of
    /// their frames measurable (`frames ≤ 4` trims at most one per end),
    /// long runs trim a fixed 4.
    pub fn default_warmup(frames: usize) -> usize {
        (frames / 4).min(4)
    }

    /// Saturation mode: measure the sustainable frame rate.
    pub fn saturated(frames: usize) -> Self {
        SimConfig::with_arrivals(frames, Arrivals::Saturated)
    }

    /// Camera mode: frames arrive at the given rate (e.g. 30 FPS).
    ///
    /// # Panics
    ///
    /// Panics if `fps` is not finite and positive (a zero or NaN rate
    /// would silently produce non-finite event times).
    pub fn camera(frames: usize, fps: f64) -> Self {
        SimConfig::with_arrivals(frames, Arrivals::periodic_fps(fps))
    }

    /// Any arrival process with the default warmup trim and datatype.
    pub fn with_arrivals(frames: usize, arrivals: Arrivals) -> Self {
        SimConfig {
            frames,
            arrivals,
            warmup: SimConfig::default_warmup(frames),
            dtype: Dtype::Fp16,
        }
    }

    /// Adds uniform arrival jitter (builder style). `frac` is clamped
    /// into `[0, 1)` (NaN clamps to 0) instead of poisoning event times.
    /// Saturated, bursty and trace arrivals have no per-frame interval to
    /// jitter and pass through unchanged.
    pub fn with_jitter(mut self, frac: f64, seed: u64) -> Self {
        let frac = Arrivals::clamp_jitter(frac);
        if let Arrivals::Periodic { interval } | Arrivals::Jittered { interval, .. } = self.arrivals
        {
            self.arrivals = Arrivals::Jittered {
                interval,
                frac,
                seed,
            };
        }
        self
    }

    /// The one-stream recipe: `frames` arrivals of `arrivals` served by
    /// `schedule`, ready at the first arrival (so every frame is served)
    /// and trimmed by `warmup`. Run it as
    /// `simulate(&[cfg.phase(schedule)], pkg, model, cfg.dtype)`.
    pub fn phase<'a>(&self, schedule: &'a Schedule) -> SimPhase<'a> {
        let times = self.arrivals.times(self.frames);
        let ready = Readiness::Barrier(times.first().copied().unwrap_or(0.0));
        SimPhase {
            warmup: Some(self.warmup),
            ..SimPhase::new(schedule, times, ready)
        }
    }
}

/// Engine-internal measurements of one stream's run, in the shape the
/// benchmark harness reads through [`simulate_with_stats`]. Every field
/// is also a [`PhaseReport`] field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Frames pushed through the pipeline.
    pub frames: usize,
    /// Most frames ever simultaneously in flight (see
    /// [`PhaseReport::peak_in_flight`]).
    pub peak_in_flight: usize,
    /// Frames flushed in flight at the run's cutoff (0 without one).
    pub flushed: usize,
}

/// [`simulate`] of the one stream `cfg.phase(schedule)`, split into its
/// steady-state report and [`EngineStats`]. Nothing in the workspace
/// calls it: it is kept, with [`EngineStats`], only because the
/// `e2ebench` harness checks [`simulate`] against it bit for bit. Both
/// go when that harness reads its layer numbers from a library probe
/// (ROADMAP.md, item 3's benchmark follow-on).
///
/// # Panics
///
/// Panics with the [`SimError`] message if the stream is malformed.
pub fn simulate_with_stats(
    schedule: &Schedule,
    pkg: &McmPackage,
    model: &dyn CostModel,
    cfg: &SimConfig,
) -> (SimReport, EngineStats) {
    let rep = simulate_phases(&[cfg.phase(schedule)], pkg, model, cfg.dtype)
        .pop()
        .expect("one report per phase");
    let stats = EngineStats {
        frames: rep.offered,
        peak_in_flight: rep.peak_in_flight,
        flushed: rep.flushed,
    };
    (rep.report, stats)
}

/// When an incoming mapping can accept frames: either a package-wide
/// barrier (the legacy pessimistic model, and the exact semantics of a
/// full-diff transition, where no serving pipeline survives the switch)
/// or a make-before-break per-chiplet readiness schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum Readiness {
    /// No frame is admitted before this absolute instant. A phase with
    /// no spin-up at all is `Barrier(switch instant)`.
    Barrier(f64),
    /// Make-before-break handover at absolute instant `at`: chiplets
    /// that keep their program (or were prestaged over the outgoing
    /// tail) serve from `at`; `ready` lists the absolute times the
    /// still-reloading chiplets come back online. A frame is dropped
    /// only when its critical path would land on a chiplet that is
    /// still reloading when the wavefront gets there.
    PerChiplet {
        /// The switch instant: the earliest any frame can be admitted.
        at: f64,
        /// Absolute ready times of the stalled chiplets, ascending
        /// chiplet order.
        ready: Vec<(ChipletId, f64)>,
    },
}

impl Readiness {
    /// The readiness of a priced mapping transition switching at
    /// absolute time `at` (see `npu_sched::rematch`):
    ///
    /// - a no-op diff is live immediately (`Barrier(at)`);
    /// - a full-barrier diff — every incoming chiplet re-programmed out
    ///   of a busy state — quiesces the package and reproduces the old
    ///   scalar semantics exactly (`Barrier(at + latency)`);
    /// - any partial diff keeps serving on its kept/prestaged chiplets
    ///   and stalls only the re-programmed busy ones, each until its
    ///   staged post-switch ready time.
    pub fn make_before_break(outcome: &RematchOutcome, at: f64) -> Readiness {
        if outcome.is_noop() {
            Readiness::Barrier(at)
        } else if outcome.is_full_barrier() {
            Readiness::Barrier(at + outcome.latency.as_secs())
        } else {
            Readiness::PerChiplet {
                at,
                ready: outcome
                    .readiness
                    .iter()
                    .map(|&(c, r)| (c, at + r.as_secs()))
                    .collect(),
            }
        }
    }

    /// The instant the last gating resource is ready (`at` when nothing
    /// stalls).
    pub fn last_ready(&self) -> f64 {
        match self {
            Readiness::Barrier(t) => *t,
            Readiness::PerChiplet { at, ready } => {
                ready.iter().map(|&(_, r)| r).fold(*at, f64::max)
            }
        }
    }

    /// Whether every instant is finite, including the ready times of
    /// chiplets the schedule does not use.
    fn is_finite(&self) -> bool {
        match self {
            Readiness::Barrier(t) => t.is_finite(),
            Readiness::PerChiplet { at, ready } => {
                at.is_finite() && ready.iter().all(|(_, r)| r.is_finite())
            }
        }
    }
}

/// The effective admission instant of a schedule under a readiness
/// model: the latest arrival time that would still route some item of a
/// frame onto a chiplet that has not come back online.
///
/// `est[i]` — the earliest start of item `i` relative to its frame's
/// arrival — is the longest path into the item over the dependency DAG
/// (`flatten_items` indexes items topologically, so one forward pass
/// suffices). In the DES an item can only start **later** than
/// `arrival + est[i]` (queueing and chiplet contention add delay, never
/// remove it), so a chiplet `c` whose earliest wavefront offset is
/// `offset[c] = min est[i]` over its items is first touched by a frame
/// arriving at `t` no earlier than `t + offset[c]`. Gating admission at
/// `max(ready[c] - offset[c])` is therefore *exact*: every admitted
/// frame provably never reaches a still-reloading chiplet, and every
/// dropped frame's critical path would have landed on one. The bound
/// holds a fortiori under cross-stream contention, which only delays
/// starts further.
fn admission_gate(items: &[SimItem], readiness: &Readiness) -> f64 {
    let (at, ready) = match readiness {
        Readiness::Barrier(t) => return *t,
        Readiness::PerChiplet { at, ready } => (*at, ready),
    };
    let mut est = vec![0.0_f64; items.len()];
    for (i, item) in items.iter().enumerate() {
        let mut start: f64 = 0.0;
        for &d in &item.deps {
            start = start.max(est[d] + items[d].duration.as_secs());
        }
        est[i] = start;
    }
    let mut offset: BTreeMap<ChipletId, f64> = BTreeMap::new();
    for (i, item) in items.iter().enumerate() {
        let o = offset.entry(item.chiplet).or_insert(f64::INFINITY);
        *o = o.min(est[i]);
    }
    let mut gate = at;
    for (c, r) in ready {
        // A stalled chiplet hosting no work in this schedule gates
        // nothing (defensive: rematch only stalls incoming chiplets).
        if let Some(&o) = offset.get(c) {
            gate = gate.max(r - o);
        }
    }
    gate
}

/// One arrival stream: a compiled schedule serving absolute-time frame
/// arrivals under a [`Readiness`] model. Frames arriving while the
/// gating resources are still spinning up are **dropped** — the re-match
/// window of an online mode switch, or a tenant's region being
/// re-programmed — and counted in the stream's [`PhaseReport`] instead
/// of entering the pipeline.
#[derive(Debug, Clone)]
pub struct SimPhase<'a> {
    /// The schedule serving this stream (its chiplet region is implied
    /// by the schedule's shard assignments).
    pub schedule: &'a Schedule,
    /// Absolute arrival timestamps of the stream's frames (finite and
    /// non-decreasing).
    pub times: Vec<f64>,
    /// When the stream's mapping accepts frames: a package-wide barrier
    /// or a make-before-break per-chiplet schedule.
    pub readiness: Readiness,
    /// Symmetric steady-state trim for the stream's report (see
    /// [`SimConfig::warmup`]); `None` derives the default trim from the
    /// **served** frame count once admission drops are known.
    pub warmup: Option<usize>,
    /// Boundary instant at which the stream's in-flight frames are
    /// flushed: set when the *next* transition is a full barrier (the
    /// package quiesces, killing in-flight work). `None` lets frames
    /// drain past the boundary — a make-before-break handover keeps the
    /// outgoing chiplets serving until their queues empty.
    pub cutoff: Option<f64>,
}

impl<'a> SimPhase<'a> {
    /// A stream that drains freely at its end (no boundary flush) with
    /// the default steady-state trim.
    pub fn new(schedule: &'a Schedule, times: Vec<f64>, readiness: Readiness) -> SimPhase<'a> {
        SimPhase {
            schedule,
            times,
            readiness,
            warmup: None,
            cutoff: None,
        }
    }
}

/// The measured behaviour of one [`SimPhase`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseReport {
    /// Steady-state statistics over the frames that were actually served.
    pub report: SimReport,
    /// Frames the arrival process offered to the phase.
    pub offered: usize,
    /// Frames dropped because they arrived before the admission gate.
    pub dropped: usize,
    /// Frames admitted but flushed in flight at the phase's end because
    /// the next transition quiesced the package.
    pub flushed: usize,
    /// The effective admission instant: the barrier time, or the
    /// make-before-break gate `max(ready[c] - wavefront offset[c])`
    /// clamped to the switch instant. The phase's spin-up charge is
    /// `admitted_from - switch instant`.
    pub admitted_from: f64,
    /// Most of the stream's frames ever simultaneously in flight:
    /// started (a first job began) but not completed (a last job
    /// finished). Frames still waiting for their first job do not count.
    pub peak_in_flight: usize,
}

impl PhaseReport {
    /// Frames that entered the pipeline and completed
    /// (`offered - dropped - flushed`).
    pub fn served(&self) -> usize {
        debug_assert!(
            self.dropped + self.flushed <= self.offered,
            "dropped ({}) + flushed ({}) exceeds offered ({})",
            self.dropped,
            self.flushed,
            self.offered
        );
        self.offered
            .saturating_sub(self.dropped)
            .saturating_sub(self.flushed)
    }
}

/// Why [`simulate`] refused its streams. Each case names the offending
/// stream by its index in the call.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The stream's schedule holds no work.
    EmptySchedule {
        /// Index of the stream in the call.
        stream: usize,
    },
    /// An arrival time was NaN or infinite.
    NonFiniteArrival {
        /// Index of the stream in the call.
        stream: usize,
        /// Index of the frame in the stream.
        frame: usize,
        /// The offending time.
        value: f64,
    },
    /// An arrival time stepped backwards relative to its predecessor.
    DecreasingArrival {
        /// Index of the stream in the call.
        stream: usize,
        /// Index of the frame in the stream.
        frame: usize,
        /// The offending time.
        value: f64,
        /// The preceding arrival time it undercuts.
        previous: f64,
    },
    /// The stream's readiness holds a NaN or infinite instant, even on
    /// a chiplet its schedule never uses.
    NonFiniteReadiness {
        /// Index of the stream in the call.
        stream: usize,
    },
    /// The stream's cutoff was NaN or infinite.
    NonFiniteCutoff {
        /// Index of the stream in the call.
        stream: usize,
        /// The offending cutoff.
        value: f64,
    },
    /// The call admits more frames, over all its streams, than a `u32`
    /// frame index holds.
    TooManyFrames {
        /// Frames admitted over the whole call.
        frames: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::EmptySchedule { stream } => {
                write!(f, "stream {stream}: cannot simulate an empty schedule")
            }
            SimError::NonFiniteArrival {
                stream,
                frame,
                value,
            } => write!(
                f,
                "stream {stream}, frame {frame}: arrival time {value} is not finite"
            ),
            SimError::DecreasingArrival {
                stream,
                frame,
                value,
                previous,
            } => write!(
                f,
                "stream {stream}, frame {frame}: arrival time {value} steps backwards \
                 (previous was {previous})"
            ),
            SimError::NonFiniteReadiness { stream } => {
                write!(f, "stream {stream}: readiness holds a non-finite instant")
            }
            SimError::NonFiniteCutoff { stream, value } => {
                write!(f, "stream {stream}: cutoff {value} is not finite")
            }
            SimError::TooManyFrames { frames } => write!(
                f,
                "{frames} admitted frames overflow the u32 frame index of one call"
            ),
        }
    }
}

impl std::error::Error for SimError {}

impl SimPhase<'_> {
    /// Checks the stream's arrivals, readiness and cutoff; `stream` is
    /// its index in the call.
    fn validate(&self, stream: usize) -> Result<(), SimError> {
        let mut previous = f64::NEG_INFINITY;
        for (frame, &value) in self.times.iter().enumerate() {
            if !value.is_finite() {
                return Err(SimError::NonFiniteArrival {
                    stream,
                    frame,
                    value,
                });
            }
            if value < previous {
                return Err(SimError::DecreasingArrival {
                    stream,
                    frame,
                    value,
                    previous,
                });
            }
            previous = value;
        }
        if !self.readiness.is_finite() {
            return Err(SimError::NonFiniteReadiness { stream });
        }
        match self.cutoff {
            Some(value) if !value.is_finite() => Err(SimError::NonFiniteCutoff { stream, value }),
            _ => Ok(()),
        }
    }
}

/// Runs K arrival streams on one package as if through a shared event
/// calendar, returning one [`PhaseReport`] per stream, in input order:
/// steady-state statistics over the frames each stream actually served,
/// plus its offered, dropped and flushed counts. This is the one
/// simulation entry point: a single steady-state run is one stream
/// ([`SimConfig::phase`]), co-scheduled tenants are one stream each.
///
/// Every layer shard becomes a job on its chiplet; chiplets serve their
/// ready queues earliest-frame-first; a job starts when its same-frame
/// dependencies have completed and its chiplet is free. A stream drops
/// its frames arriving before its admission gate (see [`Readiness`]) and
/// flushes those still in flight at its cutoff.
///
/// Streams whose schedules touch the same chiplet contend for it in
/// global `(frame, item)` priority order, with same-instant arrivals
/// resolved by input order; streams on disjoint regions are
/// bit-identical to standalone runs. The engine therefore runs one pass
/// per group of streams linked by shared chiplets (transitively: if A
/// shares a chiplet with B and B with C, all three run together), and
/// the result equals one pass over every stream bit for bit. Each
/// stream's report exposes busy fractions for the chiplets its own
/// schedule uses — on a shared chiplet that is the chiplet's *total*
/// utilization over the stream's observed span, since the silicon does
/// not idle between tenants.
///
/// # Examples
///
/// ```
/// use npu_maestro::FittedMaestro;
/// use npu_mcm::McmPackage;
/// use npu_pipesim::{simulate, SimConfig, SimError};
/// use npu_sched::Schedule;
///
/// let (pkg, model) = (McmPackage::simba_6x6(), FittedMaestro::new());
/// let cfg = SimConfig::saturated(8);
/// let empty = Schedule { stages: vec![] };
/// // Malformed input is an error naming the stream, not a panic.
/// let err = simulate(&[cfg.phase(&empty)], &pkg, &model, cfg.dtype).unwrap_err();
/// assert_eq!(err, SimError::EmptySchedule { stream: 0 });
/// ```
///
/// # Errors
///
/// [`SimError`] if a stream's schedule is empty, its arrival times are
/// not finite and non-decreasing, its readiness or cutoff holds a
/// non-finite instant, or the call admits more frames than a `u32`
/// holds.
pub fn simulate(
    streams: &[SimPhase<'_>],
    pkg: &McmPackage,
    model: &dyn CostModel,
    dtype: Dtype,
) -> Result<Vec<PhaseReport>, SimError> {
    let flat: Vec<Vec<SimItem>> = streams
        .iter()
        .map(|s| flatten_items(s.schedule, pkg, model, dtype))
        .collect();
    let mut admitted = Vec::with_capacity(streams.len());
    let mut gates = Vec::with_capacity(streams.len());
    for (k, (s, items)) in streams.iter().zip(&flat).enumerate() {
        if items.is_empty() {
            return Err(SimError::EmptySchedule { stream: k });
        }
        s.validate(k)?;
        let gate = admission_gate(items, &s.readiness);
        // Times are non-decreasing, so the served frames are exactly the
        // suffix from the first arrival at or after the gate.
        let times = &s.times[s.times.partition_point(|&t| t < gate)..];
        // Post-drop trim (the offered count would misalign the
        // steady-state window after a heavy-drop transition).
        let warmup = s
            .warmup
            .unwrap_or_else(|| SimConfig::default_warmup(times.len()));
        admitted.push(Admitted {
            items,
            times,
            warmup,
            cutoff: s.cutoff,
        });
        gates.push(gate);
    }
    // Frame indices are `u32`, which keeps `Job` small. The bound is
    // over the whole call, not per pass, so grouping accepts no input
    // that one pass over every stream would refuse.
    let frames = admitted.iter().map(|a| a.times.len()).sum::<usize>();
    if frames >= u32::MAX as usize {
        return Err(SimError::TooManyFrames { frames });
    }
    let groups = match admitted.len() {
        1 => vec![vec![0]],
        _ => chiplet_groups(&admitted),
    };
    let mut outcomes: Vec<Option<StreamOutcome>> = admitted.iter().map(|_| None).collect();
    for group in groups {
        let members: Vec<Admitted<'_>> = group.iter().map(|&k| admitted[k]).collect();
        for (k, out) in group.into_iter().zip(run_pass(&members).0) {
            outcomes[k] = Some(out);
        }
    }
    Ok(outcomes
        .into_iter()
        .map(|out| out.expect("every stream is in one group"))
        .zip(streams.iter().zip(&admitted).zip(gates))
        .map(|(out, ((s, a), gate))| PhaseReport {
            report: out.report,
            offered: s.times.len(),
            dropped: s.times.len() - a.times.len(),
            flushed: out.flushed,
            admitted_from: gate,
            peak_in_flight: out.peak_in_flight,
        })
        .collect())
}

/// Runs a time-varying simulation: phases share one wall clock, and each
/// phase's schedule serves its own arrivals. This is the engine hook an
/// online mode switch compiles to — the schedule (and thus the compiled
/// `PerceptionConfig`) is swapped at every phase boundary under the
/// phase's [`Readiness`] model.
///
/// Under a [`Readiness::Barrier`] the old semantics apply exactly: every
/// frame arriving before the barrier instant is dropped. Under
/// [`Readiness::PerChiplet`] the handover is make-before-break — chiplets
/// that keep their program keep serving across the boundary (their
/// in-flight frames survive), only re-programmed chiplets stall, and a
/// frame is dropped only when its critical path would land on a chiplet
/// that is still reloading when the wavefront reaches it (the
/// arrival-time gate is exact because DES contention only ever delays
/// item starts past their dependency-chain earliest times).
///
/// In-flight frames cross boundaries according to the *next* phase's
/// handover: a make-before-break switch lets the outgoing queues drain
/// (`cutoff = None`), a full-barrier switch quiesces the package and
/// flushes them (`cutoff = Some(boundary)`), counted per phase so
/// `offered == served + dropped + flushed` always balances. Per-phase
/// busy fractions are relative to each phase's own span.
///
/// Each phase runs in its own [`simulate`] call, starting on an empty
/// package: an outgoing phase's draining backlog never contends with the
/// incoming phase's frames, so segment latencies right after a switch
/// are optimistic.
///
/// # Panics
///
/// Panics with the [`SimError`] message if a phase is malformed.
pub fn simulate_phases(
    phases: &[SimPhase<'_>],
    pkg: &McmPackage,
    model: &dyn CostModel,
    dtype: Dtype,
) -> Vec<PhaseReport> {
    phases
        .iter()
        .enumerate()
        .map(|(i, phase)| {
            simulate(std::slice::from_ref(phase), pkg, model, dtype)
                .unwrap_or_else(|e| panic!("phase {i}: {e}"))
                .remove(0)
        })
        .collect()
}

/// An absent item in the closed-program tables (see [`Engine`]).
const NONE: u32 = u32::MAX;

/// The connected components of the "shares a chiplet" relation over
/// `streams`, each listing its stream indices ascending; components are
/// ordered by their first stream.
fn chiplet_groups(streams: &[Admitted<'_>]) -> Vec<Vec<usize>> {
    // Union-find over streams, each root the lowest index of its set.
    let mut parent: Vec<usize> = (0..streams.len()).collect();
    fn root(parent: &mut [usize], mut k: usize) -> usize {
        while parent[k] != k {
            parent[k] = parent[parent[k]];
            k = parent[k];
        }
        k
    }
    let mut uses: Vec<(ChipletId, usize)> = streams
        .iter()
        .enumerate()
        .flat_map(|(k, s)| s.items.iter().map(move |it| (it.chiplet, k)))
        .collect();
    uses.sort_unstable();
    uses.dedup();
    for w in uses.windows(2) {
        if w[0].0 == w[1].0 {
            let (a, b) = (root(&mut parent, w[0].1), root(&mut parent, w[1].1));
            parent[a.max(b)] = a.min(b);
        }
    }
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut group_of = vec![usize::MAX; streams.len()];
    for k in 0..streams.len() {
        let r = root(&mut parent, k);
        if group_of[r] == usize::MAX {
            group_of[r] = groups.len();
            groups.push(Vec::new());
        }
        groups[group_of[r]].push(k);
    }
    groups
}

/// One engine pass over `streams`, run segment by segment on their
/// closed programs. If the fused run meets a tie it cannot order as the
/// item-by-item run would, the pass is run again item by item; the flag
/// says whether it was.
fn run_pass(streams: &[Admitted<'_>]) -> (Vec<StreamOutcome>, bool) {
    match Engine::new(streams, true).run() {
        Some(out) => (out, false),
        None => {
            let out = Engine::new(streams, false).run();
            (out.expect("an item-by-item pass meets no tie"), true)
        }
    }
}

/// One validated stream as the engine sees it: its flattened items and
/// the arrivals that passed its admission gate.
#[derive(Clone, Copy)]
struct Admitted<'a> {
    items: &'a [SimItem],
    times: &'a [f64],
    warmup: usize,
    cutoff: Option<f64>,
}

/// What one engine pass measured for one stream.
struct StreamOutcome {
    report: SimReport,
    flushed: usize,
    peak_in_flight: usize,
}

/// `(global frame, item)` packed into one integer of the same order.
fn pack(frame: u32, item: u32) -> u64 {
    (frame as u64) << 32 | item as u64
}

/// Priority: earlier global frame first, then item (topological) order.
/// The stream-local frame rides along as payload — it follows from the
/// global frame, so ordering (and equality) ignore it.
#[derive(Debug, Clone, Copy)]
struct Job {
    /// Global frame index: the frame's rank in the merged arrivals.
    frame: u32,
    /// Global item index (stream offset + stream-local index).
    item: u32,
    /// The frame's index within its stream (payload, not priority).
    local: u32,
}

impl Job {
    fn key(&self) -> u64 {
        pack(self.frame, self.item)
    }
}

impl PartialEq for Job {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Job {}

impl Ord for Job {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other.key().cmp(&self.key())
    }
}

impl PartialOrd for Job {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The `total_cmp` order of `f64` as an unsigned integer order: a
/// non-negative time flips its sign bit, a negative one every bit.
fn time_ord(t: f64) -> u64 {
    let b = t.to_bits();
    b ^ ((b as i64 >> 63) as u64 | 1 << 63)
}

/// Inverse of [`time_ord`]: the original bits, `-0.0` and NaNs included.
fn time_from_ord(o: u64) -> f64 {
    f64::from_bits(o ^ ((!o as i64 >> 63) as u64 | 1 << 63))
}

/// One item-completion event on the [`Calendar`]: two `u128`s, 32 bytes.
/// Frame arrivals are never on the calendar — the engine walks the
/// (non-decreasing) arrival timestamps with a cursor and interleaves
/// them with the calendar in time order.
///
/// The calendar holds at most one event per chiplet *after* the current
/// instant, but may hold more at it: a chiplet is free once
/// `busy_until <= now`, so an event processed earlier at the same
/// instant can start a job on the chiplet while the chiplet's own
/// completion at that instant is still queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Scheduled {
    /// `time_ord(time) << 64 | seq`: one integer compare orders events by
    /// time under `total_cmp` (total even if a cost model ever produced
    /// a NaN timestamp), then by insertion order for determinism. The
    /// time decodes back from it bit for bit.
    key: u128,
    /// The completing job and what it completes,
    /// `frame | item << 32 | local << 64 | segment << 96`; its chiplet is
    /// `chiplet_of[item]`, and `segment` holds the [`PROGRAM`],
    /// [`MULTI`] and [`THEN`] bits of the segment the job ran.
    job: u128,
}

/// A segment bit: the job ran a segment of a closed program, so its
/// start walked the segment and checked that each item advanced the
/// clock.
const PROGRAM: u8 = 1;
/// A segment bit: the job ran two or more items.
const MULTI: u8 = 2;
/// A segment bit: the exit's completion starts the next segment.
const THEN: u8 = 4;

impl Scheduled {
    fn new(time: f64, seq: u64, job: Job, segment: u8) -> Scheduled {
        Scheduled {
            key: (time_ord(time) as u128) << 64 | seq as u128,
            job: job.frame as u128
                | (job.item as u128) << 32
                | (job.local as u128) << 64
                | (segment as u128) << 96,
        }
    }

    fn segment(&self) -> u8 {
        (self.job >> 96) as u8
    }

    fn time(&self) -> f64 {
        time_from_ord((self.key >> 64) as u64)
    }

    fn job(&self) -> Job {
        Job {
            frame: self.job as u32,
            item: (self.job >> 32) as u32,
            local: (self.job >> 64) as u32,
        }
    }
}

/// A new event landing within this many slots of the calendar's earliest
/// end is placed by shifting one slot at a time; one landing further
/// back is placed by a binary search and one block move.
///
/// A constant, not an option: on every builtin workload a new event
/// lands near the earliest end of ~20 pending ones. Over 93M insertions
/// of an e2ebench `long-drive` run (seed 1), the number of pending
/// events earlier than the new one was ≤ 2 for 52.6% of them, ≤ 8 for
/// 90.7% and > 16 for 1.7% (`dse-grid` 91.3% ≤ 8, `fleet-pack` 87.0%);
/// every builtin scenario has a mean of 3–5, on `simba_6x6` and a
/// 96-chiplet package alike.
const NEAR: usize = 8;

/// The completion calendar: pending events in descending `key` order, so
/// the earliest is last and `peek`/`pop` are O(1).
///
/// A new event usually lands a few slots from the earliest end (see
/// [`NEAR`]), so placing it with a short, predictable shift from that
/// end beats a binary-heap sift. An event landing more than [`NEAR`]
/// slots back, as on saturated replicated schedules where every chiplet
/// finishes in lockstep, takes a `partition_point` and one `copy_within`.
/// Keys are unique (the sequence number is), so events pop in exactly
/// the order a min-heap would give.
#[derive(Default)]
struct Calendar {
    v: Vec<Scheduled>,
}

impl Calendar {
    fn peek(&self) -> Option<&Scheduled> {
        self.v.last()
    }

    fn pop(&mut self) -> Option<Scheduled> {
        self.v.pop()
    }

    fn push(&mut self, event: Scheduled) {
        self.v.push(event);
        self.place(event);
    }

    /// Replaces the earliest event with `event`.
    fn replace_top(&mut self, event: Scheduled) {
        *self.v.last_mut().expect("an event to replace") = event;
        self.place(event);
    }

    /// Moves `event`, just written to the last slot, to its sorted place.
    fn place(&mut self, event: Scheduled) {
        let v = &mut self.v;
        let others = v.len() - 1;
        let at = if others <= NEAR || event.key < v[others - NEAR].key {
            let mut i = others;
            while i > 0 && v[i - 1].key < event.key {
                v[i] = v[i - 1];
                i -= 1;
            }
            i
        } else {
            let at = v[..others - NEAR].partition_point(|e| e.key > event.key);
            v.copy_within(at..others, at + 1);
            at
        };
        v[at] = event;
        debug_assert!(
            (at == 0 || v[at - 1].key > event.key)
                && v.get(at + 1).is_none_or(|e| e.key < event.key),
            "calendar event out of order"
        );
    }
}

/// Global frame index of stream `k`'s frame `f`: its rank in the merged
/// arrivals, where same-instant arrivals resolve by stream order. With
/// one stream it is the frame itself.
fn global_frame(streams: &[Stream<'_>], k: usize, f: usize) -> u32 {
    if streams.len() == 1 {
        return f as u32;
    }
    let t = streams[k].times[f];
    let earlier = |(j, s): (usize, &Stream<'_>)| match j.cmp(&k) {
        Ordering::Less => s.times.partition_point(|&x| x <= t),
        Ordering::Equal => f,
        Ordering::Greater => s.times.partition_point(|&x| x < t),
    };
    // `simulate` bounds the total frame count.
    streams.iter().enumerate().map(earlier).sum::<usize>() as u32
}

/// One stream's arrivals, frame progress and streaming report.
struct Stream<'a> {
    /// Served arrival times (stream-frame indexed).
    times: &'a [f64],
    /// Global indices of the stream's root items (no dependencies), in
    /// item order: what one frame arrival makes ready.
    roots: Vec<u32>,
    /// Global indices of the stream's sink items (no dependents).
    sinks: Vec<u32>,
    /// Dense indices of the chiplets the stream's schedule uses.
    chiplets: Vec<usize>,
    /// Frames `0..arrived` have arrived.
    arrived: usize,
    /// Frames `0..started` have started a job. Frames start in frame
    /// order, since each root item starts its frames in order.
    started: usize,
    /// Frames `0..completed` have completed and streamed into `report`.
    completed: usize,
    /// Most frames ever started but not yet completed.
    peak_in_flight: usize,
    report: ReportBuilder,
}

/// The DES core. It holds no per-frame state: peak memory is
/// O(items + chiplets), whatever the frame count or backlog.
///
/// - Every chiplet serves each item's jobs in frame order. A root
///   item's frames become ready in arrival order; for a non-root item,
///   its frame-`f` dependencies complete before its frame-`f + 1` ones
///   (by induction), and `(frame, item)` priority then starts `(f, i)`
///   first. So one counter per item, `done[i]` = the stream frames item
///   `i` has completed, is the whole dependency state: job `(f, i)` is
///   ready exactly when every dependency `d` has `done[d] > f` (a root's
///   when frame `f` has arrived), and stream frame `f` completes exactly
///   when every sink item has `done > f`. Frames therefore complete,
///   and stream into the report, in frame order.
/// - Each chiplet's ready queue holds an item at most once, keyed by
///   its lowest ready job, so a queue never holds more entries than its
///   chiplet has items, whatever the backlog. The lowest ready job of
///   every item is queued, so the queue head is the earliest ready job
///   on the chiplet. One count per item, `waiting[i]` = its ready jobs
///   not yet started, decides the rest, for roots and non-roots alike: a
///   job that becomes ready (its frame arrives, for a root; its last
///   dependency completes the frame, otherwise) is queued if the count
///   was 0 and only counted otherwise, and when a queued job starts, its
///   item is queued again under the next frame while the count stays
///   positive, with no dependency re-check. Debug builds check on every
///   such start that a counted job is ready by the readiness rule. One
///   entry per ready job instead grows with the backlog: one chiplet's
///   queue reached 217 entries in `repro drive-long`, and 2,381 in a
///   20,000-frame saturated run of the matched `simba_6x6` schedule.
/// - Arrivals are walked with per-stream cursors, merged in
///   `(time, stream)` order and interleaved with the completion calendar
///   in time order instead of being heaped upfront, with arrivals
///   winning time ties.
/// - The completion [`Calendar`] is a vector of 32-byte events sorted
///   latest first, each one `u128` sort key (time bits in `total_cmp`
///   order, then a sequence number) and one `u128` packed job. A new
///   event usually lands a few slots from the earliest end, so placing
///   it is a short shift of one `u128` compare and one 32-byte move per
///   step.
/// - A job released onto a free chiplet starts at once when it beats
///   the chiplet's queue head — the job [`dispatch`](Engine::dispatch)
///   would pick — skipping the queue.
/// - Item ids are stream-offset into one global table (durations,
///   dependencies, dependents, chiplets), keeping the hot path dense,
///   and chiplet state is dense `Vec`s indexed by the sorted distinct
///   chiplet list.
/// - Chiplet busy time is global (a shared chiplet is busy no matter
///   whose frame it serves); each stream's report carries the busy
///   fractions of the chiplets **its** schedule uses, normalized by that
///   stream's own observed span.
/// - **A closed program runs one job per segment.** A chiplet that one
///   stream of the pass uses hosts a *closed program* when every item on
///   it depends only on items of the same chiplet — each camera's
///   FE+BiFPN backbone on its own chiplet, for example, or two cameras'
///   backbones on one. Its lowest item is then a root, the program's
///   *entry*; more roots may follow. Frame `f`'s items on the chiplet
///   run back to back in ascending index order: whenever one of them
///   completes, the chiplet's lowest unfinished frame-`f` item is ready
///   (its dependencies are lower items of the chiplet, or it is a root
///   of a frame that has arrived), and it beats the only other jobs the
///   chiplet can hold, later frames' roots. That order is cut into
///   *segments*, each ending at an *exit*: an item with a dependent on
///   another chiplet, or with none. A segment's inner items feed only
///   their own chiplet, so the engine starts each segment as one job,
///   an arrival queues only the program's entry, and the result is the
///   item-by-item run's bit for bit. [`Engine::new`] finds the programs
///   once per pass, from the pass's own tables; a program whose segments
///   are all single items runs as it would item by item, and is not
///   fused:
///   - The job's end is `((s + d1) + d2) + …`, the instants the items
///     would end at one by one, and `busy_time` adds each `d` in order.
///   - An inner item feeds only its own chiplet, so no other event
///     reads its state, and no event other than an arrival touches the
///     chiplet. The exit's completion releases its dependents on other
///     chiplets in ascending order, and starts the next segment at the
///     point of that order where the item-by-item run starts the next
///     item: at the first dependent on the chiplet that the exit makes
///     ready, else after the others.
///   - The run differs only at ties, which the engine detects instead
///     of ordering. **H1**: a frame arrives at an inner boundary of the
///     chiplet's running segment, or at the end of one that is not the
///     frame's last; item by item, the chiplet is free at that instant
///     and starts a waiting root first. **H2**: a segment of two
///     or more items ends at the instant of another pending completion;
///     its event took its sequence number when its first item started,
///     so an event started since then, before the last item, sorts after
///     it. The one exempt tie is a twin: a segment of the same shape in
///     the same stream. The twin that started first starts each of its
///     items first item by item too, so its last item ends first, as its
///     event does. A sub-duration that does not advance the clock counts
///     as a tie too.
///   - On the first tie the pass stops and runs again item by item, the
///     same engine with no program fused, so the result stays exact.
///     The builtin families meet no tie on the 6×6 package; random
///     dyadic programs and arrivals meet them often, and a property test
///     pins both runs against each other bit for bit.
///
///   The matched highway-cruise schedule on `simba_6x6` flattens to 721
///   items, 640 of them on its 8 FE chiplets, 2 segments each: about
///   100 jobs per frame.
struct Engine<'a> {
    // Global item tables (immutable during the run).
    /// Sorted distinct chiplets hosting work; dense index = position.
    chiplet_ids: Vec<ChipletId>,
    /// Dense chiplet index of each item.
    chiplet_of: Vec<u32>,
    /// Service time of each item in seconds.
    durations: Vec<f64>,
    /// Stream of each item.
    stream_of: Vec<u32>,
    /// Distinct dependencies of item `i`: `deps[deps_at[i]..deps_at[i + 1]]`.
    deps_at: Vec<u32>,
    deps: Vec<u32>,
    /// Distinct dependents of item `i`:
    /// `dependents[dependents_at[i]..dependents_at[i + 1]]`, ascending
    /// item order (edges never leave a stream).
    dependents_at: Vec<u32>,
    dependents: Vec<u32>,
    // Closed programs on the chiplets this pass runs segment by segment
    // (fused); the identity entries everywhere else.
    /// The next item of each item's segment; `NONE` at an exit.
    next: Vec<u32>,
    /// For an exit that is not its program's last: the next segment's
    /// head, which the exit's completion starts; `NONE` otherwise.
    then: Vec<u32>,
    /// The [`PROGRAM`], [`MULTI`] and [`THEN`] bits of the segment each
    /// item heads; 0 for an item that is a job of its own.
    segment: Vec<u8>,
    /// For an exit with a `then`: how many of its distinct dependents on
    /// other chiplets, in ascending order, an item-by-item run releases
    /// before it starts the next item on the chiplet.
    launch: Vec<u32>,
    /// For the exit of a segment of two or more items: an id such that
    /// exits with equal ids are twins, segments of one stream that run
    /// the same sub-durations bit for bit; `NONE` otherwise.
    shape: Vec<u32>,

    streams: Vec<Stream<'a>>,
    /// Stream frames each item has completed.
    done: Vec<u32>,
    /// Ready jobs of each item not yet started. An item sits in its
    /// chiplet's ready queue, under the lowest of them, exactly when it
    /// has one.
    waiting: Vec<u32>,
    /// Frames arrived over all streams: the next arrival's global frame.
    arrivals: u32,

    // Event calendar: item completions only.
    calendar: Calendar,
    seq: u64,
    /// Whether the calendar's earliest event is a completion already
    /// being processed: the next job started takes its slot, one
    /// placement instead of a pop and a push. Every event started
    /// meanwhile sorts after it, so the earliest cannot change first.
    top_done: bool,
    /// The next arrival in merged order: `(time, stream)`.
    next_arrival: Option<(f64, usize)>,

    // Per-chiplet executors (dense).
    /// Ready items per chiplet, each under its lowest ready job.
    queues: Vec<BinaryHeap<Job>>,
    busy_until: Vec<f64>,
    busy_time: Vec<f64>,
    /// Start instant and head of each chiplet's latest closed-program
    /// segment.
    seg_start: Vec<f64>,
    seg_head: Vec<u32>,
    /// Set by the first tie the segment-by-segment run cannot order as
    /// the item-by-item run would; the pass then stops.
    tie: bool,
}

impl<'a> Engine<'a> {
    /// `simulate` bounds the streams' total frame count below
    /// `u32::MAX`.
    ///
    /// `fuse` runs closed programs segment by segment; without it every
    /// item is a job of its own. The programs are found here, over every
    /// stream of the pass, in O(items + dependencies) apart from sorting
    /// the edges and the multi-item segments by shape.
    fn new(streams: &[Admitted<'a>], fuse: bool) -> Engine<'a> {
        let mut chiplet_ids: Vec<ChipletId> = streams
            .iter()
            .flat_map(|s| s.items.iter().map(|it| it.chiplet))
            .collect();
        chiplet_ids.sort_unstable();
        chiplet_ids.dedup();
        let dense = |c: ChipletId| {
            chiplet_ids
                .binary_search(&c)
                .expect("chiplet registered by prep") as u32
        };

        let n_items: usize = streams.iter().map(|s| s.items.len()).sum();
        let mut chiplet_of = Vec::with_capacity(n_items);
        let mut durations = Vec::with_capacity(n_items);
        let mut stream_of = Vec::with_capacity(n_items);
        let mut deps_at = Vec::with_capacity(n_items + 1);
        deps_at.push(0);
        let mut deps: Vec<u32> = Vec::new();
        // (dependency, dependent) of every distinct edge, ascending
        // dependent.
        let mut edges: Vec<(u32, u32)> = Vec::new();
        let mut states = Vec::with_capacity(streams.len());
        let mut offset = 0;
        for (k, s) in streams.iter().enumerate() {
            let mut roots = Vec::new();
            for (i, item) in s.items.iter().enumerate() {
                let c = dense(item.chiplet);
                chiplet_of.push(c);
                durations.push(item.duration.as_secs());
                stream_of.push(k as u32);
                // A dependency listed twice gates its dependent once.
                let mut ds: Vec<u32> = item.deps.iter().map(|&d| (offset + d) as u32).collect();
                ds.sort_unstable();
                ds.dedup();
                edges.extend(ds.iter().map(|&d| (d, (offset + i) as u32)));
                deps.extend(ds);
                deps_at.push(deps.len() as u32);
                if item.deps.is_empty() {
                    roots.push((offset + i) as u32);
                }
            }
            let mut chiplets: Vec<usize> =
                chiplet_of[offset..].iter().map(|&c| c as usize).collect();
            chiplets.sort_unstable();
            chiplets.dedup();
            states.push(Stream {
                times: s.times,
                roots,
                sinks: Vec::new(),
                chiplets,
                arrived: 0,
                started: 0,
                completed: 0,
                peak_in_flight: 0,
                report: ReportBuilder::new(s.times.len(), s.warmup, s.cutoff),
            });
            offset += s.items.len();
        }
        // A stable sort by dependency keeps each item's dependents in
        // ascending order.
        edges.sort_by_key(|&(d, _)| d);
        let mut feeds = vec![false; n_items];
        for &(d, _) in &edges {
            feeds[d as usize] = true;
        }
        for (i, _) in feeds.iter().enumerate().filter(|(_, &feeds)| !feeds) {
            states[stream_of[i] as usize].sinks.push(i as u32);
        }

        // A closed program is run segment by segment only on a chiplet
        // no other stream of the pass uses. A chiplet with an item that
        // reads another chiplet hosts no closed program.
        let n_chiplets = chiplet_ids.len();
        let mut users = vec![0u32; n_chiplets];
        for s in &states {
            for &c in &s.chiplets {
                users[c] += 1;
            }
        }
        let mut fused: Vec<bool> = users.iter().map(|&u| fuse && u == 1).collect();
        let mut feeds_off = vec![false; n_items];
        for &(d, i) in &edges {
            let c = chiplet_of[i as usize];
            if chiplet_of[d as usize] != c {
                feeds_off[d as usize] = true;
                fused[c as usize] = false;
            }
        }

        // Chain each fused chiplet's items in index order, cut after
        // each exit.
        let mut next = vec![NONE; n_items];
        let mut then = vec![NONE; n_items];
        let mut head: Vec<u32> = (0..n_items as u32).collect();
        let mut prev = vec![NONE; n_chiplets];
        let mut multi = vec![false; n_chiplets];
        for i in 0..n_items {
            let c = chiplet_of[i] as usize;
            if !fused[c] {
                continue;
            }
            let p = std::mem::replace(&mut prev[c], i as u32);
            if p == NONE {
                continue;
            }
            let p = p as usize;
            if feeds_off[p] || !feeds[p] {
                then[p] = i as u32;
            } else {
                next[p] = i as u32;
                head[i] = head[p];
                multi[c] = true;
            }
        }
        // A program of one-item segments runs as it would item by item.
        for (f, &multi) in fused.iter_mut().zip(&multi) {
            *f &= multi;
        }
        let mut segment = vec![0u8; n_items];
        for x in 0..n_items {
            if !fused[chiplet_of[x] as usize] {
                then[x] = NONE;
            } else if next[x] == NONE {
                let h = head[x] as usize;
                segment[h] = PROGRAM
                    | if h == x { 0 } else { MULTI }
                    | if then[x] == NONE { 0 } else { THEN };
            }
        }

        // An exit's completion makes ready each dependent on its chiplet
        // whose highest dependency it is; item by item, the first of them
        // (ascending) starts the chiplet's next item.
        let mut launch = vec![0; n_items];
        for run in edges.chunk_by(|a, b| a.0 == b.0) {
            let d = run[0].0;
            if then[d as usize] == NONE {
                continue;
            }
            let c = chiplet_of[d as usize];
            launch[d as usize] = run
                .iter()
                .map(|&(_, i)| i as usize)
                .take_while(|&i| chiplet_of[i] != c || deps[deps_at[i + 1] as usize - 1] != d)
                .filter(|&i| chiplet_of[i] != c)
                .count() as u32;
        }

        // Twins: multi-item segments of one stream with the same
        // sub-durations, found by sorting a hash of them and confirming
        // each against the first of its run. A collision is not a twin.
        let (head, next_of, secs) = (&head, &next, &durations);
        let bits = |x: usize| {
            let mut i = head[x];
            std::iter::from_fn(move || {
                let item = (i != NONE).then_some(i as usize)?;
                i = next_of[item];
                Some(secs[item].to_bits())
            })
        };
        let mut hashed: Vec<(u32, u64, u32)> = (0..n_items)
            .filter(|&x| next[x] == NONE && head[x] != x as u32)
            .map(|x| {
                let fnv1a = bits(x).fold(0xcbf2_9ce4_8422_2325, |h, b| {
                    (h ^ b).wrapping_mul(0x0000_0100_0000_01b3)
                });
                (stream_of[x], fnv1a, x as u32)
            })
            .collect();
        hashed.sort_unstable();
        let mut shape = vec![NONE; n_items];
        for run in hashed.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let first = run[0].2;
            for &(_, _, x) in run {
                let twin = bits(x as usize).eq(bits(first as usize));
                shape[x as usize] = if twin { first } else { x };
            }
        }

        // An arrival queues only a program's entry; its later roots start
        // in program order like its other items.
        let mut entered = vec![false; n_chiplets];
        for s in &mut states {
            s.roots.retain(|&r| {
                let c = chiplet_of[r as usize] as usize;
                !fused[c] || !std::mem::replace(&mut entered[c], true)
            });
        }
        // A segment's inner edges stay on its chiplet: the segment's
        // job walks them, and no completion releases them.
        edges.retain(|&(d, i)| {
            let c = chiplet_of[d as usize];
            !(fused[c as usize] && chiplet_of[i as usize] == c)
        });
        let dependents: Vec<u32> = edges.iter().map(|&(_, i)| i).collect();
        let mut dependents_at = vec![0u32; n_items + 1];
        for &(d, _) in &edges {
            dependents_at[d as usize + 1] += 1;
        }
        for i in 0..n_items {
            dependents_at[i + 1] += dependents_at[i];
        }

        let mut engine = Engine {
            chiplet_of,
            durations,
            stream_of,
            deps_at,
            deps,
            dependents_at,
            dependents,
            next,
            then,
            segment,
            launch,
            shape,
            streams: states,
            done: vec![0; n_items],
            waiting: vec![0; n_items],
            arrivals: 0,
            calendar: Calendar::default(),
            seq: 0,
            top_done: false,
            next_arrival: None,
            queues: (0..n_chiplets).map(|_| BinaryHeap::new()).collect(),
            // Free at any instant: arrival times may be negative.
            busy_until: vec![f64::NEG_INFINITY; n_chiplets],
            busy_time: vec![0.0; n_chiplets],
            seg_start: vec![0.0; n_chiplets],
            seg_head: vec![NONE; n_chiplets],
            tie: false,
            chiplet_ids,
        };
        engine.next_arrival = engine.peek_arrival();
        engine
    }

    /// Runs the pass to its end; `None` if it met a tie it cannot order
    /// as the item-by-item run would.
    fn run(mut self) -> Option<Vec<StreamOutcome>> {
        while !self.tie {
            // Interleave the arrival cursors with the completion calendar
            // in time order; `<=` lets arrivals win ties.
            let arrival_due = match (self.next_arrival, self.calendar.peek()) {
                (Some((t, _)), Some(top)) => t <= top.time(),
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if arrival_due {
                self.process_arrival();
            } else {
                self.process_completion();
            }
        }
        if self.tie {
            return None;
        }
        debug_assert!(
            self.streams
                .iter()
                .all(|s| s.started == s.times.len() && s.completed == s.times.len()),
            "all frames started and completed"
        );
        debug_assert!(
            self.queues.iter().all(BinaryHeap::is_empty),
            "every ready queue drained"
        );

        let (chiplet_ids, busy_time) = (&self.chiplet_ids, &self.busy_time);
        let outcomes = self
            .streams
            .into_iter()
            .map(|s| {
                // The stream's view of the silicon: total busy seconds of
                // each chiplet its schedule uses; the builder normalizes
                // by the stream's own observed span.
                let busy: BTreeMap<ChipletId, f64> = s
                    .chiplets
                    .iter()
                    .map(|&c| (chiplet_ids[c], busy_time[c]))
                    .collect();
                StreamOutcome {
                    flushed: s.report.flushed(),
                    peak_in_flight: s.peak_in_flight,
                    report: s.report.finish(&busy),
                }
            })
            .collect();
        Some(outcomes)
    }

    /// The earliest pending arrival over all streams, by `(time, stream)`.
    fn peek_arrival(&self) -> Option<(f64, usize)> {
        let mut next: Option<(f64, usize)> = None;
        for (k, s) in self.streams.iter().enumerate() {
            if let Some(&t) = s.times.get(s.arrived) {
                if next.is_none_or(|(nt, _)| t < nt) {
                    next = Some((t, k));
                }
            }
        }
        next
    }

    /// Admits the next merged frame: each of its stream's root items
    /// gains a ready job, queued under the frame unless the item is
    /// queued already; then each root's chiplet is offered a dispatch,
    /// in item order.
    fn process_arrival(&mut self) {
        let (now, k) = self.next_arrival.expect("arrival due");
        let local = self.streams[k].arrived as u32;
        self.streams[k].arrived += 1;
        for i in 0..self.streams[k].roots.len() {
            let item = self.streams[k].roots[i];
            if self.waiting[item as usize] > 0 {
                self.waiting[item as usize] += 1;
            } else {
                self.enqueue(Job {
                    frame: self.arrivals,
                    item,
                    local,
                });
            }
        }
        self.arrivals += 1;
        for i in 0..self.streams[k].roots.len() {
            let root = self.streams[k].roots[i] as usize;
            let c = self.chiplet_of[root] as usize;
            // A program's entry heads its first segment.
            if self.segment[root] != 0 && self.busy_until[c] > now && self.splits_segment(c, now) {
                self.tie = true;
            }
            self.dispatch(c, now);
        }
        self.next_arrival = self.peek_arrival();
    }

    /// Whether `now` is an inner boundary of busy chiplet `c`'s running
    /// segment: the instant one of its items ends and, item by item, the
    /// chiplet would be free to start an arriving frame first. Inner
    /// boundaries of an earlier segment all lie before `now`.
    fn splits_segment(&self, c: usize, now: f64) -> bool {
        let mut item = self.seg_head[c];
        let mut t = self.seg_start[c];
        while item != NONE && self.next[item as usize] != NONE {
            t += self.durations[item as usize];
            if t >= now {
                return t == now;
            }
            item = self.next[item as usize];
        }
        false
    }

    /// Queues `job` on its chiplet: the lowest ready job of an item that
    /// has no other.
    fn enqueue(&mut self, job: Job) {
        let c = self.chiplet_of[job.item as usize] as usize;
        debug_assert!(
            self.queues[c].iter().all(|j| j.item != job.item),
            "an item is queued at most once"
        );
        self.waiting[job.item as usize] = 1;
        self.queues[c].push(job);
    }

    /// Starts the earliest ready job on chiplet `c` if it is free.
    #[inline]
    fn dispatch(&mut self, c: usize, now: f64) {
        if self.busy_until[c] <= now {
            self.start_head(c, now);
        }
    }

    /// Starts free chiplet `c`'s queue head, then queues its item again
    /// under its next frame if that one is ready too. The first job of a
    /// frame is a root, and a root's jobs always pass through the queue,
    /// so only here can a frame start.
    fn start_head(&mut self, c: usize, now: f64) {
        let Some(job) = self.queues[c].pop() else {
            return;
        };
        self.start_any(c, job, now);
        let item = job.item as usize;
        let k = self.stream_of[item] as usize;
        let f = job.local as usize;
        if self.deps_at[item] == self.deps_at[item + 1] {
            let stream = &mut self.streams[k];
            if f == stream.started {
                stream.started += 1;
                stream.peak_in_flight =
                    stream.peak_in_flight.max(stream.started - stream.completed);
            }
        }
        self.waiting[item] -= 1;
        // Not the converse: within one completion, a dependent's next
        // frame can be ready before the loop reaches and counts it.
        debug_assert!(
            self.waiting[item] == 0 || self.is_ready(item, f + 1),
            "a counted job is ready"
        );
        if self.waiting[item] > 0 {
            let next = Job {
                frame: global_frame(&self.streams, k, f + 1),
                item: job.item,
                local: job.local + 1,
            };
            self.queues[c].push(next);
        }
    }

    /// The readiness rule: stream frame `f` of `item` is ready once it has
    /// arrived, for a root, or once every dependency has completed it.
    fn is_ready(&self, item: usize, f: usize) -> bool {
        let deps = &self.deps[self.deps_at[item] as usize..self.deps_at[item + 1] as usize];
        if deps.is_empty() {
            f < self.streams[self.stream_of[item] as usize].arrived
        } else {
            deps.iter().all(|&d| self.done[d as usize] as usize > f)
        }
    }

    /// Offers a job its last dependency just released, its item's only
    /// ready job: it starts at once if its chiplet is free and it beats
    /// the queue head — the job the queue would hand out next anyway —
    /// and waits in the queue otherwise.
    fn release(&mut self, job: Job, now: f64) {
        let c = self.chiplet_of[job.item as usize] as usize;
        if self.busy_until[c] <= now && self.queues[c].peek().is_none_or(|h| job.key() < h.key()) {
            // The dependency that released it has not completed the next
            // frame, so the item has no other ready job. It heads no
            // segment: a closed program's items are never released.
            debug_assert!(!self.is_ready(job.item as usize, job.local as usize + 1));
            debug_assert_eq!(self.segment[job.item as usize], 0);
            self.start(c, job, now);
        } else {
            self.enqueue(job);
            self.dispatch(c, now);
        }
    }

    /// Starts `job`, one item, on free chiplet `c`.
    fn start(&mut self, c: usize, job: Job, now: f64) {
        let dur = self.durations[job.item as usize];
        self.busy_time[c] += dur;
        self.schedule(c, now + dur, job, 0);
    }

    /// Starts `job` on free chiplet `c`: one item, or the whole segment
    /// its item heads.
    fn start_any(&mut self, c: usize, job: Job, now: f64) {
        match self.segment[job.item as usize] {
            0 => self.start(c, job, now),
            segment => self.start_segment(c, job, now, segment),
        }
    }

    /// Starts the segment headed by `job`'s item on free chiplet `c`. Its
    /// event completes the segment's exit at the instant the items'
    /// durations, added one at a time, reach.
    #[inline(never)]
    fn start_segment(&mut self, c: usize, job: Job, now: f64, segment: u8) {
        self.seg_start[c] = now;
        self.seg_head[c] = job.item;
        let mut item = job.item as usize;
        let mut end = now;
        loop {
            let dur = self.durations[item];
            let at = end;
            end = at + dur;
            self.busy_time[c] += dur;
            // An item that does not advance the clock leaves the chiplet
            // free at the instant it started: item by item, another job
            // can start there, and events can order between it and its
            // neighbours.
            self.tie |= end <= at || end.is_nan();
            match self.next[item] {
                NONE => break,
                next => item = next as usize,
            }
        }
        let exit = Job {
            item: item as u32,
            ..job
        };
        self.schedule(c, end, exit, segment);
    }

    /// Books chiplet `c` until `end` and puts the completion of `job`,
    /// which ran a segment with the given bits, on the calendar.
    fn schedule(&mut self, c: usize, end: f64, job: Job, segment: u8) {
        self.busy_until[c] = end;
        self.seq += 1;
        let event = Scheduled::new(end, self.seq, job, segment);
        if std::mem::take(&mut self.top_done) {
            self.calendar.replace_top(event);
        } else {
            self.calendar.push(event);
        }
    }

    fn process_completion(&mut self) {
        let event = *self.calendar.peek().expect("completion event due");
        let (time, job, segment) = (event.time(), event.job(), event.segment());
        if segment & MULTI != 0 && !self.exit_keeps_its_turn(&event) {
            self.tie = true;
            return;
        }
        self.top_done = true;
        let item = job.item as usize;
        let f = job.local;
        debug_assert_eq!(self.done[item], f, "an item completes its frames in order");
        self.done[item] = f + 1;
        let (first, last) = (self.dependents_at[item], self.dependents_at[item + 1]);
        if first == last {
            self.complete_sink(item, f as usize, time);
        }
        if segment & THEN == 0 {
            for di in first..last {
                self.release_dependent(di as usize, job, time);
            }
        } else {
            let launch_at = first + self.launch[item];
            for di in first..launch_at {
                self.release_dependent(di as usize, job, time);
            }
            // The rest of the frame's program, which item by item would
            // start at this point in the release order.
            let c = self.chiplet_of[item] as usize;
            self.tie |= self.busy_until[c] > time;
            let next = Job {
                item: self.then[item],
                ..job
            };
            self.start_any(c, next, time);
            for di in launch_at..last {
                self.release_dependent(di as usize, job, time);
            }
        }
        self.dispatch(self.chiplet_of[item] as usize, time);
        if std::mem::take(&mut self.top_done) {
            self.calendar.pop();
        }
    }

    /// Offers the `di`-th dependent edge's item its frame of `job`, which
    /// just completed, if that was its last dependency.
    #[inline]
    fn release_dependent(&mut self, di: usize, job: Job, time: f64) {
        let f = job.local;
        let succ = self.dependents[di] as usize;
        let deps = self.deps_at[succ] as usize..self.deps_at[succ + 1] as usize;
        if !self.deps[deps].iter().all(|&d| self.done[d as usize] > f) {
            return;
        }
        if self.waiting[succ] > 0 {
            // Its lowest ready job is queued already. A release onto a
            // free chiplet starts the queue head, so offer one here too.
            self.waiting[succ] += 1;
            self.dispatch(self.chiplet_of[succ] as usize, time);
        } else {
            let next = Job {
                item: succ as u32,
                ..job
            };
            self.release(next, time);
        }
    }

    /// Whether `exit`, the completion of a segment of two or more items
    /// and the calendar's earliest event, is processed where its last
    /// item's completion would be item by item. That holds unless
    /// another completion is pending at the same instant: the segment's
    /// event took its sequence number when its first item started, and
    /// an event started since, before its last item, now sorts after
    /// it. The one such tie that keeps the order is a twin: a segment of
    /// the same shape in the same stream. `exit`'s segment started
    /// first, its event sorting first, so item by item it starts every
    /// item first too: each of its items ends no later than the twin's,
    /// and at an equal instant first by sequence number. So its last
    /// item completes first, as its event does.
    fn exit_keeps_its_turn(&self, exit: &Scheduled) -> bool {
        let v = &self.calendar.v;
        let Some(other) = v.len().checked_sub(2).map(|i| &v[i]) else {
            return true;
        };
        other.key >> 64 != exit.key >> 64
            || self.shape[exit.job().item as usize] == self.shape[other.job().item as usize]
    }

    /// A sink item completed stream frame `f`: the frame is done once
    /// every sink of its stream has completed it.
    fn complete_sink(&mut self, item: usize, f: usize, time: f64) {
        let done = &self.done;
        let s = &mut self.streams[self.stream_of[item] as usize];
        if s.sinks.iter().all(|&i| done[i as usize] as usize > f) {
            debug_assert_eq!(s.completed, f, "frames complete in frame order");
            s.report.record(f, s.times[f], time);
            s.completed += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use npu_dnn::models::attention::{fusion_block, FusionConfig};
    use npu_dnn::StageKind;
    use npu_maestro::FittedMaestro;
    use npu_sched::{LayerPlan, ModelPlan, StagePlan};
    use npu_tensor::Seconds;

    /// The steady-state report of `schedule` under `cfg`, through
    /// [`simulate`].
    fn run_cfg(
        schedule: &Schedule,
        pkg: &McmPackage,
        model: &dyn CostModel,
        cfg: &SimConfig,
    ) -> SimReport {
        let mut reports =
            simulate(&[cfg.phase(schedule)], pkg, model, cfg.dtype).expect("a valid stream");
        reports.remove(0).report
    }

    /// Small-run warmup clamping: a quarter of the run per end, capped
    /// at 4, so `frames ≤ 4` never trims the window away.
    #[test]
    fn default_warmup_clamps_small_runs() {
        for (frames, expected) in [
            (0, 0),
            (1, 0),
            (2, 0),
            (3, 0),
            (4, 1),
            (8, 2),
            (12, 3),
            (16, 4),
            (1000, 4),
        ] {
            assert_eq!(
                SimConfig::saturated(frames).warmup,
                expected,
                "saturated({frames})"
            );
            assert_eq!(
                SimConfig::camera(frames, 30.0).warmup,
                expected,
                "camera({frames})"
            );
        }
    }

    /// A `frames ≤ 4` saturation run keeps a non-degenerate window: the
    /// interval comes from real completion deltas, not the fallback.
    #[test]
    fn four_frame_run_measures_a_real_interval() {
        let g = fusion_block(&FusionConfig::spatial_default());
        let pkg = McmPackage::simba_6x6();
        let model = FittedMaestro::new();
        let schedule = Schedule {
            stages: vec![StagePlan {
                kind: StageKind::SpatialFusion,
                models: vec![ModelPlan::on_single_chiplet("s", g, ChipletId(0))],
                region: vec![ChipletId(0)],
            }],
        };
        let rep = run_cfg(&schedule, &pkg, &model, &SimConfig::saturated(4));
        // warmup = 1 per end: two frames stay measurable.
        assert_eq!(rep.measured_frames, 2);
        let analytic = npu_sched::evaluate(&schedule, &pkg, &model, Dtype::Fp16).pipe;
        let rel = (rep.steady_interval.as_secs() / analytic.as_secs() - 1.0).abs();
        assert!(
            rel < 1e-9,
            "DES {} vs analytic {}",
            rep.steady_interval,
            analytic
        );
    }

    /// A chain on a single chiplet: interval must equal the serial sum.
    #[test]
    fn single_chiplet_chain_interval_is_serial_sum() {
        let g = fusion_block(&FusionConfig::spatial_default());
        let pkg = McmPackage::simba_6x6();
        let model = FittedMaestro::new();
        let schedule = Schedule {
            stages: vec![StagePlan {
                kind: StageKind::SpatialFusion,
                models: vec![ModelPlan::on_single_chiplet("s", g, ChipletId(0))],
                region: vec![ChipletId(0)],
            }],
        };
        let rep = run_cfg(&schedule, &pkg, &model, &SimConfig::saturated(8));
        let analytic = npu_sched::evaluate(&schedule, &pkg, &model, Dtype::Fp16).pipe;
        let rel = (rep.steady_interval.as_secs() / analytic.as_secs() - 1.0).abs();
        assert!(
            rel < 1e-9,
            "DES {} vs analytic {}",
            rep.steady_interval,
            analytic
        );
    }

    /// Two chiplets in a chain pipeline at the busier one's rate.
    #[test]
    fn two_stage_chain_pipelines() {
        let g = fusion_block(&FusionConfig::spatial_default());
        let pkg = McmPackage::simba_6x6();
        let model = FittedMaestro::new();
        // qkv on c0, everything else on c1.
        let mut mp = ModelPlan::on_single_chiplet("s", g.clone(), ChipletId(1));
        let qkv = g.find("s_fuse.qkv").unwrap();
        *mp.layer_plan_mut(qkv) = LayerPlan::single(g.layer(qkv).clone(), ChipletId(0));
        let schedule = Schedule {
            stages: vec![StagePlan {
                kind: StageKind::SpatialFusion,
                models: vec![mp],
                region: vec![ChipletId(0), ChipletId(1)],
            }],
        };
        let rep = run_cfg(&schedule, &pkg, &model, &SimConfig::saturated(12));
        let analytic = npu_sched::evaluate(&schedule, &pkg, &model, Dtype::Fp16).pipe;
        let rel = (rep.steady_interval.as_secs() / analytic.as_secs() - 1.0).abs();
        assert!(
            rel < 0.02,
            "DES {} vs analytic {}",
            rep.steady_interval,
            analytic
        );
        // Latency of one frame exceeds the interval (pipelining).
        assert!(rep.mean_latency > rep.steady_interval);
    }

    /// Jittered arrivals stay deterministic per seed and do not change
    /// the saturation throughput.
    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let g = fusion_block(&FusionConfig::spatial_default());
        let pkg = McmPackage::simba_6x6();
        let model = FittedMaestro::new();
        let schedule = Schedule {
            stages: vec![StagePlan {
                kind: StageKind::SpatialFusion,
                models: vec![ModelPlan::on_single_chiplet("s", g, ChipletId(0))],
                region: vec![ChipletId(0)],
            }],
        };
        let cfg = SimConfig::camera(10, 2.0).with_jitter(0.2, 42);
        let a = run_cfg(&schedule, &pkg, &model, &cfg);
        let b = run_cfg(&schedule, &pkg, &model, &cfg);
        assert_eq!(a, b, "same seed, same result");
        let other = run_cfg(
            &schedule,
            &pkg,
            &model,
            &SimConfig::camera(10, 2.0).with_jitter(0.2, 7),
        );
        // Jittered completions shift the measured interval per seed.
        assert_ne!(a.steady_interval, other.steady_interval, "seed matters");
        // Jitter shifts arrivals by < one interval: latency stays sane.
        assert!(a.max_latency.as_secs() < 1.5);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn camera_rejects_zero_fps() {
        let _ = SimConfig::camera(8, 0.0);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn camera_rejects_non_finite_fps() {
        let _ = SimConfig::camera(8, f64::INFINITY);
    }

    /// Out-of-range jitter fractions clamp into `[0, 1)` instead of
    /// poisoning arrival times (NaN clamps to zero).
    #[test]
    fn jitter_fraction_is_clamped() {
        let frac = |cfg: &SimConfig| match cfg.arrivals {
            Arrivals::Jittered { frac, .. } => frac,
            ref a => panic!("expected jittered arrivals, got {a:?}"),
        };
        let base = || SimConfig::camera(8, 30.0);
        assert_eq!(frac(&base().with_jitter(1.5, 0)), Arrivals::MAX_JITTER);
        assert_eq!(frac(&base().with_jitter(-0.3, 0)), 0.0);
        assert_eq!(frac(&base().with_jitter(f64::NAN, 0)), 0.0);
        assert_eq!(frac(&base().with_jitter(0.25, 0)), 0.25);
        // Every clamped config expands to finite arrival times.
        for cfg in [base().with_jitter(1.5, 1), base().with_jitter(f64::NAN, 1)] {
            assert!(cfg.arrivals.times(cfg.frames).iter().all(|t| t.is_finite()));
        }
        // Saturation has no interval to jitter: unchanged.
        let sat = SimConfig::saturated(8).with_jitter(0.5, 1);
        assert_eq!(sat.arrivals, Arrivals::Saturated);
    }

    /// Bursty arrivals: the steady interval settles at the mean burst
    /// rate when the pipeline keeps up.
    #[test]
    fn bursty_arrivals_settle_at_mean_rate() {
        let g = fusion_block(&FusionConfig::spatial_default());
        let pkg = McmPackage::simba_6x6();
        let model = FittedMaestro::new();
        let schedule = Schedule {
            stages: vec![StagePlan {
                kind: StageKind::SpatialFusion,
                models: vec![ModelPlan::on_single_chiplet("s", g, ChipletId(0))],
                region: vec![ChipletId(0)],
            }],
        };
        // Bursts of 4 frames every 4 s: mean interval 1 s, and both the
        // 0.4 s intra-burst spacing and the inter-burst gap exceed the
        // ~366 ms service time, so every frame is arrival-limited. 17
        // frames with the default warmup of 4 puts the measured window at
        // frames 4..=12 — exactly two whole bursts, so the windowed
        // interval estimator sees the mean rate with no phase bias.
        let arrivals = Arrivals::Bursty {
            period: Seconds::new(4.0),
            burst: 4,
            intra: Seconds::new(0.4),
        };
        let rep = run_cfg(
            &schedule,
            &pkg,
            &model,
            &SimConfig::with_arrivals(17, arrivals.clone()),
        );
        let mean = arrivals.mean_interval().unwrap().as_secs();
        let rel = (rep.steady_interval.as_secs() / mean - 1.0).abs();
        assert!(rel < 1e-9, "DES {} vs mean {}", rep.steady_interval, mean);
    }

    /// Trace replay reproduces recorded arrival times exactly.
    #[test]
    fn trace_replay_is_exact_and_deterministic() {
        let g = fusion_block(&FusionConfig::spatial_default());
        let pkg = McmPackage::simba_6x6();
        let model = FittedMaestro::new();
        let schedule = Schedule {
            stages: vec![StagePlan {
                kind: StageKind::SpatialFusion,
                models: vec![ModelPlan::on_single_chiplet("s", g, ChipletId(0))],
                region: vec![ChipletId(0)],
            }],
        };
        let trace = Arrivals::trace(vec![
            Seconds::new(0.0),
            Seconds::new(0.5),
            Seconds::new(1.2),
            Seconds::new(2.0),
        ]);
        let cfg = SimConfig::with_arrivals(8, trace);
        let a = run_cfg(&schedule, &pkg, &model, &cfg);
        let b = run_cfg(&schedule, &pkg, &model, &cfg);
        assert_eq!(a, b, "trace replay is deterministic");
        assert!(a.measured_frames > 0);
    }

    /// Regression (ISSUE 8): busy fractions must divide by the run's
    /// observed span, not the absolute completion clock. A phase starting
    /// at t ≫ 0 used to underreport utilization by its offset — the same
    /// workload shifted 100 s later looked ~100× idler.
    #[test]
    fn busy_fraction_is_offset_invariant() {
        let g = fusion_block(&FusionConfig::spatial_default());
        let pkg = McmPackage::simba_6x6();
        let model = FittedMaestro::new();
        let schedule = Schedule {
            stages: vec![StagePlan {
                kind: StageKind::SpatialFusion,
                models: vec![ModelPlan::on_single_chiplet("s", g, ChipletId(0))],
                region: vec![ChipletId(0)],
            }],
        };
        let times: Vec<f64> = (0..8).map(|f| f as f64 * 0.5).collect();
        let phase_at = |offset: f64| SimPhase {
            schedule: &schedule,
            times: times.iter().map(|t| t + offset).collect(),
            readiness: Readiness::Barrier(offset),
            warmup: Some(1),
            cutoff: None,
        };
        let base = &simulate_phases(&[phase_at(0.0)], &pkg, &model, Dtype::Fp16)[0];
        let late = &simulate_phases(&[phase_at(100.0)], &pkg, &model, Dtype::Fp16)[0];
        let b0 = base.report.busy_fraction(ChipletId(0)).unwrap();
        let b1 = late.report.busy_fraction(ChipletId(0)).unwrap();
        assert!(b0 > 0.1, "workload keeps the chiplet visibly busy: {b0}");
        // Equal up to the rounding of (100 + c) - (100 + a); the old
        // makespan-normalized code reported b1 ≈ b0 / 26 here.
        assert!(
            (b1 / b0 - 1.0).abs() < 1e-9,
            "offset by 100 s changed utilization: {b0} vs {b1}"
        );
    }

    /// A phase whose frames all land inside the re-match window serves
    /// nothing: `served()` is 0 and the report is the zero-frame report,
    /// with no O(frames) scratch behind it.
    #[test]
    fn all_frames_dropped_phase_reports_zero() {
        let g = fusion_block(&FusionConfig::spatial_default());
        let pkg = McmPackage::simba_6x6();
        let model = FittedMaestro::new();
        let schedule = Schedule {
            stages: vec![StagePlan {
                kind: StageKind::SpatialFusion,
                models: vec![ModelPlan::on_single_chiplet("s", g, ChipletId(0))],
                region: vec![ChipletId(0)],
            }],
        };
        let phase = SimPhase {
            schedule: &schedule,
            times: vec![0.0, 0.1, 0.2],
            readiness: Readiness::Barrier(1.0),
            warmup: Some(1),
            cutoff: None,
        };
        let rep = &simulate_phases(&[phase], &pkg, &model, Dtype::Fp16)[0];
        assert_eq!(rep.offered, 3);
        assert_eq!(rep.dropped, 3);
        assert_eq!(rep.served(), 0);
        assert_eq!(rep.report.measured_frames, 0);
        assert!(rep.report.steady_interval.is_zero());
        assert_eq!(rep.report.busy_fraction(ChipletId(0)), Some(0.0));
    }

    /// The admission gate charges each stalled chiplet's ready time
    /// minus its earliest wavefront offset, clamped to the switch
    /// instant, and ignores stalled chiplets hosting no work.
    #[test]
    fn admission_gate_uses_the_wavefront_offset() {
        use npu_sched::SimItem;
        // c0 feeds c1: a frame reaches c1 only 0.3 s after arrival.
        let items = vec![
            SimItem {
                chiplet: ChipletId(0),
                duration: Seconds::new(0.3),
                deps: vec![],
            },
            SimItem {
                chiplet: ChipletId(1),
                duration: Seconds::new(0.1),
                deps: vec![0],
            },
        ];
        let gate = |ready: Vec<(ChipletId, f64)>| {
            admission_gate(&items, &Readiness::PerChiplet { at: 5.0, ready })
        };
        // Barrier passes through untouched.
        assert_eq!(admission_gate(&items, &Readiness::Barrier(7.5)), 7.5);
        // The downstream chiplet's reload hides behind the wavefront:
        // a frame admitted at 5.0 cannot touch c1 before 5.3.
        assert_eq!(gate(vec![(ChipletId(1), 5.2)]), 5.0);
        // Only the excess over the offset gates admission.
        assert!((gate(vec![(ChipletId(1), 5.4)]) - 5.1).abs() < 1e-12);
        // An entry chiplet has no offset to hide behind: full charge.
        assert_eq!(gate(vec![(ChipletId(0), 5.4)]), 5.4);
        // A stalled chiplet hosting no items gates nothing.
        assert_eq!(gate(vec![(ChipletId(9), 99.0)]), 5.0);
        // The gate is the max over all stalled chiplets.
        assert_eq!(gate(vec![(ChipletId(0), 5.4), (ChipletId(1), 5.2)]), 5.4);
    }

    /// A make-before-break handover that stalls only a downstream
    /// chiplet admits frames the package-wide barrier would drop; one
    /// that stalls the entry chiplet degenerates to the barrier.
    #[test]
    fn make_before_break_admits_earlier_than_the_barrier() {
        let g = fusion_block(&FusionConfig::spatial_default());
        let pkg = McmPackage::simba_6x6();
        let model = FittedMaestro::new();
        // Trunk on c0 (~360 ms of wavefront offset), output compression
        // on c1.
        let mut mp = ModelPlan::on_single_chiplet("s", g.clone(), ChipletId(0));
        let out = g.find("s_fuse.compress").unwrap();
        *mp.layer_plan_mut(out) = LayerPlan::single(g.layer(out).clone(), ChipletId(1));
        let schedule = Schedule {
            stages: vec![StagePlan {
                kind: StageKind::SpatialFusion,
                models: vec![mp],
                region: vec![ChipletId(0), ChipletId(1)],
            }],
        };
        let times: Vec<f64> = (0..8).map(|f| f as f64 * 0.025).collect();
        let run = |readiness: Readiness| {
            let phase = SimPhase {
                schedule: &schedule,
                times: times.clone(),
                readiness,
                warmup: Some(0),
                cutoff: None,
            };
            simulate_phases(&[phase], &pkg, &model, Dtype::Fp16)[0].clone()
        };
        let barrier = run(Readiness::Barrier(0.1));
        assert_eq!(barrier.dropped, 4, "frames before 0.1 s die at the barrier");
        // The same 0.1 s reload on the downstream chiplet hides entirely
        // behind the trunk's wavefront offset: nothing is dropped.
        let mbb = run(Readiness::PerChiplet {
            at: 0.0,
            ready: vec![(ChipletId(1), 0.1)],
        });
        assert_eq!(mbb.dropped, 0);
        assert_eq!(mbb.admitted_from, 0.0);
        assert!(mbb.served() > barrier.served());
        // Stalling the entry chiplet leaves no offset to hide behind —
        // bit-identical to the barrier.
        let entry = run(Readiness::PerChiplet {
            at: 0.0,
            ready: vec![(ChipletId(0), 0.1)],
        });
        assert_eq!(entry.dropped, barrier.dropped);
        assert_eq!(entry.report, barrier.report);
    }

    /// A boundary cutoff flushes frames still in flight at the instant
    /// the package quiesces, and the accounting balances:
    /// `offered == served + dropped + flushed`.
    #[test]
    fn boundary_cutoff_flushes_in_flight_frames() {
        let g = fusion_block(&FusionConfig::spatial_default());
        let pkg = McmPackage::simba_6x6();
        let model = FittedMaestro::new();
        let schedule = Schedule {
            stages: vec![StagePlan {
                kind: StageKind::SpatialFusion,
                models: vec![ModelPlan::on_single_chiplet("s", g, ChipletId(0))],
                region: vec![ChipletId(0)],
            }],
        };
        // Four frames offered at t = 0 against a ~366 ms service time:
        // completions land near 0.37/0.73/1.10/1.46 s.
        let run = |cutoff: Option<f64>| {
            let phase = SimPhase {
                schedule: &schedule,
                times: vec![0.0; 4],
                readiness: Readiness::Barrier(0.0),
                warmup: Some(0),
                cutoff,
            };
            simulate_phases(&[phase], &pkg, &model, Dtype::Fp16)[0].clone()
        };
        let drain = run(None);
        assert_eq!((drain.dropped, drain.flushed, drain.served()), (0, 0, 4));
        let flushed = run(Some(0.8));
        assert_eq!(flushed.offered, 4);
        assert_eq!(flushed.dropped, 0);
        assert_eq!(flushed.flushed, 2, "two frames were in flight at 0.8 s");
        assert_eq!(
            flushed.offered,
            flushed.served() + flushed.dropped + flushed.flushed
        );
        // Flushed frames leave the steady-state window: the surviving
        // statistics cover only frames that completed before the cutoff.
        assert_eq!(flushed.report.measured_frames, 2);
        assert!(flushed.report.max_latency < drain.report.max_latency);
    }

    /// The frames in flight stay bounded by the schedule's natural
    /// pipelining depth even when every frame is offered at t = 0, as
    /// long as the entry stage is the bottleneck. (With an unthrottled
    /// downstream bottleneck WIP genuinely accumulates, and the peak
    /// tracks that real occupancy.)
    #[test]
    fn saturated_pool_stays_bounded() {
        let g = fusion_block(&FusionConfig::spatial_default());
        let pkg = McmPackage::simba_6x6();
        let model = FittedMaestro::new();
        // Heavy trunk on chiplet 0 (the entry bottleneck), the cheap
        // output compression on chiplet 1: frames drain as fast as they
        // clear the trunk, so only a couple are ever in flight.
        let mut mp = ModelPlan::on_single_chiplet("s", g.clone(), ChipletId(0));
        let out = g.find("s_fuse.compress").unwrap();
        *mp.layer_plan_mut(out) = LayerPlan::single(g.layer(out).clone(), ChipletId(1));
        let schedule = Schedule {
            stages: vec![StagePlan {
                kind: StageKind::SpatialFusion,
                models: vec![mp],
                region: vec![ChipletId(0), ChipletId(1)],
            }],
        };
        let cfg = SimConfig::saturated(2_000);
        let rep = simulate(&[cfg.phase(&schedule)], &pkg, &model, cfg.dtype)
            .expect("a valid stream")
            .remove(0);
        assert_eq!(rep.offered, 2_000);
        assert!(rep.report.measured_frames > 0);
        assert!(
            (1..=4).contains(&rep.peak_in_flight),
            "an entry-bottleneck pipeline keeps a couple of frames in flight, got {}",
            rep.peak_in_flight
        );
    }

    /// The benchmark shim is [`simulate`] of [`SimConfig::phase`], bit for
    /// bit: the report and every [`EngineStats`] field.
    #[test]
    fn simulate_with_stats_is_simulate_of_the_config_phase() {
        let g = fusion_block(&FusionConfig::spatial_default());
        let pkg = McmPackage::simba_6x6();
        let model = FittedMaestro::new();
        let mut mp = ModelPlan::on_single_chiplet("s", g.clone(), ChipletId(0));
        let qkv = g.find("s_fuse.qkv").unwrap();
        *mp.layer_plan_mut(qkv) = LayerPlan::single(g.layer(qkv).clone(), ChipletId(1));
        let schedule = Schedule {
            stages: vec![StagePlan {
                kind: StageKind::SpatialFusion,
                models: vec![mp],
                region: vec![ChipletId(0), ChipletId(1)],
            }],
        };
        for cfg in [
            SimConfig::saturated(40),
            SimConfig::camera(24, 4.0).with_jitter(0.3, 11),
        ] {
            let (report, stats) = simulate_with_stats(&schedule, &pkg, &model, &cfg);
            let rep = simulate(&[cfg.phase(&schedule)], &pkg, &model, cfg.dtype)
                .expect("a valid stream")
                .remove(0);
            assert_eq!(format!("{report:?}"), format!("{:?}", rep.report));
            assert_eq!(
                stats,
                EngineStats {
                    frames: rep.offered,
                    peak_in_flight: rep.peak_in_flight,
                    flushed: rep.flushed,
                }
            );
            assert!(stats.peak_in_flight > 1, "frames overlap in flight");
        }
    }

    /// One stream of `items` through one engine pass: its report, flushed
    /// frames and peak in-flight frames.
    fn run_items(items: &[SimItem], times: &[f64]) -> (SimReport, usize, usize) {
        let admitted = Admitted {
            items,
            times,
            warmup: SimConfig::default_warmup(times.len()),
            cutoff: None,
        };
        let out = run_pass(&[admitted]).0.pop().expect("one stream");
        (out.report, out.flushed, out.peak_in_flight)
    }

    /// Asserts `items` carry a duplicated dependency and simulate
    /// bit-identically with the duplicates removed.
    fn assert_duplicates_are_inert(items: &[SimItem]) {
        let distinct: Vec<SimItem> = items
            .iter()
            .cloned()
            .map(|mut it| {
                it.deps.sort_unstable();
                it.deps.dedup();
                it
            })
            .collect();
        assert!(
            items
                .iter()
                .zip(&distinct)
                .any(|(a, b)| a.deps.len() > b.deps.len()),
            "the items carry a duplicated dependency"
        );
        // Arrivals well inside the pipe, so frames overlap in flight.
        let times: Vec<f64> = (0..40).map(|f| f as f64 * 0.01).collect();
        let (dup, flushed_dup, peak_dup) = run_items(items, &times);
        let (dedup, flushed, peak) = run_items(&distinct, &times);
        assert!(peak > 1, "frames overlap: {peak}");
        assert_eq!((flushed_dup, peak_dup), (flushed, peak));
        assert_eq!(format!("{dup:?}"), format!("{dedup:?}"));
    }

    /// A dependency listed twice gates its dependent exactly like one
    /// listed once, including when it is the last to complete. The real
    /// FE+BiFPN graph carries such duplicates: the bottom-up `add` of the
    /// top scale takes `levels[i]` and `td[i]`, the same layer there.
    #[test]
    fn duplicate_dependencies_gate_like_distinct_ones() {
        use npu_dnn::models::{fe_bfpn, BifpnConfig, FeConfig};
        let item = |chiplet: u32, secs: f64, deps: Vec<usize>| SimItem {
            chiplet: ChipletId(chiplet),
            duration: Seconds::new(secs),
            deps,
        };
        // The slow root on c0 completes after the fast one on c1, so the
        // join's duplicated dependency is the one that releases it.
        assert_duplicates_are_inert(&[
            item(0, 0.03, vec![]),
            item(1, 0.01, vec![]),
            item(2, 0.02, vec![1, 0, 0]),
        ]);

        let g = fe_bfpn(&FeConfig::default(), &BifpnConfig::default());
        let pkg = McmPackage::simba_6x6();
        let model = FittedMaestro::new();
        // Layers dealt round-robin over three chiplets, so jobs of
        // several frames interleave on every chiplet.
        let region: Vec<ChipletId> = (0..3).map(ChipletId).collect();
        let mut mp = ModelPlan::on_single_chiplet("fe", g.clone(), region[0]);
        for (id, layer) in g.iter() {
            *mp.layer_plan_mut(id) = LayerPlan::single(layer.clone(), region[id.index() % 3]);
        }
        let schedule = Schedule {
            stages: vec![StagePlan {
                kind: StageKind::FeatureExtraction,
                models: vec![mp],
                region,
            }],
        };
        assert_duplicates_are_inert(&flatten_items(&schedule, &pkg, &model, Dtype::Fp16));
    }

    /// With slow arrivals the pipeline is arrival-limited.
    #[test]
    fn arrival_limited_at_low_fps() {
        let g = fusion_block(&FusionConfig::spatial_default());
        let pkg = McmPackage::simba_6x6();
        let model = FittedMaestro::new();
        let schedule = Schedule {
            stages: vec![StagePlan {
                kind: StageKind::SpatialFusion,
                models: vec![ModelPlan::on_single_chiplet("s", g, ChipletId(0))],
                region: vec![ChipletId(0)],
            }],
        };
        // One frame per second: far slower than the ~366 ms service time.
        let rep = run_cfg(&schedule, &pkg, &model, &SimConfig::camera(8, 1.0));
        assert!((rep.steady_interval.as_secs() - 1.0).abs() < 1e-9);
        // Utilization is low: the chiplet idles between frames.
        assert!(rep.busy_fraction(ChipletId(0)).unwrap() < 0.5);
    }

    /// The calendar key orders events exactly like `(time.total_cmp,
    /// seq)`, and both halves of an event decode back to what went in:
    /// the time bit for bit, every field of the job, and the segment
    /// bits.
    #[test]
    fn calendar_key_orders_like_total_cmp_then_seq() {
        assert_eq!(std::mem::size_of::<Scheduled>(), 32);
        let subnormal = f64::MIN_POSITIVE / 4.0;
        assert!(subnormal > 0.0 && !subnormal.is_normal());
        // Arrival times may be negative: validation only asks for finite,
        // non-decreasing ones.
        let times = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -f64::MIN_POSITIVE,
            -subnormal,
            -f64::from_bits(1),
            -0.0,
            0.0,
            f64::from_bits(1),
            subnormal,
            f64::MIN_POSITIVE,
            0.1,
            2.5,
            1e300,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        let job = Job {
            frame: 0x8000_0001,
            item: u32::MAX,
            local: 0x7fff_fffe,
        };
        // Equal times with different sequence numbers, at both ends of
        // the sequence range.
        let events: Vec<(f64, u64)> = times
            .iter()
            .flat_map(|&t| [(t, 0), (t, 1), (t, u64::MAX)])
            .collect();
        for &(ta, sa) in &events {
            let a = Scheduled::new(ta, sa, job, PROGRAM | MULTI | THEN);
            assert_eq!(a.time().to_bits(), ta.to_bits(), "time {ta:e} decodes");
            let back = a.job();
            assert_eq!(
                (back.frame, back.item, back.local, a.segment()),
                (job.frame, job.item, job.local, PROGRAM | MULTI | THEN)
            );
            for &(tb, sb) in &events {
                let b = Scheduled::new(tb, sb, job, 0);
                assert_eq!(
                    a.key.cmp(&b.key),
                    ta.total_cmp(&tb).then(sa.cmp(&sb)),
                    "({ta:e}, {sa}) vs ({tb:e}, {sb})"
                );
            }
        }
    }

    /// Random push / replace-earliest / pop sequences pop exactly the keys
    /// a binary min-heap pops, with each event's job moving with its key.
    /// Sizes and times are drawn so new events land both within `NEAR`
    /// slots of the earliest end and further back.
    #[test]
    fn calendar_pops_like_a_min_heap() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::cmp::Reverse;

        // Equal times (told apart by `seq`), negative times and both zeros.
        let pool = [-3.5, -1.0, -0.0, 0.0, 0.25, 1.0, 1.0f64.next_up(), 7.0];
        let mut rng = StdRng::seed_from_u64(17);
        let mut cal = Calendar::default();
        let mut reference = BinaryHeap::new();
        let mut seq = 0u64;
        let (mut near, mut far) = (0usize, 0usize);
        for round in 0..400 {
            // Alternate growing and draining so the calendar size sweeps
            // from empty to several dozen pending events.
            let target = if round % 2 == 0 {
                rng.gen_range(1..80)
            } else {
                0
            };
            for _ in 0..200 {
                let event = {
                    seq += 1;
                    let time = if rng.gen_range(0..2usize) == 0 {
                        pool[rng.gen_range(0..pool.len())]
                    } else {
                        rng.gen_range(-4.0..8.0)
                    };
                    let job = Job {
                        frame: seq as u32,
                        item: 0,
                        local: 0,
                    };
                    Scheduled::new(time, seq, job, 0)
                };
                // 0 pushes, 1 replaces the earliest, 2 pops.
                let r = rng.gen_range(0..4usize);
                let op = match reference.len().cmp(&target) {
                    _ if reference.is_empty() => 0,
                    Ordering::Less => [0, 0, 0, 1][r],
                    Ordering::Equal => [0, 1, 1, 2][r],
                    Ordering::Greater => [2, 2, 2, 1][r],
                };
                if op == 2 {
                    let popped = cal.pop().expect("a pending event");
                    let Reverse(want) = reference.pop().expect("a pending key");
                    assert_eq!(popped.key, want);
                    assert_eq!(
                        popped.job().frame,
                        want as u32,
                        "the job moves with its key"
                    );
                } else {
                    if op == 1 {
                        reference.pop();
                    }
                    let rank = reference
                        .iter()
                        .filter(|&&Reverse(k)| k < event.key)
                        .count();
                    if rank < NEAR || reference.len() <= NEAR {
                        near += 1;
                    } else {
                        far += 1;
                    }
                    reference.push(Reverse(event.key));
                    if op == 1 {
                        cal.replace_top(event);
                    } else {
                        cal.push(event);
                    }
                }
                assert_eq!(cal.peek().map(|e| e.key), reference.peek().map(|r| r.0));
            }
        }
        while let Some(Reverse(want)) = reference.pop() {
            assert_eq!(cal.pop().map(|e| e.key), Some(want));
        }
        assert!(cal.pop().is_none());
        assert!(
            near > 10_000 && far > 10_000,
            "both placement paths ran: {near} near, {far} far"
        );
    }

    fn single_chiplet_schedule(c: ChipletId) -> Schedule {
        let g = fusion_block(&FusionConfig::spatial_default());
        Schedule {
            stages: vec![StagePlan {
                kind: StageKind::SpatialFusion,
                models: vec![ModelPlan::on_single_chiplet("s", g, c)],
                region: vec![c],
            }],
        }
    }

    fn periodic(frames: usize, interval: f64, offset: f64) -> Vec<f64> {
        (0..frames).map(|f| offset + f as f64 * interval).collect()
    }

    /// Tenants on disjoint chiplet regions are bit-identical to their
    /// standalone phased runs: sharing a calendar costs nothing when
    /// nothing is actually shared.
    #[test]
    fn disjoint_regions_match_standalone_runs() {
        let pkg = McmPackage::simba_6x6();
        let model = FittedMaestro::new();
        let s0 = single_chiplet_schedule(ChipletId(0));
        let s1 = single_chiplet_schedule(ChipletId(7));
        let t0 = periodic(16, 0.5, 0.0);
        let t1 = periodic(12, 0.7, 0.1);
        let co = simulate(
            &[
                SimPhase {
                    schedule: &s0,
                    times: t0.clone(),
                    readiness: Readiness::Barrier(0.0),
                    warmup: Some(2),
                    cutoff: None,
                },
                SimPhase {
                    schedule: &s1,
                    times: t1.clone(),
                    readiness: Readiness::Barrier(0.0),
                    warmup: Some(2),
                    cutoff: None,
                },
            ],
            &pkg,
            &model,
            Dtype::Fp16,
        )
        .expect("valid streams");
        let alone0 = simulate_phases(
            &[SimPhase {
                schedule: &s0,
                times: t0,
                readiness: Readiness::Barrier(0.0),
                warmup: Some(2),
                cutoff: None,
            }],
            &pkg,
            &model,
            Dtype::Fp16,
        );
        let alone1 = simulate_phases(
            &[SimPhase {
                schedule: &s1,
                times: t1,
                readiness: Readiness::Barrier(0.0),
                warmup: Some(2),
                cutoff: None,
            }],
            &pkg,
            &model,
            Dtype::Fp16,
        );
        assert_eq!(co[0], alone0[0]);
        assert_eq!(co[1], alone1[0]);
    }

    /// Two tenants contending for one chiplet: the co-run is strictly
    /// slower than either tenant alone, and the higher-priority frames
    /// (earlier global order on ties) still complete.
    #[test]
    fn shared_chiplet_contention_increases_latency() {
        let pkg = McmPackage::simba_6x6();
        let model = FittedMaestro::new();
        let s = single_chiplet_schedule(ChipletId(0));
        // ~366 ms service time; each tenant alone at 0.5 s intervals is
        // arrival-limited, together they oversubscribe the chiplet.
        let t0 = periodic(16, 0.5, 0.0);
        let t1 = periodic(16, 0.5, 0.0);
        let co = simulate(
            &[
                SimPhase {
                    schedule: &s,
                    times: t0.clone(),
                    readiness: Readiness::Barrier(0.0),
                    warmup: Some(2),
                    cutoff: None,
                },
                SimPhase {
                    schedule: &s,
                    times: t1,
                    readiness: Readiness::Barrier(0.0),
                    warmup: Some(2),
                    cutoff: None,
                },
            ],
            &pkg,
            &model,
            Dtype::Fp16,
        )
        .expect("valid streams");
        let alone = simulate_phases(
            &[SimPhase {
                schedule: &s,
                times: t0,
                readiness: Readiness::Barrier(0.0),
                warmup: Some(2),
                cutoff: None,
            }],
            &pkg,
            &model,
            Dtype::Fp16,
        );
        for rep in &co {
            assert!(
                rep.report.mean_latency > alone[0].report.mean_latency,
                "contention must raise latency: co {} vs alone {}",
                rep.report.mean_latency,
                alone[0].report.mean_latency
            );
        }
        // Tenant 0 wins every same-time tie (lower tenant index), so it
        // queues behind at most one tenant-1 frame; tenant 1 waits for
        // tenant 0's whole backlog and runs strictly later.
        assert!(co[0].report.mean_latency < co[1].report.mean_latency);
    }

    /// Per-tenant spin-up windows drop exactly the frames arriving
    /// before that tenant's `ready_at`, and the balance holds.
    #[test]
    fn ready_at_drops_are_per_tenant() {
        let pkg = McmPackage::simba_6x6();
        let model = FittedMaestro::new();
        let s0 = single_chiplet_schedule(ChipletId(0));
        let s1 = single_chiplet_schedule(ChipletId(1));
        let co = simulate(
            &[
                SimPhase {
                    schedule: &s0,
                    times: periodic(10, 0.5, 0.0),
                    readiness: Readiness::Barrier(0.0),
                    warmup: Some(1),
                    cutoff: None,
                },
                SimPhase {
                    schedule: &s1,
                    times: periodic(10, 0.5, 0.0),
                    readiness: Readiness::Barrier(1.1),
                    warmup: Some(1),
                    cutoff: None,
                },
            ],
            &pkg,
            &model,
            Dtype::Fp16,
        )
        .expect("valid streams");
        assert_eq!(co[0].dropped, 0);
        assert_eq!(co[1].dropped, 3, "frames at 0.0, 0.5, 1.0 dropped");
        for rep in &co {
            assert_eq!(rep.served() + rep.dropped, rep.offered);
        }
        assert_eq!(co[1].report.measured_frames, 7 - 2);
    }

    /// The co-simulation is deterministic: same inputs, same bits.
    #[test]
    fn co_simulation_is_deterministic() {
        let pkg = McmPackage::simba_6x6();
        let model = FittedMaestro::new();
        let s = single_chiplet_schedule(ChipletId(0));
        let s2 = single_chiplet_schedule(ChipletId(2));
        let run = || {
            simulate(
                &[
                    SimPhase {
                        schedule: &s,
                        times: periodic(12, 0.4, 0.0),
                        readiness: Readiness::Barrier(0.0),
                        warmup: Some(2),
                        cutoff: None,
                    },
                    SimPhase {
                        schedule: &s2,
                        times: periodic(12, 0.4, 0.0),
                        readiness: Readiness::Barrier(0.0),
                        warmup: Some(2),
                        cutoff: None,
                    },
                ],
                &pkg,
                &model,
                Dtype::Fp16,
            )
            .expect("valid streams")
        };
        assert_eq!(run(), run());
    }

    /// A single stream through `simulate` is bit-identical to the
    /// same stream through `simulate_phases`.
    #[test]
    fn single_stream_matches_phased_engine() {
        let pkg = McmPackage::simba_6x6();
        let model = FittedMaestro::new();
        let s = single_chiplet_schedule(ChipletId(3));
        let times = periodic(20, 0.45, 0.2);
        let multi = simulate(
            &[SimPhase {
                schedule: &s,
                times: times.clone(),
                readiness: Readiness::Barrier(0.3),
                warmup: Some(3),
                cutoff: None,
            }],
            &pkg,
            &model,
            Dtype::Fp16,
        )
        .expect("valid streams");
        let phased = simulate_phases(
            &[SimPhase {
                schedule: &s,
                times,
                readiness: Readiness::Barrier(0.3),
                warmup: Some(3),
                cutoff: None,
            }],
            &pkg,
            &model,
            Dtype::Fp16,
        );
        assert_eq!(multi[0], phased[0]);
    }

    /// Arrival times may be negative: validation only asks for finite,
    /// non-decreasing ones. A chiplet that never ran is free at any
    /// instant, so a run wholly before t = 0 serves and measures every
    /// frame, like the same run shifted past it.
    #[test]
    fn negative_arrival_times_are_served() {
        let pkg = McmPackage::simba_6x6();
        let model = FittedMaestro::new();
        let s = single_chiplet_schedule(ChipletId(0));
        let run = |offset: f64| {
            let phase = SimPhase {
                schedule: &s,
                times: periodic(8, 0.5, offset),
                readiness: Readiness::Barrier(offset),
                warmup: Some(1),
                cutoff: None,
            };
            simulate_phases(&[phase], &pkg, &model, Dtype::Fp16)[0].clone()
        };
        let (early, late) = (run(-64.0), run(0.0));
        assert_eq!(early.served(), 8);
        assert_eq!(early.report.measured_frames, 6);
        assert_eq!(early.report.measured_frames, late.report.measured_frames);
        // Equal up to the rounding of the shifted arrival arithmetic.
        let rel = early.report.mean_latency.as_secs() / late.report.mean_latency.as_secs() - 1.0;
        assert!(rel.abs() < 1e-9, "{early:?} vs {late:?}");
    }

    #[test]
    fn empty_stream_list_is_empty() {
        let pkg = McmPackage::simba_6x6();
        let model = FittedMaestro::new();
        assert_eq!(simulate(&[], &pkg, &model, Dtype::Fp16), Ok(vec![]));
    }

    /// A valid stream on chiplet 0 ahead of `bad`, so every error below
    /// must name stream 1.
    fn second_stream_error(bad: SimPhase<'_>) -> SimError {
        let pkg = McmPackage::simba_6x6();
        let model = FittedMaestro::new();
        let s = single_chiplet_schedule(ChipletId(0));
        let good = SimPhase::new(&s, periodic(4, 0.5, 0.0), Readiness::Barrier(0.0));
        simulate(&[good, bad], &pkg, &model, Dtype::Fp16).expect_err("stream 1 is malformed")
    }

    #[test]
    fn empty_schedule_is_an_error() {
        let empty = Schedule { stages: vec![] };
        let err = second_stream_error(SimPhase::new(&empty, vec![0.0], Readiness::Barrier(0.0)));
        assert_eq!(err, SimError::EmptySchedule { stream: 1 });
    }

    #[test]
    fn non_finite_arrival_is_an_error() {
        let s = single_chiplet_schedule(ChipletId(1));
        for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let times = vec![0.0, 0.5, value];
            let err = second_stream_error(SimPhase::new(&s, times, Readiness::Barrier(0.0)));
            assert!(
                matches!(
                    err,
                    SimError::NonFiniteArrival { stream: 1, frame: 2, value: v }
                        if v.to_bits() == value.to_bits()
                ),
                "{err:?}"
            );
        }
    }

    #[test]
    fn decreasing_arrival_is_an_error() {
        let s = single_chiplet_schedule(ChipletId(1));
        let times = vec![0.0, 1.0, 0.5];
        let err = second_stream_error(SimPhase::new(&s, times, Readiness::Barrier(0.0)));
        assert_eq!(
            err,
            SimError::DecreasingArrival {
                stream: 1,
                frame: 2,
                value: 0.5,
                previous: 1.0
            }
        );
        assert_eq!(
            err.to_string(),
            "stream 1, frame 2: arrival time 0.5 steps backwards (previous was 1)"
        );
    }

    /// Readiness is validated whole: a NaN ready time is an error even
    /// on a chiplet the stream's schedule never uses, where the
    /// admission gate alone would skip it.
    #[test]
    fn non_finite_readiness_on_an_unused_chiplet_is_an_error() {
        let s = single_chiplet_schedule(ChipletId(1));
        let readiness = Readiness::PerChiplet {
            at: 0.0,
            ready: vec![(ChipletId(9), f64::NAN)],
        };
        let err = second_stream_error(SimPhase::new(&s, periodic(4, 0.5, 0.0), readiness));
        assert_eq!(err, SimError::NonFiniteReadiness { stream: 1 });
        let barrier = Readiness::Barrier(f64::INFINITY);
        let err = second_stream_error(SimPhase::new(&s, periodic(4, 0.5, 0.0), barrier));
        assert_eq!(err, SimError::NonFiniteReadiness { stream: 1 });
    }

    /// A NaN cutoff is refused. Unchecked, `completion > cutoff` is false
    /// for every frame, so the run would silently flush nothing.
    #[test]
    fn non_finite_cutoff_is_an_error() {
        let s = single_chiplet_schedule(ChipletId(1));
        for value in [f64::NAN, f64::INFINITY] {
            let bad = SimPhase {
                cutoff: Some(value),
                ..SimPhase::new(&s, vec![0.0; 4], Readiness::Barrier(0.0))
            };
            let err = second_stream_error(bad);
            assert!(
                matches!(err, SimError::NonFiniteCutoff { stream: 1, value: v }
                    if v.to_bits() == value.to_bits()),
                "{err:?}"
            );
        }
    }

    // `SimError::TooManyFrames` stays untested: reaching it takes more
    // than `u32::MAX` arrival times, about 34 GB of `f64`s.

    /// One stream's report, flushed frames and peak in-flight frames,
    /// rendered so equal strings mean equal bits.
    fn outcome_bits(out: &[StreamOutcome]) -> Vec<String> {
        out.iter()
            .map(|o| format!("{:?} {} {}", o.report, o.flushed, o.peak_in_flight))
            .collect()
    }

    /// Runs `streams` in one pass as `run_pass` does and item by item,
    /// asserts the two agree bit for bit, and says whether the pass fell
    /// back to the item-by-item run.
    fn assert_fusion_is_exact(streams: &[(&[SimItem], &[f64])]) -> bool {
        let members: Vec<Admitted<'_>> = streams
            .iter()
            .map(|&(items, times)| Admitted {
                items,
                times,
                warmup: SimConfig::default_warmup(times.len()),
                cutoff: None,
            })
            .collect();
        let (fused, fell_back) = run_pass(&members);
        let unfused = Engine::new(&members, false)
            .run()
            .expect("no tie item by item");
        assert_eq!(outcome_bits(&fused), outcome_bits(&unfused));
        fell_back
    }

    /// A random stream of closed programs on chiplets `base..base + 3`,
    /// some sharing a chiplet, interleaved in item order with downstream
    /// items that read any earlier item. Half the streams copy one
    /// program onto every program, as each camera's backbone is, so twin
    /// segments run in lockstep. Downstream items run on the shared chiplets 0
    /// and 1, or now and then on a program chiplet, which another stream
    /// may hold a closed program on. Durations are dyadic, zero now and
    /// then, and arrival gaps are multiples of a quarter second, so ties
    /// are common.
    fn closed_program_stream(seed: u64, base: u32) -> (Vec<SimItem>, Vec<f64>) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let quarters = |rng: &mut StdRng, lo: u64, hi: u64| rng.gen_range(lo..hi) as f64 * 0.25;
        // Durations on a quarter-second grid tie often; on a 1/32 s grid,
        // less often.
        let grain = [0.25, 1.0 / 32.0][rng.gen_range(0..2usize)];
        // Each program: per item, its dependencies (program-local) and
        // its duration.
        // One item in eight does not advance the clock.
        let secs = |rng: &mut StdRng| match rng.gen_range(0..8usize) {
            0 => 0.0,
            _ => rng.gen_range(1..64u64) as f64 * grain / 8.0,
        };
        let program = |rng: &mut StdRng| -> Vec<(Vec<usize>, f64)> {
            (0..rng.gen_range(1..7usize))
                .map(|j| {
                    // Now and then a later root, as when one chiplet
                    // runs two cameras' backbones.
                    let deps = match (j, rng.gen_range(0..6usize)) {
                        (0, _) | (_, 0) => vec![],
                        _ => (0..rng.gen_range(1..3usize))
                            .map(|_| rng.gen_range(0..j))
                            .collect(),
                    };
                    (deps, secs(rng))
                })
                .collect()
        };
        let first = program(&mut rng);
        let copies = rng.gen_range(0..2usize) == 0;
        let programs: Vec<Vec<(Vec<usize>, f64)>> = (0..rng.gen_range(1..4usize))
            .map(|p| match (p, copies) {
                (0, _) | (_, true) => first.clone(),
                _ => program(&mut rng),
            })
            .collect();
        // Programs `p` and `p + spread` share a chiplet.
        let spread = rng.gen_range(1..4usize) as u32;
        // Global index of each program's items placed so far.
        let mut on: Vec<Vec<usize>> = vec![Vec::new(); programs.len()];
        let mut items: Vec<SimItem> = Vec::new();
        let mut downstream = rng.gen_range(0..6usize);
        while on.iter().zip(&programs).any(|(o, p)| o.len() < p.len()) || downstream > 0 {
            let p = rng.gen_range(0..programs.len() + 1);
            let (chiplet, deps, secs) = if p < programs.len() && on[p].len() < programs[p].len() {
                let (deps, secs) = &programs[p][on[p].len()];
                let deps = deps.iter().map(|&d| on[p][d]).collect();
                on[p].push(items.len());
                (base + p as u32 % spread, deps, *secs)
            } else if p == programs.len() && downstream > 0 && !items.is_empty() {
                downstream -= 1;
                let n = items.len();
                let deps = (0..rng.gen_range(1..3usize))
                    .map(|_| rng.gen_range(0..n))
                    .collect();
                let chiplet = match rng.gen_range(0..8usize) {
                    0 => rng.gen_range(2..11usize),
                    _ => rng.gen_range(0..2usize),
                };
                (chiplet as u32, deps, secs(&mut rng))
            } else {
                continue;
            };
            items.push(SimItem {
                chiplet: ChipletId(chiplet),
                duration: Seconds::new(secs),
                deps,
            });
        }
        let mut t = quarters(&mut rng, 0, 8) - 1.0;
        let times = (0..rng.gen_range(1..16usize))
            .map(|_| {
                t += quarters(&mut rng, 0, 12);
                t
            })
            .collect();
        (items, times)
    }

    /// The closed-program tables `Engine::new` builds for one pass over
    /// `streams` (with no arrivals), and the chiplets it fuses, ascending.
    fn plan<'a>(streams: &[&'a [SimItem]]) -> (Engine<'a>, Vec<ChipletId>) {
        let members: Vec<Admitted<'a>> = streams
            .iter()
            .map(|&items| Admitted {
                items,
                times: &[],
                warmup: 0,
                cutoff: None,
            })
            .collect();
        let engine = Engine::new(&members, true);
        let mut fused: Vec<ChipletId> = engine
            .chiplet_of
            .iter()
            .zip(&engine.segment)
            .filter(|(_, &segment)| segment != 0)
            .map(|(&c, _)| engine.chiplet_ids[c as usize])
            .collect();
        fused.sort_unstable();
        fused.dedup();
        (engine, fused)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        /// One to three streams of random closed programs, sharing the
        /// downstream chiplets and, when two streams draw the same base,
        /// their program chiplets too, report the same bits run segment
        /// by segment (falling back on a tie) as item by item.
        #[test]
        fn segment_runs_match_item_by_item_runs(
            draws in proptest::collection::vec((0u64..u64::MAX, 0u64..3), 1..4),
        ) {
            let streams: Vec<(Vec<SimItem>, Vec<f64>)> = draws
                .iter()
                .map(|&(seed, base)| closed_program_stream(seed, 2 + 3 * base as u32))
                .collect();
            let refs: Vec<(&[SimItem], &[f64])> =
                streams.iter().map(|(i, t)| (&i[..], &t[..])).collect();
            assert_fusion_is_exact(&refs);
        }
    }

    /// The program finder: one chiplet's chain of three feeding another
    /// chiplet from its middle item is two segments, and a chiplet
    /// whose second item reads another chiplet is not closed.
    #[test]
    fn programs_split_at_off_chiplet_dependents() {
        let item = |chiplet: u32, deps: Vec<usize>| SimItem {
            chiplet: ChipletId(chiplet),
            duration: Seconds::new(1.0),
            deps,
        };
        let items = vec![
            item(0, vec![]),
            item(0, vec![0]),
            item(1, vec![1]),
            item(0, vec![1, 1]),
            item(1, vec![2, 3]),
        ];
        let (p, fused) = plan(&[&items]);
        assert_eq!(fused, vec![ChipletId(0)]);
        assert_eq!(p.next, vec![1, NONE, NONE, NONE, NONE]);
        assert_eq!(p.segment, vec![PROGRAM | MULTI | THEN, 0, 0, PROGRAM, 0]);
        assert_eq!(p.then, vec![NONE, 3, NONE, NONE, NONE]);
        // Item by item, item 1's completion releases item 2 on chiplet 1
        // before item 3 takes chiplet 0.
        assert_eq!(p.launch[1], 1);
        assert_eq!(p.shape[1], 1);
        assert_eq!(p.shape[3], NONE);
    }

    /// An arrival at an inner boundary of a running segment: one chiplet,
    /// a two-item chain of 1 s each, frames every second. Item by item,
    /// the chiplet is free at t = 1 when frame 1 arrives, so frame 1's
    /// root starts before frame 0's second item and both frames take
    /// 3 s. Run as one segment, frame 0 would take 2 s, so the pass falls
    /// back and reproduces the item-by-item run.
    #[test]
    fn arrival_at_an_inner_boundary_falls_back() {
        let items = vec![
            SimItem {
                chiplet: ChipletId(0),
                duration: Seconds::new(1.0),
                deps: vec![],
            },
            SimItem {
                chiplet: ChipletId(0),
                duration: Seconds::new(1.0),
                deps: vec![0],
            },
        ];
        let (_, fused) = plan(&[&items]);
        assert_eq!(fused, vec![ChipletId(0)]);
        let times = [0.0, 1.0];
        assert!(assert_fusion_is_exact(&[(&items, &times)]));
        let (rep, _, _) = run_items(&items, &times);
        assert_eq!(rep.max_latency.as_secs(), 3.0);
        assert_eq!(rep.mean_latency.as_secs(), 3.0);
        // Half a second later, frame 1 arrives inside frame 0's segment
        // and waits for it: no tie, no fallback.
        assert!(!assert_fusion_is_exact(&[(&items, &[0.0, 1.5])]));
    }

    /// Lockstep twins: two chiplets run the same two-segment program
    /// from the same arrival, so every segment ends at the same instant
    /// as its twin's, and a downstream item joins them. The tie keeps
    /// the item-by-item order, so the pass does not fall back.
    #[test]
    fn lockstep_twins_keep_the_fast_path() {
        let item = |chiplet: u32, secs: f64, deps: Vec<usize>| SimItem {
            chiplet: ChipletId(chiplet),
            duration: Seconds::new(secs),
            deps,
        };
        let items = vec![
            item(0, 0.5, vec![]),
            item(1, 0.5, vec![]),
            item(0, 0.25, vec![0]),
            item(1, 0.25, vec![1]),
            item(2, 0.25, vec![2, 3]),
            item(0, 0.75, vec![2]),
            item(1, 0.75, vec![3]),
            item(2, 0.5, vec![4, 5, 6]),
        ];
        let (programs, fused) = plan(&[&items]);
        assert_eq!(fused, vec![ChipletId(0), ChipletId(1)]);
        assert_eq!(programs.shape[2], programs.shape[3]);
        // Frames every 1.75 s: each program takes 1.5 s, and no arrival
        // meets a segment's inner boundary.
        let times: Vec<f64> = (0..12).map(|f| f as f64 * 1.75).collect();
        assert!(!assert_fusion_is_exact(&[(&items, &times)]));
    }

    /// Two programs that start together and end together but not in
    /// lockstep: chiplet 2 runs 0.75 s then 0.25 s, chiplet 3 runs
    /// 0.25 s then 0.75 s. Item by item, chiplet 3's last item started
    /// first, so it completes first at t = 1 and its dependent takes the
    /// shared chiplet 0 first. The two segment events sort the other way,
    /// so the pass falls back.
    #[test]
    fn same_instant_exits_out_of_lockstep_fall_back() {
        let item = |chiplet: u32, secs: f64, deps: Vec<usize>| SimItem {
            chiplet: ChipletId(chiplet),
            duration: Seconds::new(secs),
            deps,
        };
        let items = vec![
            item(2, 0.75, vec![]),
            item(3, 0.25, vec![]),
            item(2, 0.25, vec![0]),
            item(3, 0.75, vec![1]),
            item(0, 0.5, vec![2]),
            item(0, 0.25, vec![3]),
            item(1, 0.5, vec![5]),
        ];
        assert!(assert_fusion_is_exact(&[(&items, &[0.0])]));
        let (rep, _, _) = run_items(&items, &[0.0]);
        assert_eq!(rep.max_latency.as_secs(), 1.75);
    }

    /// An exit's completion starts the next segment at the point of its
    /// release order where the item-by-item run starts the next item:
    /// before or after a dependent on another chiplet that ends at the
    /// same instant. The two completions then race for chiplet 1, and
    /// the frame's latency shows which won.
    #[test]
    fn next_segment_starts_in_release_order() {
        let item = |chiplet: u32, secs: f64, deps: Vec<usize>| SimItem {
            chiplet: ChipletId(chiplet),
            duration: Seconds::new(secs),
            deps,
        };
        // Items 0 and 1 are chiplet 2's first segment. Its exit's
        // dependents are the next segment (item `on`, feeding a sink on
        // chiplet 1) and item `off` on chiplet 0, whose chain runs on
        // through chiplets 1 and 0.
        for on_first in [false, true] {
            let (on, off) = if on_first { (2, 3) } else { (3, 2) };
            let mut items = vec![item(2, 0.5, vec![]); 7];
            items[1] = item(2, 0.5, vec![0]);
            items[on] = item(2, 0.5, vec![1]);
            items[off] = item(0, 0.5, vec![1]);
            items[4] = item(1, 0.5, vec![on]);
            items[5] = item(1, 0.25, vec![off]);
            items[6] = item(0, 0.5, vec![5]);
            let (programs, fused) = plan(&[&items]);
            assert_eq!(fused, vec![ChipletId(2)]);
            assert_eq!(programs.then[1], on as u32);
            assert_eq!(programs.launch[1], u32::from(!on_first));
            assert!(!assert_fusion_is_exact(&[(&items, &[0.0])]));
            let (rep, _, _) = run_items(&items, &[0.0]);
            let want = if on_first { 2.75 } else { 2.25 };
            assert_eq!(rep.max_latency.as_secs(), want, "on first: {on_first}");
        }
    }

    /// Which chiplets a pass of two streams fuses: stream A holds closed
    /// programs on chiplets 2 and 4, stream B on 3 and 4, and both feed
    /// the shared chiplet 0. Chiplet 4 hosts a closed program of each
    /// stream, so neither runs segment by segment; 2 and 3 do.
    #[test]
    fn a_pass_fuses_only_programs_on_chiplets_of_one_stream() {
        let item = |chiplet: u32, secs: f64, deps: Vec<usize>| SimItem {
            chiplet: ChipletId(chiplet),
            duration: Seconds::new(secs),
            deps,
        };
        let stream = |own: u32, secs: f64| {
            vec![
                item(own, 0.5, vec![]),
                item(own, secs, vec![0]),
                item(4, 0.125, vec![]),
                item(4, 0.25, vec![2]),
                item(0, 0.375, vec![1, 3]),
            ]
        };
        let (a, b) = (stream(2, 0.3125), stream(3, 0.5625));
        assert_eq!(plan(&[&a, &b]).1, vec![ChipletId(2), ChipletId(3)]);
        let times_a: Vec<f64> = (0..8).map(|f| f as f64 * 1.5).collect();
        let times_b: Vec<f64> = (0..8).map(|f| f as f64 * 1.5 + 0.0625).collect();
        assert!(!assert_fusion_is_exact(&[(&a, &times_a), (&b, &times_b)]));
    }

    /// The fast path holds where the time goes: on every builtin family
    /// matched on the 6×6 package, every FE chiplet, and no other, hosts
    /// a closed program, and runs of sweep length and of 720 frames end without
    /// a fallback. A silent fallback would keep every output and lose
    /// the speed.
    #[test]
    fn builtin_families_fuse_every_fe_chiplet_without_fallback() {
        use npu_scenario::{match_scenario, Scenario, SWEEP_FRAMES};
        let pkg = McmPackage::simba_6x6();
        let model = FittedMaestro::new();
        for scenario in Scenario::builtin() {
            let schedule = match_scenario(&scenario, &pkg, &model).schedule;
            let items = flatten_items(&schedule, &pkg, &model, Dtype::Fp16);
            // The chiplets the FE shards run on (a stage's region may
            // hold more).
            let mut fe: Vec<ChipletId> = schedule
                .stages
                .iter()
                .filter(|s| s.kind == StageKind::FeatureExtraction)
                .flat_map(|s| &s.models)
                .flat_map(|m| &m.layers)
                .flat_map(|l| l.shards.iter().map(|shard| shard.chiplet))
                .collect();
            fe.sort_unstable();
            fe.dedup();
            // One chiplet per camera.
            assert!(!fe.is_empty(), "{}", scenario.name);
            assert_eq!(plan(&[&items]).1, fe, "{}", scenario.name);
            for frames in [SWEEP_FRAMES, 720] {
                let cfg = scenario.sim_config(frames);
                let times = cfg.arrivals.times(cfg.frames);
                let admitted = Admitted {
                    items: &items,
                    times: &times,
                    warmup: cfg.warmup,
                    cutoff: None,
                };
                let (_, fell_back) = run_pass(&[admitted]);
                assert!(!fell_back, "{} at {frames} frames", scenario.name);
            }
        }
    }
}
