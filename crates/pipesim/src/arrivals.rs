//! Frame arrival processes.
//!
//! The seed reproduction knew two arrival patterns: saturation (all
//! frames at t = 0) and a fixed-rate camera with optional uniform jitter.
//! Real driving workloads are richer — bursty re-localization phases,
//! recorded sensor timestamp traces — so arrivals are a first-class enum
//! that every scenario (see `npu-scenario`) compiles down to. Every
//! variant expands to a deterministic, finite, non-decreasing timestamp
//! vector via [`Arrivals::times`], which re-validates the variant's
//! parameters on every expansion — so values built directly (or
//! deserialized, bypassing the checked constructors) still cannot smuggle
//! non-finite or out-of-order event times into the simulator.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use npu_tensor::Seconds;

/// How frames enter the simulated pipeline.
///
/// # Examples
///
/// ```
/// use npu_pipesim::Arrivals;
/// use npu_tensor::Seconds;
///
/// let periodic = Arrivals::periodic_fps(0.5);
/// assert_eq!(periodic.times(3), vec![0.0, 2.0, 4.0]);
/// // Bursts of 2 frames 1 s apart, bursts every 8 s.
/// let bursty = Arrivals::Bursty {
///     period: Seconds::new(8.0),
///     burst: 2,
///     intra: Seconds::new(1.0),
/// };
/// assert_eq!(bursty.times(4), vec![0.0, 1.0, 8.0, 9.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Arrivals {
    /// All frames available at t = 0 (saturation mode, used to measure
    /// the sustainable rate).
    Saturated,
    /// Strictly periodic arrivals every `interval`.
    Periodic {
        /// Inter-frame interval.
        interval: Seconds,
    },
    /// Periodic arrivals with uniform per-frame jitter (camera
    /// trigger/exposure skew): frame `i` arrives at
    /// `i·interval + U(0,1)·frac·interval` under a seeded RNG.
    Jittered {
        /// Nominal inter-frame interval.
        interval: Seconds,
        /// Jitter amplitude as a fraction of the interval, in `[0, 1)`.
        frac: f64,
        /// Seed for the jitter stream (deterministic simulations).
        seed: u64,
    },
    /// Frames arrive in bursts (e.g. a re-localization phase dumping a
    /// backlog of keyframes): bursts start every `period`; within a
    /// burst, `burst` frames are spaced `intra` apart.
    Bursty {
        /// Burst start spacing.
        period: Seconds,
        /// Frames per burst.
        burst: usize,
        /// Intra-burst frame spacing.
        intra: Seconds,
    },
    /// Replay of recorded arrival timestamps. When more frames are
    /// simulated than the trace holds, the trace loops: repetition `k`
    /// is shifted by `k` times the trace's estimated cycle (last
    /// timestamp plus the mean recorded gap).
    Trace(Vec<Seconds>),
    /// A time-varying process: an ordered sequence of segments, each with
    /// its own (non-piecewise) inner process, frame count and time span.
    /// Segment `k` starts where segment `k-1`'s span ends, so a drive
    /// that transitions between operating modes (cruise → urban →
    /// degraded) compiles into **one** continuous arrival stream. Like
    /// [`Trace`](Self::Trace), the sequence loops when more frames are
    /// requested than the segments hold, shifted by the total span.
    Piecewise(Vec<ArrivalSegment>),
}

/// One segment of a [`Arrivals::Piecewise`] process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrivalSegment {
    /// The arrival process within the segment (must not itself be
    /// piecewise). Its times are relative to the segment start.
    pub arrivals: Arrivals,
    /// Frames drawn from the segment's process.
    pub frames: usize,
    /// Wall-clock time the segment occupies; the next segment starts this
    /// much later. Every frame of the segment must arrive within it.
    pub span: Seconds,
}

impl Arrivals {
    /// Largest jitter fraction accepted: the bound keeps jittered frame
    /// `i` strictly before the nominal slot of frame `i + 1`.
    pub const MAX_JITTER: f64 = 1.0 - 1e-9;

    /// Periodic arrivals at the given frame rate.
    ///
    /// # Panics
    ///
    /// Panics if `fps` is not finite and positive (a zero or NaN rate
    /// would silently produce non-finite event times).
    pub fn periodic_fps(fps: f64) -> Self {
        assert!(
            fps.is_finite() && fps > 0.0,
            "frame rate must be finite and positive, got {fps}"
        );
        Arrivals::Periodic {
            interval: Seconds::new(1.0 / fps),
        }
    }

    /// Validated trace replay: timestamps must be finite, non-negative
    /// and non-decreasing, and the trace non-empty.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty or any timestamp is negative,
    /// non-finite or out of order.
    pub fn trace(times: Vec<Seconds>) -> Self {
        validate_trace(&times);
        Arrivals::Trace(times)
    }

    /// Validated piecewise process: segments must be non-empty, each with
    /// at least one frame, a finite positive span, a valid non-piecewise
    /// inner process, and every segment's frames arriving within its span
    /// (so the concatenated stream stays non-decreasing at the seams).
    ///
    /// # Panics
    ///
    /// Panics if any of the above is violated.
    pub fn piecewise(segments: Vec<ArrivalSegment>) -> Self {
        let a = Arrivals::Piecewise(segments);
        a.validate();
        a
    }

    /// Clamps a jitter fraction into `[0,` [`MAX_JITTER`](Self::MAX_JITTER)`]`
    /// (NaN and infinities clamp to 0) — the range within which jittered
    /// arrivals stay non-decreasing.
    pub fn clamp_jitter(frac: f64) -> f64 {
        if frac.is_finite() {
            frac.clamp(0.0, Arrivals::MAX_JITTER)
        } else {
            0.0
        }
    }

    /// Checks the variant's parameters uphold the finite, non-decreasing
    /// timestamp guarantee. Called by [`times`](Self::times) on every
    /// expansion, so directly-constructed or deserialized values cannot
    /// bypass the checked constructors.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite or negative interval/period/spacing, an
    /// invalid trace, or a burst whose intra-burst span exceeds its
    /// period (which would interleave bursts out of frame order).
    pub fn validate(&self) {
        let finite_nonneg = |what: &str, s: Seconds| {
            let v = s.as_secs();
            assert!(
                v.is_finite() && v >= 0.0,
                "{what} must be finite and non-negative, got {v}"
            );
        };
        match self {
            Arrivals::Saturated => {}
            Arrivals::Periodic { interval } | Arrivals::Jittered { interval, .. } => {
                finite_nonneg("arrival interval", *interval);
            }
            Arrivals::Bursty {
                period,
                burst,
                intra,
            } => {
                finite_nonneg("burst period", *period);
                finite_nonneg("intra-burst spacing", *intra);
                let span = intra.as_secs() * burst.saturating_sub(1) as f64;
                assert!(
                    span <= period.as_secs(),
                    "a {burst}-frame burst spans {span}s, exceeding its {period} \
                     period: bursts would interleave out of frame order"
                );
            }
            Arrivals::Trace(times) => validate_trace(times),
            Arrivals::Piecewise(segments) => {
                assert!(
                    !segments.is_empty(),
                    "a piecewise process needs at least one segment"
                );
                for (i, seg) in segments.iter().enumerate() {
                    assert!(
                        !matches!(seg.arrivals, Arrivals::Piecewise(_)),
                        "segment {i}: piecewise processes do not nest"
                    );
                    assert!(seg.frames >= 1, "segment {i} must carry at least one frame");
                    let span = seg.span.as_secs();
                    assert!(
                        span.is_finite() && span > 0.0,
                        "segment {i} span must be finite and positive, got {span}"
                    );
                    seg.arrivals.validate();
                    // The seam guarantee: the segment's last frame arrives
                    // strictly within its span, so offsetting the next
                    // segment by `span` keeps the stream non-decreasing.
                    let last = *seg
                        .arrivals
                        .times(seg.frames)
                        .last()
                        .expect("at least one frame");
                    assert!(
                        last < span,
                        "segment {i}: frame at {last}s falls outside the {span}s span, \
                         which would interleave with the next segment"
                    );
                }
            }
        }
    }

    /// Expands the process into one arrival timestamp per frame.
    /// Deterministic: the same variant (and seed) always yields the same
    /// vector, so simulations are reproducible.
    ///
    /// # Panics
    ///
    /// Panics if the variant's parameters are invalid (see
    /// [`validate`](Self::validate)), or if a trace with a zero replay
    /// cycle (a recording ending at t = 0) would have to loop to reach
    /// `frames`.
    pub fn times(&self, frames: usize) -> Vec<f64> {
        self.validate();
        match self {
            Arrivals::Saturated => vec![0.0; frames],
            Arrivals::Periodic { interval } => {
                let iv = interval.as_secs();
                (0..frames).map(|f| iv * f as f64).collect()
            }
            Arrivals::Jittered {
                interval,
                frac,
                seed,
            } => {
                let iv = interval.as_secs();
                let frac = Arrivals::clamp_jitter(*frac);
                let mut rng = StdRng::seed_from_u64(*seed);
                (0..frames)
                    .map(|f| {
                        let jitter = if frac > 0.0 {
                            iv * frac * rng.gen_range(0.0..1.0)
                        } else {
                            0.0
                        };
                        iv * f as f64 + jitter
                    })
                    .collect()
            }
            Arrivals::Bursty {
                period,
                burst,
                intra,
            } => {
                let burst = (*burst).max(1);
                (0..frames)
                    .map(|f| {
                        (f / burst) as f64 * period.as_secs() + (f % burst) as f64 * intra.as_secs()
                    })
                    .collect()
            }
            Arrivals::Trace(trace) => {
                let cycle = trace_cycle(trace);
                // A trace whose recording ends at t = 0 (every timestamp
                // zero) has a zero replay cycle: looping it would stamp
                // every extra frame at t = 0 — silent saturation, not a
                // replay. Reject instead of time-travelling in place.
                assert!(
                    frames <= trace.len() || cycle > 0.0,
                    "a {}-frame trace ending at t = 0 has a zero replay cycle \
                     and cannot loop to {frames} frames",
                    trace.len()
                );
                (0..frames)
                    .map(|f| trace[f % trace.len()].as_secs() + (f / trace.len()) as f64 * cycle)
                    .collect()
            }
            Arrivals::Piecewise(segments) => {
                // One full pass over the segments: each inner process is
                // expanded at its own offset; the offsets accumulate the
                // spans, so the stream is continuous across segments.
                let mut base = Vec::with_capacity(segments.iter().map(|s| s.frames).sum());
                let mut offset = 0.0;
                for seg in segments {
                    base.extend(seg.arrivals.times(seg.frames).iter().map(|t| offset + t));
                    offset += seg.span.as_secs();
                }
                // Like a trace, the whole timeline loops (shifted by the
                // total span) when more frames are requested than the
                // segments hold.
                let cycle = offset;
                (0..frames)
                    .map(|f| base[f % base.len()] + (f / base.len()) as f64 * cycle)
                    .collect()
            }
        }
    }

    /// Mean inter-arrival interval of the process, or `None` for
    /// saturation (all frames at t = 0). The analytic steady-state
    /// prediction of a simulated run is `max(pipe, mean_interval)`:
    /// compute-bound when arrivals outpace the pipeline, arrival-bound
    /// otherwise.
    pub fn mean_interval(&self) -> Option<Seconds> {
        match self {
            Arrivals::Saturated => None,
            // Jitter shifts arrivals within their slot; the mean spacing
            // stays the nominal interval.
            Arrivals::Periodic { interval } | Arrivals::Jittered { interval, .. } => {
                Some(*interval)
            }
            Arrivals::Bursty { period, burst, .. } => {
                Some(Seconds::new(period.as_secs() / (*burst).max(1) as f64))
            }
            Arrivals::Trace(trace) => Some(Seconds::new(trace_cycle(trace) / trace.len() as f64)),
            Arrivals::Piecewise(segments) => {
                let span: f64 = segments.iter().map(|s| s.span.as_secs()).sum();
                let frames: usize = segments.iter().map(|s| s.frames).sum();
                Some(Seconds::new(span / frames.max(1) as f64))
            }
        }
    }
}

/// Panics unless the trace is non-empty with finite, non-negative,
/// non-decreasing timestamps (shared by [`Arrivals::trace`] and
/// [`Arrivals::validate`]).
fn validate_trace(times: &[Seconds]) {
    assert!(
        !times.is_empty(),
        "an arrival trace needs at least one timestamp"
    );
    let mut prev = 0.0;
    for (i, t) in times.iter().enumerate() {
        let t = t.as_secs();
        assert!(
            t.is_finite() && t >= prev,
            "trace timestamp {i} ({t}) must be finite and non-decreasing"
        );
        prev = t;
    }
}

/// Estimated replay cycle of a trace: the last timestamp plus one mean
/// recorded gap (a single-entry trace repeats at its own timestamp).
fn trace_cycle(trace: &[Seconds]) -> f64 {
    let last = trace.last().expect("validated non-empty").as_secs();
    if trace.len() >= 2 {
        let span = last - trace[0].as_secs();
        last + span / (trace.len() - 1) as f64
    } else {
        last
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturated_is_all_zero() {
        assert_eq!(Arrivals::Saturated.times(3), vec![0.0; 3]);
        assert_eq!(Arrivals::Saturated.mean_interval(), None);
    }

    #[test]
    fn periodic_fps_spaces_frames() {
        let a = Arrivals::periodic_fps(20.0);
        assert_eq!(a.times(3), vec![0.0, 0.05, 0.1]);
        assert_eq!(a.mean_interval(), Some(Seconds::new(0.05)));
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn zero_fps_is_rejected() {
        let _ = Arrivals::periodic_fps(0.0);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn nan_fps_is_rejected() {
        let _ = Arrivals::periodic_fps(f64::NAN);
    }

    #[test]
    fn jitter_is_seeded_and_bounded() {
        let a = Arrivals::Jittered {
            interval: Seconds::new(0.1),
            frac: 0.5,
            seed: 7,
        };
        let t1 = a.times(16);
        let t2 = a.times(16);
        assert_eq!(t1, t2, "same seed, same times");
        for (f, t) in t1.iter().enumerate() {
            let nominal = 0.1 * f as f64;
            assert!(*t >= nominal && *t < nominal + 0.05, "frame {f}: {t}");
        }
    }

    #[test]
    fn bursts_cluster_frames() {
        let a = Arrivals::Bursty {
            period: Seconds::new(1.0),
            burst: 3,
            intra: Seconds::new(0.01),
        };
        assert_eq!(a.times(5), vec![0.0, 0.01, 0.02, 1.0, 1.01]);
        // Mean rate: 3 frames per second.
        let iv = a.mean_interval().unwrap().as_secs();
        assert!((iv - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn trace_replays_and_loops() {
        let a = Arrivals::trace(vec![
            Seconds::new(0.0),
            Seconds::new(0.1),
            Seconds::new(0.4),
        ]);
        let t = a.times(5);
        assert_eq!(&t[..3], &[0.0, 0.1, 0.4]);
        // Cycle = 0.4 + mean gap 0.2 = 0.6: the second repetition shifts
        // by 0.6.
        assert!((t[3] - 0.6).abs() < 1e-12, "{t:?}");
        assert!((t[4] - 0.7).abs() < 1e-12, "{t:?}");
        assert!((a.mean_interval().unwrap().as_secs() - 0.2).abs() < 1e-12);
    }

    /// Regression (ISSUE 8): a trace whose recording ends at t = 0 has a
    /// zero replay cycle. The old expansion silently looped it in place —
    /// every extra frame at t = 0, a saturation run masquerading as a
    /// replay. It must refuse to loop instead.
    #[test]
    #[should_panic(expected = "cannot loop")]
    fn zero_cycle_trace_refuses_to_loop() {
        let a = Arrivals::trace(vec![Seconds::new(0.0)]);
        let _ = a.times(3);
    }

    /// The zero-cycle guard only fires when looping is actually needed:
    /// replaying a t = 0 recording once per frame is fine.
    #[test]
    fn zero_cycle_trace_replays_without_looping() {
        let a = Arrivals::trace(vec![Seconds::new(0.0), Seconds::new(0.0)]);
        assert_eq!(a.times(2), vec![0.0, 0.0]);
        assert_eq!(a.times(1), vec![0.0]);
    }

    /// A single-entry trace loops at its own timestamp: frame f arrives
    /// at `t0 * (f + 1)`.
    #[test]
    fn single_entry_trace_loops_at_its_timestamp() {
        let a = Arrivals::trace(vec![Seconds::new(2.0)]);
        assert_eq!(a.times(3), vec![2.0, 4.0, 6.0]);
        assert_eq!(a.mean_interval(), Some(Seconds::new(2.0)));
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn unsorted_trace_is_rejected() {
        let _ = Arrivals::trace(vec![Seconds::new(1.0), Seconds::new(0.5)]);
    }

    /// Values that bypass the checked constructors (direct construction
    /// or serde) are still caught when expanded.
    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn unsorted_trace_is_caught_at_expansion() {
        let a = Arrivals::Trace(vec![Seconds::new(1.0), Seconds::new(0.5)]);
        let _ = a.times(4);
    }

    /// A burst whose frames span longer than its period would interleave
    /// with the next burst, breaking frame-order arrivals: rejected.
    #[test]
    #[should_panic(expected = "interleave")]
    fn overlapping_bursts_are_rejected() {
        let a = Arrivals::Bursty {
            period: Seconds::new(1.0),
            burst: 4,
            intra: Seconds::new(0.5),
        };
        let _ = a.times(8);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn non_finite_interval_is_caught_at_expansion() {
        let a = Arrivals::Periodic {
            interval: Seconds::new(f64::NAN),
        };
        let _ = a.times(4);
    }

    /// A directly-constructed out-of-range jitter fraction clamps at
    /// expansion, exactly as `SimConfig::with_jitter` clamps on entry.
    #[test]
    fn oversized_jitter_clamps_at_expansion() {
        let a = Arrivals::Jittered {
            interval: Seconds::new(0.1),
            frac: 5.0,
            seed: 3,
        };
        let t = a.times(16);
        for (f, t) in t.iter().enumerate() {
            let nominal = 0.1 * f as f64;
            assert!(*t >= nominal && *t < nominal + 0.1, "frame {f}: {t}");
        }
        for w in t.windows(2) {
            assert!(w[1] >= w[0], "non-decreasing even at max jitter");
        }
    }

    #[test]
    #[should_panic(expected = "at least one timestamp")]
    fn empty_trace_is_rejected() {
        let _ = Arrivals::trace(Vec::new());
    }

    #[test]
    fn piecewise_concatenates_segments_at_their_offsets() {
        // 3 frames at 10 FPS over 0.3 s, then 2 frames at 2 FPS over 1 s.
        let a = Arrivals::piecewise(vec![
            ArrivalSegment {
                arrivals: Arrivals::periodic_fps(10.0),
                frames: 3,
                span: Seconds::new(0.3),
            },
            ArrivalSegment {
                arrivals: Arrivals::periodic_fps(2.0),
                frames: 2,
                span: Seconds::new(1.0),
            },
        ]);
        let t = a.times(5);
        assert_eq!(t, vec![0.0, 0.1, 0.2, 0.3, 0.8]);
        // Mean interval = total span / total frames = 1.3 / 5.
        assert!((a.mean_interval().unwrap().as_secs() - 0.26).abs() < 1e-12);
        // Requesting more frames loops the timeline, shifted by 1.3 s.
        let looped = a.times(7);
        assert!((looped[5] - 1.3).abs() < 1e-12, "{looped:?}");
        assert!((looped[6] - 1.4).abs() < 1e-12, "{looped:?}");
        // Requesting fewer truncates.
        assert_eq!(a.times(2), vec![0.0, 0.1]);
    }

    #[test]
    #[should_panic(expected = "outside the")]
    fn piecewise_rejects_frames_spilling_past_the_span() {
        // 5 frames at 10 FPS span 0.4 s > the declared 0.3 s.
        let _ = Arrivals::piecewise(vec![ArrivalSegment {
            arrivals: Arrivals::periodic_fps(10.0),
            frames: 5,
            span: Seconds::new(0.3),
        }]);
    }

    #[test]
    #[should_panic(expected = "do not nest")]
    fn piecewise_rejects_nesting() {
        let inner = Arrivals::piecewise(vec![ArrivalSegment {
            arrivals: Arrivals::periodic_fps(10.0),
            frames: 1,
            span: Seconds::new(0.2),
        }]);
        let _ = Arrivals::piecewise(vec![ArrivalSegment {
            arrivals: inner,
            frames: 1,
            span: Seconds::new(0.2),
        }]);
    }

    #[test]
    #[should_panic(expected = "at least one segment")]
    fn empty_piecewise_is_rejected() {
        let _ = Arrivals::piecewise(Vec::new());
    }

    /// Directly-constructed piecewise values (or serde round trips) are
    /// still validated on expansion, like every other variant.
    #[test]
    #[should_panic(expected = "finite and positive")]
    fn invalid_piecewise_is_caught_at_expansion() {
        let a = Arrivals::Piecewise(vec![ArrivalSegment {
            arrivals: Arrivals::Saturated,
            frames: 2,
            span: Seconds::new(f64::NAN),
        }]);
        let _ = a.times(2);
    }

    /// A zero-segment timeline asked for frames would index into an
    /// empty expansion (`base[f % 0]`): caught at expansion, not as a
    /// modulo-by-zero panic deep in the loop arithmetic.
    #[test]
    #[should_panic(expected = "at least one segment")]
    fn empty_piecewise_is_caught_at_expansion() {
        let a = Arrivals::Piecewise(Vec::new());
        let _ = a.times(3);
    }

    /// A zero-span segment contributes nothing to the loop cycle, so
    /// looping the timeline would replay it at the same instant forever:
    /// rejected by the span validation.
    #[test]
    #[should_panic(expected = "finite and positive")]
    fn zero_span_segment_is_caught_at_expansion() {
        let a = Arrivals::Piecewise(vec![ArrivalSegment {
            arrivals: Arrivals::Saturated,
            frames: 2,
            span: Seconds::ZERO,
        }]);
        let _ = a.times(2);
    }

    /// A zero-frame segment has no last arrival to check against its
    /// span: rejected before the seam check dereferences it.
    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_frame_segment_is_caught_at_expansion() {
        let a = Arrivals::Piecewise(vec![ArrivalSegment {
            arrivals: Arrivals::periodic_fps(30.0),
            frames: 0,
            span: Seconds::new(1.0),
        }]);
        let _ = a.times(2);
    }

    #[test]
    fn times_are_non_decreasing_across_variants() {
        let variants = [
            Arrivals::Saturated,
            Arrivals::periodic_fps(30.0),
            Arrivals::Jittered {
                interval: Seconds::new(0.033),
                frac: 0.9,
                seed: 3,
            },
            Arrivals::Bursty {
                period: Seconds::new(0.2),
                burst: 4,
                intra: Seconds::new(0.002),
            },
            Arrivals::trace(vec![Seconds::new(0.0), Seconds::new(0.03)]),
            Arrivals::piecewise(vec![
                ArrivalSegment {
                    arrivals: Arrivals::periodic_fps(30.0),
                    frames: 6,
                    span: Seconds::new(0.25),
                },
                ArrivalSegment {
                    arrivals: Arrivals::Bursty {
                        period: Seconds::new(0.2),
                        burst: 3,
                        intra: Seconds::new(0.01),
                    },
                    frames: 5,
                    span: Seconds::new(0.5),
                },
            ]),
        ];
        for a in variants {
            let t = a.times(32);
            assert_eq!(t.len(), 32);
            // Jitter below MAX_JITTER keeps each frame within its slot;
            // the other processes are monotone by construction.
            for w in t.windows(2) {
                assert!(w[1] >= w[0] - 0.033, "{a:?}: {w:?}");
            }
            assert!(t.iter().all(|t| t.is_finite()), "{a:?}");
        }
    }
}
