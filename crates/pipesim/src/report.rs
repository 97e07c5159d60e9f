//! Simulation statistics.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use npu_mcm::ChipletId;
use npu_tensor::{float, Seconds};

use crate::quantiles::Quantiles;

#[cfg(test)]
use crate::engine::SimConfig;

/// Tail-latency percentiles of the steady-state frame latency stream:
/// the serving-style summary (p50/p95/p99/p99.9) that a mean/max pair
/// hides. Computed over the **same trimmed window** as
/// [`SimReport::mean_latency`] — warmup fill and cool-down drain frames
/// never leak into the tails.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyQuantiles {
    /// Median frame latency.
    pub p50: Seconds,
    /// 95th-percentile frame latency.
    pub p95: Seconds,
    /// 99th-percentile frame latency.
    pub p99: Seconds,
    /// 99.9th-percentile frame latency (`p999` in JSON).
    pub p999: Seconds,
}

impl LatencyQuantiles {
    /// All-zero tails: the empty-run value.
    pub const ZERO: LatencyQuantiles = LatencyQuantiles {
        p50: Seconds::ZERO,
        p95: Seconds::ZERO,
        p99: Seconds::ZERO,
        p999: Seconds::ZERO,
    };

    /// Reads the four standard percentiles out of a streamed sketch
    /// (zeros for an empty sketch).
    pub fn from_stream(q: &Quantiles) -> LatencyQuantiles {
        let at = |phi: f64| Seconds::new(q.quantile(phi).unwrap_or(0.0));
        LatencyQuantiles {
            p50: at(0.50),
            p95: at(0.95),
            p99: at(0.99),
            p999: at(0.999),
        }
    }
}

/// Measured behaviour of a simulated pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Mean inter-departure interval of frames in steady state (the
    /// empirical pipelining latency).
    pub steady_interval: Seconds,
    /// Mean per-frame latency (arrival → completion) in steady state.
    pub mean_latency: Seconds,
    /// Worst per-frame latency observed.
    pub max_latency: Seconds,
    /// Tail percentiles of the steady-state latency stream (same
    /// trimmed window as `mean_latency`/`max_latency`).
    pub tails: LatencyQuantiles,
    /// Sustained throughput in frames/second.
    pub throughput_fps: f64,
    /// Frames measured: the steady-state window left after trimming
    /// `warmup` frames from each end of the run.
    pub measured_frames: usize,
    /// Per-chiplet busy fraction over the whole run.
    busy: BTreeMap<ChipletId, f64>,
}

impl SimReport {
    /// Builds the report from raw per-frame arrival/completion times and
    /// per-chiplet busy totals, trimming `warmup` frames from each end of
    /// the run for the steady-state statistics.
    ///
    /// A thin wrapper over the streaming [`ReportBuilder`] — the engine
    /// feeds the builder frame by frame without ever materializing these
    /// slices; tests that hold per-frame vectors go through here so both
    /// paths share one implementation.
    #[cfg(test)]
    pub(crate) fn from_run(
        arrivals: &[f64],
        completions: &[f64],
        busy_time: &BTreeMap<ChipletId, f64>,
        warmup: usize,
    ) -> SimReport {
        let mut b = ReportBuilder::new(completions.len(), warmup, None);
        for (frame, (&a, &c)) in arrivals.iter().zip(completions).enumerate() {
            b.record(frame, a, c);
        }
        b.finish(busy_time)
    }

    /// Busy fraction of a chiplet over the run, if it hosted any work.
    pub fn busy_fraction(&self, chiplet: ChipletId) -> Option<f64> {
        self.busy.get(&chiplet).copied()
    }

    /// The busiest chiplet and its busy fraction.
    pub fn bottleneck(&self) -> Option<(ChipletId, f64)> {
        float::total_max_by_key(self.busy.iter(), |&(_, &b)| b).map(|(&c, &b)| (c, b))
    }
}

/// Streaming accumulator behind [`SimReport`]: the engine calls
/// [`record`](ReportBuilder::record) once per frame **in frame order** as
/// frames complete, so no per-frame arrival/completion vectors ever
/// materialize — O(1) state per run regardless of frame count.
///
/// The frame count is known up front (one frame per arrival timestamp),
/// so the symmetric warmup trim reduces to fixed index bounds `[lo, hi)`:
/// frames outside the window only feed the whole-run extremes (first
/// arrival, last completion) that the busy-fraction span needs; frames
/// inside additionally stream into the latency sum/max and the
/// [`Quantiles`] sketch in the same order the materialized path used,
/// keeping every statistic bit-identical.
///
/// A phase handing over through a **full-barrier** transition passes a
/// `cutoff`: frames whose completion lands past it were still in flight
/// when the incoming mapping quiesced the package. They never complete —
/// the builder counts them as *flushed* and keeps them out of every
/// latency/interval statistic (and out of the span, which ends at the
/// cutoff). With `cutoff = None` every statistic is bit-identical to the
/// pre-flush-accounting builder.
pub(crate) struct ReportBuilder {
    /// Total frames the run will record.
    n: usize,
    /// First frame inside the trimmed steady-state window.
    lo: usize,
    /// One past the last frame inside the window.
    hi: usize,
    /// Frames recorded so far (records must arrive in frame order).
    recorded: usize,
    /// Boundary instant past which in-flight frames are flushed.
    cutoff: Option<f64>,
    /// Frames flushed at the boundary (completion past `cutoff`).
    flushed: usize,
    /// Windowed frames that actually fed the statistics (flushed frames
    /// inside `[lo, hi)` are excluded).
    win_count: usize,
    /// Arrival time of frame 0: the start of the observed span.
    first_arrival: f64,
    /// Running max over **all** completions: the end of the span.
    max_completion: f64,
    /// Running latency sum over the window, in frame order.
    sum_latency: f64,
    /// Running latency max over the window.
    max_latency: f64,
    /// Streaming percentile sketch over the window.
    sketch: Quantiles,
    /// Completion of the first counted windowed frame (window interval
    /// numerator start).
    win_first: f64,
    /// Completion of the latest counted windowed frame.
    win_last: f64,
    /// Latency of the first counted windowed frame: the one-frame-window
    /// interval fallback.
    fallback_latency: f64,
}

impl ReportBuilder {
    /// A builder for an `n`-frame run with a symmetric `warmup` trim
    /// (clamped so the window keeps at least one frame). Frames whose
    /// completion lands past `cutoff` are flushed, not measured.
    pub(crate) fn new(n: usize, warmup: usize, cutoff: Option<f64>) -> ReportBuilder {
        // Symmetric trim: `warmup` frames of pipeline fill at the head
        // AND `warmup` frames of drain at the tail (cool-down frames
        // finish faster than steady state once upstream pressure stops,
        // and would bias the interval low). Clamped so the steady-state
        // window always keeps at least one frame.
        let trim = warmup.min(n.saturating_sub(1) / 2);
        ReportBuilder {
            n,
            lo: trim,
            hi: n - trim,
            recorded: 0,
            cutoff,
            flushed: 0,
            win_count: 0,
            first_arrival: 0.0,
            max_completion: 0.0,
            sum_latency: 0.0,
            max_latency: 0.0,
            sketch: Quantiles::new(),
            win_first: 0.0,
            win_last: 0.0,
            fallback_latency: 0.0,
        }
    }

    /// Frames flushed so far at the phase boundary.
    pub(crate) fn flushed(&self) -> usize {
        self.flushed
    }

    /// Streams one frame's (arrival, completion) pair. Frames must be
    /// recorded in frame order — the engine completes them in that
    /// order.
    pub(crate) fn record(&mut self, frame: usize, arrival: f64, completion: f64) {
        debug_assert_eq!(frame, self.recorded, "frames must stream in order");
        if frame == 0 {
            self.first_arrival = arrival;
        }
        self.recorded += 1;
        if let Some(cutoff) = self.cutoff {
            if completion > cutoff {
                // Still in flight when the incoming mapping quiesced the
                // package: the frame never completes. It holds the span
                // open only to the cutoff instant and feeds no latency
                // or interval statistic.
                self.flushed += 1;
                self.max_completion = f64::max(self.max_completion, cutoff);
                return;
            }
        }
        self.max_completion = f64::max(self.max_completion, completion);
        if frame >= self.lo && frame < self.hi {
            let latency = completion - arrival;
            if self.win_count == 0 {
                self.win_first = completion;
                self.fallback_latency = latency;
            }
            self.win_count += 1;
            self.win_last = completion;
            self.sum_latency += latency;
            self.max_latency = f64::max(self.max_latency, latency);
            self.sketch.insert(latency);
        }
    }

    /// Finalizes the report. `busy_time` maps each chiplet to its total
    /// busy seconds; fractions divide by the run's **observed span**
    /// (first arrival → last completion), so a run offset on an absolute
    /// clock — a late drive phase — reports the same utilization as the
    /// identical run starting at t = 0.
    pub(crate) fn finish(self, busy_time: &BTreeMap<ChipletId, f64>) -> SimReport {
        // A zero-frame run measures nothing; report zeros.
        if self.n == 0 {
            return SimReport {
                steady_interval: Seconds::ZERO,
                mean_latency: Seconds::ZERO,
                max_latency: Seconds::ZERO,
                tails: LatencyQuantiles::ZERO,
                throughput_fps: 0.0,
                measured_frames: 0,
                busy: busy_time.keys().map(|&c| (c, 0.0)).collect(),
            };
        }
        debug_assert_eq!(self.recorded, self.n, "every frame must be recorded");
        // Flushed frames inside [lo, hi) shrink the measured window; with
        // no cutoff, win_count == hi - lo and everything below is
        // bit-identical to the fixed-window math.
        let window_len = self.win_count;

        let steady_interval = if window_len >= 2 {
            Seconds::new((self.win_last - self.win_first) / (window_len - 1) as f64)
        } else {
            // One-frame window: fall back to that frame's service time
            // (zero when the boundary flushed the whole window).
            Seconds::new(self.fallback_latency)
        };

        let mean_latency = Seconds::new(self.sum_latency / window_len.max(1) as f64);
        let tails = LatencyQuantiles::from_stream(&self.sketch);

        let span = self.max_completion - self.first_arrival;
        let busy = busy_time
            .iter()
            .map(|(&c, &b)| (c, if span > 0.0 { b / span } else { 0.0 }))
            .collect();

        SimReport {
            steady_interval,
            mean_latency,
            max_latency: Seconds::new(self.max_latency),
            tails,
            throughput_fps: if steady_interval.is_zero() {
                0.0
            } else {
                1.0 / steady_interval.as_secs()
            },
            measured_frames: window_len,
            busy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_math() {
        let arrivals = vec![0.0, 0.0, 0.0, 0.0];
        let completions = vec![1.0, 2.0, 3.0, 4.0];
        let mut busy = BTreeMap::new();
        busy.insert(ChipletId(0), 4.0);
        // warmup = 4/4 = 1, trimmed from each end: window [2.0, 3.0].
        let warmup = SimConfig::saturated(4).warmup;
        let r = SimReport::from_run(&arrivals, &completions, &busy, warmup);
        assert_eq!(r.measured_frames, 2);
        assert!((r.steady_interval.as_secs() - 1.0).abs() < 1e-12);
        assert!((r.busy_fraction(ChipletId(0)).unwrap() - 1.0).abs() < 1e-12);

        let r = SimReport::from_run(&arrivals, &completions, &busy, 1);
        assert!((r.steady_interval.as_secs() - 1.0).abs() < 1e-12);
        // Latencies come from the same trimmed window: frames 1 and 2.
        assert!((r.mean_latency.as_secs() - 2.5).abs() < 1e-12);
        assert!((r.max_latency.as_secs() - 3.0).abs() < 1e-12);
        assert_eq!(r.bottleneck().unwrap().0, ChipletId(0));
    }

    #[test]
    fn boundary_flush_excludes_frames_from_every_statistic() {
        let arrivals = [0.0, 0.0, 0.0, 0.0];
        let completions = [1.0, 2.0, 3.0, 4.0];
        let busy = BTreeMap::new();
        // Cutoff at 2.5: frames 2 and 3 were in flight at the boundary.
        let mut b = ReportBuilder::new(4, 0, Some(2.5));
        for (i, (&a, &c)) in arrivals.iter().zip(&completions).enumerate() {
            b.record(i, a, c);
        }
        assert_eq!(b.flushed(), 2);
        let r = b.finish(&busy);
        // Only the two completed frames feed the window.
        assert_eq!(r.measured_frames, 2);
        assert!((r.steady_interval.as_secs() - 1.0).abs() < 1e-12);
        assert!(
            (r.max_latency.as_secs() - 2.0).abs() < 1e-12,
            "3.0/4.0 flushed"
        );
        assert!((r.mean_latency.as_secs() - 1.5).abs() < 1e-12);

        // With no cutoff the builder is bit-identical to the from_run
        // path (the pre-flush-accounting behaviour).
        let mut b = ReportBuilder::new(4, 0, None);
        for (i, (&a, &c)) in arrivals.iter().zip(&completions).enumerate() {
            b.record(i, a, c);
        }
        assert_eq!(b.flushed(), 0);
        assert_eq!(
            b.finish(&busy),
            SimReport::from_run(&arrivals, &completions, &busy, 0)
        );
    }

    #[test]
    fn cooldown_tail_is_trimmed() {
        // Steady completions every 1 s, then a straggler cool-down frame
        // at t = 9: with a 1-frame trim at each end neither the t = 1
        // fill frame nor the t = 9 drain frame pollutes the stats.
        let arrivals = vec![0.0; 5];
        let completions = vec![1.0, 2.0, 3.0, 4.0, 9.0];
        let busy = BTreeMap::new();
        let r = SimReport::from_run(&arrivals, &completions, &busy, 1);
        assert_eq!(r.measured_frames, 3);
        assert!((r.steady_interval.as_secs() - 1.0).abs() < 1e-12);
        assert!((r.max_latency.as_secs() - 4.0).abs() < 1e-12, "9.0 trimmed");
        assert!((r.mean_latency.as_secs() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn latency_stats_share_the_steady_window() {
        let arrivals = vec![0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let completions = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let busy = BTreeMap::new();
        let r = SimReport::from_run(&arrivals, &completions, &busy, 2);
        // Window = frames 2..4 (completions 3.0, 4.0): two frames.
        assert_eq!(r.measured_frames, 2);
        assert!((r.mean_latency.as_secs() - 3.5).abs() < 1e-12);
        assert!((r.max_latency.as_secs() - 4.0).abs() < 1e-12);
    }

    /// Regression (ISSUE 6): tails must accumulate over the **trimmed**
    /// window. If warmup frames leaked into the percentile stream, the
    /// huge fill-frame latency below would dominate every upper tail.
    #[test]
    fn warmup_frames_do_not_leak_into_tails() {
        // Frame 0 is a pathological fill frame (latency 50 s); frames
        // 1..=4 are steady at 1 s; frame 5 is a slow drain (latency 9 s).
        let arrivals = vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
        let completions = vec![50.0, 2.0, 3.0, 4.0, 5.0, 14.0];
        let busy = BTreeMap::new();
        let r = SimReport::from_run(&arrivals, &completions, &busy, 1);
        assert_eq!(r.measured_frames, 4);
        // Every percentile of the 4-frame steady window is exactly 1 s:
        // neither the 50 s fill nor the 9 s drain frame may appear.
        for (what, v) in [
            ("p50", r.tails.p50),
            ("p95", r.tails.p95),
            ("p99", r.tails.p99),
            ("p99.9", r.tails.p999),
        ] {
            assert!(
                (v.as_secs() - 1.0).abs() < 1e-12,
                "{what} polluted by warmup/drain: {v}"
            );
        }
        // And the tails agree with max over the same window.
        assert_eq!(
            r.tails.p999.as_secs().to_bits(),
            r.max_latency.as_secs().to_bits()
        );
    }

    /// The steady windows in the artifacts are far below the sketch's
    /// exact capacity, so the report percentiles are exact nearest-rank
    /// order statistics of the trimmed latency stream.
    #[test]
    fn tails_are_exact_order_statistics_of_the_window() {
        let n = 40;
        let arrivals: Vec<f64> = (0..n).map(|i| i as f64).collect();
        // Latency of frame i is a scrambled value in [1, 40].
        let completions: Vec<f64> = (0..n)
            .map(|i| i as f64 + ((i * 17) % n + 1) as f64)
            .collect();
        let busy = BTreeMap::new();
        let warmup = 5;
        let r = SimReport::from_run(&arrivals, &completions, &busy, warmup);
        let mut window: Vec<f64> = (warmup..n - warmup)
            .map(|i| completions[i] - arrivals[i])
            .collect();
        window.sort_unstable_by(f64::total_cmp);
        for (phi, v) in [
            (0.50, r.tails.p50),
            (0.95, r.tails.p95),
            (0.99, r.tails.p99),
            (0.999, r.tails.p999),
        ] {
            assert_eq!(
                v.as_secs().to_bits(),
                Quantiles::exact_sorted(&window, phi).to_bits(),
                "{phi}"
            );
        }
        assert!(r.tails.p50 <= r.tails.p95);
        assert!(r.tails.p95 <= r.tails.p99);
        assert!(r.tails.p99 <= r.tails.p999);
        assert!(r.tails.p999 <= r.max_latency);
    }

    #[test]
    fn zero_frame_run_reports_zeros() {
        let mut busy = BTreeMap::new();
        busy.insert(ChipletId(3), 0.0);
        let r = SimReport::from_run(&[], &[], &busy, SimConfig::saturated(0).warmup);
        assert_eq!(r.measured_frames, 0);
        assert!(r.steady_interval.is_zero());
        assert_eq!(r.tails, LatencyQuantiles::ZERO);
        assert_eq!(r.throughput_fps, 0.0);
        assert_eq!(r.busy_fraction(ChipletId(3)), Some(0.0));
    }

    #[test]
    fn tiny_runs_keep_a_nonempty_window() {
        let busy = BTreeMap::new();
        // One frame, huge warmup: the clamp keeps that frame and falls
        // back to its service time for the interval.
        let r = SimReport::from_run(&[0.5], &[2.0], &busy, 4);
        assert_eq!(r.measured_frames, 1);
        assert!((r.steady_interval.as_secs() - 1.5).abs() < 1e-12);
        assert!((r.mean_latency.as_secs() - 1.5).abs() < 1e-12);

        // Three frames, warmup 4: trim clamps to (3-1)/2 = 1 per end.
        let r = SimReport::from_run(&[0.0, 0.0, 0.0], &[1.0, 2.0, 3.0], &busy, 4);
        assert_eq!(r.measured_frames, 1);
        // One-frame window: interval falls back to frame 1's latency.
        assert!((r.steady_interval.as_secs() - 2.0).abs() < 1e-12);
    }
}
