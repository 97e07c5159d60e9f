//! The repository benchmark: host time of the simulator on seeded
//! `dse-grid`, `long-drive` and `fleet-pack` workloads.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path e2ebench/Cargo.toml -- \
//!     --workload dse-grid --seed 1 --seconds 30 --trace 0
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, measured with
//! tracing off: each op's thread CPU time, scaled by how slow a fixed
//! reference kernel ran in the same pass, at its median over the run's
//! passes (see `speed.rs` and the README). With `--trace 1` it measures untraced passes for half the
//! time and traced passes for the other half, and prints the per-layer
//! metrics (per traced pass) and the tracing overhead. The last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! Every number is host time, never simulated time.

mod speed;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use npu_maestro::{CostModel, FittedMaestro};

use trace::{attribute, Counted, Tracer};
use workloads::{Inputs, PassResult, Workload};

/// Set-up probes (fresh processes); `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Fewest measured passes in a run, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

/// The per-layer metrics of a traced run, with their units.
const PER_LAYER: [(&str, &str); 39] = [
    ("maestro.calls", "count"),
    ("maestro.busy_s", "s"),
    ("sched.match.calls", "count"),
    ("sched.match.busy_s", "s"),
    ("sched.match.steps", "count"),
    ("sched.match.ms_per_call", "ms"),
    ("sched.flatten.calls", "count"),
    ("sched.flatten.busy_s", "s"),
    ("sched.flatten.items", "count"),
    ("pipesim.des.calls", "count"),
    ("pipesim.des.busy_s", "s"),
    ("pipesim.des.frames", "count"),
    ("pipesim.des.ns_per_frame", "ns"),
    ("pipesim.des.peak_in_flight", "count"),
    ("pipesim.des.dropped", "count"),
    ("pipesim.des.flushed", "count"),
    ("scenario.point.calls", "count"),
    ("scenario.point.busy_s", "s"),
    ("scenario.drive.calls", "count"),
    ("scenario.drive.busy_s", "s"),
    ("scenario.drive.transitions", "count"),
    ("scenario.drive.stalled", "count"),
    ("scenario.drive.prestaged", "count"),
    ("fleet.pack.busy_s", "s"),
    ("fleet.preempt.busy_s", "s"),
    ("fleet.offered", "count"),
    ("fleet.admitted", "count"),
    ("fleet.admit_ratio", "ratio"),
    ("fleet.instances", "count"),
    ("study.points", "count"),
    ("study.worker_busy_s", "s"),
    ("study.par_efficiency", "ratio"),
    ("study.tail_idle_s", "s"),
    ("study.idle_s", "s"),
    ("trace.probe_s", "s"),
    ("trace.harness_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.accounted_s", "s"),
    ("trace.overhead_s", "s"),
];

/// Attributed seconds: each layer's self time and each named remainder.
/// Together they sum to `trace.accounted_s`.
const ATTRIBUTED: [&str; 11] = [
    "maestro.busy_s",
    "sched.match.busy_s",
    "sched.flatten.busy_s",
    "pipesim.des.busy_s",
    "scenario.point.busy_s",
    "scenario.drive.busy_s",
    "fleet.pack.busy_s",
    "fleet.preempt.busy_s",
    "study.idle_s",
    "trace.probe_s",
    "trace.harness_s",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set up, then exit: one `setup_s` sample (see [`setup_probe`]).
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut opts: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                opts.insert(&k[2..], v);
            }
            _ => return Err(format!("unexpected argument `{}`", pair[0])),
        }
    }
    let get = |k: &str| opts.get(k).copied().ok_or(format!("missing --{k}"));
    let workload = get("workload")?;
    let args = Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload `{workload}`"))?,
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, got `{t}`")),
        },
        setup_only: opts.get("setup-only") == Some(&"1"),
    };
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// The smallest sample.
fn fastest(v: &[f64]) -> f64 {
    quantile(v, 0.0)
}

/// Linear-interpolated quantile of a non-empty sample.
fn quantile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Peak resident set of this process (MB), from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Measured passes over the inputs until `budget` is spent (at least
/// `min` passes), running `between` untimed after each pass. Returns
/// each pass's wall time and result.
fn passes(
    inputs: &Inputs,
    model: &dyn CostModel,
    tr: Option<&Tracer>,
    budget: Duration,
    min: usize,
    mut between: impl FnMut(),
) -> Vec<(f64, PassResult)> {
    let start = Instant::now();
    let mut out: Vec<(f64, PassResult)> = Vec::new();
    loop {
        let walls: Vec<f64> = out.iter().map(|p| p.0).collect();
        if out.len() >= min && start.elapsed() + Duration::from_secs_f64(median(&walls)) > budget {
            return out;
        }
        let t0 = Instant::now();
        let result = inputs.pass(model, tr);
        out.push((t0.elapsed().as_secs_f64(), result));
        between();
    }
}

/// Checks every pass against the first untraced pass, op by op. Returns
/// (ops attempted, ops failed): an op fails a check, or its digest
/// differs from the first pass's.
fn tally(runs: &[(f64, PassResult)], first: &[u64]) -> (u64, u64) {
    runs.iter().fold((0, 0), |(att, fail), (_, r)| {
        let drift = r.digests.iter().zip(first).filter(|(a, b)| a != b).count() as u64;
        (att + r.op_times.len() as u64, fail + r.failed + drift)
    })
}

fn print_accuracy() {
    let calib = npu_maestro::calib::calibration_table();
    let worst = calib
        .iter()
        .max_by(|a, b| a.relative_error().total_cmp(&b.relative_error()))
        .expect("calibration rows");
    println!(
        "  accuracy: cost model vs paper per-layer latencies: max rel. error {:.4} ({}, {} rows)",
        worst.relative_error(),
        worst.quantity,
        calib.len()
    );
    let fig = npu_experiments::fig5to8::run();
    let (kind, err) = fig
        .rows
        .iter()
        .map(|r| (r.kind, (r.pipe.as_millis() / r.paper.pipe_ms - 1.0).abs()))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("stage rows");
    println!(
        "  accuracy: matched 6x6 stage pipes vs paper Figs. 5-8: max rel. error {err:.4} ({kind:?})"
    );
    println!(
        "  accuracy: the DES, drive and fleet layers have no reference data in the repository \
         and are unvalidated"
    );
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "{}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    out.push_str("}}");
    out
}

/// Set-up: model, packages, seeded inputs and one untimed warm-up op.
fn set_up(w: Workload, seed: u64) -> Inputs {
    let model = FittedMaestro::new();
    let inputs = Inputs::generate(w, seed);
    inputs.warm_up(&model);
    inputs
}

/// One `setup_s` sample: the CPU time a fresh copy of this program, run
/// with the same arguments plus `--setup-only 1`, spends from its start
/// until it has set up. So the sample includes process start. CPU time
/// leaves out the time the host ran other guests on our CPU.
fn setup_probe() -> f64 {
    let exe = std::env::current_exe().expect("path of the running program");
    let out = Command::new(exe)
        .args(std::env::args().skip(1))
        .args(["--setup-only", "1"])
        .stderr(Stdio::inherit())
        .output()
        .expect("set-up probe starts");
    assert!(
        out.status.success(),
        "set-up probe exited with {}",
        out.status
    );
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .expect("set-up probe prints its CPU seconds")
}

/// Host wall time (s) a pass spent in reference kernel runs.
fn reference_wall(r: &PassResult) -> f64 {
    r.op_times.iter().map(|o| o.reference_wall).sum()
}

/// One pass's times, scaled by the pass's reference kernel runs.
struct Scaled {
    /// `REFERENCE_S` ÷ the median reference kernel run of the pass.
    factor: f64,
    /// Each op's CPU time times `factor`.
    ops: Vec<f64>,
    /// The pass's scaled wall time: per fan-out query, the makespan of
    /// its ops on `workers` workers, each op claimed in order by the first
    /// worker to free, as `npu-par` claims them.
    wall: f64,
}

fn scale(r: &PassResult, workers: usize) -> Scaled {
    let kernel: Vec<f64> = r
        .op_times
        .iter()
        .flat_map(|o| o.reference.iter().copied())
        .collect();
    let factor = speed::REFERENCE_S / median(&kernel);
    let ops: Vec<f64> = r.op_times.iter().map(|o| o.cpu * factor).collect();
    let mut wall = 0.0;
    let mut start = 0;
    // The schedule is modelled rather than read off the threads: which
    // thread claims which op follows the host's wall clock, so steal on
    // one virtual CPU would move work to the other.
    for end in r.query_ends.iter().copied().chain([r.op_times.len()]) {
        let mut free_at = vec![0.0f64; workers];
        for t in &ops[start..end] {
            let first = (0..workers)
                .min_by(|&a, &b| free_at[a].total_cmp(&free_at[b]))
                .expect("at least one worker");
            free_at[first] += t;
        }
        wall += free_at.iter().copied().fold(0.0, f64::max);
        start = end;
    }
    Scaled { factor, ops, wall }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "e2ebench: {e}\nusage: e2ebench --workload <dse-grid|long-drive|fleet-pack> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;

    let inputs = set_up(w, args.seed);
    if args.setup_only {
        // A set-up probe: leave at once, without tearing the inputs down.
        println!("{}", speed::process_cpu());
        std::mem::forget(inputs);
        return ExitCode::SUCCESS;
    }
    let model = FittedMaestro::new();
    let budget = Duration::from_secs_f64(args.seconds);

    println!(
        "e2ebench workload={} seed={} seconds={} trace={} workers={} ops/pass={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.workers(),
        inputs.ops()
    );

    let (untraced_budget, min) = if args.trace {
        (budget / 2, 2)
    } else {
        (budget, MIN_PASSES)
    };
    // Set-up probes run between the measured passes, outside their
    // timing, so the samples spread over the run as the passes do.
    let mut setups: Vec<f64> = Vec::new();
    let runs = passes(&inputs, &model, None, untraced_budget, min, || {
        if !args.trace && setups.len() < SETUP_REPS {
            setups.push(setup_probe());
        }
    });
    while !args.trace && setups.len() < SETUP_REPS {
        setups.push(setup_probe());
    }
    // Host wall time of each pass, without its reference kernel runs.
    let walls: Vec<f64> = runs
        .iter()
        .map(|(wall, r)| wall - reference_wall(r))
        .collect();
    let scaled: Vec<Scaled> = runs.iter().map(|(_, r)| scale(r, w.workers())).collect();
    let factors: Vec<f64> = scaled.iter().map(|s| s.factor).collect();
    println!(
        "  passes: {} untraced, host wall min {:.4} s, median {:.4} s, max {:.4} s; \
         host slow-down (reference kernel) min {:.3}, median {:.3}, max {:.3}",
        walls.len(),
        fastest(&walls),
        median(&walls),
        quantile(&walls, 1.0),
        1.0 / quantile(&factors, 1.0),
        1.0 / median(&factors),
        1.0 / fastest(&factors)
    );
    // Each op at its median over the run's passes, in scaled seconds.
    let ops: Vec<f64> = (0..inputs.ops())
        .map(|j| median(&scaled.iter().map(|s| s.ops[j]).collect::<Vec<_>>()))
        .collect();
    let wall_s = median(&scaled.iter().map(|s| s.wall).collect::<Vec<_>>());
    let (mut attempted, mut failed) = tally(&runs, &runs[0].1.digests);
    let (checked, mismatched) = inputs.determinism(&model, &runs[0].1.digests);
    attempted += checked;
    failed += mismatched;
    let pass_digest = runs[0]
        .1
        .digests
        .iter()
        .fold(0u64, |h, d| h.rotate_left(5) ^ d);

    let metrics: Vec<(&str, f64, &str)> = if !args.trace {
        let frames = runs[0].1.frames as f64;
        let e2e = vec![
            ("setup_s", median(&setups) * median(&factors), "s"),
            ("wall_s", wall_s, "s"),
            ("op_ms_p50", median(&ops) * 1e3, "ms"),
            ("sim_frames_per_s", frames / wall_s, "1/s"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
        ];
        for (name, value, unit) in &e2e {
            println!("  {name:<18} {value:>14.6} {unit}");
        }
        if ops.len() >= 100 {
            println!(
                "  {:<18} {:>14.6} ms ({} ops)",
                "op_ms_p90",
                quantile(&ops, 0.9) * 1e3,
                ops.len()
            );
        } else {
            println!(
                "  {:<18} {:>14} ms (only {} ops; needs 100)",
                "op_ms_p90",
                "n/a",
                ops.len()
            );
        }
        println!(
            "  {:<18} {:>14.6} ratio ({failed} of {attempted} ops failed a check)",
            "error_rate",
            failed as f64 / attempted as f64
        );
        e2e
    } else {
        let tracer = Tracer::default();
        let counted = Counted { inner: &model };
        let traced = passes(&inputs, &counted, Some(&tracer), budget / 2, 1, || {});
        let (att, fail) = tally(&traced, &runs[0].1.digests);
        attempted += att;
        failed += fail;
        let n = traced.len() as f64;
        let traced_walls: Vec<f64> = traced.iter().map(|r| r.0).collect();
        let a = attribute(&tracer.spans(), w.workers());
        let counters = tracer.counters();
        let c = |k: &str| counters.get(k).copied().unwrap_or(0.0);
        let s = |k: &str| a.seconds.get(k).copied().unwrap_or(0.0);
        let calls = |k: &str| a.calls.get(k).copied().unwrap_or(0.0);
        let ratio = |x: f64, y: f64| if y > 0.0 { x / y } else { 0.0 };
        let mut v: BTreeMap<&str, f64> = BTreeMap::new();
        v.insert("maestro.calls", a.maestro_calls / n);
        v.insert("maestro.busy_s", s("maestro") / n);
        v.insert("sched.match.calls", calls("sched.match") / n);
        v.insert("sched.match.busy_s", s("sched.match") / n);
        v.insert("sched.match.steps", c("sched.match.steps") / n);
        v.insert(
            "sched.match.ms_per_call",
            ratio(s("sched.match"), calls("sched.match")) * 1e3,
        );
        v.insert("sched.flatten.calls", calls("sched.flatten") / n);
        v.insert("sched.flatten.busy_s", s("sched.flatten") / n);
        v.insert("sched.flatten.items", c("sched.flatten.items") / n);
        v.insert("pipesim.des.calls", calls("pipesim.des") / n);
        v.insert("pipesim.des.busy_s", s("pipesim.des") / n);
        v.insert("pipesim.des.frames", c("pipesim.des.frames") / n);
        v.insert(
            "pipesim.des.ns_per_frame",
            ratio(s("pipesim.des"), c("pipesim.des.frames")) * 1e9,
        );
        v.insert(
            "pipesim.des.peak_in_flight",
            c("pipesim.des.peak_in_flight"),
        );
        v.insert("pipesim.des.dropped", c("pipesim.des.dropped") / n);
        v.insert("pipesim.des.flushed", c("pipesim.des.flushed") / n);
        v.insert("scenario.point.calls", calls("scenario.point") / n);
        v.insert("scenario.point.busy_s", s("scenario.point") / n);
        v.insert("scenario.drive.calls", calls("scenario.drive") / n);
        v.insert("scenario.drive.busy_s", s("scenario.drive") / n);
        for k in [
            "scenario.drive.transitions",
            "scenario.drive.stalled",
            "scenario.drive.prestaged",
            "fleet.offered",
            "fleet.admitted",
            "fleet.instances",
        ] {
            v.insert(k, c(k) / n);
        }
        v.insert("fleet.pack.busy_s", s("fleet.pack") / n);
        v.insert("fleet.preempt.busy_s", s("fleet.preempt") / n);
        v.insert(
            "fleet.admit_ratio",
            ratio(c("fleet.admitted"), c("fleet.offered")),
        );
        v.insert("study.points", calls("scenario.point") / n);
        v.insert("study.worker_busy_s", a.worker_busy_s / n);
        v.insert(
            "study.par_efficiency",
            ratio(a.worker_busy_s, a.query_capacity_s),
        );
        v.insert("study.tail_idle_s", a.tail_idle_s / n);
        v.insert("study.idle_s", s("study.idle_s") / n);
        v.insert("trace.probe_s", s("trace.probe_s") / n);
        v.insert("trace.harness_s", s("trace.harness_s") / n);
        v.insert("trace.wall_s", a.wall_s / n);
        v.insert("trace.accounted_s", a.accounted_s / n);
        v.insert("trace.overhead_s", median(&traced_walls) - median(&walls));

        let total = v["trace.accounted_s"];
        let attributed: f64 = ATTRIBUTED.iter().map(|k| v[k]).sum();
        println!(
            "  per traced pass ({} traced, {} untraced passes):",
            traced.len(),
            runs.len()
        );
        for k in &ATTRIBUTED {
            println!(
                "  {:<24} {:>12.6} s {:>6.1}%",
                k,
                v[k],
                100.0 * v[k] / total
            );
        }
        println!(
            "  attributed {attributed:.6} s of accounted {total:.6} s (traced wall {:.6} s{})",
            v["trace.wall_s"],
            if w.workers() > 1 {
                " plus the extra workers' share of the Study queries"
            } else {
                ""
            }
        );
        let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
        let path = std::path::Path::new(&dir)
            .join("e2ebench-trace")
            .join(format!("{}-seed{}.json", w.name(), args.seed));
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, tracer.spans_json()));
        match written {
            Ok(()) => println!("  spans: {}", path.display()),
            Err(e) => eprintln!("e2ebench: could not write spans to {}: {e}", path.display()),
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, v.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    };

    println!("  results digest: {pass_digest:016x}");
    if checked > 0 {
        println!("  determinism: {checked} grid points re-run on 1 worker, {mismatched} differ");
    }
    print_accuracy();
    println!("{}", json_line(failed == 0, attempted, failed, &metrics));
    ExitCode::SUCCESS
}
