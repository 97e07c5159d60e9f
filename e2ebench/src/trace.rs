//! The traced run's recorder: spans kept in memory, a cost-model wrapper
//! that charges every `layer_cost` call to the innermost open span, and
//! the attribution that turns spans into per-layer self times.
//!
//! Spans are recorded only around the benchmark's own calls into each
//! layer's public functions; the library crates never read the clock.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde::Serialize;

use npu_dnn::Layer;
use npu_maestro::{Accelerator, CostModel, LayerCost};

/// The role a span plays in the attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Kind {
    /// One measured pass over the workload's op set.
    Pass,
    /// One `Study` query (its points run on worker threads).
    Query,
    /// One op: a grid point, a drive, a pack or a preemption call.
    Op,
    /// The public entry point a user calls; the op's e2e time.
    Composite,
    /// A re-run of a hidden layer's public function on the same inputs.
    Probe,
}

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    pub name: &'static str,
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
    pub thread: u64,
    /// `layer_cost` calls made directly inside this span.
    pub maestro_calls: u64,
    /// Host time of those calls.
    pub maestro_ns: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Frame {
    id: usize,
    op: u64,
    maestro_calls: u64,
    maestro_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

/// In-memory span and counter store for one traced run.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<&'static str, f64>>,
    next_op: AtomicU64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
            next_op: AtomicU64::new(0),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span whose parent is this thread's innermost
    /// open span. An `Op` span starts a new op id; others inherit it.
    pub fn span<R>(&self, name: &'static str, kind: Kind, f: impl FnOnce() -> R) -> R {
        let parent = STACK.with(|s| s.borrow().last().map(|fr| (fr.id, fr.op)));
        self.run(name, kind, parent, f)
    }

    /// [`span`](Tracer::span) under an explicit parent: the first span a
    /// worker thread opens for a query running on the caller's thread.
    pub fn span_under<R>(
        &self,
        parent: Option<usize>,
        name: &'static str,
        kind: Kind,
        f: impl FnOnce() -> R,
    ) -> R {
        self.run(name, kind, parent.map(|p| (p, 0)), f)
    }

    /// The innermost open span on this thread.
    pub fn current(&self) -> Option<usize> {
        STACK.with(|s| s.borrow().last().map(|fr| fr.id))
    }

    fn run<R>(
        &self,
        name: &'static str,
        kind: Kind,
        parent: Option<(usize, u64)>,
        f: impl FnOnce() -> R,
    ) -> R {
        let op = match (kind, parent) {
            (Kind::Op, _) | (_, None) => self.next_op.fetch_add(1, Ordering::Relaxed),
            (_, Some((_, op))) => op,
        };
        let start_ns = self.now_ns();
        let id = {
            let mut spans = self.spans.lock().expect("span store poisoned");
            spans.push(Span {
                name,
                kind,
                start_ns,
                end_ns: start_ns,
                parent: parent.map(|(p, _)| p),
                op,
                thread: THREAD.with(|t| *t),
                maestro_calls: 0,
                maestro_ns: 0,
            });
            spans.len() - 1
        };
        STACK.with(|s| {
            s.borrow_mut().push(Frame {
                id,
                op,
                maestro_calls: 0,
                maestro_ns: 0,
            })
        });
        let out = f();
        let frame = STACK
            .with(|s| s.borrow_mut().pop())
            .expect("span stack underflow");
        let end_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span store poisoned");
        let span = &mut spans[id];
        span.end_ns = end_ns;
        span.maestro_calls = frame.maestro_calls;
        span.maestro_ns = frame.maestro_ns;
        out
    }

    /// Adds `v` to a named counter.
    pub fn add(&self, name: &'static str, v: f64) {
        *self
            .counters
            .lock()
            .expect("counter store poisoned")
            .entry(name)
            .or_default() += v;
    }

    /// Raises a named counter to at least `v`.
    pub fn max(&self, name: &'static str, v: f64) {
        let mut c = self.counters.lock().expect("counter store poisoned");
        let slot = c.entry(name).or_default();
        *slot = slot.max(v);
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// The named counters.
    pub fn counters(&self) -> BTreeMap<&'static str, f64> {
        self.counters
            .lock()
            .expect("counter store poisoned")
            .clone()
    }

    /// The spans as a JSON array, in opening order (a span's id is its
    /// index).
    pub fn spans_json(&self) -> String {
        serde_json::to_string_pretty(&self.spans()).expect("spans serialize")
    }
}

/// Runs `f` in a span when tracing, or just runs it.
pub fn span<R>(tr: Option<&Tracer>, name: &'static str, kind: Kind, f: impl FnOnce() -> R) -> R {
    match tr {
        Some(t) => t.span(name, kind, f),
        None => f(),
    }
}

/// A [`CostModel`] wrapper that times every `layer_cost` call and charges
/// it to the innermost open span on the calling thread.
pub struct Counted<'a> {
    pub inner: &'a dyn CostModel,
}

impl CostModel for Counted<'_> {
    fn layer_cost(&self, layer: &Layer, acc: &Accelerator) -> LayerCost {
        let t0 = Instant::now();
        let cost = self.inner.layer_cost(layer, acc);
        let ns = t0.elapsed().as_nanos() as u64;
        STACK.with(|s| {
            if let Some(top) = s.borrow_mut().last_mut() {
                top.maestro_calls += 1;
                top.maestro_ns += ns;
            }
        });
        cost
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Host time attributed to each layer, plus the named remainders, over
/// every traced pass. All values are seconds (or counts where named).
#[derive(Debug, Default, Clone)]
pub struct Attribution {
    /// Self time per layer or remainder name.
    pub seconds: BTreeMap<&'static str, f64>,
    /// Calls per layer name.
    pub calls: BTreeMap<&'static str, f64>,
    /// `layer_cost` calls inside composite spans.
    pub maestro_calls: f64,
    /// Traced pass wall time, summed.
    pub wall_s: f64,
    /// Wall time plus the extra worker-seconds of parallel queries: the
    /// total the attributed seconds must sum to.
    pub accounted_s: f64,
    /// Σ point busy time inside queries.
    pub worker_busy_s: f64,
    /// Σ query wall × workers.
    pub query_capacity_s: f64,
    /// Σ per worker of (query end − that worker's last point end).
    pub tail_idle_s: f64,
}

/// Probe names whose self time is a layer of its own.
pub const LAYER_PROBES: [&str; 3] = ["sched.match", "sched.flatten", "pipesim.des"];

const NS: f64 = 1e-9;

/// Turns spans into per-layer self times. A probe's self time is its
/// duration minus the cost-model time inside it. Every DES entry point
/// flattens its schedules itself, so the DES's self time is its probe
/// time minus the flatten probes of the same op. A composite's named
/// remainder is its self time minus the hidden layers its probes
/// re-measured; the outermost probe spans are counted once more as
/// `trace.probe_s`, so the attributed seconds sum to the accounted total.
pub fn attribute(spans: &[Span], workers: usize) -> Attribution {
    fn add(m: &mut BTreeMap<&'static str, f64>, k: &'static str, v: f64) {
        *m.entry(k).or_default() += v;
    }
    let mut a = Attribution::default();

    // Per op: composite self times and the probe self times by layer.
    let mut per_op: BTreeMap<u64, (Vec<usize>, BTreeMap<&'static str, f64>)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        match s.kind {
            Kind::Composite => per_op.entry(s.op).or_default().0.push(i),
            Kind::Probe => {
                let self_s = (s.dur() - s.maestro_ns.min(s.dur())) as f64 * NS;
                // Probes nest inside one outer probe span per op; only the
                // outermost counts as re-run time.
                if s.parent.is_none_or(|p| spans[p].kind != Kind::Probe) {
                    add(&mut a.seconds, "trace.probe_s", s.dur() as f64 * NS);
                }
                if LAYER_PROBES.contains(&s.name) {
                    add(&mut per_op.entry(s.op).or_default().1, s.name, self_s);
                    add(&mut a.calls, s.name, 1.0);
                }
            }
            _ => {}
        }
    }
    for (composites, probes) in per_op.values() {
        let get = |k: &str| probes.get(k).copied().unwrap_or(0.0);
        let (matched, flatten, des) =
            (get("sched.match"), get("sched.flatten"), get("pipesim.des"));
        add(&mut a.seconds, "sched.match", matched);
        add(&mut a.seconds, "sched.flatten", flatten);
        add(&mut a.seconds, "pipesim.des", des - flatten);
        let mut hidden = matched + des;
        for &c in composites {
            let s = &spans[c];
            a.maestro_calls += s.maestro_calls as f64;
            add(&mut a.seconds, "maestro", s.maestro_ns as f64 * NS);
            add(&mut a.calls, s.name, 1.0);
            // One composite per probed op; the whole hidden share is its.
            let self_s = (s.dur() - s.maestro_ns.min(s.dur())) as f64 * NS;
            add(&mut a.seconds, s.name, self_s - hidden);
            hidden = 0.0;
        }
    }

    // Harness time: the part of each pass, query or op no child covers.
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if matches!(
                s.kind,
                Kind::Op | Kind::Composite | Kind::Probe | Kind::Query
            ) {
                child_ns[p] += s.dur();
            }
        }
    }
    for (i, s) in spans.iter().enumerate() {
        match s.kind {
            Kind::Pass => {
                a.wall_s += s.dur() as f64 * NS;
                a.accounted_s += s.dur() as f64 * NS;
                add(
                    &mut a.seconds,
                    "trace.harness_s",
                    (s.dur() - child_ns[i].min(s.dur())) as f64 * NS,
                );
            }
            Kind::Op => {
                add(
                    &mut a.seconds,
                    "trace.harness_s",
                    (s.dur() - child_ns[i].min(s.dur())) as f64 * NS,
                );
            }
            Kind::Query => {
                let cap = s.dur() as f64 * NS * workers as f64;
                a.query_capacity_s += cap;
                a.accounted_s += cap - s.dur() as f64 * NS;
                a.worker_busy_s += child_ns[i] as f64 * NS;
                add(
                    &mut a.seconds,
                    "study.idle_s",
                    cap - child_ns[i] as f64 * NS,
                );
                // Tail idle: each worker's wait after its last point.
                let mut last: BTreeMap<u64, u64> = BTreeMap::new();
                for c in spans.iter().filter(|c| c.parent == Some(i)) {
                    let e = last.entry(c.thread).or_default();
                    *e = (*e).max(c.end_ns);
                }
                let ran = last.len().min(workers);
                a.tail_idle_s += last
                    .values()
                    .map(|&e| s.end_ns.saturating_sub(e) as f64 * NS)
                    .sum::<f64>()
                    + (workers - ran) as f64 * s.dur() as f64 * NS;
            }
            _ => {}
        }
    }
    a
}
