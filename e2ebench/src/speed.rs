//! Host time that holds still on a shared machine.
//!
//! On a small VM the same code runs up to twice as slow from one minute
//! to the next. Part of that is steal: the host runs another guest on our
//! virtual CPU. The thread CPU clock leaves steal out, so every op is
//! timed on it. The rest is contention the clock cannot see: other guests
//! on the core's sibling thread and in the shared caches slow the CPU
//! down. To take that out, a fixed reference kernel runs on the same
//! thread after every op. The kernel is the benchmark's own code, so no
//! change to the repository's crates moves its time: when it runs slower,
//! the host ran slower. The run scales its CPU times by how slow the
//! kernel ran in the same pass (see `main.rs`).

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

use crate::workloads::Rng;

/// Reference runs after each op: at least this share of the op's CPU
/// time, and at least one run.
const REFERENCE_SHARE: f64 = 0.10;

/// The kernel CPU time (s) scaled times are expressed against: about what
/// one kernel run takes on the 2-vCPU Xeon VM BASELINE.md was recorded
/// on. It only sets the unit; scaled times compare runs of this benchmark.
pub const REFERENCE_S: f64 = 2.0e-3;

/// A fixed mix of what the simulator's ops do, in three parts with
/// different sensitivities to a busy host; together they track the
/// simulator's slow-down better than any one of them (see the README).
fn kernel() -> u64 {
    sort_and_map() ^ event_queue() ^ text()
}

/// A sort, then ordered-map inserts and look-ups: allocation and pointer
/// chasing, with a dependent floating-point chain.
fn sort_and_map() -> u64 {
    const KEYS: usize = 2048;
    let mut rng = Rng::new(0x5EED, 1);
    let mut keys: Vec<u64> = (0..KEYS).map(|_| rng.next_u64()).collect();
    keys.sort_unstable();
    let mut map: BTreeMap<u64, usize> = BTreeMap::new();
    for (i, k) in keys.iter().enumerate() {
        map.insert(k.rotate_left(17), i);
    }
    let mut hits = 0u64;
    let mut acc = 1.0f64;
    for k in &keys {
        hits += u64::from(map.contains_key(&k.rotate_left(13)));
        acc = (acc * 1.000_001 + (k >> 44) as f64).sqrt();
    }
    hits ^ acc.to_bits() ^ keys[KEYS / 2]
}

/// A small discrete-event loop: a binary-heap calendar over 64 stations,
/// then a sort of the recorded latencies.
fn event_queue() -> u64 {
    const EVENTS: usize = 7500;
    const STATIONS: u64 = 64;
    let mut rng = Rng::new(0x5EED, 2);
    let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
    let mut free_at = vec![0u64; STATIONS as usize];
    let mut latency: Vec<f64> = Vec::with_capacity(EVENTS);
    for i in 0..256 {
        heap.push(Reverse((rng.next_u64() >> 40, i % STATIONS)));
    }
    while latency.len() < EVENTS {
        let Some(Reverse((t, st))) = heap.pop() else {
            break;
        };
        let s = st as usize;
        free_at[s] = t.max(free_at[s]) + 1000 + (rng.next_u64() >> 52);
        latency.push((free_at[s] - t) as f64 * 1e-3);
        let next = (st * 7 + (rng.next_u64() & 15)) % STATIONS;
        heap.push(Reverse((free_at[s], next)));
    }
    latency.sort_by(f64::total_cmp);
    latency[latency.len() / 2].to_bits() ^ free_at[3]
}

/// Float formatting and parsing, hashed-map inserts and a string sort:
/// branchy code with a large instruction footprint.
fn text() -> u64 {
    const WORDS: usize = 750;
    let mut rng = Rng::new(0x5EED, 3);
    let mut map: HashMap<String, f64> = HashMap::new();
    let mut words: Vec<String> = Vec::with_capacity(WORDS);
    for i in 0..WORDS {
        let x = rng.uniform(-1e6, 1e6);
        let w = format!("{x:.6e}/{i}");
        map.insert(w.clone(), x);
        words.push(w);
    }
    words.sort();
    let mut acc = 0.0;
    for w in &words {
        let head = w.split('/').next().unwrap_or("0");
        acc += head.parse::<f64>().unwrap_or(0.0) + map[w];
    }
    acc.to_bits() ^ words[WORDS / 2].len() as u64
}

/// Host time of one op.
#[derive(Debug)]
pub struct OpTime {
    /// CPU time (s) the op's thread ran during the op.
    pub cpu: f64,
    /// CPU time (s) of each reference kernel run after the op.
    pub reference: Vec<f64>,
    /// Wall time (s) of those runs.
    pub reference_wall: f64,
}

/// Times one op on the calling thread.
pub struct Stopwatch {
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch { cpu: thread_cpu() }
    }

    /// Stops the watch. With `reference`, then runs the reference kernel
    /// on the same thread, for [`REFERENCE_SHARE`] of the op's CPU time.
    pub fn stop(self, reference: bool) -> OpTime {
        let cpu = thread_cpu() - self.cpu;
        let t0 = Instant::now();
        let mut runs: Vec<f64> = Vec::new();
        while reference && (runs.is_empty() || runs.iter().sum::<f64>() < REFERENCE_SHARE * cpu) {
            let c0 = thread_cpu();
            black_box(kernel());
            runs.push(thread_cpu() - c0);
        }
        OpTime {
            cpu,
            reference: runs,
            reference_wall: t0.elapsed().as_secs_f64(),
        }
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

fn cpu_clock(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock})");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU time (s) the calling thread has run.
pub fn thread_cpu() -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time (s) every thread of this process has run since it started.
pub fn process_cpu() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}
