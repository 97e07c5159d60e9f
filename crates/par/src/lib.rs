//! Scoped-thread parallel executor for sweep grids.
//!
//! The paper's headline artifacts (Table I DSE, the Fig. 9–11 scaling /
//! failure / NoP sweeps) are all grids of *independent* simulate-and-score
//! points. This crate provides the worker pool that fans those grids out
//! across cores without changing a single result bit:
//!
//! * [`par_map`] / [`par_map_indexed`] — map a pure function over a slice
//!   on `current_jobs()` scoped threads, returning results in **input
//!   order**. With a deterministic `f`, the output is exactly the output
//!   of the corresponding serial `map`, for every jobs count.
//! * [`join`] — run two independent closures concurrently.
//! * [`set_default_jobs`] / [`with_jobs`] — process-wide and scoped
//!   control of the worker count (the `repro --jobs N` flag feeds the
//!   former; tests pin determinism with the latter).
//!
//! Built on [`std::thread::scope`], so closures may borrow from the
//! caller's stack and no external dependency is needed (the vendored
//! registry is offline).
//!
//! # Determinism
//!
//! Work items are claimed from an atomic counter (load-balancing across
//! heterogeneous point costs) but every result is written back to the
//! slot of its input index, so ordering — and therefore any downstream
//! fold, argmin or tie-break — is independent of scheduling. The
//! executors deliberately expose no reduce-in-arrival-order primitive.
//!
//! # Examples
//!
//! ```
//! let squares = npu_par::par_map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//!
//! // Scoped override: force a serial run regardless of the machine.
//! let serial = npu_par::with_jobs(1, || npu_par::par_map(&[1u64, 2, 3, 4], |&x| x * x));
//! assert_eq!(serial, squares);
//! ```

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Process-wide default worker count; `0` means "not set, use
/// [`available_jobs`]".
static DEFAULT_JOBS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Scoped override installed by [`with_jobs`]; workers spawned by
    /// [`par_map`]/[`join`] get their share of the caller's budget
    /// (`caller jobs / workers`, min 1) so nesting never multiplies the
    /// total thread count.
    static JOBS_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The machine's available parallelism (≥ 1).
pub fn available_jobs() -> usize {
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Sets the process-wide default worker count (clamped to ≥ 1).
///
/// The `repro` CLI calls this once at startup from its `--jobs N` flag.
/// A scoped [`with_jobs`] override still takes precedence.
pub fn set_default_jobs(jobs: usize) {
    DEFAULT_JOBS.store(jobs.max(1), Ordering::Relaxed);
}

/// The worker count the next [`par_map`] on this thread will use:
/// the innermost [`with_jobs`] override, else the [`set_default_jobs`]
/// value, else [`available_jobs`].
pub fn current_jobs() -> usize {
    JOBS_OVERRIDE
        .with(|o| o.get())
        .unwrap_or_else(|| match DEFAULT_JOBS.load(Ordering::Relaxed) {
            0 => available_jobs(),
            n => n,
        })
}

/// Runs `f` with the worker count overridden to `jobs` (clamped to ≥ 1)
/// on this thread; [`par_map`]/[`join`] calls inside `f` spread that
/// budget across their workers (each worker gets `jobs / workers`,
/// min 1).
///
/// The override is restored on exit, including on panic.
pub fn with_jobs<R>(jobs: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            JOBS_OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(JOBS_OVERRIDE.with(|o| o.replace(Some(jobs.max(1)))));
    f()
}

/// Maps `f` over `items` on up to [`current_jobs`] scoped threads,
/// returning results in input order.
///
/// Equivalent to `items.iter().map(f).collect()` for any pure `f`, at
/// every jobs count. Panics in `f` propagate to the caller.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_indexed(items, |_, item| f(item))
}

/// [`par_map`] with the input index passed to `f`.
pub fn par_map_indexed<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let jobs = current_jobs().min(items.len());
    if jobs <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    // Workers claim indices from a shared counter (load balance) and
    // write each result into the slot of its input index (determinism).
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<U>>> = items.iter().map(|_| Mutex::new(None)).collect();
    // Divide the jobs budget across nesting levels: `jobs` workers each
    // inherit `jobs_total / jobs`, so a nested par_map (e.g. a sweep
    // inside run_all) keeps total concurrency near the budget instead of
    // multiplying it. Results are jobs-invariant, so the split only
    // affects scheduling, never output.
    let inner_jobs = (current_jobs() / jobs).max(1);
    thread::scope(|s| {
        let workers: Vec<_> = (0..jobs)
            .map(|_| {
                s.spawn(|| {
                    JOBS_OVERRIDE.with(|o| o.set(Some(inner_jobs)));
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        let out = f(i, item);
                        *slots[i].lock().expect("no poisoned slot") = Some(out);
                    }
                })
            })
            .collect();
        for worker in workers {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no poisoned slot")
                .expect("every slot filled")
        })
        .collect()
}

/// [`par_map`] that stays serial below `min_len` items.
///
/// For fine-grained inner loops (e.g. candidate scoring inside the
/// throughput matcher) where per-item work is microseconds, spawning
/// threads costs more than it saves; this keeps the parallel path for
/// grids that amortize it.
pub fn par_map_threshold<T, U, F>(items: &[T], min_len: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    if items.len() < min_len {
        items.iter().map(f).collect()
    } else {
        par_map(items, f)
    }
}

/// Runs two independent closures concurrently and returns both results.
///
/// Serial (left then right) when [`current_jobs`] is 1, so scoped
/// overrides pin execution order too.
pub fn join<A, B, FA, FB>(fa: FA, fb: FB) -> (A, B)
where
    B: Send,
    FA: FnOnce() -> A,
    FB: FnOnce() -> B + Send,
{
    if current_jobs() <= 1 {
        let a = fa();
        let b = fb();
        return (a, b);
    }
    // Split the jobs budget between the two sides (see par_map_indexed).
    let inner_jobs = (current_jobs() / 2).max(1);
    thread::scope(|s| {
        let right = s.spawn(move || {
            JOBS_OVERRIDE.with(|o| o.set(Some(inner_jobs)));
            fb()
        });
        let a = with_jobs(inner_jobs, fa);
        let b = match right.join() {
            Ok(b) => b,
            Err(panic) => std::panic::resume_unwind(panic),
        };
        (a, b)
    })
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Condvar;
    use std::time::{Duration, Instant};

    use proptest::prelude::*;

    use super::*;

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map(&items, |&x| x * 3 + 1);
        assert_eq!(out, items.iter().map(|&x| x * 3 + 1).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_indexed_sees_correct_indices() {
        let items = vec!["a"; 64];
        let out = par_map_indexed(&items, |i, s| format!("{s}{i}"));
        for (i, v) in out.iter().enumerate() {
            assert_eq!(v, &format!("a{i}"));
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(par_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn with_jobs_forces_serial_on_caller_thread() {
        with_jobs(1, || {
            assert_eq!(current_jobs(), 1);
            let caller = thread::current().id();
            let out = par_map(&[1, 2, 3], |_| thread::current().id());
            assert!(out.iter().all(|&id| id == caller), "jobs=1 stays inline");
        });
    }

    #[test]
    fn with_jobs_restores_on_exit() {
        let outer = current_jobs();
        with_jobs(3, || assert_eq!(current_jobs(), 3));
        assert_eq!(current_jobs(), outer);
    }

    #[test]
    fn workers_split_the_jobs_budget() {
        // 2 workers over a 2-wide budget: each inner level gets 1 job,
        // so nested par_maps stay serial instead of multiplying threads.
        with_jobs(2, || {
            let seen = par_map(&[(), ()], |_| current_jobs());
            assert_eq!(seen, vec![1, 1]);
        });
        // 8-wide budget over 2 items: each worker may fan out 4-wide.
        with_jobs(8, || {
            let seen = par_map(&[(), ()], |_| current_jobs());
            assert_eq!(seen, vec![4, 4]);
        });
    }

    #[test]
    fn multiple_workers_actually_run() {
        with_jobs(4, || {
            let items: Vec<u64> = (0..64).collect();
            let ids = Mutex::new(HashSet::new());
            let entered = Condvar::new();
            // One deadline for the whole map, so a one-thread regression
            // fails after it once instead of waiting it out per item.
            let deadline = Instant::now() + Duration::from_secs(10);
            par_map(&items, |_| {
                let mut seen = ids.lock().unwrap();
                seen.insert(thread::current().id());
                entered.notify_all();
                // Rendezvous: hold every item until a second thread has
                // entered, so one worker cannot drain the queue before the
                // next one starts.
                let left = deadline.saturating_duration_since(Instant::now());
                let _ = entered
                    .wait_timeout_while(seen, left, |s| s.len() < 2)
                    .unwrap();
            });
            assert!(
                ids.into_inner().unwrap().len() > 1,
                "work spread over threads"
            );
        });
    }

    #[test]
    fn every_item_is_claimed_exactly_once() {
        let calls = AtomicUsize::new(0);
        let items: Vec<u64> = (0..257).collect();
        let out = with_jobs(8, || {
            par_map(&items, |&x| {
                calls.fetch_add(1, Ordering::Relaxed);
                x
            })
        });
        assert_eq!(calls.load(Ordering::Relaxed), items.len());
        assert_eq!(out, items);
    }

    #[test]
    fn threshold_stays_serial_below_min_len() {
        with_jobs(4, || {
            let caller = thread::current().id();
            let out = par_map_threshold(&[1, 2, 3], 16, |_| thread::current().id());
            assert!(out.iter().all(|&id| id == caller));
        });
    }

    #[test]
    fn join_returns_both_sides() {
        let (a, b) = join(|| 6 * 7, || "ok");
        assert_eq!((a, b), (42, "ok"));
        let (a, b) = with_jobs(1, || join(|| 1, || 2));
        assert_eq!((a, b), (1, 2));
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        with_jobs(2, || {
            par_map(&[1, 2, 3, 4], |&x| {
                if x == 3 {
                    panic!("boom");
                }
                x
            })
        });
    }

    #[test]
    fn set_default_jobs_clamps_to_one() {
        // Runs in its own process-global; override wins over it anyway.
        set_default_jobs(0);
        with_jobs(2, || assert_eq!(current_jobs(), 2));
    }

    proptest! {
        /// The tentpole determinism contract: par_map == serial map, for
        /// any input and any jobs count.
        #[test]
        fn par_map_matches_serial_map(
            items in proptest::collection::vec(0u64..1_000_000, 0..64),
            jobs in 1usize..9,
        ) {
            let serial: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(2654435761) >> 3).collect();
            let parallel = with_jobs(jobs, || {
                par_map(&items, |&x| x.wrapping_mul(2654435761) >> 3)
            });
            prop_assert_eq!(parallel, serial);
        }
    }
}
