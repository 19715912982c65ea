//! The workspace's one fork–join: [`fan_out`] runs independent work
//! units on scoped worker threads and returns their results in index
//! order, so a caller's output is the same at any worker count.
//!
//! Two callers size a pool for it: the payment phase of every auction
//! (each winner's critical-value replay is a unit) and the figure
//! sweeps (each scenario point × seed cell is a unit). Neither has a
//! setting. Both read the host's core count once per process
//! ([`cores`]) and derive the rest from their own work. Tests pin every
//! pool on the calling thread through one scoped seam, [`pinned`].

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Threads the host offers (always at least 1), read once per process.
/// CPU affinity and cgroup quotas already bound it.
#[inline]
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

thread_local! {
    /// This thread's test pin: `(threads, batch)`, see [`pinned`].
    static PIN: Cell<Option<(usize, Option<usize>)>> = const { Cell::new(None) };
}

/// The calling thread's pin, if [`pinned`] set one: worker threads and,
/// for callers that batch their units, units per batch.
#[inline]
pub fn pin() -> Option<(usize, Option<usize>)> {
    PIN.get()
}

/// Runs `f` with every pool sized on this thread pinned to `threads`
/// workers and, when `batch` is `Some`, that many units per batch
/// (`None` leaves the batch to the caller's own rule). The previous pin
/// is restored on return and on unwind. A test seam: the determinism
/// suites pin through it to show that pool size and batch geometry are
/// unobservable.
#[doc(hidden)]
pub fn pinned<R>(threads: usize, batch: Option<usize>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<(usize, Option<usize>)>);
    impl Drop for Restore {
        fn drop(&mut self) {
            PIN.set(self.0);
        }
    }
    let _restore = Restore(PIN.replace(Some((threads, batch))));
    f()
}

/// Runs `f(0), f(1), …, f(n - 1)` on up to `threads` workers and
/// returns the results in index order. With one worker (or one unit)
/// this is a plain loop on the caller's thread (no spawn, same closure),
/// so the sequential and parallel paths execute identical arithmetic —
/// the result vector is the same either way, only wall-clock differs.
/// A worker's panic is resumed on the caller.
pub fn fan_out<R, F>(threads: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = threads.min(n);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    // Work-stealing over an atomic cursor: unit costs vary (a replay's
    // with its winner's selection position, a sweep cell's with its
    // point), so static chunking would straggle. Results are
    // index-tagged and scattered back into input order.
    let cursor = AtomicUsize::new(0);
    let collected: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break out;
                        }
                        out.push((i, f(i)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    let mut results: Vec<Option<R>> = Vec::with_capacity(n);
    results.resize_with(n, || None);
    for (i, r) in collected.into_iter().flatten() {
        results[i] = Some(r);
    }
    results
        .into_iter()
        .map(|r| r.expect("every index was claimed by exactly one worker"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_out_preserves_index_order() {
        for threads in [1, 2, 4] {
            let out = fan_out(threads, 37, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn fan_out_handles_empty_and_oversubscribed() {
        assert_eq!(fan_out(8, 0, |i| i), Vec::<usize>::new());
        assert_eq!(fan_out(8, 2, |i| i + 1), vec![1, 2]);
    }

    #[test]
    fn a_worker_panic_reaches_the_caller() {
        let caught = std::panic::catch_unwind(|| {
            fan_out(2, 4, |i| {
                assert!(i != 3, "unit three fails");
                i
            })
        });
        assert!(caught.is_err());
    }

    #[test]
    fn pin_is_scoped_nested_thread_local_and_restored_on_unwind() {
        assert_eq!(pin(), None);
        pinned(4, Some(2), || {
            assert_eq!(pin(), Some((4, Some(2))));
            pinned(2, None, || assert_eq!(pin(), Some((2, None))));
            assert_eq!(pin(), Some((4, Some(2))));
            let unwound = std::panic::catch_unwind(|| pinned(3, Some(1), || panic!("boom")));
            assert!(unwound.is_err());
            assert_eq!(pin(), Some((4, Some(2))));
            // The pin is this thread's alone.
            let other = std::thread::spawn(pin).join().unwrap();
            assert_eq!(other, None);
        });
        assert_eq!(pin(), None);
        assert!(cores() >= 1);
    }
}
