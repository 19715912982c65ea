//! Bounded, deterministic fork–join parallelism for scenario sweeps.
//!
//! [`par_map`] fans a work list out over a fixed-size pool of scoped
//! worker threads (crossbeam) and merges per-thread results back into
//! **input order**, so the output is byte-identical regardless of the
//! thread count or OS scheduling — `tests/determinism.rs` locks this
//! down by diffing whole summary tables at 1 and 4 threads.
//!
//! The pool size is an ambient, process-wide setting ([`set_threads`])
//! so binaries can plumb a `--threads`/`--parallel` flag once instead of
//! threading a parameter through every figure runner.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Ambient pool size; 0 = auto (one worker per available core).
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// Number of worker threads "auto" resolves to on this machine: the
/// core count the auction engine reads once per process.
pub fn available_threads() -> usize {
    edge_auction::available_pricing_threads()
}

/// Sets the ambient worker-pool size for subsequent [`par_map_auto`]
/// calls. `0` restores auto (per-core) sizing.
pub fn set_threads(threads: usize) {
    THREADS.store(threads, Ordering::SeqCst);
}

/// The ambient worker-pool size (resolving auto to the core count).
pub fn current_threads() -> usize {
    match THREADS.load(Ordering::SeqCst) {
        0 => available_threads(),
        n => n,
    }
}

/// Applies `f` to every item on a pool of `threads` workers and returns
/// the results **in input order**.
///
/// Work is distributed dynamically (an atomic cursor over the items), so
/// uneven item costs do not idle the pool; each worker tags results
/// with their item index and the merge scatters them back into order
/// after the join. With `threads <= 1` (or one item) everything runs on
/// the caller's thread.
///
/// # Panics
///
/// Panics if a worker panics (the worker's panic is propagated).
pub fn par_map<T, U, F>(items: Vec<T>, threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let n = items.len();
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 {
        return items.iter().map(&f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let mut tagged: Vec<Vec<(usize, U)>> = crossbeam::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let items = &items;
                let cursor = &cursor;
                let f = &f;
                scope.spawn(move |_| {
                    let mut got = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break got;
                        }
                        got.push((i, f(&items[i])));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker does not panic"))
            .collect()
    })
    .expect("scope does not panic");

    let mut slots: Vec<Option<U>> = (0..n).map(|_| None).collect();
    for (i, u) in tagged.drain(..).flatten() {
        slots[i] = Some(u);
    }
    slots
        .into_iter()
        .map(|o| o.expect("every index was claimed"))
        .collect()
}

/// [`par_map`] with the ambient pool size ([`current_threads`]).
pub fn par_map_auto<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let threads = current_threads();
    par_map(items, threads, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let out = par_map((0..100u64).collect(), 4, |&x| x * x);
        assert_eq!(out, (0..100u64).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_matches_parallel() {
        let serial = par_map((0..57u64).collect(), 1, |&x| {
            x.wrapping_mul(0x9e3779b9) >> 3
        });
        let parallel = par_map((0..57u64).collect(), 8, |&x| {
            x.wrapping_mul(0x9e3779b9) >> 3
        });
        assert_eq!(serial, parallel);
    }

    #[test]
    fn handles_empty_and_tiny_inputs() {
        assert_eq!(par_map(Vec::<u64>::new(), 4, |&x| x), Vec::<u64>::new());
        assert_eq!(par_map(vec![7u64], 4, |&x| x + 1), vec![8]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        assert_eq!(par_map(vec![1u64, 2], 16, |&x| x), vec![1, 2]);
    }

    #[test]
    fn ambient_setting_round_trips() {
        set_threads(3);
        assert_eq!(current_threads(), 3);
        set_threads(0);
        assert_eq!(current_threads(), available_threads());
    }
}
