//! Process-global runtime knobs and the critical-value pricing pool.
//!
//! Every winner's payment replay is independent of the others (each
//! replays the auction with a different seller excluded), so the payment
//! phase fans the replays out over scoped worker threads and merges the
//! results back **in winner order**. Determinism is preserved by
//! construction: workers only *compute* — thresholds, provenance, and
//! counter deltas — while all trace emission, stats absorption, and
//! outcome assembly happen on the calling thread in the same order as
//! the sequential path. One thread (the default) takes the exact
//! sequential code path with no spawning at all.
//!
//! The pool size and the replay batch size are ambient process state,
//! mirroring `edge_bench::parallel`: benchmarks and the CLI set the pool
//! once (`--pricing-threads`), and every auction in the process picks it
//! up. Neither may observably change an outcome or a trace — they are
//! tuning knobs, not configuration, which is also why they are *not*
//! part of [`crate::ssam::SsamConfig`] (whose serialized form is folded
//! into event-log header digests).
//!
//! # Adaptive sizing (`--pricing-threads 0`)
//!
//! `0` used to resolve to `available_parallelism`, which made four
//! threads *slower* than one on small instances (committed baseline:
//! 0.49x at n=10k on a 1-core box) — spawn/steal overhead swamped the
//! actual work. Auto now *measures* instead of assuming: a one-time
//! probe times a trivial scoped spawn ([`spawn_overhead_ns`]), an EMA
//! tracks the observed per-replay cost of previous payment phases, and
//! [`fan_out_weighted`] only adds a worker when the estimated work share
//! it would take is several times its spawn cost. On a single-core box
//! the pool is always 1. Thread-count choice is outcome-neutral (the
//! differential suite proves byte-identical traces at any count), so a
//! measured — machine-dependent — choice is safe where anything
//! observable would not be.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Configured pricing threads; `0` means "adaptive at use". Defaults
/// to `1` — the exact sequential path — so library users opt in to
/// parallelism explicitly.
static PRICING_THREADS: AtomicUsize = AtomicUsize::new(1);

/// Replay batch size; `0` means "auto-size from the winner count and
/// pool", `1` prices every winner in its own batch (the differential
/// oracle's configuration).
static REPLAY_BATCH: AtomicUsize = AtomicUsize::new(0);

/// EMA of the observed cost of one payment replay, nanoseconds.
/// `0` = no observation yet (cold process).
static REPLAY_EMA_NS: AtomicU64 = AtomicU64::new(0);

/// Per-replay cost assumed before the first measurement. Deliberately
/// small: a cold process under-threads rather than over-threads.
const COLD_REPLAY_ESTIMATE_NS: u64 = 2_000;

/// A worker is only added when its estimated share of the work is at
/// least this multiple of the measured spawn overhead.
const SPAWN_AMORTIZATION: u64 = 8;

/// Threads the host offers (always at least 1).
pub fn available_pricing_threads() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Sets the pricing pool size for subsequent auctions in this process.
/// `0` sizes the pool adaptively per payment phase (measured spawn
/// overhead vs estimated replay work — never more than the detected
/// parallelism); `1` (the default) runs payments on the calling thread.
pub fn set_pricing_threads(threads: usize) {
    PRICING_THREADS.store(threads, Ordering::Relaxed);
}

/// The raw configured value (`0` = adaptive), as last set.
pub fn pricing_threads_setting() -> usize {
    PRICING_THREADS.load(Ordering::Relaxed)
}

/// The pool-size *ceiling* auctions will use, with `0` resolved to the
/// detected parallelism. Under the adaptive setting the actual pool for
/// a given payment phase may be smaller — down to 1 — when the measured
/// work does not cover the spawn overhead.
pub fn current_pricing_threads() -> usize {
    match PRICING_THREADS.load(Ordering::Relaxed) {
        0 => available_pricing_threads(),
        n => n,
    }
}

/// Sets the replay batch size. `0` (default) auto-sizes; `1` forces
/// one winner per batch — the per-winner oracle the differential suite
/// compares batched pricing against. Batching is outcome-neutral:
/// batches share a cursor snapshot, not results.
#[doc(hidden)]
pub fn set_replay_batch(batch: usize) {
    REPLAY_BATCH.store(batch, Ordering::Relaxed);
}

/// The raw configured replay batch size (`0` = auto), as last set.
#[doc(hidden)]
pub fn replay_batch_setting() -> usize {
    REPLAY_BATCH.load(Ordering::Relaxed)
}

/// The batch size to use for `winners` replays on a pool of `threads`.
pub(crate) fn effective_replay_batch(winners: usize, threads: usize) -> usize {
    match REPLAY_BATCH.load(Ordering::Relaxed) {
        0 => (winners / (threads.max(1) * 4)).clamp(1, 64),
        n => n,
    }
}

/// Feeds one payment phase's observed cost into the per-replay EMA.
pub(crate) fn note_pricing_phase(replays: u64, nanos: u64) {
    if replays == 0 {
        return;
    }
    let per_replay = nanos / replays;
    let _ = REPLAY_EMA_NS.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |old| {
        Some(if old == 0 {
            per_replay
        } else {
            (3 * old + per_replay) / 4
        })
    });
}

/// The current per-replay cost estimate, nanoseconds.
pub(crate) fn replay_cost_estimate_ns() -> u64 {
    match REPLAY_EMA_NS.load(Ordering::Relaxed) {
        0 => COLD_REPLAY_ESTIMATE_NS,
        n => n,
    }
}

/// Measured cost of spawning and joining one scoped worker thread,
/// probed once per process. The probe itself is cheap (a handful of
/// trivial spawns) and never observable in outcomes: it only shapes the
/// pool size, which is proven outcome-neutral.
fn spawn_overhead_ns() -> u64 {
    static PROBE: OnceLock<u64> = OnceLock::new();
    *PROBE.get_or_init(|| {
        const SPAWNS: u32 = 4;
        let start = std::time::Instant::now();
        let ok = crossbeam::scope(|scope| {
            for _ in 0..SPAWNS {
                scope.spawn(|_| std::hint::black_box(0u64));
            }
        })
        .is_ok();
        let per_spawn = start.elapsed().as_nanos() as u64 / u64::from(SPAWNS);
        // A failed probe (or an impossibly fast clock) falls back to a
        // conservative figure so auto stays shy of over-threading.
        if ok {
            per_spawn.max(1_000)
        } else {
            1_000_000
        }
    })
}

/// The pool size for `n` units of estimated `unit_cost_ns` each:
/// honors an explicit setting; sizes adaptively when the setting is `0`.
fn pool_size(n: usize, unit_cost_ns: u64) -> usize {
    let configured = PRICING_THREADS.load(Ordering::Relaxed);
    let ceiling = match configured {
        0 => available_pricing_threads(),
        t => t,
    }
    .clamp(1, n.max(1));
    if configured != 0 || ceiling <= 1 {
        return ceiling;
    }
    let total_work = (n as u64).saturating_mul(unit_cost_ns);
    let min_per_worker = spawn_overhead_ns().saturating_mul(SPAWN_AMORTIZATION);
    let useful = (total_work / min_per_worker.max(1)) as usize;
    useful.clamp(1, ceiling)
}

/// Runs `f(0), f(1), …, f(n - 1)` and returns the results in index
/// order, fanning out over the configured pricing pool. With one thread
/// this is a plain loop on the caller's thread (no spawn, same closure),
/// so the sequential and parallel paths execute identical arithmetic —
/// the result vector is the same either way, only wall-clock differs.
pub(crate) fn fan_out<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    fan_out_weighted(n, replay_cost_estimate_ns(), f)
}

/// [`fan_out`] with an explicit per-unit cost estimate, for callers
/// whose units are coarser than one replay (e.g. replay *batches*).
pub(crate) fn fan_out_weighted<R, F>(n: usize, unit_cost_ns: u64, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = pool_size(n, unit_cost_ns);
    // The adaptive decision and its measured-probe inputs are machine
    // facts — recorded on the current span's profile side only.
    if edge_telemetry::spans::is_enabled() {
        edge_telemetry::spans::diag_set("pool_threads", threads as u64);
        edge_telemetry::spans::diag_set("pool_units", n as u64);
        edge_telemetry::spans::diag_set("pool_unit_cost_ns", unit_cost_ns);
        if PRICING_THREADS.load(Ordering::Relaxed) == 0 {
            edge_telemetry::spans::diag_set("pool_spawn_overhead_ns", spawn_overhead_ns());
            edge_telemetry::spans::diag_set(
                "pool_ceiling",
                available_pricing_threads().max(1) as u64,
            );
        }
    }
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    // Work-stealing over an atomic cursor: replay costs vary with the
    // winner's selection position, so static chunking would straggle.
    // Results are index-tagged and scattered back into input order.
    let cursor = AtomicUsize::new(0);
    let mut results: Vec<Option<R>> = Vec::with_capacity(n);
    results.resize_with(n, || None);
    let collected: Vec<Vec<(usize, R)>> = crossbeam::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|_| {
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        out.push((i, f(i)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pricing worker panicked"))
            .collect()
    })
    .expect("pricing scope panicked");
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

    /// Tests toggling the ambient pool size hold this lock so they do
    /// not race each other (the setting is process-global).
    pub(crate) static THREADS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn fan_out_preserves_index_order() {
        let _guard = THREADS_LOCK.lock().unwrap();
        for threads in [1, 2, 4] {
            set_pricing_threads(threads);
            let out = fan_out(37, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
        set_pricing_threads(1);
    }

    #[test]
    fn zero_resolves_to_detected_parallelism() {
        let _guard = THREADS_LOCK.lock().unwrap();
        let prev = pricing_threads_setting();
        set_pricing_threads(0);
        assert_eq!(pricing_threads_setting(), 0);
        assert_eq!(current_pricing_threads(), available_pricing_threads());
        assert!(current_pricing_threads() >= 1);
        set_pricing_threads(prev);
    }

    #[test]
    fn fan_out_handles_empty_and_oversubscribed() {
        let _guard = THREADS_LOCK.lock().unwrap();
        set_pricing_threads(8);
        assert_eq!(fan_out(0, |i| i), Vec::<usize>::new());
        assert_eq!(fan_out(2, |i| i + 1), vec![1, 2]);
        set_pricing_threads(1);
    }

    #[test]
    fn adaptive_pool_stays_sequential_for_tiny_work() {
        let _guard = THREADS_LOCK.lock().unwrap();
        let prev = pricing_threads_setting();
        set_pricing_threads(0);
        // A few units of sub-microsecond work can never amortize a
        // spawn: auto must choose the sequential path.
        assert_eq!(pool_size(4, 10), 1);
        // Huge work is allowed to use the full ceiling.
        assert_eq!(pool_size(1_000_000, 1_000_000), available_pricing_threads());
        set_pricing_threads(prev);
    }

    #[test]
    fn adaptive_pool_respects_explicit_settings() {
        let _guard = THREADS_LOCK.lock().unwrap();
        let prev = pricing_threads_setting();
        set_pricing_threads(3);
        // Explicit settings are never second-guessed.
        assert_eq!(pool_size(100, 1), 3);
        set_pricing_threads(prev);
    }

    #[test]
    fn replay_batch_auto_scales_with_winners() {
        let prev = replay_batch_setting();
        set_replay_batch(0);
        assert_eq!(effective_replay_batch(0, 1), 1);
        assert_eq!(effective_replay_batch(16, 4), 1);
        assert_eq!(effective_replay_batch(1_000, 1), 64, "capped at 64");
        set_replay_batch(1);
        assert_eq!(effective_replay_batch(1_000, 1), 1, "explicit override");
        set_replay_batch(prev);
    }

    #[test]
    fn ema_tracks_observed_replay_cost() {
        note_pricing_phase(0, 999); // no-op
        note_pricing_phase(10, 10_000); // 1k per replay
        let est = replay_cost_estimate_ns();
        assert!(est > 0);
        note_pricing_phase(10, 10_000);
        assert!(replay_cost_estimate_ns() > 0);
    }
}
