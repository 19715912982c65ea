//! Counters and log-bucketed histograms for hot-path statistics.
//!
//! These are deliberately simpler than the event pipeline: a counter is
//! one relaxed atomic add, a histogram record is a `leading_zeros` plus
//! one atomic add. Hot paths (heap pops, lazy-deletion invalidations)
//! bump them unconditionally and the aggregate is emitted as a single
//! event at the end of a run.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn incr(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of power-of-two buckets: values `0`, `1`, `2–3`, `4–7`, …,
/// `2^62–(2^63−1)`, plus a final bucket for `≥ 2^63`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A histogram with power-of-two bucket boundaries.
///
/// Bucket `0` counts the value `0`; bucket `b ≥ 1` counts values in
/// `[2^(b−1), 2^b)`. Good enough to see the shape of a latency or
/// work-count distribution without tuning bucket edges.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
        }
    }

    /// Index of the bucket that holds `value`.
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Lower bound of bucket `index` (inclusive).
    pub fn bucket_floor(index: usize) -> u64 {
        if index == 0 {
            0
        } else {
            1u64 << (index - 1)
        }
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Non-empty buckets as `(floor, count)` pairs, ascending.
    pub fn snapshot(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((Self::bucket_floor(i), n))
            })
            .collect()
    }
}

/// Ambient pricing-phase metrics, fed by the auction's payment loop.
///
/// Wall-clock time spent computing critical-value payments must stay
/// out of the deterministic trace section (1-thread and N-thread runs
/// are required to produce byte-identical traces), so the pricing phase
/// reports its timing and replay counts through these process-global
/// atomics instead. Consumers (the scale benchmark) take a [`snapshot`]
/// before and after a run and work with the delta, which keeps the
/// metrics valid even when several runs share the process.
pub mod pricing {
    use super::Counter;

    static REPLAYS: Counter = Counter::new();
    static REPLAY_ITERATIONS: Counter = Counter::new();
    static PREFIX_ITERATIONS: Counter = Counter::new();
    static NANOS: Counter = Counter::new();

    /// A point-in-time reading of the pricing metrics.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct PricingSnapshot {
        /// Payment replays performed (one per auction winner).
        pub replays: u64,
        /// Total replay iterations across all replays (prefix + suffix).
        pub replay_iterations: u64,
        /// Replay iterations served from the shared prefix of the real
        /// run (O(1) each) instead of heap work.
        pub prefix_iterations: u64,
        /// Wall-clock nanoseconds spent in the payment phase.
        pub nanos: u64,
    }

    impl PricingSnapshot {
        /// The change since an `earlier` snapshot.
        #[must_use]
        pub fn delta_since(&self, earlier: &PricingSnapshot) -> PricingSnapshot {
            PricingSnapshot {
                replays: self.replays.wrapping_sub(earlier.replays),
                replay_iterations: self
                    .replay_iterations
                    .wrapping_sub(earlier.replay_iterations),
                prefix_iterations: self
                    .prefix_iterations
                    .wrapping_sub(earlier.prefix_iterations),
                nanos: self.nanos.wrapping_sub(earlier.nanos),
            }
        }
    }

    /// Accumulates one payment phase's totals.
    pub fn record(replays: u64, replay_iterations: u64, prefix_iterations: u64, nanos: u64) {
        REPLAYS.add(replays);
        REPLAY_ITERATIONS.add(replay_iterations);
        PREFIX_ITERATIONS.add(prefix_iterations);
        NANOS.add(nanos);
    }

    /// The current cumulative totals.
    pub fn snapshot() -> PricingSnapshot {
        PricingSnapshot {
            replays: REPLAYS.get(),
            replay_iterations: REPLAY_ITERATIONS.get(),
            prefix_iterations: PREFIX_ITERATIONS.get(),
            nanos: NANOS.get(),
        }
    }
}

/// Ambient selection-phase metrics, fed by the auction's winner
/// selection. Mirrors [`pricing`]: wall-clock must stay out of the
/// deterministic trace (runs are required to be byte-identical across
/// thread counts), so the selection phase reports its timing
/// through process-global atomics and consumers work with snapshot
/// deltas.
pub mod selection {
    use super::Counter;

    static SELECTION_NS: Counter = Counter::new();
    static MERGE_NS: Counter = Counter::new();

    /// A point-in-time reading of the selection metrics.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct SelectionSnapshot {
        /// Wall-clock nanoseconds spent in the whole selection phase
        /// (arena build + greedy merge).
        pub selection_ns: u64,
        /// Of those, nanoseconds spent in the greedy merge loop (the
        /// argmin queries over the lane arena).
        pub merge_ns: u64,
    }

    impl SelectionSnapshot {
        /// The change since an `earlier` snapshot.
        #[must_use]
        pub fn delta_since(&self, earlier: &SelectionSnapshot) -> SelectionSnapshot {
            SelectionSnapshot {
                selection_ns: self.selection_ns.wrapping_sub(earlier.selection_ns),
                merge_ns: self.merge_ns.wrapping_sub(earlier.merge_ns),
            }
        }
    }

    /// Accumulates one selection phase's totals.
    pub fn record(selection_ns: u64, merge_ns: u64) {
        SELECTION_NS.add(selection_ns);
        MERGE_NS.add(merge_ns);
    }

    /// The current cumulative totals.
    pub fn snapshot() -> SelectionSnapshot {
        SelectionSnapshot {
            selection_ns: SELECTION_NS.get(),
            merge_ns: MERGE_NS.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_deltas_isolate_one_run() {
        let before = selection::snapshot();
        selection::record(1_000, 300);
        selection::record(500, 100);
        let delta = selection::snapshot().delta_since(&before);
        assert_eq!(delta.selection_ns, 1_500);
        assert_eq!(delta.merge_ns, 400);
    }

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(LogHistogram::bucket_index(0), 0);
        assert_eq!(LogHistogram::bucket_index(1), 1);
        assert_eq!(LogHistogram::bucket_index(2), 2);
        assert_eq!(LogHistogram::bucket_index(3), 2);
        assert_eq!(LogHistogram::bucket_index(4), 3);
        assert_eq!(LogHistogram::bucket_index(u64::MAX), 64);
        assert_eq!(LogHistogram::bucket_floor(0), 0);
        assert_eq!(LogHistogram::bucket_floor(1), 1);
        assert_eq!(LogHistogram::bucket_floor(3), 4);
    }

    #[test]
    fn snapshot_reports_nonempty_buckets() {
        let h = LogHistogram::new();
        for v in [0, 1, 1, 5, 6, 7] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.snapshot(), vec![(0, 1), (1, 2), (4, 3)]);
    }

    #[test]
    fn pricing_deltas_isolate_one_run() {
        let before = pricing::snapshot();
        pricing::record(3, 40, 25, 1_000);
        pricing::record(2, 10, 5, 500);
        let delta = pricing::snapshot().delta_since(&before);
        assert_eq!(delta.replays, 5);
        assert_eq!(delta.replay_iterations, 50);
        assert_eq!(delta.prefix_iterations, 30);
        assert_eq!(delta.nanos, 1_500);
    }
}
