//! Counters and log-bucketed histograms for hot-path statistics.
//!
//! These are deliberately simpler than the event pipeline: a counter is
//! one relaxed atomic add, a histogram record is a `leading_zeros` plus
//! one atomic add. The [`registry`](crate::registry) builds its series
//! from them, so instrumented code can bump a live metric on a hot path.

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
