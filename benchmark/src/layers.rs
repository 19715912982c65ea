//! Per-layer attribution from the span profiler.
//!
//! A traced operation (one stage clear, one replayed stage, one
//! federation run) installs a fresh span tree on the calling thread,
//! runs, and folds the tree into one [`Sample`]: self time per layer and
//! the engine's work counters. A per-layer metric is the median of its
//! samples.

use crate::stats::median;
use edge_auction::msoa::MultiRoundInstance;
use edge_telemetry::spans::{self, FoldWeight, SpanTree};
use std::collections::BTreeMap;

/// Spans whose self time makes up each engine layer. `bench.clear` and
/// `run_msoa` are the benchmark's own spans around the public calls; the
/// rest are the program's.
const LAYERS: [(&str, &[&str]); 12] = [
    ("round_self_ms", &["run_msoa", "msoa", "round"]),
    ("patch_ms", &["patch"]),
    ("arena_build_ms", &["arena.build"]),
    ("merge_ms", &["merge"]),
    ("ssam_self_ms", &["ssam", "selection", "pricing"]),
    ("prefix_build_ms", &["prefix.build"]),
    ("replays_ms", &["replays"]),
    ("instance_new_ms", &["instance.new", "bench.clear"]),
    ("backfill_ms", &["backfill"]),
    ("stage_self_ms", &["service.apply"]),
    ("provider_ms", &["provider"]),
    ("fed_deliver_ms", &["fed.deliver"]),
];

/// Engine metrics every workload reports: the span layers above plus
/// the round buffer, arena and pricing counters.
pub const ENGINE_METRICS: [&str; 17] = [
    "round_self_ms",
    "patch_ms",
    "arena_build_ms",
    "merge_ms",
    "ssam_self_ms",
    "prefix_build_ms",
    "replays_ms",
    "instance_new_ms",
    "backfill_ms",
    "stage_self_ms",
    "provider_ms",
    "fed_deliver_ms",
    "dirty_sellers",
    "patch_reuse_ratio",
    "lane_head_reads_per_scan",
    "replay_iterations",
    "prefix_hit_ratio",
];

/// One traced operation, folded.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// Self nanoseconds by span name.
    self_ns: BTreeMap<&'static str, u64>,
    /// Counters and diagnostics by (span name, key), summed.
    counts: BTreeMap<(&'static str, &'static str), u64>,
    /// Flamegraph stacks weighted by self nanoseconds.
    folded: String,
}

impl Sample {
    pub fn of(tree: &SpanTree) -> Self {
        let mut sample = Sample {
            folded: tree.folded(FoldWeight::SelfNs),
            ..Sample::default()
        };
        for view in tree.views() {
            *sample.self_ns.entry(view.name).or_default() += view.self_ns;
            for &(key, v) in view.counters.iter().chain(&view.diag) {
                *sample.counts.entry((view.name, key)).or_default() += v;
            }
        }
        sample
    }

    fn ms(&self, names: &[&str]) -> f64 {
        names
            .iter()
            .map(|n| self.self_ns.get(n).copied().unwrap_or(0))
            .sum::<u64>() as f64
            / 1e6
    }

    fn count(&self, span: &str, key: &str) -> f64 {
        self.counts
            .iter()
            .filter(|((s, k), _)| *s == span && *k == key)
            .map(|(_, &v)| v as f64)
            .sum()
    }

    /// Every [`ENGINE_METRICS`] value for this sample.
    fn metrics(&self) -> Vec<(&'static str, f64)> {
        let mut out: Vec<(&'static str, f64)> = LAYERS
            .iter()
            .map(|&(name, spans)| (name, self.ms(spans)))
            .collect();
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let total_slots = self.count("patch", "total_slots");
        let scans =
            self.count("selection", "pop_best_scans") + self.count("pricing", "pop_best_scans");
        let head_reads =
            self.count("selection", "lane_head_reads") + self.count("pricing", "lane_head_reads");
        let replay_iterations = self.count("pricing", "replay_iterations");
        out.push(("dirty_sellers", self.count("patch", "dirty_sellers")));
        out.push((
            "patch_reuse_ratio",
            if total_slots > 0.0 {
                1.0 - self.count("patch", "patched_slots") / total_slots
            } else {
                0.0
            },
        ));
        out.push(("lane_head_reads_per_scan", ratio(head_reads, scans)));
        out.push(("replay_iterations", replay_iterations));
        out.push((
            "prefix_hit_ratio",
            ratio(
                self.count("pricing", "prefix_iterations"),
                replay_iterations,
            ),
        ));
        out
    }
}

/// Runs `f` with a fresh span tree installed on this thread and returns
/// its result with the folded tree.
pub fn traced<T>(f: impl FnOnce() -> T) -> (T, Sample) {
    spans::install();
    let out = f();
    let tree = spans::uninstall().expect("the span tree was installed above");
    (out, Sample::of(&tree))
}

/// Wraps a service stage provider in a `provider` span, so its time
/// shows apart from the service's own stage bookkeeping.
pub fn spanned_provider(
    mut inner: impl FnMut(u64, u64) -> MultiRoundInstance,
) -> impl FnMut(u64, u64) -> MultiRoundInstance {
    move |stage, rounds| {
        let _span = spans::enter("provider");
        inner(stage, rounds)
    }
}

/// Per-metric medians over `samples`, for every [`ENGINE_METRICS`] name.
pub fn medians(samples: &[Sample]) -> Vec<(&'static str, f64)> {
    let per_sample: Vec<Vec<(&'static str, f64)>> = samples.iter().map(Sample::metrics).collect();
    ENGINE_METRICS
        .iter()
        .enumerate()
        .map(|(i, &name)| {
            let values: Vec<f64> = per_sample.iter().map(|m| m[i].1).collect();
            (name, median(&values))
        })
        .collect()
}

/// Folded stacks summed over `samples`, one `a;b;c ns` line per stack.
pub fn folded(samples: &[Sample]) -> String {
    let mut stacks: BTreeMap<&str, u64> = BTreeMap::new();
    for sample in samples {
        for line in sample.folded.lines() {
            if let Some((stack, ns)) = line.rsplit_once(' ') {
                *stacks.entry(stack).or_default() += ns.parse::<u64>().unwrap_or(0);
            }
        }
    }
    stacks.iter().map(|(s, ns)| format!("{s} {ns}\n")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_and_engine_metrics_line_up() {
        let names: Vec<&str> = Sample::default().metrics().iter().map(|m| m.0).collect();
        assert_eq!(names, ENGINE_METRICS);
    }
}
