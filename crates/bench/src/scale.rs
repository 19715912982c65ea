//! The scale benchmark: MSOA wall-clock, selection-phase and
//! pricing-phase cost as the seller population grows to one million
//! sellers, across pricing-thread settings.
//!
//! Unlike the figure sweeps in [`crate::runner`] this is *not* a paper
//! figure — it is the machine-readable evidence for the parallel
//! critical-value pricing and the per-round filter-and-scale pass. Each
//! cell (`n` sellers × `rounds` × thread count) runs the same deterministic
//! [`crate::scenario::scale_instance`] several times and records the
//! **median** wall-clock. The phase columns come from the span tree
//! [`edge_telemetry::spans::collect`] gathers around each measured run:
//! `selection`, `merge` and `pricing` span times, and the replay
//! counters on the `pricing` span. The replay/prefix iteration counts
//! are thread- and clock-independent, so they hold as evidence even on
//! a single-core runner where wall-clock speedup cannot show.
//!
//! Every cell also carries an FNV-1a digest of the serialized outcome.
//! Digests must agree across thread counts for the same `n` — the
//! report computes the cross-thread comparison itself
//! ([`ScaleSpeedup::identical_outcomes`]) and CI diffs the digest lines
//! of independent 1-thread and 4-thread runs.

use crate::scenario::scale_instance;
use crate::table::Table;
use edge_auction::msoa::{run_msoa, MsoaConfig};
use edge_auction::{pricing_threads_setting, set_pricing_threads};
use edge_common::rng::{derive_rng, fnv1a64};
use edge_telemetry::spans::{self, SpanTree};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Schema identifier written into `BENCH_scale.json`.
///
/// v2 adds the `selection_ns` and `merge_ns` cell columns and extends
/// the default sweep to n = 1M with an adaptive-threads configuration.
/// v2 reports written while selection still had a shard setting carry a
/// `shards` key per cell, which parsing ignores.
pub const SCALE_SCHEMA: &str = "edge-market/bench-scale/v2";

/// Seller populations swept by default (clamped by `max_n`).
pub const SCALE_SIZES: [usize; 6] = [1_000, 10_000, 50_000, 100_000, 500_000, 1_000_000];

/// Rounds per instance; every round repeats the bid list, so rounds
/// after the first differ only in the winners' ψ and χ.
pub const SCALE_ROUNDS: u64 = 3;

/// Baseline repetitions per cell; medians are reported, and the
/// cross-config speedups compare minima of paired samples — see
/// [`ScaleSpeedup::pricing_speedup_vs_1`]. Cells whose speedup lands
/// *near* unity draw up to [`REFINE_CAP`] extra pairs: a few-percent
/// disagreement between two minima is indistinguishable from scheduler
/// noise, and minima only converge downward, so more data settles it.
pub const SCALE_REPS: usize = 5;

/// Maximum extra refinement pairs per near-unity cell.
const REFINE_CAP: usize = 20;

/// Speedups inside this band are plausibly noise around 1.0 and worth
/// refining; outside it the difference is real and accepted as
/// measured.
const REFINE_BAND: (f64, f64) = (0.80, 1.25);

/// Refinement stops once the speedup settles inside this band.
const REFINE_SETTLED: (f64, f64) = (0.97, 1.03);

/// One measured cell: a `(n, threads)` pair run [`SCALE_REPS`] times.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScaleCell {
    /// Seller population.
    pub n: usize,
    /// Rounds in the instance.
    pub rounds: u64,
    /// Pricing thread setting used for this cell (1 = sequential path,
    /// 0 = adaptive auto-sizing).
    pub threads: usize,
    /// Repetitions behind the medians.
    pub reps: usize,
    /// Median wall-clock for the whole MSOA run, nanoseconds.
    pub median_total_ns: u64,
    /// `median_total_ns / rounds`.
    pub median_ns_per_round: u64,
    /// Median wall-clock spent in the payment (pricing) phase, summed
    /// over rounds, nanoseconds.
    pub median_pricing_ns: u64,
    /// Minimum pricing-phase wall-clock across the reps — the
    /// interference-robust point estimate for eyeballing a cell in
    /// isolation.
    pub min_pricing_ns: u64,
    /// Critical-value payments computed per second of pricing-phase
    /// wall-clock (median rep).
    pub payments_per_sec: f64,
    /// Payment replays per run — one per winner per round; identical at
    /// every thread count.
    pub payment_replays: u64,
    /// Greedy iterations executed across all replays (prefix + suffix).
    pub replay_iterations: u64,
    /// Of those, iterations answered in O(1) from the shared prefix.
    pub prefix_iterations: u64,
    /// Median wall-clock in the winner-selection phase (arena build +
    /// greedy merge), summed over rounds, nanoseconds.
    pub selection_ns: u64,
    /// Of [`Self::selection_ns`], nanoseconds in the greedy merge loop
    /// (the argmin queries over the lane arena).
    pub merge_ns: u64,
    /// FNV-1a 64 digest (hex) of the serialized outcome.
    pub outcome_digest: String,
}

/// Cross-thread comparison for one `n`: how much faster the pricing
/// phase ran versus the 1-thread cell, and whether outcomes matched.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScaleSpeedup {
    /// Seller population.
    pub n: usize,
    /// Rounds in the instance.
    pub rounds: u64,
    /// The compared cell's thread setting.
    pub threads: usize,
    /// `floor pricing_ns(adjacent sequential runs) / floor
    /// pricing_ns(this cell's runs)`, where a side's *floor* is the
    /// second-smallest of its samples. Every measured rep of a non-base
    /// cell is immediately preceded by a sequential base run, so the
    /// two sample sets interleave in time and see the same environment;
    /// interference only ever *adds* time, so both floors converge to
    /// the clean runtimes (the second-smallest additionally tolerates
    /// one glitched reading), and near-unity cells draw extra pairs
    /// until the floors agree ([`REFINE_CAP`]). Two configurations that
    /// resolve to the same code path (e.g. adaptive on a single core)
    /// therefore compare at ~1.0 even on a noisy shared box.
    pub pricing_speedup_vs_1: f64,
    /// Whether the outcome digests matched the 1-thread cell.
    pub identical_outcomes: bool,
}

/// The full report serialized to `BENCH_scale.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScaleReport {
    /// Schema identifier ([`SCALE_SCHEMA`]).
    pub schema: String,
    /// Hardware parallelism of the machine that produced the report —
    /// read this before interpreting wall-clock speedups: on a
    /// single-core runner they cannot exceed 1.
    pub threads_available: usize,
    /// Measured cells, in `(n, threads)` order.
    pub cells: Vec<ScaleCell>,
    /// Cross-thread digests and pricing speedups per population.
    pub speedups: Vec<ScaleSpeedup>,
}

/// Parses a serialized scale report; any schema but [`SCALE_SCHEMA`] is
/// rejected.
pub fn parse_report(json: &str) -> Result<ScaleReport, String> {
    let value: serde::Value = serde_json::from_str(json).map_err(|e| e.to_string())?;
    if value.as_object().is_none() {
        return Err("report is not a JSON object".to_string());
    }
    match value.get("schema") {
        Some(serde::Value::Str(s)) if s == SCALE_SCHEMA => {
            serde::Deserialize::deserialize(&value).map_err(|e| e.0)
        }
        Some(serde::Value::Str(other)) => Err(format!("schema {other:?} is not {SCALE_SCHEMA:?}")),
        _ => Err("report has no `schema` string".to_string()),
    }
}

fn median(mut xs: Vec<u64>) -> u64 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

/// What one measured run's span tree says about its phases: span
/// wall-clock summed over rounds, and the replay counters the `pricing`
/// span carries.
#[derive(Debug, Default, Clone, Copy)]
struct Phases {
    pricing_ns: u64,
    selection_ns: u64,
    merge_ns: u64,
    replays: u64,
    replay_iterations: u64,
    prefix_iterations: u64,
}

impl Phases {
    fn of(tree: &SpanTree) -> Self {
        let mut phases = Phases::default();
        for view in tree.views() {
            match view.name {
                "selection" => phases.selection_ns += view.total_ns,
                "merge" => phases.merge_ns += view.total_ns,
                "pricing" => {
                    phases.pricing_ns += view.total_ns;
                    for &(key, v) in &view.counters {
                        match key {
                            "replays" => phases.replays += v,
                            "replay_iterations" => phases.replay_iterations += v,
                            "prefix_iterations" => phases.prefix_iterations += v,
                            _ => {}
                        }
                    }
                }
                _ => {}
            }
        }
        phases
    }
}

/// Per-rep samples accumulated for one configuration of a population.
#[derive(Default)]
struct CellSamples {
    totals: Vec<u64>,
    pricing_ns: Vec<u64>,
    selection_ns: Vec<u64>,
    merge_ns: Vec<u64>,
    /// Pricing-phase nanoseconds of a base-configuration run executed
    /// *immediately before* the matching `pricing_ns` entry — the
    /// tightest pairing available for the speedup ratio.
    paired_base_ns: Vec<u64>,
    last: Option<(edge_auction::msoa::MsoaOutcome, Phases)>,
}

/// Runs all of one population's configurations with **interleaved**
/// repetitions: rep `r` visits every configuration before rep `r + 1`
/// starts, so the configurations sample the same process state
/// (allocator, caches, frequency) and their cross-config ratios compare
/// like with like. Measuring each configuration's reps back-to-back
/// instead lets slow drift between cells masquerade as a speedup — the
/// very artifact the adaptive gate exists to catch.
///
/// Returns the cells plus, per cell, the
/// `min(adjacent base pricing) / min(cell pricing)` speedup estimate
/// (`None` for the base cell itself, and when no base configuration is
/// in the grid).
fn run_row(n: usize, configs: &[usize]) -> (Vec<ScaleCell>, Vec<Option<f64>>) {
    let mut rng = derive_rng(n as u64, "bench-scale");
    let instance = scale_instance(n, SCALE_ROUNDS, &mut rng);
    let config = MsoaConfig::pinned(2.0);
    let mut samples: Vec<CellSamples> = configs.iter().map(|_| CellSamples::default()).collect();

    // One untimed warmup pass primes the allocator, page cache and
    // branch predictors, so the first measured rep of the first
    // configuration isn't uniquely cold — without it the sequential
    // base pays the cold-start cost and every ratio against it skews.
    for &threads in configs {
        set_pricing_threads(threads);
        let _ = run_msoa(&instance, &config).expect("scale instances are feasible");
    }

    let measure = |threads: usize| {
        set_pricing_threads(threads);
        let ((total, outcome), tree) = spans::collect(|| {
            let start = Instant::now();
            let outcome = run_msoa(&instance, &config).expect("scale instances are feasible");
            (start.elapsed().as_nanos() as u64, outcome)
        });
        (total, Phases::of(&tree), outcome)
    };

    // Floor estimate per side: the *second*-smallest sample. A plain
    // minimum converges to the clean runtime but is wrecked by a single
    // anomalously fast reading on one side; the second-smallest keeps
    // the convergence (interference only adds time) while tolerating
    // one glitch, and applying it to both sides keeps the ratio
    // unbiased for identical code paths.
    fn floor_sample(xs: &[u64]) -> Option<u64> {
        let mut v: Vec<u64> = xs.iter().copied().filter(|&x| x > 0).collect();
        v.sort_unstable();
        match v.len() {
            0 => None,
            1 => Some(v[0]),
            _ => Some(v[1]),
        }
    }

    let base_at = configs.iter().position(|&t| t == 1);
    for _ in 0..SCALE_REPS {
        for (ci, (&threads, cell)) in configs.iter().zip(samples.iter_mut()).enumerate() {
            // Precede every non-base measurement with a throwaway-cell
            // base run: the pair runs back-to-back, so its ratio sees
            // at most one run's worth of environment drift — far
            // tighter than pairing against the base cell's own rep,
            // which ran several configurations earlier.
            if base_at.is_some_and(|b| b != ci) {
                let (_, base, _) = measure(1);
                cell.paired_base_ns.push(base.pricing_ns);
            }
            let (total, phases, outcome) = measure(threads);
            cell.totals.push(total);
            cell.pricing_ns.push(phases.pricing_ns);
            cell.selection_ns.push(phases.selection_ns);
            cell.merge_ns.push(phases.merge_ns);
            cell.last = Some((outcome, phases));
        }
    }

    // Refinement: a near-unity min ratio may still be noise — the side
    // that happened to never draw a clean sample looks slower than it
    // is. Extra back-to-back pairs can only move both minima toward
    // the clean runtimes, so draw them until the ratio settles (or the
    // cap says the residual difference is real at this sample size).
    if let Some(bi) = base_at {
        for (ci, &threads) in configs.iter().enumerate() {
            if ci == bi {
                continue;
            }
            for _ in 0..REFINE_CAP {
                let cell = &samples[ci];
                let (Some(b), Some(c)) = (
                    floor_sample(&cell.paired_base_ns),
                    floor_sample(&cell.pricing_ns),
                ) else {
                    break;
                };
                let ratio = b as f64 / c as f64;
                let in_band = ratio >= REFINE_BAND.0 && ratio <= REFINE_BAND.1;
                let settled = ratio >= REFINE_SETTLED.0 && ratio <= REFINE_SETTLED.1;
                if !in_band || settled {
                    break;
                }
                let (_, base, _) = measure(1);
                let (total, phases, _) = measure(threads);
                let cell = &mut samples[ci];
                cell.paired_base_ns.push(base.pricing_ns);
                cell.totals.push(total);
                cell.pricing_ns.push(phases.pricing_ns);
                cell.selection_ns.push(phases.selection_ns);
                cell.merge_ns.push(phases.merge_ns);
            }
        }
    }

    let mut rep_ratios = Vec::with_capacity(configs.len());
    let cells = configs
        .iter()
        .zip(samples)
        .map(|(&threads, cell)| {
            rep_ratios.push(
                match (
                    floor_sample(&cell.paired_base_ns),
                    floor_sample(&cell.pricing_ns),
                ) {
                    (Some(b), Some(c)) => Some(b as f64 / c as f64),
                    _ => None,
                },
            );
            let (outcome, phases) = cell.last.expect("SCALE_REPS >= 1");
            let reps = cell.pricing_ns.len();
            let median_total_ns = median(cell.totals);
            let min_pricing_ns = cell.pricing_ns.iter().copied().min().unwrap_or(0);
            let median_pricing_ns = median(cell.pricing_ns);
            let payments_per_sec = if median_pricing_ns == 0 {
                0.0
            } else {
                phases.replays as f64 / (median_pricing_ns as f64 / 1e9)
            };
            let serialized = serde_json::to_string(&outcome).expect("outcomes are plain data");
            ScaleCell {
                n,
                rounds: SCALE_ROUNDS,
                threads,
                reps,
                median_total_ns,
                median_ns_per_round: median_total_ns / SCALE_ROUNDS,
                median_pricing_ns,
                min_pricing_ns,
                payments_per_sec,
                payment_replays: phases.replays,
                replay_iterations: phases.replay_iterations,
                prefix_iterations: phases.prefix_iterations,
                selection_ns: median(cell.selection_ns),
                merge_ns: median(cell.merge_ns),
                outcome_digest: format!("{:016x}", fnv1a64(serialized.as_bytes())),
            }
        })
        .collect();
    (cells, rep_ratios)
}

/// Runs the scale sweep: populations from [`SCALE_SIZES`] up to
/// `max_n`. Unpinned, each population runs the default thread grid —
/// sequential `1`, threaded `4`, and adaptive `0`; pinning `threads`
/// collapses the grid to that single configuration. Restores the
/// process thread setting afterwards.
pub fn run_scale(max_n: usize, threads: Option<usize>) -> ScaleReport {
    let saved = pricing_threads_setting();
    let configs: Vec<usize> = match threads {
        None => vec![1, 4, 0],
        Some(t) => vec![t],
    };
    let sizes: Vec<usize> = SCALE_SIZES
        .into_iter()
        .filter(|&n| n <= max_n)
        .collect::<Vec<_>>();
    let sizes = if sizes.is_empty() {
        vec![max_n.max(1)]
    } else {
        sizes
    };

    let mut cells = Vec::new();
    let mut rep_ratios: Vec<Option<f64>> = Vec::new();
    let mut cell_us = Vec::new();
    {
        // Cells run full MSOA pipelines; keep their interior spans out
        // of the tree so the absorbed sweep time below isn't counted
        // twice (once per stage, once per cell).
        let _quiet = edge_telemetry::spans::suppress_tree();
        for &n in &sizes {
            let (row_cells, row_ratios) = run_row(n, &configs);
            for (cell, ratio) in row_cells.into_iter().zip(row_ratios) {
                cell_us.push(cell.median_total_ns / 1_000);
                cells.push(cell);
                rep_ratios.push(ratio);
            }
        }
    }
    set_pricing_threads(saved);

    let mut speedups = Vec::new();
    for &n in &sizes {
        let Some(base_at) = cells.iter().position(|c| c.n == n && c.threads == 1) else {
            continue;
        };
        let base = &cells[base_at];
        for (at, cell) in cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.n == n && c.threads != 1)
        {
            // Minima of time-interleaved samples: each measured rep of
            // this cell was immediately preceded by a base run, and
            // interference only ever adds time, so each side's minimum
            // estimates its clean runtime. Falls back to the
            // median-cell ratio if no adjacent sample is usable.
            let pricing_speedup_vs_1 = match rep_ratios[at] {
                Some(ratio) => ratio,
                None if cell.median_pricing_ns == 0 => 1.0,
                None => base.median_pricing_ns as f64 / cell.median_pricing_ns as f64,
            };
            speedups.push(ScaleSpeedup {
                n,
                rounds: cell.rounds,
                threads: cell.threads,
                pricing_speedup_vs_1,
                identical_outcomes: cell.outcome_digest == base.outcome_digest,
            });
        }
    }

    crate::profile::set_stage("scale");
    crate::profile::record_sweep(sizes.len(), configs.len() as u64, &cell_us);

    ScaleReport {
        schema: SCALE_SCHEMA.to_string(),
        threads_available: edge_auction::available_pricing_threads(),
        cells,
        speedups,
    }
}

impl ScaleReport {
    /// Renders the human-readable summary table.
    pub fn render(&self) -> String {
        let mut t = Table::new([
            "n",
            "threads",
            "ms/round",
            "selection ms",
            "merge ms",
            "pricing ms",
            "payments/s",
            "replays",
            "digest",
        ]);
        for c in &self.cells {
            t.push([
                c.n.to_string(),
                c.threads.to_string(),
                format!("{:.2}", c.median_ns_per_round as f64 / 1e6),
                format!("{:.2}", c.selection_ns as f64 / 1e6),
                format!("{:.2}", c.merge_ns as f64 / 1e6),
                format!("{:.2}", c.median_pricing_ns as f64 / 1e6),
                format!("{:.0}", c.payments_per_sec),
                c.payment_replays.to_string(),
                c.outcome_digest.clone(),
            ]);
        }
        let mut out = t.render();
        for s in &self.speedups {
            out.push_str(&format!(
                "n={}: pricing x{:.2} at {} threads, outcomes {}\n",
                s.n,
                s.pricing_speedup_vs_1,
                s.threads,
                if s.identical_outcomes {
                    "identical"
                } else {
                    "DIVERGED"
                }
            ));
        }
        out
    }

    /// Serializes the report as pretty JSON (the `BENCH_scale.json`
    /// payload).
    pub fn to_json(&self) -> String {
        crate::table::to_json(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_produces_identical_digests_across_configs() {
        let report = run_scale(1_000, None);
        assert_eq!(report.schema, SCALE_SCHEMA);
        assert_eq!(
            report.cells.len(),
            3,
            "one size: sequential, threaded, adaptive"
        );
        let base = &report.cells[0];
        assert_eq!(base.threads, 1);
        for cell in &report.cells {
            assert_eq!(cell.outcome_digest, base.outcome_digest);
            // The span tree timed every phase: merge is part of
            // selection, and both ran.
            assert!(cell.selection_ns >= cell.merge_ns, "{cell:?}");
            assert!(cell.merge_ns > 0, "{cell:?}");
            assert!(cell.median_pricing_ns > 0, "{cell:?}");
            assert_eq!(cell.payment_replays, base.payment_replays);
            assert_eq!(cell.replay_iterations, base.replay_iterations);
            assert_eq!(cell.prefix_iterations, base.prefix_iterations);
        }
        assert_eq!(report.speedups.len(), 2, "every non-base config compared");
        assert!(report.speedups.iter().all(|s| s.identical_outcomes));
        assert!(report.cells.iter().all(|c| c.payment_replays > 0));
        let json = report.to_json();
        assert!(json.contains("\"outcome_digest\""));
        assert!(!json.contains("\"shards\""));
        assert!(json.contains("\"selection_ns\""));
        assert!(json.contains(SCALE_SCHEMA));
        assert!(report.render().contains("payments/s"));
    }

    #[test]
    fn v2_reports_with_a_shards_key_still_parse() {
        // v2 baselines recorded before selection lost its shard setting.
        let v2 = r#"{
            "schema": "edge-market/bench-scale/v2",
            "threads_available": 1,
            "cells": [{
                "n": 1000, "rounds": 3, "threads": 1, "shards": 1, "reps": 5,
                "median_total_ns": 1, "median_ns_per_round": 1,
                "median_pricing_ns": 1, "min_pricing_ns": 1,
                "payments_per_sec": 1.0, "payment_replays": 1,
                "replay_iterations": 1, "prefix_iterations": 1,
                "selection_ns": 1, "merge_ns": 1, "outcome_digest": "bb"
            }],
            "speedups": [{
                "n": 1000, "rounds": 3, "threads": 4, "shards": 1,
                "pricing_speedup_vs_1": 1.0, "identical_outcomes": true
            }]
        }"#;
        let report = parse_report(v2).unwrap();
        assert_eq!(report.cells[0].outcome_digest, "bb");
        assert_eq!(report.speedups[0].threads, 4);
    }

    #[test]
    fn v2_reports_parse_without_upgrade_and_others_are_rejected() {
        let report = run_scale(1_000, Some(1));
        let parsed = parse_report(&report.to_json()).unwrap();
        assert_eq!(
            parsed.cells[0].outcome_digest,
            report.cells[0].outcome_digest
        );

        let bogus = report
            .to_json()
            .replace(SCALE_SCHEMA, "edge-market/bench-scale/v99");
        let err = parse_report(&bogus).unwrap_err();
        assert!(err.contains("v99"), "{err}");
        // A v1 report (no min_pricing_ns, selection_ns or merge_ns
        // columns) is rejected too.
        let v1 = r#"{
            "schema": "edge-market/bench-scale/v1",
            "threads_available": 1,
            "cells": [{
                "n": 1000, "rounds": 3, "threads": 4, "reps": 3,
                "median_total_ns": 1, "median_ns_per_round": 1,
                "median_pricing_ns": 1, "payments_per_sec": 1.0,
                "payment_replays": 1, "replay_iterations": 1,
                "prefix_iterations": 1, "outcome_digest": "aa"
            }],
            "speedups": []
        }"#;
        let err = parse_report(v1).unwrap_err();
        assert!(err.contains("bench-scale/v1"), "{err}");
    }

    #[test]
    fn pinned_thread_count_sweeps_single_column() {
        let report = run_scale(1_000, Some(1));
        assert_eq!(report.cells.len(), 1);
        assert!(report.speedups.is_empty());
    }
}
