//! The scale benchmark: MSOA wall-clock, selection-phase and
//! pricing-phase cost as the seller population grows to one million
//! sellers.
//!
//! Unlike the figure sweeps in [`crate::runner`] this is *not* a paper
//! figure — it is the machine-readable evidence for the lane-arena
//! selection and the shared-prefix critical-value pricing. Each cell
//! (`n` sellers × `rounds`) runs the same deterministic
//! [`crate::scenario::scale_instance`] several times and records the
//! **median** wall-clock. The phase columns come from the span tree
//! [`edge_telemetry::spans::collect`] gathers around each measured run:
//! `selection`, `merge` and `pricing` span times, and the replay
//! counters on the `pricing` span. The replay/prefix iteration counts
//! are thread- and clock-independent, so they hold as evidence on any
//! host. The pricing pool sizes itself per auction (`edge_auction::pricing`),
//! so there is no thread setting to sweep.
//!
//! Every cell also carries an FNV-1a digest of the serialized outcome.
//! Digests are machine-independent: `bench diff` checks them against
//! the committed baseline exactly.

use crate::scenario::scale_instance;
use crate::table::Table;
use edge_auction::msoa::{run_msoa, MsoaConfig};
use edge_common::rng::{derive_rng, fnv1a64};
use edge_telemetry::spans::{self, SpanTree};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Schema identifier written into `BENCH_scale.json`.
///
/// v3 drops v2's per-cell `threads` column and its `speedups` table:
/// the pricing pool has no setting, so a cell is one `n`.
pub const SCALE_SCHEMA: &str = "edge-market/bench-scale/v3";

/// Seller populations swept by default (clamped by `max_n`).
pub const SCALE_SIZES: [usize; 6] = [1_000, 10_000, 50_000, 100_000, 500_000, 1_000_000];

/// Rounds per instance; every round repeats the bid list, so rounds
/// after the first differ only in the winners' ψ and χ.
pub const SCALE_ROUNDS: u64 = 3;

/// Measured repetitions per cell; medians are reported.
pub const SCALE_REPS: usize = 5;

/// One measured cell: one population run [`SCALE_REPS`] times.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScaleCell {
    /// Seller population.
    pub n: usize,
    /// Rounds in the instance.
    pub rounds: u64,
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
    /// Payment replays per run — one per winner per round.
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

/// The full report serialized to `BENCH_scale.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScaleReport {
    /// Schema identifier ([`SCALE_SCHEMA`]).
    pub schema: String,
    /// Hardware parallelism of the machine that produced the report —
    /// the most pricing workers any auction there could use.
    pub threads_available: usize,
    /// Measured cells, in ascending `n`.
    pub cells: Vec<ScaleCell>,
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

/// Runs one population: an untimed warmup pass (so the first measured
/// rep is not uniquely cold), then [`SCALE_REPS`] measured runs.
fn run_cell(n: usize) -> ScaleCell {
    let mut rng = derive_rng(n as u64, "bench-scale");
    let instance = scale_instance(n, SCALE_ROUNDS, &mut rng);
    let config = MsoaConfig::pinned(2.0);
    let _ = run_msoa(&instance, &config).expect("scale instances are feasible");

    let mut totals = Vec::with_capacity(SCALE_REPS);
    let mut pricing_ns = Vec::with_capacity(SCALE_REPS);
    let mut selection_ns = Vec::with_capacity(SCALE_REPS);
    let mut merge_ns = Vec::with_capacity(SCALE_REPS);
    let mut last = None;
    for _ in 0..SCALE_REPS {
        let ((total, outcome), tree) = spans::collect(|| {
            let start = Instant::now();
            let outcome = run_msoa(&instance, &config).expect("scale instances are feasible");
            (start.elapsed().as_nanos() as u64, outcome)
        });
        let phases = Phases::of(&tree);
        totals.push(total);
        pricing_ns.push(phases.pricing_ns);
        selection_ns.push(phases.selection_ns);
        merge_ns.push(phases.merge_ns);
        last = Some((outcome, phases));
    }

    let (outcome, phases) = last.expect("SCALE_REPS >= 1");
    let median_total_ns = median(totals);
    let min_pricing_ns = pricing_ns.iter().copied().min().unwrap_or(0);
    let median_pricing_ns = median(pricing_ns);
    let payments_per_sec = if median_pricing_ns == 0 {
        0.0
    } else {
        phases.replays as f64 / (median_pricing_ns as f64 / 1e9)
    };
    let serialized = serde_json::to_string(&outcome).expect("outcomes are plain data");
    ScaleCell {
        n,
        rounds: SCALE_ROUNDS,
        reps: SCALE_REPS,
        median_total_ns,
        median_ns_per_round: median_total_ns / SCALE_ROUNDS,
        median_pricing_ns,
        min_pricing_ns,
        payments_per_sec,
        payment_replays: phases.replays,
        replay_iterations: phases.replay_iterations,
        prefix_iterations: phases.prefix_iterations,
        selection_ns: median(selection_ns),
        merge_ns: median(merge_ns),
        outcome_digest: format!("{:016x}", fnv1a64(serialized.as_bytes())),
    }
}

/// Runs the scale sweep: one cell per population in [`SCALE_SIZES`] up
/// to `max_n` (or one cell at `max_n` when it is below them all).
pub fn run_scale(max_n: usize) -> ScaleReport {
    let sizes: Vec<usize> = SCALE_SIZES
        .into_iter()
        .filter(|&n| n <= max_n)
        .collect::<Vec<_>>();
    let sizes = if sizes.is_empty() {
        vec![max_n.max(1)]
    } else {
        sizes
    };

    let cells: Vec<ScaleCell> = {
        // Cells run full MSOA pipelines; keep their interior spans out
        // of the tree so the absorbed sweep time below isn't counted
        // twice (once per stage, once per cell).
        let _quiet = edge_telemetry::spans::suppress_tree();
        sizes.iter().map(|&n| run_cell(n)).collect()
    };
    let cell_us: Vec<u64> = cells.iter().map(|c| c.median_total_ns / 1_000).collect();

    crate::profile::set_stage("scale");
    crate::profile::record_sweep(sizes.len(), 1, &cell_us);

    ScaleReport {
        schema: SCALE_SCHEMA.to_string(),
        threads_available: edge_auction::available_pricing_threads(),
        cells,
    }
}

impl ScaleReport {
    /// Renders the human-readable summary table.
    pub fn render(&self) -> String {
        let mut t = Table::new([
            "n",
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
                format!("{:.2}", c.median_ns_per_round as f64 / 1e6),
                format!("{:.2}", c.selection_ns as f64 / 1e6),
                format!("{:.2}", c.merge_ns as f64 / 1e6),
                format!("{:.2}", c.median_pricing_ns as f64 / 1e6),
                format!("{:.0}", c.payments_per_sec),
                c.payment_replays.to_string(),
                c.outcome_digest.clone(),
            ]);
        }
        t.render()
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
    fn small_sweep_reports_one_cell_per_n_with_the_committed_digest() {
        let report = run_scale(1_000);
        assert_eq!(report.schema, SCALE_SCHEMA);
        assert_eq!(report.cells.len(), 1, "one cell per n");
        let cell = &report.cells[0];
        assert_eq!((cell.n, cell.reps), (1_000, SCALE_REPS));
        // The committed `BENCH_scale.json` digest for n = 1000: outcomes
        // are independent of the host and of the pool it chose.
        assert_eq!(cell.outcome_digest, "bf088683df2138c2");
        // The span tree timed every phase: merge is part of
        // selection, and both ran.
        assert!(cell.selection_ns >= cell.merge_ns, "{cell:?}");
        assert!(cell.merge_ns > 0, "{cell:?}");
        assert!(cell.median_pricing_ns > 0, "{cell:?}");
        assert!(cell.payment_replays > 0, "{cell:?}");
        let json = report.to_json();
        assert!(json.contains("\"outcome_digest\""));
        assert!(!json.contains("\"threads\""), "{json}");
        assert!(json.contains("\"selection_ns\""));
        assert!(json.contains(SCALE_SCHEMA));
        assert!(report.render().contains("payments/s"));
    }

    #[test]
    fn v3_reports_parse_and_others_are_rejected() {
        let report = run_scale(1_000);
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
        // A v2 report (a `threads` column and a `speedups` table) is
        // rejected too.
        let v2 = r#"{
            "schema": "edge-market/bench-scale/v2",
            "threads_available": 1,
            "cells": [{
                "n": 1000, "rounds": 3, "threads": 1, "reps": 5,
                "median_total_ns": 1, "median_ns_per_round": 1,
                "median_pricing_ns": 1, "min_pricing_ns": 1,
                "payments_per_sec": 1.0, "payment_replays": 1,
                "replay_iterations": 1, "prefix_iterations": 1,
                "selection_ns": 1, "merge_ns": 1, "outcome_digest": "bb"
            }],
            "speedups": []
        }"#;
        let err = parse_report(v2).unwrap_err();
        assert!(err.contains("bench-scale/v2"), "{err}");
    }
}
