//! `edge-market bench diff` — the performance-regression gate.
//!
//! Compares a fresh scale-benchmark run (or a `--fresh` report file)
//! against the committed `BENCH_scale.json` baseline, cell by cell over
//! the seller populations `n` both reports measured:
//!
//! * **outcome digests must match exactly** — a digest mismatch means
//!   the auction now computes different winners or payments, which is
//!   never acceptable from a performance change;
//! * **wall-clock medians must stay within a configurable relative
//!   tolerance** (`fresh ≤ base × (1 + tolerance)`), checked for both
//!   the total run and the pricing phase.
//!
//! Wall-clock is hardware-dependent: the committed baseline records the
//! machine that produced it (`threads_available`), so CI wires a loose
//! `--tolerance` where only digest mismatches can realistically fail,
//! while a developer box regenerating its own baseline can use a tight
//! one. Any regression renders a readable report and exits nonzero
//! ([`crate::commands::CliError::BenchRegression`]).

use crate::args::{ArgsError, ParsedArgs};
use crate::commands::CliError;
use edge_bench::scale::{parse_report, run_scale, ScaleCell, ScaleReport};
use edge_bench::table::Table;
use std::fmt::Write as _;
use std::fs;

/// Outcome of one baseline-vs-fresh comparison.
#[derive(Debug, Clone)]
pub struct DiffOutcome {
    /// The rendered, human-readable comparison table + verdict.
    pub rendered: String,
    /// Cells compared (populations present in both reports).
    pub compared: usize,
    /// Human-readable regression descriptions; empty means pass.
    pub regressions: Vec<String>,
}

/// The fresh cell measuring the same `n` as `base_cell`.
fn matching<'a>(fresh: &'a ScaleReport, base_cell: &ScaleCell) -> Option<&'a ScaleCell> {
    fresh.cells.iter().find(|c| c.n == base_cell.n)
}

/// Compares `fresh` against `base` (see module docs for the rules).
pub fn compare(base: &ScaleReport, fresh: &ScaleReport, tolerance: f64) -> DiffOutcome {
    let mut table = Table::new([
        "n",
        "digest",
        "base ms",
        "fresh ms",
        "ratio",
        "pricing ratio",
        "verdict",
    ]);
    let mut regressions = Vec::new();
    let mut compared = 0usize;
    for base_cell in &base.cells {
        let Some(fresh_cell) = matching(fresh, base_cell) else {
            continue;
        };
        compared += 1;
        let mut verdicts = Vec::new();
        let digest_ok = fresh_cell.outcome_digest == base_cell.outcome_digest;
        if !digest_ok {
            verdicts.push("DIGEST");
            regressions.push(format!(
                "n={}: outcome digest changed {} -> {} \
                 (outcomes must be bit-identical)",
                base_cell.n, base_cell.outcome_digest, fresh_cell.outcome_digest
            ));
        }
        let ratio = ratio_of(fresh_cell.median_total_ns, base_cell.median_total_ns);
        if ratio > 1.0 + tolerance {
            verdicts.push("SLOW");
            regressions.push(format!(
                "n={}: total wall-clock {:.2}x the baseline \
                 (tolerance {:.2}x)",
                base_cell.n,
                ratio,
                1.0 + tolerance
            ));
        }
        let pricing_ratio = ratio_of(fresh_cell.median_pricing_ns, base_cell.median_pricing_ns);
        if pricing_ratio > 1.0 + tolerance {
            verdicts.push("SLOW-PRICING");
            regressions.push(format!(
                "n={}: pricing phase {:.2}x the baseline \
                 (tolerance {:.2}x)",
                base_cell.n,
                pricing_ratio,
                1.0 + tolerance
            ));
        }
        table.push([
            base_cell.n.to_string(),
            if digest_ok { "ok" } else { "CHANGED" }.to_string(),
            format!("{:.2}", base_cell.median_total_ns as f64 / 1e6),
            format!("{:.2}", fresh_cell.median_total_ns as f64 / 1e6),
            format!("{ratio:.2}x"),
            format!("{pricing_ratio:.2}x"),
            if verdicts.is_empty() {
                "pass".to_string()
            } else {
                verdicts.join("+")
            },
        ]);
    }
    let mut rendered = table.render();
    let _ = writeln!(
        rendered,
        "compared {compared} cells (baseline machine: {} hardware threads, fresh: {})",
        base.threads_available, fresh.threads_available
    );
    if regressions.is_empty() {
        let _ = writeln!(rendered, "verdict: PASS within tolerance");
    } else {
        let _ = writeln!(rendered, "verdict: {} regression(s)", regressions.len());
        for r in &regressions {
            let _ = writeln!(rendered, "  REGRESSION {r}");
        }
    }
    DiffOutcome {
        rendered,
        compared,
        regressions,
    }
}

/// One stage's base/fresh wall-clock pair for the `--profile` view.
struct StageDelta {
    stage: &'static str,
    base_ns: u64,
    fresh_ns: u64,
}

/// Renders the per-stage attribution table for every compared cell:
/// selection (arena build, merge excluded), merge, pricing, and the
/// unattributed remainder, each as a fresh/base ratio. The `worst`
/// column names the stage that *added the most wall-clock* — ratios
/// flag relative movement, but the added nanoseconds are what the total
/// regression is actually made of.
pub fn stage_breakdown(base: &ScaleReport, fresh: &ScaleReport) -> String {
    let mut table = Table::new(["n", "selection", "merge", "pricing", "other", "worst stage"]);
    let mut rows = 0usize;
    for base_cell in &base.cells {
        let Some(fresh_cell) = matching(fresh, base_cell) else {
            continue;
        };
        rows += 1;
        let stages = [
            StageDelta {
                stage: "selection",
                base_ns: base_cell.selection_ns.saturating_sub(base_cell.merge_ns),
                fresh_ns: fresh_cell.selection_ns.saturating_sub(fresh_cell.merge_ns),
            },
            StageDelta {
                stage: "merge",
                base_ns: base_cell.merge_ns,
                fresh_ns: fresh_cell.merge_ns,
            },
            StageDelta {
                stage: "pricing",
                base_ns: base_cell.median_pricing_ns,
                fresh_ns: fresh_cell.median_pricing_ns,
            },
            StageDelta {
                stage: "other",
                base_ns: base_cell
                    .median_total_ns
                    .saturating_sub(base_cell.selection_ns)
                    .saturating_sub(base_cell.median_pricing_ns),
                fresh_ns: fresh_cell
                    .median_total_ns
                    .saturating_sub(fresh_cell.selection_ns)
                    .saturating_sub(fresh_cell.median_pricing_ns),
            },
        ];
        let worst = stages
            .iter()
            .max_by_key(|s| s.fresh_ns.saturating_sub(s.base_ns))
            .filter(|s| s.fresh_ns > s.base_ns);
        let cell = |s: &StageDelta| format!("{:.2}x", ratio_of(s.fresh_ns, s.base_ns));
        table.push([
            base_cell.n.to_string(),
            cell(&stages[0]),
            cell(&stages[1]),
            cell(&stages[2]),
            cell(&stages[3]),
            worst.map_or_else(
                || "none (no stage slower)".to_string(),
                |s| {
                    format!(
                        "{} (+{:.2}ms)",
                        s.stage,
                        s.fresh_ns.saturating_sub(s.base_ns) as f64 / 1e6
                    )
                },
            ),
        ]);
    }
    if rows == 0 {
        return String::new();
    }
    format!(
        "stage attribution (fresh/base wall-clock)\n{}",
        table.render()
    )
}

fn ratio_of(fresh_ns: u64, base_ns: u64) -> f64 {
    if base_ns == 0 {
        if fresh_ns == 0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        fresh_ns as f64 / base_ns as f64
    }
}

/// Loads and parses a report file.
fn load_report(path: &str) -> Result<ScaleReport, CliError> {
    parse_report(&fs::read_to_string(path)?)
        .map_err(|e| CliError::BenchRegression(format!("{path}: {e}")))
}

/// The `bench diff` command body.
pub fn bench_diff(args: &ParsedArgs) -> Result<String, CliError> {
    args.allow_only(&["baseline", "fresh", "scale-max-n", "tolerance", "profile"])?;
    let baseline_path = args.get("baseline").unwrap_or("BENCH_scale.json");
    let tolerance = args.get_or("tolerance", 1.0f64)?;
    // NaN is rejected along with negatives: both fail this check.
    if tolerance.is_nan() || tolerance < 0.0 {
        return Err(ArgsError::InvalidValue {
            flag: "tolerance".into(),
            value: tolerance.to_string(),
        }
        .into());
    }
    let baseline = load_report(baseline_path)?;

    let (fresh, fresh_source) = match args.get("fresh") {
        Some(path) => (load_report(path)?, path.to_owned()),
        None => {
            let max_n = args.get_or("scale-max-n", 1_000usize)?;
            (run_scale(max_n), format!("fresh run (max n {max_n})"))
        }
    };

    let outcome = compare(&baseline, &fresh, tolerance);
    let mut out = format!(
        "bench diff: {baseline_path} (baseline) vs {fresh_source}, tolerance {tolerance}\n"
    );
    out.push_str(&outcome.rendered);
    if args.get("profile").is_some() {
        out.push_str(&stage_breakdown(&baseline, &fresh));
    }
    if outcome.compared == 0 {
        return Err(CliError::BenchRegression(format!(
            "{out}no overlapping n cells between baseline and fresh run — \
             nothing was actually compared"
        )));
    }
    if outcome.regressions.is_empty() {
        Ok(out)
    } else {
        Err(CliError::BenchRegression(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> ScaleReport {
        // A real (tiny) run keeps the struct shape honest without
        // hand-building cells.
        run_scale(1_000)
    }

    #[test]
    fn identical_reports_pass() {
        let report = tiny_report();
        let outcome = compare(&report, &report, 0.0);
        assert_eq!(outcome.compared, 1);
        assert!(outcome.regressions.is_empty(), "{:?}", outcome.regressions);
        assert!(outcome.rendered.contains("PASS"), "{}", outcome.rendered);
    }

    #[test]
    fn digest_change_is_always_a_regression() {
        let base = tiny_report();
        let mut fresh = base.clone();
        fresh.cells[0].outcome_digest = "deadbeefdeadbeef".to_owned();
        // Even an infinite tolerance cannot excuse a digest change.
        let outcome = compare(&base, &fresh, f64::INFINITY);
        assert_eq!(outcome.regressions.len(), 1);
        assert!(outcome.rendered.contains("DIGEST"), "{}", outcome.rendered);
    }

    #[test]
    fn slowdown_beyond_tolerance_is_a_regression() {
        let base = tiny_report();
        let mut fresh = base.clone();
        fresh.cells[0].median_total_ns = base.cells[0].median_total_ns.saturating_mul(10).max(10);
        let outcome = compare(&base, &fresh, 1.0);
        assert!(
            outcome.regressions.iter().any(|r| r.contains("wall-clock")),
            "{:?}",
            outcome.regressions
        );
        // ...but a loose enough tolerance forgives pure wall-clock.
        let forgiving = compare(&base, &fresh, 100.0);
        assert!(
            forgiving.regressions.is_empty(),
            "{:?}",
            forgiving.regressions
        );
    }

    #[test]
    fn stage_breakdown_names_the_worst_regressing_stage() {
        let base = tiny_report();
        let mut fresh = base.clone();
        // Inflate pricing far beyond the other stages: it must be named.
        fresh.cells[0].median_pricing_ns = base.cells[0]
            .median_pricing_ns
            .saturating_mul(50)
            .max(50_000_000);
        fresh.cells[0].median_total_ns = base.cells[0]
            .median_total_ns
            .saturating_add(fresh.cells[0].median_pricing_ns);
        let rendered = stage_breakdown(&base, &fresh);
        assert!(rendered.contains("stage attribution"), "{rendered}");
        assert!(rendered.contains("pricing (+"), "{rendered}");
    }

    #[test]
    fn disjoint_reports_compare_nothing() {
        let base = tiny_report();
        let mut fresh = base.clone();
        for c in &mut fresh.cells {
            c.n += 7;
        }
        let outcome = compare(&base, &fresh, 1.0);
        assert_eq!(outcome.compared, 0);
    }
}
