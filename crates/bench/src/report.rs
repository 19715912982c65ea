//! Figure rendering behind `edge-market reproduce`, the one way to
//! regenerate a figure.
//!
//! [`render_figure`] runs one figure's sweep under a span named after
//! the figure and renders its summary table and JSON series. The tables
//! committed under `results/` are this function's output, and the
//! determinism regression test diffs them across worker counts.

use crate::runner;
use crate::table::{f3, to_json, Table};

/// Every figure [`render_figure`] knows, in reproduction order.
pub const FIGURES: &[&str] = &[
    "fig3a",
    "fig3a_setcover",
    "fig3b",
    "fig4a",
    "fig4b",
    "fig5a",
    "fig6a",
    "fig6b",
    "ablation",
    "fault-matrix",
];

/// A rendered figure: a human-readable table and the raw JSON series.
#[derive(Debug, Clone)]
pub struct RenderedFigure {
    /// Figure name (an element of [`FIGURES`]).
    pub name: &'static str,
    /// Table title line.
    pub title: &'static str,
    /// Fixed-width rendered table.
    pub table: String,
    /// JSON array of the typed rows.
    pub json: String,
}

/// Runs one figure sweep and renders its summary table. Returns `None`
/// for an unknown figure name. `seeds` is ignored by `fig4a`, which is
/// a single annotated run by construction.
///
/// The figure runs under one span named after it: a sweep's shape lands
/// on it as counters, and `fig4a`'s single auction nests its engine
/// spans under it.
pub fn render_figure(name: &str, seeds: u64) -> Option<RenderedFigure> {
    // Unknown names bail out here, same as the match below.
    let stage: &'static str = FIGURES.iter().find(|f| **f == name)?;
    let _span = edge_telemetry::spans::enter(stage);
    let fig = match name {
        "fig3a" => {
            let rows = runner::fig3a(seeds);
            let mut t = Table::new(["J", "|S|", "ratio", "certified π"]);
            for r in &rows {
                t.push([
                    r.bids_per_seller.to_string(),
                    r.microservices.to_string(),
                    f3(r.mean_ratio),
                    f3(r.mean_certified_pi),
                ]);
            }
            RenderedFigure {
                name: "fig3a",
                title: "Figure 3(a) — SSAM ratio",
                table: t.render(),
                json: to_json(&rows),
            }
        }
        "fig3a_setcover" => {
            let rows = runner::fig3a_setcover(seeds);
            let mut t = Table::new(["J", "|S|", "ratio", "samples"]);
            for r in &rows {
                t.push([
                    r.bids_per_seller.to_string(),
                    r.microservices.to_string(),
                    f3(r.mean_ratio),
                    r.samples.to_string(),
                ]);
            }
            RenderedFigure {
                name: "fig3a_setcover",
                title: "Figure 3(a), set-cover form",
                table: t.render(),
                json: to_json(&rows),
            }
        }
        "fig3b" => {
            let rows = runner::fig3b(seeds);
            let mut t = Table::new(["req", "|S|", "social", "payment", "optimal"]);
            for r in &rows {
                t.push([
                    r.requests.to_string(),
                    r.microservices.to_string(),
                    f3(r.social_cost),
                    f3(r.total_payment),
                    f3(r.optimal),
                ]);
            }
            RenderedFigure {
                name: "fig3b",
                title: "Figure 3(b) — SSAM costs",
                table: t.render(),
                json: to_json(&rows),
            }
        }
        "fig4a" => {
            let rows = runner::fig4a(1);
            let mut t = Table::new(["winner", "price", "payment"]);
            for r in &rows {
                t.push([r.winner.to_string(), f3(r.price), f3(r.payment)]);
            }
            RenderedFigure {
                name: "fig4a",
                title: "Figure 4(a) — payment vs price",
                table: t.render(),
                json: to_json(&rows),
            }
        }
        "fig4b" => {
            let rows = runner::fig4b(seeds);
            let mut t = Table::new(["req", "|S|", "runtime (µs)"]);
            for r in &rows {
                t.push([
                    r.requests.to_string(),
                    r.microservices.to_string(),
                    f3(r.mean_runtime_us),
                ]);
            }
            RenderedFigure {
                name: "fig4b",
                title: "Figure 4(b) — running time",
                table: t.render(),
                json: to_json(&rows),
            }
        }
        "fig5a" => {
            let rows = runner::fig5a(seeds);
            let mut t = Table::new(["variant", "req", "|S|", "ratio", "uncovered"]);
            for r in &rows {
                t.push([
                    r.variant.clone(),
                    r.requests.to_string(),
                    r.microservices.to_string(),
                    f3(r.mean_ratio),
                    f3(r.mean_infeasible_rounds),
                ]);
            }
            RenderedFigure {
                name: "fig5a",
                title: "Figure 5(a) — MSOA variants",
                table: t.render(),
                json: to_json(&rows),
            }
        }
        "fig6a" => {
            let rows = runner::fig6a(seeds);
            let mut t = Table::new(["J", "T", "ratio"]);
            for r in &rows {
                t.push([
                    r.bids_per_seller.to_string(),
                    r.rounds.to_string(),
                    f3(r.mean_ratio),
                ]);
            }
            RenderedFigure {
                name: "fig6a",
                title: "Figure 6(a) — MSOA ratio vs T, J",
                table: t.render(),
                json: to_json(&rows),
            }
        }
        "fig6b" => {
            let rows = runner::fig6b(seeds);
            let mut t = Table::new(["req", "|S|", "social", "payment", "optimal"]);
            for r in &rows {
                t.push([
                    r.requests.to_string(),
                    r.microservices.to_string(),
                    f3(r.social_cost),
                    f3(r.total_payment),
                    f3(r.optimal),
                ]);
            }
            RenderedFigure {
                name: "fig6b",
                title: "Figure 6(b) — MSOA costs",
                table: t.render(),
                json: to_json(&rows),
            }
        }
        "ablation" => {
            let rows = runner::ablation_mechanisms(seeds);
            let mut t = Table::new(["mechanism", "|S|", "social", "payment", "coverage"]);
            for r in &rows {
                t.push([
                    r.mechanism.clone(),
                    r.microservices.to_string(),
                    f3(r.mean_social_cost),
                    f3(r.mean_payment),
                    f3(r.coverage_rate),
                ]);
            }
            RenderedFigure {
                name: "ablation",
                title: "Ablation — mechanisms",
                table: t.render(),
                json: to_json(&rows),
            }
        }
        "fault-matrix" => {
            let rows = runner::fault_matrix(seeds);
            let mut t = Table::new([
                "p(default)",
                "recovery",
                "SLA viol",
                "cost",
                "shortfall",
                "clawback",
                "backfills",
            ]);
            for r in &rows {
                t.push([
                    f3(r.default_probability),
                    if r.recovery { "on" } else { "off" }.to_owned(),
                    f3(r.mean_sla_violation_rate),
                    f3(r.mean_platform_cost),
                    f3(r.mean_shortfall_units),
                    f3(r.mean_clawed_back),
                    f3(r.mean_backfill_attempts),
                ]);
            }
            RenderedFigure {
                name: "fault-matrix",
                title: "Fault matrix — SLA and cost vs default probability",
                table: t.render(),
                json: to_json(&rows),
            }
        }
        _ => return None,
    };
    Some(fig)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_figure_is_none() {
        assert!(render_figure("fig9z", 1).is_none());
    }

    #[test]
    fn every_listed_figure_renders() {
        // Only the cheap single-run figure here; the full sweeps are
        // covered by the runner shape tests and tests/determinism.rs.
        let fig = render_figure("fig4a", 1).expect("known figure");
        assert_eq!(fig.name, "fig4a");
        assert!(fig.table.contains("payment"));
        assert!(fig.json.starts_with('['));
    }
}
