//! The `profile` command: run a scale-class MSOA instance under the
//! ambient span profiler and render where the time went.
//!
//! The report is an ASCII waterfall over the stage-attributed span tree
//! ([`edge_telemetry::spans`]): per-stage total/self times with
//! percentages, the attribution line (how much top-level wall time sits
//! inside named sub-stages), the deterministic per-span counters, and
//! the profile-side engine diagnostics. Because span *structure* is
//! independent of the pricing pool, the same command on any host prints
//! the same tree shape and counters; only the measured durations and
//! the pool decisions move.
//!
//! `--trace` writes the full two-section trace (deterministic MSOA
//! events plus flushed `span` events, then the `"section":"profile"`
//! tail); `--folded` writes flamegraph-compatible folded stacks
//! (`inferno` / `flamegraph.pl` input), weighted by self-nanoseconds or
//! — for byte-deterministic output — by call counts.

use crate::args::{ArgsError, ParsedArgs};
use crate::commands::CliError;
use crate::faults::parse_fault_plan;
use edge_auction::msoa::{run_msoa_traced, MsoaConfig};
use edge_auction::recovery::{run_msoa_with_faults_traced, RecoveryConfig};
use edge_auction::ssam::SsamConfig;
use edge_bench::scenario::scale_instance;
use edge_common::rng::derive_rng;
use edge_telemetry::spans::{self, FoldWeight, SpanTree};
use edge_telemetry::{Collector, Trace};
use std::fmt::Write as _;
use std::fs;

/// Entry point for `edge-market profile`.
///
/// # Errors
///
/// Any [`CliError`] from flag parsing, fault-plan loading, file I/O, or
/// the auction itself.
pub fn profile(args: &ParsedArgs) -> Result<String, CliError> {
    args.allow_only(&[
        "scale-n",
        "rounds",
        "seed",
        "faults",
        "recovery",
        "trace",
        "folded",
        "folded-weight",
    ])?;
    let n = args.get_or("scale-n", 100_000usize)?.max(1);
    let rounds = args.get_or("rounds", 3u64)?.max(1);
    let seed = args.get_or("seed", 42u64)?;
    let weight = match args.get("folded-weight").unwrap_or("ns") {
        "ns" => FoldWeight::SelfNs,
        "calls" => FoldWeight::Calls,
        other => {
            return Err(ArgsError::InvalidValue {
                flag: "folded-weight".into(),
                value: other.to_owned(),
            }
            .into())
        }
    };
    let recovery = match args.get("recovery").unwrap_or("on") {
        "on" => RecoveryConfig::default(),
        "off" => RecoveryConfig::disabled(),
        other => {
            return Err(ArgsError::InvalidValue {
                flag: "recovery".into(),
                value: other.to_owned(),
            }
            .into())
        }
    };
    let plan = match args.get("faults") {
        Some(path) => Some(parse_fault_plan(&fs::read_to_string(path)?)?),
        None => None,
    };

    let (run, tree) =
        spans::collect(|| run_instance(args, n, rounds, seed, &recovery, plan.as_ref()));
    let (summary, collector) = run?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "profiled scale instance: n={n}, rounds={rounds}, seed={seed}{}",
        if plan.is_some() { ", faulty" } else { "" }
    );
    let _ = writeln!(out, "{summary}");
    out.push('\n');
    out.push_str(&tree.render());
    out.push_str(&lane_scan_note(&tree));

    if let (Some(path), Some(collector)) = (args.get("trace"), collector) {
        tree.flush_into(&collector);
        fs::write(path, collector.to_jsonl())?;
        let _ = writeln!(
            out,
            "\ntrace: {} deterministic events ({} spans) → {path}",
            collector.len(),
            tree.len()
        );
    }
    if let Some(path) = args.get("folded") {
        fs::write(path, tree.folded(weight))?;
        let _ = writeln!(
            out,
            "folded stacks ({}) → {path}",
            match weight {
                FoldWeight::SelfNs => "self-ns weights",
                FoldWeight::Calls => "call-count weights",
            }
        );
    }
    Ok(out)
}

/// Generates and runs the instance under the root `profile` span,
/// returning a one-line outcome summary and the trace collector.
fn run_instance(
    args: &ParsedArgs,
    n: usize,
    rounds: u64,
    seed: u64,
    recovery: &RecoveryConfig,
    plan: Option<&edge_auction::recovery::FaultPlan>,
) -> Result<(String, Option<Collector>), CliError> {
    let config = MsoaConfig {
        ssam: SsamConfig::default(),
        alpha: None,
    };
    let _root = spans::enter("profile");
    let instance = {
        let _gen = spans::enter("generate");
        let mut rng = derive_rng(seed, "profile-scale");
        scale_instance(n, rounds, &mut rng)
    };
    let collector = args.get("trace").map(|_| Collector::new());
    let trace = collector
        .as_ref()
        .map_or_else(Trace::off, |c| Trace::new(c));
    let summary = {
        let _run = spans::enter("run");
        match plan {
            Some(plan) => {
                let outcome =
                    run_msoa_with_faults_traced(&instance, &config, plan, recovery, trace)?;
                format!(
                    "outcome: {} rounds, social cost {}, platform cost {}, shortfall {}u",
                    outcome.rounds.len(),
                    outcome.social_cost,
                    outcome.platform_cost,
                    outcome.shortfall_units
                )
            }
            None => {
                let outcome = run_msoa_traced(&instance, &config, trace)?;
                format!(
                    "outcome: {} rounds, social cost {}, payments {}",
                    outcome.rounds.len(),
                    outcome.social_cost,
                    outcome.total_payment
                )
            }
        }
    };
    Ok((summary, collector))
}

/// Renders the argmin cost per query: every `pop_best` ranks O(log
/// lanes) lane heads in the arena's tree (walk, tie descent, and the
/// repairs after heads move), so the mean heads-per-scan shows how the
/// selection and pricing phases pay for each argmin.
fn lane_scan_note(tree: &SpanTree) -> String {
    let mut out = String::new();
    for view in tree.views() {
        if view.name != "selection" && view.name != "pricing" {
            continue;
        }
        let scans = view
            .counters
            .iter()
            .find(|(k, _)| *k == "pop_best_scans")
            .map_or(0, |&(_, v)| v);
        let reads = view
            .diag
            .iter()
            .find(|(k, _)| *k == "lane_head_reads")
            .map_or(0, |&(_, v)| v);
        if scans == 0 {
            continue;
        }
        if out.is_empty() {
            out.push_str("\nlane-head reads per argmin query\n");
        }
        let _ = writeln!(
            out,
            "  {:<42} {} head reads / {} pop_best scans = {:.1} per scan",
            view.path,
            reads,
            scans,
            reads as f64 / scans as f64
        );
    }
    out
}
