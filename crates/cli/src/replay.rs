//! `edge-market replay` — offline, byte-identical re-execution of a
//! recorded run.
//!
//! The event log is the source of truth. For a **serve** log the header
//! carries the full [`ServiceConfig`] and the digest-chained records
//! carry every accepted event in order; replaying is
//!
//! 1. parse + chain-verify the log ([`edge_auction::service::parse_log`]);
//! 2. build a fresh [`AuctionService`] over the same seeded stage
//!    provider `serve` uses ([`crate::serve::stage_provider`]);
//! 3. apply every record in sequence.
//!
//! A **federation** log (written by `federate --fed-log`) is detected
//! automatically ([`has_header`]): its header carries the whole
//! [`FederationConfig`](edge_auction::federation::FederationConfig)
//! *and* the seeded net-fault plan, so replay rebuilds the entire
//! federation — network substrate included — re-runs it, and verifies
//! the regenerated record stream against the recorded one, reporting
//! the exact first divergent sequence number on mismatch.
//!
//! Outcome digests, payments, and deterministic trace sections come out
//! byte-identical to the live run — at any pricing pool size — because
//! both state machines are pure functions of (header, events). A trailing partial record in a serve log (the daemon was
//! killed mid-write) is dropped with a note; corruption anywhere else
//! is a hard error naming the exact record.
//!
//! Config flags (`--seed`, `--microservices`, …) are **assertions**,
//! not overrides: replay always uses the header, and a flag that
//! contradicts it is a loud [`CliError::ReplayConflict`] — catching the
//! "replayed the wrong log" mistake before anyone trusts the digests.

use crate::args::{ArgsError, ParsedArgs};
use crate::commands::CliError;
use edge_auction::chain_log::has_header;
use edge_auction::federation::{first_divergence, parse_fed_log, FedChain, FederationSim};
use edge_auction::service::{parse_log, AuctionService, ServiceConfig};
use edge_telemetry::Collector;
use std::fmt::Write as _;
use std::fs;

/// The config-assertion flags replay accepts alongside its own.
const ASSERTION_FLAGS: &[&str] = &[
    "seed",
    "microservices",
    "requests",
    "rounds",
    "stage-rounds",
    "book-cap",
    "demand-cap",
    "platforms",
];

/// Runs `replay <log.jsonl>`: parses, verifies, and re-executes the
/// log, reporting digests. See the module docs for the contract.
pub fn replay(args: &ParsedArgs) -> Result<String, CliError> {
    let mut allowed = vec!["log", "trace", "spans"];
    allowed.extend_from_slice(ASSERTION_FLAGS);
    args.allow_only(&allowed)?;
    let spans_on = crate::commands::on_off_flag(args, "spans", false)?;
    let path = match (args.subcommand.as_deref(), args.get("log")) {
        (Some(p), None) => p.to_owned(),
        (None, Some(p)) => p.to_owned(),
        (Some(_), Some(_)) => return Err(CliError::FlagConflict("log", "<positional log>")),
        (None, None) => {
            return Err(ArgsError::MissingFlag("log (or a positional path)").into());
        }
    };
    let text = fs::read_to_string(&path)?;
    if has_header::<FedChain>(&text) {
        return replay_federation(args, &path, &text);
    }
    let parsed = parse_log(&text, true)?;
    check_assertions(args, &parsed.config, None)?;
    let collector = args.get("trace").map(|_| Collector::new());

    let mut svc = AuctionService::new(parsed.config, crate::serve::stage_provider(parsed.config));
    if spans_on {
        edge_telemetry::spans::install();
    }
    let applied = svc.apply_all(&parsed.records, collector.as_ref());
    if spans_on {
        // Replay applies the exact accepted-event sequence the live run
        // logged, so this flushed tree is byte-identical to the one the
        // `serve --spans on` trace carries.
        let tree = edge_telemetry::spans::uninstall();
        if let (Some(tree), Some(collector)) = (tree, collector.as_ref()) {
            tree.flush_into(collector);
        }
    }
    applied?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "replayed {path}: {} events verified",
        parsed.records.len()
    );
    let _ = writeln!(out, "header: {}", describe(&parsed.config));
    let _ = writeln!(
        out,
        "drove {} stages, {} auction rounds (seed {})",
        svc.stages_completed(),
        svc.rounds_closed(),
        parsed.config.seed
    );
    if let Some(digest) = svc.last_outcome_digest_hex() {
        let _ = writeln!(out, "last outcome digest: {digest}");
    }
    let _ = writeln!(out, "state digest: {}", svc.state_digest_hex());
    if parsed.truncated_tail {
        let _ = writeln!(
            out,
            "note: dropped a trailing partial record (mid-write crash)"
        );
    }
    if let (Some(trace_path), Some(collector)) = (args.get("trace"), collector) {
        fs::write(trace_path, collector.to_jsonl())?;
        let _ = writeln!(out, "trace: {} events → {trace_path}", collector.len());
    }
    Ok(out)
}

/// The federation arm: rebuild the whole federation from the log header
/// (config + net-fault plan), re-run it, and verify the regenerated
/// record stream equals the recorded one.
fn replay_federation(args: &ParsedArgs, path: &str, text: &str) -> Result<String, CliError> {
    let log = parse_fed_log(text)?;
    let node0 =
        log.header.config.nodes.first().copied().ok_or_else(|| {
            CliError::Federation("federation log header has no platforms".to_owned())
        })?;
    check_assertions(args, &node0, Some(log.header.config.nodes.len()))?;
    let spans_on = crate::commands::on_off_flag(args, "spans", false)?;
    let collector = args.get("trace").map(|_| Collector::new());

    let mut sim = FederationSim::new(
        log.header.config.clone(),
        log.header.plan.clone(),
        |_, c| crate::serve::stage_provider(c),
    )
    .map_err(|e| CliError::Federation(e.to_string()))?;
    if spans_on {
        edge_telemetry::spans::install();
    }
    let run_result = sim.run(collector.as_ref());
    if spans_on {
        let tree = edge_telemetry::spans::uninstall();
        if let (Some(tree), Some(collector)) = (tree, collector.as_ref()) {
            tree.flush_into(collector);
        }
    }
    let outcome = run_result.map_err(|e| CliError::Federation(e.to_string()))?;

    if let Some(seq) = first_divergence(&log.records, sim.records()) {
        return Err(CliError::Federation(format!(
            "replay diverged from the recorded log at seq {seq} \
             (recorded {} records, regenerated {})",
            log.records.len(),
            sim.records().len()
        )));
    }
    if log.records.len() != sim.records().len() {
        return Err(CliError::Federation(format!(
            "replay regenerated {} records but the log holds {}",
            sim.records().len(),
            log.records.len()
        )));
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "replayed {path}: federation log, {} records verified record-for-record",
        log.records.len()
    );
    let _ = writeln!(
        out,
        "header: {} platforms, {}",
        log.header.config.nodes.len(),
        describe(&node0)
    );
    out.push_str(&crate::federate::render_outcome(&outcome));
    if let (Some(trace_path), Some(collector)) = (args.get("trace"), collector) {
        fs::write(trace_path, collector.deterministic_jsonl())?;
        let _ = writeln!(out, "trace: {} events → {trace_path}", collector.len());
    }
    Ok(out)
}

/// Compares every explicitly passed config flag against the log header;
/// the first contradiction is a [`CliError::ReplayConflict`].
fn check_assertions(
    args: &ParsedArgs,
    config: &ServiceConfig,
    platforms: Option<usize>,
) -> Result<(), CliError> {
    let header: &[(&'static str, String)] = &[
        ("seed", config.seed.to_string()),
        ("microservices", config.microservices.to_string()),
        ("requests", config.requests.to_string()),
        ("rounds", config.total_rounds.to_string()),
        ("stage-rounds", config.stage_rounds.to_string()),
        ("book-cap", config.book_cap.to_string()),
        ("demand-cap", config.demand_cap.to_string()),
        (
            "platforms",
            platforms.map_or_else(|| "1".to_owned(), |k| k.to_string()),
        ),
    ];
    for (flag, recorded) in header {
        if let Some(raw) = args.get(flag) {
            if raw != recorded {
                return Err(CliError::ReplayConflict {
                    flag,
                    cli: raw.to_owned(),
                    header: recorded.clone(),
                });
            }
        }
    }
    Ok(())
}

/// Summarizes the header configuration (no leading label).
fn describe(config: &ServiceConfig) -> String {
    format!(
        "{} microservices, {} requests/round, stage_rounds {}, horizon {}",
        config.microservices,
        config.requests,
        config.stage_rounds,
        if config.total_rounds == 0 {
            "unbounded".to_owned()
        } else {
            config.total_rounds.to_string()
        }
    )
}
