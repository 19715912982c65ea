//! Federation observability, end to end through the CLI:
//!
//! 1. `federate --trace` writes a deterministic trace that is
//!    byte-identical with the pricing pool pinned at 1 and 4 threads
//!    and byte-identical to
//!    the trace `replay` re-derives from the fed log — under an ideal
//!    network AND under an aggressive seeded fault plan (drops,
//!    duplicates, reorders, a partition window);
//! 2. `explain --deal` / `--deals` reconstruct deal timelines from a
//!    fed log and from a trace — with identical output, since the trace
//!    carries `fed_seq` provenance into the log — and re-derive every
//!    committed deal's fill units and resale revenue against the
//!    recorded node counters (`deals verified: N/N`);
//! 3. an aborted deal's timeline names the message the network ate (or
//!    the deadline that expired) — the whole point of causal tracing;
//! 4. `explain` on a fed log without `--deal`/`--deals` is a guided
//!    error, not a silent empty answer.

use edge_auction::bid::{Bid, Seller};
use edge_auction::federation::{
    render_fed_log, FedEvent, FederationConfig, FederationOutcome, FederationSim,
};
use edge_auction::msoa::{MultiRoundInstance, RoundInput};
use edge_auction::pricing::pinned;
use edge_auction::service::ServiceConfig;
use edge_common::fnv1a64;
use edge_common::id::{BidId, MicroserviceId};
use edge_market_cli::args::ParsedArgs;
use edge_market_cli::commands::run;
use edge_net::{NetFaultPlan, PartitionWindow};
use edge_telemetry::Collector;
use std::path::PathBuf;

fn parsed(args: &[&str]) -> ParsedArgs {
    ParsedArgs::parse(args.iter().map(|s| (*s).to_owned())).expect("args parse")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("edge-fed-obs-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// The aggressive-but-seeded plan from the federation determinism test:
/// lossy, laggy, duplicating, reordering links plus a partition window
/// isolating platform 1 mid-run.
const PLAN: &str = "\
seed = 11

[link]
latency_min = 1
latency_max = 4
drop_probability = 0.25
duplicate_probability = 0.10
reorder_probability = 0.20
reorder_max_extra = 2

[[partitions]]
from = 3
until = 9
isolated = 1
";

// ---------------------------------------------------------------------
// 1. Trace determinism through the CLI.
// ---------------------------------------------------------------------

/// Runs `federate` with a trace + fed log on a pool pinned at `threads`
/// and returns (rendered output, trace bytes, fed log bytes).
fn federate_traced(
    dir: &std::path::Path,
    plan: Option<&str>,
    threads: usize,
) -> (String, String, String) {
    let log = dir.join(format!("fed-{threads}.jsonl"));
    let trace = dir.join(format!("trace-{threads}.jsonl"));
    let mut args = vec![
        "federate".to_owned(),
        "--platforms".to_owned(),
        "3".to_owned(),
        "--seed".to_owned(),
        "11".to_owned(),
        "--microservices".to_owned(),
        "6".to_owned(),
        "--requests".to_owned(),
        "30".to_owned(),
        "--rounds".to_owned(),
        "6".to_owned(),
        "--stage-rounds".to_owned(),
        "2".to_owned(),
        "--fed-log".to_owned(),
        log.to_str().unwrap().to_owned(),
        "--trace".to_owned(),
        trace.to_str().unwrap().to_owned(),
    ];
    if let Some(plan_path) = plan {
        args.push("--net-faults".to_owned());
        args.push(plan_path.to_owned());
    }
    let args = ParsedArgs::parse(args).expect("args");
    let out = pinned(threads, None, || run(args)).expect("federate");
    let trace_text = std::fs::read_to_string(&trace).expect("trace written");
    let log_text = std::fs::read_to_string(&log).expect("fed log written");
    (out, trace_text, log_text)
}

fn assert_trace_deterministic(dir: &std::path::Path, plan: Option<&str>, tag: &str) {
    let (out_1, trace_1, log_1) = federate_traced(dir, plan, 1);
    let (out_4, trace_4, log_4) = federate_traced(dir, plan, 4);
    // The rendered summaries embed the per-thread output paths; every
    // other line must agree.
    let pathless = |out: &str| -> Vec<String> {
        out.lines()
            .filter(|l| !l.contains('→'))
            .map(ToOwned::to_owned)
            .collect()
    };
    assert_eq!(
        pathless(&out_1),
        pathless(&out_4),
        "[{tag}] federate output diverged across threads"
    );
    assert_eq!(trace_1, trace_4, "[{tag}] trace diverged across threads");
    assert_eq!(log_1, log_4, "[{tag}] fed log diverged across threads");

    // Replay the fed log with its own trace: the deterministic section
    // must reproduce the live trace byte for byte.
    let log_path = dir.join("fed-1.jsonl");
    let replay_trace = dir.join(format!("replay-trace-{tag}.jsonl"));
    let replay_args = parsed(&[
        "replay",
        log_path.to_str().unwrap(),
        "--trace",
        replay_trace.to_str().unwrap(),
    ]);
    let replay_out = pinned(4, None, || run(replay_args)).expect("replay");
    assert!(replay_out.contains("record-for-record"), "{replay_out}");
    let replayed = std::fs::read_to_string(&replay_trace).expect("replay trace written");
    assert_eq!(
        trace_1, replayed,
        "[{tag}] replay trace diverged from the live trace"
    );
}

#[test]
fn fed_trace_is_byte_identical_across_threads_and_replay() {
    let dir = temp_dir("trace");
    let plan_path = dir.join("plan.toml");
    std::fs::write(&plan_path, PLAN).expect("write plan");

    assert_trace_deterministic(&dir, None, "ideal");
    assert_trace_deterministic(&dir, Some(plan_path.to_str().unwrap()), "faulty");

    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// 2.–4. Deal reconstruction. The serve-loop stage provider clamps
// demand to sellable supply, so `federate` alone never opens a deal;
// these tests drive the federation through the library with a provider
// whose demand can outrun supply (the same trigger the core tests use),
// then point the `explain` CLI at the files it wrote.
// ---------------------------------------------------------------------

/// Deterministic hash-driven value in `1..=bound` (no RNG state, so the
/// provider is a pure function of its arguments).
fn mix(seed: u64, stage: u64, round: u64, tag: &str, bound: u64) -> u64 {
    1 + fnv1a64(format!("{seed}:{stage}:{round}:{tag}").as_bytes()) % bound.max(1)
}

/// A provider with tight capacity: demand can reach `requests` units a
/// round against at most ~3 units per seller, so stages end short and
/// the nodes re-sell across platforms.
fn tight_provider(config: ServiceConfig) -> impl FnMut(u64, u64) -> MultiRoundInstance {
    move |stage, rounds| {
        let n = config.microservices.max(1);
        let rounds = rounds.max(1);
        let sellers: Vec<Seller> = (0..n)
            .map(|s| Seller::new(MicroserviceId::new(s), 8, (0, rounds - 1)).expect("window"))
            .collect();
        let inputs: Vec<RoundInput> = (0..rounds)
            .map(|r| {
                let bids: Vec<Bid> = (0..n)
                    .map(|s| {
                        let amount = mix(config.seed, stage, r, &format!("amt{s}"), 3);
                        let price =
                            5.0 + mix(config.seed, stage, r, &format!("px{s}"), 150) as f64 / 10.0;
                        Bid::new(MicroserviceId::new(s), BidId::new(0), amount, price)
                            .expect("valid bid")
                    })
                    .collect();
                let demand = mix(config.seed, stage, r, "demand", config.requests);
                RoundInput::new(demand, demand, bids)
            })
            .collect();
        MultiRoundInstance::new(sellers, inputs).expect("valid instance")
    }
}

fn tight_config(seed: u64, platforms: usize) -> FederationConfig {
    let base = ServiceConfig {
        seed,
        microservices: 4,
        requests: 18,
        total_rounds: 8,
        stage_rounds: 2,
        book_cap: 256,
        demand_cap: 10_000,
    };
    FederationConfig::uniform(base, platforms)
}

/// Runs a library federation and writes its fed log and trace into
/// `dir`, returning the outcome and its records.
fn run_federation(
    dir: &std::path::Path,
    config: FederationConfig,
    plan: NetFaultPlan,
    tag: &str,
) -> (FederationOutcome, Vec<FedEvent>, PathBuf, PathBuf) {
    let collector = Collector::new();
    let mut sim =
        FederationSim::new(config, plan, |_, c| tight_provider(c)).expect("federation sim");
    let outcome = sim.run(Some(&collector)).expect("federation run");
    let log_path = dir.join(format!("fed-{tag}.jsonl"));
    let trace_path = dir.join(format!("trace-{tag}.jsonl"));
    std::fs::write(&log_path, render_fed_log(&sim.header(), sim.records())).expect("write log");
    std::fs::write(&trace_path, collector.deterministic_jsonl()).expect("write trace");
    let events = sim.records().iter().map(|r| r.event.clone()).collect();
    (outcome, events, log_path, trace_path)
}

/// The `deals verified: N/N` tally line, parsed as `(verified, total)`.
fn verified_tally(output: &str) -> (u64, u64) {
    let line = output
        .lines()
        .find(|l| l.starts_with("deals verified: "))
        .unwrap_or_else(|| panic!("no tally line in:\n{output}"));
    let (v, t) = line["deals verified: ".len()..]
        .split_once('/')
        .expect("tally shape");
    (v.parse().expect("verified"), t.parse().expect("total"))
}

#[test]
fn explain_reverifies_every_committed_deal_from_log_and_trace() {
    let dir = temp_dir("explain");
    let (outcome, events, log_path, trace_path) =
        run_federation(&dir, tight_config(9, 3), NetFaultPlan::ideal(1), "ideal");

    let applied: u64 = outcome.nodes.iter().map(|n| n.counters.deals_applied).sum();
    assert!(applied > 0, "config must commit deals: {outcome:?}");

    // The all-deals table re-derives and verifies every committed deal.
    let deals_out = run(parsed(&[
        "explain",
        "--trace",
        log_path.to_str().unwrap(),
        "--deals",
    ]))
    .expect("explain --deals");
    let (verified, total) = verified_tally(&deals_out);
    assert_eq!(
        total, applied,
        "every applied deal is audited:\n{deals_out}"
    );
    assert_eq!(verified, total, "all deals must verify:\n{deals_out}");

    // One committed deal's timeline, from the log and from the trace:
    // identical output, because the trace carries fed_seq provenance.
    let deal = events
        .iter()
        .find_map(|e| match e {
            FedEvent::DealApplied { deal, .. } => Some(deal.to_string()),
            _ => None,
        })
        .expect("an applied deal exists");
    let from_log = run(parsed(&[
        "explain",
        "--trace",
        log_path.to_str().unwrap(),
        "--deal",
        &deal,
    ]))
    .expect("explain --deal on fed log");
    let from_trace = run(parsed(&[
        "explain",
        "--trace",
        trace_path.to_str().unwrap(),
        "--deal",
        &deal,
    ]))
    .expect("explain --deal on trace");
    assert_eq!(
        from_log, from_trace,
        "fed-log and trace reconstructions must agree"
    );
    assert!(from_log.contains(&format!("deal {deal}")), "{from_log}");
    assert!(from_log.contains("Offer sent"), "{from_log}");
    assert!(from_log.contains("re-derived:"), "{from_log}");
    assert!(
        from_log.contains("✓ matches recorded counters"),
        "{from_log}"
    );

    // Unknown deal ids list what the input does cover.
    let err = run(parsed(&[
        "explain",
        "--trace",
        log_path.to_str().unwrap(),
        "--deal",
        "platform#7/99",
    ]))
    .expect_err("unknown deal errors");
    let message = err.to_string();
    assert!(
        message.contains("no events for deal platform#7/99"),
        "{message}"
    );
    assert!(message.contains(&deal), "lists known deals: {message}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn aborted_deal_timeline_names_the_fatal_message() {
    // Harsh network, no retries: one lost message kills a deal.
    let mut config = tight_config(9, 3);
    config.retries_enabled = false;
    let mut plan = NetFaultPlan::ideal(11);
    plan.link.drop_probability = 0.45;
    plan.link.latency_max = 3;
    plan.partitions.push(PartitionWindow {
        from: 3,
        until: 9,
        isolated: 1,
    });

    let dir = temp_dir("abort");
    let (outcome, events, log_path, _) = run_federation(&dir, config, plan, "harsh");
    let aborted = events
        .iter()
        .find_map(|e| match e {
            FedEvent::DealAborted { deal, .. } => Some(deal.to_string()),
            _ => None,
        })
        .unwrap_or_else(|| panic!("harsh plan must abort a deal: {outcome:?}"));

    let out = run(parsed(&[
        "explain",
        "--trace",
        log_path.to_str().unwrap(),
        "--deal",
        &aborted,
    ]))
    .expect("explain aborted deal");
    assert!(out.contains("aborted"), "{out}");
    assert!(
        out.contains("DROPPED in flight") || out.contains("deadline expired"),
        "timeline must name the message the network ate or the deadline \
         that fired:\n{out}"
    );
    // The audit still balances: an aborted deal applied nothing, and
    // every deal that DID commit verifies.
    let (verified, total) = verified_tally(&out);
    assert_eq!(verified, total, "{out}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn explain_on_a_fed_log_without_deal_flags_is_a_guided_error() {
    let dir = temp_dir("guide");
    let (_, _, log_path, _) =
        run_federation(&dir, tight_config(9, 2), NetFaultPlan::ideal(1), "guide");
    let log = log_path.to_str().unwrap();

    for args in [
        vec!["explain", "--trace", log],
        vec!["explain", "--trace", log, "--round", "1"],
        vec!["explain", "--trace", log, "--summary"],
    ] {
        let err = run(parsed(&args)).expect_err("fed log needs --deal/--deals");
        let message = err.to_string();
        assert!(message.contains("--deal"), "{message}");
        assert!(message.contains("replay"), "{message}");
    }

    // And a plain auction trace still refuses deal flags with a clear
    // message instead of an empty table.
    let plain = dir.join("plain.jsonl");
    std::fs::write(
        &plain,
        "{\"seq\":0,\"level\":\"info\",\"span\":\"\",\"event\":\"x\",\"fields\":{}}\n",
    )
    .expect("write plain trace");
    let err = run(parsed(&[
        "explain",
        "--trace",
        plain.to_str().unwrap(),
        "--deals",
    ]))
    .expect_err("no fed events");
    assert!(err.to_string().contains("no fed.* events"), "{err}");

    std::fs::remove_dir_all(&dir).ok();
}
