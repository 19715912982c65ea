//! `edge-market federate` — run a multi-platform federation over the
//! deterministic network substrate.
//!
//! `--platforms K` platforms each wrap the same event-sourced
//! [`AuctionService`](edge_auction::service::AuctionService) the `serve`
//! daemon drives (node `k` reseeded as `seed + k·7919`, node 0
//! unchanged), connected by an in-process [`edge_net`] network whose
//! faults come from a seeded `--net-faults` plan. Platforms gossip
//! surplus and prices after every stage and re-sell spare capacity
//! through a two-phase offer/commit protocol with deterministic
//! timeouts and bounded retries; a partitioned platform degrades to
//! local-only clearing and reconciles on heal.
//!
//! Every message send, drop, timeout, and deal transition is folded
//! into a digest-chained federation event log (`--fed-log`); `replay`
//! re-runs the whole federation from that log's header and verifies
//! record-for-record equality — at any pricing pool size.
//! With `--platforms 1` and no net-fault plan, the run is bit-identical
//! to the single-platform serve loop: same provider, same seed, same
//! state digest.

use crate::args::{ArgsError, ParsedArgs};
use crate::commands::CliError;
use edge_auction::federation::{
    render_fed_log, FederationConfig, FederationOutcome, FederationSim,
};
use edge_auction::service::ServiceConfig;
use edge_net::NetFaultPlan;
use edge_telemetry::Collector;
use std::fmt::Write as _;
use std::fs;

/// Flags the `federate` command accepts.
pub const FEDERATE_FLAGS: &[&str] = &[
    "platforms",
    "net-faults",
    "seed",
    "microservices",
    "requests",
    "rounds",
    "stage-rounds",
    "book-cap",
    "demand-cap",
    "round-ticks",
    "offer-timeout",
    "max-retries",
    "retries",
    "fed-log",
    "trace",
    "spans",
];

/// Builds the [`FederationConfig`] from parsed flags. Node 0 keeps the
/// base seed so a 1-platform federation matches the serve loop exactly.
fn federation_config(args: &ParsedArgs) -> Result<(FederationConfig, usize), CliError> {
    let platforms = args.get_or("platforms", 2usize)?.max(1);
    let base = ServiceConfig {
        seed: args.get_or("seed", 42u64)?,
        microservices: args.get_or("microservices", 25usize)?,
        requests: args.get_or("requests", 100u64)?,
        total_rounds: args.get_or("rounds", 10u64)?.max(1),
        stage_rounds: args.get_or("stage-rounds", 5u64)?.max(1),
        book_cap: args.get_or("book-cap", 4096usize)?,
        demand_cap: args.get_or("demand-cap", 1_000_000u64)?,
    };
    let mut config = FederationConfig::uniform(base, platforms);
    config.round_ticks = args.get_or("round-ticks", config.round_ticks)?;
    config.offer_timeout = args.get_or("offer-timeout", config.offer_timeout)?;
    config.max_retries = args.get_or("max-retries", config.max_retries)?;
    config.retries_enabled = match args.get("retries").unwrap_or("on") {
        "on" => true,
        "off" => false,
        other => {
            return Err(ArgsError::InvalidValue {
                flag: "retries".into(),
                value: other.to_owned(),
            }
            .into())
        }
    };
    Ok((config, platforms))
}

/// Renders the human-readable run summary shared by `federate` and the
/// federation arm of `replay`.
pub fn render_outcome(outcome: &FederationOutcome) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "federation settled after {} ticks: {} platforms",
        outcome.ticks,
        outcome.nodes.len()
    );
    for n in &outcome.nodes {
        let _ = writeln!(
            out,
            "  platform {}: {} stages, {} rounds, deficit {}u, filled {}u \
             (late {}), resold {}u, local-only stages {}, state {}",
            n.node,
            n.stages,
            n.rounds,
            n.counters.deficit_units,
            n.counters.filled_units,
            n.counters.late_fills,
            n.counters.resold_units,
            n.counters.local_only_stages,
            n.state_digest,
        );
    }
    let _ = writeln!(
        out,
        "network: {} sent, {} delivered, {} dropped (loss {}, partition {}), \
         {} duplicated, {} reordered",
        outcome.net.sent,
        outcome.net.delivered,
        outcome.net.dropped_loss + outcome.net.dropped_partition,
        outcome.net.dropped_loss,
        outcome.net.dropped_partition,
        outcome.net.duplicated,
        outcome.net.reordered,
    );
    let _ = writeln!(
        out,
        "cross-platform fill rate: {:.3}, platform cost: {:.3}",
        outcome.fill_rate(),
        outcome.platform_cost()
    );
    let _ = writeln!(out, "fed digest: {}", outcome.fed_digest);
    let _ = writeln!(out, "net digest: {}", outcome.net_digest);
    let _ = writeln!(out, "outcome digest: {}", outcome.digest_hex());
    out
}

/// Runs `federate`: build the federation, drive it to settlement, and
/// report per-platform outcomes plus the chained digests. See the
/// module docs for the determinism contract.
pub fn federate(args: &ParsedArgs) -> Result<String, CliError> {
    args.allow_only(FEDERATE_FLAGS)?;
    let (config, platforms) = federation_config(args)?;
    let plan = match args.get("net-faults") {
        Some(path) => crate::netfaults::parse_net_fault_plan(
            &fs::read_to_string(path)?,
            config.nodes[0].seed,
            platforms,
        )?,
        None => NetFaultPlan::ideal(config.nodes[0].seed),
    };

    edge_auction::live::preregister();
    edge_net::preregister();
    edge_auction::federation::preregister_federation_metrics();
    edge_telemetry::spans::preregister();
    edge_telemetry::spans::set_live(true);
    let spans_on = crate::commands::on_off_flag(args, "spans", false)?;
    if spans_on {
        edge_telemetry::spans::install();
    }

    let collector = args.get("trace").map(|_| Collector::new());
    let mut sim = FederationSim::new(config, plan, |_, c| crate::serve::stage_provider(c))
        .map_err(|e| CliError::Federation(e.to_string()))?;
    let run_result = sim.run(collector.as_ref());
    if spans_on {
        let tree = edge_telemetry::spans::uninstall();
        if let (Some(tree), Some(collector)) = (tree, collector.as_ref()) {
            tree.flush_into(collector);
        }
    }
    edge_telemetry::spans::set_live(false);
    let outcome = run_result.map_err(|e| CliError::Federation(e.to_string()))?;

    let mut out = render_outcome(&outcome);
    if let Some(path) = args.get("fed-log") {
        let rendered = render_fed_log(&sim.header(), sim.records());
        fs::write(path, rendered)?;
        let _ = writeln!(out, "fed log: {} records → {path}", sim.records().len());
    }
    if let (Some(path), Some(collector)) = (args.get("trace"), collector) {
        fs::write(path, collector.deterministic_jsonl())?;
        let _ = writeln!(out, "trace: {} events → {path}", collector.len());
    }
    Ok(out)
}
