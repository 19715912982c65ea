//! `federation-lossy`: many short seeded `FederationSim` runs over a
//! lossy, duplicating, reordering network with one partition window —
//! the deal protocol, the `edge-net` substrate and hundreds of tiny
//! service stages per run.

use crate::host::{Host, Op};
use crate::layers;
use crate::stats::{median, tail_quantile};
use crate::{Opts, Outcome, DEFAULT_SEED};
use edge_auction::federation::{FederationConfig, FederationOutcome, FederationSim};
use edge_auction::service::ServiceConfig;
use edge_bench::federation::tight_provider;
use edge_net::{NetFaultPlan, PartitionWindow};
use std::time::{Duration, Instant};

/// Timed set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Rounds per service stage on every platform.
const STAGE_ROUNDS: u64 = 2;

#[derive(Debug, Clone, Copy)]
pub struct FedConfig {
    pub platforms: usize,
    pub sellers: usize,
    /// Upper bound of each round's uniformly drawn demand.
    pub requests: u64,
    pub rounds: u64,
    /// Runs measured at least, whatever `--seconds` says.
    pub min_runs: usize,
    /// Fed-log digest of run 0 under [`DEFAULT_SEED`], checked on every
    /// run.
    pub canary: Option<&'static str>,
}

pub fn full() -> FedConfig {
    FedConfig {
        platforms: 6,
        sellers: 16,
        requests: 48,
        rounds: 120,
        min_runs: 200,
        canary: Some("dec606abe9fbb90f"),
    }
}

/// Run `index` of the workload under `seed`: its own service seeds,
/// net-fault draws and isolated platform.
fn run_once(cfg: &FedConfig, seed: u64, index: u64) -> (FederationOutcome, usize) {
    let run_seed = seed.wrapping_mul(1_000_003).wrapping_add(index);
    let base = ServiceConfig {
        seed: run_seed,
        microservices: cfg.sellers,
        requests: cfg.requests,
        total_rounds: cfg.rounds,
        stage_rounds: STAGE_ROUNDS,
        book_cap: 256,
        demand_cap: 100_000,
    };
    let config = FederationConfig::uniform(base, cfg.platforms);
    let mut plan = NetFaultPlan::ideal(run_seed ^ 0x006e_6574);
    plan.link.latency_min = 1;
    plan.link.latency_max = 3;
    plan.link.drop_probability = 0.1;
    plan.link.duplicate_probability = 0.05;
    plan.link.reorder_probability = 0.1;
    plan.link.reorder_max_extra = 2;
    let ticks = cfg.rounds * config.round_ticks;
    plan.partitions.push(PartitionWindow {
        from: ticks / 4,
        until: ticks / 2,
        isolated: (index % cfg.platforms as u64) as usize,
    });
    let mut sim = FederationSim::new(config, plan, |_, c| {
        layers::spanned_provider(tight_provider(c))
    })
    .expect("the federation is valid");
    let outcome = sim.run(None).expect("the federation settles");
    (outcome, sim.records().len())
}

/// Every platform must close its whole horizon, and no platform may
/// fill more deals than it opened.
fn check(cfg: &FedConfig, outcome: &FederationOutcome) -> Result<(), String> {
    for node in &outcome.nodes {
        if node.rounds != cfg.rounds {
            return Err(format!(
                "platform {} closed {} of {} rounds",
                node.node, node.rounds, cfg.rounds
            ));
        }
        if node.counters.deals_filled > node.counters.deals_opened {
            return Err(format!("platform {} filled unopened deals", node.node));
        }
    }
    Ok(())
}

pub fn run(opts: &Opts, cfg: &FedConfig) -> Outcome {
    let mut out = Outcome::default();
    let mut host = Host::new();

    let mut setups = Vec::new();
    for _ in 0..SETUPS {
        let (_, t) = host.time(|| run_once(cfg, opts.seed, 0));
        setups.push(t.scaled_ms / 1e3);
    }
    out.set("setup_s", median(&setups));

    let (canary, _) = run_once(cfg, DEFAULT_SEED, 0);
    out.digest("canary", &canary.fed_digest, cfg.canary);

    let mut ops = Vec::new();
    let (mut records, mut delivered, mut dropped) = (Vec::new(), Vec::new(), Vec::new());
    let (mut opened, mut filled, mut digest) = (0u64, 0u64, Vec::new());
    let start = Instant::now();
    let budget = Duration::from_secs(opts.seconds);
    while host.more(&ops, cfg.min_runs, start, budget) {
        let index = ops.len() as u64 + 1;
        let traced = opts.trace && index.is_multiple_of(2);
        let (((outcome, n_records), timing), sample) = if traced {
            let (r, s) = layers::traced(|| host.time(|| run_once(cfg, opts.seed, index)));
            (r, Some(s))
        } else {
            (host.time(|| run_once(cfg, opts.seed, index)), None)
        };
        out.attempted += 1;
        if let Err(problem) = check(cfg, &outcome) {
            out.fail(format!("run {index}: {problem}"));
        }
        if ops.len() < cfg.min_runs {
            digest.extend_from_slice(outcome.fed_digest.as_bytes());
        }
        records.push(n_records as f64);
        delivered.push(outcome.net.delivered as f64);
        dropped.push((outcome.net.dropped_loss + outcome.net.dropped_partition) as f64);
        for node in &outcome.nodes {
            opened += node.counters.deals_opened;
            filled += node.counters.deals_filled;
        }
        ops.push(Op {
            timing,
            work: outcome.nodes.iter().map(|n| n.rounds).sum::<u64>() as f64,
            sample,
        });
    }
    out.digest(
        "digest",
        &format!("{:016x}", edge_auction::service::fnv1a64(&digest)),
        None,
    );
    out.note(format!("{opened} deals opened, {filled} filled"));
    host.summarize(&mut out, &ops, tail_quantile(cfg.min_runs));
    if opts.trace {
        out.set("fed_records", median(&records));
        out.set("net_delivered", median(&delivered));
        out.set("net_dropped", median(&dropped));
        out.set(
            "deal_fill_ratio",
            if opened > 0 {
                filled as f64 / opened as f64
            } else {
                0.0
            },
        );
        out.bypass(crate::SERVICE_METRICS);
    }
    out
}
