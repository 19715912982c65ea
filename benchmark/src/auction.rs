//! `auction-steady` and `auction-pricing`: stage clears through the
//! public engine entry points, `MultiRoundInstance::new` then
//! `run_msoa` with α pinned at 2 — what a service stage pays when it
//! closes.

use crate::gen::{Market, MarketShape};
use crate::host::{Host, Op};
use crate::layers;
use crate::stats::{median, tail_quantile};
use crate::{Opts, Outcome, DEFAULT_SEED};
use edge_auction::bid::Seller;
use edge_auction::msoa::{run_msoa, MsoaConfig, MsoaOutcome, MultiRoundInstance, RoundInput};
use edge_auction::service::fnv1a64;
use edge_telemetry::spans;
use std::time::{Duration, Instant};

/// Timed set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

#[derive(Debug, Clone, Copy)]
pub struct AuctionConfig {
    pub shape: MarketShape,
    /// Stages measured at least, whatever `--seconds` says, so the tail
    /// percentile keeps ten samples beyond it.
    pub min_stages: usize,
    /// Digest of the stage cleared with [`DEFAULT_SEED`], checked on
    /// every run.
    pub canary: Option<&'static str>,
}

/// 100k sellers, 1% churn: selection-heavy (round bookkeeping, patch,
/// arena build), with a working set larger than L2.
pub fn steady() -> AuctionConfig {
    AuctionConfig {
        shape: MarketShape {
            sellers: 100_000,
            capacity: 64,
            demand: 512,
            rounds_per_stage: 4,
            churn: 0.01,
        },
        min_stages: 40,
        canary: Some("5f2f113d272eae11"),
    }
}

/// 20k sellers that all redraw every round, tight capacity and high
/// demand: thousands of winners per stage, so payment replays dominate.
pub fn pricing() -> AuctionConfig {
    AuctionConfig {
        shape: MarketShape {
            sellers: 20_000,
            capacity: 8,
            demand: 2000,
            rounds_per_stage: 5,
            churn: 1.0,
        },
        // More stages than `auction-steady`: pricing is the more
        // host-sensitive of the two, and its stages are shorter.
        min_stages: 60,
        canary: Some("6484818d65547e1f"),
    }
}

/// One clear; the instance is returned so that dropping it stays
/// outside the timing.
fn clear(sellers: Vec<Seller>, rounds: Vec<RoundInput>) -> (MultiRoundInstance, MsoaOutcome) {
    let _clear = spans::enter("bench.clear");
    let instance = {
        let _span = spans::enter("instance.new");
        crate::gen::instance(sellers, rounds)
    };
    let outcome = {
        let _span = spans::enter("run_msoa");
        run_msoa(&instance, &MsoaConfig::pinned(2.0)).expect("generated stages clear")
    };
    (instance, outcome)
}

/// Checks one stage's outcome: every winner is paid at least its asking
/// price, no seller yields more than Θ, and every round is either
/// covered exactly or recorded as shortfall. Returns the shortfall
/// rounds.
pub fn check(instance: &MultiRoundInstance, outcome: &MsoaOutcome) -> Result<u64, String> {
    for (seller, &chi) in instance.sellers().iter().zip(&outcome.chi) {
        if chi > seller.capacity {
            return Err(format!(
                "seller {} yields {chi} > Θ {}",
                seller.id.index(),
                seller.capacity
            ));
        }
    }
    let mut shortfall = 0;
    for round in &outcome.rounds {
        if round.infeasible {
            if !round.winners.is_empty() {
                return Err(format!("shortfall round {} has winners", round.round));
            }
            shortfall += 1;
            continue;
        }
        let covered: u64 = round.winners.iter().map(|w| w.contribution).sum();
        if covered != round.demand {
            return Err(format!(
                "round {} covers {covered} of {}",
                round.round, round.demand
            ));
        }
        for w in &round.winners {
            let (pay, scaled, ask) = (
                w.payment.value(),
                w.scaled_price.value(),
                w.true_price.value(),
            );
            if pay < scaled * (1.0 - 1e-12) || scaled < ask * (1.0 - 1e-12) {
                return Err(format!(
                    "round {} seller {} paid {pay} for scaled {scaled} / ask {ask}",
                    round.round,
                    w.seller.index()
                ));
            }
        }
    }
    Ok(shortfall)
}

/// FNV-1a over every winner of a stage: seller, bid, contribution and
/// payment bits, round by round.
pub fn digest(outcome: &MsoaOutcome) -> u64 {
    let mut bytes = Vec::new();
    for round in &outcome.rounds {
        bytes.extend_from_slice(&round.round.to_le_bytes());
        for w in &round.winners {
            for v in [
                w.seller.index() as u64,
                w.bid.index() as u64,
                w.contribution,
                w.payment.value().to_bits(),
            ] {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
        }
    }
    fnv1a64(&bytes)
}

pub fn run(opts: &Opts, cfg: &AuctionConfig) -> Outcome {
    let mut out = Outcome::default();
    let mut host = Host::new();

    let mut setups = Vec::new();
    let mut market = None;
    for _ in 0..SETUPS {
        let (m, t) = host.time(|| {
            let mut m = Market::new(cfg.shape, opts.seed);
            let (sellers, rounds) = m.next_stage();
            drop(clear(sellers, rounds));
            m
        });
        setups.push(t.scaled_ms / 1e3);
        market = Some(m);
    }
    let mut market = market.expect("at least one set-up ran");
    out.set("setup_s", median(&setups));

    let mut canary = Market::new(cfg.shape, DEFAULT_SEED);
    let (sellers, rounds) = canary.next_stage();
    let (_, outcome) = clear(sellers, rounds);
    out.digest("canary", &format!("{:016x}", digest(&outcome)), cfg.canary);

    let mut ops = Vec::new();
    let (mut shortfall, mut prefix) = (0u64, Vec::new());
    let start = Instant::now();
    let budget = Duration::from_secs(opts.seconds);
    while host.more(&ops, cfg.min_stages, start, budget) {
        let (sellers, rounds) = market.next_stage();
        let bids = rounds.iter().map(|r| r.bids.len()).sum::<usize>() as f64;
        // A traced run alternates traced and untraced stages, so the
        // tracing overhead compares stages of the same run.
        let traced = opts.trace && ops.len() % 2 == 1;
        let (((instance, outcome), timing), sample) = if traced {
            let (r, s) = layers::traced(|| host.time(|| clear(sellers, rounds)));
            (r, Some(s))
        } else {
            (host.time(|| clear(sellers, rounds)), None)
        };
        out.attempted += 1;
        match check(&instance, &outcome) {
            Ok(rounds_short) => shortfall += rounds_short,
            Err(problem) => out.fail(problem),
        }
        if ops.len() < cfg.min_stages {
            prefix.extend_from_slice(&digest(&outcome).to_le_bytes());
        }
        ops.push(Op {
            timing,
            work: bids,
            sample,
        });
    }
    out.digest("digest", &format!("{:016x}", fnv1a64(&prefix)), None);
    out.note(format!("{shortfall} shortfall rounds"));
    host.summarize(&mut out, &ops, tail_quantile(cfg.min_stages));
    if opts.trace {
        out.bypass(crate::SERVICE_METRICS);
        out.bypass(crate::FEDERATION_METRICS);
    }
    out
}
