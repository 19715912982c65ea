//! The `edge_pricing_*` families count each round's own payment
//! replays, so two auctions running at once on two threads never count
//! each other's work. This test is alone in its binary: nothing else in
//! the process writes to the registry while it reads it.

use edge_auction::bid::{Bid, Seller};
use edge_auction::msoa::{run_msoa, MsoaConfig, MsoaOutcome, MultiRoundInstance, RoundInput};
use edge_common::id::{BidId, MicroserviceId};
use edge_common::rng::derive_rng;
use edge_telemetry::registry::{global, parse_exposition};
use rand::Rng;
use std::sync::Barrier;

const SELLERS: usize = 3_000;
const ROUNDS: u64 = 6;

/// A seeded market where a few hundred sellers win every round.
fn instance(seed: u64) -> MultiRoundInstance {
    let mut rng = derive_rng(seed, "pricing-live-exact");
    let sellers: Vec<Seller> = (0..SELLERS)
        .map(|s| Seller::new(MicroserviceId::new(s), 40, (0, ROUNDS - 1)).expect("valid window"))
        .collect();
    let rounds = (0..ROUNDS)
        .map(|_| {
            let bids: Vec<Bid> = (0..SELLERS)
                .map(|s| {
                    let amount = rng.gen_range(1..=4u64);
                    let price = rng.gen_range(5.0..20.0);
                    Bid::new(MicroserviceId::new(s), BidId::new(0), amount, price)
                        .expect("valid bid")
                })
                .collect();
            let demand = rng.gen_range(300..=500u64);
            RoundInput::new(demand, demand, bids)
        })
        .collect();
    MultiRoundInstance::new(sellers, rounds).expect("valid instance")
}

/// `(replays_total, replays_per_round sum, replays_per_round count)` as
/// a `/metrics` scrape shows them.
fn scrape() -> (f64, f64, f64) {
    let exposition = parse_exposition(&global().render()).expect("the registry renders validly");
    let read = |name: &str| exposition.sample(name, &[]).unwrap_or(0.0);
    (
        read("edge_pricing_replays_total"),
        read("edge_pricing_replays_per_round_sum"),
        read("edge_pricing_replays_per_round_count"),
    )
}

fn winners(outcome: &MsoaOutcome) -> usize {
    outcome.rounds.iter().map(|r| r.winners.len()).sum()
}

#[test]
fn concurrent_auctions_count_exactly_their_own_replays() {
    let instances = [instance(1), instance(2)];
    let before = scrape();
    let start = Barrier::new(instances.len());
    let outcomes: Vec<MsoaOutcome> = std::thread::scope(|scope| {
        let runs: Vec<_> = instances
            .iter()
            .map(|inst| {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    run_msoa(inst, &MsoaConfig::pinned(2.0)).expect("feasible instance")
                })
            })
            .collect();
        runs.into_iter()
            .map(|run| run.join().expect("auction thread"))
            .collect()
    });
    let after = scrape();

    let won = outcomes.iter().map(winners).sum::<usize>() as f64;
    assert!(won > 0.0, "the instances must produce winners");
    assert_eq!(
        after.0 - before.0,
        won,
        "edge_pricing_replays_total counts one replay per winner"
    );
    assert_eq!(
        after.1 - before.1,
        won,
        "edge_pricing_replays_per_round sums to one replay per winner"
    );
    assert_eq!(
        after.2 - before.2,
        (2 * ROUNDS) as f64,
        "one observation per round"
    );
}
