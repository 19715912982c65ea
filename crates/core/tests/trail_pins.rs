//! Audit-trail pins: the deterministic trace sections of one seeded
//! plain MSOA run and one seeded faulty run are hashed and compared with
//! digests recorded from a known-good build.
//!
//! The determinism suites compare traces across knobs and between live
//! and replay runs, which a refactor that reorders or reshapes emission
//! would pass. These pins catch it: any change to an event's name, field
//! set, field value, or position changes a digest. A deliberate change to
//! the trail must update the constants here and say why.

use edge_auction::bid::{Bid, Seller};
use edge_auction::msoa::{run_msoa_traced, MsoaConfig, MultiRoundInstance, RoundInput};
use edge_auction::recovery::{
    run_msoa_with_faults_traced, FaultInjectionConfig, FaultPlan, RecoveryConfig,
};
use edge_auction::service::fnv1a64;
use edge_common::id::{BidId, MicroserviceId};
use edge_common::rng::derive_rng;
use edge_telemetry::{Collector, Trace};
use rand::Rng;

const SELLERS: usize = 12;
const ROUNDS: u64 = 6;

/// Twelve sellers over six rounds: staggered windows, capacities tight
/// enough to exclude bids mid-run, one to three redrawn bids per seller
/// and round, and demands that leave some rounds uncoverable.
fn seeded_instance() -> MultiRoundInstance {
    let mut rng = derive_rng(2019, "trail-pin");
    let sellers: Vec<Seller> = (0..SELLERS)
        .map(|s| {
            let from = rng.gen_range(0..3u64);
            let until = (from + rng.gen_range(2..ROUNDS)).min(ROUNDS - 1);
            let capacity = rng.gen_range(4..16u64);
            Seller::new(MicroserviceId::new(s), capacity, (from, until)).unwrap()
        })
        .collect();
    let rounds = (0..ROUNDS)
        .map(|_| {
            let mut bids = Vec::new();
            for s in 0..SELLERS {
                for j in 0..rng.gen_range(1..4usize) {
                    let amount = rng.gen_range(1..7u64);
                    let price = f64::from(rng.gen_range(2..40u32)) * 0.25 * amount as f64;
                    let seller = MicroserviceId::new(s);
                    bids.push(Bid::new(seller, BidId::new(j), amount, price).unwrap());
                }
            }
            let demand = rng.gen_range(6..26u64);
            RoundInput::new(demand, demand, bids)
        })
        .collect();
    MultiRoundInstance::new(sellers, rounds).unwrap()
}

fn digest(collector: &Collector) -> u64 {
    fnv1a64(collector.deterministic_jsonl().as_bytes())
}

/// The run excludes bids for window and capacity, scales the rest by ψ,
/// and settles winners.
#[test]
fn plain_msoa_trail_is_pinned() {
    let collector = Collector::new();
    let config = MsoaConfig::pinned(2.0);
    run_msoa_traced(&seeded_instance(), &config, Trace::new(&collector)).unwrap();
    assert_eq!(digest(&collector), 0xfc01_2f2d_fd0a_10d2);
}

/// On top of the plain run's events, the plan crashes sellers and makes
/// winners default, so the trail records crash exclusions, ρ-penalised
/// prices, clawbacks, reliability updates and backfill rungs.
#[test]
fn faulty_msoa_trail_is_pinned() {
    let rates = FaultInjectionConfig {
        default_probability: 0.25,
        crash_probability: 0.1,
        ..FaultInjectionConfig::default()
    };
    let plan = FaultPlan::seeded(7, ROUNDS, SELLERS, &rates);
    let collector = Collector::new();
    let (config, recovery) = (MsoaConfig::pinned(2.0), RecoveryConfig::default());
    let trace = Trace::new(&collector);
    run_msoa_with_faults_traced(&seeded_instance(), &config, &plan, &recovery, trace).unwrap();
    assert_eq!(digest(&collector), 0xa259_2407_641d_f049);
}
