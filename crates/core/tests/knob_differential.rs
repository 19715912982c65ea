//! Differential suite for the batched critical-value replays: the
//! pricing pool's size and the replay batch size must be
//! **unobservable** in outcomes, payments, provenance, and the
//! deterministic trace.
//!
//! Production auctions size their own pool; these tests pin it through
//! the thread-local `edge_common::fork::pinned` seam, so they hold no
//! lock and run in parallel with each other and with every other suite.

use edge_auction::bid::Bid;
use edge_auction::msoa::{run_msoa, MsoaConfig, MultiRoundInstance, RoundInput};
use edge_auction::recovery::{
    run_msoa_with_faults, FaultInjectionConfig, FaultPlan, RecoveryConfig,
};
use edge_auction::ssam::{run_ssam_traced, SsamConfig, SsamOutcome};
use edge_auction::wsp::WspInstance;
use edge_auction::AuctionError;
use edge_common::fork::pinned;
use edge_common::id::{BidId, MicroserviceId};
use edge_telemetry::{Collector, Trace};
use proptest::prelude::*;

/// Every pinned pool: threads {1, 2, 4} × batch {1 (the per-winner
/// oracle), 2, 64, derived from the pool}.
const POOLS: [(usize, Option<usize>); 12] = [
    (1, Some(1)),
    (1, Some(2)),
    (1, Some(64)),
    (1, None),
    (2, Some(1)),
    (2, Some(2)),
    (2, Some(64)),
    (2, None),
    (4, Some(1)),
    (4, Some(2)),
    (4, Some(64)),
    (4, None),
];

/// Single-round instances with the messy inputs the mechanism accepts:
/// colliding integer prices (tie-breaks), multiple alternative bids per
/// seller, demand anywhere up to the supply.
fn arb_instance() -> impl Strategy<Value = WspInstance> {
    proptest::collection::vec(proptest::collection::vec((1u64..12, 0u32..25), 1..5), 2..12)
        .prop_flat_map(|groups| {
            let supply: u64 = groups
                .iter()
                .map(|g| g.iter().map(|(a, _)| *a).max().unwrap_or(0))
                .sum();
            (Just(groups), 1u64..=supply.max(1))
        })
        .prop_filter_map("supply must cover demand", |(groups, demand)| {
            let bids: Vec<Bid> = groups
                .iter()
                .enumerate()
                .flat_map(|(s, g)| {
                    g.iter().enumerate().map(move |(j, (amount, price))| {
                        Bid::new(
                            MicroserviceId::new(s),
                            BidId::new(j),
                            *amount,
                            f64::from(*price),
                        )
                        .unwrap()
                    })
                })
                .collect();
            WspInstance::new(demand, bids).ok()
        })
}

fn arb_config() -> impl Strategy<Value = SsamConfig> {
    (0u32..3, 1u32..60).prop_map(|(kind, r)| SsamConfig {
        reserve_unit_price: match kind {
            0 => None,
            1 => Some(f64::from(r)),
            _ => Some(f64::from(r) + 1_000.0),
        },
    })
}

/// Runs SSAM on the current thread's pool, returning the outcome and
/// the *full* deterministic trace. Engine diagnostics (pop and discard
/// counters, lane-head reads) live in the profile section; everything in
/// the deterministic section — selections, payments, `CriticalSource`
/// provenance, the certificate, and the `ssam.stats` counters — must be
/// byte-identical on every pool.
fn traced_run(
    inst: &WspInstance,
    config: &SsamConfig,
) -> (Result<SsamOutcome, AuctionError>, String) {
    let collector = Collector::new();
    let outcome = run_ssam_traced(inst, config, Trace::new(&collector));
    (outcome, collector.deterministic_jsonl())
}

fn assert_equivalent(
    label: &str,
    base: &(Result<SsamOutcome, AuctionError>, String),
    other: &(Result<SsamOutcome, AuctionError>, String),
) -> Result<(), String> {
    match (&base.0, &other.0) {
        (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "outcome diverged: {}", label),
        (Err(a), Err(b)) => {
            prop_assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "error diverged: {}",
                label
            )
        }
        (a, b) => return Err(format!("divergent feasibility ({label}): {a:?} vs {b:?}")),
    }
    prop_assert_eq!(&base.1, &other.1, "trace diverged: {}", label);
    Ok(())
}

/// Multi-round instances for the fault-plan replays.
fn arb_multi_round() -> impl Strategy<Value = MultiRoundInstance> {
    use edge_auction::bid::Seller;
    proptest::collection::vec((2u64..12, 0u64..4, 2u64..8), 2..7)
        .prop_flat_map(|sellers| {
            let n = sellers.len();
            (
                Just(sellers),
                proptest::collection::vec(
                    proptest::collection::vec((1u64..6, 0u32..20), n..=n),
                    1..4,
                ),
            )
        })
        .prop_filter_map("rounds must be feasible", |(raw_sellers, raw_rounds)| {
            let sellers: Vec<Seller> = raw_sellers
                .iter()
                .enumerate()
                .map(|(i, (cap, lo, span))| {
                    Seller::new(MicroserviceId::new(i), *cap, (*lo, lo + span)).unwrap()
                })
                .collect();
            let rounds: Vec<RoundInput> = raw_rounds
                .iter()
                .map(|bids| {
                    let bids: Vec<Bid> = bids
                        .iter()
                        .enumerate()
                        .map(|(s, (amount, price))| {
                            Bid::new(
                                MicroserviceId::new(s),
                                BidId::new(0),
                                *amount,
                                f64::from(*price) + 1.0,
                            )
                            .unwrap()
                        })
                        .collect();
                    let supply: u64 = bids.iter().map(|b| b.amount).sum();
                    RoundInput::new((supply / 2).max(1), (supply / 2).max(1), bids)
                })
                .collect();
            MultiRoundInstance::new(sellers, rounds).ok()
        })
}

fn hot_faults() -> FaultInjectionConfig {
    FaultInjectionConfig {
        default_probability: 0.3,
        crash_probability: 0.1,
        dropout_probability: 0.2,
        ..FaultInjectionConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Batched critical-value replays ≡ the per-winner oracle (one
    /// thread, batch 1), on every pinned pool and on the pool the
    /// auction sizes itself.
    #[test]
    fn replay_batch_size_is_unobservable((inst, config) in (arb_instance(), arb_config())) {
        let oracle = pinned(1, Some(1), || traced_run(&inst, &config));
        for (threads, batch) in POOLS {
            let batched = pinned(threads, batch, || traced_run(&inst, &config));
            assert_equivalent(
                &format!("threads={threads} batch={batch:?} vs per-winner"),
                &oracle,
                &batched,
            )?;
        }
        assert_equivalent("self-sized pool vs per-winner", &oracle, &traced_run(&inst, &config))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The pool stays unobservable under non-empty fault plans: the
    /// recovery pipeline (clawback, blacklisting, backfill re-auctions)
    /// replays auctions internally, and every one of those nested runs
    /// must batch and thread identically too.
    #[test]
    fn pools_are_unobservable_under_faults(
        (instance, seed) in (arb_multi_round(), 0u64..256)
    ) {
        let plan = FaultPlan::seeded(
            seed,
            instance.num_rounds(),
            instance.sellers().len(),
            &hot_faults(),
        );
        let config = MsoaConfig::pinned(instance.derive_alpha());
        let run = || run_msoa_with_faults(&instance, &config, &plan, &RecoveryConfig::default())
            .unwrap();
        let base = pinned(1, Some(1), run);
        for (threads, batch) in POOLS {
            let out = pinned(threads, batch, run);
            prop_assert_eq!(&out, &base, "diverged at threads={} batch={:?}", threads, batch);
        }
    }

    /// Plain MSOA (the scale benchmark's exact entry point) is also
    /// pool-invariant — this is the property the committed
    /// `BENCH_scale.json` digests rest on.
    #[test]
    fn msoa_outcome_is_pool_invariant(instance in arb_multi_round()) {
        let config = MsoaConfig::pinned(instance.derive_alpha());
        let run = || run_msoa(&instance, &config).unwrap();
        let base = pinned(1, Some(1), run);
        prop_assert_eq!(&run(), &base, "diverged on the self-sized pool");
        for (threads, batch) in POOLS {
            let out = pinned(threads, batch, run);
            prop_assert_eq!(&out, &base, "diverged at threads={} batch={:?}", threads, batch);
        }
    }
}

/// The pool a tiny auction chose, read from its `pool_threads` diag.
fn tiny_auction_pool() -> u64 {
    let bids: Vec<Bid> = (0..6)
        .map(|s| Bid::new(MicroserviceId::new(s), BidId::new(0), 2, 3.0 + s as f64).unwrap())
        .collect();
    let inst = WspInstance::new(5, bids).unwrap();
    let (_, tree) = edge_telemetry::spans::collect(|| {
        edge_auction::ssam::run_ssam(&inst, &SsamConfig::default()).unwrap()
    });
    tree.views()
        .iter()
        .flat_map(|v| v.diag.iter())
        .find(|&&(key, _)| key == "pool_threads")
        .map(|&(_, threads)| threads)
        .expect("the payment phase records its pool")
}

/// Nothing carries from one auction's pool decision to the next: a tiny
/// auction picks the same pool in a fresh thread as right after a
/// 20k-seller auction on this one.
#[test]
fn the_pool_decision_carries_nothing_across_auctions() {
    let bids: Vec<Bid> = (0..20_000)
        .map(|s| {
            let amount = 1 + (s as u64 * 7) % 8;
            let price = 10.0 + ((s * 7919) % 1000) as f64 / 10.0;
            Bid::new(MicroserviceId::new(s), BidId::new(0), amount, price).unwrap()
        })
        .collect();
    let large = WspInstance::new(2_000, bids).unwrap();
    let fresh = std::thread::spawn(tiny_auction_pool).join().unwrap();
    edge_auction::ssam::run_ssam(&large, &SsamConfig::default()).unwrap();
    assert_eq!(tiny_auction_pool(), fresh);
    assert_eq!(fresh, 1, "a tiny auction never spawns");
}
