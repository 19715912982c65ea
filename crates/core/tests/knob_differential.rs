//! Differential suite for the batched critical-value replays: every
//! performance knob — the replay batch size and the pricing thread
//! count — must be **unobservable** in outcomes, payments, provenance,
//! and the deterministic trace.
//!
//! The knobs are process-global (like the pricing-thread pool), so
//! every test here holds one mutex and restores the defaults before
//! releasing it; proptest shrinking then never observes a half-toggled
//! process.

use edge_auction::bid::Bid;
use edge_auction::msoa::{run_msoa, MsoaConfig, MultiRoundInstance, RoundInput};
use edge_auction::recovery::{
    run_msoa_with_faults, FaultInjectionConfig, FaultPlan, RecoveryConfig,
};
use edge_auction::ssam::{run_ssam_traced, SsamConfig, SsamOutcome};
use edge_auction::wsp::WspInstance;
use edge_auction::{set_pricing_threads, set_replay_batch, AuctionError};
use edge_common::id::{BidId, MicroserviceId};
use edge_telemetry::{Collector, Trace};
use proptest::prelude::*;

/// Serializes knob toggling across the whole test binary; the guard
/// restores every default on drop so a failing assertion (or shrink
/// iteration) cannot leak a non-default configuration into other tests.
static KNOB_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

struct KnobGuard<'a>(#[allow(dead_code)] std::sync::MutexGuard<'a, ()>);

impl KnobGuard<'_> {
    fn acquire() -> Self {
        KnobGuard(KNOB_LOCK.lock().unwrap())
    }
}

impl Drop for KnobGuard<'_> {
    fn drop(&mut self) {
        set_replay_batch(0);
        set_pricing_threads(1);
    }
}

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

/// Runs SSAM under the current knob settings, returning the outcome and
/// the *full* deterministic trace. Engine diagnostics (pop and discard
/// counters, lane-head reads) live in the profile section; everything in
/// the deterministic section — selections, payments, `CriticalSource`
/// provenance, the certificate, and the `ssam.stats` counters — must be
/// byte-identical across knobs.
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

    /// Batched critical-value replays ≡ the per-winner oracle
    /// (`replay_batch = 1`), across batch sizes and thread counts.
    #[test]
    fn replay_batch_size_is_unobservable((inst, config) in (arb_instance(), arb_config())) {
        let _guard = KnobGuard::acquire();
        set_replay_batch(1); // the per-winner oracle
        let oracle = traced_run(&inst, &config);
        for (batch, threads) in [(0usize, 1usize), (2, 1), (64, 1), (0, 4)] {
            set_replay_batch(batch);
            set_pricing_threads(threads);
            let batched = traced_run(&inst, &config);
            assert_equivalent(
                &format!("batch={batch} threads={threads} vs per-winner"),
                &oracle,
                &batched,
            )?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The knobs stay unobservable under non-empty fault plans: the
    /// recovery pipeline (clawback, blacklisting, backfill re-auctions)
    /// replays auctions internally, and every one of those nested runs
    /// must batch and thread identically too.
    #[test]
    fn knobs_are_unobservable_under_faults(
        (instance, seed) in (arb_multi_round(), 0u64..256)
    ) {
        let _guard = KnobGuard::acquire();
        let plan = FaultPlan::seeded(
            seed,
            instance.num_rounds(),
            instance.sellers().len(),
            &hot_faults(),
        );
        let config = MsoaConfig::pinned(instance.derive_alpha());
        set_replay_batch(1);
        let base =
            run_msoa_with_faults(&instance, &config, &plan, &RecoveryConfig::default()).unwrap();
        for (batch, threads) in [(0usize, 1usize), (2, 1), (64, 1), (0, 4)] {
            set_replay_batch(batch);
            set_pricing_threads(threads);
            let out = run_msoa_with_faults(&instance, &config, &plan, &RecoveryConfig::default())
                .unwrap();
            prop_assert_eq!(&out, &base, "diverged at batch={} threads={}", batch, threads);
        }
    }

    /// Plain MSOA (the scale benchmark's exact entry point) is also
    /// knob-invariant — this is the property the committed
    /// `BENCH_scale.json` digests rest on.
    #[test]
    fn msoa_outcome_is_knob_invariant(instance in arb_multi_round()) {
        let _guard = KnobGuard::acquire();
        let config = MsoaConfig::pinned(instance.derive_alpha());
        let base = run_msoa(&instance, &config).unwrap();
        for threads in [0usize, 4] {
            set_pricing_threads(threads);
            let out = run_msoa(&instance, &config).unwrap();
            prop_assert_eq!(&out, &base, "diverged at threads={}", threads);
        }
    }
}
