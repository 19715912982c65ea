//! Differential suite: the lane-arena hot path must be **bit-identical**
//! to the seed's O(n²) scan implementation, which is kept exactly for
//! this purpose.
//!
//! Both [`SsamOutcome`] and [`MultiBuyerOutcome`] derive `PartialEq`
//! over every field (winners in selection order, exact f64 prices and
//! payments, the Theorem 3 certificate), so a single `assert_eq!` per
//! case checks the whole mechanism output, not just the winner set.

use edge_auction::bid::Bid;
use edge_auction::multi_buyer::{
    run_ssam_multi, run_ssam_multi_reference, CoverBid, MultiBuyerWsp,
};
use edge_auction::ssam::{run_ssam, run_ssam_reference, run_ssam_traced, SsamConfig};
use edge_auction::wsp::WspInstance;
use edge_common::id::{BidId, MicroserviceId};
use edge_telemetry::{Collector, Trace, Value};
use proptest::prelude::*;

/// Instances where sellers submit up to 4 alternative bids, with the
/// full messy range the mechanism accepts: equal prices (tie-breaking),
/// zero prices, offers far above the demand, and single-unit slivers.
fn arb_instance() -> impl Strategy<Value = WspInstance> {
    arb_instance_with_amounts(1u64..12)
}

/// Same shape, but amounts drawn from 1..200: many distinct amount
/// classes, so the arena runs with dozens of lanes and the split between
/// saturated and unsaturated lanes moves on every sale.
fn arb_wide_instance() -> impl Strategy<Value = WspInstance> {
    arb_instance_with_amounts(1u64..200)
}

fn arb_instance_with_amounts(amounts: std::ops::Range<u64>) -> impl Strategy<Value = WspInstance> {
    proptest::collection::vec(proptest::collection::vec((amounts, 0u32..25), 1..5), 2..12)
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
                        // Integer prices on purpose: collisions are common, so
                        // the (ratio, seller, id) tie-break is exercised hard.
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

/// An optional reserve unit price, sometimes binding, sometimes not.
fn arb_config() -> impl Strategy<Value = SsamConfig> {
    (0u32..3, 1u32..60).prop_map(|(kind, r)| SsamConfig {
        reserve_unit_price: match kind {
            0 => None,
            1 => Some(f64::from(r)),           // often binding
            _ => Some(f64::from(r) + 1_000.0), // never binding
        },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// The tentpole invariant: arena SSAM ≡ scan SSAM, entire outcome.
    #[test]
    fn arena_matches_scan_reference((inst, config) in (arb_instance(), arb_config())) {
        assert_matches_scan(&inst, &config)?;
    }

    /// Wide amounts: up to 200 lanes, uncapped.
    #[test]
    fn wide_arena_matches_scan_reference((inst, config) in (arb_wide_instance(), arb_config())) {
        assert_matches_scan(&inst, &config)?;
    }
}

fn assert_matches_scan(inst: &WspInstance, config: &SsamConfig) -> Result<(), String> {
    match (run_ssam(inst, config), run_ssam_reference(inst, config)) {
        (Ok(fast), Ok(slow)) => prop_assert_eq!(fast, slow),
        (Err(fast), Err(slow)) => {
            prop_assert_eq!(format!("{fast:?}"), format!("{slow:?}"));
        }
        (fast, slow) => {
            return Err(format!("divergent feasibility: {fast:?} vs {slow:?}"));
        }
    }
    Ok(())
}

/// Random multi-buyer set-cover instances, including zero-price bids —
/// the case where the stale-entry utility must be recomputed because a
/// zero key is current at *every* utility level.
fn arb_multi_buyer() -> impl Strategy<Value = MultiBuyerWsp> {
    (
        proptest::collection::vec(1u64..5, 2..5), // buyer demands
        proptest::collection::vec(
            proptest::collection::vec((proptest::collection::vec(0u64..4, 4), 0u32..30), 1..3),
            2..7,
        ),
    )
        .prop_filter_map("need at least one valid bid", |(demands, groups)| {
            let buyers: Vec<(MicroserviceId, u64)> = demands
                .iter()
                .enumerate()
                .map(|(b, &x)| (MicroserviceId::new(1000 + b), x))
                .collect();
            let mut bids = Vec::new();
            for (s, g) in groups.iter().enumerate() {
                for (j, (amounts, price)) in g.iter().enumerate() {
                    let coverage: Vec<(MicroserviceId, u64)> = amounts
                        .iter()
                        .take(buyers.len())
                        .enumerate()
                        .map(|(b, &a)| (MicroserviceId::new(1000 + b), a))
                        .collect();
                    if let Ok(bid) = CoverBid::new(
                        MicroserviceId::new(s),
                        BidId::new(j),
                        coverage,
                        f64::from(*price),
                    ) {
                        bids.push(bid);
                    }
                }
            }
            if bids.is_empty() {
                return None;
            }
            MultiBuyerWsp::new(buyers, bids).ok()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Heap multi-buyer greedy ≡ scan multi-buyer greedy, entire
    /// outcome — winners, per-buyer coverage, payments.
    #[test]
    fn multi_buyer_heap_matches_scan((inst, config) in (arb_multi_buyer(), arb_config())) {
        let fast = run_ssam_multi(&inst, &config);
        let slow = run_ssam_multi_reference(&inst, &config);
        prop_assert_eq!(fast, slow);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sequential vs multi-threaded pricing must be **byte-identical** —
    /// not just the outcome but the full deterministic trace (event
    /// order, every field, provenance included).
    #[test]
    fn pricing_thread_count_is_unobservable((inst, config) in (arb_instance(), arb_config())) {
        use edge_common::fork::pinned;
        use edge_telemetry::{Collector, Trace};
        let run_at = |threads: usize| pinned(threads, None, || {
            let collector = Collector::new();
            let outcome = edge_auction::ssam::run_ssam_traced(&inst, &config, Trace::new(&collector));
            (outcome, collector.deterministic_jsonl())
        });
        let (seq_outcome, seq_trace) = run_at(1);
        for threads in [2usize, 4] {
            let (outcome, trace) = run_at(threads);
            match (&seq_outcome, &outcome) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "outcome diverged at {} threads", threads),
                (Err(a), Err(b)) => prop_assert_eq!(format!("{a:?}"), format!("{b:?}")),
                (a, b) => return Err(format!("divergent feasibility: {a:?} vs {b:?}")),
            }
            prop_assert_eq!(&seq_trace, &trace, "trace diverged at {} threads", threads);
        }
    }

    /// The shared-prefix replay must reproduce the *full* replay's
    /// thresholds bit-for-bit — payment values and the runner-up
    /// provenance (seller, bid, iteration, unit price, contribution)
    /// recorded in the trace.
    #[test]
    fn shared_prefix_matches_full_replay((inst, config) in (arb_instance(), arb_config())) {
        use edge_auction::ssam::reference::critical_thresholds_full;
        use edge_telemetry::{Collector, Trace, Value};
        let collector = Collector::new();
        let outcome = edge_auction::ssam::run_ssam_traced(&inst, &config, Trace::new(&collector));
        let full = critical_thresholds_full(&inst, &config);
        let (outcome, thresholds) = match (outcome, full) {
            (Ok(o), Ok(t)) => (o, t),
            (Err(a), Err(b)) => {
                prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
                return Ok(());
            }
            (a, b) => return Err(format!("divergent feasibility: {a:?} vs {b:?}")),
        };
        let events = collector.events();
        let payments: Vec<_> = events.iter().filter(|e| e.name == "ssam.payment").collect();
        prop_assert_eq!(payments.len(), thresholds.len());
        prop_assert_eq!(outcome.winners.len(), thresholds.len());
        for ((ev, th), w) in payments.iter().zip(&thresholds).zip(&outcome.winners) {
            let kind = ev.field("kind").and_then(Value::as_str).unwrap();
            let f = |name| ev.field(name).and_then(Value::as_f64).unwrap();
            match th {
                Some((v, Some(src))) => {
                    prop_assert_eq!(kind, "runner_up");
                    prop_assert_eq!(w.payment.value().to_bits(), v.to_bits());
                    prop_assert_eq!(f("source_seller") as usize, src.seller.index());
                    prop_assert_eq!(f("source_bid") as usize, src.bid.index());
                    prop_assert_eq!(f("source_iteration") as u64, src.iteration);
                    prop_assert_eq!(f("source_unit_price").to_bits(), src.unit_price.to_bits());
                    prop_assert_eq!(f("source_contribution") as u64, src.contribution);
                }
                Some((v, None)) => {
                    prop_assert_eq!(kind, "zero");
                    prop_assert_eq!(w.payment.value().to_bits(), v.to_bits());
                }
                None => {
                    prop_assert!(kind == "reserve" || kind == "own_price", "kind {}", kind);
                }
            }
        }
    }
}

/// Deterministic stress: a large all-ties instance (every bid the same
/// unit price) replays the tie-break chain hundreds of levels deep.
#[test]
fn arena_matches_scan_on_mass_ties() {
    let bids: Vec<Bid> = (0..400)
        .map(|s| Bid::new(MicroserviceId::new(s), BidId::new(0), 3, 6.0).unwrap())
        .collect();
    let inst = WspInstance::new(900, bids).unwrap();
    let config = SsamConfig::default();
    let fast = run_ssam(&inst, &config).unwrap();
    let slow = run_ssam_reference(&inst, &config).unwrap();
    assert_eq!(fast, slow);
    assert_eq!(fast.winners.len(), 300);
}

fn bid(seller: usize, id: usize, amount: u64, price: f64) -> Bid {
    Bid::new(MicroserviceId::new(seller), BidId::new(id), amount, price).unwrap()
}

/// Runs the traced auction at `threads` pricing threads: the outcome,
/// the full deterministic trace section, and the run's lane-head reads
/// per argmin query (from the `ssam.engine` profile entry and the
/// `ssam.stats` event).
fn traced_at(inst: &WspInstance, threads: usize) -> (edge_auction::ssam::SsamOutcome, String, f64) {
    let collector = Collector::new();
    let outcome = edge_common::fork::pinned(threads, None, || {
        run_ssam_traced(inst, &SsamConfig::default(), Trace::new(&collector))
    });
    let scans = collector
        .events()
        .into_iter()
        .find(|e| e.name == "ssam.stats")
        .and_then(|e| e.field("pop_best_scans").and_then(Value::as_f64))
        .unwrap();
    let reads = collector
        .profile_entries()
        .into_iter()
        .find(|p| p.name == "ssam.engine")
        .and_then(|p| {
            p.fields
                .iter()
                .find(|(k, _)| *k == "lane_head_reads")
                .and_then(|(_, v)| v.as_f64())
        })
        .unwrap();
    (
        outcome.unwrap(),
        collector.deterministic_jsonl(),
        reads / scans,
    )
}

/// The arena equals the scan oracle on `inst`, and its deterministic
/// trace is byte-identical at 1 and 4 pricing threads. Returns the
/// outcome and the lane-head reads per argmin query.
fn assert_exact(inst: &WspInstance) -> (edge_auction::ssam::SsamOutcome, f64) {
    let (outcome, trace, reads_per_scan) = traced_at(inst, 1);
    assert_eq!(
        outcome,
        run_ssam_reference(inst, &SsamConfig::default()).unwrap()
    );
    let (outcome4, trace4, _) = traced_at(inst, 4);
    assert_eq!(outcome4, outcome);
    assert_eq!(trace4, trace, "deterministic trace diverged at 4 threads");
    (outcome, reads_per_scan)
}

/// Two adjacent prices `p < p.next_up()` near 1.6 that divide by `denom`
/// to the same f64 key — distinct prices, one greedy key.
fn colliding_prices(denom: f64) -> (f64, f64) {
    let mut p = 1.6f64;
    for _ in 0..1_000 {
        let q = p.next_up();
        if p / denom == q / denom {
            return (p, q);
        }
        p = q;
    }
    panic!("no colliding pair near 1.6 for denominator {denom}");
}

#[test]
fn key_collision_within_one_unsaturated_lane() {
    // One lane (amount 3) below the split at demand 10: keys are
    // `price / 3`. Seller 5's cheaper price heads the lane, but seller
    // 1's next-up price divides to the same key, so seller 1 wins the
    // (seller, id) tie-break.
    let (p, q) = colliding_prices(3.0);
    let inst = WspInstance::new(
        10,
        vec![
            bid(5, 0, 3, p),
            bid(1, 0, 3, q),
            bid(2, 0, 3, 9.0),
            bid(3, 0, 3, 9.5),
            bid(4, 0, 3, 10.0),
        ],
    )
    .unwrap();
    let (outcome, _) = assert_exact(&inst);
    assert_eq!(outcome.winners[0].seller, MicroserviceId::new(1));
    assert_eq!(outcome.winners[1].seller, MicroserviceId::new(5));
}

#[test]
fn key_collision_across_two_saturated_lanes() {
    // Amounts 5 and 7 both cover the demand of 3, so both lanes divide by
    // `remaining = 3` and the suffix order compares prices: seller 4's
    // lower price in lane 5 is the price argmin, yet seller 0's higher
    // price in lane 7 reaches the same key and wins on seller id.
    let (p, q) = colliding_prices(3.0);
    let inst = WspInstance::new(
        3,
        vec![
            bid(4, 0, 5, p),
            bid(0, 0, 7, q),
            bid(2, 0, 5, 12.0),
            bid(3, 0, 7, 13.0),
        ],
    )
    .unwrap();
    let (outcome, _) = assert_exact(&inst);
    assert_eq!(outcome.winners.len(), 1);
    assert_eq!(outcome.winners[0].seller, MicroserviceId::new(0));
}

#[test]
fn key_collision_behind_a_sold_head() {
    // Seller 2 sells its one-unit sliver first; its amount-3 bid, at the
    // lane's lowest price, is then a dead head. Behind it seller 6 holds
    // the same price and seller 1 the colliding next-up price: the
    // skipped head must not hide the collision.
    let (p, q) = colliding_prices(3.0);
    let inst = WspInstance::new(
        12,
        vec![
            bid(2, 0, 1, 0.1),
            bid(2, 1, 3, p),
            bid(6, 0, 3, p),
            bid(1, 0, 3, q),
            bid(3, 0, 3, 9.0),
            bid(4, 0, 3, 9.5),
            bid(5, 0, 3, 10.0),
        ],
    )
    .unwrap();
    let (outcome, _) = assert_exact(&inst);
    let order: Vec<usize> = outcome.winners.iter().map(|w| w.seller.index()).collect();
    assert_eq!(&order[..3], &[2, 1, 6]);
}

#[test]
fn thousands_of_amount_classes_stay_exact_and_logarithmic() {
    // 2,048 sellers, each offering a distinct amount: one lane apiece.
    // Unit prices are spread pseudo-randomly so winners come from all
    // over the lane range and the split moves as demand is covered.
    let lanes = 2_048u64;
    let bids: Vec<Bid> = (0..lanes)
        .map(|s| {
            let unit = 1.0 + ((s * 7_919) % 1_009) as f64 / 97.0;
            bid(s as usize, 0, s + 1, unit * (s + 1) as f64)
        })
        .collect();
    let inst = WspInstance::new(20_000, bids).unwrap();
    let (outcome, reads_per_scan) = assert_exact(&inst);
    assert!(outcome.winners.len() > 10);
    // 4 · ⌈log₂ L⌉ = 44; a linear scan over lane heads would read 2,048.
    assert!(
        reads_per_scan <= 44.0,
        "{reads_per_scan:.1} lane-head reads per argmin query"
    );
}

#[test]
fn bid_ids_beyond_u32_match_scan() {
    // Ids past 2^32 (reachable from a scenario file) order like any
    // other id in the (seller, id) tie-break.
    let big = 1usize << 40;
    let inst = WspInstance::new(
        6,
        vec![
            bid(0, big, 2, 4.0),
            bid(0, 3, 2, 4.0),
            bid(1, big + 7, 3, 6.0),
            bid(1, big + 2, 3, 6.0),
            bid(2, big, 4, 9.0),
        ],
    )
    .unwrap();
    let (outcome, _) = assert_exact(&inst);
    assert_eq!(outcome.winners[0].bid, BidId::new(3));
    assert_eq!(outcome.winners[1].bid, BidId::new(big + 2));
}
