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
use edge_auction::federation::{parse_fed_log, render_fed_log, FederationConfig, FederationSim};
use edge_auction::msoa::{run_msoa_traced, MsoaConfig, MultiRoundInstance, RoundInput};
use edge_auction::recovery::{
    run_msoa_with_faults_traced, FaultInjectionConfig, FaultPlan, RecoveryConfig,
};
use edge_auction::service::{
    fnv1a64, parse_log, AuctionService, LogWriter, ServiceConfig, ServiceEvent,
};
use edge_auction::ssam::SsamConfig;
use edge_common::id::{BidId, MicroserviceId};
use edge_common::rng::derive_rng;
use edge_net::{NetFaultPlan, PartitionWindow};
use edge_telemetry::{Collector, Trace, Value};
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

/// A plain run under a reserve, on a seller table listed in neither
/// ascending nor dense id order (900, 7, 42, 3). Unit prices tie across
/// sellers, so selection breaks ties on seller id; and seller 42's
/// over-reserve bids are split by seller 7's in the round input, so
/// `ssam.excluded` lists each seller's bids together, sellers in
/// first-bid order, which is not input order.
#[test]
fn reserve_trail_on_an_unordered_seller_table_is_pinned() {
    let id = MicroserviceId::new;
    let sellers = vec![
        Seller::new(id(900), 12, (0, 2)).unwrap(),
        Seller::new(id(7), 6, (0, 2)).unwrap(),
        Seller::new(id(42), 10, (0, 2)).unwrap(),
        Seller::new(id(3), 8, (1, 2)).unwrap(),
    ];
    // (seller, bid, amount, price); the reserve is 3 per unit.
    let book = [
        (42, 0, 2, 8.0),  // 4/u, over the reserve
        (7, 0, 2, 4.0),   // 2/u
        (900, 0, 3, 6.0), // 2/u
        (42, 1, 1, 2.0),  // 2/u
        (7, 1, 1, 3.5),   // over
        (3, 0, 2, 4.0),   // 2/u, outside its window in round 0
        (42, 2, 3, 10.5), // over
        (900, 1, 1, 2.5), // 2.5/u
    ];
    let rounds = [5, 6, 4]
        .into_iter()
        .map(|demand| {
            let bids = book
                .iter()
                .map(|&(s, j, amount, price)| Bid::new(id(s), BidId::new(j), amount, price))
                .collect::<Result<_, _>>()
                .unwrap();
            RoundInput::new(demand, demand, bids)
        })
        .collect();
    let instance = MultiRoundInstance::new(sellers, rounds).unwrap();
    let config = MsoaConfig {
        ssam: SsamConfig {
            reserve_unit_price: Some(3.0),
        },
        alpha: Some(2.0),
    };
    let collector = Collector::new();
    run_msoa_traced(&instance, &config, Trace::new(&collector)).unwrap();
    let excluded: Vec<(f64, f64)> = collector
        .events()
        .iter()
        .filter(|e| e.name == "ssam.excluded")
        .take(3)
        .map(|e| {
            let field = |k| e.field(k).and_then(Value::as_f64).unwrap();
            (field("seller"), field("bid"))
        })
        .collect();
    assert_eq!(excluded, [(42.0, 0.0), (42.0, 2.0), (7.0, 1.0)]);
    assert_eq!(digest(&collector), 0x857a_4fd5_47e0_8527);
}

// ---------------------------------------------------------------------
// Log pins: the bytes the two chained-JSONL writers emit.
// ---------------------------------------------------------------------

/// A tight-economy stage provider (the federation property suite's):
/// demand can outrun feasible supply, so stages end short and deals
/// open.
fn provider(config: ServiceConfig) -> impl FnMut(u64, u64) -> MultiRoundInstance {
    move |stage, rounds| {
        let mut rng = derive_rng(config.seed.wrapping_add(stage), "log-pin");
        let n = config.microservices.max(1);
        let rounds = rounds.max(1);
        let sellers: Vec<Seller> = (0..n)
            .map(|s| Seller::new(MicroserviceId::new(s), 8, (0, rounds - 1)).unwrap())
            .collect();
        let inputs: Vec<RoundInput> = (0..rounds)
            .map(|_| {
                let bids: Vec<Bid> = (0..n)
                    .map(|s| {
                        let amount = 1 + rng.gen_range(0..3u64);
                        let price = rng.gen_range(5.0..20.0);
                        Bid::new(MicroserviceId::new(s), BidId::new(0), amount, price).unwrap()
                    })
                    .collect();
                let demand = rng.gen_range(1..=config.requests.max(1));
                RoundInput::new(demand, demand, bids)
            })
            .collect();
        MultiRoundInstance::new(sellers, inputs).unwrap()
    }
}

fn log_pin_config(seed: u64) -> ServiceConfig {
    ServiceConfig {
        seed,
        microservices: 4,
        requests: 18,
        total_rounds: 6,
        stage_rounds: 2,
        book_cap: 256,
        demand_cap: 100_000,
    }
}

/// Bids, a withdrawal, demand, a default and round closes, written by
/// `LogWriter` as a service accepts them: the log text, the service's
/// state digest and the last stage outcome are pinned, and the text
/// parses back to the same records.
#[test]
fn event_log_bytes_are_pinned() {
    let config = log_pin_config(31);
    let events = vec![
        ServiceEvent::BidSubmitted {
            seller: 1,
            bid: 4,
            amount: 3,
            price: 7.25,
        },
        ServiceEvent::BidSubmitted {
            seller: 3,
            bid: 0,
            amount: 2,
            price: 1.5,
        },
        ServiceEvent::DemandReported { units: 5 },
        ServiceEvent::RoundClosed,
        ServiceEvent::SellerDefaulted {
            seller: 1,
            delivered_fraction: 0.5,
        },
        ServiceEvent::BidWithdrawn { seller: 3, bid: 0 },
        ServiceEvent::RoundClosed,
        ServiceEvent::DemandReported { units: 2 },
        ServiceEvent::RoundClosed,
        ServiceEvent::RoundClosed,
    ];
    let mut svc = AuctionService::new(config, provider(config));
    let mut buf = Vec::new();
    let mut log = LogWriter::new(&mut buf, &config).unwrap();
    for event in &events {
        svc.apply(event, None).unwrap();
        log.append(event).unwrap();
    }
    let text = String::from_utf8(buf).unwrap();
    assert_eq!(fnv1a64(text.as_bytes()), 0x7c19_75f8_7841_5f94);
    assert_eq!(svc.state_digest_hex(), "2a28ed3cb841acd3");
    assert_eq!(
        svc.last_outcome_digest_hex().as_deref(),
        Some("f380e947f223c362")
    );

    let parsed = parse_log(&text, false).unwrap();
    assert_eq!(parsed.config, config);
    let seqs: Vec<u64> = parsed.records.iter().map(|r| r.seq).collect();
    assert_eq!(seqs, (1..=events.len() as u64).collect::<Vec<_>>());
    let parsed_events: Vec<ServiceEvent> = parsed.records.iter().map(|r| r.event.clone()).collect();
    assert_eq!(parsed_events, events);
}

/// A seeded three-platform federation on a lossy, reordering,
/// duplicating network with a partition: the rendered federation log,
/// the run's fed digest and its net-tape digest are pinned, and the
/// text parses back to the same header and records.
#[test]
fn federation_log_bytes_are_pinned() {
    let config = FederationConfig::uniform(log_pin_config(41), 3);
    let mut plan = NetFaultPlan::ideal(43);
    plan.link.latency_max = 3;
    plan.link.drop_probability = 0.2;
    plan.link.duplicate_probability = 0.3;
    plan.link.reorder_probability = 0.2;
    plan.link.reorder_max_extra = 2;
    plan.partitions.push(PartitionWindow {
        from: 4,
        until: 12,
        isolated: 1,
    });
    let mut sim = FederationSim::new(config, plan, |_, c| provider(c)).unwrap();
    let outcome = sim.run(None).unwrap();
    let text = render_fed_log(&sim.header(), sim.records());
    assert_eq!(fnv1a64(text.as_bytes()), 0xd7c5_a0c5_ca21_35a5);
    assert_eq!(outcome.fed_digest, "bb99b1635e3a713e");
    assert_eq!(outcome.net_digest, "9192a3dbbb3ade09");

    let parsed = parse_fed_log(&text).unwrap();
    assert_eq!(parsed.header, sim.header());
    assert_eq!(parsed.records, sim.records());
}
