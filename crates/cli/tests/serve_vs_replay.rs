//! Differential serve-vs-replay suite: for random event sequences, the
//! live service and an offline replay of its event log must agree —
//! outcome digests, payments, winner counts, state digests, and the
//! deterministic JSONL trace section, **byte for byte**. The live run
//! sizes its own pricing pool; the replay is pinned at 1 and 4 threads.
//!
//! This is the log-is-source-of-truth property: a live run writes every
//! accepted event to a digest-chained log; replaying that log through a
//! fresh [`AuctionService`] over the same seeded provider is the same
//! pure computation.

use edge_auction::pricing::pinned;
use edge_auction::service::{parse_log, AuctionService, LogWriter, ServiceConfig, ServiceEvent};
use edge_market_cli::serve::stage_provider;
use edge_telemetry::Collector;
use proptest::prelude::*;

fn config(seed: u64, total_rounds: u64, stage_rounds: u64) -> ServiceConfig {
    ServiceConfig {
        seed,
        microservices: 6,
        requests: 40,
        total_rounds,
        stage_rounds,
        book_cap: 64,
        demand_cap: 500,
    }
}

/// The deterministic section: seq-numbered events only, no wall-clock.
fn deterministic_section(jsonl: &str) -> String {
    jsonl
        .lines()
        .filter(|l| l.starts_with("{\"seq\":"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Raw wire events, hostile and benign alike — admission control keeps
/// the accepted subsequence valid, and only that subsequence is logged.
#[allow(clippy::cast_precision_loss)]
fn arb_events() -> impl Strategy<Value = Vec<ServiceEvent>> {
    proptest::collection::vec(
        (0u32..6, 0u64..8, 0u64..4, 0u64..5, 0u32..40, 1u64..9),
        5..40,
    )
    .prop_map(|specs| {
        specs
            .into_iter()
            .map(|(kind, seller, bid, amount, price, units)| match kind {
                0 | 1 => ServiceEvent::BidSubmitted {
                    seller: seller as usize,
                    bid,
                    amount,
                    price: f64::from(price) / 2.0,
                },
                2 => ServiceEvent::BidWithdrawn {
                    seller: seller as usize,
                    bid,
                },
                3 => ServiceEvent::DemandReported { units },
                4 => ServiceEvent::SellerDefaulted {
                    seller: seller as usize,
                    delivered_fraction: f64::from(price % 5) / 4.0,
                },
                _ => ServiceEvent::RoundClosed,
            })
            .collect()
    })
}

/// (state digest, last outcome digest, winners, total payment).
type Fingerprint = (String, Option<String>, u64, f64);

/// Applies `events` live (logging the accepted ones), then replays the
/// log at `threads` pricing threads; returns the live fingerprint, the
/// replayed fingerprint, and the two deterministic trace sections.
fn live_then_replay(
    config: ServiceConfig,
    events: &[ServiceEvent],
    threads: usize,
) -> (Fingerprint, Fingerprint, String, String) {
    let live_trace = Collector::new();
    let mut live = AuctionService::new(config, stage_provider(config));
    let mut buf = Vec::new();
    let mut log = LogWriter::new(&mut buf, &config).expect("header");
    for event in events {
        if live.apply(event, Some(&live_trace)).is_ok() {
            log.append(event).expect("append");
        }
    }
    // Close out the horizon so every case exercises stage auctions.
    while !live.horizon_complete() {
        live.apply(&ServiceEvent::RoundClosed, Some(&live_trace))
            .expect("close");
        log.append(&ServiceEvent::RoundClosed).expect("append");
    }
    let live_fp = (
        live.state_digest_hex(),
        live.last_outcome_digest_hex(),
        live.winners(),
        live.total_payment(),
    );

    let text = String::from_utf8(buf).expect("utf8 log");
    let parsed = parse_log(&text, false).expect("log verifies");
    assert_eq!(parsed.config, config);
    let replay_trace = Collector::new();
    let mut replayed = AuctionService::new(parsed.config, stage_provider(parsed.config));
    pinned(threads, None, || {
        replayed.apply_all(&parsed.records, Some(&replay_trace))
    })
    .expect("every logged event replays");
    let replay_fp = (
        replayed.state_digest_hex(),
        replayed.last_outcome_digest_hex(),
        replayed.winners(),
        replayed.total_payment(),
    );
    (
        live_fp,
        replay_fp,
        deterministic_section(&live_trace.deterministic_jsonl()),
        deterministic_section(&replay_trace.deterministic_jsonl()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_event_sequences_replay_byte_identically(
        events in arb_events(),
        seed in 0u64..1_000,
        total_rounds in 2u64..7,
        stage_rounds in 1u64..4,
    ) {
        let config = config(seed, total_rounds, stage_rounds);
        for threads in [1usize, 4] {
            let (live, replayed, trace_live, trace_replay) =
                live_then_replay(config, &events, threads);
            prop_assert_eq!(
                &live, &replayed,
                "live/replay fingerprints diverged at {} threads", threads
            );
            prop_assert!(
                !trace_live.is_empty(),
                "no deterministic trace events were recorded"
            );
            prop_assert_eq!(
                &trace_live, &trace_replay,
                "deterministic trace section diverged at {} threads", threads
            );
        }
    }
}
