//! Reader fuzz suite: every reader at the trust boundary — the two
//! chained-JSONL logs, the two plan formats and the wire-body parser —
//! on mutated copies of real inputs, with fixed seeds and case counts.
//!
//! Inputs: the event log and the federation log pinned by
//! `crates/core/tests/trail_pins.rs` (rebuilt here and checked against
//! the same digests), and the fault and net-fault plans CI feeds the
//! binary. Mutations: truncate at byte k, flip byte k, delete, duplicate
//! or swap lines, and wrap a value in 200 brackets.
//!
//! Properties: no reader panics; a strict log parse that succeeds
//! returns a prefix of the original records, never a different record;
//! a lenient parse drops at most the last line; every plan error names a
//! line inside the file; a record whose `v` is not the format's version
//! is rejected.

use edge_auction::bid::{Bid, Seller};
use edge_auction::chain_log::LogError;
use edge_auction::federation::{
    parse_fed_log, render_fed_log, FedRecord, FederationConfig, FederationSim,
};
use edge_auction::msoa::{MultiRoundInstance, RoundInput};
use edge_auction::service::{parse_log, LogRecord, LogWriter, ServiceConfig, ServiceEvent};
use edge_common::id::{BidId, MicroserviceId};
use edge_common::rng::{derive_rng, fnv1a64};
use edge_market_cli::faults::parse_fault_plan;
use edge_market_cli::netfaults::parse_net_fault_plan;
use edge_market_cli::serve::parse_wire_event;
use edge_net::{NetFaultPlan, PartitionWindow};
use proptest::prelude::*;
use rand::Rng;
use std::sync::OnceLock;

/// The fault plan CI's fault-suite smoke step writes.
const CI_FAULT_PLAN: &str = "[[defaults]]\nround = 1\nseller = 0\ndelivered_fraction = 0.25\n\n\
    [[crashes]]\nseller = 1\nfrom = 2\nuntil = 4\n\n\
    [[dropouts]]\nindicator = \"rate\"\nfrom = 0\nuntil = 2\n";

/// The net-fault plan CI's federation-suite step writes.
const CI_NET_PLAN: &str = "seed = 11\n\n[link]\nlatency_min = 1\nlatency_max = 4\n\
    drop_probability = 0.25\nduplicate_probability = 0.10\nreorder_probability = 0.20\n\
    reorder_max_extra = 2\n\n[[partitions]]\nfrom = 3\nuntil = 9\nisolated = 1\n";

/// One wire body per route, each one the parser accepts.
const WIRE_BODIES: &[(&str, &str)] = &[
    ("/v1/bid", r#"{"seller":2,"bid":1,"amount":3,"price":6.5}"#),
    ("/v1/bid/withdraw", r#"{"seller":2,"bid":1}"#),
    ("/v1/demand", r#"{"units":12}"#),
    ("/v1/default", r#"{"seller":1,"delivered_fraction":0.5}"#),
    ("/v1/round/close", "{}"),
];

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

/// The pinned event log: its text and records.
fn event_log() -> &'static (String, Vec<LogRecord>) {
    static LOG: OnceLock<(String, Vec<LogRecord>)> = OnceLock::new();
    LOG.get_or_init(|| {
        let config = log_pin_config(31);
        let events = [
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
        let mut buf = Vec::new();
        let mut writer = LogWriter::new(&mut buf, &config).unwrap();
        for event in &events {
            writer.append(event).unwrap();
        }
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(fnv1a64(text.as_bytes()), 0x7c19_75f8_7841_5f94);
        let records = parse_log(&text, false).unwrap().records;
        (text, records)
    })
}

/// The pinned federation log: its text and records.
fn fed_log() -> &'static (String, Vec<FedRecord>) {
    static LOG: OnceLock<(String, Vec<FedRecord>)> = OnceLock::new();
    LOG.get_or_init(|| {
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
        sim.run(None).unwrap();
        let text = render_fed_log(&sim.header(), sim.records());
        assert_eq!(fnv1a64(text.as_bytes()), 0xd7c5_a0c5_ca21_35a5);
        (text, sim.records().to_vec())
    })
}

/// The pinned federation log's stage provider.
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

/// One mutation; positions are reduced modulo the input's size.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    Truncate(usize),
    Flip(usize, u8),
    DeleteLine(usize),
    DuplicateLine(usize),
    SwapLines(usize, usize),
    Wrap(usize),
}

fn mutation() -> impl Strategy<Value = Mutation> {
    (0u8..6, 0usize..1 << 20, 0usize..1 << 20, 0u8..=255).prop_map(
        |(kind, a, b, byte)| match kind {
            0 => Mutation::Truncate(a),
            1 => Mutation::Flip(a, byte),
            2 => Mutation::DeleteLine(a),
            3 => Mutation::DuplicateLine(a),
            4 => Mutation::SwapLines(a, b),
            _ => Mutation::Wrap(a),
        },
    )
}

/// Applies `m` to `text`. Line edits keep the trailing newline.
fn apply(text: &str, m: Mutation) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    let n = lines.len().max(1);
    match m {
        Mutation::Truncate(k) => {
            let mut k = k % (text.len() + 1);
            while !text.is_char_boundary(k) {
                k -= 1;
            }
            return text[..k].to_owned();
        }
        Mutation::Flip(k, byte) => {
            let mut bytes = text.as_bytes().to_vec();
            if !bytes.is_empty() {
                let k = k % bytes.len();
                bytes[k] = byte;
            }
            return String::from_utf8_lossy(&bytes).into_owned();
        }
        Mutation::DeleteLine(i) if !lines.is_empty() => {
            lines.remove(i % n);
        }
        Mutation::DuplicateLine(i) if !lines.is_empty() => {
            let line = lines[i % n].clone();
            lines.insert(i % n, line);
        }
        Mutation::SwapLines(i, j) if !lines.is_empty() => lines.swap(i % n, j % n),
        Mutation::Wrap(i) if !lines.is_empty() => lines[i % n] = wrap(&lines[i % n]),
        _ => {}
    }
    let mut out = lines.join("\n");
    if text.ends_with('\n') {
        out.push('\n');
    }
    out
}

/// Wraps a line's value in 200 brackets: the value after `=` on a plan
/// line, or the last field's value of a JSON object.
fn wrap(line: &str) -> String {
    let (open, close) = ("[".repeat(200), "]".repeat(200));
    if let Some((key, value)) = line.split_once('=') {
        return format!("{key}= {open}{}{close}", value.trim());
    }
    match (line.rfind("\":"), line.strip_suffix('}')) {
        (Some(at), Some(body)) if at + 2 <= body.len() => {
            let (head, value) = body.split_at(at + 2);
            format!("{head}{open}{value}{close}}}")
        }
        _ => format!("{open}{line}{close}"),
    }
}

fn is_prefix<E: PartialEq>(got: &[E], original: &[E]) -> bool {
    got.len() <= original.len() && got.iter().zip(original).all(|(a, b)| a == b)
}

/// Non-blank lines, as the log parser counts them.
fn log_lines(text: &str) -> usize {
    text.lines().filter(|l| !l.trim().is_empty()).count()
}

/// Rewrites the `v` of (non-blank) line `index` to `version`.
fn set_version(text: &str, index: usize, version: u64) -> String {
    let lines: Vec<&str> = text.lines().collect();
    let mut out = String::new();
    for (i, line) in lines.iter().enumerate() {
        if i == index {
            let rest = line.split_once(',').map_or("", |(_, rest)| rest);
            out.push_str(&format!("{{\"v\":{version},{rest}"));
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, seed: 0x0010_9e5e })]

    #[test]
    fn event_log_parses_never_invent_records(
        mutations in collection::vec(mutation(), 1..3),
    ) {
        let (original, records) = event_log();
        let text = mutations.iter().fold(original.clone(), |t, &m| apply(&t, m));
        let strict = parse_log(&text, false);
        if let Ok(log) = &strict {
            prop_assert!(is_prefix(&log.records, records), "strict parse invented a record");
            prop_assert!(!log.truncated_tail);
        }
        match parse_log(&text, true) {
            Ok(log) => {
                prop_assert!(is_prefix(&log.records, records), "lenient parse invented a record");
                prop_assert_eq!(
                    log_lines(&text),
                    1 + log.records.len() + usize::from(log.truncated_tail),
                    "lenient parse dropped more than the last line"
                );
                match &strict {
                    Ok(s) => prop_assert!(!log.truncated_tail && s.records == log.records),
                    Err(_) => prop_assert!(log.truncated_tail),
                }
            }
            Err(_) => prop_assert!(strict.is_err(), "lenient parse is stricter than strict"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, seed: 0x0fed_0109 })]

    #[test]
    fn fed_log_parses_never_invent_records(mutations in collection::vec(mutation(), 1..3)) {
        let (original, records) = fed_log();
        let text = mutations.iter().fold(original.clone(), |t, &m| apply(&t, m));
        if let Ok(log) = parse_fed_log(&text) {
            prop_assert!(is_prefix(&log.records, records), "fed parse invented a record");
            prop_assert!(!log.truncated_tail);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, seed: 0x000e_5107 })]

    #[test]
    fn a_foreign_version_on_any_line_is_rejected(line in 0usize..1 << 20, version in 0u64..1000) {
        let (event_text, _) = event_log();
        let index = line % log_lines(event_text);
        if version != 1 {
            let text = set_version(event_text, index, version);
            for lenient in [false, true] {
                prop_assert!(
                    matches!(parse_log(&text, lenient), Err(LogError::UnknownVersion { .. })),
                    "event log line {index} with v {version} was accepted"
                );
            }
        }
        let (fed_text, _) = fed_log();
        let index = line % log_lines(fed_text);
        if version != 2 {
            let text = set_version(fed_text, index, version);
            prop_assert!(
                matches!(parse_fed_log(&text), Err(LogError::UnknownVersion { .. })),
                "fed log line {index} with v {version} was accepted"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, seed: 0x091a_4f1e })]

    #[test]
    fn plan_errors_name_a_line_inside_the_file(
        mutations in collection::vec(mutation(), 1..4),
    ) {
        for (name, original) in [("faults", CI_FAULT_PLAN), ("net-faults", CI_NET_PLAN)] {
            let text = mutations.iter().fold(original.to_owned(), |t, &m| apply(&t, m));
            let verdict = if name == "faults" {
                parse_fault_plan(&text).map(|_| ())
            } else {
                parse_net_fault_plan(&text, 7, 3).map(|_| ())
            };
            if let Err(e) = verdict {
                let lines = text.lines().count();
                prop_assert!(
                    (1..=lines).contains(&e.line),
                    "{name}: '{e}' names a line outside the {lines}-line file:\n{text}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, seed: 0x00b0_d1e5 })]

    #[test]
    fn wire_bodies_never_panic(route in 0usize..5, mutations in collection::vec(mutation(), 1..3)) {
        let (path, body) = WIRE_BODIES[route];
        let body = mutations.iter().fold(body.to_owned(), |t, &m| apply(&t, m));
        // A spawned thread has the HTTP handler's stack, and a panic
        // there surfaces as a join error instead of ending the suite.
        let joined = std::thread::spawn(move || parse_wire_event(path, &body).is_ok()).join();
        prop_assert!(joined.is_ok(), "parse_wire_event panicked on {path}");
    }
}

#[test]
fn unmutated_inputs_parse() {
    assert_eq!(event_log().1.len(), 10);
    assert!(!fed_log().1.is_empty());
    assert!(parse_fault_plan(CI_FAULT_PLAN).is_ok());
    assert!(parse_net_fault_plan(CI_NET_PLAN, 7, 3).is_ok());
    for (path, body) in WIRE_BODIES {
        assert!(parse_wire_event(path, body).is_ok(), "{path} {body}");
    }
}
