//! Federation determinism, end to end through the CLI:
//!
//! 1. `federate` under an aggressive seeded net-fault plan produces
//!    byte-identical output with the pricing pool pinned at 1 and 4
//!    threads, and `replay` of its fed log reproduces every digest
//!    record-for-record at both pins;
//! 2. a single-platform federation over an ideal network is
//!    bit-identical to the plain `serve` drive loop (PR 6 semantics);
//! 3. config flags on `replay` are assertions: a contradicting flag is
//!    a loud error, a matching one passes.

use edge_auction::federation::{FederationConfig, FederationSim};
use edge_auction::pricing::pinned;
use edge_market_cli::args::ParsedArgs;
use edge_market_cli::commands::run;
use edge_market_cli::serve::{drive, stage_provider, ServeConfig, ServeState};
use edge_net::NetFaultPlan;
use std::path::PathBuf;

fn parsed(args: &[&str]) -> ParsedArgs {
    ParsedArgs::parse(args.iter().map(|s| (*s).to_owned())).expect("args parse")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("edge-fed-det-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// An aggressive but seeded plan: lossy, laggy, duplicating, reordering
/// links plus a partition window isolating platform 1 mid-run.
const PLAN: &str = "\
seed = 11

[link]
latency_min = 1
latency_max = 4
drop_probability = 0.25
duplicate_probability = 0.10
reorder_probability = 0.20
reorder_max_extra = 2

[[partitions]]
from = 3
until = 9
isolated = 1
";

/// The digest lines of a rendered outcome — state, fed, net, and last
/// outcome digests; equality means the runs agree on everything hashed.
fn digest_lines(output: &str) -> Vec<&str> {
    output.lines().filter(|l| l.contains("digest")).collect()
}

#[test]
fn federate_and_replay_agree_at_one_and_four_threads() {
    let dir = temp_dir("cli");
    let plan_path = dir.join("plan.toml");
    let log_path = dir.join("fed.jsonl");
    std::fs::write(&plan_path, PLAN).expect("write plan");
    let plan = plan_path.to_str().unwrap();
    let log = log_path.to_str().unwrap();

    let federate = |threads: usize| {
        let args = parsed(&[
            "federate",
            "--platforms",
            "3",
            "--seed",
            "11",
            "--microservices",
            "6",
            "--requests",
            "30",
            "--rounds",
            "6",
            "--stage-rounds",
            "2",
            "--net-faults",
            plan,
            "--fed-log",
            log,
        ]);
        pinned(threads, None, || run(args)).expect("federate")
    };
    let live_1 = federate(1);
    let log_text = std::fs::read_to_string(&log_path).expect("fed log written");
    let live_4 = federate(4);

    assert_eq!(
        live_1, live_4,
        "federate output diverged across pricing-thread counts"
    );
    assert_eq!(
        log_text,
        std::fs::read_to_string(&log_path).unwrap(),
        "fed log diverged across pricing-thread counts"
    );
    assert!(
        !digest_lines(&live_1).is_empty(),
        "federate printed no digests: {live_1}"
    );

    let replay_1 = pinned(1, None, || run(parsed(&["replay", log]))).expect("replay @1");
    let replay_4 = pinned(4, None, || run(parsed(&["replay", log]))).expect("replay @4");
    assert_eq!(
        replay_1, replay_4,
        "replay output diverged across pricing-thread counts"
    );
    assert!(replay_1.contains("record-for-record"), "{replay_1}");
    assert_eq!(
        digest_lines(&live_1),
        digest_lines(&replay_1),
        "replay digests diverged from the live run"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn replay_flags_are_assertions_against_the_header() {
    let dir = temp_dir("assert");
    let log_path = dir.join("fed.jsonl");
    let log = log_path.to_str().unwrap();
    run(parsed(&[
        "federate",
        "--platforms",
        "2",
        "--seed",
        "5",
        "--microservices",
        "5",
        "--requests",
        "20",
        "--rounds",
        "4",
        "--stage-rounds",
        "2",
        "--fed-log",
        log,
    ]))
    .expect("federate");

    // Matching assertions pass.
    run(parsed(&["replay", log, "--seed", "5", "--platforms", "2"]))
        .expect("matching assertions must pass");

    // A contradicting flag is a loud, specific error.
    let err = run(parsed(&["replay", log, "--seed", "999"])).expect_err("conflict must error");
    let message = err.to_string();
    assert!(message.contains("--seed 999"), "{message}");
    assert!(message.contains("contradicts"), "{message}");
    assert!(message.contains("5"), "{message}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn single_platform_ideal_network_matches_the_serve_loop() {
    let serve_config = ServeConfig {
        seed: 7,
        microservices: 8,
        requests: 40,
        total_rounds: 6,
        stage_rounds: 3,
        interval_ms: 0,
        ..ServeConfig::default()
    };
    let summary = drive(&serve_config, &ServeState::new(), None).expect("serve drive");

    let config = FederationConfig::uniform(serve_config.service_config(), 1);
    let plan = NetFaultPlan::ideal(serve_config.seed);
    let mut sim =
        FederationSim::new(config, plan, |_, c| stage_provider(c)).expect("federation sim");
    let outcome = sim.run(None).expect("federation run");

    let node = &outcome.nodes[0];
    assert_eq!(node.stages, summary.stages, "stage count diverged");
    assert_eq!(node.rounds, summary.rounds, "round count diverged");
    assert_eq!(
        node.last_outcome_digest, summary.last_digest,
        "K=1 federation over an ideal network must be bit-identical to serve"
    );
    assert_eq!(node.counters.deals_opened, 0, "no peers, no deals");
}
