//! Span-profiler determinism: the deterministic trace section and the
//! call-weighted folded stacks of `edge-market profile` must be
//! byte-identical with the pricing pool pinned at 1 and 4 threads, on a
//! seeded *faulty* instance (so recovery rungs and backfill spans are
//! exercised too) — only the `"section":"profile"` tail may move. The
//! profile runs in-process, where the thread-local pin reaches it.
//!
//! A second property locks the serve/replay arm: the span events a
//! `serve --spans on` trace carries must equal the ones `replay --spans
//! on` regenerates from the event log, because spans open only for
//! accepted events and replay applies exactly the accepted sequence.
//! Those two runs are subprocesses of the built binary.

use edge_common::fork::pinned;
use edge_market_cli::args::ParsedArgs;
use edge_market_cli::commands::run;
use std::path::PathBuf;
use std::process::Command;

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("edge-market-profile-{}-{name}", std::process::id()));
    p
}

fn run_ok(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_edge-market"))
        .args(args)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "args {args:?} failed\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// The deterministic section: seq-numbered events only, no wall-clock.
fn deterministic_section(trace: &str) -> String {
    trace
        .lines()
        .filter(|l| l.starts_with("{\"seq\":"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Only the flushed span-structure events.
fn span_events(trace: &str) -> String {
    trace
        .lines()
        .filter(|l| l.starts_with("{\"seq\":") && l.contains("\"event\":\"span\""))
        .collect::<Vec<_>>()
        .join("\n")
}

const FAULT_PLAN: &str = "[[defaults]]\nround = 1\nseller = 0\ndelivered_fraction = 0.25\n\n\
                          [[crashes]]\nseller = 1\nfrom = 0\nuntil = 2\n\n\
                          [[dropouts]]\nindicator = \"rate\"\nfrom = 0\nuntil = 1\n";

#[test]
fn profile_is_pool_invariant_on_a_faulty_instance() {
    let plan = temp_path("plan.toml");
    std::fs::write(&plan, FAULT_PLAN).unwrap();
    let plan_s = plan.to_str().unwrap().to_owned();

    let mut dets = Vec::new();
    let mut folds = Vec::new();
    let mut stdouts = Vec::new();
    for threads in [1, 4] {
        let trace = temp_path(&format!("t{threads}.jsonl"));
        let folded = temp_path(&format!("t{threads}.folded"));
        let args = ParsedArgs::parse(
            [
                "profile",
                "--scale-n",
                "3000",
                "--rounds",
                "2",
                "--seed",
                "7",
                "--faults",
                &plan_s,
                "--trace",
                trace.to_str().unwrap(),
                "--folded",
                folded.to_str().unwrap(),
                "--folded-weight",
                "calls",
            ]
            .map(str::to_owned),
        )
        .expect("args parse");
        let stdout = pinned(threads, None, || run(args)).expect("profile runs");
        let trace_text = std::fs::read_to_string(&trace).expect("trace written");
        assert!(
            trace_text.contains("\"section\":\"profile\""),
            "no profile tail at threads={threads}"
        );
        dets.push(deterministic_section(&trace_text));
        folds.push(std::fs::read_to_string(&folded).expect("folded written"));
        stdouts.push(stdout);
        let _ = std::fs::remove_file(trace);
        let _ = std::fs::remove_file(folded);
    }
    let _ = std::fs::remove_file(plan);

    // The deterministic section carries the span structure, the span
    // counters (including the engine-invariant pop_best scan count),
    // and the recovery/backfill spans of the faulty run.
    assert!(dets[0].contains("\"event\":\"span\""), "{}", dets[0]);
    assert!(dets[0].contains("pop_best_scans"), "{}", dets[0]);
    assert!(dets[0].contains("backfill"), "{}", dets[0]);
    assert!(folds[0].contains("profile;run;msoa"), "{}", folds[0]);
    assert_eq!(
        dets[0], dets[1],
        "deterministic section diverged at 4 threads"
    );
    assert_eq!(
        folds[0], folds[1],
        "calls-weighted folded stacks diverged at 4 threads"
    );

    // The waterfall attributes the run to named stages and surfaces the
    // lane-head reads per pop_best query.
    for stdout in &stdouts {
        assert!(stdout.contains("attributed:"), "{stdout}");
        assert!(
            stdout.contains("pop_best scans"),
            "no lane-head note:\n{stdout}"
        );
    }
}

#[test]
fn serve_spans_trace_equals_replay_spans_trace() {
    let log = temp_path("serve.log.jsonl");
    let serve_trace = temp_path("serve.trace.jsonl");
    let replay_trace = temp_path("replay.trace.jsonl");
    run_ok(&[
        "serve",
        "--seed",
        "7",
        "--microservices",
        "8",
        "--requests",
        "40",
        "--rounds",
        "4",
        "--stage-rounds",
        "2",
        "--interval-ms",
        "0",
        "--http",
        "off",
        "--event-log",
        log.to_str().unwrap(),
        "--trace",
        serve_trace.to_str().unwrap(),
        "--spans",
        "on",
    ]);
    run_ok(&[
        "replay",
        log.to_str().unwrap(),
        "--trace",
        replay_trace.to_str().unwrap(),
        "--spans",
        "on",
    ]);

    let live = std::fs::read_to_string(&serve_trace).expect("serve trace");
    let replayed = std::fs::read_to_string(&replay_trace).expect("replay trace");
    let live_spans = span_events(&live);
    assert!(
        live_spans.contains("service.apply"),
        "serve recorded no apply spans:\n{live_spans}"
    );
    assert_eq!(
        live_spans,
        span_events(&replayed),
        "replay regenerated different span events than the live run logged"
    );

    let _ = std::fs::remove_file(log);
    let _ = std::fs::remove_file(serve_trace);
    let _ = std::fs::remove_file(replay_trace);
}
