//! Trace determinism across sweep worker counts.
//!
//! The deterministic section of a trace — every `{"seq":...}` line —
//! must be byte-identical whether the sweep ran on 1 worker or 4; only
//! the trailing profile section (wall-clock timings) may differ. The
//! tables must also stay byte-identical with tracing on, locking in
//! that observability never perturbs results. `reproduce` runs
//! in-process, where the thread-local `edge_common::fork::pinned` seam
//! reaches the sweep. A figure that runs one auction on the calling
//! thread (`fig4a`) nests the engine's spans under the figure's own.

use edge_common::fork::pinned;
use edge_market_cli::args::ParsedArgs;
use edge_market_cli::commands::run;
use std::path::PathBuf;

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("edge-market-trace-{}-{name}", std::process::id()));
    p
}

fn reproduce(threads: usize, figure: &str, trace: &str) -> String {
    let args = ParsedArgs::parse(
        [
            "reproduce",
            "--figure",
            figure,
            "--seeds",
            "2",
            "--trace",
            trace,
        ]
        .map(String::from),
    )
    .expect("valid arguments");
    pinned(threads, None, || run(args)).expect("reproduce runs")
}

/// The deterministic section: seq-numbered events, no wall-clock.
fn deterministic_section(trace: &str) -> String {
    trace
        .lines()
        .filter(|l| l.starts_with("{\"seq\":"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Stdout minus the `trace: ...` note (which names the output path).
fn tables_only(stdout: &str) -> String {
    stdout
        .lines()
        .filter(|l| !l.starts_with("trace:"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn deterministic_trace_section_is_identical_across_thread_counts() {
    let t1 = temp_path("p1.jsonl");
    let t4 = temp_path("p4.jsonl");
    let out1 = reproduce(1, "fig3a", t1.to_str().unwrap());
    let out4 = reproduce(4, "fig3a", t4.to_str().unwrap());

    let trace1 = std::fs::read_to_string(&t1).expect("trace written");
    let trace4 = std::fs::read_to_string(&t4).expect("trace written");
    let det1 = deterministic_section(&trace1);
    let det4 = deterministic_section(&trace4);

    // The sweep is one span line carrying its shape.
    assert_eq!(
        det1,
        "{\"seq\":0,\"level\":\"info\",\"event\":\"span\",\"fields\":\
         {\"path\":\"fig3a\",\"calls\":1,\"points\":10,\"seeds\":2,\"cells\":20}}",
        "{det1}"
    );
    assert_eq!(det1, det4, "deterministic sections diverged");

    // The wall-clock profile section exists but stays out of the
    // deterministic lines.
    assert!(trace1.contains("\"section\":\"profile\""), "{trace1}");
    for line in trace1
        .lines()
        .filter(|l| l.contains("\"section\":\"profile\""))
    {
        assert!(!line.starts_with("{\"seq\":"), "{line}");
    }

    // Tracing on, any worker count: the summary tables are unchanged,
    // and match an untraced run.
    assert_eq!(tables_only(&out1), tables_only(&out4));
    let untraced = run(ParsedArgs::parse(
        ["reproduce", "--figure", "fig3a", "--seeds", "2"].map(String::from),
    )
    .expect("valid arguments"))
    .expect("reproduce runs");
    assert_eq!(tables_only(&out1), tables_only(&untraced));

    let _ = std::fs::remove_file(t1);
    let _ = std::fs::remove_file(t4);
}

#[test]
fn a_single_auction_figure_nests_engine_spans_under_its_own() {
    let trace = temp_path("fig4a.jsonl");
    reproduce(1, "fig4a", trace.to_str().unwrap());
    let det = deterministic_section(&std::fs::read_to_string(&trace).expect("trace written"));
    let paths: Vec<&str> = det
        .lines()
        .map(|l| {
            l.split("\"path\":\"")
                .nth(1)
                .and_then(|rest| rest.split('"').next())
                .expect("a span line")
        })
        .collect();
    assert_eq!(paths.first(), Some(&"fig4a"), "{det}");
    assert!(paths.len() > 1, "{det}");
    assert!(
        paths[1..].iter().all(|p| p.starts_with("fig4a.ssam")),
        "{det}"
    );
    let _ = std::fs::remove_file(trace);
}
