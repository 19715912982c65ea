//! The edge-market benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--trace-out DIR]
//! ```
//!
//! With `--workload` it runs one workload in this process and prints, as
//! its last line, one JSON object: `correct`, `attempted`, `failed` and
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Without it, it runs every workload, each in a child
//! process, and exits non-zero if any check fails. See README.md.

mod auction;
mod federation;
mod gen;
mod heap;
mod host;
mod layers;
mod stats;
mod wire;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// The seed whose canary digests are committed in the workload configs.
pub const DEFAULT_SEED: u64 = 1;

pub const WORKLOADS: [&str; 4] = [
    "auction-steady",
    "auction-pricing",
    "service-wire",
    "federation-lossy",
];

/// End-to-end metrics, reported by every workload (`--trace 0`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics, reported by every workload (`--trace 1`); a layer
/// the workload does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("round_self_ms", "ms"),
    ("patch_ms", "ms"),
    ("arena_build_ms", "ms"),
    ("merge_ms", "ms"),
    ("ssam_self_ms", "ms"),
    ("prefix_build_ms", "ms"),
    ("replays_ms", "ms"),
    ("instance_new_ms", "ms"),
    ("backfill_ms", "ms"),
    ("stage_self_ms", "ms"),
    ("provider_ms", "ms"),
    ("fed_deliver_ms", "ms"),
    ("dirty_sellers", "count"),
    ("patch_reuse_ratio", "ratio"),
    ("lane_head_reads_per_scan", "ratio"),
    ("replay_iterations", "count"),
    ("prefix_hit_ratio", "ratio"),
    ("svc_check_us", "us"),
    ("svc_apply_bid_us", "us"),
    ("svc_apply_withdraw_us", "us"),
    ("svc_apply_demand_us", "us"),
    ("svc_apply_default_us", "us"),
    ("log_append_us", "us"),
    ("log_parse_us", "us"),
    ("replay_eps", "1/s"),
    ("wire_parse_us", "us"),
    ("http_429", "count"),
    ("gen_late_ms_max", "ms"),
    ("transport_wait_ms", "ms"),
    ("fed_records", "count"),
    ("net_delivered", "count"),
    ("net_dropped", "count"),
    ("deal_fill_ratio", "ratio"),
    ("tracing_overhead_pct", "%"),
];

/// Per-layer metrics only `service-wire` reaches.
pub const SERVICE_METRICS: &[&str] = &[
    "svc_check_us",
    "svc_apply_bid_us",
    "svc_apply_withdraw_us",
    "svc_apply_demand_us",
    "svc_apply_default_us",
    "log_append_us",
    "log_parse_us",
    "replay_eps",
    "wire_parse_us",
    "http_429",
    "gen_late_ms_max",
    "transport_wait_ms",
];

/// Per-layer metrics only `federation-lossy` reaches.
pub const FEDERATION_METRICS: &[&str] = &[
    "fed_records",
    "net_delivered",
    "net_dropped",
    "deal_fill_ratio",
];

#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// What one workload run measured and found.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; the run is correct when there are none.
    pub problems: Vec<String>,
    values: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
    /// Folded span stacks of the traced operations.
    pub folded: String,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn set_all(&mut self, values: Vec<(&'static str, f64)>) {
        self.values.extend(values);
    }

    /// Layers this workload never reaches read 0.
    pub fn bypass(&mut self, names: &[&'static str]) {
        for &name in names {
            self.set(name, 0.0);
        }
    }

    /// Fills every metric not yet set with 0 (after a fatal failure).
    pub fn bypass_all(&mut self) {
        for (name, _) in END_TO_END.iter().chain(&PER_LAYER) {
            self.values.entry(name).or_insert(0.0);
        }
    }

    /// `tracing_overhead_pct` from the medians of traced and untraced
    /// operations of the same run.
    pub fn set_overhead(&mut self, traced: f64, untraced: f64) {
        self.set("tracing_overhead_pct", (traced / untraced - 1.0) * 100.0);
    }

    /// A failed operation or check.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Prints a digest and, when one is committed, checks it.
    pub fn digest(&mut self, label: &str, hex: &str, expected: Option<&str>) {
        match expected {
            Some(want) if want != hex => {
                self.note(format!("{label} {hex} (committed {want}: MISMATCH)"));
                self.problems
                    .push(format!("{label} digest {hex} != committed {want}"));
            }
            Some(_) => self.note(format!("{label} {hex} (matches committed)")),
            None => self.note(format!("{label} {hex}")),
        }
    }

    /// The metrics of one table, in table order.
    fn table(
        &self,
        table: &[(&'static str, &'static str)],
    ) -> Vec<(&'static str, f64, &'static str)> {
        table
            .iter()
            .map(|&(name, unit)| {
                let value = *self
                    .values
                    .get(name)
                    .unwrap_or_else(|| panic!("workload did not report {name}"));
                (name, value, unit)
            })
            .collect()
    }
}

/// Scratch files (the live event log) go under the working directory,
/// the repository root the benchmark runs from.
pub fn scratch_dir() -> PathBuf {
    let dir = PathBuf::from(".bench_tmp").join(std::process::id().to_string());
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

fn remove_scratch_dir() {
    let _ = std::fs::remove_dir_all(scratch_dir());
    let _ = std::fs::remove_dir(".bench_tmp");
}

pub fn run_workload(name: &str, opts: &Opts) -> Option<Outcome> {
    let out = match name {
        "auction-steady" => auction::run(opts, &auction::steady()),
        "auction-pricing" => auction::run(opts, &auction::pricing()),
        "service-wire" => wire::run(opts, &wire::full()),
        "federation-lossy" => federation::run(opts, &federation::full()),
        _ => return None,
    };
    Some(with_memory(out))
}

/// Adds the process's memory high-water marks to a finished run.
fn with_memory(mut out: Outcome) -> Outcome {
    out.set("peak_heap_mb", heap::peak_mb());
    out.note(format!("peak resident set {:.2} MB", stats::peak_rss_mb()));
    out
}

fn json_line(out: &Outcome, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.problems.is_empty(),
        out.attempted.max(1),
        out.failed,
        body.join(",")
    )
}

struct Args {
    workload: Option<String>,
    opts: Opts,
    trace_out: Option<PathBuf>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        opts: Opts {
            seed: DEFAULT_SEED,
            seconds: 20,
            trace: false,
        },
        trace_out: None,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?),
            "--seed" => parsed.opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                parsed.opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--trace-out" => parsed.trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

fn write_trace(dir: &Path, workload: &str, out: &Outcome) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(format!("{workload}.folded")), &out.folded)?;
    let layers: Vec<String> = out
        .table(&PER_LAYER)
        .iter()
        .map(|(name, value, unit)| {
            format!("  \"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    std::fs::write(
        dir.join(format!("{workload}.layers.json")),
        format!("{{\n{}\n}}\n", layers.join(",\n")),
    )
}

/// One workload in this process.
fn single(workload: &str, args: &Args) -> ExitCode {
    let Some(out) = run_workload(workload, &args.opts) else {
        eprintln!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    remove_scratch_dir();
    for note in &out.notes {
        println!("{workload} {note}");
    }
    for problem in &out.problems {
        println!("{workload} CHECK FAILED: {problem}");
    }
    let table = if args.opts.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let metrics = out.table(table);
    for (name, value, unit) in &metrics {
        println!("{workload} {name} {value} {unit}");
    }
    println!(
        "{workload} attempted {} failed {}",
        out.attempted, out.failed
    );
    if let (true, Some(dir)) = (args.opts.trace, &args.trace_out) {
        if let Err(e) = write_trace(dir, workload, &out) {
            eprintln!("cannot write the trace to {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", json_line(&out, &metrics));
    if out.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload, each in a child process of this executable.
fn all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in WORKLOADS {
        let mut child = std::process::Command::new(&exe);
        child.args([
            "--workload",
            workload,
            "--seed",
            &args.opts.seed.to_string(),
            "--seconds",
            &args.opts.seconds.to_string(),
            "--trace",
            if args.opts.trace { "1" } else { "0" },
        ]);
        if let Some(dir) = &args.trace_out {
            child.arg("--trace-out").arg(dir);
        }
        match child.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("{workload} exited with {status}");
                ok = false;
            }
            Err(e) => {
                eprintln!("{workload} did not start: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match args.workload.clone() {
        Some(workload) => single(&workload, &args),
        None => all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::MarketShape;
    use std::sync::Mutex;

    /// The span profiler and the metric registry are process-global.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn opts(trace: bool) -> Opts {
        Opts {
            seed: 3,
            seconds: 0,
            trace,
        }
    }

    fn tiny_auction(canary: Option<&'static str>) -> auction::AuctionConfig {
        auction::AuctionConfig {
            shape: MarketShape {
                sellers: 300,
                capacity: 8,
                demand: 40,
                rounds_per_stage: 3,
                churn: 0.1,
            },
            min_stages: 4,
            canary,
        }
    }

    fn tiny_wire() -> wire::WireConfig {
        wire::WireConfig {
            sellers: 20,
            interval_ms: 20,
            rate: 200.0,
        }
    }

    fn tiny_federation() -> federation::FedConfig {
        federation::FedConfig {
            platforms: 3,
            sellers: 4,
            requests: 18,
            rounds: 12,
            min_runs: 4,
            canary: None,
        }
    }

    fn assert_reports_every_metric(run: impl Fn(&Opts) -> Outcome) {
        for trace in [false, true] {
            let out = run(&opts(trace));
            assert!(out.problems.is_empty(), "{:?}", out.problems);
            assert!(out.attempted > 0);
            let table = if trace {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            };
            for (name, value, _) in out.table(table) {
                assert!(value.is_finite(), "{name} = {value}");
            }
        }
    }

    #[test]
    fn each_workload_reports_every_metric() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        assert_reports_every_metric(|o| with_memory(auction::run(o, &tiny_auction(None))));
        assert_reports_every_metric(|o| with_memory(federation::run(o, &tiny_federation())));
        // Give the closed loop at least a moment in a zero-second run.
        assert_reports_every_metric(|o| {
            let o = Opts {
                seconds: 1,
                ..o.clone()
            };
            with_memory(wire::run(&o, &tiny_wire()))
        });
        remove_scratch_dir();
    }

    #[test]
    fn a_tampered_digest_fails_the_check() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let mut canary = crate::gen::Market::new(tiny_auction(None).shape, DEFAULT_SEED);
        let (sellers, rounds) = canary.next_stage();
        let instance = crate::gen::instance(sellers, rounds);
        let outcome =
            edge_auction::msoa::run_msoa(&instance, &edge_auction::msoa::MsoaConfig::pinned(2.0))
                .unwrap();
        let good: &'static str =
            Box::leak(format!("{:016x}", auction::digest(&outcome)).into_boxed_str());
        let mut bad = good.to_owned();
        bad.replace_range(0..1, if good.starts_with('0') { "1" } else { "0" });
        let bad: &'static str = Box::leak(bad.into_boxed_str());

        assert!(auction::run(&opts(false), &tiny_auction(Some(good)))
            .problems
            .is_empty());
        let tampered = auction::run(&opts(false), &tiny_auction(Some(bad)));
        assert_eq!(tampered.problems.len(), 1, "{:?}", tampered.problems);
        assert!(tampered.problems[0].contains("canary digest"));
    }

    #[test]
    fn the_result_line_is_json_with_all_digits() {
        let mut out = Outcome {
            attempted: 7,
            ..Outcome::default()
        };
        out.set("setup_s", 0.123_456_789_012_345);
        let line = json_line(&out, &out.table(&[("setup_s", "s")]));
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":7,\"failed\":0,\"metrics\":\
             {\"setup_s\":{\"value\":0.123456789012345,\"unit\":\"s\"}}}"
        );
    }

    #[test]
    fn benchmark_json_lists_the_same_workloads_and_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for w in WORKLOADS {
            assert!(
                json.contains(&format!("{{\"name\": \"{w}\", \"why\"")),
                "{w}"
            );
        }
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                json.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} [{unit}]"
            );
        }
        assert_eq!(
            json.matches("\"name\": ").count(),
            WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn arguments_parse_and_bad_values_are_refused() {
        let args = |s: &str| parse_args(s.split_whitespace().map(str::to_owned));
        let a = args("--workload service-wire --seed 9 --seconds 4 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("service-wire"));
        assert_eq!((a.opts.seed, a.opts.seconds, a.opts.trace), (9, 4, true));
        assert!(args("--trace 2").is_err());
        assert!(args("--seed").is_err());
        assert!(args("--bogus 1").is_err());
    }
}
