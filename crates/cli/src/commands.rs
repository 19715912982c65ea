//! Command implementations.
//!
//! Every command is a pure function from parsed arguments to a rendered
//! `String` (plus optional file side effects), so the whole CLI is
//! testable without spawning processes.

use crate::args::{ArgsError, ParsedArgs};
use crate::explain::{explain_round, parse_trace, ExplainError};
use crate::faults::parse_fault_plan;
use crate::plan_file::PlanError;
use edge_auction::bid::{Bid, Seller};
use edge_auction::chain_log::has_header;
use edge_auction::federation::FedChain;
use edge_auction::msoa::{run_msoa_traced, MsoaConfig, MultiRoundInstance, RoundInput};
use edge_auction::properties::{
    audit_truthfulness, check_critical_payments, check_individual_rationality, check_monotonicity,
};
use edge_auction::recovery::{run_msoa_with_faults_traced, FaultPlan, RecoveryConfig};
use edge_auction::ssam::{run_ssam, run_ssam_traced, SsamConfig};
use edge_auction::variants::{run_variant, transform_instance, MsoaVariant};
use edge_auction::wsp::WspInstance;
use edge_bench::scenario::{multi_round_instance, single_round_instance};
use edge_common::rng::derive_rng;
use edge_telemetry::{Collector, Scoped, Trace};
use edge_workload::params::PaperParams;
use std::error::Error;
use std::fmt::Write as _;
use std::fs;

/// Top-level CLI error.
#[derive(Debug)]
pub enum CliError {
    /// Argument problem.
    Args(ArgsError),
    /// Unknown subcommand.
    UnknownCommand(String),
    /// File I/O problem.
    Io(std::io::Error),
    /// JSON (de)serialization problem.
    Json(serde_json::Error),
    /// The mechanism rejected the instance.
    Auction(edge_auction::AuctionError),
    /// A scenario file passed every constructor but is not the instance
    /// they build from its contents.
    Scenario(&'static str),
    /// A `--faults` or `--net-faults` plan file failed to parse.
    Plan(PlanError),
    /// Two flags that cannot be combined.
    FlagConflict(&'static str, &'static str),
    /// A `--trace` file failed to parse or lacks the requested round.
    Explain(ExplainError),
    /// `bench diff` found a regression (or had nothing to compare);
    /// carries the rendered report.
    BenchRegression(String),
    /// `metrics-lint` rejected an exposition file.
    Lint(String),
    /// The event-sourced service refused an event structurally.
    Service(edge_auction::service::ServiceError),
    /// An event log or federation log failed to read, verify, or
    /// replay.
    Log(edge_auction::chain_log::LogError),
    /// The federation refused to build or run; carries the detail.
    Federation(String),
    /// A `replay` flag contradicts the value recorded in the log header.
    ReplayConflict {
        /// The conflicting flag.
        flag: &'static str,
        /// The value passed on the command line.
        cli: String,
        /// The value the log header records.
        header: String,
    },
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::UnknownCommand(c) => {
                write!(f, "unknown command '{c}'; try `edge-market help`")
            }
            CliError::Io(e) => write!(f, "io error: {e}"),
            CliError::Json(e) => write!(f, "json error: {e}"),
            CliError::Auction(e) => write!(f, "auction error: {e}"),
            CliError::Scenario(e) => write!(f, "scenario error: {e}"),
            CliError::Plan(e) => write!(f, "plan file error: {e}"),
            CliError::FlagConflict(a, b) => {
                write!(f, "--{a} cannot be combined with --{b}")
            }
            CliError::Explain(e) => write!(f, "explain error: {e}"),
            CliError::BenchRegression(report) => write!(f, "bench regression\n{report}"),
            CliError::Lint(e) => write!(f, "metrics lint failed: {e}"),
            CliError::Service(e) => write!(f, "service error: {e}"),
            CliError::Log(e) => write!(f, "log error: {e}"),
            CliError::Federation(e) => write!(f, "federation error: {e}"),
            CliError::ReplayConflict { flag, cli, header } => write!(
                f,
                "--{flag} {cli} contradicts the log header (which records {flag} = {header}); \
                 replay always uses the header — drop the flag, or pass --{flag} {header} \
                 to assert it"
            ),
        }
    }
}

impl Error for CliError {}

impl From<ArgsError> for CliError {
    fn from(e: ArgsError) -> Self {
        CliError::Args(e)
    }
}
impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}
impl From<serde_json::Error> for CliError {
    fn from(e: serde_json::Error) -> Self {
        CliError::Json(e)
    }
}
impl From<edge_auction::AuctionError> for CliError {
    fn from(e: edge_auction::AuctionError) -> Self {
        CliError::Auction(e)
    }
}
impl From<PlanError> for CliError {
    fn from(e: PlanError) -> Self {
        CliError::Plan(e)
    }
}
impl From<ExplainError> for CliError {
    fn from(e: ExplainError) -> Self {
        CliError::Explain(e)
    }
}
impl From<edge_auction::service::ServiceError> for CliError {
    fn from(e: edge_auction::service::ServiceError) -> Self {
        CliError::Service(e)
    }
}
impl From<edge_auction::chain_log::LogError> for CliError {
    fn from(e: edge_auction::chain_log::LogError) -> Self {
        CliError::Log(e)
    }
}

/// Dispatches a parsed command line and returns the rendered output.
///
/// # Errors
///
/// Any [`CliError`]; the binary prints it to stderr and exits nonzero.
pub fn run(args: ParsedArgs) -> Result<String, CliError> {
    match args.command.as_str() {
        "help" => Ok(help()),
        "generate" => generate(&args),
        "generate-round" => generate_round(&args),
        "ssam" => ssam(&args),
        "msoa" => msoa(&args),
        "audit" => audit(&args),
        "reproduce" => reproduce(&args),
        "profile" => crate::profile::profile(&args),
        "explain" => explain(&args),
        "serve" => serve(&args),
        "federate" => crate::federate::federate(&args),
        "replay" => crate::replay::replay(&args),
        "bench" => match args.subcommand.as_deref() {
            Some("diff") => crate::bench_diff::bench_diff(&args),
            Some(other) => Err(CliError::UnknownCommand(format!("bench {other}"))),
            None => Err(CliError::UnknownCommand("bench (try `bench diff`)".into())),
        },
        "metrics-lint" => metrics_lint(&args),
        other => Err(CliError::UnknownCommand(other.to_owned())),
    }
}

/// The help text.
pub fn help() -> String {
    "\
edge-market — auction mechanisms for edge-cloud resource sharing

USAGE:
    edge-market <command> [--flag value]...

COMMANDS:
    generate        write a multi-round auction scenario as JSON
                    [--seed N] [--microservices S] [--rounds T]
                    [--bids J] [--requests R] [--noise F] --out FILE
    generate-round  write a single-round (SSAM) instance as JSON
                    [--seed N] [--microservices S] [--bids J] --out FILE
    ssam            run the single-stage auction on an instance
                    --input FILE [--reserve PRICE] [--trace OUT.jsonl]
    msoa            run the online auction on a multi-round scenario
                    --input FILE [--variant plain|da|rc|oa]
                    [--faults PLAN.toml] [--recovery on|off]
                    [--trace OUT.jsonl]
                    (--faults runs the fault-injection pipeline and
                    cannot be combined with --variant)
    audit           audit mechanism properties on an instance
                    --input FILE [--reserve PRICE]
    reproduce       re-run the paper's evaluation figures
                    [--figure NAME|all] [--seeds N] [--parallel THREADS]
                    [--trace OUT.jsonl]
                    --figure scale runs the (non-figure) scale benchmark
                    and writes a machine-readable report
                    [--scale-out FILE] [--scale-max-n N]
                    --figure fed-faults runs the (non-figure) federation
                    fault sweep and writes BENCH_federation.json
                    [--fed-out FILE]
    profile         run a scale-class MSOA instance under the span
                    profiler and render the stage-attributed waterfall:
                    per-stage total/self wall time with percentages, the
                    attribution line, deterministic per-span counters
                    (replays, pop_best scans, backfill rungs), and
                    profile-side engine diagnostics (lane widths,
                    head-read totals, pricing-pool decisions); span
                    structure is byte-identical at every pool size —
                    only measured durations move
                    [--scale-n N] [--rounds T] [--seed N]
                    [--faults PLAN.toml] [--recovery on|off]
                    [--trace OUT.jsonl] [--folded OUT.folded]
                    [--folded-weight ns|calls]
    explain         narrate one round of a recorded trace: exclusions,
                    ψ scaling, greedy order, and each winner's critical
                    payment with its runner-up provenance, recomputed
                    and verified
                    --trace FILE --round R [--seller S]
                    --summary renders a one-screen per-round aggregate
                    table instead (winners, payments, pricing effort)
                    --trace FILE --summary
                    --deal DEAL reconstructs one re-sell deal's causal
                    timeline (spans, retransmits, drops, expiries) from
                    a federation log or federation trace, re-deriving
                    fill units and resale revenue against the recorded
                    node counters; --deals renders the all-deals table
                    --trace FED_LOG_OR_TRACE --deal platform#0/1
                    --trace FED_LOG_OR_TRACE --deals
    serve           run the event-sourced serving daemon: seeded MSOA
                    stages over a workload-generated arrival stream,
                    with /metrics (Prometheus text format), /healthz,
                    and /status (JSON) on a local HTTP listener, plus a
                    wire API for live market events — POST /v1/bid,
                    /v1/bid/withdraw, /v1/demand, /v1/round/close,
                    /v1/default (JSON bodies; structured JSON replies;
                    bounded ingress queue answers 429 when full).
                    Every accepted event is appended to --event-log as
                    digest-chained JSONL; scraping never perturbs
                    auction outcomes
                    [--seed N] [--microservices S] [--requests R]
                    [--rounds N (0 = forever)] [--stage-rounds T]
                    [--interval-ms MS] [--port P (0 = ephemeral)]
                    [--http on|off] [--ingest on|off]
                    [--event-log OUT.jsonl] [--queue-cap N]
                    [--book-cap N] [--demand-cap N]
                    [--trace OUT.jsonl]
                    [--spans on|off (default off): collect the span
                    profiler tree and flush it into --trace; live
                    edge_profile_* families are always exported]
    federate        run a multi-platform federation over the
                    deterministic in-process network substrate:
                    platforms gossip post-stage surplus/prices and
                    re-sell spare capacity via a two-phase offer/commit
                    protocol with deterministic timeouts and bounded
                    retries; partitioned platforms degrade to local-only
                    clearing and reconcile on heal; every message and
                    deal transition is folded into a digest-chained
                    federation log (--fed-log) that replay re-executes
                    byte-identically; --trace additionally records each
                    deal's causal lifecycle (span ids deal#hop, with
                    fed_seq provenance into the log) for explain --deal
                    [--platforms K] [--net-faults PLAN.toml]
                    [--seed N] [--microservices S] [--requests R]
                    [--rounds N] [--stage-rounds T]
                    [--round-ticks T] [--offer-timeout T]
                    [--max-retries N] [--retries on|off]
                    [--book-cap N] [--demand-cap N]
                    [--fed-log OUT.jsonl] [--trace OUT.jsonl]
                    [--spans on|off]
    replay          re-execute a recorded serve run from its event log,
                    offline: verifies the per-record digest chain, then
                    reproduces outcome digests and deterministic trace
                    sections byte-identically (at any pricing pool
                    size); a trailing partial record from a mid-write
                    crash is dropped with a note; federation logs
                    (federate --fed-log) are detected automatically and
                    re-run through the network substrate with
                    record-for-record verification; config flags
                    (--seed, --microservices, --requests, --rounds,
                    --stage-rounds, --book-cap, --demand-cap,
                    --platforms) are assertions — replay always uses the
                    log header and errors loudly when a flag contradicts
                    it
                    <log.jsonl> [--trace OUT.jsonl] [--spans on|off]
    bench diff      compare a fresh scale run (or --fresh FILE) against
                    the committed baseline; digests must match exactly,
                    wall-clock medians within --tolerance; exits
                    nonzero on regression; --profile breaks each
                    regressing cell down by stage (selection vs merge vs
                    pricing) and names the worst-regressing stage
                    [--baseline BENCH_scale.json] [--fresh FILE]
                    [--scale-max-n N]
                    [--tolerance F (relative, default 1.0)] [--profile]
    metrics-lint    validate a Prometheus text-format exposition file
                    --file FILE (use - for stdin)
                    [--require fam1,fam2,...] asserts the named metric
                    families are present (exits nonzero listing any
                    missing); a pattern with '*' matches by glob, e.g.
                    edge_profile_* requires at least one such family
    help            show this text
"
    .to_owned()
}

fn params_from(args: &ParsedArgs) -> Result<(PaperParams, u64), CliError> {
    let seed = args.get_or("seed", 42u64)?;
    let params = PaperParams::default()
        .with_microservices(args.get_or("microservices", 25usize)?)
        .with_rounds(args.get_or("rounds", 10u64)?)
        .with_bids_per_seller(args.get_or("bids", 2usize)?)
        .with_requests(args.get_or("requests", 100u64)?);
    Ok((params, seed))
}

fn generate(args: &ParsedArgs) -> Result<String, CliError> {
    args.allow_only(&[
        "seed",
        "microservices",
        "rounds",
        "bids",
        "requests",
        "noise",
        "out",
    ])?;
    let (params, seed) = params_from(args)?;
    let noise = args.get_or("noise", 0.25f64)?;
    let out = args.require("out")?;
    let mut rng = derive_rng(seed, "cli-generate");
    let instance = multi_round_instance(&params, noise, &mut rng);
    fs::write(out, serde_json::to_string_pretty(&instance)?)?;
    Ok(format!(
        "wrote {} rounds × {} sellers to {out}\n",
        instance.num_rounds(),
        instance.sellers().len()
    ))
}

fn generate_round(args: &ParsedArgs) -> Result<String, CliError> {
    args.allow_only(&["seed", "microservices", "bids", "requests", "out"])?;
    let (params, seed) = params_from(args)?;
    let out = args.require("out")?;
    let mut rng = derive_rng(seed, "cli-generate-round");
    let instance = single_round_instance(&params, &mut rng);
    fs::write(out, serde_json::to_string_pretty(&instance)?)?;
    Ok(format!(
        "wrote single-round instance ({} sellers, demand {}) to {out}\n",
        instance.num_sellers(),
        instance.demand()
    ))
}

fn ssam_config(args: &ParsedArgs) -> Result<SsamConfig, CliError> {
    let reserve = match args.get("reserve") {
        None => None,
        Some(raw) => Some(raw.parse().map_err(|_| ArgsError::InvalidValue {
            flag: "reserve".into(),
            value: raw.to_owned(),
        })?),
    };
    Ok(SsamConfig {
        reserve_unit_price: reserve,
    })
}

/// Reads a single-round scenario file and rebuilds it through
/// [`Bid::new`] and [`WspInstance::new`], so a malformed file fails with
/// the constructor's error instead of reaching the mechanism.
fn load_round(path: &str) -> Result<WspInstance, CliError> {
    let raw: WspInstance = serde_json::from_str(&fs::read_to_string(path)?)?;
    let bids = raw.bids().map(rebuild_bid).collect::<Result<_, _>>()?;
    let instance = WspInstance::new(raw.demand(), bids)?;
    if instance != raw {
        return Err(CliError::Scenario(
            "groups must hold each seller's bids, one non-empty group per seller in first-bid order",
        ));
    }
    Ok(instance)
}

/// A multi-round scenario file as written. It bears the name and the
/// fields of [`MultiRoundInstance`]'s JSON form, so a file of the wrong
/// shape fails with the same message, but nothing is checked until
/// [`load_rounds`] rebuilds it through the constructors.
mod file {
    use edge_auction::bid::Seller;
    use edge_auction::msoa::RoundInput;

    #[derive(serde::Deserialize)]
    pub(super) struct MultiRoundInstance {
        pub(super) sellers: Vec<Seller>,
        pub(super) rounds: Vec<RoundInput>,
    }
}

/// Reads a multi-round scenario file and rebuilds it through
/// [`Seller::new`], [`Bid::new`] and [`MultiRoundInstance::new`].
fn load_rounds(path: &str) -> Result<MultiRoundInstance, CliError> {
    let raw: file::MultiRoundInstance = serde_json::from_str(&fs::read_to_string(path)?)?;
    let sellers = raw
        .sellers
        .iter()
        .map(|s| Seller::new(s.id, s.capacity, s.window))
        .collect::<Result<_, _>>()?;
    let rounds = raw
        .rounds
        .iter()
        .map(|r| {
            let bids = r.bids.iter().map(rebuild_bid).collect::<Result<_, _>>()?;
            Ok(RoundInput::new(r.estimated_demand, r.true_demand, bids))
        })
        .collect::<Result<_, edge_auction::AuctionError>>()?;
    Ok(MultiRoundInstance::new(sellers, rounds)?)
}

fn rebuild_bid(b: &Bid) -> Result<Bid, edge_auction::AuctionError> {
    Bid::new(b.seller, b.id, b.amount, b.price.value())
}

fn ssam(args: &ParsedArgs) -> Result<String, CliError> {
    args.allow_only(&["input", "reserve", "trace"])?;
    let instance = load_round(args.require("input")?)?;
    let config = ssam_config(args)?;
    let mut trace_note = String::new();
    let outcome = match args.get("trace") {
        Some(path) => {
            let collector = Collector::new();
            // A bare SSAM run is round 0, so `explain --round 0` works
            // on its trace the same as on a multi-round one.
            let scoped = Scoped::new(&collector, vec![("round", 0u64.into())]);
            let outcome = run_ssam_traced(&instance, &config, Trace::new(&scoped))?;
            fs::write(path, collector.to_jsonl())?;
            let _ = writeln!(trace_note, "trace: {} events → {path}", collector.len());
            outcome
        }
        None => run_ssam(&instance, &config)?,
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "demand: {} units, winners: {}",
        outcome.demand,
        outcome.winners.len()
    );
    for w in &outcome.winners {
        let _ = writeln!(
            out,
            "  {} bid#{}: {}u (counted {}) at {} → paid {}",
            w.seller,
            w.bid.index(),
            w.amount_offered,
            w.contribution,
            w.price,
            w.payment
        );
    }
    let _ = writeln!(out, "social cost : {}", outcome.social_cost);
    let _ = writeln!(out, "payments    : {}", outcome.total_payment);
    let _ = writeln!(
        out,
        "certified π : {:.3} (dual objective {:.3})",
        outcome.certificate.pi, outcome.certificate.dual_objective
    );
    out.push_str(&trace_note);
    Ok(out)
}

fn msoa(args: &ParsedArgs) -> Result<String, CliError> {
    args.allow_only(&["input", "variant", "reserve", "faults", "recovery", "trace"])?;
    let fault_mode = args.get("faults").is_some() || args.get("recovery").is_some();
    if fault_mode && args.get("variant").is_some() {
        return Err(CliError::FlagConflict("variant", "faults"));
    }
    let recovery = match args.get("recovery").unwrap_or("on") {
        "on" => RecoveryConfig::default(),
        "off" => RecoveryConfig::disabled(),
        other => {
            return Err(ArgsError::InvalidValue {
                flag: "recovery".into(),
                value: other.to_owned(),
            }
            .into())
        }
    };
    let instance = load_rounds(args.require("input")?)?;
    if fault_mode {
        return msoa_faulty(args, &instance, &recovery);
    }
    let variant = match args.get("variant").unwrap_or("plain") {
        "plain" => MsoaVariant::Plain,
        "da" => MsoaVariant::DemandAware,
        "rc" => MsoaVariant::RelaxedCapacity { factor: 2.0 },
        "oa" => MsoaVariant::Optimized { factor: 2.0 },
        other => {
            return Err(ArgsError::InvalidValue {
                flag: "variant".into(),
                value: other.to_owned(),
            }
            .into())
        }
    };
    let config = MsoaConfig {
        ssam: ssam_config(args)?,
        alpha: None,
    };
    let mut trace_note = String::new();
    let outcome = match args.get("trace") {
        Some(path) => {
            // `run_variant` is `run_msoa ∘ transform_instance`, so the
            // traced path composes the same way and every variant's
            // decisions are explainable.
            let collector = Collector::new();
            let transformed = transform_instance(&instance, variant);
            let outcome = run_msoa_traced(&transformed, &config, Trace::new(&collector))?;
            fs::write(path, collector.to_jsonl())?;
            let _ = writeln!(trace_note, "trace: {} events → {path}", collector.len());
            outcome
        }
        None => run_variant(&instance, &config, variant)?,
    };
    let mut out = String::new();
    let _ = writeln!(out, "variant {variant}: {} rounds", outcome.rounds.len());
    for r in &outcome.rounds {
        let _ = writeln!(
            out,
            "  round {:>3}: demand {:>4}, winners {:>3}, cost {}, paid {}{}",
            r.round,
            r.demand,
            r.winners.len(),
            r.social_cost,
            r.total_payment,
            if r.infeasible { "  [uncovered]" } else { "" }
        );
    }
    let _ = writeln!(out, "social cost      : {}", outcome.social_cost);
    let _ = writeln!(out, "payments         : {}", outcome.total_payment);
    let _ = writeln!(
        out,
        "competitive bound: {:.3} (α {:.2}, β {:.2})",
        outcome.competitive_bound, outcome.alpha, outcome.beta
    );
    out.push_str(&trace_note);
    Ok(out)
}

/// The `msoa` command with the fault-injection pipeline engaged
/// (`--faults` and/or `--recovery` given).
fn msoa_faulty(
    args: &ParsedArgs,
    instance: &MultiRoundInstance,
    recovery: &RecoveryConfig,
) -> Result<String, CliError> {
    let plan = match args.get("faults") {
        Some(path) => parse_fault_plan(&fs::read_to_string(path)?)?,
        None => FaultPlan::empty(),
    };
    let config = MsoaConfig {
        ssam: ssam_config(args)?,
        alpha: None,
    };
    let mut trace_note = String::new();
    let outcome = match args.get("trace") {
        Some(path) => {
            let collector = Collector::new();
            let outcome = run_msoa_with_faults_traced(
                instance,
                &config,
                &plan,
                recovery,
                Trace::new(&collector),
            )?;
            fs::write(path, collector.to_jsonl())?;
            let _ = writeln!(trace_note, "trace: {} events → {path}", collector.len());
            outcome
        }
        None => run_msoa_with_faults_traced(instance, &config, &plan, recovery, Trace::off())?,
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fault plan: {} defaults, {} crashes, {} dropouts; recovery {}",
        plan.defaults.len(),
        plan.crashes.len(),
        plan.dropouts.len(),
        if recovery.enabled { "on" } else { "off" }
    );
    for r in &outcome.rounds {
        let _ = write!(
            out,
            "  round {:>3}: demand {:>4}, delivered {:>4}, winners {:>3}",
            r.round,
            r.demand,
            r.delivered,
            r.winners.len()
        );
        if r.backfill_attempts > 0 {
            let _ = write!(out, ", backfills {}", r.backfill_attempts);
        }
        if r.clawed_back.value() > 0.0 {
            let _ = write!(out, ", clawed back {}", r.clawed_back);
        }
        if !r.observed.is_complete() {
            let _ = write!(out, ", observed {}", r.observed);
        }
        if r.sla_violated {
            let _ = write!(out, "  [SLA VIOLATED: {} uncovered]", r.shortfall);
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(out, "social cost       : {}", outcome.social_cost);
    let _ = writeln!(out, "platform cost     : {}", outcome.platform_cost);
    let _ = writeln!(out, "clawed back       : {}", outcome.clawed_back);
    let _ = writeln!(
        out,
        "SLA violation rate: {:.3} ({} of {} units short)",
        outcome.sla_violation_rate(),
        outcome.shortfall_units,
        outcome.demand_units
    );
    let _ = write!(out, "reliability       :");
    for (i, seller) in instance.sellers().iter().enumerate() {
        let _ = write!(
            out,
            " {} {:.2}{}",
            seller.id,
            outcome.reliability[i],
            if outcome.blacklisted[i] {
                " [blacklisted]"
            } else {
                ""
            }
        );
    }
    let _ = writeln!(out);
    out.push_str(&trace_note);
    Ok(out)
}

fn audit(args: &ParsedArgs) -> Result<String, CliError> {
    args.allow_only(&["input", "reserve"])?;
    let instance = load_round(args.require("input")?)?;
    let config = ssam_config(args)?;
    let outcome = run_ssam(&instance, &config)?;
    let deviations = [0.5, 0.8, 0.95, 1.05, 1.25, 2.0];
    let violations = audit_truthfulness(&instance, &config, &deviations)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "individual rationality : {}",
        check_individual_rationality(&outcome)
    );
    let _ = writeln!(
        out,
        "selection monotonicity : {}",
        check_monotonicity(&instance, &config)?
    );
    let _ = writeln!(
        out,
        "critical payments      : {}",
        check_critical_payments(&instance, &config, 1e-6)?
    );
    let _ = writeln!(
        out,
        "truthfulness sweep     : {} violations in {} trials",
        violations.len(),
        instance.bids().count() * deviations.len()
    );
    for v in &violations {
        let _ = writeln!(out, "  VIOLATION {v:?}");
    }
    Ok(out)
}

fn reproduce(args: &ParsedArgs) -> Result<String, CliError> {
    args.allow_only(&[
        "figure",
        "seeds",
        "parallel",
        "trace",
        "scale-out",
        "scale-max-n",
        "fed-out",
    ])?;
    let seeds = args.get_or("seeds", edge_bench::DEFAULT_SEEDS)?;
    if let Some(raw) = args.get("parallel") {
        let threads = raw.parse().map_err(|_| ArgsError::InvalidValue {
            flag: "parallel".into(),
            value: raw.to_owned(),
        })?;
        edge_bench::parallel::set_threads(threads);
    }
    let figure = args.get("figure").unwrap_or("all");
    // The scale benchmark is not a paper figure: it never runs as part
    // of `all`, and it writes its machine-readable report to a file.
    if figure == "scale" {
        return reproduce_scale(args);
    }
    if figure == "fed-faults" {
        return reproduce_fed_faults(args);
    }
    let names: Vec<&str> = if figure == "all" {
        edge_bench::report::FIGURES.to_vec()
    } else {
        vec![figure]
    };
    let collector = args.get("trace").map(|_| {
        let c = std::sync::Arc::new(Collector::new());
        edge_bench::profile::install(c.clone());
        c
    });
    let render = || -> Result<String, CliError> {
        let mut out = String::new();
        for name in &names {
            let Some(fig) = edge_bench::report::render_figure(name, seeds) else {
                return Err(ArgsError::InvalidValue {
                    flag: "figure".into(),
                    value: (*name).to_owned(),
                }
                .into());
            };
            let _ = writeln!(out, "{}\n{}", fig.title, fig.table);
        }
        Ok(out)
    };
    let rendered = render();
    if collector.is_some() {
        // Uninstall even on error so the ambient state never leaks
        // into a later in-process command (the tests run this way).
        edge_bench::profile::uninstall();
    }
    let mut out = rendered?;
    if let (Some(path), Some(collector)) = (args.get("trace"), collector) {
        fs::write(path, collector.to_jsonl())?;
        let _ = writeln!(out, "trace: {} sweep events → {path}", collector.len());
    }
    Ok(out)
}

/// `reproduce --figure scale`: run the scale benchmark and write its
/// machine-readable report ([`edge_bench::scale::ScaleReport`]).
///
/// `--scale-max-n` bounds the swept populations, one cell per size.
fn reproduce_scale(args: &ParsedArgs) -> Result<String, CliError> {
    let out_path = args.get("scale-out").unwrap_or("BENCH_scale.json");
    let max_n = args.get_or("scale-max-n", 100_000usize)?;
    let collector = args.get("trace").map(|_| {
        let c = std::sync::Arc::new(Collector::new());
        edge_bench::profile::install(c.clone());
        c
    });
    let report = edge_bench::scale::run_scale(max_n);
    if collector.is_some() {
        edge_bench::profile::uninstall();
    }
    fs::write(out_path, report.to_json())?;
    let mut out = String::new();
    let _ = writeln!(out, "Scale benchmark ({})", report.schema);
    out.push_str(&report.render());
    let _ = writeln!(
        out,
        "report: {} cells → {out_path} ({} hardware threads)",
        report.cells.len(),
        report.threads_available
    );
    if let (Some(path), Some(collector)) = (args.get("trace"), collector) {
        fs::write(path, collector.to_jsonl())?;
        let _ = writeln!(out, "trace: {} sweep events → {path}", collector.len());
    }
    Ok(out)
}

/// `reproduce --figure fed-faults`: run the federation fault sweep and
/// write its machine-readable report
/// ([`edge_bench::federation::FederationReport`]).
fn reproduce_fed_faults(args: &ParsedArgs) -> Result<String, CliError> {
    let out_path = args.get("fed-out").unwrap_or("BENCH_federation.json");
    let seed = args.get_or("seeds", 7u64)?;
    let collector = args.get("trace").map(|_| {
        let c = std::sync::Arc::new(Collector::new());
        edge_bench::profile::install(c.clone());
        c
    });
    let report = edge_bench::federation::run_federation_sweep(seed);
    if collector.is_some() {
        edge_bench::profile::uninstall();
    }
    fs::write(out_path, report.to_json())?;
    let mut out = String::new();
    let _ = writeln!(out, "Federation fault sweep ({})", report.schema);
    out.push_str(&report.render());
    let _ = writeln!(out, "report: {} cells → {out_path}", report.cells.len());
    if let (Some(path), Some(collector)) = (args.get("trace"), collector) {
        fs::write(path, collector.to_jsonl())?;
        let _ = writeln!(out, "trace: {} sweep events → {path}", collector.len());
    }
    Ok(out)
}

/// The `explain` command: narrate one recorded round (or aggregate the
/// whole trace with `--summary`, see [`crate::explain`]), or — for a
/// federation log / federation trace — reconstruct re-sell deal
/// timelines with `--deal` / `--deals` (see [`crate::fed_explain`]).
fn explain(args: &ParsedArgs) -> Result<String, CliError> {
    args.allow_only(&["trace", "round", "seller", "summary", "deal", "deals"])?;
    let path = args.require("trace")?;
    let deal_mode = args.get("deal").is_some() || args.get("deals").is_some();
    if deal_mode {
        for conflicting in ["round", "seller", "summary"] {
            if args.get(conflicting).is_some() {
                return Err(CliError::Federation(format!(
                    "--{conflicting} narrates auction rounds; \
                     --deal/--deals reconstruct federation deals — pick one"
                )));
            }
        }
        return explain_deals(args, path);
    }
    let text = fs::read_to_string(path)?;
    if has_header::<FedChain>(&text) {
        return Err(CliError::Federation(
            "this is a federation log, not an auction trace; use \
             `explain --trace <log> --deal <id>` (or --deals) for deal \
             timelines, or `replay --log <log>` to re-execute it"
                .to_owned(),
        ));
    }
    if args.get("summary").is_some() {
        if args.get("round").is_some() {
            return Err(CliError::FlagConflict("summary", "round"));
        }
        if args.get("seller").is_some() {
            return Err(CliError::FlagConflict("summary", "seller"));
        }
        let events = parse_trace(&text)?;
        return Ok(crate::explain::explain_summary(&events)?);
    }
    let round: u64 = match args.get("round") {
        Some(raw) => raw.parse().map_err(|_| ArgsError::InvalidValue {
            flag: "round".into(),
            value: raw.to_owned(),
        })?,
        None => return Err(ArgsError::MissingFlag("round").into()),
    };
    let seller: Option<u64> = match args.get("seller") {
        None => None,
        Some(raw) => Some(raw.parse().map_err(|_| ArgsError::InvalidValue {
            flag: "seller".into(),
            value: raw.to_owned(),
        })?),
    };
    let events = parse_trace(&text)?;
    Ok(explain_round(&events, round, seller)?)
}

/// The `--deal` / `--deals` arm of `explain`: build a [`DealLedger`]
/// from a federation log or a federation trace, then render either one
/// deal's causal timeline or the all-deals summary table.
///
/// [`DealLedger`]: crate::fed_explain::DealLedger
fn explain_deals(args: &ParsedArgs, path: &str) -> Result<String, CliError> {
    if args.get("deal").is_some() && args.get("deals").is_some() {
        return Err(CliError::FlagConflict("deal", "deals"));
    }
    let text = fs::read_to_string(path)?;
    let ledger = if has_header::<FedChain>(&text) {
        let log = edge_auction::federation::parse_fed_log(&text)?;
        crate::fed_explain::ledger_from_fed_log(&log)
    } else {
        let events = parse_trace(&text)?;
        let ledger = crate::fed_explain::ledger_from_trace(&events);
        if ledger.is_empty() {
            return Err(CliError::Federation(
                "no fed.* events in this trace — deal timelines need a \
                 `federate --trace` trace or a `federate --fed-log` log"
                    .to_owned(),
            ));
        }
        ledger
    };
    match args.get("deal") {
        Some(raw) => {
            let deal =
                crate::fed_explain::parse_deal_id(raw).ok_or_else(|| ArgsError::InvalidValue {
                    flag: "deal".into(),
                    value: raw.to_owned(),
                })?;
            ledger.render_deal(deal)
        }
        None => ledger.render_deals(),
    }
}

/// The `serve` command: start the HTTP endpoints (unless `--http off`),
/// drive the event-sourced service over seeded MSOA stages — accepting
/// wire events unless `--ingest off`, appending every accepted event to
/// `--event-log` — and report a summary on exit (see [`crate::serve`]).
fn serve(args: &ParsedArgs) -> Result<String, CliError> {
    args.allow_only(&[
        "seed",
        "microservices",
        "requests",
        "rounds",
        "stage-rounds",
        "interval-ms",
        "port",
        "http",
        "trace",
        "event-log",
        "ingest",
        "queue-cap",
        "book-cap",
        "demand-cap",
        "spans",
    ])?;
    let config = crate::serve::ServeConfig {
        seed: args.get_or("seed", 42u64)?,
        microservices: args.get_or("microservices", 25usize)?,
        requests: args.get_or("requests", 100u64)?,
        total_rounds: args.get_or("rounds", 0u64)?,
        stage_rounds: args.get_or("stage-rounds", 5u64)?.max(1),
        interval_ms: args.get_or("interval-ms", 0u64)?,
        book_cap: args.get_or("book-cap", 4096usize)?,
        demand_cap: args.get_or("demand-cap", 1_000_000u64)?,
    };
    let port = args.get_or("port", 0u16)?;
    let queue_cap = args.get_or("queue-cap", 64usize)?.max(1);
    let http = on_off_flag(args, "http", true)?;
    let ingest = on_off_flag(args, "ingest", true)?;
    let spans_on = on_off_flag(args, "spans", false)?;
    if ingest && !http && args.get("ingest").is_some() {
        return Err(CliError::FlagConflict("ingest", "http"));
    }

    // The full metric catalog (auction + recovery + service + sim +
    // federation + net + profiler families) must be visible on the very
    // first scrape, before any round has run.
    edge_auction::live::preregister();
    edge_auction::federation::preregister_federation_metrics();
    edge_sim::live::preregister();
    edge_net::preregister();
    crate::serve::preregister_ingress();
    edge_telemetry::spans::preregister();
    edge_telemetry::spans::set_live(true);
    if spans_on {
        edge_telemetry::spans::install();
    }

    let (ingress_tx, ingress_rx) = if http && ingest {
        let (tx, rx) = std::sync::mpsc::sync_channel(queue_cap);
        (Some(tx), Some(rx))
    } else {
        (None, None)
    };
    let state = std::sync::Arc::new(crate::serve::ServeState::new());
    let server = if http {
        let (addr, handle) =
            crate::serve::start_http_with_ingest(std::sync::Arc::clone(&state), port, ingress_tx)?;
        // Announce eagerly on stderr: the drive loop may run for a long
        // time (or forever) before the command's stdout is printed.
        eprintln!("serving http://{addr} (/metrics /healthz /status; POST /v1/*)");
        Some((addr, handle))
    } else {
        None
    };

    let mut log = match args.get("event-log") {
        Some(path) => Some(crate::serve::new_log_writer(
            path,
            &config.service_config(),
        )?),
        None => None,
    };
    let collector = args.get("trace").map(|_| Collector::new());
    let drive_result =
        crate::serve::drive_service(&config, &state, collector.as_ref(), ingress_rx, &mut log);
    if spans_on {
        // Flush the stage-attributed span tree into the trace: the
        // deterministic side (structure, calls, counters) joins the
        // seq-numbered section, durations join the profile tail.
        let tree = edge_telemetry::spans::uninstall();
        if let (Some(tree), Some(collector)) = (tree, collector.as_ref()) {
            tree.flush_into(collector);
        }
    }
    edge_telemetry::spans::set_live(false);
    state.request_shutdown();
    let server_note = match server {
        Some((addr, handle)) => {
            let _ = handle.join();
            format!("served on http://{addr}\n")
        }
        None => String::new(),
    };
    let summary = drive_result?;

    let mut out = String::new();
    let _ = write!(out, "{server_note}");
    let _ = writeln!(
        out,
        "drove {} stages, {} auction rounds (seed {})",
        summary.stages, summary.rounds, config.seed
    );
    if let Some(digest) = &summary.last_digest {
        let _ = writeln!(out, "last outcome digest: {digest}");
    }
    if let (Some(path), Some(writer)) = (args.get("event-log"), &log) {
        let _ = writeln!(out, "event log: {} records → {path}", writer.len());
    }
    if let (Some(path), Some(collector)) = (args.get("trace"), collector) {
        fs::write(path, collector.to_jsonl())?;
        let _ = writeln!(out, "trace: {} events → {path}", collector.len());
    }
    Ok(out)
}

/// Parses an `on`/`off` flag shared by several commands.
pub(crate) fn on_off_flag(
    args: &ParsedArgs,
    flag: &'static str,
    default: bool,
) -> Result<bool, CliError> {
    match args.get(flag).unwrap_or(if default { "on" } else { "off" }) {
        "on" => Ok(true),
        "off" => Ok(false),
        other => Err(ArgsError::InvalidValue {
            flag: flag.into(),
            value: other.to_owned(),
        }
        .into()),
    }
}

/// `*`-glob match for `metrics-lint --require` family patterns: each
/// literal segment must appear in order, anchored at both ends
/// (`edge_profile_*` matches `edge_profile_stage_ns`; `*_ns` matches
/// any `_ns`-suffixed family).
fn glob_matches(pattern: &str, name: &str) -> bool {
    let segments: Vec<&str> = pattern.split('*').collect();
    if segments.len() == 1 {
        return pattern == name;
    }
    // Anchored prefix before the first '*', anchored suffix after the
    // last, middle segments in order between them.
    let Some(mut rest) = name.strip_prefix(segments[0]) else {
        return false;
    };
    let tail = segments[segments.len() - 1];
    let Some(stripped) = rest.strip_suffix(tail) else {
        return false;
    };
    rest = stripped;
    for seg in &segments[1..segments.len() - 1] {
        if seg.is_empty() {
            continue;
        }
        match rest.find(seg) {
            Some(at) => rest = &rest[at + seg.len()..],
            None => return false,
        }
    }
    true
}

/// The `metrics-lint` command: validate a Prometheus text-format file
/// (`--file -` reads stdin). CI pipes scraped `/metrics` output here.
/// `--require a,b,c` additionally asserts that the named families are
/// present — how CI pins the `edge_fed_*` / `edge_net_*` catalogue.
fn metrics_lint(args: &ParsedArgs) -> Result<String, CliError> {
    args.allow_only(&["file", "require"])?;
    let path = args.require("file")?;
    let text = if path == "-" {
        let mut buf = String::new();
        std::io::Read::read_to_string(&mut std::io::stdin(), &mut buf)?;
        buf
    } else {
        fs::read_to_string(path)?
    };
    let (families, samples) = match edge_telemetry::registry::validate_exposition(&text) {
        Ok(counts) => counts,
        Err(e) => return Err(CliError::Lint(e)),
    };
    let mut out = format!("exposition ok: {families} families, {samples} samples\n");
    if let Some(required) = args.get("require") {
        let exposition =
            edge_telemetry::registry::parse_exposition(&text).map_err(CliError::Lint)?;
        let wanted: Vec<&str> = required
            .split(',')
            .map(str::trim)
            .filter(|n| !n.is_empty())
            .collect();
        let missing: Vec<&str> = wanted
            .iter()
            .copied()
            .filter(|name| {
                if name.contains('*') {
                    !exposition
                        .families
                        .keys()
                        .any(|family| glob_matches(name, family))
                } else {
                    !exposition.families.contains_key(*name)
                }
            })
            .collect();
        if !missing.is_empty() {
            return Err(CliError::Lint(format!(
                "missing required families: {}",
                missing.join(", ")
            )));
        }
        let _ = writeln!(out, "required families present: {0}/{0}", wanted.len());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(args: &[&str]) -> ParsedArgs {
        ParsedArgs::parse(args.iter().map(|s| (*s).to_owned())).unwrap()
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "edge-market-cli-test-{}-{name}",
            std::process::id()
        ));
        p
    }

    #[test]
    fn help_lists_all_commands() {
        let h = help();
        for cmd in [
            "generate",
            "generate-round",
            "ssam",
            "msoa",
            "audit",
            "reproduce",
            "explain",
            "profile",
        ] {
            assert!(h.contains(cmd), "help missing {cmd}");
        }
    }

    #[test]
    fn glob_matches_anchors_prefix_and_suffix() {
        assert!(glob_matches("edge_profile_*", "edge_profile_stage_ns"));
        assert!(glob_matches("edge_profile_*", "edge_profile_"));
        assert!(!glob_matches("edge_profile_*", "edge_fed_deals"));
        assert!(glob_matches("*_ns", "edge_profile_stage_ns"));
        assert!(!glob_matches("*_ns", "edge_profile_lanes"));
        assert!(glob_matches("edge_*_stage_*", "edge_profile_stage_ns"));
        assert!(!glob_matches("edge_*_stage_*", "edge_stage_profile_ns"));
        // No '*' means exact match only.
        assert!(glob_matches("edge_net_sent", "edge_net_sent"));
        assert!(!glob_matches("edge_net", "edge_net_sent"));
        assert!(glob_matches("*", "anything"));
    }

    #[test]
    fn on_off_flag_parses_and_defaults() {
        let none = parsed(&["serve"]);
        assert!(on_off_flag(&none, "spans", true).unwrap());
        assert!(!on_off_flag(&none, "spans", false).unwrap());
        let on = parsed(&["serve", "--spans", "on"]);
        assert!(on_off_flag(&on, "spans", false).unwrap());
        let off = parsed(&["serve", "--spans", "off"]);
        assert!(!on_off_flag(&off, "spans", true).unwrap());
        let bad = parsed(&["serve", "--spans", "maybe"]);
        assert!(on_off_flag(&bad, "spans", false).is_err());
    }

    #[test]
    fn ssam_trace_then_explain_names_the_runner_up() {
        use edge_auction::bid::Bid;
        use edge_common::id::{BidId, MicroserviceId};
        // Three sellers, demand 2: seller 0 ($2/u) wins alone; the
        // payment replay without it picks seller 1 ($3/u), so the
        // explanation must name seller 1 as the runner-up.
        let inst = WspInstance::new(
            2,
            vec![
                Bid::new(MicroserviceId::new(0), BidId::new(0), 2, 4.0).unwrap(),
                Bid::new(MicroserviceId::new(1), BidId::new(0), 2, 6.0).unwrap(),
                Bid::new(MicroserviceId::new(2), BidId::new(0), 2, 10.0).unwrap(),
            ],
        )
        .unwrap();
        let inst_path = temp_path("explain-inst.json");
        let inst_s = inst_path.to_str().unwrap();
        std::fs::write(&inst_path, serde_json::to_string(&inst).unwrap()).unwrap();
        let trace_path = temp_path("explain-trace.jsonl");
        let trace_s = trace_path.to_str().unwrap();

        let out = run(parsed(&["ssam", "--input", inst_s, "--trace", trace_s])).unwrap();
        assert!(out.contains("trace:"), "{out}");

        let out = run(parsed(&["explain", "--trace", trace_s, "--round", "0"])).unwrap();
        assert!(out.contains("runner-up seller 1"), "{out}");
        assert!(
            out.contains("payments verified: 1/1 reproduced exactly"),
            "{out}"
        );
        // unit 3 × 2u = 6: the exact Myerson critical value.
        assert!(out.contains("paid 6"), "{out}");

        // The seller filter narrows the narrative to one seller's bids.
        let filtered = run(parsed(&[
            "explain", "--trace", trace_s, "--round", "0", "--seller", "2",
        ]))
        .unwrap();
        assert!(!filtered.contains("runner-up"), "{filtered}");

        // Asking for a round the trace does not cover names the rounds
        // that exist.
        let err = run(parsed(&["explain", "--trace", trace_s, "--round", "9"])).unwrap_err();
        assert!(err.to_string().contains("round 9"), "{err}");
        assert!(matches!(err, CliError::Explain(_)));

        let _ = std::fs::remove_file(inst_path);
        let _ = std::fs::remove_file(trace_path);
    }

    #[test]
    fn msoa_trace_then_explain_covers_every_round() {
        let inst_path = temp_path("explain-multi.json");
        let inst_s = inst_path.to_str().unwrap();
        run(parsed(&[
            "generate",
            "--seed",
            "5",
            "--microservices",
            "6",
            "--rounds",
            "3",
            "--out",
            inst_s,
        ]))
        .unwrap();
        let trace_path = temp_path("explain-multi.jsonl");
        let trace_s = trace_path.to_str().unwrap();
        let out = run(parsed(&["msoa", "--input", inst_s, "--trace", trace_s])).unwrap();
        assert!(out.contains("trace:"), "{out}");
        for round in ["0", "1", "2"] {
            let out = run(parsed(&["explain", "--trace", trace_s, "--round", round])).unwrap();
            assert!(out.contains(&format!("round {round}")), "{out}");
            // Every winner's payment must reproduce exactly from its
            // recorded provenance — the audit-trail acceptance bar.
            if let Some(line) = out.lines().find(|l| l.starts_with("payments verified")) {
                let tally = line
                    .trim_start_matches("payments verified: ")
                    .split_whitespace()
                    .next()
                    .unwrap();
                let (ok, total) = tally.split_once('/').unwrap();
                assert_eq!(ok, total, "{out}");
            }
        }
        let _ = std::fs::remove_file(inst_path);
        let _ = std::fs::remove_file(trace_path);
    }

    #[test]
    fn reproduce_scale_writes_machine_readable_report() {
        let out_path = temp_path("scale.json");
        let out_s = out_path.to_str().unwrap();
        let out = run(parsed(&[
            "reproduce",
            "--figure",
            "scale",
            "--scale-max-n",
            "1000",
            "--scale-out",
            out_s,
        ]))
        .unwrap();
        assert!(out.contains("Scale benchmark"), "{out}");
        assert!(out.contains("1 cells"), "one cell per n: {out}");
        let json = std::fs::read_to_string(&out_path).unwrap();
        assert!(json.contains("edge-market/bench-scale/v3"), "{json}");
        // The committed n = 1000 digest: machine- and pool-independent.
        assert!(json.contains("\"bf088683df2138c2\""), "{json}");
        assert!(json.contains("\"selection_ns\""));
        assert!(!json.contains("\"threads\""), "{json}");
        let _ = std::fs::remove_file(out_path);
    }

    #[test]
    fn reproduce_single_figure_renders_table() {
        let out = run(parsed(&[
            "reproduce",
            "--figure",
            "fig4a",
            "--seeds",
            "1",
            "--parallel",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("Figure 4(a)"), "{out}");
        assert!(out.contains("payment"), "{out}");
    }

    #[test]
    fn reproduce_unknown_figure_is_rejected() {
        let err = run(parsed(&["reproduce", "--figure", "fig9z"])).unwrap_err();
        assert!(err.to_string().contains("fig9z"));
    }

    #[test]
    fn unknown_command_is_reported() {
        let err = run(parsed(&["frobnicate"])).unwrap_err();
        assert!(err.to_string().contains("frobnicate"));
        let err = run(parsed(&["bench"])).unwrap_err();
        assert!(err.to_string().contains("bench diff"), "{err}");
        let err = run(parsed(&["bench", "frob"])).unwrap_err();
        assert!(err.to_string().contains("bench frob"), "{err}");
    }

    #[test]
    fn serve_drives_rounds_and_summary_aggregates_the_trace() {
        let trace_path = temp_path("serve-trace.jsonl");
        let trace_s = trace_path.to_str().unwrap();
        // --http off exercises the drive loop without binding a port;
        // the HTTP side has its own tests and the determinism suite.
        let out = run(parsed(&[
            "serve",
            "--rounds",
            "4",
            "--stage-rounds",
            "3",
            "--microservices",
            "8",
            "--http",
            "off",
            "--trace",
            trace_s,
        ]))
        .unwrap();
        assert!(out.contains("drove 2 stages, 4 auction rounds"), "{out}");
        assert!(out.contains("last outcome digest:"), "{out}");

        // The multi-stage trace summarizes with stage.round labels.
        let summary = run(parsed(&["explain", "--summary", "--trace", trace_s])).unwrap();
        assert!(summary.contains("4 rounds"), "{summary}");
        assert!(summary.contains("0.0"), "{summary}");
        assert!(summary.contains("1.0"), "{summary}");
        assert!(summary.contains("total"), "{summary}");
        assert!(summary.contains("replays"), "{summary}");

        // --summary conflicts with the single-round selectors.
        let err = run(parsed(&[
            "explain",
            "--summary",
            "--trace",
            trace_s,
            "--round",
            "0",
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::FlagConflict("summary", "round")));
        let _ = std::fs::remove_file(trace_path);
    }

    #[test]
    fn explain_summary_aggregates_a_plain_msoa_trace() {
        let inst_path = temp_path("summary-inst.json");
        let inst_s = inst_path.to_str().unwrap();
        run(parsed(&[
            "generate",
            "--seed",
            "5",
            "--microservices",
            "6",
            "--rounds",
            "3",
            "--out",
            inst_s,
        ]))
        .unwrap();
        let trace_path = temp_path("summary-trace.jsonl");
        let trace_s = trace_path.to_str().unwrap();
        run(parsed(&["msoa", "--input", inst_s, "--trace", trace_s])).unwrap();
        let summary = run(parsed(&["explain", "--summary", "--trace", trace_s])).unwrap();
        assert!(summary.contains("3 rounds"), "{summary}");
        // Plain traces carry no stage stamp: labels are bare rounds.
        for label in ["0", "1", "2", "total"] {
            assert!(
                summary.lines().any(|l| l.trim_start().starts_with(label)),
                "missing row {label} in:\n{summary}"
            );
        }
        let _ = std::fs::remove_file(inst_path);
        let _ = std::fs::remove_file(trace_path);
    }

    #[test]
    fn metrics_lint_accepts_valid_and_rejects_broken_expositions() {
        let good = temp_path("good.prom");
        std::fs::write(&good, "# HELP x h\n# TYPE x counter\nx 1\n").unwrap();
        let out = run(parsed(&["metrics-lint", "--file", good.to_str().unwrap()])).unwrap();
        assert!(
            out.contains("exposition ok: 1 families, 1 samples"),
            "{out}"
        );

        let bad = temp_path("bad.prom");
        std::fs::write(&bad, "# HELP x h\n# TYPE x counter\nx -3\n").unwrap();
        let err = run(parsed(&["metrics-lint", "--file", bad.to_str().unwrap()])).unwrap_err();
        assert!(matches!(err, CliError::Lint(_)));
        assert!(err.to_string().contains("non-monotone"), "{err}");
        let _ = std::fs::remove_file(good);
        let _ = std::fs::remove_file(bad);
    }

    #[test]
    fn metrics_lint_require_asserts_family_presence() {
        let path = temp_path("require.prom");
        std::fs::write(
            &path,
            "# HELP x h\n# TYPE x counter\nx 1\n# HELP y h\n# TYPE y gauge\ny 2\n",
        )
        .unwrap();
        let p = path.to_str().unwrap();

        let out = run(parsed(&["metrics-lint", "--file", p, "--require", "x,y"])).unwrap();
        assert!(out.contains("required families present: 2/2"), "{out}");

        let err = run(parsed(&[
            "metrics-lint",
            "--file",
            p,
            "--require",
            "x,edge_fed_deals_opened_total,edge_net_latency_ticks",
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Lint(_)));
        let message = err.to_string();
        assert!(
            message.contains(
                "missing required families: edge_fed_deals_opened_total, edge_net_latency_ticks"
            ),
            "{message}"
        );
        assert!(
            !message.contains("x,"),
            "present families are not listed: {message}"
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn bench_diff_passes_clean_and_fails_tampered_baselines() {
        // One real tiny report serves as both baseline and "fresh":
        // byte-identical inputs must pass at zero tolerance.
        let report = edge_bench::scale::run_scale(1_000);
        let base_path = temp_path("bench-base.json");
        let base_s = base_path.to_str().unwrap();
        std::fs::write(&base_path, report.to_json()).unwrap();

        let out = run(parsed(&[
            "bench",
            "diff",
            "--baseline",
            base_s,
            "--fresh",
            base_s,
            "--tolerance",
            "0",
        ]))
        .unwrap();
        assert!(out.contains("PASS"), "{out}");

        // Guard: a tampered digest in a copied baseline must fail with
        // a readable report even at infinite tolerance.
        let mut tampered = report.clone();
        tampered.cells[0].outcome_digest = "0000000000000000".into();
        let tampered_path = temp_path("bench-tampered.json");
        let tampered_s = tampered_path.to_str().unwrap();
        std::fs::write(&tampered_path, tampered.to_json()).unwrap();
        let err = run(parsed(&[
            "bench",
            "diff",
            "--baseline",
            base_s,
            "--fresh",
            tampered_s,
            "--tolerance",
            "1000000",
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::BenchRegression(_)));
        let msg = err.to_string();
        assert!(msg.contains("outcome digest changed"), "{msg}");
        assert!(msg.contains("REGRESSION"), "{msg}");

        // Guard: an injected slowdown (fresh 100x the baseline median)
        // fails a tight tolerance.
        let mut slow = report.clone();
        for c in &mut slow.cells {
            c.median_total_ns = c.median_total_ns.saturating_mul(100).max(100);
        }
        let slow_path = temp_path("bench-slow.json");
        let slow_s = slow_path.to_str().unwrap();
        std::fs::write(&slow_path, slow.to_json()).unwrap();
        let err = run(parsed(&[
            "bench",
            "diff",
            "--baseline",
            base_s,
            "--fresh",
            slow_s,
            "--tolerance",
            "1.0",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("wall-clock"), "{err}");

        // A baseline with no overlapping cells is an error, not a pass.
        let mut disjoint = report.clone();
        for c in &mut disjoint.cells {
            c.n = 77;
        }
        let disjoint_path = temp_path("bench-disjoint.json");
        let disjoint_s = disjoint_path.to_str().unwrap();
        std::fs::write(&disjoint_path, disjoint.to_json()).unwrap();
        let err = run(parsed(&[
            "bench",
            "diff",
            "--baseline",
            base_s,
            "--fresh",
            disjoint_s,
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("no overlapping"), "{err}");

        for p in [base_path, tampered_path, slow_path, disjoint_path] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn generate_then_msoa_round_trips() {
        let path = temp_path("multi.json");
        let path_s = path.to_str().unwrap();
        let out = run(parsed(&[
            "generate",
            "--seed",
            "7",
            "--microservices",
            "8",
            "--rounds",
            "4",
            "--out",
            path_s,
        ]))
        .unwrap();
        assert!(out.contains("4 rounds"));
        let out = run(parsed(&["msoa", "--input", path_s])).unwrap();
        assert!(out.contains("social cost"), "{out}");
        let out = run(parsed(&["msoa", "--input", path_s, "--variant", "da"])).unwrap();
        assert!(out.contains("MSOA-DA"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn generate_round_then_ssam_and_audit() {
        let path = temp_path("wsp.json");
        let path_s = path.to_str().unwrap();
        run(parsed(&[
            "generate-round",
            "--seed",
            "3",
            "--microservices",
            "10",
            "--out",
            path_s,
        ]))
        .unwrap();
        let out = run(parsed(&["ssam", "--input", path_s])).unwrap();
        assert!(out.contains("social cost"), "{out}");
        assert!(out.contains("certified π"));
        let out = run(parsed(&["audit", "--input", path_s])).unwrap();
        assert!(out.contains("individual rationality : true"), "{out}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn bad_variant_is_rejected() {
        let path = temp_path("multi2.json");
        let path_s = path.to_str().unwrap();
        run(parsed(&[
            "generate", "--seed", "1", "--rounds", "2", "--out", path_s,
        ]))
        .unwrap();
        let err = run(parsed(&["msoa", "--input", path_s, "--variant", "bogus"])).unwrap_err();
        assert!(err.to_string().contains("bogus"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn msoa_with_fault_plan_reports_sla_and_reliability() {
        let instance_path = temp_path("faulty.json");
        let instance_s = instance_path.to_str().unwrap();
        run(parsed(&[
            "generate",
            "--seed",
            "11",
            "--microservices",
            "6",
            "--rounds",
            "4",
            "--out",
            instance_s,
        ]))
        .unwrap();

        let plan_path = temp_path("plan.toml");
        let plan_s = plan_path.to_str().unwrap();
        std::fs::write(
            &plan_path,
            "# total no-show in round 1\n\
             [[defaults]]\nround = 1\nseller = 0\ndelivered_fraction = 0.0\n\n\
             [[crashes]]\nseller = 1\nfrom = 2\nuntil = 4\n\n\
             [[dropouts]]\nindicator = \"rate\"\nfrom = 0\nuntil = 2\n",
        )
        .unwrap();

        let out = run(parsed(&["msoa", "--input", instance_s, "--faults", plan_s])).unwrap();
        assert!(
            out.contains("fault plan: 1 defaults, 1 crashes, 1 dropouts; recovery on"),
            "{out}"
        );
        assert!(out.contains("SLA violation rate"), "{out}");
        assert!(out.contains("reliability"), "{out}");
        assert!(out.contains("clawed back"), "{out}");

        let off = run(parsed(&[
            "msoa",
            "--input",
            instance_s,
            "--faults",
            plan_s,
            "--recovery",
            "off",
        ]))
        .unwrap();
        assert!(off.contains("recovery off"), "{off}");

        // --recovery alone engages the pipeline with an empty plan.
        let empty = run(parsed(&["msoa", "--input", instance_s, "--recovery", "on"])).unwrap();
        assert!(empty.contains("fault plan: 0 defaults"), "{empty}");

        let _ = std::fs::remove_file(instance_path);
        let _ = std::fs::remove_file(plan_path);
    }

    #[test]
    fn faults_flag_conflicts_with_variant() {
        let err = run(parsed(&[
            "msoa",
            "--input",
            "x.json",
            "--faults",
            "p.toml",
            "--variant",
            "da",
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::FlagConflict("variant", "faults")));
        assert!(err.to_string().contains("--variant"));
    }

    #[test]
    fn broken_fault_plan_reports_the_line() {
        let instance_path = temp_path("faulty2.json");
        let instance_s = instance_path.to_str().unwrap();
        run(parsed(&[
            "generate", "--seed", "1", "--rounds", "2", "--out", instance_s,
        ]))
        .unwrap();
        let plan_path = temp_path("bad-plan.toml");
        let plan_s = plan_path.to_str().unwrap();
        std::fs::write(&plan_path, "[[defaults]]\nround = 0\nwat = 1\n").unwrap();
        let err = run(parsed(&["msoa", "--input", instance_s, "--faults", plan_s])).unwrap_err();
        assert!(matches!(err, CliError::Plan(_)));
        assert!(err.to_string().contains("line 3"), "{err}");
        let _ = std::fs::remove_file(instance_path);
        let _ = std::fs::remove_file(plan_path);
    }

    #[test]
    fn bad_recovery_value_is_rejected() {
        let err = run(parsed(&[
            "msoa",
            "--input",
            "x.json",
            "--recovery",
            "maybe",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("maybe"), "{err}");
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let err = run(parsed(&["generate", "--frobnicate", "1", "--out", "x"])).unwrap_err();
        assert!(err.to_string().contains("frobnicate"));
    }

    #[test]
    fn missing_input_file_is_io_error() {
        let err = run(parsed(&["ssam", "--input", "/nonexistent/x.json"])).unwrap_err();
        assert!(matches!(err, CliError::Io(_)));
    }
}
