//! Event-sourced auction service: a pure state machine fed by a log.
//!
//! The online mechanism of the paper is *reactive* — bids, withdrawals,
//! demand reports, and seller defaults arrive over time and the platform
//! clears rounds against whatever book it holds when a round closes.
//! This module turns that into an explicit state machine:
//!
//! * [`ServiceEvent`] — the closed vocabulary of things that can happen
//!   to the market (`BidSubmitted`, `BidWithdrawn`, `DemandReported`,
//!   `RoundClosed`, `SellerDefaulted`);
//! * [`AuctionService`] — the deterministic state machine.
//!   [`AuctionService::apply`] either rejects an event with a structured
//!   [`ServiceError`] (admission control: unknown sellers, duplicate
//!   bids, book caps, bad prices) and leaves the state untouched, or
//!   accepts it and advances the state — including running a full
//!   MSOA/recovery stage whenever enough rounds have closed;
//! * [`LogWriter`] / [`parse_log`] — the append-only event log, one
//!   [`crate::chain_log`] format ([`EventLog`]): a versioned header
//!   record and per-record FNV-1a digest chaining, so any truncation or
//!   tamper is detected at the exact record.
//!
//! **The log is the source of truth.** All effects are injected: the
//! per-stage base workload comes from a caller-supplied provider
//! closure, so replaying a log through a fresh service with the same
//! provider reproduces every outcome digest, every payment, and the
//! deterministic trace section *byte-identically* — at any pricing
//! thread count. `edge-market replay` and the serve-vs-replay
//! differential suite are built on exactly this property.
//!
//! Stages mirror `edge-market serve`'s seeded drive loop: stage `k`
//! spans up to `stage_rounds` closed rounds, its base instance comes
//! from the provider (the CLI uses `integrated_instance` seeded with
//! `seed + k`), wire bids/demand are merged on top, queued defaults
//! become the stage's [`FaultPlan`], and the stage runs through
//! [`run_msoa_with_faults_traced`]. With no wire events and no defaults
//! the merge is a no-op and the empty fault plan keeps the outcome
//! bit-identical to plain MSOA — the serve baseline of old.

use crate::bid::Bid;
use crate::chain_log::{self, Chain, Format, Record, Writer};
use crate::error::AuctionError;
use crate::live::ServiceLive;
use crate::msoa::{MsoaConfig, MultiRoundInstance, RoundInput};
use crate::recovery::{
    run_msoa_with_faults_traced, DefaultEvent, FaultPlan, FaultyMsoaOutcome, RecoveryConfig,
};
use edge_common::id::{BidId, MicroserviceId};
use edge_common::rng::chain_step;
use edge_telemetry::{Collector, Scoped, Trace, Value};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

pub use crate::chain_log::LogError;
pub use edge_common::rng::fnv1a64;

/// The event-log schema version this build writes and understands.
pub const LOG_VERSION: u32 = 1;

/// Domain separator seeding the header record's digest chain.
const LOG_GENESIS: &str = "edge-market-event-log";

/// The service event log's [`chain_log`] format: a [`ServiceConfig`]
/// under `"header"`, then one [`ServiceEvent`] per record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventLog;

impl Format for EventLog {
    const TAG: &'static str = LOG_GENESIS;
    const VERSION: u32 = LOG_VERSION;
    const HEADER_KEY: &'static str = "header";
    type Header = ServiceConfig;
    type Event = ServiceEvent;
}

/// One parsed, chain-verified event-log record.
pub type LogRecord = Record<ServiceEvent>;

/// Appends the event log to any writer; see [`chain_log::Writer`].
pub type LogWriter<W> = Writer<EventLog, W>;

/// One market event, as recorded in the log.
///
/// Sellers are referenced by raw index into the platform's
/// microservice table; `bid` is the *submitter's* id for the bid (its
/// namespace), mapped to internal [`BidId`]s deterministically at stage
/// build time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServiceEvent {
    /// A seller placed (or refreshed) a standing bid on the book.
    BidSubmitted {
        /// Selling microservice index.
        seller: usize,
        /// Submitter-chosen bid id, unique per seller on the book.
        bid: u64,
        /// Resource units offered.
        amount: u64,
        /// Asking price for the full amount.
        price: f64,
    },
    /// A seller withdrew a standing bid from the book.
    BidWithdrawn {
        /// Selling microservice index.
        seller: usize,
        /// The bid id to remove.
        bid: u64,
    },
    /// A tenant reported additional demand for the next round.
    DemandReported {
        /// Demand units to add to the next closed round.
        units: u64,
    },
    /// The platform closed the current round and auctions its book.
    RoundClosed,
    /// A seller announced it will under-deliver in the next round.
    SellerDefaulted {
        /// Defaulting microservice index.
        seller: usize,
        /// Fraction of committed units actually delivered, in `[0, 1]`.
        delivered_fraction: f64,
    },
}

impl ServiceEvent {
    /// A short stable name for metrics and error messages.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            ServiceEvent::BidSubmitted { .. } => "bid_submitted",
            ServiceEvent::BidWithdrawn { .. } => "bid_withdrawn",
            ServiceEvent::DemandReported { .. } => "demand_reported",
            ServiceEvent::RoundClosed => "round_closed",
            ServiceEvent::SellerDefaulted { .. } => "seller_defaulted",
        }
    }
}

/// Static configuration of a service run, recorded in the log header so
/// a log file is self-describing and replayable on its own.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServiceConfig {
    /// Base RNG seed; stage `k`'s base instance derives from `seed + k`.
    pub seed: u64,
    /// Microservices (sellers) in the platform table.
    pub microservices: usize,
    /// Target request arrivals per simulated round.
    pub requests: u64,
    /// Total rounds before the horizon completes (0 = unbounded).
    pub total_rounds: u64,
    /// Rounds per stage.
    pub stage_rounds: u64,
    /// Admission cap on standing book entries.
    pub book_cap: usize,
    /// Admission cap on pending (unclosed) demand units.
    pub demand_cap: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            seed: 42,
            microservices: 25,
            requests: 100,
            total_rounds: 0,
            stage_rounds: 5,
            book_cap: 4096,
            demand_cap: 1_000_000,
        }
    }
}

/// Structured admission-control rejection. Rejected events leave the
/// service state (and its digest) untouched and are never logged.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The seller index is outside the platform table.
    UnknownSeller {
        /// The offending index.
        seller: usize,
    },
    /// The (seller, bid) pair is already on the book.
    DuplicateBid {
        /// Seller index.
        seller: usize,
        /// Duplicated bid id.
        bid: u64,
    },
    /// The standing book is at its admission cap.
    BookFull {
        /// The configured cap.
        cap: usize,
    },
    /// A bid offered zero units.
    ZeroAmount,
    /// A bid's price is negative or not finite.
    InvalidPrice {
        /// The offending price.
        price: f64,
    },
    /// A withdrawal referenced a bid not on the book.
    UnknownBid {
        /// Seller index.
        seller: usize,
        /// Missing bid id.
        bid: u64,
    },
    /// A demand report of zero units (a no-op is a client bug).
    ZeroDemand,
    /// Accepting the report would exceed the pending-demand cap.
    DemandOverCap {
        /// Units in the rejected report.
        units: u64,
        /// The configured cap.
        cap: u64,
    },
    /// A default's delivered fraction is outside `[0, 1]`.
    InvalidFraction {
        /// The offending fraction.
        fraction: f64,
    },
    /// A round close arrived after `total_rounds` completed.
    HorizonComplete,
    /// The stage auction itself failed (structural error).
    Auction(AuctionError),
}

impl ServiceError {
    /// A stable snake_case code for wire responses and metrics.
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            ServiceError::UnknownSeller { .. } => "unknown_seller",
            ServiceError::DuplicateBid { .. } => "duplicate_bid",
            ServiceError::BookFull { .. } => "book_full",
            ServiceError::ZeroAmount => "zero_amount",
            ServiceError::InvalidPrice { .. } => "invalid_price",
            ServiceError::UnknownBid { .. } => "unknown_bid",
            ServiceError::ZeroDemand => "zero_demand",
            ServiceError::DemandOverCap { .. } => "demand_over_cap",
            ServiceError::InvalidFraction { .. } => "invalid_fraction",
            ServiceError::HorizonComplete => "horizon_complete",
            ServiceError::Auction(_) => "auction_error",
        }
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownSeller { seller } => {
                write!(f, "seller {seller} is not in the platform table")
            }
            ServiceError::DuplicateBid { seller, bid } => {
                write!(f, "bid {bid} of seller {seller} is already on the book")
            }
            ServiceError::BookFull { cap } => {
                write!(f, "the book is at its admission cap of {cap} entries")
            }
            ServiceError::ZeroAmount => write!(f, "bids must offer at least one unit"),
            ServiceError::InvalidPrice { price } => {
                write!(f, "price {price} must be finite and non-negative")
            }
            ServiceError::UnknownBid { seller, bid } => {
                write!(f, "bid {bid} of seller {seller} is not on the book")
            }
            ServiceError::ZeroDemand => write!(f, "demand reports must be positive"),
            ServiceError::DemandOverCap { units, cap } => {
                write!(f, "{units} more units would exceed the demand cap of {cap}")
            }
            ServiceError::InvalidFraction { fraction } => {
                write!(f, "delivered fraction {fraction} must lie in [0, 1]")
            }
            ServiceError::HorizonComplete => {
                write!(f, "the configured round horizon is already complete")
            }
            ServiceError::Auction(e) => write!(f, "stage auction failed: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<AuctionError> for ServiceError {
    fn from(e: AuctionError) -> Self {
        ServiceError::Auction(e)
    }
}

/// What happened when an event was accepted.
#[derive(Debug, Clone)]
pub struct Applied {
    /// The event's kind (for counters and replies).
    pub kind: &'static str,
    /// The service state digest after applying (hex, 16 chars).
    pub state_digest: String,
    /// When the event completed a stage, its summary.
    pub stage: Option<StageSummary>,
}

/// Summary of one completed stage auction.
#[derive(Debug, Clone)]
pub struct StageSummary {
    /// Stage index (0-based).
    pub stage: u64,
    /// Rounds auctioned in this stage.
    pub rounds: u64,
    /// FNV-1a digest of the serialized stage outcome (hex, 16 chars).
    pub outcome_digest: String,
    /// Sellers with remaining capacity after the stage.
    pub sellers_alive: usize,
    /// Winning bids across the stage.
    pub winners: u64,
    /// Σ payments across the stage.
    pub total_payment: f64,
    /// Σ unmet demand units across the stage's rounds — what a
    /// federated platform would try to buy from a peer.
    pub shortfall_units: u64,
    /// Units actually committed across the stage (Σ χ_i).
    pub units_sold: u64,
    /// Capacity left unsold on non-blacklisted sellers — what a
    /// federated platform could re-sell to a peer.
    pub unsold_capacity: u64,
}

impl StageSummary {
    /// Mean clearing price per sold unit, if anything sold.
    pub fn unit_price(&self) -> Option<f64> {
        (self.units_sold > 0).then(|| self.total_payment / self.units_sold as f64)
    }
}

/// One standing book entry.
#[derive(Debug, Clone, Copy, PartialEq)]
struct BookEntry {
    amount: u64,
    price: f64,
}

/// The wire inputs bound to one closed round.
#[derive(Debug, Clone, Default)]
struct RoundOverlay {
    /// Book snapshot at close, in (seller, wire bid id) order.
    bids: Vec<(usize, u64, BookEntry)>,
    /// Wire-reported demand units added to the round.
    demand: u64,
    /// Announced defaults: seller → delivered fraction.
    defaults: Vec<(usize, f64)>,
}

/// The deterministic auction service state machine.
///
/// `P` provides stage base instances: `provider(stage, rounds)` must be
/// a pure function of its arguments (the CLI derives a fresh seeded RNG
/// per call), otherwise replay determinism is lost.
pub struct AuctionService<P> {
    config: ServiceConfig,
    provider: P,
    book: BTreeMap<(usize, u64), BookEntry>,
    pending_demand: u64,
    pending_defaults: BTreeMap<usize, f64>,
    overlays: Vec<RoundOverlay>,
    stage: u64,
    rounds_closed: u64,
    winners: u64,
    total_payment: f64,
    state_digest: u64,
    last_outcome_digest: Option<u64>,
    last_sellers_alive: usize,
    events_applied: u64,
    /// Extra fields stamped onto every stage's trace events (e.g. the
    /// owning platform in a federation). Never folded into digests.
    trace_scope: Vec<(&'static str, Value)>,
    live: ServiceLive,
}

impl<P> fmt::Debug for AuctionService<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AuctionService")
            .field("config", &self.config)
            .field("book_len", &self.book.len())
            .field("stage", &self.stage)
            .field("rounds_closed", &self.rounds_closed)
            .field("state_digest", &format!("{:016x}", self.state_digest))
            .finish_non_exhaustive()
    }
}

impl<P: FnMut(u64, u64) -> MultiRoundInstance> AuctionService<P> {
    /// A fresh service over `config`, drawing stage base instances from
    /// `provider(stage, rounds)`.
    pub fn new(config: ServiceConfig, provider: P) -> Self {
        AuctionService {
            config,
            provider,
            book: BTreeMap::new(),
            pending_demand: 0,
            pending_defaults: BTreeMap::new(),
            overlays: Vec::new(),
            stage: 0,
            rounds_closed: 0,
            winners: 0,
            total_payment: 0.0,
            state_digest: Chain::start::<EventLog>(&config).digest(),
            last_outcome_digest: None,
            last_sellers_alive: 0,
            events_applied: 0,
            trace_scope: Vec::new(),
            live: ServiceLive::handle(),
        }
    }

    /// Stamps `fields` onto every subsequent stage's trace events,
    /// before the `stage` coordinate. Used by the federation layer to
    /// tag each platform's audit trail with its node id; digests are
    /// unaffected (the trace is an observer, never an input).
    pub fn set_trace_scope(&mut self, fields: Vec<(&'static str, Value)>) {
        self.trace_scope = fields;
    }

    /// The static configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Rounds closed so far (across all stages).
    pub fn rounds_closed(&self) -> u64 {
        self.rounds_closed
    }

    /// Stages completed so far.
    pub fn stages_completed(&self) -> u64 {
        self.stage
    }

    /// Events accepted so far.
    pub fn events_applied(&self) -> u64 {
        self.events_applied
    }

    /// Standing book size.
    pub fn book_len(&self) -> usize {
        self.book.len()
    }

    /// Winning bids across all completed stages.
    pub fn winners(&self) -> u64 {
        self.winners
    }

    /// Σ payments across all completed stages.
    pub fn total_payment(&self) -> f64 {
        self.total_payment
    }

    /// Sellers with remaining capacity after the last completed stage.
    pub fn sellers_alive(&self) -> usize {
        self.last_sellers_alive
    }

    /// `true` once `total_rounds` rounds have closed (never for 0).
    pub fn horizon_complete(&self) -> bool {
        self.config.total_rounds > 0 && self.rounds_closed >= self.config.total_rounds
    }

    /// The rolling state digest (hex, 16 chars): seeded from the
    /// config, chained over every accepted event and every stage
    /// outcome. Two services that applied the same events from the same
    /// config always agree on it.
    pub fn state_digest_hex(&self) -> String {
        format!("{:016x}", self.state_digest)
    }

    /// Digest of the standing book alone (hex, 16 chars) — hostile
    /// inputs must leave this untouched.
    pub fn book_digest_hex(&self) -> String {
        let mut canon = String::new();
        for ((seller, bid), entry) in &self.book {
            use std::fmt::Write as _;
            let _ = write!(canon, "{seller}:{bid}:{}:{};", entry.amount, entry.price);
        }
        format!("{:016x}", fnv1a64(canon.as_bytes()))
    }

    /// Digest of the last completed stage's outcome (hex), if any.
    pub fn last_outcome_digest_hex(&self) -> Option<String> {
        self.last_outcome_digest.map(|d| format!("{d:016x}"))
    }

    /// Rounds the current stage will span: `stage_rounds`, clamped to
    /// the rounds left before the horizon — the same arithmetic the
    /// seeded serve loop has always used.
    fn current_stage_rounds(&self) -> u64 {
        let base = self.config.stage_rounds.max(1);
        if self.config.total_rounds == 0 {
            return base;
        }
        let closed_before_stage = self.rounds_closed - self.overlays.len() as u64;
        base.min(self.config.total_rounds - closed_before_stage)
    }

    /// Validates an event against the current state without mutating
    /// anything.
    ///
    /// # Errors
    ///
    /// The [`ServiceError`] the matching [`AuctionService::apply`] call
    /// would return.
    pub fn check(&self, event: &ServiceEvent) -> Result<(), ServiceError> {
        match *event {
            ServiceEvent::BidSubmitted {
                seller,
                bid,
                amount,
                price,
            } => {
                if seller >= self.config.microservices {
                    return Err(ServiceError::UnknownSeller { seller });
                }
                if amount == 0 {
                    return Err(ServiceError::ZeroAmount);
                }
                if !price.is_finite() || price < 0.0 {
                    return Err(ServiceError::InvalidPrice { price });
                }
                if self.book.contains_key(&(seller, bid)) {
                    return Err(ServiceError::DuplicateBid { seller, bid });
                }
                if self.book.len() >= self.config.book_cap {
                    return Err(ServiceError::BookFull {
                        cap: self.config.book_cap,
                    });
                }
                Ok(())
            }
            ServiceEvent::BidWithdrawn { seller, bid } => {
                if self.book.contains_key(&(seller, bid)) {
                    Ok(())
                } else {
                    Err(ServiceError::UnknownBid { seller, bid })
                }
            }
            ServiceEvent::DemandReported { units } => {
                if units == 0 {
                    return Err(ServiceError::ZeroDemand);
                }
                // `checked_add`, not `saturating_add`: with a cap of
                // `u64::MAX` a saturated sum would pass and `apply` wrap.
                let within_cap = self
                    .pending_demand
                    .checked_add(units)
                    .is_some_and(|total| total <= self.config.demand_cap);
                if !within_cap {
                    return Err(ServiceError::DemandOverCap {
                        units,
                        cap: self.config.demand_cap,
                    });
                }
                Ok(())
            }
            ServiceEvent::RoundClosed => {
                if self.horizon_complete() {
                    Err(ServiceError::HorizonComplete)
                } else {
                    Ok(())
                }
            }
            ServiceEvent::SellerDefaulted {
                seller,
                delivered_fraction,
            } => {
                if seller >= self.config.microservices {
                    return Err(ServiceError::UnknownSeller { seller });
                }
                if !delivered_fraction.is_finite() || !(0.0..=1.0).contains(&delivered_fraction) {
                    return Err(ServiceError::InvalidFraction {
                        fraction: delivered_fraction,
                    });
                }
                Ok(())
            }
        }
    }

    /// Applies one event. Rejections leave the state byte-identical;
    /// acceptance advances the state digest and may complete a stage
    /// (whose audit-trail events land on `collector`, stamped with the
    /// stage index exactly like the seeded serve loop's).
    ///
    /// # Errors
    ///
    /// A structured [`ServiceError`] on admission rejection, or
    /// [`ServiceError::Auction`] if a completed stage's auction failed
    /// structurally.
    pub fn apply(
        &mut self,
        event: &ServiceEvent,
        collector: Option<&Collector>,
    ) -> Result<Applied, ServiceError> {
        self.check(event)?;
        // Span opens only for *accepted* events: rejections never reach
        // the log, so live and replay runs apply — and therefore span —
        // the exact same event sequence.
        let _apply_span = edge_telemetry::spans::enter("service.apply");
        if edge_telemetry::spans::is_enabled() {
            edge_telemetry::spans::ctr(event.kind(), 1);
        }
        let mut stage_summary = None;
        match *event {
            ServiceEvent::BidSubmitted {
                seller,
                bid,
                amount,
                price,
            } => {
                self.book.insert((seller, bid), BookEntry { amount, price });
            }
            ServiceEvent::BidWithdrawn { seller, bid } => {
                self.book.remove(&(seller, bid));
            }
            ServiceEvent::DemandReported { units } => {
                self.pending_demand += units;
            }
            ServiceEvent::SellerDefaulted {
                seller,
                delivered_fraction,
            } => {
                // Last announcement wins; one default per seller per round.
                self.pending_defaults.insert(seller, delivered_fraction);
            }
            ServiceEvent::RoundClosed => {
                self.overlays.push(RoundOverlay {
                    bids: self.book.iter().map(|(&(s, b), &e)| (s, b, e)).collect(),
                    demand: self.pending_demand,
                    defaults: self
                        .pending_defaults
                        .iter()
                        .map(|(&s, &f)| (s, f))
                        .collect(),
                });
                self.pending_demand = 0;
                self.pending_defaults.clear();
                self.rounds_closed += 1;
            }
        }

        // Fold the accepted event into the state digest before any
        // stage run, so the chain covers the exact event order.
        let canon = serde_json::to_string(event).expect("event serialization is infallible");
        self.state_digest = chain_step(self.state_digest, self.events_applied, canon.as_bytes());
        self.events_applied += 1;
        self.live.record_event(event.kind(), self.book.len());

        if matches!(event, ServiceEvent::RoundClosed)
            && self.overlays.len() as u64 >= self.current_stage_rounds()
        {
            stage_summary = Some(self.run_stage(collector)?);
        }

        Ok(Applied {
            kind: event.kind(),
            state_digest: self.state_digest_hex(),
            stage: stage_summary,
        })
    }

    /// Runs the stage auction over the buffered overlays and folds the
    /// outcome into the state digest.
    fn run_stage(&mut self, collector: Option<&Collector>) -> Result<StageSummary, ServiceError> {
        let overlays = std::mem::take(&mut self.overlays);
        let n_rounds = overlays.len() as u64;
        let base = (self.provider)(self.stage, n_rounds);
        let (instance, plan) = merge_stage(&base, &overlays)?;

        // Stamp this stage's audit trail exactly like the seeded serve
        // loop always has, so multi-stage traces stay explainable. Any
        // ambient scope (e.g. a federation's platform id) goes first so
        // `stage` reads as the innermost coordinate.
        let scoped = collector.map(|c| {
            let mut fields = self.trace_scope.clone();
            fields.push(("stage", Value::from(self.stage)));
            Scoped::new(c, fields)
        });
        let trace = match &scoped {
            Some(s) => Trace::new(s),
            None => Trace::off(),
        };
        let outcome = run_msoa_with_faults_traced(
            &instance,
            &MsoaConfig::pinned(2.0),
            &plan,
            &RecoveryConfig::default(),
            trace,
        )?;

        let serialized =
            serde_json::to_string(&outcome).expect("outcome serialization is infallible");
        let digest = fnv1a64(serialized.as_bytes());
        self.state_digest =
            fnv1a64(format!("{:016x}:outcome:{:016x}", self.state_digest, digest).as_bytes());
        self.last_outcome_digest = Some(digest);
        self.last_sellers_alive = instance
            .sellers()
            .iter()
            .zip(&outcome.chi)
            .filter(|(s, &chi)| chi < s.capacity)
            .count();
        let unsold_capacity = instance
            .sellers()
            .iter()
            .zip(&outcome.chi)
            .zip(&outcome.blacklisted)
            .filter(|(_, &blacklisted)| !blacklisted)
            .map(|((s, &chi), _)| s.capacity.saturating_sub(chi))
            .sum();
        let summary = StageSummary {
            stage: self.stage,
            rounds: n_rounds,
            outcome_digest: format!("{digest:016x}"),
            sellers_alive: self.last_sellers_alive,
            winners: stage_winners(&outcome),
            total_payment: outcome.platform_cost.value(),
            shortfall_units: outcome.shortfall_units,
            units_sold: outcome.chi.iter().sum(),
            unsold_capacity,
        };
        self.winners += summary.winners;
        self.total_payment += summary.total_payment;
        self.stage += 1;
        self.live.record_stage();
        Ok(summary)
    }

    /// Applies a parsed log's events in order. Every record must be
    /// accepted — the log only ever contains accepted events, so a
    /// rejection means the log does not belong to this configuration.
    ///
    /// # Errors
    ///
    /// [`LogError::RejectedEvent`] naming the offending sequence number.
    pub fn apply_all(
        &mut self,
        records: &[LogRecord],
        collector: Option<&Collector>,
    ) -> Result<(), LogError> {
        for record in records {
            self.apply(&record.event, collector)
                .map_err(|source| LogError::RejectedEvent {
                    seq: record.seq,
                    source,
                })?;
        }
        Ok(())
    }
}

/// Winning bids across a stage outcome (primary and backfill).
fn stage_winners(outcome: &FaultyMsoaOutcome) -> u64 {
    outcome.rounds.iter().map(|r| r.winners.len() as u64).sum()
}

/// Merges the wire overlays onto the provider's base instance and
/// collects announced defaults into the stage's fault plan.
///
/// Wire bids are appended after the base round's bids in (seller, wire
/// bid id) order, with internal [`BidId`]s continuing each seller's
/// base numbering — a pure function of (base, overlays), so live and
/// replayed stages see bit-identical instances.
fn merge_stage(
    base: &MultiRoundInstance,
    overlays: &[RoundOverlay],
) -> Result<(MultiRoundInstance, FaultPlan), ServiceError> {
    let mut plan = FaultPlan::empty();
    let mut rounds = Vec::with_capacity(overlays.len());
    for (r, overlay) in overlays.iter().enumerate() {
        let base_round = &base.rounds()[r];
        let mut bids = base_round.bids.clone();
        let mut next_id: BTreeMap<usize, usize> = BTreeMap::new();
        for bid in &bids {
            let e = next_id.entry(bid.seller.index()).or_insert(0);
            *e = (*e).max(bid.id.index() + 1);
        }
        for &(seller, _wire_id, entry) in &overlay.bids {
            let id = next_id.entry(seller).or_insert(0);
            bids.push(
                Bid::new(
                    MicroserviceId::new(seller),
                    BidId::new(*id),
                    entry.amount,
                    entry.price,
                )
                .map_err(ServiceError::Auction)?,
            );
            *id += 1;
        }
        for &(seller, fraction) in &overlay.defaults {
            plan.defaults.push(DefaultEvent {
                round: r as u64,
                seller: MicroserviceId::new(seller),
                delivered_fraction: fraction,
            });
        }
        rounds.push(RoundInput::new(
            base_round.estimated_demand.saturating_add(overlay.demand),
            base_round.true_demand.saturating_add(overlay.demand),
            bids,
        ));
    }
    let instance =
        MultiRoundInstance::new(base.sellers().to_vec(), rounds).map_err(ServiceError::Auction)?;
    Ok((instance, plan))
}

// ---------------------------------------------------------------------
// The append-only event log.
// ---------------------------------------------------------------------

/// A fully parsed and chain-verified event log.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedLog {
    /// The header's service configuration.
    pub config: ServiceConfig,
    /// Every event record, in sequence order.
    pub records: Vec<LogRecord>,
    /// `true` when a trailing partial record (a mid-write crash) was
    /// dropped by lenient parsing.
    pub truncated_tail: bool,
}

/// Parses an event log, verifying the version, the sequence numbering,
/// and the full digest chain ([`chain_log::parse`]).
///
/// With `lenient_tail`, a malformed *final* line is treated as a
/// mid-write crash and dropped ([`ParsedLog::truncated_tail`] is set);
/// corruption anywhere else is always an error.
///
/// # Errors
///
/// Any [`LogError`] variant except `Io`/`RejectedEvent`.
pub fn parse_log(text: &str, lenient_tail: bool) -> Result<ParsedLog, LogError> {
    let log = chain_log::parse::<EventLog>(text, lenient_tail)?;
    Ok(ParsedLog {
        config: log.header,
        records: log.records,
        truncated_tail: log.truncated_tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bid::Seller;
    use edge_common::rng::derive_rng;
    use rand::Rng;

    /// A small deterministic provider for state-machine tests (the CLI
    /// injects the real simulator-backed one).
    fn test_provider(stage: u64, rounds: u64) -> MultiRoundInstance {
        let mut rng = derive_rng(100 + stage, "service-test");
        let sellers: Vec<Seller> = (0..6)
            .map(|s| {
                Seller::new(MicroserviceId::new(s), 30, (0, rounds.saturating_sub(1)))
                    .expect("window ordered")
            })
            .collect();
        let rounds: Vec<RoundInput> = (0..rounds)
            .map(|_| {
                let bids: Vec<Bid> = (0..6)
                    .map(|s| {
                        let amount = 1 + rng.gen_range(0..4u64);
                        let price = rng.gen_range(10.0..35.0) * amount as f64 / 5.0;
                        Bid::new(MicroserviceId::new(s), BidId::new(0), amount, price)
                            .expect("valid")
                    })
                    .collect();
                RoundInput::new(4, 4, bids)
            })
            .collect();
        MultiRoundInstance::new(sellers, rounds).expect("valid")
    }

    fn config() -> ServiceConfig {
        ServiceConfig {
            seed: 7,
            microservices: 6,
            total_rounds: 6,
            stage_rounds: 3,
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn admission_control_rejects_without_touching_state() {
        let mut svc = AuctionService::new(config(), test_provider);
        let before = (svc.state_digest_hex(), svc.book_digest_hex());
        for (event, code) in [
            (
                ServiceEvent::BidSubmitted {
                    seller: 99,
                    bid: 0,
                    amount: 1,
                    price: 5.0,
                },
                "unknown_seller",
            ),
            (
                ServiceEvent::BidSubmitted {
                    seller: 0,
                    bid: 0,
                    amount: 0,
                    price: 5.0,
                },
                "zero_amount",
            ),
            (
                ServiceEvent::BidSubmitted {
                    seller: 0,
                    bid: 0,
                    amount: 1,
                    price: -2.0,
                },
                "invalid_price",
            ),
            (
                ServiceEvent::BidSubmitted {
                    seller: 0,
                    bid: 0,
                    amount: 1,
                    price: f64::NAN,
                },
                "invalid_price",
            ),
            (
                ServiceEvent::BidWithdrawn { seller: 0, bid: 9 },
                "unknown_bid",
            ),
            (ServiceEvent::DemandReported { units: 0 }, "zero_demand"),
            (
                ServiceEvent::SellerDefaulted {
                    seller: 1,
                    delivered_fraction: 1.5,
                },
                "invalid_fraction",
            ),
        ] {
            let err = svc.apply(&event, None).unwrap_err();
            assert_eq!(err.code(), code, "{event:?}");
        }
        assert_eq!(before, (svc.state_digest_hex(), svc.book_digest_hex()));
        assert_eq!(svc.events_applied(), 0);
    }

    #[test]
    fn duplicate_and_caps_are_enforced() {
        let mut svc = AuctionService::new(
            ServiceConfig {
                book_cap: 2,
                demand_cap: 10,
                ..config()
            },
            test_provider,
        );
        let bid = |seller, bid| ServiceEvent::BidSubmitted {
            seller,
            bid,
            amount: 1,
            price: 4.0,
        };
        svc.apply(&bid(0, 0), None).unwrap();
        assert_eq!(
            svc.apply(&bid(0, 0), None).unwrap_err().code(),
            "duplicate_bid"
        );
        svc.apply(&bid(1, 0), None).unwrap();
        assert_eq!(svc.apply(&bid(2, 0), None).unwrap_err().code(), "book_full");
        svc.apply(&ServiceEvent::DemandReported { units: 8 }, None)
            .unwrap();
        assert_eq!(
            svc.apply(&ServiceEvent::DemandReported { units: 3 }, None)
                .unwrap_err()
                .code(),
            "demand_over_cap"
        );
        // Withdrawing frees book space.
        svc.apply(&ServiceEvent::BidWithdrawn { seller: 0, bid: 0 }, None)
            .unwrap();
        svc.apply(&bid(2, 0), None).unwrap();
    }

    #[test]
    fn demand_sums_cannot_wrap_under_an_unbounded_cap() {
        let mut svc = AuctionService::new(
            ServiceConfig {
                demand_cap: u64::MAX,
                ..config()
            },
            test_provider,
        );
        svc.apply(&ServiceEvent::DemandReported { units: u64::MAX }, None)
            .unwrap();
        let before = (svc.state_digest_hex(), svc.book_digest_hex());
        let err = svc
            .apply(&ServiceEvent::DemandReported { units: 1 }, None)
            .unwrap_err();
        assert_eq!(err.code(), "demand_over_cap");
        assert_eq!(before, (svc.state_digest_hex(), svc.book_digest_hex()));
        // The stage merge adds the pending demand to the base round's:
        // it saturates instead of wrapping, and the stage still closes.
        for _ in 0..config().stage_rounds {
            svc.apply(&ServiceEvent::RoundClosed, None).unwrap();
        }
        assert_eq!(svc.stages_completed(), 1);
    }

    #[test]
    fn stages_fire_on_round_boundaries_and_respect_the_horizon() {
        let mut svc = AuctionService::new(config(), test_provider);
        let mut stages = 0;
        for _ in 0..6 {
            let applied = svc.apply(&ServiceEvent::RoundClosed, None).unwrap();
            if applied.stage.is_some() {
                stages += 1;
            }
        }
        assert_eq!(stages, 2, "two 3-round stages");
        assert_eq!(svc.stages_completed(), 2);
        assert_eq!(svc.rounds_closed(), 6);
        assert!(svc.horizon_complete());
        assert_eq!(
            svc.apply(&ServiceEvent::RoundClosed, None)
                .unwrap_err()
                .code(),
            "horizon_complete"
        );
    }

    #[test]
    fn empty_book_stage_matches_plain_recovery_run() {
        // No wire events ⇒ the merged instance IS the provider's, and
        // the empty plan keeps the outcome bit-identical to a direct
        // run — the serve baseline invariant.
        let mut svc = AuctionService::new(config(), test_provider);
        let mut digest = None;
        for _ in 0..3 {
            let applied = svc.apply(&ServiceEvent::RoundClosed, None).unwrap();
            if let Some(stage) = applied.stage {
                digest = Some(stage.outcome_digest);
            }
        }
        let outcome = run_msoa_with_faults_traced(
            &test_provider(0, 3),
            &MsoaConfig::pinned(2.0),
            &FaultPlan::empty(),
            &RecoveryConfig::default(),
            Trace::off(),
        )
        .unwrap();
        let expected = format!(
            "{:016x}",
            fnv1a64(serde_json::to_string(&outcome).unwrap().as_bytes())
        );
        assert_eq!(digest.unwrap(), expected);
    }

    #[test]
    fn log_round_trips_and_replay_reproduces_digests() {
        let events = vec![
            ServiceEvent::BidSubmitted {
                seller: 2,
                bid: 7,
                amount: 3,
                price: 11.25,
            },
            ServiceEvent::DemandReported { units: 2 },
            ServiceEvent::RoundClosed,
            ServiceEvent::SellerDefaulted {
                seller: 2,
                delivered_fraction: 0.5,
            },
            ServiceEvent::RoundClosed,
            ServiceEvent::BidWithdrawn { seller: 2, bid: 7 },
            ServiceEvent::RoundClosed,
        ];
        let mut live = AuctionService::new(config(), test_provider);
        let mut buf = Vec::new();
        let mut writer = LogWriter::new(&mut buf, &config()).unwrap();
        for event in &events {
            live.apply(event, None).unwrap();
            writer.append(event).unwrap();
        }
        let text = String::from_utf8(buf).unwrap();
        let parsed = parse_log(&text, false).unwrap();
        assert_eq!(parsed.config, config());
        assert_eq!(parsed.records.len(), events.len());
        assert!(!parsed.truncated_tail);

        let mut replayed = AuctionService::new(parsed.config, test_provider);
        replayed.apply_all(&parsed.records, None).unwrap();
        assert_eq!(replayed.state_digest_hex(), live.state_digest_hex());
        assert_eq!(
            replayed.last_outcome_digest_hex(),
            live.last_outcome_digest_hex()
        );
        assert_eq!(replayed.book_digest_hex(), live.book_digest_hex());
    }

    #[test]
    fn tampered_logs_are_detected_at_the_exact_record() {
        let mut buf = Vec::new();
        let mut writer = LogWriter::new(&mut buf, &config()).unwrap();
        for _ in 0..3 {
            writer
                .append(&ServiceEvent::DemandReported { units: 1 })
                .unwrap();
        }
        let text = String::from_utf8(buf).unwrap();

        // Flip a digit inside record 2's event payload, leaving its
        // envelope (seq, digest) untouched.
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        lines[2] = lines[2].replace("{\"units\":1}", "{\"units\":9}");
        let tampered = lines.join("\n");
        match parse_log(&tampered, false) {
            Err(LogError::DigestMismatch { seq, .. }) => assert_eq!(seq, 2),
            other => panic!("expected digest mismatch at seq 2, got {other:?}"),
        }

        // Unknown version is refused.
        let future = text.replace("\"v\":1,\"seq\":0", "\"v\":9,\"seq\":0");
        assert!(matches!(
            parse_log(&future, false),
            Err(LogError::UnknownVersion { version: 9, .. })
        ));

        // A trailing partial record is fatal strictly, dropped leniently.
        let cut = &text[..text.len() - 10];
        assert!(matches!(
            parse_log(cut, false),
            Err(LogError::Malformed { .. })
        ));
        let lenient = parse_log(cut, true).unwrap();
        assert!(lenient.truncated_tail);
        assert_eq!(lenient.records.len(), 2);
    }

    #[test]
    fn malformed_records_are_reported_at_their_line_in_the_file() {
        let mut buf = Vec::new();
        let mut writer = LogWriter::new(&mut buf, &config()).unwrap();
        writer.append(&ServiceEvent::RoundClosed).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let (header, record) = text.split_once('\n').unwrap();
        let cut = &record[..record.len() - 3];
        // Blank lines are skipped, but still counted: the cut record
        // sits on line 4 of the file.
        let text = format!("{header}\n\n  \n{cut}\n");
        match parse_log(&text, false) {
            Err(LogError::Malformed { line, .. }) => assert_eq!(line, 4),
            other => panic!("expected a malformed record at line 4, got {other:?}"),
        }
        let lenient = parse_log(&text, true).unwrap();
        assert!(lenient.truncated_tail && lenient.records.is_empty());
    }

    #[test]
    fn wire_bids_join_the_auction_and_change_the_outcome() {
        // A very cheap wire bid must win over the base bids.
        let mut with_wire = AuctionService::new(config(), test_provider);
        with_wire
            .apply(
                &ServiceEvent::BidSubmitted {
                    seller: 0,
                    bid: 1,
                    amount: 4,
                    price: 0.01,
                },
                None,
            )
            .unwrap();
        let mut without = AuctionService::new(config(), test_provider);
        for _ in 0..3 {
            with_wire.apply(&ServiceEvent::RoundClosed, None).unwrap();
            without.apply(&ServiceEvent::RoundClosed, None).unwrap();
        }
        assert_ne!(
            with_wire.last_outcome_digest_hex(),
            without.last_outcome_digest_hex(),
            "a dominating wire bid must alter the stage outcome"
        );
    }
}
