//! Multi-platform federation with partition-tolerant re-selling.
//!
//! The paper's MSOA assumes one trusted platform; real edge deployments
//! are *federations* of platforms that re-sell surplus capacity to one
//! another over unreliable links (the MEC re-selling framework of
//! PAPERS.md). This module layers that on the PR 6 event-sourced
//! service, deterministically:
//!
//! * each platform is a [`FederationNode`]: an [`AuctionService`] plus
//!   protocol state (peer quotes, open deals, reservations);
//! * nodes exchange [`FedMsg`]s over an [`edge_net::Network`] — a
//!   seeded, logical-clock substrate, so every drop, delay, and
//!   partition is reproducible;
//! * after each completed stage a node **gossips** its surplus capacity
//!   and mean unit price, and a node whose stage ended with unmet
//!   demand opens a **two-phase re-sell deal** against the cheapest
//!   known peer: `Offer → Accept (reserve) → Commit → Ack (apply)`.
//!   Deadlines are logical ticks, retries back off exponentially, and
//!   deal ids are idempotent — a duplicate `Commit` re-sends the `Ack`
//!   but never applies the capacity twice;
//! * a partitioned node simply hears nothing: it degrades to local-only
//!   clearing (its service sees exactly the events a standalone run
//!   would), and reconciliation is the protocol itself — commit retries
//!   cross the healed link, a live reservation completes the deal, an
//!   expired one answers with a definitive reject;
//! * every network and protocol event folds into an FNV-1a digest chain
//!   ([`FederationSim`] records, written as the [`FedChain`]
//!   [`crate::chain_log`] format), so a run is replayed byte-identically
//!   from its log header at any pricing pool size;
//! * every wire payload travels inside a [`FedPacket`] span envelope
//!   (`"{deal}#{hop}"` causal ids derived from driver order and logical
//!   ticks), and a `federate --trace` run mirrors each deal's full
//!   lifecycle — sends, drops, duplicate deliveries, timeouts, expiries,
//!   late fills — onto the deterministic trace with `fed_seq` provenance
//!   back to the chained log records.
//!
//! See DESIGN.md §14 for the full protocol walkthrough and §15 for the
//! observability contract.

use crate::chain_log::{self, Chain, Format, LogError, Record};
use crate::msoa::MultiRoundInstance;
use crate::service::{AuctionService, ServiceConfig, ServiceError, ServiceEvent, StageSummary};
use edge_common::id::PlatformId;
use edge_common::rng::fnv1a64;
use edge_net::{Delivery, NetConfigError, NetEvent, NetFaultPlan, NetStats, Network};
use edge_telemetry::registry::global;
use edge_telemetry::{Collector, Counter, Gauge, Level, Sink, Value};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Domain separator for the federation log digest chain.
pub const FED_GENESIS: &str = "edge-market-fed-log";
/// Federation log format version. v2 added the [`FedPacket`] span
/// envelope on every wire payload and the end-of-run
/// [`FedEvent::NodeSummary`] records; v1 logs are rejected with
/// [`LogError::UnknownVersion`].
pub const FED_VERSION: u32 = 2;

// ---------------------------------------------------------------------
// Configuration.
// ---------------------------------------------------------------------

/// Static configuration of one federation run. Serialized into the fed
/// log header; replay rebuilds the entire run from it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FederationConfig {
    /// One service configuration per platform (node k wraps `nodes[k]`).
    pub nodes: Vec<ServiceConfig>,
    /// Ticks between round closes (every node closes on the cadence).
    pub round_ticks: u64,
    /// Base deadline, in ticks, for each deal phase; retry `n` waits
    /// `offer_timeout · 2ⁿ`. Deadlines saturate at tick `u64::MAX`,
    /// which never comes, so any value is safe.
    pub offer_timeout: u64,
    /// Retries per deal phase before giving up.
    pub max_retries: u32,
    /// Whether timed-out phases retry at all (the bench's recovery
    /// on/off axis).
    pub retries_enabled: bool,
    /// Ticks a seller holds a reservation before releasing the surplus
    /// (saturating, like the deal deadlines).
    pub reserve_ttl: u64,
    /// Cap on units per deal.
    pub max_deal_units: u64,
    /// Extra ticks after every horizon completes for in-flight deals to
    /// settle before the run is cut off.
    pub drain_ticks: u64,
}

impl FederationConfig {
    /// A federation of `k` platforms over per-node service configs
    /// derived from `base`: node 0 keeps `base` verbatim (so `k = 1`
    /// reproduces the single-platform serve loop bit-for-bit) and node
    /// `i` reseeds with a fixed stride so platforms see decorrelated
    /// workloads.
    pub fn uniform(base: ServiceConfig, k: usize) -> Self {
        let nodes = (0..k)
            .map(|i| ServiceConfig {
                seed: base.seed.wrapping_add(i as u64 * 7919),
                ..base
            })
            .collect();
        FederationConfig {
            nodes,
            round_ticks: 2,
            offer_timeout: 8,
            max_retries: 3,
            retries_enabled: true,
            reserve_ttl: 64,
            max_deal_units: 64,
            drain_ticks: 128,
        }
    }

    /// Checks the run is well-formed and finite.
    ///
    /// # Errors
    ///
    /// [`FederationError::Config`] naming the offending field.
    pub fn validate(&self) -> Result<(), FederationError> {
        if self.nodes.is_empty() {
            return Err(FederationError::Config("at least one platform".into()));
        }
        for (i, node) in self.nodes.iter().enumerate() {
            if node.total_rounds == 0 {
                return Err(FederationError::Config(format!(
                    "platform {i} has an unbounded horizon (total_rounds 0); \
                     federation runs must be finite"
                )));
            }
        }
        for (name, v) in [
            ("round_ticks", self.round_ticks),
            ("offer_timeout", self.offer_timeout),
            ("reserve_ttl", self.reserve_ttl),
            ("max_deal_units", self.max_deal_units),
        ] {
            if v == 0 {
                return Err(FederationError::Config(format!("{name} must be ≥ 1")));
            }
        }
        if self.max_retries > 16 {
            return Err(FederationError::Config(
                "max_retries > 16 overflows the backoff schedule".into(),
            ));
        }
        Ok(())
    }

    /// The tick the run is cut off even if deals never settle.
    fn max_ticks(&self) -> u64 {
        let longest = self.nodes.iter().map(|n| n.total_rounds).max().unwrap_or(0);
        longest
            .saturating_mul(self.round_ticks)
            .saturating_add(self.drain_ticks)
    }
}

/// A federation run that could not be built or driven.
#[derive(Debug)]
pub enum FederationError {
    /// Bad [`FederationConfig`].
    Config(String),
    /// Bad [`NetFaultPlan`].
    Net(NetConfigError),
    /// A platform's service rejected an event the driver generated —
    /// always a bug, never an input condition.
    Service(ServiceError),
}

impl fmt::Display for FederationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FederationError::Config(m) => write!(f, "invalid federation config: {m}"),
            FederationError::Net(e) => write!(f, "invalid net-fault plan: {e}"),
            FederationError::Service(e) => write!(f, "federation drive error: {e}"),
        }
    }
}

impl std::error::Error for FederationError {}

impl From<NetConfigError> for FederationError {
    fn from(e: NetConfigError) -> Self {
        FederationError::Net(e)
    }
}

impl From<ServiceError> for FederationError {
    fn from(e: ServiceError) -> Self {
        FederationError::Service(e)
    }
}

// ---------------------------------------------------------------------
// Protocol vocabulary.
// ---------------------------------------------------------------------

/// An idempotent deal identifier: the buyer (originating platform) plus
/// its private sequence number. Retransmits carry the same id, so every
/// receiver can dedupe by id alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DealId {
    /// The buying platform that opened the deal.
    pub origin: PlatformId,
    /// The buyer's deal counter.
    pub seq: u64,
}

impl fmt::Display for DealId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.origin, self.seq)
    }
}

/// The federation wire vocabulary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FedMsg {
    /// Post-stage broadcast of a platform's re-sellable surplus and
    /// mean clearing price.
    Gossip {
        /// The advertising platform's completed stage index.
        stage: u64,
        /// Unsold capacity available for re-sale.
        surplus: u64,
        /// Mean clearing price per unit in the completed stage.
        unit_price: f64,
    },
    /// Phase 1: buyer asks seller to reserve `units`.
    Offer {
        /// The deal.
        deal: DealId,
        /// Units requested.
        units: u64,
        /// Highest unit price the buyer will pay (the quoted price).
        max_unit_price: f64,
        /// Retransmit counter (0 = first send).
        attempt: u32,
    },
    /// Seller reserved the units at `unit_price` (TTL-bounded).
    Accept {
        /// The deal.
        deal: DealId,
        /// Units reserved.
        units: u64,
        /// Price per unit the seller will charge.
        unit_price: f64,
    },
    /// Seller declined (or a late commit found no live reservation).
    Reject {
        /// The deal.
        deal: DealId,
        /// Machine-readable reason.
        code: String,
    },
    /// Phase 2: buyer converts the reservation into a binding deal.
    Commit {
        /// The deal.
        deal: DealId,
        /// Retransmit counter (0 = first send).
        attempt: u32,
    },
    /// Seller applied the deal (idempotently) and confirms the terms.
    Ack {
        /// The deal.
        deal: DealId,
        /// Units sold.
        units: u64,
        /// Price per unit charged.
        unit_price: f64,
    },
}

/// One wire packet: a protocol message plus its causal span stamp.
///
/// The span id of a deal-bearing packet renders as `"{deal}#{hop}"`.
/// `hop` is a per-deal causal counter maintained by the driver: it is
/// incremented on every send for the deal and max-merged on every
/// delivery, so a message sent *because of* another always carries a
/// strictly larger hop (a clean exchange is `Offer#1 → Accept#2 →
/// Commit#3 → Ack#4`; retransmits get fresh hops). Gossip packets reuse
/// the advertised stage index as their hop. Everything derives from
/// logical ticks and driver order — no wall clock — so spans replay
/// byte-identically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FedPacket {
    /// Causal hop counter (for gossip: the advertised stage index).
    pub hop: u64,
    /// The protocol message.
    pub msg: FedMsg,
}

/// The deal a message belongs to (`None` for gossip).
pub fn msg_deal(msg: &FedMsg) -> Option<DealId> {
    match msg {
        FedMsg::Gossip { .. } => None,
        FedMsg::Offer { deal, .. }
        | FedMsg::Accept { deal, .. }
        | FedMsg::Reject { deal, .. }
        | FedMsg::Commit { deal, .. }
        | FedMsg::Ack { deal, .. } => Some(*deal),
    }
}

/// The wire vocabulary name of a message.
pub fn msg_kind(msg: &FedMsg) -> &'static str {
    match msg {
        FedMsg::Gossip { .. } => "Gossip",
        FedMsg::Offer { .. } => "Offer",
        FedMsg::Accept { .. } => "Accept",
        FedMsg::Reject { .. } => "Reject",
        FedMsg::Commit { .. } => "Commit",
        FedMsg::Ack { .. } => "Ack",
    }
}

// ---------------------------------------------------------------------
// Log events.
// ---------------------------------------------------------------------

/// One entry on the federation's digest-chained tape: every network
/// event plus every protocol state transition, in driver order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FedEvent {
    /// A substrate event (send / drop / duplicate / delivery).
    Net(NetEvent),
    /// A deal phase passed its deadline on the buyer.
    Timeout {
        /// Tick of the timeout.
        tick: u64,
        /// The buyer node.
        node: usize,
        /// The deal.
        deal: DealId,
        /// `"offer"` or `"commit"`.
        phase: String,
        /// The attempt that timed out.
        attempt: u32,
        /// Whether a retry was scheduled.
        retrying: bool,
    },
    /// A buyer opened a deal against a peer quote.
    DealOpened {
        /// Tick of the open.
        tick: u64,
        /// The buyer node.
        buyer: usize,
        /// The seller node the offer targets.
        seller: usize,
        /// The deal.
        deal: DealId,
        /// Units requested.
        units: u64,
        /// The quoted price cap.
        max_unit_price: f64,
    },
    /// A seller reserved units for a deal.
    DealReserved {
        /// Tick of the reservation.
        tick: u64,
        /// The seller node.
        seller: usize,
        /// The deal.
        deal: DealId,
        /// Units reserved.
        units: u64,
        /// Price per unit.
        unit_price: f64,
        /// Tick the reservation self-releases.
        expires: u64,
    },
    /// A seller declined an offer or a late commit.
    DealRejected {
        /// Tick of the rejection.
        tick: u64,
        /// The seller node.
        seller: usize,
        /// The deal.
        deal: DealId,
        /// Machine-readable reason.
        code: String,
    },
    /// A seller converted a reservation into applied demand
    /// (`DemandReported` on its local service) — happens at most once
    /// per deal id.
    DealApplied {
        /// Tick of the application.
        tick: u64,
        /// The seller node.
        seller: usize,
        /// The deal.
        deal: DealId,
        /// Units applied.
        units: u64,
        /// Price per unit charged.
        unit_price: f64,
    },
    /// A buyer received the ack and booked the fill.
    DealFilled {
        /// Tick of the fill.
        tick: u64,
        /// The buyer node.
        buyer: usize,
        /// The deal.
        deal: DealId,
        /// Units filled.
        units: u64,
        /// Price per unit paid.
        unit_price: f64,
        /// True when the ack arrived after the buyer had given the deal
        /// up (partition-heal reconciliation).
        late: bool,
    },
    /// A buyer abandoned a deal (reject received or retries exhausted
    /// in the offer phase).
    DealAborted {
        /// Tick of the abort.
        tick: u64,
        /// The abandoning node.
        node: usize,
        /// The deal.
        deal: DealId,
        /// The phase the deal died in.
        phase: String,
    },
    /// A buyer exhausted commit retries without an ack — the deal's
    /// fate is unknown until (and unless) a late ack reconciles it.
    DealUnresolved {
        /// Tick retries ran out.
        tick: u64,
        /// The buyer node.
        node: usize,
        /// The deal.
        deal: DealId,
    },
    /// A seller's reservation TTL lapsed; the surplus is released.
    ReservationExpired {
        /// Tick of the expiry.
        tick: u64,
        /// The seller node.
        seller: usize,
        /// The deal.
        deal: DealId,
        /// Units released.
        units: u64,
    },
    /// A platform finished a stage auction.
    StageCompleted {
        /// Tick of the close.
        tick: u64,
        /// The platform.
        node: usize,
        /// Stage index.
        stage: u64,
        /// The stage outcome digest (hex).
        outcome_digest: String,
        /// The platform's rolling state digest (hex).
        state_digest: String,
        /// Unmet demand in the stage.
        shortfall_units: u64,
        /// Re-sellable surplus after the stage.
        surplus: u64,
    },
    /// A platform had unmet demand but no reachable quote — local-only
    /// (degraded) clearing for this stage.
    LocalOnly {
        /// Tick of the stage close.
        tick: u64,
        /// The platform.
        node: usize,
        /// Stage index.
        stage: u64,
        /// Unmet demand it could not shop out.
        shortfall_units: u64,
    },
    /// End-of-run snapshot of one platform's protocol counters, folded
    /// into the chain (one per node, in node order) so offline tools
    /// (`explain --deal`) can verify re-derived totals against what the
    /// run actually booked.
    NodeSummary {
        /// Tick the run settled.
        tick: u64,
        /// The platform.
        node: usize,
        /// The counters.
        counters: NodeCounters,
    },
}

/// One chained federation log record.
pub type FedRecord = Record<FedEvent>;

// ---------------------------------------------------------------------
// Per-node protocol state.
// ---------------------------------------------------------------------

/// A peer's latest gossip, kept newest-stage-wins so reordered gossip
/// can never roll a quote backwards.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PeerQuote {
    stage: u64,
    surplus: u64,
    unit_price: f64,
}

/// Which phase an outgoing (buyer-side) deal is in.
#[derive(Debug, Clone, Copy, PartialEq)]
enum DealPhase {
    /// Offer sent, waiting for accept/reject.
    Offering,
    /// Accept received; commit sent, waiting for ack.
    Committing {
        /// Units the seller reserved.
        units: u64,
        /// Price per unit the seller quoted.
        unit_price: f64,
    },
}

impl DealPhase {
    fn name(&self) -> &'static str {
        match self {
            DealPhase::Offering => "offer",
            DealPhase::Committing { .. } => "commit",
        }
    }
}

/// Buyer-side record of one open deal.
#[derive(Debug, Clone)]
struct OutgoingDeal {
    seller: PlatformId,
    units: u64,
    max_unit_price: f64,
    phase: DealPhase,
    attempt: u32,
    deadline: u64,
}

/// Seller-side TTL-bounded hold on surplus units.
#[derive(Debug, Clone, Copy)]
struct Reservation {
    units: u64,
    unit_price: f64,
    expires: u64,
}

/// Per-node protocol counters, reported in the outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct NodeCounters {
    /// Deals opened (offers for distinct deal ids).
    pub deals_opened: u64,
    /// Retransmits across both phases.
    pub retries: u64,
    /// Phase deadlines missed.
    pub timeouts: u64,
    /// Buyer-side completed deals (acks booked).
    pub deals_filled: u64,
    /// Seller-side applied deals.
    pub deals_applied: u64,
    /// Deals abandoned before commit.
    pub deals_aborted: u64,
    /// Commits whose fate stayed unknown.
    pub deals_unresolved: u64,
    /// Fills that arrived after the buyer had given up.
    pub late_fills: u64,
    /// Reservations that lapsed.
    pub reservations_expired: u64,
    /// Stages with unmet demand and no reachable quote.
    pub local_only_stages: u64,
    /// Σ unmet demand across stages (what the node wanted to buy).
    pub deficit_units: u64,
    /// Σ units bought from peers.
    pub filled_units: u64,
    /// Σ units sold to peers (applied on the local service).
    pub resold_units: u64,
    /// Σ cost of cross-platform fills.
    pub cross_cost: f64,
    /// Σ revenue from re-selling to peers.
    pub resale_revenue: f64,
}

/// Messages to send and events to log, produced by one node step.
///
/// Nodes never touch the network directly — the driver routes these, so
/// a test (or proptest) can drive a node's handlers message-by-message.
#[derive(Debug, Default)]
pub struct Effects {
    /// `(to, msg)` sends, in decision order.
    pub sends: Vec<(PlatformId, FedMsg)>,
    /// Protocol events, in decision order.
    pub events: Vec<FedEvent>,
}

impl Effects {
    fn send(&mut self, to: PlatformId, msg: FedMsg) {
        self.sends.push((to, msg));
    }

    fn log(&mut self, event: FedEvent) {
        self.events.push(event);
    }
}

/// One platform: an event-sourced auction service plus federation
/// protocol state. All methods are driven by logical time (`now`) —
/// the node itself never consults a clock.
pub struct FederationNode<P> {
    id: PlatformId,
    platforms: usize,
    svc: AuctionService<P>,
    timeouts_cfg: (u64, u32, bool), // (offer_timeout, max_retries, retries_enabled)
    reserve_ttl: u64,
    max_deal_units: u64,
    peers: BTreeMap<PlatformId, PeerQuote>,
    surplus: u64,
    unit_price: Option<f64>,
    next_deal_seq: u64,
    outgoing: BTreeMap<DealId, OutgoingDeal>,
    reservations: BTreeMap<DealId, Reservation>,
    /// Seller-side applied deals with their terms — presence is the
    /// idempotency guard, the terms feed ack retransmits.
    applied: BTreeMap<DealId, (u64, f64)>,
    /// Buyer-side booked fills — the matching guard for duplicate acks.
    filled: BTreeMap<DealId, (u64, f64)>,
    counters: NodeCounters,
}

impl<P> fmt::Debug for FederationNode<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FederationNode")
            .field("id", &self.id)
            .field("surplus", &self.surplus)
            .field("outgoing", &self.outgoing.len())
            .field("reservations", &self.reservations.len())
            .finish_non_exhaustive()
    }
}

impl<P: FnMut(u64, u64) -> MultiRoundInstance> FederationNode<P> {
    /// A fresh node wrapping `provider`'s stage instances under
    /// `config`, tagged `id` of `platforms`.
    pub fn new(
        id: PlatformId,
        platforms: usize,
        fed: &FederationConfig,
        config: ServiceConfig,
        provider: P,
    ) -> Self {
        let mut svc = AuctionService::new(config, provider);
        svc.set_trace_scope(vec![("platform", Value::from(id.index()))]);
        FederationNode {
            id,
            platforms,
            svc,
            timeouts_cfg: (fed.offer_timeout, fed.max_retries, fed.retries_enabled),
            reserve_ttl: fed.reserve_ttl,
            max_deal_units: fed.max_deal_units,
            peers: BTreeMap::new(),
            surplus: 0,
            unit_price: None,
            next_deal_seq: 0,
            outgoing: BTreeMap::new(),
            reservations: BTreeMap::new(),
            applied: BTreeMap::new(),
            filled: BTreeMap::new(),
            counters: NodeCounters::default(),
        }
    }

    /// The wrapped service (digests, counters, config).
    pub fn service(&self) -> &AuctionService<P> {
        &self.svc
    }

    /// This node's protocol counters.
    pub fn counters(&self) -> &NodeCounters {
        &self.counters
    }

    /// True when nothing is pending on this node (no open deals, no
    /// live reservations).
    pub fn settled(&self) -> bool {
        self.outgoing.is_empty() && self.reservations.is_empty()
    }

    /// Test/bootstrap hook: pretend a stage left `units` of surplus at
    /// `unit_price`, as the seller-side handlers would see after a real
    /// stage close. Used by the protocol proptests to drive a node
    /// without running auctions.
    pub fn seed_surplus(&mut self, units: u64, unit_price: f64) {
        self.surplus = units;
        self.unit_price = Some(unit_price);
    }

    /// Closes one auction round on the local service. When that
    /// completes a stage, updates the node's quote, gossips it, and —
    /// if the stage left unmet demand — opens a re-sell deal against
    /// the cheapest known peer.
    ///
    /// # Errors
    ///
    /// Propagates [`ServiceError`] from the stage auction (a driver
    /// bug: the cadence never closes past the horizon).
    pub fn close_round(
        &mut self,
        now: u64,
        collector: Option<&Collector>,
        effects: &mut Effects,
    ) -> Result<(), ServiceError> {
        let applied = self.svc.apply(&ServiceEvent::RoundClosed, collector)?;
        let Some(stage) = applied.stage else {
            return Ok(());
        };
        self.after_stage(&stage, applied.state_digest, now, effects);
        Ok(())
    }

    /// Post-stage bookkeeping: quote refresh, gossip, deal opening.
    fn after_stage(
        &mut self,
        stage: &StageSummary,
        state_digest: String,
        now: u64,
        effects: &mut Effects,
    ) {
        // Reserved-but-unapplied units stay off the books: the quote
        // only advertises what a new deal could actually take.
        let reserved: u64 = self.reservations.values().map(|r| r.units).sum();
        self.surplus = stage.unsold_capacity.saturating_sub(reserved);
        if let Some(price) = stage.unit_price() {
            self.unit_price = Some(price);
        }
        effects.log(FedEvent::StageCompleted {
            tick: now,
            node: self.id.index(),
            stage: stage.stage,
            outcome_digest: stage.outcome_digest.clone(),
            state_digest,
            shortfall_units: stage.shortfall_units,
            surplus: self.surplus,
        });
        if let Some(price) = self.unit_price {
            for peer in (0..self.platforms).map(PlatformId::new) {
                if peer != self.id {
                    effects.send(
                        peer,
                        FedMsg::Gossip {
                            stage: stage.stage,
                            surplus: self.surplus,
                            unit_price: price,
                        },
                    );
                }
            }
        }
        if stage.shortfall_units > 0 {
            self.counters.deficit_units += stage.shortfall_units;
            self.open_deal(stage, now, effects);
        }
    }

    /// Opens a deal for the stage's shortfall against the cheapest
    /// quoted peer, or records a degraded (local-only) stage when no
    /// peer is reachable.
    fn open_deal(&mut self, stage: &StageSummary, now: u64, effects: &mut Effects) {
        let pick = self
            .peers
            .iter()
            .filter(|(_, q)| q.surplus > 0 && q.unit_price.is_finite())
            .min_by(|(ida, qa), (idb, qb)| {
                qa.unit_price
                    .partial_cmp(&qb.unit_price)
                    .expect("finite prices compare")
                    .then(ida.cmp(idb))
            })
            .map(|(&id, &q)| (id, q));
        let Some((seller, quote)) = pick else {
            self.counters.local_only_stages += 1;
            effects.log(FedEvent::LocalOnly {
                tick: now,
                node: self.id.index(),
                stage: stage.stage,
                shortfall_units: stage.shortfall_units,
            });
            return;
        };
        let units = stage
            .shortfall_units
            .min(quote.surplus)
            .min(self.max_deal_units);
        let deal = DealId {
            origin: self.id,
            seq: self.next_deal_seq,
        };
        self.next_deal_seq += 1;
        // Optimistically debit the cached quote so back-to-back stages
        // don't dogpile one peer before its next gossip arrives.
        if let Some(q) = self.peers.get_mut(&seller) {
            q.surplus = q.surplus.saturating_sub(units);
        }
        self.outgoing.insert(
            deal,
            OutgoingDeal {
                seller,
                units,
                max_unit_price: quote.unit_price,
                phase: DealPhase::Offering,
                attempt: 0,
                deadline: now.saturating_add(self.timeouts_cfg.0),
            },
        );
        self.counters.deals_opened += 1;
        effects.log(FedEvent::DealOpened {
            tick: now,
            buyer: self.id.index(),
            seller: seller.index(),
            deal,
            units,
            max_unit_price: quote.unit_price,
        });
        effects.send(
            seller,
            FedMsg::Offer {
                deal,
                units,
                max_unit_price: quote.unit_price,
                attempt: 0,
            },
        );
    }

    /// Handles one delivered message. Duplicate and late deliveries are
    /// answered idempotently: state transitions happen at most once per
    /// deal id, retransmitted replies are byte-identical.
    pub fn handle(
        &mut self,
        from: PlatformId,
        msg: FedMsg,
        now: u64,
        collector: Option<&Collector>,
        effects: &mut Effects,
    ) {
        match msg {
            FedMsg::Gossip {
                stage,
                surplus,
                unit_price,
            } => {
                let entry = self.peers.entry(from).or_insert(PeerQuote {
                    stage,
                    surplus,
                    unit_price,
                });
                // Newest stage wins; a reordered older quote is stale.
                if stage >= entry.stage {
                    *entry = PeerQuote {
                        stage,
                        surplus,
                        unit_price,
                    };
                }
            }
            FedMsg::Offer {
                deal,
                units,
                max_unit_price,
                ..
            } => self.on_offer(from, deal, units, max_unit_price, now, effects),
            FedMsg::Accept {
                deal,
                units,
                unit_price,
            } => self.on_accept(deal, units, unit_price, now, effects),
            FedMsg::Reject { deal, code } => self.on_reject(deal, &code, now, effects),
            FedMsg::Commit { deal, .. } => self.on_commit(from, deal, now, collector, effects),
            FedMsg::Ack {
                deal,
                units,
                unit_price,
            } => self.on_ack(deal, units, unit_price, now, effects),
        }
    }

    /// Seller side of phase 1.
    fn on_offer(
        &mut self,
        from: PlatformId,
        deal: DealId,
        units: u64,
        max_unit_price: f64,
        now: u64,
        effects: &mut Effects,
    ) {
        if let Some(&(units, unit_price)) = self.applied.get(&deal) {
            // The commit already landed; the buyer just never heard the
            // ack. Retransmit it.
            effects.send(
                from,
                FedMsg::Ack {
                    deal,
                    units,
                    unit_price,
                },
            );
            return;
        }
        if let Some(r) = self.reservations.get(&deal) {
            // Duplicate offer: re-send the identical accept.
            effects.send(
                from,
                FedMsg::Accept {
                    deal,
                    units: r.units,
                    unit_price: r.unit_price,
                },
            );
            return;
        }
        let price = self.unit_price;
        let verdict = if units == 0 {
            Err("zero-units")
        } else if self.surplus < units {
            Err("insufficient-surplus")
        } else {
            match price {
                None => Err("no-price"),
                Some(p) if p > max_unit_price => Err("price-above-cap"),
                Some(_)
                    if self
                        .svc
                        .check(&ServiceEvent::DemandReported { units })
                        .is_err() =>
                {
                    Err("demand-cap")
                }
                Some(p) => Ok(p),
            }
        };
        match verdict {
            Ok(unit_price) => {
                self.surplus -= units;
                let expires = now.saturating_add(self.reserve_ttl);
                self.reservations.insert(
                    deal,
                    Reservation {
                        units,
                        unit_price,
                        expires,
                    },
                );
                effects.log(FedEvent::DealReserved {
                    tick: now,
                    seller: self.id.index(),
                    deal,
                    units,
                    unit_price,
                    expires,
                });
                effects.send(
                    from,
                    FedMsg::Accept {
                        deal,
                        units,
                        unit_price,
                    },
                );
            }
            Err(code) => {
                effects.log(FedEvent::DealRejected {
                    tick: now,
                    seller: self.id.index(),
                    deal,
                    code: code.to_owned(),
                });
                effects.send(
                    from,
                    FedMsg::Reject {
                        deal,
                        code: code.to_owned(),
                    },
                );
            }
        }
    }

    /// Buyer side: the seller reserved — move to phase 2.
    fn on_accept(
        &mut self,
        deal: DealId,
        units: u64,
        unit_price: f64,
        now: u64,
        effects: &mut Effects,
    ) {
        let Some(open) = self.outgoing.get_mut(&deal) else {
            return; // already filled or abandoned; the duplicate is late
        };
        if let DealPhase::Committing { .. } = open.phase {
            return; // duplicate accept; the commit is already out
        }
        open.phase = DealPhase::Committing { units, unit_price };
        open.attempt = 0;
        open.deadline = now.saturating_add(self.timeouts_cfg.0);
        effects.send(open.seller, FedMsg::Commit { deal, attempt: 0 });
    }

    /// Buyer side: the seller said no (or a late commit found nothing).
    fn on_reject(&mut self, deal: DealId, code: &str, now: u64, effects: &mut Effects) {
        let Some(open) = self.outgoing.remove(&deal) else {
            return;
        };
        self.counters.deals_aborted += 1;
        effects.log(FedEvent::DealAborted {
            tick: now,
            node: self.id.index(),
            deal,
            phase: format!("{}:{code}", open.phase.name()),
        });
    }

    /// Seller side of phase 2: apply at most once, ack every time.
    fn on_commit(
        &mut self,
        from: PlatformId,
        deal: DealId,
        now: u64,
        collector: Option<&Collector>,
        effects: &mut Effects,
    ) {
        if let Some(&(units, unit_price)) = self.applied.get(&deal) {
            // Duplicate commit: the deal is already on the books; the
            // ack is retransmitted, the demand is NOT re-applied.
            effects.send(
                from,
                FedMsg::Ack {
                    deal,
                    units,
                    unit_price,
                },
            );
            return;
        }
        let Some(reservation) = self.reservations.remove(&deal) else {
            // Expired or never existed — a late commit gets a
            // definitive answer so the buyer can reconcile.
            effects.send(
                from,
                FedMsg::Reject {
                    deal,
                    code: "no-reservation".to_owned(),
                },
            );
            return;
        };
        // The buyer's demand enters this platform's next round as
        // reported demand. A cap race (local wire demand filled the
        // round since the reservation) turns into a definitive reject.
        let event = ServiceEvent::DemandReported {
            units: reservation.units,
        };
        if self.svc.apply(&event, collector).is_err() {
            self.surplus += reservation.units;
            effects.log(FedEvent::DealRejected {
                tick: now,
                seller: self.id.index(),
                deal,
                code: "demand-cap".to_owned(),
            });
            effects.send(
                from,
                FedMsg::Reject {
                    deal,
                    code: "demand-cap".to_owned(),
                },
            );
            return;
        }
        self.applied
            .insert(deal, (reservation.units, reservation.unit_price));
        self.counters.deals_applied += 1;
        self.counters.resold_units += reservation.units;
        self.counters.resale_revenue += reservation.units as f64 * reservation.unit_price;
        effects.log(FedEvent::DealApplied {
            tick: now,
            seller: self.id.index(),
            deal,
            units: reservation.units,
            unit_price: reservation.unit_price,
        });
        effects.send(
            from,
            FedMsg::Ack {
                deal,
                units: reservation.units,
                unit_price: reservation.unit_price,
            },
        );
    }

    /// Buyer side: the deal is done. Duplicates are ignored; a late ack
    /// (after the buyer gave up) still books the fill — the seller
    /// applied it, so the buyer owes it.
    fn on_ack(
        &mut self,
        deal: DealId,
        units: u64,
        unit_price: f64,
        now: u64,
        effects: &mut Effects,
    ) {
        if self.filled.contains_key(&deal) {
            return;
        }
        let late = self.outgoing.remove(&deal).is_none();
        if late {
            self.counters.late_fills += 1;
        }
        self.filled.insert(deal, (units, unit_price));
        self.counters.deals_filled += 1;
        self.counters.filled_units += units;
        self.counters.cross_cost += units as f64 * unit_price;
        effects.log(FedEvent::DealFilled {
            tick: now,
            buyer: self.id.index(),
            deal,
            units,
            unit_price,
            late,
        });
    }

    /// Fires deadlines: deal-phase timeouts (with bounded exponential
    /// backoff) and reservation TTLs.
    pub fn on_timers(&mut self, now: u64, effects: &mut Effects) {
        let (timeout, max_retries, retries_enabled) = self.timeouts_cfg;
        let due: Vec<DealId> = self
            .outgoing
            .iter()
            .filter(|(_, d)| d.deadline <= now)
            .map(|(&id, _)| id)
            .collect();
        for deal in due {
            let open = self.outgoing.get_mut(&deal).expect("deal is present");
            let retrying = retries_enabled && open.attempt < max_retries;
            self.counters.timeouts += 1;
            effects.log(FedEvent::Timeout {
                tick: now,
                node: self.id.index(),
                deal,
                phase: open.phase.name().to_owned(),
                attempt: open.attempt,
                retrying,
            });
            if retrying {
                open.attempt += 1;
                let backoff = timeout.saturating_mul(1 << open.attempt.min(16));
                open.deadline = now.saturating_add(backoff);
                self.counters.retries += 1;
                let msg = match open.phase {
                    DealPhase::Offering => FedMsg::Offer {
                        deal,
                        units: open.units,
                        max_unit_price: open.max_unit_price,
                        attempt: open.attempt,
                    },
                    DealPhase::Committing { .. } => FedMsg::Commit {
                        deal,
                        attempt: open.attempt,
                    },
                };
                effects.send(open.seller, msg);
            } else {
                let open = self.outgoing.remove(&deal).expect("deal is present");
                match open.phase {
                    DealPhase::Offering => {
                        self.counters.deals_aborted += 1;
                        effects.log(FedEvent::DealAborted {
                            tick: now,
                            node: self.id.index(),
                            deal,
                            phase: "offer:timeout".to_owned(),
                        });
                    }
                    DealPhase::Committing { .. } => {
                        // The commit may or may not have landed — only a
                        // late ack (or reject) can tell us after a heal.
                        self.counters.deals_unresolved += 1;
                        effects.log(FedEvent::DealUnresolved {
                            tick: now,
                            node: self.id.index(),
                            deal,
                        });
                    }
                }
            }
        }
        let expired: Vec<DealId> = self
            .reservations
            .iter()
            .filter(|(_, r)| r.expires <= now)
            .map(|(&id, _)| id)
            .collect();
        for deal in expired {
            let r = self
                .reservations
                .remove(&deal)
                .expect("reservation present");
            self.surplus += r.units;
            self.counters.reservations_expired += 1;
            effects.log(FedEvent::ReservationExpired {
                tick: now,
                seller: self.id.index(),
                deal,
                units: r.units,
            });
        }
    }
}

// ---------------------------------------------------------------------
// The deterministic federation driver.
// ---------------------------------------------------------------------

/// Registry handles for the `edge_fed_*` families.
#[derive(Debug)]
struct FedLive {
    deals_opened: Arc<Counter>,
    retries: Arc<Counter>,
    timeouts: Arc<Counter>,
    deals_filled: Arc<Counter>,
    deals_applied: Arc<Counter>,
    deals_aborted: Arc<Counter>,
    deals_unresolved: Arc<Counter>,
    late_fills: Arc<Counter>,
    gossip: Arc<Counter>,
    resold_units: Arc<Counter>,
    resale_revenue: Arc<Gauge>,
    deficit_units: Arc<Counter>,
    local_only: Arc<Counter>,
    reservations_expired: Arc<Counter>,
    open_deals: Arc<Gauge>,
}

impl FedLive {
    fn handle() -> Self {
        let r = global();
        FedLive {
            deals_opened: r.counter(
                "edge_fed_deals_opened_total",
                "Cross-platform re-sell deals opened",
                &[],
            ),
            retries: r.counter("edge_fed_retries_total", "Deal-phase retransmits", &[]),
            timeouts: r.counter(
                "edge_fed_timeouts_total",
                "Deal-phase deadlines missed",
                &[],
            ),
            deals_filled: r.counter(
                "edge_fed_deals_filled_total",
                "Deals completed on the buyer (acks booked)",
                &[],
            ),
            deals_applied: r.counter(
                "edge_fed_deals_applied_total",
                "Deals applied on the seller (demand booked)",
                &[],
            ),
            deals_aborted: r.counter(
                "edge_fed_deals_aborted_total",
                "Deals abandoned before commit",
                &[],
            ),
            deals_unresolved: r.counter(
                "edge_fed_deals_unresolved_total",
                "Commits whose fate stayed unknown after retries",
                &[],
            ),
            late_fills: r.counter(
                "edge_fed_late_fills_total",
                "Fills that arrived after the buyer had given up",
                &[],
            ),
            gossip: r.counter(
                "edge_fed_gossip_total",
                "Surplus/price gossip messages sent",
                &[],
            ),
            resold_units: r.counter(
                "edge_fed_resold_units_total",
                "Capacity units re-sold across platforms",
                &[],
            ),
            resale_revenue: r.float_counter(
                "edge_fed_resale_revenue_total",
                "Revenue from re-selling capacity across platforms",
                &[],
            ),
            deficit_units: r.counter(
                "edge_fed_deficit_units_total",
                "Unmet stage demand platforms tried to shop out",
                &[],
            ),
            local_only: r.counter(
                "edge_fed_local_only_stages_total",
                "Stages cleared degraded (shortfall but no reachable quote)",
                &[],
            ),
            reservations_expired: r.counter(
                "edge_fed_reservations_expired_total",
                "Seller reservations that lapsed before a commit",
                &[],
            ),
            open_deals: r.gauge(
                "edge_fed_open_deals",
                "Deals currently awaiting accept or ack",
                &[],
            ),
        }
    }
}

/// Registers every `edge_fed_*` family up front (see
/// `edge_net::live::preregister`).
pub fn preregister_federation_metrics() {
    let _ = FedLive::handle();
}

/// Outcome of one federation run.
#[derive(Debug, Clone, Serialize)]
pub struct FederationOutcome {
    /// Logical ticks the run took.
    pub ticks: u64,
    /// Head of the federation event chain (hex, 16 chars) — commits to
    /// every network and protocol event of the run.
    pub fed_digest: String,
    /// Head of the substrate's own tape chain (hex, 16 chars).
    pub net_digest: String,
    /// Substrate totals.
    pub net: NetStats,
    /// Per-platform reports, in node order.
    pub nodes: Vec<NodeReport>,
}

/// One platform's slice of the outcome.
#[derive(Debug, Clone, Serialize)]
pub struct NodeReport {
    /// The platform index.
    pub node: usize,
    /// Stages its service completed.
    pub stages: u64,
    /// Rounds its service closed.
    pub rounds: u64,
    /// The service's rolling state digest (hex, 16 chars).
    pub state_digest: String,
    /// The last stage outcome digest, if any.
    pub last_outcome_digest: Option<String>,
    /// Σ payments in the platform's local auctions.
    pub local_cost: f64,
    /// Protocol counters.
    pub counters: NodeCounters,
}

impl FederationOutcome {
    /// Cross-platform fill rate: units bought over units wanted
    /// (`1.0` when nothing was wanted).
    pub fn fill_rate(&self) -> f64 {
        let deficit: u64 = self.nodes.iter().map(|n| n.counters.deficit_units).sum();
        let filled: u64 = self.nodes.iter().map(|n| n.counters.filled_units).sum();
        if deficit == 0 {
            1.0
        } else {
            filled as f64 / deficit as f64
        }
    }

    /// Total platform cost: every local auction payment plus every
    /// cross-platform fill.
    pub fn platform_cost(&self) -> f64 {
        self.nodes
            .iter()
            .map(|n| n.local_cost + n.counters.cross_cost)
            .sum()
    }

    /// FNV-1a digest of the serialized outcome (hex, 16 chars).
    pub fn digest_hex(&self) -> String {
        let json = serde_json::to_string(self).expect("outcome serialization is infallible");
        format!("{:016x}", fnv1a64(json.as_bytes()))
    }
}

/// The single-threaded deterministic driver: advances the substrate one
/// tick at a time, routes deliveries to node handlers in delivery
/// order, fires timers and the round cadence in node order, and folds
/// every event into the federation chain. Pricing inside each stage
/// auction may fan out across threads; nothing here depends on it.
pub struct FederationSim<P> {
    config: FederationConfig,
    net: Network<FedPacket>,
    nodes: Vec<FederationNode<P>>,
    records: Vec<FedRecord>,
    chain: Chain,
    /// Per-`(node, deal)` causal hop counters (see [`FedPacket`]):
    /// bumped on every send, max-merged on every delivery.
    hops: BTreeMap<(usize, DealId), u64>,
    /// Span metadata per net send seq, so substrate events (which carry
    /// only the seq) can be traced with deal provenance. Filled only
    /// while a collector is attached; gossip sends are not tracked —
    /// they stay off the trace.
    sent_meta: BTreeMap<u64, SendMeta>,
    live: FedLive,
}

/// What the driver remembers about one deal-bearing net send.
#[derive(Debug, Clone, Copy)]
struct SendMeta {
    deal: DealId,
    hop: u64,
    kind: &'static str,
    /// Retransmit counter for Offer/Commit sends.
    attempt: Option<u32>,
}

impl<P> fmt::Debug for FederationSim<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FederationSim")
            .field("platforms", &self.nodes.len())
            .field("clock", &self.net.clock())
            .field("records", &self.records.len())
            .finish_non_exhaustive()
    }
}

impl<P: FnMut(u64, u64) -> MultiRoundInstance> FederationSim<P> {
    /// Builds a federation of `config.nodes.len()` platforms over
    /// `plan`, drawing each platform's stage provider from
    /// `make_provider(id, service_config)`.
    ///
    /// # Errors
    ///
    /// [`FederationError`] when either configuration fails validation.
    pub fn new(
        config: FederationConfig,
        plan: NetFaultPlan,
        mut make_provider: impl FnMut(PlatformId, ServiceConfig) -> P,
    ) -> Result<Self, FederationError> {
        config.validate()?;
        let platforms = config.nodes.len();
        let net = Network::new(platforms, plan)?;
        let header = FedHeader {
            config: config.clone(),
            plan: net.plan().clone(),
        };
        let chain = Chain::start::<FedChain>(&header);
        let nodes = config
            .nodes
            .iter()
            .enumerate()
            .map(|(i, &svc_config)| {
                let id = PlatformId::new(i);
                FederationNode::new(
                    id,
                    platforms,
                    &config,
                    svc_config,
                    make_provider(id, svc_config),
                )
            })
            .collect();
        Ok(FederationSim {
            config,
            net,
            nodes,
            records: Vec::new(),
            chain,
            hops: BTreeMap::new(),
            sent_meta: BTreeMap::new(),
            live: FedLive::handle(),
        })
    }

    /// The log header this run writes/replays under.
    pub fn header(&self) -> FedHeader {
        FedHeader {
            config: self.config.clone(),
            plan: self.net.plan().clone(),
        }
    }

    /// The recorded chain so far.
    pub fn records(&self) -> &[FedRecord] {
        &self.records
    }

    /// Drives the federation to completion: every horizon closed, every
    /// message delivered or dropped, every deal settled (or the drain
    /// window exhausted). Returns the outcome; the full event chain is
    /// left in [`FederationSim::records`].
    ///
    /// # Errors
    ///
    /// [`FederationError::Service`] if a platform's stage auction
    /// failed structurally (never an input condition).
    pub fn run(
        &mut self,
        collector: Option<&Collector>,
    ) -> Result<FederationOutcome, FederationError> {
        let max_ticks = self.config.max_ticks();
        while self.net.clock() < max_ticks {
            let deliveries = self.net.tick();
            let now = self.net.clock();
            self.absorb_net(collector);
            for delivery in deliveries {
                self.route(delivery, now, collector);
            }
            for i in 0..self.nodes.len() {
                let mut effects = Effects::default();
                self.nodes[i].on_timers(now, &mut effects);
                self.flush(PlatformId::new(i), effects, collector);
            }
            if now.is_multiple_of(self.config.round_ticks) {
                for i in 0..self.nodes.len() {
                    if self.nodes[i].service().horizon_complete() {
                        continue;
                    }
                    let mut effects = Effects::default();
                    self.nodes[i]
                        .close_round(now, collector, &mut effects)
                        .map_err(FederationError::Service)?;
                    self.flush(PlatformId::new(i), effects, collector);
                }
            }
            if self.done() {
                break;
            }
        }
        // Fold each platform's final counters into the chain so offline
        // tools can verify re-derived totals without the outcome struct.
        let settled = self.net.clock();
        for i in 0..self.nodes.len() {
            let counters = *self.nodes[i].counters();
            self.fold(
                FedEvent::NodeSummary {
                    tick: settled,
                    node: i,
                    counters,
                },
                collector,
            );
        }
        Ok(self.outcome())
    }

    /// One delivered message → the receiving node's handler.
    fn route(&mut self, delivery: Delivery<FedPacket>, now: u64, collector: Option<&Collector>) {
        let to = PlatformId::new(delivery.to);
        let from = PlatformId::new(delivery.from);
        let FedPacket { hop, msg } = delivery.payload;
        let _deliver_span = edge_telemetry::spans::enter("fed.deliver");
        // Receive-side causal merge: the receiver's hop counter for the
        // deal catches up to the incoming span, so whatever it sends
        // next is stamped causally after everything it has seen.
        if let Some(deal) = msg_deal(&msg) {
            if edge_telemetry::spans::is_enabled() {
                edge_telemetry::spans::ctr("deal_hops", hop);
                edge_telemetry::spans::ctr("deal_messages", 1);
            }
            let h = self.hops.entry((delivery.to, deal)).or_insert(0);
            *h = (*h).max(hop);
        }
        if matches!(msg, FedMsg::Gossip { .. }) {
            self.live.gossip.incr();
        }
        let mut effects = Effects::default();
        self.nodes[delivery.to].handle(from, msg, now, collector, &mut effects);
        self.flush(to, effects, collector);
    }

    /// Folds a node step's events, stamps and routes its sends, and
    /// folds the network events those sends produced — one canonical
    /// order.
    fn flush(&mut self, from: PlatformId, effects: Effects, collector: Option<&Collector>) {
        for event in effects.events {
            self.fold(event, collector);
        }
        for (to, msg) in effects.sends {
            let hop = match msg_deal(&msg) {
                Some(deal) => {
                    let h = self.hops.entry((from.index(), deal)).or_insert(0);
                    *h += 1;
                    *h
                }
                None => match &msg {
                    FedMsg::Gossip { stage, .. } => *stage,
                    _ => 0,
                },
            };
            // Only the trace reads send metadata: an untraced run keeps
            // none.
            let meta = collector.and_then(|_| msg_deal(&msg)).map(|deal| SendMeta {
                deal,
                hop,
                kind: msg_kind(&msg),
                attempt: match &msg {
                    FedMsg::Offer { attempt, .. } | FedMsg::Commit { attempt, .. } => {
                        Some(*attempt)
                    }
                    _ => None,
                },
            });
            let seq = self
                .net
                .send(from.index(), to.index(), FedPacket { hop, msg });
            if let Some(meta) = meta {
                self.sent_meta.insert(seq, meta);
            }
        }
        self.absorb_net(collector);
        let open: usize = self.nodes.iter().map(|n| n.outgoing.len()).sum();
        self.live.open_deals.set(open as f64);
    }

    /// Drains the substrate's tape into the federation chain.
    fn absorb_net(&mut self, collector: Option<&Collector>) {
        for event in self.net.drain_events() {
            self.fold(FedEvent::Net(event), collector);
        }
    }

    /// Appends one event to the chain, bumps the live counters, and
    /// mirrors deal provenance onto the trace.
    fn fold(&mut self, event: FedEvent, collector: Option<&Collector>) {
        match &event {
            FedEvent::DealOpened { .. } => self.live.deals_opened.incr(),
            FedEvent::Timeout { retrying, .. } => {
                self.live.timeouts.incr();
                if *retrying {
                    self.live.retries.incr();
                }
            }
            FedEvent::DealFilled { late, .. } => {
                self.live.deals_filled.incr();
                if *late {
                    self.live.late_fills.incr();
                }
            }
            FedEvent::DealAborted { .. } => self.live.deals_aborted.incr(),
            FedEvent::DealUnresolved { .. } => self.live.deals_unresolved.incr(),
            FedEvent::DealApplied {
                units, unit_price, ..
            } => {
                self.live.deals_applied.incr();
                self.live.resold_units.add(*units);
                self.live.resale_revenue.add(*units as f64 * unit_price);
            }
            FedEvent::StageCompleted {
                shortfall_units, ..
            } if *shortfall_units > 0 => {
                self.live.deficit_units.add(*shortfall_units);
            }
            FedEvent::LocalOnly { .. } => self.live.local_only.incr(),
            FedEvent::ReservationExpired { .. } => self.live.reservations_expired.incr(),
            _ => {}
        }
        let json = serde_json::to_string(&event).expect("event serialization is infallible");
        let (seq, digest) = self.chain.push(&json);
        if let Some(collector) = collector {
            self.trace_event(collector, &event, seq);
        }
        self.records.push(Record { seq, digest, event });
    }

    /// Mirrors one chained event onto the deterministic trace with full
    /// causal provenance: every field a timeline needs (`deal`, `hop`,
    /// the `"{deal}#{hop}"` span, and `fed_seq` — the chain seq the
    /// event folds under). Gossip network noise stays off the trace;
    /// every deal-bearing wire event and every protocol transition is
    /// on it.
    fn trace_event(&self, collector: &Collector, event: &FedEvent, fed_seq: u64) {
        let span_fields = |deal: &DealId, node: usize| {
            let hop = self.hops.get(&(node, *deal)).copied().unwrap_or(0);
            vec![
                ("deal", Value::from(deal.to_string())),
                ("span", Value::from(format!("{deal}#{hop}"))),
            ]
        };
        let (name, mut fields): (&'static str, Vec<(&'static str, Value)>) = match event {
            FedEvent::Net(net) => {
                let (seq, label) = match net {
                    NetEvent::Sent { seq, .. } => (*seq, "fed.net.sent"),
                    NetEvent::Dropped { seq, .. } => (*seq, "fed.net.dropped"),
                    NetEvent::Duplicated { seq, .. } => (*seq, "fed.net.duplicated"),
                    NetEvent::Delivered { seq, .. } => (*seq, "fed.net.delivered"),
                };
                // Gossip sends have no meta: they stay off the trace.
                let Some(meta) = self.sent_meta.get(&seq) else {
                    return;
                };
                let mut fields = vec![
                    ("deal", Value::from(meta.deal.to_string())),
                    ("span", Value::from(format!("{}#{}", meta.deal, meta.hop))),
                    ("kind", Value::from(meta.kind)),
                    ("net_seq", Value::from(seq)),
                ];
                if let Some(attempt) = meta.attempt {
                    fields.push(("attempt", Value::from(attempt)));
                }
                match net {
                    NetEvent::Sent { tick, from, to, .. } => {
                        fields.push(("tick", Value::from(*tick)));
                        fields.push(("from", Value::from(*from)));
                        fields.push(("to", Value::from(*to)));
                    }
                    NetEvent::Dropped {
                        tick,
                        from,
                        to,
                        reason,
                        ..
                    } => {
                        fields.push(("tick", Value::from(*tick)));
                        fields.push(("from", Value::from(*from)));
                        fields.push(("to", Value::from(*to)));
                        fields.push((
                            "reason",
                            Value::from(match reason {
                                edge_net::DropReason::Loss => "loss",
                                edge_net::DropReason::Partition => "partition",
                            }),
                        ));
                    }
                    NetEvent::Duplicated {
                        tick, deliver_at, ..
                    } => {
                        fields.push(("tick", Value::from(*tick)));
                        fields.push(("deliver_at", Value::from(*deliver_at)));
                    }
                    NetEvent::Delivered {
                        tick,
                        to,
                        duplicate,
                        ..
                    } => {
                        fields.push(("tick", Value::from(*tick)));
                        fields.push(("to", Value::from(*to)));
                        fields.push(("duplicate", Value::from(*duplicate)));
                    }
                }
                (label, fields)
            }
            FedEvent::Timeout {
                tick,
                node,
                deal,
                phase,
                attempt,
                retrying,
            } => {
                let mut fields = span_fields(deal, *node);
                fields.push(("tick", Value::from(*tick)));
                fields.push(("node", Value::from(*node)));
                fields.push(("phase", Value::from(phase.clone())));
                fields.push(("attempt", Value::from(*attempt)));
                fields.push(("retrying", Value::from(*retrying)));
                ("fed.timeout", fields)
            }
            FedEvent::DealOpened {
                tick,
                buyer,
                seller,
                deal,
                units,
                max_unit_price,
            } => {
                let mut fields = span_fields(deal, *buyer);
                fields.push(("tick", Value::from(*tick)));
                fields.push(("buyer", Value::from(*buyer)));
                fields.push(("seller", Value::from(*seller)));
                fields.push(("units", Value::from(*units)));
                fields.push(("max_unit_price", Value::from(*max_unit_price)));
                ("fed.deal.opened", fields)
            }
            FedEvent::DealReserved {
                tick,
                seller,
                deal,
                units,
                unit_price,
                expires,
            } => {
                let mut fields = span_fields(deal, *seller);
                fields.push(("tick", Value::from(*tick)));
                fields.push(("seller", Value::from(*seller)));
                fields.push(("units", Value::from(*units)));
                fields.push(("unit_price", Value::from(*unit_price)));
                fields.push(("expires", Value::from(*expires)));
                ("fed.deal.reserved", fields)
            }
            FedEvent::DealRejected {
                tick,
                seller,
                deal,
                code,
            } => {
                let mut fields = span_fields(deal, *seller);
                fields.push(("tick", Value::from(*tick)));
                fields.push(("seller", Value::from(*seller)));
                fields.push(("code", Value::from(code.clone())));
                ("fed.deal.rejected", fields)
            }
            FedEvent::DealApplied {
                tick,
                seller,
                deal,
                units,
                unit_price,
            } => {
                let mut fields = span_fields(deal, *seller);
                fields.push(("tick", Value::from(*tick)));
                fields.push(("seller", Value::from(*seller)));
                fields.push(("units", Value::from(*units)));
                fields.push(("unit_price", Value::from(*unit_price)));
                ("fed.deal.applied", fields)
            }
            FedEvent::DealFilled {
                tick,
                buyer,
                deal,
                units,
                unit_price,
                late,
            } => {
                let mut fields = span_fields(deal, *buyer);
                fields.push(("tick", Value::from(*tick)));
                fields.push(("buyer", Value::from(*buyer)));
                fields.push(("units", Value::from(*units)));
                fields.push(("unit_price", Value::from(*unit_price)));
                fields.push(("late", Value::from(*late)));
                ("fed.deal.filled", fields)
            }
            FedEvent::DealAborted {
                tick,
                node,
                deal,
                phase,
            } => {
                let mut fields = span_fields(deal, *node);
                fields.push(("tick", Value::from(*tick)));
                fields.push(("node", Value::from(*node)));
                fields.push(("phase", Value::from(phase.clone())));
                ("fed.deal.aborted", fields)
            }
            FedEvent::DealUnresolved { tick, node, deal } => {
                let mut fields = span_fields(deal, *node);
                fields.push(("tick", Value::from(*tick)));
                fields.push(("node", Value::from(*node)));
                ("fed.deal.unresolved", fields)
            }
            FedEvent::ReservationExpired {
                tick,
                seller,
                deal,
                units,
            } => {
                let mut fields = span_fields(deal, *seller);
                fields.push(("tick", Value::from(*tick)));
                fields.push(("seller", Value::from(*seller)));
                fields.push(("units", Value::from(*units)));
                ("fed.reservation.expired", fields)
            }
            FedEvent::LocalOnly {
                tick,
                node,
                stage,
                shortfall_units,
            } => (
                "fed.local_only",
                vec![
                    ("tick", Value::from(*tick)),
                    ("node", Value::from(*node)),
                    ("stage", Value::from(*stage)),
                    ("shortfall", Value::from(*shortfall_units)),
                ],
            ),
            FedEvent::NodeSummary {
                tick,
                node,
                counters,
            } => (
                "fed.node.summary",
                vec![
                    ("tick", Value::from(*tick)),
                    ("node", Value::from(*node)),
                    ("deals_opened", Value::from(counters.deals_opened)),
                    ("deals_filled", Value::from(counters.deals_filled)),
                    ("deals_applied", Value::from(counters.deals_applied)),
                    ("deals_aborted", Value::from(counters.deals_aborted)),
                    ("late_fills", Value::from(counters.late_fills)),
                    ("filled_units", Value::from(counters.filled_units)),
                    ("resold_units", Value::from(counters.resold_units)),
                    ("deficit_units", Value::from(counters.deficit_units)),
                    ("cross_cost", Value::from(counters.cross_cost)),
                    ("resale_revenue", Value::from(counters.resale_revenue)),
                ],
            ),
            FedEvent::StageCompleted { .. } => return,
        };
        fields.push(("fed_seq", Value::from(fed_seq)));
        collector.emit(Level::Info, name, fields);
    }

    /// True when nothing can happen anymore without new rounds.
    fn done(&self) -> bool {
        self.net.idle()
            && self
                .nodes
                .iter()
                .all(|n| n.service().horizon_complete() && n.settled())
    }

    /// Snapshot of the run's result.
    fn outcome(&self) -> FederationOutcome {
        FederationOutcome {
            ticks: self.net.clock(),
            fed_digest: format!("{:016x}", self.chain.digest()),
            net_digest: self.net.digest_hex(),
            net: *self.net.stats(),
            nodes: self
                .nodes
                .iter()
                .enumerate()
                .map(|(i, n)| NodeReport {
                    node: i,
                    stages: n.service().stages_completed(),
                    rounds: n.service().rounds_closed(),
                    state_digest: n.service().state_digest_hex(),
                    last_outcome_digest: n.service().last_outcome_digest_hex(),
                    local_cost: n.service().total_payment(),
                    counters: *n.counters(),
                })
                .collect(),
        }
    }
}

// ---------------------------------------------------------------------
// The federation log: header + chained records, replayable.
// ---------------------------------------------------------------------

/// The federation log header: everything needed to re-run the exact
/// federation (the run is closed-loop — no wire inputs — so the header
/// determines every record).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FedHeader {
    /// The federation configuration.
    pub config: FederationConfig,
    /// The net-fault plan.
    pub plan: NetFaultPlan,
}

/// The federation log's [`chain_log`] format: a [`FedHeader`] under
/// `"fed"`, then one [`FedEvent`] per record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FedChain;

impl Format for FedChain {
    const TAG: &'static str = FED_GENESIS;
    const VERSION: u32 = FED_VERSION;
    const HEADER_KEY: &'static str = "fed";
    type Header = FedHeader;
    type Event = FedEvent;
}

/// A fully parsed and chain-verified federation log.
pub type FedLog = chain_log::Log<FedChain>;

/// Renders a federation run (header + records) as a JSONL log.
pub fn render_fed_log(header: &FedHeader, records: &[FedRecord]) -> String {
    chain_log::render::<FedChain>(header, records.iter().map(|r| &r.event))
}

/// Parses a federation log strictly ([`chain_log::parse`]): every line
/// must carry version [`FED_VERSION`] and extend the chain.
///
/// # Errors
///
/// Any [`LogError`] variant except `Io` and `RejectedEvent`.
pub fn parse_fed_log(text: &str) -> Result<FedLog, LogError> {
    chain_log::parse::<FedChain>(text, false)
}

/// First sequence number where two record streams diverge (comparing
/// event bytes and chain digests), or the shorter stream's end + 1 when
/// one is a strict prefix. `None` means byte-identical streams.
pub fn first_divergence(expected: &[FedRecord], got: &[FedRecord]) -> Option<u64> {
    for (a, b) in expected.iter().zip(got.iter()) {
        if a != b {
            return Some(a.seq);
        }
    }
    if expected.len() != got.len() {
        return Some(expected.len().min(got.len()) as u64 + 1);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bid::{Bid, Seller};
    use crate::msoa::{MultiRoundInstance, RoundInput};
    use edge_common::id::{BidId, MicroserviceId};
    use edge_common::rng::derive_rng;
    use edge_net::PartitionWindow;
    use rand::Rng;

    /// A small seeded provider: every stage draws a fresh instance from
    /// the node's config. Capacities are tight relative to demand so
    /// some stages end with a shortfall — the trigger for re-sell deals.
    fn provider(config: ServiceConfig) -> impl FnMut(u64, u64) -> MultiRoundInstance {
        move |stage, rounds| {
            let mut rng = derive_rng(config.seed.wrapping_add(stage), "fed-test");
            let n = config.microservices.max(1);
            let rounds = rounds.max(1);
            let sellers: Vec<Seller> = (0..n)
                .map(|s| {
                    Seller::new(MicroserviceId::new(s), 8, (0, rounds - 1)).expect("window ordered")
                })
                .collect();
            let inputs: Vec<RoundInput> = (0..rounds)
                .map(|_| {
                    let bids: Vec<Bid> = (0..n)
                        .map(|s| {
                            let amount = 1 + rng.gen_range(0..3u64);
                            let price = rng.gen_range(5.0..20.0);
                            Bid::new(MicroserviceId::new(s), BidId::new(0), amount, price)
                                .expect("valid bid")
                        })
                        .collect();
                    let demand = rng.gen_range(1..=config.requests.max(1));
                    RoundInput::new(demand, demand, bids)
                })
                .collect();
            MultiRoundInstance::new(sellers, inputs).expect("valid instance")
        }
    }

    fn small_config(seed: u64, k: usize) -> FederationConfig {
        // Demand can reach `requests` units a round against ~4–12 units
        // of feasible supply, so some stages end short — the trigger
        // for cross-platform re-selling.
        let base = ServiceConfig {
            seed,
            microservices: 4,
            requests: 18,
            total_rounds: 8,
            stage_rounds: 2,
            book_cap: 256,
            demand_cap: 10_000,
        };
        FederationConfig::uniform(base, k)
    }

    fn run_once(
        config: FederationConfig,
        plan: NetFaultPlan,
    ) -> (FederationOutcome, Vec<FedRecord>) {
        let mut sim = FederationSim::new(config, plan, |_, c| provider(c)).unwrap();
        let outcome = sim.run(None).unwrap();
        (outcome, sim.records().to_vec())
    }

    #[test]
    fn federation_run_is_reproducible() {
        let a = run_once(small_config(9, 3), NetFaultPlan::ideal(1));
        let b = run_once(small_config(9, 3), NetFaultPlan::ideal(1));
        assert_eq!(a.0.fed_digest, b.0.fed_digest);
        assert_eq!(a.1, b.1);
        assert_eq!(a.0.digest_hex(), b.0.digest_hex());
    }

    #[test]
    fn deals_flow_on_an_ideal_network() {
        // Decorrelated node seeds leave some platforms short while
        // others hold surplus — the re-sell protocol must move units.
        let (outcome, records) = run_once(small_config(9, 3), NetFaultPlan::ideal(1));
        let opened: u64 = outcome.nodes.iter().map(|n| n.counters.deals_opened).sum();
        let filled: u64 = outcome.nodes.iter().map(|n| n.counters.filled_units).sum();
        let resold: u64 = outcome.nodes.iter().map(|n| n.counters.resold_units).sum();
        assert!(opened > 0, "no deals opened: {outcome:?}");
        assert!(filled > 0, "no deal filled: {outcome:?}");
        assert_eq!(filled, resold, "buyer fills must equal seller applies");
        assert!(records
            .iter()
            .any(|r| matches!(r.event, FedEvent::DealApplied { .. })));
    }

    #[test]
    fn send_metadata_is_kept_only_for_the_trace() {
        let run = |collector: Option<&Collector>| {
            let config = small_config(9, 3);
            let mut sim =
                FederationSim::new(config, NetFaultPlan::ideal(1), |_, c| provider(c)).unwrap();
            let outcome = sim.run(collector).unwrap();
            (outcome.digest_hex(), sim.sent_meta.len())
        };
        let (untraced, kept) = run(None);
        assert_eq!(kept, 0, "an untraced run has no reader for send metadata");
        let collector = Collector::new();
        let (traced, kept) = run(Some(&collector));
        assert!(kept > 0, "a traced run records every deal-bearing send");
        assert_eq!(untraced, traced, "tracing never perturbs the outcome");
    }

    #[test]
    fn unbounded_deadlines_never_fire() {
        // A deadline past the last tick saturates there instead of
        // wrapping to an early one (or overflowing in a debug build).
        let mut config = small_config(9, 3);
        config.offer_timeout = u64::MAX;
        config.reserve_ttl = u64::MAX;
        let (outcome, records) = run_once(config, NetFaultPlan::ideal(1));
        let opened: u64 = outcome.nodes.iter().map(|n| n.counters.deals_opened).sum();
        assert!(opened > 0, "no deals opened: {outcome:?}");
        assert!(!records
            .iter()
            .any(|r| matches!(r.event, FedEvent::Timeout { .. })));
    }

    #[test]
    fn single_platform_matches_standalone_service() {
        // K = 1 under an ideal (or any) plan sees only RoundClosed
        // events — exactly what a standalone service run applies.
        let config = small_config(11, 1);
        let (outcome, _) = run_once(config.clone(), NetFaultPlan::ideal(3));
        let mut svc = AuctionService::new(config.nodes[0], provider(config.nodes[0]));
        while !svc.horizon_complete() {
            svc.apply(&ServiceEvent::RoundClosed, None).unwrap();
        }
        assert_eq!(outcome.nodes[0].state_digest, svc.state_digest_hex());
        assert_eq!(
            outcome.nodes[0].last_outcome_digest,
            svc.last_outcome_digest_hex()
        );
    }

    #[test]
    fn isolated_platform_degrades_to_standalone() {
        let config = small_config(13, 3);
        let mut plan = NetFaultPlan::ideal(5);
        plan.partitions.push(PartitionWindow {
            from: 0,
            until: u64::MAX,
            isolated: 2,
        });
        let (outcome, records) = run_once(config.clone(), plan);
        let mut svc = AuctionService::new(config.nodes[2], provider(config.nodes[2]));
        while !svc.horizon_complete() {
            svc.apply(&ServiceEvent::RoundClosed, None).unwrap();
        }
        assert_eq!(outcome.nodes[2].state_digest, svc.state_digest_hex());
        assert!(records
            .iter()
            .any(|r| matches!(r.event, FedEvent::Net(NetEvent::Dropped { .. }))));
    }

    #[test]
    fn log_round_trips_and_replays_identically() {
        let config = small_config(17, 3);
        let mut plan = NetFaultPlan::ideal(7);
        plan.link.drop_probability = 0.3;
        plan.link.latency_max = 4;
        let mut sim = FederationSim::new(config.clone(), plan.clone(), |_, c| provider(c)).unwrap();
        let outcome = sim.run(None).unwrap();
        let text = render_fed_log(&sim.header(), sim.records());
        assert!(chain_log::has_header::<FedChain>(&text));
        let parsed = parse_fed_log(&text).unwrap();
        assert_eq!(parsed.header, sim.header());
        assert_eq!(parsed.records, sim.records());

        // Replay: re-run from the parsed header, diff the streams.
        let mut again =
            FederationSim::new(parsed.header.config, parsed.header.plan, |_, c| provider(c))
                .unwrap();
        let outcome2 = again.run(None).unwrap();
        assert_eq!(first_divergence(&parsed.records, again.records()), None);
        assert_eq!(outcome.fed_digest, outcome2.fed_digest);
    }

    #[test]
    fn log_ends_with_node_summaries_matching_outcome() {
        let config = small_config(29, 3);
        let mut sim =
            FederationSim::new(config.clone(), NetFaultPlan::ideal(4), |_, c| provider(c)).unwrap();
        let outcome = sim.run(None).unwrap();
        let k = config.nodes.len();
        let tail = &sim.records()[sim.records().len() - k..];
        for (i, rec) in tail.iter().enumerate() {
            match &rec.event {
                FedEvent::NodeSummary { node, counters, .. } => {
                    assert_eq!(*node, i);
                    assert_eq!(*counters, outcome.nodes[i].counters);
                }
                other => panic!("expected NodeSummary, got {other:?}"),
            }
        }
    }

    #[test]
    fn spans_count_hops_causally_on_an_ideal_network() {
        // With no faults there are no retransmits, so each deal's sends
        // must climb one hop per message: Offer#1 → Accept#2 → Commit#3
        // → Ack#4 (or Offer#1 → Reject#2).
        let (_, records) = run_once(small_config(9, 3), NetFaultPlan::ideal(1));
        let mut hops: BTreeMap<DealId, Vec<(&'static str, u64)>> = BTreeMap::new();
        for rec in &records {
            if let FedEvent::Net(NetEvent::Sent { payload, .. }) = &rec.event {
                let packet: FedPacket = serde_json::from_str(payload).unwrap();
                if let Some(deal) = msg_deal(&packet.msg) {
                    hops.entry(deal)
                        .or_default()
                        .push((msg_kind(&packet.msg), packet.hop));
                }
            }
        }
        assert!(!hops.is_empty(), "no deal traffic recorded");
        for (deal, msgs) in &hops {
            assert_eq!(msgs[0], ("Offer", 1), "deal {deal} must start at Offer#1");
            for pair in msgs.windows(2) {
                assert!(
                    pair[0].1 < pair[1].1,
                    "deal {deal}: hops not strictly increasing: {msgs:?}"
                );
            }
        }
    }

    #[test]
    fn tampered_log_is_rejected_at_the_exact_record() {
        let config = small_config(19, 2);
        let mut sim =
            FederationSim::new(config, NetFaultPlan::ideal(2), |_, c| provider(c)).unwrap();
        sim.run(None).unwrap();
        let text = render_fed_log(&sim.header(), sim.records());
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        assert!(lines.len() > 3);
        lines[2] = lines[2].replace("\"tick\":", "\"tick\": 9");
        let tampered = lines.join("\n");
        match parse_fed_log(&tampered) {
            Err(LogError::DigestMismatch { seq, .. }) => assert_eq!(seq, 2),
            Err(LogError::Malformed { line, .. }) => assert_eq!(line, 3),
            other => panic!("tampering undetected: {other:?}"),
        }
    }

    #[test]
    fn duplicate_commit_applies_once() {
        // Drive a seller node directly: offer, commit, duplicate commit.
        let fed = small_config(23, 2);
        let seller_cfg = fed.nodes[1];
        let mut seller = FederationNode::new(
            PlatformId::new(1),
            2,
            &fed,
            seller_cfg,
            provider(seller_cfg),
        );
        seller.seed_surplus(50, 2.5);
        let deal = DealId {
            origin: PlatformId::new(0),
            seq: 0,
        };
        let buyer = PlatformId::new(0);
        let mut fx = Effects::default();
        seller.handle(
            buyer,
            FedMsg::Offer {
                deal,
                units: 10,
                max_unit_price: 3.0,
                attempt: 0,
            },
            1,
            None,
            &mut fx,
        );
        assert!(matches!(fx.sends.last(), Some((_, FedMsg::Accept { .. }))));
        let digest_before_commit = seller.service().state_digest_hex();
        let mut fx = Effects::default();
        seller.handle(buyer, FedMsg::Commit { deal, attempt: 0 }, 2, None, &mut fx);
        assert!(matches!(fx.sends.last(), Some((_, FedMsg::Ack { .. }))));
        let digest_after_commit = seller.service().state_digest_hex();
        assert_ne!(digest_before_commit, digest_after_commit);
        for tick in 3..6 {
            let mut fx = Effects::default();
            seller.handle(
                buyer,
                FedMsg::Commit { deal, attempt: 1 },
                tick,
                None,
                &mut fx,
            );
            assert!(
                matches!(fx.sends.last(), Some((_, FedMsg::Ack { .. }))),
                "duplicate commit must re-ack"
            );
            assert_eq!(
                seller.service().state_digest_hex(),
                digest_after_commit,
                "duplicate commit must not re-apply"
            );
        }
        assert_eq!(seller.counters().deals_applied, 1);
    }
}
