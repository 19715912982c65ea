//! SSAM — the Single-Stage Auction Mechanism (Algorithm 1).
//!
//! A primal–dual greedy approximation to the NP-hard WSP with
//! Myerson-style critical-value payments:
//!
//! 1. **Winner selection** — while demand is uncovered, pick the bid with
//!    the minimum *price per unit of marginal contribution*
//!    (`∇_ij / U_ij(𝔼^t)`, line 4); the winner's remaining bids leave the
//!    candidate set (constraint (9)).
//! 2. **Payment** — each winner is paid its *critical value* (Lemma 3):
//!    the supremum of prices at which its bid would still win. The
//!    paper's lines 6–7 approximate this with the runner-up's unit price
//!    at the winning iteration; in the multi-iteration covering setting
//!    that local value is *not* the true threshold (a bid priced just
//!    above it can still win a later iteration), which would break
//!    truthfulness. We therefore compute the exact threshold by replaying
//!    the greedy run without the winner: before the winner's first win
//!    that replay visits exactly the real run's states, so the threshold
//!    is `max_k r_k · U_ij(state_k)` over the replay's iterations — the
//!    paper's formula is the `k = winning iteration` term of this max.
//!    Together with the monotonicity of greedy selection (Lemma 2) the
//!    exact threshold makes truthful bidding dominant (Theorem 4, via
//!    Myerson) and every payment covers the bid price (individual
//!    rationality, Theorem 5).
//! 3. **Dual certificate** — distributing each winning price over the
//!    units it covers yields a feasible dual solution whose value is
//!    `primal / π` with `π = H_X · Ξ` (Theorem 3): `H_X` the harmonic
//!    number of the demand and `Ξ` the max/min spread of assigned unit
//!    prices. The certificate bounds the optimality gap without knowing
//!    the optimum.
//!
//! # Examples
//!
//! ```
//! use edge_auction::bid::Bid;
//! use edge_auction::wsp::WspInstance;
//! use edge_auction::ssam::{run_ssam, SsamConfig};
//! use edge_common::id::{BidId, MicroserviceId};
//!
//! # fn main() -> Result<(), edge_auction::AuctionError> {
//! let bids = vec![
//!     Bid::new(MicroserviceId::new(0), BidId::new(0), 2, 4.0)?, // $2/u
//!     Bid::new(MicroserviceId::new(1), BidId::new(0), 2, 6.0)?, // $3/u
//! ];
//! let outcome = run_ssam(&WspInstance::new(3, bids)?, &SsamConfig::default())?;
//! assert_eq!(outcome.winners.len(), 2);
//! // Every winner's payment covers its price (individual rationality).
//! assert!(outcome.winners.iter().all(|w| w.payment >= w.price));
//! # Ok(())
//! # }
//! ```

use crate::arena::{BidArena, Cursors, SellerIndex, SellerTable};
use crate::bid::Bid;
use crate::error::AuctionError;
use crate::wsp::WspInstance;
use edge_common::id::{BidId, MicroserviceId};
use edge_common::units::Price;
use edge_telemetry::{Level, Trace, Value};
use serde::{Deserialize, Serialize};

/// Configuration of a single-stage auction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SsamConfig {
    /// Optional reserve unit price. When set, bids asking more than this
    /// per unit are excluded up front, and a winner with no runner-up is
    /// paid the reserve instead of its own price — preserving the
    /// critical-value semantics even for lone bidders. When `None`, a
    /// lone winner is paid exactly its bid price (individually rational,
    /// but its threshold is its own report; the paper leaves this case
    /// unspecified).
    pub reserve_unit_price: Option<f64>,
}

/// One accepted bid with its payment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WinningBid {
    /// The winning seller.
    pub seller: MicroserviceId,
    /// Which of the seller's alternative bids won.
    pub bid: BidId,
    /// Units the bid offered (`a_ij^t`).
    pub amount_offered: u64,
    /// Units credited toward the demand (`U_ij(𝔼^t)` at selection time —
    /// may be less than the offer when it over-covers the tail).
    pub contribution: u64,
    /// The price used during selection (the true bid price in SSAM; the
    /// ψ-scaled price when called from MSOA).
    pub price: Price,
    /// The exact critical-value payment to the seller (the supremum of
    /// prices at which this bid still wins).
    pub payment: Price,
}

impl WinningBid {
    /// Unit price assigned to the units this bid covered
    /// (`f(i, Ŝ) = ∇/U`).
    pub fn assigned_unit_price(&self) -> f64 {
        self.price.value() / self.contribution as f64
    }
}

/// The dual-feasibility certificate of Theorem 3.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RatioCertificate {
    /// Harmonic number `H_X` of the covered demand.
    pub harmonic: f64,
    /// Max/min spread `Ξ` of assigned unit prices.
    pub xi: f64,
    /// Certified approximation ratio `π = H_X · Ξ`.
    pub pi: f64,
    /// Feasible dual objective `ω / π` — a lower bound on the offline
    /// optimum (weak duality).
    pub dual_objective: f64,
}

/// The full outcome of one single-stage auction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SsamOutcome {
    /// Accepted bids in selection order.
    pub winners: Vec<WinningBid>,
    /// The demand that was covered.
    pub demand: u64,
    /// Σ winning (selection) prices — the primal objective `ω` of
    /// ILP (12).
    pub social_cost: Price,
    /// Σ payments to winners.
    pub total_payment: Price,
    /// The Theorem 3 certificate.
    pub certificate: RatioCertificate,
}

impl SsamOutcome {
    /// Returns the winner entry for a seller, if it won.
    pub fn winner_for(&self, seller: MicroserviceId) -> Option<&WinningBid> {
        self.winners.iter().find(|w| w.seller == seller)
    }

    /// `true` if a seller won any bid.
    pub fn is_winner(&self, seller: MicroserviceId) -> bool {
        self.winner_for(seller).is_some()
    }
}

/// Provenance of one critical-value payment: the runner-up iteration of
/// the winner-less replay that set the Myerson threshold. Recording this
/// (rather than just the resulting number) is what lets
/// `edge-market explain` re-derive every payment from the trace:
/// `payment = unit_price × contribution` exactly, with both factors as
/// recorded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CriticalSource {
    /// The runner-up seller whose bid priced the winner.
    pub seller: MicroserviceId,
    /// The runner-up's bid.
    pub bid: BidId,
    /// Zero-based iteration of the replay at which the max was attained.
    pub iteration: u64,
    /// The runner-up's price per unit of marginal contribution (`r_k`).
    pub unit_price: f64,
    /// The winner's marginal contribution at that replay state
    /// (`min(amount, remaining_k)`).
    pub contribution: u64,
}

/// Argmin traffic accumulated over a greedy run and its payment
/// replays: the `ssam.stats` scan count and the `ssam.engine` profile
/// entry.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ArgminStats {
    /// Entries examined: returned picks plus discarded dead heads.
    pub pops: u64,
    /// Entries discarded because their seller had already sold.
    pub sold_discards: u64,
    /// Entries discarded permanently as unsafe.
    pub unsafe_discards: u64,
    /// Argmin queries answered (`pop_best` calls): exactly one per
    /// greedy iteration, so this is batch- and thread-invariant — it may
    /// sit in the deterministic trace section.
    pub scans: u64,
    /// Lane-head ranks computed by those queries and the tree repairs
    /// behind them, O(log lanes) per query. Depends on when dead heads
    /// surface, which differs between a replay and the run it forked
    /// from — profile-section data, never deterministic.
    pub head_reads: u64,
}

impl ArgminStats {
    fn absorb(&mut self, other: ArgminStats) {
        self.pops += other.pops;
        self.sold_discards += other.sold_discards;
        self.unsafe_discards += other.unsafe_discards;
        self.scans += other.scans;
        self.head_reads += other.head_reads;
    }
}

/// Work counters for one single-stage auction: the argmin traffic plus the
/// payment phase's replay accounting. `payment_replays` counts one
/// replay per winner; `replay_iterations` counts every iteration those
/// replays advanced through, of which `prefix_iterations` were served in
/// O(1) from the real run's shared prefix instead of argmin work — the
/// ratio makes the shared-prefix speedup auditable from a trace
/// (surfaced as the `ssam.stats` event and by `edge-market explain`).
/// All counts are deterministic and independent of the pricing pool
/// size. The MSOA round loops sum each stage's replay counts into the
/// `edge_pricing_*` families, so those are exact under any concurrency.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SsamStats {
    /// Argmin traffic (selection plus replay suffixes).
    pub argmin: ArgminStats,
    /// Payment replays performed (one per winner).
    pub payment_replays: u64,
    /// Total replay iterations across all payment replays.
    pub replay_iterations: u64,
    /// Replay iterations answered from the shared prefix.
    pub prefix_iterations: u64,
}

impl SsamStats {
    /// Adds another auction's counters — one round's primary auction
    /// and backfill rungs sum into one round's total.
    pub(crate) fn absorb(&mut self, other: SsamStats) {
        self.argmin.absorb(other.argmin);
        self.payment_replays += other.payment_replays;
        self.replay_iterations += other.replay_iterations;
        self.prefix_iterations += other.prefix_iterations;
    }
}

/// Marginal contribution of a bid given the uncovered remainder
/// (Eq. 19 specialised to the aggregate demand).
fn contribution(amount: u64, remaining: u64) -> u64 {
    amount.min(remaining)
}

/// Greedy key: price per unit of marginal contribution.
fn ratio(price: Price, amount: u64, remaining: u64) -> f64 {
    price.value() / contribution(amount, remaining) as f64
}

/// Runs Algorithm 1 on a validated instance.
///
/// # Errors
///
/// Returns [`AuctionError::InfeasibleDemand`] when the reserve filter (if
/// any) leaves too little supply. An instance that was feasible at
/// construction cannot fail otherwise.
pub fn run_ssam(instance: &WspInstance, config: &SsamConfig) -> Result<SsamOutcome, AuctionError> {
    run_ssam_traced(instance, config, Trace::off())
}

/// [`run_ssam`] with an audit trail: every exclusion, selection, and
/// payment decision is recorded on `trace`, including the
/// critical-value provenance ([`CriticalSource`]) that lets
/// `edge-market explain` re-derive each payment exactly. Tracing does
/// not change the outcome — `run_ssam` is this function with the trace
/// off.
///
/// # Errors
///
/// Exactly as [`run_ssam`].
pub fn run_ssam_traced(
    instance: &WspInstance,
    config: &SsamConfig,
    trace: Trace<'_>,
) -> Result<SsamOutcome, AuctionError> {
    let bids: Vec<Bid> = instance.bids().copied().collect();
    let (index, slots) = SellerIndex::of_bids(&bids);
    let demand = instance.demand();
    run_slotted(demand, &bids, &slots, index.len(), config, trace).map(|(outcome, ..)| outcome)
}

/// The first bid, in input order, that reuses an id its seller already
/// bid with earlier in the input.
pub(crate) fn first_reused_id<'a>(bids: &'a [Bid], slots: &[u32], seats: usize) -> Option<&'a Bid> {
    // A seller whose ids ascend cannot repeat one: one pass settles the
    // common case.
    let mut last = vec![None; seats];
    if (bids.iter().zip(slots)).all(|(b, &s)| last[s as usize].replace(b.id) < Some(b.id)) {
        return None;
    }
    let mut keyed: Vec<_> = (slots.iter().zip(bids).enumerate())
        .map(|(i, (&s, b))| (s, b.id, i))
        .collect();
    keyed.sort_unstable();
    let reuses = keyed
        .windows(2)
        .filter(|p| (p[0].0, p[0].1) == (p[1].0, p[1].1));
    reuses.map(|p| p[1].2).min().map(|i| &bids[i])
}

/// The SSAM core behind every entry point: one auction over `bids`,
/// where `bids[i]` belongs to seller slot `slots[i]` and the `seats`
/// slots rank the sellers in ascending id order. Returns the outcome,
/// its work counters, and each winner's position in `bids`.
///
/// # Errors
///
/// * [`AuctionError::DuplicateBidId`] — a seller bid twice with one id
///   (the first reuse in input order is named).
/// * [`AuctionError::InfeasibleDemand`] — the bids cannot cover the
///   demand (checked before anything is traced), or the reserve leaves
///   too little supply.
pub(crate) fn run_slotted(
    demand: u64,
    bids: &[Bid],
    slots: &[u32],
    seats: usize,
    config: &SsamConfig,
    trace: Trace<'_>,
) -> Result<(SsamOutcome, SsamStats, Vec<usize>), AuctionError> {
    if let Some(b) = first_reused_id(bids, slots, seats) {
        return Err(AuctionError::DuplicateBidId {
            seller: b.seller.index(),
            bid: b.id.index(),
        });
    }
    let offer = |i: u32| (slots[i as usize], bids[i as usize].amount);
    let mut table = SellerTable::new(seats, (0..bids.len() as u32).map(offer));
    table.covers(demand)?;

    let _ssam_span = edge_telemetry::spans::enter("ssam");
    // Candidate set 𝔽^t: all bids, filtered by the reserve if present.
    let reserve = config.reserve_unit_price;
    let candidates: Vec<u32> = (0..bids.len() as u32)
        .filter(|&i| reserve.is_none_or(|r| bids[i as usize].unit_price() <= r))
        .collect();

    trace.emit_with(Level::Info, "ssam.start", || {
        vec![
            ("demand", Value::from(demand)),
            ("bids", Value::from(bids.len())),
            ("candidates", Value::from(candidates.len())),
            (
                "reserve_unit_price",
                reserve.map(Value::from).unwrap_or(Value::F64(f64::NAN)),
            ),
        ]
    });
    if let (true, Some(r)) = (trace.is_on(), reserve) {
        // Each seller's bids together, sellers in first-bid order: the
        // grouping of a single-round instance.
        let mut first = vec![usize::MAX; seats];
        for (i, &s) in slots.iter().enumerate() {
            first[s as usize] = first[s as usize].min(i);
        }
        let mut over: Vec<usize> = (0..bids.len())
            .filter(|&i| bids[i].unit_price() > r)
            .collect();
        over.sort_by_key(|&i| first[slots[i] as usize]);
        for b in over.into_iter().map(|i| &bids[i]) {
            trace.emit_with(Level::Debug, "ssam.excluded", || {
                vec![
                    ("seller", Value::from(b.seller.index())),
                    ("bid", Value::from(b.id.index())),
                    ("unit_price", Value::from(b.unit_price())),
                    ("reason", Value::from("reserve")),
                ]
            });
        }
    }
    if reserve.is_some() {
        table = SellerTable::new(seats, candidates.iter().copied().map(offer));
        table.covers(demand)?;
    }

    // Winner selection: the SoA lane arena (`crate::arena`) answers each
    // greedy argmin in O(log lanes); the differential suite pins its
    // selections, payments, and traces to the scan oracle bit-for-bit.
    // Wall-clock goes to the `selection` and `merge` spans, never into
    // the trace; the greedy run's own time also sizes the pricing pool.
    let mut stats = SsamStats::default();
    let selection_span = edge_telemetry::spans::enter("selection");
    let arena = {
        let _build_span = edge_telemetry::spans::enter("arena.build");
        BidArena::build(bids, slots, &candidates)
    };
    let lanes = arena.lanes();
    if edge_telemetry::spans::is_enabled() {
        edge_telemetry::spans::diag("lanes", lanes as u64);
        edge_telemetry::spans::lane_gauges(lanes as u64, candidates.len() as u64);
    }
    let (selection, snapshots, greedy_ns) = {
        let _merge_span = edge_telemetry::spans::enter("merge");
        let start = std::time::Instant::now();
        let (selection, snapshots) = greedy_select(&arena, &table, demand, &mut stats.argmin);
        (selection, snapshots, start.elapsed().as_nanos() as u64)
    };
    // Selection-side work counters on the `selection` span. Scans and
    // snapshot counts are position-determined (knob-invariant); lane
    // head reads are engine diagnostics.
    let (selection_scans, selection_reads) = (stats.argmin.scans, stats.argmin.head_reads);
    if edge_telemetry::spans::is_enabled() {
        edge_telemetry::spans::ctr("winners", selection.len() as u64);
        edge_telemetry::spans::ctr("pop_best_scans", selection_scans);
        edge_telemetry::spans::ctr("snapshots", snapshots.len() as u64);
        edge_telemetry::spans::diag("lane_head_reads", selection_reads);
    }
    drop(selection_span);

    if trace.is_on() {
        let mut remaining = demand;
        for (order, &(at, c)) in selection.iter().enumerate() {
            let winner = &bids[at];
            let before = remaining;
            remaining -= c;
            trace.emit_with(Level::Debug, "ssam.select", || {
                vec![
                    ("order", Value::from(order)),
                    ("seller", Value::from(winner.seller.index())),
                    ("bid", Value::from(winner.id.index())),
                    ("amount", Value::from(winner.amount)),
                    ("contribution", Value::from(c)),
                    ("price", Value::from(winner.price.value())),
                    ("unit_price", Value::from(winner.price.value() / c as f64)),
                    ("remaining_before", Value::from(before)),
                ]
            });
        }
    }

    // Payments: the exact critical value per winner (lines 6–7
    // strengthened — see the module docs). For winner `i`, replay the
    // greedy run *without seller i*; before `i`'s first win that run
    // visits exactly the states of the real run, so `i` wins iff its
    // price undercuts `r_k · U_i(state_k)` at some iteration `k` of the
    // replay. The supremum of winning prices — the Myerson threshold — is
    // therefore `max_k r_k · U_i(state_k)`.
    //
    // Two optimizations, neither observable in the outcome (DESIGN.md
    // §11): the iterations before `i`'s selection position are answered
    // in O(1) each from a precomputed snapshot of the real run
    // ([`PrefixStep`]) instead of argmin work, and the per-winner
    // replays — mutually independent — fan out over a pool sized from
    // the greedy run's own time (`crate::pricing`). Workers only
    // compute; trace emission, stats absorption, and outcome assembly
    // all happen below, on this thread, in winner order, so traces and
    // outcomes are byte-identical at any thread count.
    let pricing_span = edge_telemetry::spans::enter("pricing");
    let (prefix, position) = {
        let _prefix_span = edge_telemetry::spans::enter("prefix.build");
        build_prefix(&selection, bids, slots, demand, &table)
    };
    let replays: Vec<ReplayOutcome> = {
        let _replay_span = edge_telemetry::spans::enter("replays");
        batched_replays(
            &arena, &table, bids, &selection, &prefix, &position, &snapshots, greedy_ns,
        )
    };

    let mut winners: Vec<WinningBid> = Vec::with_capacity(selection.len());
    for (&(at, c), replay) in selection.iter().zip(replays) {
        let winner = &bids[at];
        stats.argmin.absorb(replay.argmin);
        stats.payment_replays += 1;
        stats.replay_iterations += replay.iterations;
        stats.prefix_iterations += replay.prefix_iterations;
        let threshold = replay.threshold;
        let payment_value = match threshold {
            Some((v, _)) => v,
            // Monopolist residual: no alternate run covers the demand, so
            // any price wins. Cap at the reserve when configured, else at
            // the bid's own price (IR-safe, threshold degenerate).
            None => config
                .reserve_unit_price
                .map(|r| r * winner.amount as f64)
                .unwrap_or(winner.price.value())
                .max(winner.price.value()),
        };
        trace.emit_with(Level::Debug, "ssam.payment", || {
            let mut fields = vec![
                ("seller", Value::from(winner.seller.index())),
                ("bid", Value::from(winner.id.index())),
                ("amount", Value::from(winner.amount)),
                ("price", Value::from(winner.price.value())),
                ("payment", Value::from(payment_value)),
            ];
            match &threshold {
                Some((_, Some(src))) => {
                    fields.push(("kind", Value::from("runner_up")));
                    fields.push(("source_seller", Value::from(src.seller.index())));
                    fields.push(("source_bid", Value::from(src.bid.index())));
                    fields.push(("source_iteration", Value::from(src.iteration)));
                    fields.push(("source_unit_price", Value::from(src.unit_price)));
                    fields.push(("source_contribution", Value::from(src.contribution)));
                }
                Some((_, None)) => fields.push(("kind", Value::from("zero"))),
                None => {
                    let reserve_pay = config.reserve_unit_price.map(|r| r * winner.amount as f64);
                    let kind = match reserve_pay {
                        Some(rp) if rp >= winner.price.value() => "reserve",
                        _ => "own_price",
                    };
                    fields.push(("kind", Value::from(kind)));
                }
            }
            fields
        });
        winners.push(WinningBid {
            seller: winner.seller,
            bid: winner.id,
            amount_offered: winner.amount,
            contribution: c,
            price: winner.price,
            payment: Price::new_unchecked(payment_value),
        });
    }

    // Pricing-side counters: replay totals and argmin scans (both
    // knob-invariant) on the deterministic side; lane head reads on the
    // profile side.
    if edge_telemetry::spans::is_enabled() {
        edge_telemetry::spans::ctr("replays", stats.payment_replays);
        edge_telemetry::spans::ctr("replay_iterations", stats.replay_iterations);
        edge_telemetry::spans::ctr("prefix_iterations", stats.prefix_iterations);
        edge_telemetry::spans::ctr("pop_best_scans", stats.argmin.scans - selection_scans);
        edge_telemetry::spans::diag("lane_head_reads", stats.argmin.head_reads - selection_reads);
    }
    drop(pricing_span);

    let social_cost: Price = winners.iter().map(|w| w.price).sum();
    let total_payment: Price = winners.iter().map(|w| w.payment).sum();
    let certificate = build_certificate(&winners, demand, social_cost);

    // The deterministic `ssam.stats` event carries only knob-invariant
    // counters (proven identical across batch sizes and thread pools by
    // the differential suite, which byte-compares full traces). Discard
    // and lane-head traffic depends on when dead heads surface, so it
    // goes to the `ssam.engine` profile entry below.
    trace.emit_with(Level::Debug, "ssam.stats", || {
        vec![
            ("payment_replays", Value::from(stats.payment_replays)),
            ("replay_iterations", Value::from(stats.replay_iterations)),
            (
                "replay_prefix_iterations",
                Value::from(stats.prefix_iterations),
            ),
            ("pop_best_scans", Value::from(stats.argmin.scans)),
        ]
    });
    trace.profile_with("ssam.engine", || {
        vec![
            ("lanes", Value::from(lanes)),
            ("pops", Value::from(stats.argmin.pops)),
            ("sold_discards", Value::from(stats.argmin.sold_discards)),
            ("unsafe_discards", Value::from(stats.argmin.unsafe_discards)),
            ("lane_head_reads", Value::from(stats.argmin.head_reads)),
        ]
    });
    trace.emit_with(Level::Info, "ssam.end", || {
        vec![
            ("winners", Value::from(winners.len())),
            ("social_cost", Value::from(social_cost.value())),
            ("total_payment", Value::from(total_payment.value())),
            ("pi", Value::from(certificate.pi)),
            ("xi", Value::from(certificate.xi)),
            ("dual_objective", Value::from(certificate.dual_objective)),
        ]
    });

    let outcome = SsamOutcome {
        winners,
        demand,
        social_cost,
        total_payment,
        certificate,
    };
    Ok((
        outcome,
        stats,
        selection.iter().map(|&(at, _)| at).collect(),
    ))
}

/// Cursor snapshots are taken every this many selections; a payment
/// replay forks from the latest snapshot at or before its winner's
/// position. The stride trades snapshot memory (`W/16` copies of the
/// lane cursors and their argmin tree) against at most 15 extra
/// query-time skips per replay. Crucially the snapshot a replay forks
/// from depends only on its winner's *position*
/// — never on how replays are batched over workers — so batch size
/// cannot change traces or stats.
const SNAPSHOT_STRIDE: usize = 16;

/// The greedy winner selection of Algorithm 1 (lines 3–12): repeatedly
/// accept the safe bid minimizing `∇/U`, then drop the winner's other
/// bids. Returns `(input position, contribution)` pairs in selection
/// order, plus periodic cursor snapshots for the payment replays to fork
/// from.
///
/// A bid is *safe* iff selecting it leaves the residual demand coverable
/// by the other unsold sellers' best offers. Every seller's max-amount
/// bid is always safe while the invariant `Σ unsold max ≥ remaining`
/// holds, so a safe candidate always exists and the greedy never strands
/// demand — a necessary strengthening of the paper's line 4 (picking a
/// seller's small cheap bid when feasibility depended on its large bid
/// would otherwise dead-end). Safety is `amount ≥ remaining −
/// rest_supply`, and that bound never decreases across sales (each sale
/// removes at least as much supply as demand): once unsafe, always
/// unsafe, which is what lets the arena drop an unsafe head for good.
fn greedy_select(
    arena: &BidArena,
    table: &SellerTable,
    demand: u64,
    stats: &mut ArgminStats,
) -> (Vec<(usize, u64)>, Vec<Cursors>) {
    let mut cursors = arena.initial_cursors();
    let mut snapshots: Vec<Cursors> = Vec::new();
    let mut sold = vec![false; table.len()];
    let mut total_max = table.total_max();
    let mut remaining = demand;
    let mut selection: Vec<(usize, u64)> = Vec::new();
    while remaining > 0 {
        if selection.len().is_multiple_of(SNAPSHOT_STRIDE) {
            snapshots.push(cursors.clone());
        }
        let (rem, tm) = (remaining, total_max);
        let pick = arena
            .pop_best(
                &mut cursors,
                rem,
                stats,
                |s| sold[s as usize],
                |a, s| contribution(a, rem) + (tm - table.max_of(s)) >= rem,
            )
            .expect("a safe bid exists while the feasibility invariant holds");
        let c = contribution(pick.amount, remaining);
        remaining -= c;
        total_max -= table.max_of(pick.slot);
        sold[pick.slot as usize] = true;
        arena.consume(&mut cursors, &pick, stats);
        selection.push((pick.cand as usize, c));
    }
    (selection, snapshots)
}

/// All winners' payment replays on the arena, batched over the pricing
/// pool (sized from `greedy_ns`, the real greedy run's time). Each batch
/// is one work unit sharing a cursor scratch buffer and a per-batch
/// epoch array (replay-local "sold" marks, cleared by epoch id instead
/// of refilling); each *winner* still forks from the snapshot determined
/// by its own position, so results, traces, and stats are byte-identical
/// at any batch size and thread count — a batch of 1 is the per-winner
/// oracle the differential suite compares against.
#[allow(clippy::too_many_arguments)]
fn batched_replays(
    arena: &BidArena,
    table: &SellerTable,
    bids: &[Bid],
    selection: &[(usize, u64)],
    prefix: &[PrefixStep],
    position_by_slot: &[u32],
    snapshots: &[Cursors],
    greedy_ns: u64,
) -> Vec<ReplayOutcome> {
    let winners = selection.len();
    if winners == 0 {
        return Vec::new();
    }
    let pool = crate::pricing::pool_for(winners, greedy_ns);
    let batch = pool.batch;
    let n_batches = winners.div_ceil(batch);
    // Batch geometry depends on the pool — profile side only.
    if edge_telemetry::spans::is_enabled() {
        edge_telemetry::spans::diag_set("replay_batch", batch as u64);
        edge_telemetry::spans::diag_set("replay_batches", n_batches as u64);
    }
    let batched: Vec<Vec<ReplayOutcome>> = crate::pricing::fan_out(pool.threads, n_batches, |bi| {
        let lo = bi * batch;
        let hi = (lo + batch).min(winners);
        let mut work = arena.initial_cursors();
        let mut epoch = vec![0u32; table.len()];
        (lo..hi)
            .map(|p| {
                let w_slot = prefix[p].slot;
                work.copy_from(&snapshots[p / SNAPSHOT_STRIDE]);
                replay_payment(
                    arena,
                    table,
                    bids,
                    prefix,
                    position_by_slot,
                    p,
                    w_slot,
                    bids[selection[p].0].amount,
                    table.max_of(w_slot),
                    &mut work,
                    &mut epoch,
                    (p - lo) as u32 + 1,
                )
            })
            .collect()
    });
    batched.into_iter().flatten().collect()
}

/// The critical value of the winner at selection position `p`: the
/// greedy run replayed without that seller (its best offer kept as
/// phantom supply, so safety decisions match the real run's), priced as
/// `max_k r_k · min(amount, remaining_k)` over the iterations where the
/// winner's bid would have been safe, with the [`CriticalSource`] of the
/// iteration that attained the max.
///
/// * **Prefix (`k < p`)** — before the excluded seller's first win the
///   replay visits exactly the real run's states, so iteration `k`'s
///   candidate value and phantom-safety test are evaluated directly on
///   the precomputed [`PrefixStep`] — identical arithmetic on identical
///   bits, no argmin.
/// * **Suffix (`k ≥ p`)** — forks from a selection-time cursor snapshot.
///   Sellers sold before position `p` (or the excluded winner, or
///   sellers sold *within this replay* — marked via `epoch`) are skipped
///   at query time, which is exactly the scan oracle's candidate set, so
///   thresholds and provenance are bit-identical to a full replay
///   (DESIGN.md §11). Iteration numbering continues at `p`.
///
/// The threshold is `None` when the replay gets stuck — the excluded
/// seller is then pivotal and wins at any price.
#[allow(clippy::too_many_arguments)]
fn replay_payment(
    arena: &BidArena,
    table: &SellerTable,
    bids: &[Bid],
    prefix: &[PrefixStep],
    position_by_slot: &[u32],
    p: usize,
    winner_slot: u32,
    amount: u64,
    phantom: u64,
    work: &mut Cursors,
    epoch: &mut [u32],
    epoch_id: u32,
) -> ReplayOutcome {
    let mut threshold = 0.0f64;
    let mut source: Option<CriticalSource> = None;
    for (k, step) in prefix.iter().take(p).enumerate() {
        let c = contribution(amount, step.remaining);
        if c + (step.total_max - phantom) >= step.remaining {
            let candidate = step.unit_price * c as f64;
            if candidate > threshold {
                threshold = candidate;
                source = Some(CriticalSource {
                    seller: step.seller,
                    bid: step.bid,
                    iteration: k as u64,
                    unit_price: step.unit_price,
                    contribution: c,
                });
            }
        }
    }
    // Suffix from the fork state: the real run's remaining and
    // total_max entering iteration `p` (the phantom convention makes
    // `prefix[p].total_max` count the phantom).
    let mut argmin = ArgminStats::default();
    let mut remaining = prefix[p].remaining;
    let mut total_max = prefix[p].total_max;
    let mut iteration = p as u64;
    let p32 = p as u32;
    while remaining > 0 {
        let (rem, tm) = (remaining, total_max);
        let pick = arena.pop_best(
            work,
            rem,
            &mut argmin,
            |s| {
                s == winner_slot
                    || position_by_slot[s as usize] < p32
                    || epoch[s as usize] == epoch_id
            },
            |a, s| contribution(a, rem) + (tm - table.max_of(s)) >= rem,
        );
        let Some(pick) = pick else {
            return ReplayOutcome {
                threshold: None,
                argmin,
                iterations: iteration,
                prefix_iterations: p as u64,
            };
        };
        // `pick.key` is `r_k = price / min(amount, remaining)`, computed
        // with the same operations as `ratio` — same bits.
        if contribution(amount, rem) + (tm - phantom) >= rem {
            let candidate = pick.key * contribution(amount, rem) as f64;
            if candidate > threshold {
                let runner_up = &bids[pick.cand as usize];
                threshold = candidate;
                source = Some(CriticalSource {
                    seller: runner_up.seller,
                    bid: runner_up.id,
                    iteration,
                    unit_price: pick.key,
                    contribution: contribution(amount, rem),
                });
            }
        }
        epoch[pick.slot as usize] = epoch_id;
        total_max -= table.max_of(pick.slot);
        remaining -= contribution(pick.amount, rem);
        arena.consume(work, &pick, &mut argmin);
        iteration += 1;
    }
    ReplayOutcome {
        threshold: Some((threshold, source)),
        argmin,
        iterations: iteration,
        prefix_iterations: p as u64,
    }
}

/// One iteration of the real greedy run, snapshotted so payment replays
/// can answer their shared prefix in O(1) per step instead of repeating
/// the argmin work (see [`replay_payment`]).
#[derive(Debug, Clone, Copy)]
struct PrefixStep {
    /// The seller selected at this iteration of the real run.
    seller: MicroserviceId,
    /// Its winning bid.
    bid: BidId,
    /// Its seller slot.
    slot: u32,
    /// Its greedy key `r_k = ∇/U` at this iteration.
    unit_price: f64,
    /// Uncovered demand entering this iteration.
    remaining: u64,
    /// Σ unsold sellers' max offers entering this iteration.
    total_max: u64,
}

/// Snapshots the real run's per-iteration state (`PrefixStep`s in
/// selection order) and each seller slot's selection position
/// (`u32::MAX` for sellers that did not win).
fn build_prefix(
    selection: &[(usize, u64)],
    bids: &[Bid],
    slots: &[u32],
    demand: u64,
    table: &SellerTable,
) -> (Vec<PrefixStep>, Vec<u32>) {
    let mut prefix = Vec::with_capacity(selection.len());
    let mut position = vec![u32::MAX; table.len()];
    let mut remaining = demand;
    let mut total_max = table.total_max();
    for (p, &(at, c)) in selection.iter().enumerate() {
        let (winner, slot) = (&bids[at], slots[at]);
        prefix.push(PrefixStep {
            seller: winner.seller,
            bid: winner.id,
            slot,
            unit_price: ratio(winner.price, winner.amount, remaining),
            remaining,
            total_max,
        });
        position[slot as usize] = p as u32;
        remaining -= c;
        total_max -= table.max_of(slot);
    }
    (prefix, position)
}

/// What one worker hands back from a payment replay: pure data, merged
/// into the trace and outcome on the calling thread in winner order.
#[derive(Debug, Clone, Copy)]
struct ReplayOutcome {
    /// `Some((threshold, provenance))`, or `None` when the excluded
    /// seller is pivotal (the replay got stuck).
    threshold: Option<(f64, Option<CriticalSource>)>,
    /// Argmin traffic of the suffix replay.
    argmin: ArgminStats,
    /// Iterations this replay advanced through in total.
    iterations: u64,
    /// Of those, iterations answered from the shared prefix.
    prefix_iterations: u64,
}

/// Builds the Theorem 3 certificate from the assigned unit prices.
fn build_certificate(winners: &[WinningBid], demand: u64, social_cost: Price) -> RatioCertificate {
    if demand == 0 || winners.is_empty() {
        return RatioCertificate {
            harmonic: 0.0,
            xi: 1.0,
            pi: 1.0,
            dual_objective: 0.0,
        };
    }
    let harmonic: f64 = (1..=demand).map(|k| 1.0 / k as f64).sum();
    let unit_prices: Vec<f64> = winners
        .iter()
        .map(WinningBid::assigned_unit_price)
        .collect();
    let max_u = unit_prices.iter().copied().fold(f64::MIN, f64::max);
    let min_u = unit_prices.iter().copied().fold(f64::MAX, f64::min);
    let xi = if min_u > 0.0 { max_u / min_u } else { 1.0 };
    let pi = (harmonic * xi).max(1.0);
    RatioCertificate {
        harmonic,
        xi,
        pi,
        dual_objective: social_cost.value() / pi,
    }
}

/// The seed's scan-based SSAM, kept verbatim as the differential oracle
/// for the lane-arena hot path. Selection re-scans every candidate each
/// iteration — O(n²) — which makes it slow but easy to audit;
/// `run_ssam_reference` must return **bit-identical** outcomes to
/// [`run_ssam`] on every instance (`tests/differential_ssam.rs` enforces
/// this over randomized cases).
pub mod reference {
    use super::*;
    use std::collections::BTreeMap;

    /// Feasibility under the filter: every candidate seller's best offer,
    /// or [`AuctionError::InfeasibleDemand`] when together they cannot
    /// cover the demand.
    fn seller_best(
        instance: &WspInstance,
        candidates: &[&Bid],
    ) -> Result<BTreeMap<MicroserviceId, u64>, AuctionError> {
        let mut best = BTreeMap::new();
        for b in candidates {
            let e = best.entry(b.seller).or_insert(0u64);
            *e = (*e).max(b.amount);
        }
        let supply = best.values().copied().fold(0, u64::saturating_add);
        if supply < instance.demand() {
            return Err(AuctionError::InfeasibleDemand {
                demand: instance.demand(),
                supply,
            });
        }
        Ok(best)
    }

    /// Scan-based greedy state — the original implementation.
    #[derive(Debug)]
    struct ScanGreedy<'a> {
        candidates: Vec<&'a Bid>,
        remaining: u64,
        seller_max: BTreeMap<MicroserviceId, u64>,
        total_max: u64,
        phantom: u64,
    }

    impl<'a> ScanGreedy<'a> {
        fn new(candidates: Vec<&'a Bid>, demand: u64, phantom: u64) -> Self {
            let mut seller_max = BTreeMap::new();
            for b in &candidates {
                let e = seller_max.entry(b.seller).or_insert(0u64);
                *e = (*e).max(b.amount);
            }
            let total_max = seller_max.values().sum::<u64>() + phantom;
            ScanGreedy {
                candidates,
                remaining: demand,
                seller_max,
                total_max,
                phantom,
            }
        }

        fn rest_supply(&self, seller: MicroserviceId) -> u64 {
            self.total_max - self.seller_max.get(&seller).copied().unwrap_or(0)
        }

        fn is_safe(&self, b: &Bid) -> bool {
            contribution(b.amount, self.remaining) + self.rest_supply(b.seller) >= self.remaining
        }

        fn phantom_safe(&self, amount: u64) -> bool {
            contribution(amount, self.remaining) + (self.total_max - self.phantom) >= self.remaining
        }

        fn best_safe(&self) -> Option<&'a Bid> {
            let remaining = self.remaining;
            self.candidates
                .iter()
                .filter(|b| self.is_safe(b))
                .min_by(|a, b| {
                    ratio(a.price, a.amount, remaining)
                        .total_cmp(&ratio(b.price, b.amount, remaining))
                        .then(a.seller.cmp(&b.seller))
                        .then(a.id.cmp(&b.id))
                })
                .copied()
        }

        fn sell(&mut self, winner: &Bid) -> u64 {
            let c = contribution(winner.amount, self.remaining);
            self.remaining -= c;
            self.total_max -= self.seller_max.remove(&winner.seller).unwrap_or(0);
            self.candidates.retain(|b| b.seller != winner.seller);
            c
        }
    }

    fn greedy_select_scan(candidates: Vec<&Bid>, demand: u64) -> Vec<(Bid, u64)> {
        let mut state = ScanGreedy::new(candidates, demand, 0);
        let mut selection = Vec::new();
        while state.remaining > 0 {
            let winner = *state
                .best_safe()
                .expect("a safe bid exists while the feasibility invariant holds");
            let c = state.sell(&winner);
            selection.push((winner, c));
        }
        selection
    }

    /// The scan replay without one seller: its critical value for a bid
    /// of `amount` units with the provenance of the iteration that set
    /// it, or `None` when the replay gets stuck (the seller is pivotal).
    fn critical_threshold_scan(
        others: Vec<&Bid>,
        demand: u64,
        amount: u64,
        phantom: u64,
    ) -> Option<(f64, Option<CriticalSource>)> {
        let mut state = ScanGreedy::new(others, demand, phantom);
        let mut threshold = 0.0f64;
        let mut source = None;
        let mut iteration = 0u64;
        while state.remaining > 0 {
            let best = *state.best_safe()?;
            let r_k = ratio(best.price, best.amount, state.remaining);
            if state.phantom_safe(amount) {
                // `candidate > threshold` tracks the argmax of
                // `threshold.max(candidate)` exactly (both operands
                // finite); ties keep the earlier iteration, as on the
                // hot path.
                let c = contribution(amount, state.remaining);
                let candidate = r_k * c as f64;
                if candidate > threshold {
                    threshold = candidate;
                    source = Some(CriticalSource {
                        seller: best.seller,
                        bid: best.id,
                        iteration,
                        unit_price: r_k,
                        contribution: c,
                    });
                }
            }
            state.sell(&best);
            iteration += 1;
        }
        Some((threshold, source))
    }

    /// The scan selection and every winner's critical threshold by
    /// *full* replay from the initial state (no shared prefix), in
    /// selection order.
    #[allow(clippy::type_complexity)]
    fn scan_auction(
        instance: &WspInstance,
        config: &SsamConfig,
    ) -> Result<(Vec<(Bid, u64)>, Vec<Option<(f64, Option<CriticalSource>)>>), AuctionError> {
        // Candidate set 𝔽^t: all bids, filtered by the reserve if present.
        let reserve = config.reserve_unit_price;
        let candidates: Vec<&Bid> = (instance.bids())
            .filter(|b| reserve.is_none_or(|r| b.unit_price() <= r))
            .collect();
        let per_seller_best = seller_best(instance, &candidates)?;
        let demand = instance.demand();
        let selection = greedy_select_scan(candidates.clone(), demand);
        let thresholds = selection
            .iter()
            .map(|(winner, _)| {
                let without: Vec<&Bid> = candidates
                    .iter()
                    .copied()
                    .filter(|b| b.seller != winner.seller)
                    .collect();
                let phantom = per_seller_best[&winner.seller];
                critical_threshold_scan(without, demand, winner.amount, phantom)
            })
            .collect();
        Ok((selection, thresholds))
    }

    /// Runs Algorithm 1 with the original O(n²) scan selection.
    ///
    /// # Errors
    ///
    /// Exactly as [`run_ssam`]: infeasible demand under the reserve
    /// filter.
    pub fn run_ssam_reference(
        instance: &WspInstance,
        config: &SsamConfig,
    ) -> Result<SsamOutcome, AuctionError> {
        let demand = instance.demand();
        let (selection, thresholds) = scan_auction(instance, config)?;
        let winners: Vec<WinningBid> = selection
            .iter()
            .zip(thresholds)
            .map(|((winner, c), threshold)| {
                let payment_value = match threshold {
                    Some((v, _)) => v,
                    None => config
                        .reserve_unit_price
                        .map(|r| r * winner.amount as f64)
                        .unwrap_or(winner.price.value())
                        .max(winner.price.value()),
                };
                WinningBid {
                    seller: winner.seller,
                    bid: winner.id,
                    amount_offered: winner.amount,
                    contribution: *c,
                    price: winner.price,
                    payment: Price::new_unchecked(payment_value),
                }
            })
            .collect();

        let social_cost: Price = winners.iter().map(|w| w.price).sum();
        let total_payment: Price = winners.iter().map(|w| w.payment).sum();
        let certificate = build_certificate(&winners, demand, social_cost);

        Ok(SsamOutcome {
            winners,
            demand,
            social_cost,
            total_payment,
            certificate,
        })
    }

    /// Critical thresholds by *full* scan replay — each winner priced by
    /// replaying from the initial state, no shared prefix. One entry per
    /// winner in selection order, with the same `(threshold, provenance)`
    /// shape the hot path computes; the differential suite asserts
    /// bit-identity against the shared-prefix replays, provenance
    /// included.
    ///
    /// # Errors
    ///
    /// Exactly as [`run_ssam`]: infeasible demand under the reserve
    /// filter.
    #[doc(hidden)]
    #[allow(clippy::type_complexity)]
    pub fn critical_thresholds_full(
        instance: &WspInstance,
        config: &SsamConfig,
    ) -> Result<Vec<Option<(f64, Option<CriticalSource>)>>, AuctionError> {
        scan_auction(instance, config).map(|(_, thresholds)| thresholds)
    }
}

pub use reference::run_ssam_reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bid::Bid;
    use edge_common::assert_money_eq;

    fn bid(seller: usize, id: usize, amount: u64, price: f64) -> Bid {
        Bid::new(MicroserviceId::new(seller), BidId::new(id), amount, price).unwrap()
    }

    fn inst(demand: u64, bids: Vec<Bid>) -> WspInstance {
        WspInstance::new(demand, bids).unwrap()
    }

    #[test]
    fn greedy_picks_lowest_unit_price_first() {
        // Seller 0: $2/u; seller 1: $3/u; demand 3 needs both.
        let outcome = run_ssam(
            &inst(3, vec![bid(0, 0, 2, 4.0), bid(1, 0, 2, 6.0)]),
            &SsamConfig::default(),
        )
        .unwrap();
        assert_eq!(outcome.winners.len(), 2);
        assert_eq!(outcome.winners[0].seller, MicroserviceId::new(0));
        assert_eq!(outcome.winners[0].contribution, 2);
        assert_eq!(outcome.winners[1].seller, MicroserviceId::new(1));
        assert_eq!(outcome.winners[1].contribution, 1);
        assert_money_eq!(outcome.social_cost, 10.0);
    }

    #[test]
    fn payment_is_runner_up_unit_price_times_contribution() {
        let outcome = run_ssam(
            &inst(2, vec![bid(0, 0, 2, 4.0), bid(1, 0, 2, 6.0)]),
            &SsamConfig::default(),
        )
        .unwrap();
        // Winner: seller 0 at $2/u covering 2; runner-up: seller 1 at
        // $3/u. Payment = 2 × 3 = $6.
        assert_eq!(outcome.winners.len(), 1);
        let w = &outcome.winners[0];
        assert_eq!(w.seller, MicroserviceId::new(0));
        assert_money_eq!(w.payment, 6.0);
        assert!(w.payment >= w.price);
    }

    #[test]
    fn individual_rationality_holds() {
        let outcome = run_ssam(
            &inst(
                6,
                vec![
                    bid(0, 0, 3, 9.0),
                    bid(0, 1, 1, 2.0),
                    bid(1, 0, 2, 5.0),
                    bid(2, 0, 4, 14.0),
                    bid(3, 0, 2, 8.0),
                ],
            ),
            &SsamConfig::default(),
        )
        .unwrap();
        for w in &outcome.winners {
            assert!(w.payment >= w.price, "IR violated for {:?}", w);
        }
        assert!(outcome.total_payment >= outcome.social_cost);
    }

    #[test]
    fn at_most_one_bid_per_seller_wins() {
        let outcome = run_ssam(
            &inst(
                5,
                vec![
                    bid(0, 0, 2, 2.0),
                    bid(0, 1, 3, 3.5),
                    bid(1, 0, 3, 6.0),
                    bid(2, 0, 3, 9.0),
                ],
            ),
            &SsamConfig::default(),
        )
        .unwrap();
        let mut sellers: Vec<_> = outcome.winners.iter().map(|w| w.seller).collect();
        sellers.sort();
        sellers.dedup();
        assert_eq!(sellers.len(), outcome.winners.len(), "a seller won twice");
    }

    #[test]
    fn demand_is_exactly_covered() {
        let outcome = run_ssam(
            &inst(
                7,
                vec![bid(0, 0, 5, 10.0), bid(1, 0, 5, 11.0), bid(2, 0, 5, 12.0)],
            ),
            &SsamConfig::default(),
        )
        .unwrap();
        let covered: u64 = outcome.winners.iter().map(|w| w.contribution).sum();
        assert_eq!(covered, 7);
        // The second winner's contribution is clipped to the remainder.
        assert_eq!(outcome.winners[1].contribution, 2);
    }

    #[test]
    fn zero_demand_trivial_outcome() {
        let outcome = run_ssam(&inst(0, vec![bid(0, 0, 1, 1.0)]), &SsamConfig::default()).unwrap();
        assert!(outcome.winners.is_empty());
        assert_eq!(outcome.social_cost, Price::ZERO);
        assert_eq!(outcome.certificate.dual_objective, 0.0);
    }

    #[test]
    fn lone_seller_without_reserve_is_paid_its_price() {
        let outcome = run_ssam(&inst(2, vec![bid(0, 0, 3, 6.0)]), &SsamConfig::default()).unwrap();
        let w = &outcome.winners[0];
        // A monopolist has no finite threshold; without a reserve it is
        // paid exactly its asking price.
        assert_eq!(w.contribution, 2);
        assert_money_eq!(w.payment, 6.0);
    }

    #[test]
    fn reserve_excludes_expensive_bids() {
        let config = SsamConfig {
            reserve_unit_price: Some(2.5),
        };
        // Seller 1 asks $3/u — above reserve, excluded; supply drops.
        let err = run_ssam(
            &inst(4, vec![bid(0, 0, 2, 4.0), bid(1, 0, 2, 6.0)]),
            &config,
        )
        .unwrap_err();
        assert_eq!(
            err,
            AuctionError::InfeasibleDemand {
                demand: 4,
                supply: 2
            }
        );
    }

    #[test]
    fn reserve_pays_lone_winner_the_reserve() {
        let config = SsamConfig {
            reserve_unit_price: Some(5.0),
        };
        let outcome = run_ssam(&inst(2, vec![bid(0, 0, 2, 4.0)]), &config).unwrap();
        let w = &outcome.winners[0];
        assert_money_eq!(w.payment, 10.0); // 2 units × $5 reserve
    }

    #[test]
    fn certificate_bounds_the_optimum() {
        let instance = inst(
            5,
            vec![
                bid(0, 0, 2, 7.0),
                bid(0, 1, 3, 8.0),
                bid(1, 0, 2, 4.0),
                bid(2, 0, 3, 12.0),
                bid(3, 0, 1, 2.0),
            ],
        );
        let outcome = run_ssam(&instance, &SsamConfig::default()).unwrap();
        let opt = instance.to_group_cover().solve_exact().unwrap().cost;
        let cert = &outcome.certificate;
        // Weak duality sandwich: dual ≤ OPT ≤ primal ≤ π · dual.
        assert!(
            cert.dual_objective <= opt + 1e-9,
            "dual {} > opt {opt}",
            cert.dual_objective
        );
        assert!(opt <= outcome.social_cost.value() + 1e-9);
        assert!(outcome.social_cost.value() <= cert.pi * cert.dual_objective + 1e-9);
    }

    #[test]
    fn single_bid_per_seller_certificate_uses_harmonic_only_when_uniform() {
        // All bids same unit price → Ξ = 1, π = H_X.
        let outcome = run_ssam(
            &inst(
                3,
                vec![bid(0, 0, 1, 2.0), bid(1, 0, 1, 2.0), bid(2, 0, 1, 2.0)],
            ),
            &SsamConfig::default(),
        )
        .unwrap();
        assert!((outcome.certificate.xi - 1.0).abs() < 1e-9);
        let h3 = 1.0 + 0.5 + 1.0 / 3.0;
        assert!((outcome.certificate.pi - h3).abs() < 1e-9);
    }

    #[test]
    fn deterministic_under_ties() {
        let bids = vec![bid(0, 0, 2, 4.0), bid(1, 0, 2, 4.0), bid(2, 0, 2, 4.0)];
        let a = run_ssam(&inst(4, bids.clone()), &SsamConfig::default()).unwrap();
        let b = run_ssam(&inst(4, bids), &SsamConfig::default()).unwrap();
        assert_eq!(a, b);
        // Ties break toward the lower seller id.
        assert_eq!(a.winners[0].seller, MicroserviceId::new(0));
        assert_eq!(a.winners[1].seller, MicroserviceId::new(1));
    }

    #[test]
    fn trace_records_runner_up_provenance() {
        use edge_telemetry::Collector;
        // Three sellers, demand 2: seller 0 ($2/u) wins alone; the
        // replay without it picks seller 1 ($3/u) — the runner-up that
        // must appear as the payment's source. Seller 2 ($5/u) never
        // prices anything.
        let collector = Collector::new();
        let outcome = run_ssam_traced(
            &inst(
                2,
                vec![bid(0, 0, 2, 4.0), bid(1, 0, 2, 6.0), bid(2, 0, 2, 10.0)],
            ),
            &SsamConfig::default(),
            Trace::new(&collector),
        )
        .unwrap();
        assert_eq!(outcome.winners.len(), 1);
        let events = collector.events();
        let payment = events.iter().find(|e| e.name == "ssam.payment").unwrap();
        assert_eq!(
            payment.field("kind").and_then(Value::as_str),
            Some("runner_up")
        );
        assert_eq!(
            payment.field("source_seller").and_then(Value::as_f64),
            Some(1.0),
            "seller 1 is the runner-up that priced the winner"
        );
        // The recorded factors reproduce the payment exactly.
        let unit = payment
            .field("source_unit_price")
            .and_then(Value::as_f64)
            .unwrap();
        let contrib = payment
            .field("source_contribution")
            .and_then(Value::as_f64)
            .unwrap();
        let paid = payment.field("payment").and_then(Value::as_f64).unwrap();
        assert_eq!(unit * contrib, paid, "provenance must be exact, not ≈");
        assert_eq!(paid, outcome.winners[0].payment.value());
    }

    #[test]
    fn tracing_does_not_change_the_outcome() {
        use edge_telemetry::Collector;
        let instance = inst(
            6,
            vec![
                bid(0, 0, 3, 9.0),
                bid(0, 1, 1, 2.0),
                bid(1, 0, 2, 5.0),
                bid(2, 0, 4, 14.0),
                bid(3, 0, 2, 8.0),
            ],
        );
        let collector = Collector::new();
        let traced =
            run_ssam_traced(&instance, &SsamConfig::default(), Trace::new(&collector)).unwrap();
        let untraced = run_ssam(&instance, &SsamConfig::default()).unwrap();
        assert_eq!(traced, untraced);
        assert!(!collector.is_empty());
        // Deterministic stats event carries the engine-invariant scan
        // counter; engine traffic lives in the profile section.
        let stats = collector
            .events()
            .into_iter()
            .find(|e| e.name == "ssam.stats")
            .unwrap();
        assert!(
            stats
                .field("pop_best_scans")
                .and_then(Value::as_f64)
                .unwrap()
                > 0.0
        );
        let engine = collector
            .profile_entries()
            .into_iter()
            .find(|p| p.name == "ssam.engine")
            .unwrap();
        let pops = engine
            .fields
            .iter()
            .find(|(k, _)| *k == "pops")
            .and_then(|(_, v)| v.as_f64())
            .unwrap();
        assert!(pops > 0.0);
    }

    #[test]
    fn first_reused_id_names_the_first_reuse_in_input_order() {
        // Seller 5 lists its ids out of order, so the sort path runs;
        // its reuse comes first although seller 2 holds the lower slot.
        let bids = [
            bid(5, 1, 1, 1.0),
            bid(2, 0, 1, 1.0),
            bid(5, 0, 1, 1.0),
            bid(5, 1, 2, 1.0),
            bid(2, 0, 2, 1.0),
        ];
        let (index, slots) = SellerIndex::of_bids(&bids);
        let reused = first_reused_id(&bids, &slots, index.len()).unwrap();
        assert_eq!((reused.seller.index(), reused.id.index()), (5, 1));
        assert!(first_reused_id(&bids[..3], &slots[..3], index.len()).is_none());
    }

    #[test]
    fn winner_lookup_helpers() {
        let outcome = run_ssam(
            &inst(2, vec![bid(0, 0, 2, 4.0), bid(1, 0, 2, 6.0)]),
            &SsamConfig::default(),
        )
        .unwrap();
        assert!(outcome.is_winner(MicroserviceId::new(0)));
        assert!(!outcome.is_winner(MicroserviceId::new(1)));
        assert_eq!(
            outcome.winner_for(MicroserviceId::new(0)).unwrap().bid,
            BidId::new(0)
        );
    }
}
