//! MSOA — the Multi-Stage Online Auction (Algorithm 2).
//!
//! MSOA ties a series of single-stage auctions into an online mechanism
//! that never looks at future rounds. The key idea is a per-seller dual
//! variable `ψ_i` that *augments* the seller's bid price as its remaining
//! long-run capacity `Θ_i` depletes:
//!
//! * a bid is **excluded** once `χ_i + a_ij > Θ_i` (the seller has sold
//!   too much already — constraint (11), Alg. 2 line 5);
//! * otherwise its **scaled price** is `∇_ij = J_ij + a_ij · ψ_i^{t−1}`
//!   (line 8), so sellers close to depletion look expensive and are
//!   saved for rounds where they are truly needed;
//! * after each win, `ψ_i ← ψ_i(1 + a/(α·Θ_i)) + J·a/(α·Θ_i²)`
//!   (line 11), a multiplicative-update familiar from online primal-dual
//!   covering.
//!
//! Theorem 7 gives the competitive ratio `α·β/(β−1)` against the offline
//! optimum, with `α` the single-stage approximation factor and
//! `β = min_i Θ_i / a_ij > 1`.
//!
//! # Examples
//!
//! ```
//! use edge_auction::bid::{Bid, Seller};
//! use edge_auction::msoa::{run_msoa, MsoaConfig, MultiRoundInstance, RoundInput};
//! use edge_common::id::{BidId, MicroserviceId};
//!
//! # fn main() -> Result<(), edge_auction::AuctionError> {
//! let sellers = vec![
//!     Seller::new(MicroserviceId::new(0), 10, (0, 1))?,
//!     Seller::new(MicroserviceId::new(1), 10, (0, 1))?,
//! ];
//! let round = |price0: f64, price1: f64| -> Result<RoundInput, edge_auction::AuctionError> {
//!     Ok(RoundInput::new(3, 3, vec![
//!         Bid::new(MicroserviceId::new(0), BidId::new(0), 2, price0)?,
//!         Bid::new(MicroserviceId::new(1), BidId::new(0), 2, price1)?,
//!     ]))
//! };
//! let instance = MultiRoundInstance::new(sellers, vec![round(4.0, 6.0)?, round(4.0, 6.0)?])?;
//! let outcome = run_msoa(&instance, &MsoaConfig::default())?;
//! assert_eq!(outcome.rounds.len(), 2);
//! assert!(outcome.competitive_bound.is_finite());
//! # Ok(())
//! # }
//! ```

use crate::arena::SellerIndex;
use crate::bid::{Bid, Seller};
use crate::error::AuctionError;
use crate::ssam::{run_slotted, SsamConfig, SsamStats, WinningBid};
use edge_common::id::{BidId, MicroserviceId};
use edge_common::units::Price;
use edge_telemetry::{Level, Scoped, Trace, Value};
use serde::{Deserialize, Serialize};

/// One round's market input.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundInput {
    /// The demand the platform *estimates* and auctions for (`X^t` from
    /// the §III estimator).
    pub estimated_demand: u64,
    /// The ground-truth demand (used by the MSOA-DA variant and for
    /// accounting).
    pub true_demand: u64,
    /// Bids submitted this round, with **true** prices `J_ij^t`.
    pub bids: Vec<Bid>,
}

impl RoundInput {
    /// Creates a round input.
    pub fn new(estimated_demand: u64, true_demand: u64, bids: Vec<Bid>) -> Self {
        RoundInput {
            estimated_demand,
            true_demand,
            bids,
        }
    }
}

/// A validated multi-round instance: the seller table plus per-round
/// inputs, and the seller index built once from them. Its JSON form
/// holds only `sellers` and `rounds`; reading it back rebuilds the index
/// through [`MultiRoundInstance::new`].
#[derive(Debug, Clone, PartialEq)]
pub struct MultiRoundInstance {
    sellers: Vec<Seller>,
    rounds: Vec<RoundInput>,
    /// Each seller-table row's slot: its rank in ascending id order.
    slots: Vec<u32>,
    /// Each bid's seller-table row, round by round in input order.
    rows: Vec<Vec<u32>>,
}

impl Serialize for MultiRoundInstance {
    fn serialize(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("sellers".to_string(), self.sellers.serialize()),
            ("rounds".to_string(), self.rounds.serialize()),
        ])
    }
}

impl Deserialize for MultiRoundInstance {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::DeError> {
        let serde::Value::Object(fields) = v else {
            return Err(serde::DeError(
                "expected object for `MultiRoundInstance`".to_string(),
            ));
        };
        let (sellers, rounds) = (
            serde::field(fields, "sellers")?,
            serde::field(fields, "rounds")?,
        );
        MultiRoundInstance::new(sellers, rounds).map_err(|e| serde::DeError(e.to_string()))
    }
}

/// Each seller-table row's slot, and each bid's row round by round.
pub(crate) type SellerRows = (Vec<u32>, Vec<Vec<u32>>);

/// The seller index of one instance, from one sort of the table: the
/// slot of each row and the row of each bid, where `rounds` yields every
/// round's bid sellers in input order.
///
/// # Errors
///
/// * [`AuctionError::DuplicateSeller`] — the table lists one id twice.
/// * [`AuctionError::UnknownSeller`] — a bid names a seller missing from
///   the table (the first such bid, rounds in order).
pub(crate) fn seller_rows<R, B>(sellers: &[Seller], rounds: R) -> Result<SellerRows, AuctionError>
where
    R: IntoIterator<Item = B>,
    B: IntoIterator<Item = MicroserviceId>,
{
    let index = SellerIndex::of_table(sellers)?;
    let mut row_of_slot = vec![0u32; sellers.len()];
    let slots = (sellers.iter().zip(0u32..))
        .map(|(s, row)| {
            let slot = index.slot(s.id).expect("every table id is indexed");
            row_of_slot[slot as usize] = row;
            slot
        })
        .collect();
    let rows = rounds
        .into_iter()
        .map(|bids| {
            (bids.into_iter())
                .map(|seller| match index.slot(seller) {
                    Some(slot) => Ok(row_of_slot[slot as usize]),
                    None => Err(AuctionError::UnknownSeller(seller.index())),
                })
                .collect()
        })
        .collect::<Result<_, _>>()?;
    Ok((slots, rows))
}

impl MultiRoundInstance {
    /// Builds and validates an instance.
    ///
    /// # Errors
    ///
    /// * [`AuctionError::EmptyInstance`] — no rounds.
    /// * [`AuctionError::DuplicateSeller`] — the table lists one seller
    ///   id twice.
    /// * [`AuctionError::UnknownSeller`] — a bid references a seller not
    ///   in the table.
    pub fn new(sellers: Vec<Seller>, rounds: Vec<RoundInput>) -> Result<Self, AuctionError> {
        if rounds.is_empty() {
            return Err(AuctionError::EmptyInstance);
        }
        let bid_sellers = rounds.iter().map(|r| r.bids.iter().map(|b| b.seller));
        let (slots, rows) = seller_rows(&sellers, bid_sellers)?;
        Ok(MultiRoundInstance {
            sellers,
            rounds,
            slots,
            rows,
        })
    }

    /// The seller table.
    pub fn sellers(&self) -> &[Seller] {
        &self.sellers
    }

    /// The per-round inputs.
    pub fn rounds(&self) -> &[RoundInput] {
        &self.rounds
    }

    /// Number of rounds `T`.
    pub fn num_rounds(&self) -> u64 {
        self.rounds.len() as u64
    }

    /// Each seller-table row's slot: its rank in ascending id order.
    pub(crate) fn slots(&self) -> &[u32] {
        &self.slots
    }

    /// Each bid's seller-table row, round by round in input order.
    pub(crate) fn rows(&self) -> &[Vec<u32>] {
        &self.rows
    }

    /// `β = min_i Θ_i / a_ij` over every bid in the instance
    /// (`f64::INFINITY` when no bids exist).
    pub fn beta(&self) -> f64 {
        (self.rounds.iter().zip(&self.rows))
            .flat_map(|(r, rows)| r.bids.iter().zip(rows))
            .map(|(b, &row)| self.sellers[row as usize].capacity as f64 / b.amount as f64)
            .fold(f64::INFINITY, f64::min)
    }

    /// A conservative single-stage approximation factor `α` derived from
    /// the instance: the harmonic number of the largest round demand
    /// times the global unit-price spread of submitted bids.
    pub fn derive_alpha(&self) -> f64 {
        let max_demand = self
            .rounds
            .iter()
            .map(|r| r.estimated_demand)
            .max()
            .unwrap_or(0);
        let harmonic: f64 = (1..=max_demand).map(|k| 1.0 / k as f64).sum();
        let unit_prices: Vec<f64> = self
            .rounds
            .iter()
            .flat_map(|r| &r.bids)
            .map(Bid::unit_price)
            .collect();
        let spread = match (
            unit_prices.iter().copied().fold(f64::INFINITY, f64::min),
            unit_prices.iter().copied().fold(0.0f64, f64::max),
        ) {
            (min, max) if min > 0.0 && max.is_finite() => max / min,
            _ => 1.0,
        };
        (harmonic * spread).max(1.0)
    }
}

/// Configuration of the online mechanism.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct MsoaConfig {
    /// Single-stage auction settings.
    pub ssam: SsamConfig,
    /// The `α` used in the ψ update. `None` derives it from the instance
    /// via [`MultiRoundInstance::derive_alpha`].
    ///
    /// **Truthfulness footgun:** a derived `α` depends on the submitted
    /// bid prices, so a seller's misreport changes every seller's ψ
    /// trajectory and the per-round mechanism is no longer independent
    /// of reports. Leaving this `None` is fine for benchmarking the
    /// competitive ratio, but incentive experiments must pin `α` (see
    /// [`MsoaConfig::pinned`]); the runner warns once per process when
    /// it falls back to deriving.
    pub alpha: Option<f64>,
}

impl MsoaConfig {
    /// A config with `α` pinned to a report-independent constant, the
    /// safe choice whenever truthfulness matters.
    pub fn pinned(alpha: f64) -> Self {
        MsoaConfig {
            ssam: SsamConfig::default(),
            alpha: Some(alpha),
        }
    }
}

/// Resolves the `α` an online run will use, warning loudly (once per
/// process) when it has to derive one from the reported bids.
pub(crate) fn resolve_alpha(instance: &MultiRoundInstance, config: &MsoaConfig) -> f64 {
    match config.alpha {
        Some(alpha) => alpha,
        None => {
            static WARN_ONCE: std::sync::Once = std::sync::Once::new();
            WARN_ONCE.call_once(|| {
                eprintln!(
                    "warning: MsoaConfig.alpha is None; deriving α from submitted bids. \
                     A derived α depends on reports, which voids the truthfulness guarantee \
                     — pin it with MsoaConfig::pinned(α) for incentive experiments."
                );
            });
            instance.derive_alpha()
        }
    }
}

/// A winner in one MSOA round, carrying both the true and the scaled
/// price.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MsoaWinner {
    /// The selling microservice.
    pub seller: MicroserviceId,
    /// Which alternative bid won.
    pub bid: BidId,
    /// Units offered by the bid (counted against capacity).
    pub amount: u64,
    /// Units credited toward this round's demand.
    pub contribution: u64,
    /// The true price `J_ij^t` (enters the social cost).
    pub true_price: Price,
    /// The ψ-scaled price `∇_ij^t` SSAM selected on.
    pub scaled_price: Price,
    /// The critical-value payment (computed on scaled prices, which are
    /// what the platform sees — §IV-E).
    pub payment: Price,
}

/// One round's result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundResult {
    /// Round index `t`.
    pub round: u64,
    /// The demand that was auctioned.
    pub demand: u64,
    /// Winners of this round.
    pub winners: Vec<MsoaWinner>,
    /// Σ true prices of this round's winners.
    pub social_cost: Price,
    /// Σ payments of this round.
    pub total_payment: Price,
    /// `true` when this round's demand could not be covered with the
    /// available (window- and capacity-feasible) bids, in which case no
    /// winners were selected.
    pub infeasible: bool,
}

/// The full outcome of an MSOA run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MsoaOutcome {
    /// Per-round results, in order.
    pub rounds: Vec<RoundResult>,
    /// Σ true prices over all rounds — the online social cost `μ`.
    pub social_cost: Price,
    /// Σ payments over all rounds.
    pub total_payment: Price,
    /// Final ψ_i per seller (instance seller-table order).
    pub psi: Vec<f64>,
    /// Units yielded per seller (χ_i, seller-table order).
    pub chi: Vec<u64>,
    /// The α used in ψ updates.
    pub alpha: f64,
    /// The instance's β.
    pub beta: f64,
    /// Theorem 7's competitive bound `α·β/(β−1)` (infinite when β ≤ 1).
    pub competitive_bound: f64,
}

impl MsoaOutcome {
    /// Round indices that could not be covered.
    pub fn infeasible_rounds(&self) -> Vec<u64> {
        self.rounds
            .iter()
            .filter(|r| r.infeasible)
            .map(|r| r.round)
            .collect()
    }
}

/// Runs Algorithm 2.
///
/// Rounds whose demand cannot be covered by the feasible bids are
/// recorded as infeasible and skipped (the platform simply fails to
/// reclaim resources that round); all other rounds run a full SSAM on
/// ψ-scaled prices.
///
/// # Errors
///
/// Currently infallible for a validated instance, but kept fallible for
/// forward compatibility with stricter configs.
pub fn run_msoa(
    instance: &MultiRoundInstance,
    config: &MsoaConfig,
) -> Result<MsoaOutcome, AuctionError> {
    run_msoa_traced(instance, config, Trace::off())
}

/// [`run_msoa`] with an audit trail: per round, every bid exclusion
/// (window/capacity), every ψ-scaling applied to a surviving bid, and
/// every winner's ψ/χ update is recorded on `trace`; the nested
/// single-stage auction's events are stamped with the round index.
/// Tracing does not change the outcome.
///
/// # Errors
///
/// Exactly as [`run_msoa`].
pub fn run_msoa_traced(
    instance: &MultiRoundInstance,
    config: &MsoaConfig,
    trace: Trace<'_>,
) -> Result<MsoaOutcome, AuctionError> {
    let sellers = instance.sellers();
    let alpha = resolve_alpha(instance, config);
    let beta = instance.beta();

    trace.emit_with(Level::Info, "msoa.start", || {
        vec![
            ("rounds", Value::from(instance.rounds().len())),
            ("sellers", Value::from(sellers.len())),
            ("alpha", Value::from(alpha)),
            ("beta", Value::from(beta)),
        ]
    });

    let slots = instance.slots();
    let mut ledger = Ledger::new(sellers, alpha);
    let live = crate::live::AuctionLive::handle();
    let capacity_sum: u64 = sellers.iter().map(|s| s.capacity).sum();

    let _msoa_span = edge_telemetry::spans::enter("msoa");
    let mut rounds = Vec::with_capacity(instance.rounds().len());
    for (t, (input, rows)) in instance.rounds().iter().zip(instance.rows()).enumerate() {
        let _round_span = edge_telemetry::spans::enter("round");
        let t = t as u64;
        trace.emit_with(Level::Info, "round.start", || {
            vec![
                ("round", Value::from(t)),
                ("demand", Value::from(input.estimated_demand)),
                ("bids", Value::from(input.bids.len())),
            ]
        });
        // Candidate filter: availability window and remaining capacity
        // (Alg. 2 lines 5–6); price scaling (line 8). One pass in input
        // order.
        let patch_span = edge_telemetry::spans::enter("patch");
        let mut admitted = Admitted::with_capacity(input.bids.len());
        for (pos, (bid, &row)) in input.bids.iter().zip(rows).enumerate() {
            let si = row as usize;
            let window = sellers[si].available_at(t);
            if !window || !ledger.fits(si, bid.amount) {
                trace.emit_with(Level::Debug, "bid.excluded", || {
                    let mut fields = vec![
                        ("round", Value::from(t)),
                        ("seller", Value::from(bid.seller.index())),
                        ("bid", Value::from(bid.id.index())),
                        (
                            "reason",
                            Value::from(if window { "capacity" } else { "window" }),
                        ),
                    ];
                    if window {
                        fields.extend([
                            ("chi", Value::from(ledger.chi[si])),
                            ("amount", Value::from(bid.amount)),
                            ("capacity", Value::from(sellers[si].capacity)),
                        ]);
                    }
                    fields
                });
                continue;
            }
            let psi_adjust = ledger.psi_adjust(si, bid.amount);
            let scaled = Price::new_unchecked(bid.price.value() + psi_adjust);
            trace.emit_with(Level::Debug, "bid.scaled", || {
                vec![
                    ("round", Value::from(t)),
                    ("seller", Value::from(bid.seller.index())),
                    ("bid", Value::from(bid.id.index())),
                    ("amount", Value::from(bid.amount)),
                    ("true_price", Value::from(bid.price.value())),
                    ("psi", Value::from(ledger.psi[si])),
                    ("psi_adjust", Value::from(psi_adjust)),
                    ("scaled_price", Value::from(scaled.value())),
                ]
            });
            admitted.push(pos, bid, scaled, slots[si]);
        }
        drop(patch_span);

        let demand = input.estimated_demand;
        let stage = run_stage(demand, admitted, slots.len(), &config.ssam, t, trace)?;
        let infeasible = stage.is_none() && demand > 0;
        let (won, pricing) = stage.unwrap_or_default();
        let mut winners = Vec::new();
        for (w, pos) in won {
            let (original, si) = (&input.bids[pos], rows[pos] as usize);
            let psi_before = ledger.psi[si];
            ledger.settle_win(si, original.amount, original.price);
            trace.emit_with(Level::Debug, "winner", || {
                vec![
                    ("round", Value::from(t)),
                    ("seller", Value::from(w.seller.index())),
                    ("bid", Value::from(w.bid.index())),
                    ("amount", Value::from(original.amount)),
                    ("contribution", Value::from(w.contribution)),
                    ("true_price", Value::from(original.price.value())),
                    ("scaled_price", Value::from(w.price.value())),
                    ("payment", Value::from(w.payment.value())),
                    ("psi_before", Value::from(psi_before)),
                    ("psi_after", Value::from(ledger.psi[si])),
                    ("chi_after", Value::from(ledger.chi[si])),
                ]
            });
            winners.push(MsoaWinner {
                seller: w.seller,
                bid: w.bid,
                amount: original.amount,
                contribution: w.contribution,
                true_price: original.price,
                scaled_price: w.price,
                payment: w.payment,
            });
        }
        let result = RoundResult {
            round: t,
            demand,
            social_cost: winners.iter().map(|w| w.true_price).sum(),
            total_payment: winners.iter().map(|w| w.payment).sum(),
            winners,
            infeasible,
        };
        trace.emit_with(Level::Info, "round.end", || {
            vec![
                ("round", Value::from(t)),
                ("winners", Value::from(result.winners.len())),
                ("social_cost", Value::from(result.social_cost.value())),
                ("total_payment", Value::from(result.total_payment.value())),
                ("infeasible", Value::from(result.infeasible)),
            ]
        });
        // Live metrics: strictly reads of round state, after the trace
        // events, so neither outcomes nor traces can be perturbed.
        let supplied: u64 = result.winners.iter().map(|w| w.amount).sum();
        let psi_max = ledger.psi.iter().copied().fold(0.0f64, f64::max);
        live.record_round(
            result.winners.len(),
            result.infeasible,
            supplied,
            result.demand,
            result.total_payment.value(),
            result.social_cost.value(),
            psi_max,
            ledger.chi.iter().sum(),
            capacity_sum,
            &pricing,
        );
        rounds.push(result);
    }

    let social_cost: Price = rounds.iter().map(|r| r.social_cost).sum();
    let total_payment: Price = rounds.iter().map(|r| r.total_payment).sum();
    let competitive_bound = if beta > 1.0 {
        alpha * beta / (beta - 1.0)
    } else {
        f64::INFINITY
    };

    trace.emit_with(Level::Info, "msoa.end", || {
        vec![
            ("rounds", Value::from(rounds.len())),
            ("social_cost", Value::from(social_cost.value())),
            ("total_payment", Value::from(total_payment.value())),
            ("competitive_bound", Value::from(competitive_bound)),
        ]
    });

    Ok(MsoaOutcome {
        rounds,
        social_cost,
        total_payment,
        psi: ledger.psi,
        chi: ledger.chi,
        alpha,
        beta,
        competitive_bound,
    })
}

/// The per-seller ledger Alg. 2 keeps across rounds, in seller-table
/// order: capacity Θ_i, the dual variable ψ_i and the units yielded χ_i,
/// plus the α of the ψ update. Every MSOA round loop (this module's,
/// [`crate::recovery`]'s and [`crate::msoa_multi`]'s) filters and
/// settles through it, so an empty fault plan reproduces plain MSOA from
/// the same float operations.
#[derive(Debug)]
pub(crate) struct Ledger {
    theta: Vec<u64>,
    pub(crate) psi: Vec<f64>,
    pub(crate) chi: Vec<u64>,
    alpha: f64,
}

impl Ledger {
    pub(crate) fn new(sellers: &[Seller], alpha: f64) -> Self {
        Ledger {
            theta: sellers.iter().map(|s| s.capacity).collect(),
            psi: vec![0.0; sellers.len()],
            chi: vec![0; sellers.len()],
            alpha,
        }
    }

    /// Line 5's capacity test `χ_i + a_ij ≤ Θ_i`, written so that no
    /// amount can wrap it.
    pub(crate) fn fits(&self, si: usize, amount: u64) -> bool {
        amount <= self.theta[si].saturating_sub(self.chi[si])
    }

    /// Line 8's ψ term `a_ij · ψ_i`, added to the true price.
    pub(crate) fn psi_adjust(&self, si: usize, amount: u64) -> f64 {
        amount as f64 * self.psi[si]
    }

    /// Lines 11–12 for a bid of `amount` units won at true price
    /// `price`: the multiplicative ψ update, then capacity consumption.
    pub(crate) fn settle_win(&mut self, si: usize, amount: u64, price: Price) {
        let theta = self.theta[si] as f64;
        let a = amount as f64;
        self.psi[si] = self.psi[si] * (1.0 + a / (self.alpha * theta))
            + price.value() * a / (self.alpha * theta * theta);
        self.chi[si] += amount;
    }
}

/// The bids a round admitted to its auction, in input order: their
/// scaled copies, the position each holds in the round's input, and its
/// seller's slot.
#[derive(Debug, Default)]
pub(crate) struct Admitted {
    scaled: Vec<Bid>,
    positions: Vec<usize>,
    slots: Vec<u32>,
}

impl Admitted {
    pub(crate) fn with_capacity(n: usize) -> Self {
        Admitted {
            scaled: Vec::with_capacity(n),
            positions: Vec::with_capacity(n),
            slots: Vec::with_capacity(n),
        }
    }

    /// Admits the input bid at `pos`, of the seller in `slot`, at the
    /// given scaled price.
    pub(crate) fn push(&mut self, pos: usize, bid: &Bid, price: Price, slot: u32) {
        self.scaled.push(Bid { price, ..*bid });
        self.positions.push(pos);
        self.slots.push(slot);
    }
}

/// One cleared stage: each winner, in selection order, with the input
/// position of the bid it competed with, plus the auction's work
/// counters.
pub(crate) type Stage = (Vec<(WinningBid, usize)>, SsamStats);

/// Runs one SSAM stage over the admitted bids of an instance with `seats`
/// sellers. SSAM hands back each winner's admitted position, so every
/// winner settles against the very bid that competed — never an
/// excluded copy of its key. Infeasible demand maps to `None` (an
/// auction that never priced anything); any other error propagates. The
/// nested auction's trace events are stamped with the round index.
pub(crate) fn run_stage(
    demand: u64,
    admitted: Admitted,
    seats: usize,
    config: &SsamConfig,
    t: u64,
    trace: Trace<'_>,
) -> Result<Option<Stage>, AuctionError> {
    let scoped = trace
        .sink()
        .map(|s| Scoped::new(s, vec![("round", Value::from(t))]));
    let ssam_trace = scoped.as_ref().map_or(Trace::off(), |s| Trace::new(s));
    let (bids, slots) = (&admitted.scaled, &admitted.slots);
    let (outcome, stats, at) = match run_slotted(demand, bids, slots, seats, config, ssam_trace) {
        Ok(cleared) => cleared,
        Err(AuctionError::InfeasibleDemand { .. }) => return Ok(None),
        Err(e) => return Err(e),
    };
    let positions = at.into_iter().map(|a| admitted.positions[a]);
    Ok(Some((
        outcome.winners.into_iter().zip(positions).collect(),
        stats,
    )))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn bid(seller: usize, id: usize, amount: u64, price: f64) -> Bid {
        Bid::new(MicroserviceId::new(seller), BidId::new(id), amount, price).unwrap()
    }

    fn seller(id: usize, capacity: u64, window: (u64, u64)) -> Seller {
        Seller::new(MicroserviceId::new(id), capacity, window).unwrap()
    }

    fn two_seller_instance(rounds: usize, capacity: u64) -> MultiRoundInstance {
        let last = rounds as u64 - 1;
        let sellers = vec![
            seller(0, capacity, (0, last)),
            seller(1, capacity, (0, last)),
        ];
        let round_inputs = (0..rounds)
            .map(|_| RoundInput::new(3, 3, vec![bid(0, 0, 2, 4.0), bid(1, 0, 2, 6.0)]))
            .collect();
        MultiRoundInstance::new(sellers, round_inputs).unwrap()
    }

    #[test]
    fn validates_unknown_sellers() {
        let err = MultiRoundInstance::new(
            vec![seller(0, 10, (0, 0))],
            vec![RoundInput::new(1, 1, vec![bid(7, 0, 1, 1.0)])],
        )
        .unwrap_err();
        assert_eq!(err, AuctionError::UnknownSeller(7));
    }

    #[test]
    fn validates_duplicate_sellers() {
        // Two table entries for one id would leave the ψ/χ ledger and β
        // reading whichever entry a lookup happened to keep.
        let err = MultiRoundInstance::new(
            vec![
                seller(0, 10, (0, 0)),
                seller(1, 10, (0, 0)),
                seller(0, 1, (0, 0)),
            ],
            vec![RoundInput::new(1, 1, vec![bid(0, 0, 1, 1.0)])],
        )
        .unwrap_err();
        assert_eq!(err, AuctionError::DuplicateSeller(0));
        assert_eq!(err.to_string(), "seller table lists seller 0 twice");
    }

    #[test]
    fn json_holds_the_table_and_rounds_and_reads_back_validated() {
        let instance = two_seller_instance(2, 10);
        let json = serde_json::to_string(&instance).unwrap();
        assert!(json.starts_with(r#"{"sellers":["#), "{json}");
        assert!(json.contains(r#"],"rounds":["#) && !json.contains("rows"));
        let back: MultiRoundInstance = serde_json::from_str(&json).unwrap();
        assert_eq!(back, instance);
        let unknown = json.replacen(r#""seller":1"#, r#""seller":7"#, 1);
        let err = serde_json::from_str::<MultiRoundInstance>(&unknown).unwrap_err();
        assert!(err.to_string().contains("undeclared seller 7"), "{err}");
    }

    #[test]
    fn validates_empty_instance() {
        let err = MultiRoundInstance::new(vec![], vec![]).unwrap_err();
        assert_eq!(err, AuctionError::EmptyInstance);
    }

    #[test]
    fn covers_every_feasible_round() {
        let instance = two_seller_instance(3, 100);
        let out = run_msoa(&instance, &MsoaConfig::default()).unwrap();
        assert_eq!(out.rounds.len(), 3);
        for r in &out.rounds {
            assert!(!r.infeasible);
            let covered: u64 = r.winners.iter().map(|w| w.contribution).sum();
            assert_eq!(covered, 3);
        }
        assert!(out.infeasible_rounds().is_empty());
    }

    #[test]
    fn psi_grows_for_winners_only() {
        let sellers = vec![
            seller(0, 100, (0, 1)),
            seller(1, 100, (0, 1)),
            seller(2, 100, (0, 1)),
        ];
        // Seller 2's bid is far too expensive to ever win.
        let rounds = (0..2)
            .map(|_| {
                RoundInput::new(
                    3,
                    3,
                    vec![bid(0, 0, 2, 4.0), bid(1, 0, 2, 6.0), bid(2, 0, 2, 500.0)],
                )
            })
            .collect();
        let instance = MultiRoundInstance::new(sellers, rounds).unwrap();
        let out = run_msoa(&instance, &MsoaConfig::default()).unwrap();
        assert!(out.psi[0] > 0.0, "winner's ψ should grow");
        assert!(out.psi[1] > 0.0);
        assert_eq!(out.psi[2], 0.0, "loser's ψ stays zero");
        assert_eq!(out.chi[2], 0);
    }

    #[test]
    fn capacity_exhaustion_excludes_bids() {
        // Capacity 4: seller 0 can win twice (2 units each), then its
        // bids are excluded and seller 1 must carry the demand alone —
        // but seller 1 alone cannot cover 3 with a 2-unit bid, so later
        // rounds go infeasible.
        let instance = two_seller_instance(4, 4);
        let out = run_msoa(&instance, &MsoaConfig::default()).unwrap();
        let infeasible = out.infeasible_rounds();
        assert!(!infeasible.is_empty(), "capacity should bite eventually");
        for si in 0..2 {
            assert!(out.chi[si] <= 4, "capacity violated for seller {si}");
        }
    }

    #[test]
    fn windows_exclude_absent_sellers() {
        let sellers = vec![seller(0, 100, (0, 0)), seller(1, 100, (0, 1))];
        let rounds = vec![
            RoundInput::new(2, 2, vec![bid(0, 0, 2, 4.0), bid(1, 0, 2, 6.0)]),
            RoundInput::new(2, 2, vec![bid(0, 0, 2, 4.0), bid(1, 0, 2, 6.0)]),
        ];
        let instance = MultiRoundInstance::new(sellers, rounds).unwrap();
        let out = run_msoa(&instance, &MsoaConfig::default()).unwrap();
        // Round 0: seller 0 (cheaper) wins. Round 1: seller 0 is outside
        // its window; seller 1 must win.
        assert_eq!(out.rounds[0].winners[0].seller, MicroserviceId::new(0));
        assert_eq!(out.rounds[1].winners.len(), 1);
        assert_eq!(out.rounds[1].winners[0].seller, MicroserviceId::new(1));
    }

    #[test]
    fn scaled_prices_exceed_true_prices_after_wins() {
        let instance = two_seller_instance(3, 100);
        let out = run_msoa(&instance, &MsoaConfig::default()).unwrap();
        // Seller 0 wins round 0 at its true price (ψ=0), later rounds at
        // a scaled price strictly above.
        let w0 = &out.rounds[0].winners[0];
        assert_eq!(w0.scaled_price, w0.true_price);
        let later: Vec<&MsoaWinner> = out.rounds[1..]
            .iter()
            .flat_map(|r| &r.winners)
            .filter(|w| w.seller == MicroserviceId::new(0))
            .collect();
        assert!(!later.is_empty());
        for w in later {
            assert!(w.scaled_price > w.true_price);
        }
    }

    #[test]
    fn social_cost_accumulates_true_prices() {
        let instance = two_seller_instance(2, 100);
        let out = run_msoa(&instance, &MsoaConfig::default()).unwrap();
        let manual: f64 = out
            .rounds
            .iter()
            .flat_map(|r| &r.winners)
            .map(|w| w.true_price.value())
            .sum();
        assert!((out.social_cost.value() - manual).abs() < 1e-9);
    }

    #[test]
    fn competitive_bound_matches_formula() {
        let instance = two_seller_instance(2, 10);
        let out = run_msoa(
            &instance,
            &MsoaConfig {
                alpha: Some(2.0),
                ..Default::default()
            },
        )
        .unwrap();
        // β = min(10/2) = 5; bound = 2·5/4 = 2.5.
        assert_eq!(out.beta, 5.0);
        assert!((out.competitive_bound - 2.5).abs() < 1e-9);
    }

    #[test]
    fn beta_at_most_one_gives_infinite_bound() {
        let sellers = vec![seller(0, 2, (0, 0)), seller(1, 2, (0, 0))];
        let rounds = vec![RoundInput::new(
            2,
            2,
            vec![bid(0, 0, 2, 4.0), bid(1, 0, 2, 6.0)],
        )];
        let instance = MultiRoundInstance::new(sellers, rounds).unwrap();
        let out = run_msoa(&instance, &MsoaConfig::default()).unwrap();
        assert_eq!(out.beta, 1.0);
        assert!(out.competitive_bound.is_infinite());
    }

    #[test]
    fn deterministic() {
        let instance = two_seller_instance(5, 20);
        let a = run_msoa(&instance, &MsoaConfig::default()).unwrap();
        let b = run_msoa(&instance, &MsoaConfig::default()).unwrap();
        assert_eq!(a, b);
    }

    /// Seller 0 (Θ = 10) bids id 0 twice in one round; the second copy
    /// is excluded for capacity and the first wins.
    pub(crate) fn repeated_bid_id_instance() -> MultiRoundInstance {
        let round = RoundInput::new(2, 2, vec![bid(0, 0, 2, 1.0), bid(0, 0, 50, 0.5)]);
        MultiRoundInstance::new(vec![seller(0, 10, (0, 0))], vec![round]).unwrap()
    }

    /// Seller 0 (Θ = 10) bids id 0 twice in one round, and both copies
    /// fit its capacity, so both are admitted.
    pub(crate) fn reused_bid_id_instance() -> MultiRoundInstance {
        let bids = vec![bid(0, 0, 2, 1.0), bid(1, 0, 2, 3.0), bid(0, 0, 3, 2.0)];
        let sellers = vec![seller(0, 10, (0, 0)), seller(1, 10, (0, 0))];
        MultiRoundInstance::new(sellers, vec![RoundInput::new(2, 2, bids)]).unwrap()
    }

    #[test]
    fn admitted_bids_may_not_reuse_an_id() {
        let err = run_msoa(&reused_bid_id_instance(), &MsoaConfig::pinned(2.0)).unwrap_err();
        assert_eq!(err, AuctionError::DuplicateBidId { seller: 0, bid: 0 });
    }

    /// Seller 0 (Θ = 10) wins 2 units in round 0, then bids 2⁶⁴ − 2
    /// units in round 1, where seller 1 can cover the demand alone.
    /// Seller 2 bids only in round 1, as a spare for backfill.
    pub(crate) fn huge_amount_instance() -> MultiRoundInstance {
        let huge = vec![
            bid(0, 0, u64::MAX - 1, 1.0),
            bid(1, 0, 2, 5.0),
            bid(2, 0, 2, 9.0),
        ];
        let rounds = vec![
            RoundInput::new(2, 2, vec![bid(0, 0, 2, 1.0), bid(1, 0, 2, 5.0)]),
            RoundInput::new(2, 2, huge),
        ];
        MultiRoundInstance::new((0..3).map(|s| seller(s, 10, (0, 1))).collect(), rounds).unwrap()
    }

    /// How the trace records seller 0's huge round-1 bid failing the
    /// capacity test.
    pub(crate) const HUGE_BID_EXCLUDED: &str =
        r#""fields":{"round":1,"seller":0,"bid":0,"reason":"capacity""#;

    #[test]
    fn winner_settles_against_the_bid_that_competed() {
        let out = run_msoa(&repeated_bid_id_instance(), &MsoaConfig::pinned(2.0)).unwrap();
        let w = &out.rounds[0].winners[0];
        assert_eq!((w.amount, w.true_price.value()), (2, 1.0));
        assert_eq!(out.chi[0], 2, "χ must stay within Θ");
        assert_eq!(out.social_cost.value(), 1.0);
    }

    #[test]
    fn capacity_filter_cannot_wrap() {
        let collector = edge_telemetry::Collector::new();
        let config = MsoaConfig::pinned(2.0);
        let out = run_msoa_traced(&huge_amount_instance(), &config, Trace::new(&collector));
        let out = out.unwrap();
        assert!(collector.deterministic_jsonl().contains(HUGE_BID_EXCLUDED));
        assert!(!out.rounds[1].infeasible);
        assert_eq!(out.rounds[1].winners[0].seller, MicroserviceId::new(1));
        assert_eq!(out.chi[0], 2);
    }

    #[test]
    fn derive_alpha_reflects_demand_and_spread() {
        let instance = two_seller_instance(2, 100);
        // Demand 3 → H_3 ≈ 1.833; spread = 3.0/2.0 = 1.5.
        let alpha = instance.derive_alpha();
        let h3 = 1.0 + 0.5 + 1.0 / 3.0;
        assert!((alpha - h3 * 1.5).abs() < 1e-9, "alpha {alpha}");
    }
}
