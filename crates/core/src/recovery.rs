//! Seller-default recovery — MSOA under injected faults.
//!
//! The online mechanism of [`crate::msoa`] assumes every winner delivers
//! what it committed. Real edge sellers crash, renege, and under-deliver,
//! so this module runs the same Algorithm 2 loop against a deterministic
//! [`FaultPlan`] and layers a platform-side recovery policy on top:
//!
//! * **Pro-rata clawback** — a winner that delivers `d` of its committed
//!   `c` units is paid `d/c` of its critical-value payment; the withheld
//!   remainder is reported as [`FaultRound::clawed_back`].
//! * **Reliability scoring** — each seller carries a score `ρ ∈ [0, 1]`
//!   (EMA of its delivery ratios) that augments the scaled price the same
//!   way ψ does: `∇ = J + a·ψ + a·λ·(1−ρ)`. Flaky sellers look expensive
//!   before they look absent.
//! * **Blacklisting** — a seller whose `ρ` falls below a threshold is
//!   excluded from primary auctions (re-admitted only by the backfill
//!   relaxation ladder, when nobody else can cover).
//! * **Backfill re-auction** — any post-settlement shortfall triggers
//!   bounded SSAM rounds over the remaining sellers, with an exclusion
//!   ladder that relaxes per attempt (first spare sellers only, then
//!   blacklisted ones, then faithful winners' remaining bids; defaulters
//!   never return within the round). Attempts are capped by both
//!   configuration and the rounds left in the stage.
//!
//! Whatever shortfall survives the ladder is recorded as an SLA violation
//! — the run degrades gracefully and never panics.
//!
//! With an [empty plan](FaultPlan::empty) every scaled price, winner,
//! payment, and ψ/χ trajectory is **bit-identical** to [`run_msoa`]'s
//! (`ρ = 1` makes the penalty term exactly `0.0`), which is how the fault
//! pipeline proves it does not perturb the fault-free mechanism.
//!
//! # Examples
//!
//! ```
//! use edge_auction::bid::{Bid, Seller};
//! use edge_auction::msoa::{MsoaConfig, MultiRoundInstance, RoundInput};
//! use edge_auction::recovery::{run_msoa_with_faults, DefaultEvent, FaultPlan, RecoveryConfig};
//! use edge_common::id::{BidId, MicroserviceId};
//!
//! # fn main() -> Result<(), edge_auction::AuctionError> {
//! let sellers = vec![
//!     Seller::new(MicroserviceId::new(0), 10, (0, 0))?,
//!     Seller::new(MicroserviceId::new(1), 10, (0, 0))?,
//! ];
//! let rounds = vec![RoundInput::new(2, 2, vec![
//!     Bid::new(MicroserviceId::new(0), BidId::new(0), 2, 4.0)?,
//!     Bid::new(MicroserviceId::new(1), BidId::new(0), 2, 6.0)?,
//! ])];
//! let instance = MultiRoundInstance::new(sellers, rounds)?;
//! let mut plan = FaultPlan::empty();
//! plan.defaults.push(DefaultEvent {
//!     round: 0,
//!     seller: MicroserviceId::new(0),
//!     delivered_fraction: 0.5,
//! });
//! let out = run_msoa_with_faults(
//!     &instance,
//!     &MsoaConfig::pinned(2.0),
//!     &plan,
//!     &RecoveryConfig::default(),
//! )?;
//! // The defaulting winner delivered 1 of 2 units; the backfill
//! // re-auction covered the other from seller 1.
//! assert_eq!(out.rounds[0].shortfall, 0);
//! assert!(!out.rounds[0].sla_violated);
//! # Ok(())
//! # }
//! ```

use crate::bid::{Bid, Seller};
use crate::error::AuctionError;
use crate::msoa::{resolve_alpha, run_stage, Admitted, Ledger, MsoaConfig, MultiRoundInstance};
use crate::ssam::{SsamStats, WinningBid};
use edge_common::id::{BidId, MicroserviceId};
use edge_common::indicator::{Indicator, ObservedIndicators};
use edge_common::rng::derive_rng;
use edge_common::units::Price;
use edge_telemetry::{Level, Trace, Value};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A seller delivering only a fraction of what it committed in a round.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DefaultEvent {
    /// Round index `t` the default happens in.
    pub round: u64,
    /// The defaulting seller.
    pub seller: MicroserviceId,
    /// Fraction of the committed units actually delivered (clamped to
    /// `[0, 1]` at use; `0.0` is a total no-show).
    pub delivered_fraction: f64,
}

/// A half-open window `[from, until)` of rounds a seller is crashed in
/// (cannot bid, win, or deliver).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashWindow {
    /// The crashed seller.
    pub seller: MicroserviceId,
    /// First crashed round (inclusive).
    pub from: u64,
    /// First healthy round (exclusive end).
    pub until: u64,
}

/// A half-open window `[from, until)` of rounds a demand indicator is
/// unobservable in (the estimator must renormalize over the rest).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DropoutWindow {
    /// The missing indicator.
    pub indicator: Indicator,
    /// First dropped round (inclusive).
    pub from: u64,
    /// First restored round (exclusive end).
    pub until: u64,
}

/// A deterministic fault plan: everything that will go wrong, decided up
/// front so a faulty run is exactly reproducible.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Partial-delivery events.
    pub defaults: Vec<DefaultEvent>,
    /// Seller crash windows.
    pub crashes: Vec<CrashWindow>,
    /// Indicator dropout windows.
    pub dropouts: Vec<DropoutWindow>,
}

impl FaultPlan {
    /// A plan with no faults (the healthy baseline).
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    /// `true` when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.defaults.is_empty() && self.crashes.is_empty() && self.dropouts.is_empty()
    }

    /// The delivered fraction of a seller defaulting at `round`, if any.
    pub fn delivered_fraction(&self, round: u64, seller: MicroserviceId) -> Option<f64> {
        self.defaults
            .iter()
            .find(|d| d.round == round && d.seller == seller)
            .map(|d| d.delivered_fraction)
    }

    /// Whether a seller is inside a crash window at `round`.
    pub fn crashed(&self, round: u64, seller: MicroserviceId) -> bool {
        self.crashes
            .iter()
            .any(|c| c.seller == seller && c.from <= round && round < c.until)
    }

    /// The indicator mask observable at `round` under this plan.
    pub fn observed(&self, round: u64) -> ObservedIndicators {
        let mut mask = ObservedIndicators::all();
        for d in &self.dropouts {
            if d.from <= round && round < d.until {
                mask = mask.without(d.indicator);
            }
        }
        mask
    }

    /// Draws a plan from a seeded stream (`derive_rng(seed,
    /// "fault-plan")`).
    ///
    /// Every (round, seller) pair consumes the same number of draws
    /// regardless of the configured probabilities, and events fire when a
    /// uniform draw falls below the matching probability — so plans drawn
    /// from the *same seed* at increasing probabilities are nested
    /// (common random numbers), which keeps fault-matrix curves monotone
    /// instead of noisy.
    pub fn seeded(
        seed: u64,
        rounds: u64,
        num_sellers: usize,
        config: &FaultInjectionConfig,
    ) -> Self {
        let mut rng = derive_rng(seed, "fault-plan");
        let mut plan = FaultPlan::empty();
        let mut crashed_until = vec![0u64; num_sellers];
        let mut dropped_until = [0u64; 3];
        let frac_span = (config.max_delivered_fraction - config.min_delivered_fraction).max(0.0);
        for t in 0..rounds {
            for (s, crash_end) in crashed_until.iter_mut().enumerate() {
                let seller = MicroserviceId::new(s);
                // Fixed draw order and count per (t, s): crash, default,
                // fraction — alignment across configs needs all three.
                let u_crash: f64 = rng.gen();
                let u_default: f64 = rng.gen();
                let u_frac: f64 = rng.gen();
                if t >= *crash_end && u_crash < config.crash_probability {
                    let until = (t + config.crash_length.max(1)).min(rounds);
                    plan.crashes.push(CrashWindow {
                        seller,
                        from: t,
                        until,
                    });
                    *crash_end = until;
                }
                if t >= *crash_end && u_default < config.default_probability {
                    plan.defaults.push(DefaultEvent {
                        round: t,
                        seller,
                        delivered_fraction: config.min_delivered_fraction + u_frac * frac_span,
                    });
                }
            }
            for (i, indicator) in Indicator::ALL.into_iter().enumerate() {
                let u_drop: f64 = rng.gen();
                if t >= dropped_until[i] && u_drop < config.dropout_probability {
                    let until = (t + config.dropout_length.max(1)).min(rounds);
                    plan.dropouts.push(DropoutWindow {
                        indicator,
                        from: t,
                        until,
                    });
                    dropped_until[i] = until;
                }
            }
        }
        plan
    }
}

/// Rates for [`FaultPlan::seeded`] — the market-layer mirror of the
/// simulator's `FaultRates` (kept separate so `edge-auction` stays
/// independent of `edge-sim`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultInjectionConfig {
    /// Per-(round, seller) probability of a partial-delivery default.
    pub default_probability: f64,
    /// Lower bound of the delivered fraction drawn for a default.
    pub min_delivered_fraction: f64,
    /// Upper bound of the delivered fraction drawn for a default.
    pub max_delivered_fraction: f64,
    /// Per-(round, seller) probability a crash window starts.
    pub crash_probability: f64,
    /// Crash window length in rounds.
    pub crash_length: u64,
    /// Per-(round, indicator) probability a dropout window starts.
    pub dropout_probability: f64,
    /// Dropout window length in rounds.
    pub dropout_length: u64,
}

impl Default for FaultInjectionConfig {
    fn default() -> Self {
        FaultInjectionConfig {
            default_probability: 0.1,
            min_delivered_fraction: 0.2,
            max_delivered_fraction: 0.8,
            crash_probability: 0.02,
            crash_length: 2,
            dropout_probability: 0.05,
            dropout_length: 2,
        }
    }
}

/// The platform's recovery policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoveryConfig {
    /// Master switch. When `false` the platform pays defaulting winners
    /// in full, never backfills, and applies no reliability penalty —
    /// the "faults without recovery" baseline.
    pub enabled: bool,
    /// `λ` in the reliability penalty `a·λ·(1−ρ)` added to scaled
    /// prices.
    pub reliability_weight: f64,
    /// EMA smoothing `η` of the reliability update
    /// `ρ ← (1−η)·ρ + η·(delivered/committed)`.
    pub reliability_smoothing: f64,
    /// Sellers whose `ρ` falls below this are blacklisted from primary
    /// auctions.
    pub blacklist_threshold: f64,
    /// Hard cap on backfill attempts per round (further capped by the
    /// rounds left in the stage).
    pub max_backfill_attempts: u64,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            enabled: true,
            reliability_weight: 5.0,
            reliability_smoothing: 0.5,
            blacklist_threshold: 0.35,
            max_backfill_attempts: 3,
        }
    }
}

impl RecoveryConfig {
    /// The no-recovery baseline (full payment, no backfill, no penalty).
    pub fn disabled() -> Self {
        RecoveryConfig {
            enabled: false,
            ..RecoveryConfig::default()
        }
    }
}

/// A winner in one faulty round, tracking commitment vs delivery.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultWinner {
    /// The selling microservice.
    pub seller: MicroserviceId,
    /// Which alternative bid won.
    pub bid: BidId,
    /// Units offered by the bid (counted against capacity).
    pub amount: u64,
    /// Units committed toward this round's demand.
    pub committed: u64,
    /// Units actually delivered (`≤ committed`).
    pub delivered: u64,
    /// The true price `J_ij^t`.
    pub true_price: Price,
    /// The ψ- and ρ-scaled price SSAM selected on.
    pub scaled_price: Price,
    /// The critical-value payment the winner earned.
    pub payment_due: Price,
    /// What the platform actually paid after pro-rata clawback.
    pub payment_made: Price,
    /// `true` when this winner was selected by a backfill re-auction.
    pub backfill: bool,
}

/// One round of the faulty run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultRound {
    /// Round index `t`.
    pub round: u64,
    /// The demand that was auctioned.
    pub demand: u64,
    /// Winners (primary then backfill, in selection order).
    pub winners: Vec<FaultWinner>,
    /// Units delivered in total.
    pub delivered: u64,
    /// Demand left uncovered after every backfill attempt.
    pub shortfall: u64,
    /// `true` when the primary auction could not cover the demand.
    pub primary_infeasible: bool,
    /// Backfill attempts consumed (infeasible attempts count).
    pub backfill_attempts: u64,
    /// `true` when positive demand went (partially) unserved.
    pub sla_violated: bool,
    /// Σ true prices of winners.
    pub social_cost: Price,
    /// Σ payments actually made.
    pub platform_cost: Price,
    /// Σ payments withheld from defaulting winners.
    pub clawed_back: Price,
    /// The indicator mask observable this round (for demand-estimation
    /// degradation reporting).
    pub observed: ObservedIndicators,
}

/// The full outcome of an MSOA run under a fault plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultyMsoaOutcome {
    /// Per-round results, in order.
    pub rounds: Vec<FaultRound>,
    /// Σ true prices over all rounds.
    pub social_cost: Price,
    /// Σ payments actually made over all rounds.
    pub platform_cost: Price,
    /// Σ payments withheld over all rounds.
    pub clawed_back: Price,
    /// Final reliability score per seller (seller-table order).
    pub reliability: Vec<f64>,
    /// Which sellers ended the run blacklisted.
    pub blacklisted: Vec<bool>,
    /// Final ψ_i per seller.
    pub psi: Vec<f64>,
    /// Units committed per seller (χ_i).
    pub chi: Vec<u64>,
    /// The α used in ψ updates.
    pub alpha: f64,
    /// The instance's β.
    pub beta: f64,
    /// Σ shortfall over all rounds.
    pub shortfall_units: u64,
    /// Σ demand over all rounds.
    pub demand_units: u64,
}

impl FaultyMsoaOutcome {
    /// Fraction of positive-demand rounds whose SLA was violated
    /// (`0.0` when no round had demand).
    pub fn sla_violation_rate(&self) -> f64 {
        let with_demand = self.rounds.iter().filter(|r| r.demand > 0).count();
        if with_demand == 0 {
            return 0.0;
        }
        let violated = self.rounds.iter().filter(|r| r.sla_violated).count();
        violated as f64 / with_demand as f64
    }

    /// Total backfill attempts across the run.
    pub fn backfill_attempts(&self) -> u64 {
        self.rounds.iter().map(|r| r.backfill_attempts).sum()
    }
}

/// One faulty run's fixed inputs and evolving market state, shared by
/// the primary auction and the backfill ladder.
struct Market<'a> {
    sellers: &'a [Seller],
    plan: &'a FaultPlan,
    recovery: &'a RecoveryConfig,
    trace: Trace<'a>,
    ledger: Ledger,
    rho: Vec<f64>,
    blacklisted: Vec<bool>,
}

/// Where a seller stands in the round being settled.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Standing {
    /// Has not won this round.
    Open,
    /// Won, and delivered in full every time.
    Faithful,
    /// Delivered less than it committed at least once.
    Defaulted,
}

/// What one round has settled so far: its winners and delivered units,
/// the input positions of the bids that won, and each seller row's
/// standing — the backfill ladder's exclusions.
struct RoundBook {
    winners: Vec<FaultWinner>,
    delivered: u64,
    won: Vec<usize>,
    standing: Vec<Standing>,
}

impl Market<'_> {
    /// Why a bid is kept out of the round's auctions, checked in trace
    /// order: crashed, outside its window, blacklisted (unless the
    /// ladder readmits blacklisted sellers), or over capacity.
    fn exclusion(
        &self,
        t: u64,
        si: usize,
        bid: &Bid,
        readmit_blacklisted: bool,
    ) -> Option<&'static str> {
        if self.plan.crashed(t, bid.seller) {
            Some("crashed")
        } else if !self.sellers[si].available_at(t) {
            Some("window")
        } else if self.recovery.enabled && self.blacklisted[si] && !readmit_blacklisted {
            Some("blacklisted")
        } else if !self.ledger.fits(si, bid.amount) {
            Some("capacity")
        } else {
            None
        }
    }

    /// Scaled price `∇ = J + a·ψ + a·λ·(1−ρ)`. With `ρ = 1` (or the
    /// penalty disabled) the last term is exactly `0.0`, leaving the
    /// plain MSOA price bit-for-bit.
    fn scaled_price(&self, si: usize, bid: &Bid) -> Price {
        let base = bid.price.value() + self.ledger.psi_adjust(si, bid.amount);
        let penalty = if self.recovery.enabled {
            bid.amount as f64 * (self.recovery.reliability_weight * (1.0 - self.rho[si]))
        } else {
            0.0
        };
        Price::new_unchecked(base + penalty)
    }

    /// Settles one stage's winners in selection order: ψ/χ (Alg. 2
    /// lines 11–12), delivery and clawback under the plan, and the
    /// seller's reliability. `input` and `rows` are the round's bids and
    /// their seller-table rows.
    fn settle(
        &mut self,
        t: u64,
        won: Vec<(WinningBid, usize)>,
        (input, rows): (&[Bid], &[u32]),
        backfill: bool,
        book: &mut RoundBook,
    ) {
        for (w, pos) in won {
            let (original, si) = (&input[pos], rows[pos] as usize);
            self.ledger.settle_win(si, original.amount, original.price);
            let settled = self.deliver(t, &w, original, backfill);
            book.won.push(pos);
            if settled.delivered < settled.committed {
                book.standing[si] = Standing::Defaulted;
            } else if book.standing[si] == Standing::Open {
                book.standing[si] = Standing::Faithful;
            }
            self.emit_settlement(t, &settled, si);
            let was_blacklisted = self.blacklisted[si];
            self.observe_delivery(si, settled.delivered, settled.committed);
            self.emit_reliability(t, si, was_blacklisted);
            book.delivered += settled.delivered;
            book.winners.push(settled);
        }
    }

    /// Applies the plan's default (if any) to one winner: shrink the
    /// delivery, claw the payment back pro-rata when recovery is on.
    fn deliver(&self, t: u64, w: &WinningBid, original: &Bid, backfill: bool) -> FaultWinner {
        let committed = w.contribution;
        let delivered = match self.plan.delivered_fraction(t, original.seller) {
            Some(frac) => {
                let frac = frac.clamp(0.0, 1.0);
                ((frac * committed as f64).floor() as u64).min(committed)
            }
            None => committed,
        };
        let payment_made = if self.recovery.enabled && delivered < committed && committed > 0 {
            Price::new_unchecked(w.payment.value() * delivered as f64 / committed as f64)
        } else {
            w.payment
        };
        FaultWinner {
            seller: original.seller,
            bid: original.id,
            amount: original.amount,
            committed,
            delivered,
            true_price: original.price,
            scaled_price: w.price,
            payment_due: w.payment,
            payment_made,
            backfill,
        }
    }

    /// EMA reliability update after a (possibly partial) delivery, plus
    /// the blacklist check.
    fn observe_delivery(&mut self, si: usize, delivered: u64, committed: u64) {
        if committed == 0 {
            return;
        }
        let ratio = delivered as f64 / committed as f64;
        let eta = self.recovery.reliability_smoothing.clamp(0.0, 1.0);
        self.rho[si] = (1.0 - eta) * self.rho[si] + eta * ratio;
        if self.recovery.enabled && self.rho[si] < self.recovery.blacklist_threshold {
            self.blacklisted[si] = true;
        }
    }

    /// Records one winner's settlement on the trace: what it committed,
    /// delivered, was owed, and was actually paid.
    fn emit_settlement(&self, t: u64, w: &FaultWinner, si: usize) {
        self.trace.emit_with(Level::Debug, "settlement", || {
            vec![
                ("round", Value::from(t)),
                ("seller", Value::from(w.seller.index())),
                ("bid", Value::from(w.bid.index())),
                ("backfill", Value::from(w.backfill)),
                ("committed", Value::from(w.committed)),
                ("delivered", Value::from(w.delivered)),
                ("payment_due", Value::from(w.payment_due.value())),
                ("payment_made", Value::from(w.payment_made.value())),
                (
                    "clawback",
                    Value::from(w.payment_due.value() - w.payment_made.value()),
                ),
                ("psi_after", Value::from(self.ledger.psi[si])),
                ("chi_after", Value::from(self.ledger.chi[si])),
            ]
        });
    }

    /// Records the post-delivery reliability score, and a `blacklist`
    /// event on the transition into the blacklist.
    fn emit_reliability(&self, t: u64, si: usize, was_blacklisted: bool) {
        self.trace
            .emit_with(Level::Debug, "reliability.update", || {
                vec![
                    ("round", Value::from(t)),
                    ("seller", Value::from(si)),
                    ("rho", Value::from(self.rho[si])),
                ]
            });
        if self.blacklisted[si] && !was_blacklisted {
            self.trace.emit_with(Level::Info, "blacklist", || {
                vec![
                    ("round", Value::from(t)),
                    ("seller", Value::from(si)),
                    ("rho", Value::from(self.rho[si])),
                ]
            });
        }
    }
}

/// Runs Algorithm 2 against a fault plan with the recovery policy.
///
/// Per round: primary SSAM on ψ/ρ-scaled prices over non-crashed,
/// non-blacklisted sellers → settlement (defaults shrink delivery,
/// trigger pro-rata clawback and reliability updates) → bounded backfill
/// re-auctions while a shortfall remains. Uncoverable shortfall is
/// recorded as an SLA violation; the run never fails on injected faults.
///
/// # Errors
///
/// Propagates only structural auction errors ([`AuctionError`] variants
/// other than infeasible demand, which is handled gracefully).
pub fn run_msoa_with_faults(
    instance: &MultiRoundInstance,
    config: &MsoaConfig,
    plan: &FaultPlan,
    recovery: &RecoveryConfig,
) -> Result<FaultyMsoaOutcome, AuctionError> {
    run_msoa_with_faults_traced(instance, config, plan, recovery, Trace::off())
}

/// [`run_msoa_with_faults`] with an audit trail: exclusions (window,
/// crash, blacklist, capacity), reliability-weighted price scalings,
/// settlements (delivery vs commitment, clawback), reliability updates,
/// blacklist transitions, backfill rungs, and SLA violations are all
/// recorded on `trace`. Tracing does not change the outcome.
///
/// # Errors
///
/// Exactly as [`run_msoa_with_faults`].
pub fn run_msoa_with_faults_traced(
    instance: &MultiRoundInstance,
    config: &MsoaConfig,
    plan: &FaultPlan,
    recovery: &RecoveryConfig,
    trace: Trace<'_>,
) -> Result<FaultyMsoaOutcome, AuctionError> {
    let sellers = instance.sellers();
    let alpha = resolve_alpha(instance, config);
    let beta = instance.beta();
    let num_rounds = instance.num_rounds();

    trace.emit_with(Level::Info, "faults.start", || {
        vec![
            ("rounds", Value::from(instance.rounds().len())),
            ("sellers", Value::from(sellers.len())),
            ("alpha", Value::from(alpha)),
            ("beta", Value::from(beta)),
            ("recovery_enabled", Value::from(recovery.enabled)),
            ("defaults", Value::from(plan.defaults.len())),
            ("crashes", Value::from(plan.crashes.len())),
            ("dropouts", Value::from(plan.dropouts.len())),
        ]
    });

    let slots = instance.slots();
    let mut market = Market {
        sellers,
        plan,
        recovery,
        trace,
        ledger: Ledger::new(sellers, alpha),
        rho: vec![1.0; sellers.len()],
        blacklisted: vec![false; sellers.len()],
    };
    let auction_live = crate::live::AuctionLive::handle();
    let recovery_live = crate::live::RecoveryLive::handle();
    let capacity_sum: u64 = sellers.iter().map(|s| s.capacity).sum();

    let _msoa_span = edge_telemetry::spans::enter("msoa");
    let mut rounds = Vec::with_capacity(instance.rounds().len());
    for (t, (input, rows)) in instance.rounds().iter().zip(instance.rows()).enumerate() {
        let _round_span = edge_telemetry::spans::enter("round");
        let t = t as u64;
        let demand = input.estimated_demand;
        let round = (&input.bids[..], &rows[..]);
        let observed = plan.observed(t);
        let mut pricing = SsamStats::default();
        let mut book = RoundBook {
            winners: Vec::new(),
            delivered: 0,
            won: Vec::new(),
            standing: vec![Standing::Open; slots.len()],
        };

        trace.emit_with(Level::Info, "round.start", || {
            vec![
                ("round", Value::from(t)),
                ("demand", Value::from(demand)),
                ("bids", Value::from(input.bids.len())),
            ]
        });

        // --- Primary auction (Alg. 2 lines 5–8 plus fault filters). ---
        // One pass in input order; the first failing filter names the
        // exclusion.
        let patch_span = edge_telemetry::spans::enter("patch");
        let mut admitted = Admitted::with_capacity(input.bids.len());
        for (pos, (bid, &row)) in input.bids.iter().zip(rows).enumerate() {
            let si = row as usize;
            if let Some(reason) = market.exclusion(t, si, bid, false) {
                trace.emit_with(Level::Debug, "bid.excluded", || {
                    vec![
                        ("round", Value::from(t)),
                        ("seller", Value::from(bid.seller.index())),
                        ("bid", Value::from(bid.id.index())),
                        ("reason", Value::from(reason)),
                    ]
                });
                continue;
            }
            let scaled = market.scaled_price(si, bid);
            trace.emit_with(Level::Debug, "bid.scaled", || {
                let psi_adjust = market.ledger.psi_adjust(si, bid.amount);
                vec![
                    ("round", Value::from(t)),
                    ("seller", Value::from(bid.seller.index())),
                    ("bid", Value::from(bid.id.index())),
                    ("true_price", Value::from(bid.price.value())),
                    ("psi_adjust", Value::from(psi_adjust)),
                    (
                        "reliability_adjust",
                        Value::from(scaled.value() - bid.price.value() - psi_adjust),
                    ),
                    ("rho", Value::from(market.rho[si])),
                    ("scaled_price", Value::from(scaled.value())),
                ]
            });
            admitted.push(pos, bid, scaled, slots[si]);
        }
        drop(patch_span);
        let primary = run_stage(demand, admitted, slots.len(), &config.ssam, t, trace)?;
        let primary_infeasible = primary.is_none() && demand > 0;
        if let Some((won, stats)) = primary {
            pricing.absorb(stats);
            market.settle(t, won, round, false, &mut book);
        }
        let mut shortfall = demand.saturating_sub(book.delivered);

        // --- Backfill ladder (recovery only). ---
        let mut backfill_attempts = 0u64;
        if recovery.enabled && shortfall > 0 {
            let _backfill_span = edge_telemetry::spans::enter("backfill");
            let rounds_left = num_rounds - t;
            let cap = recovery.max_backfill_attempts.min(rounds_left);
            while shortfall > 0 && backfill_attempts < cap {
                let k = backfill_attempts;
                backfill_attempts += 1;
                edge_telemetry::spans::ctr("rungs", 1);
                trace.emit_with(Level::Info, "backfill.start", || {
                    vec![
                        ("round", Value::from(t)),
                        ("rung", Value::from(k)),
                        ("shortfall", Value::from(shortfall)),
                    ]
                });
                // Relaxation ladder: bids that already won and
                // defaulters never return this round; blacklisted
                // sellers return at k ≥ 1; faithful winners' remaining
                // bids at k ≥ 2. Another copy of a won bid's id never
                // returns either: the two cannot meet in one auction
                // (`DuplicateBidId`), so capacity kept the copy out,
                // and capacity only tightens within a round.
                let mut candidates = Admitted::default();
                for (pos, (bid, &row)) in input.bids.iter().zip(rows).enumerate() {
                    let si = row as usize;
                    let ladder = match book.standing[si] {
                        Standing::Open => true,
                        Standing::Faithful => k >= 2 && !book.won.contains(&pos),
                        Standing::Defaulted => false,
                    };
                    if ladder && market.exclusion(t, si, bid, k >= 1).is_none() {
                        candidates.push(pos, bid, market.scaled_price(si, bid), slots[si]);
                    }
                }
                // An infeasible rung still spends its attempt; the next
                // rung relaxes further.
                if let Some((won, stats)) =
                    run_stage(shortfall, candidates, slots.len(), &config.ssam, t, trace)?
                {
                    pricing.absorb(stats);
                    market.settle(t, won, round, true, &mut book);
                    shortfall = demand.saturating_sub(book.delivered);
                }
            }
        }

        let (winners, delivered) = (book.winners, book.delivered);

        let social_cost: Price = winners.iter().map(|w| w.true_price).sum();
        let platform_cost: Price = winners.iter().map(|w| w.payment_made).sum();
        let clawed_back = Price::new_unchecked(
            winners
                .iter()
                .map(|w| w.payment_due.value() - w.payment_made.value())
                .sum(),
        );
        let sla_violated = shortfall > 0 && demand > 0;
        if sla_violated {
            trace.emit_with(Level::Info, "sla.violation", || {
                vec![
                    ("round", Value::from(t)),
                    ("shortfall", Value::from(shortfall)),
                    ("demand", Value::from(demand)),
                ]
            });
        }
        trace.emit_with(Level::Info, "round.end", || {
            vec![
                ("round", Value::from(t)),
                ("winners", Value::from(winners.len())),
                ("delivered", Value::from(delivered)),
                ("shortfall", Value::from(shortfall)),
                ("backfill_attempts", Value::from(backfill_attempts)),
                ("social_cost", Value::from(social_cost.value())),
                ("platform_cost", Value::from(platform_cost.value())),
                ("clawed_back", Value::from(clawed_back.value())),
            ]
        });
        // Live metrics: strictly reads of round state, after the trace
        // events, so neither outcomes nor traces can be perturbed. The
        // recovery pipeline feeds the auction families too — `serve`
        // always drives this path (empty plans are bit-identical to
        // plain MSOA).
        let supplied: u64 = winners.iter().map(|w| w.committed).sum();
        let psi_max = market.ledger.psi.iter().copied().fold(0.0f64, f64::max);
        auction_live.record_round(
            winners.len(),
            primary_infeasible,
            supplied,
            demand,
            platform_cost.value(),
            social_cost.value(),
            psi_max,
            market.ledger.chi.iter().sum(),
            capacity_sum,
            &pricing,
        );
        recovery_live.record_round(
            winners.iter().filter(|w| w.delivered < w.committed).count() as u64,
            clawed_back.value(),
            market.blacklisted.iter().filter(|&&b| b).count(),
            sla_violated,
            backfill_attempts,
            shortfall,
        );
        rounds.push(FaultRound {
            round: t,
            demand,
            winners,
            delivered,
            shortfall,
            primary_infeasible,
            backfill_attempts,
            sla_violated,
            social_cost,
            platform_cost,
            clawed_back,
            observed,
        });
    }

    let social_cost: Price = rounds.iter().map(|r| r.social_cost).sum();
    let platform_cost: Price = rounds.iter().map(|r| r.platform_cost).sum();
    let clawed_back: Price = rounds.iter().map(|r| r.clawed_back).sum();
    // Saturating: a service stage's merged demand may reach `u64::MAX`.
    let shortfall_units = rounds
        .iter()
        .fold(0u64, |a, r| a.saturating_add(r.shortfall));
    let demand_units = rounds.iter().fold(0u64, |a, r| a.saturating_add(r.demand));

    trace.emit_with(Level::Info, "faults.end", || {
        vec![
            ("social_cost", Value::from(social_cost.value())),
            ("platform_cost", Value::from(platform_cost.value())),
            ("clawed_back", Value::from(clawed_back.value())),
            ("shortfall_units", Value::from(shortfall_units)),
            ("demand_units", Value::from(demand_units)),
        ]
    });

    Ok(FaultyMsoaOutcome {
        rounds,
        social_cost,
        platform_cost,
        clawed_back,
        reliability: market.rho,
        blacklisted: market.blacklisted,
        psi: market.ledger.psi,
        chi: market.ledger.chi,
        alpha,
        beta,
        shortfall_units,
        demand_units,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bid::Seller;
    use crate::msoa::tests::{
        huge_amount_instance, repeated_bid_id_instance, reused_bid_id_instance, HUGE_BID_EXCLUDED,
    };
    use crate::msoa::{run_msoa, RoundInput};
    use edge_common::assert_money_eq;

    fn bid(seller: usize, id: usize, amount: u64, price: f64) -> Bid {
        Bid::new(MicroserviceId::new(seller), BidId::new(id), amount, price).unwrap()
    }

    fn seller(id: usize, capacity: u64, window: (u64, u64)) -> Seller {
        Seller::new(MicroserviceId::new(id), capacity, window).unwrap()
    }

    fn three_seller_instance(rounds: usize) -> MultiRoundInstance {
        let last = rounds as u64 - 1;
        let sellers = vec![
            seller(0, 100, (0, last)),
            seller(1, 100, (0, last)),
            seller(2, 100, (0, last)),
        ];
        let round_inputs = (0..rounds)
            .map(|_| {
                RoundInput::new(
                    3,
                    3,
                    vec![bid(0, 0, 2, 4.0), bid(1, 0, 2, 6.0), bid(2, 0, 2, 8.0)],
                )
            })
            .collect();
        MultiRoundInstance::new(sellers, round_inputs).unwrap()
    }

    fn default_at(round: u64, s: usize, frac: f64) -> FaultPlan {
        let mut plan = FaultPlan::empty();
        plan.defaults.push(DefaultEvent {
            round,
            seller: MicroserviceId::new(s),
            delivered_fraction: frac,
        });
        plan
    }

    #[test]
    fn empty_plan_is_bit_equal_to_plain_msoa() {
        let instance = three_seller_instance(4);
        let config = MsoaConfig::pinned(2.0);
        let plain = run_msoa(&instance, &config).unwrap();
        for recovery in [RecoveryConfig::default(), RecoveryConfig::disabled()] {
            let faulty =
                run_msoa_with_faults(&instance, &config, &FaultPlan::empty(), &recovery).unwrap();
            assert_eq!(faulty.psi, plain.psi);
            assert_eq!(faulty.chi, plain.chi);
            assert_eq!(faulty.social_cost, plain.social_cost);
            assert_eq!(faulty.platform_cost, plain.total_payment);
            assert_eq!(faulty.shortfall_units, 0);
            for (fr, pr) in faulty.rounds.iter().zip(&plain.rounds) {
                assert_eq!(fr.winners.len(), pr.winners.len());
                for (fw, pw) in fr.winners.iter().zip(&pr.winners) {
                    assert_eq!((fw.seller, fw.bid), (pw.seller, pw.bid));
                    assert_eq!(fw.committed, pw.contribution);
                    assert_eq!(fw.delivered, pw.contribution);
                    assert_eq!(fw.scaled_price, pw.scaled_price);
                    assert_eq!(fw.payment_due, pw.payment);
                    assert_eq!(fw.payment_made, pw.payment);
                    assert!(!fw.backfill);
                }
            }
        }
    }

    #[test]
    fn default_triggers_prorata_clawback_and_backfill() {
        let instance = three_seller_instance(1);
        let plan = default_at(0, 0, 0.5);
        let out = run_msoa_with_faults(
            &instance,
            &MsoaConfig::pinned(2.0),
            &plan,
            &RecoveryConfig::default(),
        )
        .unwrap();
        let r = &out.rounds[0];
        // Seller 0 (cheapest) wins 2 units, delivers 1.
        let w0 = r
            .winners
            .iter()
            .find(|w| w.seller == MicroserviceId::new(0))
            .unwrap();
        assert_eq!(w0.committed, 2);
        assert_eq!(w0.delivered, 1);
        assert_money_eq!(w0.payment_made.value(), w0.payment_due.value() * 0.5);
        assert!(r.clawed_back.value() > 0.0);
        // Backfill covered the missing unit; no SLA violation.
        assert!(r.winners.iter().any(|w| w.backfill));
        assert_eq!(r.shortfall, 0);
        assert!(!r.sla_violated);
        assert_eq!(r.delivered, 3);
        assert!(r.backfill_attempts >= 1);
    }

    #[test]
    fn disabled_recovery_pays_in_full_and_eats_the_shortfall() {
        let instance = three_seller_instance(1);
        let plan = default_at(0, 0, 0.5);
        let out = run_msoa_with_faults(
            &instance,
            &MsoaConfig::pinned(2.0),
            &plan,
            &RecoveryConfig::disabled(),
        )
        .unwrap();
        let r = &out.rounds[0];
        let w0 = r
            .winners
            .iter()
            .find(|w| w.seller == MicroserviceId::new(0))
            .unwrap();
        assert_eq!(w0.delivered, 1);
        assert_eq!(w0.payment_made, w0.payment_due, "baseline pays in full");
        assert!(r.winners.iter().all(|w| !w.backfill));
        assert_eq!(r.shortfall, 1);
        assert!(r.sla_violated);
        assert_money_eq!(out.clawed_back, 0.0);
        assert_money_eq!(out.sla_violation_rate(), 1.0);
    }

    #[test]
    fn total_no_show_blacklists_and_primary_excludes_next_round() {
        let instance = three_seller_instance(2);
        let plan = default_at(0, 0, 0.0);
        let recovery = RecoveryConfig {
            reliability_smoothing: 1.0, // ρ jumps straight to the ratio
            ..RecoveryConfig::default()
        };
        let out =
            run_msoa_with_faults(&instance, &MsoaConfig::pinned(2.0), &plan, &recovery).unwrap();
        assert!(out.blacklisted[0]);
        assert_money_eq!(out.reliability[0], 0.0);
        // Round 1's primary auction must not touch the blacklisted
        // seller even though it is the cheapest.
        assert!(out.rounds[1]
            .winners
            .iter()
            .all(|w| w.seller != MicroserviceId::new(0)));
        assert!(!out.rounds[1].sla_violated);
    }

    #[test]
    fn crash_window_excludes_seller_for_its_duration() {
        let instance = three_seller_instance(3);
        let mut plan = FaultPlan::empty();
        plan.crashes.push(CrashWindow {
            seller: MicroserviceId::new(0),
            from: 0,
            until: 2,
        });
        let out = run_msoa_with_faults(
            &instance,
            &MsoaConfig::pinned(2.0),
            &plan,
            &RecoveryConfig::default(),
        )
        .unwrap();
        for t in 0..2 {
            assert!(out.rounds[t]
                .winners
                .iter()
                .all(|w| w.seller != MicroserviceId::new(0)));
        }
        // Healthy again in round 2: the cheap seller returns.
        assert!(out.rounds[2]
            .winners
            .iter()
            .any(|w| w.seller == MicroserviceId::new(0)));
        assert_eq!(out.shortfall_units, 0);
    }

    #[test]
    fn uncoverable_shortfall_degrades_gracefully() {
        // Two sellers, one crashed, one too small: demand 3 cannot be
        // met, with or without backfill.
        let sellers = vec![seller(0, 100, (0, 0)), seller(1, 100, (0, 0))];
        let rounds = vec![RoundInput::new(
            3,
            3,
            vec![bid(0, 0, 2, 4.0), bid(1, 0, 2, 6.0)],
        )];
        let instance = MultiRoundInstance::new(sellers, rounds).unwrap();
        let mut plan = FaultPlan::empty();
        plan.crashes.push(CrashWindow {
            seller: MicroserviceId::new(0),
            from: 0,
            until: 1,
        });
        let out = run_msoa_with_faults(
            &instance,
            &MsoaConfig::pinned(2.0),
            &plan,
            &RecoveryConfig::default(),
        )
        .unwrap();
        let r = &out.rounds[0];
        assert!(r.primary_infeasible);
        assert!(r.sla_violated);
        assert_eq!(r.shortfall, 3);
        assert!(r.backfill_attempts > 0, "attempts were spent trying");
    }

    #[test]
    fn backfill_attempts_capped_by_rounds_left() {
        // Single-round instance: rounds_left = 1 caps the ladder below
        // max_backfill_attempts.
        let sellers = vec![seller(0, 100, (0, 0))];
        let rounds = vec![RoundInput::new(2, 2, vec![bid(0, 0, 2, 4.0)])];
        let instance = MultiRoundInstance::new(sellers, rounds).unwrap();
        let plan = default_at(0, 0, 0.0);
        let recovery = RecoveryConfig {
            max_backfill_attempts: 10,
            ..RecoveryConfig::default()
        };
        let out =
            run_msoa_with_faults(&instance, &MsoaConfig::pinned(2.0), &plan, &recovery).unwrap();
        assert_eq!(out.rounds[0].backfill_attempts, 1);
        assert!(out.rounds[0].sla_violated);
    }

    #[test]
    fn blacklisted_seller_returns_via_relaxation_ladder() {
        // Only seller 0 can cover demand 3 alone (others offer 1 unit).
        let sellers = vec![
            seller(0, 100, (0, 1)),
            seller(1, 100, (0, 1)),
            seller(2, 100, (0, 1)),
        ];
        let rounds = (0..3)
            .map(|_| {
                RoundInput::new(
                    3,
                    3,
                    vec![bid(0, 0, 3, 4.0), bid(1, 0, 1, 6.0), bid(2, 0, 1, 8.0)],
                )
            })
            .collect();
        let instance = MultiRoundInstance::new(sellers, rounds).unwrap();
        // Round 0: seller 0 delivers nothing → blacklisted (η = 1).
        let plan = default_at(0, 0, 0.0);
        let recovery = RecoveryConfig {
            reliability_smoothing: 1.0,
            ..RecoveryConfig::default()
        };
        let out =
            run_msoa_with_faults(&instance, &MsoaConfig::pinned(2.0), &plan, &recovery).unwrap();
        assert!(out.blacklisted[0]);
        // Round 1: primary (without seller 0) is infeasible; the k = 1
        // rung re-admits the blacklisted seller and covers the demand.
        let r1 = &out.rounds[1];
        assert!(r1.primary_infeasible);
        assert_eq!(r1.shortfall, 0, "ladder must re-admit the blacklisted");
        assert!(r1
            .winners
            .iter()
            .any(|w| w.seller == MicroserviceId::new(0) && w.backfill));
    }

    #[test]
    fn winner_settles_against_the_bid_that_competed() {
        let instance = repeated_bid_id_instance();
        let (config, recovery) = (MsoaConfig::pinned(2.0), RecoveryConfig::default());
        let out = run_msoa_with_faults(&instance, &config, &FaultPlan::empty(), &recovery).unwrap();
        let w = &out.rounds[0].winners[0];
        assert_eq!((w.amount, w.true_price.value()), (2, 1.0));
        assert_eq!(out.chi[0], 2, "χ must stay within Θ");
        assert_eq!(out.social_cost.value(), 1.0);
    }

    #[test]
    fn admitted_bids_may_not_reuse_an_id() {
        let (config, recovery) = (MsoaConfig::pinned(2.0), RecoveryConfig::default());
        let instance = reused_bid_id_instance();
        let err = run_msoa_with_faults(&instance, &config, &FaultPlan::empty(), &recovery);
        assert_eq!(
            err.unwrap_err(),
            AuctionError::DuplicateBidId { seller: 0, bid: 0 }
        );
    }

    #[test]
    fn capacity_filter_cannot_wrap_in_primary_or_backfill() {
        // Seller 1 wins round 1's primary and delivers nothing, so the
        // backfill ladder runs with seller 0's 2⁶⁴ − 2 unit bid among
        // its candidates; spare seller 2 must cover instead.
        let collector = edge_telemetry::Collector::new();
        let out = run_msoa_with_faults_traced(
            &huge_amount_instance(),
            &MsoaConfig::pinned(2.0),
            &default_at(1, 1, 0.0),
            &RecoveryConfig::default(),
            Trace::new(&collector),
        )
        .unwrap();
        assert!(collector.deterministic_jsonl().contains(HUGE_BID_EXCLUDED));
        let r1 = &out.rounds[1];
        assert_eq!((r1.primary_infeasible, r1.shortfall), (false, 0));
        let backfilled: Vec<_> = r1.winners.iter().filter(|w| w.backfill).collect();
        assert_eq!(backfilled[0].seller, MicroserviceId::new(2));
        assert_eq!(out.chi[0], 2);
    }

    #[test]
    fn plan_queries_cover_windows() {
        let mut plan = FaultPlan::empty();
        plan.crashes.push(CrashWindow {
            seller: MicroserviceId::new(1),
            from: 2,
            until: 4,
        });
        plan.dropouts.push(DropoutWindow {
            indicator: Indicator::Rate,
            from: 1,
            until: 3,
        });
        assert!(!plan.crashed(1, MicroserviceId::new(1)));
        assert!(plan.crashed(2, MicroserviceId::new(1)));
        assert!(plan.crashed(3, MicroserviceId::new(1)));
        assert!(!plan.crashed(4, MicroserviceId::new(1)));
        assert!(!plan.crashed(2, MicroserviceId::new(0)));
        assert!(plan.observed(0).is_complete());
        assert!(!plan.observed(1).contains(Indicator::Rate));
        assert!(plan.observed(3).is_complete());
        assert!(plan.delivered_fraction(0, MicroserviceId::new(0)).is_none());
    }

    #[test]
    fn seeded_plans_are_deterministic_and_nested_in_probability() {
        let low = FaultInjectionConfig {
            default_probability: 0.1,
            ..FaultInjectionConfig::default()
        };
        let high = FaultInjectionConfig {
            default_probability: 0.4,
            ..FaultInjectionConfig::default()
        };
        let a = FaultPlan::seeded(7, 20, 5, &low);
        let b = FaultPlan::seeded(7, 20, 5, &low);
        assert_eq!(a, b);
        let c = FaultPlan::seeded(7, 20, 5, &high);
        assert!(c.defaults.len() >= a.defaults.len());
        // Common random numbers: every low-probability default also
        // fires at the higher probability.
        for d in &a.defaults {
            assert!(c
                .defaults
                .iter()
                .any(|e| e.round == d.round && e.seller == d.seller));
        }
        let zero = FaultInjectionConfig {
            default_probability: 0.0,
            crash_probability: 0.0,
            dropout_probability: 0.0,
            ..FaultInjectionConfig::default()
        };
        assert!(FaultPlan::seeded(7, 20, 5, &zero).is_empty());
    }

    #[test]
    fn seeded_fractions_stay_in_bounds_and_windows_do_not_overlap() {
        let cfg = FaultInjectionConfig {
            default_probability: 0.5,
            crash_probability: 0.3,
            dropout_probability: 0.3,
            ..FaultInjectionConfig::default()
        };
        let plan = FaultPlan::seeded(11, 30, 4, &cfg);
        for d in &plan.defaults {
            assert!(d.delivered_fraction >= cfg.min_delivered_fraction);
            assert!(d.delivered_fraction <= cfg.max_delivered_fraction);
        }
        for (i, a) in plan.crashes.iter().enumerate() {
            assert!(a.until <= 30);
            for b in &plan.crashes[i + 1..] {
                if a.seller == b.seller {
                    assert!(
                        a.until <= b.from || b.until <= a.from,
                        "overlap: {a:?} {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn faulty_run_is_deterministic() {
        let instance = three_seller_instance(5);
        let plan = FaultPlan::seeded(3, 5, 3, &FaultInjectionConfig::default());
        let config = MsoaConfig::pinned(2.0);
        let a = run_msoa_with_faults(&instance, &config, &plan, &RecoveryConfig::default());
        let b = run_msoa_with_faults(&instance, &config, &plan, &RecoveryConfig::default());
        assert_eq!(a.unwrap(), b.unwrap());
    }

    #[test]
    fn serde_round_trips_plan_and_outcome() {
        let plan = FaultPlan::seeded(5, 10, 3, &FaultInjectionConfig::default());
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
        let instance = three_seller_instance(2);
        let out = run_msoa_with_faults(
            &instance,
            &MsoaConfig::pinned(2.0),
            &plan,
            &RecoveryConfig::default(),
        )
        .unwrap();
        let json = serde_json::to_string(&out).unwrap();
        let back: FaultyMsoaOutcome = serde_json::from_str(&json).unwrap();
        assert_eq!(back, out);
    }
}
