//! MSOA over the general multi-buyer form.
//!
//! Algorithm 2 with per-buyer coverage: each round carries a map of
//! buyer demands instead of one aggregate, the single-stage step is
//! [`crate::multi_buyer::run_ssam_multi`], and the per-seller dual
//! `ψ_i` scales prices by the bid's *total* offered units `|S_ij^t|` —
//! exactly the quantity the paper's line 8 uses.
//!
//! # Examples
//!
//! ```
//! use edge_auction::bid::Seller;
//! use edge_auction::msoa_multi::{run_msoa_multi, MultiBuyerRound, MsoaMultiConfig};
//! use edge_auction::multi_buyer::CoverBid;
//! use edge_common::id::{BidId, MicroserviceId};
//!
//! # fn main() -> Result<(), edge_auction::AuctionError> {
//! let b0 = MicroserviceId::new(100);
//! let sellers = vec![
//!     Seller::new(MicroserviceId::new(0), 10, (0, 1))?,
//!     Seller::new(MicroserviceId::new(1), 10, (0, 1))?,
//! ];
//! let round = |p0: f64, p1: f64| -> Result<_, edge_auction::AuctionError> {
//!     Ok(MultiBuyerRound::new(
//!         vec![(b0, 2)],
//!         vec![
//!             CoverBid::new(MicroserviceId::new(0), BidId::new(0), vec![(b0, 2)], p0)?,
//!             CoverBid::new(MicroserviceId::new(1), BidId::new(0), vec![(b0, 2)], p1)?,
//!         ],
//!     ))
//! };
//! let rounds = vec![round(4.0, 6.0)?, round(4.0, 6.0)?];
//! let outcome = run_msoa_multi(&sellers, &rounds, &MsoaMultiConfig::default())?;
//! assert_eq!(outcome.rounds.len(), 2);
//! # Ok(())
//! # }
//! ```

use crate::bid::Seller;
use crate::error::AuctionError;
use crate::msoa::{seller_rows, Ledger};
use crate::multi_buyer::{run_ssam_multi, CoverBid, MultiBuyerOutcome, MultiBuyerWsp};
use crate::ssam::SsamConfig;
use edge_common::id::MicroserviceId;
use edge_common::units::Price;
use edge_telemetry::{Level, Trace, Value};
use serde::{Deserialize, Serialize};

/// One round of the multi-buyer online market.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiBuyerRound {
    /// Per-buyer demands `X_b^t`.
    pub demands: Vec<(MicroserviceId, u64)>,
    /// Bids with true prices.
    pub bids: Vec<CoverBid>,
}

impl MultiBuyerRound {
    /// Creates a round input.
    pub fn new(demands: Vec<(MicroserviceId, u64)>, bids: Vec<CoverBid>) -> Self {
        MultiBuyerRound { demands, bids }
    }
}

/// Configuration of the multi-buyer online mechanism.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct MsoaMultiConfig {
    /// Single-stage settings.
    pub ssam: SsamConfig,
    /// The `α` of the ψ update (`None`: derived from the rounds' total
    /// demand and price spread like [`crate::msoa`]).
    pub alpha: Option<f64>,
}

/// One round's result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiBuyerRoundResult {
    /// Round index.
    pub round: u64,
    /// The single-stage outcome (winners carry scaled prices).
    pub outcome: MultiBuyerOutcome,
    /// Σ true prices of the winners.
    pub social_cost: Price,
}

/// The online outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MsoaMultiOutcome {
    /// Per-round results.
    pub rounds: Vec<MultiBuyerRoundResult>,
    /// Σ true prices over all rounds.
    pub social_cost: Price,
    /// Σ payments over all rounds.
    pub total_payment: Price,
    /// Final ψ per seller (seller-table order).
    pub psi: Vec<f64>,
    /// Units yielded per seller.
    pub chi: Vec<u64>,
    /// The α used.
    pub alpha: f64,
}

/// Runs Algorithm 2 over per-buyer rounds.
///
/// # Errors
///
/// Returns [`AuctionError::DuplicateSeller`] when the table lists one
/// seller id twice, and [`AuctionError::UnknownSeller`] when a bid
/// references a seller missing from the table; rounds that cannot be
/// fully covered are *not* errors (the single-stage mechanism reports
/// partial coverage).
pub fn run_msoa_multi(
    sellers: &[Seller],
    rounds: &[MultiBuyerRound],
    config: &MsoaMultiConfig,
) -> Result<MsoaMultiOutcome, AuctionError> {
    run_msoa_multi_traced(sellers, rounds, config, Trace::off())
}

/// [`run_msoa_multi`] with an audit trail: round boundaries, bid
/// exclusions (window/capacity), ψ-scalings, and per-winner ψ/χ updates
/// are recorded on `trace`. Tracing does not change the outcome.
///
/// # Errors
///
/// Exactly as [`run_msoa_multi`].
pub fn run_msoa_multi_traced(
    sellers: &[Seller],
    rounds: &[MultiBuyerRound],
    config: &MsoaMultiConfig,
    trace: Trace<'_>,
) -> Result<MsoaMultiOutcome, AuctionError> {
    let bid_sellers = rounds.iter().map(|r| r.bids.iter().map(|b| b.seller));
    let (_, rows) = seller_rows(sellers, bid_sellers)?;

    // α: harmonic of the max round total demand times the unit-price
    // spread (per-total-amount).
    let alpha = config.alpha.unwrap_or_else(|| {
        let max_demand = rounds
            .iter()
            .map(|r| r.demands.iter().map(|&(_, x)| x).sum::<u64>())
            .max()
            .unwrap_or(0);
        let harmonic: f64 = (1..=max_demand).map(|k| 1.0 / k as f64).sum();
        let units: Vec<f64> = rounds
            .iter()
            .flat_map(|r| &r.bids)
            .map(|b| b.price.value() / b.total_amount() as f64)
            .collect();
        let spread = match (
            units.iter().copied().fold(f64::INFINITY, f64::min),
            units.iter().copied().fold(0.0f64, f64::max),
        ) {
            (min, max) if min > 0.0 && max.is_finite() => max / min,
            _ => 1.0,
        };
        (harmonic * spread).max(1.0)
    });

    let mut ledger = Ledger::new(sellers, alpha);
    let mut results = Vec::with_capacity(rounds.len());

    for (t, (round, rows)) in rounds.iter().zip(&rows).enumerate() {
        let t = t as u64;
        trace.emit_with(Level::Info, "round.start", || {
            vec![
                ("round", Value::from(t)),
                (
                    "demand",
                    Value::from(round.demands.iter().map(|&(_, x)| x).sum::<u64>()),
                ),
                ("buyers", Value::from(round.demands.len())),
                ("bids", Value::from(round.bids.len())),
            ]
        });
        // Filter by window and remaining capacity; scale prices by ψ.
        let (mut scaled, mut admitted) = (Vec::new(), Vec::new());
        for (pos, (bid, &row)) in round.bids.iter().zip(rows).enumerate() {
            let si = row as usize;
            if !sellers[si].available_at(t) {
                trace.emit_with(Level::Debug, "bid.excluded", || {
                    vec![
                        ("round", Value::from(t)),
                        ("seller", Value::from(bid.seller.index())),
                        ("bid", Value::from(bid.id.index())),
                        ("reason", Value::from("window")),
                    ]
                });
                continue;
            }
            if !ledger.fits(si, bid.total_amount()) {
                trace.emit_with(Level::Debug, "bid.excluded", || {
                    vec![
                        ("round", Value::from(t)),
                        ("seller", Value::from(bid.seller.index())),
                        ("bid", Value::from(bid.id.index())),
                        ("reason", Value::from("capacity")),
                    ]
                });
                continue;
            }
            let mut b = bid.clone();
            b.price =
                Price::new_unchecked(b.price.value() + ledger.psi_adjust(si, b.total_amount()));
            trace.emit_with(Level::Debug, "bid.scaled", || {
                vec![
                    ("round", Value::from(t)),
                    ("seller", Value::from(bid.seller.index())),
                    ("bid", Value::from(bid.id.index())),
                    ("true_price", Value::from(bid.price.value())),
                    ("psi", Value::from(ledger.psi[si])),
                    ("scaled_price", Value::from(b.price.value())),
                ]
            });
            scaled.push(b);
            admitted.push(pos);
        }
        let inst = MultiBuyerWsp::new(round.demands.clone(), scaled)?;
        let outcome = run_ssam_multi(&inst, &config.ssam);

        let mut social_cost = Price::ZERO;
        for w in &outcome.winners {
            // The admitted bid that won: `MultiBuyerWsp::new` rejects a
            // reused id, so `(seller, bid)` names one admitted bid.
            let pos = (admitted.iter().copied())
                .find(|&p| (round.bids[p].seller, round.bids[p].id) == (w.seller, w.bid))
                .expect("every winner is an admitted bid");
            let (si, true_price) = (rows[pos] as usize, round.bids[pos].price);
            // The bid's declared total units, for capacity and ψ.
            let amount = round.bids[pos].total_amount();
            let psi_before = ledger.psi[si];
            ledger.settle_win(si, amount, true_price);
            social_cost += true_price;
            trace.emit_with(Level::Debug, "winner", || {
                vec![
                    ("round", Value::from(t)),
                    ("seller", Value::from(w.seller.index())),
                    ("bid", Value::from(w.bid.index())),
                    ("amount", Value::from(amount)),
                    ("true_price", Value::from(true_price.value())),
                    ("scaled_price", Value::from(w.price.value())),
                    ("payment", Value::from(w.payment.value())),
                    ("psi_before", Value::from(psi_before)),
                    ("psi_after", Value::from(ledger.psi[si])),
                    ("chi_after", Value::from(ledger.chi[si])),
                ]
            });
        }
        trace.emit_with(Level::Info, "round.end", || {
            vec![
                ("round", Value::from(t)),
                ("winners", Value::from(outcome.winners.len())),
                ("social_cost", Value::from(social_cost.value())),
                ("fully_covered", Value::from(outcome.fully_covered)),
            ]
        });
        results.push(MultiBuyerRoundResult {
            round: t,
            outcome,
            social_cost,
        });
    }

    let social_cost: Price = results.iter().map(|r| r.social_cost).sum();
    let total_payment: Price = results.iter().map(|r| r.outcome.total_payment).sum();
    Ok(MsoaMultiOutcome {
        rounds: results,
        social_cost,
        total_payment,
        psi: ledger.psi,
        chi: ledger.chi,
        alpha,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use edge_common::id::BidId;

    fn buyer(i: usize) -> MicroserviceId {
        MicroserviceId::new(100 + i)
    }

    fn seller(i: usize, capacity: u64, window: (u64, u64)) -> Seller {
        Seller::new(MicroserviceId::new(i), capacity, window).unwrap()
    }

    fn cb(s: usize, id: usize, cov: Vec<(usize, u64)>, price: f64) -> CoverBid {
        CoverBid::new(
            MicroserviceId::new(s),
            BidId::new(id),
            cov.into_iter().map(|(b, a)| (buyer(b), a)).collect(),
            price,
        )
        .unwrap()
    }

    fn two_round_setup(capacity: u64) -> (Vec<Seller>, Vec<MultiBuyerRound>) {
        let sellers = vec![seller(0, capacity, (0, 1)), seller(1, capacity, (0, 1))];
        let rounds = (0..2)
            .map(|_| {
                MultiBuyerRound::new(
                    vec![(buyer(0), 2), (buyer(1), 1)],
                    vec![
                        cb(0, 0, vec![(0, 2), (1, 1)], 5.0),
                        cb(1, 0, vec![(0, 2), (1, 1)], 8.0),
                    ],
                )
            })
            .collect();
        (sellers, rounds)
    }

    #[test]
    fn covers_feasible_rounds() {
        let (sellers, rounds) = two_round_setup(100);
        let out = run_msoa_multi(&sellers, &rounds, &MsoaMultiConfig::default()).unwrap();
        assert_eq!(out.rounds.len(), 2);
        assert!(out.rounds.iter().all(|r| r.outcome.fully_covered));
    }

    #[test]
    fn psi_raises_repeat_winner_prices() {
        let (sellers, rounds) = two_round_setup(100);
        let out = run_msoa_multi(&sellers, &rounds, &MsoaMultiConfig::default()).unwrap();
        // Seller 0 (cheaper) wins round 0 at its true price; in round 1
        // its scaled price exceeds the true one.
        let w0 = &out.rounds[0].outcome.winners[0];
        assert_eq!(w0.seller, MicroserviceId::new(0));
        assert_eq!(w0.price.value(), 5.0);
        let w1 = &out.rounds[1].outcome.winners[0];
        if w1.seller == MicroserviceId::new(0) {
            assert!(
                w1.price.value() > 5.0,
                "scaled price should grow: {}",
                w1.price
            );
        }
        assert!(out.psi[0] > 0.0);
    }

    #[test]
    fn capacity_exhaustion_hands_over_to_rival() {
        // Capacity 3: seller 0's 3-unit bid fits once; round 1 must go
        // to seller 1.
        let (sellers, rounds) = two_round_setup(3);
        let out = run_msoa_multi(&sellers, &rounds, &MsoaMultiConfig::default()).unwrap();
        assert_eq!(
            out.rounds[0].outcome.winners[0].seller,
            MicroserviceId::new(0)
        );
        assert_eq!(
            out.rounds[1].outcome.winners[0].seller,
            MicroserviceId::new(1)
        );
        assert!(out.chi[0] <= 3 && out.chi[1] <= 3);
    }

    #[test]
    fn social_cost_uses_true_prices() {
        let (sellers, rounds) = two_round_setup(100);
        let out = run_msoa_multi(&sellers, &rounds, &MsoaMultiConfig::default()).unwrap();
        // Seller 0 wins both rounds (ψ stays below the 3-unit gap to
        // seller 1's price in this setup) or hands over; either way the
        // social cost must be a sum of true prices (5.0 or 8.0 each
        // round).
        let total = out.social_cost.value();
        assert!(
            (total - 10.0).abs() < 1e-9 || (total - 13.0).abs() < 1e-9,
            "unexpected social cost {total}"
        );
    }

    #[test]
    fn duplicate_seller_rejected() {
        let (mut sellers, rounds) = two_round_setup(3);
        sellers.push(seller(0, 100, (0, 1)));
        let err = run_msoa_multi(&sellers, &rounds, &MsoaMultiConfig::default()).unwrap_err();
        assert_eq!(err, AuctionError::DuplicateSeller(0));
    }

    #[test]
    fn unknown_seller_rejected() {
        let sellers = vec![seller(0, 10, (0, 0))];
        let rounds = vec![MultiBuyerRound::new(
            vec![(buyer(0), 1)],
            vec![cb(7, 0, vec![(0, 1)], 1.0)],
        )];
        let err = run_msoa_multi(&sellers, &rounds, &MsoaMultiConfig::default()).unwrap_err();
        assert_eq!(err, AuctionError::UnknownSeller(7));
    }

    #[test]
    fn window_exclusion_applies() {
        let sellers = vec![seller(0, 100, (1, 1)), seller(1, 100, (0, 1))];
        let rounds = (0..2)
            .map(|_| {
                MultiBuyerRound::new(
                    vec![(buyer(0), 1)],
                    vec![cb(0, 0, vec![(0, 1)], 1.0), cb(1, 0, vec![(0, 1)], 9.0)],
                )
            })
            .collect::<Vec<_>>();
        let out = run_msoa_multi(&sellers, &rounds, &MsoaMultiConfig::default()).unwrap();
        // Round 0: seller 0 unavailable → seller 1 wins despite price.
        assert_eq!(
            out.rounds[0].outcome.winners[0].seller,
            MicroserviceId::new(1)
        );
        // Round 1: seller 0 in window and cheaper.
        assert_eq!(
            out.rounds[1].outcome.winners[0].seller,
            MicroserviceId::new(0)
        );
    }

    #[test]
    fn uncovered_rounds_are_reported_not_fatal() {
        let sellers = vec![seller(0, 100, (0, 0))];
        let rounds = vec![MultiBuyerRound::new(
            vec![(buyer(0), 5)],
            vec![cb(0, 0, vec![(0, 2)], 1.0)],
        )];
        let out = run_msoa_multi(&sellers, &rounds, &MsoaMultiConfig::default()).unwrap();
        assert!(!out.rounds[0].outcome.fully_covered);
    }
}
