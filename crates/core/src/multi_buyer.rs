//! The general multi-buyer Winner Selection Problem.
//!
//! The paper's ILP (7) is stated in a *set-cover* form: each bid names a
//! set of needy microservices `S_ij^t` it would serve, and constraint
//! (10) requires every needy microservice to be covered up to its own
//! demand. The evaluation then collapses this to one aggregate demand
//! per round (the form [`crate::wsp`] implements). This module keeps the
//! general form as an extension: bids carry **per-buyer coverage maps**,
//! the greedy utility is Eq. (19)'s
//! `U_ij(𝔼) = Σ_b [min(cov_𝔼∪{ij}(b), X_b) − min(cov_𝔼(b), X_b)]`, and
//! payments use the same exact-threshold replay as single-buyer SSAM.
//!
//! Unlike the aggregate form, per-buyer feasibility cannot be guaranteed
//! by a cheap supply check (one-bid-per-seller couples the buyers), so
//! the mechanism reports *how much* of each buyer's demand it covered
//! instead of failing.
//!
//! # Examples
//!
//! ```
//! use edge_auction::multi_buyer::{run_ssam_multi, CoverBid, MultiBuyerWsp};
//! use edge_auction::ssam::SsamConfig;
//! use edge_common::id::{BidId, MicroserviceId};
//!
//! # fn main() -> Result<(), edge_auction::AuctionError> {
//! let b = |i: usize| MicroserviceId::new(100 + i); // buyers
//! let s = |i: usize| MicroserviceId::new(i);       // sellers
//! let inst = MultiBuyerWsp::new(
//!     vec![(b(0), 2), (b(1), 1)],
//!     vec![
//!         CoverBid::new(s(0), BidId::new(0), vec![(b(0), 2)], 4.0)?,
//!         CoverBid::new(s(1), BidId::new(0), vec![(b(0), 1), (b(1), 1)], 5.0)?,
//!     ],
//! )?;
//! let outcome = run_ssam_multi(&inst, &SsamConfig::default());
//! assert!(outcome.fully_covered);
//! # Ok(())
//! # }
//! ```

use crate::error::AuctionError;
use crate::pricing;
use crate::ssam::SsamConfig;
use edge_common::id::{BidId, MicroserviceId};
use edge_common::units::Price;
use edge_lp::{ConstraintOp, Model, VarId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A bid that covers specific buyers with specific amounts — the paper's
/// `(S_ij^t, J_ij^t)` pair with per-buyer quantities.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoverBid {
    /// The selling microservice.
    pub seller: MicroserviceId,
    /// Index among the seller's alternatives.
    pub id: BidId,
    /// Units offered to each named buyer.
    pub coverage: BTreeMap<MicroserviceId, u64>,
    /// Asking price for the whole bid.
    pub price: Price,
}

impl CoverBid {
    /// Creates a validated cover bid.
    ///
    /// # Errors
    ///
    /// * [`AuctionError::ZeroAmountBid`] if the coverage is empty or all
    ///   zero.
    /// * [`AuctionError::InvalidPrice`] for a negative/non-finite price.
    pub fn new(
        seller: MicroserviceId,
        id: BidId,
        coverage: Vec<(MicroserviceId, u64)>,
        price: f64,
    ) -> Result<Self, AuctionError> {
        let coverage: BTreeMap<MicroserviceId, u64> =
            coverage.into_iter().filter(|&(_, a)| a > 0).collect();
        if coverage.is_empty() {
            return Err(AuctionError::ZeroAmountBid);
        }
        let price = Price::new(price).map_err(|_| AuctionError::InvalidPrice(price))?;
        Ok(CoverBid {
            seller,
            id,
            coverage,
            price,
        })
    }

    /// Total units offered across buyers (the bid's `|S_ij|` analogue).
    pub fn total_amount(&self) -> u64 {
        self.coverage.values().sum()
    }
}

/// A validated multi-buyer instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiBuyerWsp {
    demands: BTreeMap<MicroserviceId, u64>,
    groups: Vec<Vec<CoverBid>>,
}

impl MultiBuyerWsp {
    /// Builds an instance from buyer demands and a flat bid list.
    ///
    /// # Errors
    ///
    /// Returns [`AuctionError::DuplicateBidId`] when a seller reuses a
    /// bid id.
    pub fn new(
        demands: Vec<(MicroserviceId, u64)>,
        bids: Vec<CoverBid>,
    ) -> Result<Self, AuctionError> {
        let demands: BTreeMap<MicroserviceId, u64> =
            demands.into_iter().filter(|&(_, x)| x > 0).collect();
        let mut groups: Vec<Vec<CoverBid>> = Vec::new();
        for bid in bids {
            match groups.iter_mut().find(|g| g[0].seller == bid.seller) {
                Some(g) => {
                    if g.iter().any(|b| b.id == bid.id) {
                        return Err(AuctionError::DuplicateBidId {
                            seller: bid.seller.index(),
                            bid: bid.id.index(),
                        });
                    }
                    g.push(bid);
                }
                None => groups.push(vec![bid]),
            }
        }
        Ok(MultiBuyerWsp { demands, groups })
    }

    /// The per-buyer demands `X_b`.
    pub fn demands(&self) -> &BTreeMap<MicroserviceId, u64> {
        &self.demands
    }

    /// Bids grouped by seller.
    pub fn groups(&self) -> &[Vec<CoverBid>] {
        &self.groups
    }

    /// Total demanded units across buyers.
    pub fn total_demand(&self) -> u64 {
        self.demands.values().sum()
    }

    /// Builds the exact ILP (7) of this instance (per-buyer coverage,
    /// one bid per seller); variable order matches a depth-first walk of
    /// `groups()`.
    pub fn to_ilp(&self) -> (Model, Vec<(usize, usize)>) {
        let mut m = Model::new();
        let mut positions = Vec::new();
        let mut buyer_terms: BTreeMap<MicroserviceId, Vec<(VarId, f64)>> = BTreeMap::new();
        for (g, group) in self.groups.iter().enumerate() {
            let mut per_seller = Vec::new();
            for (j, bid) in group.iter().enumerate() {
                let v = m
                    .add_binary(&format!("x_{g}_{j}"), bid.price.value())
                    .expect("validated price");
                positions.push((g, j));
                per_seller.push((v, 1.0));
                for (&buyer, &amount) in &bid.coverage {
                    buyer_terms
                        .entry(buyer)
                        .or_default()
                        .push((v, amount as f64));
                }
            }
            m.add_constraint(per_seller, ConstraintOp::Le, 1.0)
                .expect("valid");
        }
        for (&buyer, &x) in &self.demands {
            let terms = buyer_terms.remove(&buyer).unwrap_or_default();
            m.add_constraint(terms, ConstraintOp::Ge, x as f64)
                .expect("valid");
        }
        (m, positions)
    }
}

/// A winner in the multi-buyer auction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiBuyerWinner {
    /// The selling microservice.
    pub seller: MicroserviceId,
    /// Which alternative bid won.
    pub bid: BidId,
    /// Marginal utility at selection time (units credited).
    pub contribution: u64,
    /// Asking price.
    pub price: Price,
    /// Exact critical-value payment (replay-based).
    pub payment: Price,
}

/// Outcome of a multi-buyer auction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiBuyerOutcome {
    /// Winners in selection order.
    pub winners: Vec<MultiBuyerWinner>,
    /// Units covered per buyer (≤ demand).
    pub covered: BTreeMap<MicroserviceId, u64>,
    /// `true` iff every buyer's demand was met.
    pub fully_covered: bool,
    /// Σ winning prices.
    pub social_cost: Price,
    /// Σ payments.
    pub total_payment: Price,
}

/// Eq. (19): the marginal utility of adding `bid` given current
/// coverage.
fn marginal_utility(
    bid: &CoverBid,
    covered: &BTreeMap<MicroserviceId, u64>,
    demands: &BTreeMap<MicroserviceId, u64>,
) -> u64 {
    bid.coverage
        .iter()
        .map(|(buyer, &amount)| {
            let x = demands.get(buyer).copied().unwrap_or(0);
            let c = covered.get(buyer).copied().unwrap_or(0);
            (c + amount).min(x).saturating_sub(c.min(x))
        })
        .sum()
}

/// One lazy-heap slot: a `(group, bid)` candidate with its key at push
/// time and the generation that key was computed at (same scheme as
/// `ssam::HeapEntry`).
#[derive(Debug, Clone, Copy)]
struct MultiEntry {
    /// `price / marginal_utility` at push time — a lower bound on the
    /// current key, since coverage only grows and utilities only shrink.
    key: f64,
    /// Generation (completed sales) the key was computed at.
    gen: u64,
    /// Marginal utility the key was computed from.
    utility: u64,
    g: usize,
    j: usize,
}

impl PartialEq for MultiEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for MultiEntry {}

impl PartialOrd for MultiEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for MultiEntry {
    /// Reversed so `BinaryHeap` pops the minimum of `(key, g, j)` — the
    /// scan's tie-break (`ratio < br || (ratio == br && (g, j) < (bg,
    /// bj))`), so heap and scan select identically.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .key
            .total_cmp(&self.key)
            .then_with(|| other.g.cmp(&self.g))
            .then_with(|| other.j.cmp(&self.j))
    }
}

/// Lazy-deletion heap over cover bids keyed by `price / marginal
/// utility`. Coverage is monotonically nondecreasing, so each bid's
/// utility is nonincreasing and its key nondecreasing — stored keys are
/// lower bounds, stale entries re-push with recomputed keys, and a bid
/// whose utility hits zero is dropped permanently (utility cannot
/// recover).
struct MultiGreedy<'a> {
    inst: &'a MultiBuyerWsp,
    heap: std::collections::BinaryHeap<MultiEntry>,
    covered: BTreeMap<MicroserviceId, u64>,
    /// `sold[g]` — group `g`'s seller has already won.
    sold: Vec<bool>,
    gen: u64,
}

impl<'a> MultiGreedy<'a> {
    /// Builds the engine. Bids failing the static reserve filter and
    /// bids of the excluded seller are never pushed.
    fn new(inst: &'a MultiBuyerWsp, reserve: Option<f64>, exclude: Option<MicroserviceId>) -> Self {
        let mut entries = Vec::new();
        for (g, group) in inst.groups.iter().enumerate() {
            if Some(group[0].seller) == exclude {
                continue;
            }
            for (j, bid) in group.iter().enumerate() {
                if let Some(r) = reserve {
                    if bid.price.value() / bid.total_amount() as f64 > r {
                        continue;
                    }
                }
                let utility = marginal_utility(bid, &BTreeMap::new(), &inst.demands);
                if utility == 0 {
                    continue;
                }
                entries.push(MultiEntry {
                    key: bid.price.value() / utility as f64,
                    gen: 0,
                    utility,
                    g,
                    j,
                });
            }
        }
        MultiGreedy {
            inst,
            heap: std::collections::BinaryHeap::from(entries),
            covered: BTreeMap::new(),
            sold: vec![false; inst.groups.len()],
            gen: 0,
        }
    }

    /// The unsold bid minimizing `(price/utility, g, j)`, or `None` when
    /// every remaining bid has zero marginal utility. Pop-validate loop:
    /// sold sellers and zero-utility bids are dropped permanently; stale
    /// keys are recomputed and re-pushed.
    fn pop_best(&mut self) -> Option<(usize, usize, u64, f64)> {
        while let Some(entry) = self.heap.pop() {
            if self.sold[entry.g] {
                continue;
            }
            if entry.gen != self.gen {
                let bid = &self.inst.groups[entry.g][entry.j];
                let utility = marginal_utility(bid, &self.covered, &self.inst.demands);
                if utility == 0 {
                    continue; // utility never recovers — drop permanently
                }
                let key = bid.price.value() / utility as f64;
                if key.total_cmp(&entry.key).is_ne() {
                    self.heap.push(MultiEntry {
                        key,
                        gen: self.gen,
                        utility,
                        ..entry
                    });
                    continue;
                }
                // Key unchanged but return the *recomputed* utility: for
                // a zero-price bid the key is 0 at every utility, so the
                // stored utility may be outdated even though the key is
                // current.
                return Some((entry.g, entry.j, utility, key));
            }
            return Some((entry.g, entry.j, entry.utility, entry.key));
        }
        None
    }

    /// Accepts bid `(g, j)`: credit its coverage (clipped per buyer) and
    /// retire the seller; stored heap keys are invalidated.
    fn sell(&mut self, g: usize, j: usize) {
        let bid = &self.inst.groups[g][j];
        for (buyer, &amount) in &bid.coverage {
            let x = self.inst.demands.get(buyer).copied().unwrap_or(0);
            let e = self.covered.entry(*buyer).or_insert(0);
            *e = (*e + amount).min(x.max(*e));
        }
        self.sold[g] = true;
        self.gen += 1;
    }
}

/// Greedy selection result: winners as `(group, bid-in-group, utility,
/// ratio)` in selection order, plus the final per-buyer coverage.
type Selection = (Vec<(usize, usize, u64, f64)>, BTreeMap<MicroserviceId, u64>);

/// Greedy selection shared by the mechanism and the payment replay.
/// `exclude` drops one seller from selection while keeping its demands
/// intact (payment replay).
fn greedy_multi(
    inst: &MultiBuyerWsp,
    reserve: Option<f64>,
    exclude: Option<MicroserviceId>,
) -> Selection {
    let mut engine = MultiGreedy::new(inst, reserve, exclude);
    let mut selection = Vec::new();
    while let Some((g, j, u, ratio)) = engine.pop_best() {
        engine.sell(g, j);
        selection.push((g, j, u, ratio));
    }
    (selection, engine.covered)
}

/// Runs the multi-buyer SSAM: greedy winner selection on marginal
/// utility with exact critical-value payments via a replay without each
/// winner.
pub fn run_ssam_multi(inst: &MultiBuyerWsp, config: &SsamConfig) -> MultiBuyerOutcome {
    let start = std::time::Instant::now();
    let (selection, covered) = greedy_multi(inst, config.reserve_unit_price, None);
    let greedy_ns = start.elapsed().as_nanos() as u64;

    // Replay without each winner's seller; at every replay state, the
    // winner's threshold opportunity is r_k × its marginal utility in
    // that state. The replay runs on the same lazy-heap engine as
    // selection, just with the winner's seller excluded. The replays are
    // mutually independent, so they fan out over a pool sized by the
    // same rule as SSAM's and merge back in winner order (deterministic
    // at any thread count).
    let pool = pricing::pool_for(selection.len(), greedy_ns);
    let thresholds: Vec<Option<f64>> = pricing::fan_out(pool.threads, selection.len(), |p| {
        let (g, j, _, _) = selection[p];
        let bid = &inst.groups[g][j];
        let mut engine = MultiGreedy::new(inst, config.reserve_unit_price, Some(bid.seller));
        let mut acc = 0.0f64;
        loop {
            // Winner's utility at this replay state.
            let my_u = marginal_utility(bid, &engine.covered, &inst.demands);
            match engine.pop_best() {
                Some((cg, cj, _, r_k)) => {
                    if my_u > 0 {
                        acc = acc.max(r_k * my_u as f64);
                    }
                    engine.sell(cg, cj);
                }
                None => {
                    // Replay exhausted. If the winner still has
                    // positive utility here, it is pivotal for the
                    // residual: no finite threshold.
                    break if my_u > 0 { None } else { Some(acc) };
                }
            }
            // Replay fully covered everything the winner could help
            // with? Then no more opportunities.
            if marginal_utility(bid, &engine.covered, &inst.demands) == 0 {
                break Some(acc);
            }
        }
    });

    let mut winners = Vec::with_capacity(selection.len());
    for (&(g, j, u, _), threshold) in selection.iter().zip(thresholds) {
        let bid = &inst.groups[g][j];
        let payment_value = match threshold {
            Some(v) => v.max(bid.price.value()),
            None => config
                .reserve_unit_price
                .map(|r| r * bid.total_amount() as f64)
                .unwrap_or(bid.price.value())
                .max(bid.price.value()),
        };
        winners.push(MultiBuyerWinner {
            seller: bid.seller,
            bid: bid.id,
            contribution: u,
            price: bid.price,
            payment: Price::new_unchecked(payment_value),
        });
    }

    let fully_covered = inst
        .demands
        .iter()
        .all(|(b, &x)| covered.get(b).copied().unwrap_or(0) >= x);
    let social_cost: Price = winners.iter().map(|w| w.price).sum();
    let total_payment: Price = winners.iter().map(|w| w.payment).sum();
    MultiBuyerOutcome {
        winners,
        covered,
        fully_covered,
        social_cost,
        total_payment,
    }
}

/// The seed's scan-based multi-buyer mechanism, kept as a differential
/// oracle for the heap engine. Must return bit-identical outcomes to
/// [`run_ssam_multi`].
pub mod reference {
    use super::*;

    /// The original O(n²) greedy: full re-scan of every live bid per
    /// iteration.
    fn greedy_multi_scan(
        inst: &MultiBuyerWsp,
        reserve: Option<f64>,
        exclude: Option<MicroserviceId>,
    ) -> Selection {
        let mut covered: BTreeMap<MicroserviceId, u64> = BTreeMap::new();
        let mut sold: Vec<MicroserviceId> = Vec::new();
        let mut selection = Vec::new();
        loop {
            let mut best: Option<(usize, usize, u64, f64)> = None;
            for (g, group) in inst.groups.iter().enumerate() {
                let seller = group[0].seller;
                if Some(seller) == exclude || sold.contains(&seller) {
                    continue;
                }
                for (j, bid) in group.iter().enumerate() {
                    if let Some(r) = reserve {
                        if bid.price.value() / bid.total_amount() as f64 > r {
                            continue;
                        }
                    }
                    let u = marginal_utility(bid, &covered, &inst.demands);
                    if u == 0 {
                        continue;
                    }
                    let ratio = bid.price.value() / u as f64;
                    let better = match best {
                        None => true,
                        Some((bg, bj, _, br)) => ratio < br || (ratio == br && (g, j) < (bg, bj)),
                    };
                    if better {
                        best = Some((g, j, u, ratio));
                    }
                }
            }
            let Some((g, j, u, ratio)) = best else { break };
            let bid = &inst.groups[g][j];
            for (buyer, &amount) in &bid.coverage {
                let x = inst.demands.get(buyer).copied().unwrap_or(0);
                let e = covered.entry(*buyer).or_insert(0);
                *e = (*e + amount).min(x.max(*e));
            }
            sold.push(bid.seller);
            selection.push((g, j, u, ratio));
        }
        (selection, covered)
    }

    /// Runs the multi-buyer SSAM with the original scan selection and
    /// scan-based payment replays.
    pub fn run_ssam_multi_reference(
        inst: &MultiBuyerWsp,
        config: &SsamConfig,
    ) -> MultiBuyerOutcome {
        let (selection, covered) = greedy_multi_scan(inst, config.reserve_unit_price, None);

        let mut winners = Vec::with_capacity(selection.len());
        for &(g, j, u, _) in &selection {
            let bid = &inst.groups[g][j];
            let threshold: Option<f64> = {
                let mut covered_r: BTreeMap<MicroserviceId, u64> = BTreeMap::new();
                let mut sold: Vec<MicroserviceId> = Vec::new();
                let mut acc = 0.0f64;
                loop {
                    let my_u = marginal_utility(bid, &covered_r, &inst.demands);
                    let mut best: Option<(usize, usize, u64, f64)> = None;
                    for (cg, group) in inst.groups.iter().enumerate() {
                        let seller = group[0].seller;
                        if seller == bid.seller || sold.contains(&seller) {
                            continue;
                        }
                        for (cj, cand) in group.iter().enumerate() {
                            if let Some(r) = config.reserve_unit_price {
                                if cand.price.value() / cand.total_amount() as f64 > r {
                                    continue;
                                }
                            }
                            let cu = marginal_utility(cand, &covered_r, &inst.demands);
                            if cu == 0 {
                                continue;
                            }
                            let ratio = cand.price.value() / cu as f64;
                            if best.is_none() || ratio < best.unwrap().3 {
                                best = Some((cg, cj, cu, ratio));
                            }
                        }
                    }
                    match best {
                        Some((cg, cj, _, r_k)) => {
                            if my_u > 0 {
                                acc = acc.max(r_k * my_u as f64);
                            }
                            let chosen = &inst.groups[cg][cj];
                            for (buyer, &amount) in &chosen.coverage {
                                let x = inst.demands.get(buyer).copied().unwrap_or(0);
                                let e = covered_r.entry(*buyer).or_insert(0);
                                *e = (*e + amount).min(x.max(*e));
                            }
                            sold.push(chosen.seller);
                        }
                        None => {
                            break if my_u > 0 { None } else { Some(acc) };
                        }
                    }
                    if marginal_utility(bid, &covered_r, &inst.demands) == 0 {
                        break Some(acc);
                    }
                }
            };
            let payment_value = match threshold {
                Some(v) => v.max(bid.price.value()),
                None => config
                    .reserve_unit_price
                    .map(|r| r * bid.total_amount() as f64)
                    .unwrap_or(bid.price.value())
                    .max(bid.price.value()),
            };
            winners.push(MultiBuyerWinner {
                seller: bid.seller,
                bid: bid.id,
                contribution: u,
                price: bid.price,
                payment: Price::new_unchecked(payment_value),
            });
        }

        let fully_covered = inst
            .demands
            .iter()
            .all(|(b, &x)| covered.get(b).copied().unwrap_or(0) >= x);
        let social_cost: Price = winners.iter().map(|w| w.price).sum();
        let total_payment: Price = winners.iter().map(|w| w.payment).sum();
        MultiBuyerOutcome {
            winners,
            covered,
            fully_covered,
            social_cost,
            total_payment,
        }
    }
}

pub use reference::run_ssam_multi_reference;

#[cfg(test)]
mod tests {
    use super::*;
    use edge_lp::{solve_ilp, IlpOptions};

    fn buyer(i: usize) -> MicroserviceId {
        MicroserviceId::new(100 + i)
    }

    fn seller(i: usize) -> MicroserviceId {
        MicroserviceId::new(i)
    }

    fn cb(s: usize, id: usize, cov: Vec<(usize, u64)>, price: f64) -> CoverBid {
        CoverBid::new(
            seller(s),
            BidId::new(id),
            cov.into_iter().map(|(b, a)| (buyer(b), a)).collect(),
            price,
        )
        .unwrap()
    }

    #[test]
    fn validates_bids() {
        assert_eq!(
            CoverBid::new(seller(0), BidId::new(0), vec![], 1.0),
            Err(AuctionError::ZeroAmountBid)
        );
        assert_eq!(
            CoverBid::new(seller(0), BidId::new(0), vec![(buyer(0), 0)], 1.0),
            Err(AuctionError::ZeroAmountBid)
        );
        assert!(CoverBid::new(seller(0), BidId::new(0), vec![(buyer(0), 1)], -1.0).is_err());
    }

    #[test]
    fn covers_per_buyer_not_just_aggregate() {
        // Aggregate demand is 3; a single 3-unit bid on buyer 0 would
        // cover the aggregate but NOT buyer 1 — per-buyer accounting
        // must force the second bid in.
        let inst = MultiBuyerWsp::new(
            vec![(buyer(0), 2), (buyer(1), 1)],
            vec![cb(0, 0, vec![(0, 3)], 3.0), cb(1, 0, vec![(1, 1)], 5.0)],
        )
        .unwrap();
        let out = run_ssam_multi(&inst, &SsamConfig::default());
        assert!(out.fully_covered);
        assert_eq!(out.winners.len(), 2);
        assert_eq!(out.covered[&buyer(0)], 2);
        assert_eq!(out.covered[&buyer(1)], 1);
    }

    #[test]
    fn over_coverage_is_not_credited() {
        let inst =
            MultiBuyerWsp::new(vec![(buyer(0), 2)], vec![cb(0, 0, vec![(0, 5)], 10.0)]).unwrap();
        let out = run_ssam_multi(&inst, &SsamConfig::default());
        assert_eq!(out.winners[0].contribution, 2);
        assert_eq!(out.covered[&buyer(0)], 2);
    }

    #[test]
    fn partial_coverage_is_reported_not_fatal() {
        let inst =
            MultiBuyerWsp::new(vec![(buyer(0), 5)], vec![cb(0, 0, vec![(0, 2)], 1.0)]).unwrap();
        let out = run_ssam_multi(&inst, &SsamConfig::default());
        assert!(!out.fully_covered);
        assert_eq!(out.covered[&buyer(0)], 2);
    }

    #[test]
    fn individual_rationality() {
        let inst = MultiBuyerWsp::new(
            vec![(buyer(0), 3), (buyer(1), 2)],
            vec![
                cb(0, 0, vec![(0, 2), (1, 1)], 6.0),
                cb(1, 0, vec![(0, 2)], 5.0),
                cb(2, 0, vec![(1, 2)], 4.0),
                cb(3, 0, vec![(0, 1), (1, 1)], 3.0),
            ],
        )
        .unwrap();
        let out = run_ssam_multi(&inst, &SsamConfig::default());
        assert!(out.fully_covered);
        for w in &out.winners {
            assert!(w.payment >= w.price, "{w:?}");
        }
    }

    #[test]
    fn greedy_never_beats_ilp_and_stays_close() {
        let inst = MultiBuyerWsp::new(
            vec![(buyer(0), 3), (buyer(1), 2), (buyer(2), 2)],
            vec![
                cb(0, 0, vec![(0, 2), (1, 1)], 7.0),
                cb(0, 1, vec![(2, 2)], 5.0),
                cb(1, 0, vec![(0, 2), (2, 1)], 6.0),
                cb(2, 0, vec![(1, 2)], 4.0),
                cb(3, 0, vec![(0, 1), (1, 1), (2, 1)], 5.0),
                cb(4, 0, vec![(0, 3)], 9.0),
            ],
        )
        .unwrap();
        let out = run_ssam_multi(&inst, &SsamConfig::default());
        assert!(out.fully_covered);
        let (ilp, _) = inst.to_ilp();
        let opt = solve_ilp(&ilp, &IlpOptions::default()).unwrap();
        assert!(opt.proven_optimal);
        assert!(out.social_cost.value() >= opt.objective - 1e-9);
        // Greedy is within the harmonic bound of the total demand (7).
        let h7: f64 = (1..=7).map(|k| 1.0 / k as f64).sum();
        // Allow the price-spread factor on top.
        assert!(out.social_cost.value() <= opt.objective * h7 * 3.0);
    }

    #[test]
    fn one_bid_per_seller() {
        let inst = MultiBuyerWsp::new(
            vec![(buyer(0), 4)],
            vec![
                cb(0, 0, vec![(0, 2)], 2.0),
                cb(0, 1, vec![(0, 2)], 2.5),
                cb(1, 0, vec![(0, 2)], 3.0),
            ],
        )
        .unwrap();
        let out = run_ssam_multi(&inst, &SsamConfig::default());
        let mut sellers: Vec<_> = out.winners.iter().map(|w| w.seller).collect();
        sellers.sort();
        sellers.dedup();
        assert_eq!(sellers.len(), out.winners.len());
    }

    #[test]
    fn duplicate_ids_rejected() {
        let err = MultiBuyerWsp::new(
            vec![(buyer(0), 1)],
            vec![cb(0, 0, vec![(0, 1)], 1.0), cb(0, 0, vec![(0, 1)], 2.0)],
        )
        .unwrap_err();
        assert_eq!(err, AuctionError::DuplicateBidId { seller: 0, bid: 0 });
    }

    #[test]
    fn zero_demand_buyers_are_dropped() {
        let inst =
            MultiBuyerWsp::new(vec![(buyer(0), 0)], vec![cb(0, 0, vec![(0, 3)], 1.0)]).unwrap();
        assert!(inst.demands().is_empty());
        let out = run_ssam_multi(&inst, &SsamConfig::default());
        assert!(out.winners.is_empty());
        assert!(out.fully_covered);
    }

    #[test]
    fn pivotal_seller_paid_reserve_when_configured() {
        let inst =
            MultiBuyerWsp::new(vec![(buyer(0), 2)], vec![cb(0, 0, vec![(0, 2)], 4.0)]).unwrap();
        let config = SsamConfig {
            reserve_unit_price: Some(5.0),
        };
        let out = run_ssam_multi(&inst, &config);
        assert_eq!(out.winners[0].payment.value(), 10.0);
    }
}
