//! The single-round Winner Selection Problem (WSP).
//!
//! Given the round's aggregate resource demand `X^t` (constraint (10))
//! and each seller's alternative bids, choose at most one bid per seller
//! (constraint (9)) so the chosen amounts cover the demand at minimum
//! total price — ILP (12). The problem is NP-hard (Theorem 1, by
//! reduction from weighted set cover); this module holds the validated
//! instance plus its conversions into the two exact solvers of
//! [`edge_lp`] used for the offline optimum.

use crate::arena::SellerIndex;
use crate::bid::Bid;
use crate::error::AuctionError;
use crate::ssam::first_reused_id;
use edge_common::id::MicroserviceId;
use edge_lp::{ConstraintOp, CoverOption, GroupCover, Model, VarId};
use serde::{Deserialize, Serialize};

/// A validated single-round auction instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WspInstance {
    demand: u64,
    /// Bids grouped by seller (each inner vec = one seller's
    /// alternatives).
    groups: Vec<Vec<Bid>>,
}

impl WspInstance {
    /// Builds an instance from a flat bid list, grouping by seller.
    ///
    /// # Errors
    ///
    /// * [`AuctionError::DuplicateBidId`] — a seller reused a bid id.
    /// * [`AuctionError::InfeasibleDemand`] — even the best bid of every
    ///   seller together cannot reach `demand`.
    pub fn new(demand: u64, bids: Vec<Bid>) -> Result<Self, AuctionError> {
        let (index, slots) = SellerIndex::of_bids(&bids);
        if let Some(b) = first_reused_id(&bids, &slots, index.len()) {
            return Err(AuctionError::DuplicateBidId {
                seller: b.seller.index(),
                bid: b.id.index(),
            });
        }
        // Each seller's bids in input order, sellers in first-bid order.
        let mut group_of = vec![usize::MAX; index.len()];
        let mut groups: Vec<Vec<Bid>> = Vec::new();
        for (bid, &slot) in bids.into_iter().zip(&slots) {
            let g = &mut group_of[slot as usize];
            if *g == usize::MAX {
                *g = groups.len();
                groups.push(Vec::new());
            }
            groups[*g].push(bid);
        }
        let instance = WspInstance { demand, groups };
        let supply = instance.max_supply();
        if supply < demand {
            return Err(AuctionError::InfeasibleDemand { demand, supply });
        }
        Ok(instance)
    }

    /// The aggregate demand `X^t` to cover.
    pub fn demand(&self) -> u64 {
        self.demand
    }

    /// Bids grouped by seller.
    pub fn groups(&self) -> &[Vec<Bid>] {
        &self.groups
    }

    /// All bids, flattened.
    pub fn bids(&self) -> impl Iterator<Item = &Bid> {
        self.groups.iter().flatten()
    }

    /// Number of distinct sellers with at least one bid.
    pub fn num_sellers(&self) -> usize {
        self.groups.len()
    }

    /// The sellers present, in first-bid order.
    pub fn sellers(&self) -> Vec<MicroserviceId> {
        self.groups.iter().map(|g| g[0].seller).collect()
    }

    /// Maximum coverable amount: best single bid per seller, saturating
    /// at `u64::MAX` rather than wrapping.
    pub fn max_supply(&self) -> u64 {
        self.groups
            .iter()
            .map(|g| g.iter().map(|b| b.amount).max().unwrap_or(0))
            .fold(0, u64::saturating_add)
    }

    /// Converts to the exact covering-DP form. Choice indices in the
    /// returned [`GroupCover`] match `self.groups()` positions.
    pub fn to_group_cover(&self) -> GroupCover {
        GroupCover::new(
            self.demand,
            self.groups
                .iter()
                .map(|g| {
                    g.iter()
                        .map(|b| CoverOption::new(b.price.value(), b.amount))
                        .collect()
                })
                .collect(),
        )
    }

    /// Converts to the ILP (12) form; returns the model and the
    /// `(group, bid-in-group)` position of each variable.
    pub fn to_ilp(&self) -> (Model, Vec<(usize, usize)>) {
        let mut m = Model::new();
        let mut positions = Vec::new();
        let mut cover_terms: Vec<(VarId, f64)> = Vec::new();
        for (g, group) in self.groups.iter().enumerate() {
            let mut one_per_seller: Vec<(VarId, f64)> = Vec::new();
            for (j, bid) in group.iter().enumerate() {
                let v = m
                    .add_binary(&format!("x_{g}_{j}"), bid.price.value())
                    .expect("finite validated price");
                positions.push((g, j));
                cover_terms.push((v, bid.amount as f64));
                one_per_seller.push((v, 1.0));
            }
            m.add_constraint(one_per_seller, ConstraintOp::Le, 1.0)
                .expect("valid constraint");
        }
        m.add_constraint(cover_terms, ConstraintOp::Ge, self.demand as f64)
            .expect("valid constraint");
        (m, positions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edge_common::id::BidId;
    use edge_lp::{solve_ilp, IlpOptions};

    fn bid(seller: usize, id: usize, amount: u64, price: f64) -> Bid {
        Bid::new(MicroserviceId::new(seller), BidId::new(id), amount, price).unwrap()
    }

    #[test]
    fn groups_by_seller() {
        let inst = WspInstance::new(
            3,
            vec![bid(0, 0, 2, 5.0), bid(1, 0, 2, 4.0), bid(0, 1, 3, 7.0)],
        )
        .unwrap();
        assert_eq!(inst.num_sellers(), 2);
        assert_eq!(inst.groups()[0].len(), 2);
        assert_eq!(inst.max_supply(), 3 + 2);
        assert_eq!(
            inst.sellers(),
            vec![MicroserviceId::new(0), MicroserviceId::new(1)]
        );
    }

    #[test]
    fn rejects_duplicate_bid_ids() {
        let err = WspInstance::new(1, vec![bid(0, 0, 2, 5.0), bid(0, 0, 3, 6.0)]).unwrap_err();
        assert_eq!(err, AuctionError::DuplicateBidId { seller: 0, bid: 0 });
    }

    #[test]
    fn rejects_infeasible_demand() {
        let err = WspInstance::new(10, vec![bid(0, 0, 2, 5.0), bid(0, 1, 3, 6.0)]).unwrap_err();
        // Only one seller; best bid covers 3 < 10.
        assert_eq!(
            err,
            AuctionError::InfeasibleDemand {
                demand: 10,
                supply: 3
            }
        );
    }

    #[test]
    fn dp_and_ilp_agree_on_the_instance() {
        let inst = WspInstance::new(
            4,
            vec![
                bid(0, 0, 2, 6.0),
                bid(0, 1, 1, 2.0),
                bid(1, 0, 2, 5.0),
                bid(1, 1, 3, 9.0),
                bid(2, 0, 2, 4.0),
            ],
        )
        .unwrap();
        let dp = inst.to_group_cover().solve_exact().unwrap();
        let (ilp, _) = inst.to_ilp();
        let bb = solve_ilp(&ilp, &IlpOptions::default()).unwrap();
        assert!((dp.cost - bb.objective).abs() < 1e-9);
        // Optimal: seller1 bid0 ($5, 2u) + seller2 bid0 ($4, 2u) = $9.
        assert_eq!(dp.cost, 9.0);
    }

    #[test]
    fn zero_demand_is_trivially_feasible() {
        let inst = WspInstance::new(0, vec![]).unwrap();
        assert_eq!(inst.max_supply(), 0);
        assert_eq!(inst.to_group_cover().solve_exact().unwrap().cost, 0.0);
    }

    #[test]
    fn serde_round_trip() {
        let inst = WspInstance::new(2, vec![bid(0, 0, 2, 5.0), bid(1, 0, 2, 4.0)]).unwrap();
        let json = serde_json::to_string(&inst).unwrap();
        let back: WspInstance = serde_json::from_str(&json).unwrap();
        assert_eq!(back, inst);
    }
}
