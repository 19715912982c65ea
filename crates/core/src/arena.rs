//! The SoA bid arena and the lane argmin tree behind SSAM's greedy.
//!
//! Every iteration of SSAM's winner selection (Algorithm 1, line 4) is
//! one argmin: the unsold, safe bid minimizing the greedy key
//! `(∇/U, seller, id)` with `∇/U = price / min(amount, remaining)`.
//! [`BidArena::pop_best`] answers it over a structure-of-arrays arena
//! with one *lane* per distinct amount, in ascending amount order and
//! uncapped. A lane is sorted once by `(price, seller, id)`; its bids
//! share one denominator at every state, so its head (the first entry
//! past the cursor) is its minimum. Cursors only move forward: sold and
//! unsafe heads are dead for good ("once unsafe, always unsafe",
//! DESIGN.md §5) and are skipped when a query surfaces them.
//!
//! Lanes with `amount ≥ remaining` all divide by `remaining`, so their
//! order against the other lanes changes with every sale and a plain
//! loser tree would go stale. Split at `s`, the first such class, the
//! keys below `s` are `price / amount` (fixed per head) and the keys
//! from `s` up are ordered by price. Each segment-tree node keeps its
//! range's argmin lane in both orders; a pop walks root to leaf `s`
//! once, taking the first order over the prefix and the second over the
//! suffix — O(log L) for L lanes. Two different prices can still divide
//! to one f64 key, so every lane whose head reaches the minimum key is
//! visited and checked for a colliding run with a smaller
//! `(seller, id)`. DESIGN.md §16 has the full argument.

use crate::bid::{Bid, Seller};
use crate::error::AuctionError;
use crate::ssam::ArgminStats;
use edge_common::id::MicroserviceId;

/// Dense seller slots: a seller's slot is its rank in ascending id
/// order, so the arena's `(key, slot, bid)` tie order is the scan
/// oracle's `(key, seller, bid)` order. An instance builds its index
/// once and every auction of the instance shares it.
#[derive(Debug)]
pub(crate) struct SellerIndex(Vec<MicroserviceId>);

impl SellerIndex {
    /// Indexes a seller table.
    ///
    /// # Errors
    ///
    /// [`AuctionError::DuplicateSeller`] names the smallest id the table
    /// lists twice.
    pub(crate) fn of_table(sellers: &[Seller]) -> Result<Self, AuctionError> {
        let mut ids: Vec<MicroserviceId> = sellers.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        match ids.windows(2).find(|pair| pair[0] == pair[1]) {
            Some(pair) => Err(AuctionError::DuplicateSeller(pair[0].index())),
            None => Ok(SellerIndex(ids)),
        }
    }

    /// Indexes the sellers that `bids` name, and slots every bid.
    pub(crate) fn of_bids(bids: &[Bid]) -> (Self, Vec<u32>) {
        let mut ids: Vec<MicroserviceId> = bids.iter().map(|b| b.seller).collect();
        ids.sort_unstable();
        ids.dedup();
        let index = SellerIndex(ids);
        let slots = bids.iter().filter_map(|b| index.slot(b.seller)).collect();
        (index, slots)
    }

    /// Number of slots.
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// The slot of `seller`, if the index holds it.
    pub(crate) fn slot(&self, seller: MicroserviceId) -> Option<u32> {
        self.0.binary_search(&seller).ok().map(|s| s as u32)
    }
}

/// Each seller slot's best (max-amount) offer among one auction's bids;
/// slots without a bid hold 0.
#[derive(Debug)]
pub(crate) struct SellerTable {
    max: Vec<u64>,
}

impl SellerTable {
    /// The best offer per slot over `(slot, amount)` pairs, for `seats`
    /// slots.
    pub(crate) fn new(seats: usize, offers: impl IntoIterator<Item = (u32, u64)>) -> Self {
        let mut max = vec![0u64; seats];
        for (slot, amount) in offers {
            let best = &mut max[slot as usize];
            *best = (*best).max(amount);
        }
        SellerTable { max }
    }

    /// Number of slots.
    pub(crate) fn len(&self) -> usize {
        self.max.len()
    }

    /// The best offer of the seller in `slot`.
    pub(crate) fn max_of(&self, slot: u32) -> u64 {
        self.max[slot as usize]
    }

    /// Σ best offers — the initial `total_max` of a greedy run.
    pub(crate) fn total_max(&self) -> u64 {
        self.max.iter().sum()
    }

    /// Whether the best offers together cover `demand`; if not, the
    /// error carries their supply, saturating at `u64::MAX`.
    pub(crate) fn covers(&self, demand: u64) -> Result<(), AuctionError> {
        let supply = self.max.iter().copied().fold(0, u64::saturating_add);
        if supply < demand {
            return Err(AuctionError::InfeasibleDemand { demand, supply });
        }
        Ok(())
    }
}

/// Maps an `f64`'s bits so unsigned order equals `f64::total_cmp` order.
fn total_order_key(value: f64) -> u64 {
    let bits = value.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits ^ (1 << 63)
    }
}

/// One candidate bid the argmin returned: enough to find the bid
/// (`cand` is its position in the auction's input) and to sell it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pick {
    /// Lane the entry lives in.
    pub lane: u32,
    /// Position within the lane's column range (absolute column index).
    pub pos: u32,
    /// The greedy key `price / min(amount, remaining)` — exactly the
    /// `r_k` the scan oracle computes, same arithmetic, same bits.
    pub key: f64,
    /// Seller slot.
    pub slot: u32,
    /// Bid id (raw index).
    pub bid: u64,
    /// Position of the bid in the auction's input.
    pub cand: u32,
    /// The lane's amount class (= the bid's amount).
    pub amount: u64,
}

/// Tree entry of an empty range (every lane in it exhausted).
const NONE: u32 = u32::MAX;
/// Tree order of the lanes below the split: `(price / amount, seller, id)`.
const UNIT: usize = 0;
/// Tree order of the lanes from the split up: `(price, seller, id)`.
const PRICE: usize = 1;

/// A lane head's position in one tree order. Entries are unique by
/// `(slot, bid)`, so the order is strict across distinct entries.
#[derive(Debug, Clone, Copy)]
struct Rank {
    key: f64,
    slot: u32,
    bid: u64,
}

impl Rank {
    fn lt(&self, other: &Rank) -> bool {
        self.key
            .total_cmp(&other.key)
            .then_with(|| self.slot.cmp(&other.slot))
            .then_with(|| self.bid.cmp(&other.bid))
            .is_lt()
    }
}

/// One node of the argmin tree.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// The range's argmin lane in the [`UNIT`] and [`PRICE`] orders
    /// ([`NONE`] when every lane in it is exhausted).
    min: [u32; 2],
    /// Whether the children's [`UNIT`] argmins may share a key. Exact
    /// when the node was last recomputed and only ever stale towards
    /// `true`, so `false` proves that no lane in the non-argmin child
    /// ties the node's minimum — the tie descent then skips a read.
    unit_tie: bool,
}

/// The mutable state of one greedy run over an arena: lane cursors plus
/// the argmin tree over their heads. Cloning it forks a replay.
#[derive(Debug, Clone)]
pub(crate) struct Cursors {
    /// Absolute column index of each lane's head.
    pos: Vec<u32>,
    /// Implicit binary tree: node 1 is the root, node `n` has children
    /// `2n` and `2n + 1`, and lane `l` is leaf `leaves + l`.
    tree: Vec<Node>,
}

impl Cursors {
    /// Overwrites `self` with `other` without reallocating (both come
    /// from the same arena).
    pub(crate) fn copy_from(&mut self, other: &Cursors) {
        self.pos.copy_from_slice(&other.pos);
        self.tree.copy_from_slice(&other.tree);
    }

    fn leaves(&self) -> usize {
        self.tree.len() / 2
    }
}

/// The SoA lane arena. Columns are contiguous across lanes;
/// `lane_start` delimits each lane's range, lanes in ascending amount.
#[derive(Debug)]
pub(crate) struct BidArena {
    classes: Vec<u64>,
    lane_start: Vec<u32>,
    price: Vec<f64>,
    slot: Vec<u32>,
    bid: Vec<u64>,
    cand: Vec<u32>,
    /// Every cursor at its lane start, tree built.
    initial: Cursors,
}

/// Scatter entry used during construction, sorted by
/// `(total-order price bits, slot, bid)` — unique per entry because a
/// seller cannot reuse a bid id.
#[derive(Debug, Clone, Copy, Default)]
struct BuildEntry {
    price: u64,
    bid: u64,
    slot: u32,
    cand: u32,
}

/// One argmin query's fixed inputs: the state's `remaining`, the
/// minimum key the walk found, and the liveness filters.
struct Probe<'a, S, F> {
    remaining: u64,
    min_key: f64,
    sold: &'a S,
    safe: &'a F,
}

/// The tree nodes covering lanes `[0, split)` in the [`UNIT`] order and
/// `[split, leaves)` in the [`PRICE`] order: the siblings along the
/// root-to-`split` path, at most one per level plus one — fewer than 64
/// for any lane count that fits a `u32`, so a `u64` mask indexes them.
fn cover(split: usize, leaves: usize) -> impl Iterator<Item = (usize, usize)> {
    let (mut node, mut lo, mut hi) = (1, 0, leaves);
    let mut pending = match split {
        0 => Some((1, PRICE)),
        s if s >= leaves => Some((1, UNIT)),
        _ => None,
    };
    let mut done = pending.is_some();
    std::iter::from_fn(move || {
        if let Some(next) = pending.take() {
            return Some(next);
        }
        if done {
            return None;
        }
        let mid = (lo + hi) / 2;
        let (left, right) = (2 * node, 2 * node + 1);
        if split < mid {
            (node, hi) = (left, mid);
            Some((right, PRICE))
        } else if split > mid {
            (node, lo) = (right, mid);
            Some((left, UNIT))
        } else {
            done = true;
            pending = Some((right, PRICE));
            Some((left, UNIT))
        }
    })
}

impl BidArena {
    /// Builds the arena over the `candidates` positions of `bids`, whose
    /// sellers sit in `slots`: one lane per distinct amount.
    pub(crate) fn build(bids: &[Bid], slots: &[u32], candidates: &[u32]) -> BidArena {
        assert!(bids.len() <= u32::MAX as usize, "positions are u32");
        let mut classes: Vec<u64> = candidates
            .iter()
            .map(|&i| bids[i as usize].amount)
            .collect();
        classes.sort_unstable();
        classes.dedup();
        let lanes = classes.len();

        // One counting pass, one scatter, one sort per lane.
        let mut lane_start = vec![0u32; lanes + 1];
        let entry_lane: Vec<u32> = candidates
            .iter()
            .map(|&i| {
                let amount = bids[i as usize].amount;
                let lane = classes.binary_search(&amount).expect("amount is a class");
                lane_start[lane + 1] += 1;
                lane as u32
            })
            .collect();
        for lane in 0..lanes {
            lane_start[lane + 1] += lane_start[lane];
        }

        let mut entries = vec![BuildEntry::default(); candidates.len()];
        let mut fill = lane_start[..lanes].to_vec();
        for (&i, &lane) in candidates.iter().zip(&entry_lane) {
            let (b, lane) = (&bids[i as usize], lane as usize);
            entries[fill[lane] as usize] = BuildEntry {
                price: total_order_key(b.price.value()),
                bid: b.id.index() as u64,
                slot: slots[i as usize],
                cand: i,
            };
            fill[lane] += 1;
        }
        for lane in 0..lanes {
            entries[lane_start[lane] as usize..lane_start[lane + 1] as usize]
                .sort_unstable_by_key(|e| (e.price, e.slot, e.bid));
        }

        let mut arena = BidArena {
            price: entries
                .iter()
                .map(|e| bids[e.cand as usize].price.value())
                .collect(),
            slot: entries.iter().map(|e| e.slot).collect(),
            bid: entries.iter().map(|e| e.bid).collect(),
            cand: entries.iter().map(|e| e.cand).collect(),
            initial: Cursors {
                pos: lane_start[..lanes].to_vec(),
                tree: vec![
                    Node {
                        min: [NONE; 2],
                        unit_tie: false,
                    };
                    2 * lanes.next_power_of_two()
                ],
            },
            classes,
            lane_start,
        };
        let leaves = arena.initial.leaves();
        let mut tree = std::mem::take(&mut arena.initial.tree);
        for (lane, leaf) in tree[leaves..leaves + lanes].iter_mut().enumerate() {
            leaf.min = [lane as u32; 2];
        }
        let mut scratch = ArgminStats::default();
        let pos = &arena.initial.pos;
        for node in (1..leaves).rev() {
            let (l, r) = (tree[2 * node].min, tree[2 * node + 1].min);
            for order in [UNIT, PRICE] {
                tree[node].min[order] = match (l[order], r[order]) {
                    (NONE, _) => r[order],
                    (_, NONE) => l[order],
                    (a, b) => {
                        let ra = arena.rank(arena.head(pos, a, &mut scratch), a, order);
                        let rb = arena.rank(arena.head(pos, b, &mut scratch), b, order);
                        if order == UNIT {
                            tree[node].unit_tie = ra.key.total_cmp(&rb.key).is_eq();
                        }
                        if rb.lt(&ra) {
                            b
                        } else {
                            a
                        }
                    }
                };
            }
        }
        arena.initial.tree = tree;
        arena
    }

    /// Number of lanes (= distinct amounts).
    pub(crate) fn lanes(&self) -> usize {
        self.classes.len()
    }

    /// A fresh run state: every lane at its own start offset.
    pub(crate) fn initial_cursors(&self) -> Cursors {
        self.initial.clone()
    }

    /// Reads a live lane's head: one lane-head read.
    fn head(&self, pos: &[u32], lane: u32, stats: &mut ArgminStats) -> Rank {
        stats.head_reads += 1;
        let at = pos[lane as usize] as usize;
        Rank {
            key: self.price[at],
            slot: self.slot[at],
            bid: self.bid[at],
        }
    }

    /// A head (as read by [`Self::head`]) ranked in tree order `order`.
    fn rank(&self, head: Rank, lane: u32, order: usize) -> Rank {
        if order == UNIT {
            Rank {
                key: head.key / self.classes[lane as usize] as f64,
                ..head
            }
        } else {
            head
        }
    }

    /// Marks a picked entry consumed when it sits exactly at the lane
    /// head (its seller just sold, so the skip is permanent). A deeper
    /// pick — possible only through the key-collision path — stays and
    /// dies lazily instead.
    pub(crate) fn consume(&self, cur: &mut Cursors, pick: &Pick, stats: &mut ArgminStats) {
        if cur.pos[pick.lane as usize] == pick.pos {
            cur.pos[pick.lane as usize] = pick.pos + 1;
            self.repair(cur, pick.lane, stats);
        }
    }

    /// Restores the tree after `lane`'s head moved forward. The head's
    /// rank only grows, so in each order the walk up stops at the first
    /// node that did not hold `lane`: nothing above it can change.
    fn repair(&self, cur: &mut Cursors, lane: u32, stats: &mut ArgminStats) {
        let leaf = cur.leaves() + lane as usize;
        let live = cur.pos[lane as usize] < self.lane_start[lane as usize + 1];
        let head = live.then(|| self.head(&cur.pos, lane, stats));
        for order in [UNIT, PRICE] {
            let mut best = if live { lane } else { NONE };
            let mut best_rank = head.map(|h| self.rank(h, lane, order));
            cur.tree[leaf].min[order] = best;
            let mut node = leaf;
            while node > 1 && cur.tree[node / 2].min[order] == lane {
                let sibling = cur.tree[node ^ 1].min[order];
                let mut tie = false;
                if sibling != NONE {
                    let r = self.rank(self.head(&cur.pos, sibling, stats), sibling, order);
                    tie = best_rank.is_some_and(|b| b.key.total_cmp(&r.key).is_eq());
                    if best_rank.is_none_or(|b| r.lt(&b)) {
                        best = sibling;
                        best_rank = Some(r);
                    }
                }
                node /= 2;
                cur.tree[node].min[order] = best;
                if order == UNIT {
                    cur.tree[node].unit_tie = tie;
                }
            }
        }
    }

    /// The greedy key of a live lane's head, given the tree order it is
    /// ranked in: `price / amount` below the split, `price / remaining`
    /// from it up.
    fn key(
        &self,
        cur: &Cursors,
        lane: u32,
        order: usize,
        remaining: u64,
        stats: &mut ArgminStats,
    ) -> f64 {
        let key = self.rank(self.head(&cur.pos, lane, stats), lane, order).key;
        if order == PRICE {
            key / remaining as f64
        } else {
            key
        }
    }

    /// The unsold, safe bid minimizing `(key, seller, id)` — the exact
    /// functional contract of the scan oracle's `best_safe`, over lane
    /// cursors. `sold` must answer per-slot liveness (including
    /// excluded-seller and replay-epoch rules); `safe` is the
    /// feasibility filter for `(amount, slot)`. Skipped heads advance
    /// `cur` permanently; counters land in `stats` (`pops` counts
    /// examined entries, `head_reads` every lane-head rank computed,
    /// tree repairs included).
    pub(crate) fn pop_best<S, F>(
        &self,
        cur: &mut Cursors,
        remaining: u64,
        stats: &mut ArgminStats,
        sold: S,
        safe: F,
    ) -> Option<Pick>
    where
        S: Fn(u32) -> bool,
        F: Fn(u64, u32) -> bool,
    {
        stats.scans += 1;
        let split = self.classes.partition_point(|&a| a < remaining);
        let leaves = cur.leaves();
        loop {
            // The minimum key over the cover, and which cover nodes (by
            // walk index) reach it.
            let mut min_key: Option<f64> = None;
            let mut tied = 0u64;
            for (i, (node, order)) in cover(split, leaves).enumerate() {
                let lane = cur.tree[node].min[order];
                if lane == NONE {
                    continue;
                }
                let key = self.key(cur, lane, order, remaining, stats);
                match min_key.map(|m| key.total_cmp(&m)) {
                    None | Some(std::cmp::Ordering::Less) => {
                        min_key = Some(key);
                        tied = 1 << i;
                    }
                    Some(std::cmp::Ordering::Equal) => tied |= 1 << i,
                    Some(std::cmp::Ordering::Greater) => {}
                }
            }
            let probe = Probe {
                remaining,
                min_key: min_key?,
                sold: &sold,
                safe: &safe,
            };
            // Every lane whose head reaches the minimum key may hold the
            // winner: visit each, descending only into tied nodes.
            let mut best: Option<Pick> = None;
            for (i, (node, order)) in cover(split, leaves).enumerate() {
                if tied >> i & 1 == 1 {
                    self.visit_ties(cur, node, order, &probe, stats, &mut best);
                }
            }
            if best.is_some() {
                stats.pops += 1;
                return best;
            }
            // Every tied head was dead: they are skipped now, so the
            // next walk sees a larger minimum.
        }
    }

    /// Visits every lane under `node` whose head reaches the probe's
    /// minimum key in `order`; `node` itself must reach it.
    fn visit_ties<S, F>(
        &self,
        cur: &mut Cursors,
        node: usize,
        order: usize,
        probe: &Probe<'_, S, F>,
        stats: &mut ArgminStats,
        best: &mut Option<Pick>,
    ) where
        S: Fn(u32) -> bool,
        F: Fn(u64, u32) -> bool,
    {
        let leaves = cur.leaves();
        if node >= leaves {
            // A lane whose head reached the minimum key: skip its dead
            // heads, and if the live head still has that key, offer the
            // lane's `(seller, id)`-minimal entry at that key to `best`.
            let lane = (node - leaves) as u32;
            let amount = self.classes[lane as usize];
            let end = self.lane_start[lane as usize + 1];
            let start = cur.pos[lane as usize];
            let mut pos = start;
            // Permanent skips: sold sellers and unsafe entries.
            while pos < end {
                let s = self.slot[pos as usize];
                if (probe.sold)(s) {
                    stats.sold_discards += 1;
                } else if !(probe.safe)(amount, s) {
                    stats.unsafe_discards += 1;
                } else {
                    break;
                }
                stats.pops += 1;
                pos += 1;
            }
            if pos != start {
                cur.pos[lane as usize] = pos;
                self.repair(cur, lane, stats);
            }
            if pos >= end {
                return;
            }
            let denom = amount.min(probe.remaining) as f64;
            let key = self.price[pos as usize] / denom;
            if key.total_cmp(&probe.min_key).is_ne() {
                return;
            }
            let mut lane_best = Pick {
                lane,
                pos,
                key,
                slot: self.slot[pos as usize],
                bid: self.bid[pos as usize],
                cand: self.cand[pos as usize],
                amount,
            };
            self.resolve_key_collisions(&mut lane_best, end, denom, probe.sold, |s| {
                (probe.safe)(amount, s)
            });
            if best.is_none_or(|b| (lane_best.slot, lane_best.bid) < (b.slot, b.bid)) {
                *best = Some(lane_best);
            }
            return;
        }
        let holder = cur.tree[node].min[order];
        let may_tie = order == PRICE || cur.tree[node].unit_tie;
        for child in [2 * node, 2 * node + 1] {
            let lane = cur.tree[child].min[order];
            // The child holding the node's argmin reaches the key by
            // definition; the other child is read unless the node proves
            // it cannot tie.
            if lane != NONE
                && (lane == holder
                    || may_tie
                        && self
                            .key(cur, lane, order, probe.remaining, stats)
                            .total_cmp(&probe.min_key)
                            .is_eq())
            {
                self.visit_ties(cur, child, order, probe, stats, best);
            }
        }
    }

    /// Exactness under rounding: if a *different* price later in the
    /// lane divides to the same f64 key, the scan oracle would tie-break
    /// on `(seller, id)` across the colliding prices — scan those runs
    /// for the true minimum. One read and one division decide "no
    /// collision" (the overwhelmingly common case).
    fn resolve_key_collisions(
        &self,
        lane_best: &mut Pick,
        end: u32,
        denom: f64,
        sold: impl Fn(u32) -> bool,
        safe: impl Fn(u32) -> bool,
    ) {
        let mut run_start = lane_best.pos;
        loop {
            let next = self.run_end(run_start, end);
            if next >= end
                || (self.price[next as usize] / denom)
                    .total_cmp(&lane_best.key)
                    .is_ne()
            {
                return;
            }
            // Colliding run: its first *valid* entry is its (seller, id)
            // minimum among valid entries, as the run is sorted so.
            let next_bits = self.price[next as usize].to_bits();
            let mut t = next;
            while t < end && self.price[t as usize].to_bits() == next_bits {
                let s = self.slot[t as usize];
                if !sold(s) && safe(s) {
                    if (s, self.bid[t as usize]) < (lane_best.slot, lane_best.bid) {
                        lane_best.pos = t;
                        lane_best.slot = s;
                        lane_best.bid = self.bid[t as usize];
                        lane_best.cand = self.cand[t as usize];
                    }
                    break;
                }
                t += 1;
            }
            run_start = next;
        }
    }

    /// The first position after `at` whose price differs from `at`'s:
    /// one read when the next price differs, else a gallop over the
    /// equal-price run and a binary search inside the last stride.
    fn run_end(&self, at: u32, end: u32) -> u32 {
        let bits = self.price[at as usize].to_bits();
        let mut known = at;
        let mut stride = 1u32;
        loop {
            let probe = known.saturating_add(stride).min(end);
            if probe >= end || self.price[probe as usize].to_bits() != bits {
                let run = &self.price[known as usize + 1..probe as usize];
                return known + 1 + run.partition_point(|p| p.to_bits() == bits) as u32;
            }
            known = probe;
            stride = stride.saturating_mul(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edge_common::id::BidId;

    fn bid(seller: usize, id: usize, amount: u64, price: f64) -> Bid {
        Bid::new(MicroserviceId::new(seller), BidId::new(id), amount, price).unwrap()
    }

    /// The arena over every bid, each slotted by its seller.
    fn arena_of(bids: &[Bid]) -> BidArena {
        let (_, slots) = SellerIndex::of_bids(bids);
        let all: Vec<u32> = (0..bids.len() as u32).collect();
        BidArena::build(bids, &slots, &all)
    }

    #[test]
    fn total_order_key_matches_total_cmp() {
        let values = [-1.5, -0.0, 0.0, 0.5, 1.0, f64::MAX];
        for &a in &values {
            for &b in &values {
                assert_eq!(
                    total_order_key(a).cmp(&total_order_key(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn arena_pops_in_key_order() {
        let bids = vec![
            bid(0, 0, 2, 6.0), // $3/u
            bid(1, 0, 2, 4.0), // $2/u  ← first
            bid(2, 0, 3, 9.0), // $3/u, bigger class
        ];
        let arena = arena_of(&bids);
        let mut cur = arena.initial_cursors();
        let mut stats = ArgminStats::default();
        let pick = arena
            .pop_best(&mut cur, 7, &mut stats, |_| false, |_, _| true)
            .unwrap();
        assert_eq!(bids[pick.cand as usize].seller, MicroserviceId::new(1));
        assert_eq!(pick.key, 2.0);
        assert!(stats.pops > 0);
    }

    #[test]
    fn run_end_gallops_over_equal_prices() {
        let bids: Vec<Bid> = (0..50)
            .map(|s| bid(s, 0, 1, if s < 37 { 2.0 } else { 3.0 }))
            .collect();
        let arena = arena_of(&bids);
        assert_eq!(arena.run_end(0, 50), 37);
        assert_eq!(arena.run_end(36, 50), 37);
        assert_eq!(arena.run_end(37, 50), 50);
        assert_eq!(arena.run_end(49, 50), 50);
    }
}
