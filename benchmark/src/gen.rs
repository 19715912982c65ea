//! Seeded input generation. Every input the benchmark feeds the program
//! is a pure function of `--seed`, drawn from a splitmix64 stream (the
//! CLI crate has no `rand` dependency, and the stream must not change
//! when a shim does).

use edge_auction::bid::{Bid, Seller};
use edge_auction::msoa::{MultiRoundInstance, RoundInput};
use edge_common::id::{BidId, MicroserviceId};

/// splitmix64 (Steele, Lea and Flood, 2014).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream for `seed`, decorrelated from other streams by `tag`.
    pub fn new(seed: u64, tag: u64) -> Self {
        let mut rng = SplitMix64(seed ^ tag.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The shape of an auction workload's market.
#[derive(Debug, Clone, Copy)]
pub struct MarketShape {
    pub sellers: usize,
    /// Long-run capacity Θ of every seller within one stage.
    pub capacity: u64,
    /// Units auctioned each round.
    pub demand: u64,
    pub rounds_per_stage: usize,
    /// Share of sellers that redraw their bids before each round.
    pub churn: f64,
}

/// A standing bid book that drifts round to round: each seller holds
/// one or two bids (amount 1–4, unit price 1–10); before every round a
/// `churn` share of sellers redraw theirs.
#[derive(Debug, Clone)]
pub struct Market {
    shape: MarketShape,
    rng: SplitMix64,
    /// Flat book in seller order; each seller's bid count never changes,
    /// so a redraw patches its slots in place.
    book: Vec<Bid>,
    /// `book[first[s]..first[s + 1]]` are seller `s`'s bids.
    first: Vec<usize>,
}

impl Market {
    pub fn new(shape: MarketShape, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed, 0x6d61_726b);
        let mut book = Vec::with_capacity(shape.sellers * 2);
        let mut first = Vec::with_capacity(shape.sellers + 1);
        for s in 0..shape.sellers {
            first.push(book.len());
            for j in 0..rng.between(1, 2) as usize {
                book.push(draw_bid(&mut rng, s, j));
            }
        }
        first.push(book.len());
        Market {
            shape,
            rng,
            book,
            first,
        }
    }

    fn redraw(&mut self, seller: usize) {
        for (j, slot) in (self.first[seller]..self.first[seller + 1]).enumerate() {
            self.book[slot] = draw_bid(&mut self.rng, seller, j);
        }
    }

    /// Advances the book by one round of churn.
    fn churn(&mut self) {
        let n = self.shape.sellers;
        if self.shape.churn >= 1.0 {
            (0..n).for_each(|s| self.redraw(s));
        } else {
            let k = (self.shape.churn * n as f64).round() as usize;
            for _ in 0..k {
                let s = self.rng.below(n as u64) as usize;
                self.redraw(s);
            }
        }
    }

    /// The next stage's inputs: the seller table and one churned copy of
    /// the book per round. Building them is the benchmark's own work and
    /// stays outside every timed section.
    pub fn next_stage(&mut self) -> (Vec<Seller>, Vec<RoundInput>) {
        let last = self.shape.rounds_per_stage as u64 - 1;
        let sellers = (0..self.shape.sellers)
            .map(|s| {
                Seller::new(MicroserviceId::new(s), self.shape.capacity, (0, last))
                    .expect("window is ordered")
            })
            .collect();
        let rounds = (0..self.shape.rounds_per_stage)
            .map(|_| {
                self.churn();
                RoundInput::new(self.shape.demand, self.shape.demand, self.book.clone())
            })
            .collect();
        (sellers, rounds)
    }
}

fn draw_bid(rng: &mut SplitMix64, seller: usize, j: usize) -> Bid {
    let amount = rng.between(1, 4);
    let price = amount as f64 * (1.0 + 9.0 * rng.unit());
    Bid::new(MicroserviceId::new(seller), BidId::new(j), amount, price).expect("valid bid")
}

/// Builds a validated instance from [`Market::next_stage`] output.
pub fn instance(sellers: Vec<Seller>, rounds: Vec<RoundInput>) -> MultiRoundInstance {
    MultiRoundInstance::new(sellers, rounds).expect("generated instances are valid")
}

/// One `POST /v1/*` request: the path and its JSON body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireEvent {
    pub path: &'static str,
    pub body: String,
}

/// The wire traffic of one generator thread. Thread `lane` of `lanes`
/// owns the sellers `s ≡ lane (mod lanes)`, so its withdrawals always
/// name a bid it placed and no other thread touches: every event is
/// admissible whatever the interleaving of the threads.
///
/// Mix: 50% bid, 40% withdrawal of an own standing bid (a bid when none
/// stands), 7% demand report, 3% default announcement.
#[derive(Debug, Clone)]
pub struct WireGen {
    rng: SplitMix64,
    lane: usize,
    lanes: usize,
    sellers: usize,
    next_bid: u64,
    standing: Vec<(usize, u64)>,
}

impl WireGen {
    pub fn new(seed: u64, lane: usize, lanes: usize, sellers: usize) -> Self {
        WireGen {
            rng: SplitMix64::new(seed, 0x7769_7265 + lane as u64),
            lane,
            lanes,
            sellers,
            next_bid: 0,
            standing: Vec::new(),
        }
    }

    fn own_seller(&mut self) -> usize {
        let owned = (self.sellers - self.lane).div_ceil(self.lanes) as u64;
        self.lane + self.lanes * self.rng.below(owned) as usize
    }

    pub fn next_event(&mut self) -> WireEvent {
        let roll = self.rng.below(100);
        if (50..90).contains(&roll) && !self.standing.is_empty() {
            let i = self.rng.below(self.standing.len() as u64) as usize;
            let (seller, bid) = self.standing.swap_remove(i);
            return WireEvent {
                path: "/v1/bid/withdraw",
                body: format!("{{\"seller\":{seller},\"bid\":{bid}}}"),
            };
        }
        match roll {
            90..=96 => WireEvent {
                path: "/v1/demand",
                body: format!("{{\"units\":{}}}", self.rng.between(1, 5)),
            },
            97..=99 => {
                let seller = self.own_seller();
                let fraction = 0.25 + 0.75 * self.rng.unit();
                WireEvent {
                    path: "/v1/default",
                    body: format!("{{\"seller\":{seller},\"delivered_fraction\":{fraction:.4}}}"),
                }
            }
            _ => {
                let seller = self.own_seller();
                let bid = self.next_bid;
                self.next_bid += 1;
                self.standing.push((seller, bid));
                let amount = self.rng.between(1, 4);
                let price = amount as f64 * (1.0 + 9.0 * self.rng.unit());
                WireEvent {
                    path: "/v1/bid",
                    body: format!(
                        "{{\"seller\":{seller},\"bid\":{bid},\"amount\":{amount},\"price\":{price:.4}}}"
                    ),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> MarketShape {
        MarketShape {
            sellers: 50,
            capacity: 8,
            demand: 20,
            rounds_per_stage: 3,
            churn: 0.1,
        }
    }

    #[test]
    fn same_seed_same_bids() {
        let stage = |seed| {
            let mut m = Market::new(shape(), seed);
            m.next_stage();
            render(&m.next_stage().1)
        };
        assert_eq!(stage(3), stage(3));
        assert_ne!(stage(3), stage(4));
    }

    #[test]
    fn same_seed_same_wire_events() {
        let events = |seed| {
            let mut g = WireGen::new(seed, 1, 2, 9);
            (0..500).map(|_| g.next_event()).collect::<Vec<_>>()
        };
        assert_eq!(events(5), events(5));
        assert_ne!(events(5), events(6));
        // Lane 1 of 2 only ever names odd sellers.
        for e in events(5) {
            if let Some(rest) = e.body.strip_prefix("{\"seller\":") {
                let seller: usize = rest.split(',').next().unwrap().parse().unwrap();
                assert_eq!(seller % 2, 1, "{e:?}");
            }
        }
    }

    /// Byte rendering of a stage's bids, independent of serde.
    fn render(rounds: &[RoundInput]) -> String {
        rounds
            .iter()
            .flat_map(|r| &r.bids)
            .map(|b| {
                format!(
                    "{}:{}:{}:{:x};",
                    b.seller.index(),
                    b.id.index(),
                    b.amount,
                    b.price.value().to_bits()
                )
            })
            .collect()
    }
}
