//! Auction error types.

use std::error::Error;
use std::fmt;

/// Errors raised while validating or running an auction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AuctionError {
    /// The submitted bids cannot cover the round's demand even if every
    /// seller's best offer wins.
    InfeasibleDemand {
        /// Units demanded.
        demand: u64,
        /// Maximum units coverable (best bid per seller).
        supply: u64,
    },
    /// A bid offered zero resource units — it can never contribute.
    ZeroAmountBid,
    /// A bid price was negative or not finite.
    InvalidPrice(f64),
    /// A seller referenced in a round's bids is not declared in the
    /// instance's seller table.
    UnknownSeller(usize),
    /// A multi-round instance's seller table lists one seller id twice.
    DuplicateSeller(usize),
    /// A multi-round instance declared zero rounds.
    EmptyInstance,
    /// A seller's availability window is inverted (`t⁻ > t⁺`).
    InvalidWindow {
        /// Window start.
        start: u64,
        /// Window end.
        end: u64,
    },
    /// A seller submitted two bids with the same bid id in one round.
    DuplicateBidId {
        /// The offending seller's index.
        seller: usize,
        /// The duplicated bid id.
        bid: usize,
    },
}

impl fmt::Display for AuctionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuctionError::InfeasibleDemand { demand, supply } => {
                write!(
                    f,
                    "demand of {demand} units exceeds coverable supply of {supply}"
                )
            }
            AuctionError::ZeroAmountBid => write!(f, "bid offers zero resource units"),
            AuctionError::InvalidPrice(p) => write!(f, "bid price {p} is not a valid price"),
            AuctionError::UnknownSeller(i) => write!(f, "bid references undeclared seller {i}"),
            AuctionError::DuplicateSeller(i) => write!(f, "seller table lists seller {i} twice"),
            AuctionError::EmptyInstance => write!(f, "instance has no rounds"),
            AuctionError::InvalidWindow { start, end } => {
                write!(f, "availability window [{start}, {end}] is inverted")
            }
            AuctionError::DuplicateBidId { seller, bid } => {
                write!(
                    f,
                    "seller {seller} submitted bid id {bid} twice in one round"
                )
            }
        }
    }
}

impl Error for AuctionError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_carry_detail() {
        let e = AuctionError::InfeasibleDemand {
            demand: 40,
            supply: 12,
        };
        assert!(e.to_string().contains("40"));
        assert!(e.to_string().contains("12"));
        assert!(AuctionError::InvalidPrice(-2.0).to_string().contains("-2"));
    }

    #[test]
    fn error_trait_bounds() {
        fn assert_bounds<E: Error + Send + Sync + 'static>() {}
        assert_bounds::<AuctionError>();
    }
}
