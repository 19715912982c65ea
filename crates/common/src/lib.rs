//! Shared foundation types for the `edge-market` workspace.
//!
//! This crate holds the vocabulary every other crate speaks:
//!
//! * [`id`] — strongly-typed identifiers for microservices, edge clouds,
//!   users, bids, and rounds, so a `MicroserviceId` can never be confused
//!   with a `UserId` at compile time.
//! * [`units`] — [`units::Price`] and [`units::Resource`]
//!   newtypes over `f64` with validated constructors and total-order
//!   helpers, so monetary and capacity quantities never mix silently.
//! * [`indicator`] — the three demand indicators of §III and
//!   [`indicator::ObservedIndicators`] masks over them, shared by the
//!   simulator's sensor-dropout events and the estimator's degraded
//!   mode.
//! * [`rng`] — seeded, stream-splittable random number generation so that
//!   every experiment in the repository is reproducible bit-for-bit.
//! * [`error`] — the small shared error type used by validated
//!   constructors.
//! * [`fork`] — the one fork–join ([`fork::fan_out`]) the payment
//!   replays and the figure sweeps run on, the once-per-process core
//!   count, and the thread-local test pin for both pools.
//!
//! # Examples
//!
//! ```
//! use edge_common::id::MicroserviceId;
//! use edge_common::units::{Price, Resource};
//!
//! # fn main() -> Result<(), edge_common::error::QuantityError> {
//! let seller = MicroserviceId::new(3);
//! let offer = Resource::new(12.5)?;
//! let ask = Price::new(21.0)?;
//! assert_eq!(format!("{seller} offers {offer} for {ask}"),
//!            "ms#3 offers 12.5u for $21.00");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod error;
pub mod fork;
pub mod id;
pub mod indicator;
pub mod rng;
pub mod units;

pub use error::QuantityError;
pub use id::{BidId, EdgeCloudId, MicroserviceId, PlatformId, Round, UserId};
pub use indicator::{Indicator, ObservedIndicators};
pub use rng::{derive_rng, fnv1a64, seeded_rng, DeterministicRng};
pub use units::{Price, Resource};
