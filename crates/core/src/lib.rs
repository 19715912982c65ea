//! `edge-auction` — online auction mechanisms for microservice resource
//! sharing in edge clouds.
//!
//! This crate is the primary contribution of *Incentivizing Microservices
//! for Online Resource Sharing in Edge Clouds* (Samanta, Jiao,
//! Mühlhäuser, Wang — IEEE ICDCS 2019), reimplemented as a reusable
//! library:
//!
//! * [`bid`] — bids `(a_ij^t, J_ij^t)` and seller profiles
//!   (capacity `Θ_i`, availability window `[t⁻, t⁺]`);
//! * [`wsp`] — the NP-hard single-round Winner Selection Problem
//!   (ILP 12) with conversions to exact solvers;
//! * [`ssam`] — **SSAM** (Algorithm 1): greedy primal–dual winner
//!   selection, Myerson critical-value payments, and the `π = H_X·Ξ`
//!   dual certificate of Theorem 3;
//! * [`msoa`] — **MSOA** (Algorithm 2): the multi-stage online framework
//!   with per-seller ψ price scaling and capacity protection,
//!   `αβ/(β−1)`-competitive (Theorem 7);
//! * [`recovery`] — MSOA under injected faults: deterministic fault
//!   plans (seller defaults, crash windows, sensor dropouts) and the
//!   platform's recovery policy (pro-rata clawback, reliability-scaled
//!   prices, blacklisting, bounded backfill re-auctions);
//! * [`chain_log`] — the digest-chained JSONL log codec behind the
//!   service event log and the federation log;
//! * [`service`] — the event-sourced auction service: a typed event
//!   vocabulary, an append-only digest-chained event log, and a pure
//!   state machine that replays any recorded run byte-identically;
//! * [`federation`] — multi-platform re-selling over the `edge-net`
//!   substrate: the two-phase deal protocol, digest-chained fed logs,
//!   causal span ids (`deal#hop`) on every message, and live
//!   `edge_fed_*` metric families;
//! * [`live`] — process-global live metric registration for the
//!   auction/recovery/sim layers (`edge_auction_*`, `edge_recovery_*`,
//!   `edge_sim_*`);
//! * [`variants`] — the MSOA-DA / MSOA-RC / MSOA-OA comparisons of
//!   Figure 5(a);
//! * [`offline`] — exact offline optima (covering DP per round,
//!   branch-and-bound for the full horizon) for performance ratios;
//! * [`baselines`] — fixed pricing, random selection, and a total-price
//!   greedy ablation;
//! * [`properties`] — executable audits of truthfulness, individual
//!   rationality, monotonicity, critical payments, and economic loss.
//!
//! # Examples
//!
//! A complete single-round auction:
//!
//! ```
//! use edge_auction::bid::Bid;
//! use edge_auction::wsp::WspInstance;
//! use edge_auction::ssam::{run_ssam, SsamConfig};
//! use edge_auction::offline::offline_optimum_round;
//! use edge_common::id::{BidId, MicroserviceId};
//!
//! # fn main() -> Result<(), edge_auction::AuctionError> {
//! let bids = vec![
//!     Bid::new(MicroserviceId::new(0), BidId::new(0), 3, 6.0)?,
//!     Bid::new(MicroserviceId::new(1), BidId::new(0), 2, 3.0)?,
//!     Bid::new(MicroserviceId::new(2), BidId::new(0), 4, 10.0)?,
//! ];
//! let instance = WspInstance::new(5, bids)?;
//! let outcome = run_ssam(&instance, &SsamConfig::default())?;
//! let optimum = offline_optimum_round(&instance).expect("feasible");
//! let ratio = outcome.social_cost.value() / optimum;
//! assert!(ratio >= 1.0 && ratio <= outcome.certificate.pi);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod analysis;
pub(crate) mod arena;
pub mod baselines;
pub mod bid;
pub mod budget;
pub mod chain_log;
pub mod error;
pub mod federation;
pub mod live;
pub mod msoa;
pub mod msoa_multi;
pub mod multi_buyer;
pub mod offline;
pub mod pricing;
pub mod properties;
pub mod recovery;
pub mod service;
pub mod ssam;
pub mod variants;
pub mod vcg;
pub mod wsp;

pub use analysis::{compare_with_vcg, welfare_report, OverpaymentReport, WelfareReport};
pub use baselines::{run_fixed_price, run_price_greedy, run_random_selection, BaselineOutcome};
pub use bid::{Bid, Seller};
pub use budget::{required_budget, run_budgeted_ssam, BudgetedOutcome};
pub use error::AuctionError;
pub use msoa::{
    run_msoa, run_msoa_traced, MsoaConfig, MsoaOutcome, MsoaWinner, MultiRoundInstance, RoundInput,
    RoundResult,
};
pub use msoa_multi::{
    run_msoa_multi, run_msoa_multi_traced, MsoaMultiConfig, MsoaMultiOutcome, MultiBuyerRound,
    MultiBuyerRoundResult,
};
pub use multi_buyer::{
    run_ssam_multi, CoverBid, MultiBuyerOutcome, MultiBuyerWinner, MultiBuyerWsp,
};
pub use offline::{offline_optimum_multi, offline_optimum_round, per_round_dp_bound, OfflineBound};
pub use pricing::available_pricing_threads;
pub use properties::{
    audit_truthfulness, break_even_unit_charge, check_critical_payments,
    check_individual_rationality, check_monotonicity, economic_loss, TruthfulnessViolation,
};
pub use recovery::{
    run_msoa_with_faults, run_msoa_with_faults_traced, CrashWindow, DefaultEvent, DropoutWindow,
    FaultInjectionConfig, FaultPlan, FaultRound, FaultWinner, FaultyMsoaOutcome, RecoveryConfig,
};
pub use service::{
    parse_log, Applied, AuctionService, LogError, LogRecord, LogWriter, ParsedLog, ServiceConfig,
    ServiceError, ServiceEvent, StageSummary, LOG_VERSION,
};
pub use ssam::{
    run_ssam, run_ssam_traced, ArgminStats, CriticalSource, RatioCertificate, SsamConfig,
    SsamOutcome, SsamStats, WinningBid,
};
pub use variants::{run_variant, transform_instance, MsoaVariant};
pub use vcg::{run_vcg, VcgOutcome, VcgWinner};
pub use wsp::WspInstance;
