//! Live metric instrumentation for the auction layers.
//!
//! Every MSOA / recovery run reports per-round facts into the
//! process-global [`edge_telemetry::registry`] so a running
//! `edge-market serve` daemon can expose them at `/metrics`. The
//! handles here are looked up once per run (one registry lock per
//! family) and then bumped with relaxed atomics at the end of each
//! round — strictly *reads* of auction state, so recording can never
//! perturb an outcome or a deterministic trace.
//!
//! Pricing effort is the round's own [`SsamStats`] — the primary
//! auction's plus every backfill rung's — handed over by the round loop,
//! so the `edge_pricing_*` counters and per-round summaries are exact
//! even when several auctions run concurrently. Pricing wall-clock is
//! not a family here: the `pricing` span already times it into
//! `edge_profile_stage_ns{stage="pricing"}`.

use crate::ssam::SsamStats;
use edge_telemetry::registry::global;
use edge_telemetry::{Counter, Gauge, Summary};
use std::sync::Arc;

/// Registry handles for the plain-MSOA (auction + pricing) families.
#[derive(Debug)]
pub(crate) struct AuctionLive {
    rounds: Arc<Counter>,
    winners: Arc<Counter>,
    infeasible: Arc<Counter>,
    payment: Arc<Gauge>,
    social_cost: Arc<Gauge>,
    coverage: Arc<Gauge>,
    psi_max: Arc<Gauge>,
    saturation: Arc<Gauge>,
    replays: Arc<Counter>,
    replay_iterations: Arc<Counter>,
    prefix_iterations: Arc<Counter>,
    replays_per_round: Arc<Summary>,
    replay_iterations_per_round: Arc<Summary>,
    prefix_iterations_per_round: Arc<Summary>,
}

impl AuctionLive {
    /// Looks up (registering on first use) every auction family.
    pub(crate) fn handle() -> Self {
        let r = global();
        AuctionLive {
            rounds: r.counter(
                "edge_auction_rounds_total",
                "MSOA auction rounds completed",
                &[],
            ),
            winners: r.counter(
                "edge_auction_winners_total",
                "Winning bids across all rounds",
                &[],
            ),
            infeasible: r.counter(
                "edge_auction_infeasible_rounds_total",
                "Rounds where demand exceeded feasible supply",
                &[],
            ),
            payment: r.float_counter(
                "edge_auction_payment_total",
                "Accumulated critical-value payments (currency units)",
                &[],
            ),
            social_cost: r.float_counter(
                "edge_auction_social_cost_total",
                "Accumulated social cost of winning bids (currency units)",
                &[],
            ),
            coverage: r.gauge(
                "edge_auction_coverage_ratio",
                "Last round's supplied units over estimated demand",
                &[],
            ),
            psi_max: r.gauge(
                "edge_auction_psi_max",
                "Largest per-seller dual price scaler after the last round",
                &[],
            ),
            saturation: r.gauge(
                "edge_auction_capacity_saturation_ratio",
                "Consumed capacity over total capacity after the last round",
                &[],
            ),
            replays: r.counter(
                "edge_pricing_replays_total",
                "Myerson payment replays (one per winner per round)",
                &[],
            ),
            replay_iterations: r.counter(
                "edge_pricing_replay_iterations_total",
                "Greedy iterations executed across payment replays",
                &[],
            ),
            prefix_iterations: r.counter(
                "edge_pricing_prefix_iterations_total",
                "Replay iterations answered O(1) from the shared prefix",
                &[],
            ),
            replays_per_round: r.summary(
                "edge_pricing_replays_per_round",
                "Payment replays per auction round",
                &[],
            ),
            replay_iterations_per_round: r.summary(
                "edge_pricing_replay_iterations_per_round",
                "Replay iterations per auction round",
                &[],
            ),
            prefix_iterations_per_round: r.summary(
                "edge_pricing_prefix_iterations_per_round",
                "Prefix-answered iterations per auction round",
                &[],
            ),
        }
    }

    /// Records one finished round. `supplied` is the winners' total
    /// committed units; `chi_sum`/`capacity_sum` the consumed and total
    /// seller capacity after the round's ψ/χ updates; `pricing` the
    /// round's summed auction counters.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_round(
        &self,
        winners: usize,
        infeasible: bool,
        supplied: u64,
        demand: u64,
        payment: f64,
        social_cost: f64,
        psi_max: f64,
        chi_sum: u64,
        capacity_sum: u64,
        pricing: &SsamStats,
    ) {
        self.rounds.incr();
        self.winners.add(winners as u64);
        if infeasible {
            self.infeasible.incr();
        }
        self.payment.add(payment);
        self.social_cost.add(social_cost);
        self.coverage.set(if demand == 0 {
            1.0
        } else {
            supplied as f64 / demand as f64
        });
        self.psi_max.set(psi_max);
        self.saturation.set(if capacity_sum == 0 {
            0.0
        } else {
            chi_sum as f64 / capacity_sum as f64
        });
        self.replays.add(pricing.payment_replays);
        self.replay_iterations.add(pricing.replay_iterations);
        self.prefix_iterations.add(pricing.prefix_iterations);
        self.replays_per_round.observe(pricing.payment_replays);
        self.replay_iterations_per_round
            .observe(pricing.replay_iterations);
        self.prefix_iterations_per_round
            .observe(pricing.prefix_iterations);
    }
}

/// Registry handles for the fault-recovery families.
#[derive(Debug)]
pub(crate) struct RecoveryLive {
    defaults: Arc<Counter>,
    clawback: Arc<Gauge>,
    blacklist_size: Arc<Gauge>,
    sla_violations: Arc<Counter>,
    backfill_attempts: Arc<Counter>,
    shortfall_units: Arc<Counter>,
}

impl RecoveryLive {
    /// Looks up (registering on first use) every recovery family.
    pub(crate) fn handle() -> Self {
        let r = global();
        RecoveryLive {
            defaults: r.counter(
                "edge_recovery_defaults_total",
                "Winner settlements that under-delivered",
                &[],
            ),
            clawback: r.float_counter(
                "edge_recovery_clawback_total",
                "Payments clawed back pro-rata from defaulters (currency units)",
                &[],
            ),
            blacklist_size: r.gauge(
                "edge_recovery_blacklist_size",
                "Sellers currently blacklisted",
                &[],
            ),
            sla_violations: r.counter(
                "edge_recovery_sla_violations_total",
                "Rounds ending with unserved demand",
                &[],
            ),
            backfill_attempts: r.counter(
                "edge_recovery_backfill_attempts_total",
                "Backfill re-auction rungs attempted",
                &[],
            ),
            shortfall_units: r.counter(
                "edge_recovery_shortfall_units_total",
                "Demand units left unserved after backfill",
                &[],
            ),
        }
    }

    /// Records one finished fault-tolerant round.
    pub(crate) fn record_round(
        &self,
        defaults: u64,
        clawed_back: f64,
        blacklisted: usize,
        sla_violated: bool,
        backfill_attempts: u64,
        shortfall: u64,
    ) {
        self.defaults.add(defaults);
        self.clawback.add(clawed_back);
        self.blacklist_size.set(blacklisted as f64);
        if sla_violated {
            self.sla_violations.incr();
        }
        self.backfill_attempts.add(backfill_attempts);
        self.shortfall_units.add(shortfall);
    }
}

/// Registry handles for the event-sourced service families.
#[derive(Debug)]
pub(crate) struct ServiceLive {
    bid_submitted: Arc<Counter>,
    bid_withdrawn: Arc<Counter>,
    demand_reported: Arc<Counter>,
    round_closed: Arc<Counter>,
    seller_defaulted: Arc<Counter>,
    stages: Arc<Counter>,
    book_size: Arc<Gauge>,
}

impl ServiceLive {
    /// Looks up (registering on first use) every service family.
    pub(crate) fn handle() -> Self {
        let r = global();
        let events = |kind: &str| {
            r.counter(
                "edge_service_events_total",
                "Accepted service events by type",
                &[("type", kind)],
            )
        };
        ServiceLive {
            bid_submitted: events("bid_submitted"),
            bid_withdrawn: events("bid_withdrawn"),
            demand_reported: events("demand_reported"),
            round_closed: events("round_closed"),
            seller_defaulted: events("seller_defaulted"),
            stages: r.counter(
                "edge_service_stages_total",
                "Stage auctions completed by the event-sourced service",
                &[],
            ),
            book_size: r.gauge(
                "edge_service_book_size",
                "Standing bids on the service book",
                &[],
            ),
        }
    }

    /// Records one accepted event and the resulting book size.
    pub(crate) fn record_event(&self, kind: &str, book_len: usize) {
        match kind {
            "bid_submitted" => self.bid_submitted.incr(),
            "bid_withdrawn" => self.bid_withdrawn.incr(),
            "demand_reported" => self.demand_reported.incr(),
            "round_closed" => self.round_closed.incr(),
            _ => self.seller_defaulted.incr(),
        }
        self.book_size.set(book_len as f64);
    }

    /// Records one completed stage auction.
    pub(crate) fn record_stage(&self) {
        self.stages.incr();
    }
}

/// Registers every auction, pricing, recovery, and service family (at
/// zero) so a first `/metrics` scrape shows the full catalog before any
/// round has run. `edge-market serve` calls this on startup.
pub fn preregister() {
    let _ = AuctionLive::handle();
    let _ = RecoveryLive::handle();
    let _ = ServiceLive::handle();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preregister_exposes_all_families_at_zero() {
        preregister();
        let text = global().render();
        for family in [
            "edge_auction_rounds_total",
            "edge_auction_payment_total",
            "edge_auction_coverage_ratio",
            "edge_pricing_replays_total",
            "edge_pricing_replays_per_round",
            "edge_recovery_defaults_total",
            "edge_recovery_blacklist_size",
            "edge_service_events_total",
            "edge_service_book_size",
        ] {
            assert!(text.contains(family), "missing family {family}");
        }
        edge_telemetry::registry::validate_exposition(&text).expect("catalog validates");
    }

    #[test]
    fn record_round_accumulates() {
        let live = AuctionLive::handle();
        let before = live.rounds.get();
        let winners_before = live.winners.get();
        live.record_round(
            3,
            false,
            10,
            10,
            42.0,
            40.0,
            0.5,
            10,
            100,
            &SsamStats {
                payment_replays: 3,
                replay_iterations: 30,
                prefix_iterations: 20,
                ..SsamStats::default()
            },
        );
        assert_eq!(live.rounds.get(), before + 1);
        assert_eq!(live.winners.get(), winners_before + 3);
        assert_eq!(live.coverage.get(), 1.0);
        assert_eq!(live.saturation.get(), 0.1);
    }

    #[test]
    fn recovery_round_accumulates() {
        let live = RecoveryLive::handle();
        let before = live.sla_violations.get();
        live.record_round(1, 2.5, 4, true, 2, 7);
        assert_eq!(live.sla_violations.get(), before + 1);
        assert_eq!(live.blacklist_size.get(), 4.0);
    }
}
