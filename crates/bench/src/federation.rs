//! The `fed-faults` benchmark (`BENCH_federation.json`): federation
//! outcomes as the network degrades.
//!
//! Not a paper figure — the machine-readable evidence for PR 7's
//! partition-tolerant re-selling. A 3-platform federation with a
//! deliberately tight economy (so demand shortfalls actually occur)
//! runs under a grid of seeded [`NetFaultPlan`]s: message drop
//! probability × a mid-run partition of one platform × retries on/off
//! (the recovery axis). Each cell records the cross-platform fill rate,
//! total platform cost, deal/fault counters, and the combined
//! fed/net digest; because every plan is seeded, the whole report is a
//! pure function of its parameters, and CI diffs two independent runs.

use crate::table::Table;
use edge_auction::bid::{Bid, Seller};
use edge_auction::federation::{FederationConfig, FederationSim};
use edge_auction::msoa::{MultiRoundInstance, RoundInput};
use edge_auction::service::ServiceConfig;
use edge_common::id::{BidId, MicroserviceId};
use edge_common::rng::derive_rng;
use edge_net::{NetFaultPlan, PartitionWindow};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Schema identifier written into `BENCH_federation.json`.
pub const FEDERATION_SCHEMA: &str = "edge-market/bench-federation/v1";

/// Drop probabilities swept (the x-axis).
pub const FED_DROPS: [f64; 4] = [0.0, 0.1, 0.3, 0.5];

/// Platforms in the federation.
pub const FED_PLATFORMS: usize = 3;

/// One measured cell: a (drop, partition, retries) triple.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FederationCell {
    /// Per-message drop probability on every link.
    pub drop_probability: f64,
    /// Whether platform 2 was partitioned away mid-run (heals later).
    pub partition: bool,
    /// Whether timed-out offers were retried (the recovery axis).
    pub retries: bool,
    /// Platforms in the run.
    pub platforms: usize,
    /// Logical ticks the run took to settle.
    pub ticks: u64,
    /// Cross-platform fill rate: filled units / deficit units.
    pub fill_rate: f64,
    /// Total platform cost: local auction payments + cross-platform
    /// purchases − resale revenue, summed over platforms.
    pub platform_cost: f64,
    /// Demand units no platform could cover locally.
    pub deficit_units: u64,
    /// Units actually bought cross-platform.
    pub filled_units: u64,
    /// Deals opened / filled / aborted / left unresolved.
    pub deals_opened: u64,
    /// Deals that completed with an acknowledged fill.
    pub deals_filled: u64,
    /// Deals given up after exhausting retries.
    pub deals_aborted: u64,
    /// Deals stuck in the commit phase at the end of the run.
    pub deals_unresolved: u64,
    /// Fills booked after the buyer had already given up (partition
    /// heal reconciliation).
    pub late_fills: u64,
    /// Offer/commit retransmissions sent.
    pub retries_sent: u64,
    /// Messages the network dropped (loss + partition).
    pub dropped_messages: u64,
    /// Messages delivered.
    pub delivered_messages: u64,
    /// Stages a partitioned platform cleared local-only.
    pub local_only_stages: u64,
    /// Combined fed-log × net-tape digest (hex) — the determinism
    /// witness CI diffs across runs and thread counts.
    pub outcome_digest: String,
}

/// The full report serialized to `BENCH_federation.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FederationReport {
    /// Schema identifier ([`FEDERATION_SCHEMA`]).
    pub schema: String,
    /// Base service seed behind every cell.
    pub seed: u64,
    /// Measured cells in sweep order.
    pub cells: Vec<FederationCell>,
}

/// The tight-economy provider: per-stage demand is allowed to outrun
/// feasible supply so cross-platform deals actually occur. Seeded per
/// `(service seed, stage)` — a pure function, like every provider the
/// event-sourced service accepts.
pub fn tight_provider(config: ServiceConfig) -> impl FnMut(u64, u64) -> MultiRoundInstance {
    move |stage, rounds| {
        let mut rng = derive_rng(config.seed.wrapping_add(stage), "bench-fed");
        let n = config.microservices.max(1);
        let rounds = rounds.max(1);
        let sellers: Vec<Seller> = (0..n)
            .map(|s| Seller::new(MicroserviceId::new(s), 8, (0, rounds - 1)).expect("window"))
            .collect();
        let inputs: Vec<RoundInput> = (0..rounds)
            .map(|_| {
                let bids: Vec<Bid> = (0..n)
                    .map(|s| {
                        let amount = 1 + rng.gen_range(0..3u64);
                        let price = rng.gen_range(5.0..20.0);
                        Bid::new(MicroserviceId::new(s), BidId::new(0), amount, price)
                            .expect("valid bid")
                    })
                    .collect();
                let demand = rng.gen_range(1..=config.requests.max(1));
                RoundInput::new(demand, demand, bids)
            })
            .collect();
        MultiRoundInstance::new(sellers, inputs).expect("valid instance")
    }
}

/// The base per-platform service config for the sweep.
fn base_config(seed: u64) -> ServiceConfig {
    ServiceConfig {
        seed,
        microservices: 4,
        requests: 18,
        total_rounds: 12,
        stage_rounds: 2,
        book_cap: 256,
        demand_cap: 100_000,
    }
}

/// The seeded plan for one cell.
fn cell_plan(seed: u64, drop: f64, partition: bool) -> NetFaultPlan {
    let mut plan = NetFaultPlan::ideal(seed);
    plan.link.latency_min = 1;
    plan.link.latency_max = 3;
    plan.link.drop_probability = drop;
    plan.link.duplicate_probability = 0.05;
    plan.link.reorder_probability = 0.10;
    plan.link.reorder_max_extra = 2;
    if partition {
        // Platform 2 vanishes for a stretch of the run, then heals —
        // long enough to strand deals and force local-only clearing.
        plan.partitions.push(PartitionWindow {
            from: 4,
            until: 20,
            isolated: 2,
        });
    }
    plan
}

/// Runs one cell of the sweep.
fn run_cell(seed: u64, drop: f64, partition: bool, retries: bool) -> FederationCell {
    let mut config = FederationConfig::uniform(base_config(seed), FED_PLATFORMS);
    config.retries_enabled = retries;
    let plan = cell_plan(seed.wrapping_mul(31).wrapping_add(7), drop, partition);
    let mut sim =
        FederationSim::new(config, plan, |_, c| tight_provider(c)).expect("valid bench federation");
    let outcome = sim.run(None).expect("bench federation settles");

    let sum = |f: fn(&edge_auction::federation::NodeCounters) -> u64| -> u64 {
        outcome.nodes.iter().map(|n| f(&n.counters)).sum()
    };
    FederationCell {
        drop_probability: drop,
        partition,
        retries,
        platforms: FED_PLATFORMS,
        ticks: outcome.ticks,
        fill_rate: outcome.fill_rate(),
        platform_cost: outcome.platform_cost(),
        deficit_units: sum(|c| c.deficit_units),
        filled_units: sum(|c| c.filled_units),
        deals_opened: sum(|c| c.deals_opened),
        deals_filled: sum(|c| c.deals_filled),
        deals_aborted: sum(|c| c.deals_aborted),
        deals_unresolved: sum(|c| c.deals_unresolved),
        late_fills: sum(|c| c.late_fills),
        retries_sent: sum(|c| c.retries),
        dropped_messages: outcome.net.dropped_loss + outcome.net.dropped_partition,
        delivered_messages: outcome.net.delivered,
        local_only_stages: sum(|c| c.local_only_stages),
        outcome_digest: outcome.digest_hex(),
    }
}

/// Runs the full fed-faults sweep: [`FED_DROPS`] × partition on/off ×
/// retries on/off, at the given base seed.
pub fn run_federation_sweep(seed: u64) -> FederationReport {
    // The sweep is one span: its shape as counters, its wall time as the
    // span's own. Each drop × partition × retries combination is a
    // point, run at one seed.
    let _span = edge_telemetry::spans::enter("fed-faults");
    let mut cells = Vec::new();
    {
        // Keep the sims' interior spans out of the sweep's.
        let _quiet = edge_telemetry::spans::suppress_tree();
        for &drop in &FED_DROPS {
            for &partition in &[false, true] {
                for &retries in &[true, false] {
                    cells.push(run_cell(seed, drop, partition, retries));
                }
            }
        }
    }
    edge_telemetry::spans::ctr("points", cells.len() as u64);
    edge_telemetry::spans::ctr("seeds", 1);
    edge_telemetry::spans::ctr("cells", cells.len() as u64);
    FederationReport {
        schema: FEDERATION_SCHEMA.to_string(),
        seed,
        cells,
    }
}

impl FederationReport {
    /// Renders the human-readable summary table.
    pub fn render(&self) -> String {
        let mut t = Table::new([
            "drop",
            "partition",
            "retries",
            "fill rate",
            "cost",
            "deficit",
            "filled",
            "aborted",
            "late",
            "dropped msgs",
            "digest",
        ]);
        for c in &self.cells {
            t.push([
                format!("{:.2}", c.drop_probability),
                if c.partition { "on" } else { "off" }.to_owned(),
                if c.retries { "on" } else { "off" }.to_owned(),
                format!("{:.3}", c.fill_rate),
                format!("{:.1}", c.platform_cost),
                c.deficit_units.to_string(),
                c.filled_units.to_string(),
                c.deals_aborted.to_string(),
                c.late_fills.to_string(),
                c.dropped_messages.to_string(),
                c.outcome_digest.clone(),
            ]);
        }
        t.render()
    }

    /// Serializes the report as pretty JSON (the
    /// `BENCH_federation.json` payload).
    pub fn to_json(&self) -> String {
        crate::table::to_json(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_deterministic_and_deals_flow() {
        let a = run_federation_sweep(7);
        let b = run_federation_sweep(7);
        assert_eq!(a.to_json(), b.to_json(), "seeded sweep must reproduce");
        assert_eq!(a.cells.len(), FED_DROPS.len() * 4);
        // On the clean network with retries, deals open and fill.
        let clean = &a.cells[0];
        assert_eq!(clean.drop_probability, 0.0);
        assert!(clean.deals_opened > 0, "tight economy must open deals");
        assert!(clean.fill_rate > 0.0, "clean network must fill deals");
        assert!(a.render().contains("fill rate"));
        assert!(a.to_json().contains(FEDERATION_SCHEMA));
    }

    #[test]
    fn partition_forces_local_only_clearing() {
        let report = run_federation_sweep(7);
        let partitioned: Vec<_> = report.cells.iter().filter(|c| c.partition).collect();
        assert!(
            partitioned.iter().any(|c| c.local_only_stages > 0),
            "a partitioned platform must clear some stages local-only"
        );
        assert!(
            report
                .cells
                .iter()
                .any(|c| c.partition && c.dropped_messages > 0),
            "partitions must drop messages"
        );
    }
}
