//! Per-round metrics — the observables the demand estimator consumes.
//!
//! §III of the paper characterizes a microservice's demand by three
//! factors derived from runtime observation: waiting time (`θ_i/π_i`),
//! processing rate surplus (`ς_i − ϖ_i`), and request rate (allocation
//! share, execution rate `𝕃_i^t`, and neighbor density `𝒱(n̄)`). The
//! engine emits one [`MsMetrics`] per microservice per round with all of
//! those ingredients; [`MetricsHub`] stores the history behind a
//! `RwLock` so experiment harnesses can read concurrently while the
//! simulation advances.

use edge_common::id::{MicroserviceId, Round};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};

/// One microservice's observables for one round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MsMetrics {
    /// Which microservice.
    pub ms: MicroserviceId,
    /// Which round.
    pub round: Round,
    /// Resource allocation held this round (`a_i^t`).
    pub allocation: f64,
    /// Largest allocation held by any co-located microservice this round
    /// (`a_max`).
    pub max_allocation: f64,
    /// Lifetime requests received (`π_i`).
    pub received_total: u64,
    /// Lifetime requests served (`θ_i`).
    pub served_total: u64,
    /// Requests that arrived this round.
    pub received_round: u64,
    /// Requests completed this round.
    pub served_round: u64,
    /// Requests still queued after this round.
    pub queue_len: usize,
    /// Work still queued after this round, in resource-rounds.
    pub queued_work: f64,
    /// Lifetime work arrived (used for the desired processing rate `ς_i`).
    pub work_arrived_total: f64,
    /// Lifetime work completed (used for the achieved rate `ϖ_i`).
    pub work_done_total: f64,
    /// Fraction of this round's allocation actually used (`𝕃_i^t`,
    /// clamped to `[0, 1]`).
    pub utilization: f64,
    /// Number of co-located microservices with non-empty queues
    /// (`𝒱(n̄)`, the "density of neighbouring microservices served").
    pub neighbors_active: usize,
    /// Mean waiting time per served request so far, in rounds.
    pub mean_waiting: f64,
}

/// Thread-safe store of per-round metrics.
#[derive(Debug, Default)]
pub struct MetricsHub {
    rounds: RwLock<Vec<Vec<MsMetrics>>>,
}

impl MetricsHub {
    /// Creates an empty hub behind an `Arc` for sharing with readers.
    pub fn new() -> Arc<Self> {
        Arc::new(MetricsHub::default())
    }

    /// Shared access to the history. A writer that panicked mid-push
    /// leaves whole rounds only, so a poisoned lock is read as is.
    fn read(&self) -> RwLockReadGuard<'_, Vec<Vec<MsMetrics>>> {
        self.rounds.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends one round of metrics.
    pub fn record_round(&self, batch: Vec<MsMetrics>) {
        self.rounds
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .push(batch);
    }

    /// Number of recorded rounds.
    pub fn num_rounds(&self) -> usize {
        self.read().len()
    }

    /// A copy of the latest round's metrics (empty before the first
    /// round).
    pub fn latest(&self) -> Vec<MsMetrics> {
        self.read().last().cloned().unwrap_or_default()
    }

    /// A copy of one round's metrics.
    pub fn at_round(&self, round: Round) -> Vec<MsMetrics> {
        self.read()
            .get(round.index() as usize)
            .cloned()
            .unwrap_or_default()
    }

    /// The metric series of one microservice across all recorded rounds.
    pub fn series_for(&self, ms: MicroserviceId) -> Vec<MsMetrics> {
        self.read()
            .iter()
            .filter_map(|batch| batch.iter().find(|m| m.ms == ms).cloned())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(ms: usize, round: u64) -> MsMetrics {
        MsMetrics {
            ms: MicroserviceId::new(ms),
            round: Round::new(round),
            allocation: 1.0,
            max_allocation: 2.0,
            received_total: 10,
            served_total: 8,
            received_round: 2,
            served_round: 1,
            queue_len: 2,
            queued_work: 0.5,
            work_arrived_total: 4.0,
            work_done_total: 3.5,
            utilization: 0.8,
            neighbors_active: 3,
            mean_waiting: 1.5,
        }
    }

    #[test]
    fn records_and_reads_rounds() {
        let hub = MetricsHub::new();
        hub.record_round(vec![sample(0, 0), sample(1, 0)]);
        hub.record_round(vec![sample(0, 1)]);
        assert_eq!(hub.num_rounds(), 2);
        assert_eq!(hub.latest().len(), 1);
        assert_eq!(hub.at_round(Round::new(0)).len(), 2);
        assert!(hub.at_round(Round::new(5)).is_empty());
    }

    #[test]
    fn a_poisoned_hub_still_records_and_reads() {
        let hub = MetricsHub::new();
        hub.record_round(vec![sample(0, 0)]);
        let writer = Arc::clone(&hub);
        let died = std::thread::spawn(move || {
            let _guard = writer.rounds.write().unwrap();
            panic!("a writer dies holding the lock");
        })
        .join();
        assert!(died.is_err() && hub.rounds.is_poisoned());
        hub.record_round(vec![sample(0, 1)]);
        assert_eq!(hub.num_rounds(), 2);
        assert_eq!(hub.latest(), vec![sample(0, 1)]);
    }

    #[test]
    fn series_extracts_one_microservice() {
        let hub = MetricsHub::new();
        hub.record_round(vec![sample(0, 0), sample(1, 0)]);
        hub.record_round(vec![sample(0, 1), sample(1, 1)]);
        let series = hub.series_for(MicroserviceId::new(1));
        assert_eq!(series.len(), 2);
        assert!(series.iter().all(|m| m.ms == MicroserviceId::new(1)));
    }

    #[test]
    fn concurrent_readers_do_not_block_each_other() {
        let hub = MetricsHub::new();
        hub.record_round(vec![sample(0, 0)]);
        let a = hub.clone();
        let b = hub.clone();
        let t = std::thread::spawn(move || a.latest().len());
        let n = b.latest().len();
        assert_eq!(t.join().unwrap(), n);
    }

    #[test]
    fn empty_hub_yields_empty_views() {
        let hub = MetricsHub::new();
        assert_eq!(hub.num_rounds(), 0);
        assert!(hub.latest().is_empty());
        assert!(hub.series_for(MicroserviceId::new(0)).is_empty());
    }
}
