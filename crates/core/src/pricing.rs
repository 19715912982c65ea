//! The critical-value pricing pool.
//!
//! Every winner's payment replay is independent of the others (each
//! replays the auction with a different seller excluded), so the payment
//! phase fans the replays out on [`edge_common::fork::fan_out`] and
//! merges the results back **in winner order**. Determinism is preserved
//! by construction: workers only *compute* — thresholds, provenance, and
//! counter deltas — while all trace emission, stats absorption, and
//! outcome assembly happen on the calling thread in the same order as
//! the sequential path. A pool of one takes the exact sequential code
//! path with no spawning at all.
//!
//! # Pool sizing
//!
//! Each payment phase chooses its own pool; there is no setting. One
//! pure rule ([`pool_threads`]) takes three inputs:
//!
//! * the host's core count, read once per process
//!   ([`edge_common::fork::cores`]);
//! * the cost of spawning one scoped worker, probed once per process
//!   ([`spawn_overhead_ns`]);
//! * the phase's own work estimate: each replay is priced at half the
//!   real greedy run it replays (a replay answers the prefix before its
//!   winner in O(1) and re-runs the rest), timed around that run.
//!
//! A worker is added only when its share of the work is at least
//! [`SPAWN_AMORTIZATION`] spawn costs, and only when it gets at least
//! [`MIN_REPLAYS_PER_WORKER`] replays. The second bound is deterministic
//! on purpose: a scheduler stall inside a microsecond greedy run would
//! otherwise make a tiny stage look large, and the first thread a
//! process spawns switches glibc's allocator out of its single-threaded
//! fast path for the rest of the process — an allocation-heavy run of
//! tiny stages (a federation) would pay for a spawn it never needed. So
//! a stage of a few winners never spawns, not even to probe, and a
//! one-core host never does. Nothing carries from one auction to the
//! next: the same auction gets the same pool wherever in the process it
//! runs. The replay batch follows from the pool that was chosen
//! ([`replay_batch`]). Pool size and batch geometry are
//! outcome-neutral (the differential suites prove byte-identical traces
//! at every combination pinned through `edge_common::fork::pinned`),
//! so a measured, machine-dependent choice is safe where anything
//! observable would not be. That is also why neither is part of
//! [`crate::ssam::SsamConfig`], whose serialized form is folded into
//! event-log header digests.

use edge_common::fork;
use std::sync::OnceLock;

/// A worker is only added when its estimated share of the work is at
/// least this multiple of the measured spawn overhead.
const SPAWN_AMORTIZATION: u64 = 8;

/// Fewest payment replays a worker takes: below two workers' worth the
/// whole phase is a few hundred greedy steps, which no spawn can beat.
const MIN_REPLAYS_PER_WORKER: usize = 16;

/// Most winners one replay batch holds.
const MAX_BATCH: usize = 64;

/// The spawn probe's reading, once a payment phase large enough to
/// need it has run.
static SPAWN_NS: OnceLock<u64> = OnceLock::new();

/// Measured cost of spawning and joining one scoped worker thread,
/// probed once per process, at the first payment phase that could use a
/// second worker. The probe itself is cheap (a handful of trivial
/// spawns) and never observable in outcomes: it only shapes the pool
/// size, which is proven outcome-neutral.
fn spawn_overhead_ns() -> u64 {
    *SPAWN_NS.get_or_init(|| {
        const SPAWNS: u32 = 4;
        let start = std::time::Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..SPAWNS {
                scope.spawn(|| std::hint::black_box(0u64));
            }
        });
        let per_spawn = start.elapsed().as_nanos() as u64 / u64::from(SPAWNS);
        // An impossibly fast clock reads as a conservative floor, so the
        // pool stays shy of over-threading.
        per_spawn.max(1_000)
    })
}

/// The pool-sizing rule: workers for `units` independent work units
/// totalling `work_ns`, on `cores` cores where one spawn costs
/// `spawn_ns`. At most one worker per core and per unit, and one more
/// only when each worker's share covers [`SPAWN_AMORTIZATION`] spawns.
pub(crate) fn pool_threads(cores: usize, spawn_ns: u64, units: usize, work_ns: u64) -> usize {
    let useful = work_ns / spawn_ns.saturating_mul(SPAWN_AMORTIZATION).max(1);
    usize::try_from(useful)
        .unwrap_or(usize::MAX)
        .clamp(1, cores.min(units).max(1))
}

/// Winners per replay batch on a pool of `threads`: about four batches
/// per worker, so work stealing evens out uneven replays, and at most
/// [`MAX_BATCH`].
pub(crate) fn replay_batch(winners: usize, threads: usize) -> usize {
    (winners / (threads.max(1) * 4)).clamp(1, MAX_BATCH)
}

/// How one payment phase runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Pool {
    /// Worker threads; 1 runs every replay on the calling thread.
    pub threads: usize,
    /// Winners per replay batch.
    pub batch: usize,
}

/// The pool for `replays` payment replays of a greedy run that took
/// `greedy_ns`. The decision and its inputs are machine facts, recorded
/// on the current span's profile side only.
pub(crate) fn pool_for(replays: usize, greedy_ns: u64) -> Pool {
    let work_ns = (replays as u64).saturating_mul(greedy_ns / 2);
    let units = replays / MIN_REPLAYS_PER_WORKER;
    let cores = fork::cores();
    let (threads, batch) = match fork::pin() {
        Some((threads, batch)) => (threads.max(1), batch),
        // The rule would clamp to one worker anyway; skipping it keeps
        // the probe from spawning in a process of small stages.
        None if cores.min(units) < 2 => (1, None),
        None => (
            pool_threads(cores, spawn_overhead_ns(), units, work_ns),
            None,
        ),
    };
    let batch = batch.map_or_else(|| replay_batch(replays, threads), |b| b.max(1));
    if edge_telemetry::spans::is_enabled() {
        edge_telemetry::spans::diag_set("pool_threads", threads as u64);
        edge_telemetry::spans::diag_set("pool_units", units as u64);
        edge_telemetry::spans::diag_set("pool_work_ns", work_ns);
        edge_telemetry::spans::diag_set("pool_cores", cores as u64);
        if let Some(&spawn_ns) = SPAWN_NS.get() {
            edge_telemetry::spans::diag_set("pool_spawn_overhead_ns", spawn_ns);
        }
    }
    Pool { threads, batch }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edge_common::fork::pinned;

    #[test]
    fn pool_rule_table() {
        const SPAWN: u64 = 20_000;
        // (cores, units, work_ns) → workers.
        let cases: [(usize, usize, u64, usize); 7] = [
            // A tiny stage never amortizes a spawn.
            (8, 5, 10_000, 1),
            (8, 0, 0, 1),
            // One core is one worker, however large the stage.
            (1, 10_000, u64::MAX, 1),
            // A large stage gets min(cores, work / (8 × spawn cost)).
            (8, 10_000, 3 * 8 * SPAWN, 3),
            (8, 10_000, 3 * 8 * SPAWN + 8 * SPAWN - 1, 3),
            (2, 10_000, 100 * 8 * SPAWN, 2),
            // Never more workers than units.
            (8, 3, u64::MAX, 3),
        ];
        for (cores, units, work, want) in cases {
            assert_eq!(
                pool_threads(cores, SPAWN, units, work),
                want,
                "cores={cores} units={units} work={work}"
            );
        }
        // A zero spawn cost cannot divide by zero.
        assert_eq!(pool_threads(4, 0, 100, 1_000), 4);
    }

    #[test]
    fn a_stage_of_few_winners_stays_on_one_worker_whatever_its_clock_reads() {
        // A scheduler stall can make a microsecond greedy run read as
        // seconds; fewer than two workers' worth of replays still never
        // spawns.
        let few = 2 * MIN_REPLAYS_PER_WORKER - 1;
        assert_eq!(pool_for(few, u64::MAX).threads, 1);
        assert_eq!(pool_for(7, 10_000_000_000).threads, 1);
    }

    #[test]
    fn replay_batch_follows_the_pool() {
        assert_eq!(replay_batch(0, 1), 1);
        assert_eq!(replay_batch(16, 4), 1);
        assert_eq!(replay_batch(100, 1), 25);
        assert_eq!(replay_batch(100, 2), 12);
        assert_eq!(replay_batch(1_000, 1), MAX_BATCH, "capped");
    }

    #[test]
    fn pool_for_follows_the_pin() {
        // Scoping, nesting, unwinding and thread-locality of the pin are
        // `edge_common::fork`'s own tests; here a pinned pool wins over
        // the rule, and a pin without a batch derives it from the pool.
        let pool = |threads, batch| Pool { threads, batch };
        assert_eq!(pool_for(4, 0), pool(1, 1));
        assert_eq!(pinned(4, Some(2), || pool_for(100, 0)), pool(4, 2));
        assert_eq!(pinned(2, None, || pool_for(100, 0)), pool(2, 12));
        assert_eq!(pinned(0, Some(0), || pool_for(100, 0)), pool(1, 1));
        // Unpinned, a phase with no measured work runs sequentially.
        assert_eq!(pool_for(100, 0), pool(1, 25));
    }
}
