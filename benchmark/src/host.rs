//! Host-speed rescaling for compute-bound timings.
//!
//! The benchmark runs on small shared virtual machines whose CPU speed
//! drifts by tens of percent for seconds to minutes at a time (another
//! tenant on the sibling hyperthread, frequency changes). Thread CPU
//! time drifts with it, so it is no remedy. Instead a fixed probe — the
//! benchmark's own code, never the program's — is timed between
//! operations, and each compute-bound operation's wall time is rescaled
//! by `PROBE_REF_MS / probe`, the probe averaged over the readings just
//! before and just after it. On an undisturbed host the probe reads
//! about `PROBE_REF_MS` and the rescaled time is the wall time.
//!
//! Rescaling tracks drifts that last seconds or more. Shorter bursts
//! slow some operations more than the probe: an operation whose probe
//! read more than [`DISTURBED`] times the run's median is left out of
//! the latency and throughput statistics (it is still checked and
//! counted as attempted), and the run measures more operations in its
//! place.

use crate::gen::SplitMix64;
use crate::layers::{self, Sample};
use crate::stats::{median, ms, quantile};
use crate::Outcome;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// What the probe takes on an undisturbed host of the kind the
/// benchmark was calibrated on (2-vCPU x86-64 VM), ms.
pub const PROBE_REF_MS: f64 = 1.75;

/// One probe pass: sort pseudo-random keys, build and query an ordered
/// map, and format small JSON records into a string-keyed map — the
/// kinds of work the engine, the service and the federation do. (The
/// string half matters: without it, federation runs slowed half as much
/// again as the probe under the same disturbance.)
fn probe_pass() -> Duration {
    let start = Instant::now();
    let mut rng = SplitMix64::new(7, 7);
    let mut keys: Vec<u64> = (0..16_384).map(|_| rng.next_u64()).collect();
    keys.sort_unstable();
    let map: BTreeMap<u64, u64> = keys.iter().step_by(4).map(|&k| (k, k >> 7)).collect();
    let hits: u64 = keys.iter().filter_map(|k| map.get(k)).sum();
    let records: BTreeMap<String, u64> = (0..1_500u64)
        .map(|i| {
            let (seller, price) = (rng.below(500), 10.0 * rng.unit());
            (
                format!("{{\"seller\":{seller},\"bid\":{i},\"price\":{price:.4}}}"),
                i,
            )
        })
        .collect();
    std::hint::black_box((hits, records));
    start.elapsed()
}

/// The probe, ms: the median of three passes.
pub fn probe_ms() -> f64 {
    median(&[ms(probe_pass()), ms(probe_pass()), ms(probe_pass())])
}

/// An operation whose probe read more than this many times the run's
/// median probe ran on a disturbed host.
pub const DISTURBED: f64 = 1.15;

/// A compute-bound operation's timing.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub wall: Duration,
    /// Wall time rescaled to the reference host speed, ms.
    pub scaled_ms: f64,
    /// The probe the rescaling used, ms.
    probe_ms: f64,
}

/// Times operations between probe readings.
#[derive(Debug)]
pub struct Host {
    last_probe_ms: f64,
    readings: Vec<f64>,
}

impl Host {
    pub fn new() -> Self {
        let first = probe_ms();
        Host {
            last_probe_ms: first,
            readings: vec![first],
        }
    }

    /// Median probe reading so far, ms.
    pub fn median_probe_ms(&self) -> f64 {
        median(&self.readings)
    }

    /// Runs and times `f`, then reads the probe again.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timing) {
        let start = Instant::now();
        let out = f();
        let wall = start.elapsed();
        (out, self.rescale(wall))
    }

    /// Rescales `wall`, measured since the last probe reading, and
    /// reads the probe again.
    pub fn rescale(&mut self, wall: Duration) -> Timing {
        let before = self.last_probe_ms;
        self.last_probe_ms = probe_ms();
        self.readings.push(self.last_probe_ms);
        let probe = (before + self.last_probe_ms) / 2.0;
        Timing {
            wall,
            scaled_ms: ms(wall) * PROBE_REF_MS / probe,
            probe_ms: probe,
        }
    }

    fn disturbed(&self, t: &Timing) -> bool {
        t.probe_ms > DISTURBED * self.median_probe_ms()
    }

    /// Whether a run that started at `start` should time another
    /// operation: at least `min` operations, then until `budget` has
    /// passed and `min` of them ran undisturbed, but not past one and a
    /// half budgets.
    pub fn more(&self, ops: &[Op], min: usize, start: Instant, budget: Duration) -> bool {
        let elapsed = start.elapsed();
        let undisturbed = || ops.iter().filter(|o| !self.disturbed(&o.timing)).count();
        ops.len() < min
            || (elapsed < budget.mul_f64(1.5) && (elapsed < budget || undisturbed() < min))
    }

    /// Reports a run's operations: `latency_p50_ms` and the `tail`
    /// percentile over the untraced undisturbed ones, `throughput_per_s`
    /// as their work per rescaled second, and, when some were traced,
    /// the per-layer medians and the tracing overhead.
    pub fn summarize(&self, out: &mut Outcome, ops: &[Op], tail: f64) {
        let (kept, disturbed): (Vec<&Op>, Vec<&Op>) =
            ops.iter().partition(|o| !self.disturbed(&o.timing));
        let untraced: Vec<&Op> = kept
            .iter()
            .copied()
            .filter(|o| o.sample.is_none())
            .collect();
        let latency: Vec<f64> = untraced.iter().map(|o| o.timing.scaled_ms).collect();
        let busy_s: f64 = latency.iter().sum::<f64>() / 1e3;
        out.set("latency_p50_ms", median(&latency));
        out.set("latency_tail_ms", quantile(&latency, tail));
        out.set(
            "throughput_per_s",
            untraced.iter().map(|o| o.work).sum::<f64>() / busy_s,
        );
        let (traced_ms, samples): (Vec<f64>, Vec<Sample>) = kept
            .iter()
            .filter_map(|o| Some((o.timing.scaled_ms, o.sample.clone()?)))
            .unzip();
        if !samples.is_empty() {
            out.set_all(layers::medians(&samples));
            out.set_overhead(median(&traced_ms), median(&latency));
            out.folded = layers::folded(&samples);
        }
        let wall: Vec<f64> = ops
            .iter()
            .filter(|o| o.sample.is_none())
            .map(|o| ms(o.timing.wall))
            .collect();
        out.note(format!(
            "{} operations ({} traced), {} left out as host-disturbed; tail = p{}; \
             untraced wall p50 {:.3} ms, tail {:.3} ms; median host probe {:.4} ms",
            ops.len(),
            ops.iter().filter(|o| o.sample.is_some()).count(),
            disturbed.len(),
            tail * 100.0,
            median(&wall),
            quantile(&wall, tail),
            self.median_probe_ms()
        ));
    }
}

/// One timed operation of a run.
#[derive(Debug, Clone)]
pub struct Op {
    pub timing: Timing,
    /// Work done, in the unit `throughput_per_s` counts.
    pub work: f64,
    /// The folded span tree when the operation was traced.
    pub sample: Option<Sample>,
}
