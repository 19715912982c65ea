//! Order statistics over timing samples.

use std::time::Duration;

/// Percentiles a tail may be reported at, lowest first.
const TAIL_LADDER: [f64; 5] = [0.75, 0.9, 0.95, 0.99, 0.999];

/// Samples a reported tail percentile must leave beyond it.
const BEYOND: usize = 10;

/// Nearest-rank index of quantile `q` among `n` sorted samples.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The highest percentile of the ladder that leaves at least ten of `n`
/// samples beyond it (p50 when even p75 does not).
pub fn tail_quantile(n: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&q| n.saturating_sub(rank(q, n) + 1) >= BEYOND)
        .unwrap_or(0.5)
}

/// Nearest-rank quantile `q` of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(q, sorted.len())]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail_quantile(40), 0.75);
        assert_eq!(tail_quantile(200), 0.95);
        assert_eq!(tail_quantile(5000), 0.99);
        assert_eq!(tail_quantile(39), 0.5);
        assert_eq!(tail_quantile(199), 0.9);
        assert_eq!(tail_quantile(20_000), 0.999);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        assert_eq!(quantile(&v, 0.75), 30.0);
        assert_eq!(median(&v), 20.0);
        assert_eq!(quantile(&v, 1.0), 40.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn reads_own_peak_rss() {
        assert!(peak_rss_mb() > 0.0);
    }
}
