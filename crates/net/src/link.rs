//! Per-link fault models with common-random-number draws.
//!
//! A [`LinkModel`] decides the fate of one message — dropped, delayed,
//! duplicated, pushed behind later traffic — from a dedicated RNG stream
//! derived from the message's identity `(seed, from, to, nth-on-link)`.
//! Every fate evaluation makes the **same number of draws in the same
//! order** regardless of which faults fire, so two plans sharing a seed
//! but differing in probabilities see *nested* fault sets: the
//! common-random-number discipline `edge_auction::recovery::FaultPlan`
//! established for seller faults, applied to the wire.

use edge_common::rng::DeterministicRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The stochastic behaviour of every link in a [`crate::Network`].
///
/// Latencies are logical ticks and must be at least one (a message can
/// never be delivered on the tick it was sent — the substrate's "no
/// instantaneous feedback" rule). Probabilities must be finite and in
/// `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkModel {
    /// Minimum delivery latency in ticks (≥ 1).
    pub latency_min: u64,
    /// Maximum delivery latency in ticks (≥ `latency_min`).
    pub latency_max: u64,
    /// Probability a message is silently lost at send time.
    pub drop_probability: f64,
    /// Probability a surviving message is delivered twice.
    pub duplicate_probability: f64,
    /// Probability a surviving message is pushed behind later traffic.
    pub reorder_probability: f64,
    /// Largest extra delay (ticks) a reordered message can incur; a
    /// reorder always adds at least one tick even when this is zero.
    pub reorder_max_extra: u64,
}

impl Default for LinkModel {
    /// The ideal link: exactly one tick of latency, no faults.
    fn default() -> Self {
        LinkModel {
            latency_min: 1,
            latency_max: 1,
            drop_probability: 0.0,
            duplicate_probability: 0.0,
            reorder_probability: 0.0,
            reorder_max_extra: 0,
        }
    }
}

/// What the link decided to do with one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageFate {
    /// Lost at send time; the sender gets no feedback.
    Dropped,
    /// Delivered after `delay` ticks; `duplicate_delay` carries the
    /// second copy's (strictly larger) delay when the message was
    /// duplicated.
    Delivered {
        /// Ticks until the primary copy arrives (≥ 1).
        delay: u64,
        /// Ticks until the duplicate copy arrives, if any.
        duplicate_delay: Option<u64>,
        /// True when the reorder model pushed this message behind later
        /// traffic (its extra delay is already folded into `delay`).
        reordered: bool,
    },
}

impl LinkModel {
    /// Checks ranges; called by [`crate::NetFaultPlan::validate`].
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.latency_min == 0 {
            return Err("latency_min must be at least 1 tick".to_owned());
        }
        if self.latency_min > self.latency_max {
            return Err(format!(
                "latency_min {} exceeds latency_max {}",
                self.latency_min, self.latency_max
            ));
        }
        for (name, p) in [
            ("drop_probability", self.drop_probability),
            ("duplicate_probability", self.duplicate_probability),
            ("reorder_probability", self.reorder_probability),
        ] {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} {p} outside [0, 1]"));
            }
        }
        Ok(())
    }

    /// Decides one message's fate from its dedicated RNG stream.
    ///
    /// Exactly six uniform draws are consumed — `(drop, latency,
    /// reorder, reorder-extra, duplicate, duplicate-extra)` — in that
    /// order, *unconditionally*. Because the draw count never depends
    /// on which indicators fire, plans sharing a seed but differing in
    /// probabilities nest: see the `crn_nesting` tests.
    pub fn fate(&self, rng: &mut DeterministicRng) -> MessageFate {
        let u_drop: f64 = rng.gen();
        let u_latency: f64 = rng.gen();
        let u_reorder: f64 = rng.gen();
        let u_reorder_extra: f64 = rng.gen();
        let u_duplicate: f64 = rng.gen();
        let u_duplicate_extra: f64 = rng.gen();

        if u_drop < self.drop_probability {
            return MessageFate::Dropped;
        }
        // `span` cannot overflow: validation keeps latency_min >= 1. The
        // extra delays saturate, so a huge latency pins a copy to the
        // last tick instead of wrapping it to an early one.
        let span = self.latency_max - self.latency_min + 1;
        let mut delay = self.latency_min + scale(u_latency, span);
        let reordered = u_reorder < self.reorder_probability;
        if reordered {
            delay = delay.saturating_add(1 + scale(u_reorder_extra, self.reorder_max_extra.max(1)));
        }
        let duplicate_delay = (u_duplicate < self.duplicate_probability)
            .then(|| delay.saturating_add(1 + scale(u_duplicate_extra, span)));
        MessageFate::Delivered {
            delay,
            duplicate_delay,
            reordered,
        }
    }
}

/// Maps a uniform draw to `0..n` (`0` when `n == 0`).
fn scale(u: f64, n: u64) -> u64 {
    ((u * n as f64) as u64).min(n.saturating_sub(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use edge_common::rng::derive_rng;

    fn fate_with(model: &LinkModel, seed: u64) -> MessageFate {
        model.fate(&mut derive_rng(seed, "link-test"))
    }

    #[test]
    fn ideal_link_is_one_tick_no_faults() {
        for seed in 0..50 {
            assert_eq!(
                fate_with(&LinkModel::default(), seed),
                MessageFate::Delivered {
                    delay: 1,
                    duplicate_delay: None,
                    reordered: false,
                }
            );
        }
    }

    #[test]
    fn drops_nest_as_probability_rises() {
        let low = LinkModel {
            drop_probability: 0.2,
            ..LinkModel::default()
        };
        let high = LinkModel {
            drop_probability: 0.6,
            ..LinkModel::default()
        };
        let mut low_drops = 0;
        for seed in 0..500 {
            let a = fate_with(&low, seed);
            let b = fate_with(&high, seed);
            if a == MessageFate::Dropped {
                low_drops += 1;
                assert_eq!(b, MessageFate::Dropped, "seed {seed}: drop did not nest");
            }
        }
        assert!(low_drops > 50, "drop model never fired");
    }

    #[test]
    fn latency_survives_probability_changes() {
        // Adding duplication must not perturb the latency of messages
        // that are delivered either way (fixed draw order).
        let plain = LinkModel {
            latency_min: 2,
            latency_max: 9,
            ..LinkModel::default()
        };
        let noisy = LinkModel {
            duplicate_probability: 0.5,
            ..plain
        };
        for seed in 0..200 {
            let (a, b) = (fate_with(&plain, seed), fate_with(&noisy, seed));
            if let (
                MessageFate::Delivered { delay: d1, .. },
                MessageFate::Delivered { delay: d2, .. },
            ) = (a, b)
            {
                assert_eq!(d1, d2, "seed {seed}: latency perturbed by duplication knob");
                assert!((2..=9).contains(&d1));
            }
        }
    }

    #[test]
    fn reorder_flag_marks_delayed_messages() {
        let model = LinkModel {
            reorder_probability: 1.0,
            reorder_max_extra: 2,
            ..LinkModel::default()
        };
        for seed in 0..50 {
            match fate_with(&model, seed) {
                MessageFate::Delivered {
                    delay, reordered, ..
                } => {
                    assert!(reordered);
                    assert!(delay >= 2, "a reorder always adds at least one tick");
                }
                other => panic!("expected delivery, got {other:?}"),
            }
        }
    }

    #[test]
    fn duplicate_copy_arrives_strictly_later() {
        let model = LinkModel {
            duplicate_probability: 1.0,
            latency_min: 1,
            latency_max: 4,
            ..LinkModel::default()
        };
        for seed in 0..100 {
            match fate_with(&model, seed) {
                MessageFate::Delivered {
                    delay,
                    duplicate_delay: Some(extra),
                    ..
                } => assert!(extra > delay),
                other => panic!("expected duplicated delivery, got {other:?}"),
            }
        }
    }
}
