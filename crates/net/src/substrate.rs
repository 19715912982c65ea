//! The deterministic network: logical clock, in-flight queue, event tape.
//!
//! [`Network`] is single-threaded and purely functional in (plan,
//! send-sequence): every message's fate comes from a dedicated RNG
//! stream derived from `(plan.seed, from, to, nth-message-on-link)`, so
//! a run is reproduced exactly by re-issuing the same sends in the same
//! order — which the federation driver guarantees by construction.
//!
//! Delivery order is total and deterministic: messages are queued under
//! `(deliver_at, send_seq)` and [`Network::tick`] drains everything due
//! at the new clock value in that order. Partitions are consulted twice
//! per message — at send time and again at delivery time — so a window
//! that opens while a message is in flight strands it (recorded as a
//! partition drop at the delivery tick).

use crate::live::NetLive;
use crate::plan::{NetConfigError, NetFaultPlan};
use edge_common::rng::{chain_genesis, chain_step, derive_rng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Domain separator for the network digest chain.
const NET_GENESIS: &str = "edge-net";
/// Tape format version folded into the genesis digest.
const NET_VERSION: u64 = 1;

/// Why a message never arrived.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DropReason {
    /// The link model lost it at send time.
    Loss,
    /// A partition window blocked it (at send or delivery time).
    Partition,
}

/// One entry on the network's append-only event tape.
///
/// Each event folds into the FNV-1a digest chain the moment it happens,
/// so [`Network::digest_hex`] commits to the complete network history —
/// payloads included (the `Sent` event carries the serialized payload).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NetEvent {
    /// A message entered the network.
    Sent {
        /// Clock value at send time.
        tick: u64,
        /// Global send sequence number.
        seq: u64,
        /// Sending node.
        from: usize,
        /// Receiving node.
        to: usize,
        /// The serialized payload (JSON).
        payload: String,
    },
    /// A message was discarded.
    Dropped {
        /// Clock value when the drop was decided.
        tick: u64,
        /// The dropped message's send sequence number.
        seq: u64,
        /// Sending node.
        from: usize,
        /// Receiving node.
        to: usize,
        /// Why it was discarded.
        reason: DropReason,
    },
    /// The link scheduled a second copy of a message.
    Duplicated {
        /// Clock value at send time.
        tick: u64,
        /// The duplicated message's send sequence number.
        seq: u64,
        /// Sending node.
        from: usize,
        /// Receiving node.
        to: usize,
        /// Tick the duplicate copy will arrive (partition permitting).
        deliver_at: u64,
    },
    /// A message reached its destination.
    Delivered {
        /// Clock value at delivery.
        tick: u64,
        /// The delivered message's send sequence number.
        seq: u64,
        /// Sending node.
        from: usize,
        /// Receiving node.
        to: usize,
        /// True for the second copy of a duplicated message.
        duplicate: bool,
    },
}

/// Running totals over the event tape.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetStats {
    /// Messages handed to [`Network::send`].
    pub sent: u64,
    /// Deliveries surfaced by [`Network::tick`] (duplicates included).
    pub delivered: u64,
    /// Messages lost by the link model.
    pub dropped_loss: u64,
    /// Messages blocked by a partition window.
    pub dropped_partition: u64,
    /// Extra copies scheduled by the duplication model.
    pub duplicated: u64,
    /// Messages pushed behind later traffic by the reorder model.
    pub reordered: u64,
}

/// One message surfaced by [`Network::tick`].
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery<M> {
    /// Sending node.
    pub from: usize,
    /// Receiving node.
    pub to: usize,
    /// The original send's sequence number.
    pub seq: u64,
    /// True for the second copy of a duplicated message.
    pub duplicate: bool,
    /// The payload.
    pub payload: M,
}

/// A queued message awaiting its delivery tick.
#[derive(Debug, Clone)]
struct InFlight<M> {
    from: usize,
    to: usize,
    seq: u64,
    duplicate: bool,
    /// Clock value when the original send happened, for the delivery
    /// latency summaries.
    sent_tick: u64,
    payload: M,
}

/// The deterministic in-process network. See the module docs.
#[derive(Debug)]
pub struct Network<M> {
    plan: NetFaultPlan,
    nodes: usize,
    clock: u64,
    next_seq: u64,
    /// Per ordered link: how many messages have been sent on it. The
    /// count names each message's RNG stream, so fates depend only on
    /// the message's identity, never on global interleaving.
    link_sends: BTreeMap<(usize, usize), u64>,
    /// In-flight messages keyed by `(deliver_at, queue_seq)`. The queue
    /// sequence (distinct from the send sequence, so a duplicate copy
    /// gets its own slot) totally orders same-tick deliveries.
    queue: BTreeMap<(u64, u64), InFlight<M>>,
    next_queue_seq: u64,
    digest: u64,
    events_folded: u64,
    pending_events: Vec<NetEvent>,
    stats: NetStats,
    live: NetLive,
}

impl<M: Serialize + Clone> Network<M> {
    /// Builds a network of `nodes` platforms under `plan`.
    ///
    /// # Errors
    ///
    /// [`NetConfigError`] when the plan fails validation or `nodes` is
    /// zero.
    pub fn new(nodes: usize, plan: NetFaultPlan) -> Result<Self, NetConfigError> {
        if nodes == 0 {
            return Err(NetConfigError::NoNodes);
        }
        plan.validate(nodes)?;
        let header = serde_json::to_string(&plan).expect("plan serialization is infallible");
        let digest = chain_genesis(NET_GENESIS, NET_VERSION, header.as_bytes());
        let live = NetLive::handle();
        live.clock.set(0.0);
        Ok(Network {
            plan,
            nodes,
            clock: 0,
            next_seq: 0,
            link_sends: BTreeMap::new(),
            queue: BTreeMap::new(),
            next_queue_seq: 0,
            digest,
            events_folded: 0,
            pending_events: Vec::new(),
            stats: NetStats::default(),
            live,
        })
    }

    /// The current logical time.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Number of platforms.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The plan this network runs under.
    pub fn plan(&self) -> &NetFaultPlan {
        &self.plan
    }

    /// True when nothing is in flight.
    pub fn idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// Running totals.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// The event-tape digest chain head (hex, 16 chars).
    pub fn digest_hex(&self) -> String {
        format!("{:016x}", self.digest)
    }

    /// Events recorded since the last drain, in occurrence order.
    pub fn drain_events(&mut self) -> Vec<NetEvent> {
        std::mem::take(&mut self.pending_events)
    }

    /// Sends `payload` from `from` to `to`, deciding its fate from the
    /// message's dedicated RNG stream. Returns the send sequence
    /// number. The sender gets no delivery feedback — a dropped message
    /// is indistinguishable from a slow one, exactly as on a real wire.
    ///
    /// # Panics
    ///
    /// Panics when `from == to` or either index is out of range —
    /// both are driver bugs, not runtime conditions.
    pub fn send(&mut self, from: usize, to: usize, payload: M) -> u64 {
        assert!(from < self.nodes && to < self.nodes, "node out of range");
        assert_ne!(from, to, "self-sends are not modeled");
        let seq = self.next_seq;
        self.next_seq += 1;
        let nth = self.link_sends.entry((from, to)).or_insert(0);
        let stream = format!("edge-net-msg:{from}:{to}:{nth}");
        *nth += 1;
        let serialized =
            serde_json::to_string(&payload).expect("payload serialization is infallible");
        self.stats.sent += 1;
        self.live.sent.incr();
        self.record(NetEvent::Sent {
            tick: self.clock,
            seq,
            from,
            to,
            payload: serialized,
        });

        // The fate draw happens unconditionally (CRN discipline): a
        // partitioned send consumes the same six draws as a live one,
        // so healing a partition never perturbs other messages' fates.
        let fate = self
            .plan
            .link
            .fate(&mut derive_rng(self.plan.seed, &stream));
        if self.plan.is_partitioned(from, to, self.clock) {
            self.drop_message(seq, from, to, DropReason::Partition);
            return seq;
        }
        match fate {
            crate::link::MessageFate::Dropped => {
                self.drop_message(seq, from, to, DropReason::Loss);
            }
            crate::link::MessageFate::Delivered {
                delay,
                duplicate_delay,
                reordered,
            } => {
                if reordered {
                    self.stats.reordered += 1;
                    self.live.reordered.incr();
                }
                // Saturating: a message due past the last tick is never
                // delivered, instead of wrapping around to an early tick.
                let deliver_at = self.clock.saturating_add(delay);
                self.enqueue(from, to, seq, false, deliver_at, payload.clone());
                if let Some(extra) = duplicate_delay {
                    let deliver_at = self.clock.saturating_add(extra);
                    self.stats.duplicated += 1;
                    self.live.duplicated.incr();
                    self.record(NetEvent::Duplicated {
                        tick: self.clock,
                        seq,
                        from,
                        to,
                        deliver_at,
                    });
                    self.enqueue(from, to, seq, true, deliver_at, payload);
                }
            }
        }
        seq
    }

    /// Advances the clock one tick and returns everything due, in
    /// `(deliver_at, queue_seq)` order. Messages whose receiver is
    /// partitioned *at delivery time* are dropped here.
    pub fn tick(&mut self) -> Vec<Delivery<M>> {
        self.clock += 1;
        self.live.clock.set(self.clock as f64);
        let mut still_queued = self.queue.split_off(&(self.clock + 1, 0));
        std::mem::swap(&mut self.queue, &mut still_queued);
        let due = still_queued;
        let mut out = Vec::with_capacity(due.len());
        for (_, msg) in due {
            if self.plan.is_partitioned(msg.from, msg.to, self.clock) {
                self.drop_message(msg.seq, msg.from, msg.to, DropReason::Partition);
                continue;
            }
            self.stats.delivered += 1;
            self.live.delivered.incr();
            self.live
                .observe_latency(msg.from, msg.to, self.clock - msg.sent_tick);
            self.record(NetEvent::Delivered {
                tick: self.clock,
                seq: msg.seq,
                from: msg.from,
                to: msg.to,
                duplicate: msg.duplicate,
            });
            out.push(Delivery {
                from: msg.from,
                to: msg.to,
                seq: msg.seq,
                duplicate: msg.duplicate,
                payload: msg.payload,
            });
        }
        self.live.in_flight.set(self.queue.len() as f64);
        out
    }

    fn enqueue(
        &mut self,
        from: usize,
        to: usize,
        seq: u64,
        duplicate: bool,
        deliver_at: u64,
        payload: M,
    ) {
        let queue_seq = self.next_queue_seq;
        self.next_queue_seq += 1;
        self.queue.insert(
            (deliver_at, queue_seq),
            InFlight {
                from,
                to,
                seq,
                duplicate,
                sent_tick: self.clock,
                payload,
            },
        );
        self.live.in_flight.set(self.queue.len() as f64);
    }

    fn drop_message(&mut self, seq: u64, from: usize, to: usize, reason: DropReason) {
        match reason {
            DropReason::Loss => {
                self.stats.dropped_loss += 1;
                self.live.dropped_loss.incr();
            }
            DropReason::Partition => {
                self.stats.dropped_partition += 1;
                self.live.dropped_partition.incr();
            }
        }
        self.record(NetEvent::Dropped {
            tick: self.clock,
            seq,
            from,
            to,
            reason,
        });
    }

    fn record(&mut self, event: NetEvent) {
        let json = serde_json::to_string(&event).expect("event serialization is infallible");
        self.digest = chain_step(self.digest, self.events_folded, json.as_bytes());
        self.events_folded += 1;
        self.pending_events.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PartitionWindow;

    fn noisy_plan(seed: u64, drop: f64) -> NetFaultPlan {
        let mut plan = NetFaultPlan::ideal(seed);
        plan.link.latency_min = 1;
        plan.link.latency_max = 4;
        plan.link.drop_probability = drop;
        plan.link.duplicate_probability = 0.2;
        plan.link.reorder_probability = 0.2;
        plan.link.reorder_max_extra = 3;
        plan
    }

    fn run_history(plan: NetFaultPlan) -> (String, NetStats, Vec<(u64, u64, bool)>) {
        let mut net: Network<u64> = Network::new(3, plan).unwrap();
        let mut seen = Vec::new();
        for step in 0..40u64 {
            net.send(0, 1, step);
            if step % 3 == 0 {
                net.send(1, 2, 1000 + step);
            }
            for d in net.tick() {
                seen.push((d.seq, d.payload, d.duplicate));
            }
        }
        for _ in 0..16 {
            for d in net.tick() {
                seen.push((d.seq, d.payload, d.duplicate));
            }
        }
        assert!(net.idle());
        (net.digest_hex(), *net.stats(), seen)
    }

    #[test]
    fn identical_runs_have_identical_tapes() {
        let a = run_history(noisy_plan(11, 0.3));
        let b = run_history(noisy_plan(11, 0.3));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_diverge() {
        let a = run_history(noisy_plan(11, 0.3));
        let b = run_history(noisy_plan(12, 0.3));
        assert_ne!(a.0, b.0);
    }

    #[test]
    fn drops_nest_across_probabilities() {
        // Every message delivered under the heavier plan is delivered
        // under the lighter one: raising drop_probability only removes
        // deliveries (CRN nesting at the substrate level).
        let (_, light_stats, light) = run_history(noisy_plan(7, 0.1));
        let (_, heavy_stats, heavy) = run_history(noisy_plan(7, 0.5));
        let light_seqs: std::collections::BTreeSet<u64> =
            light.iter().map(|&(seq, _, _)| seq).collect();
        for &(seq, _, _) in &heavy {
            assert!(light_seqs.contains(&seq), "seq {seq} lost only at p=0.1");
        }
        assert!(heavy_stats.dropped_loss > light_stats.dropped_loss);
    }

    #[test]
    fn partition_strands_in_flight_messages_and_heals() {
        let mut plan = NetFaultPlan::ideal(5);
        plan.link.latency_min = 3;
        plan.link.latency_max = 3;
        plan.partitions.push(PartitionWindow {
            from: 2,
            until: 6,
            isolated: 1,
        });
        let mut net: Network<&'static str> = Network::new(2, plan).unwrap();
        net.send(0, 1, "in-flight"); // due tick 3, stranded by the window
        let mut delivered = Vec::new();
        for tick in 1..=10u64 {
            if tick == 7 {
                // Clock is 6 here (tick() below advances it to 7), so
                // the message is due at tick 9 — after the heal at 6.
                net.send(0, 1, "after-heal");
            }
            for d in net.tick() {
                delivered.push((tick, d.payload));
            }
        }
        assert_eq!(delivered, vec![(9, "after-heal")]);
        assert_eq!(net.stats().dropped_partition, 1);
    }

    #[test]
    fn reorder_model_counts_reordered_messages() {
        let mut plan = NetFaultPlan::ideal(3);
        plan.link.reorder_probability = 1.0;
        plan.link.reorder_max_extra = 2;
        let mut net: Network<u64> = Network::new(2, plan).unwrap();
        net.send(0, 1, 7);
        assert_eq!(net.stats().reordered, 1);
        assert_eq!(net.stats().dropped_loss, 0);
    }

    #[test]
    fn latencies_past_the_last_tick_never_deliver() {
        // u64::MAX-tick links: every latency sum saturates rather than
        // overflowing, so no message ever arrives — duplicates and
        // reordered copies included.
        for (reorder, duplicate) in [(0.0, 0.0), (1.0, 1.0)] {
            let mut plan = NetFaultPlan::ideal(9);
            plan.link.latency_min = u64::MAX;
            plan.link.latency_max = u64::MAX;
            plan.link.reorder_probability = reorder;
            plan.link.duplicate_probability = duplicate;
            let mut net: Network<u64> = Network::new(2, plan).unwrap();
            for i in 0..8 {
                net.send(0, 1, i);
                net.send(1, 0, i);
                assert!(net.tick().is_empty());
            }
            for _ in 0..8 {
                assert!(net.tick().is_empty());
            }
            assert_eq!(net.stats().sent, 16);
            assert_eq!(net.stats().delivered, 0);
            assert!(!net.idle(), "undeliverable messages stay queued");
        }
    }

    #[test]
    fn ideal_network_is_fifo_per_link() {
        let mut net: Network<u64> = Network::new(2, NetFaultPlan::ideal(0)).unwrap();
        for i in 0..10 {
            net.send(0, 1, i);
        }
        let got: Vec<u64> = net.tick().into_iter().map(|d| d.payload).collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        assert!(net.idle());
    }
}
