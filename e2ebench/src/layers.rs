//! Per-layer metrics of the networked workloads, read from the nodes'
//! `NetStats`, the shared syscall batchers and the trace registry.

use drum_net::NetStats;
use drum_trace::{names, Registry};

use crate::report::Report;
use crate::stats::Ratio;

/// Cluster-wide counts behind the transport, codec, crypto, engine,
/// buffer, stream and shard metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetTotals {
    /// Engine rounds summed over nodes.
    pub node_rounds: u64,
    /// First (message, receiver) deliveries the harness observed.
    pub deliveries: u64,
    /// Datagrams sent by the nodes.
    pub sent: u64,
    /// Datagrams received and decoded by the nodes.
    pub received: u64,
    /// Messages the per-round budgets dropped.
    pub budget_drops: u64,
    /// Data messages dropped by source authentication.
    pub auth_drops: u64,
    /// Outbound messages dropped for a failed port allocation.
    pub alloc_failed: u64,
    /// Datagrams that failed to decode.
    pub decode_errors: u64,
    /// Received frames whose tag failed.
    pub frames_rejected: u64,
    /// MTU-packed frames sent.
    pub frames_sent: u64,
    /// Data messages carried in those frames.
    pub framed_msgs: u64,
    /// SHA-256 kernel calls behind MAC work.
    pub compress_calls: u64,
    /// Kernel lanes those calls advanced.
    pub lanes_filled: u64,
    /// Highest per-node message-buffer peak.
    pub buffer_bytes_peak: u64,
    /// Stream submissions queued with backpressure.
    pub backpressure: u64,
    /// Rounds started behind their fixed-cadence deadline.
    pub rounds_late: u64,
    /// Receive syscalls.
    pub syscalls_recv: u64,
    /// Send syscalls.
    pub syscalls_send: u64,
    /// Datagrams moved by batched receive calls.
    pub batched_dgrams: u64,
    /// Random reply-port rotations.
    pub port_rotations: u64,
    /// MAC verdicts answered from the round's batch cache.
    pub mac_batch_hits: u64,
    /// MACs computed in full.
    pub mac_full_verifies: u64,
    /// Shard event-loop wakeups.
    pub shard_wakeups: u64,
    /// Readiness events the shards dispatched.
    pub shard_dispatch: u64,
}

impl NetTotals {
    /// Sums the per-node stats and reads the registry counters. Syscall
    /// totals are left to the caller: they belong to whoever owns the
    /// batchers (the lockstep loop, or the shards through the registry).
    pub fn from_nodes<'a>(stats: impl IntoIterator<Item = &'a NetStats>, reg: &Registry) -> Self {
        let mut t = NetTotals::default();
        for s in stats {
            t.node_rounds += s.rounds;
            t.sent += s.sent;
            t.received += s.received;
            t.budget_drops += s.budget_drops;
            t.auth_drops += s.auth_drops;
            t.alloc_failed += s.alloc_failed;
            t.decode_errors += s.decode_errors;
            t.frames_rejected += s.frames_rejected;
            t.frames_sent += s.frames_sent;
            t.framed_msgs += s.framed_msgs;
            t.compress_calls += s.compress_calls;
            t.lanes_filled += s.lanes_filled;
            t.buffer_bytes_peak = t.buffer_bytes_peak.max(s.buffer_bytes_peak);
            t.backpressure += s.stream_backpressure;
            t.rounds_late += s.rounds_late;
        }
        let c = |name: &str| reg.counter(name).get();
        t.port_rotations = c(names::PORT_ROTATIONS);
        t.mac_batch_hits = c(names::MAC_BATCH_HITS);
        t.mac_full_verifies = c(names::MAC_FULL_VERIFIES);
        t.shard_wakeups = c(names::SHARD_WAKEUPS);
        t.shard_dispatch = c(names::SHARD_DISPATCH);
        t
    }

    /// Adds another run's totals (peaks take the maximum).
    pub fn add(&mut self, o: &NetTotals) {
        let peak = self.buffer_bytes_peak.max(o.buffer_bytes_peak);
        macro_rules! sum {
            ($($f:ident),*) => { $(self.$f += o.$f;)* };
        }
        sum!(
            node_rounds,
            deliveries,
            sent,
            received,
            budget_drops,
            auth_drops,
            alloc_failed,
            decode_errors,
            frames_rejected,
            frames_sent,
            framed_msgs,
            compress_calls,
            lanes_filled,
            backpressure,
            rounds_late,
            syscalls_recv,
            syscalls_send,
            batched_dgrams,
            port_rotations,
            mac_batch_hits,
            mac_full_verifies,
            shard_wakeups,
            shard_dispatch
        );
        self.buffer_bytes_peak = peak;
    }

    /// Every ratio this module reports, with its base.
    pub fn ratios(&self) -> Vec<(&'static str, Ratio)> {
        let t = self;
        vec![
            (
                "transport.dgrams_sent_per_delivery",
                Ratio::new(t.sent as f64, t.deliveries as f64),
            ),
            (
                "transport.syscalls_send_per_node_round",
                Ratio::new(t.syscalls_send as f64, t.node_rounds as f64),
            ),
            (
                "transport.syscalls_recv_per_node_round",
                Ratio::new(t.syscalls_recv as f64, t.node_rounds as f64),
            ),
            (
                "transport.recv_batch_fill",
                Ratio::new(t.batched_dgrams as f64, t.syscalls_recv as f64),
            ),
            (
                "transport.port_rotations_per_node_round",
                Ratio::new(t.port_rotations as f64, t.node_rounds as f64),
            ),
            (
                "codec.msgs_per_frame",
                Ratio::new(t.framed_msgs as f64, t.frames_sent as f64),
            ),
            (
                "crypto.compress_calls_per_delivery",
                Ratio::new(t.compress_calls as f64, t.deliveries as f64),
            ),
            (
                "crypto.lanes_per_call",
                Ratio::new(t.lanes_filled as f64, t.compress_calls as f64),
            ),
            (
                "crypto.mac_batch_hit_ratio",
                Ratio::new(
                    t.mac_batch_hits as f64,
                    (t.mac_batch_hits + t.mac_full_verifies) as f64,
                ),
            ),
            (
                "engine.budget_drops_per_node_round",
                Ratio::new(t.budget_drops as f64, t.node_rounds as f64),
            ),
            (
                "shard.wakeups_per_node_round",
                Ratio::new(t.shard_wakeups as f64, t.node_rounds as f64),
            ),
            (
                "shard.dispatch_per_wakeup",
                Ratio::new(t.shard_dispatch as f64, t.shard_wakeups as f64),
            ),
        ]
    }

    /// Sets every per-layer metric this module owns, noting each ratio's
    /// base.
    pub fn report(&self, r: &mut Report) {
        for (name, ratio) in self.ratios() {
            r.set(name, ratio.value());
            r.note(format!("{name} = {ratio}"));
        }
        r.set("codec.decode_errors", self.decode_errors as f64);
        r.set("codec.frames_rejected", self.frames_rejected as f64);
        r.set("engine.auth_drops", self.auth_drops as f64);
        r.set("engine.alloc_failed", self.alloc_failed as f64);
        r.set("buffer.bytes_peak", self.buffer_bytes_peak as f64);
        r.set("stream.backpressure", self.backpressure as f64);
        r.set("runtime.rounds_late", self.rounds_late as f64);
    }

    /// The count fingerprint a fixed-seed lockstep run must repeat
    /// exactly: sent, received, delivered, budget drops, lanes filled.
    pub fn fingerprint(&self) -> [u64; 5] {
        [
            self.sent,
            self.received,
            self.deliveries,
            self.budget_drops,
            self.lanes_filled,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_ratio_uses_its_documented_base() {
        let t = NetTotals {
            node_rounds: 10,
            deliveries: 4,
            sent: 8,
            syscalls_send: 20,
            syscalls_recv: 30,
            batched_dgrams: 90,
            port_rotations: 5,
            frames_sent: 2,
            framed_msgs: 6,
            compress_calls: 12,
            lanes_filled: 24,
            mac_batch_hits: 1,
            mac_full_verifies: 3,
            budget_drops: 40,
            shard_wakeups: 50,
            shard_dispatch: 150,
            ..NetTotals::default()
        };
        let got: Vec<(&str, f64, f64)> = t
            .ratios()
            .into_iter()
            .map(|(n, r)| (n, r.num, r.den))
            .collect();
        let want = [
            ("transport.dgrams_sent_per_delivery", 8.0, 4.0),
            ("transport.syscalls_send_per_node_round", 20.0, 10.0),
            ("transport.syscalls_recv_per_node_round", 30.0, 10.0),
            ("transport.recv_batch_fill", 90.0, 30.0),
            ("transport.port_rotations_per_node_round", 5.0, 10.0),
            ("codec.msgs_per_frame", 6.0, 2.0),
            ("crypto.compress_calls_per_delivery", 12.0, 4.0),
            ("crypto.lanes_per_call", 24.0, 12.0),
            ("crypto.mac_batch_hit_ratio", 1.0, 4.0),
            ("engine.budget_drops_per_node_round", 40.0, 10.0),
            ("shard.wakeups_per_node_round", 50.0, 10.0),
            ("shard.dispatch_per_wakeup", 150.0, 50.0),
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn totals_sum_across_nodes_and_runs() {
        let a = NetStats {
            rounds: 3,
            sent: 5,
            buffer_bytes_peak: 100,
            ..NetStats::default()
        };
        let b = NetStats {
            rounds: 4,
            sent: 1,
            buffer_bytes_peak: 70,
            ..NetStats::default()
        };
        let reg = Registry::new();
        reg.counter(names::PORT_ROTATIONS).add(9);
        let mut t = NetTotals::from_nodes([&a, &b], &reg);
        assert_eq!((t.node_rounds, t.sent, t.buffer_bytes_peak), (7, 6, 100));
        assert_eq!(t.port_rotations, 9);
        let copy = t;
        t.add(&copy);
        assert_eq!((t.node_rounds, t.sent, t.buffer_bytes_peak), (14, 12, 100));
    }
}
