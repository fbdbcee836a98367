//! The sharded (multiplexed) runtime: one event loop drives many engines.
//!
//! A *shard* owns N [`NodeCore`]s on a single OS thread. Every receive
//! socket of every engine is registered in one shared epoll instance under
//! its own token — `pack_token(engine, class)` for the fixed channels,
//! `pool_token(engine, port)` for each rotating pool socket — so a
//! readiness event routes straight to the one socket that became readable
//! and one wakeup serves datagram work for many engines. Round starts fire
//! from a per-shard [`TimerWheel`] (a binary heap of fixed-cadence
//! deadlines), replacing N per-thread sleeps: the loop blocks until the
//! earliest deadline across all engines or until any socket is readable,
//! and no longer. The wait has nanosecond resolution (`epoll_pwait2`, see
//! [`sys::Epoll::wait_tagged`]), so the last sub-millisecond before a
//! deadline is slept, not spun.
//!
//! Behavior is decision-equivalent to the per-thread runtime: both drive
//! the same [`NodeCore`] methods in the same order, with the same
//! per-engine RNG streams (`tests/shard_equivalence.rs` pins this, the
//! same recipe as the batched-I/O equivalence suite). This lifts real-UDP
//! single-process clusters from ~50 threads to 1,000+ engines (ROADMAP
//! item 1): 1,000 engines need ~2,000 well-known sockets plus the rotating
//! pools, comfortably inside a 20k fd limit, and a handful of shard
//! threads instead of a thousand.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io;
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use drum_core::bytes::Bytes;
use drum_core::ids::ProcessId;
use drum_trace::{names, Counter};

use crate::codec;
use crate::runtime::{
    seed_of, unpack_token, Delivery, NetStats, NodeCore, ProcessSpec, EPOLL_WAIT_CAP,
};
use crate::sys;
use crate::transport::{bind_ephemeral, BatchRx, BatchTx};

// `seed_of` is pulled in so rustdoc links resolve; it is also the seed
// convention shard clusters share with the per-thread mode.
const _: fn(ProcessId) -> u64 = seed_of;

/// A binary heap of fixed-cadence round deadlines, one live entry per
/// engine. Deadlines pop in nondecreasing order; ties break on the lower
/// engine index so firing order is deterministic.
#[derive(Debug, Default)]
pub struct TimerWheel {
    heap: BinaryHeap<Reverse<(Instant, usize)>>,
}

impl TimerWheel {
    /// An empty wheel.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms `engine`'s next deadline.
    pub fn push(&mut self, deadline: Instant, engine: usize) {
        self.heap.push(Reverse((deadline, engine)));
    }

    /// The earliest armed deadline, if any.
    pub fn next_deadline(&self) -> Option<Instant> {
        self.heap.peek().map(|Reverse((d, _))| *d)
    }

    /// Pops the earliest deadline if it is due at `now`.
    pub fn pop_due(&mut self, now: Instant) -> Option<(Instant, usize)> {
        match self.heap.peek() {
            Some(Reverse((d, _))) if *d <= now => self.heap.pop().map(|Reverse(e)| e),
            _ => None,
        }
    }

    /// Number of armed deadlines.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the wheel is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// One engine's application-facing channels within a shard — the sharded
/// counterpart of [`crate::runtime::ProcessHandle`] (minus the join: the
/// shard thread owns shutdown for all of its engines).
#[derive(Debug)]
pub struct EngineHandle {
    id: ProcessId,
    publish_tx: Sender<Bytes>,
    delivered_rx: Receiver<Delivery>,
}

impl EngineHandle {
    /// The engine's process id.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// Queues a payload for multicast origination at this engine's next
    /// round start.
    pub fn publish(&self, payload: Bytes) {
        let _ = self.publish_tx.send(payload);
    }

    /// Receiver of delivered messages.
    pub fn delivered(&self) -> &Receiver<Delivery> {
        &self.delivered_rx
    }

    /// Drains everything currently delivered.
    pub fn take_delivered(&self) -> Vec<Delivery> {
        let mut out = Vec::new();
        while let Ok(d) = self.delivered_rx.try_recv() {
            out.push(d);
        }
        out
    }
}

/// Handle to a running shard thread. Dropping it stops the shard.
#[derive(Debug)]
pub struct ShardHandle {
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<Vec<NetStats>>>,
}

impl ShardHandle {
    /// Signals the shard to stop and waits for it; returns each engine's
    /// final stats, in the order the specs were passed to [`spawn_shard`].
    pub fn shutdown(mut self) -> Vec<NetStats> {
        self.stop.store(true, Ordering::Relaxed);
        self.join
            .take()
            .expect("shutdown called once")
            .join()
            .unwrap_or_default()
    }
}

impl Drop for ShardHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// The single-threaded state of one shard: N nodes, their shared send
/// socket and I/O batchers, the shared epoll instance, and the timer
/// wheel. [`spawn_shard`] runs it on its own thread; tests drive the same
/// steps ([`ShardCore::start_all`], [`ShardCore::fire_due`],
/// [`ShardCore::poll_io`]) with synthetic clocks.
pub struct ShardCore {
    nodes: Vec<NodeCore>,
    send_socket: UdpSocket,
    rx: BatchRx,
    tx: BatchTx,
    scratch: Vec<u8>,
    epoll: Option<Arc<sys::Epoll>>,
    wheel: TimerWheel,
    tokens: Vec<u64>,
    poll: Duration,
    prev_sys: (u64, u64, u64),
    c_wakeups: Counter,
    c_dispatch: Counter,
    c_sys_recv: Counter,
    c_sys_send: Counter,
    c_batch_fill: Counter,
}

impl ShardCore {
    /// Builds a shard from one `(spec, publish_rx, delivered_tx)` lane per
    /// engine. Binds the shared send socket and registers every engine's
    /// receive sockets in the shared epoll instance with engine-indexed
    /// tokens (all-or-nothing: any registration failure reverts the whole
    /// shard to the sleep-poll fallback).
    ///
    /// # Errors
    ///
    /// Returns an [`io::Error`] if `lanes` is empty or the send socket
    /// cannot be bound.
    pub fn new(lanes: Vec<(ProcessSpec, Receiver<Bytes>, Sender<Delivery>)>) -> io::Result<Self> {
        let first = lanes
            .first()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "empty shard"))?;
        let poll = first.0.config.poll;
        let reg = first.0.config.tracer.registry().clone();
        let send_socket = bind_ephemeral()?;
        let mut nodes: Vec<NodeCore> = lanes
            .into_iter()
            .map(|(spec, publish_rx, delivered_tx)| NodeCore::new(spec, publish_rx, delivered_tx))
            .collect();
        let epoll = if sys::enabled() {
            sys::Epoll::new().ok().map(Arc::new).filter(|ep| {
                nodes
                    .iter_mut()
                    .enumerate()
                    .all(|(i, n)| n.register_tagged(ep, i))
            })
        } else {
            None
        };
        Ok(ShardCore {
            nodes,
            send_socket,
            rx: BatchRx::new(codec::MAX_WIRE_LEN + 1),
            tx: BatchTx::new(),
            scratch: vec![0u8; codec::MAX_WIRE_LEN + 1],
            epoll,
            wheel: TimerWheel::new(),
            tokens: Vec::new(),
            poll,
            prev_sys: (0, 0, 0),
            c_wakeups: reg.counter(names::SHARD_WAKEUPS),
            c_dispatch: reg.counter(names::SHARD_DISPATCH),
            c_sys_recv: reg.counter(names::SYSCALLS_RECV),
            c_sys_send: reg.counter(names::SYSCALLS_SEND),
            c_batch_fill: reg.counter(names::BATCH_FILL),
        })
    }

    /// Number of engines in the shard.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the shard has no engines.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether the shard got tagged epoll dispatch (vs the sleep-poll
    /// drain-everyone fallback).
    pub fn dispatching(&self) -> bool {
        self.epoll.is_some()
    }

    /// Borrows one engine's core (test observability).
    pub fn node(&self, engine: usize) -> &NodeCore {
        &self.nodes[engine]
    }

    /// Starts every engine's first round and arms its first deadline.
    pub fn start_all(&mut self, now: Instant) {
        for i in 0..self.nodes.len() {
            let deadline = self.nodes[i].next_deadline(now, now);
            self.nodes[i].start_round(&self.send_socket, &mut self.tx);
            self.wheel.push(deadline, i);
        }
    }

    /// Fires every due deadline: each fired engine finishes its running
    /// round, starts the next, and is re-armed on the fixed cadence (its
    /// new deadline advances from the fired one, not from `now` — see
    /// `runtime::advance_deadline`). Returns how many engines fired.
    pub fn fire_due(&mut self, now: Instant) -> usize {
        let mut fired = 0;
        while let Some((deadline, i)) = self.wheel.pop_due(now) {
            let next = self.nodes[i].next_deadline(deadline, now);
            self.nodes[i].round_tick(&self.send_socket, &mut self.tx);
            self.wheel.push(next, i);
            fired += 1;
        }
        fired
    }

    /// One I/O pass: block until any socket is readable or the earliest
    /// wheel deadline arrives (capped like the per-thread loop), then hand
    /// each ready token to the owning engine, which drains exactly the
    /// socket it names. On the fallback path, drain every engine and sleep
    /// one poll interval.
    pub fn poll_io(&mut self, now: Instant) {
        let until = self
            .wheel
            .next_deadline()
            .map(|d| d.saturating_duration_since(now))
            .unwrap_or(self.poll);
        match self.epoll.clone() {
            Some(ep) => {
                self.tokens.clear();
                let _ = ep.wait_tagged(until.min(EPOLL_WAIT_CAP), &mut self.tokens);
                self.c_wakeups.inc();
                // Every registered socket has its own token and the kernel
                // reports a ready socket once per wait: no token repeats.
                let mut dispatched = 0u64;
                for &token in &self.tokens {
                    let (engine, Some(_)) = unpack_token(token) else {
                        continue;
                    };
                    let Some(node) = self.nodes.get_mut(engine) else {
                        continue;
                    };
                    node.drain_token(
                        token,
                        &mut self.rx,
                        &mut self.scratch,
                        &self.send_socket,
                        &mut self.tx,
                    );
                    dispatched += 1;
                }
                self.c_dispatch.add(dispatched);
            }
            None => {
                for i in 0..self.nodes.len() {
                    self.nodes[i].drain_all(
                        &mut self.rx,
                        &mut self.scratch,
                        &self.send_socket,
                        &mut self.tx,
                    );
                }
                let nap = until.min(self.poll);
                if !nap.is_zero() {
                    std::thread::sleep(nap);
                }
            }
        }
    }

    /// Mirrors the shared batchers' syscall totals into the registry as
    /// deltas. The per-engine `finish_round` cannot do this (the batchers
    /// are shared by the whole shard), so the shard accounts once per loop
    /// iteration.
    fn account_sys(&mut self) {
        let cur = (
            self.rx.syscalls(),
            self.tx.syscalls(),
            self.rx.batched_datagrams(),
        );
        self.c_sys_recv.add(cur.0 - self.prev_sys.0);
        self.c_sys_send.add(cur.1 - self.prev_sys.1);
        self.c_batch_fill.add(cur.2 - self.prev_sys.2);
        self.prev_sys = cur;
    }

    /// The blocking event loop: fire due rounds, block for I/O, dispatch,
    /// account — until `stop`.
    pub fn run(&mut self, stop: &AtomicBool) {
        self.start_all(Instant::now());
        while !stop.load(Ordering::Relaxed) {
            self.fire_due(Instant::now());
            self.poll_io(Instant::now());
            self.account_sys();
        }
    }

    /// Tears the shard down: finalizes every engine (finishing rounds in
    /// flight) and returns their stats in lane order. Every engine reports
    /// the shard's *shared* syscall totals.
    pub fn into_stats(mut self) -> Vec<NetStats> {
        self.account_sys();
        let totals = (
            self.rx.syscalls(),
            self.tx.syscalls(),
            self.rx.batched_datagrams(),
        );
        self.nodes
            .into_iter()
            .map(|n| n.finalize(Some(totals)))
            .collect()
    }
}

/// Spawns one shard thread multiplexing every engine in `specs`; returns
/// the shard handle plus one [`EngineHandle`] per spec, in order.
///
/// # Errors
///
/// Returns an [`io::Error`] if `specs` is empty or the shard's shared
/// send socket cannot be bound.
pub fn spawn_shard(specs: Vec<ProcessSpec>) -> io::Result<(ShardHandle, Vec<EngineHandle>)> {
    let mut lanes = Vec::with_capacity(specs.len());
    let mut engines = Vec::with_capacity(specs.len());
    for spec in specs {
        let (publish_tx, publish_rx) = channel::<Bytes>();
        let (delivered_tx, delivered_rx) = channel::<Delivery>();
        engines.push(EngineHandle {
            id: spec.me,
            publish_tx,
            delivered_rx,
        });
        lanes.push((spec, publish_rx, delivered_tx));
    }
    let name = format!(
        "drum-shard-{}x{}",
        engines.first().map(|e| e.id.as_u64()).unwrap_or(0),
        engines.len()
    );
    // Built on the caller's thread so bind/registration errors surface
    // synchronously.
    let mut core = ShardCore::new(lanes)?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = stop.clone();
    let join = std::thread::Builder::new()
        .name(name)
        .spawn(move || {
            core.run(&stop_flag);
            core.into_stats()
        })
        .expect("failed to spawn shard thread");
    Ok((
        ShardHandle {
            stop,
            join: Some(join),
        },
        engines,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{
        pack_token, pool_token, token_port, ChannelClass, NetConfig, MAX_TOKEN_ENGINE,
    };
    use crate::transport::{AddressBook, WellKnownSockets};
    use drum_core::config::GossipConfig;
    use drum_crypto::keys::KeyStore;
    use drum_testkit::prop::{check, Config, Gen};
    use drum_testkit::prop_assert;
    use drum_trace::{Registry, Tracer};

    #[test]
    fn timer_wheel_pops_nondecreasing_with_index_tiebreak() {
        let base = Instant::now();
        let mut wheel = TimerWheel::new();
        // Shuffled pushes, including exact ties.
        let entries = [(30u64, 2usize), (10, 7), (20, 1), (10, 3), (30, 0), (10, 5)];
        for (ms, engine) in entries {
            wheel.push(base + Duration::from_millis(ms), engine);
        }
        assert_eq!(wheel.len(), entries.len());
        assert_eq!(
            wheel.next_deadline(),
            Some(base + Duration::from_millis(10))
        );

        // Nothing is due before the earliest deadline.
        assert!(wheel.pop_due(base).is_none());

        let far = base + Duration::from_secs(1);
        let mut popped = Vec::new();
        while let Some((d, e)) = wheel.pop_due(far) {
            popped.push((d, e));
        }
        assert!(wheel.is_empty());
        assert_eq!(
            popped,
            vec![
                (base + Duration::from_millis(10), 3),
                (base + Duration::from_millis(10), 5),
                (base + Duration::from_millis(10), 7),
                (base + Duration::from_millis(20), 1),
                (base + Duration::from_millis(30), 0),
                (base + Duration::from_millis(30), 2),
            ],
            "pops must be nondecreasing, ties by engine index"
        );
    }

    #[test]
    fn timer_wheel_ordering_property() {
        let base = Instant::now();
        check(
            "timer_wheel_ordering_property",
            Config::with_cases(50),
            |g: &mut Gen| {
                let mut wheel = TimerWheel::new();
                let n = g.u64_in(1..40) as usize;
                for engine in 0..n {
                    wheel.push(base + Duration::from_millis(g.u64_in(0..50)), engine);
                }
                let far = base + Duration::from_secs(10);
                let mut prev: Option<(Instant, usize)> = None;
                let mut count = 0;
                while let Some(e) = wheel.pop_due(far) {
                    if let Some(p) = prev {
                        prop_assert!(p <= e, "wheel popped out of order: {p:?} then {e:?}");
                    }
                    prev = Some(e);
                    count += 1;
                }
                prop_assert!(count == n, "all armed deadlines must pop");
                Ok(())
            },
        );
    }

    #[test]
    fn tokens_round_trip_engine_and_class() {
        for engine in [0usize, 1, 63, 999, 100_000, MAX_TOKEN_ENGINE] {
            for class in ChannelClass::ALL {
                let token = pack_token(engine, class);
                assert_eq!(unpack_token(token), (engine, Some(class)));
                assert_eq!(token_port(token), 0);
            }
            // Pool tokens carry the socket's port above the engine bits
            // without disturbing either field.
            for port in [1u16, 40_000, 65_535] {
                let token = pool_token(engine, port);
                assert_eq!(unpack_token(token), (engine, Some(ChannelClass::Pool)));
                assert_eq!(token_port(token), port);
            }
        }
        // Unused class codes decode to None instead of a bogus class.
        assert_eq!(unpack_token(7), (0, None));
        assert_eq!(unpack_token((5 << 3) | 6), (5, None));
    }

    #[test]
    #[should_panic(expected = "overflows a token")]
    fn engine_past_45_bits_is_refused() {
        pack_token(MAX_TOKEN_ENGINE + 1, ChannelClass::WkPull);
    }

    fn shard_cluster(n: u64, round_ms: u64) -> (ShardHandle, Vec<EngineHandle>) {
        shard_cluster_traced(n, round_ms, &Registry::new())
    }

    fn shard_cluster_traced(
        n: u64,
        round_ms: u64,
        registry: &Registry,
    ) -> (ShardHandle, Vec<EngineHandle>) {
        let key_store = KeyStore::new(41);
        let members: Vec<ProcessId> = (0..n).map(ProcessId).collect();
        let mut socks = Vec::new();
        let mut entries = Vec::new();
        for &m in &members {
            let (s, addrs) = WellKnownSockets::bind().unwrap();
            socks.push((m, s));
            entries.push((m, addrs));
        }
        let book = AddressBook::new(entries);
        let specs: Vec<ProcessSpec> = socks
            .into_iter()
            .map(|(m, sockets)| ProcessSpec {
                me: m,
                members: members.clone(),
                book: book.clone(),
                key_store: key_store.clone(),
                my_key: key_store.register(m.as_u64()),
                sockets,
                ablation: None,
                config: NetConfig::new(GossipConfig::drum())
                    .with_round(Duration::from_millis(round_ms))
                    .with_tracer(Tracer::disabled().with_registry(registry.clone())),
                seed: seed_of(m),
            })
            .collect();
        spawn_shard(specs).unwrap()
    }

    #[test]
    fn sharded_drum_disseminates_over_udp() {
        let (shard, engines) = shard_cluster(6, 40);
        engines[0].publish(Bytes::from_static(b"hello shard"));
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut received = [false; 6];
        received[0] = true;
        while Instant::now() < deadline && received.iter().any(|r| !r) {
            for (i, e) in engines.iter().enumerate() {
                for d in e.take_delivered() {
                    assert_eq!(d.message.payload, Bytes::from_static(b"hello shard"));
                    received[i] = true;
                }
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        for (i, r) in received.iter().enumerate() {
            assert!(*r, "engine {i} never received the message");
        }
        let stats = shard.shutdown();
        assert_eq!(stats.len(), 6);
        for s in &stats {
            assert!(s.rounds > 0, "every engine must have run rounds: {s:?}");
        }
    }

    #[test]
    fn idle_shard_blocks_between_deadlines() {
        // Eight engines with nothing to publish still gossip control
        // traffic every round; the loop should wake for round deadlines
        // and the datagrams they trigger, a few times per engine-round.
        // A loop that spins out the sub-millisecond remainder before each
        // deadline wakes ~1,000 times per engine-round instead.
        let registry = Registry::new();
        let (shard, _engines) = shard_cluster_traced(8, 10, &registry);
        let wakeups = registry.counter(names::SHARD_WAKEUPS);
        let start = Instant::now();
        std::thread::sleep(Duration::from_millis(400));
        let stats = shard.shutdown();
        let elapsed = start.elapsed();
        let engine_rounds: u64 = stats.iter().map(|s| s.rounds).sum();
        let min_rounds = stats.iter().map(|s| s.rounds).min().unwrap_or(0);
        assert!(
            min_rounds >= 20,
            "every engine must run at least 20 rounds in {elapsed:?}: {min_rounds}"
        );
        let per_engine_round = wakeups.get() as f64 / engine_rounds as f64;
        assert!(
            per_engine_round <= 4.0,
            "{} wakeups over {engine_rounds} engine-rounds = {per_engine_round:.1} per engine-round",
            wakeups.get()
        );
    }

    #[test]
    fn empty_shard_is_an_error() {
        assert!(spawn_shard(Vec::new()).is_err());
    }
}
