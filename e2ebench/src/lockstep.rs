//! The lockstep cluster: every correct engine is a `drum_net::NodeCore`
//! driven from this one thread through its public `start_round`,
//! `drain_all` and `finish_round`, over real loopback sockets.
//!
//! The loop is closed. Round r+1 starts only once round r's traffic is
//! quiescent: the loop repeats drain passes over every node until a
//! pass leaves the nodes' sent/received counters unchanged. Loopback
//! delivers a datagram into the receiver's queue before the send call
//! returns, so one pass that moves nothing means nothing is in flight,
//! and a fixed seed gives the same counts on every run. Cluster time is
//! the time spent inside `NodeCore` calls; the flood generator's sends
//! happen between the start-round and drain phases and are timed
//! separately.

use std::io;
use std::net::UdpSocket;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::{Duration, Instant};

use drum_core::bytes::{Bytes, BytesMut};
use drum_core::config::GossipConfig;
use drum_core::ids::ProcessId;
use drum_crypto::keys::KeyStore;
use drum_net::attack::{fabricated_pull_request, fabricated_push_offer};
use drum_net::codec;
use drum_net::runtime::seed_of;
use drum_net::transport::bind_ephemeral;
use drum_net::{
    AddressBook, BatchRx, BatchTx, Delivery, NetConfig, NodeCore, ProcessSpec, WellKnownAddrs,
    WellKnownSockets,
};
use drum_trace::{Registry, Tracer};

use crate::host;
use crate::layers::NetTotals;
use crate::report::{latency_metrics, trace_metrics, write_spans, Report};
use crate::spans::{Recorder, SpanId};
use crate::stats::{median, Histogram, Quiescence, Ratio};

/// Drain passes after which a round that still moves traffic is a bug.
const MAX_PASSES: u32 = 10_000;

/// Shape of a lockstep workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockstepSpec {
    /// Correct Drum engines (process ids `0..correct`; 0 is the source).
    pub correct: usize,
    /// Silent members: in every membership list, sockets bound, never
    /// served.
    pub silent: usize,
    /// Messages the source publishes per round.
    pub msgs_per_round: usize,
    /// Payload bytes per message.
    pub payload_len: usize,
    /// Correct engines flooded: ids `first_attacked..first_attacked +
    /// attacked`.
    pub attacked: usize,
    /// Lowest flooded id; 0 puts the source among the flooded engines.
    pub first_attacked: u64,
    /// Fabricated messages each attacked engine receives per round, half
    /// pull-requests and half push-offers.
    pub flood_x: usize,
    /// Rounds in which the source publishes.
    pub publish_rounds: u64,
    /// Quiet rounds after the last publish, so every message can finish.
    pub drain_rounds: u64,
}

impl LockstepSpec {
    /// `calm_stream`: 64 correct engines plus 10% silent members; the
    /// source publishes 10 messages of 50 bytes per round; no flood.
    pub fn calm_stream() -> Self {
        LockstepSpec {
            correct: 64,
            silent: 7,
            msgs_per_round: 10,
            payload_len: 50,
            attacked: 0,
            first_attacked: 1,
            flood_x: 0,
            publish_rounds: 60,
            drain_rounds: 15,
        }
    }

    /// `flood`: the calm cluster at 1 message per round, with 10% of the
    /// correct engines each receiving x = 360 fabricated messages per
    /// round (5× Figure 7's x = 72). The source is spared: flooding it
    /// leaves most pairs undelivered (pinned by a test below), and the
    /// benchmark's workloads are ones on which every operation completes.
    pub fn flood() -> Self {
        LockstepSpec {
            msgs_per_round: 1,
            attacked: 6,
            flood_x: 360,
            ..Self::calm_stream()
        }
    }

    /// Total rounds of one episode.
    pub fn rounds(&self) -> u64 {
        self.publish_rounds + self.drain_rounds
    }

    /// Messages one episode publishes.
    pub fn published(&self) -> u64 {
        self.publish_rounds * self.msgs_per_round as u64
    }

    /// Receivers per message (every correct engine but the source).
    pub fn receivers(&self) -> u64 {
        self.correct as u64 - 1
    }
}

struct Node {
    core: NodeCore,
    publish: Sender<Bytes>,
    delivered: Receiver<Delivery>,
}

/// The fabricated-message generator aimed at the attacked engines'
/// well-known ports.
struct Flooder {
    socket: UdpSocket,
    tx: BatchTx,
    targets: Vec<WellKnownAddrs>,
    x: usize,
    seq: u64,
    wire: BytesMut,
}

impl Flooder {
    fn send_round(&mut self) {
        for t in &self.targets {
            for k in 0..self.x {
                self.seq += 1;
                let (msg, addr) = if k % 2 == 0 {
                    (fabricated_pull_request(self.seq), t.pull)
                } else {
                    (fabricated_push_offer(self.seq), t.push)
                };
                self.wire.clear();
                codec::encode_into(&msg, &mut self.wire);
                self.tx.push(&self.socket, addr, &self.wire, false);
            }
        }
        self.tx.finish(&self.socket);
    }
}

/// A built cluster, ready to run one episode.
pub struct LockstepCluster {
    spec: LockstepSpec,
    nodes: Vec<Node>,
    _silent: Vec<WellKnownSockets>,
    send: UdpSocket,
    rx: BatchRx,
    tx: BatchTx,
    scratch: Vec<u8>,
    registry: Registry,
    flooder: Option<Flooder>,
}

impl LockstepCluster {
    /// Binds every member's sockets and builds the `NodeCore`s. The seed
    /// fixes keys and every engine's RNG.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn build(spec: LockstepSpec, seed: u64) -> io::Result<Self> {
        let n = spec.correct + spec.silent;
        let members: Vec<ProcessId> = (0..n as u64).map(ProcessId).collect();
        let key_store = KeyStore::new(seed);
        let registry = Registry::new();
        let config = NetConfig::new(GossipConfig::drum())
            .with_tracer(Tracer::disabled().with_registry(registry.clone()));

        let mut bound = Vec::with_capacity(n);
        let mut entries = Vec::with_capacity(n);
        for &m in &members {
            let (sockets, addrs) = WellKnownSockets::bind()?;
            entries.push((m, addrs));
            bound.push(sockets);
        }
        let book = AddressBook::new(entries);
        let silent = bound.split_off(spec.correct);
        let nodes = bound
            .into_iter()
            .zip(&members)
            .map(|(sockets, &m)| {
                let (publish, publish_rx) = channel();
                let (delivered_tx, delivered) = channel();
                let spec = ProcessSpec {
                    me: m,
                    members: members.clone(),
                    book: book.clone(),
                    key_store: key_store.clone(),
                    my_key: key_store.register(m.as_u64()),
                    sockets,
                    ablation: None,
                    config: config.clone(),
                    seed: seed ^ seed_of(m),
                };
                Node {
                    core: NodeCore::new(spec, publish_rx, delivered_tx),
                    publish,
                    delivered,
                }
            })
            .collect();

        let flooder = if spec.attacked > 0 && spec.flood_x > 0 {
            Some(Flooder {
                socket: bind_ephemeral()?,
                tx: BatchTx::new(),
                targets: (spec.first_attacked..spec.first_attacked + spec.attacked as u64)
                    .filter_map(|i| book.addrs_of(ProcessId(i)))
                    .collect(),
                x: spec.flood_x,
                seq: 0,
                wire: BytesMut::with_capacity(codec::MAX_WIRE_LEN),
            })
        } else {
            None
        };

        Ok(LockstepCluster {
            spec,
            nodes,
            _silent: silent,
            send: bind_ephemeral()?,
            rx: BatchRx::new(codec::MAX_WIRE_LEN + 1),
            tx: BatchTx::new(),
            scratch: vec![0u8; codec::MAX_WIRE_LEN + 1],
            registry,
            flooder,
        })
    }

    fn signature(&self) -> [u64; 4] {
        let mut sig = [0u64; 4];
        for n in &self.nodes {
            let s = n.core.stats();
            sig[0] += s.sent;
            sig[1] += s.received;
            sig[2] += s.decode_errors;
            sig[3] += s.port_mismatches;
        }
        sig
    }

    /// Runs one episode: `publish_rounds` rounds of publishing then
    /// `drain_rounds` quiet rounds. With a recorder, every round is a
    /// `round` span whose children are the `NodeCore` calls (tagged with
    /// the node id) and the generator's `flood.send`.
    ///
    /// # Errors
    ///
    /// Fails when a round never becomes quiescent.
    pub fn run(mut self, mut rec: Option<&mut Recorder>) -> io::Result<Episode> {
        let spec = self.spec;
        let published = spec.published() as usize;
        let mut seen = vec![vec![false; published]; self.nodes.len()];
        let mut ep = Episode::default();
        let mut seq = 0u64;

        for round in 0..spec.rounds() {
            if round < spec.publish_rounds {
                for _ in 0..spec.msgs_per_round {
                    let _ = self.nodes[0]
                        .publish
                        .send(payload(seq, round, spec.payload_len));
                    seq += 1;
                }
            }
            let cpu0 = host::thread_cpu_ns();
            let round_span = rec.as_deref_mut().map(|r| r.open("round", None, None));

            let t0 = Instant::now();
            for (i, n) in self.nodes.iter_mut().enumerate() {
                let (send, tx) = (&self.send, &mut self.tx);
                call(&mut rec, "start_round", round_span, i, || {
                    n.core.start_round(send, tx)
                });
            }
            let t1 = Instant::now();
            ep.start_ns += nanos(t1 - t0);
            let mut generator_cpu = 0;

            if let Some(f) = self.flooder.as_mut() {
                let g_cpu = host::thread_cpu_ns();
                let g0 = Instant::now();
                match rec.as_deref_mut() {
                    Some(r) => r.time("flood.send", round_span, None, || f.send_round()),
                    None => f.send_round(),
                }
                ep.generator_ns += nanos(g0.elapsed());
                generator_cpu = host::thread_cpu_ns() - g_cpu;
            }

            let d0 = Instant::now();
            let mut q = Quiescence::new();
            loop {
                for (i, n) in self.nodes.iter_mut().enumerate() {
                    let (rx, scratch, send, tx) =
                        (&mut self.rx, &mut self.scratch, &self.send, &mut self.tx);
                    call(&mut rec, "drain", round_span, i, || {
                        n.core.drain_all(rx, scratch, send, tx)
                    });
                }
                if q.settled(self.signature()) {
                    break;
                }
                if q.passes() >= MAX_PASSES {
                    return Err(io::Error::other(format!(
                        "round {round} still moving traffic after {MAX_PASSES} drain passes"
                    )));
                }
            }
            let d1 = Instant::now();
            ep.drain_ns += nanos(d1 - d0);
            ep.drain_passes += u64::from(q.passes());

            for (i, n) in self.nodes.iter_mut().enumerate() {
                call(&mut rec, "finish_round", round_span, i, || {
                    n.core.finish_round()
                });
            }
            let t2 = Instant::now();
            ep.finish_ns += nanos(t2 - d1);
            if let (Some(r), Some(id)) = (rec.as_deref_mut(), round_span) {
                r.close(id);
            }
            ep.round_ns.push(nanos(t1 - t0) + nanos(t2 - d0));
            ep.round_cpu_ns
                .push(host::thread_cpu_ns() - cpu0 - generator_cpu);

            // Bookkeeping outside the cluster timer: first deliveries and
            // their latency in rounds.
            for (i, n) in self.nodes.iter().enumerate() {
                while let Ok(d) = n.delivered.try_recv() {
                    if i == 0 {
                        continue;
                    }
                    let Some((s, published_in)) = parse_payload(&d.message.payload) else {
                        ep.foreign += 1;
                        continue;
                    };
                    match seen[i].get_mut(s as usize) {
                        Some(slot) if !*slot => {
                            *slot = true;
                            ep.latency.add(round - published_in);
                        }
                        Some(_) => ep.duplicates += 1,
                        None => ep.foreign += 1,
                    }
                }
            }
        }

        ep.rounds = spec.rounds();
        ep.published = spec.published();
        ep.attempted = ep.published * spec.receivers();
        let stats: Vec<_> = self.nodes.iter().map(|n| *n.core.stats()).collect();
        ep.totals = NetTotals::from_nodes(&stats, &self.registry);
        ep.totals.deliveries = ep.latency.samples();
        ep.totals.syscalls_recv = self.rx.syscalls();
        ep.totals.syscalls_send = self.tx.syscalls();
        ep.totals.batched_dgrams = self.rx.batched_datagrams();
        Ok(ep)
    }
}

/// Runs `f` as a child span of `parent` when tracing.
fn call(
    rec: &mut Option<&mut Recorder>,
    name: &'static str,
    parent: Option<SpanId>,
    node: usize,
    f: impl FnOnce(),
) {
    match rec.as_deref_mut() {
        Some(r) => r.time(name, parent, Some(node as u64), f),
        None => f(),
    }
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// The benchmark's payload: sequence number and publish round, padded.
pub fn payload(seq: u64, round: u64, len: usize) -> Bytes {
    let mut out = BytesMut::with_capacity(len.max(16));
    out.put_u64(seq);
    out.put_u64(round);
    while out.len() < len {
        out.put_u8(0);
    }
    out.freeze()
}

/// Inverse of [`payload`].
pub fn parse_payload(p: &[u8]) -> Option<(u64, u64)> {
    if p.len() < 16 {
        return None;
    }
    let word = |i: usize| u64::from_be_bytes(p[i..i + 8].try_into().expect("8 bytes"));
    Some((word(0), word(8)))
}

/// What one episode measured.
#[derive(Debug, Default, Clone)]
pub struct Episode {
    /// Rounds run.
    pub rounds: u64,
    /// Messages published.
    pub published: u64,
    /// (message, receiver) pairs expected.
    pub attempted: u64,
    /// Deliveries of a message a receiver already had.
    pub duplicates: u64,
    /// Deliveries whose payload the benchmark did not publish.
    pub foreign: u64,
    /// Publish-to-delivery rounds of every first delivery.
    pub latency: Histogram,
    /// Time in `start_round` calls.
    pub start_ns: u64,
    /// Time in drain passes (including the quiescence checks).
    pub drain_ns: u64,
    /// Time in `finish_round` calls.
    pub finish_ns: u64,
    /// Time spent sending the flood (not cluster time).
    pub generator_ns: u64,
    /// Cluster time of each round.
    pub round_ns: Vec<u64>,
    /// Thread CPU of each round, the generator's sends excluded.
    pub round_cpu_ns: Vec<u64>,
    /// Drain passes summed over rounds.
    pub drain_passes: u64,
    /// Node counters.
    pub totals: NetTotals,
}

impl Episode {
    /// Time inside `NodeCore` calls.
    pub fn cluster_ns(&self) -> u64 {
        self.start_ns + self.drain_ns + self.finish_ns
    }

    fn per_cluster_s(&self, count: u64) -> f64 {
        Ratio::new(count as f64, self.cluster_ns() as f64 / 1e9).value()
    }
}

/// A full run of a lockstep workload: episodes on fresh clusters until
/// `seconds` have passed (at least `min_episodes`).
pub fn run(
    spec: LockstepSpec,
    seed: u64,
    seconds: f64,
    min_episodes: usize,
    trace: bool,
    trace_path: Option<&std::path::Path>,
) -> io::Result<Report> {
    let mut r = Report::new();
    r.note(format!(
        "lockstep: {} correct + {} silent engines, {} msg/round x {} B for {} rounds + {} quiet rounds, flood x = {} on {} engines (source {})",
        spec.correct,
        spec.silent,
        spec.msgs_per_round,
        spec.payload_len,
        spec.publish_rounds,
        spec.drain_rounds,
        spec.flood_x,
        spec.attacked,
        if spec.attacked > 0 && spec.first_attacked == 0 {
            "attacked"
        } else {
            "spared"
        }
    ));
    // Traced runs spend the first half untraced, so the difference
    // between the halves is the tracing overhead.
    let untraced_until =
        Instant::now() + Duration::from_secs_f64(if trace { seconds / 2.0 } else { seconds });
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut plain: Vec<Episode> = Vec::new();
    let mut traced: Vec<Episode> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    let mut rec = Recorder::new();
    // Every episode repeats the same work, so the high-water mark after
    // the first one is the workload's peak; later episodes would only add
    // allocator drift.
    let mut peak_rss_mb = None;
    loop {
        let t = Instant::now();
        let cluster = LockstepCluster::build(spec, seed)?;
        setups.push(t.elapsed().as_secs_f64());
        if trace && plain.len() >= min_episodes && Instant::now() >= untraced_until {
            traced.push(cluster.run(Some(&mut rec))?);
        } else {
            plain.push(cluster.run(None)?);
        }
        peak_rss_mb.get_or_insert_with(host::peak_rss_mb);
        let enough = plain.len() >= min_episodes && (!trace || traced.len() >= min_episodes);
        if enough && Instant::now() >= deadline {
            break;
        }
    }

    // Output checks.
    let all: Vec<&Episode> = plain.iter().chain(&traced).collect();
    let first = all[0];
    for (k, ep) in all.iter().enumerate() {
        r.check(
            ep.totals.fingerprint() == first.totals.fingerprint(),
            format!(
                "episode {k} count fingerprint {:?} differs from episode 0's {:?}",
                ep.totals.fingerprint(),
                first.totals.fingerprint()
            ),
        );
    }
    r.check(
        first.duplicates == 0,
        format!("{} duplicate deliveries", first.duplicates),
    );
    r.check(
        first.foreign == 0,
        format!("{} foreign deliveries", first.foreign),
    );
    if spec.flood_x == 0 {
        let t = &first.totals;
        r.check(
            t.deliveries == first.attempted,
            format!(
                "calm run delivered {} of {} pairs",
                t.deliveries, first.attempted
            ),
        );
        r.check(
            t.decode_errors == 0,
            format!("{} decode errors", t.decode_errors),
        );
        r.check(t.auth_drops == 0, format!("{} auth drops", t.auth_drops));
        r.check(
            t.frames_rejected == 0,
            format!("{} rejected frames", t.frames_rejected),
        );
        r.check(
            t.alloc_failed == 0,
            format!("{} failed port allocations", t.alloc_failed),
        );
    }
    r.note(format!(
        "fingerprint (sent, received, delivered, budget drops, lanes filled) = {:?}",
        first.totals.fingerprint()
    ));
    r.note(format!(
        "episodes: {} untraced, {} traced; {} deliveries of {} pairs per episode",
        plain.len(),
        traced.len(),
        first.totals.deliveries,
        first.attempted
    ));

    r.attempted = first.attempted;
    r.failed = first.attempted - first.totals.deliveries;
    let measured = if trace { &traced } else { &plain };
    end_to_end(&mut r, measured, &setups);
    r.set("peak_rss_mb", peak_rss_mb.unwrap_or(0.0));
    if trace {
        per_layer(&mut r, &plain, &traced, &rec, spec.flood_x > 0);
        if let Some(path) = trace_path {
            write_spans(&mut r, &rec, path)?;
        }
    }
    Ok(r)
}

/// Every episode does identical work (the count fingerprint repeats), so
/// round k of each episode is the same work: its cost is taken as the
/// median over episodes, and an episode's cost as the sum of those
/// per-round medians. A burst of host interference then moves only the
/// rounds it hit in the episodes it hit, not the reported figure.
fn round_profile(eps: &[Episode], per_round: impl Fn(&Episode) -> &[u64]) -> f64 {
    let rounds = per_round(&eps[0]).len();
    (0..rounds)
        .map(|k| {
            median(
                &eps.iter()
                    .map(|e| per_round(e)[k] as f64)
                    .collect::<Vec<_>>(),
            )
        })
        .sum()
}

fn end_to_end(r: &mut Report, eps: &[Episode], setups: &[f64]) {
    let first = &eps[0];
    let cluster_s = round_profile(eps, |e| &e.round_ns) / 1e9;
    let per_s = |count: u64| Ratio::new(count as f64, cluster_s).value();
    r.set("deliveries_per_s", per_s(first.totals.deliveries));
    r.set("node_rounds_per_s", per_s(first.totals.node_rounds));
    r.set("trials_per_s", per_s(first.published));
    r.set(
        "delivered_frac",
        Ratio::new(first.totals.deliveries as f64, first.attempted as f64).value(),
    );
    latency_metrics(r, &first.latency, "rounds after publish");
    r.set(
        "cpu_us_per_delivery",
        Ratio::new(
            round_profile(eps, |e| &e.round_cpu_ns) / 1e3,
            first.totals.deliveries as f64,
        )
        .value(),
    );
    r.set("setup_s", median(setups));
    let rates: Vec<String> = eps
        .iter()
        .map(|e| format!("{:.0}", e.per_cluster_s(e.totals.deliveries)))
        .collect();
    r.note(format!("deliveries/s per episode: {}", rates.join(" ")));
    let med = |f: &dyn Fn(&Episode) -> f64| median(&eps.iter().map(f).collect::<Vec<_>>());
    r.note(format!(
        "cluster time per episode: {cluster_s:.4} s from per-round medians, {:.4} s median episode; generator time per episode {:.4} s",
        med(&|e| e.cluster_ns() as f64 / 1e9),
        med(&|e| e.generator_ns as f64 / 1e9)
    ));
}

fn per_layer(r: &mut Report, plain: &[Episode], traced: &[Episode], rec: &Recorder, flood: bool) {
    let mut sum = Episode::default();
    for e in traced {
        sum.start_ns += e.start_ns;
        sum.drain_ns += e.drain_ns;
        sum.finish_ns += e.finish_ns;
        sum.generator_ns += e.generator_ns;
        sum.drain_passes += e.drain_passes;
        sum.rounds += e.rounds;
        sum.totals.add(&e.totals);
    }
    let node_rounds = sum.totals.node_rounds as f64;
    let per_node_round_us = |ns: u64| Ratio::new(ns as f64 / 1e3, node_rounds).value();
    r.set("runtime.start_round_us", per_node_round_us(sum.start_ns));
    r.set("runtime.drain_us", per_node_round_us(sum.drain_ns));
    r.set("runtime.finish_round_us", per_node_round_us(sum.finish_ns));
    r.set(
        "runtime.drain_passes_per_round",
        Ratio::new(sum.drain_passes as f64, sum.rounds as f64).value(),
    );
    r.set(
        "flood.send_us",
        if flood {
            Ratio::new(sum.generator_ns as f64 / 1e3, sum.rounds as f64).value()
        } else {
            0.0
        },
    );
    sum.totals.report(r);
    r.zero_unset(&["soak.", "sim.", "pool."]);
    trace_metrics(r, rec, "round");
    let per_round = |eps: &[Episode]| {
        median(
            &eps.iter()
                .map(|e| e.cluster_ns() as f64 / e.rounds as f64)
                .collect::<Vec<_>>(),
        )
    };
    let (u, t) = (per_round(plain), per_round(traced));
    r.set("trace.overhead_pct", Ratio::new((t - u) * 100.0, u).value());
    r.note(format!(
        "tracing overhead: cluster time per round {:.1} us untraced vs {:.1} us traced",
        u / 1e3,
        t / 1e3
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> LockstepSpec {
        LockstepSpec {
            correct: 8,
            silent: 1,
            msgs_per_round: 2,
            payload_len: 50,
            attacked: 0,
            first_attacked: 1,
            flood_x: 0,
            publish_rounds: 4,
            drain_rounds: 12,
        }
    }

    #[test]
    fn payload_round_trips() {
        let p = payload(7, 3, 50);
        assert_eq!(p.len(), 50);
        assert_eq!(parse_payload(&p), Some((7, 3)));
        assert_eq!(parse_payload(&[0u8; 5]), None);
    }

    #[test]
    fn smoke_calm_episode_delivers_everything_and_repeats() {
        let a = LockstepCluster::build(smoke(), 5)
            .unwrap()
            .run(None)
            .unwrap();
        assert_eq!(a.totals.deliveries, a.attempted);
        assert_eq!(a.attempted, 8 * 7);
        assert_eq!(a.duplicates, 0);
        let b = LockstepCluster::build(smoke(), 5)
            .unwrap()
            .run(None)
            .unwrap();
        assert_eq!(a.totals.fingerprint(), b.totals.fingerprint());
        assert_eq!(a.latency, b.latency);
    }

    #[test]
    fn smoke_flood_episode_is_traced_and_repeats() {
        // The source flooded too.
        let spec = LockstepSpec {
            attacked: 1,
            first_attacked: 0,
            flood_x: 40,
            ..smoke()
        };
        let mut rec = Recorder::new();
        let a = LockstepCluster::build(spec, 9)
            .unwrap()
            .run(Some(&mut rec))
            .unwrap();
        let b = LockstepCluster::build(spec, 9).unwrap().run(None).unwrap();
        assert_eq!(a.totals.fingerprint(), b.totals.fingerprint());
        assert!(a.totals.budget_drops > 0, "the flood never hit a budget");
        let spans = rec.spans();
        let rounds = spans.iter().filter(|s| s.name == "round").count() as u64;
        assert_eq!(rounds, spec.rounds());
        let floods = spans.iter().filter(|s| s.name == "flood.send").count() as u64;
        assert_eq!(floods, spec.rounds());
        // Every NodeCore call is a child of a round and names its node.
        for s in spans.iter().filter(|s| s.name != "round") {
            let parent = &spans[s.parent.unwrap() as usize];
            assert_eq!(parent.name, "round");
            assert_eq!(s.node.is_some(), s.name != "flood.send");
        }
    }

    #[test]
    fn flooding_the_source_too_leaves_most_pairs_undelivered() {
        // The baseline finding behind `flood` sparing the source.
        let spec = LockstepSpec {
            first_attacked: 0,
            ..LockstepSpec::flood()
        };
        let ep = LockstepCluster::build(spec, 20040628)
            .unwrap()
            .run(None)
            .unwrap();
        assert_eq!((ep.totals.deliveries, ep.attempted), (1_134, 3_780));
    }

    #[test]
    fn smoke_run_reports_every_metric() {
        let mut r = run(smoke(), 3, 0.0, 1, false, None).unwrap();
        r.require_table(false);
        assert!(r.correct(), "{:?}", r.failures());
        assert_eq!(r.get("delivered_frac"), Some(1.0));
        let mut t = run(smoke(), 3, 0.0, 1, true, None).unwrap();
        t.require_table(true);
        assert!(t.correct(), "{:?}", t.failures());
    }
}
