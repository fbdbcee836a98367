//! The per-process threaded runtime: unsynchronized local rounds over real
//! UDP sockets.
//!
//! Mirrors the paper's Java implementation (§8): each process runs its own
//! round loop whose duration is randomly jittered, performs the full
//! push-offer/push-reply/push-data handshake plus pull exchanges through
//! the [`drum_core::engine::Engine`], drains its sockets continuously, and
//! discards whatever the per-round budgets reject. "The operations that
//! occur in a round are not synchronized" — process A may send before
//! receiving, B the other way around; only the local round boundaries
//! matter.
//!
//! The round logic itself lives in [`NodeCore`], a single-threaded state
//! machine with no loop of its own: the per-thread [`spawn_process`]
//! runtime drives one core per OS thread, and the sharded runtime
//! ([`crate::shard`]) drives many cores from one event loop. Both callers
//! feed the same methods in the same order, which is what makes the two
//! modes decision-equivalent.

use std::io;
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use std::sync::mpsc::{channel, Receiver, Sender};

use drum_core::bytes::{Bytes, BytesMut};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use drum_core::config::GossipConfig;
use drum_core::engine::{Engine, Outbound, PortPurpose, SendPort};
use drum_core::ids::ProcessId;
use drum_core::message::{DataMessage, GossipMessage, MessageKind};
use drum_core::stream::{StreamConfig, StreamScheduler};
use drum_core::view::Membership;
use drum_crypto::auth::{AuthError, AuthTag};
use drum_crypto::keys::{KeyStore, SecretKey};
use drum_trace::{names, trace_event, Counter, Tracer};

use crate::codec;
use crate::sys;
use crate::transport::{
    bind_ephemeral, AblationSockets, AddressBook, BatchRx, BatchTx, SocketPool, WellKnownSockets,
};

/// Configuration of the networked runtime.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Protocol configuration (variant, fan-out, bounds, ports).
    pub gossip: GossipConfig,
    /// Nominal round duration (1 s in the paper; tests use tens of ms).
    pub round: Duration,
    /// Uniform jitter applied per round: duration ∈ `round × [1−j, 1+j]`.
    /// Round-length randomness is itself a defense: "the attacker cannot
    /// aim its messages for the beginning of a round" (§4).
    pub jitter: f64,
    /// Socket polling interval inside a round. Only the per-datagram
    /// fallback path sleep-polls at this interval; the batched path blocks
    /// in `epoll_wait` until a socket is readable (see DESIGN.md §14).
    pub poll: Duration,
    /// Probability of dropping each outbound datagram (emulated link loss;
    /// 0.0 by default — loopback is lossless, the paper's LAN loses ~1%).
    pub loss: f64,
    /// Observability: cloned into every process (and the attacker, when a
    /// cluster is started through `experiment`). Net events carry
    /// wall-clock timestamps; the registry counters aggregate across all
    /// processes sharing the tracer. Disabled by default.
    pub tracer: Tracer,
    /// Application stream pacing (see [`drum_core::stream`]): how many
    /// queued publishes are released into the gossip layer per round, and
    /// how deep the pending queue may grow before submissions count as
    /// backpressure. The default ([`StreamConfig::unlimited`]) releases
    /// everything immediately — byte-identical to the pre-scheduler
    /// behavior.
    pub stream: StreamConfig,
}

impl NetConfig {
    /// Paper-like defaults scaled for local experiments: 100 ms rounds,
    /// ±20% jitter, 1 ms polling.
    pub fn new(gossip: GossipConfig) -> Self {
        NetConfig {
            gossip,
            round: Duration::from_millis(100),
            jitter: 0.2,
            poll: Duration::from_millis(1),
            loss: 0.0,
            tracer: Tracer::disabled(),
            stream: StreamConfig::unlimited(),
        }
    }

    /// Returns a copy with the given application stream pacing.
    pub fn with_stream(mut self, stream: StreamConfig) -> Self {
        self.stream = stream;
        self
    }

    /// Returns a copy with the given tracer attached.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Returns a copy with emulated outbound link loss.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not within `[0, 1)`.
    pub fn with_loss(mut self, loss: f64) -> Self {
        assert!((0.0..1.0).contains(&loss), "loss must be in [0, 1): {loss}");
        self.loss = loss;
        self
    }

    /// Returns a copy with a different round duration.
    pub fn with_round(mut self, round: Duration) -> Self {
        self.round = round;
        self
    }
}

/// A data message delivered to the application, with its arrival time.
#[derive(Debug, Clone)]
pub struct Delivery {
    /// The delivered message.
    pub message: DataMessage,
    /// Local arrival instant.
    pub at: Instant,
}

/// Counters reported by a process when it stops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Local rounds executed.
    pub rounds: u64,
    /// Rounds whose fixed-cadence deadline had already passed when the
    /// previous round's work finished. The deadline still advances from
    /// the previous deadline (not from `Instant::now()`), so cadence is
    /// preserved; this counts how often the node was behind it.
    pub rounds_late: u64,
    /// Datagrams that failed to decode.
    pub decode_errors: u64,
    /// Datagrams whose kind did not match the port they arrived on.
    pub port_mismatches: u64,
    /// Messages dropped by the per-round budgets (sum over rounds).
    pub budget_drops: u64,
    /// Data messages dropped due to failed source authentication.
    pub auth_drops: u64,
    /// Outbound messages dropped because their destination port was 0 — a
    /// failed random-port allocation upstream (a local bind failure, or a
    /// peer that advertised port 0 after its own allocation failed).
    pub alloc_failed: u64,
    /// New data messages delivered to the application.
    pub delivered: u64,
    /// Datagrams successfully sent.
    pub sent: u64,
    /// Datagrams that decoded successfully (staged or immediate).
    pub received: u64,
    /// Receive syscalls made (`recvmmsg` on the batched path, `recv_from`
    /// on the fallback — the amortization the batching buys is visible as
    /// this staying far below the datagram count under flood). In shard
    /// mode the syscall totals are shared by every engine of the shard.
    pub syscalls_recv: u64,
    /// Send syscalls made (`sendmmsg` or `send_to`).
    pub syscalls_send: u64,
    /// Datagrams moved by batched (`recvmmsg`) receive calls; zero on the
    /// fallback path.
    pub batch_recv_datagrams: u64,
    /// MTU-packed gossip frames sent; zero with `DRUM_NET_NO_PACK=1` or
    /// when random ports are disabled. Each frame is one datagram (so it
    /// is also counted in `sent`).
    pub frames_sent: u64,
    /// Data-plane messages carried inside sent frames. Divide by
    /// `frames_sent` for the mean pack ratio.
    pub framed_msgs: u64,
    /// Received frames dropped because their frame tag failed
    /// authentication (unknown sender or forged tag).
    pub frames_rejected: u64,
    /// High-water mark of message-buffer memory (payload bytes plus
    /// per-entry bookkeeping), sampled at each round end.
    pub buffer_bytes_peak: u64,
    /// Stream-scheduler submissions that found the pending window full
    /// and were queued with backpressure (never silently dropped).
    pub stream_backpressure: u64,
    /// SHA-256 kernel invocations behind this node's MAC work (multiway
    /// verification plus frame signing): an 8-wide call counts once, as
    /// does a single-block call. With the 8-lane kernel active this runs
    /// near `lanes_filled / 8`; forced scalar it equals `lanes_filled`.
    pub compress_calls: u64,
    /// Total kernel lanes those invocations advanced — i.e. blocks hashed.
    /// Identical across `DRUM_CRYPTO_NO_SIMD` modes on a fixed seed.
    pub lanes_filled: u64,
}

/// Handle to a running process.
#[derive(Debug)]
pub struct ProcessHandle {
    id: ProcessId,
    publish_tx: Sender<Bytes>,
    delivered_rx: Receiver<Delivery>,
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<NetStats>>,
}

impl ProcessHandle {
    /// The process id.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// Queues a payload for multicast origination at this process's next
    /// round loop iteration.
    pub fn publish(&self, payload: Bytes) {
        // The runtime thread only exits after `stop`, so a send failure
        // just means the process is already shutting down.
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

    /// Signals the process to stop and waits for it; returns final stats.
    pub fn shutdown(mut self) -> NetStats {
        self.stop.store(true, Ordering::Relaxed);
        self.join
            .take()
            .expect("shutdown called once")
            .join()
            .unwrap_or_default()
    }
}

impl Drop for ProcessHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// Everything needed to launch one process.
pub struct ProcessSpec {
    /// This process's id.
    pub me: ProcessId,
    /// Full member list (self included or not — normalized internally).
    pub members: Vec<ProcessId>,
    /// Cluster address book.
    pub book: AddressBook,
    /// Shared PKI.
    pub key_store: KeyStore,
    /// This process's secret key.
    pub my_key: SecretKey,
    /// Pre-bound well-known sockets (so the book could be built first).
    pub sockets: WellKnownSockets,
    /// Pre-bound fixed reply sockets for the no-random-ports ablation;
    /// must be `Some` exactly when `config.gossip.random_ports == false`.
    pub ablation: Option<AblationSockets>,
    /// Runtime configuration.
    pub config: NetConfig,
    /// RNG seed.
    pub seed: u64,
}

/// Spawns a process thread running the gossip round loop.
///
/// # Errors
///
/// Returns an [`io::Error`] if the outbound send socket cannot be bound.
pub fn spawn_process(spec: ProcessSpec) -> io::Result<ProcessHandle> {
    let send_socket = bind_ephemeral()?;
    let (publish_tx, publish_rx) = channel::<Bytes>();
    let (delivered_tx, delivered_rx) = channel::<Delivery>();
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = stop.clone();
    let id = spec.me;

    let join = std::thread::Builder::new()
        .name(format!("drum-{}", spec.me))
        .spawn(move || run_process(spec, send_socket, publish_rx, delivered_tx, stop_flag))
        .expect("failed to spawn process thread");

    Ok(ProcessHandle {
        id,
        publish_tx,
        delivered_rx,
        stop,
        join: Some(join),
    })
}

/// Bound on each staged-arrival reservoir (per channel, per round).
const STAGE_CAP: usize = 1024;

/// Upper bound on a single epoll wait inside the round loops. Bounds the
/// latency of noticing a stop request without reintroducing the 1 kHz
/// sleep-poll spin: a quiet loop makes at most ~40 wakeups per second.
pub(crate) const EPOLL_WAIT_CAP: Duration = Duration::from_millis(25);

/// The receive channels a node owns. The discriminant is packed into the
/// low bits of a shard's epoll registration token (see [`pack_token`]), so
/// a shared event loop can route each readiness event straight to the
/// owning engine's drain for exactly that channel (and, for the pool,
/// exactly that socket).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ChannelClass {
    /// Well-known pull port (stages `PullRequest`s).
    WkPull,
    /// Well-known push port (stages `PushOffer`s).
    WkPush,
    /// The rotating random-port pool (processed immediately). Each pool
    /// socket registers under its own [`pool_token`], so a wakeup drains
    /// only the concealed port that became readable.
    Pool,
    /// Fixed pull-reply port (no-random-ports ablation only).
    AbPullReply,
    /// Fixed push-reply port (no-random-ports ablation only).
    AbPushReply,
    /// Fixed push-data port (no-random-ports ablation only).
    AbPushData,
}

impl ChannelClass {
    /// Every class, in the order [`NodeCore::drain_all`] visits them: the
    /// attackable (staged) channels first, the random-port pool last.
    pub const ALL: [ChannelClass; 6] = [
        ChannelClass::WkPull,
        ChannelClass::WkPush,
        ChannelClass::AbPullReply,
        ChannelClass::AbPushReply,
        ChannelClass::AbPushData,
        ChannelClass::Pool,
    ];

    fn code(self) -> u64 {
        match self {
            ChannelClass::WkPull => 0,
            ChannelClass::WkPush => 1,
            ChannelClass::Pool => 2,
            ChannelClass::AbPullReply => 3,
            ChannelClass::AbPushReply => 4,
            ChannelClass::AbPushData => 5,
        }
    }

    fn from_code(code: u64) -> Option<ChannelClass> {
        Some(match code {
            0 => ChannelClass::WkPull,
            1 => ChannelClass::WkPush,
            2 => ChannelClass::Pool,
            3 => ChannelClass::AbPullReply,
            4 => ChannelClass::AbPushReply,
            5 => ChannelClass::AbPushData,
            _ => return None,
        })
    }
}

/// Largest engine index an epoll token can carry (45 bits — far beyond
/// any realistic shard width).
pub const MAX_TOKEN_ENGINE: usize = (1 << 45) - 1;

/// Bit offset of the pool port within a token.
const TOKEN_PORT_SHIFT: u32 = 48;

/// Packs an engine index and a channel class into an epoll registration
/// token: `(port << 48) | (engine << 3) | class`, with port 0 here (pool
/// sockets use [`pool_token`]).
///
/// # Panics
///
/// Panics if `engine` exceeds [`MAX_TOKEN_ENGINE`].
pub fn pack_token(engine: usize, class: ChannelClass) -> u64 {
    assert!(
        engine <= MAX_TOKEN_ENGINE,
        "engine index {engine} overflows a token"
    );
    ((engine as u64) << 3) | class.code()
}

/// The token of one pool socket: [`ChannelClass::Pool`] plus the port the
/// socket is bound to, so [`NodeCore::drain_token`] drains that socket
/// alone.
///
/// # Panics
///
/// Panics if `engine` exceeds [`MAX_TOKEN_ENGINE`].
pub fn pool_token(engine: usize, port: u16) -> u64 {
    (u64::from(port) << TOKEN_PORT_SHIFT) | pack_token(engine, ChannelClass::Pool)
}

/// Unpacks an epoll registration token into `(engine index, class)`. The
/// class is `None` for a code no [`ChannelClass`] uses (a foreign
/// registration); shard loops skip those.
pub fn unpack_token(token: u64) -> (usize, Option<ChannelClass>) {
    (
        ((token >> 3) as usize) & MAX_TOKEN_ENGINE,
        ChannelClass::from_code(token & 0x7),
    )
}

/// The pool port carried by a token (0 for the fixed channels).
pub fn token_port(token: u64) -> u16 {
    (token >> TOKEN_PORT_SHIFT) as u16
}

/// Stages one arrival into its bounded per-channel reservoir. Reservoir
/// replacement keeps the retained subset a uniform sample over every
/// arrival of the round, so acceptance is independent of arrival timing.
fn stage_arrival(
    slot: usize,
    msg: GossipMessage,
    staged: &mut [Vec<GossipMessage>; 5],
    staged_seen: &mut [u64; 5],
    rng: &mut SmallRng,
) {
    staged_seen[slot] += 1;
    let q = &mut staged[slot];
    if q.len() < STAGE_CAP {
        q.push(msg);
    } else {
        let i = rng.random_range(0..staged_seen[slot]);
        if (i as usize) < STAGE_CAP {
            q[i as usize] = msg;
        }
    }
}

fn shuffle_in_place(v: &mut [GossipMessage], rng: &mut SmallRng) {
    for i in (1..v.len()).rev() {
        let j = rng.random_range(0..=i as u64) as usize;
        v.swap(i, j);
    }
}

fn jittered(round: Duration, jitter: f64, rng: &mut SmallRng) -> Duration {
    if jitter <= 0.0 {
        return round;
    }
    let factor = 1.0 + rng.random_range(-jitter..jitter);
    round.mul_f64(factor.max(0.05))
}

/// Advances a round deadline on a fixed cadence.
///
/// The next deadline is `prev + jittered(round)` — anchored to the
/// *previous deadline*, never to "now". Anchoring to `Instant::now()`
/// after the round's work (the old behavior) made the effective round
/// length `round + processing time`, so cadence silently stretched under
/// flood — corrupting every per-round measurement. With the fixed anchor a
/// late round is followed by a short one and the long-run rate stays at
/// one round per `round` seconds.
///
/// Returns `(deadline, late)`. `late` is set when `now` had already
/// reached the computed deadline — i.e. the previous round's work overran
/// by at least a full round-length. When the backlog reaches a *further*
/// full round (work persistently slower than the cadence), catching up is
/// hopeless and the deadline re-anchors at `now + jittered(round)` —
/// skipping the unrunnable rounds rather than degenerating into a
/// zero-length round spin.
fn advance_deadline(
    prev: Instant,
    now: Instant,
    round: Duration,
    jitter: f64,
    rng: &mut SmallRng,
) -> (Instant, bool) {
    let next = prev + jittered(round, jitter, rng);
    if next > now {
        return (next, false);
    }
    if now.duration_since(next) >= round {
        // More than one full round behind: skip forward.
        (now + jittered(round, jitter, rng), true)
    } else {
        (next, true)
    }
}

/// The single-threaded round state machine of one gossip node.
///
/// Owns the engine, sockets, staged-arrival reservoirs and per-node stats,
/// and exposes the round loop as discrete steps — [`NodeCore::next_deadline`],
/// [`NodeCore::start_round`], [`NodeCore::drain_all`] /
/// [`NodeCore::drain_token`], [`NodeCore::finish_round`] — so that a
/// driver can interleave many nodes on one thread. [`spawn_process`]
/// drives one core per thread; [`crate::shard`] drives N cores from a
/// timer wheel and a shared epoll instance.
pub struct NodeCore {
    me: ProcessId,
    engine: Engine,
    pool: SocketPool,
    sockets: WellKnownSockets,
    ablation: Option<AblationSockets>,
    book: AddressBook,
    rng: SmallRng,
    config: NetConfig,
    tracer: Tracer,
    publish_rx: Receiver<Bytes>,
    delivered_tx: Sender<Delivery>,
    // Arrivals on attackable channels staged during round r are processed
    // right after round r+1's budget reset (see `start_round`).
    staged: [Vec<GossipMessage>; 5],
    staged_seen: [u64; 5],
    stats: NetStats,
    prev: NetStats,
    // Outbound scratch reused across rounds and poll iterations: `send_out`
    // drains `outs`, so its capacity (and the wire buffer's) is allocated
    // once and amortized over the node lifetime.
    wire: BytesMut,
    outs: Vec<Outbound>,
    /// One drain's decoded messages awaiting dispatch. The third element
    /// ties a message to the received frame it was unpacked from (an index
    /// into the drain's staged frames) — `None` for bare datagrams, which
    /// pay their own per-message verification.
    drained: Vec<(PortPurpose, GossipMessage, Option<u32>)>,
    /// Received frames staged for the one batched tag verification per
    /// drain; signed bodies live in `rx_frame_arena`.
    rx_frames: Vec<RxFrame>,
    rx_frame_arena: Vec<u8>,
    /// Per-frame verdicts of the staged verification, index-aligned with
    /// `rx_frames`.
    frame_verdicts: Vec<Result<(), AuthError>>,
    started: bool,
    /// Whether data-plane replies are coalesced into MTU-packed frames.
    /// True when random ports are on and `DRUM_NET_NO_PACK` is unset; the
    /// receive path accepts both framed and bare datagrams regardless.
    pack: bool,
    /// Reusable frame packer and its wire buffer (packed path only).
    framer: codec::FrameBuilder,
    frame_wire: BytesMut,
    /// Scratch list of distinct frame destinations seen in one flush.
    frame_addrs: Vec<std::net::SocketAddr>,
    /// Outbound frames of one flush staged for the single multiway signing
    /// pass: full wire images (trailing tag zeroed) in `frame_arena`.
    out_frames: Vec<OutFrame>,
    frame_arena: Vec<u8>,
    /// Reusable tag buffer for the signing pass.
    frame_tags: Vec<AuthTag>,
    /// Application stream pacing between `publish()` and the engine.
    stream: StreamScheduler,
    c_sent: Counter,
    c_received: Counter,
    c_bound: Counter,
    c_pull_refused: Counter,
    c_decode: Counter,
    c_sys_recv: Counter,
    c_sys_send: Counter,
    c_batch_fill: Counter,
    c_rounds_late: Counter,
    c_alloc_failed: Counter,
    c_frames_sent: Counter,
    c_msgs_per_frame: Counter,
    c_frames_rejected: Counter,
    c_buf_peak: Counter,
    c_backpressure: Counter,
    c_compress_calls: Counter,
    c_lanes_filled: Counter,
}

/// A received frame staged for the per-drain batched tag verification.
#[derive(Debug)]
struct RxFrame {
    sender: ProcessId,
    nonce: u64,
    tag: AuthTag,
    /// Span of the signed body within `NodeCore::rx_frame_arena`.
    start: usize,
    len: usize,
}

/// An outbound frame staged for the per-flush batched signing pass.
#[derive(Debug)]
struct OutFrame {
    addr: std::net::SocketAddr,
    nonce: u64,
    /// Span of the full wire image (tag bytes zeroed) within
    /// `NodeCore::frame_arena`.
    start: usize,
    len: usize,
}

impl NodeCore {
    /// Builds the node state from a spec and its application-facing
    /// channels, and emits the `proc.start` trace event.
    pub fn new(
        spec: ProcessSpec,
        publish_rx: Receiver<Bytes>,
        delivered_tx: Sender<Delivery>,
    ) -> NodeCore {
        let ProcessSpec {
            me,
            members,
            book,
            key_store,
            my_key,
            sockets,
            ablation,
            config,
            seed,
        } = spec;
        let membership = Membership::new(me, members);
        let mut engine = Engine::new(config.gossip.clone(), membership, key_store, my_key, seed);
        // The engine resolves its own registry handles (the batched-MAC
        // verdict counters) from its tracer, so it needs the cluster's
        // tracer, not the disabled default it was constructed with.
        engine.set_tracer(config.tracer.clone());
        if let Some(ab) = &ablation {
            // Figure 12(a) ablation: fixed reply ports that the engine will
            // advertise instead of fresh random ones.
            let port = |s: &UdpSocket| s.local_addr().map(|a| a.port()).unwrap_or(0);
            engine.set_fixed_ports(
                port(&ab.pull_reply),
                port(&ab.push_reply),
                port(&ab.push_data),
            );
        }
        let rng = SmallRng::seed_from_u64(seed ^ seed_of(me));
        let mut pool = SocketPool::new(config.gossip.port_lifetime_rounds.max(1));
        let tracer = config.tracer.clone();
        let reg = tracer.registry().clone();
        pool.set_rotation_counter(reg.counter(names::PORT_ROTATIONS));
        trace_event!(
            tracer,
            "net",
            "proc.start",
            tracer.wall_now(),
            me = me.as_u64(),
            variant = config.gossip.variant.to_string(),
            random_ports = config.gossip.random_ports
        );
        let pack = config.gossip.random_ports && std::env::var_os("DRUM_NET_NO_PACK").is_none();
        let stream = StreamScheduler::new(config.stream);
        NodeCore {
            me,
            engine,
            pool,
            sockets,
            ablation,
            book,
            rng,
            config,
            tracer: tracer.clone(),
            publish_rx,
            delivered_tx,
            staged: Default::default(),
            staged_seen: [0u64; 5],
            stats: NetStats::default(),
            prev: NetStats::default(),
            wire: BytesMut::with_capacity(codec::MAX_WIRE_LEN),
            outs: Vec::new(),
            drained: Vec::new(),
            rx_frames: Vec::new(),
            rx_frame_arena: Vec::new(),
            frame_verdicts: Vec::new(),
            started: false,
            pack,
            framer: codec::FrameBuilder::new(),
            frame_wire: BytesMut::with_capacity(codec::MAX_WIRE_LEN),
            frame_addrs: Vec::new(),
            out_frames: Vec::new(),
            frame_arena: Vec::new(),
            frame_tags: Vec::new(),
            stream,
            c_sent: reg.counter(names::MESSAGES_SENT),
            c_received: reg.counter(names::MESSAGES_RECEIVED),
            c_bound: reg.counter(names::DROPPED_BY_BOUND),
            c_pull_refused: reg.counter(names::PULL_REQUESTS_REFUSED),
            c_decode: reg.counter(names::DECODE_ERRORS),
            c_sys_recv: reg.counter(names::SYSCALLS_RECV),
            c_sys_send: reg.counter(names::SYSCALLS_SEND),
            c_batch_fill: reg.counter(names::BATCH_FILL),
            c_rounds_late: reg.counter(names::NET_ROUNDS_LATE),
            c_alloc_failed: reg.counter(names::NET_ALLOC_FAILED),
            c_frames_sent: reg.counter(names::FRAMES_SENT),
            c_msgs_per_frame: reg.counter(names::MSGS_PER_FRAME),
            c_frames_rejected: reg.counter(names::FRAMES_REJECTED),
            c_buf_peak: reg.counter(names::BUFFER_BYTES_PEAK),
            c_backpressure: reg.counter(names::STREAM_BACKPRESSURE),
            c_compress_calls: reg.counter(names::CRYPTO_COMPRESS_CALLS),
            c_lanes_filled: reg.counter(names::CRYPTO_LANES_FILLED),
        }
    }

    /// The node's process id.
    pub fn id(&self) -> ProcessId {
        self.me
    }

    /// Stats accumulated so far (finalized by [`NodeCore::finalize`]).
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Registers every receive socket with `ep` using fd-valued tokens
    /// (the per-thread runtime never inspects them). All-or-nothing: a
    /// partially registered set would sleep through live sockets, so any
    /// failure reverts the caller to the sleep-poll fallback.
    pub fn register_with(&mut self, ep: &Arc<sys::Epoll>) -> bool {
        let mut ok = ep.add(&self.sockets.pull).is_ok() && ep.add(&self.sockets.push).is_ok();
        if let Some(ab) = &self.ablation {
            ok &= ep.add(&ab.pull_reply).is_ok()
                && ep.add(&ab.push_reply).is_ok()
                && ep.add(&ab.push_data).is_ok();
        }
        if ok {
            self.pool.set_epoll(ep.clone());
        }
        ok
    }

    /// Registers every receive socket with a *shared* shard epoll, tagging
    /// each registration with `pack_token(engine, class)` so the shard's
    /// event loop can dispatch readiness straight to this engine. Pool
    /// sockets, bound later in the node's lifetime, each register under
    /// their own `pool_token(engine, port)`. All-or-nothing, like
    /// [`NodeCore::register_with`].
    pub fn register_tagged(&mut self, ep: &Arc<sys::Epoll>, engine: usize) -> bool {
        let mut ok = ep
            .add_tagged(&self.sockets.pull, pack_token(engine, ChannelClass::WkPull))
            .is_ok()
            && ep
                .add_tagged(&self.sockets.push, pack_token(engine, ChannelClass::WkPush))
                .is_ok();
        if let Some(ab) = &self.ablation {
            ok &= ep
                .add_tagged(
                    &ab.pull_reply,
                    pack_token(engine, ChannelClass::AbPullReply),
                )
                .is_ok()
                && ep
                    .add_tagged(
                        &ab.push_reply,
                        pack_token(engine, ChannelClass::AbPushReply),
                    )
                    .is_ok()
                && ep
                    .add_tagged(&ab.push_data, pack_token(engine, ChannelClass::AbPushData))
                    .is_ok();
        }
        if ok {
            self.pool.set_epoll_tagged(ep.clone(), engine);
        }
        ok
    }

    /// Advances this node's round deadline on the fixed cadence (see
    /// [`advance_deadline`]), counting late rounds.
    pub fn next_deadline(&mut self, prev: Instant, now: Instant) -> Instant {
        let (next, late) = advance_deadline(
            prev,
            now,
            self.config.round,
            self.config.jitter,
            &mut self.rng,
        );
        if late {
            self.stats.rounds_late += 1;
            self.c_rounds_late.inc();
        }
        next
    }

    /// Starts a round: accepts pending application publishes, runs the
    /// engine's round start (fresh budgets, new pull-requests and
    /// push-offers), then processes the *previous* round's staged arrivals
    /// against the fresh budgets.
    ///
    /// Messages on *attackable* channels (the well-known ports, plus the
    /// fixed reply ports in ablation mode) are STAGED: collected all round
    /// long into bounded reservoirs and only processed — as a uniformly
    /// random budget-sized subset — here, at the next round start. This
    /// realizes the paper's model exactly: "p discards all unread messages
    /// from its incoming message buffers" at round end, with the accepted
    /// subset independent of arrival timing, and it keeps the OS queues
    /// drained so accepted pull-requests are never stale. Crucially for
    /// the shared-bounds ablation, the flood charges the budget *before*
    /// this round's mid-round replies contend for it, exactly as a bounded
    /// FCFS reader would behave.
    pub fn start_round(&mut self, send_socket: &UdpSocket, tx: &mut BatchTx) {
        while let Ok(payload) = self.publish_rx.try_recv() {
            // Windowed streams queue (and count backpressure) rather than
            // silently dropping; the unlimited default admits everything.
            self.stream.submit(payload);
        }
        let Self { stream, engine, .. } = self;
        stream.release_round(|payload| {
            engine.publish(payload);
        });
        let round_outs = self.engine.begin_round(&mut self.pool);
        self.outs.extend(round_outs);
        self.send_out(send_socket, tx);

        for slot in 0..5 {
            self.staged_seen[slot] = 0;
            shuffle_in_place(&mut self.staged[slot], &mut self.rng);
            for msg in self.staged[slot].drain(..) {
                self.engine.handle_into(msg, &mut self.pool, &mut self.outs);
            }
        }
        self.send_out(send_socket, tx);
        self.deliver();
        self.started = true;
    }

    /// Drains every receive channel once, sends the responses, and flushes
    /// deliveries — one poll iteration of the round loop.
    pub fn drain_all(
        &mut self,
        rx: &mut BatchRx,
        scratch: &mut [u8],
        send_socket: &UdpSocket,
        tx: &mut BatchTx,
    ) {
        self.drain_staging(ChannelClass::WkPull, rx, scratch);
        self.drain_staging(ChannelClass::WkPush, rx, scratch);
        if self.ablation.is_some() {
            self.drain_staging(ChannelClass::AbPullReply, rx, scratch);
            self.drain_staging(ChannelClass::AbPushReply, rx, scratch);
            self.drain_staging(ChannelClass::AbPushData, rx, scratch);
        }
        self.drain_pool(None, rx, scratch);
        self.send_out(send_socket, tx);
        self.deliver();
    }

    /// Drains the one socket an epoll token names (for token-directed
    /// shard dispatch): a fixed channel, or the single pool socket bound
    /// to the token's port. Sends any responses it generated and flushes
    /// deliveries. Tokens with an unknown class are ignored.
    pub fn drain_token(
        &mut self,
        token: u64,
        rx: &mut BatchRx,
        scratch: &mut [u8],
        send_socket: &UdpSocket,
        tx: &mut BatchTx,
    ) {
        match unpack_token(token).1 {
            Some(ChannelClass::Pool) => self.drain_pool(Some(token_port(token)), rx, scratch),
            Some(attackable) => self.drain_staging(attackable, rx, scratch),
            None => return,
        }
        if !self.outs.is_empty() {
            self.send_out(send_socket, tx);
        }
        self.deliver();
    }

    /// Drains one attackable socket until it would block, staging arrivals
    /// of its designated kind and counting mismatches/garbage. Shared by
    /// the well-known ports and the fixed reply ports of the ablation mode.
    ///
    /// Datagrams move through `rx` — one `recvmmsg` per batch, or one
    /// `recv_from` per datagram on the fallback path. Both orders match
    /// the kernel queue, so the staging decisions (and therefore the
    /// reservoir RNG draws) are identical in either mode.
    fn drain_staging(&mut self, class: ChannelClass, rx: &mut BatchRx, scratch: &mut [u8]) {
        let Self {
            sockets,
            ablation,
            stats,
            staged,
            staged_seen,
            rng,
            ..
        } = self;
        let (socket, expected, slot) = match (class, ablation.as_ref()) {
            (ChannelClass::WkPull, _) => (&sockets.pull, MessageKind::PullRequest, 0usize),
            (ChannelClass::WkPush, _) => (&sockets.push, MessageKind::PushOffer, 1),
            (ChannelClass::AbPullReply, Some(ab)) => (&ab.pull_reply, MessageKind::PullReply, 2),
            (ChannelClass::AbPushReply, Some(ab)) => (&ab.push_reply, MessageKind::PushReply, 3),
            (ChannelClass::AbPushData, Some(ab)) => (&ab.push_data, MessageKind::PushData, 4),
            _ => return,
        };
        rx.drain_socket(socket, scratch, |bytes| match codec::decode(bytes) {
            Ok(msg) if msg.kind() == expected => {
                stats.received += 1;
                stage_arrival(slot, msg, staged, staged_seen, rng);
            }
            Ok(_) => stats.port_mismatches += 1,
            Err(_) => stats.decode_errors += 1,
        });
    }

    /// Drains the random-port pool — every live socket, or only the one
    /// bound to `port`. Kind must match the port's allocated purpose;
    /// matches are processed immediately (the adversary cannot contend on
    /// concealed ports, and immediate processing gives the model's
    /// same-round pull-replies).
    ///
    /// Pool sockets accept both bare gossip datagrams and MTU-packed
    /// frames regardless of this node's own packing mode, so mixed
    /// clusters (and the `DRUM_NET_NO_PACK=1` ablation) interoperate. A
    /// frame is one datagram for `received`; its tag is verified against
    /// the claimed sender's key and the inner messages then skip
    /// per-message source MACs (the frame sender is proven honest, and
    /// honest members only pack messages they already verified).
    fn drain_pool(&mut self, port: Option<u16>, rx: &mut BatchRx, scratch: &mut [u8]) {
        let Self {
            pool,
            stats,
            drained,
            rx_frames,
            rx_frame_arena,
            ..
        } = self;
        pool.drain(port, rx, scratch, |purpose, bytes| {
            if codec::is_frame(bytes) {
                let frame = match codec::decode_frame(bytes) {
                    Ok(frame) => frame,
                    Err(_) => {
                        stats.decode_errors += 1;
                        return;
                    }
                };
                // Stage the frame: all of a drain's frame tags are checked
                // in one multiway HMAC pass below instead of one full
                // SHA-256 round-trip per frame.
                let body = codec::frame_signed_body(bytes).unwrap_or(&[]);
                let fidx = rx_frames.len() as u32;
                let start = rx_frame_arena.len();
                rx_frame_arena.extend_from_slice(body);
                rx_frames.push(RxFrame {
                    sender: frame.sender,
                    nonce: frame.nonce,
                    tag: frame.auth,
                    start,
                    len: body.len(),
                });
                for msg in frame.messages {
                    drained.push((purpose, msg, Some(fidx)));
                }
            } else {
                match codec::decode(bytes) {
                    Ok(msg) => {
                        stats.received += 1;
                        drained.push((purpose, msg, None));
                    }
                    Err(_) => stats.decode_errors += 1,
                }
            }
        });
        if !self.rx_frames.is_empty() {
            let jobs: Vec<(ProcessId, u64, &[u8], AuthTag)> = self
                .rx_frames
                .iter()
                .map(|f| {
                    (
                        f.sender,
                        f.nonce,
                        &self.rx_frame_arena[f.start..f.start + f.len],
                        f.tag,
                    )
                })
                .collect();
            self.engine
                .verify_frames_many(&jobs, &mut self.frame_verdicts);
            for verdict in &self.frame_verdicts {
                if verdict.is_ok() {
                    self.stats.received += 1;
                } else {
                    self.stats.frames_rejected += 1;
                }
            }
        }
        for (purpose, msg, src) in self.drained.drain(..) {
            if let Some(fidx) = src {
                if self.frame_verdicts[fidx as usize].is_err() {
                    continue; // whole frame rejected above
                }
            }
            let matches = matches!(
                (purpose, msg.kind()),
                (PortPurpose::PullReply, MessageKind::PullReply)
                    | (PortPurpose::PushReply, MessageKind::PushReply)
                    | (PortPurpose::PushData, MessageKind::PushData)
            );
            if !matches {
                self.stats.port_mismatches += 1;
            } else if src.is_some() {
                self.engine
                    .handle_into_preverified(msg, &mut self.pool, &mut self.outs);
            } else {
                self.engine.handle_into(msg, &mut self.pool, &mut self.outs);
            }
        }
        self.rx_frames.clear();
        self.rx_frame_arena.clear();
    }

    /// Whether an outbound message rides inside an MTU-packed frame on the
    /// packed path: data-plane replies (pull-replies and push-data) headed
    /// for a resolved random port. Control messages and anything aimed at
    /// a well-known port stay bare.
    fn packable(out: &Outbound) -> bool {
        matches!(
            out.msg,
            GossipMessage::PullReply { .. } | GossipMessage::PushData { .. }
        ) && matches!(out.port, SendPort::Port(p) if p != 0)
    }

    /// Drains `self.outs`, encoding into the reusable wire scratch. The
    /// engine fans the same `PushData`/`PushOffer`/`PullRequest` to
    /// several recipients back-to-back, so the encoder runs only when the
    /// message actually changes from the previously encoded one
    /// (encode-once fan-out); the loss draw stays per-datagram either way.
    /// Datagrams leave through `tx`: one sendmmsg per batch on the batched
    /// path (repeats share the arena bytes), one send_to each on the
    /// fallback.
    ///
    /// On the packed path, data-plane replies to the same destination are
    /// coalesced into MTU-budgeted frames afterwards (see
    /// [`NodeCore::send_frames`]); each frame costs one datagram and one
    /// HMAC no matter how many messages it carries.
    fn send_out(&mut self, send_socket: &UdpSocket, tx: &mut BatchTx) {
        let loss = self.config.loss;
        let mut encoded: Option<usize> = None;
        for i in 0..self.outs.len() {
            if self.pack && Self::packable(&self.outs[i]) {
                continue; // coalesced into frames below
            }
            if loss > 0.0 && self.rng.random_bool(loss) {
                continue; // emulated link loss
            }
            let addr = match self.outs[i].port {
                SendPort::WellKnownPull => match self.book.addrs_of(self.outs[i].to) {
                    Some(a) => a.pull,
                    None => continue,
                },
                SendPort::WellKnownPush => match self.book.addrs_of(self.outs[i].to) {
                    Some(a) => a.push,
                    None => continue,
                },
                SendPort::Port(0) => {
                    // Allocation failed upstream; dropping silently would
                    // hide socket exhaustion from every dashboard.
                    self.stats.alloc_failed += 1;
                    continue;
                }
                SendPort::Port(p) => AddressBook::loopback(p),
            };
            let repeat = matches!(encoded, Some(j) if self.outs[j].msg == self.outs[i].msg);
            if !repeat {
                codec::encode_into(&self.outs[i].msg, &mut self.wire);
                encoded = Some(i);
            }
            tx.push(send_socket, addr, &self.wire[..], repeat);
        }
        if self.pack {
            self.send_frames(send_socket, tx);
            self.ship_frames(send_socket, tx);
        }
        self.stats.sent += tx.finish(send_socket);
        self.outs.clear();
    }

    /// Greedily fills MTU-budgeted frames with this flush's packable
    /// messages, grouped by destination in first-seen order, and sends
    /// each frame as one signed datagram. A message too large for the
    /// budget rides alone in an oversized solo frame; one that exceeds
    /// even the wire cap falls back to a bare datagram (receivers accept
    /// both forms on pool ports).
    fn send_frames(&mut self, send_socket: &UdpSocket, tx: &mut BatchTx) {
        self.frame_addrs.clear();
        for i in 0..self.outs.len() {
            if !Self::packable(&self.outs[i]) {
                continue;
            }
            let SendPort::Port(p) = self.outs[i].port else {
                continue;
            };
            let addr = AddressBook::loopback(p);
            if !self.frame_addrs.contains(&addr) {
                self.frame_addrs.push(addr);
            }
        }
        let addrs = core::mem::take(&mut self.frame_addrs);
        for &addr in &addrs {
            for i in 0..self.outs.len() {
                if !Self::packable(&self.outs[i]) {
                    continue;
                }
                let SendPort::Port(p) = self.outs[i].port else {
                    continue;
                };
                if AddressBook::loopback(p) != addr {
                    continue;
                }
                if !self.framer.push(&self.outs[i].msg) {
                    if !self.framer.is_empty() {
                        self.flush_frame(addr);
                    }
                    if !self.framer.push(&self.outs[i].msg) {
                        // Exceeds even an oversized solo frame: send bare.
                        self.send_bare(i, addr, send_socket, tx);
                    }
                }
            }
            if !self.framer.is_empty() {
                self.flush_frame(addr);
            }
        }
        self.frame_addrs = addrs;
    }

    /// Seals the frame under construction with a zeroed tag and stages it
    /// for the one multiway signing pass per flush (see
    /// [`NodeCore::ship_frames`]). The nonce allocation and the emulated
    /// loss draw both stay here, per frame in flush order, so the nonce
    /// and RNG sequences match the unbatched path exactly; a lost frame
    /// simply never reaches the signer.
    fn flush_frame(&mut self, addr: std::net::SocketAddr) {
        let nonce = self.engine.frame_nonce();
        let packed = self
            .framer
            .finish_unsigned_into(self.me, nonce, &mut self.frame_wire);
        if self.config.loss > 0.0 && self.rng.random_bool(self.config.loss) {
            return; // emulated link loss, drawn per frame datagram
        }
        let start = self.frame_arena.len();
        self.frame_arena.extend_from_slice(&self.frame_wire[..]);
        self.out_frames.push(OutFrame {
            addr,
            nonce,
            start,
            len: self.frame_wire.len(),
        });
        self.stats.frames_sent += 1;
        self.stats.framed_msgs += packed as u64;
    }

    /// Signs every frame staged by [`NodeCore::flush_frame`] in one
    /// multiway HMAC pass — all partners' frames of a flush fill SIMD
    /// lanes together — patches the tags over the zeroed trailing bytes,
    /// and transmits the finished datagrams in flush order.
    fn ship_frames(&mut self, send_socket: &UdpSocket, tx: &mut BatchTx) {
        if self.out_frames.is_empty() {
            return;
        }
        let jobs: Vec<(u64, &[u8])> = self
            .out_frames
            .iter()
            .map(|f| {
                (
                    f.nonce,
                    &self.frame_arena[f.start..f.start + f.len - codec::FRAME_TAG_LEN],
                )
            })
            .collect();
        let mut tags = core::mem::take(&mut self.frame_tags);
        self.engine.sign_frames_many(&jobs, &mut tags);
        for (f, tag) in self.out_frames.iter().zip(&tags) {
            let at = f.start + f.len - codec::FRAME_TAG_LEN;
            self.frame_arena[at..f.start + f.len].copy_from_slice(&tag.0);
        }
        for f in &self.out_frames {
            tx.push(
                send_socket,
                f.addr,
                &self.frame_arena[f.start..f.start + f.len],
                false,
            );
        }
        self.frame_tags = tags;
        self.out_frames.clear();
        self.frame_arena.clear();
    }

    /// Unframed fallback for a single packable message (frame overhead
    /// would push it past the wire cap).
    fn send_bare(
        &mut self,
        i: usize,
        addr: std::net::SocketAddr,
        send_socket: &UdpSocket,
        tx: &mut BatchTx,
    ) {
        if self.config.loss > 0.0 && self.rng.random_bool(self.config.loss) {
            return;
        }
        codec::encode_into(&self.outs[i].msg, &mut self.wire);
        tx.push(send_socket, addr, &self.wire[..], false);
    }

    fn deliver(&mut self) {
        let delivered = self.engine.take_delivered();
        if delivered.is_empty() {
            return;
        }
        let now = Instant::now();
        for msg in delivered {
            let _ = self.delivered_tx.send(Delivery {
                message: msg,
                at: now,
            });
        }
    }

    /// Mirrors the driver's syscall totals into the stats this node
    /// reports. The per-thread runtime calls this every round (its I/O
    /// batchers serve exactly one node); a shard calls it only through
    /// [`NodeCore::finalize`], because its batchers are shared.
    pub fn set_sys_totals(&mut self, recv: u64, send: u64, batched_datagrams: u64) {
        self.stats.syscalls_recv = recv;
        self.stats.syscalls_send = send;
        self.stats.batch_recv_datagrams = batched_datagrams;
    }

    /// Ends the current round: engine round end, stats accumulation, pool
    /// expiry, per-round registry counter deltas and the `round` trace
    /// event.
    pub fn finish_round(&mut self) {
        let round_stats = self.engine.end_round();
        self.stats.rounds += 1;
        let round_drops = round_stats.dropped_budget.iter().sum::<u64>();
        self.stats.budget_drops += round_drops;
        self.stats.auth_drops += round_stats.dropped_auth;
        self.stats.delivered += round_stats.delivered;
        self.pool.expire(self.engine.round());

        // Per-round observability: registry counters take the deltas (so
        // cluster-wide totals aggregate across processes), and one event
        // summarizes the round. Both are no-ops with a disabled tracer
        // beyond a handful of relaxed atomic adds.
        self.c_sent.add(self.stats.sent - self.prev.sent);
        self.c_received
            .add(self.stats.received - self.prev.received);
        self.c_bound.add(round_drops);
        self.c_pull_refused
            .add(round_stats.dropped_of(MessageKind::PullRequest));
        self.c_decode
            .add(self.stats.decode_errors - self.prev.decode_errors);
        self.c_sys_recv
            .add(self.stats.syscalls_recv - self.prev.syscalls_recv);
        self.c_sys_send
            .add(self.stats.syscalls_send - self.prev.syscalls_send);
        self.c_batch_fill
            .add(self.stats.batch_recv_datagrams - self.prev.batch_recv_datagrams);
        self.c_alloc_failed
            .add(self.stats.alloc_failed - self.prev.alloc_failed);
        self.stats.buffer_bytes_peak = self.engine.buffer().bytes_peak() as u64;
        self.stats.stream_backpressure = self.stream.stats().backpressure;
        self.c_frames_sent
            .add(self.stats.frames_sent - self.prev.frames_sent);
        self.c_msgs_per_frame
            .add(self.stats.framed_msgs - self.prev.framed_msgs);
        self.c_frames_rejected
            .add(self.stats.frames_rejected - self.prev.frames_rejected);
        // Peaks are monotone per node, so per-round deltas sum to the peak
        // and cluster-wide aggregation stays meaningful.
        self.c_buf_peak
            .add(self.stats.buffer_bytes_peak - self.prev.buffer_bytes_peak);
        self.c_backpressure
            .add(self.stats.stream_backpressure - self.prev.stream_backpressure);
        let lanes = self.engine.lane_stats();
        self.stats.compress_calls = lanes.compress_calls;
        self.stats.lanes_filled = lanes.lanes_filled;
        self.c_compress_calls
            .add(self.stats.compress_calls - self.prev.compress_calls);
        self.c_lanes_filled
            .add(self.stats.lanes_filled - self.prev.lanes_filled);
        trace_event!(
            self.tracer,
            "net",
            "round",
            self.tracer.wall_now(),
            me = self.me.as_u64(),
            round = self.engine.round().as_u64(),
            sent = self.stats.sent - self.prev.sent,
            received = self.stats.received - self.prev.received,
            frames = self.stats.frames_sent - self.prev.frames_sent,
            budget_drops = round_drops,
            decode_errors = self.stats.decode_errors - self.prev.decode_errors,
            port_mismatches = self.stats.port_mismatches - self.prev.port_mismatches,
            alloc_failed = self.stats.alloc_failed - self.prev.alloc_failed,
            delivered = round_stats.delivered
        );
        self.prev = self.stats;
        self.started = false;
    }

    /// One timer-wheel tick: finish the running round (if any) and start
    /// the next. The shard's wheel calls this when the node's deadline
    /// fires.
    pub fn round_tick(&mut self, send_socket: &UdpSocket, tx: &mut BatchTx) {
        if self.started {
            self.finish_round();
        }
        self.start_round(send_socket, tx);
    }

    /// Tears the node down: finishes a round still in flight, mirrors the
    /// driver's final shared syscall totals (shard mode), emits the
    /// `proc.stop` event and returns the final stats.
    pub fn finalize(mut self, sys_totals: Option<(u64, u64, u64)>) -> NetStats {
        if self.started {
            self.finish_round();
        }
        if let Some((recv, send, batched)) = sys_totals {
            // After the last finish_round, so the totals are not run
            // through the per-round registry deltas a second time — the
            // shard accounts for its shared batchers itself.
            self.stats.syscalls_recv = recv;
            self.stats.syscalls_send = send;
            self.stats.batch_recv_datagrams = batched;
        }
        trace_event!(
            self.tracer,
            "net",
            "proc.stop",
            self.tracer.wall_now(),
            me = self.me.as_u64(),
            rounds = self.stats.rounds,
            rounds_late = self.stats.rounds_late,
            sent = self.stats.sent,
            received = self.stats.received,
            budget_drops = self.stats.budget_drops,
            delivered = self.stats.delivered
        );
        self.stats
    }
}

fn run_process(
    spec: ProcessSpec,
    send_socket: UdpSocket,
    publish_rx: Receiver<Bytes>,
    delivered_tx: Sender<Delivery>,
    stop: Arc<AtomicBool>,
) -> NetStats {
    let config = spec.config.clone();
    let mut core = NodeCore::new(spec, publish_rx, delivered_tx);

    // Batched syscall I/O (DESIGN.md §14): one recvmmsg drains up to 64
    // datagrams, the encode-once fan-out flushes through one sendmmsg per
    // flush, and the round loop blocks in epoll instead of spinning a
    // sleep-poll. Every piece degrades independently to the per-datagram
    // fallback (non-Linux, `DRUM_NET_NO_BATCH=1`, or an epoll setup error)
    // with identical accept/drop behavior.
    let mut batch_rx = BatchRx::new(codec::MAX_WIRE_LEN + 1);
    let mut batch_tx = BatchTx::new();
    let mut scratch = vec![0u8; codec::MAX_WIRE_LEN + 1];
    let epoll = if sys::enabled() {
        sys::Epoll::new()
            .ok()
            .map(Arc::new)
            .filter(|ep| core.register_with(ep))
    } else {
        None
    };

    let mut tokens = Vec::new();
    let mut deadline = Instant::now();
    while !stop.load(Ordering::Relaxed) {
        deadline = core.next_deadline(deadline, Instant::now());
        core.start_round(&send_socket, &mut batch_tx);

        loop {
            core.drain_all(&mut batch_rx, &mut scratch, &send_socket, &mut batch_tx);

            let now = Instant::now();
            if now >= deadline || stop.load(Ordering::Relaxed) {
                break;
            }
            match &epoll {
                // Batched path: block until any live socket is readable or
                // the round deadline arrives — quiet rounds make a handful
                // of wakeups instead of a 1 kHz sleep-poll spin, flooded
                // rounds wake once per kernel batch. The wait is capped so
                // a stop request is still honored promptly. The tokens are
                // not needed: the next pass drains every socket.
                Some(ep) => {
                    let remaining = deadline.saturating_duration_since(now);
                    tokens.clear();
                    let _ = ep.wait_tagged(remaining.min(EPOLL_WAIT_CAP), &mut tokens);
                }
                // Fallback: the seed's fixed-interval sleep-poll.
                None => std::thread::sleep(config.poll),
            }
        }

        core.set_sys_totals(
            batch_rx.syscalls(),
            batch_tx.syscalls(),
            batch_rx.batched_datagrams(),
        );
        core.finish_round();
    }

    core.finalize(None)
}

/// Mixes a process id into a seed so that a shared base seed still gives
/// every process its own RNG stream.
pub fn seed_of(me: ProcessId) -> u64 {
    me.as_u64().wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Draws a base seed from OS entropy, for deployments where the port and
/// peer randomization must be unpredictable to an outside observer rather
/// than reproducible. Experiments that need replayable runs should keep
/// passing a fixed [`ProcessSpec::seed`] instead.
pub fn os_random_seed() -> u64 {
    SmallRng::from_os_rng().next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::WellKnownSockets;

    fn cluster(n: u64, gossip: GossipConfig, round_ms: u64) -> Vec<ProcessHandle> {
        let key_store = KeyStore::new(99);
        let members: Vec<ProcessId> = (0..n).map(ProcessId).collect();
        let mut socks = Vec::new();
        let mut entries = Vec::new();
        for &m in &members {
            let (s, addrs) = WellKnownSockets::bind().unwrap();
            socks.push((m, s));
            entries.push((m, addrs));
        }
        let book = AddressBook::new(entries);
        socks
            .into_iter()
            .map(|(m, sockets)| {
                let my_key = key_store.register(m.as_u64());
                spawn_process(ProcessSpec {
                    me: m,
                    members: members.clone(),
                    book: book.clone(),
                    key_store: key_store.clone(),
                    my_key,
                    sockets,
                    ablation: None,
                    config: NetConfig::new(gossip.clone())
                        .with_round(Duration::from_millis(round_ms)),
                    seed: seed_of(m),
                })
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn drum_disseminates_over_udp() {
        let handles = cluster(6, GossipConfig::drum(), 40);
        handles[0].publish(Bytes::from_static(b"hello udp"));
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut received = [false; 6];
        received[0] = true;
        while Instant::now() < deadline && received.iter().any(|r| !r) {
            for (i, h) in handles.iter().enumerate() {
                for d in h.take_delivered() {
                    assert_eq!(d.message.payload, Bytes::from_static(b"hello udp"));
                    received[i] = true;
                }
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        for (i, r) in received.iter().enumerate() {
            assert!(*r, "process {i} never received the message");
        }
        for h in handles {
            let stats = h.shutdown();
            assert!(stats.rounds > 0);
        }
    }

    #[test]
    fn push_only_disseminates_over_udp() {
        let handles = cluster(5, GossipConfig::push(), 40);
        handles[0].publish(Bytes::from_static(b"push"));
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut got = 0;
        while Instant::now() < deadline && got < 4 {
            got += handles[1..]
                .iter()
                .map(|h| h.take_delivered().len())
                .sum::<usize>();
            std::thread::sleep(Duration::from_millis(25));
        }
        // At least some processes must have it quickly; exact counts are
        // timing dependent.
        assert!(got > 0, "nobody received the pushed message");
        for h in handles {
            h.shutdown();
        }
    }

    #[test]
    fn with_loss_validates_range() {
        let cfg = NetConfig::new(GossipConfig::drum()).with_loss(0.25);
        assert_eq!(cfg.loss, 0.25);
        let result =
            std::panic::catch_unwind(|| NetConfig::new(GossipConfig::drum()).with_loss(1.0));
        assert!(result.is_err(), "loss = 1.0 must be rejected");
    }

    #[test]
    fn lossy_links_slow_but_do_not_stop_dissemination() {
        let key_store = KeyStore::new(5);
        let members: Vec<ProcessId> = (0..5).map(ProcessId).collect();
        let mut socks = Vec::new();
        let mut entries = Vec::new();
        for &m in &members {
            let (s, addrs) = WellKnownSockets::bind().unwrap();
            socks.push((m, s));
            entries.push((m, addrs));
        }
        let book = AddressBook::new(entries);
        let handles: Vec<ProcessHandle> = socks
            .into_iter()
            .map(|(m, sockets)| {
                let my_key = key_store.register(m.as_u64());
                spawn_process(ProcessSpec {
                    me: m,
                    members: members.clone(),
                    book: book.clone(),
                    key_store: key_store.clone(),
                    my_key,
                    sockets,
                    ablation: None,
                    config: NetConfig::new(GossipConfig::drum())
                        .with_round(Duration::from_millis(40))
                        .with_loss(0.2),
                    seed: seed_of(m),
                })
                .unwrap()
            })
            .collect();

        handles[0].publish(Bytes::from_static(b"lossy"));
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut reached = 0;
        let mut seen = [false; 5];
        seen[0] = true;
        while Instant::now() < deadline && reached < 5 {
            for (i, h) in handles.iter().enumerate() {
                if !h.take_delivered().is_empty() {
                    seen[i] = true;
                }
            }
            reached = seen.iter().filter(|s| **s).count();
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(reached, 5, "20% loss must not stop dissemination");
        for h in handles {
            h.shutdown();
        }
    }

    #[test]
    fn tracer_counts_cluster_traffic() {
        use drum_trace::{names, MemorySink, Tracer};

        let sink = Arc::new(MemorySink::new());
        let tracer = Tracer::new(sink.clone());

        let key_store = KeyStore::new(7);
        let members: Vec<ProcessId> = (0..4).map(ProcessId).collect();
        let mut socks = Vec::new();
        let mut entries = Vec::new();
        for &m in &members {
            let (s, addrs) = WellKnownSockets::bind().unwrap();
            socks.push((m, s));
            entries.push((m, addrs));
        }
        let book = AddressBook::new(entries);
        let handles: Vec<ProcessHandle> = socks
            .into_iter()
            .map(|(m, sockets)| {
                let my_key = key_store.register(m.as_u64());
                spawn_process(ProcessSpec {
                    me: m,
                    members: members.clone(),
                    book: book.clone(),
                    key_store: key_store.clone(),
                    my_key,
                    sockets,
                    ablation: None,
                    config: NetConfig::new(GossipConfig::drum())
                        .with_round(Duration::from_millis(30))
                        .with_tracer(tracer.clone()),
                    seed: seed_of(m),
                })
                .unwrap()
            })
            .collect();

        handles[0].publish(Bytes::from_static(b"traced"));
        std::thread::sleep(Duration::from_millis(400));
        let stats: Vec<NetStats> = handles.into_iter().map(|h| h.shutdown()).collect();

        // Registry counters aggregate across all four processes and must
        // agree with the per-process stats the runtime reports.
        let reg = tracer.registry();
        let total_sent: u64 = stats.iter().map(|s| s.sent).sum();
        assert!(reg.counter(names::MESSAGES_SENT).get() <= total_sent);
        assert!(reg.counter(names::MESSAGES_SENT).get() > 0);
        assert!(reg.counter(names::MESSAGES_RECEIVED).get() > 0);
        assert!(reg.counter(names::PORT_ROTATIONS).get() > 0);

        let events = sink.take();
        assert_eq!(
            events.iter().filter(|e| e.name == "proc.start").count(),
            4,
            "one proc.start per process"
        );
        assert!(events
            .iter()
            .any(|e| e.target == "net" && e.name == "round"));
        assert_eq!(
            events.iter().filter(|e| e.name == "proc.stop").count(),
            4,
            "one proc.stop per process"
        );
    }

    #[test]
    fn garbage_datagrams_counted_not_fatal() {
        // Built by hand (not via `cluster`) so the address book is in scope
        // and garbage can be aimed at real well-known ports.
        let key_store = KeyStore::new(99);
        let members: Vec<ProcessId> = (0..2).map(ProcessId).collect();
        let mut socks = Vec::new();
        let mut entries = Vec::new();
        for &m in &members {
            let (s, addrs) = WellKnownSockets::bind().unwrap();
            socks.push((m, s));
            entries.push((m, addrs));
        }
        let book = AddressBook::new(entries);
        let p0 = book.addrs_of(ProcessId(0)).unwrap();
        let (p0_pull, p0_push) = (p0.pull, p0.push);
        let handles: Vec<ProcessHandle> = socks
            .into_iter()
            .map(|(m, sockets)| {
                let my_key = key_store.register(m.as_u64());
                spawn_process(ProcessSpec {
                    me: m,
                    members: members.clone(),
                    book: book.clone(),
                    key_store: key_store.clone(),
                    my_key,
                    sockets,
                    ablation: None,
                    config: NetConfig::new(GossipConfig::drum())
                        .with_round(Duration::from_millis(30)),
                    seed: seed_of(m),
                })
                .unwrap()
            })
            .collect();

        // Blast malformed datagrams at p0's well-known ports while a real
        // multicast is in flight: empty, truncated, bad-tag, and oversized
        // junk must all be counted as decode errors, never crash the
        // process or stop dissemination.
        let sender = bind_ephemeral().unwrap();
        handles[0].publish(Bytes::from_static(b"still works"));
        let garbage: [&[u8]; 4] = [b"", b"\xFF", b"\x01\x02\x03", &[0xAAu8; 512]];
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut p1_got = false;
        while Instant::now() < deadline && !p1_got {
            for junk in garbage {
                let _ = sender.send_to(junk, p0_pull);
                let _ = sender.send_to(junk, p0_push);
            }
            p1_got = !handles[1].take_delivered().is_empty();
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(p1_got, "dissemination must survive the garbage flood");

        let mut handles = handles.into_iter();
        let s0 = handles.next().unwrap().shutdown();
        let s1 = handles.next().unwrap().shutdown();
        assert!(s0.rounds > 0 && s1.rounds > 0);
        assert!(
            s0.decode_errors > 0,
            "p0 must have counted the malformed datagrams: {s0:?}"
        );
    }

    #[test]
    fn deadline_advances_from_previous_deadline_not_now() {
        let mut rng = SmallRng::seed_from_u64(1);
        let round = Duration::from_millis(100);
        let t0 = Instant::now();

        // On time: next = prev + round, not late (jitter disabled so the
        // arithmetic is exact).
        let (d1, late) = advance_deadline(t0, t0, round, 0.0, &mut rng);
        assert_eq!(d1, t0 + round);
        assert!(!late);

        // Work finished inside the next window: still anchored, not late.
        let (d2, late) = advance_deadline(d1, d1 + Duration::from_millis(60), round, 0.0, &mut rng);
        assert_eq!(d2, d1 + round);
        assert!(!late);

        // Work overran past the next deadline (but by less than a full
        // round): keep the anchor — the next round is short, restoring the
        // cadence — and flag the lateness.
        let (d3, late) =
            advance_deadline(d2, d2 + Duration::from_millis(130), round, 0.0, &mut rng);
        assert_eq!(d3, d2 + round);
        assert!(late);

        // More than one full round behind the next deadline: skip forward
        // (re-anchor at now) instead of spinning zero-length rounds.
        let now = d3 + round + round + Duration::from_millis(5);
        let (d4, late) = advance_deadline(d3, now, round, 0.0, &mut rng);
        assert_eq!(d4, now + round);
        assert!(late);
    }

    #[test]
    fn cadence_holds_under_synthetic_overrun() {
        // Every simulated round's work overruns its deadline by a full
        // round-length. Under the old "deadline = now + jittered" rule the
        // effective period would be ~2× round (100 rounds take ~200
        // round-lengths); the fixed-cadence rule keeps the long-run rate
        // at ~1 round per round-length.
        let mut rng = SmallRng::seed_from_u64(7);
        let round = Duration::from_millis(50);
        let t0 = Instant::now();
        let mut deadline = t0;
        let mut now = t0;
        let mut late = 0u32;
        const ROUNDS: u32 = 100;
        for _ in 0..ROUNDS {
            let (d, l) = advance_deadline(deadline, now, round, 0.2, &mut rng);
            if l {
                late += 1;
            }
            deadline = d;
            now = deadline + round; // simulated overrun: one full round
        }
        let elapsed = deadline.duration_since(t0);
        let nominal = round * ROUNDS;
        assert!(
            elapsed >= nominal.mul_f64(0.8) && elapsed <= nominal.mul_f64(1.2),
            "cadence drifted: {ROUNDS} rounds spanned {elapsed:?}, nominal {nominal:?}"
        );
        assert!(late > 0, "a constant overrun must be flagged late");

        // When work is persistently slower than the round itself, the
        // skip-forward policy gives up on the unrunnable rounds instead of
        // spinning: every advance is late and re-anchored ahead of now.
        let mut deadline = Instant::now();
        let mut now = deadline;
        for _ in 0..20 {
            let (d, l) = advance_deadline(deadline, now, round, 0.2, &mut rng);
            assert!(l || d > now);
            deadline = d;
            now = deadline + round.mul_f64(2.5);
        }
        assert!(deadline > t0);
    }

    #[test]
    fn flooded_node_keeps_round_cadence() {
        // A 2-process cluster whose p0 well-known ports are flooded
        // continuously with well-formed pull-requests. The fixed-cadence
        // rule must keep p0's round count near elapsed/round even though
        // every round has flood-processing work; bounds are generous for
        // loaded CI machines.
        use drum_core::digest::Digest;
        use drum_core::message::PortRef;

        let key_store = KeyStore::new(13);
        let members: Vec<ProcessId> = (0..2).map(ProcessId).collect();
        let mut socks = Vec::new();
        let mut entries = Vec::new();
        for &m in &members {
            let (s, addrs) = WellKnownSockets::bind().unwrap();
            socks.push((m, s));
            entries.push((m, addrs));
        }
        let book = AddressBook::new(entries);
        let p0_pull = book.addrs_of(ProcessId(0)).unwrap().pull;
        let handles: Vec<ProcessHandle> = socks
            .into_iter()
            .map(|(m, sockets)| {
                let my_key = key_store.register(m.as_u64());
                spawn_process(ProcessSpec {
                    me: m,
                    members: members.clone(),
                    book: book.clone(),
                    key_store: key_store.clone(),
                    my_key,
                    sockets,
                    ablation: None,
                    config: NetConfig::new(GossipConfig::drum())
                        .with_round(Duration::from_millis(40)),
                    seed: seed_of(m),
                })
                .unwrap()
            })
            .collect();

        handles[0].publish(Bytes::from_static(b"cadence"));
        // A dead socket keeps fabricated replies addressable without ICMP
        // noise; the flood itself is valid-looking pull-requests.
        let dead = bind_ephemeral().unwrap();
        let dead_port = dead.local_addr().unwrap().port();
        let flood = codec::encode(&GossipMessage::PullRequest {
            from: ProcessId(1),
            digest: Digest::new(),
            reply_port: PortRef::Plain(dead_port),
            nonce: 5,
        });
        let sender = bind_ephemeral().unwrap();
        let started = Instant::now();
        let run = Duration::from_millis(1200);
        while started.elapsed() < run {
            for _ in 0..32 {
                let _ = sender.send_to(&flood, p0_pull);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let elapsed = started.elapsed();
        let stats = handles
            .into_iter()
            .map(|h| h.shutdown())
            .collect::<Vec<_>>();
        let nominal = elapsed.as_millis() as u64 / 40;
        assert!(
            stats[0].received > 0,
            "the flood must have reached p0: {:?}",
            stats[0]
        );
        for s in &stats {
            assert!(
                s.rounds >= nominal * 55 / 100,
                "node fell behind cadence: {} rounds (+{} late) in {elapsed:?} (~{nominal} nominal)",
                s.rounds,
                s.rounds_late
            );
        }
    }

    #[test]
    fn failed_port_allocation_is_counted() {
        use drum_core::digest::Digest;
        use drum_core::message::PortRef;
        use drum_trace::{MemorySink, Tracer};

        // A peer advertises reply port 0 (what a node whose own random-port
        // allocation failed would send). The engine answers the pull
        // request, the runtime cannot address the reply — the drop must be
        // counted, in the per-node stats and the registry.
        let sink = Arc::new(MemorySink::new());
        let tracer = Tracer::new(sink);
        let key_store = KeyStore::new(3);
        let members: Vec<ProcessId> = (0..2).map(ProcessId).collect();
        let (sockets, addrs) = WellKnownSockets::bind().unwrap();
        let pull_addr = addrs.pull;
        let book = AddressBook::new([(ProcessId(0), addrs)]);
        let my_key = key_store.register(0);
        let handle = spawn_process(ProcessSpec {
            me: ProcessId(0),
            members,
            book,
            key_store: key_store.clone(),
            my_key,
            sockets,
            ablation: None,
            config: NetConfig::new(GossipConfig::drum())
                .with_round(Duration::from_millis(20))
                .with_tracer(tracer.clone()),
            seed: 11,
        })
        .unwrap();

        // Give the node something to serve, then pull with reply port 0.
        handle.publish(Bytes::from_static(b"served"));
        let sender = bind_ephemeral().unwrap();
        let req = codec::encode(&GossipMessage::PullRequest {
            from: ProcessId(1),
            digest: Digest::new(),
            reply_port: PortRef::Plain(0),
            nonce: 9,
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut counted = false;
        while Instant::now() < deadline && !counted {
            let _ = sender.send_to(&req, pull_addr);
            std::thread::sleep(Duration::from_millis(10));
            counted = tracer.registry().counter(names::NET_ALLOC_FAILED).get() > 0;
        }
        let stats = handle.shutdown();
        assert!(
            counted && stats.alloc_failed > 0,
            "the dropped reply must be counted: {stats:?}"
        );
    }
}
