//! Per-thread vs. sharded runtime decision equivalence.
//!
//! Both runtimes drive the same [`NodeCore`] state machine; the only
//! difference is *who* calls its methods — a dedicated thread draining
//! every channel each poll iteration (`drain_all`), or a shard event loop
//! waiting on a tagged epoll and draining only the socket each ready token
//! names (`drain_token`) — one well-known channel, or one concealed pool
//! port. These tests drive two same-seed cores through both call patterns
//! on identical input — hostile traffic on the well-known ports (valid
//! messages past the budget, wrong-purpose traffic, garbage, truncations)
//! and valid replies on two live pool ports — and require bit-identical
//! decision counters. A divergence here would mean the multiplexed runtime
//! changes protocol behavior, not just scheduling.

use std::net::UdpSocket;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use drum_core::bytes::Bytes;
use drum_core::config::GossipConfig;
use drum_core::digest::Digest;
use drum_core::ids::{MessageId, ProcessId};
use drum_core::message::{DataMessage, GossipMessage, PortRef};
use drum_crypto::keys::{KeyStore, SecretKey};
use drum_net::codec;
use drum_net::runtime::{token_port, unpack_token};
use drum_net::sys::Epoll;
use drum_net::transport::{bind_ephemeral, AddressBook, WellKnownSockets};
use drum_net::{
    BatchRx, BatchTx, ChannelClass, Delivery, NetConfig, NetStats, NodeCore, ProcessSpec,
};

/// Source of the data messages the pool replies carry: not a member, but
/// its key is registered, so its messages authenticate and deliver.
const SOURCE: u64 = 7;

const SLOT_LEN: usize = codec::MAX_WIRE_LEN + 1;

fn pull_request(nonce: u64, reply_port: u16) -> Vec<u8> {
    codec::encode(&GossipMessage::PullRequest {
        from: ProcessId(1),
        digest: Digest::new(),
        reply_port: PortRef::Plain(reply_port),
        nonce,
    })
    .to_vec()
}

fn push_offer(nonce: u64, reply_port: u16) -> Vec<u8> {
    codec::encode(&GossipMessage::PushOffer {
        from: ProcessId(1),
        reply_port: PortRef::Plain(reply_port),
        nonce,
    })
    .to_vec()
}

/// The hostile mix from `batch_equivalence`, aimed at one channel: valid
/// messages beyond any budget, a wrong-purpose message, garbage, a
/// truncation and an empty datagram.
fn hostile_mix(valid: impl Fn(u64) -> Vec<u8>, wrong: Vec<u8>) -> Vec<Vec<u8>> {
    let mut seq: Vec<Vec<u8>> = (0..10).map(&valid).collect();
    seq.push(wrong);
    seq.push(vec![0xFF; 40]);
    let mut truncated = valid(77);
    truncated.truncate(truncated.len() / 2);
    seq.push(truncated);
    seq.push(Vec::new());
    seq.push(valid(11));
    seq
}

/// One node-under-test plus a scripted peer, with everything the manual
/// drivers need. The peer never answers on its own: the test reads the
/// node's requests off the peer's sockets only to learn which pool ports
/// the node advertised, so the node's decisions depend only on what we
/// inject.
struct Rig {
    core: NodeCore,
    pull_addr: std::net::SocketAddr,
    push_addr: std::net::SocketAddr,
    peer: WellKnownSockets,
    source_key: SecretKey,
    send_socket: UdpSocket,
    rx: BatchRx,
    tx: BatchTx,
    scratch: Vec<u8>,
    injector: UdpSocket,
    // Kept alive so the core never observes a channel disconnect.
    _publish_tx: Sender<Bytes>,
    _delivered_rx: Receiver<Delivery>,
}

fn rig(seed: u64) -> Rig {
    let key_store = KeyStore::new(seed);
    let members: Vec<ProcessId> = vec![ProcessId(0), ProcessId(1)];
    let (sockets, addrs) = WellKnownSockets::bind().unwrap();
    let (peer, peer_addrs) = WellKnownSockets::bind().unwrap();
    let book = AddressBook::new(vec![(ProcessId(0), addrs), (ProcessId(1), peer_addrs)]);
    let my_key = key_store.register(0);
    let source_key = key_store.register(SOURCE);
    let spec = ProcessSpec {
        me: ProcessId(0),
        members,
        book,
        key_store,
        my_key,
        sockets,
        ablation: None,
        config: NetConfig::new(GossipConfig::drum()),
        seed,
    };
    let (publish_tx, publish_rx) = channel();
    let (delivered_tx, delivered_rx) = channel();
    Rig {
        core: NodeCore::new(spec, publish_rx, delivered_tx),
        pull_addr: addrs.pull,
        push_addr: addrs.push,
        peer,
        source_key,
        send_socket: bind_ephemeral().unwrap(),
        rx: BatchRx::new(SLOT_LEN),
        tx: BatchTx::new(),
        scratch: vec![0u8; SLOT_LEN],
        injector: bind_ephemeral().unwrap(),
        _publish_tx: publish_tx,
        _delivered_rx: delivered_rx,
    }
}

impl Rig {
    fn inject(&self, to: std::net::SocketAddr, datagrams: &[Vec<u8>]) {
        for d in datagrams {
            // Loopback can momentarily refuse (ENOBUFS) under bursts.
            while self.injector.send_to(d, to).is_err() {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    /// The pool ports the node advertised this round: the reply ports of
    /// the pull-request and push-offer it sent the peer at round start.
    /// Ports are cleartext because the peer has no registered key.
    fn advertised_ports(&self) -> (u16, u16) {
        let read = |socket: &UdpSocket| -> u16 {
            let deadline = Instant::now() + Duration::from_secs(5);
            let mut buf = vec![0u8; SLOT_LEN];
            loop {
                match socket.recv_from(&mut buf) {
                    Ok((len, _)) => match codec::decode(&buf[..len]) {
                        Ok(GossipMessage::PullRequest {
                            reply_port: PortRef::Plain(p),
                            ..
                        })
                        | Ok(GossipMessage::PushOffer {
                            reply_port: PortRef::Plain(p),
                            ..
                        }) => return p,
                        other => panic!("unexpected datagram at the peer: {other:?}"),
                    },
                    Err(_) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(e) => panic!("the node never contacted its peer: {e}"),
                }
            }
        };
        (read(&self.peer.pull), read(&self.peer.push))
    }

    /// A valid pull-reply carrying message `seq` from [`SOURCE`].
    fn pull_reply(&self, seq: u64) -> Vec<u8> {
        let id = MessageId {
            source: ProcessId(SOURCE),
            seq,
        };
        let payload = Bytes::from(format!("pool payload {seq}").into_bytes());
        codec::encode(&GossipMessage::PullReply {
            from: ProcessId(1),
            messages: vec![DataMessage::sign_new(&self.source_key, id, payload)],
        })
        .to_vec()
    }

    /// Total decisions recorded so far (every injected datagram lands in
    /// exactly one of these buckets).
    fn decisions(&self) -> u64 {
        let s = self.core.stats();
        s.received + s.port_mismatches + s.decode_errors
    }

    fn wait_for_decisions<F: FnMut(&mut Rig)>(&mut self, target: u64, mut drain: F) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.decisions() < target && Instant::now() < deadline {
            drain(self);
            if self.decisions() < target {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        assert_eq!(
            self.decisions(),
            target,
            "injected datagrams never all surfaced"
        );
    }
}

/// Scheduling-independent fields only: syscall accounting legitimately
/// differs between one-batcher-per-node and shared-batcher dispatch.
fn decision_stats(mut s: NetStats) -> NetStats {
    s.syscalls_recv = 0;
    s.syscalls_send = 0;
    s.batch_recv_datagrams = 0;
    s
}

/// Drives one round of the shared script: start the round, inject the
/// well-known hostile mix plus a valid pull-reply into the node's
/// pull-reply pool port, drain until every datagram is decided, then
/// answer the push-offer on the push-reply pool port and drain again. The
/// push-reply is sent only after the pull-reply is decided, so the data it
/// pulls out of the node does not depend on the order the two pool ports
/// are drained in. Returns the decision count after the round.
fn script_round<F: FnMut(&mut Rig)>(
    rig: &mut Rig,
    round: u64,
    decided: u64,
    well_known: (&[Vec<u8>], &[Vec<u8>]),
    dead_port: u16,
    mut drain: F,
) -> u64 {
    let Rig {
        core,
        send_socket,
        tx,
        ..
    } = rig;
    core.start_round(send_socket, tx);
    let (pull_reply_port, push_reply_port) = rig.advertised_ports();
    rig.inject(rig.pull_addr, well_known.0);
    rig.inject(rig.push_addr, well_known.1);
    rig.inject(
        AddressBook::loopback(pull_reply_port),
        &[rig.pull_reply(round)],
    );
    let decided = decided + (well_known.0.len() + well_known.1.len()) as u64 + 1;
    rig.wait_for_decisions(decided, &mut drain);
    let push_reply = codec::encode(&GossipMessage::PushReply {
        from: ProcessId(1),
        digest: Digest::new(),
        data_port: PortRef::Plain(dead_port),
        nonce: round,
    })
    .to_vec();
    rig.inject(AddressBook::loopback(push_reply_port), &[push_reply]);
    rig.wait_for_decisions(decided + 1, &mut drain);
    rig.core.finish_round();
    decided + 1
}

#[test]
fn per_thread_and_sharded_call_patterns_make_identical_decisions() {
    const ROUNDS: u64 = 4;
    const SEED: u64 = 1234;
    // The node replies to valid requests at this dead (but real) port; a
    // bound socket absorbs them without ICMP noise.
    let dead = bind_ephemeral().unwrap();
    let dead_port = dead.local_addr().unwrap().port();

    let pulls = hostile_mix(|n| pull_request(n, dead_port), push_offer(99, dead_port));
    let pushes = hostile_mix(|n| push_offer(n, dead_port), pull_request(99, dead_port));

    // Mode A: the per-thread runtime's order — start, drain every channel
    // and every pool socket each poll iteration, finish.
    let mut a = rig(SEED);
    let mut decided = 0;
    for r in 0..ROUNDS {
        decided = script_round(&mut a, r, decided, (&pulls, &pushes), dead_port, |rig| {
            let Rig {
                core,
                rx,
                scratch,
                send_socket,
                tx,
                ..
            } = rig;
            core.drain_all(rx, scratch, send_socket, tx);
        });
    }

    // Mode B: the shard event loop's order — the core registers on a
    // tagged epoll (pool sockets join it, one token per port, as they are
    // bound), and each wait's ready tokens are dispatched one socket at a
    // time.
    let mut b = rig(SEED);
    let ep = Arc::new(Epoll::new().unwrap());
    assert!(b.core.register_tagged(&ep, 0));
    let mut tokens = Vec::new();
    let mut pool_ports = Vec::new();
    let mut decided = 0;
    for r in 0..ROUNDS {
        decided = script_round(&mut b, r, decided, (&pulls, &pushes), dead_port, |rig| {
            let Rig {
                core,
                rx,
                scratch,
                send_socket,
                tx,
                ..
            } = rig;
            tokens.clear();
            ep.wait_tagged(Duration::from_millis(5), &mut tokens)
                .unwrap();
            for &token in &tokens {
                if unpack_token(token).1 == Some(ChannelClass::Pool) {
                    pool_ports.push(token_port(token));
                }
                core.drain_token(token, rx, scratch, send_socket, tx);
            }
        });
    }
    // Both reply ports of every round were dispatched by their own token,
    // each naming the port it drains.
    assert!(
        pool_ports.len() as u64 >= 2 * ROUNDS && !pool_ports.contains(&0),
        "pool readiness was not reported per port: {pool_ports:?}"
    );

    let stats_a = decision_stats(a.core.finalize(None));
    let stats_b = decision_stats(b.core.finalize(None));
    assert_eq!(
        stats_a, stats_b,
        "per-thread and sharded dispatch diverged on identical input"
    );
    // The script actually exercised every decision path.
    assert_eq!(stats_a.rounds, ROUNDS);
    // 11 valid per well-known channel, plus the two pool replies.
    assert_eq!(stats_a.received, ROUNDS * (22 + 2));
    assert_eq!(stats_a.port_mismatches, ROUNDS * 2);
    assert_eq!(stats_a.decode_errors, ROUNDS * 6);
    assert_eq!(stats_a.delivered, ROUNDS);
    assert_eq!(stats_a.auth_drops, 0);
    assert!(
        stats_a.budget_drops > 0,
        "budget never engaged: {stats_a:?}"
    );
    assert!(stats_a.sent > 0);
}

#[test]
fn same_seed_cores_draw_identical_jitter_streams() {
    // The per-engine RNG stream must be a function of the seed alone, not
    // of which runtime drives the core — shard-mode determinism (and the
    // equivalence test above) rests on this.
    let gaps = |seed: u64| -> Vec<Duration> {
        let mut r = rig(seed);
        let t0 = Instant::now();
        let mut prev = t0;
        (0..32)
            .map(|_| {
                let next = r.core.next_deadline(prev, t0);
                let gap = next - prev;
                prev = next;
                gap
            })
            .collect()
    };
    let x = gaps(42);
    let y = gaps(42);
    let z = gaps(43);
    assert_eq!(x, y, "same seed must reproduce the jitter stream");
    assert_ne!(x, z, "different seeds must not share a jitter stream");
    // Jitter bounds: every gap within round × [1 − j, 1 + j].
    let round = Duration::from_millis(100);
    for gap in &x {
        assert!(
            *gap >= round.mul_f64(0.8) && *gap <= round.mul_f64(1.2),
            "gap {gap:?} outside jitter bounds"
        );
    }
}
