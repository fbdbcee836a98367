//! UDP socket management: well-known ports, random ephemeral ports and the
//! process address book.
//!
//! Every logical process owns two *well-known* sockets (pull-requests and
//! push-offers, §4) plus a pool of short-lived *random* sockets allocated
//! round by round for pull-replies, push-replies and push data. The random
//! sockets are the OS-assigned ephemeral ports that give Drum its
//! unpredictability; each one is tagged with the purpose it was allocated
//! for, and the runtime drops datagrams whose kind does not match the
//! port's purpose — an attacker cannot spend a data-channel budget through
//! a well-known port.

use std::collections::HashMap;
use std::io;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
use std::sync::Arc;

use drum_core::engine::{PortOracle, PortPurpose};
use drum_core::ids::{ProcessId, Round};

use crate::runtime::pool_token;
use crate::sys;

/// Batched datagram receiver with a per-datagram fallback.
///
/// In batched mode one `recvmmsg(2)` call drains up to [`sys::BATCH`]
/// datagrams into a fixed arena; in fallback mode (non-Linux targets, or
/// `DRUM_NET_NO_BATCH=1`) the same API loops `recv_from` one datagram per
/// syscall. Both modes hand datagrams to the caller in kernel queue order
/// and stop at the first `WouldBlock`, so every downstream accept/drop
/// decision is identical — only the syscall count differs, which is
/// exactly what the running totals expose.
///
/// The same `DRUM_NET_NO_BATCH` knob also selects the engine's MAC
/// verification path (`drum_crypto::batch`): in batched mode, the
/// identical-fan-in datagrams that one `recvmmsg` call drains are verified
/// once per unique `(source, seq, tag)` triple per round instead of once
/// per copy — syscall amortization and HMAC amortization degrade together
/// back to the per-datagram baseline.
#[derive(Debug)]
pub struct BatchRx {
    arena: Option<sys::RecvArena>,
    slot_len: usize,
    syscalls: u64,
    batched_datagrams: u64,
}

impl BatchRx {
    /// Creates a receiver in the process-wide mode ([`sys::enabled`]).
    /// `slot_len` bounds each received datagram, like the scratch buffer
    /// handed to `recv_from` on the fallback path.
    pub fn new(slot_len: usize) -> Self {
        Self::forced(slot_len, sys::enabled())
    }

    /// Creates a receiver with an explicit mode — the hook the
    /// equivalence tests and benches use to pin both arms. Requesting
    /// batched mode on a target without support silently yields the
    /// fallback (callers check [`BatchRx::batched`] when it matters).
    pub fn forced(slot_len: usize, batched: bool) -> Self {
        BatchRx {
            arena: (batched && sys::available()).then(|| sys::RecvArena::new(slot_len)),
            slot_len,
            syscalls: 0,
            batched_datagrams: 0,
        }
    }

    /// Whether the batched path is in effect.
    pub fn batched(&self) -> bool {
        self.arena.is_some()
    }

    /// Receive syscalls made so far (`recvmmsg` + `recv_from`, including
    /// the final empty call that observes `WouldBlock`).
    pub fn syscalls(&self) -> u64 {
        self.syscalls
    }

    /// Datagrams moved by batched (`recvmmsg`) calls so far. Together with
    /// [`BatchRx::syscalls`] this measures the amortization: mean batch
    /// fill = `batched_datagrams / syscalls`.
    pub fn batched_datagrams(&self) -> u64 {
        self.batched_datagrams
    }

    /// Drains `socket` until it would block, invoking `f` once per
    /// datagram in arrival order. `scratch` is used by the fallback path
    /// only and must be at least `slot_len` bytes. Returns the number of
    /// datagrams drained.
    pub fn drain_socket(
        &mut self,
        socket: &UdpSocket,
        scratch: &mut [u8],
        mut f: impl FnMut(&[u8]),
    ) -> usize {
        let mut count = 0;
        match &mut self.arena {
            Some(arena) => {
                let fd = sys::fd_of(socket);
                loop {
                    self.syscalls += 1;
                    match arena.recv(fd) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => {
                            self.batched_datagrams += n as u64;
                            count += n;
                            for i in 0..n {
                                f(arena.datagram(i));
                            }
                            if n < sys::BATCH {
                                // A short batch already proves the queue
                                // is empty; skip the confirming syscall.
                                break;
                            }
                        }
                    }
                }
            }
            None => {
                let take = self.slot_len.min(scratch.len());
                let scratch = &mut scratch[..take];
                loop {
                    self.syscalls += 1;
                    match socket.recv_from(scratch) {
                        Ok((len, _)) => {
                            count += 1;
                            f(&scratch[..len]);
                        }
                        Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(_) => break,
                    }
                }
            }
        }
        count
    }
}

/// Batched datagram sender with a per-datagram fallback.
///
/// In batched mode datagrams queue into a [`sys::SendArena`] and flush
/// through `sendmmsg(2)` (automatically when a batch fills, explicitly via
/// [`BatchTx::finish`]); the encode-once fan-out queues repeated bytes as
/// arena ranges, so a message fanned to `k` recipients is copied once and
/// the kernel crossing is paid once per [`sys::BATCH`]. In fallback mode
/// each push is an immediate `send_to`. Both modes drop undeliverable
/// datagrams silently (fire-and-forget UDP semantics).
#[derive(Debug)]
pub struct BatchTx {
    arena: Option<sys::SendArena>,
    syscalls: u64,
    pending_sent: u64,
}

impl BatchTx {
    /// Creates a sender in the process-wide mode ([`sys::enabled`]).
    pub fn new() -> Self {
        Self::forced(sys::enabled())
    }

    /// Creates a sender with an explicit mode (tests/benches); batched
    /// mode degrades to fallback on unsupported targets.
    pub fn forced(batched: bool) -> Self {
        BatchTx {
            arena: (batched && sys::available()).then(sys::SendArena::new),
            syscalls: 0,
            pending_sent: 0,
        }
    }

    /// Whether the batched path is in effect.
    pub fn batched(&self) -> bool {
        self.arena.is_some()
    }

    /// Send syscalls made so far (`sendmmsg` + `send_to`).
    pub fn syscalls(&self) -> u64 {
        self.syscalls
    }

    /// Queues (batched) or sends (fallback) one datagram through
    /// `socket`. `repeat` declares that `bytes` are identical to the
    /// previous push since the last flush — the encode-once fan-out hint
    /// that lets the batched path share the arena range instead of
    /// copying.
    pub fn push(&mut self, socket: &UdpSocket, addr: SocketAddr, bytes: &[u8], repeat: bool) {
        match &mut self.arena {
            Some(arena) => {
                if arena.is_full() {
                    let (sent, syscalls) = arena.flush(sys::fd_of(socket));
                    self.pending_sent += sent as u64;
                    self.syscalls += syscalls as u64;
                }
                match sys::SockAddrV4Raw::from_std(addr) {
                    Some(dest) if repeat && !arena.is_empty() => arena.push_repeat(dest),
                    Some(dest) => arena.push(dest, bytes),
                    None => {
                        // Non-IPv4 destination: fall back for this one.
                        self.syscalls += 1;
                        if socket.send_to(bytes, addr).is_ok() {
                            self.pending_sent += 1;
                        }
                    }
                }
            }
            None => {
                self.syscalls += 1;
                if socket.send_to(bytes, addr).is_ok() {
                    self.pending_sent += 1;
                }
            }
        }
    }

    /// Flushes anything still queued and returns the number of datagrams
    /// actually handed to the kernel since the previous `finish`.
    pub fn finish(&mut self, socket: &UdpSocket) -> u64 {
        if let Some(arena) = &mut self.arena {
            if !arena.is_empty() {
                let (sent, syscalls) = arena.flush(sys::fd_of(socket));
                self.pending_sent += sent as u64;
                self.syscalls += syscalls as u64;
            }
        }
        std::mem::take(&mut self.pending_sent)
    }
}

impl Default for BatchTx {
    fn default() -> Self {
        Self::new()
    }
}

/// Maps process ids to their well-known socket addresses (loopback).
///
/// Built once per cluster; cheap to clone (`Arc` inside).
#[derive(Debug, Clone)]
pub struct AddressBook {
    inner: Arc<HashMap<ProcessId, WellKnownAddrs>>,
}

/// The two well-known addresses of one process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WellKnownAddrs {
    /// Where pull-requests are received.
    pub pull: SocketAddr,
    /// Where push-offers are received.
    pub push: SocketAddr,
}

impl AddressBook {
    /// Builds a book from explicit entries.
    pub fn new(entries: impl IntoIterator<Item = (ProcessId, WellKnownAddrs)>) -> Self {
        AddressBook {
            inner: Arc::new(entries.into_iter().collect()),
        }
    }

    /// The well-known addresses of `p`, if registered.
    pub fn addrs_of(&self, p: ProcessId) -> Option<WellKnownAddrs> {
        self.inner.get(&p).copied()
    }

    /// Number of registered processes.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the book is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Loopback address for an explicit port (random-port replies).
    pub fn loopback(port: u16) -> SocketAddr {
        SocketAddr::V4(SocketAddrV4::new(Ipv4Addr::LOCALHOST, port))
    }
}

/// Binds a non-blocking UDP socket on an OS-assigned loopback port.
pub fn bind_ephemeral() -> io::Result<UdpSocket> {
    let socket = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))?;
    socket.set_nonblocking(true)?;
    Ok(socket)
}

/// Fixed reply/data socket addresses of one process — only used by the
/// no-random-ports ablation (Figure 12(a)), where the reply channels sit on
/// attacker-knowable ports instead of fresh random ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AblationAddrs {
    /// Fixed pull-reply port.
    pub pull_reply: SocketAddr,
    /// Fixed push-reply port.
    pub push_reply: SocketAddr,
    /// Fixed push-data port.
    pub push_data: SocketAddr,
}

/// The bound sockets behind [`AblationAddrs`].
#[derive(Debug)]
pub struct AblationSockets {
    /// Fixed pull-reply receiver.
    pub pull_reply: UdpSocket,
    /// Fixed push-reply receiver.
    pub push_reply: UdpSocket,
    /// Fixed push-data receiver.
    pub push_data: UdpSocket,
}

impl AblationSockets {
    /// Binds the three fixed reply sockets on ephemeral loopback ports.
    ///
    /// # Errors
    ///
    /// Propagates socket creation failures.
    pub fn bind() -> io::Result<(Self, AblationAddrs)> {
        let pull_reply = bind_ephemeral()?;
        let push_reply = bind_ephemeral()?;
        let push_data = bind_ephemeral()?;
        let addrs = AblationAddrs {
            pull_reply: pull_reply.local_addr()?,
            push_reply: push_reply.local_addr()?,
            push_data: push_data.local_addr()?,
        };
        Ok((
            AblationSockets {
                pull_reply,
                push_reply,
                push_data,
            },
            addrs,
        ))
    }
}

/// The well-known socket pair of one process.
#[derive(Debug)]
pub struct WellKnownSockets {
    /// Pull-request receiver.
    pub pull: UdpSocket,
    /// Push-offer receiver.
    pub push: UdpSocket,
}

impl WellKnownSockets {
    /// Binds both sockets on ephemeral loopback ports.
    ///
    /// # Errors
    ///
    /// Propagates socket creation failures.
    pub fn bind() -> io::Result<(Self, WellKnownAddrs)> {
        let pull = bind_ephemeral()?;
        let push = bind_ephemeral()?;
        let addrs = WellKnownAddrs {
            pull: pull.local_addr()?,
            push: push.local_addr()?,
        };
        Ok((WellKnownSockets { pull, push }, addrs))
    }
}

/// A pool of random-port sockets implementing [`PortOracle`].
///
/// Sockets expire after `lifetime` rounds ("this thread is terminated
/// after a few rounds", §4), bounding both file descriptors and the window
/// an attacker would have even if a port leaked.
#[derive(Debug)]
pub struct SocketPool {
    lifetime: u64,
    sockets: Vec<(UdpSocket, u16, PortPurpose, Round)>,
    /// Sockets that failed to bind (diagnostics).
    bind_failures: u64,
    /// Optional observability counter bumped per fresh port allocation.
    rotations: Option<drum_trace::Counter>,
    /// When set, fresh sockets register for readability wakeups here,
    /// tagged (if an engine index is set) with their own pool token so a
    /// shard event loop can route the wakeup back to the owning engine's
    /// socket. Expired sockets deregister themselves on close.
    epoll: Option<(Arc<sys::Epoll>, Option<usize>)>,
}

impl SocketPool {
    /// Creates a pool whose sockets live for `lifetime` rounds.
    pub fn new(lifetime: u64) -> Self {
        SocketPool {
            lifetime,
            sockets: Vec::new(),
            bind_failures: 0,
            rotations: None,
            epoll: None,
        }
    }

    /// Attaches a counter (typically `names::PORT_ROTATIONS` from a
    /// [`drum_trace::Registry`]) incremented on every fresh port bind.
    pub fn set_rotation_counter(&mut self, counter: drum_trace::Counter) {
        self.rotations = Some(counter);
    }

    /// Registers every current and future pool socket with `epoll`, so the
    /// runtime's round loop wakes when a concealed reply port becomes
    /// readable. Closed (expired) sockets deregister themselves.
    pub fn set_epoll(&mut self, epoll: Arc<sys::Epoll>) {
        for (socket, _, _, _) in &self.sockets {
            let _ = epoll.add(socket);
        }
        self.epoll = Some((epoll, None));
    }

    /// Like [`SocketPool::set_epoll`], but registers every current and
    /// future pool socket under its own `pool_token(engine, port)` — the
    /// sharded runtime's registration, so one shared epoll wait routes a
    /// readable concealed port straight to the engine and socket that own
    /// it.
    pub fn set_epoll_tagged(&mut self, epoll: Arc<sys::Epoll>, engine: usize) {
        for (socket, port, _, _) in &self.sockets {
            let _ = epoll.add_tagged(socket, pool_token(engine, *port));
        }
        self.epoll = Some((epoll, Some(engine)));
    }

    /// Number of currently open random-port sockets.
    pub fn open_sockets(&self) -> usize {
        self.sockets.len()
    }

    /// Count of failed ephemeral binds.
    pub fn bind_failures(&self) -> u64 {
        self.bind_failures
    }

    /// Closes sockets allocated more than `lifetime` rounds ago.
    pub fn expire(&mut self, now: Round) {
        let lifetime = self.lifetime;
        self.sockets
            .retain(|(_, _, _, born)| now.since(*born) < lifetime);
    }

    /// Receives all pending datagrams from the pool — every socket, or
    /// only the one bound to `port` — invoking `f(purpose, payload)` for
    /// each. Datagrams move through `rx` — batched `recvmmsg` or the
    /// per-datagram fallback, same arrival order either way; `scratch`
    /// backs the fallback path. Returns the number received.
    pub fn drain(
        &mut self,
        port: Option<u16>,
        rx: &mut BatchRx,
        scratch: &mut [u8],
        mut f: impl FnMut(PortPurpose, &[u8]),
    ) -> usize {
        let mut count = 0;
        for (socket, bound, purpose, _) in &self.sockets {
            if port.is_none_or(|p| p == *bound) {
                count += rx.drain_socket(socket, scratch, |bytes| f(*purpose, bytes));
            }
        }
        count
    }
}

impl PortOracle for SocketPool {
    fn allocate_port(&mut self, purpose: PortPurpose, round: Round) -> u16 {
        match bind_ephemeral() {
            Ok(socket) => {
                let port = socket.local_addr().map(|a| a.port()).unwrap_or(0);
                if let Some((epoll, engine)) = &self.epoll {
                    let _ = match engine {
                        Some(e) => epoll.add_tagged(&socket, pool_token(*e, port)),
                        None => epoll.add(&socket),
                    };
                }
                self.sockets.push((socket, port, purpose, round));
                if let Some(c) = &self.rotations {
                    c.inc();
                }
                port
            }
            Err(_) => {
                // Out of descriptors or ports: degrade by reusing the most
                // recent socket of the same purpose, or report port 0 (the
                // message will simply go unanswered — the gossip redundancy
                // absorbs it).
                self.bind_failures += 1;
                self.sockets
                    .iter()
                    .rev()
                    .find(|(_, _, p, _)| *p == purpose)
                    .map(|(_, port, _, _)| *port)
                    .unwrap_or(0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_book_lookup() {
        let (_s, addrs) = WellKnownSockets::bind().unwrap();
        let book = AddressBook::new([(ProcessId(1), addrs)]);
        assert_eq!(book.addrs_of(ProcessId(1)), Some(addrs));
        assert_eq!(book.addrs_of(ProcessId(2)), None);
        assert_eq!(book.len(), 1);
        assert!(!book.is_empty());
    }

    #[test]
    fn well_known_sockets_have_distinct_ports() {
        let (_s, addrs) = WellKnownSockets::bind().unwrap();
        assert_ne!(addrs.pull.port(), addrs.push.port());
        assert!(addrs.pull.ip().is_loopback());
    }

    #[test]
    fn pool_allocates_distinct_ports() {
        let mut pool = SocketPool::new(3);
        let p1 = pool.allocate_port(PortPurpose::PullReply, Round(1));
        let p2 = pool.allocate_port(PortPurpose::PushReply, Round(1));
        assert_ne!(p1, 0);
        assert_ne!(p2, 0);
        assert_ne!(p1, p2);
        assert_eq!(pool.open_sockets(), 2);
    }

    #[test]
    fn pool_counts_port_rotations() {
        let reg = drum_trace::Registry::new();
        let mut pool = SocketPool::new(3);
        pool.set_rotation_counter(reg.counter(drum_trace::names::PORT_ROTATIONS));
        pool.allocate_port(PortPurpose::PullReply, Round(1));
        pool.allocate_port(PortPurpose::PushData, Round(1));
        assert_eq!(reg.counter(drum_trace::names::PORT_ROTATIONS).get(), 2);
    }

    #[test]
    fn pool_expires_old_sockets() {
        let mut pool = SocketPool::new(2);
        pool.allocate_port(PortPurpose::PullReply, Round(1));
        pool.allocate_port(PortPurpose::PullReply, Round(2));
        pool.expire(Round(3));
        assert_eq!(pool.open_sockets(), 1);
        pool.expire(Round(10));
        assert_eq!(pool.open_sockets(), 0);
    }

    #[test]
    fn pool_receives_datagrams_with_purpose() {
        let mut pool = SocketPool::new(3);
        let port = pool.allocate_port(PortPurpose::PushData, Round(1));
        let sender = bind_ephemeral().unwrap();
        sender
            .send_to(b"hello", AddressBook::loopback(port))
            .unwrap();
        // Give the loopback a moment.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let mut scratch = [0u8; 2048];
        let mut rx = BatchRx::new(2048);
        let mut got = Vec::new();
        let n = pool.drain(None, &mut rx, &mut scratch, |purpose, bytes| {
            got.push((purpose, bytes.to_vec()));
        });
        assert_eq!(n, 1);
        assert_eq!(got[0].0, PortPurpose::PushData);
        assert_eq!(got[0].1, b"hello");
        assert!(rx.syscalls() > 0);
    }

    #[test]
    fn pool_drains_only_the_named_port() {
        let mut pool = SocketPool::new(3);
        let pull = pool.allocate_port(PortPurpose::PullReply, Round(1));
        let push = pool.allocate_port(PortPurpose::PushReply, Round(1));
        let sender = bind_ephemeral().unwrap();
        sender
            .send_to(b"pull", AddressBook::loopback(pull))
            .unwrap();
        sender
            .send_to(b"push", AddressBook::loopback(push))
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let mut scratch = [0u8; 2048];
        let mut rx = BatchRx::new(2048);
        let mut got = Vec::new();
        let mut take = |pool: &mut SocketPool, port| {
            pool.drain(port, &mut rx, &mut scratch, |purpose, bytes| {
                got.push((purpose, bytes.to_vec()));
            })
        };
        // One recvmmsg on the named socket; the other stays queued.
        assert_eq!(take(&mut pool, Some(push)), 1);
        assert_eq!(take(&mut pool, Some(push)), 0);
        assert_eq!(take(&mut pool, None), 1);
        assert_eq!(
            got,
            vec![
                (PortPurpose::PushReply, b"push".to_vec()),
                (PortPurpose::PullReply, b"pull".to_vec()),
            ]
        );
    }

    #[test]
    fn drain_on_empty_pool_is_zero() {
        let mut pool = SocketPool::new(3);
        let mut scratch = [0u8; 64];
        let mut rx = BatchRx::new(64);
        assert_eq!(
            pool.drain(None, &mut rx, &mut scratch, |_, _| panic!(
                "no data expected"
            )),
            0
        );
    }

    /// Both receive modes must observe the identical datagram sequence for
    /// the identical input, differing only in syscall count.
    #[test]
    fn batch_rx_modes_agree_on_datagram_sequence() {
        let run = |batched: bool| -> (Vec<Vec<u8>>, u64) {
            let socket = bind_ephemeral().unwrap();
            let dest = socket.local_addr().unwrap();
            let sender = bind_ephemeral().unwrap();
            for i in 0..100u8 {
                sender.send_to(&[i, 0xEE, i], dest).unwrap();
            }
            std::thread::sleep(std::time::Duration::from_millis(30));
            let mut rx = BatchRx::forced(2048, batched);
            let mut scratch = [0u8; 2048];
            let mut got = Vec::new();
            rx.drain_socket(&socket, &mut scratch, |bytes| got.push(bytes.to_vec()));
            (got, rx.syscalls())
        };
        let (batched, batched_calls) = run(true);
        let (fallback, fallback_calls) = run(false);
        assert_eq!(batched, fallback);
        assert_eq!(batched.len(), 100);
        if crate::sys::available() {
            // 100 datagrams: two recvmmsg calls versus 101 recv_from.
            assert!(
                batched_calls < fallback_calls,
                "batched {batched_calls} vs fallback {fallback_calls}"
            );
        }
    }

    #[test]
    fn batch_tx_fanout_delivers_once_per_recipient() {
        let rx_socket = bind_ephemeral().unwrap();
        let dest = rx_socket.local_addr().unwrap();
        let sender = bind_ephemeral().unwrap();
        let mut tx = BatchTx::new();
        tx.push(&sender, dest, b"first", false);
        for _ in 0..9 {
            tx.push(&sender, dest, b"first", true);
        }
        let sent = tx.finish(&sender);
        assert_eq!(sent, 10);
        if crate::sys::enabled() {
            assert_eq!(tx.syscalls(), 1, "fan-out must be one sendmmsg");
        }
        std::thread::sleep(std::time::Duration::from_millis(30));
        let mut buf = [0u8; 64];
        let mut got = 0;
        while let Ok((len, _)) = rx_socket.recv_from(&mut buf) {
            assert_eq!(&buf[..len], b"first");
            got += 1;
        }
        assert_eq!(got, 10);
    }

    #[test]
    fn batch_tx_flushes_when_full() {
        let rx_socket = bind_ephemeral().unwrap();
        let dest = rx_socket.local_addr().unwrap();
        let sender = bind_ephemeral().unwrap();
        let mut tx = BatchTx::new();
        let total = crate::sys::BATCH + 10;
        for i in 0..total {
            tx.push(&sender, dest, &[i as u8], false);
        }
        assert_eq!(tx.finish(&sender), total as u64);
        std::thread::sleep(std::time::Duration::from_millis(30));
        let mut buf = [0u8; 64];
        let mut got = 0;
        while rx_socket.recv_from(&mut buf).is_ok() {
            got += 1;
        }
        assert_eq!(got, total);
    }
}
