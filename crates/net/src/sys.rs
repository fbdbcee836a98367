//! Batched UDP syscall I/O: raw Linux `recvmmsg`/`sendmmsg`/`epoll`
//! wrappers with a portable stub fallback.
//!
//! The paper's central argument (§4, §8–9) is that Drum survives floods
//! because excess datagrams are discarded *cheaply*, before they cost
//! protocol resources. With one `recv_from` per datagram the fixed syscall
//! overhead — not decoding or verification — dominates the receive budget
//! under a Figure-5-style flood. `recvmmsg(2)` moves up to [`BATCH`]
//! datagrams per kernel crossing and `sendmmsg(2)` does the same for the
//! encode-once fan-out, amortizing the fixed cost by ~64×; `epoll(7)` lets
//! quiet rounds block until the exact round deadline instead of spinning
//! a 1 ms sleep-poll.
//!
//! No libc is available in this hermetic workspace, so the syscalls are
//! issued through `asm!` shims (x86-64 and aarch64 Linux). Following the
//! pattern of `drum_crypto::sha256::shani`, this module is the **single
//! unsafe island of drum-net**: everything it exports is a safe API over
//! caller-owned arenas, `lib.rs` denies `unsafe_code` crate-wide and allows
//! it for this module alone, and every caller keeps a portable per-datagram
//! fallback (used on non-Linux targets and under `DRUM_NET_NO_BATCH=1`)
//! that makes the exact same accept/drop decisions.
//!
//! Layout notes (see DESIGN.md §14): `mmsghdr`/`iovec`/`sockaddr_in` are
//! declared here with `#[repr(C)]` matching the Linux UAPI; the arenas own
//! fixed vectors of them plus the datagram buffers, and header pointers are
//! re-derived from those vectors immediately before every syscall, so the
//! structures never hold dangling self-references across moves.

/// Maximum datagrams moved per `recvmmsg`/`sendmmsg` call.
pub const BATCH: usize = 64;

/// Whether this build target supports the batched syscall path at all
/// (Linux on x86-64 or aarch64). A `false` here means every [`enabled`]
/// check is `false` and the arenas are inert stubs.
pub const fn available() -> bool {
    cfg!(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))
}

/// Whether batched I/O is in effect: the target supports it *and* the
/// `DRUM_NET_NO_BATCH` environment variable is unset/empty/`0`. Cached on
/// first call, so the whole process commits to one mode.
pub fn enabled() -> bool {
    static ENABLED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ENABLED.get_or_init(|| {
        available()
            && !matches!(
                std::env::var("DRUM_NET_NO_BATCH").as_deref(),
                Ok("1") | Ok("true")
            )
    })
}

pub use imp::{fd_of, Epoll, RecvArena, SendArena, SockAddrV4Raw};

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod imp {
    use super::BATCH;
    use std::io;
    use std::net::{SocketAddr, UdpSocket};
    use std::os::unix::io::AsRawFd;
    use std::sync::OnceLock;
    use std::time::Duration;

    // ---------------------------------------------------------------
    // Syscall numbers and constants.
    // ---------------------------------------------------------------

    #[cfg(target_arch = "x86_64")]
    mod nr {
        pub const CLOSE: usize = 3;
        pub const EPOLL_CTL: usize = 233;
        pub const EPOLL_PWAIT: usize = 281;
        pub const EPOLL_CREATE1: usize = 291;
        pub const RECVMMSG: usize = 299;
        pub const SENDMMSG: usize = 307;
        pub const EPOLL_PWAIT2: usize = 441;
    }

    #[cfg(target_arch = "aarch64")]
    mod nr {
        pub const EPOLL_CREATE1: usize = 20;
        pub const EPOLL_CTL: usize = 21;
        pub const EPOLL_PWAIT: usize = 22;
        pub const CLOSE: usize = 57;
        pub const RECVMMSG: usize = 243;
        pub const SENDMMSG: usize = 269;
        pub const EPOLL_PWAIT2: usize = 441;
    }

    const AF_INET: u16 = 2;
    const MSG_DONTWAIT: u32 = 0x40;
    const EPERM: isize = 1;
    const EAGAIN: i32 = 11;
    const EINTR: i32 = 4;
    const ENOSYS: isize = 38;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLLIN: u32 = 0x1;

    // ---------------------------------------------------------------
    // The asm shims. Raw syscalls return `-errno` in `[-4095, -1]`.
    // ---------------------------------------------------------------

    /// Issues a 6-argument raw syscall.
    ///
    /// # Safety
    ///
    /// The caller must uphold the kernel contract of syscall `n`: every
    /// pointer argument must be valid for the access the kernel performs,
    /// with lengths matching the buffers they describe.
    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall6(
        n: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
        a6: usize,
    ) -> isize {
        let ret: isize;
        core::arch::asm!(
            "syscall",
            inlateout("rax") n as isize => ret,
            in("rdi") a1,
            in("rsi") a2,
            in("rdx") a3,
            in("r10") a4,
            in("r8") a5,
            in("r9") a6,
            out("rcx") _,
            out("r11") _,
            options(nostack),
        );
        ret
    }

    /// Issues a 6-argument raw syscall (aarch64 `svc 0` convention).
    ///
    /// # Safety
    ///
    /// Same contract as the x86-64 shim: arguments must satisfy the kernel
    /// API of syscall `n`.
    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall6(
        n: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
        a6: usize,
    ) -> isize {
        let ret: isize;
        core::arch::asm!(
            "svc 0",
            in("x8") n,
            inlateout("x0") a1 as isize => ret,
            in("x1") a2,
            in("x2") a3,
            in("x3") a4,
            in("x4") a5,
            in("x5") a6,
            options(nostack),
        );
        ret
    }

    /// Folds a raw syscall return into `io::Result<usize>`.
    fn check(ret: isize) -> io::Result<usize> {
        if ret < 0 {
            Err(io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret as usize)
        }
    }

    /// `true` for errno values the drain loops treat as "no data now".
    fn is_soft(err: &io::Error) -> bool {
        matches!(err.raw_os_error(), Some(EAGAIN) | Some(EINTR))
    }

    // ---------------------------------------------------------------
    // Kernel ABI structures (Linux UAPI layout, x86-64 and aarch64).
    // ---------------------------------------------------------------

    /// `struct iovec`.
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct IoVec {
        base: *mut u8,
        len: usize,
    }

    /// `struct user_msghdr`.
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct MsgHdr {
        name: *mut SockAddrV4Raw,
        namelen: i32,
        iov: *mut IoVec,
        iovlen: usize,
        control: *mut u8,
        controllen: usize,
        flags: u32,
    }

    impl MsgHdr {
        fn zeroed() -> Self {
            MsgHdr {
                name: core::ptr::null_mut(),
                namelen: 0,
                iov: core::ptr::null_mut(),
                iovlen: 0,
                control: core::ptr::null_mut(),
                controllen: 0,
                flags: 0,
            }
        }
    }

    /// `struct mmsghdr`: one `msghdr` plus the kernel-filled datagram
    /// length.
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct MMsgHdr {
        hdr: MsgHdr,
        len: u32,
    }

    /// `struct sockaddr_in` (network byte order for port and address).
    #[repr(C)]
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct SockAddrV4Raw {
        family: u16,
        port_be: [u8; 2],
        addr_be: [u8; 4],
        zero: [u8; 8],
    }

    impl SockAddrV4Raw {
        /// Converts a std socket address; `None` for IPv6 destinations
        /// (the runtime only ever targets loopback IPv4, but callers fall
        /// back to `send_to` rather than panic).
        pub fn from_std(addr: SocketAddr) -> Option<Self> {
            match addr {
                SocketAddr::V4(v4) => Some(SockAddrV4Raw {
                    family: AF_INET,
                    port_be: v4.port().to_be_bytes(),
                    addr_be: v4.ip().octets(),
                    zero: [0u8; 8],
                }),
                SocketAddr::V6(_) => None,
            }
        }

        fn unspecified() -> Self {
            SockAddrV4Raw {
                family: 0,
                port_be: [0; 2],
                addr_be: [0; 4],
                zero: [0u8; 8],
            }
        }
    }

    /// The raw file descriptor of a UDP socket, for the arena calls.
    pub fn fd_of(socket: &UdpSocket) -> i32 {
        socket.as_raw_fd()
    }

    // ---------------------------------------------------------------
    // Receive arena.
    // ---------------------------------------------------------------

    /// Fixed scratch for `recvmmsg`: [`BATCH`] datagram buffers of
    /// `slot_len` bytes each, plus the `mmsghdr`/`iovec` vectors one call
    /// fills. Allocated once per runtime thread and reused for every
    /// batched receive; the buffer pages commit lazily, so idle slots cost
    /// address space only.
    pub struct RecvArena {
        slot_len: usize,
        bufs: Vec<u8>,
        lens: [usize; BATCH],
        hdrs: Vec<MMsgHdr>,
        iovs: Vec<IoVec>,
        count: usize,
    }

    impl std::fmt::Debug for RecvArena {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("RecvArena")
                .field("slot_len", &self.slot_len)
                .field("count", &self.count)
                .finish_non_exhaustive()
        }
    }

    // SAFETY: the only raw pointers the arena stores are the iovec/msghdr
    // scratch, and those are re-derived from the owned, heap-stable
    // vectors immediately before every syscall (see `recv`) — a value left
    // over from before a move is never read. Everything the pointers
    // target is owned by the arena, so it can move between threads (a
    // shard is built on the spawning thread and runs on its own).
    unsafe impl Send for RecvArena {}

    impl RecvArena {
        /// Creates an arena whose per-datagram slots hold `slot_len`
        /// bytes (callers pass the codec's maximum wire length, so
        /// truncation behavior matches a `recv_from` into the same-sized
        /// scratch buffer).
        pub fn new(slot_len: usize) -> Self {
            RecvArena {
                slot_len,
                bufs: vec![0u8; slot_len * BATCH],
                lens: [0; BATCH],
                hdrs: vec![
                    MMsgHdr {
                        hdr: MsgHdr::zeroed(),
                        len: 0,
                    };
                    BATCH
                ],
                iovs: vec![
                    IoVec {
                        base: core::ptr::null_mut(),
                        len: 0,
                    };
                    BATCH
                ],
                count: 0,
            }
        }

        /// One `recvmmsg` on `fd`: receives up to [`BATCH`] datagrams
        /// without blocking. Returns the number received (`0` when the
        /// socket has nothing pending). Datagrams are then readable via
        /// [`RecvArena::datagram`] in kernel queue order — the same order a
        /// `recv_from` loop would have seen them.
        pub fn recv(&mut self, fd: i32) -> io::Result<usize> {
            self.count = 0;
            // Re-derive every pointer from the (heap-stable) vectors right
            // before the call: the arena stays movable and the kernel only
            // ever sees addresses valid for this call.
            for i in 0..BATCH {
                self.iovs[i] = IoVec {
                    base: self.bufs[i * self.slot_len..].as_mut_ptr(),
                    len: self.slot_len,
                };
                self.hdrs[i].hdr = MsgHdr::zeroed();
                self.hdrs[i].hdr.iov = &mut self.iovs[i];
                self.hdrs[i].hdr.iovlen = 1;
                self.hdrs[i].len = 0;
            }
            // SAFETY: `hdrs` holds BATCH initialized mmsghdrs whose iovecs
            // point at BATCH disjoint `slot_len` slices of `bufs`, all
            // owned by `self` and alive across the call; name/control are
            // null so the kernel writes datagram bytes and lengths only.
            let ret = unsafe {
                syscall6(
                    nr::RECVMMSG,
                    fd as usize,
                    self.hdrs.as_mut_ptr() as usize,
                    BATCH,
                    MSG_DONTWAIT as usize,
                    0, // timeout: NULL
                    0,
                )
            };
            match check(ret) {
                Ok(n) => {
                    let n = n.min(BATCH);
                    for i in 0..n {
                        self.lens[i] = (self.hdrs[i].len as usize).min(self.slot_len);
                    }
                    self.count = n;
                    Ok(n)
                }
                Err(e) if is_soft(&e) => Ok(0),
                Err(e) => Err(e),
            }
        }

        /// The bytes of datagram `i` from the last [`RecvArena::recv`].
        ///
        /// # Panics
        ///
        /// Panics if `i` is not below the last call's return value.
        pub fn datagram(&self, i: usize) -> &[u8] {
            assert!(i < self.count, "datagram index out of batch");
            &self.bufs[i * self.slot_len..i * self.slot_len + self.lens[i]]
        }
    }

    // ---------------------------------------------------------------
    // Send arena.
    // ---------------------------------------------------------------

    /// Fixed scratch for `sendmmsg`: queued datagrams share one grow-only
    /// byte arena, and the encode-once fan-out queues *ranges* — a message
    /// fanned to `k` recipients is copied once and referenced `k` times.
    pub struct SendArena {
        bytes: Vec<u8>,
        /// Queued datagrams: byte range in `bytes` + destination.
        msgs: Vec<(usize, usize, SockAddrV4Raw)>,
        addrs: Vec<SockAddrV4Raw>,
        hdrs: Vec<MMsgHdr>,
        iovs: Vec<IoVec>,
    }

    impl std::fmt::Debug for SendArena {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("SendArena")
                .field("queued", &self.msgs.len())
                .finish_non_exhaustive()
        }
    }

    // SAFETY: as for `RecvArena` — header/iovec pointers are re-derived
    // from owned vectors right before the `sendmmsg` call, never carried
    // across a move.
    unsafe impl Send for SendArena {}

    impl Default for SendArena {
        fn default() -> Self {
            Self::new()
        }
    }

    impl SendArena {
        /// Creates an empty send arena.
        pub fn new() -> Self {
            SendArena {
                bytes: Vec::new(),
                msgs: Vec::with_capacity(BATCH),
                addrs: vec![SockAddrV4Raw::unspecified(); BATCH],
                hdrs: vec![
                    MMsgHdr {
                        hdr: MsgHdr::zeroed(),
                        len: 0,
                    };
                    BATCH
                ],
                iovs: vec![
                    IoVec {
                        base: core::ptr::null_mut(),
                        len: 0,
                    };
                    BATCH
                ],
            }
        }

        /// Number of queued datagrams.
        pub fn len(&self) -> usize {
            self.msgs.len()
        }

        /// Whether nothing is queued.
        pub fn is_empty(&self) -> bool {
            self.msgs.is_empty()
        }

        /// Whether the arena holds a full batch (callers flush then).
        pub fn is_full(&self) -> bool {
            self.msgs.len() >= BATCH
        }

        /// Queues one datagram, copying `payload` into the arena.
        ///
        /// # Panics
        ///
        /// Panics if the arena [`is_full`](SendArena::is_full).
        pub fn push(&mut self, dest: SockAddrV4Raw, payload: &[u8]) {
            assert!(!self.is_full(), "push into a full SendArena");
            let start = self.bytes.len();
            self.bytes.extend_from_slice(payload);
            self.msgs.push((start, payload.len(), dest));
        }

        /// Queues one datagram whose bytes are identical to the previously
        /// queued one, sharing its arena range (the encode-once fan-out
        /// path: no copy).
        ///
        /// # Panics
        ///
        /// Panics if the arena is empty or full.
        pub fn push_repeat(&mut self, dest: SockAddrV4Raw) {
            assert!(!self.is_full(), "push into a full SendArena");
            let (start, len, _) = *self.msgs.last().expect("push_repeat on empty arena");
            self.msgs.push((start, len, dest));
        }

        /// Flushes everything queued through `sendmmsg`, looping over
        /// partial sends. Returns `(datagrams_sent, syscalls_made)`;
        /// datagrams the kernel refuses (buffer pressure, routing errors)
        /// are dropped, matching the fire-and-forget `send_to` semantics of
        /// the per-datagram path. The arena is empty afterwards.
        pub fn flush(&mut self, fd: i32) -> (usize, usize) {
            let total = self.msgs.len();
            if total == 0 {
                return (0, 0);
            }
            // Build headers after the byte arena is final (it may have
            // reallocated while queueing).
            for (i, &(start, len, dest)) in self.msgs.iter().enumerate() {
                self.addrs[i] = dest;
                self.iovs[i] = IoVec {
                    base: self.bytes[start..].as_mut_ptr(),
                    len,
                };
                self.hdrs[i].hdr = MsgHdr::zeroed();
                self.hdrs[i].hdr.name = &mut self.addrs[i];
                self.hdrs[i].hdr.namelen = core::mem::size_of::<SockAddrV4Raw>() as i32;
                self.hdrs[i].hdr.iov = &mut self.iovs[i];
                self.hdrs[i].hdr.iovlen = 1;
                self.hdrs[i].len = 0;
            }
            let mut sent = 0usize;
            let mut syscalls = 0usize;
            while sent < total {
                // SAFETY: `hdrs[sent..total]` are initialized mmsghdrs
                // whose name/iovec pointers address `self.addrs`,
                // `self.iovs` and `self.bytes`, none of which are touched
                // while the kernel reads them.
                let ret = unsafe {
                    syscall6(
                        nr::SENDMMSG,
                        fd as usize,
                        self.hdrs[sent..].as_mut_ptr() as usize,
                        total - sent,
                        MSG_DONTWAIT as usize,
                        0,
                        0,
                    )
                };
                syscalls += 1;
                match check(ret) {
                    Ok(0) => break,
                    Ok(n) => sent += n.min(total - sent),
                    Err(_) => break,
                }
            }
            self.msgs.clear();
            self.bytes.clear();
            (sent, syscalls)
        }
    }

    // ---------------------------------------------------------------
    // Epoll.
    // ---------------------------------------------------------------

    /// `struct epoll_event`. Packed on x86-64 (the one ABI where the
    /// kernel declares it `__attribute__((packed))`), naturally aligned
    /// elsewhere.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    /// `struct __kernel_timespec` (64-bit seconds on every supported ABI).
    #[repr(C)]
    struct TimeSpec {
        sec: i64,
        nsec: i64,
    }

    /// Whether `epoll_pwait2` is usable: unset until the first wait finds
    /// out, then fixed for the life of the process.
    static PWAIT2: OnceLock<bool> = OnceLock::new();

    /// `timeout` in whole milliseconds, rounded *up* so the millisecond
    /// fallback never turns a pending sub-millisecond wait into a
    /// non-blocking poll. Saturates at `i32::MAX`.
    pub(super) fn ceil_millis(timeout: Duration) -> usize {
        timeout.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as usize
    }

    /// A level-triggered epoll instance: the round loops' sleep, which
    /// wakes the moment any registered socket becomes readable or the
    /// round deadline arrives, whichever is first.
    #[derive(Debug)]
    pub struct Epoll {
        fd: i32,
    }

    impl Epoll {
        /// Creates an epoll instance (`epoll_create1(0)`).
        ///
        /// # Errors
        ///
        /// Propagates the kernel error.
        pub fn new() -> io::Result<Epoll> {
            // SAFETY: epoll_create1 takes no pointers.
            let ret = unsafe { syscall6(nr::EPOLL_CREATE1, 0, 0, 0, 0, 0, 0) };
            check(ret).map(|fd| Epoll { fd: fd as i32 })
        }

        /// Registers `socket` for readability wakeups under its own fd as
        /// the event token (for callers that drain every socket after a
        /// wake and ignore the tokens). Sockets deregister themselves when
        /// closed (the kernel removes a closed descriptor from every epoll
        /// set), so there is no `del`.
        ///
        /// # Errors
        ///
        /// Propagates the kernel error.
        pub fn add(&self, socket: &UdpSocket) -> io::Result<()> {
            self.add_tagged(socket, socket.as_raw_fd() as u64)
        }

        /// Registers `socket` for readability wakeups with an explicit
        /// event token. The sharded runtime packs an engine index, a
        /// channel class and (for pool sockets) the bound port into the
        /// token, so one wait can route each ready socket straight to the
        /// engine and socket that own it (see [`Epoll::wait_tagged`]).
        ///
        /// # Errors
        ///
        /// Propagates the kernel error.
        pub fn add_tagged(&self, socket: &UdpSocket, token: u64) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: EPOLLIN,
                data: token,
            };
            // SAFETY: `ev` is a valid epoll_event alive across the call.
            let ret = unsafe {
                syscall6(
                    nr::EPOLL_CTL,
                    self.fd as usize,
                    EPOLL_CTL_ADD as usize,
                    socket.as_raw_fd() as usize,
                    core::ptr::addr_of_mut!(ev) as usize,
                    0,
                    0,
                )
            };
            check(ret).map(|_| ())
        }

        /// Blocks until any registered socket is readable or `timeout`
        /// elapses, then appends the registration token of every ready
        /// descriptor to `out`. One call surfaces at most 64 tokens;
        /// level-triggered semantics re-report anything still readable on
        /// the next call, so a shard serving thousands of sockets never
        /// misses one — it just takes another wakeup.
        ///
        /// The wait is `epoll_pwait2(2)` with a nanosecond `timespec`, so
        /// a sub-millisecond remainder blocks for exactly that long rather
        /// than truncating to a non-blocking poll. Where the kernel (older
        /// than 5.11) or a seccomp filter refuses it with `ENOSYS`/`EPERM`,
        /// the process falls back once, for good, to `epoll_pwait` with
        /// the timeout rounded up to whole milliseconds: a wake up to 1 ms
        /// late, never a spin. A zero `timeout` is a non-blocking poll.
        ///
        /// Returns the number of tokens appended (`0` on timeout or
        /// interrupt).
        ///
        /// # Errors
        ///
        /// Propagates kernel errors other than `EINTR`.
        pub fn wait_tagged(&self, timeout: Duration, out: &mut Vec<u64>) -> io::Result<usize> {
            let mut events = [EpollEvent { events: 0, data: 0 }; 64];
            match check(self.pwait(&mut events, timeout)) {
                Ok(n) => {
                    for ev in events.iter().take(n) {
                        // By-value field copy: `data` may be unaligned in
                        // the packed x86-64 layout, so never take a ref.
                        let token = { *ev }.data;
                        out.push(token);
                    }
                    Ok(n)
                }
                Err(e) if is_soft(&e) => Ok(0),
                Err(e) => Err(e),
            }
        }

        /// Issues the wait: `epoll_pwait2` unless a previous call found it
        /// refused, else `epoll_pwait` with the rounded-up timeout. The
        /// null sigmask (arg 5) makes either behave like `epoll_wait`,
        /// which aarch64 does not expose directly. Returns the raw result.
        fn pwait(&self, events: &mut [EpollEvent], timeout: Duration) -> isize {
            if *PWAIT2.get().unwrap_or(&true) {
                let ts = TimeSpec {
                    sec: timeout.as_secs().min(i64::MAX as u64) as i64,
                    nsec: i64::from(timeout.subsec_nanos()),
                };
                // SAFETY: `events` is writable for `events.len()` entries
                // and `ts` is a valid timespec alive across the call.
                let ret = unsafe {
                    syscall6(
                        nr::EPOLL_PWAIT2,
                        self.fd as usize,
                        events.as_mut_ptr() as usize,
                        events.len(),
                        core::ptr::addr_of!(ts) as usize,
                        0,
                        0,
                    )
                };
                if ret != -ENOSYS && ret != -EPERM {
                    PWAIT2.get_or_init(|| true);
                    return ret;
                }
                let _ = PWAIT2.set(false);
            }
            // SAFETY: as above; the timeout is a plain int.
            unsafe {
                syscall6(
                    nr::EPOLL_PWAIT,
                    self.fd as usize,
                    events.as_mut_ptr() as usize,
                    events.len(),
                    ceil_millis(timeout),
                    0,
                    0,
                )
            }
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            // SAFETY: closing the fd this struct exclusively owns.
            let _ = unsafe { syscall6(nr::CLOSE, self.fd as usize, 0, 0, 0, 0, 0) };
        }
    }
}

/// Inert stand-ins for targets without the batched path. Constructing the
/// arenas is allowed (so callers need no `cfg`), but [`super::available`]
/// is `false` there, every gate routes to the per-datagram fallback, and
/// the operations themselves fail with `Unsupported` if reached anyway.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod imp {
    use std::io;
    use std::net::{SocketAddr, UdpSocket};

    fn unsupported() -> io::Error {
        io::Error::new(
            io::ErrorKind::Unsupported,
            "batched syscall I/O is Linux-only",
        )
    }

    /// Raw IPv4 socket address (stub).
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct SockAddrV4Raw;

    impl SockAddrV4Raw {
        /// Always `None`: no batched destinations exist on this target.
        pub fn from_std(_addr: SocketAddr) -> Option<Self> {
            None
        }
    }

    /// Raw fd accessor (stub: the batched path never runs here).
    pub fn fd_of(_socket: &UdpSocket) -> i32 {
        -1
    }

    /// Receive arena (stub).
    #[derive(Debug)]
    pub struct RecvArena;

    impl RecvArena {
        /// Creates the inert arena.
        pub fn new(_slot_len: usize) -> Self {
            RecvArena
        }

        /// Always fails: the caller should have checked [`super::enabled`].
        pub fn recv(&mut self, _fd: i32) -> io::Result<usize> {
            Err(unsupported())
        }

        /// Unreachable on this target.
        pub fn datagram(&self, _i: usize) -> &[u8] {
            &[]
        }
    }

    /// Send arena (stub).
    #[derive(Debug, Default)]
    pub struct SendArena;

    impl SendArena {
        /// Creates the inert arena.
        pub fn new() -> Self {
            SendArena
        }

        /// Always zero.
        pub fn len(&self) -> usize {
            0
        }

        /// Always empty.
        pub fn is_empty(&self) -> bool {
            true
        }

        /// Never full.
        pub fn is_full(&self) -> bool {
            false
        }

        /// Unreachable on this target (callers gate on [`super::enabled`]).
        pub fn push(&mut self, _dest: SockAddrV4Raw, _payload: &[u8]) {}

        /// Unreachable on this target.
        pub fn push_repeat(&mut self, _dest: SockAddrV4Raw) {}

        /// Nothing to flush.
        pub fn flush(&mut self, _fd: i32) -> (usize, usize) {
            (0, 0)
        }
    }

    /// Epoll (stub).
    #[derive(Debug)]
    pub struct Epoll;

    impl Epoll {
        /// Always fails on this target.
        pub fn new() -> io::Result<Epoll> {
            Err(unsupported())
        }

        /// Unreachable on this target.
        pub fn add(&self, _socket: &UdpSocket) -> io::Result<()> {
            Err(unsupported())
        }

        /// Unreachable on this target.
        pub fn add_tagged(&self, _socket: &UdpSocket, _token: u64) -> io::Result<()> {
            Err(unsupported())
        }

        /// Unreachable on this target.
        pub fn wait_tagged(
            &self,
            _timeout: std::time::Duration,
            _out: &mut Vec<u64>,
        ) -> io::Result<usize> {
            Err(unsupported())
        }
    }
}

#[cfg(all(
    test,
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod tests {
    use super::*;
    use std::net::{Ipv4Addr, UdpSocket};
    use std::time::{Duration, Instant};

    fn pair() -> (UdpSocket, UdpSocket) {
        let rx = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        rx.set_nonblocking(true).unwrap();
        let tx = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        (rx, tx)
    }

    #[test]
    fn recvmmsg_returns_datagrams_in_order() {
        let (rx, tx) = pair();
        let dest = rx.local_addr().unwrap();
        for i in 0..10u8 {
            tx.send_to(&[i, i, i], dest).unwrap();
        }
        std::thread::sleep(Duration::from_millis(20));
        let mut arena = RecvArena::new(64);
        let n = arena.recv(fd_of(&rx)).unwrap();
        assert_eq!(n, 10);
        for i in 0..10 {
            assert_eq!(arena.datagram(i), &[i as u8; 3]);
        }
        // Drained: next call reports nothing without blocking.
        assert_eq!(arena.recv(fd_of(&rx)).unwrap(), 0);
    }

    #[test]
    fn recvmmsg_truncates_to_slot_len_like_recv_from() {
        let (rx, tx) = pair();
        let dest = rx.local_addr().unwrap();
        tx.send_to(&[0xAB; 100], dest).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let mut arena = RecvArena::new(16);
        assert_eq!(arena.recv(fd_of(&rx)).unwrap(), 1);
        assert_eq!(arena.datagram(0), &[0xAB; 16]);
    }

    #[test]
    fn sendmmsg_delivers_fanout_without_copies() {
        let (rx, tx) = pair();
        let dest = SockAddrV4Raw::from_std(rx.local_addr().unwrap()).unwrap();
        let mut arena = SendArena::new();
        arena.push(dest, b"fanned");
        for _ in 0..7 {
            arena.push_repeat(dest);
        }
        let (sent, syscalls) = arena.flush(fd_of(&tx));
        assert_eq!(sent, 8);
        assert_eq!(syscalls, 1);
        assert!(arena.is_empty());
        std::thread::sleep(Duration::from_millis(20));
        let mut got = 0;
        let mut buf = [0u8; 64];
        while let Ok((len, _)) = rx.recv_from(&mut buf) {
            assert_eq!(&buf[..len], b"fanned");
            got += 1;
        }
        assert_eq!(got, 8);
    }

    #[test]
    fn send_arena_handles_full_batches() {
        let (rx, tx) = pair();
        let dest = SockAddrV4Raw::from_std(rx.local_addr().unwrap()).unwrap();
        let mut arena = SendArena::new();
        for i in 0..BATCH {
            assert!(!arena.is_full());
            arena.push(dest, &[i as u8]);
        }
        assert!(arena.is_full());
        let (sent, syscalls) = arena.flush(fd_of(&tx));
        assert_eq!(sent, BATCH);
        assert!(syscalls >= 1);
    }

    #[test]
    fn epoll_wakes_on_datagram_and_times_out_when_quiet() {
        let (rx, tx) = pair();
        let ep = Epoll::new().unwrap();
        ep.add(&rx).unwrap();

        let mut tokens = Vec::new();

        // Quiet socket: wait should time out (allow generous slack).
        let t0 = Instant::now();
        assert_eq!(
            ep.wait_tagged(Duration::from_millis(30), &mut tokens)
                .unwrap(),
            0
        );
        assert!(t0.elapsed() >= Duration::from_millis(20));

        // Data pending: wait returns promptly with a ready fd.
        tx.send_to(b"wake", rx.local_addr().unwrap()).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        let t0 = Instant::now();
        assert!(ep.wait_tagged(Duration::from_secs(5), &mut tokens).unwrap() >= 1);
        assert!(t0.elapsed() < Duration::from_secs(1));
        assert_eq!(tokens, vec![fd_of(&rx) as u64]);
    }

    #[test]
    fn sub_millisecond_wait_blocks_for_its_full_timeout() {
        // An idle epoll must sleep out a 300 us timeout rather than
        // truncate it to a non-blocking poll (the 1 ms epoll_pwait
        // fallback only ever rounds up, so the lower bound holds on both
        // paths).
        let (rx, _tx) = pair();
        let ep = Epoll::new().unwrap();
        ep.add(&rx).unwrap();
        let mut tokens = Vec::new();
        for _ in 0..5 {
            let t0 = Instant::now();
            let n = ep
                .wait_tagged(Duration::from_micros(300), &mut tokens)
                .unwrap();
            let slept = t0.elapsed();
            assert_eq!(n, 0);
            assert!(tokens.is_empty());
            assert!(
                slept >= Duration::from_micros(300),
                "woke after {slept:?}, before the 300 us timeout"
            );
        }
    }

    #[test]
    fn millisecond_fallback_rounds_up() {
        assert_eq!(imp::ceil_millis(Duration::ZERO), 0);
        assert_eq!(imp::ceil_millis(Duration::from_nanos(1)), 1);
        assert_eq!(imp::ceil_millis(Duration::from_micros(300)), 1);
        assert_eq!(imp::ceil_millis(Duration::from_millis(1)), 1);
        assert_eq!(imp::ceil_millis(Duration::from_micros(1_001)), 2);
        assert_eq!(
            imp::ceil_millis(Duration::from_secs(1 << 40)),
            i32::MAX as usize
        );
    }

    #[test]
    fn enabled_respects_target_support() {
        assert!(available());
        // `enabled()` may be false if the test runner exported
        // DRUM_NET_NO_BATCH; it must never be true without support.
        if enabled() {
            assert!(available());
        }
    }
}
