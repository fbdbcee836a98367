//! Hot-path micro-benchmarks with a frozen seed baseline and a ratio gate.
//!
//! Measures the three per-message/per-round paths the zero-allocation work
//! targeted, each against an in-binary copy of the *seed revision's*
//! implementation (so "before" numbers come from the actual old code, not
//! from memory):
//!
//! * `auth_verify_small` — source-authentication of a small data message:
//!   seed = per-message HMAC key schedule + heap-allocated `tag_input`;
//!   current = cached [`drum_crypto::hmac::HmacKey`] schedule streaming the
//!   parts. This is the attack-amplification path: every fabricated
//!   datagram that decodes forces a verify.
//! * `encode_fanout` — one `PushData` fanned out to `FANOUT` recipients:
//!   seed = one `codec::encode` (fresh allocation) per recipient; current =
//!   `codec::encode_into` once into reused scratch, as `send_out` now does.
//! * `sim_round` — one simulated round plus the per-round occupancy
//!   queries: seed = full O(n) membership scans (the old accessors);
//!   current = incrementally maintained counters.
//! * `recv_drain_flood_1024` — draining a 1024-datagram flood, the
//!   victim's per-round ingest under attack: seed = the per-datagram
//!   `recv_from` loop (one syscall per datagram plus the `WouldBlock`
//!   probe — the seed implementation, preserved in-tree as the
//!   [`drum_net::BatchRx`] fallback); current = `recvmmsg` batches.
//! * `send_fanout_mmsg` — fanning one encoded message to 64 recipients:
//!   seed = 64 `send_to` syscalls; current = one `sendmmsg` via
//!   [`drum_net::BatchTx`] with the encode-once repeat hint.
//!
//! The two syscall benches are gated on **syscalls per datagram**, not
//! wall-clock: the kernel's per-datagram UDP work is identical in both
//! arms, so the quantity the batching eliminates — user/kernel crossings
//! per attacker datagram, the denominator of the DoS argument in
//! DESIGN.md §14 — is counted directly. That ratio is exact and
//! machine-independent, where the wall-clock equivalent would track the
//! host kernel's syscall-entry cost (large on mitigation-hardened hosts,
//! small on this dev kernel). Both are skipped on targets without the
//! raw-syscall fast path.
//!
//! * `mac_verify_flood_512` — full-MAC-verifies per datagram under an
//!   identical-fan-in flood (the replay adversary's wire pattern): seed =
//!   one HMAC per datagram (the per-datagram path); current = one HMAC per
//!   unique `(source, seq, tag)` triple per round via the round-scoped
//!   `drum_crypto::batch::BatchVerifier`. Exact and machine-independent,
//!   like the syscall gates.
//! * `mac_multiway_flood_512` — SHA-256 compressions per 64-byte block of
//!   MAC work across a 512-unique-datagram flood: seed = the one-block-
//!   at-a-time kernel shape; current = the 8-lane multi-buffer kernel
//!   behind [`drum_crypto::multiway`] (DESIGN.md §20). Exact and
//!   machine-independent where the 8-lane path exists; skipped elsewhere
//!   and under `DRUM_CRYPTO_NO_SIMD=1`, like the syscall gates.
//! * `shard_dispatch_256e` — the multiplexed runtime's wakeup economics
//!   (DESIGN.md §16), gated on **epoll wakeups per engine**: 256 engine
//!   sockets all readable at once. Seed = one epoll instance per engine
//!   (the thread-per-process shape: every engine's readiness costs its
//!   own `epoll_wait` return); current = one shared tagged epoll drained
//!   through the shard's 64-event buffer. Exact and machine-independent,
//!   like the other syscall gates, and skipped without the fast path.
//!
//! The sweep-scheduling benches follow the same philosophy for the
//! `drum-pool` rewrite of `run_experiment` (DESIGN.md §15). The seed
//! scheduler — per-point `std::thread::scope` with contiguous
//! `div_ceil(trials, workers)` chunks and a join barrier between points —
//! is compared against the pool's dynamic self-scheduling over one flat
//! chunk set at 8 workers. The gated quantities are the modeled **sweep
//! span** (sum of per-point straggler chunks vs greedy list scheduling,
//! in simulated rounds — exact, derived from each trial's deterministic
//! `rounds_executed` cost) and the **idle worker-rounds per job** the
//! barriers strand. The idle-per-job gate carries the headline ≥2×
//! floor (measured ≈13×, the scheduling waste the rewrite eliminates);
//! the span gate floor is 1.5× (measured 1.64× — a span is
//! lower-bounded by the straggler chunk, which both schedulers must
//! run, so it cannot improve as far as the waste metric). A wall-clock
//! comparison of the two executions is reported ungated (floor 0): on
//! the 1–2 core CI hosts both arms serialize onto the same core, so
//! wall-clock cannot resolve a scheduling win that the modeled metrics
//! measure exactly.
//!
//! The sustained-throughput work (DESIGN.md §19) adds three gates in the
//! same exact-count style: `frame_pack_fanout` (datagrams per data
//! message, seed = one datagram each vs MTU-packed frames) and
//! `mac_per_msg_stream` (HMACs per data message on receive, seed = one
//! verify each vs one frame tag per frame) are pure functions of the
//! message sizes and `FRAME_BUDGET`, gated at ≥8× for a 64-message
//! burst; `buffer_purge_steady` reports the flat-map vs age-bucketed
//! ring wall clock ungated while hard-asserting that a warmed-up
//! steady-state buffer round performs zero heap allocations and that
//! the `max_age = 0` purge does no iteration work.
//!
//! The sharded intra-trial stepper (DESIGN.md §18) gets the same
//! treatment at its design scale of n = 10^6: `sim_round_sharded_1m`
//! reports the serial-vs-sharded wall clock per round ungated (it tracks
//! the host core count) and hard-asserts zero heap allocations per
//! warmed-up round via this binary's counting global allocator, while
//! `sim_shard_balance_1m` and `sim_merge_ops_1m` gate the modeled
//! per-shard work split and the shard-count-dependent serial merge ops —
//! pure functions of `(n, auto_shards(n))`, exact on every machine.
//!
//! Emits `BENCH_hotpath.json` (override with `--out PATH`) and exits
//! non-zero when a speedup falls below its floor unless `--no-gate` is
//! given. Ratios of two in-process measurements are stable across machines
//! even when absolute ns/op are not, which is what makes the gate viable in
//! CI. `--quick` shrinks sample counts for smoke runs.

use std::time::{Duration, Instant};

use drum_core::bytes::{Bytes, BytesMut};
use drum_core::digest::Digest;
use drum_core::ids::{MessageId, ProcessId};
use drum_core::message::{DataMessage, GossipMessage, PortRef};
use drum_core::ProtocolVariant;
use drum_crypto::auth;
use drum_crypto::keys::KeyStore;
use drum_metrics::json::Json;
use drum_pool::{schedule, Pool};
use drum_sim::config::{Role, SimConfig};
use drum_sim::model::{shard_range, SimState};
use drum_sim::runner::{auto_shards, chunk_size, run_many_on, run_trial};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Counting global allocator backing the sharded stepper's
/// zero-allocation-per-round assertion. Every heap operation that obtains
/// memory bumps one relaxed atomic; the per-op cost is a nanosecond-scale
/// constant on both arms of every timed comparison, so the ratios the
/// gates consume are unaffected.
mod alloc_count {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);

    /// Heap acquisitions (alloc/alloc_zeroed/realloc) since process start.
    pub fn total() -> u64 {
        ALLOCS.load(Ordering::Relaxed)
    }

    pub struct Counting;

    // SAFETY: defers every operation to `System` unchanged; the counter
    // itself never allocates.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.alloc_zeroed(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
        }
    }
}

#[global_allocator]
static COUNTING_ALLOC: alloc_count::Counting = alloc_count::Counting;

/// The seed revision's crypto hot path, frozen verbatim so the baseline
/// numbers keep coming from the code that actually shipped in the seed:
/// per-message key schedule, byte-at-a-time finalize padding, block copies
/// in `update`, and a heap-allocated tag input.
mod seed {
    const DIGEST_LEN: usize = 32;
    const BLOCK_LEN: usize = 64;

    const K: [u32; 64] = [
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
        0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
        0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
        0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
        0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
        0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
        0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
        0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
        0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
        0xc67178f2,
    ];

    const H0: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];

    #[derive(Clone)]
    pub struct Sha256 {
        state: [u32; 8],
        len: u64,
        buf: [u8; BLOCK_LEN],
        buf_len: usize,
    }

    impl Sha256 {
        pub fn new() -> Self {
            Sha256 {
                state: H0,
                len: 0,
                buf: [0u8; BLOCK_LEN],
                buf_len: 0,
            }
        }

        pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
            let mut h = Sha256::new();
            h.update(data);
            h.finalize()
        }

        pub fn update(&mut self, mut data: &[u8]) {
            self.len = self.len.wrapping_add(data.len() as u64);
            if self.buf_len > 0 {
                let take = (BLOCK_LEN - self.buf_len).min(data.len());
                self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
                self.buf_len += take;
                data = &data[take..];
                if self.buf_len == BLOCK_LEN {
                    let block = self.buf;
                    self.compress(&block);
                    self.buf_len = 0;
                }
            }
            while data.len() >= BLOCK_LEN {
                let (block, rest) = data.split_at(BLOCK_LEN);
                let mut b = [0u8; BLOCK_LEN];
                b.copy_from_slice(block);
                self.compress(&b);
                data = rest;
            }
            if !data.is_empty() {
                self.buf[..data.len()].copy_from_slice(data);
                self.buf_len = data.len();
            }
        }

        pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
            let bit_len = self.len.wrapping_mul(8);
            self.update(&[0x80]);
            self.len = self.len.wrapping_sub(1);
            while self.buf_len != BLOCK_LEN - 8 {
                self.update(&[0]);
                self.len = self.len.wrapping_sub(1);
            }
            let mut block = self.buf;
            block[BLOCK_LEN - 8..].copy_from_slice(&bit_len.to_be_bytes());
            self.compress(&block);

            let mut out = [0u8; DIGEST_LEN];
            for (chunk, word) in out.chunks_exact_mut(4).zip(self.state.iter()) {
                chunk.copy_from_slice(&word.to_be_bytes());
            }
            out
        }

        fn compress(&mut self, block: &[u8; BLOCK_LEN]) {
            let mut w = [0u32; 64];
            for (i, chunk) in block.chunks_exact(4).enumerate() {
                w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
            }
            for i in 16..64 {
                let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
                let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
                w[i] = w[i - 16]
                    .wrapping_add(s0)
                    .wrapping_add(w[i - 7])
                    .wrapping_add(s1);
            }

            let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
            for i in 0..64 {
                let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
                let ch = (e & f) ^ (!e & g);
                let t1 = h
                    .wrapping_add(s1)
                    .wrapping_add(ch)
                    .wrapping_add(K[i])
                    .wrapping_add(w[i]);
                let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
                let maj = (a & b) ^ (a & c) ^ (b & c);
                let t2 = s0.wrapping_add(maj);
                h = g;
                g = f;
                f = e;
                e = d.wrapping_add(t1);
                d = c;
                c = b;
                b = a;
                a = t1.wrapping_add(t2);
            }

            self.state[0] = self.state[0].wrapping_add(a);
            self.state[1] = self.state[1].wrapping_add(b);
            self.state[2] = self.state[2].wrapping_add(c);
            self.state[3] = self.state[3].wrapping_add(d);
            self.state[4] = self.state[4].wrapping_add(e);
            self.state[5] = self.state[5].wrapping_add(f);
            self.state[6] = self.state[6].wrapping_add(g);
            self.state[7] = self.state[7].wrapping_add(h);
        }
    }

    pub struct HmacSha256 {
        inner: Sha256,
        opad: [u8; BLOCK_LEN],
    }

    impl HmacSha256 {
        pub fn new(key: &[u8]) -> Self {
            let mut key_block = [0u8; BLOCK_LEN];
            if key.len() > BLOCK_LEN {
                key_block[..DIGEST_LEN].copy_from_slice(&Sha256::digest(key));
            } else {
                key_block[..key.len()].copy_from_slice(key);
            }

            let mut ipad = [0u8; BLOCK_LEN];
            let mut opad = [0u8; BLOCK_LEN];
            for i in 0..BLOCK_LEN {
                ipad[i] = key_block[i] ^ 0x36;
                opad[i] = key_block[i] ^ 0x5c;
            }

            let mut inner = Sha256::new();
            inner.update(&ipad);
            HmacSha256 { inner, opad }
        }

        pub fn update(&mut self, data: &[u8]) {
            self.inner.update(data);
        }

        pub fn finalize(self) -> [u8; DIGEST_LEN] {
            let inner_digest = self.inner.finalize();
            let mut outer = Sha256::new();
            outer.update(&self.opad);
            outer.update(&inner_digest);
            outer.finalize()
        }
    }

    pub fn hmac_sha256(key: &[u8], data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut mac = HmacSha256::new(key);
        mac.update(data);
        mac.finalize()
    }

    pub fn verify_tag(expected: &[u8; DIGEST_LEN], actual: &[u8; DIGEST_LEN]) -> bool {
        let mut diff = 0u8;
        for (a, b) in expected.iter().zip(actual.iter()) {
            diff |= a ^ b;
        }
        diff == 0
    }

    fn tag_input(source: u64, seq: u64, payload: &[u8]) -> Vec<u8> {
        let mut data = Vec::with_capacity(13 + 16 + payload.len());
        data.extend_from_slice(b"drum.msg.auth");
        data.extend_from_slice(&source.to_be_bytes());
        data.extend_from_slice(&seq.to_be_bytes());
        data.extend_from_slice(payload);
        data
    }

    /// The seed's `auth::verify` body, minus the store error plumbing.
    pub fn verify(key: &[u8], source: u64, seq: u64, payload: &[u8], tag: &[u8; 32]) -> bool {
        let expected = hmac_sha256(key, &tag_input(source, seq, payload));
        verify_tag(&expected, tag)
    }
}

/// One measured comparison.
struct Comparison {
    name: &'static str,
    seed_per_op: f64,
    current_per_op: f64,
    /// Gate floor on `seed_per_op / current_per_op`.
    floor: f64,
    /// What the seed/current columns count: `ns/op` for timed paths,
    /// `sys/dgram` (syscalls per datagram) for the syscall-batching
    /// benches.
    unit: &'static str,
}

impl Comparison {
    fn speedup(&self) -> f64 {
        self.seed_per_op / self.current_per_op
    }
}

/// Median ns/op of `routine`, batched so each sample spans a few ms.
fn measure_ns<R>(samples: usize, mut routine: impl FnMut() -> R) -> f64 {
    // Calibrate the batch size on a throwaway run.
    let mut batch = 1u64;
    let per_iter = loop {
        let start = Instant::now();
        for _ in 0..batch {
            std::hint::black_box(routine());
        }
        let elapsed = start.elapsed();
        if elapsed >= Duration::from_micros(500) || batch >= 1 << 22 {
            break elapsed.as_secs_f64() / batch as f64;
        }
        batch *= 2;
    };
    let per_sample = ((4e-3 / per_iter.max(1e-12)) as u64).clamp(1, 1 << 22);
    let mut sample_ns: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..per_sample {
                std::hint::black_box(routine());
            }
            start.elapsed().as_secs_f64() * 1e9 / per_sample as f64
        })
        .collect();
    sample_ns.sort_by(f64::total_cmp);
    sample_ns[sample_ns.len() / 2]
}

fn bench_auth_verify(samples: usize) -> Comparison {
    let store = KeyStore::new(7);
    let key = store.register(1);
    // Small payload: the regime where per-message setup dominated. This is
    // also the adversary's cheapest amplification (fabricated messages are
    // minimal; the victim pays the fixed verify cost regardless).
    let payload = [0x5Au8; 16];
    let tag = auth::sign(&key, 1, 42, &payload);

    let seed_per_op = measure_ns(samples, || {
        let key = store.key_of(1).unwrap();
        assert!(seed::verify(key.as_bytes(), 1, 42, &payload, &tag.0));
    });
    let current_per_op = measure_ns(samples, || {
        auth::verify(&store, 1, 42, &payload, &tag).unwrap();
    });
    Comparison {
        name: "auth_verify_small",
        seed_per_op,
        current_per_op,
        floor: 3.0,
        unit: "ns/op",
    }
}

const FANOUT: usize = 8;

fn bench_encode_fanout(samples: usize) -> Comparison {
    let store = KeyStore::new(7);
    let key = store.register(1);
    let messages: Vec<DataMessage> = (0..4)
        .map(|seq| {
            DataMessage::sign_new(
                &key,
                MessageId::new(ProcessId(1), seq),
                Bytes::from(vec![0xA5u8; 64]),
            )
        })
        .collect();
    let msg = GossipMessage::PushData {
        from: ProcessId(1),
        messages,
    };

    // Seed `send_out`: a fresh encode (allocation + serialization) per
    // recipient of the same fanned-out message.
    let seed_per_op = measure_ns(samples, || {
        for _ in 0..FANOUT {
            std::hint::black_box(drum_net::codec::encode(&msg));
        }
    });
    // Current `send_out`: encode once into reused scratch, then address
    // each recipient from the same bytes.
    let mut scratch = BytesMut::with_capacity(drum_net::codec::MAX_WIRE_LEN);
    let current_per_op = measure_ns(samples, || {
        drum_net::codec::encode_into(&msg, &mut scratch);
        for _ in 0..FANOUT {
            std::hint::black_box(&scratch[..]);
        }
    });
    Comparison {
        name: "encode_fanout_x8",
        seed_per_op,
        current_per_op,
        floor: 2.0,
        unit: "ns/op",
    }
}

const SIM_ROUNDS: u32 = 30;

fn bench_sim_round(samples: usize) -> Comparison {
    let mut cfg = SimConfig::paper_attack(ProtocolVariant::Drum, 1000, 64.0);
    cfg.attack.as_mut().unwrap().rotate_every = Some(2);
    let n = cfg.n;

    // The runner queries occupancy three ways every round to decide
    // termination (`correct_with_m`, `attacked_with_m`, `unattacked_with_m`
    // — see runner.rs). In the seed each accessor was a fresh O(n) scan,
    // and `unattacked_with_m` was two; replicate those four scans here.
    let seed_queries = |cfg: &SimConfig, state: &SimState| {
        let correct_scan = |state: &SimState| {
            (0..n)
                .filter(|&i| {
                    matches!(cfg.role_of(i), Role::AttackedCorrect | Role::Correct)
                        && state.has_m(i)
                })
                .count()
        };
        let attacked_scan = |state: &SimState| {
            (0..n)
                .filter(|&i| state.is_attacked(i) && state.has_m(i))
                .count()
        };
        let correct = correct_scan(state);
        let attacked = attacked_scan(state);
        let unattacked = correct_scan(state) - attacked_scan(state);
        (correct, attacked, unattacked)
    };

    let cfg_seed = cfg.clone();
    let seed_per_op = measure_ns(samples, || {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut state = SimState::new(cfg_seed.clone());
        for _ in 0..SIM_ROUNDS {
            state.step(&mut rng);
            std::hint::black_box(seed_queries(&cfg_seed, &state));
        }
    }) / f64::from(SIM_ROUNDS);
    // Current: step + the O(1) incremental counters behind the same three
    // accessors.
    let cfg_cur = cfg.clone();
    let current_per_op = measure_ns(samples, || {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut state = SimState::new(cfg_cur.clone());
        for _ in 0..SIM_ROUNDS {
            state.step(&mut rng);
            std::hint::black_box((
                state.correct_with_m(),
                state.attacked_with_m(),
                state.unattacked_with_m(),
            ));
        }
    }) / f64::from(SIM_ROUNDS);
    Comparison {
        name: "sim_round_n1000_attacked",
        seed_per_op,
        current_per_op,
        // Both arms pay the same `step`, so the gate only sees the query
        // delta on top of it. Packing `has_m` into a word bitset made the
        // seed-style O(n) scans cheaper too (they now read the packed
        // words), narrowing the measured ratio to ~1.1; the floor leaves
        // noise headroom for the 7-sample --quick runs.
        floor: 1.02,
        unit: "ns/op",
    }
}

/// A minimal fabricated pull-request on the wire — the adversary's
/// cheapest flood datagram, and thus the recv path's worst case.
fn flood_wire() -> Vec<u8> {
    drum_net::codec::encode(&GossipMessage::PullRequest {
        from: ProcessId(0xDEAD),
        digest: Digest::new(),
        reply_port: PortRef::Plain(1),
        nonce: 7,
    })
    .to_vec()
}

/// Datagrams per measured flood; refilled in waves of `WAVE` so the
/// receive queue never outgrows the socket buffer.
const FLOOD: usize = 1024;
const WAVE: usize = 64;

/// Floods `FLOOD` datagrams at `rx`'s socket in waves and returns the
/// receive syscalls `rx` spent draining them (its own instrumentation —
/// the same counter the runtime exports as `net.syscalls_recv`). The
/// refill goes through one batched sender in both arms so only the drain
/// strategy differs.
fn drain_flood_syscalls(rx: &mut drum_net::BatchRx, wire: &[u8]) -> f64 {
    use drum_net::transport::bind_ephemeral;
    use drum_net::BatchTx;

    let sender = bind_ephemeral().expect("bind sender");
    let receiver = bind_ephemeral().expect("bind receiver");
    let dest = receiver.local_addr().expect("receiver addr");
    let mut tx = BatchTx::forced(true);
    let mut scratch = vec![0u8; 2048];

    let before = rx.syscalls();
    for _ in 0..FLOOD / WAVE {
        for _ in 0..WAVE {
            tx.push(&sender, dest, wire, true);
        }
        let sent = tx.finish(&sender) as usize;
        let mut got = 0usize;
        let mut spins = 0u32;
        while got < sent && spins < 1_000_000 {
            let n = rx.drain_socket(&receiver, &mut scratch, |b| {
                std::hint::black_box(b);
            });
            got += n;
            if n == 0 {
                spins += 1;
            }
        }
    }
    (rx.syscalls() - before) as f64
}

fn bench_recv_drain(_samples: usize) -> Comparison {
    use drum_net::BatchRx;

    let wire = flood_wire();
    // Seed drain: the per-datagram `recv_from` loop (one syscall per
    // datagram plus the final WouldBlock probe), exactly the seed
    // revision's `SocketPool::drain`/`drain_attackable` — preserved
    // in-tree as the BatchRx fallback.
    let mut rx_seed = BatchRx::forced(2048, false);
    let seed_per_op = drain_flood_syscalls(&mut rx_seed, &wire) / FLOOD as f64;
    // Current drain: `recvmmsg` in `sys::BATCH`-sized waves.
    let mut rx_cur = BatchRx::forced(2048, true);
    let current_per_op = drain_flood_syscalls(&mut rx_cur, &wire) / FLOOD as f64;

    Comparison {
        name: "recv_drain_flood_1024",
        seed_per_op,
        current_per_op,
        floor: 2.0,
        unit: "sys/dgram",
    }
}

const SEND_FANOUT: usize = 64;

fn bench_send_fanout(_samples: usize) -> Comparison {
    use drum_net::transport::bind_ephemeral;
    use drum_net::{BatchRx, BatchTx};

    let wire = flood_wire();
    let sender = bind_ephemeral().expect("bind sender");
    let receiver = bind_ephemeral().expect("bind receiver");
    let dest = receiver.local_addr().expect("receiver addr");
    // Both arms empty the receive queue through the same (uncounted)
    // batched drain so the socket buffer never overflows.
    let mut rx = BatchRx::forced(2048, true);
    let mut scratch = vec![0u8; 2048];
    // Repeat the fan-out enough times for a stable per-datagram figure.
    const REPS: usize = 16;

    let mut run = |tx: &mut BatchTx| -> f64 {
        let before = tx.syscalls();
        for _ in 0..REPS {
            for _ in 0..SEND_FANOUT {
                // The encode-once repeat hint: same bytes, k recipients.
                tx.push(&sender, dest, &wire, true);
            }
            let sent = tx.finish(&sender) as usize;
            let mut got = 0usize;
            let mut spins = 0u32;
            while got < sent && spins < 1_000_000 {
                let n = rx.drain_socket(&receiver, &mut scratch, |b| {
                    std::hint::black_box(b);
                });
                got += n;
                if n == 0 {
                    spins += 1;
                }
            }
        }
        (tx.syscalls() - before) as f64 / (REPS * SEND_FANOUT) as f64
    };

    // Seed fan-out: one `send_to` syscall per recipient (the in-tree
    // fallback, which is the seed revision's send path).
    let mut tx_seed = BatchTx::forced(false);
    let seed_per_op = run(&mut tx_seed);
    // Current fan-out: one `sendmmsg` per `sys::BATCH` recipients.
    let mut tx_cur = BatchTx::forced(true);
    let current_per_op = run(&mut tx_cur);

    Comparison {
        name: "send_fanout_mmsg",
        seed_per_op,
        current_per_op,
        floor: 2.0,
        unit: "sys/dgram",
    }
}

/// Engines in the shard-dispatch comparison. Fixed so the modeled wakeup
/// counts are identical on every machine.
const SHARD_ENGINES: usize = 256;

/// Wakeups-per-engine cost of observing 256 simultaneously readable
/// engine sockets: per-engine epoll instances (the thread-per-process
/// shape) vs one shared tagged epoll (the shard event loop).
fn bench_shard_dispatch(_samples: usize) -> Comparison {
    use drum_net::runtime::{pack_token, unpack_token};
    use drum_net::sys::Epoll;
    use drum_net::transport::bind_ephemeral;
    use drum_net::ChannelClass;

    let sockets: Vec<_> = (0..SHARD_ENGINES)
        .map(|_| bind_ephemeral().expect("bind engine socket"))
        .collect();
    let sender = bind_ephemeral().expect("bind sender");
    for s in &sockets {
        let dest = s.local_addr().expect("engine addr");
        while sender.send_to(b"wake", dest).is_err() {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    // Seed arm: one epoll per engine. Level-triggered readiness is
    // observed without consuming the datagrams, so the current arm sees
    // the identical kernel state. E ready engines cost E wakeups — the
    // structural constant this bench pins down.
    let mut seed_wakeups = 0u64;
    let mut tokens: Vec<u64> = Vec::new();
    for s in &sockets {
        let ep = Epoll::new().expect("per-engine epoll");
        ep.add(s).expect("register engine socket");
        while ep
            .wait_tagged(Duration::from_secs(1), &mut tokens)
            .expect("epoll wait")
            == 0
        {}
        seed_wakeups += 1;
    }

    // Current arm: every socket registered with one shard epoll under an
    // engine-index token; drain each reported engine before the next
    // wait so level-triggered readiness retires.
    let shared = Epoll::new().expect("shard epoll");
    for (i, s) in sockets.iter().enumerate() {
        shared
            .add_tagged(s, pack_token(i, ChannelClass::WkPull))
            .expect("register tagged");
    }
    let mut served = vec![false; SHARD_ENGINES];
    let mut remaining = SHARD_ENGINES;
    let mut shard_wakeups = 0u64;
    let mut buf = [0u8; 64];
    while remaining > 0 {
        while shared
            .wait_tagged(Duration::from_secs(1), &mut tokens)
            .expect("epoll wait")
            == 0
        {}
        shard_wakeups += 1;
        for &t in &tokens {
            let (engine, _) = unpack_token(t);
            while sockets[engine].recv_from(&mut buf).is_ok() {}
            if !served[engine] {
                served[engine] = true;
                remaining -= 1;
            }
        }
    }

    Comparison {
        name: "shard_dispatch_256e",
        seed_per_op: seed_wakeups as f64 / SHARD_ENGINES as f64,
        current_per_op: shard_wakeups as f64 / SHARD_ENGINES as f64,
        // The shard's 64-event buffer makes the expected ratio 64x; the
        // floor only guards the mechanism (shared epoll actually
        // aggregates), not the exact buffer size.
        floor: 2.0,
        unit: "wakeups/engine",
    }
}

/// Datagrams in the identical-fan-in MAC flood; fixed so the gated ratio
/// is the same exact constant on every machine.
const MAC_FLOOD: usize = 512;
/// Distinct `(source, seq, tag)` triples in that flood — the replay
/// adversary's corpus size.
const MAC_UNIQUE: usize = 8;

/// Full-HMAC verifications per datagram under an identical-fan-in flood —
/// the quantity batched verification exists to shrink (DESIGN.md §17).
///
/// The flood is the replay adversary's wire pattern: `MAC_UNIQUE` captured
/// authentic datagrams resent round-robin until `MAC_FLOOD` copies have
/// arrived within one victim round. The seed arm is the per-datagram path
/// (one HMAC per copy, by construction of `auth::verify`); the current arm
/// is the round-scoped [`drum_crypto::batch::BatchVerifier`], whose own
/// `full_verifies` counter reports the exact HMAC count. Both arms accept
/// every datagram — the equivalence tests pin that — so the comparison is
/// purely HMACs/datagram: exact, machine-independent, and gated.
fn bench_mac_verify_flood(_samples: usize) -> Comparison {
    use drum_crypto::batch::BatchVerifier;

    let store = KeyStore::new(7);
    let key = store.register(1);
    let corpus: Vec<(u64, Vec<u8>, auth::AuthTag)> = (0..MAC_UNIQUE as u64)
        .map(|seq| {
            let payload = vec![0x5Au8; 16];
            let tag = auth::sign(&key, 1, seq, &payload);
            (seq, payload, tag)
        })
        .collect();

    // Seed arm: the per-datagram path pays one full HMAC per copy.
    let mut seed_verifies = 0u64;
    for i in 0..MAC_FLOOD {
        let (seq, payload, tag) = &corpus[i % MAC_UNIQUE];
        auth::verify(&store, 1, *seq, payload, tag).expect("authentic datagram");
        seed_verifies += 1;
    }

    // Current arm: one round's BatchVerifier over the same flood.
    let mut bv = BatchVerifier::new();
    bv.begin_round();
    for i in 0..MAC_FLOOD {
        let (seq, payload, tag) = &corpus[i % MAC_UNIQUE];
        bv.verify(&store, 1, *seq, payload, tag)
            .expect("authentic datagram");
    }

    Comparison {
        name: "mac_verify_flood_512",
        seed_per_op: seed_verifies as f64 / MAC_FLOOD as f64,
        current_per_op: bv.full_verifies() as f64 / MAC_FLOOD as f64,
        // Expected exactly MAC_FLOOD / MAC_UNIQUE = 64x; the floor guards
        // the mechanism (the cache actually collapses fan-in), not the
        // corpus size.
        floor: 2.0,
        unit: "verifies/dgram",
    }
}

/// Datagrams in the multiway-kernel flood. Every one is unique so no
/// replay caching applies and both arms compute all 512 HMACs; only the
/// kernel batching differs.
const MWAY_FLOOD: usize = 512;

/// SHA-256 compressions per 64-byte block of MAC work under a unique-
/// datagram verification flood — the quantity the 8-lane multi-buffer
/// kernel divides by its lane width (DESIGN.md §20).
///
/// Each datagram carries a 16-byte payload, so its domain-tagged MAC
/// message is 45 bytes: one padded inner tail block plus one outer block
/// per HMAC (the ipad/opad midstates are precomputed in the key
/// schedule), 1024 blocks across the flood in both arms. The scalar arm
/// pays one kernel call per block (1.0 calls/block, the seed shape); the
/// multiway arm retires eight blocks per call (0.125). Both counts come
/// from the engine's own [`drum_crypto::multiway::LaneStats`], so the
/// gated ratio is exact and machine-independent wherever the 8-lane path
/// exists; like the syscall benches it is skipped where it doesn't
/// (including under `DRUM_CRYPTO_NO_SIMD=1`). The lane arm is the forced
/// [`drum_crypto::MultiMac::lanes`] engine: it pins the kernel mechanism
/// even on SHA-NI hosts, where product dispatch (`simd_preferred`)
/// deliberately stays on the faster single-block unit and the printed
/// wall clock will favour the scalar arm. Wall clock is informational
/// either way; lane fill is hard-asserted at ≥ 7/8.
fn bench_mac_multiway_flood(samples: usize) -> Option<Comparison> {
    use drum_crypto::multiway::{simd_available, simd_enabled, simd_preferred, MultiMac};

    if !simd_available() || !simd_enabled() {
        println!(
            "  (skipping mac_multiway_flood_512: 8-lane SHA-256 path unavailable or disabled)"
        );
        return None;
    }

    let store = KeyStore::new(7);
    let keys: Vec<_> = (0..8u64).map(|s| store.register(s)).collect();
    let hmac_keys: Vec<_> = keys.iter().map(|k| k.hmac_key()).collect();
    let payloads: Vec<Vec<u8>> = (0..MWAY_FLOOD).map(|i| vec![i as u8; 16]).collect();
    let jobs: Vec<_> = (0..MWAY_FLOOD)
        .map(|i| auth::msg_job(&hmac_keys[i % 8], (i % 8) as u64, i as u64, &payloads[i]))
        .collect();
    // 45-byte MAC messages: one inner tail block + one outer block each.
    let blocks = (2 * MWAY_FLOOD) as f64;

    let mut scalar = MultiMac::scalar();
    let scalar_tags: Vec<[u8; 32]> = scalar.mac_many(&jobs).to_vec();
    let scalar_stats = scalar.take_stats();
    let scalar_ns = measure_ns(samples, || {
        std::hint::black_box(scalar.mac_many(&jobs).len());
    }) / MWAY_FLOOD as f64;

    let mut simd = MultiMac::lanes();
    let simd_tags: Vec<[u8; 32]> = simd.mac_many(&jobs).to_vec();
    let simd_stats = simd.take_stats();
    let simd_ns = measure_ns(samples, || {
        std::hint::black_box(simd.mac_many(&jobs).len());
    }) / MWAY_FLOOD as f64;

    // The ablation invariant the equivalence tests pin cluster-wide, held
    // here at the kernel boundary: identical tags, identical lane totals.
    assert_eq!(
        scalar_tags, simd_tags,
        "multiway lane transposition changed a MAC tag"
    );
    for (i, tags) in scalar_tags.iter().enumerate() {
        assert_eq!(
            *tags,
            auth::sign(&keys[i % 8], (i % 8) as u64, i as u64, &payloads[i]).0,
            "multiway MAC diverged from the one-at-a-time signer"
        );
    }
    assert_eq!(scalar_stats.lanes_filled as f64, blocks);
    assert_eq!(simd_stats.lanes_filled as f64, blocks);
    assert!(
        simd_stats.fill_ratio() >= 7.0 / 8.0,
        "uniform 512-datagram flood must fill ≥ 7/8 of SIMD lanes, got {:.3}",
        simd_stats.fill_ratio()
    );
    println!(
        "  mac_multiway_flood_512: lane fill {:.3}, wall {:.1} -> {:.1} ns/MAC \
         (dispatch prefers {})",
        simd_stats.fill_ratio(),
        scalar_ns,
        simd_ns,
        if simd_preferred() {
            "the 8-lane kernel"
        } else {
            "single-block hardware"
        }
    );

    Some(Comparison {
        name: "mac_multiway_flood_512",
        seed_per_op: scalar_stats.compress_calls as f64 / blocks,
        current_per_op: simd_stats.compress_calls as f64 / blocks,
        // Expected exactly LANES = 8x; the floor guards the mechanism
        // (blocks actually coalesce into multi-lane calls), not the
        // exact lane width.
        floor: 4.0,
        unit: "compress-calls/block",
    })
}

/// Data-plane messages in flight to one partner in the frame benches —
/// the ISSUE's sustained-stream regime. Fixed so the modeled pack and
/// HMAC ratios are exact constants on every machine.
const STREAM_MSGS: usize = 64;

/// Builds the 64-messages-in-flight stream: one `PushData` per data
/// message (the unpacked path's wire shape), 32-byte payloads, all bound
/// for the same partner.
fn stream_outs(key: &drum_crypto::keys::SecretKey) -> Vec<GossipMessage> {
    (0..STREAM_MSGS as u64)
        .map(|seq| GossipMessage::PushData {
            from: ProcessId(1),
            messages: vec![DataMessage::sign_new(
                key,
                MessageId::new(ProcessId(1), seq),
                Bytes::from(vec![0x5Au8; 32]),
            )],
        })
        .collect()
}

/// MTU packing and per-message authentication under a 64-message burst to
/// one partner — the sustained multi-message hot path (DESIGN.md §19).
///
/// * `frame_pack_fanout` — datagrams per data-plane message: seed = one
///   datagram per message (the unpacked wire path, preserved in-tree
///   behind `DRUM_NET_NO_PACK=1`); current = greedy MTU fill through the
///   real [`drum_net::FrameBuilder`]. Exact: the frame count is a pure
///   function of the message sizes and `FRAME_BUDGET`.
/// * `mac_per_msg_stream` — HMAC computations per data message on the
///   receive path: seed = one verify per message; current = one frame-tag
///   verify per frame (the inner messages ride pre-verified behind it),
///   counted by the `BatchVerifier`'s own `full_verifies`, like
///   `mac_verify_flood_512`. Both arms accept every message — the
///   pack-equivalence test pins that — so the comparison is purely
///   HMACs/message: exact, machine-independent, and gated.
fn bench_frame_stream(_samples: usize) -> Vec<Comparison> {
    use drum_crypto::batch::BatchVerifier;
    use drum_net::codec::{decode_frame, frame_signed_body, FrameBuilder, MAX_WIRE_LEN};

    let store = KeyStore::new(7);
    let key = store.register(1);
    let auth_key = key.hmac_key();
    let outs = stream_outs(&key);

    // Current wire: greedy MTU fill, one signed frame per flush.
    let mut builder = FrameBuilder::new();
    let mut frames: Vec<Vec<u8>> = Vec::new();
    let mut wire = BytesMut::with_capacity(MAX_WIRE_LEN);
    let mut packed = 0usize;
    let flush =
        |builder: &mut FrameBuilder, wire: &mut BytesMut, frames: &mut Vec<Vec<u8>>| -> usize {
            let nonce = frames.len() as u64;
            let n = builder.finish_into(
                ProcessId(1),
                nonce,
                |body| auth::sign_frame_with(&auth_key, 1, nonce, body),
                wire,
            );
            frames.push(wire[..].to_vec());
            n
        };
    for msg in &outs {
        if !builder.push(msg) {
            packed += flush(&mut builder, &mut wire, &mut frames);
            assert!(
                builder.push(msg),
                "an empty builder must accept any data message"
            );
        }
    }
    packed += flush(&mut builder, &mut wire, &mut frames);
    assert_eq!(packed, STREAM_MSGS, "every message must be framed");

    // Receive path: one frame-tag verify per frame via the round-scoped
    // BatchVerifier; the inner data messages skip per-message MACs.
    let mut bv = BatchVerifier::new();
    bv.begin_round();
    let mut inner = 0usize;
    for f in &frames {
        let frame = decode_frame(f).expect("self-built frame");
        let body = frame_signed_body(f).expect("framed datagram");
        bv.verify_frame(&store, 1, frame.nonce, body, &frame.auth)
            .expect("authentic frame");
        inner += frame.messages.len();
    }
    assert_eq!(inner, STREAM_MSGS, "frames must carry every message");
    let frame_hmacs = bv.full_verifies();

    // Seed arm: one datagram and one per-message HMAC per data message.
    let mut seed_hmacs = 0u64;
    for (seq, msg) in outs.iter().enumerate() {
        let GossipMessage::PushData { messages, .. } = msg else {
            unreachable!("stream_outs builds PushData only")
        };
        for m in messages {
            auth::verify(&store, 1, seq as u64, &m.payload, &m.auth).expect("authentic message");
            seed_hmacs += 1;
        }
    }

    vec![
        Comparison {
            name: "frame_pack_fanout",
            seed_per_op: outs.len() as f64 / STREAM_MSGS as f64,
            current_per_op: frames.len() as f64 / STREAM_MSGS as f64,
            floor: 8.0,
            unit: "dgrams/msg",
        },
        Comparison {
            name: "mac_per_msg_stream",
            seed_per_op: seed_hmacs as f64 / STREAM_MSGS as f64,
            current_per_op: frame_hmacs as f64 / STREAM_MSGS as f64,
            floor: 8.0,
            unit: "hmacs/msg",
        },
    ]
}

/// Steady-state buffer-round parameters: arrivals per round, retention
/// age (§8.2's 10 rounds), seen window, and per-partner selection cap
/// (§8.2's 80). Fixed so both arms do identical protocol work.
const BUF_PER_ROUND: usize = 64;
const BUF_MAX_AGE: u64 = 10;
const BUF_SEEN_WINDOW: u64 = 40;
const BUF_SELECT: usize = 80;

/// One steady-state buffer round — insert the round's arrivals, purge,
/// age the survivors, select a partner's missing set — the seed layout vs
/// the age-bucketed ring (DESIGN.md §19).
///
/// The seed arm is the seed revision's layout, frozen in structure: a
/// flat `HashMap` store whose purge is a full `retain` scan over every
/// buffered message and whose selection allocates a fresh result vector
/// per partner. The wall-clock ratio is reported ungated (floor 0) — it
/// tracks the host allocator and hash throughput — while the hard gates
/// are exact: a warmed-up ring round must perform ZERO heap allocations
/// (this binary's counting allocator; recycled buckets, reused index
/// capacity, reused selection scratch), and the `max_age = 0` path must
/// do no purge iteration work at all.
fn bench_buffer_purge(_samples: usize) -> Comparison {
    use drum_core::buffer::MessageBuffer;
    use drum_core::ids::Round;
    use std::collections::HashMap;

    const WARM: u64 = 60; // past the seen window: the ring is steady
    const MEASURED: u64 = 40;
    let total = WARM + MEASURED + 2;

    // Unique pre-built messages: payload allocation happens here, outside
    // the measured rounds; inserting a clone only bumps a refcount.
    let msgs: Vec<DataMessage> = (0..total * BUF_PER_ROUND as u64)
        .map(|seq| DataMessage {
            id: MessageId::new(ProcessId(1), seq),
            hops: 0,
            payload: Bytes::from(vec![0x5Au8; 32]),
            auth: auth::AuthTag::zero(),
        })
        .collect();
    let round_msgs = |r: u64| &msgs[(r as usize * BUF_PER_ROUND)..(r as usize + 1) * BUF_PER_ROUND];
    let their = Digest::new();

    // Seed arm: flat map, full-scan purge, fresh selection vector.
    let seed_per_op = {
        let mut map: HashMap<MessageId, (u64, DataMessage)> = HashMap::new();
        let mut rng = SmallRng::seed_from_u64(5);
        let run_round =
            |map: &mut HashMap<MessageId, (u64, DataMessage)>, rng: &mut SmallRng, r: u64| {
                for m in round_msgs(r) {
                    map.insert(m.id, (r, m.clone()));
                }
                map.retain(|_, (inserted, _)| r.saturating_sub(*inserted) < BUF_MAX_AGE);
                for (_, m) in map.values_mut() {
                    m.hops = m.hops.saturating_add(1);
                }
                // The same reservoir selection the ring performs, into a
                // fresh vector (the seed's per-partner allocation).
                let mut out: Vec<DataMessage> = Vec::new();
                let mut candidates = 0usize;
                for (_, m) in map.values() {
                    if their.contains(m.id) {
                        continue;
                    }
                    if candidates < BUF_SELECT {
                        out.push(m.clone());
                    } else {
                        let j = rng.random_range(0..=candidates);
                        if j < BUF_SELECT {
                            out[j] = m.clone();
                        }
                    }
                    candidates += 1;
                }
                std::hint::black_box(out.len());
            };
        for r in 0..WARM {
            run_round(&mut map, &mut rng, r);
        }
        let start = Instant::now();
        for r in WARM..WARM + MEASURED {
            run_round(&mut map, &mut rng, r);
        }
        start.elapsed().as_secs_f64() * 1e9 / MEASURED as f64
    };

    // Current arm: the age-bucketed ring with a windowed seen digest.
    let current_per_op = {
        let mut buf = MessageBuffer::with_seen_window(BUF_MAX_AGE, BUF_SEEN_WINDOW);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut scratch: Vec<DataMessage> = Vec::new();
        let run_round = |buf: &mut MessageBuffer,
                         rng: &mut SmallRng,
                         scratch: &mut Vec<DataMessage>,
                         r: u64| {
            for m in round_msgs(r) {
                buf.insert(m.clone(), Round(r));
            }
            buf.purge(Round(r));
            buf.increment_hops();
            buf.select_missing_into(&their, BUF_SELECT, rng, scratch);
            std::hint::black_box(scratch.len());
        };
        for r in 0..WARM {
            run_round(&mut buf, &mut rng, &mut scratch, r);
        }

        // Hard gate: a warmed-up steady-state round allocates nothing.
        let before = alloc_count::total();
        for r in WARM..WARM + 2 {
            run_round(&mut buf, &mut rng, &mut scratch, r);
        }
        let allocs = alloc_count::total() - before;
        println!("  buffer_purge_steady: {allocs} heap allocations across 2 warmed-up rounds");
        assert_eq!(
            allocs, 0,
            "steady-state buffer round allocated {allocs} times; \
             ring buckets, index and selection scratch must be grow-once"
        );

        let start = Instant::now();
        for r in WARM + 2..WARM + 2 + MEASURED {
            run_round(&mut buf, &mut rng, &mut scratch, r);
        }
        start.elapsed().as_secs_f64() * 1e9 / MEASURED as f64
    };

    // The max_age = 0 ("never purge") fast path must early-return, not
    // scan-and-keep: zero messages visited no matter the buffer size.
    {
        let mut never = MessageBuffer::new(0);
        for (i, m) in msgs.iter().take(1_000).enumerate() {
            never.insert(m.clone(), Round(i as u64));
        }
        for r in 0..64u64 {
            assert_eq!(never.purge(Round(1_000_000 + r)), 0);
        }
        assert_eq!(
            never.purge_work(),
            0,
            "max_age = 0 purge did iteration work"
        );
    }

    Comparison {
        name: "buffer_purge_steady",
        seed_per_op,
        current_per_op,
        floor: 0.0,
        unit: "ns/round",
    }
}

/// Workers for the sweep-scheduling comparison. Fixed (not
/// `available_parallelism`) so the modeled spans are identical on every
/// machine.
const SWEEP_WORKERS: usize = 8;

/// The fig3a-style attacked sweep: cheap no-attack baselines next to
/// heavy-tailed attacked points (Pull under flood is geometric in the
/// source-escape round), the mix whose stragglers the seed scheduler
/// handles worst.
fn sweep_mix(xs: &[f64], n: usize) -> Vec<SimConfig> {
    xs.iter()
        .flat_map(|&x| {
            [
                ProtocolVariant::Drum,
                ProtocolVariant::Push,
                ProtocolVariant::Pull,
            ]
            .into_iter()
            .map(move |p| {
                if x == 0.0 {
                    SimConfig::baseline(p, n)
                } else {
                    SimConfig::paper_attack(p, n, x)
                }
            })
        })
        .collect()
}

/// The seed revision's sweep driver, frozen verbatim in structure: one
/// `std::thread::scope` per point with contiguous
/// `div_ceil(trials, workers)` chunks, joined before the next point
/// starts. (The seed's per-chunk stat merge is O(trials) float pushes —
/// noise next to the simulations — so each outcome is black-boxed
/// instead.)
fn seed_sweep(cfgs: &[SimConfig], trials: usize, base_seed: u64) {
    for cfg in cfgs {
        let workers = SWEEP_WORKERS.min(trials);
        let chunk = trials.div_ceil(workers);
        std::thread::scope(|scope| {
            for w in 0..workers {
                let lo = w * chunk;
                let hi = ((w + 1) * chunk).min(trials);
                if lo >= hi {
                    break;
                }
                let cfg = cfg.clone();
                scope.spawn(move || {
                    for i in lo..hi {
                        std::hint::black_box(run_trial(&cfg, base_seed + i as u64, 0));
                    }
                });
            }
        });
    }
}

/// The modeled scheduling comparison (exact, machine-independent) plus
/// the ungated wall-clock run of the same sweep.
///
/// The scenario is fixed in both quick and full mode: `run_trial` is
/// deterministic, so for a fixed (mix, trials, seed) the spans — and
/// therefore the gated ratios — are exact constants on every machine.
/// 12 trials per point is the CI smoke trial count, the regime where the
/// seed's per-point join barriers waste the most: `div_ceil(12, 8) = 2`
/// leaves two of eight workers idle through every point even before the
/// straggler chunk runs long.
fn bench_sweep_schedule(quick: bool) -> Vec<Comparison> {
    let trials = 12;
    let base_seed = 20040628;
    let cfgs = sweep_mix(&[0.0, 16.0, 32.0, 64.0, 96.0, 128.0], 120);

    // Deterministic per-trial costs in executed rounds — the same costs
    // both schedulers pay, measured once.
    let costs_per_cfg: Vec<Vec<u64>> = cfgs
        .iter()
        .map(|cfg| {
            (0..trials)
                .map(|i| u64::from(run_trial(cfg, base_seed + i as u64, 0).rounds_executed))
                .collect()
        })
        .collect();

    // Seed: the sweep takes the sum of per-point straggler chunks.
    let static_span: u64 = costs_per_cfg
        .iter()
        .map(|costs| schedule::static_point_makespan(costs, SWEEP_WORKERS))
        .sum();
    // Current: greedy list scheduling over the runner's flat chunk set.
    let chunk = chunk_size(trials);
    let flat_jobs: Vec<u64> = costs_per_cfg
        .iter()
        .flat_map(|costs| schedule::chunk_sums(costs, chunk))
        .collect();
    let dynamic_span = schedule::greedy_makespan(&flat_jobs, SWEEP_WORKERS);

    let jobs = flat_jobs.len() as f64;
    let static_idle = schedule::idle_time(static_span, SWEEP_WORKERS, &flat_jobs) as f64 / jobs;
    let dynamic_idle = schedule::idle_time(dynamic_span, SWEEP_WORKERS, &flat_jobs) as f64 / jobs;

    // Wall-clock, informational: a smaller mix so the measurement stays
    // in the milliseconds, executed for real by both schedulers.
    let wall_cfgs = sweep_mix(&[0.0, 64.0], 60);
    let wall_trials = if quick { 8 } else { 16 };
    let samples = if quick { 5 } else { 9 };
    let seed_wall = measure_ns(samples, || seed_sweep(&wall_cfgs, wall_trials, base_seed));
    let pool = Pool::new(SWEEP_WORKERS);
    let current_wall = measure_ns(samples, || {
        std::hint::black_box(run_many_on(&pool, &wall_cfgs, wall_trials, base_seed, 0));
    });

    vec![
        Comparison {
            name: "sweep_span_8w",
            seed_per_op: static_span as f64,
            current_per_op: dynamic_span as f64,
            floor: 1.5,
            unit: "rounds",
        },
        Comparison {
            name: "sweep_idle_per_job_8w",
            seed_per_op: static_idle,
            current_per_op: dynamic_idle,
            floor: 2.0,
            unit: "idle/job",
        },
        Comparison {
            name: "sweep_wall_clock",
            seed_per_op: seed_wall,
            current_per_op: current_wall,
            floor: 0.0,
            unit: "ns/sweep",
        },
    ]
}

/// Members in the sharded-stepper scenario: the tentpole scale, two
/// orders of magnitude past the paper's n = 1000 simulations.
const SIM_1M: usize = 1_000_000;

/// The million-member flood scenario (the `ext_scale` figure's heaviest
/// point): Drum, alpha = 0.1, x = 72 — the Figure 7 setting.
fn sim_1m_cfg() -> SimConfig {
    SimConfig::attack_alpha(ProtocolVariant::Drum, SIM_1M, 0.1, 72.0)
}

/// Modeled shard/merge metrics of one sharded round at n = 10^6 — pure
/// functions of `(n, auto_shards(n))`, so they are the same exact
/// constants in --quick and full mode and on every machine (bench_diff
/// compares them across runs).
///
/// * `sim_shard_balance_1m` — sender work per shard is proportional to
///   its contiguous range, so the split efficiency is
///   `n / (shards * max_range)`: 1.0 means no shard waits on a longer
///   neighbour. `shard_range` differs by at most one process, so the
///   gate pins near-perfect balance.
/// * `sim_merge_ops_1m` — the serial merge word-ops per round that grow
///   with the shard count: OR-ing each shard's `new_m` fragment
///   (`shards * ceil(n/64)` word ops) plus the per-shard fake-counter
///   sums. Gated against a budget of one op per member per round: the
///   floor proves the `auto_shards` cap keeps the shard-count-dependent
///   serial section at O(n/4) word ops, so adding shards can't push the
///   merge toward an O(n)-per-shard rescan. (The CSR pull-request merge
///   is shard-count-independent — O(requests) total regardless of the
///   split — so it belongs to the wall-clock comparison, not this gate.)
fn bench_sim_sharded_model() -> Vec<Comparison> {
    let shards = auto_shards(SIM_1M);
    let max_range = (0..shards)
        .map(|s| {
            let (lo, hi) = shard_range(SIM_1M, shards, s);
            hi - lo
        })
        .max()
        .expect("at least one shard");
    let merge_ops = shards * SIM_1M.div_ceil(64) + 2 * shards;

    vec![
        Comparison {
            name: "sim_shard_balance_1m",
            seed_per_op: SIM_1M as f64,
            current_per_op: (shards * max_range) as f64,
            floor: 0.99,
            unit: "split",
        },
        Comparison {
            name: "sim_merge_ops_1m",
            seed_per_op: SIM_1M as f64,
            current_per_op: merge_ops as f64,
            floor: 2.0,
            unit: "merge-ops",
        },
    ]
}

/// One million-member round: serial stepper vs sharded stepper, plus the
/// zero-allocation assertion.
///
/// The wall-clock ratio is reported ungated (floor 0): it tracks the host
/// core count, which CI runners don't guarantee. The allocation check is
/// the hard gate — measured on a 1-thread pool, whose inline `Pool::run`
/// path allocates nothing itself, so the counter sees exactly the
/// stepper's own behaviour: after the first round has sized the
/// grow-once scratch, a round at n = 10^6 must perform ZERO heap
/// allocations. (On a multi-thread pool the only per-round allocations
/// are the pool's own batch handles — O(1) per `Pool::run`, not O(n).)
fn bench_sim_round_sharded_1m(quick: bool) -> Comparison {
    let cfg = sim_1m_cfg();
    let shards = auto_shards(SIM_1M);
    let rounds = if quick { 2u32 } else { 4 };

    // Serial arm: the seed stepper at the same scale.
    let serial_per_round = {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut state = SimState::new(cfg.clone());
        state.step(&mut rng); // size the serial scratch
        let start = Instant::now();
        for _ in 0..rounds {
            state.step(&mut rng);
        }
        start.elapsed().as_secs_f64() * 1e9 / f64::from(rounds)
    };

    // Sharded arm on the global pool: the headline wall-clock number.
    let sharded_per_round = {
        let pool = Pool::global();
        let mut state = SimState::new(cfg.clone());
        state.step_sharded(11, shards, pool);
        let start = Instant::now();
        for r in 0..rounds {
            state.step_sharded(11 + u64::from(r), shards, pool);
        }
        start.elapsed().as_secs_f64() * 1e9 / f64::from(rounds)
    };

    // Allocation gate on the inline pool.
    {
        let pool = Pool::new(1);
        let mut state = SimState::new(cfg);
        state.step_sharded(11, shards, &pool);
        let before = alloc_count::total();
        state.step_sharded(12, shards, &pool);
        state.step_sharded(13, shards, &pool);
        let allocs = alloc_count::total() - before;
        println!("  sim_round_sharded_1m: {allocs} heap allocations across 2 warmed-up rounds");
        assert_eq!(
            allocs, 0,
            "sharded stepper allocated {allocs} times in warmed-up rounds; \
             per-round scratch must be grow-once"
        );
    }

    Comparison {
        name: "sim_round_sharded_1m",
        seed_per_op: serial_per_round,
        current_per_op: sharded_per_round,
        floor: 0.0,
        unit: "ns/round",
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let gate = !args.iter().any(|a| a == "--no-gate");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_hotpath.json".to_string());
    // `--only a,b`: run just the named benches (exact names as printed/
    // emitted). Lets verify.sh smoke the exact-count gates without paying
    // for the timed ones.
    let only: Option<Vec<String>> = args
        .iter()
        .position(|a| a == "--only")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.split(',').map(str::to_string).collect());
    let want = |name: &str| only.as_ref().is_none_or(|o| o.iter().any(|n| n == name));
    let samples = if quick { 7 } else { 21 };

    println!("=== hot-path benchmarks (seed baseline vs current) ===");
    println!(
        "mode: {} | out: {out_path}\n",
        if quick { "quick" } else { "full" }
    );

    let mut results = Vec::new();
    if want("auth_verify_small") {
        results.push(bench_auth_verify(samples));
    }
    if want("encode_fanout_x8") {
        results.push(bench_encode_fanout(samples));
    }
    if want("sim_round_n1000_attacked") {
        results.push(bench_sim_round(samples));
    }
    if ["sim_shard_balance_1m", "sim_merge_ops_1m"]
        .iter()
        .any(|n| want(n))
    {
        results.extend(
            bench_sim_sharded_model()
                .into_iter()
                .filter(|c| want(c.name)),
        );
    }
    if want("sim_round_sharded_1m") {
        results.push(bench_sim_round_sharded_1m(quick));
    }
    if want("mac_verify_flood_512") {
        results.push(bench_mac_verify_flood(samples));
    }
    if want("mac_multiway_flood_512") {
        results.extend(bench_mac_multiway_flood(samples));
    }
    if ["frame_pack_fanout", "mac_per_msg_stream"]
        .iter()
        .any(|n| want(n))
    {
        results.extend(
            bench_frame_stream(samples)
                .into_iter()
                .filter(|c| want(c.name)),
        );
    }
    if want("buffer_purge_steady") {
        results.push(bench_buffer_purge(samples));
    }
    if ["sweep_span_8w", "sweep_idle_per_job_8w", "sweep_wall_clock"]
        .iter()
        .any(|n| want(n))
    {
        results.extend(
            bench_sweep_schedule(quick)
                .into_iter()
                .filter(|c| want(c.name)),
        );
    }
    if drum_net::sys::available() {
        if want("recv_drain_flood_1024") {
            results.push(bench_recv_drain(samples));
        }
        if want("send_fanout_mmsg") {
            results.push(bench_send_fanout(samples));
        }
        if want("shard_dispatch_256e") {
            results.push(bench_shard_dispatch(samples));
        }
    } else {
        println!(
            "  (skipping syscall-batching benches: no recvmmsg/sendmmsg fast path on this target)"
        );
    }
    if results.is_empty() {
        eprintln!("--only matched no benchmarks");
        std::process::exit(2);
    }

    println!(
        "  {:<24} {:>12} {:>12} {:>10} {:>9}  gate",
        "benchmark", "seed", "now", "unit", "speedup"
    );
    let mut failed = Vec::new();
    for r in &results {
        let ok = r.speedup() >= r.floor;
        println!(
            "  {:<24} {:>12.4} {:>12.4} {:>10} {:>8.2}x  {}",
            r.name,
            r.seed_per_op,
            r.current_per_op,
            r.unit,
            r.speedup(),
            if ok {
                "ok".to_string()
            } else {
                format!("FAIL (< {:.2}x)", r.floor)
            }
        );
        if !ok {
            failed.push(r.name);
        }
    }

    let json = Json::Obj(vec![
        ("bench".into(), Json::Str("hotpath".into())),
        (
            "mode".into(),
            Json::Str(if quick { "quick" } else { "full" }.into()),
        ),
        (
            "results".into(),
            Json::Arr(
                results
                    .iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("name".into(), Json::Str(r.name.into())),
                            ("seed_per_op".into(), Json::num(r.seed_per_op)),
                            ("current_per_op".into(), Json::num(r.current_per_op)),
                            ("unit".into(), Json::Str(r.unit.into())),
                            ("speedup".into(), Json::num(r.speedup())),
                            ("gate_floor".into(), Json::num(r.floor)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(&out_path, format!("{json}\n")).expect("write bench json");
    println!("\nwrote {out_path}");

    if gate && !failed.is_empty() {
        eprintln!("bench gate FAILED: {failed:?}");
        std::process::exit(1);
    }
}
