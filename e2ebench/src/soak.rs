//! `soak_live`: a real-time `Cluster` on `nproc` shards with jittered
//! rounds, a paced source and the x = 360 flood on for the middle third
//! of the run (calm → flood → recovery). The benchmark drives it through
//! `Cluster`'s public API from its own open-loop publisher, so it can
//! read the shard threads' CPU time before shutdown.

use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use drum_core::config::ProtocolVariant;
use drum_core::stream::StreamConfig;
use drum_net::experiment::{decode_payload, paper_cluster_config, Cluster, ClusterConfig};
use drum_net::FloodStrategy;
use drum_trace::{names, Registry, Tracer};

use crate::host;
use crate::layers::NetTotals;
use crate::report::{latency_metrics, trace_metrics, write_spans, Report};
use crate::spans::Recorder;
use crate::stats::{median, percentile, Histogram, Ratio};

/// Shape of the soak.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoakSpec {
    /// Members, 10% of them silent.
    pub n: usize,
    /// Correct members flooded during the middle third (source first).
    pub attacked: usize,
    /// Shard event loops.
    pub shards: usize,
    /// Nominal round length (jittered ±20%).
    pub round: Duration,
    /// Source publish rate.
    pub rate_per_s: f64,
    /// Fabricated messages per attacked member per round.
    pub flood_x: f64,
    /// Longest wait after the last publish for stragglers.
    pub drain: Duration,
    /// Payload bytes.
    pub payload_len: usize,
}

impl SoakSpec {
    /// 48 members, 4 attacked, `nproc` shards, 100 ms rounds, 100 msg/s.
    pub fn live() -> Self {
        SoakSpec {
            n: 48,
            attacked: 4,
            shards: host::nproc(),
            round: Duration::from_millis(100),
            rate_per_s: 100.0,
            flood_x: 360.0,
            drain: Duration::from_secs(3),
            payload_len: 50,
        }
    }

    fn config(&self, seed: u64, registry: &Registry) -> ClusterConfig {
        let mut c = paper_cluster_config(
            ProtocolVariant::Drum,
            self.n,
            self.attacked,
            0.0,
            self.round,
            seed,
        );
        c.shards = self.shards;
        c.engines_per_shard = 0;
        // Explicit, never the environment's choice.
        c.adversary = FloodStrategy::Static;
        let per_round = (self.rate_per_s * self.round.as_secs_f64()).ceil() as usize + 2;
        c.net.stream = StreamConfig::paced(per_round);
        c.net.tracer = Tracer::disabled().with_registry(registry.clone());
        c
    }
}

/// Delivery bookkeeping of the soak.
#[derive(Debug, Default)]
struct Seen {
    /// `got[receiver][seq]`.
    got: Vec<Vec<bool>>,
    pairs: u64,
    duplicates: u64,
    foreign: u64,
    hops: Histogram,
    latency_ms: Vec<f64>,
}

impl Seen {
    fn collect(&mut self, cluster: &Cluster, start: Instant, interval: Duration) {
        for (i, h) in cluster.handles().iter().enumerate().skip(1) {
            for d in h.take_delivered() {
                let Some((seq, _)) = decode_payload(&d.message.payload) else {
                    self.foreign += 1;
                    continue;
                };
                let row = &mut self.got[i];
                if row.len() <= seq as usize {
                    row.resize(seq as usize + 1, false);
                }
                if row[seq as usize] {
                    self.duplicates += 1;
                    continue;
                }
                row[seq as usize] = true;
                self.pairs += 1;
                self.hops.add(u64::from(d.message.hops));
                // Open loop: latency runs from when the message was due.
                let due = start + interval.mul_f64(seq as f64);
                self.latency_ms
                    .push(d.at.saturating_duration_since(due).as_secs_f64() * 1e3);
            }
        }
    }
}

/// Cluster starts timed for `setup_s`; the last one runs the soak.
const SETUP_STARTS: usize = 61;

/// What one soak measured.
struct Soak {
    published: u64,
    /// (message, receiver) pairs published.
    want: u64,
    seen: Seen,
    /// Published pairs never delivered.
    missing: u64,
    /// The publish window.
    window_s: f64,
    /// The publish window plus the drain.
    run_s: f64,
    /// CPU of the shard threads over the run.
    cpu_ns: u64,
    late_ms: f64,
    totals: NetTotals,
}

impl Soak {
    fn cpu_us_per_delivery(&self) -> f64 {
        Ratio::new(self.cpu_ns as f64 / 1e3, self.seen.pairs as f64).value()
    }

    /// Output checks: every published message is accounted for, delivered
    /// to every receiver exactly once or counted missing (none may be).
    fn check(&self, r: &mut Report, which: &str) {
        let (pairs, want, missing) = (self.seen.pairs, self.want, self.missing);
        r.check(
            pairs + missing == want,
            format!("{which}: {pairs} delivered + {missing} missing != {want} published pairs"),
        );
        r.check(
            missing == 0,
            format!("{which}: {missing} of {want} (message, receiver) pairs undelivered"),
        );
        for (what, n) in [
            ("duplicate deliveries", self.seen.duplicates),
            ("foreign deliveries", self.seen.foreign),
            ("decode errors", self.totals.decode_errors),
            ("rejected frames", self.totals.frames_rejected),
            ("auth drops", self.totals.auth_drops),
        ] {
            r.check(n == 0, format!("{which}: {n} {what}"));
        }
        r.note(format!(
            "{which}: published {} in {:.3} s; {pairs} of {want} pairs delivered; shard CPU {:.3} s",
            self.published,
            self.window_s,
            self.cpu_ns as f64 / 1e9
        ));
    }
}

/// Runs the soak on `cluster` for `seconds`, then drains and shuts it
/// down. With a recorder, every pass of the publisher loop is a `tick`
/// span whose children are the harness's calls into the cluster
/// (`attack`, `publish`, `collect`) and its 1 ms sleep (`idle`).
fn soak(
    spec: &SoakSpec,
    mut cluster: Cluster,
    registry: &Registry,
    seconds: f64,
    mut rec: Option<&mut Recorder>,
) -> io::Result<Soak> {
    let receivers = (cluster.handles().len() - 1) as u64;
    let interval = Duration::from_secs_f64(1.0 / spec.rate_per_s);
    let window = Duration::from_secs_f64(seconds);
    let mut seen = Seen {
        got: vec![Vec::new(); cluster.handles().len()],
        ..Seen::default()
    };
    let mut late_ms = 0f64;
    let mut published = 0u64;

    let cpu0 = host::threads_cpu_ns("drum-shard-");
    let start = Instant::now();
    let third = window / 3;
    loop {
        let now = Instant::now();
        let elapsed = now - start;
        if elapsed >= window {
            break;
        }
        let tick = rec.as_deref_mut().map(|r| r.open("tick", None, None));
        let flood_on = elapsed >= third && elapsed < third * 2;
        if flood_on != cluster.attack_running() {
            let x = if flood_on { spec.flood_x } else { 0.0 };
            match rec.as_deref_mut() {
                Some(r) => r.time("attack", tick, None, || cluster.set_attack(x))?,
                None => cluster.set_attack(x)?,
            }
        }
        while start + interval.mul_f64(published as f64) <= now {
            let due = start + interval.mul_f64(published as f64);
            late_ms = late_ms.max((now - due).as_secs_f64() * 1e3);
            match rec.as_deref_mut() {
                Some(r) => r.time("publish", tick, None, || {
                    cluster.publish_from_source(published, spec.payload_len)
                }),
                None => cluster.publish_from_source(published, spec.payload_len),
            }
            published += 1;
        }
        match rec.as_deref_mut() {
            Some(r) => r.time("collect", tick, None, || {
                seen.collect(&cluster, start, interval)
            }),
            None => seen.collect(&cluster, start, interval),
        }
        let idle = || std::thread::sleep(Duration::from_millis(1));
        match rec.as_deref_mut() {
            Some(r) => {
                r.time("idle", tick, None, idle);
                r.close(tick.expect("opened with the recorder"));
            }
            None => idle(),
        }
    }
    cluster.set_attack(0.0)?;
    let window_s = start.elapsed().as_secs_f64();
    let want = published * receivers;
    let drain_until = Instant::now() + spec.drain;
    while seen.pairs < want && Instant::now() < drain_until {
        std::thread::sleep(Duration::from_millis(5));
        seen.collect(&cluster, start, interval);
    }
    seen.collect(&cluster, start, interval);
    let cpu_ns = host::threads_cpu_ns("drum-shard-") - cpu0;
    let run_s = start.elapsed().as_secs_f64();
    let stats = cluster.shutdown();

    let missing: u64 = (1..seen.got.len())
        .map(|i| {
            (0..published as usize)
                .filter(|&s| !seen.got[i].get(s).copied().unwrap_or(false))
                .count() as u64
        })
        .sum();
    let mut totals = NetTotals::from_nodes(&stats, registry);
    totals.deliveries = seen.pairs;
    let c = |name: &str| registry.counter(name).get();
    totals.syscalls_recv = c(names::SYSCALLS_RECV);
    totals.syscalls_send = c(names::SYSCALLS_SEND);
    totals.batched_dgrams = c(names::BATCH_FILL);
    Ok(Soak {
        published,
        want,
        seen,
        missing,
        window_s,
        run_s,
        cpu_ns,
        late_ms,
        totals,
    })
}

/// A full `soak_live` run. A traced run soaks twice for half of
/// `seconds` each, on fresh clusters: untraced, then traced. The
/// end-to-end and per-layer metrics are the traced soak's, and the
/// tracing overhead is its CPU per delivery against the untraced one's.
///
/// # Errors
///
/// Propagates socket errors.
pub fn run(
    spec: SoakSpec,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_path: Option<&Path>,
) -> io::Result<Report> {
    let mut r = Report::new();
    r.note(format!(
        "soak_live: n = {} ({} silent), {} attacked, {} shards, {} ms rounds, {} msg/s for {seconds} s, flood x = {} in the middle third",
        spec.n,
        spec.n / 10,
        spec.attacked,
        spec.shards,
        spec.round.as_millis(),
        spec.rate_per_s,
        spec.flood_x
    ));

    // `Cluster::start` spawns the shard threads, which start running at
    // once and compete with the caller for the CPUs. Its wall time is
    // then set mostly by the host's scheduling, so `setup_s` is the
    // caller's CPU time; the wall time is noted beside it.
    let (mut setups, mut walls) = (Vec::new(), Vec::new());
    let mut start = |registry: &Registry| -> io::Result<Cluster> {
        let config = spec.config(seed, registry);
        let (t, cpu0) = (Instant::now(), host::thread_cpu_ns());
        let c = Cluster::start(config)?;
        walls.push(t.elapsed().as_secs_f64());
        setups.push((host::thread_cpu_ns() - cpu0) as f64 / 1e9);
        Ok(c)
    };
    for _ in 1..SETUP_STARTS {
        start(&Registry::new())?.shutdown();
    }
    let half = if trace { seconds / 2.0 } else { seconds };
    let registry = Registry::new();
    let plain = soak(&spec, start(&registry)?, &registry, half, None)?;
    plain.check(&mut r, "untraced soak");
    let traced = if trace {
        let registry = Registry::new();
        let mut rec = Recorder::new();
        let s = soak(&spec, start(&registry)?, &registry, half, Some(&mut rec))?;
        s.check(&mut r, "traced soak");
        Some((s, rec))
    } else {
        None
    };
    let m = traced.as_ref().map_or(&plain, |(s, _)| s);

    r.attempted = m.want;
    r.failed = m.missing;
    r.note("soak_live units: latency in rounds is the message's hop count (the §8.1 round counter); a trial is one published message; deliveries, node-rounds and trials per second are set by the harness's pacing and the round cadence");
    r.set("deliveries_per_s", m.seen.pairs as f64 / m.window_s);
    r.set("node_rounds_per_s", m.totals.node_rounds as f64 / m.run_s);
    r.set("trials_per_s", m.published as f64 / m.window_s);
    r.set(
        "delivered_frac",
        Ratio::new(m.seen.pairs as f64, m.want as f64).value(),
    );
    latency_metrics(&mut r, &m.seen.hops, "hops");
    r.set("cpu_us_per_delivery", m.cpu_us_per_delivery());
    r.set("setup_s", median(&setups));
    r.set("peak_rss_mb", host::peak_rss_mb());
    r.note(format!(
        "Cluster::start: median {:.3} ms of the caller's CPU, {:.3} ms wall, over {} starts",
        median(&setups) * 1e3,
        median(&walls) * 1e3,
        setups.len()
    ));

    let mut lat = m.seen.latency_ms.clone();
    let (p50, p99) = (percentile(&mut lat, 0.5), percentile(&mut lat, 0.99));
    if let (Some(p50), Some(p99)) = (p50, p99) {
        r.note(format!(
            "delivery latency ms (diagnostic): {p50}, {p99}; generator at most {:.3} ms late",
            m.late_ms
        ));
    }
    if let Some((traced, rec)) = &traced {
        traced.totals.report(&mut r);
        r.set("soak.latency_ms_p50", p50.map_or(0.0, |p| p.value));
        r.set("soak.latency_ms_p99", p99.map_or(0.0, |p| p.value));
        r.set("soak.generator_late_ms", traced.late_ms);
        r.zero_unset(&["runtime.", "flood.", "sim.", "pool."]);
        // The rounds run on the shard threads inside the library, which
        // records no spans; the harness's `tick` spans are the parents.
        trace_metrics(&mut r, rec, "tick");
        if let Some(path) = trace_path {
            write_spans(&mut r, rec, path)?;
        }
        let (u, t) = (plain.cpu_us_per_delivery(), traced.cpu_us_per_delivery());
        r.set("trace.overhead_pct", Ratio::new((t - u) * 100.0, u).value());
        r.note(format!(
            "tracing overhead: shard CPU per delivery {u:.2} us untraced vs {t:.2} us traced"
        ));
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_soak_accounts_for_every_message() {
        let spec = SoakSpec {
            n: 10,
            attacked: 1,
            shards: 2,
            round: Duration::from_millis(40),
            rate_per_s: 40.0,
            flood_x: 40.0,
            drain: Duration::from_secs(5),
            payload_len: 50,
        };
        let mut r = run(spec, 4, 3.0, true, None).unwrap();
        r.require_table(true);
        assert!(r.correct(), "{:?}", r.failures());
        assert_eq!(r.failed, 0);
        assert!(r.attempted >= 50 * 8);
    }
}
