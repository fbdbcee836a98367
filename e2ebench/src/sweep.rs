//! `sim_sweep`: the §7 Monte-Carlo in the shape of Figure 3(a) — Drum,
//! Push and Pull at x ∈ {0, 32, 64, 128, 256} — run through
//! `drum_sim::runner::run_many_on` on a pool the benchmark sizes itself.
//!
//! Every sweep repeats the same trials (trial `i` of every point uses
//! seed `seed + i`), so every sweep must return the same per-point
//! results, and those must equal the same sweep on an `nproc`-thread
//! pool.
//!
//! The timed sweeps run on a one-thread pool the benchmark builds. On a
//! small shared host a second pool thread competes with other tenants for
//! the second core, which made trials per second swing by a third from
//! run to run. The `nproc`-thread check runs on `Pool::global()` (sized
//! from `available_parallelism`, since the `DRUM_*` knobs are refused),
//! which is never dropped: dropping a pool whose worker is about to park
//! can lose the shutdown wake-up and hang the join.

use std::io;
use std::path::Path;
use std::time::Instant;

use drum_core::config::ProtocolVariant;
use drum_pool::Pool;
use drum_sim::runner::{auto_shards, run_many_on, ExperimentResult};
use drum_sim::{SimConfig, SimState};
use drum_trace::names;

use crate::host;
use crate::report::{trace_metrics, write_spans, Report};
use crate::spans::Recorder;
use crate::stats::{median, percentile, Ratio};

/// Shape of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Group size.
    pub n: usize,
    /// Attack rates x, one sweep point per protocol each.
    pub xs: Vec<f64>,
    /// Trials per point.
    pub trials: usize,
}

impl SweepSpec {
    /// Figure 3(a) at n = 1000, 40 trials per point.
    pub fn figure_3a() -> Self {
        SweepSpec {
            n: 1000,
            xs: vec![0.0, 32.0, 64.0, 128.0, 256.0],
            trials: 40,
        }
    }

    /// The sweep's configurations: 10% malicious members throughout, and
    /// for x > 0 the paper's attack on 10% of the group (source
    /// included).
    pub fn configs(&self) -> Vec<SimConfig> {
        let mut out = Vec::new();
        for &x in &self.xs {
            for p in [
                ProtocolVariant::Drum,
                ProtocolVariant::Push,
                ProtocolVariant::Pull,
            ] {
                out.push(if x == 0.0 {
                    SimConfig {
                        malicious: self.n / 10,
                        ..SimConfig::baseline(p, self.n)
                    }
                } else {
                    SimConfig::paper_attack(p, self.n, x)
                });
            }
        }
        out
    }
}

/// Members a successful trial must reach: the 99% threshold of the
/// correct processes.
pub fn members_reached(cfg: &SimConfig) -> u64 {
    (cfg.threshold * cfg.correct() as f64).ceil() as u64
}

/// One sweep's measured work.
#[derive(Debug, Clone)]
struct Sweep {
    secs: f64,
    cpu_ns: u64,
    results: Vec<ExperimentResult>,
}

impl Sweep {
    fn trials(&self) -> u64 {
        self.results.iter().map(|r| r.trials as u64).sum()
    }

    fn deliveries(&self, cfgs: &[SimConfig]) -> f64 {
        cfgs.iter()
            .zip(&self.results)
            .map(|(c, r)| ((r.trials - r.failures) as u64 * members_reached(c)) as f64)
            .sum()
    }

    fn member_rounds(&self, cfgs: &[SimConfig]) -> f64 {
        cfgs.iter()
            .zip(&self.results)
            .map(|(c, r)| r.rounds.mean() * r.rounds.count() as f64 * c.n as f64)
            .sum()
    }
}

/// The pool's (jobs, steals, park) counters.
fn pool_counters(pool: &Pool) -> (u64, u64, u64) {
    let c = |name: &str| pool.registry().counter(name).get();
    (
        c(names::POOL_JOBS),
        c(names::POOL_STEALS),
        c(names::POOL_PARK),
    )
}

/// Per-point fields the determinism checks compare bit for bit.
fn key(r: &ExperimentResult) -> (usize, usize, u64, u64) {
    (
        r.trials,
        r.failures,
        r.mean_rounds().to_bits(),
        r.std_rounds().to_bits(),
    )
}

/// Batches of set-ups timed for `setup_s`, and set-ups in each batch.
const SETUP_BATCHES: usize = 21;
/// See [`SETUP_BATCHES`].
const SETUP_BATCH: usize = 50;

/// A full `sim_sweep` run.
///
/// # Errors
///
/// Propagates the error of writing the spans of a traced run.
pub fn run(
    spec: &SweepSpec,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_path: Option<&Path>,
) -> io::Result<Report> {
    let mut r = Report::new();
    let cfgs = spec.configs();
    r.note(format!(
        "sim_sweep: n = {}, x in {:?}, Drum/Push/Pull, {} trials per point, one-thread pool",
        spec.n, spec.xs, spec.trials
    ));

    // Set-up: the pool and the simulator state of every point. One build
    // takes microseconds, so each sample times a batch of builds; the
    // last pool is kept.
    let mut setups = Vec::new();
    let mut pool = None;
    for _ in 0..SETUP_BATCHES {
        let t = Instant::now();
        for _ in 0..SETUP_BATCH {
            let p = Pool::new(1);
            let states: Vec<SimState> = cfgs.iter().map(|c| SimState::new(c.clone())).collect();
            std::hint::black_box(&states);
            pool = Some(p);
        }
        setups.push(t.elapsed().as_secs_f64() / SETUP_BATCH as f64);
    }
    let pool = pool.expect("built at least once");

    let budget = if trace { seconds / 2.0 } else { seconds };
    let start = Instant::now();
    let mut sweeps: Vec<Sweep> = Vec::new();
    while sweeps.len() < 2 || start.elapsed().as_secs_f64() < budget {
        let cpu0 = host::process_cpu_ns();
        let t = Instant::now();
        let results = run_many_on(&pool, &cfgs, spec.trials, seed, 0);
        let secs = t.elapsed().as_secs_f64();
        sweeps.push(Sweep {
            secs,
            cpu_ns: host::process_cpu_ns() - cpu0,
            results,
        });
    }

    let peak_rss_mb = host::peak_rss_mb();

    // Output checks: every sweep repeats the first, and the first equals
    // the same sweep on the `nproc`-thread pool.
    let first: Vec<_> = sweeps[0].results.iter().map(key).collect();
    for (k, s) in sweeps.iter().enumerate() {
        let got: Vec<_> = s.results.iter().map(key).collect();
        r.check(got == first, format!("sweep {k} differs from sweep 0"));
    }
    let wide = Pool::global();
    let (jobs0, steals0, park0) = pool_counters(wide);
    let other = run_many_on(wide, &cfgs, spec.trials, seed, 0);
    let (jobs1, steals1, park1) = pool_counters(wide);
    for (i, (o, got)) in other.iter().zip(&sweeps[0].results).enumerate() {
        r.check(
            key(o) == key(got),
            format!(
                "point {i}: one-thread pool mean/std {}/{} vs {}-thread {}/{}",
                got.mean_rounds(),
                got.std_rounds(),
                wide.threads(),
                o.mean_rounds(),
                o.std_rounds()
            ),
        );
    }
    for (c, res) in cfgs.iter().zip(&sweeps[0].results) {
        r.note(format!(
            "{:>4} x = {:>5}: mean rounds {:.3} (std {:.3}, {} trials, {} failures)",
            c.protocol.to_string(),
            c.attack.map(|a| a.x_per_round).unwrap_or(0.0),
            res.mean_rounds(),
            res.std_rounds(),
            res.trials,
            res.failures
        ));
    }

    let attempted: u64 = sweeps[0].trials();
    let ok: u64 = sweeps[0]
        .results
        .iter()
        .map(|x| (x.trials - x.failures) as u64)
        .sum();
    r.attempted = attempted;
    r.failed = attempted - ok;
    r.note("sim_sweep units: a delivery is a member reached by a trial's 99% threshold; a node-round is a member-round to that threshold; latency is the per-point mean rounds to 99%");

    let med = |f: &dyn Fn(&Sweep) -> f64| median(&sweeps.iter().map(f).collect::<Vec<_>>());
    r.set("trials_per_s", med(&|s| s.trials() as f64 / s.secs));
    r.set("deliveries_per_s", med(&|s| s.deliveries(&cfgs) / s.secs));
    r.set(
        "node_rounds_per_s",
        med(&|s| s.member_rounds(&cfgs) / s.secs),
    );
    r.set(
        "delivered_frac",
        Ratio::new(ok as f64, attempted as f64).value(),
    );
    let mut point_means: Vec<f64> = sweeps[0].results.iter().map(|x| x.mean_rounds()).collect();
    for (name, q) in [("latency_rounds_p50", 0.5), ("latency_rounds_p99", 0.99)] {
        if let Some(p) = percentile(&mut point_means, q) {
            r.set(name, p.value);
            r.note(format!("{name}: {p} (over sweep points)"));
        }
    }
    r.set(
        "cpu_us_per_delivery",
        med(&|s| Ratio::new(s.cpu_ns as f64 / 1e3, s.deliveries(&cfgs)).value()),
    );
    r.set("setup_s", median(&setups));
    r.set("peak_rss_mb", peak_rss_mb);
    let rates: Vec<String> = sweeps
        .iter()
        .map(|s| format!("{:.0}", s.trials() as f64 / s.secs))
        .collect();
    r.note(format!("trials/s per sweep: {}", rates.join(" ")));

    if trace {
        // Pool scheduling counters come from the `nproc`-thread check
        // sweep: a one-thread pool runs every batch inline.
        let trials = sweeps[0].trials() as f64;
        for (metric, n) in [
            ("pool.jobs_per_trial", jobs1 - jobs0),
            ("pool.steals_per_trial", steals1 - steals0),
            ("pool.park_per_trial", park1 - park0),
        ] {
            r.set(metric, Ratio::new(n as f64, trials).value());
        }
        let rec = traced(&mut r, spec, &cfgs, &pool, seed, seconds / 2.0, &sweeps[0]);
        if let Some(path) = trace_path {
            write_spans(&mut r, &rec, path)?;
        }
    }
    Ok(r)
}

/// Outcome of one hand-stepped trial.
struct Stepped {
    rounds_to_threshold: Option<u32>,
    rounds_executed: u32,
}

/// Steps one trial on `state` until every threshold is met (the
/// runner's stopping rule with no CDF rounds), timing each
/// `SimState::step_sharded` call as a `step` span under a `trial` span.
fn stepped_trial(
    state: &mut SimState,
    seed: u64,
    pool: &Pool,
    rec: &mut Recorder,
    id: u64,
) -> Stepped {
    let cfg = state.config().clone();
    let need = |count: usize| (cfg.threshold * count as f64).ceil() as usize;
    let (need_total, need_att, need_un) = (
        need(cfg.correct()),
        need(cfg.attacked()),
        need(cfg.correct() - cfg.attacked()),
    );
    let shards = auto_shards(cfg.n);
    let trial = rec.open("trial", None, Some(id));
    let mut out = Stepped {
        rounds_to_threshold: None,
        rounds_executed: 0,
    };
    let (mut att, mut un) = (false, false);
    for round in 1..=cfg.max_rounds {
        rec.time("step", Some(trial), None, || {
            state.step_sharded(seed, shards, pool)
        });
        out.rounds_executed = round;
        if out.rounds_to_threshold.is_none() && state.correct_with_m() >= need_total {
            out.rounds_to_threshold = Some(round);
        }
        att |= state.attacked_with_m() >= need_att;
        un |= state.unattacked_with_m() >= need_un;
        if out.rounds_to_threshold.is_some() && att && un {
            break;
        }
    }
    rec.close(trial);
    out
}

fn traced(
    r: &mut Report,
    spec: &SweepSpec,
    cfgs: &[SimConfig],
    pool: &Pool,
    seed: u64,
    seconds: f64,
    reference: &Sweep,
) -> Recorder {
    let epoch = Instant::now();
    let mut rec = Recorder::with_epoch(epoch);
    let (mut member_rounds, mut step_ns, mut rounds, mut trials) = (0f64, 0u64, 0u64, 0u64);
    let mut sweep_secs = Vec::new();
    let start = Instant::now();
    while sweep_secs.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let jobs = pool.map(cfgs.len(), |p| {
            let mut rec = Recorder::with_epoch(epoch);
            let mut state = SimState::new(cfgs[p].clone());
            let mut out = Vec::with_capacity(spec.trials);
            for i in 0..spec.trials {
                if i > 0 {
                    state.reset();
                }
                let id = (p * spec.trials + i) as u64;
                out.push(stepped_trial(
                    &mut state,
                    seed + i as u64,
                    pool,
                    &mut rec,
                    id,
                ));
            }
            (out, rec)
        });
        sweep_secs.push(t.elapsed().as_secs_f64());
        for (p, (outs, job_rec)) in jobs.into_iter().enumerate() {
            // The hand-stepped trials must reproduce the runner's result.
            let ok: Vec<f64> = outs
                .iter()
                .filter_map(|o| o.rounds_to_threshold.map(f64::from))
                .collect();
            let mean = ok.iter().sum::<f64>() / ok.len().max(1) as f64;
            let want = reference.results[p].mean_rounds();
            r.check(
                (mean - want).abs() <= 1e-9 * want.max(1.0),
                format!("traced point {p}: mean rounds {mean} vs runner {want}"),
            );
            for o in &outs {
                member_rounds += f64::from(o.rounds_executed) * cfgs[p].n as f64;
                rounds += u64::from(o.rounds_executed);
                trials += 1;
            }
            step_ns += job_rec
                .spans()
                .iter()
                .filter(|s| s.name == "step")
                .map(|s| s.duration_ns())
                .sum::<u64>();
            if sweep_secs.len() == 1 {
                rec.absorb(job_rec);
            }
        }
    }
    r.set(
        "sim.step_ns_per_member_round",
        Ratio::new(step_ns as f64, member_rounds).value(),
    );
    r.set(
        "sim.rounds_per_trial",
        Ratio::new(rounds as f64, trials as f64).value(),
    );
    let traced_tps = spec.trials as f64 * cfgs.len() as f64 / median(&sweep_secs);
    let untraced_tps = r.get("trials_per_s").unwrap_or(0.0);
    r.set(
        "trace.overhead_pct",
        Ratio::new((untraced_tps - traced_tps) * 100.0, untraced_tps).value(),
    );
    r.note(format!(
        "tracing overhead: {untraced_tps:.1} trials/s through run_many_on vs {traced_tps:.1} hand-stepped with spans"
    ));
    trace_metrics(r, &rec, "trial");
    r.zero_unset(&[
        "runtime.",
        "flood.",
        "transport.",
        "codec.",
        "crypto.",
        "engine.",
        "buffer.",
        "stream.",
        "shard.",
        "soak.",
    ]);
    rec
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> SweepSpec {
        SweepSpec {
            n: 100,
            xs: vec![0.0, 32.0],
            trials: 3,
        }
    }

    #[test]
    fn configs_follow_figure_3a() {
        let cfgs = SweepSpec::figure_3a().configs();
        assert_eq!(cfgs.len(), 15);
        assert!(cfgs.iter().all(|c| c.n == 1000 && c.malicious == 100));
        assert!(cfgs[..3].iter().all(|c| c.attack.is_none()));
        let a = cfgs[14].attack.unwrap();
        assert_eq!((a.attacked, a.x_per_round), (100, 256.0));
        assert_eq!(members_reached(&cfgs[0]), 891);
    }

    #[test]
    fn smoke_sweep_reports_every_metric() {
        let mut r = run(&smoke(), 11, 0.0, false, None).unwrap();
        r.require_table(false);
        assert!(r.correct(), "{:?}", r.failures());
        assert_eq!(r.attempted, 6 * 3);
        let mut t = run(&smoke(), 11, 0.0, true, None).unwrap();
        t.require_table(true);
        assert!(t.correct(), "{:?}", t.failures());
        assert!(t.get("sim.rounds_per_trial").unwrap() > 0.0);
    }
}
