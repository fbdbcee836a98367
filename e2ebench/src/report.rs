//! The result every run prints: the named metrics with their units, the
//! operation counts, and the output checks that decide `correct`.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::spans::{self, Recorder};
use crate::stats::{Histogram, Ratio};

/// End-to-end metrics, printed by every untraced run, with their units.
pub const END_TO_END: [(&str, &str); 9] = [
    ("deliveries_per_s", "1/s"),
    ("node_rounds_per_s", "1/s"),
    ("delivered_frac", "fraction"),
    ("latency_rounds_p50", "rounds"),
    ("latency_rounds_p99", "rounds"),
    ("cpu_us_per_delivery", "us"),
    ("trials_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run, with their units. A
/// layer a workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("runtime.start_round_us", "us"),
    ("runtime.drain_us", "us"),
    ("runtime.finish_round_us", "us"),
    ("runtime.drain_passes_per_round", "count"),
    ("runtime.rounds_late", "count"),
    ("flood.send_us", "us"),
    ("transport.dgrams_sent_per_delivery", "dgram/delivery"),
    ("transport.syscalls_send_per_node_round", "call/node-round"),
    ("transport.syscalls_recv_per_node_round", "call/node-round"),
    ("transport.recv_batch_fill", "dgram/call"),
    ("transport.port_rotations_per_node_round", "rot/node-round"),
    ("codec.msgs_per_frame", "msg/frame"),
    ("codec.decode_errors", "count"),
    ("codec.frames_rejected", "count"),
    ("crypto.compress_calls_per_delivery", "call/delivery"),
    ("crypto.lanes_per_call", "lane/call"),
    ("crypto.mac_batch_hit_ratio", "fraction"),
    ("engine.budget_drops_per_node_round", "drop/node-round"),
    ("engine.auth_drops", "count"),
    ("engine.alloc_failed", "count"),
    ("buffer.bytes_peak", "bytes"),
    ("stream.backpressure", "count"),
    ("shard.wakeups_per_node_round", "wake/node-round"),
    ("shard.dispatch_per_wakeup", "dispatch/wake"),
    ("soak.latency_ms_p50", "ms"),
    ("soak.latency_ms_p99", "ms"),
    ("soak.generator_late_ms", "ms"),
    ("sim.step_ns_per_member_round", "ns"),
    ("sim.rounds_per_trial", "rounds"),
    ("pool.jobs_per_trial", "job/trial"),
    ("pool.steals_per_trial", "steal/trial"),
    ("pool.park_per_trial", "park/trial"),
    ("trace.spans", "count"),
    ("trace.round_coverage_min", "fraction"),
    ("trace.round_coverage", "fraction"),
    ("trace.overhead_pct", "%"),
    ("trace.self_time_other_pct", "%"),
];

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: (message, receiver) pairs for the cluster
    /// workloads, trials for the simulator sweep.
    pub attempted: u64,
    /// Attempted operations that did not complete.
    pub failed: u64,
    metrics: Vec<(&'static str, f64)>,
    failures: Vec<String>,
    notes: Vec<String>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets a metric (replacing an earlier value of the same name).
    ///
    /// # Panics
    ///
    /// Panics on a name neither metric table lists.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "unknown metric {name}");
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    /// The value of a metric, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Records an output check; a failed check makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.failures.push(what.into());
        }
    }

    /// Adds a human-readable line printed before the result.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Human-readable lines recorded so far.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// Failed checks.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Adds a failure for every metric of the run's table that is unset
    /// or not a finite number, so an incomplete result is never printed
    /// as correct.
    pub fn require_table(&mut self, trace: bool) {
        for (name, _) in table(trace) {
            match self.get(name) {
                Some(v) if v.is_finite() => {}
                Some(v) => self.failures.push(format!("metric {name} is {v}")),
                None => self
                    .failures
                    .push(format!("metric {name} was not measured")),
            }
        }
    }

    /// The result line: one JSON object with the run's metric table.
    pub fn json(&self, trace: bool) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in table(trace).iter().enumerate() {
            let v = self.get(name).filter(|v| v.is_finite()).unwrap_or(0.0);
            if i > 0 {
                out.push_str(", ");
            }
            // `{:?}` prints the shortest representation that round-trips,
            // always with a fractional part or exponent.
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }

    /// Sets to 0 every per-layer metric under one of `prefixes` that the
    /// run has not set: the layers a workload does not exercise.
    pub fn zero_unset(&mut self, prefixes: &[&str]) {
        for (name, _) in PER_LAYER {
            if prefixes.iter().any(|p| name.starts_with(p)) && self.get(name).is_none() {
                self.set(name, 0.0);
            }
        }
    }

    /// One line per metric of the run's table, `name = value unit`.
    pub fn lines(&self, trace: bool) -> Vec<String> {
        table(trace)
            .iter()
            .map(|(name, unit)| {
                let v = self.get(name).unwrap_or(f64::NAN);
                format!("{name:<42} {v:>16.6} {unit}")
            })
            .collect()
    }
}

/// Sets `latency_rounds_p50`/`_p99` from the interpolated percentiles of
/// `h`, noting the nearest-rank values and sample count beside them.
pub fn latency_metrics(r: &mut Report, h: &Histogram, what: &str) {
    for (name, q) in [("latency_rounds_p50", 0.5), ("latency_rounds_p99", 0.99)] {
        if let (Some(p), Some(near)) = (h.percentile_interpolated(q), h.percentile(q)) {
            r.set(name, p.value);
            r.note(format!("{name} ({what}): {p}; nearest rank {}", near.value));
        }
    }
}

/// Tolerance of the traced run: the child spans must cover at least
/// `MIN_ROUND_COVERAGE` of a parent span in at least `MIN_ROUNDS_WITHIN`
/// of the parent spans (a host preemption landing between two calls can
/// stretch one round's uncovered time), and at least
/// `MIN_TOTAL_COVERAGE` of all parent spans' time together.
pub const MIN_ROUND_COVERAGE: f64 = 0.80;
/// See [`MIN_ROUND_COVERAGE`].
pub const MIN_ROUNDS_WITHIN: f64 = 0.99;
/// See [`MIN_ROUND_COVERAGE`].
pub const MIN_TOTAL_COVERAGE: f64 = 0.95;

/// Span count, coverage of `parent` spans by their children (checked
/// against the stated tolerance), and the share of time outside the
/// children.
pub fn trace_metrics(r: &mut Report, rec: &Recorder, parent: &str) {
    let (each, total) = spans::child_coverage(rec.spans(), parent);
    let min = each.iter().copied().fold(1.0, f64::min);
    let within = each.iter().filter(|&&c| c >= MIN_ROUND_COVERAGE).count();
    let share = if each.is_empty() {
        1.0
    } else {
        Ratio::new(within as f64, each.len() as f64).value()
    };
    r.set("trace.spans", rec.spans().len() as f64);
    r.set("trace.round_coverage_min", min);
    r.set("trace.round_coverage", total);
    r.set("trace.self_time_other_pct", (1.0 - total) * 100.0);
    r.note(format!(
        "span coverage: {within} of {} {parent} spans at least {MIN_ROUND_COVERAGE} covered by their children, {total:.4} overall",
        each.len()
    ));
    r.check(
        share >= MIN_ROUNDS_WITHIN && total >= MIN_TOTAL_COVERAGE,
        format!(
            "child spans cover {MIN_ROUND_COVERAGE} of only {share:.4} of {parent} spans (need {MIN_ROUNDS_WITHIN}) and {total:.4} overall (need {MIN_TOTAL_COVERAGE})"
        ),
    );
    for (name, ns) in spans::self_time_by_name(rec.spans()) {
        r.note(format!("self time {name:<14} {:>12.3} ms", ns as f64 / 1e6));
    }
}

/// Spans a traced run writes out at most (about four `calm_stream`
/// episodes); the metrics use every span.
const MAX_WRITTEN_SPANS: usize = 100_000;

/// Writes the first spans of `rec` to `path` as JSON lines and notes it.
///
/// # Errors
///
/// Propagates file errors.
pub fn write_spans(r: &mut Report, rec: &Recorder, path: &Path) -> io::Result<()> {
    let kept = &rec.spans()[..rec.spans().len().min(MAX_WRITTEN_SPANS)];
    spans::write_jsonl(path, kept)?;
    r.note(format!(
        "{} spans written to {}",
        kept.len(),
        path.display()
    ));
    Ok(())
}

/// The metric table a run prints: per-layer when traced.
pub fn table(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// The unit of a known metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lists_exactly_the_run_table() {
        let mut r = Report::new();
        r.attempted = 10;
        for (name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        r.require_table(false);
        assert!(r.correct(), "{:?}", r.failures());
        let line = r.json(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        for (name, unit) in END_TO_END {
            assert!(
                line.contains(&format!(
                    "\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}"
                )),
                "{name} missing from {line}"
            );
        }
        assert!(!line.contains("runtime."));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
    }

    #[test]
    fn a_missing_or_non_finite_metric_fails_the_run() {
        let mut r = Report::new();
        r.set("setup_s", f64::NAN);
        r.require_table(false);
        assert!(!r.correct());
        assert!(r.failures().iter().any(|f| f.contains("setup_s is NaN")));
        assert!(r
            .failures()
            .iter()
            .any(|f| f.contains("deliveries_per_s was not measured")));
    }

    #[test]
    fn metric_names_are_unique_and_within_limits() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.0)
            .collect();
        for (i, n) in names.iter().enumerate() {
            assert!(!names[i + 1..].contains(n), "{n} listed twice");
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
        }
        for (_, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(unit.len() <= 16, "{unit}");
        }
    }

    #[test]
    fn benchmark_definition_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let def = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let listed = def.matches("\"unit\"").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(def.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert!(def.contains("\"name\": \"setup_s\", \"unit\": \"s\", \"better\": \"lower\""));
    }

    #[test]
    fn zero_unset_fills_only_unset_metrics_of_the_layers_named() {
        let mut r = Report::new();
        r.set("runtime.rounds_late", 3.0);
        r.zero_unset(&["runtime."]);
        assert_eq!(r.get("runtime.rounds_late"), Some(3.0));
        assert_eq!(r.get("runtime.drain_us"), Some(0.0));
        assert_eq!(r.get("sim.rounds_per_trial"), None);
    }

    #[test]
    #[should_panic(expected = "unknown metric")]
    fn unknown_metrics_are_rejected() {
        Report::new().set("no.such.metric", 1.0);
    }
}
