//! The host the benchmark runs on: the environment guard, the host
//! record printed before every run, and the `/proc` readings behind
//! memory and CPU metrics.

use std::ffi::{c_int, c_long};
use std::fs;

/// Every `DRUM_*` knob the library reads. Each one switches a layer to an
/// ablation path, which would make figures incomparable, so the benchmark
/// refuses to run when any `DRUM_*` variable is set.
pub const LIBRARY_KNOBS: [&str; 7] = [
    "DRUM_NET_NO_PACK",
    "DRUM_NET_NO_BATCH",
    "DRUM_CRYPTO_NO_SIMD",
    "DRUM_POOL_THREADS",
    "DRUM_SIM_SHARDS",
    "DRUM_NET_MULTIPLEX",
    "DRUM_ADVERSARY",
];

/// The `DRUM_*` variables set in `vars`, sorted.
pub fn drum_vars(vars: impl IntoIterator<Item = (String, String)>) -> Vec<String> {
    let mut set: Vec<String> = vars
        .into_iter()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("DRUM_"))
        .collect();
    set.sort();
    set
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Which SHA-256 path the MAC work dispatches to on this CPU.
pub fn sha256_dispatch() -> &'static str {
    let sha_ni = sha_ni_available();
    if drum_crypto::multiway::simd_preferred() {
        "avx2 8-lane (MultiMac batches 8 MACs per compress call)"
    } else if sha_ni {
        "sha-ni single-block (MultiMac runs one block per compress call)"
    } else {
        "portable single-block (MultiMac runs one block per compress call)"
    }
}

#[cfg(target_arch = "x86_64")]
fn sha_ni_available() -> bool {
    std::arch::is_x86_feature_detected!("sha")
}

#[cfg(not(target_arch = "x86_64"))]
fn sha_ni_available() -> bool {
    false
}

/// Lines describing the host, printed before every run.
pub fn record() -> Vec<String> {
    vec![
        format!("host: nproc = {}", nproc()),
        format!("host: sha256 dispatch = {}", sha256_dispatch()),
        format!(
            "host: batched syscalls (recvmmsg/sendmmsg/epoll) = {}",
            drum_net::sys::enabled()
        ),
        "host: all cluster traffic crosses the loopback interface (127.0.0.1 UDP sockets)"
            .to_string(),
    ]
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// On-CPU nanoseconds of the calling thread (`CLOCK_THREAD_CPUTIME_ID`).
///
/// The kernel brings this clock up to date when it is read. The first
/// field of `/proc/thread-self/schedstat` is not: for a thread that never
/// blocks it advances only at scheduler ticks, which would round every
/// short interval to a tick.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// On-CPU nanoseconds of the whole process (`CLOCK_PROCESS_CPUTIME_ID`),
/// exited threads included.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

/// `struct timespec` on 64-bit Linux, where `time_t` is a C `long`.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    // From the C library std already links.
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

fn cpu_clock_ns(clock: c_int) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` for the whole call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// On-CPU nanoseconds summed over the live threads of this process whose
/// name starts with `prefix` (every thread for an empty prefix), from
/// their `schedstat`. A running thread's figure can lag by up to one
/// scheduler tick, so this suits only intervals of many ticks.
pub fn threads_cpu_ns(prefix: &str) -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter(|t| fs::read_to_string(t.path().join("comm")).is_ok_and(|c| c.starts_with(prefix)))
        .filter_map(|t| fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| parse_schedstat(&s))
        .sum()
}

fn parse_schedstat(s: &str) -> Option<u64> {
    s.split_whitespace().next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drum_vars_finds_only_the_prefix() {
        let vars = vec![
            ("PATH".to_string(), "/bin".to_string()),
            ("DRUM_NET_NO_PACK".to_string(), "1".to_string()),
            ("DRUMS".to_string(), "x".to_string()),
            ("DRUM_ADVERSARY".to_string(), "chase".to_string()),
        ];
        assert_eq!(drum_vars(vars), vec!["DRUM_ADVERSARY", "DRUM_NET_NO_PACK"]);
        assert!(LIBRARY_KNOBS.iter().all(|k| k.starts_with("DRUM_")));
    }

    #[test]
    fn proc_readings_are_live() {
        assert!(peak_rss_mb() > 0.0);
        let before = thread_cpu_ns();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_add(i * i);
        }
        std::hint::black_box(x);
        assert!(thread_cpu_ns() > before);
        assert!(process_cpu_ns() >= thread_cpu_ns());
        assert!(threads_cpu_ns("") > 0);
        assert_eq!(parse_schedstat("123 45 6\n"), Some(123));
    }

    #[test]
    fn thread_cpu_clock_resolves_less_than_a_tick() {
        // A scheduler tick is 1 to 10 ms; spin for 200 us. A tick-based
        // reading would show 0 or at least one whole tick.
        let (cpu0, t) = (thread_cpu_ns(), std::time::Instant::now());
        while t.elapsed().as_micros() < 200 {
            std::hint::spin_loop();
        }
        let spent = thread_cpu_ns() - cpu0;
        assert!(spent > 0 && spent < 1_000_000, "{spent} ns of CPU");
    }
}
