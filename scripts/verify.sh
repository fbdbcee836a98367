#!/usr/bin/env bash
# Hermetic verification: the workspace must build, test and stay formatted
# with no network access and no crates.io dependencies.
#
# Usage:
#   scripts/verify.sh           # full pipeline (CI runs this)
#   scripts/verify.sh --quick   # build + unit tests only
set -euo pipefail

cd "$(dirname "$0")/.."

QUICK=0
for arg in "$@"; do
    case "$arg" in
        --quick) QUICK=1 ;;
        *)
            echo "usage: $0 [--quick]" >&2
            exit 2
            ;;
    esac
done

PHASE_START=0
phase_begin() {
    PHASE_START=$SECONDS
    echo "==> $1"
}
phase_end() {
    echo "    (${1}: $((SECONDS - PHASE_START))s)"
}

phase_begin "cargo build --release --offline"
cargo build --release --offline
phase_end "build"

phase_begin "cargo test -q --offline"
cargo test -q --offline
phase_end "test"

# The end-to-end benchmark is a workspace of its own (e2ebench/), so the
# workspace-wide `cargo test` above never reaches its unit tests: its
# workload specs, statistics, layer accounting and report format.
phase_begin "cargo test e2ebench"
cargo test -q --offline --manifest-path e2ebench/Cargo.toml
phase_end "e2ebench"

# The crypto suite again with the 8-lane SHA-256 kernel ablated away:
# every multiway MAC must stay bit- and counter-identical on the forced
# single-block path (§20). Cheap (sub-second) and on the quick path so a
# lane-kernel divergence can't hide behind a SIMD-only dev machine.
phase_begin "cargo test -p drum-crypto (DRUM_CRYPTO_NO_SIMD=1)"
DRUM_CRYPTO_NO_SIMD=1 cargo test -q --offline -p drum-crypto
phase_end "no-simd"

# One adaptive-adversary scenario end to end (the eclipse strategy against
# Drum, §17) and the exact machine-independent crypto gates: batched
# verification (HMACs/datagram) and the multiway kernel
# (compress-calls/block) — cheap enough to keep on the quick path.
phase_begin "adaptive-adversary + batched-auth + multiway smoke"
cargo run --release --offline -q -p drum-lab -- simulate \
    --protocol drum --n 80 --adversary eclipse --x 64 --trials 20
# --out to a throwaway path: the default would overwrite the checked-in
# full-mode BENCH_hotpath.json with a two-bench quick run.
BENCH_OUT="$(mktemp)"
cargo run --release --offline -q -p drum-bench --bin hotpath -- \
    --quick --only mac_verify_flood_512,mac_multiway_flood_512 --out "$BENCH_OUT"
rm -f "$BENCH_OUT"
phase_end "smoke"

# The sharded-stepper scale figure end to end at Smoke sizing: exercises
# the intra-trial shard/merge path plus the figure plumbing without the
# full figure sweep (which stays on the non-quick path below).
phase_begin "drum-lab figures --only ext_scale (smoke)"
SCALE_OUT="$(mktemp -d)"
cargo run --release --offline -q -p drum-lab -- figures \
    --quick --only ext_scale --out "$SCALE_OUT"
rm -rf "$SCALE_OUT"
phase_end "ext_scale"

# The sustained-throughput soak at Smoke sizing (~2s of cluster time):
# paced stream, flood toggled mid-run, MTU-packed frames, buffer
# high-water and backpressure accounting — the §19 plumbing end to end.
phase_begin "drum-lab figures --only ext_soak (smoke)"
SOAK_OUT="$(mktemp -d)"
cargo run --release --offline -q -p drum-lab -- figures \
    --quick --only ext_soak --out "$SOAK_OUT"
rm -rf "$SOAK_OUT"
phase_end "ext_soak"

if [ "$QUICK" -eq 1 ]; then
    echo "==> verify --quick: all green (total $((SECONDS))s)"
    exit 0
fi

phase_begin "cargo build --offline --benches --features criterion"
cargo build --offline --benches --features criterion
phase_end "benches"

# A 64-engine live-UDP cluster on ONE shard: every engine's sockets are
# multiplexed into a single epoll event loop, exercising the timer wheel
# and tagged dispatch far past what unit tests cover.
phase_begin "drum-lab cluster --shards 1 (64 engines, one event loop)"
cargo run --release --offline -q -p drum-lab -- cluster \
    --n 64 --shards 1 --attacked 6 --x 32 --messages 12 --rate 30 --round-ms 50
phase_end "cluster"

# Smoke-regenerate every figure through the shared worker pool; writes to
# a throwaway directory, so checked-in results/ stay untouched.
phase_begin "drum-lab figures --quick"
FIG_OUT="$(mktemp -d)"
cargo run --release --offline -q -p drum-lab -- figures --quick --out "$FIG_OUT"
rm -rf "$FIG_OUT"
phase_end "figures"

phase_begin "cargo fmt --check"
cargo fmt --check
phase_end "fmt"

echo "==> verify: all green (total $((SECONDS))s)"
