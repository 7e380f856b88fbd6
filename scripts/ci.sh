#!/usr/bin/env bash
# Tier-1 gate. Runs, in order: the workspace build, clippy (-D warnings),
# rustdoc (-D warnings) and tests (which include every campaign's --jobs
# width-independence and golden CSV digests); the memsim, pmemfs and tvarak
# tests and the fast-forward preload oracle (bench's fast_forward suite)
# again in debug, so their debug assertions run; quick-scale smokes of the
# coverage, chaos, degraded, crashsim and soak campaigns; the fig8_fio
# byte-diff between the sequential engine (threads 1) and the bound-weave
# engine (threads 2 — every N >= 2 is the same bound thread + one replay
# worker) with its divergence smoke; and the benchmark's correctness gate on
# two short workloads (the woven LLC-fit fio cell, and the transactional
# B-Tree, the one whose ops clwb). The campaigns exit non-zero on any survival invariant
# violation (silent wrong data under a verifying design, an unsettled media
# inconsistency after convergence, a poisoned page that fails open, or a
# resilver that fails to complete / diverges from the never-faulted oracle),
# so this script fails CI on them. Nothing here compares host time: speed is
# measured by the benchmark's paired parent/change protocol
# (benchmark/README.md), not by a threshold on a shared host.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== build (workspace) ==="
cargo build --release --workspace

echo "=== clippy (workspace, -D warnings) ==="
cargo clippy -q --workspace --all-targets -- -D warnings

echo "=== docs (workspace, -D warnings) ==="
# A deleted or private item named in an intra-doc link fails the build.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

echo "=== tests (workspace) ==="
cargo test --release --workspace --quiet

echo "=== tests (memsim, pmemfs, tvarak, fast-forward oracle; debug assertions on) ==="
# The release run above compiles out every debug_assert!, including the
# engine's inclusion checks (insert_absent's precondition, and
# invalidate_page's no-private-copy check, which turns every test that
# calls it into an inclusion audit) and fast_forward's empty-caches check on
# exit, which the oracle runs on every design.
cargo test -q -p memsim -p pmemfs -p tvarak
cargo test -q -p bench --test fast_forward

echo "=== coverage_campaign (quick) ==="
TVARAK_SCALE=quick ./target/release/coverage_campaign

echo "=== chaos_campaign (quick) ==="
TVARAK_SCALE=quick ./target/release/chaos_campaign

echo "=== degraded_campaign (quick) ==="
# Exits non-zero on any degraded-mode invariant violation: resilver fails
# to complete under load, silent wrong data, or post-rebuild media that
# diverges from the never-faulted oracle (DESIGN.md §13).
TVARAK_SCALE=quick ./target/release/degraded_campaign

echo "=== crashsim_campaign (quick) ==="
# The binary already exits non-zero on any unrecoverable-loss crash point;
# double-check the CSV it wrote reports zero lost rows (belt and braces —
# a reporting bug must not read as a clean campaign).
TVARAK_SCALE=quick ./target/release/crashsim_campaign
if awk -F, 'NR > 1 && $10 == "lost"' results/crashsim_campaign.csv | grep -q .; then
    echo "ci: crashsim_campaign.csv contains unrecoverable-loss rows" >&2
    exit 1
fi

echo "=== soak_campaign (quick, short horizon) ==="
# Exits non-zero if any cell's merged interval snapshots differ from the
# machine's monolithic stats (DESIGN.md §16). Width-independence of this
# and every other campaign is a cargo test (campaign_determinism.rs).
TVARAK_SCALE=quick ./target/release/soak_campaign --intervals 3 --ops-per-interval 256

repo_root="$PWD"
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT
# in_scratch NAME [VAR=VALUE...] BIN [ARGS...]: run target/release/BIN in the
# fresh directory $scratch/NAME; stdout is discarded, stderr kept in
# $scratch/NAME/stderr.txt and shown if the run fails.
in_scratch() {
    local dir="$scratch/$1"; shift
    local envs=()
    while [[ "$1" == *=* ]]; do envs+=("$1"); shift; done
    local bin="$1"; shift
    mkdir -p "$dir"
    (cd "$dir" && env ${envs[@]+"${envs[@]}"} "$repo_root/target/release/$bin" "$@" > /dev/null 2> stderr.txt) \
        || { cat "$dir/stderr.txt" >&2; exit 1; }
}

echo "=== bound-weave CSV differential (fig8_fio, threads 1 vs 2) ==="
# The bound-weave hard requirement: campaign output is byte-identical at any
# MEMSIM_ENGINE_THREADS. Every value >= 2 runs the same engine, so one woven
# run against the sequential one covers them all.
in_scratch seq TVARAK_SCALE=quick MEMSIM_ENGINE_THREADS=1 fig8_fio --jobs 1
in_scratch threads2 TVARAK_SCALE=quick MEMSIM_ENGINE_THREADS=2 fig8_fio --jobs 1
if ! diff -q "$scratch/seq/results/fig8_fio.csv" "$scratch/threads2/results/fig8_fio.csv"; then
    echo "ci: fig8_fio.csv differs between 1 and 2 engine threads" >&2
    exit 1
fi
echo "ci: fig8_fio.csv byte-identical at 1/2 engine threads"

echo "=== weave divergence-rate smoke (fig8_fio must not fall back) ==="
# A weave cell that diverges reruns sequentially — bit-identical output, so
# the byte-diff above cannot see it. The fallback would silently void the
# parallel run, so fail CI if any fig8_fio cell under the default config
# printed the sequential-fallback marker during the 2-thread run above.
if grep "rerunning sequentially" "$scratch/threads2/stderr.txt" >&2; then
    echo "ci: fig8_fio diverged from the weave path under the default config" >&2
    exit 1
fi
echo "ci: no weave cell fell back to sequential"

echo "=== benchmark correctness gate (fio-llcfit-tvarak-t2, btree-insert-txbpage; 1 s each) ==="
# The repo's one performance instrument is the standalone benchmark/ crate
# (BENCHMARK.json). CI smokes its correctness gate only: exact-repeat
# simulated results (and, on llcfit, the threads-2 vs threads-1
# comparison), none of which depends on how fast the host is. llcfit issues
# no transaction and no clwb; the B-Tree covers the tx/clwb path. Builds
# into benchmark/target.
for workload in fio-llcfit-tvarak-t2 btree-insert-txbpage; do
    bench_last=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1)
    if [[ "$bench_last" != *'"correct": true'* || "$bench_last" != *'"failed": 0'* ]]; then
        echo "ci: benchmark correctness gate failed on $workload: $bench_last" >&2
        exit 1
    fi
    echo "ci: benchmark reports correct with 0 failed on $workload"
done
# A dependency-list edit under crates/ makes the offline build above rewrite
# a lock file; commit a deliberate benchmark edit before running this script.
if [[ -n "$(git status --porcelain -- Cargo.lock benchmark)" ]]; then
    echo "ci: Cargo.lock or benchmark/ differs from HEAD (did a dependency list move?)" >&2
    exit 1
fi

echo "ci: all gates passed"
