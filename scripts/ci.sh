#!/usr/bin/env bash
# Tier-1 gate. Runs, in order: the workspace build, clippy (-D warnings) and
# tests (which include every campaign's --jobs width-independence and golden
# CSV digests); quick-scale smokes of the coverage, chaos, degraded,
# crashsim and soak campaigns; the fig8_fio byte-diff across engine thread
# counts with its divergence smoke; and the benchmark's correctness gate on
# one short workload. The campaigns exit non-zero on any survival invariant
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

echo "=== tests (workspace) ==="
cargo test --release --workspace --quiet

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

echo "=== bound-weave CSV differential (fig8_fio, engine threads sweep) ==="
# The bound-weave hard requirement: campaign output is byte-identical at any
# MEMSIM_ENGINE_THREADS. Run one fio campaign sequentially, then byte-diff
# the CSV at 4 and 8 engine threads against it. (Shard counts are swept by
# crates/bench/tests/weave_differential.rs, which also asserts the count
# that actually ran.)
fio_csv_matches_seq() { # NAME: $scratch/NAME's fig8_fio.csv equals the sequential oracle's
    if ! diff -q "$scratch/seq/results/fig8_fio.csv" "$scratch/$1/results/fig8_fio.csv"; then
        echo "ci: fig8_fio.csv differs between sequential and $1" >&2
        exit 1
    fi
}
in_scratch seq TVARAK_SCALE=quick MEMSIM_ENGINE_THREADS=1 fig8_fio --jobs 1
for t in 4 8; do
    in_scratch "threads$t" TVARAK_SCALE=quick MEMSIM_ENGINE_THREADS=$t fig8_fio --jobs 1
    fio_csv_matches_seq "threads$t"
done
echo "ci: fig8_fio.csv byte-identical at 1/4/8 engine threads"

echo "=== weave divergence-rate smoke (fig8_fio must not fall back) ==="
# A weave cell that diverges reruns sequentially — bit-identical output, so
# the byte-diffs above cannot see it. The fallback would silently void the
# scaling win, so fail CI if any fig8_fio cell under the default config
# printed the sequential-fallback marker during the 4-thread run above.
if grep "rerunning sequentially" "$scratch/threads4/stderr.txt" >&2; then
    echo "ci: fig8_fio diverged from the weave path under the default config" >&2
    exit 1
fi
echo "ci: no weave cell fell back to sequential"

echo "=== benchmark correctness gate (fio-llcfit-tvarak-t2, 1 s) ==="
# The repo's one performance instrument is the standalone benchmark/ crate
# (BENCHMARK.json). CI smokes its correctness gate only: exact-repeat
# simulated results and the threads-2 vs threads-1 comparison, neither of
# which depends on how fast the host is. Builds into benchmark/target.
bench_last=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload fio-llcfit-tvarak-t2 --seed 1 --seconds 1 --trace 0 | tail -n 1)
if [[ "$bench_last" != *'"correct": true'* || "$bench_last" != *'"failed": 0'* ]]; then
    echo "ci: benchmark correctness gate failed: $bench_last" >&2
    exit 1
fi
echo "ci: benchmark reports correct with 0 failed"
# A dependency-list edit under crates/ makes the offline build above rewrite
# a lock file; commit a deliberate benchmark edit before running this script.
if [[ -n "$(git status --porcelain -- Cargo.lock benchmark)" ]]; then
    echo "ci: Cargo.lock or benchmark/ differs from HEAD (did a dependency list move?)" >&2
    exit 1
fi

echo "ci: all gates passed"
