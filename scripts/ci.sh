#!/usr/bin/env bash
# Tier-1 gate. Runs, in order: a size check (no .rs file under
# crates/{memsim,apps,pmemfs,tvarak,bench,crashsim}/src over 900 lines); a
# rustfmt check of the workspace; the workspace build,
# clippy (-D warnings), rustdoc (-D warnings) and tests (which include every
# campaign's --jobs width-independence and golden CSV digests); the memsim, pmemfs and tvarak
# tests and the fast-forward preload oracle (bench's fast_forward suite)
# again in debug, so their debug assertions run; quick-scale smokes of the
# coverage, chaos, degraded, crashsim and soak campaigns, and a run of the
# first chaos and degraded row's printed repro command; the fig8_fio
# byte-diff between the sequential engine (threads 1) and the bound-weave
# engine (threads 2 — every N >= 2 is the same bound thread + one replay
# worker) with its divergence smoke; and the benchmark's correctness gate on
# three short workloads (the woven LLC-fit fio cell, the fio rand-read cell
# whose set-up pokes and re-initializes 96 MiB of media, and the
# transactional B-Tree, the one whose ops clwb). The campaigns exit non-zero on any survival invariant
# violation (silent wrong data, an unsettled media inconsistency after
# convergence, a poisoned page that fails open, or a resilver that fails to
# complete / diverges from the never-faulted oracle),
# so this script fails CI on them. Nothing here compares host time: speed is
# measured by the benchmark's paired parent/change protocol
# (benchmark/README.md), not by a threshold on a shared host.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== module size (memsim, apps, pmemfs, tvarak, bench, crashsim: no .rs file over 900 lines) ==="
# One module per layer (DESIGN.md §4): a file that outgrows this bound holds
# more than one layer and wants splitting, not a raised bound.
oversize=$(find crates/memsim/src crates/apps/src crates/pmemfs/src crates/tvarak/src \
    crates/bench/src crates/crashsim/src \
    -name '*.rs' -exec wc -l {} + |
    awk '$2 != "total" && $1 > 900')
if [[ -n "$oversize" ]]; then
    echo "ci: files over 900 lines:" >&2
    echo "$oversize" >&2
    exit 1
fi

echo "=== format (workspace: cargo fmt --all -- --check) ==="
# The tree is rustfmt-clean; a diff here means run `cargo fmt --all`. The
# standalone benchmark/ workspace is not part of this workspace.
cargo fmt --all -- --check

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

echo "=== coverage_campaign (quick) ==="
TVARAK_SCALE=quick ./target/release/coverage_campaign

echo "=== chaos_campaign (quick) ==="
TVARAK_SCALE=quick ./target/release/chaos_campaign

echo "=== degraded_campaign (quick) ==="
# Exits non-zero on any degraded-mode invariant violation (DESIGN.md §13):
# a resilver that fails to complete under load for any design; silent wrong
# data under any design (a lost line is signalled); or, for every design
# with parity, post-resilver data and parity that diverge from the
# never-faulted oracle.
TVARAK_SCALE=quick ./target/release/degraded_campaign

echo "=== repro commands (first chaos and degraded row, quick) ==="
# Every row of these CSVs carries the one command that re-runs its cell
# (the `repro` column). Run the first row's, as printed, from a fresh
# directory: it must exit 0 and write exactly one row, byte-identical to it.
for c in chaos_campaign degraded_campaign; do
    repro=$(awk -F, 'NR == 1 { for (i = 1; i <= NF; i++) if ($i == "repro") col = i }
                     NR == 2 { print $col }' "results/$c.csv")
    if [[ "$repro" != "./target/release/$c --filter '"* ]]; then
        echo "ci: $c.csv row 1 has no repro command for $c: '$repro'" >&2
        exit 1
    fi
    dir="$scratch/repro-$c"
    mkdir -p "$dir"
    ln -s "$repo_root/target" "$dir/target"
    (cd "$dir" && export TVARAK_SCALE=quick && eval "$repro" > /dev/null 2> stderr.txt) \
        || { cat "$dir/stderr.txt" >&2; echo "ci: $c repro failed: $repro" >&2; exit 1; }
    rows=$(awk 'END { print NR - 1 }' "$dir/results/$c.csv")
    if [[ "$rows" != 1 ]]; then
        echo "ci: $c repro wrote $rows data rows, not 1: $repro" >&2
        exit 1
    fi
    if [[ "$(sed -n 2p "$dir/results/$c.csv")" != "$(sed -n 2p "results/$c.csv")" ]]; then
        echo "ci: $c repro's row differs from the campaign's: $repro" >&2
        exit 1
    fi
    echo "ci: $repro -> 1 row"
done

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

echo "=== bound-weave CSV differential (fig8_fio, threads 1 vs 2) ==="
# The bound-weave hard requirement: campaign output is byte-identical at any
# --threads. Every value >= 2 runs the same engine, so one woven run against
# the sequential one covers them all.
in_scratch seq TVARAK_SCALE=quick fig8_fio --jobs 1 --threads 1
in_scratch threads2 TVARAK_SCALE=quick fig8_fio --jobs 1 --threads 2
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

echo "=== benchmark correctness gate (fio-llcfit-tvarak-t2, fio-randread-tvarak, btree-insert-txbpage; 1 s each) ==="
# The repo's one performance instrument is the standalone benchmark/ crate
# (BENCHMARK.json). CI smokes its correctness gate only: exact-repeat
# simulated results (and, on llcfit, the threads-2 vs threads-1
# comparison), none of which depends on how fast the host is. llcfit issues
# no transaction and no clwb; rand-read is the one workload whose set-up
# drives `poke_line` and `reinit_redundancy` over its whole footprint and
# then audits every verified read against them; the B-Tree covers the
# tx/clwb path. Builds into benchmark/target.
for workload in fio-llcfit-tvarak-t2 fio-randread-tvarak btree-insert-txbpage; do
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
