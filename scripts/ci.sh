#!/usr/bin/env bash
# Tier-1 gate: build, unit/integration tests (which include every campaign's
# --jobs width-independence and golden CSV digests), and quick-scale smokes
# of the fault-injection campaigns. The campaigns exit non-zero on any survival
# invariant violation (silent wrong data under a verifying design, an
# unsettled media inconsistency after convergence, a poisoned page that
# fails open, or a resilver that fails to complete / diverges from the
# never-faulted oracle), so this script fails CI on them.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== build (workspace) ==="
cargo build --release --workspace

echo "=== clippy (workspace, -D warnings) ==="
cargo clippy -q --all-targets -- -D warnings

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

echo "=== serve_campaign (quick) ==="
# The binary exits non-zero when admission accounting breaks (offered !=
# accepted + shed at any point, or an admitted request that never
# completed) or when no sweep point lands past the saturation knee.
# Double-check the accounting from the CSV it wrote (belt and braces).
TVARAK_SCALE=quick ./target/release/serve_campaign
if awk -F, 'NR > 1 && $1 != "knee-est" && $8 != $9 + $10' results/serve_campaign.csv | grep -q .; then
    echo "ci: serve_campaign.csv has a row with offered != accepted + shed" >&2
    exit 1
fi

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

echo "=== perf_baseline (quick smoke) ==="
# Runs the simulator-performance baseline in quick mode and checks that
# BENCH_perf.json comes out well-formed. The committed BENCH_perf.json is
# regenerated manually in full mode (see EXPERIMENTS.md); CI only smokes
# the instrument, so run in a scratch dir to avoid clobbering it.
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
perf_tmp="$scratch/perf"
in_scratch perf perf_baseline --quick
for key in '"schema"' '"hw_threads"' '"line_speedup"' '"sim_cycles_per_sec"' '"cells_per_sec"' \
           '"trace_encode_mib_s"' '"trace_decode_mib_s"' '"rss_peak_kb"'; do
    grep -q "$key" "$perf_tmp/BENCH_perf.json" \
        || { echo "ci: BENCH_perf.json missing key $key" >&2; exit 1; }
done

echo "=== perf_dashboard (smoke) ==="
# The dashboard generator must run cleanly against the repo's git history
# (old schemas included) and the soak CSV the smoke above just produced.
scripts/perf_dashboard.sh
for f in results/perf_dashboard.csv results/perf_dashboard.md; do
    [ -s "$f" ] || { echo "ci: perf_dashboard produced empty $f" >&2; exit 1; }
done
grep -q 'soak campaign' results/perf_dashboard.md \
    || { echo "ci: perf_dashboard.md missing the soak section" >&2; exit 1; }

echo "=== bound-weave CSV differential (fig8_fio, threads x shards sweep) ==="
# The bound-weave hard requirement: campaign output is byte-identical at any
# MEMSIM_ENGINE_THREADS and any MEMSIM_WEAVE_SHARDS. Run one fio campaign
# sequentially, then sweep thread counts (default shards) and shard counts
# (at 4 threads), byte-diffing every CSV against the sequential oracle.
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
for sh in 1 2 4; do
    in_scratch "shards$sh" TVARAK_SCALE=quick MEMSIM_ENGINE_THREADS=4 MEMSIM_WEAVE_SHARDS=$sh \
        fig8_fio --jobs 1
    fio_csv_matches_seq "shards$sh"
done
echo "ci: fig8_fio.csv byte-identical at 1/4/8 engine threads and 1/2/4 weave shards"

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

echo "=== perf gate (>30% regression vs committed BENCH_perf.json fails) ==="
# Two tracked hot paths: engine simulation rate (first sim_cycles_per_sec in
# the file is the engine block's; the per-cell ones sit inside one-line cell
# objects) and the pinned *software* slice-by-8 checksum rate (host
# comparable — the dispatched kernel depends on what the CPU offers). Both
# sides of the comparison are best-of-N minima, which are stable under
# scheduler noise where single shots are not; 30% headroom plus a bounded
# retry (shared boxes see multi-second steal bursts that depress even the
# minimum) covers what remains.
perf_metric() { # file, key -> first value of "key": <float>
    grep -Eo "\"$2\": [0-9.]+" "$1" | head -1 | awk '{print $2}'
}
# Sharded-weave scaling gate: on a host with >= 4 cores the 4-engine-thread
# fio cell must beat sequential by 1.2x (dependency-vector admission lets
# epochs on disjoint shards apply concurrently, so the workers must deliver
# real parallelism, not just break even). Smaller hosts cannot run the
# replay workers concurrently, so the full gate is skipped there — loudly,
# so a quiet CI downgrade never masks a scaling regression — and replaced
# with an overhead bound: even time-sliced onto too few cores, the weave
# path must stay within 2x of sequential (speedup >= 0.5).
host_cores=$(nproc 2>/dev/null || echo 1)
scaling_speedup4() { # file -> the threads-4 scaling point's speedup
    grep '"threads": 4' "$1" | grep -Eo '"speedup": [0-9.]+' | head -1 | awk '{print $2}'
}
gate_ok=""
for attempt in 1 2 3; do
    [ "$attempt" -gt 1 ] && {
        echo "ci: perf gate retry $attempt (noise burst suspected)"
        in_scratch perf perf_baseline --quick
    }
    gate_ok=yes
    for key in sim_cycles_per_sec line_slice8_mib_s trace_encode_mib_s trace_decode_mib_s; do
        committed=$(perf_metric BENCH_perf.json "$key")
        current=$(perf_metric "$perf_tmp/BENCH_perf.json" "$key")
        if [ -z "$committed" ] || [ -z "$current" ]; then
            echo "ci: perf gate could not read $key" >&2
            exit 1
        fi
        if awk -v cur="$current" -v base="$committed" 'BEGIN { exit !(cur >= 0.7 * base) }'; then
            echo "ci: perf $key ok ($current vs committed $committed)"
        else
            echo "ci: perf $key low: $current vs committed $committed (>30% drop)"
            gate_ok=""
        fi
    done
    speedup4=$(scaling_speedup4 "$perf_tmp/BENCH_perf.json")
    if [ -z "$speedup4" ]; then
        echo "ci: perf gate could not read the 4-thread scaling speedup" >&2
        exit 1
    fi
    if [ "$host_cores" -ge 4 ]; then
        if awk -v s="$speedup4" 'BEGIN { exit !(s > 1.2) }'; then
            echo "ci: engine scaling ok (4-thread speedup $speedup4 on $host_cores detected cores)"
        else
            echo "ci: engine scaling low: 4-thread speedup $speedup4 <= 1.2 on $host_cores detected cores"
            gate_ok=""
        fi
    else
        echo "ci: SKIPPED engine-scaling speedup gate: host has $host_cores detected core(s), need >= 4"
        if awk -v s="$speedup4" 'BEGIN { exit !(s >= 0.5) }'; then
            echo "ci: engine scaling overhead ok (4-thread speedup $speedup4 >= 0.5 on $host_cores core(s))"
        else
            echo "ci: engine scaling overhead high: 4-thread speedup $speedup4 < 0.5 on $host_cores core(s)"
            gate_ok=""
        fi
    fi
    [ -n "$gate_ok" ] && break
done
if [ -z "$gate_ok" ]; then
    echo "ci: perf regression persisted across 3 attempts" >&2
    exit 1
fi

echo "ci: all gates passed"
