#!/usr/bin/env bash
# Self-check of the benchmark: runs the full command (every workload, both
# passes) twice on seed 1 and once on the held-out seed 2, then fails unless
#   - every run is correct and prints exactly the metrics BENCHMARK.json names,
#   - every end-to-end metric of the two seed-1 sets agrees within its bound,
#   - every simulated result of the two seed-1 sets agrees exactly,
#   - seed 2 changes the simulated results of every seeded workload and leaves
#     quickgrid-j2 (which uses the seeds built into bench::workloads) alone.
# Artefacts go to benchmark/out/. Takes about twelve minutes on a 2-core host.
set -euo pipefail
cd "$(dirname "$0")/.."
out=benchmark/out
mkdir -p "$out"

full_run() { # seed, file
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --seed "$1" --trace 1 >"$2"
}

full_run 1 "$out/selfcheck-a.jsonl"
full_run 1 "$out/selfcheck-b.jsonl"
full_run 2 "$out/selfcheck-heldout.jsonl"

python3 - "$out" <<'EOF'
import json, sys

out = sys.argv[1]
spec = json.load(open("BENCHMARK.json"))
names = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
workloads = [w["name"] for w in spec["workloads"]]
UNSEEDED = "quickgrid-j2"
problems = []


def load(path):
    """(workload, trace) -> (info, result), from alternating info/result lines."""
    lines = [json.loads(l) for l in open(path) if l.startswith("{")]
    runs = {}
    for info, result in zip(lines[0::2], lines[1::2]):
        info = info["info"]
        runs[(info["workload"], info["trace"])] = (info, result)
    return runs


sets = {k: load(f"{out}/selfcheck-{k}.jsonl") for k in ("a", "b", "heldout")}
for label, runs in sets.items():
    for w in workloads:
        for trace in (0, 1):
            if (w, trace) not in runs:
                problems.append(f"{label}: no result for {w} --trace {trace}")
                continue
            info, result = runs[(w, trace)]
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: {w} --trace {trace} incorrect: {info['failures']}")
            if list(result["metrics"]) != names[trace]:
                problems.append(f"{label}: {w} --trace {trace} metrics differ from BENCHMARK.json")

print(f"{'workload':<24}{'metric':<16}{'seed-1 a':>14}{'seed-1 b':>14}{'diff':>9}{'bound':>7}")
for w in workloads:
    if any((w, t) not in sets[k] for k in sets for t in (0, 1)):
        continue
    a, b = sets["a"][(w, 0)][1]["metrics"], sets["b"][(w, 0)][1]["metrics"]
    for name in names[0]:
        if name not in a or name not in b:
            continue
        x, y = a[name]["value"], b[name]["value"]
        diff = abs(x - y) / min(x, y)
        print(f"{w:<24}{name:<16}{x:>14.6g}{y:>14.6g}{diff:>9.2%}{bounds[name]:>7.0%}")
        if diff > bounds[name]:
            problems.append(f"{w}: {name} differs by {diff:.2%} between the seed-1 sets (bound {bounds[name]:.0%})")
    for trace in (0, 1):
        sa, sb = (sets[k][(w, trace)][0]["simulated"] for k in ("a", "b"))
        if sa != sb:
            problems.append(f"{w} --trace {trace}: simulated results differ between the seed-1 sets")
        held = sets["heldout"][(w, trace)][0]["simulated"]
        if (held == sa) != (w == UNSEEDED):
            problems.append(f"{w} --trace {trace}: seed 2 {'changed' if w == UNSEEDED else 'did not change'} the simulated results")
    if sets["a"][(w, 0)][0]["simulated"] != sets["a"][(w, 1)][0]["simulated"]:
        problems.append(f"{w}: traced and untraced passes disagree on the simulated results")

for p in problems:
    print("FAIL:", p)
print("selfcheck", "FAILED" if problems else "passed")
sys.exit(1 if problems else 0)
EOF
