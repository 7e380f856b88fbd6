#!/usr/bin/env bash
# Regenerate every table and figure of the TVARAK paper's evaluation.
# Results land in results/*.csv; tables print to stdout.
#
# Usage: scripts/reproduce.sh [quick|reduced|full]
set -euo pipefail
export TVARAK_SCALE="${1:-full}"
cd "$(dirname "$0")/.."

cargo build --release -p bench

run() { echo "=== $1 ==="; cargo run --release -q -p bench --bin "$1"; }
# Fig. 9/10, §IV-H and the Vilamb sweep run at reduced scale when full is
# asked for, and at the requested scale otherwise.
sweep_scale=$TVARAK_SCALE
if [ "$sweep_scale" = full ]; then sweep_scale=reduced; fi

run show_config
run fig8_redis
run fig8_kv
run fig8_nstore
run fig8_fio
run fig8_stream
TVARAK_SCALE=$sweep_scale run fig9_ablation
TVARAK_SCALE=$sweep_scale run fig10_sensitivity
TVARAK_SCALE=$sweep_scale run sec4h_scaling
TVARAK_SCALE=$sweep_scale run vilamb_sweep
run coverage_campaign
run chaos_campaign
run degraded_campaign
run crashsim_campaign
run soak_campaign

echo "All experiments complete; CSVs in results/."
