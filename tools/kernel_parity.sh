#!/usr/bin/env bash
# Kernel lockstep parity gate: every Monte Carlo driver must produce a
# bit-identical JSON report at every (block, threads) combination —
# the batched kernel's (block, threads)-independence contract, checked
# end to end through leakctl instead of unit-test aggregates.  The
# grid also covers each runner fan-out: semiactive-sweep folds through
# TrialRunner::run_reduce, and slot-protocol runs one slot trial per
# run_blocks block.
#
# For each driver scenario the (block=1, threads=1) run is the
# reference; every other grid cell must match it byte for byte after
# normalization (the report's meta block carries wall time and the
# resolved thread count, and params echoes the block/threads knobs —
# none of which are simulation results).
#
# Usage: tools/kernel_parity.sh LEAKCTL [OUT_DIR]
set -euo pipefail

LEAKCTL="${1:?usage: kernel_parity.sh LEAKCTL [OUT_DIR]}"
OUT_DIR="${2:-kernel-parity}"
PATHS=64

SCENARIOS=(bouncing-mc attack-lifetime population-ensemble partition-trials
           semiactive-sweep slot-protocol)
BLOCKS=(1 64)
THREADS=(1 4)

mkdir -p "${OUT_DIR}"

normalize() {
  python3 - "$1" "$2" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
report.pop("meta", None)
for knob in ("threads", "block"):
    report.get("params", {}).pop(knob, None)
with open(sys.argv[2], "w") as fh:
    json.dump(report, fh, sort_keys=True, separators=(",", ":"))
EOF
}

failures=0
for scenario in "${SCENARIOS[@]}"; do
  ref="${OUT_DIR}/${scenario}-ref.json"
  "${LEAKCTL}" run "${scenario}" --paths "${PATHS}" --threads 1 --block 1 \
      --json "${ref}.raw" --quiet > /dev/null
  normalize "${ref}.raw" "${ref}"
  for block in "${BLOCKS[@]}"; do
    for threads in "${THREADS[@]}"; do
      [[ "${block}" == 1 && "${threads}" == 1 ]] && continue
      cell="${OUT_DIR}/${scenario}-b${block}-t${threads}.json"
      "${LEAKCTL}" run "${scenario}" --paths "${PATHS}" \
          --threads "${threads}" --block "${block}" \
          --json "${cell}.raw" --quiet > /dev/null
      normalize "${cell}.raw" "${cell}"
      if cmp -s "${ref}" "${cell}"; then
        echo "ok   ${scenario} block=${block} threads=${threads}"
      else
        echo "FAIL ${scenario} block=${block} threads=${threads}:" \
             "report differs from block=1 threads=1" >&2
        failures=$((failures + 1))
      fi
    done
  done
done

if [[ "${failures}" -gt 0 ]]; then
  echo "kernel parity: ${failures} grid cell(s) diverged" >&2
  exit 1
fi
echo "kernel parity: all ${#SCENARIOS[@]} drivers bit-identical across" \
     "block x threads grid"
