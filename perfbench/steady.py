#!/usr/bin/env python3
"""Check that the benchmark is steady: run each workload once per seed and
report, for every end-to-end metric, the median and the spread between
the first and third quartile as a share of the median, against the
metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py --seeds 10 [--workloads slot,jobs] [--out FILE]

A spread under a third of the bound is steady; setup_s is reported but
only its median is bounded.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stdout[-2000:] + r.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {r.returncode}")
    doc = json.loads(lines[-1])
    if not doc["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {doc['failed']} ops failed")
    return {k: v["value"] for k, v in doc["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    steady = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            t0 = time.monotonic()
            for name, v in run(workload, seed, spec["run_seconds"]).items():
                values.setdefault(name, []).append(v)
            print(f"{workload} seed {seed} done in {time.monotonic() - t0:.1f} s",
                  file=sys.stderr, flush=True)
        report[workload] = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ok = name == "setup_s" or spread < bounds[name] / 3
            steady = steady and ok
            report[workload][name] = {"median": med, "q1": q1, "q3": q3,
                                      "spread": spread, "bound": bounds[name],
                                      "values": vals}
            print(f"{workload:10s} {name:13s} median {med:<12.6g} spread "
                  f"{spread:7.4f}  bound {bounds[name]:.2f}  "
                  f"{'ok' if ok else 'WIDE'}", flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
