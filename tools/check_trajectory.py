#!/usr/bin/env python3
"""Cross-PR benchmark trajectory: append-only, CRC-framed, checkable.

`bench/run_benchmarks.sh` produces BENCH_results.json -- a one-shot
snapshot.  This tool turns those snapshots into a trajectory: each
`append` adds one framed record to `bench/trajectory.jsonl`, and
`check` compares a fresh snapshot against each benchmark's newest
committed figure, failing when any benchmark's cpu time regressed
beyond --max-regress.

The store uses the exact line framing of the serve results store
(src/serve/store.hpp): `<8-hex crc32> <compact JSON>\\n`, crc32 over
the JSON bytes with the zlib polynomial -- so Python's zlib.crc32
validates records written by the C++ side and vice versa, and a torn
tail (crash mid-append) invalidates only the last line.

Usage:
  tools/check_trajectory.py append RESULTS_JSON [--label TEXT]
                                   [--only REGEX] [--binary NAME]
  tools/check_trajectory.py check  RESULTS_JSON [--max-regress 1.5]
                                   [--only REGEX] [--binary NAME]
  tools/check_trajectory.py show

`check --only REGEX` restricts the comparison to the benchmark keys
matching REGEX (e.g. the four driver throughput benchmarks), so a
targeted CI gate is not failed by unrelated noisy microbenchmarks.
Keys are `binary::benchmark_name`; a raw --benchmark_out JSON from a
single binary carries no "binary" field, so pass --binary NAME to
supply it (run_benchmarks.sh injects the field when merging).

A snapshot taken with --benchmark_repetitions=N records each
benchmark's median aggregate rather than its last repetition.

`append --only REGEX` records just the matching benchmarks, e.g. the
ones a change re-measured.  Every other benchmark keeps its figure from
the older record that holds it, since `check` takes each benchmark's
figure from the newest record that has one.

Common flags: [--store bench/trajectory.jsonl]
"""

import argparse
import json
import pathlib
import re
import sys
import zlib

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_STORE = REPO_ROOT / "bench" / "trajectory.jsonl"

# Multipliers to nanoseconds for google-benchmark time units.
TIME_UNITS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def frame(payload):
    body = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    crc = zlib.crc32(body.encode()) & 0xFFFFFFFF
    return f"{crc:08x} {body}\n"


def unframe(line):
    """Return the decoded payload, or None for an invalid/torn line."""
    if len(line) < 10 or line[8] != " ":
        return None
    try:
        crc = int(line[:8], 16)
    except ValueError:
        return None
    body = line[9:].rstrip("\n")
    if zlib.crc32(body.encode()) & 0xFFFFFFFF != crc:
        return None
    try:
        return json.loads(body)
    except json.JSONDecodeError:
        return None


def scan(store):
    """All valid records up to the first invalid line (torn tail)."""
    if not store.exists():
        return []
    records = []
    for i, line in enumerate(store.read_text().splitlines(keepends=True)):
        payload = unframe(line)
        if payload is None or not line.endswith("\n"):
            print(
                f"note: {store}: ignoring torn/invalid tail at line {i + 1}",
                file=sys.stderr,
            )
            break
        records.append(payload)
    return records


def snapshot(results_path, label, binary=None):
    """Distill BENCH_results.json into one trajectory record.  A run
    with --benchmark_repetitions contributes each benchmark's median
    aggregate; the other aggregates are skipped."""
    data = json.loads(pathlib.Path(results_path).read_text())
    benches = {}
    medians = {}
    for b in data.get("benchmarks", []):
        median = b.get("run_type") == "aggregate"
        if median and b.get("aggregate_name") != "median":
            continue
        unit = TIME_UNITS.get(b.get("time_unit", "ns"))
        if unit is None or "cpu_time" not in b:
            continue
        name = b.get("run_name", b["name"]) if median else b["name"]
        key = f"{b.get('binary', binary or '?')}::{name}"
        (medians if median else benches)[key] = round(b["cpu_time"] * unit, 3)
    benches.update(medians)
    if not benches:
        sys.exit(f"error: {results_path} contains no benchmark timings")
    context = data.get("context", {})
    return {
        "label": label,
        "date": context.get("date", ""),
        "host": context.get("host_name", ""),
        "cpu_time_ns": benches,
    }


def select(benches, only):
    """The benchmarks whose key matches the regex `only` (all if None)."""
    if only is None:
        return benches
    pattern = re.compile(only)
    return {k: v for k, v in benches.items() if pattern.search(k)}


def latest_figures(records):
    """Each benchmark's cpu time in the newest record that holds it."""
    figures = {}
    for rec in records:
        figures.update(rec["cpu_time_ns"])
    return figures


def cmd_append(args):
    record = snapshot(args.results, args.label, args.binary)
    record["cpu_time_ns"] = select(record["cpu_time_ns"], args.only)
    if not record["cpu_time_ns"]:
        sys.exit(f"error: no benchmarks in {args.results} match"
                 f" --only {args.only!r}")
    with open(args.store, "a") as fh:
        fh.write(frame(record))
    print(
        f"appended to {args.store}: {len(record['cpu_time_ns'])} benchmarks"
        f" (record {len(scan(args.store))})"
    )


def cmd_check(args):
    records = scan(args.store)
    if not records:
        sys.exit(
            f"error: {args.store} has no valid records - seed it with "
            "`tools/check_trajectory.py append BENCH_results.json`"
        )
    base = latest_figures(records)
    fresh = select(snapshot(args.results, "check", args.binary)["cpu_time_ns"],
                   args.only)
    shared = sorted(set(base) & set(fresh))
    if not shared:
        sys.exit("error: no benchmarks in common with the trajectory"
                 + (f" matching --only {args.only!r}" if args.only else ""))
    regressions = []
    for key in shared:
        if base[key] > 0 and fresh[key] > base[key] * args.max_regress:
            regressions.append((key, base[key], fresh[key]))
    print(
        f"{len(shared)} benchmarks compared against their newest figures"
        f" in {len(records)} records"
    )
    if regressions:
        for key, old, new in regressions:
            print(
                f"  REGRESSED {key}: {old:.0f}ns -> {new:.0f}ns"
                f" ({new / old:.2f}x, limit {args.max_regress:.2f}x)",
                file=sys.stderr,
            )
        sys.exit(f"error: {len(regressions)} benchmark(s) regressed")
    print(f"no regression beyond {args.max_regress:.2f}x")


def cmd_show(args):
    for i, rec in enumerate(scan(args.store), start=1):
        print(
            f"{i:3d}  {rec.get('date', ''):25s} "
            f"{rec.get('label') or 'unlabelled':20s} "
            f"{len(rec.get('cpu_time_ns', {}))} benchmarks"
        )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--store", type=pathlib.Path, default=DEFAULT_STORE)
    sub = ap.add_subparsers(dest="command", required=True)
    p = sub.add_parser("append", help="record a BENCH_results.json snapshot")
    p.add_argument("results")
    p.add_argument("--label", default="")
    p.add_argument(
        "--only", default=None,
        help="record only the keys matching this regex",
    )
    p.add_argument(
        "--binary", default=None,
        help="binary name for raw single-binary reports",
    )
    p.set_defaults(func=cmd_append)
    p = sub.add_parser("check", help="compare a snapshot to the trajectory")
    p.add_argument("results")
    p.add_argument(
        "--max-regress", type=float, default=1.5,
        help="fail when cpu time exceeds the newest figure by this factor",
    )
    p.add_argument(
        "--only", default=None,
        help="restrict the comparison to keys matching this regex",
    )
    p.add_argument(
        "--binary", default=None,
        help="binary name for raw single-binary reports (keys are "
             "binary::benchmark; merged reports carry the field already)",
    )
    p.set_defaults(func=cmd_check)
    p = sub.add_parser("show", help="list the recorded trajectory")
    p.set_defaults(func=cmd_show)
    args = ap.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
