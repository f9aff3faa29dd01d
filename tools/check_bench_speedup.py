#!/usr/bin/env python3
"""Gate a Google Benchmark JSON report on speedup ratios.

Two modes, both used by CI:

Pair mode (the original interface) gates one baseline/candidate pair —
the bench-smoke job runs it on bench_fig9_stake_distribution:

    check_bench_speedup.py REPORT.json \
        --baseline BM_MonteCarloScalarRef \
        --candidate 'BM_MonteCarloBlockSize/64' \
        [--min-ratio 1.1]

Driver mode gates the whole per-driver table emitted by
bench_kernel_speedup: every Monte Carlo driver's batched kernel must
beat its scalar oracle by that driver's threshold, all on the same
runner in the same report:

    check_bench_speedup.py REPORT.json --drivers [--min-ratio 1.1]

The ratio is candidate items_per_second / baseline items_per_second
(each pair processes identical items, so this is the throughput
speedup directly).  In pair mode every benchmark whose name matches
--candidate as a prefix is reported and the gate applies to the best
one, so transient noise on one block size cannot fail a run that has a
faster cell.  In driver mode each pair is exact-name matched and every
driver must pass; --min-ratio raises (never lowers) the per-driver
floors.
"""

import argparse
import json
import sys

# Driver gate table: driver -> (scalar oracle benchmark, batched
# benchmark, minimum items/sec ratio).  The pairs live in
# bench/bench_kernel_speedup.cpp and share their workload member for
# member.  Floors are deliberately below the locally measured speedups
# (see README.md "Performance") to absorb runner noise: the gate
# exists to catch the batched path regressing to (or below) scalar
# speed, not to pin the exact ratio.  The partition floor is 10x: its
# class-aggregated core does O(classes) work per epoch against the
# oracle's O(validators) (30-49x on the 200-validator workload), so a
# fall to 10x means the per-validator sweep is back.
DRIVER_GATES = {
    "bouncing": ("BM_BouncingScalarRef", "BM_BouncingBatch", 1.1),
    "attack": ("BM_AttackScalarRef", "BM_AttackBatch", 1.1),
    "population": ("BM_PopulationScalarRef", "BM_PopulationBatch", 1.1),
    "partition": ("BM_PartitionScalarRef", "BM_PartitionBatch", 10.0),
}


def items_per_second(bench):
    ips = bench.get("items_per_second")
    if ips is None:
        raise SystemExit(
            f"benchmark {bench.get('name')} has no items_per_second "
            "(missing SetItemsProcessed?)")
    return float(ips)


def find_exact(benches, name, report):
    hits = [b for b in benches if b.get("name") == name]
    if not hits:
        raise SystemExit(f"benchmark {name!r} not in {report}")
    return hits[0]


def check_pair(benches, args):
    base_ips = items_per_second(find_exact(benches, args.baseline,
                                           args.report))

    candidates = [b for b in benches
                  if b.get("name", "").startswith(args.candidate)]
    if not candidates:
        raise SystemExit(f"candidate {args.candidate!r} not in {args.report}")

    best_ratio = 0.0
    print(f"baseline  {args.baseline}: {base_ips:.3e} items/sec")
    for bench in candidates:
        ratio = items_per_second(bench) / base_ips
        best_ratio = max(best_ratio, ratio)
        print(f"candidate {bench['name']}: "
              f"{items_per_second(bench):.3e} items/sec ({ratio:.2f}x)")

    if best_ratio < args.min_ratio:
        print(f"FAIL: best speedup {best_ratio:.2f}x < required "
              f"{args.min_ratio:.2f}x", file=sys.stderr)
        return 1
    print(f"OK: best speedup {best_ratio:.2f}x >= {args.min_ratio:.2f}x")
    return 0


def check_drivers(benches, args):
    failures = []
    print(f"{'driver':<12} {'scalar items/s':>14} {'batched items/s':>15} "
          f"{'ratio':>7} {'floor':>7}")
    for driver, (scalar, batched, floor) in DRIVER_GATES.items():
        floor = max(floor, args.min_ratio)
        scalar_ips = items_per_second(find_exact(benches, scalar,
                                                 args.report))
        batched_ips = items_per_second(find_exact(benches, batched,
                                                  args.report))
        ratio = batched_ips / scalar_ips
        verdict = "ok" if ratio >= floor else "FAIL"
        print(f"{driver:<12} {scalar_ips:>14.3e} {batched_ips:>15.3e} "
              f"{ratio:>6.2f}x {floor:>6.2f}x  {verdict}")
        if ratio < floor:
            failures.append(f"{driver}: {ratio:.2f}x < {floor:.2f}x")

    if failures:
        print("FAIL: " + "; ".join(failures), file=sys.stderr)
        return 1
    print(f"OK: all {len(DRIVER_GATES)} drivers meet their speedup floors")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report", help="--benchmark_out JSON file")
    parser.add_argument("--drivers", action="store_true",
                        help="gate every per-driver pair in DRIVER_GATES "
                             "instead of a single baseline/candidate pair")
    parser.add_argument("--baseline",
                        help="exact benchmark name of the baseline "
                             "(pair mode)")
    parser.add_argument("--candidate",
                        help="benchmark name (prefix) of the candidate(s) "
                             "(pair mode)")
    parser.add_argument("--min-ratio", type=float, default=1.1,
                        help="minimum candidate/baseline items/sec ratio; "
                             "in driver mode, raises any lower per-driver "
                             "floor (default 1.1)")
    args = parser.parse_args()

    if args.drivers == bool(args.baseline or args.candidate):
        parser.error("use either --drivers or --baseline/--candidate")
    if not args.drivers and not (args.baseline and args.candidate):
        parser.error("pair mode needs both --baseline and --candidate")

    with open(args.report, encoding="utf-8") as fh:
        benches = json.load(fh).get("benchmarks", [])

    if args.drivers:
        return check_drivers(benches, args)
    return check_pair(benches, args)


if __name__ == "__main__":
    sys.exit(main())
