#!/usr/bin/env python3
"""Diff `leakctl run` output against the committed scenario baselines.

For every baseline under bench/baselines/ (written by
tools/update_baselines.sh), replay the archived experiment through

    leakctl run <scenario> --params <baseline.json>

and compare the resulting `metrics`, `stats` and `trials` sections
against the baseline with EXACT equality, plus the `params` with their
key order (the scenario spec's declaration order).  The simulators are deterministic given
(seed, params) and bit-identical for every threads/block combination,
so any difference is either silent numeric drift or a bit-identity
break in the batched Monte Carlo kernel — both of which this gate is
meant to catch.  Metadata that legitimately varies per run (wall_ms,
git describe, resolved thread count) is not compared.

Caveat: exactness holds for one platform class.  Metrics that flow
through libm (std::exp/std::log in the analytic closed forms) inherit
the C library's last-bit rounding, and TUs outside the batched kernel
compile with the toolchain's default -ffp-contract, so baselines
generated on x86-64/glibc (the dev container and the CI runners) may
legitimately differ in the last ulp on another libc or on hardware
where the compiler contracts a*b+c.  If this gate ever fails with
last-ulp-sized diffs after a runner-image change, regenerate with
tools/update_baselines.sh rather than hunting a phantom kernel bug.

    check_baselines.py LEAKCTL [BASELINES_DIR]
"""

import json
import pathlib
import subprocess
import sys
import tempfile


def load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def diff_section(name, want, got, failures):
    if want == got:
        return
    keys = sorted(set(want) | set(got))
    for key in keys:
        a, b = want.get(key), got.get(key)
        if a != b:
            failures.append(f"  {name}.{key}: baseline {a!r} != run {b!r}")


def main():
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    leakctl = sys.argv[1]
    baseline_dir = pathlib.Path(
        sys.argv[2] if len(sys.argv) > 2
        else pathlib.Path(__file__).resolve().parent.parent
        / "bench" / "baselines")
    baselines = sorted(baseline_dir.glob("*.json"))
    if not baselines:
        print(f"error: no baselines in {baseline_dir}", file=sys.stderr)
        return 2

    bad = 0
    for path in baselines:
        want = load(path)
        scenario = want["scenario"]
        with tempfile.NamedTemporaryFile(suffix=".json") as out:
            subprocess.run(
                [leakctl, "run", scenario, "--params", str(path),
                 "--quiet", "--json", out.name],
                check=True)
            got = load(out.name)

        failures = []
        diff_section("metrics", want.get("metrics", {}),
                     got.get("metrics", {}), failures)
        diff_section("stats", want.get("stats", {}),
                     got.get("stats", {}), failures)
        if want.get("trials") != got.get("trials"):
            failures.append("  trials: rows differ from the baseline")
        want_params = list(want.get("params", {}).items())
        got_params = list(got.get("params", {}).items())
        if want_params != got_params:
            failures.append("  params: replay did not round-trip (values "
                            "or key order)")
        if failures:
            bad += 1
            print(f"FAIL {scenario} ({path.name}):")
            print("\n".join(failures))
        else:
            n = len(want.get("metrics", {}))
            print(f"ok   {scenario}: {n} metrics, stats, trials exact")

    if bad:
        print(f"{bad}/{len(baselines)} baselines drifted "
              "(tools/update_baselines.sh regenerates them if the change "
              "is intentional)", file=sys.stderr)
        return 1
    print(f"all {len(baselines)} baselines match exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
