#!/usr/bin/env python3
"""End-to-end leakctl contracts, each run by one ctest.

    leakctl_contracts.py LEAKCTL CONTRACT

CONTRACT is one of:

  serve          (tools.serve_contract) A sweep job cut by a 2-cell
                 budget, whose results store then gets a torn record
                 tail, resumes (reporting the tail) to canonical merged
                 results byte-identical to a clean run's.  `results`
                 fails while the job is incomplete, and resuming a
                 complete job executes 0 cells.
  search         (tools.search_contract) A journaled search cut by a
                 3-candidate budget, plus a torn journal tail, resumes
                 (reporting the tail) to a journal byte-identical to a
                 clean run's, with the same best and baseline.  A
                 re-run makes 0 fresh evaluations.
  faults         (tools.faults_contract) Both fault scenarios run at
                 --paths 64, and examples/schedules/{cascade,flaky}.json
                 loaded with --faults give the metrics, stats and trials
                 of the equivalent knob run and are recorded in params.
  kernel-parity  (tools.kernel_parity) Every Monte Carlo driver, the
                 run_reduce-folded semiactive-sweep and the slot-trial
                 slot-protocol report the same bytes at every block in
                 {1, 64} x threads in {1, 4} as at block 1, threads 1.

Reports compare without their `meta` block (wall time, resolved thread
count) and the `threads`/`block` params, which are not results.  Each
contract works in a fresh temp dir and exits 1 on the first broken
assertion (kernel-parity first reports every grid cell).
"""

import itertools
import json
import pathlib
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent
FANOUT_KNOBS = ("threads", "block")
TORN_TAIL = b'12345678 {"half'  # a record cut mid-append, no newline


class ContractError(Exception):
    pass


def expect(ok, message):
    if not ok:
        raise ContractError(message)


class Leakctl:
    """Runs one leakctl binary with its files in one work dir."""

    def __init__(self, exe, work):
        self.exe, self.work = exe, work
        self.reports = itertools.count()

    def __call__(self, *args, ok=True):
        """Run leakctl; with ok=True a nonzero exit breaks the contract."""
        argv = [self.exe, *map(str, args)]
        proc = subprocess.run(argv, capture_output=True, text=True,
                              check=False)
        if ok:
            expect(proc.returncode == 0,
                   f"{' '.join(argv[1:])} exited {proc.returncode}:\n"
                   f"{proc.stderr}")
        return proc

    def report(self, *args, stderr=False):
        """Run leakctl with `--json FILE --quiet`; load the report minus
        its meta block and fan-out knobs.  With stderr=True, return
        (report, the run's stderr)."""
        out = self.work / f"report-{next(self.reports)}.json"
        proc = self(*args, "--json", out, "--quiet")
        doc = json.loads(out.read_text(encoding="utf-8"))
        doc.pop("meta", None)
        for knob in FANOUT_KNOBS:
            doc.get("params", {}).pop(knob, None)
        return (doc, proc.stderr) if stderr else doc


def same(want, got):
    """Bitwise equality: floats compare by repr, so 0.0 != -0.0."""
    return json.dumps(want, sort_keys=True) == json.dumps(got, sort_keys=True)


def tear(path):
    with open(path, "ab") as fh:
        fh.write(TORN_TAIL)


def serve(leakctl):
    job = ["bouncing-mc", "--set", "paths=200", "--set", "epochs=800",
           "--sweep", "beta0=0.3,0.33,0.35", "--sweep", "p0=0.4,0.5",
           "--workers", "2"]
    clean, hostile = leakctl.work / "clean", leakctl.work / "hostile"

    def merged(store):
        out = store / "merged.json"
        leakctl("results", job_id, "--jobs-dir", store, "--canonical",
                "--json", out)
        return out.read_bytes()

    leakctl("submit", *job, "--jobs-dir", clean)
    job_id = json.loads(
        leakctl("status", "--jobs-dir", clean, "--json").stdout)[0]["id"]
    leakctl("resume", job_id, "--jobs-dir", clean)
    leakctl("submit", *job, "--jobs-dir", hostile)
    leakctl("resume", job_id, "--jobs-dir", hostile, "--max-cells", 2)
    expect(leakctl("results", job_id, "--jobs-dir", hostile, "--json", "-",
                   ok=False).returncode != 0,
           "an interrupted job already has a merged result")
    tear(hostile / job_id / "results.jsonl")
    repair = leakctl("resume", job_id, "--jobs-dir", hostile).stderr
    expect("torn tail" in repair, "resume did not report the torn tail")
    expect(merged(clean) == merged(hostile),
           "resumed merged result differs from the clean run")
    rerun = leakctl("resume", job_id, "--jobs-dir", hostile).stdout
    expect(" 0 executed" in rerun,
           f"resume of a complete job executed cells: {rerun}")
    print("ok   serve: cut + torn job resumes byte-identical; "
          "a complete job re-runs 0 cells")


def search(leakctl):
    args = ["search", "semiactive-sweep:beta_max:max",
            "--axis", "branches=2:6:1", "--axis", "beta0=0.26:0.34:0.02",
            "--set", "paths=16", "--set", "epochs=200"]
    clean = leakctl.work / "clean.jsonl"
    hostile = leakctl.work / "hostile.jsonl"
    ref = leakctl.report(*args, "--budget", 12, "--journal", clean)
    leakctl(*args, "--budget", 3, "--journal", hostile, "--quiet")
    torn_at = hostile.stat().st_size
    tear(hostile)
    res, repair = leakctl.report(*args, "--budget", 12, "--journal", hostile,
                                 stderr=True)
    expect(f"torn tail at byte {torn_at} ({len(TORN_TAIL)} bytes dropped)"
           in repair, f"resume did not report the torn tail: {repair!r}")
    expect(clean.read_bytes() == hostile.read_bytes(),
           "resumed journal differs from the clean run's")
    expect(ref["best"]["value"] is not None, "search produced no best value")
    expect(same(ref["best"], res["best"]),
           "resumed search picked a different optimum")
    expect(same(ref["baseline"], res["baseline"]),
           "baseline drifted across resume")
    rerun = leakctl.report(*args, "--budget", 12, "--journal", hostile)
    fresh = rerun["evaluations"] - rerun["cache_hits"]
    expect(fresh == 0, f"re-run of a complete search evaluated {fresh}")
    print(f"ok   search: torn tail reported, journals byte-identical, best "
          f"{ref['best']['value']}, re-run replays "
          f"{rerun['cache_hits']} and evaluates 0")


def faults(leakctl):
    leakctl.report("run", "cascading-partitions", "--paths", 64,
                   "--set", "n_validators=90", "--set", "max_epochs=4000",
                   "--set", "heal_epoch=1000", "--set", "heal_stagger=200",
                   "--set", "open_stagger=100")
    flaky_sets = ["--set", "n_honest=16", "--set", "epochs=8"]
    leakctl.report("run", "flaky-network", "--paths", 64, *flaky_sets)
    # Non-geometry knobs only: the schedules encode the default geometry.
    for scenario, schedule, sets in (
            ("cascading-partitions", "cascade.json",
             ["--set", "n_validators=120", "--set", "max_epochs=6000"]),
            ("flaky-network", "flaky.json", flaky_sets)):
        run = ["run", scenario, "--paths", 4, *sets]
        knobs = leakctl.report(*run)
        scripted = leakctl.report(
            *run, "--faults", REPO / "examples" / "schedules" / schedule)
        for key in ("metrics", "stats", "trials"):
            expect(same(knobs.get(key), scripted.get(key)),
                   f"{scenario}: {key} differ between knob and "
                   f"--faults {schedule} runs")
        expect(scripted["params"].get("faults"),
               f"{scenario}: the --faults run did not record its schedule")
        print(f"ok   faults: {schedule} == {scenario} knob run, "
              "schedule recorded")


def kernel_parity(leakctl):
    scenarios = ("bouncing-mc", "attack-lifetime", "population-ensemble",
                 "partition-trials", "semiactive-sweep", "slot-protocol")
    diverged = 0
    for scenario in scenarios:
        run = ["run", scenario, "--paths", 64]
        ref = leakctl.report(*run, "--block", 1, "--threads", 1)
        for block, threads in ((1, 4), (64, 1), (64, 4)):
            ok = same(ref, leakctl.report(*run, "--block", block,
                                          "--threads", threads))
            diverged += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {scenario} block={block} "
                  f"threads={threads}")
    expect(not diverged, f"{diverged} grid cell(s) differ from "
                         "block=1 threads=1")
    print(f"ok   kernel-parity: {len(scenarios)} scenarios byte-identical "
          "across block x threads")


CONTRACTS = {"serve": serve, "search": search, "faults": faults,
             "kernel-parity": kernel_parity}


def main():
    if len(sys.argv) != 3 or sys.argv[2] not in CONTRACTS:
        print(__doc__, file=sys.stderr)
        return 2
    name = sys.argv[2]
    with tempfile.TemporaryDirectory(prefix=f"leakctl_{name}_") as work:
        try:
            CONTRACTS[name](Leakctl(sys.argv[1], pathlib.Path(work)))
        except ContractError as err:
            print(f"FAIL {name}: {err}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
