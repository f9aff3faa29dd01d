#!/usr/bin/env python3
"""End-to-end leakctl contracts, each run by one ctest.

    leakctl_contracts.py LEAKCTL CONTRACT

CONTRACT is one of:

  serve          (tools.serve_contract) A sweep job cut by a 2-cell
                 budget, whose results store then gets a torn record
                 tail, resumes (reporting the tail) to canonical merged
                 results byte-identical to a clean run's.  `results`
                 fails while the job is incomplete, and resuming a
                 complete job executes 0 cells.  `submit --workers
                 4294967296` is rejected (not wrapped to 0), and a
                 resume whose manifest.json gained an unknown key fails
                 naming the key; `status` and `serve --once` over that
                 jobs dir report the broken job and exit nonzero while
                 still serving the other one.  `submit` of a fault
                 schedule `run` refuses (partition branches not
                 contiguous from 1) fails with run's message and writes
                 no job.
  search         (tools.search_contract) A journaled search cut by a
                 3-candidate budget, plus a torn journal tail, resumes
                 (reporting the tail) to a journal byte-identical to a
                 clean run's, with the same best and baseline.  A
                 re-run makes 0 fresh evaluations.
  faults         (tools.faults_contract) Both fault scenarios run at
                 --paths 64, and examples/schedules/{cascade,flaky}.json
                 loaded with --faults give the metrics, stats and trials
                 of the equivalent knob run and are recorded in params.
                 A run and a sweep with `--json -` (report not quieted)
                 print one JSON document on stdout, equal to the --json
                 FILE report, and `--json - --csv -` is refused.
  cli            (tools.cli_contract) Each command accepts exactly its
                 own options (ACCEPTS): it refuses every other one with
                 `unknown option` before running anything, so the once
                 accepted `serve --once --params ...`, `status
                 --max-cells ...` and `submit ... --csv x.csv --once`
                 exit 2 and write nothing.  A value option given last
                 fails with `needs a value`, and the option headings of
                 the usage text match ACCEPTS.
  kernel-parity  (tools.kernel_parity) Every Monte Carlo driver, the
                 rows-dropping (keep_paths = false) semiactive-sweep and
                 the slot-trial slot-protocol report the same bytes at
                 every block in {1, 64, 0 (auto)} x threads in {1, 4}
                 as at block 1, threads 1; bouncing-mc, attack-lifetime
                 and population-ensemble also at p0 = 0 and p0 = 1, the
                 ends of the kernels' integer Bernoulli cut.

Reports (and sweep cells) compare without their `meta` block (wall
time, resolved thread count) and the `threads`/`block` params, which
are not results.  Each contract works in a fresh temp dir and exits 1
on the first broken assertion (kernel-parity first reports every grid
cell).
"""

import itertools
import json
import pathlib
import subprocess
import sys
import tempfile
import zlib

REPO = pathlib.Path(__file__).resolve().parent.parent
FANOUT_KNOBS = ("threads", "block")
TORN_TAIL = b'12345678 {"half'  # a record cut mid-append, no newline


class ContractError(Exception):
    pass


def expect(ok, message):
    if not ok:
        raise ContractError(message)


def strip(doc):
    """A report (and each sweep cell's) minus its meta block and fan-out
    knobs."""
    doc.pop("meta", None)
    for knob in FANOUT_KNOBS:
        doc.get("params", {}).pop(knob, None)
    for cell in doc.get("cells", []):
        strip(cell)
    return doc


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
        doc = strip(json.loads(out.read_text(encoding="utf-8")))
        return (doc, proc.stderr) if stderr else doc

    def stdout_report(self, *args):
        """Run leakctl with `--json -` and the human report on; stdout
        must parse as one JSON document.  Returns it minus meta and the
        fan-out knobs."""
        proc = self(*args, "--json", "-")
        try:
            doc = json.loads(proc.stdout)
        except json.JSONDecodeError as err:
            raise ContractError(f"{' '.join(map(str, args))} --json -: "
                                f"stdout is not one JSON document ({err})")
        expect(proc.stderr, f"{' '.join(map(str, args))} --json -: the "
                            "human-readable report is missing from stderr")
        return strip(doc)


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
    # A served job and a foreground sweep write one document and one CSV.
    sweep = ["sweep", *job[:job.index("--workers")]]
    served = strip(json.loads(merged(clean)))
    served.pop("job", None)
    expect(same(leakctl.report(*sweep), served),
           "results --canonical --json differs from the sweep --json report")
    csvs = leakctl.work / "sweep.csv", leakctl.work / "results.csv"
    leakctl(*sweep, "--csv", csvs[0], "--quiet")
    leakctl("results", job_id, "--jobs-dir", clean, "--csv", csvs[1])
    expect(csvs[0].read_bytes() == csvs[1].read_bytes(),
           f"results --csv differs from sweep --csv:\n"
           f"{csvs[0].read_text()}\n{csvs[1].read_text()}")
    rerun = leakctl("resume", job_id, "--jobs-dir", hostile).stdout
    expect(" 0 executed" in rerun,
           f"resume of a complete job executed cells: {rerun}")
    # 2^32 truncates to 0 workers: the value must be refused, never cast.
    wide = leakctl("submit", *job[:-2], "--workers", 2**32, "--jobs-dir",
                   leakctl.work / "wide", ok=False)
    expect(wide.returncode != 0 and "--workers" in wide.stderr,
           f"submit --workers 2^32 was not rejected: {wide.stderr!r}")
    small = leakctl("submit", "bouncing-mc", "--set", "paths=64",
                    "--set", "epochs=100", "--jobs-dir", clean).stdout
    small_id = small.split()[1]
    manifest = clean / job_id / "manifest.json"
    edited = json.loads(manifest.read_text(encoding="utf-8"))
    edited["zebra"] = 1
    manifest.write_text(json.dumps(edited, indent=2) + "\n", encoding="utf-8")
    stray = leakctl("resume", job_id, "--jobs-dir", clean, ok=False)
    expect(stray.returncode != 0 and '"zebra"' in stray.stderr,
           f"resume accepted a manifest with an unknown key: "
           f"{stray.stderr!r}")
    # The broken job must be listed, not silently dropped.
    for argv in (("status",), ("serve", "--once")):
        listed = leakctl(*argv, "--jobs-dir", clean, ok=False)
        expect(listed.returncode != 0 and job_id in listed.stderr
               and '"zebra"' in listed.stderr,
               f"{argv[0]} hid the broken job: exit {listed.returncode}, "
               f"stderr {listed.stderr!r}")
        expect(small_id in listed.stdout,
               f"{argv[0]} dropped the loadable job: {listed.stdout!r}")
    # A record re-framed with an edited fingerprint: status fails as
    # resume does, instead of counting the cell as missing.
    forged = leakctl.work / "forged"
    leakctl("submit", "duty-cycle", "--sweep", "k_max=2,3", "--jobs-dir",
            forged)
    forged_id = next(forged.iterdir()).name
    leakctl("resume", forged_id, "--jobs-dir", forged, "--max-cells", 1)
    ledger = forged / forged_id / "results.jsonl"
    record = json.loads(ledger.read_text(encoding="utf-8")[9:])
    record["fp"] = "00000000"
    body = json.dumps(record, separators=(",", ":"))
    ledger.write_text(f"{zlib.crc32(body.encode()):08x} {body}\n",
                      encoding="utf-8")
    for argv in (("status", forged_id), ("resume", forged_id)):
        refused = leakctl(*argv, "--jobs-dir", forged, ok=False)
        expect(refused.returncode != 0
               and "fingerprint mismatch" in refused.stderr,
               f"{argv[0]} accepted a forged record: exit "
               f"{refused.returncode}, stderr {refused.stderr!r}")
    # A job whose run fails (its ledger cannot be appended to) fails
    # `serve --once`.
    ledger.unlink()
    ledger.mkdir()
    served = leakctl("serve", "--once", "--jobs-dir", forged, ok=False)
    expect(served.returncode == 2 and "append failed" in served.stderr,
           f"serve --once over a failing job: exit {served.returncode}, "
           f"stderr {served.stderr!r}")
    # Branch 3 opening without 1 and 2: submit must refuse what run does.
    gapped = ("faults={\"version\":1,\"events\":[{\"kind\":"
              "\"partition-open\",\"epoch\":1,\"branch\":3}]}")
    ran = leakctl("run", "partition-trials", "--set", gapped, "--paths", 4,
                  "--quiet", ok=False)
    gapped_dir = leakctl.work / "gapped"
    queued = leakctl("submit", "partition-trials", "--set", gapped,
                     "--jobs-dir", gapped_dir, ok=False)
    contiguous = "branch ids must be contiguous from 1"
    expect(ran.returncode != 0 and contiguous in ran.stderr,
           f"run accepted a gapped schedule: {ran.stderr!r}")
    expect(queued.returncode != 0 and queued.stderr == ran.stderr,
           f"submit of a gapped schedule: exit {queued.returncode}, "
           f"stderr {queued.stderr!r}, run said {ran.stderr!r}")
    expect(not gapped_dir.exists() or not any(gapped_dir.iterdir()),
           "a refused submit wrote a job directory")
    print("ok   serve: cut + torn job resumes byte-identical and equals "
          "the foreground sweep (JSON and CSV); a complete job re-runs 0 "
          "cells; an oversized --workers and an unknown manifest key are "
          "refused; status and serve report a broken job; a forged record "
          "fails status; a failing run fails serve --once; submit refuses "
          "a schedule run refuses")


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
    run = ["run", "flaky-network", "--paths", 4, *flaky_sets]
    sweep = ["sweep", "flaky-network", "--paths", 2, *flaky_sets,
             "--sweep", "loss_drop=0.1,0.2"]
    for argv in (run, sweep):
        expect(same(leakctl.report(*argv), leakctl.stdout_report(*argv)),
               f"{argv[0]} --json - printed a different document than "
               "--json FILE wrote")
    both = leakctl(*run, "--json", "-", "--csv", "-", ok=False)
    expect(both.returncode == 2 and "--csv -" in both.stderr,
           f"--json - --csv - was not refused: exit {both.returncode}, "
           f"{both.stderr!r}")
    print("ok   faults: --json - prints one stdout document for run and "
          "sweep; --json - --csv - refused")


# The options each command reads; it must refuse every other one.
SCENARIO_IN = "--set --paths --seed --threads --block --faults"
ACCEPTS = {
    "list": "--json --names",
    "describe": "--json",
    "run": f"{SCENARIO_IN} --params --json --csv --quiet",
    "sweep": f"{SCENARIO_IN} --sweep --vary-seed --parallel-cells --json "
             "--csv --quiet",
    "search": f"{SCENARIO_IN} --axis --budget --patience --search-threads "
              "--journal --boost-report --boost-percent --json --out --csv "
              "--quiet",
    "submit": f"{SCENARIO_IN} --params --sweep --vary-seed --workers "
              "--max-retries --jobs-dir",
    "status": "--json --jobs-dir",
    "resume": "--workers --max-retries --max-cells --quiet --jobs-dir",
    "results": "--canonical --json --csv --jobs-dir",
    "serve": "--once --poll-ms --workers --max-retries --max-cells --quiet "
             "--jobs-dir",
}
POSITIONALS = {"describe": ["recovery"], "run": ["recovery"],
               "sweep": ["recovery"], "search": ["semiactive-duty"],
               "submit": ["recovery"], "resume": ["0"], "results": ["0"]}


def usage_options(leakctl):
    """{command: its options} from the option headings of the usage
    text (" run, sweep:" lines, each followed by "  --flag" lines)."""
    text = leakctl(ok=False).stderr
    options, heading = {}, []
    for line in text.splitlines():
        if line.startswith(" ") and not line.startswith("  "):
            heading = line.strip().rstrip(":").split(", ")
        elif line.startswith("  --") and heading:
            for verb in heading:
                options.setdefault(verb, set()).add(line.split()[0])
    return options


def cli(leakctl):
    jobs_dir, csv = leakctl.work / "jobs", leakctl.work / "x.csv"
    # Foreign options that were once accepted and silently dropped.
    for argv in (("serve", "--once", "--params", "/nonexistent.json",
                  "--canonical", "--jobs-dir", jobs_dir),
                 ("status", "--max-cells", 3, "--sweep", "zebra=1",
                  "--jobs-dir", jobs_dir),
                 ("submit", "duty-cycle", "--csv", csv, "--once",
                  "--jobs-dir", jobs_dir)):
        got = leakctl(*argv, ok=False)
        expect(got.returncode == 2 and "unknown option" in got.stderr,
               f"{' '.join(map(str, argv))}: exit {got.returncode}, "
               f"stderr {got.stderr!r}")
    expect(not csv.exists(), "a refused submit --csv wrote its file")
    expect(not jobs_dir.exists(), "a refused command wrote a jobs dir")
    got = leakctl("run", "recovery", "--paths", ok=False)
    expect(got.returncode == 2 and "--paths needs a value" in got.stderr,
           f"run --paths without a value: exit {got.returncode}, "
           f"stderr {got.stderr!r}")
    accepts = {verb: set(flags.split()) for verb, flags in ACCEPTS.items()}
    every = set().union(*accepts.values())
    refused = 0
    for verb, flags in sorted(accepts.items()):
        for flag in sorted(every - flags):
            argv = [verb, *POSITIONALS.get(verb, []), flag]
            got = leakctl(*argv, ok=False)
            expect(got.returncode == 2
                   and f'unknown option "{flag}"' in got.stderr,
                   f"{' '.join(argv)}: exit {got.returncode}, "
                   f"stderr {got.stderr!r}")
            refused += 1
    listed = usage_options(leakctl)
    expect(listed == accepts,
           f"usage lists other options than ACCEPTS: {listed}")
    print(f"ok   cli: {refused} foreign (command, option) pairs refused; "
          "a value option without its value refused; usage lists each "
          "command's options")


def kernel_parity(leakctl):
    scenarios = ("bouncing-mc", "attack-lifetime", "population-ensemble",
                 "partition-trials", "semiactive-sweep", "slot-protocol")
    cases = [(scenario, []) for scenario in scenarios]
    cases += [(scenario, ["--set", f"p0={p0}"])
              for scenario in scenarios[:3] for p0 in (0, 1)]
    diverged = 0
    for scenario, sets in cases:
        run = ["run", scenario, "--paths", 64, *sets]
        label = " ".join([scenario, *sets[1::2]])
        ref = leakctl.report(*run, "--block", 1, "--threads", 1)
        for block, threads in ((1, 4), (64, 1), (64, 4), (0, 1), (0, 4)):
            ok = same(ref, leakctl.report(*run, "--block", block,
                                          "--threads", threads))
            diverged += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {label} block={block} "
                  f"threads={threads}")
    expect(not diverged, f"{diverged} grid cell(s) differ from "
                         "block=1 threads=1")
    print(f"ok   kernel-parity: {len(cases)} scenario runs byte-identical "
          "across block x threads")


CONTRACTS = {"serve": serve, "search": search, "faults": faults,
             "cli": cli, "kernel-parity": kernel_parity}


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
