#!/usr/bin/env python3
"""Repository benchmark: build the library from source, run one workload,
check its outputs, and print its metrics.

    python3 perfbench/run.py --workload slot --seed 1 --seconds 10 --trace 0

Run it from the repository root.  It configures and builds perfbench/
(a CMake project that builds leak_core from the root) into the directory
named by CARGO_TARGET_DIR, else .bench_build, then runs the `perfbench`
binary with LEAK_THREADS, LEAK_BLOCK and LEAK_TEST_PATH_SCALE cleared.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics, and a Chrome trace-event file (open it in
Perfetto) is written under <build>/traces/.  The exit code is non-zero
when any op failed its correctness check.

Other modes:
    --selftest        build and run the benchmark's own logic tests
    --record-golden   re-record perfbench/golden.json at the default seed
    --golden FILE     check against another golden file (default: ours)
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
PINNED_ENV = ("LEAK_THREADS", "LEAK_BLOCK", "LEAK_TEST_PATH_SCALE")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(bdir):
    """Configure (once) and build perfbench; returns the binary dir."""
    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"no program sources here ({need} missing under {ROOT})")
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "perfbench-build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", bdir, *gen,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(f"build failed: {' '.join(cmd)} (log: {log_path})")
    return bdir


def read_file(path, default=""):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return default


def cmake_cache(bdir):
    out = {}
    for line in read_file(os.path.join(bdir, "CMakeCache.txt")).splitlines():
        if ":" in line and "=" in line and not line.startswith(("//", "#")):
            key, _, value = line.partition("=")
            out[key.split(":")[0]] = value
    return out


def cmd_out(cmd, cwd=None):
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else ""
    except (OSError, subprocess.TimeoutExpired):
        return ""


def git_describe():
    top = cmd_out(["git", "rev-parse", "--show-toplevel"], cwd=ROOT)
    if not top or os.path.realpath(top) != os.path.realpath(ROOT):
        return "unknown (not a git checkout)"
    return cmd_out(["git", "describe", "--always", "--dirty"], cwd=ROOT)


def provenance(bdir, threads, work_dir, env_before):
    cpu = "unknown"
    for line in read_file("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(base):
        for idx in sorted(os.listdir(base)):
            level = read_file(os.path.join(base, idx, "level"))
            kind = read_file(os.path.join(base, idx, "type"))
            if kind in ("Unified", "Data"):
                caches[f"L{level}"] = read_file(os.path.join(base, idx, "size"))
    cache = cmake_cache(bdir)
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    return {
        "nproc": os.cpu_count(),
        "threads": threads,
        "serve_workers": threads,
        "cpu_model": cpu,
        "caches": caches,
        "compiler": cmd_out([compiler, "--version"]).splitlines()[:1] or [compiler],
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "LEAK_KERNEL_NATIVE": cache.get("LEAK_KERNEL_NATIVE", "unknown"),
        "jobs_dir_fs": cmd_out(["stat", "-f", "-c", "%T", work_dir]) or "unknown",
        "git_describe": git_describe(),
        "env_before_pinning": env_before,
        "env_pinned": {k: "(cleared)" for k in PINNED_ENV},
        "platform": platform.platform(),
    }


def load_benchmark_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def run_binary(bdir, args, env):
    binary = os.path.join(bdir, "perfbench")
    try:
        r = subprocess.run([binary, *args], capture_output=True, text=True,
                           env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload timed out after {RUN_TIMEOUT_S} s")
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail(f"perfbench exited {r.returncode}")
    return json.loads(lines[-1])


def fmt(v):
    return f"{v:.6g}"


def print_report(args, prov, doc, expected, trace_path):
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    for key, value in prov.items():
        print(f"  provenance {key}: {value}")
    attempted, failed = doc["attempted"], doc["failed"]
    print(f"  ops attempted={attempted} failed={failed} "
          f"failed_fraction={failed / attempted if attempted else 0:.6g}")
    for msg in doc["failures"][:20]:
        print(f"  FAILED {msg}")
    for name, m in doc["metrics"].items():
        line = f"  {name} = {fmt(m['value'])} {m['unit']}"
        s = m.get("summary")
        if s:
            line += f"  (p50 {fmt(s['p50'])}"
            if "tail" in s:
                line += f", p{s['tail_pct']:.4g} {fmt(s['tail'])}"
            line += f", n={s['samples']})"
        if m.get("note"):
            line += f"  [{m['note']}]"
        if name not in expected:
            line += "  (report only)"
        print(line)
    for label, secs in doc.get("cell_s", {}).items():
        fastest = sorted(secs)[:max(1, len(secs) // 4)]
        print(f"  cell {label}: fastest-quarter mean "
              f"{fmt(statistics.fmean(fastest))} s, median "
              f"{fmt(statistics.median(secs))} s over {len(secs)} passes "
              f"({', '.join(fmt(t) for t in secs)})")
    refs = doc.get("reference_s", [])
    if refs:
        print(f"  reference loop: median {fmt(statistics.median(refs) * 1e3)} ms "
              f"over {len(refs)} runs (nominal "
              f"{fmt(doc['reference_nominal_s'] * 1e3)} ms); the timed figures "
              f"are scaled by nominal / each pass's median")
    if doc.get("self_ms"):
        print("  self time by layer (benchmark spans; a wrapped driver call's"
              " self time covers every layer beneath it):")
        for layer, ms in sorted(doc["self_ms"].items(), key=lambda kv: -kv[1]):
            print(f"    {layer}: {fmt(ms)} ms")
    if trace_path:
        print(f"  trace: {trace_path}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--golden", default=os.path.join(HERE, "golden.json"))
    ap.add_argument("--record-golden", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    spec = load_benchmark_spec()
    bdir = build(build_dir())
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(bdir, "perfbench_selftest")]).returncode)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {names}")

    env_before = {k: os.environ.get(k) for k in PINNED_ENV}
    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    # One vCPU is left to the OS and the serve parent: at nproc threads,
    # the ordered folds in runner::run_reduce stall whenever the host
    # preempts one worker, and runs became several times slower at random.
    threads = max(1, min(4, (os.cpu_count() or 1) - 1))
    work_dir = os.path.join(bdir, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    trace_path = ""
    if args.trace:
        os.makedirs(os.path.join(bdir, "traces"), exist_ok=True)
        trace_path = os.path.join(bdir, "traces",
                                  f"{args.workload}-seed{args.seed}.trace.json")
    golden = "" if args.record_golden else args.golden
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--threads", str(threads), "--work-dir", work_dir]
    if golden:
        cmd += ["--golden", golden]
    if trace_path:
        cmd += ["--trace-file", trace_path]
    prov = provenance(bdir, threads, work_dir, env_before)
    try:
        doc = run_binary(bdir, cmd, env)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if args.record_golden:
        if args.seed != DEFAULT_SEED or doc["failed"]:
            fail("record goldens at the default seed from a run without failures")
        path = os.path.join(HERE, "golden.json")
        goldens = json.load(open(path)) if os.path.exists(path) else {}
        goldens[args.workload] = doc["digests"]
        with open(path, "w") as f:
            json.dump(goldens, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"recorded {len(doc['digests'])} golden digests for {args.workload}")

    key = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[key]}
    doc["failures"] = doc.get("failures", [])
    print_report(args, prov, doc, expected, trace_path)
    results = os.path.join(bdir, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as f:
        json.dump({"provenance": prov, "result": doc}, f, indent=1)

    metrics = {}
    for name, unit in expected.items():
        m = doc["metrics"].get(name)
        if m is None or m["unit"] != unit:
            fail(f"metric {name} ({unit}) missing from the {args.workload} run")
        metrics[name] = {"value": m["value"], "unit": unit}
    print(json.dumps({"correct": doc["correct"], "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))
    sys.exit(0 if doc["correct"] else 1)


if __name__ == "__main__":
    main()
