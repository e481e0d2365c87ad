#!/usr/bin/env python3
"""End-to-end benchmark of the PROP partitioning library: build, run, check.

Run from the repository root (Python 3 standard library, CMake and a C++20
compiler; no other dependency):

  python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1
      One run of one workload.  Builds build-e2e/ if needed, runs the quick
      self-test, runs the untraced driver (--trace 0: end-to-end metrics) or
      the traced replay (--trace 1: per-layer metrics, spans written to
      build-e2e/trace-W.json), and prints as its last line
      {"correct", "attempted", "failed", "metrics"}.
  python3 bench/e2e/run.py --out FILE [--seed N] [--runs R] [--seconds S] [--trace]
      A set: every workload with seeds N..N+R-1 (fresh process per run),
      appended to FILE so sets can be built up run by run.
  python3 bench/e2e/run.py --compare A.json B.json
      Applies BENCHMARK.json's bounds to every (end-to-end metric, workload).
  python3 bench/e2e/run.py --smoke
      Every workload at toy size, untraced and traced; never a baseline.
  python3 bench/e2e/run.py --self-test
      Checks the statistics, the bound arithmetic, and that the oracle and
      replay-identity gates exit nonzero on a deliberately corrupted output.

Exit codes: 0 ok, 1 build/run error, 2 usage, 3 a job failed or the oracle
disagreed, 4 the traced replay differed from the library call, 5 self-test
failure.  See README.md for metrics, workloads and the trace schema.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-e2e")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 170  # a run must end within 180 s
EXE = {0: "e2e_driver", 1: "e2e_trace"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


# --- build ------------------------------------------------------------------

def build(target):
    """Configures (once) and builds one target; returns the executable path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: library sources (src/) not found; run from a full checkout")
        sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("run.py: cmake configure failed")
            sys.exit(1)
    cmd = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        log("run.py: build of %s failed" % target)
        sys.exit(1)
    return os.path.join(BUILD, target)


# --- one run ----------------------------------------------------------------

def run_exe(exe, args, timeout):
    """Runs one executable; returns (exit code, report dict or None)."""
    try:
        proc = subprocess.run([exe] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log("run.py: %s timed out" % os.path.basename(exe))
        return 1, None
    lines = proc.stdout.strip().splitlines()
    report = None
    if lines:
        try:
            report = json.loads(lines[-1])
        except ValueError:
            report = None
    return proc.returncode, report


def run_one(workload, seed, seconds, trace, smoke=False, corrupt=False,
            deadline=None):
    exe = build(EXE[trace])
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", repr(float(seconds))]
    if trace:
        args += ["--trace-out", os.path.join(BUILD, "trace-%s.json" % workload)]
    if smoke:
        args.append("--smoke")
    if corrupt:
        args.append("--corrupt")
    timeout = RUN_TIMEOUT_S if deadline is None else max(1, deadline - time.time())
    return run_exe(exe, args, timeout)


def contract_line(report, names):
    """The driver-facing result: exactly the listed metrics."""
    metrics = {}
    for name in names:
        m = report["metrics"].get(name)
        if m is None or not isinstance(m.get("value"), (int, float)) \
                or not math.isfinite(m["value"]):
            raise ValueError("metric %s missing or not a number" % name)
        metrics[name] = {"value": m["value"], "unit": m["unit"]}
    return {"correct": bool(report["correct"]), "attempted": int(report["attempted"]),
            "failed": int(report["failed"]), "metrics": metrics}


def print_report(report):
    print("# %s seed=%s mode=%s profile=%s correct=%s attempted=%s failed=%s" % (
        report["workload"], report["seed"], report["mode"], report["profile"],
        report["correct"], report["attempted"], report["failed"]))
    for name, m in report["metrics"].items():
        print("#   %-34s %.6g %s" % (name, m["value"] if m["value"] is not None
                                     else float("nan"), m["unit"]))


def driver_mode(a):
    start = time.time()
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if a.workload not in names:
        log("run.py: unknown workload %r (%s)" % (a.workload, ", ".join(names)))
        return 2
    if a.trace not in (0, 1):
        log("run.py: --trace takes 0 or 1")
        return 2
    code = quick_self_test(a.trace)
    if code:
        return code
    code, report = run_one(a.workload, a.seed, a.seconds, a.trace,
                           deadline=start + RUN_TIMEOUT_S)
    if report is None:
        log("run.py: the run produced no report (exit %d)" % code)
        return code or 1
    print_report(report)
    listed = spec["per_layer"] if a.trace else spec["end_to_end"]
    try:
        line = contract_line(report, [m["name"] for m in listed])
    except ValueError as e:
        log("run.py: %s" % e)
        return 1
    print(json.dumps(line), flush=True)
    return code


# --- sets -------------------------------------------------------------------

def set_mode(a):
    spec = load_spec()
    if os.path.exists(a.out):
        with open(a.out) as f:
            data = json.load(f)
    else:
        data = {"profile": "full", "runs": []}
    code = quick_self_test(1 if a.trace else 0)
    if code:
        return code
    worst = 0
    seconds = a.seconds if a.seconds is not None else spec["run_seconds"]
    for seed in range(a.seed, a.seed + a.runs):
        for w in spec["workloads"]:
            for trace in ([0, 1] if a.trace else [0]):
                code, report = run_one(w["name"], seed, seconds, trace)
                if report is None:
                    log("run.py: %s seed %d produced no report" % (w["name"], seed))
                    return code or 1
                print_report(report)
                data["runs"].append(report)
                worst = worst or code
                with open(a.out, "w") as f:
                    json.dump(data, f, indent=1)
    return worst


def smoke_mode(a):
    if a.out:
        log("run.py: --smoke results are never recorded as a set")
        return 2
    code = quick_self_test(1)
    if code:
        return code
    worst = 0
    for w in load_spec()["workloads"]:
        for trace in (0, 1):
            code, report = run_one(w["name"], a.seed, 0, trace, smoke=True)
            if report is None:
                return code or 1
            print_report(report)
            worst = worst or code
    print("smoke: %s" % ("ok" if worst == 0 else "FAILED"))
    return worst


# --- compare ----------------------------------------------------------------

def spread(values):
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base, new, better, bound):
    """Classifies one (metric, workload) row.  `base`/`new` are run values
    paired by position (alternating runs of the same seeds)."""
    mb, mn = statistics.median(base), statistics.median(new)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (mn - mb) / abs(mb) if mb else 0.0
    is_better = (lambda x, y: x < y) if better == "lower" else (lambda x, y: x > y)
    all_better = all(is_better(n, b) for n in new for b in base)
    if max(spread(base), spread(new)) > bound and not all_better:
        return "unresolved", worse
    if worse > bound:
        return "REGRESSION", worse
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if is_better(n, b))
    if len(base) >= 2:
        q1, _, q3 = statistics.quantiles(base, n=4)
        iqr = q3 - q1
    else:
        iqr = 0.0
    if pairs and wins >= 0.9 * len(pairs) and abs(mn - mb) > iqr:
        return "gain", worse
    return "same", worse


def load_set(path):
    with open(path) as f:
        data = json.load(f)
    if data.get("profile") != "full" or any(r.get("profile") != "full"
                                            for r in data["runs"]):
        raise ValueError("%s holds smoke runs; compare only full sets" % path)
    return data["runs"]


def compare_mode(a):
    spec = load_spec()
    try:
        runs_a, runs_b = load_set(a.compare[0]), load_set(a.compare[1])
    except (OSError, ValueError) as e:
        log("run.py: %s" % e)
        return 2
    failed = False
    print("%-14s %-16s %14s %14s %8s %8s  %s" % (
        "workload", "metric", "A median", "B median", "worse", "bound", "verdict"))
    for w in spec["workloads"]:
        ea = sorted((r for r in runs_a if r["workload"] == w["name"] and r["mode"] == "e2e"),
                    key=lambda r: r["seed"])
        eb = sorted((r for r in runs_b if r["workload"] == w["name"] and r["mode"] == "e2e"),
                    key=lambda r: r["seed"])
        if not ea or not eb:
            print("%-14s (missing in one set)" % w["name"])
            failed = True
            continue
        for m in spec["end_to_end"]:
            base = [r["metrics"][m["name"]]["value"] for r in ea]
            new = [r["metrics"][m["name"]]["value"] for r in eb]
            v, worse = verdict(base, new, m["better"], m["bound"])
            failed = failed or v == "REGRESSION"
            print("%-14s %-16s %14.6g %14.6g %7.2f%% %7.2f%%  %s" % (
                w["name"], m["name"], statistics.median(base), statistics.median(new),
                100 * worse, 100 * m["bound"], v))
    # Counters, cuts and digests: identical for every run present in both sets.
    index_b = {(r["workload"], r["seed"], r["mode"]): r for r in runs_b}
    mismatches = 0
    for r in runs_a:
        other = index_b.get((r["workload"], r["seed"], r["mode"]))
        if other is None:
            continue
        for key, value in r["exact"].items():
            if other["exact"].get(key) != value:
                mismatches += 1
                print("MISMATCH %s seed %s %s: %s %r != %r" % (
                    r["workload"], r["seed"], r["mode"], key, value, other["exact"].get(key)))
    print("exact values: %s" % ("identical" if mismatches == 0 else "%d differ" % mismatches))
    return 1 if failed or mismatches else 0


# --- self-test --------------------------------------------------------------

def python_self_test():
    errors = []

    def check(ok, what):
        if not ok:
            errors.append(what)

    base = [100.0 + i * 0.1 for i in range(10)]
    check(verdict(base, [x * 1.10 for x in base], "lower", 0.07)[0] == "REGRESSION",
          "10% slower with a 7% bound is a regression")
    check(verdict(base, [x * 1.05 for x in base], "lower", 0.07)[0] == "same",
          "5% slower with a 7% bound is within bound")
    check(verdict(base, [x * 0.95 for x in base], "lower", 0.07)[0] == "gain",
          "5% faster in every pair is a gain")
    check(verdict(base, [x * 1.10 for x in base], "higher", 0.07)[0] == "gain",
          "higher-is-better flips the direction")
    noisy = [100.0, 60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0]
    check(verdict(noisy, [x * 1.01 for x in noisy], "lower", 0.07)[0] == "unresolved",
          "spread wider than the bound is unresolved")
    mixed = [x * (0.95 if i % 5 else 1.05) for i, x in enumerate(base)]
    check(verdict(base, mixed, "lower", 0.07)[0] == "same",
          "winning 8 of 10 pairs is not a gain")
    q1, _, q3 = statistics.quantiles([float(i) for i in range(1, 11)], n=4)
    check(abs(spread([float(i) for i in range(1, 11)]) - (q3 - q1) / 5.5) < 1e-12,
          "spread is IQR over median")
    for e in errors:
        log("self-test FAILED: %s" % e)
    return len(errors)


def quick_self_test(trace):
    """The checks every run repeats before timing anything."""
    if python_self_test():
        return 5
    code, _ = run_exe(build(EXE[trace]), ["--self-test"], RUN_TIMEOUT_S)
    return 5 if code else 0


def self_test_mode(a):
    failures = python_self_test()
    for trace in (0, 1):
        code, _ = run_exe(build(EXE[trace]), ["--self-test"], RUN_TIMEOUT_S)
        failures += 1 if code else 0
    # Each gate must fail a run whose output was deliberately corrupted.
    for workload in ("flat-mcnc", "serve-mixed"):
        for trace, want in ((0, 3), (1, 4)):
            code, report = run_one(workload, a.seed, 0, trace, smoke=True, corrupt=True)
            ok = code == want and report is not None and not report["correct"]
            print("corrupted %s %s: exit %d (want %d) %s" % (
                workload, EXE[trace], code, want, "ok" if ok else "FAILED"))
            failures += 0 if ok else 1
    print("self-test: %s" % ("ok" if failures == 0 else "FAILED"))
    return 0 if failures == 0 else 5


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0)
    p.add_argument("--out")
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    os.chdir(ROOT)
    if a.self_test:
        return self_test_mode(a)
    if a.compare:
        return compare_mode(a)
    if a.smoke:
        return smoke_mode(a)
    if a.out:
        return set_mode(a)
    if a.workload is None or a.seconds is None:
        p.print_usage(sys.stderr)
        return 2
    return driver_mode(a)


if __name__ == "__main__":
    sys.exit(main())
