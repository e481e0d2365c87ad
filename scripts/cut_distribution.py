#!/usr/bin/env python3
"""Paired cut distributions of two builds, with a bootstrap interval.

Reads pairs of `prop_cli --runs N --seed S --stats-json FILE` outputs, one
from a parent build and one from a change, run with the same flags, and
writes one JSON row per config: the parent and change mean, sd and best
cut, CPU seconds per run, and a bootstrap 95% confidence interval of the
mean paired per-seed difference (change - parent).  Runs are paired by
their position in `run_records`; both files must list the same seeds.

    python3 scripts/cut_distribution.py \\
        --config ml-prop-industry2 parent.json change.json \\
        [--config NAME PARENT CHANGE ...] [--out FILE] [--meta KEY=VALUE ...]

Standard library only.  The bootstrap is seeded, so equal inputs give
byte-identical output.
"""

import argparse
import json
import random
import statistics
import sys


def load_runs(path):
    with open(path) as f:
        stats = json.load(f)
    records = stats["run_records"]
    failed = [r for r in records if r["outcome"] != "ok"]
    if failed:
        raise SystemExit(f"{path}: {len(failed)} run(s) did not finish ok")
    return stats, [r["seed"] for r in records], [r["cut"] for r in records]


def bootstrap_ci(diffs, resamples, rng, level=0.95):
    """Percentile interval of the mean of `diffs` over resampled seeds."""
    n = len(diffs)
    means = sorted(
        sum(diffs[rng.randrange(n)] for _ in range(n)) / n
        for _ in range(resamples))
    lo = means[int((1.0 - level) / 2.0 * resamples)]
    hi = means[min(resamples - 1, int((1.0 + level) / 2.0 * resamples))]
    return lo, hi


def summarize(cuts):
    return {
        "mean": statistics.fmean(cuts),
        "sd": statistics.stdev(cuts) if len(cuts) > 1 else 0.0,
        "best": min(cuts),
    }


def compare(name, parent_path, change_path, resamples, seed):
    parent, parent_seeds, parent_cuts = load_runs(parent_path)
    change, change_seeds, change_cuts = load_runs(change_path)
    if parent_seeds != change_seeds:
        raise SystemExit(f"{name}: the two files ran different seeds")
    diffs = [c - p for p, c in zip(parent_cuts, change_cuts)]
    lo, hi = bootstrap_ci(diffs, resamples, random.Random(seed))
    p = summarize(parent_cuts)
    return {
        "config": name,
        "circuit": parent["circuit"],
        "algo": parent["algo"],
        "runs": len(diffs),
        "parent": dict(p, cpu_s_per_run=parent["cpu_seconds_per_run"]),
        "change": dict(summarize(change_cuts),
                       cpu_s_per_run=change["cpu_seconds_per_run"]),
        "paired_diff_mean": statistics.fmean(diffs),
        "paired_diff_ci95": [lo, hi],
        "paired_diff_ci95_pct": [100.0 * lo / p["mean"],
                                 100.0 * hi / p["mean"]],
        "pairs_better": sum(d < 0 for d in diffs),
        "pairs_equal": sum(d == 0 for d in diffs),
        "pairs_worse": sum(d > 0 for d in diffs),
        # The quality gate: the whole interval lies above +1% of the parent.
        "ci_above_plus_1pct": lo > 0.01 * p["mean"],
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--config", nargs=3, action="append", required=True,
                    metavar=("NAME", "PARENT", "CHANGE"))
    ap.add_argument("--resamples", type=int, default=10000)
    ap.add_argument("--seed", type=int, default=1,
                    help="bootstrap RNG seed")
    ap.add_argument("--meta", action="append", default=[],
                    metavar="KEY=VALUE",
                    help="extra top-level field, e.g. host=...")
    ap.add_argument("--out", help="write JSON here instead of stdout")
    args = ap.parse_args()

    doc = {}
    for item in args.meta:
        key, sep, value = item.partition("=")
        if not sep:
            ap.error(f"--meta wants KEY=VALUE, got {item!r}")
        doc[key] = value
    doc["bootstrap_resamples"] = args.resamples
    doc["bootstrap_seed"] = args.seed
    doc["configs"] = [compare(name, p, c, args.resamples, args.seed)
                      for name, p, c in args.config]
    text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    gate = [r["config"] for r in doc["configs"] if r["ci_above_plus_1pct"]]
    for r in doc["configs"]:
        lo, hi = r["paired_diff_ci95_pct"]
        print(f"{r['config']}: mean {r['parent']['mean']:.1f} -> "
              f"{r['change']['mean']:.1f}, paired diff 95% CI "
              f"[{lo:+.2f}%, {hi:+.2f}%], cpu/run "
              f"{r['parent']['cpu_s_per_run']:.3f} -> "
              f"{r['change']['cpu_s_per_run']:.3f} s", file=sys.stderr)
    return 1 if gate else 0


if __name__ == "__main__":
    sys.exit(main())
