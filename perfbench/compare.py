#!/usr/bin/env python3
"""Compares two sets of benchmark runs, or summarizes one.

    python3 perfbench/compare.py BASE_DIR NEW_DIR
    python3 perfbench/compare.py --spread DIR

Each directory holds the result files `perfbench/run.py --save DIR` writes,
one per run. Runs are grouped by workload and trace mode; a metric's runs are
summarized by their median and quartiles (statistics.quantiles, n=4), and its
spread is the interquartile distance as a share of the median.

Comparison, per workload and metric, with the bound from BENCHMARK.json
(end-to-end metrics) or perfbench/metrics.json (the others):
  * a deterministic metric whose runs share seeds must repeat exactly;
    any difference is reported as "changed";
  * when either side's spread is wider than the bound, the metric is
    "unresolved", unless every new run beats every base run ("improved");
  * otherwise the new median is "regressed" when worse than the base median
    by more than the bound, "improved" when better by more, else "unchanged".
Metrics without a bound or a direction are listed, not judged. Each workload
ends with its own summary row. Exit status is 1 when any metric regressed or
changed, else 0. Standard library only.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_catalog():
    """name -> {unit, better, bound, deterministic} from both files."""
    with open(os.path.join(HERE, "metrics.json")) as f:
        catalog = {m["name"]: dict(m) for m in json.load(f)["metrics"]}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for m in spec["end_to_end"] + spec["per_layer"]:
        entry = catalog.setdefault(m["name"], {"name": m["name"]})
        entry.update(m)
    return catalog


def load_runs(directory):
    """(workload, trace) -> list of results."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            r = json.load(f)
        runs.setdefault((r["workload"], r["trace"]), []).append(r)
    if not runs:
        sys.exit(f"compare: no result files in {directory}")
    return runs


def summary(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = summary(values)
    return (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else float("inf"))


def values_of(results, name):
    return [r["metrics"][name]["value"] for r in results
            if name in r["metrics"]]


def judge(meta, base_runs, new_runs, name):
    base = values_of(base_runs, name)
    new = values_of(new_runs, name)
    if not base or not new:
        return "missing", base, new
    if meta.get("deterministic"):
        by_seed_base = {r["seed"]: r["metrics"][name]["value"]
                        for r in base_runs if name in r["metrics"]}
        shared = [r for r in new_runs
                  if r["seed"] in by_seed_base and name in r["metrics"]]
        if shared:
            pairs = [(by_seed_base[r["seed"]], r["metrics"][name]["value"])
                     for r in shared]
            same = all(b == n for b, n in pairs)
            return (("unchanged" if same else "changed"),
                    [b for b, _ in pairs], [n for _, n in pairs])
    bound = meta.get("bound")
    better = meta.get("better")
    if bound is None or better not in ("higher", "lower"):
        return "listed", base, new
    sign = 1 if better == "higher" else -1
    if spread(base) > bound or spread(new) > bound:
        all_better = (min(new) > max(base) if sign > 0
                      else max(new) < min(base))
        if all_better:
            return "improved", base, new
        return "unresolved", base, new
    b, n = statistics.median(base), statistics.median(new)
    # Relative change; absolute when the base is 0 (fail_frac).
    change = sign * (n - b) / (abs(b) if b else 1.0)
    if change < -bound:
        return "regressed", base, new
    if change > bound:
        return "improved", base, new
    return "unchanged", base, new


def compare(base_dir, new_dir):
    catalog = load_catalog()
    base, new = load_runs(base_dir), load_runs(new_dir)
    bad = False
    rows = []
    for key in sorted(set(base) | set(new)):
        workload, trace = key
        b_runs, n_runs = base.get(key, []), new.get(key, [])
        print(f"\n== {workload} (trace {trace}): {len(b_runs)} base runs, "
              f"{len(n_runs)} new runs")
        print(f"   {'metric':<40} {'base median':>14} {'new median':>14} "
              f"{'change':>8} {'bound':>6}  verdict")
        counts = {}
        names = sorted({n for r in b_runs + n_runs for n in r["metrics"]})
        for name in names:
            meta = catalog.get(name, {})
            verdict, bv, nv = judge(meta, b_runs, n_runs, name)
            counts[verdict] = counts.get(verdict, 0) + 1
            bad = bad or verdict in ("regressed", "changed")
            bm = statistics.median(bv) if bv else float("nan")
            nm = statistics.median(nv) if nv else float("nan")
            change = (nm - bm) / abs(bm) if bm else 0.0
            bound = meta.get("bound")
            print(f"   {name:<40} {bm:>14.6g} {nm:>14.6g} {change:>+8.1%} "
                  f"{'' if bound is None else f'{bound:.2f}':>6}  {verdict}")
        rows.append((workload, trace, counts))
    print("\n== summary, one row per workload")
    verdicts = ["regressed", "changed", "unresolved", "improved", "unchanged",
                "listed", "missing"]
    print(f"   {'workload':<18} {'trace':>5} " +
          " ".join(f"{v:>10}" for v in verdicts))
    for workload, trace, counts in rows:
        print(f"   {workload:<18} {trace:>5} " +
              " ".join(f"{counts.get(v, 0):>10}" for v in verdicts))
    return 1 if bad else 0


def spread_report(directory):
    catalog = load_catalog()
    runs = load_runs(directory)
    for (workload, trace), results in sorted(runs.items()):
        print(f"\n== {workload} (trace {trace}): {len(results)} runs, seeds "
              f"{sorted(r['seed'] for r in results)}")
        print(f"   {'metric':<40} {'q1':>12} {'median':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6}")
        names = sorted({n for r in results for n in r["metrics"]})
        for name in names:
            v = values_of(results, name)
            q1, med, q3 = summary(v)
            bound = catalog.get(name, {}).get("bound")
            flag = ""
            if bound and spread(v) > bound / 3:
                flag = "  > bound/3"
            print(f"   {name:<40} {q1:>12.6g} {med:>12.6g} {q3:>12.6g} "
                  f"{spread(v):>7.1%} "
                  f"{'' if bound is None else f'{bound:.2f}':>6}{flag}")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--spread", metavar="DIR",
                   help="summarize one set of runs instead of comparing")
    p.add_argument("dirs", nargs="*", metavar="DIR")
    args = p.parse_args()
    if args.spread:
        sys.exit(spread_report(args.spread))
    if len(args.dirs) != 2:
        p.error("give BASE_DIR and NEW_DIR, or --spread DIR")
    sys.exit(compare(*args.dirs))


if __name__ == "__main__":
    main()
