"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the records that ``run.py --out FILE`` appends, one per run;
runs with --trace 1 are skipped.  For every workload and every end-to-end
metric of BENCHMARK.json it prints each side's median, quartiles and run
count, how many seed-matched pairs the change wins, and a verdict:

  better      the change wins at least 9/10 of the pairs (ties count for
              neither) and the medians differ by more than the base's
              interquartile distance;
  worse       the change's median is worse than the base's by more than the
              metric's bound, and either the base's spread is within the
              bound or every change run is worse than every base run;
  unresolved  the base's spread (interquartile distance / |median|) is
              wider than the bound, so a difference of the bound cannot be
              told from noise;
  unchanged   otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], change: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float) -> tuple[str, int]:
    """Verdict for one metric and the number of pairs the change wins."""
    sign = 1.0 if better == "higher" else -1.0
    q1, base_median, q3 = quartiles(base)
    iqr = q3 - q1
    gain = sign * (statistics.median(change) - base_median)  # > 0: change is better
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    if pairs and wins >= 0.9 * len(pairs) and gain > iqr:
        return "better", wins
    spread = iqr / abs(base_median) if base_median else math.inf
    if -gain > bound * abs(base_median):
        all_worse = max(sign * c for c in change) < min(sign * b for b in base)
        if spread <= bound or all_worse:
            return "worse", wins
    if spread > bound:
        return "unresolved", wins
    return "unchanged", wins


def load(path) -> dict:
    """workload -> seed -> end-to-end metrics of the untraced runs in a file."""
    runs: dict = {}
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            prov = record["provenance"]
            if prov["trace"]:
                continue
            metrics = {k: v["value"] for k, v in record["end_to_end"].items()}
            runs.setdefault(prov["workload"], {})[prov["seed"]] = metrics
    return runs


def compare(base: dict, change: dict, spec: dict) -> list[dict]:
    rows = []
    for workload in sorted(set(base) & set(change)):
        b_runs, c_runs = base[workload], change[workload]
        seeds = sorted(set(b_runs) & set(c_runs))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r[name] for r in b_runs.values()]
            c = [r[name] for r in c_runs.values()]
            pairs = [(b_runs[s][name], c_runs[s][name]) for s in seeds]
            result, wins = verdict(b, c, pairs, metric["better"], metric["bound"])
            rows.append({"workload": workload, "metric": name, "unit": metric["unit"],
                         "base": quartiles(b), "change": quartiles(c),
                         "n": (len(b), len(c)), "wins": wins, "pairs": len(pairs),
                         "verdict": result})
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base")
    p.add_argument("change")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(load(args.base), load(args.change), spec)
    if not rows:
        print("compare.py: no workload has untraced runs in both files", file=sys.stderr)
        return 1
    print(f"{'workload':<9} {'metric':<12} {'base median [q1, q3] (n)':>38} "
          f"{'change median [q1, q3] (n)':>38} {'wins':>7}  verdict")
    for r in rows:
        (b1, bm, b3), (c1, cm, c3), (nb, nc) = r["base"], r["change"], r["n"]
        base = f"{bm:.5g} [{b1:.5g}, {b3:.5g}] ({nb})"
        change = f"{cm:.5g} [{c1:.5g}, {c3:.5g}] ({nc})"
        print(f"{r['workload']:<9} {r['metric']:<12} {base:>38} {change:>38} "
              f"{r['wins']:>3}/{r['pairs']:<3}  {r['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
