"""Self-test of the benchmark; takes about a minute.

    python3 perfbench/selftest.py

1. Smoke run: every workload at --size tiny, untraced and traced, must print
   a last line with exactly the result keys, and every metric BENCHMARK.json
   names, with its unit, as a finite number.
2. The verdict logic of compare.py, and the step accounting of spans.py,
   on synthetic numbers.
3. A directory holding only BENCHMARK.json and perfbench/ must make run.py
   exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import compare  # noqa: E402
import spans  # noqa: E402


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def smoke(spec: dict) -> list[str]:
    problems = []
    for workload in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, "--workload", workload["name"], "--seed", "7", "--seconds", "0",
                       "--trace", str(trace), "--size", "tiny")
            where = f"{workload['name']} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
                    and isinstance(result["failed"], int)):
                problems.append(f"{where}: attempted/failed {result['attempted']}/{result['failed']}")
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = result["metrics"]
            if set(got) != set(want):
                problems.append(f"{where}: metrics differ: {sorted(set(got) ^ set(want))}")
            for name, unit in want.items():
                entry = got.get(name, {})
                if entry.get("unit") != unit or not math.isfinite(entry.get("value", math.nan)):
                    problems.append(f"{where}: {name} = {entry}, expected a number in {unit}")
    return problems


def verdicts(spec: dict) -> list[str]:
    base = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.03, 9.97, 10.0]
    cases = [
        # (change, better, bound, expected verdict)
        ([v * 0.8 for v in base], "lower", 0.1, "better"),
        ([v * 1.2 for v in base], "lower", 0.1, "worse"),
        ([v * 1.02 for v in base], "lower", 0.1, "unchanged"),
        ([v * 1.2 for v in base], "higher", 0.1, "better"),
        ([v * 0.8 for v in base], "higher", 0.1, "worse"),
        # 8 of 10 pairs won is not enough for "better", however large the gain.
        ([v * 0.5 if i < 8 else v * 1.01 for i, v in enumerate(base)], "lower", 0.1, "unchanged"),
    ]
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    cases.append(([v * 1.05 for v in noisy], "lower", 0.1, "unresolved"))
    problems = []
    for change, better, bound, expected in cases:
        b = noisy if expected == "unresolved" else base
        got, _ = compare.verdict(b, change, list(zip(b, change)), better, bound)
        if got != expected:
            problems.append(f"verdict {got!r}, expected {expected!r} ({better}, bound {bound})")
    # One more failing operation of the 30 in an analyze pass must read as
    # worse under the ok_frac bound of BENCHMARK.json.
    ok = next(m for m in spec["end_to_end"] if m["name"] == "ok_frac")
    b, c = [20 / 30] * 10, [19 / 30] * 10
    got, _ = compare.verdict(b, c, list(zip(b, c)), ok["better"], ok["bound"])
    if got != "worse":
        problems.append(f"ok_frac 20/30 -> 19/30: verdict {got!r}, expected 'worse'")
    return problems


def step_accounting() -> list[str]:
    """A capped fit with a cleanup outside it, and a fit with its own cleanup."""
    s = [
        ["op.a", 0.0, 9.0, -1, 0],
        ["solver.fit", 0.0, 5.0, 0, 100],             # raw order 100
        ["solver.assemble_loewner", 1.0, 2.0, 1, 0],
        ["solver.assemble_loewner", 2.0, 3.0, 1, 0],
        ["solver.cleanup", 5.0, 6.0, 0, 64],          # 100 -> 36, outside the fit
        ["solver.fit", 6.0, 9.0, 0, 10],              # order after its own cleanup
        ["solver.assemble_loewner", 6.0, 7.0, 5, 0],
        ["solver.cleanup", 7.0, 8.0, 5, 2],
        ["solver.assemble_loewner", 7.5, 7.9, 7, 0],  # the cleanup's solve, not a step
    ]
    rows, steps, final_m = spans.layer_totals(s, 0, len(s))
    ratio = spans.layer_metrics(rows, steps, final_m)["solver.useful_step_ratio"][0]
    if (steps, final_m, ratio) != (3, 46, 46 / 3):
        return [f"step accounting: steps {steps}, final m {final_m}, ratio {ratio}"]
    return []


def bare_directory() -> list[str]:
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "--workload", "fit", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = verdicts(spec) + step_accounting() + bare_directory() + smoke(spec)
    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
