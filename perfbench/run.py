"""aaatrig benchmark: one workload, closed loop, for a fixed time.

    python3 perfbench/run.py --workload fit --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports aaatrig from ./src.
One process makes one call at a time.  After the set-up it repeats passes
over the workload's operations until --seconds have gone by and the
workload's minimum number of passes has run, checks every output, and
prints a report whose last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json.  With
--trace 1 passes alternate between untraced and traced, the metrics are the
per-layer ones (medians over the traced passes) and the spans are written
to .perfbench_out/.  --out appends the result, with its provenance, to a
JSON-lines file that perfbench/compare.py reads.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

# Errors below this are counted as this when taking log10.
ERR_FLOOR = 1e-16

# One BLAS thread.  On a 2-CPU machine shared with other work, two threads
# made one fit pass take 16.1 s and the next 9.1 s; one thread keeps passes
# within about 2% of each other.
BLAS_THREADS = 1

# The import part of setup_s is the median over IMPORT_REPEATS fresh
# interpreters that import the benchmark's modules (numpy, aaatrig) after
# this process has, so that neither the bytecode compiled on a first run in
# a checkout nor one cold read of the files decides it.
IMPORT_REPEATS = 5
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); sys.path[:0] = sys.argv[1:]; "
                "import spans, workloads; print(time.perf_counter() - t)")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["fit", "analyze", "cli"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", help="append the result record to this JSON-lines file")
    p.add_argument("--size", choices=["full", "tiny"], default="full",
                   help="tiny shrinks every input; used by perfbench/selftest.py")
    return p.parse_args(argv)


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args) -> dict:
    import ctypes
    import glob

    import numpy as np
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    measured = None
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*.so*")):
        try:
            getter = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        getter.restype = ctypes.c_int
        measured = getter()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads": measured,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(ROOT),
        "machine": platform.machine(),
    }


def import_times() -> list[float]:
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(BENCH_DIR), str(ROOT / "src")],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
        )
        times.append(float(proc.stdout))
    return times


@dataclass
class OpResult:
    name: str
    wall: float
    cpu: float
    outcome: object  # workloads.Outcome


@dataclass
class Pass:
    traced: bool
    wall: float
    results: list[OpResult]
    first_span: int  # the pass's spans are tracer.spans[first_span:last_span]
    last_span: int


def run_pass(ops, tracer):
    """Run every operation once, timing only its call.

    Returns the pass's wall time and [(op, wall, cpu, output, exception)];
    the outputs are checked after the pass, with the span wrappers removed.
    """
    raw = []
    for op in ops:
        with tracer.span("op." + op.name) if tracer else contextlib.nullcontext():
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                out, exc = op.run(), None
            except Exception as e:  # a failed operation is counted, not raised
                out, exc = None, e
            dt, dc = time.perf_counter() - t0, time.process_time() - c0
        raw.append((op, dt, dc, out, exc))
    return sum(row[1] for row in raw), raw


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "aaatrig" / "__init__.py").is_file():
        print(f"run.py: no aaatrig sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import numpy as np  # noqa: F401  (import time is part of set-up)

    import spans
    import workloads
    first_import_s = time.perf_counter() - t0
    import_runs = import_times()

    workload = workloads.WORKLOADS[args.workload]
    size = workloads.SIZES[args.size]
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = []
        for _ in range(workload.setup_repeats):
            t = time.perf_counter()
            state = workload.setup(args.seed, workdir, size)
            setup_times.append(time.perf_counter() - t)
        ops = workload.ops(state)

        tracer = spans.Tracer() if args.trace else None
        passes: list[Pass] = []
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            if traced:
                tracer.install()
            first = len(tracer.spans) if tracer else 0
            try:
                wall, raw = run_pass(ops, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            results = [OpResult(op.name, dt, dc, op.outcome(out, exc))
                       for op, dt, dc, out, exc in raw]
            del raw
            passes.append(Pass(traced, wall, results, first, len(tracer.spans) if tracer else 0))
            if time.perf_counter() - start >= args.seconds and len(passes) >= workload.min_passes:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        record = report(args, workload, first_import_s, import_runs, setup_times, passes,
                        peak_rss_mb, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(record["result"]))
    return 0


def median_pass(passes: list[Pass], clock: str) -> float:
    """Sum over the operations of each one's median time across the passes.

    clock is "wall" or "cpu".  Taking medians per operation keeps a stall
    during one operation of one pass out of the result.
    """
    per_op: dict[str, list] = {}
    for p in passes:
        for r in p.results:
            per_op.setdefault(r.name, []).append(getattr(r, clock))
    return sum(statistics.median(times) for times in per_op.values())


def report(args, workload, first_import_s, import_runs, setup_times, passes, peak_rss_mb,
           tracer):
    """Print the human-readable report and build the result record."""
    results = [r for p in passes for r in p.results]
    outcomes = [r.outcome for r in results]
    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if not o.ok)
    unexpected = sum(1 for o in outcomes if not o.ok and not o.known)
    errs = [o.err for o in outcomes if o.err is not None and math.isfinite(o.err)]
    plain = [p for p in passes if not p.traced]

    setup_s = statistics.median(import_runs) + statistics.median(setup_times)
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "wall_s": (median_pass(plain, "wall"), "s"),
        "cpu_s": (median_pass(plain, "cpu"), "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
        "err_digits": (-math.log10(max(max(errs, default=ERR_FLOOR), ERR_FLOOR)), "digits"),
        "m_total": (statistics.median(sum(r.outcome.m for r in p.results) for p in plain), "count"),
    }
    prov = provenance(args)
    prov.update({
        "passes": len(plain),
        "traced_passes": len(passes) - len(plain),
        "setup_repeats": len(setup_times),
        "first_import_s": first_import_s,
        "import_runs_s": import_runs,
        "setup_runs_s": setup_times,
        "pass_wall_s": [p.wall for p in plain],
    })
    print("provenance " + json.dumps(prov))
    print(f"workload {args.workload}: {workload.why}")
    print(f"{'operation':<40} {'median s':>10} {'failed':>7} {'m':>5}")
    by_op: dict[str, list[OpResult]] = {}
    for r in results:
        by_op.setdefault(r.name, []).append(r)
    for name, rows in by_op.items():
        print(f"{name:<40} {statistics.median(r.wall for r in rows):>10.4f} "
              f"{sum(1 for r in rows if not r.outcome.ok):>7} {rows[-1].outcome.m:>5}")
    reasons = Counter((o.reason, o.known) for o in outcomes if not o.ok)
    for (reason, known), count in sorted(reasons.items()):
        print(f"failure x{count} ({'known at the seed' if known else 'UNEXPECTED'}): {reason}")
    counts = {key: f"n={len(plain)}" for key in ("wall_s", "cpu_s", "m_total")}
    counts["setup_s"] = f"n={len(import_runs)} imports, {len(setup_times)} set-ups"
    for key, (value, unit) in end_to_end.items():
        print(f"{key:<14} {value:>14.6g} {unit:<7} ({counts.get(key, 'n=1')})")

    metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}
    if tracer is not None:
        metrics = trace_report(args, tracer, passes)
    result = {
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return {
        "provenance": prov,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "failures": [{"reason": r, "known": k, "count": c} for (r, k), c in reasons.items()],
        "result": result,
    }


def trace_report(args, tracer, passes) -> dict:
    """Per-layer table of the traced passes; returns the per-layer metrics."""
    import spans

    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    per_pass = []
    table = {}
    for p in traced:
        rows, steps, final_m = spans.layer_totals(tracer.spans, p.first_span, p.last_span)
        per_pass.append(spans.layer_metrics(rows, steps, final_m))
        for name, row in rows.items():
            acc = table.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0, "n": 0, "wall": 0.0})
            for key in ("calls", "total", "self", "n"):
                acc[key] += row[key]
            acc["wall"] += p.wall
    metrics = spans.median_metrics(per_pass)
    overhead = median_pass(traced, "wall") - median_pass(plain, "wall")
    metrics["trace.overhead_s"] = (overhead, "s")

    k = len(traced)
    print(f"per-layer, mean of {k} traced pass(es); self = span minus child spans")
    print(f"{'span':<38} {'calls':>8} {'total s':>10} {'self s':>10} {'share':>7} {'n':>12}")
    layers = [(name, acc) for name, acc in table.items() if not name.startswith("op.")]
    for name, acc in sorted(layers, key=lambda kv: -kv[1]["self"]):
        print(f"{name:<38} {acc['calls'] / k:>8.0f} {acc['total'] / k:>10.4f} "
              f"{acc['self'] / k:>10.4f} {acc['self'] / acc['wall']:>7.1%} {acc['n'] / k:>12.0f}")
    print(f"trace.overhead_s {overhead:.4f} (traced minus untraced wall_s, "
          f"{len(traced)} vs {len(plain)} passes)")

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}.spans.tsv"
    tracer.write(path)
    print(f"spans written to {path.relative_to(ROOT)}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


if __name__ == "__main__":
    sys.exit(main())
