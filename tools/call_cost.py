"""Print the median cost of one-point evaluation and derivative calls, in µs.

    python3 tools/call_cost.py [--size full|tiny]

Runs from anywhere inside a source checkout: imports aaatrig from its src/
and the analyze workload of its perfbench/workloads.py, which it only
reads.  The workload's set-up fits its models (seed 7).  Then, for each
model, each of its derivative points is passed alone to ``evaluate`` and to
``derivative_at`` at orders 1 and 4, each call timed on its own, and its
evaluation points (10^5 at full size) go to ``evaluate_batch`` as one
array; every timing is repeated REPEATS times.  One tab-separated line per
model gives m, the median µs per one-point call of each kind and the
median µs per point of the batch.  One untimed call of each kind comes
first, so whatever a model builds on first use is in place.

End-to-end ``analyze`` times drift by tens of percent from run to run;
these medians resolve a change of a few µs per call.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from aaatrig import calculus, trigbary  # noqa: E402

SEED = 7
REPEATS = 5
COLUMNS = ("model", "m", "evaluate_us", "derivative_at.1_us", "derivative_at.4_us",
           "evaluate_batch_us_per_point")


def median_us(call, args) -> float:
    """Median µs of call(a), each a of args timed alone, REPEATS times over."""
    call(args[0])
    times = []
    for _ in range(REPEATS):
        for a in args:
            start = time.perf_counter()
            call(a)
            times.append(time.perf_counter() - start)
    return 1e6 * statistics.median(times)


def model_costs(subject) -> list[float]:
    model, points = subject.model, list(subject.deriv_points)
    return [
        median_us(lambda z: trigbary.evaluate(model, z), points),
        median_us(lambda z: calculus.derivative_at(model, z, 1), points),
        median_us(lambda z: calculus.derivative_at(model, z, 4), points),
        median_us(lambda zs: trigbary.evaluate_batch(model, zs), [subject.points])
        / len(subject.points),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS["analyze"]
    with tempfile.TemporaryDirectory() as tmp:
        subjects = workload.setup(SEED, Path(tmp), workloads.SIZES[args.size])
    print("\t".join(COLUMNS))
    for s in subjects:
        costs = "\t".join(f"{c:.3f}" for c in model_costs(s))
        print(f"{s.name}\t{s.model.m}\t{costs}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
