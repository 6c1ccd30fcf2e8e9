"""tools/call_cost.py prints, per analyze model, the median µs of one-point
evaluate and derivative_at calls and per point of evaluate_batch."""

import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_prints_one_row_of_costs_per_model():
    done = subprocess.run([sys.executable, "tools/call_cost.py", "--size", "tiny"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    header, *rows = [line.split("\t") for line in done.stdout.splitlines()]
    assert header == ["model", "m", "evaluate_us", "derivative_at.1_us", "derivative_at.4_us",
                      "evaluate_batch_us_per_point"]
    assert [row[0] for row in rows] == ["tanh_odd", "tanh_even", "circle", "interp64"]
    for row in rows:
        assert len(row) == len(header) and int(row[1]) >= 1
        costs = [float(v) for v in row[2:]]
        assert all(math.isfinite(c) and c > 0.0 for c in costs)
