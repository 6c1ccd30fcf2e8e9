"""tools/output_hashes.py prints one hash per benchmark operation, the same
on every run of the same checkout, so two checkouts' outputs can be compared
bit for bit by comparing its lines."""

import importlib.util
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tool_lines():
    done = subprocess.run([sys.executable, "tools/output_hashes.py", "--size", "tiny"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    return [tuple(line.split("\t")) for line in done.stdout.splitlines()]


def _operation_names(seed, size):
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    names = []
    for workload in workloads.WORKLOADS.values():
        with tempfile.TemporaryDirectory() as tmp:
            state = workload.setup(seed, Path(tmp), workloads.SIZES[size])
            names += [op.name for op in workload.ops(state)]
    return names


def test_hashes_are_stable_and_name_every_operation():
    first = _tool_lines()
    assert _tool_lines() == first
    assert [name for name, _ in first] == _operation_names(7, "tiny")
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for _, digest in first)
