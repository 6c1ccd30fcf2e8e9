"""Print a sha256 of every benchmark operation's output, one line each.

    python3 tools/output_hashes.py [--seed N] [--size full|tiny]

Runs from anywhere inside a source checkout: imports aaatrig from its src/
and the workloads of its perfbench/workloads.py, which it only reads.  Each
workload's set-up runs in a temporary directory, then every operation runs
once, in order, and one ``name<TAB>sha256`` line is printed per operation.
Two checkouts that print the same lines for the same seed and size gave the
same output bit for bit, so comparing the lines checks that a change leaves
every benchmark result unchanged.

What is hashed: arrays by dtype, shape and bytes; dataclasses field by
field; lists and tuples item by item; other scalars by repr; an exception
as ``Type: message``.  For cli operations the output is run_cli's (status,
stdout, stderr) followed by the files of the work directory, by name, that
the operation created or whose bytes it changed, so each line hashes its
command's own output.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402


def feed(h, obj) -> None:
    """Add obj to the hash h, tagged by type so that no two encodings meet."""
    if isinstance(obj, (np.ndarray, np.generic)):
        arr = np.ascontiguousarray(obj)
        h.update(f"array {arr.dtype.str} {arr.shape}\n".encode())
        h.update(arr.tobytes())
    elif dataclasses.is_dataclass(obj):
        h.update(f"{type(obj).__name__}\n".encode())
        for f in dataclasses.fields(obj):
            h.update(f"{f.name}=".encode())
            feed(h, getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        h.update(f"{type(obj).__name__} {len(obj)}\n".encode())
        for item in obj:
            feed(h, item)
    elif isinstance(obj, bytes):
        h.update(f"bytes {len(obj)}\n".encode())
        h.update(obj)
    else:
        h.update(f"{type(obj).__name__} {obj!r}\n".encode())


def workdir_files(workdir: Path) -> dict:
    return {str(p.relative_to(workdir)): p.read_bytes()
            for p in sorted(workdir.rglob("*")) if p.is_file()}


def operation_hashes(name: str, seed: int, size: dict):
    """(operation name, sha256) for every operation of one workload."""
    workload = workloads.WORKLOADS[name]
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        ops = workload.ops(workload.setup(seed, workdir, size))
        for op in ops:
            before = workdir_files(workdir) if name == "cli" else {}
            try:
                out = op.run()
            except Exception as exc:
                out = f"{type(exc).__name__}: {exc}"
            if name == "cli":
                out = (out, [(path, data) for path, data in workdir_files(workdir).items()
                             if before.get(path) != data])
            h = hashlib.sha256()
            feed(h, out)
            yield op.name, h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    args = parser.parse_args(argv)
    for name in workloads.WORKLOADS:
        for op_name, digest in operation_hashes(name, args.seed, workloads.SIZES[args.size]):
            print(f"{op_name}\t{digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
