"""Command-line surface: data ingestion, fitting, model files, experiments.

File formats are documented in docs/FORMATS.md.  Complex numbers are
serialized as [re, im] pairs with shortest round-trip decimal formatting,
so writing a model and reading it back is bit-exact.  All numeric tables
are TSV.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import warnings

import numpy as np

from . import baselines, calculus, lightning, polezero, solver
from .trigbary import (
    FarField,
    Parity,
    SampleSet,
    TrigModel,
    TWO_PI,
    evaluate_batch,
)

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Serialization


def _pair(z: complex) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def _pairs(zs) -> list:
    return [_pair(z) for z in np.asarray(zs, dtype=complex)]


def _unpairs(pairs) -> np.ndarray:
    return np.asarray([complex(p[0], p[1]) for p in pairs], dtype=complex)


def model_to_dict(model: TrigModel, report=None) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "parity": model.parity.value,
        "support": _pairs(model.support),
        "fvals": _pairs(model.fvals),
        "weights": _pairs(model.weights),
        "err_history": [float(e) for e in model.err_history],
        "scale": float(model.scale),
        "converged": bool(model.converged),
    }
    if report is not None:
        doc["polezero"] = {
            "poles": _pairs(report.poles),
            "zeros": _pairs(report.zeros),
            "residues": _pairs(report.residues),
            "constant": _pair(report.constant),
        }
    return doc


def model_from_dict(doc: dict) -> TrigModel:
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported model schema: {doc.get('schema_version')!r}")
    return TrigModel(
        Parity.from_string(doc["parity"]),
        _unpairs(doc["support"]),
        _unpairs(doc["fvals"]),
        _unpairs(doc["weights"]),
        np.asarray(doc["err_history"], dtype=float),
        float(doc["scale"]),
        converged=bool(doc.get("converged", True)),
    )


def write_model(path: str, model: TrigModel, report=None) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model, report), fh, indent=2)
        fh.write("\n")


def read_model(path: str) -> TrigModel:
    return _load_json(path, model_from_dict, "model file")


def _load_json(path: str, parse, what: str):
    """Parse the JSON document at path; a missing or mistyped field in it
    becomes ValueError(path: ...)."""
    with open(path) as fh:
        doc = json.load(fh)
    try:
        return parse(doc)
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        raise ValueError(f"{path}: malformed {what} ({exc})")


TABLE_BLOCK = 8192


def write_table(path: str, header: list[str], rows) -> None:
    """Write a TSV table: the header line, then one line per row.

    ``rows`` is a 2-D float ndarray or a sized sequence of rows of Python
    ints and floats.  Every cell is written with ``%r``: ``repr`` of a float
    is its shortest round-trip decimal, and of an int its digits.  Arrays are
    converted to Python floats ``TABLE_BLOCK`` rows at a time, so the text of
    one block is in memory at once; numpy scalars must not reach ``%r``,
    which would print them as ``np.float64(...)``.
    """
    line = "\t".join(["%r"] * len(header)) + "\n"
    with open(path, "w") as fh:
        fh.write("\t".join(header) + "\n")
        for start in range(0, len(rows), TABLE_BLOCK):
            block = rows[start:start + TABLE_BLOCK]
            if isinstance(block, np.ndarray):
                block = block.tolist()
            fh.write("".join([line % tuple(row) for row in block]))


# ---------------------------------------------------------------------------
# Ingestion

CSV_COLUMNS = ["re_z", "im_z", "re_f", "im_f"]


def ingest(path: str, fmt: str = "csv", period: float = TWO_PI) -> SampleSet:
    """Load samples from CSV (header re_z,im_z,re_f,im_f) or JSON, the points rescaled
    from ``period`` to 2*pi before projection onto the strip and the duplicate check."""
    if fmt == "csv":
        points, values = np.ascontiguousarray(_read_csv(path, CSV_COLUMNS, exact=True).T)
    elif fmt == "json":
        points, values = _load_json(
            path, lambda doc: (_unpairs(doc["points"]), _unpairs(doc["values"])),
            "JSON sample file",
        )
        if len(points) != len(values):
            raise ValueError(f"{path}: points and values differ in length")
    else:
        raise ValueError(f"unknown format {fmt!r}")
    try:
        return SampleSet.from_data(_scale_in(points, period), values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}")


def read_points(path: str, fmt: str = "csv") -> np.ndarray:
    """Load evaluation points: CSV (header re_z,im_z) or JSON {"points": ...}."""
    if fmt == "json":
        return _load_json(path, lambda doc: _unpairs(doc["points"]), "JSON points file")
    return _read_csv(path, CSV_COLUMNS[:2], exact=False).ravel()


def _read_csv(path: str, columns: list[str], exact: bool) -> np.ndarray:
    """The (re, im) pairs of a CSV table, (n, len(columns) // 2) complex.  The header
    is columns (exact) or starts with them; each non-blank line holds that many
    numbers (exact) or at least that many fields, of which the first are numbers."""
    k = len(columns)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            names = [h.strip() for h in next(reader, None) or ()]
            if (names if exact else names[:k]) != columns:
                raise ValueError(f"{path}: expected header {','.join(columns)}")
            # loadtxt parses every field, so it succeeds only on lines of one
            # count of plain numbers, which split the same way under the csv
            # rules.  Viewing (x, y) pairs keeps 1.0,inf as 1+infj (x + 1j*y: nan+infj).
            try:
                with warnings.catch_warnings():
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                    table = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
            except ValueError:
                table = np.empty((0, 0))
            if table.shape[1] < k or (exact and table.shape[1] > k):
                # The csv reader takes what loadtxt refuses (whitespace-only lines,
                # quoted numbers, 1_0, text columns) and names a malformed line.
                fh.seek(0)
                reader = csv.reader(fh)
                next(reader)
                rows = []
                for lineno, row in enumerate(reader, start=2):
                    if not row or (len(row) == 1 and not row[0].strip()):
                        continue
                    if exact and len(row) != k:
                        raise ValueError(f"{path}: line {lineno}: expected {k} columns")
                    try:
                        rows.append([float(row[i]) for i in range(k)])
                    except (ValueError, IndexError):
                        what = "number" if exact else "point"
                        raise ValueError(f"{path}: line {lineno}: malformed {what}")
                table = np.asarray(rows, dtype=float).reshape(-1, k)
        except csv.Error as exc:  # a field longer than csv.field_size_limit(), say
            raise ValueError(f"{path}: line {reader.line_num}: {exc}")
    return np.ascontiguousarray(table[:, :k]).view(complex)


# ---------------------------------------------------------------------------
# Commands


def _parse_finf(text: str, parity: Parity) -> FarField:
    parts = text.split(";")
    try:
        pairs = [tuple(float(v) for v in part.split(",")) for part in parts]
        vals = [complex(a, b) for a, b in pairs]
    except (ValueError, TypeError):
        raise ValueError(f"malformed --finf value {text!r}")
    if parity is Parity.EVEN and len(vals) > 1:
        raise ValueError("even parity takes a single far-field value")
    if len(vals) > 2:
        raise ValueError("--finf takes at most two values")
    return FarField(vals[0], vals[-1])


def _fit_config(args) -> solver.FitConfig:
    parity = Parity.from_string(args.parity)
    far = _parse_finf(args.finf, parity) if args.finf else None
    return solver.FitConfig(
        parity=parity,
        rel_tol=args.tol,
        max_order=args.mmax,
        cleanup=not args.no_cleanup,
        far_field=far,
    )


def _scale_in(points: np.ndarray, period: float) -> np.ndarray:
    return points * (TWO_PI / period)


def _write_complex(path: str, header: list[str], a: np.ndarray, b: np.ndarray) -> None:
    """A table of two complex columns, each as its real and imaginary parts."""
    write_table(path, header, np.column_stack([a.real, a.imag, b.real, b.imag]))


def _write_errors(path: str, err_history) -> None:
    write_table(path, ["m", "max_err"], [(m + 1, e) for m, e in enumerate(err_history.tolist())])


def cmd_fit(args) -> int:
    model = solver.fit(ingest(args.data, args.format, args.period), _fit_config(args))
    write_model(args.out + ".model.json", model)
    _write_errors(args.out + ".errors.tsv", model.err_history)
    print(
        f"fit: m={model.m} max_err={model.err_history[-1]:.17g} "
        f"converged={model.converged}"
    )
    return 0


def cmd_eval(args) -> int:
    model = read_model(args.model)
    pts = read_points(args.points, args.format)
    vals = evaluate_batch(model, _scale_in(pts, args.period))
    _write_complex(args.out + ".values.tsv", CSV_COLUMNS, pts, vals)
    return 0


def cmd_poles(args) -> int:
    model = read_model(args.model)
    report = polezero.poles_and_zeros(model)
    factor = args.period / TWO_PI
    _write_complex(args.out + ".poles.tsv", ["re_pole", "im_pole", "re_res", "im_res"],
                   report.poles * factor, report.residues * factor)
    write_model(args.out + ".model.json", model, report)
    print(f"poles: {len(report.poles)} zeros: {len(report.zeros)}")
    return 0


def cmd_diff(args) -> int:
    model = read_model(args.model)
    pts = read_points(args.points, args.format)
    try:
        factor = (TWO_PI / args.period) ** args.order
    except OverflowError:
        raise ValueError(f"--period {args.period!r} is too small for --order {args.order}")
    derivs = calculus.derivative_at(model, _scale_in(pts, args.period), args.order) * factor
    _write_complex(args.out + ".derivs.tsv", ["re_z", "im_z", "re_df", "im_df"], pts, derivs)
    return 0


def cmd_clean(args) -> int:
    model = read_model(args.model)
    samples = ingest(args.data, args.format, args.period)
    far = _parse_finf(args.finf, model.parity) if args.finf else None
    config = solver.FitConfig(parity=model.parity, rel_tol=args.rel_tol, cleanup_tol=args.tol,
                              far_field=far)
    cleaned = solver.cleanup(model, samples, config)
    write_model(args.out + ".model.json", cleaned)
    print(f"clean: m {model.m} -> {cleaned.m}")
    return 0


_COMPARE_FUNCTIONS = {
    "exp-sin": lambda z: np.exp(np.sin(z)),
    "exp": np.exp,
}


def cmd_compare_aaa(args) -> int:
    func = _COMPARE_FUNCTIONS[args.function]
    samples = baselines.rectangle_samples(func, args.n, args.seed)
    trig = solver.fit(samples, solver.FitConfig(rel_tol=args.tol, max_order=args.mmax, cleanup=False))
    aaa = baselines.aaa_fit(samples, rel_tol=args.tol, max_order=args.mmax)
    _write_errors(args.out + ".aaatrig.tsv", trig.err_history)
    _write_errors(args.out + ".aaa.tsv", aaa.err_history)
    print(f"compare-aaa[{args.function}]: aaatrig m={trig.m} aaa m={aaa.m}")
    return 0


def cmd_compare_fft(args) -> int:
    M = args.n
    x = TWO_PI * np.arange(M) / M
    f = np.tanh(60.0 * np.cos(x))
    samples = SampleSet.from_data(x.astype(complex), f.astype(complex))
    trig = solver.fit(samples, solver.FitConfig(rel_tol=args.tol, max_order=args.mmax, cleanup=False))
    fft_errs = baselines.fft_least_squares_errors(samples, np.arange(1, args.mmax + 1))
    _write_errors(args.out + ".aaatrig.tsv", trig.err_history)
    _write_errors(args.out + ".fft.tsv", fft_errs)
    print(f"compare-fft: aaatrig m={trig.m} err={trig.err_history[-1]:.3e}")
    return 0


def cmd_lightning_demo(args) -> int:
    model = lightning.solve_flow_demo(args.per_corner, args.runge)
    compressed = lightning.compress(model)
    grid = lightning.interior_grid()
    vals = lightning.evaluate_lightning(model, grid)
    _write_complex(args.out + ".field.tsv", CSV_COLUMNS, grid, vals)
    report = polezero.poles_and_zeros(compressed)
    write_model(args.out + ".compressed.model.json", compressed, report)
    print(
        f"lightning-demo: residual={model.boundary_residual:.3e} "
        f"poles={model.n_newman} compressed={len(report.poles)}"
    )
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def _period(text: str) -> float:
    """argparse type of --period: a finite positive float P with 2*pi/P finite."""
    period = float(text)
    if not (np.isfinite(period) and period > 0.0 and np.isfinite(TWO_PI / period)):
        raise argparse.ArgumentTypeError(
            f"period must be a finite positive number with finite 2*pi/period, got {text!r}")
    return period


def _add_common(p: argparse.ArgumentParser, data: bool = False, model: bool = False,
                points: bool = False) -> None:
    if data:
        p.add_argument("--data", required=True, help="samples file")
    if model:
        p.add_argument("--model", required=True, help="model JSON file")
    if points:
        p.add_argument("--points", required=True, help="points file")
    # --format is read only with a samples or points file, --period with
    # any input in user coordinates.
    if data or points:
        p.add_argument("--format", choices=["csv", "json"], default="csv")
    if data or model or points:
        p.add_argument("--period", type=_period, default=TWO_PI)
    p.add_argument("--out", required=True, help="output path prefix")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aaatrig",
        description="Adaptive trigonometric rational approximation of periodic data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a model to sampled data")
    _add_common(p, data=True)
    p.add_argument("--parity", choices=["odd", "even"], default="odd")
    p.add_argument("--tol", type=float, default=1e-13)
    p.add_argument("--mmax", type=int, default=100)
    p.add_argument("--no-cleanup", action="store_true")
    p.add_argument("--finf", default=None, help='far-field target "re,im[;re,im]"')
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("eval", help="evaluate a model at points")
    _add_common(p, model=True, points=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("poles", help="poles, zeros and residues of a model")
    _add_common(p, model=True)
    p.set_defaults(func=cmd_poles)

    p = sub.add_parser("diff", help="differentiate a model at points")
    _add_common(p, model=True, points=True)
    p.add_argument("--order", type=int, default=1)
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("clean", help="rerun doublet cleanup on a model")
    _add_common(p, data=True, model=True)
    p.add_argument("--tol", type=float, default=1e-13)
    p.add_argument("--rel-tol", type=float, default=1e-13, help="the fit's --tol, for converged")
    p.add_argument("--finf", default=None, help='far-field target "re,im[;re,im]"')
    p.set_defaults(func=cmd_clean)

    p = sub.add_parser("compare-aaa", help="error tables: trigonometric vs classic fit")
    _add_common(p)
    p.add_argument("--function", choices=sorted(_COMPARE_FUNCTIONS), default="exp-sin")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-13)
    p.add_argument("--mmax", type=int, default=100)
    p.set_defaults(func=cmd_compare_aaa)

    p = sub.add_parser("compare-fft", help="error tables: trigonometric fit vs truncated DFT")
    _add_common(p)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--tol", type=float, default=1e-13)
    p.add_argument("--mmax", type=int, default=100)
    p.set_defaults(func=cmd_compare_fft)

    p = sub.add_parser("lightning-demo", help="periodic flow demo with compression")
    _add_common(p)
    p.add_argument("--per-corner", type=int, default=61)
    p.add_argument("--runge", type=int, default=24)
    p.set_defaults(func=cmd_lightning_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, np.linalg.LinAlgError, MemoryError) as exc:
        print(f"aaatrig: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
