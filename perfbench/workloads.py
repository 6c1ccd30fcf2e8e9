"""The benchmark workloads: seeded inputs, timed operations and their checks.

Each workload has a set-up (inputs, input files, set-up fits) and a pass: a
list of operations run one after another.  An operation's ``run`` is the
timed call into aaatrig; its ``check`` runs untimed and returns an
``Outcome``.  Checks use reference code of their own (a direct barycentric
sum, analytic derivatives by the Cauchy integral, far-field limits) so that
they do not pass through the layers being measured.

Library calls go through module attributes (``solver.fit``, not a name
imported from it) so that the span wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from aaatrig import baselines, calculus, cli, lightning, polezero, solver, trigbary

TWO_PI = 2.0 * np.pi

# Sizes of the measured workloads, and of the tiny ones the self-test runs.
SIZES = {
    "full": dict(M=1000, circle_order=100, eval_pts=100_000, deriv_pts=1000,
                 cli_eval_pts=200_000, cli_diff_pts=2000, lightning_args=[]),
    "tiny": dict(M=64, circle_order=10, eval_pts=400, deriv_pts=8,
                 cli_eval_pts=300, cli_diff_pts=8,
                 lightning_args=["--per-corner", "12", "--runge", "8"]),
}

# Share of the analyze evaluation points placed at |Im z| in [40, 80], where
# odd models take the far-field branch of evaluate_batch.
FAR_SHARE = 0.03

# Accuracy tolerances, relative to the data scale.  The fit and grid
# derivative bounds are the acceptance-suite ones (criteria 1, 3, 4, 7).  The
# others are 100x the worst error the seed shows on seeds 1-5 (and 101-110
# for the CLI derivative), rounded up to a power of ten, so they catch lost
# digits, not rounding noise.
TOL_TANH_SAMPLES = 1e-8
TOL_CIRCLE_SAMPLES = 1e-12
TOL_RECT_SAMPLES = 1e-11
TOL_GRID_DERIVATIVE = 1e-8
TOL_EVAL = 1e-11
TOL_FAR_FIELD = 1e-10
TOL_DERIVATIVE = {1: 1e-10, 4: 1e-8}
TOL_PARTIAL_FRACTIONS = 1e-6
TOL_CLI_EVAL = 1e-7  # criterion 1's fine-grid bound
TOL_CLI_DIFF = 1e-8
RESIDUAL_TOL = 1e-6  # relative kernel-sum residual at a reported pole or zero

# Exceptions the seed raises, by operation (see README.md, "Known failures").
KNOWN_RAISES = {
    "analyze.interp64.partial_fractions": "ValueError: non-simple pole",
}

# Trapezoidal nodes of the Cauchy-integral derivatives.
CAUCHY_NODES = 64

# Where a result is only as accurate as rounding allows (see the floors in
# Bary), an error counts only by how far it exceeds ROUND_K times the
# rounding estimate.
EPS = np.finfo(float).eps
ROUND_K = 10.0


def tanh60(z):
    return np.tanh(60.0 * np.cos(z))


def log_cos4(z):
    return np.log(2.0 + np.cos(z) ** 4)


def exp_sin(z):
    return np.exp(np.sin(z))


def derivative(f, z, p: int, radius: float) -> np.ndarray:
    """p-th derivative of an analytic f: trapezoidal rule on the Cauchy integral.

    ``radius`` must stay below the distance from z to f's nearest
    singularity; the error then falls like (radius / distance)**CAUCHY_NODES.
    """
    w = radius * np.exp(2j * np.pi * np.arange(CAUCHY_NODES) / CAUCHY_NODES)
    z = np.asarray(z, dtype=complex)
    return math.factorial(p) * np.mean(f(z[..., None] + w) * w ** -p, axis=-1)


# ---------------------------------------------------------------------------
# Reference computations on a model given by its arrays


@dataclass(frozen=True)
class Bary:
    """A trigonometric barycentric model as plain arrays."""

    support: np.ndarray
    fvals: np.ndarray
    weights: np.ndarray
    even: bool

    @classmethod
    def of(cls, model) -> "Bary":
        return cls(model.support, model.fvals, model.weights, model.parity.value == "even")

    @classmethod
    def from_json(cls, path) -> "Bary":
        doc = json.loads(Path(path).read_text())

        def arr(key):
            return np.asarray([complex(a, b) for a, b in doc[key]], dtype=complex)

        return cls(arr("support"), arr("fvals"), arr("weights"), doc["parity"] == "even")

    def kernel(self, z) -> np.ndarray:
        u = (np.asarray(z, dtype=complex)[:, None] - self.support[None, :]) / 2.0
        with np.errstate(divide="ignore", invalid="ignore"):
            return (np.cos(u) if self.even else 1.0) / np.sin(u)

    def evaluate(self, z) -> np.ndarray:
        """Direct sum, for points near the real axis; exact at support points."""
        z = np.asarray(z, dtype=complex)
        C = self.kernel(z)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = (C @ (self.weights * self.fvals)) / (C @ self.weights)
        gap = np.abs(np.sin((z[:, None] - self.support[None, :]) / 2.0))
        hit = np.min(gap, axis=1) < 1e-14
        r[hit] = self.fvals[np.argmin(gap[hit], axis=1)]
        return r

    def far_limits(self):
        """(value, rounding floor) at +i*inf and at -i*inf.

        The value is sum f_j e_j / sum e_j with e_j = w_j e^{-+i z_j/2} (odd)
        or w_j (even).  Fitted models cancel heavily in sum e_j, so the floor
        is ROUND_K * eps * sum |e_j| (|f_j| + |value|) / |sum e_j|.
        """
        w, f, z = self.weights, self.fvals, self.support
        out = []
        for e in ((w, w) if self.even else (w * np.exp(-0.5j * z), w * np.exp(0.5j * z))):
            den = np.sum(e)
            val = np.sum(f * e) / den
            out.append((val, ROUND_K * EPS * np.sum(np.abs(e) * (np.abs(f) + abs(val))) / abs(den)))
        return out

    def derivative_floor(self, z, p: int, scale: float, deriv_scale: float) -> np.ndarray:
        """Rounding floor of a p-th derivative computed from the kernel sums.

        ROUND_K eps (scale p! / delta**p + deriv_scale kappa**(p+1)).  delta
        is the distance from z to the nearest support point, as the
        recurrence cancels like 1/delta**p when z nears one.  kappa is
        sum |w_j K_j| / |sum w_j K_j|, the cancellation in the denominator;
        the recurrence divides by it once per order, so next to a pole of
        the model (kappa of 1e4 and more) few digits survive.
        """
        delta = np.min(np.abs(2.0 * np.sin((z[:, None] - self.support[None, :]) / 2.0)), axis=1)
        terms = self.kernel(z) * self.weights
        kappa = np.sum(np.abs(terms), axis=1) / np.abs(np.sum(terms, axis=1))
        return ROUND_K * EPS * (scale * math.factorial(p) / delta ** p
                               + deriv_scale * kappa ** (p + 1))

    def root_residuals(self, roots, numerator: bool) -> np.ndarray:
        """|kernel sum| / max |term| at each root (denominator or numerator)."""
        coeff = self.weights * (self.fvals if numerator else 1.0)
        terms = self.kernel(roots) * coeff[None, :]
        with np.errstate(invalid="ignore"):
            return np.abs(np.sum(terms, axis=1)) / np.max(np.abs(terms), axis=1)


# ---------------------------------------------------------------------------
# Outcomes


@dataclass
class Outcome:
    """Result of checking one operation.

    err is the worst measured error relative to the data scale (None where
    the check measures no such error); known marks a failure the seed is
    documented to have; m is the order of the model the operation produced.
    """

    ok: bool = True
    err: float | None = None
    reason: str = ""
    known: bool = False
    m: int = 0


def accuracy(err: float, tol: float, what: str, m: int = 0) -> Outcome:
    ok = bool(err <= tol)
    return Outcome(ok, float(err), "" if ok else f"{what}: error {err:.3e} > {tol:.0e}", m=m)


class CheckFailed(Exception):
    """Raised inside a check; the operation fails with this reason."""


def failure(reason: str) -> Outcome:
    return Outcome(False, reason=reason)


def merge(*outcomes: Outcome) -> Outcome:
    errs = [o.err for o in outcomes if o.err is not None]
    bad = [o for o in outcomes if not o.ok]
    return Outcome(
        not bad,
        max(errs) if errs else None,
        "; ".join(o.reason for o in bad),
        bool(bad) and all(o.known for o in bad),
        sum(o.m for o in outcomes),
    )


def excess_error(got, want, scale: float, floor=0.0) -> float:
    """Worst |got - want| beyond its rounding floor, relative to scale."""
    return float(np.max(np.maximum(np.abs(got - want) - floor, 0.0))) / scale


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]

    def outcome(self, out, exc: Exception | None) -> Outcome:
        """Check the output of one run; an exception fails the operation."""
        if exc is not None:
            known = KNOWN_RAISES.get(self.name) == f"{type(exc).__name__}: {exc}"
            return Outcome(False, reason=f"{self.name}: raised {type(exc).__name__}: {exc}",
                           known=known)
        try:
            return self.check(out)
        except CheckFailed as e:
            return failure(str(e))
        except Exception as e:  # a check that cannot read the output fails the op
            return failure(f"{self.name}: check raised {type(e).__name__}: {e}")


@dataclass(frozen=True)
class Workload:
    """setup_repeats set-ups give the median setup_s; a run makes at least
    min_passes passes (2 or more, so that a traced run has one of each kind)."""

    why: str
    setup: Callable
    ops: Callable
    setup_repeats: int
    min_passes: int


# ---------------------------------------------------------------------------
# fit


def tanh_samples(M: int):
    x = TWO_PI * np.arange(M) / M
    return trigbary.SampleSet.from_data(x.astype(complex), tanh60(x).astype(complex))


def circle_samples(M: int):
    z = np.exp(2j * np.pi * np.arange(M) / M)
    return trigbary.SampleSet.from_data(z, log_cos4(z))


def fit_circle(samples, max_order: int):
    """Criterion 4: run to the order cap with rel_tol 0, then clean up."""
    config = solver.FitConfig(rel_tol=0.0, max_order=max_order, cleanup=False)
    raw = solver.fit(samples, config)
    return solver.cleanup(raw, samples, solver.FitConfig(rel_tol=0.0, max_order=max_order))


def check_fit(model, samples, tol: float, what: str) -> Outcome:
    got = Bary.of(model).evaluate(samples.points)
    err = float(np.max(np.abs(got - samples.values)) / np.max(np.abs(samples.values)))
    return accuracy(err, tol, what, m=model.m)


def setup_fit(seed: int, workdir: Path, size: dict) -> dict:
    M = size["M"]
    return {
        "tanh": tanh_samples(M),
        "circle": circle_samples(M),
        "rect": baselines.rectangle_samples(exp_sin, M, seed),
        "circle_order": size["circle_order"],
    }


def fit_ops(state: dict) -> list[Op]:
    tanh, circle, rect = state["tanh"], state["circle"], state["rect"]
    return [
        Op("fit.tanh_odd",
           lambda: solver.fit(tanh, solver.FitConfig()),
           lambda m: check_fit(m, tanh, TOL_TANH_SAMPLES, "tanh sample error")),
        Op("fit.circle_cleanup",
           lambda: fit_circle(circle, state["circle_order"]),
           lambda m: check_fit(m, circle, TOL_CIRCLE_SAMPLES, "circle sample error")),
        Op("fit.rect_exp_sin",
           lambda: solver.fit(rect, solver.FitConfig(cleanup=False)),
           lambda m: check_fit(m, rect, TOL_RECT_SAMPLES, "rectangle sample error")),
    ]


# ---------------------------------------------------------------------------
# analyze


@dataclass
class Subject:
    """A model fitted in set-up, the function it approximates, and its inputs."""

    name: str
    model: object
    func: Callable
    radius: float       # Cauchy-integral radius for analytic derivatives
    points: np.ndarray = None
    far: np.ndarray = None
    deriv_points: np.ndarray = None


def _real_line(rng, n):
    return rng.uniform(0.0, TWO_PI, n).astype(complex)


def _inner_segment(rng, n):
    # The circle model is fitted on |z| = 1; inside the disk it converges too.
    return rng.uniform(-0.7, 0.7, n).astype(complex)


def _inner_disk(rng, n):
    return rng.uniform(0.3, 1.0, n) * np.exp(1j * rng.uniform(0.0, TWO_PI, n))


def setup_analyze(seed: int, workdir: Path, size: dict) -> list[Subject]:
    M = size["M"]
    tanh, circle = tanh_samples(M), circle_samples(M)
    sup = TWO_PI * np.arange(64) / 64
    interp = trigbary.TrigModel.build(
        trigbary.Parity.EVEN, sup, exp_sin(sup),
        trigbary.interpolatory_weights(trigbary.Parity.EVEN, sup),
    )
    subjects = [
        Subject("tanh_odd", solver.fit(tanh, solver.FitConfig()), tanh60, 0.01),
        Subject("tanh_even", solver.fit(tanh, solver.FitConfig(parity=trigbary.Parity.EVEN)),
                tanh60, 0.01),
        Subject("circle", fit_circle(circle, size["circle_order"]), log_cos4, 0.05),
        Subject("interp64", interp, exp_sin, 0.5),
    ]
    rng = np.random.default_rng(seed)
    n = size["eval_pts"]
    n_far = int(round(FAR_SHARE * n))
    for s in subjects:
        near_sampler = _inner_disk if s.name == "circle" else _real_line
        line_sampler = _inner_segment if s.name == "circle" else _real_line
        near = near_sampler(rng, n - n_far)
        height = rng.choice([-1.0, 1.0], n_far) * rng.uniform(40.0, 80.0, n_far)
        far = rng.uniform(0.0, TWO_PI, n_far) + 1j * height
        order = rng.permutation(n)
        s.points = np.concatenate([near, far])[order]
        s.far = order >= n - n_far
        s.deriv_points = line_sampler(rng, size["deriv_pts"])
    return subjects


def check_eval(s: Subject, values) -> Outcome:
    scale = s.model.scale
    near = accuracy(excess_error(values[~s.far], s.func(s.points[~s.far]), scale),
                    TOL_EVAL, f"{s.name} evaluation", m=s.model.m)
    if not np.any(s.far):
        return near
    (plus, floor_p), (minus, floor_m) = Bary.of(s.model).far_limits()
    up = s.points[s.far].imag > 0
    far_err = excess_error(values[s.far], np.where(up, plus, minus), scale,
                           np.where(up, floor_p, floor_m))
    return merge(near, accuracy(far_err, TOL_FAR_FIELD, f"{s.name} far-field evaluation"))


def check_poles(s: Subject, report) -> Outcome:
    bary = Bary.of(s.model)
    worst = max(
        float(np.max(bary.root_residuals(roots, numerator), initial=0.0))
        for roots, numerator in ((report.poles, False), (report.zeros, True))
    )
    if not worst <= RESIDUAL_TOL:
        return failure(f"{s.name} poles/zeros: kernel-sum residual {worst:.1e} > {RESIDUAL_TOL:.0e}")
    return Outcome()


def check_partial_fractions(s: Subject, pf) -> Outcome:
    """Far-field identities of the cotangent form (criterion 6)."""
    if len(pf.poles) == 0:
        return Outcome()
    (plus, floor_p), (minus, floor_m) = Bary.of(s.model).far_limits()
    total = np.sum(pf.coefficients)
    floor_q = ROUND_K * EPS * np.sum(np.abs(pf.coefficients))
    if s.model.parity is trigbary.Parity.EVEN:
        got, want, floor = [total, pf.constant], [0.0, plus], [floor_q, floor_p]
    else:
        got = [pf.constant - 1j * total, pf.constant + 1j * total]
        want, floor = [plus, minus], [floor_q + floor_p, floor_q + floor_m]
    err = excess_error(np.asarray(got), np.asarray(want), s.model.scale, np.asarray(floor))
    return accuracy(err, TOL_PARTIAL_FRACTIONS, f"{s.name} partial-fraction far field")


def check_derivatives(bary: Bary, x, got, want, p: int, tol: float, what: str,
                      data_scale: float) -> Outcome:
    """derivative_at output against the function's derivative at points x."""
    deriv_scale = float(np.max(np.abs(want)))
    floor = bary.derivative_floor(x, p, data_scale, deriv_scale)
    return accuracy(excess_error(np.asarray(got), want, deriv_scale, floor), tol, what)


def check_derivs(s: Subject, p: int, values) -> Outcome:
    x = s.deriv_points
    return check_derivatives(Bary.of(s.model), x, values, derivative(s.func, x, p, s.radius), p,
                             TOL_DERIVATIVE[p], f"{s.name} derivative_at order {p}",
                             s.model.scale)


def diff_orders(model) -> list[int]:
    """Orders diff_matrix supports for the model (README, Notes)."""
    if model.parity is trigbary.Parity.EVEN:
        d = model.support[:, None] - model.support[None, :]
        # Half-differences within 1e-2 of an odd multiple of pi/2, as the
        # package's antipodal guard tests them.
        gap = np.abs(np.mod(d.real, TWO_PI) - np.pi + 1j * d.imag)
        if np.any(gap < 2e-2):
            return [1]
    return [1, 2, 3, 4]


def check_diff(s: Subject, p: int, dm) -> Outcome:
    D = dm.entries
    bad_rows = np.flatnonzero(~np.all(np.isfinite(D), axis=1))
    if len(bad_rows):
        zero = np.flatnonzero(s.model.weights == 0)
        # Known at the seed: a weight that is exactly 0 divides by zero in
        # the w_j / w_k factor of its own row k, and only there.
        return Outcome(
            False,
            reason=(f"{s.name} diff_matrix order {p}: non-finite rows {bad_rows.tolist()}; "
                    f"weight exactly 0 at support points {zero.tolist()}"),
            known=set(bad_rows.tolist()) <= set(zero.tolist()),
        )
    want = derivative(s.func, s.model.support, p, s.radius)
    return accuracy(excess_error(D @ s.model.fvals, want, float(np.max(np.abs(want)))),
                    TOL_GRID_DERIVATIVE,
                    f"{s.name} diff_matrix order {p}")


def analyze_ops(subjects: list[Subject]) -> list[Op]:
    ops = []
    for s in subjects:
        ops += [
            Op(f"analyze.{s.name}.evaluate_batch",
               lambda s=s: trigbary.evaluate_batch(s.model, s.points),
               lambda v, s=s: check_eval(s, v)),
            Op(f"analyze.{s.name}.poles_and_zeros",
               lambda s=s: polezero.poles_and_zeros(s.model),
               lambda r, s=s: check_poles(s, r)),
            Op(f"analyze.{s.name}.partial_fractions",
               lambda s=s: polezero.partial_fractions(s.model),
               lambda pf, s=s: check_partial_fractions(s, pf)),
        ]
        for p in (1, 4):
            ops.append(Op(
                f"analyze.{s.name}.derivative_at.{p}",
                lambda s=s, p=p: [calculus.derivative_at(s.model, z, p) for z in s.deriv_points],
                lambda v, s=s, p=p: check_derivs(s, p, v),
            ))
        for p in diff_orders(s.model):
            ops.append(Op(
                f"analyze.{s.name}.diff_matrix.{p}",
                lambda s=s, p=p: calculus.diff_matrix(s.model, p),
                lambda dm, s=s, p=p: check_diff(s, p, dm),
            ))
    return ops


# ---------------------------------------------------------------------------
# cli


def write_csv(path: Path, header: str, columns) -> None:
    rows = np.column_stack(columns)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_tsv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter="\t", skiprows=1, ndmin=2)


def run_cli(argv: list[str]):
    """cli.main in-process; returns (exit status, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def setup_cli(seed: int, workdir: Path, size: dict) -> dict:
    M = size["M"]
    x = TWO_PI * np.arange(M) / M
    rng = np.random.default_rng(seed)
    eval_x = rng.uniform(0.0, TWO_PI, size["cli_eval_pts"])
    diff_x = rng.uniform(0.0, TWO_PI, size["cli_diff_pts"])
    files = {key: workdir / name for key, name in (
        ("data", "tanh.csv"), ("eval", "eval.csv"), ("diff", "diff.csv"))}
    zeros = np.zeros(M)
    write_csv(files["data"], "re_z,im_z,re_f,im_f", (x, zeros, tanh60(x), zeros))
    write_csv(files["eval"], "re_z,im_z", (eval_x, np.zeros_like(eval_x)))
    write_csv(files["diff"], "re_z,im_z", (diff_x, np.zeros_like(diff_x)))
    return {"seed": seed, "workdir": workdir, "files": files, "x": x,
            "eval_x": eval_x, "diff_x": diff_x, "size": size}


def exited_0(what: str, result) -> None:
    code, _, err = result
    if code != 0:
        raise CheckFailed(f"{what}: exit status {code}: {err.strip()[-200:]}")


def table(path, rows: int | None, what: str) -> np.ndarray:
    """A TSV the CLI wrote, which must have the expected number of rows."""
    data = read_tsv(path)
    if rows is not None and len(data) != rows:
        raise CheckFailed(f"{what}: {len(data)} rows in {Path(path).name}, expected {rows}")
    return data


def cli_ops(state: dict) -> list[Op]:
    w, files, size = state["workdir"], state["files"], state["size"]
    run, vals, pz, dv, cmp, demo = (str(w / n) for n in ("run", "vals", "pz", "dv", "cmp", "demo"))
    model_path = run + ".model.json"

    def check_cli_fit(result):
        exited_0("cli fit", result)
        bary = Bary.from_json(model_path)
        m = len(bary.support)
        table(run + ".errors.tsv", m, "cli fit")
        got = bary.evaluate(state["x"].astype(complex))
        err = float(np.max(np.abs(got - tanh60(state["x"]))))
        return accuracy(err, TOL_TANH_SAMPLES, "cli fit sample error", m=m)

    def check_cli_eval(result):
        exited_0("cli eval", result)
        data = table(vals + ".values.tsv", len(state["eval_x"]), "cli eval")
        if np.any(data[:, 0] != state["eval_x"]):
            return failure("cli eval: points do not round-trip")
        err = float(np.max(np.abs(data[:, 2] + 1j * data[:, 3] - tanh60(state["eval_x"]))))
        return accuracy(err, TOL_CLI_EVAL, "cli eval error")

    def check_cli_poles(result):
        exited_0("cli poles", result)
        doc = json.loads(Path(pz + ".model.json").read_text())
        data = table(pz + ".poles.tsv", len(doc["polezero"]["poles"]), "cli poles")
        residual = Bary.from_json(model_path).root_residuals(data[:, 0] + 1j * data[:, 1], False)
        worst = float(np.max(residual, initial=0.0))
        if not worst <= RESIDUAL_TOL:
            return failure(f"cli poles: kernel-sum residual {worst:.1e} > {RESIDUAL_TOL:.0e}")
        return Outcome()

    def check_cli_diff(result):
        exited_0("cli diff", result)
        data = table(dv + ".derivs.tsv", len(state["diff_x"]), "cli diff")
        x = state["diff_x"].astype(complex)
        return check_derivatives(Bary.from_json(model_path), x, data[:, 2] + 1j * data[:, 3],
                                 derivative(tanh60, x, 2, 0.01), 2, TOL_CLI_DIFF,
                                 "cli diff order 2", 1.0)

    def check_cli_compare(result):
        exited_0("cli compare-aaa", result)
        samples = baselines.rectangle_samples(exp_sin, size["M"], state["seed"])
        scale = float(np.max(np.abs(samples.values)))
        outcomes = []
        for method in ("aaatrig", "aaa"):
            errors = table(f"{cmp}.{method}.tsv", None, "cli compare-aaa")
            outcomes.append(accuracy(errors[-1, 1] / scale, TOL_RECT_SAMPLES,
                                     f"cli compare-aaa {method} error", m=len(errors)))
        return merge(*outcomes)

    def check_cli_demo(result):
        exited_0("cli lightning-demo", result)
        data = table(demo + ".field.tsv", len(lightning.interior_grid()), "cli lightning-demo")
        bary = Bary.from_json(demo + ".compressed.model.json")
        residual = float(result[1].split("residual=")[1].split()[0])
        field_vals = data[:, 2] + 1j * data[:, 3]
        scale = float(np.max(np.abs(field_vals)))
        err = float(np.max(np.abs(bary.evaluate(data[:, 0] + 1j * data[:, 1]) - field_vals)))
        return accuracy(err / scale, 10.0 * residual / scale,
                        "cli lightning-demo interior agreement", m=len(bary.support))

    return [
        Op("cli.fit", lambda: run_cli(
            ["fit", "--data", str(files["data"]), "--parity", "even", "--finf", "0,0", "--out", run]),
           check_cli_fit),
        Op("cli.eval", lambda: run_cli(
            ["eval", "--model", model_path, "--points", str(files["eval"]), "--out", vals]),
           check_cli_eval),
        Op("cli.poles", lambda: run_cli(["poles", "--model", model_path, "--out", pz]),
           check_cli_poles),
        Op("cli.diff", lambda: run_cli(
            ["diff", "--model", model_path, "--points", str(files["diff"]), "--order", "2",
             "--out", dv]),
           check_cli_diff),
        Op("cli.compare_aaa", lambda: run_cli(
            ["compare-aaa", "--function", "exp-sin", "--n", str(size["M"]),
             "--seed", str(state["seed"]), "--out", cmp]),
           check_cli_compare),
        Op("cli.lightning_demo", lambda: run_cli(
            ["lightning-demo", "--out", demo] + size["lightning_args"]),
           check_cli_demo),
    ]


WORKLOADS = {
    "fit": Workload(
        "greedy fits only: one that converges early, one that hits the order cap "
        "and is cleaned up, and a scattered complex one",
        setup_fit, fit_ops, setup_repeats=3, min_passes=2),
    "analyze": Workload(
        "fitted models only evaluated, differentiated and analysed for poles; "
        "the fits are set-up, so the greedy loop is bypassed",
        # One set-up (three fits, about 18 s) and more passes: evaluate_batch
        # time swings with the machine's memory load, and per-operation
        # medians over five passes damp that; set-up time is compute-bound
        # and steady without repeats.
        setup_analyze, analyze_ops, setup_repeats=1, min_passes=5),
    "cli": Workload(
        "the aaatrig commands in-process on generated files: ingest, serialization, "
        "the AAA baseline and the lightning demo",
        setup_cli, cli_ops, setup_repeats=5, min_passes=2),
}
