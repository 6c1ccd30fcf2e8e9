"""Greedy fitting of barycentric rationals.

The loop alternates greedy support selection with a least-squares solve for
the weights: at step m the sample with the largest residual joins the
support, the Loewner matrix is assembled over the remaining samples, and
the weights are the right singular vector of its smallest singular value.
Each support point's Loewner row is formed over all samples by one formula
(:func:`_loewner_rows`), and every Loewner matrix is gathered from such rows
by :func:`_assemble`, for the weight solves and :func:`loewner_system` alike.
One greedy routine (:func:`greedy`) and one solve step
(:func:`solve_weights`) serve :func:`fit`, the re-solve in :func:`cleanup`
and the classic AAA baseline; callers differ only in the kernel and the
optional far-field constraint they pass.  The greedy forms the kernel column
and Loewner row of a support point once, when it joins, so a step costs them,
one gather and the factorization, and O(M*m) memory at order m.  The
trigonometric fit uses the cst kernel, with an optional far-field constraint
C w = 0 that pins the approximant's values at +-i*infinity; the weight solve
holds it exactly, by the null-space method.  An optional cleanup pass
removes spurious pole-zero pairs (Froissart doublets) after termination.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import polezero
from .numerics import constrained_min_singular_direction
from .trigbary import (
    FarField,
    Parity,
    SampleSet,
    TrigModel,
    _cst_values,
    _far_weights,
    strip_distance,
)


@dataclass(frozen=True)
class FitConfig:
    """Knobs for :func:`fit`.

    rel_tol and cleanup_tol are relative to the data scale max|f|.
    """

    parity: Parity = Parity.ODD
    rel_tol: float = 1e-13
    max_order: int = 100
    cleanup: bool = True
    cleanup_tol: float = 1e-13
    far_field: FarField | None = None

    def __post_init__(self):
        _check_greedy_limits(self.rel_tol, self.max_order)
        if not self.cleanup_tol >= 0.0:
            raise ValueError("cleanup_tol must be nonnegative")


def _check_greedy_limits(rel_tol: float, max_order: int) -> None:
    # Written as "not x >= bound" so that NaN is rejected too.
    if not rel_tol >= 0.0:
        raise ValueError("rel_tol must be nonnegative")
    if not max_order >= 1:
        raise ValueError("max_order must be positive")


@dataclass(frozen=True)
class LeastSquaresSystem:
    """Weight least-squares system min ||matrix @ w||, ||w|| = 1.

    The unconstrained block factors as diag(s_F) @ cauchy - cauchy @ diag(s_f)
    with s_F the non-support data values and s_f the support values.
    """

    matrix: np.ndarray
    active_rows: np.ndarray
    s_F: np.ndarray
    s_f: np.ndarray
    cauchy: np.ndarray


def loewner_system(samples: SampleSet, support_idx, kernel) -> LeastSquaresSystem:
    """Loewner matrix over the non-support samples for any kernel.

    Entry (k, j) is (F_k - f_j) * kernel(Z_k - z_j) where Z_k runs over the
    samples not chosen as support, assembled as in every weight solve.
    """
    support_idx = np.asarray(support_idx, dtype=int)
    if len(np.unique(support_idx)) != len(support_idx):
        raise ValueError("support indices must be distinct")
    if len(support_idx) > samples.size / 2:
        raise ValueError("order exceeds half the sample count")
    columns = kernel_columns(samples, support_idx, kernel)
    A, rows = _assemble(samples, support_idx, _loewner_rows(samples, support_idx, columns))
    return LeastSquaresSystem(A, rows, samples.values[rows], samples.values[support_idx],
                              columns[rows])


def _loewner_rows(samples: SampleSet, support_idx, columns) -> np.ndarray:
    """Row j is (F_k - f_j) * columns[k, j] over all M samples k; the entries
    at support rows, 0 * kernel(0) among them, are never gathered."""
    fj = samples.values[np.asarray(support_idx, dtype=int)]
    with np.errstate(invalid="ignore"):
        return (samples.values[None, :] - fj[:, None]) * columns.T


def _assemble(samples: SampleSet, support_idx, lrows):
    """The one Loewner assembly: the non-support columns k of the Loewner
    rows ``lrows`` (see :func:`_loewner_rows`), gathered into a fresh
    F-contiguous matrix, and those k, the active rows."""
    rows = np.delete(np.arange(samples.size), support_idx)
    return np.take(lrows, rows, axis=1).T, rows


def assemble_loewner(samples: SampleSet, support_idx, parity: Parity) -> LeastSquaresSystem:
    """Trigonometric Loewner matrix: the kernel is cst((Z_k - z_j)/2)."""
    return loewner_system(samples, support_idx, _trig_kernel(parity))


def append_far_field_rows(
    system: LeastSquaresSystem, target: FarField, parity: Parity, support
) -> LeastSquaresSystem:
    """Append the constraint rows that pin the far-field values.

    Odd parity appends two rows with entries (f_inf^+- - f_j) e^{-+i z_j/2};
    even parity appends the single row f_inf - f_j.  These rows are the
    block C of the constraint C w = 0 that :func:`solve_weights` holds by
    the null-space method; stacked under the Loewner matrix they are a view
    of it for inspection, not the system that is solved.
    """
    rows = _far_field_rows(target, parity, np.asarray(support, dtype=complex), system.s_f)
    return replace(system, matrix=np.vstack([system.matrix, rows]))


def _far_field_rows(target: FarField, parity: Parity, zj, fj) -> np.ndarray:
    """The far-field constraint rows for support points zj with values fj."""
    rows = np.vstack(_far_weights(parity, zj, target.f_plus - fj, target.f_minus - fj))
    return rows if parity is Parity.ODD else rows[:1]


def _trig_kernel(parity: Parity):
    """The cst((Z_k - z_j)/2) kernel of the trigonometric Loewner system."""
    return lambda d: _cst_values(parity, d / 2.0)


def _far_rows(target: FarField | None, parity: Parity):
    return None if target is None else partial(_far_field_rows, target, parity)


def solve_weights(samples: SampleSet, support_idx, columns, lrows, far_rows=None):
    """One weight solve on the Loewner system of a support.

    :func:`_assemble` gathers the system A from the support's Loewner rows.
    The weights minimise ||A w|| with ||w|| = 1 subject to C w = 0, held to
    rounding by :func:`~aaatrig.numerics.constrained_min_singular_direction`,
    which factors A in place.  C is ``far_rows(z_j, f_j)`` (one row for even
    parity, two for odd), or has no rows when ``far_rows`` is None, and then
    the weights are those of :func:`~aaatrig.numerics.min_singular_direction`
    bit for bit.  While the order m is at most the rank r of C, only w = 0
    satisfies the constraint, so those first steps solve without it.
    Returns the weights, the active (non-support) rows and the absolute
    residuals of the rational there, taken on the kernel columns over all M
    samples and then read at those rows.
    """
    A, rows = _assemble(samples, support_idx, lrows)
    fj = samples.values[support_idx]
    C = np.zeros((0, len(fj))) if far_rows is None else far_rows(samples.points[support_idx], fj)
    weights = constrained_min_singular_direction(A, C, overwrite_a=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = (columns @ (weights * fj)) / (columns @ weights)
    return weights, rows, np.abs(samples.values[rows] - r[rows])


def kernel_columns(samples: SampleSet, support_idx, kernel) -> np.ndarray:
    """kernel(Z_k - z_j) for every sample k (rows) and support point j."""
    pts = samples.points
    with np.errstate(divide="ignore", invalid="ignore"):
        return kernel(pts[:, None] - pts[np.asarray(support_idx, dtype=int)][None, :])


def greedy(samples: SampleSet, kernel, rel_tol: float, max_order: int, far_rows=None):
    """Greedy support selection around :func:`solve_weights`.

    Each step adds the sample with the largest residual to the support and
    re-solves, until the max residual over the remaining samples drops below
    rel_tol * max|f| or an order cap is hit (max_order or half the sample
    count).  The kernel columns and Loewner rows of earlier support points
    are kept from step to step, so a step forms them only for the new point
    (M entries each); both buffers double as the order grows, so memory is
    O(M*m) in the order m reached.  Returns (support indices, weights,
    err_history, scale, converged) of the last step.
    """
    _check_greedy_limits(rel_tol, max_order)
    M = samples.size
    if M < 4:
        raise ValueError("need at least 4 samples")
    vals = samples.values
    scale = float(np.max(np.abs(vals)))
    resid = np.abs(vals - np.mean(vals))
    active = np.ones(M, dtype=bool)
    support: list[int] = []
    err_history: list[float] = []
    weights = None
    cap = min(max_order, M // 2)
    columns = np.empty((M, 0), dtype=complex)
    lrows = np.empty((0, M), dtype=complex)
    for m in range(1, cap + 1):
        pick = int(np.argmax(np.where(active, resid, -1.0)))
        support.append(pick)
        active[pick] = False
        if m > len(lrows):
            size = min(2 * m, cap)
            grown, grown_rows = np.empty((M, size), complex), np.empty((size, M), complex)
            grown[:, : m - 1], grown_rows[: m - 1] = columns[:, : m - 1], lrows[: m - 1]
            columns, lrows = grown, grown_rows
        column = kernel_columns(samples, [pick], kernel)
        columns[:, m - 1] = column[:, 0]
        lrows[m - 1] = _loewner_rows(samples, [pick], column)[0]
        weights, rows, res = solve_weights(samples, support, columns[:, :m], lrows[:m], far_rows)
        resid[rows] = np.where(np.isfinite(res), res, np.inf)
        err_history.append(float(np.max(resid[rows])))
        if err_history[-1] <= rel_tol * scale:
            return support, weights, np.asarray(err_history), scale, True
    return support, weights, np.asarray(err_history), scale, False


def fit(samples: SampleSet, config: FitConfig = FitConfig()) -> TrigModel:
    """Fit a trigonometric barycentric rational to scattered samples.

    Runs :func:`greedy` on the trigonometric Loewner system, under the
    far-field constraint when config.far_field is set.  Returns the model
    from the last iteration, passed through :func:`cleanup` when
    config.cleanup is set; ``converged`` is False when the caps ended the
    loop first, or when cleanup's re-solve misses the tolerance.
    """
    support, weights, history, scale, converged = greedy(
        samples,
        _trig_kernel(config.parity),
        config.rel_tol,
        config.max_order,
        _far_rows(config.far_field, config.parity),
    )
    model = TrigModel(
        config.parity,
        samples.points[support],
        samples.values[support],
        weights,
        history,
        scale,
        converged=converged,
    )
    if config.cleanup:
        model = cleanup(model, samples, config)
    return model


def cleanup(model: TrigModel, samples: SampleSet, config: FitConfig) -> TrigModel:
    """Remove support points backing small-residue (Froissart) poles.

    Poles whose classical residue falls below cleanup_tol * scale mark their
    nearest support point for removal; a single final :func:`solve_weights`
    on the reduced support produces the returned model.  A model with no
    small residues is returned unchanged.  The cleaned model is
    ``converged`` only if the raw one was and the re-solve's sample error is
    at most config.rel_tol * scale.  The support points are located
    among the samples by :func:`_support_sample_indices`, since a model (one
    read from a file, say) carries no sample indices.
    """
    if model.m < 2:
        return model
    poles = polezero._roots(model._zeta(1.0)[:3])
    # No pole, or a non-finite residue, marks nothing: the comparison is False.
    res = polezero._residues_unchecked(model, poles)
    small = np.abs(res) < config.cleanup_tol * model.scale
    if not np.any(small):
        return model

    # One support point per spurious pole, assigned by greedy minimum-distance
    # matching so that coincident doublets do not collapse onto one removal.
    # argmin breaks equal distances by pole index, then support index.
    dists = strip_distance(poles[small][:, None], model.support[None, :])
    drop = []
    for _ in range(min(dists.shape)):
        k, j = divmod(int(np.argmin(dists)), model.m)
        drop.append(j)
        dists[k, :] = np.inf
        dists[:, j] = np.inf
    keep = np.delete(np.arange(model.m), drop)
    if len(keep) == 0:
        return replace(model, cleanup_warning=True)

    support_idx = _support_sample_indices(model, samples)[keep]
    columns = kernel_columns(samples, support_idx, _trig_kernel(model.parity))
    lrows = _loewner_rows(samples, support_idx, columns)
    weights, _, res = solve_weights(
        samples, support_idx, columns, lrows, _far_rows(config.far_field, model.parity))
    err = float(np.max(res))
    return TrigModel(
        model.parity,
        samples.points[support_idx],
        samples.values[support_idx],
        weights,
        np.append(model.err_history[: len(keep) - 1], err),
        model.scale,
        converged=model.converged and err <= config.rel_tol * model.scale,
    )


def _support_sample_indices(model: TrigModel, samples: SampleSet) -> np.ndarray:
    """Locate each support point in the sample set (tolerance 1e-9)."""
    idx = np.empty(model.m, dtype=int)
    for j, z in enumerate(model.support):
        d = strip_distance(z, samples.points)
        k = int(np.argmin(d))
        if d[k] > 1e-9:
            raise ValueError("support point not present in the sample set")
        idx[j] = k
    return idx
