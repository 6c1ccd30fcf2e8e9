"""Greedy fitting of barycentric rationals.

The loop alternates greedy support selection with a least-squares solve for
the weights: at step m the sample with the largest residual joins the
support, the Loewner matrix is assembled over the remaining samples, and
the weights are the right singular vector of its smallest singular value.
One greedy routine (:func:`greedy`) and one solve step
(:func:`solve_weights`) serve :func:`fit`, the re-solve in :func:`cleanup`
and the classic AAA baseline; callers differ only in how a step's system is
assembled.  The trigonometric fit uses the cst kernel, with optional
far-field constraint rows that pin the approximant's values at
+-i*infinity; an optional cleanup pass removes spurious pole-zero pairs
(Froissart doublets) after termination.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import polezero
from .numerics import min_singular_direction
from .trigbary import (
    FarField,
    Parity,
    SampleSet,
    TrigModel,
    _cst_values,
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
        if self.rel_tol < 0.0:
            raise ValueError("rel_tol must be nonnegative")
        if self.max_order < 1:
            raise ValueError("max_order must be positive")
        if self.cleanup_tol < 0.0:
            raise ValueError("cleanup_tol must be nonnegative")


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
    samples not chosen as support.
    """
    support_idx = np.asarray(support_idx, dtype=int)
    m = len(support_idx)
    if len(np.unique(support_idx)) != m:
        raise ValueError("support indices must be distinct")
    M = samples.size
    if m > M / 2:
        raise ValueError("order exceeds half the sample count")
    active = np.ones(M, dtype=bool)
    active[support_idx] = False
    active_rows = np.flatnonzero(active)
    Z = samples.points[active_rows]
    F = samples.values[active_rows]
    zj = samples.points[support_idx]
    fj = samples.values[support_idx]
    C = kernel(Z[:, None] - zj[None, :])
    A = (F[:, None] - fj[None, :]) * C
    return LeastSquaresSystem(A, active_rows, F, fj, C)


def assemble_loewner(samples: SampleSet, support_idx, parity: Parity) -> LeastSquaresSystem:
    """Trigonometric Loewner matrix: the kernel is cst((Z_k - z_j)/2)."""
    return loewner_system(samples, support_idx, lambda d: _cst_values(parity, d / 2.0))


def append_far_field_rows(
    system: LeastSquaresSystem, target: FarField, parity: Parity, support
) -> LeastSquaresSystem:
    """Append the constraint rows that pin the far-field values.

    Odd parity appends two rows with entries (f_inf^+- - f_j) e^{-+i z_j/2};
    even parity appends the single row f_inf - f_j.
    """
    zj = np.asarray(support, dtype=complex)
    fj = system.s_f
    if parity is Parity.ODD:
        rows = np.vstack([
            (target.f_plus - fj) * np.exp(-1j * zj / 2.0),
            (target.f_minus - fj) * np.exp(1j * zj / 2.0),
        ])
    else:
        rows = (target.f_plus - fj)[None, :]
    return replace(system, matrix=np.vstack([system.matrix, rows]))


def _trig_system(samples: SampleSet, parity: Parity, far: FarField | None, support_idx):
    system = assemble_loewner(samples, support_idx, parity)
    if far is None:
        return system
    return append_far_field_rows(system, far, parity, samples.points[support_idx])


def solve_weights(build, support_idx):
    """One weight solve on the system ``build(support_idx)``.

    Returns the weights, the active (non-support) rows and the absolute
    residuals of the rational there.  The system is released on return, so
    a loop never holds two steps' systems at once.
    """
    system = build(support_idx)
    weights = min_singular_direction(system.matrix)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = (system.cauchy @ (weights * system.s_f)) / (system.cauchy @ weights)
    return weights, system.active_rows, np.abs(system.s_F - r)


def greedy(samples: SampleSet, build, rel_tol: float, max_order: int):
    """Greedy support selection around :func:`solve_weights`.

    Each step adds the sample with the largest residual to the support and
    re-solves, until the max residual over the remaining samples drops below
    rel_tol * max|f| or an order cap is hit (max_order or half the sample
    count).  Returns (support indices, weights, err_history, scale,
    converged) of the last step.
    """
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
    for _ in range(min(max_order, M // 2)):
        pick = int(np.argmax(np.where(active, resid, -1.0)))
        support.append(pick)
        active[pick] = False
        weights, rows, res = solve_weights(build, support)
        resid[rows] = np.where(np.isfinite(res), res, np.inf)
        err_history.append(float(np.max(resid[rows])))
        if err_history[-1] <= rel_tol * scale:
            return support, weights, np.asarray(err_history), scale, True
    return support, weights, np.asarray(err_history), scale, False


def fit(samples: SampleSet, config: FitConfig = FitConfig()) -> TrigModel:
    """Fit a trigonometric barycentric rational to scattered samples.

    Runs :func:`greedy` on the trigonometric Loewner system, plus the
    far-field rows when config.far_field is set.  Returns the model from the
    last iteration; ``converged`` is False when the caps ended the loop
    first.
    """
    build = partial(_trig_system, samples, config.parity, config.far_field)
    support, weights, history, scale, converged = greedy(
        samples, build, config.rel_tol, config.max_order
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
    small residues is returned unchanged.
    """
    if model.m < 2:
        return model
    poles = polezero.poles_and_zeros(model).poles
    if len(poles) == 0:
        return model
    res = polezero._residues_unchecked(model, poles)
    mags = np.where(np.isfinite(res.real) & np.isfinite(res.imag), np.abs(res), np.inf)
    small = mags < config.cleanup_tol * model.scale
    if not np.any(small):
        return model

    # One support point per spurious pole, assigned by greedy minimum-distance
    # matching so that coincident doublets do not collapse onto one removal.
    spurious = poles[small]
    dists = strip_distance(spurious[:, None], model.support[None, :])
    order = sorted(
        (dists[k, j], k, j)
        for k in range(len(spurious))
        for j in range(model.m)
    )
    drop: set[int] = set()
    assigned: set[int] = set()
    for _, k, j in order:
        if k in assigned or j in drop:
            continue
        assigned.add(k)
        drop.add(j)
    keep = [j for j in range(model.m) if j not in drop]
    if not keep:
        return replace(model, cleanup_warning=True)

    support_idx = _support_sample_indices(model, samples)[keep]
    build = partial(_trig_system, samples, model.parity, config.far_field)
    weights, _, res = solve_weights(build, support_idx)
    history = np.append(model.err_history[: len(keep) - 1], float(np.max(res)))
    return TrigModel(
        model.parity,
        samples.points[support_idx],
        samples.values[support_idx],
        weights,
        history,
        model.scale,
        converged=model.converged,
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
