"""Baselines for comparison: classic polynomial-barycentric AAA and
FFT-based trigonometric interpolation.

The AAA baseline shares the greedy/solve routine of :mod:`aaatrig.solver`
with :func:`aaatrig.solver.fit` and :func:`aaatrig.solver.cleanup`; only
the kernel of its Loewner system differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import solver
from .trigbary import SampleSet, TWO_PI

# Proximity at which AAA evaluation short-circuits to the support value.
_AAA_SUPPORT_TOL = 1e-13


@dataclass(frozen=True)
class AaaModel:
    """Classic barycentric rational: kernels 1/(z - z_j), no periodicity."""

    support: np.ndarray
    fvals: np.ndarray
    weights: np.ndarray
    err_history: np.ndarray
    scale: float
    converged: bool = True

    @property
    def m(self) -> int:
        return len(self.support)


@dataclass(frozen=True)
class FourierInterpolant:
    """DFT coefficients of equispaced samples with a truncation order.

    Evaluation uses the balanced exponential form, which oscillates least
    between the sample points; truncating to order ``m`` is the grid
    least-squares-optimal trigonometric polynomial of that order.
    """

    coefficients: np.ndarray
    order: int
    grid_size: int


def aaa_fit(samples: SampleSet, rel_tol: float = 1e-13, max_order: int = 100) -> AaaModel:
    """Classic AAA greedy fit: the trigonometric solver's greedy loop with
    the kernel 1/(z - z_j) and no strip projection."""
    build = partial(solver.loewner_system, samples, kernel=lambda d: 1.0 / d)
    support, weights, history, scale, converged = solver.greedy(
        samples, build, rel_tol, max_order
    )
    return AaaModel(
        samples.points[support],
        samples.values[support],
        weights,
        history,
        scale,
        converged=converged,
    )


def evaluate_aaa(model: AaaModel, zs) -> np.ndarray:
    """Evaluate the classic barycentric rational elementwise."""
    zs = np.asarray(zs, dtype=complex)
    flat = np.atleast_1d(zs).ravel()
    diff = flat[:, None] - model.support[None, :]
    near = np.abs(diff) < _AAA_SUPPORT_TOL
    out = np.empty(flat.shape, dtype=complex)
    hit = near.any(axis=1)
    if np.any(hit):
        out[hit] = model.fvals[np.argmax(near[hit], axis=1)]
    todo = ~hit
    if np.any(todo):
        C = 1.0 / diff[todo]
        with np.errstate(divide="ignore", invalid="ignore"):
            out[todo] = (C @ (model.weights * model.fvals)) / (C @ model.weights)
    return out.reshape(zs.shape)


def fft_interpolant(samples: SampleSet, m: int | None = None) -> FourierInterpolant:
    """DFT of samples on the uniform grid 2*pi*n/M, truncated at order m.

    The samples may arrive in any order but must sit exactly on the grid
    (checked to 1e-12).  m defaults to the full order floor(M/2).
    """
    M = samples.size
    order_idx = np.argsort(samples.points.real)
    pts = samples.points[order_idx]
    vals = samples.values[order_idx]
    grid = TWO_PI * np.arange(M) / M
    if np.any(np.abs(pts - grid) > 1e-12):
        raise ValueError("FFT baseline requires uniform grid")
    coeffs = np.fft.fft(vals) / M
    full = M // 2
    if m is None:
        m = full
    if not 0 <= m <= full:
        raise ValueError("truncation order must lie in [0, M/2]")
    return FourierInterpolant(coeffs, int(m), M)


def evaluate_fourier(interp: FourierInterpolant, zs) -> np.ndarray:
    """Evaluate the (truncated) balanced trigonometric polynomial."""
    zs = np.asarray(zs, dtype=complex)
    flat = np.atleast_1d(zs).ravel()
    F, M, m = interp.coefficients, interp.grid_size, interp.order
    out = np.full(flat.shape, F[0], dtype=complex)
    # Paired modes k and M-k up to the last unpaired frequency.
    k_hi = min(m, (M - 1) // 2)
    for k in range(1, k_hi + 1):
        out += F[k] * np.exp(1j * k * flat) + F[M - k] * np.exp(-1j * k * flat)
    if M % 2 == 0 and m == M // 2:
        out += F[M // 2] * np.cos(M * flat / 2.0)
    return out.reshape(zs.shape)


def rectangle_samples(func, n: int, seed: int, height: float = 0.5) -> SampleSet:
    """Random samples of ``func`` in the rectangle [0, 2*pi] x [-i*h, i*h].

    Uses numpy's default PCG64 generator so runs are reproducible per seed.
    """
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, TWO_PI, n) + 1j * rng.uniform(-height, height, n)
    return SampleSet.from_data(pts, func(pts))


def fft_least_squares_errors(samples: SampleSet, orders) -> np.ndarray:
    """Discrete 2-norm error of the order-m truncated DFT for each m."""
    interp_full = fft_interpolant(samples)
    F, M = interp_full.coefficients, interp_full.grid_size
    errs = []
    for m in orders:
        trunc = FourierInterpolant(F, int(m), M)
        diff = evaluate_fourier(trunc, samples.points) - samples.values
        errs.append(float(np.linalg.norm(diff)))
    return np.asarray(errs)
