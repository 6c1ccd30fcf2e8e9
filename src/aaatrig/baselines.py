"""Baselines for comparison: classic polynomial-barycentric AAA and
FFT-based trigonometric interpolation.

The AAA baseline shares the greedy/solve routine of :mod:`aaatrig.solver`
with :func:`aaatrig.solver.fit` and :func:`aaatrig.solver.cleanup`; only
the kernel of its Loewner system differs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import solver
from .trigbary import SampleSet, TWO_PI, barycentric_ratio, by_blocks


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

    The grid size M is len(coefficients).  Evaluation uses the balanced
    exponential form, which oscillates least between the sample points;
    truncating to order ``m`` is the grid least-squares-optimal
    trigonometric polynomial of that order.
    """

    coefficients: np.ndarray
    order: int


def aaa_fit(samples: SampleSet, rel_tol: float = 1e-13, max_order: int = 100) -> AaaModel:
    """Classic AAA greedy fit: the trigonometric solver's greedy loop with
    the kernel 1/(z - z_j) and no strip projection."""
    support, weights, history, scale, converged = solver.greedy(
        samples, lambda d: 1.0 / d, rel_tol, max_order
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
    """Evaluate the classic barycentric rational elementwise, by blocks of zs as given."""
    # Cauchy weights w_j and no heads; a support hit is |z - z_j| < SUPPORT_TOL.
    return by_blocks(lambda z: barycentric_ratio(z[:, None] - model.support, 1.0, model.weights,
                                                 0.0, 0.0, model.fvals), zs, model.m)


def fft_interpolant(samples: SampleSet) -> FourierInterpolant:
    """DFT of samples on the uniform grid 2*pi*n/M, at the full order floor(M/2).

    The samples may arrive in any order but must sit exactly on the grid
    (checked to 1e-12).  The order-m truncation of the result is
    ``FourierInterpolant(coefficients, m)``.
    """
    M = samples.size
    order_idx = np.argsort(samples.points.real)
    pts = samples.points[order_idx]
    vals = samples.values[order_idx]
    grid = TWO_PI * np.arange(M) / M
    if np.any(np.abs(pts - grid) > 1e-12):
        raise ValueError("FFT baseline requires uniform grid")
    return FourierInterpolant(np.fft.fft(vals) / M, M // 2)


def evaluate_fourier(interp: FourierInterpolant, zs) -> np.ndarray:
    """Evaluate the (truncated) balanced trigonometric polynomial."""
    zs = np.asarray(zs, dtype=complex)
    flat = np.atleast_1d(zs).ravel()
    F, m = interp.coefficients, interp.order
    M = len(F)
    out = np.full(flat.shape, F[0], dtype=complex)
    # Paired modes k and M-k up to the last unpaired frequency.
    k_hi = min(m, (M - 1) // 2)
    for k in range(1, k_hi + 1):
        out += F[k] * np.exp(1j * k * flat) + F[M - k] * np.exp(-1j * k * flat)
    if M % 2 == 0 and m >= M // 2:
        out += F[M // 2] * np.cos(M * flat / 2.0)
    return out.reshape(zs.shape)


def rectangle_samples(func, n: int, seed: int) -> SampleSet:
    """Random samples of ``func`` in the rectangle [0, 2*pi] x [-i/2, i/2].

    Uses numpy's default PCG64 generator so runs are reproducible per seed.
    """
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, TWO_PI, n) + 1j * rng.uniform(-0.5, 0.5, n)
    return SampleSet.from_data(pts, func(pts))


def fft_least_squares_errors(samples: SampleSet, orders) -> np.ndarray:
    """Discrete 2-norm error of the order-m truncated DFT for each m.

    By Parseval it is sqrt(M * sum |F_k|^2) over the modes that truncation
    drops, those whose level min(k, M - k) exceeds m; it is exactly 0 from
    m = floor(M/2) on, and a negative m reads as 0.  The tail is summed
    from the top, so a small tail does not cancel.
    """
    F = fft_interpolant(samples).coefficients
    M = len(F)
    level = np.minimum(np.arange(M), M - np.arange(M))
    energy = np.bincount(level, weights=np.abs(F) ** 2)
    # tail[m] = sum of energy over levels above m.
    tail = np.append(np.cumsum(energy[::-1])[::-1][1:], 0.0)
    return np.sqrt(M * tail[np.clip(np.asarray(orders, dtype=int), 0, M // 2)])
