"""Spectral differentiation for trigonometric barycentric models.

Differentiation matrices map values on the support grid to derivative
values on the same grid; an off-grid recurrence evaluates derivatives of
the rational itself anywhere else.  Orders up to 4 are supported; higher
orders are numerically fragile and are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np
import numpy.polynomial.polynomial as P

from .trigbary import (
    Parity,
    TrigModel,
    _canonicalize_array,
    _cst_values,
    cst_derivatives,
    derivative_polys,
    evaluate,
    strip_distance,
)

MAX_ORDER = 4

# Even-parity kernels need derivatives of tan((z_j - z_k)/2), which blow up
# when two support points sit (2k+1)*pi apart; the cancellation there is
# catastrophic for orders >= 2.
ANTIPODAL_GUARD = 1e-2


@dataclass(frozen=True)
class DiffMatrix:
    """Differentiation matrix of the given order on a model's support grid.

    Row sums vanish: the diagonal is defined as minus the off-diagonal sum.
    """

    order: int
    entries: np.ndarray


def _recip_derivs(parity: Parity, u: np.ndarray, qmax: int) -> np.ndarray:
    """d^q/du^q of the kernel reciprocal (sin for odd, tan for even)."""
    u = np.asarray(u, dtype=complex)
    out = np.empty((qmax + 1,) + u.shape, dtype=complex)
    if parity is Parity.ODD:
        s, c = np.sin(u), np.cos(u)
        cycle = (s, c, -s, -c)
        for q in range(qmax + 1):
            out[q] = cycle[q % 4]
    else:
        t = np.tan(u)
        for q, poly in enumerate(derivative_polys("tan", qmax)):
            out[q] = P.polyval(t, poly)
    return out


def diff_matrix(model: TrigModel, p: int) -> DiffMatrix:
    """Order-p differentiation matrix on the model's support grid.

    The first-order off-diagonal entries are (w_k / w_j) cst((z_j - z_k)/2) / 2;
    higher orders follow the kernel recurrence in terms of derivatives of the
    kernel reciprocal.  Diagonals are negative row sums at every order.
    """
    if p < 1:
        raise ValueError("derivative order must be positive")
    if p > MAX_ORDER:
        raise ValueError("unsupported order")
    z, w = model.support, model.weights
    m = model.m
    U = (z[:, None] - z[None, :]) / 2.0
    off = ~np.eye(m, dtype=bool)
    kernel = np.zeros((m, m), dtype=complex)
    kernel[off] = _cst_values(model.parity, U[off])
    ratio = np.ones((m, m), dtype=complex)
    ratio[off] = (w[None, :] / w[:, None])[off]

    D1 = 0.5 * ratio * kernel
    np.fill_diagonal(D1, 0.0)
    np.fill_diagonal(D1, -np.sum(D1, axis=1))
    mats = [np.eye(m, dtype=complex), D1]

    if p >= 2:
        if model.parity is Parity.EVEN:
            # Distance to the nearest odd multiple of pi/2.
            shifted = np.mod(U[off].real, np.pi) - np.pi / 2.0
            near = np.abs(shifted + 1j * U[off].imag) < ANTIPODAL_GUARD
            if np.any(near):
                raise ValueError(
                    "support pair separated by an odd multiple of pi: "
                    "orders >= 2 are not supported for even parity there"
                )
        R = _recip_derivs(model.parity, U, p)
        half = 0.5 ** np.arange(p + 1)
        r0 = half * _recip_derivs(model.parity, np.zeros(()), p).reshape(p + 1)
        for order in range(2, p + 1):
            acc = np.zeros((m, m), dtype=complex)
            for q in range(1, order + 1):
                prev = mats[order - q]
                acc += comb(order, q) * (
                    ratio * np.diag(prev)[:, None] * r0[q]
                    - prev * (half[q] * R[q])
                )
            Dq = kernel * acc
            np.fill_diagonal(Dq, 0.0)
            np.fill_diagonal(Dq, -np.sum(Dq, axis=1))
            mats.append(Dq)
    return DiffMatrix(p, mats[p])


def derivative_at(model: TrigModel, z: complex, p: int) -> complex:
    """p-th derivative of the rational at a point away from the support.

    Evaluates the derivative recurrence built on kernel derivatives
    (csc' = -csc*cot, cot' = -csc^2 chained to order p).  Points within
    1e-8 of a support point must use :func:`diff_matrix` instead.
    """
    if p < 1:
        raise ValueError("derivative order must be positive")
    if p > MAX_ORDER:
        raise ValueError("unsupported order")
    zc = complex(_canonicalize_array(np.asarray(z, dtype=complex)))
    if float(np.min(strip_distance(zc, model.support))) < 1e-8:
        raise ValueError("too close to a support point; use diff_matrix")
    u = (zc - model.support) / 2.0
    kernel = cst_derivatives(model.parity, u, p)
    half = 0.5 ** np.arange(p + 1)
    den = np.sum(model.weights * kernel[0])
    derivs = [evaluate(model, zc)]
    for order in range(1, p + 1):
        total = 0j
        for q in range(order):
            kq = model.weights * (half[order - q] * kernel[order - q])
            if q == 0:
                inner = np.sum(kq * (model.fvals - derivs[0]))
            else:
                inner = -derivs[q] * np.sum(kq)
            total += comb(order, q) * inner
        derivs.append(total / den)
    return complex(derivs[p])
