"""Spectral differentiation for trigonometric barycentric models.

Differentiation matrices map values on the support grid to derivative
values on the same grid, through derivatives of the csc/cot kernel.
Anywhere else, the rational itself is differentiated in the paper's change
of variable zeta = e^{isz} (Baddoo, sec. 3), where it is a classical
barycentric rational R(zeta): the divided-difference recurrence of
Schneider & Werner (Math. Comp. 1986) gives R^{(k)}/k!, and
d/dz = is * zeta d/dzeta turns those into derivatives in z.  Orders up to 4
are supported; higher orders are numerically fragile and are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

import numpy as np
import numpy.polynomial.polynomial as P

from .trigbary import (
    Parity,
    TrigModel,
    _cst_values,
    blockwise,
    derivative_polys,
)

MAX_ORDER = 4

# Even-parity kernels need derivatives of tan((z_j - z_k)/2), which blow up
# when two support points sit (2k+1)*pi apart; the cancellation there is
# catastrophic for orders >= 2.
ANTIPODAL_GUARD = 1e-2

# |zeta - zeta_j| / |zeta_j|, which is |z - z_j| to first order over the
# 2*pi shifts, below which derivative_at refuses a point.
SUPPORT_GUARD = 1e-8

# Stirling numbers of the second kind S(p, k), k = 1..p:
# (zeta d/dzeta)^p = sum_k S(p, k) zeta^k (d/dzeta)^k.
STIRLING2 = ((1,), (1, 1), (1, 3, 1), (1, 7, 6, 1))


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


def derivative_at(model: TrigModel, z, p: int):
    """p-th derivative of the rational at points away from the support.

    A scalar z gives a complex, an array z an array of its shape.  With
    zeta = e^{isz} and s the sign of Im z, the model is R(zeta) with nodes
    zeta_j = e^{isz_j} and weights w_j e^{isz_j/2} (odd), or 2 w_j zeta_j plus
    a node at infinity of weight sum_j w_j (even).  One divided-difference
    pass per order gives R^{(k)}/k!, at O(N m p) for N points; every sum is
    taken per point, so a point's derivative does not depend on the batch
    it is in.  Points within 1e-8 of a support point must use
    :func:`diff_matrix` instead; any such point raises.
    """
    if p < 1:
        raise ValueError("derivative order must be positive")
    if p > MAX_ORDER:
        raise ValueError("unsupported order")
    out = blockwise(lambda s, zc: _derivative_block(model, s, zc, p), z)
    return complex(out) if out.ndim == 0 else out


def _derivative_block(model, s, zc, p):
    # Schneider & Werner: with d_j = R[zeta^(k), zeta_j] and T_k = R^{(k)}/k!,
    # d_j <- (T_{k-1} - d_j)/(zeta - zeta_j) and T_k = sum_j a_j d_j/(zeta - zeta_j) / D.
    zeta_j = np.exp(s * 1j * model.support)
    zeta = np.exp(s * 1j * zc)
    diff = zeta[:, None] - zeta_j
    if np.any(np.abs(diff) < SUPPORT_GUARD * np.abs(zeta_j)):
        raise ValueError("too close to a support point; use diff_matrix")
    w, f = model.weights, model.fvals
    if model.parity is Parity.ODD:
        a, head, head_f = w * np.exp(s * 0.5j * model.support), 0.0, 0.0
    else:
        a, head, head_f = 2.0 * w * zeta_j, np.sum(w), np.sum(w * f)
    cauchy = a / diff
    den = head + np.einsum("ij->i", cauchy)
    t = (head_f + np.einsum("ij,j->i", cauchy, f)) / den
    d = f
    out = 0j
    for k, stirling in enumerate(STIRLING2[p - 1], start=1):
        d = (t[:, None] - d) / diff
        t = np.einsum("ij,ij->i", cauchy, d) / den
        out = out + stirling * factorial(k) * zeta**k * t
    return (1j * s) ** p * out
