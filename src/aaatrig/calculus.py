"""Spectral differentiation for trigonometric barycentric models.

Both derivative paths differentiate the rational in the paper's change of
variable zeta = e^{isz} (Baddoo, sec. 3), where it is a classical
barycentric rational R(zeta).  The divided-difference identity of
Schneider & Werner (Math. Comp. 1986) gives R^{(k)}/k!, at the support
points for differentiation matrices and anywhere else for derivative_at,
and d/dz = is * zeta d/dzeta turns those into derivatives in z.  Orders up
to 4 are supported; higher orders are numerically fragile and are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trigbary import TrigModel, _cauchy_sum, _real_axis, blockwise

MAX_ORDER = 4

# |zeta - zeta_j| / |zeta_j|, which is |z - z_j| to first order over the
# 2*pi shifts, below which derivative_at refuses a point.
SUPPORT_GUARD = 1e-8

# S(p, k) k! for k = 1..p, with S(p, k) the Stirling numbers of the second
# kind ((1,), (1, 1), (1, 3, 1), (1, 7, 6, 1)):
# (zeta d/dzeta)^p = sum_k S(p, k) k! zeta^k (d/dzeta)^k / k!.
STIRLING2_FACTORIAL = ((1,), (1, 2), (1, 6, 6), (1, 14, 36, 24))


@dataclass(frozen=True)
class DiffMatrix:
    """Differentiation matrix of the given order on a model's support grid.

    Row sums vanish: the diagonal is defined as minus the off-diagonal sum.
    """

    order: int
    entries: np.ndarray


def diff_matrix(model: TrigModel, p: int) -> DiffMatrix:
    """Order-p differentiation matrix on the model's support grid.

    In zeta = e^{iz} the model is sum_j L_j(zeta) f_j, with
    L_j = (a_j/(zeta - zeta_j) + c_j)/D(zeta) and D the sum of the numerators
    (trigbary._zeta_form).  Row i holds T_k(i, j) = L_j^{(k)}(zeta_i)/k!.  Let
    e_k(i) be the Taylor coefficients at zeta_i of E = 1/((zeta - zeta_i) D).
    Taylor coefficients of (zeta - zeta_j) L_j = (a_j + c_j (zeta - zeta_j))
    (zeta - zeta_i) E give the Schneider-Werner recurrence, with the even
    node at infinity: for j != i and Delta_ij = zeta_i - zeta_j,

        T_k(i, j) = ((a_j + c_j Delta_ij) e_{k-1}(i) + c_j e_{k-2}(i) - T_{k-1}(i, j)) / Delta_ij,

    with e_{-1} = 0, e_0 = 1/a_i and T_0(i, j) = 0.  As L_i = (a_i + c_i
    (zeta - zeta_i)) E, the diagonal T_k(i, i) = a_i e_k + c_i e_{k-1} gives
    e_k; it is minus the row's off-diagonal sum.  The cost is O(p m^2).  The
    result's diagonal is again the negative row sum; a row whose weight is
    exactly 0 is not finite.
    """
    if p < 1:
        raise ValueError("derivative order must be positive")
    if p > MAX_ORDER:
        raise ValueError("unsupported order")
    zeta, a, c = model._zeta(1.0)[:3]
    off = ~np.eye(model.m, dtype=bool)
    delta = zeta[:, None] - zeta
    inv = np.zeros_like(delta)
    inv[off] = 1.0 / delta[off]
    numer = a + c * delta
    with np.errstate(divide="ignore", invalid="ignore"):
        e_prev, e = np.zeros_like(a), 1.0 / a
        T = np.zeros_like(inv)
        taylor = []
        for _ in range(p):
            T = (numer * e[:, None] + c * e_prev[:, None] - T) * inv
            e_prev, e = e, (-np.sum(T, axis=1) - c * e) / a
            taylor.append(T)
        D = _z_derivative(1.0, zeta[:, None], taylor)
    np.fill_diagonal(D, -np.sum(D, axis=1))
    return DiffMatrix(p, D)


def derivative_at(model: TrigModel, z, p: int):
    """p-th derivative of the rational at points away from the support.

    A scalar z gives a complex, an array z an array of its shape.  With
    zeta = e^{isz} and s the sign of Im z, the model is a classical
    barycentric rational R(zeta) (trigbary._zeta_form, built once per
    half-plane by the model).  One divided-difference pass per order gives
    R^{(k)}/k!, at O(N m p) for N points; every sum is taken per point, so a
    point's derivative does not depend on the batch it is in.  A real
    model's finite derivative at a real point is real (trigbary._real_axis).
    Points within 1e-8 of a support point must use :func:`diff_matrix`
    instead; any such point raises.
    """
    if p < 1:
        raise ValueError("derivative order must be positive")
    if p > MAX_ORDER:
        raise ValueError("unsupported order")
    out = blockwise(lambda s, zc: _derivative_block(model, s, zc, p), z, model.m)
    return complex(out) if out.ndim == 0 else out


def _derivative_block(model, s, zc, p):
    # Schneider & Werner: with d_j = R[zeta^(k), zeta_j] and T_k = R^{(k)}/k!,
    # d_j <- (T_{k-1} - d_j)/(zeta - zeta_j) and T_k = sum_j a_j d_j/(zeta - zeta_j) / D.
    zeta_j, a, _, abs_zeta, c_sum, cf_sum = model._zeta(s)
    zeta = np.exp(s * 1j * zc)
    diff = zeta[:, None] - zeta_j
    if np.count_nonzero(np.abs(diff) < SUPPORT_GUARD * abs_zeta):
        raise ValueError("too close to a support point; use diff_matrix")
    cauchy, den, t = _cauchy_sum(diff, a, c_sum, cf_sum, model.fvals)
    d = model.fvals
    taylor = []
    for _ in range(p):
        d = (t[:, None] - d) / diff
        t = np.einsum("ij,ij->i", cauchy, d) / den
        taylor.append(t)
    return _real_axis(model, zc, _z_derivative(s, zeta, taylor))


def _z_derivative(s, zeta, taylor):
    """r^{(p)}(z) from taylor[k - 1] = R^{(k)}(zeta)/k!, k = 1..p, at zeta = e^{isz}.

    d/dz = is * zeta d/dzeta, expanded with the coefficients STIRLING2_FACTORIAL.
    """
    out = 0j
    for k, (coef, t) in enumerate(zip(STIRLING2_FACTORIAL[len(taylor) - 1], taylor), start=1):
        out = out + coef * zeta**k * t
    return (1j * s) ** len(taylor) * out
