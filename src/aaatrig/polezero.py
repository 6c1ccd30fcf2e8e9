"""Pole, zero and residue extraction for trigonometric barycentric models.

The barycentric form hides its poles and zeros; they are recovered through
the change of variable zeta = e^{iz}, which turns either parity into an
ordinary barycentric rational in zeta, and one arrowhead generalized
eigenvalue problem per sum.  Denominator data yields the poles, numerator
data the zeros.  Every candidate stays in zeta until it is reported: it is
polished by Newton steps on the sum in zeta and must pass a residual check
there, independent of the eigensolver; residues are taken in zeta too.
Only the verified roots are mapped back to z, once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import generalized_eig_arrow
from .trigbary import (
    Parity,
    TrigModel,
    _canonicalize_array,
    _cst_values,
    _zeta_form,
    by_blocks,
    far_field,
    strip_distance,
)

# Relative denominator/numerator residual below which an eigenvalue is
# accepted as a genuine pole/zero of the model.
RESIDUAL_TOL = 1e-6


@dataclass(frozen=True)
class TransformedBarycentric:
    """Model data in zeta = e^{iz}: each sum becomes head + sum_j a_j/(zeta - zeta_j).

    shifted_support = zeta_j = e^{i z_j} for both parities.
    odd:   csc((z - z_j)/2) = 2i e^{i(z + z_j)/2}/(zeta - zeta_j), so
           shifted_weights = w_j e^{i z_j/2} and both heads are 0.
    even:  cot((z - z_j)/2) = i (1 + 2 zeta_j/(zeta - zeta_j)), so
           shifted_weights = 2 w_j zeta_j, head_den = sum_j w_j and
           head_num = sum_j f_j w_j.
    The numerator payload is fvals * shifted_weights.
    """

    shifted_support: np.ndarray
    shifted_weights: np.ndarray
    fvals: np.ndarray
    head_num: complex
    head_den: complex


@dataclass(frozen=True)
class PoleZeroReport:
    """Poles, zeros, classical residues and partial-fraction constant."""

    poles: np.ndarray
    zeros: np.ndarray
    residues: np.ndarray
    constant: complex


@dataclass(frozen=True)
class TaperFit:
    """Least-squares fit of log(distance) against sqrt(rank) near a corner."""

    corner: complex
    distances: np.ndarray
    beta: float
    sigma: float
    r_squared: float


@dataclass(frozen=True)
class PartialFractions:
    """Cotangent partial-fraction form: sum_k q_k cot((z - p_k)/2) + c."""

    poles: np.ndarray
    coefficients: np.ndarray
    constant: complex
    clustered: bool = False


def transform(model: TrigModel) -> TransformedBarycentric:
    """Substitute zeta = e^{iz} to reach ordinary barycentric form."""
    zeta, a, _, _, c_sum, cf_sum = model._zeta(1.0)
    return TransformedBarycentric(zeta, a, model.fvals, complex(cf_sum), complex(c_sum))


def _zeta_sum(form, lam: np.ndarray):
    """S(lambda) = sum_j (a_j/(lambda - zeta_j) + c_j) and its lambda-derivative
    -sum_j a_j/(lambda - zeta_j)^2 at each point of lam, with the largest term
    magnitude of each sum (non-finite if any term is).

    form is (zeta_j, a_j, c_j), the :func:`_zeta_form` of some coefficients
    coeff_j with s = 1.  The kernel sum sum_j coeff_j cst((z - z_j)/2) is
    h S(e^{iz}), with h = 2i e^{iz/2} (odd) or i (even); h never vanishes, so
    S has the kernel sum's roots and the same ratio of sum to largest term.
    """
    zeta_j, a, c = form
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        diff = lam[:, None] - zeta_j
        terms = (a + c * diff) / diff
        dterms = -a / diff**2
    return (np.sum(terms, axis=1), np.sum(dterms, axis=1),
            np.max(np.abs(terms), axis=1), np.max(np.abs(dterms), axis=1))


def _polished(form, cands: np.ndarray) -> np.ndarray:
    """A few Newton steps on S (:func:`_zeta_sum` of form) to sharpen eigenvalues.

    Eigenvalues of doublet poles can carry errors far above the local root
    width; polishing makes the residual check meaningful there.  Candidates
    are never allowed to wander more than 0.05 |lambda|, about 0.05 in z: a
    candidate stops at a non-finite or long step and is reset if it ends up
    too far from where it started.
    """
    lam = cands.copy()
    live = np.arange(len(lam))
    for _ in range(3):
        fv, dv, _, _ = _zeta_sum(form, lam[live])
        with np.errstate(divide="ignore", invalid="ignore"):
            step = fv / dv
        ok = np.abs(step) <= 0.05 * np.abs(lam[live])
        live = live[ok]
        lam[live] -= step[ok]
    return np.where(np.abs(lam - cands) <= 0.05 * np.abs(cands), lam, cands)


def poles_and_zeros(model: TrigModel) -> PoleZeroReport:
    """Locate all poles and zeros of the model in the canonical strip.

    Builds the generalized eigenvalue pencil in zeta of one coefficient
    vector on the support (the weights for poles, the weights times the
    values for zeros), keeps the finite eigenvalues passing the residual
    check in zeta, and maps those back to the strip.  Both parities share
    the one zeta = e^{iz} pencil, so no strip point needs a separate test.
    """
    if model.m < 2:
        raise ValueError("pole extraction needs m >= 2")
    poles = _roots(model._zeta(1.0)[:3])
    zeros = _roots(_zeta_form(model, 1.0, model.weights * model.fvals))
    return PoleZeroReport(poles, zeros, _residues_unchecked(model, poles), _pf_constant(model))


def _roots(form) -> np.ndarray:
    """The verified roots of sum_j coeff_j cst((z - z_j)/2), sorted, from the
    :func:`_zeta_form` of coeff with s = 1: poles for coeff = weights, zeros
    for coeff = weights * fvals.

    Eigenvalues with |lambda| below 1e-13 or above 1e13, next to the
    branch points 0 and infinity of zeta = e^{iz}, sit below eigenvalue
    noise and would land at |Im z| beyond 29: they represent the far field,
    not strip points.  The rest are polished and checked in lambda, and only
    the verified ones are mapped back to z.
    """
    zeta_j, a, c = form
    lam = generalized_eig_arrow(np.sum(c), a, zeta_j).finite_eigenvalues
    lam = lam[(np.abs(lam) > 1e-13) & (np.abs(lam) < 1e13)]
    lam = _polished(form, lam)
    total, _, ref, _ = _zeta_sum(form, lam)
    # A candidate may sit within rounding of a node; nudge it off by
    # lambda e^{-1e-12}, which is z + 1e-12i.
    bad = ~np.isfinite(ref)
    total[bad], _, ref[bad], _ = _zeta_sum(form, lam[bad] * np.exp(-1e-12))
    z = _canonicalize_array(-1j * np.log(lam[np.abs(total) <= RESIDUAL_TOL * ref]))
    z = z[np.lexsort((z.imag, z.real))]
    # Deduplicate coincident roots (a multiple root gives several nearby
    # eigenvalues, which polishing can pull onto one point).
    return np.concatenate([z[:1], z[1:][strip_distance(z[1:], z[:-1]) > 1e-9]])


def _pf_constant(model: TrigModel) -> complex:
    try:
        ff = far_field(model)
    except ValueError:
        return complex(np.nan, np.nan)
    return (ff.f_plus + ff.f_minus) / 2.0


def _quotient_parts(model: TrigModel, poles):
    """n(p)/h, d'(p)/h and the scale of d'/h's largest term, with h as in
    :func:`_zeta_sum` and lambda = e^{ip}.

    d = h S, so d'/h = dlog(h) S + i lambda S' by d/dz = i lambda d/dlambda,
    with dlog(h) = i/2 (odd) or 0 (even).  The dlog(h) term vanishes at a
    true pole, but keeps the quotient exact at any point.
    """
    lam = np.exp(1j * np.asarray(poles, dtype=complex))
    num, _, _, _ = _zeta_sum(_zeta_form(model, 1.0, model.weights * model.fvals), lam)
    den, dden, _, dref = _zeta_sum(model._zeta(1.0)[:3], lam)
    dlog_h = 0.5j if model.parity is Parity.ODD else 0.0
    return num, dlog_h * den + 1j * lam * dden, np.abs(lam) * dref


def _residues_unchecked(model: TrigModel, poles) -> np.ndarray:
    num, dprime, _ = _quotient_parts(model, poles)
    with np.errstate(divide="ignore", invalid="ignore"):
        return num / dprime


def residues(model: TrigModel, poles) -> np.ndarray:
    """Classical residues Res_{z=p} r(z) = n(p)/d'(p) at simple poles.

    n and d' are evaluated in zeta = e^{iz} (:func:`_quotient_parts`).
    The partial-fraction coefficient of the cotangent form is half of the
    classical residue.  Raises for (numerically) non-simple poles.
    """
    num, dprime, ref = _quotient_parts(model, poles)
    if np.any(np.abs(dprime) <= 1e-10 * ref):
        raise ValueError("non-simple pole")
    return num / dprime


def partial_fractions(model: TrigModel) -> PartialFractions:
    """Convert to the cotangent partial-fraction representation.

    The constant is fixed by the far-field identities: for odd parity
    c -+ i * sum(q_k) equals the values at +-i*infinity, for even parity the
    coefficients sum to zero and c is the common far-field value.  The
    conversion is numerically reliable only for well-separated poles; the
    ``clustered`` flag is set when any two poles are closer than 1e-6.
    Only the pole pencil is built: the poles are those of
    :func:`poles_and_zeros`, without its zeros.
    """
    if model.m == 1:
        return PartialFractions(
            np.zeros(0, dtype=complex), np.zeros(0, dtype=complex), complex(model.fvals[0])
        )
    poles = _roots(model._zeta(1.0)[:3])
    q = residues(model, poles) / 2.0
    d = strip_distance(poles[:, None], poles[None, :])
    d[np.eye(len(d), dtype=bool)] = np.inf
    return PartialFractions(poles, q, _pf_constant(model), bool(np.min(d, initial=np.inf) < 1e-6))


def partial_fraction_eval(pf: PartialFractions, z) -> np.ndarray:
    """Evaluate sum_k q_k cot((z - p_k)/2) + c elementwise, by blocks of z as given."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if len(pf.poles) == 0:
        return np.full(z.shape, pf.constant)

    def block(zb):
        return np.einsum("ij,j->i", _cot_block(zb, pf.poles), pf.coefficients) + pf.constant
    return by_blocks(block, z, len(pf.poles))


def _cot_block(z: np.ndarray, poles: np.ndarray) -> np.ndarray:
    """The matrix cot((z_i - p_k)/2) for a 1-D complex z."""
    return _cst_values(Parity.EVEN, (z[:, None] - poles) / 2.0)


def taper_fit(points, corner: complex, k_max: int) -> TaperFit:
    """Fit the tapered clustering law to the points nearest a corner.

    Distances of the k_max nearest points are sorted ascending and the line
    log d = log(beta) - sigma_fit * sqrt(k) is fitted by least squares over
    the nearest-first rank k; sigma is reported as minus the slope so that
    tapered clusters give sigma < 0.  r_squared measures how well the
    cluster follows the law.
    """
    pts = np.atleast_1d(np.asarray(points, dtype=complex))
    d_all = np.abs(pts - complex(corner))
    if np.count_nonzero(d_all <= 1.0) < 4:
        raise ValueError("insufficient cluster")
    d = np.sort(d_all)[: min(int(k_max), len(d_all))]
    if d[0] == 0.0:
        raise ValueError("corner coincides with a cluster point")
    x = np.sqrt(np.arange(1, len(d) + 1, dtype=float))
    y = np.log(d)
    A = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(A, y, rcond=None)
    fitted = A @ np.asarray([slope, intercept])
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return TaperFit(complex(corner), d, float(np.exp(intercept)), float(-slope), r2)
