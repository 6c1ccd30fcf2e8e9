"""Pole, zero and residue extraction for trigonometric barycentric models.

The barycentric form hides its poles and zeros; they are recovered through
the change of variable zeta = e^{iz}, which turns either parity into an
ordinary barycentric rational in zeta, and one arrowhead generalized
eigenvalue problem per sum.  Denominator data yields the poles, numerator
data the zeros; every candidate must pass a residual check on the model's
kernel sum, independent of the eigensolver, before it is reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import arrowhead_matrix, generalized_eig_arrow
from .trigbary import (
    Parity,
    TrigModel,
    _canonicalize_array,
    _cst_values,
    _zeta_form,
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
    zeta, a, c = _zeta_form(model, 1.0, model.weights)
    f = model.fvals
    return TransformedBarycentric(zeta, a, f, complex(np.sum(f * c)), complex(np.sum(c)))


def _eigen_candidates(tb: TransformedBarycentric, use_numerator: bool) -> np.ndarray:
    """Finite eigenvalues of the pole (denominator) or zero (numerator) pencil."""
    payload = tb.shifted_weights
    if use_numerator:
        payload = tb.fvals * payload
    head = tb.head_num if use_numerator else tb.head_den
    result = generalized_eig_arrow(arrowhead_matrix(head, payload, tb.shifted_support))
    return result.finite_eigenvalues


def _map_back(lam: np.ndarray) -> np.ndarray:
    """Invert zeta = e^{iz}; eigenvalues mapping to +-i*infinity drop out.

    Eigenvalues with |lambda| below 1e-13 or above 1e13, next to the map's
    branch points 0 and infinity, sit below eigenvalue noise and would land
    at |Im z| beyond 25: they represent the far field, not strip points.
    """
    if len(lam) == 0:
        return lam
    lam = lam[(np.abs(lam) > 1e-13) & (np.abs(lam) < 1e13)]
    z = -1j * np.log(lam)
    z = z[np.isfinite(z.real) & np.isfinite(z.imag)]
    return _canonicalize_array(z)


def _kernel_sum(model: TrigModel, z: np.ndarray, coeff: np.ndarray):
    """sum_j coeff_j cst((z - z_j)/2) and its z-derivative at each point of z,
    with the largest term magnitude of each sum (non-finite if any term is).

    In zeta = e^{iz} the sum is h * sum_j (a_j/(zeta - zeta_j) + c_j), with
    (zeta_j, a_j, c_j) the :func:`_zeta_form` of coeff and h = 2i e^{iz/2}
    (odd) or i (even).  The derivative follows from d/dz = i zeta d/dzeta,
    so nothing cancels far from the real axis.
    """
    zeta_j, a, c = _zeta_form(model, 1.0, coeff)
    zeta = np.exp(1j * z)[:, None]
    if model.parity is Parity.ODD:
        h, dlog_h = 2j * np.exp(0.5j * z), 0.5j
    else:
        h, dlog_h = 1j, 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        diff = zeta - zeta_j
        terms = (a + c * diff) / diff
        # Each term's z-derivative, over h.
        dterms = dlog_h * terms - 1j * zeta * a / diff**2
    habs = np.abs(h)
    return (
        h * np.sum(terms, axis=1),
        h * np.sum(dterms, axis=1),
        habs * np.max(np.abs(terms), axis=1),
        habs * np.max(np.abs(dterms), axis=1),
    )


def _polished(model: TrigModel, cands: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """A few Newton steps on the kernel sum to sharpen eigenvalue candidates.

    Eigenvalues of doublet poles can carry errors far above the local root
    width; polishing makes the residual check meaningful there.  Candidates
    are never allowed to wander more than a small fraction of the strip: a
    candidate stops at a non-finite or long step and is reset if it ends up
    too far from where it started.
    """
    z = cands.astype(complex)
    live = np.arange(len(z))
    for _ in range(3):
        fv, dv, _, _ = _kernel_sum(model, z[live], coeff)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = fv / dv
        ok = np.isfinite(fv) & np.isfinite(dv) & (dv != 0.0)
        ok &= np.isfinite(step) & (np.abs(step) <= 0.05)
        live = live[ok]
        z[live] -= step[ok]
    return _canonicalize_array(np.where(np.abs(z - cands) <= 0.05, z, cands))


def _verified(model: TrigModel, cands: np.ndarray, use_numerator: bool) -> np.ndarray:
    if len(cands) == 0:
        return cands
    coeff = model.weights * (model.fvals if use_numerator else 1.0)
    cands = _polished(model, cands, coeff)
    total, _, ref, _ = _kernel_sum(model, cands, coeff)
    bad = ~np.isfinite(ref)
    if np.any(bad):
        # A candidate may sit within rounding of a support point; nudge off.
        total[bad], _, ref[bad], _ = _kernel_sum(model, cands[bad] + 1e-12j, coeff)
    keep = np.abs(total) <= RESIDUAL_TOL * ref
    out = cands[keep]
    # Deduplicate coincident candidates (a multiple root gives several
    # nearby eigenvalues, which polishing can pull onto one point).
    if len(out) > 1:
        order = np.lexsort((out.imag, out.real))
        out = out[order]
        gaps = strip_distance(out[1:], out[:-1])
        out = np.concatenate([out[:1], out[1:][gaps > 1e-9]])
    return out


def poles_and_zeros(model: TrigModel) -> PoleZeroReport:
    """Locate all poles and zeros of the model in the canonical strip.

    Builds the generalized eigenvalue pencils from the transformed model
    (denominator data for poles, numerator data for zeros), maps the finite
    eigenvalues back to the strip, and keeps those passing the barycentric
    residual check.  Both parities share the one zeta = e^{iz} pencil, so
    no strip point needs a separate test.
    """
    if model.m < 2:
        raise ValueError("pole extraction needs m >= 2")
    poles = _roots(model, use_numerator=False)
    zeros = _roots(model, use_numerator=True)
    return PoleZeroReport(poles, zeros, _residues_unchecked(model, poles), _pf_constant(model))


def _roots(model: TrigModel, use_numerator: bool) -> np.ndarray:
    """The verified poles (denominator) or zeros (numerator), sorted."""
    cands = _map_back(_eigen_candidates(transform(model), use_numerator))
    roots = _verified(model, cands, use_numerator)
    return roots[np.lexsort((roots.imag, roots.real))]


def _pf_constant(model: TrigModel) -> complex:
    try:
        ff = far_field(model)
    except ValueError:
        return complex(np.nan, np.nan)
    return (ff.f_plus + ff.f_minus) / 2.0


def _quotient_parts(model: TrigModel, poles):
    """Numerator n(p), denominator derivative d'(p) and its largest term."""
    poles = np.asarray(poles, dtype=complex)
    num, _, _, _ = _kernel_sum(model, poles, model.weights * model.fvals)
    _, dprime, _, ref = _kernel_sum(model, poles, model.weights)
    return num, dprime, ref


def _residues_unchecked(model: TrigModel, poles) -> np.ndarray:
    num, dprime, _ = _quotient_parts(model, poles)
    with np.errstate(divide="ignore", invalid="ignore"):
        return num / dprime


def residues(model: TrigModel, poles) -> np.ndarray:
    """Classical residues Res_{z=p} r(z) = n(p)/d'(p) at simple poles.

    d' is evaluated analytically in zeta = e^{iz} (:func:`_kernel_sum`).
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
    """
    if model.m == 1:
        return PartialFractions(
            np.zeros(0, dtype=complex), np.zeros(0, dtype=complex), complex(model.fvals[0])
        )
    report = poles_and_zeros(model)
    q = residues(model, report.poles) / 2.0
    clustered = False
    if len(report.poles) > 1:
        d = strip_distance(report.poles[:, None], report.poles[None, :])
        d[np.eye(len(d), dtype=bool)] = np.inf
        clustered = bool(np.min(d) < 1e-6)
    return PartialFractions(report.poles, q, report.constant, clustered)


def partial_fraction_eval(pf: PartialFractions, z) -> np.ndarray:
    """Evaluate sum_k q_k cot((z - p_k)/2) + c elementwise."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if len(pf.poles) == 0:
        return np.full(z.shape, pf.constant)
    u = (z[:, None] - pf.poles[None, :]) / 2.0
    return np.einsum("ij,j->i", _cst_values(Parity.EVEN, u), pf.coefficients) + pf.constant


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
