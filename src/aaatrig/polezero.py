"""Pole, zero and residue extraction for trigonometric barycentric models.

The barycentric form hides its poles and zeros; they are recovered by
transforming to an ordinary rational function (exponential substitution for
odd parity, tangent half-angle for even parity) and solving arrowhead
generalized eigenvalue problems.  Denominator data yields the poles,
numerator data the zeros; every candidate must pass a residual check
against the untransformed model before it is reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import (
    arrow_mass_matrix,
    arrowhead_matrix,
    generalized_eig,
    generalized_eig_arrow,
)
from .trigbary import (
    Parity,
    TrigModel,
    _canonicalize_array,
    _cst_values,
    cst_derivatives,
    far_field,
    strip_distance,
)

# Relative denominator/numerator residual below which an eigenvalue is
# accepted as a genuine pole/zero of the model.
RESIDUAL_TOL = 1e-6

# |z_j - pi| below which the even transform switches to the special pencil;
# between this and NEAR_PI_GUARD the tangent is too inaccurate to proceed.
PI_TOL = 1e-12
NEAR_PI_GUARD = 1e-6

KIND_ODD = "odd_exp"
KIND_EVEN = "even_tan"
KIND_EVEN_PI = "even_tan_pi"


@dataclass(frozen=True)
class TransformedBarycentric:
    """Model data after the substitution that exposes poles and zeros.

    odd_exp:      shifted_support = e^{i z_j}, shifted_weights = w_j e^{i z_j/2}.
    even_tan:     shifted_support = tan(z_j/2), shifted_weights = w_j (1 + t_j^2);
                  head_num/head_den are the rational form's constants c_n, c_d.
    even_tan_pi:  support point at pi moved aside; head_num = -f_1 w_1,
                  head_den = -w_1, with c_n, c_d (sums excluding j=1) in
                  pi_cn / pi_cd.
    """

    kind: str
    shifted_support: np.ndarray
    shifted_weights: np.ndarray
    fvals: np.ndarray
    head_num: complex
    head_den: complex
    pi_cn: complex = 0j
    pi_cd: complex = 0j


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
    """Substitute the model into ordinary rational form."""
    z, w, f = model.support, model.weights, model.fvals
    if model.parity is Parity.ODD:
        return TransformedBarycentric(
            KIND_ODD, np.exp(1j * z), w * np.exp(1j * z / 2.0), f, 0j, 0j
        )
    d_pi = strip_distance(z, np.pi)
    at_pi = np.flatnonzero(d_pi < PI_TOL)
    if len(at_pi) > 1:
        raise ValueError("multiple support points at pi")
    if len(at_pi) == 0:
        if np.any(d_pi < NEAR_PI_GUARD):
            raise ValueError("near-pi support point, tighten threshold")
        t = np.tan(z / 2.0)
        wt = w * (1.0 + t * t)
        # w~_j t_j / (1 + t_j^2) collapses to w_j t_j.
        return TransformedBarycentric(
            KIND_EVEN, t, wt, f, complex(np.sum(f * w * t)), complex(np.sum(w * t))
        )
    k = int(at_pi[0])
    rest = np.concatenate([np.arange(k), np.arange(k + 1, model.m)])
    if np.any(d_pi[rest] < NEAR_PI_GUARD):
        raise ValueError("near-pi support point, tighten threshold")
    zr, wr, fr = z[rest], w[rest], f[rest]
    t = np.tan(zr / 2.0)
    wt = wr * (1.0 + t * t)
    return TransformedBarycentric(
        KIND_EVEN_PI,
        t,
        wt,
        fr,
        complex(-f[k] * w[k]),
        complex(-w[k]),
        pi_cn=complex(np.sum(fr * wr * t)),
        pi_cd=complex(np.sum(wr * t)),
    )


def _pi_special_pencil(head, second, payload, shifts):
    """Pencil for the rational form with an extra 1/t factor (support at pi)."""
    payload = np.asarray(payload, dtype=complex)
    shifts = np.asarray(shifts, dtype=complex)
    n = len(payload) + 2
    A = np.zeros((n, n), dtype=complex)
    A[0, 0] = head
    A[0, 1] = second
    A[0, 2:] = payload
    A[1, 0] = 1.0
    A[2:, 1] = 1.0
    A[2:, 2:] = np.diag(shifts)
    return A, arrow_mass_matrix(n)


def _eigen_candidates(tb: TransformedBarycentric, use_numerator: bool) -> np.ndarray:
    """Finite eigenvalues of the pole (denominator) or zero (numerator) pencil."""
    payload = tb.shifted_weights
    if use_numerator:
        payload = tb.fvals * payload
    if tb.kind == KIND_ODD:
        head = 0j
        result = generalized_eig_arrow(arrowhead_matrix(head, payload, tb.shifted_support))
    elif tb.kind == KIND_EVEN:
        head = tb.head_num if use_numerator else tb.head_den
        result = generalized_eig_arrow(arrowhead_matrix(head, payload, tb.shifted_support))
    else:
        head = tb.head_num if use_numerator else tb.head_den
        second = tb.pi_cn if use_numerator else tb.pi_cd
        result = generalized_eig(
            *_pi_special_pencil(head, second, payload, tb.shifted_support)
        )
    return result.finite_eigenvalues


def _map_back(kind: str, lam: np.ndarray) -> np.ndarray:
    """Invert the substitution; eigenvalues mapping to +-i*infinity drop out.

    Eigenvalues within ~1e-13 of the map's branch points (0/infinity for the
    exponential, +-i for the tangent) sit below eigenvalue noise and would
    land at |Im z| beyond 25: they represent the far field, not strip points.
    """
    if len(lam) == 0:
        return lam
    if kind == KIND_ODD:
        lam = lam[(np.abs(lam) > 1e-13) & (np.abs(lam) < 1e13)]
        z = -1j * np.log(lam)
    else:
        lam = lam[
            (np.abs(lam) < 1e13)
            & (np.abs(lam - 1j) > 1e-13)
            & (np.abs(lam + 1j) > 1e-13)
        ]
        z = 2.0 * np.arctan(lam)
    z = z[np.isfinite(z.real) & np.isfinite(z.imag)]
    return _canonicalize_array(z)


def _kernel_sum(model: TrigModel, z: np.ndarray, coeff: np.ndarray):
    """sum_j c_j cst((z - z_j)/2) and its z-derivative at each point of z,
    with the largest term magnitude of each sum (non-finite if any term is)."""
    u = (z[:, None] - model.support[None, :]) / 2.0
    kernel = cst_derivatives(model.parity, u, 1)
    with np.errstate(invalid="ignore"):
        terms = coeff * kernel[0]
        dterms = 0.5 * coeff * kernel[1]
    return (
        np.sum(terms, axis=1),
        np.sum(dterms, axis=1),
        np.max(np.abs(terms), axis=1),
        np.max(np.abs(dterms), axis=1),
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
    # Deduplicate coincident candidates (pencil + pi check can overlap).
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
    residual check.  For even parity the point z = pi, which the tangent
    substitution sends to infinity, is tested separately.
    """
    if model.m < 2:
        raise ValueError("pole extraction needs m >= 2")
    tb = transform(model)
    pole_cands = _map_back(tb.kind, _eigen_candidates(tb, use_numerator=False))
    zero_cands = _map_back(tb.kind, _eigen_candidates(tb, use_numerator=True))
    if tb.kind == KIND_EVEN:
        pi_pt = np.asarray([np.pi], dtype=complex)
        pole_cands = np.concatenate([pole_cands, pi_pt])
        zero_cands = np.concatenate([zero_cands, pi_pt])
    poles = _sorted(_verified(model, pole_cands, use_numerator=False))
    zeros = _sorted(_verified(model, zero_cands, use_numerator=True))
    residues = _residues_unchecked(model, poles)
    return PoleZeroReport(poles, zeros, residues, _pf_constant(model))


def _sorted(z: np.ndarray) -> np.ndarray:
    order = np.lexsort((z.imag, z.real))
    return z[order]


def _pf_constant(model: TrigModel) -> complex:
    try:
        ff = far_field(model)
    except ValueError:
        return complex(np.nan, np.nan)
    return (ff.f_plus + ff.f_minus) / 2.0


def _quotient_parts(model: TrigModel, poles: np.ndarray):
    """Numerator n(p), denominator derivative d'(p) and its largest term."""
    # f*w, not w*f: numpy's complex product need not round symmetrically.
    num, _, _, _ = _kernel_sum(model, poles, model.fvals * model.weights)
    _, dprime, _, ref = _kernel_sum(model, poles, model.weights)
    return num, dprime, ref


def _residues_unchecked(model: TrigModel, poles) -> np.ndarray:
    poles = np.asarray(poles, dtype=complex)
    if len(poles) == 0:
        return np.zeros(0, dtype=complex)
    num, dprime, _ = _quotient_parts(model, poles)
    with np.errstate(divide="ignore", invalid="ignore"):
        return num / dprime


def residues(model: TrigModel, poles) -> np.ndarray:
    """Classical residues Res_{z=p} r(z) = n(p)/d'(p) at simple poles.

    d' is evaluated analytically through csc' = -csc*cot and cot' = -csc^2.
    The partial-fraction coefficient of the cotangent form is half of the
    classical residue.  Raises for (numerically) non-simple poles.
    """
    poles = np.asarray(poles, dtype=complex)
    if len(poles) == 0:
        return np.zeros(0, dtype=complex)
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
    return _cst_values(Parity.EVEN, u) @ pf.coefficients + pf.constant


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
