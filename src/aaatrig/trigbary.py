"""Trigonometric barycentric rational functions on the 2*pi period strip.

A model is a ratio of weighted sums of a trigonometric kernel ``cst``:

    r(z) = sum_j f_j w_j cst((z - z_j)/2) / sum_j w_j cst((z - z_j)/2)

where ``cst`` is ``csc`` (odd parity) or ``cot`` (even parity).  For any
nonzero weights, r interpolates the values f_j at the support points z_j
and is 2*pi-periodic in the real direction.  All points are kept in the
canonical strip 0 <= Re(z) < 2*pi.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

import numpy as np
import numpy.polynomial.polynomial as P

TWO_PI = 2.0 * np.pi

# |Im(u)| beyond which sin/cos are evaluated through their exponential
# representations (direct evaluation overflows near |Im| ~ 710).
LARGE_IMAG = 20.0

# Proximity (strip chordal distance) at which evaluation short-circuits to
# the interpolated value; double precision cannot resolve the basis closer.
SUPPORT_TOL = 1e-13

# Returned by evaluate() when the denominator vanishes exactly off-support.
POLE_VALUE = complex(np.inf, np.inf)


class Parity(enum.Enum):
    """Basis selector: ODD uses csc, EVEN uses cot (free constant zero)."""

    ODD = "odd"
    EVEN = "even"

    @classmethod
    def from_string(cls, name: str) -> "Parity":
        try:
            return cls(name.lower())
        except ValueError:
            raise ValueError(f"unknown parity {name!r}, expected 'odd' or 'even'")


def canonicalize(z: complex) -> complex:
    """Project a point onto the strip 0 <= Re(z) < 2*pi.

    The imaginary part is unchanged.  Raises on non-finite input.
    """
    z = complex(z)
    if not (np.isfinite(z.real) and np.isfinite(z.imag)):
        raise ValueError("non-finite sample point")
    return complex(_canonicalize_array(np.asarray(z, dtype=complex)))


def _canonicalize_array(z: np.ndarray) -> np.ndarray:
    out = z - TWO_PI * np.floor(z.real / TWO_PI)
    # Tiny negative real parts can round up to exactly 2*pi.
    wrap = out.real >= TWO_PI
    if np.any(wrap):
        out = np.where(wrap, out - TWO_PI, out)
    return out


def strip_distance(a, b):
    """Chordal distance on the strip: |a - b| minimised over 2*pi shifts."""
    d = np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex)
    return np.minimum.reduce(
        [np.abs(d), np.abs(d - TWO_PI), np.abs(d + TWO_PI)]
    )


def _cst_values(parity: Parity, u: np.ndarray) -> np.ndarray:
    """Vectorised csc/cot with exponential forms for large |Im(u)|.

    No singularity checks; callers are responsible for staying away from
    the real multiples of pi.
    """
    u = np.asarray(u, dtype=complex)
    out = np.empty(u.shape, dtype=complex)
    big_pos = u.imag > LARGE_IMAG
    big_neg = u.imag < -LARGE_IMAG
    rest = ~(big_pos | big_neg)
    with np.errstate(divide="ignore", invalid="ignore"):
        if parity is Parity.ODD:
            if np.any(rest):
                out[rest] = 1.0 / np.sin(u[rest])
            if np.any(big_pos):
                up = u[big_pos]
                out[big_pos] = 2j * np.exp(1j * up) / (np.exp(2j * up) - 1.0)
            if np.any(big_neg):
                un = u[big_neg]
                out[big_neg] = 2j * np.exp(-1j * un) / (1.0 - np.exp(-2j * un))
        else:
            if np.any(rest):
                ur = u[rest]
                out[rest] = np.cos(ur) / np.sin(ur)
            if np.any(big_pos):
                x = np.exp(2j * u[big_pos])
                out[big_pos] = 1j * (x + 1.0) / (x - 1.0)
            if np.any(big_neg):
                y = np.exp(-2j * u[big_neg])
                out[big_neg] = 1j * (1.0 + y) / (y - 1.0) * (-1.0)
    return out


def cst(parity: Parity, u: complex) -> complex:
    """Evaluate the basis kernel csc(u) (odd) or cot(u) (even).

    Raises if u lies within 1e-14 of a real multiple of pi, where the
    kernel is singular; callers evaluating at support points must use the
    interpolation shortcut instead.
    """
    u = complex(u)
    k = np.round(u.real / np.pi)
    if abs(u - k * np.pi) < 1e-14:
        raise ValueError("basis singularity")
    return complex(_cst_values(parity, np.asarray(u)))


def cst_derivatives(parity: Parity, u, order: int) -> np.ndarray:
    """Derivatives d^q/du^q of the basis kernel for q = 0..order.

    Uses the closed recursions csc' = -csc*cot and cot' = -csc^2, carried
    as polynomials in cot(u).  Returns an array of shape (order+1,) + u.shape.
    """
    u = np.asarray(u, dtype=complex)
    cot_u = _cst_values(Parity.EVEN, u)
    odd = parity is Parity.ODD
    out = np.empty((order + 1,) + u.shape, dtype=complex)
    with np.errstate(invalid="ignore", over="ignore"):
        for q, poly in enumerate(derivative_polys("csc" if odd else "cot", order)):
            out[q] = P.polyval(cot_u, poly)
        if odd:
            out = _cst_values(Parity.ODD, u) * out
    return out


# d^q/du^q of a kernel is P_q(x) (times csc u for csc), x = cot u or tan u,
# with P_{q+1} = a*P_q + g*P_q'.  Entries are (P_0, a, g), ascending.
_DERIVATIVE_RECURRENCES = {
    "cot": ([0.0, 1.0], [0.0], [-1.0, 0.0, -1.0]),
    "csc": ([1.0], [0.0, -1.0], [-1.0, 0.0, -1.0]),
    "tan": ([0.0, 1.0], [0.0], [1.0, 0.0, 1.0]),
}


@functools.lru_cache(maxsize=None)
def derivative_polys(kernel: str, order: int) -> tuple:
    """P_0..P_order of the kernel's derivative recurrence (see above)."""
    p0, a, g = _DERIVATIVE_RECURRENCES[kernel]
    if order == 0:
        return (np.asarray(p0),)
    polys = derivative_polys(kernel, order - 1)
    p = polys[-1]
    return polys + (P.polyadd(P.polymul(a, p), P.polymul(g, P.polyder(p))),)


@dataclass(frozen=True)
class SampleSet:
    """Scattered complex sample points with data values, canonicalized.

    Build through :meth:`from_data`, which projects the points onto the
    strip and rejects duplicates.
    """

    points: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        pts = np.atleast_1d(np.asarray(self.points, dtype=complex))
        vals = np.atleast_1d(np.asarray(self.values, dtype=complex))
        if pts.shape != vals.shape or pts.ndim != 1:
            raise ValueError("points and values must be 1-d arrays of equal length")
        if len(pts) < 2:
            raise ValueError("a sample set needs at least 2 points")
        pts.flags.writeable = False
        vals.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_data(cls, points, values) -> "SampleSet":
        pts = np.atleast_1d(np.asarray(points, dtype=complex))
        vals = np.atleast_1d(np.asarray(values, dtype=complex))
        if not np.all(np.isfinite(pts.real) & np.isfinite(pts.imag)):
            raise ValueError("non-finite sample point")
        if not np.all(np.isfinite(vals.real) & np.isfinite(vals.imag)):
            raise ValueError("non-finite sample value")
        pts = _canonicalize_array(pts)
        dup = _duplicate_indices(pts)
        if dup:
            raise ValueError(
                "duplicate canonical sample points at indices "
                + ", ".join(f"{i}/{j}" for i, j in dup)
            )
        return cls(pts, vals)

    @property
    def size(self) -> int:
        return len(self.points)

    def __len__(self) -> int:
        return len(self.points)


def _duplicate_indices(pts):
    order = np.lexsort((pts.imag, pts.real))
    dup = []
    for a, b in zip(order[:-1], order[1:]):
        if pts[a] == pts[b]:
            dup.append((min(a, b), max(a, b)))
    return dup


@dataclass(frozen=True)
class TrigModel:
    """A fitted (or hand-built) trigonometric barycentric rational.

    Attributes:
        parity: basis selector (csc or cot kernel).
        support: support points z_j in the canonical strip.
        fvals: interpolated values f_j.
        weights: barycentric weights, unit Euclidean norm.
        err_history: max sample residual recorded at each fit iteration.
        scale: max |f| over the sample set (relative-error reference).
        converged: whether the fit met its tolerance before the order caps.
        cleanup_warning: set when cleanup refused to empty the support.
    """

    parity: Parity
    support: np.ndarray
    fvals: np.ndarray
    weights: np.ndarray
    err_history: np.ndarray = field(default=None)
    scale: float = 0.0
    converged: bool = True
    cleanup_warning: bool = False

    def __post_init__(self):
        sup = np.atleast_1d(np.asarray(self.support, dtype=complex))
        fv = np.atleast_1d(np.asarray(self.fvals, dtype=complex))
        w = np.atleast_1d(np.asarray(self.weights, dtype=complex))
        if not (len(sup) == len(fv) == len(w)) or len(sup) < 1:
            raise ValueError("support, fvals and weights must share length m >= 1")
        if np.any(sup.real < 0.0) or np.any(sup.real >= TWO_PI):
            raise ValueError("support points must lie in the canonical strip")
        norm = np.linalg.norm(w)
        if norm == 0.0:
            raise ValueError("weights must not all vanish")
        if abs(norm - 1.0) > 1e-12:
            raise ValueError("weights must have unit Euclidean norm")
        hist = self.err_history
        hist = np.zeros(len(sup)) if hist is None else np.atleast_1d(np.asarray(hist, dtype=float))
        if len(hist) != len(sup):
            raise ValueError("err_history must have one entry per support point")
        scale = float(self.scale) if self.scale else float(np.max(np.abs(fv)))
        for name, arr in (("support", sup), ("fvals", fv), ("weights", w), ("err_history", hist)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "scale", scale)

    @property
    def m(self) -> int:
        return len(self.support)

    @classmethod
    def build(cls, parity: Parity, support, fvals, weights, **kwargs) -> "TrigModel":
        """Construct from raw data: canonicalizes support, normalizes weights."""
        sup = _canonicalize_array(np.atleast_1d(np.asarray(support, dtype=complex)))
        w = np.atleast_1d(np.asarray(weights, dtype=complex))
        w = w / np.linalg.norm(w)
        return cls(parity, sup, np.asarray(fvals, dtype=complex), w, **kwargs)


@dataclass(frozen=True)
class FarField:
    """Limits of a model as z -> +i*inf (f_plus) and z -> -i*inf (f_minus)."""

    f_plus: complex
    f_minus: complex


def evaluate(model: TrigModel, z: complex) -> complex:
    """Evaluate r(z).  Exact at support points; POLE_VALUE at a hit pole."""
    return complex(evaluate_batch(model, np.asarray([z], dtype=complex))[0])


def evaluate_batch(model: TrigModel, zs) -> np.ndarray:
    """Elementwise evaluation preserving input order."""
    zs = np.asarray(zs, dtype=complex)
    flat = np.atleast_1d(zs).ravel()
    if flat.size == 0:
        return np.zeros(zs.shape, dtype=complex)
    if not np.all(np.isfinite(flat.real) & np.isfinite(flat.imag)):
        raise ValueError("non-finite sample point")
    zc = _canonicalize_array(flat)
    diff = zc[:, None] - model.support[None, :]
    prox = np.minimum.reduce(
        [np.abs(diff), np.abs(diff - TWO_PI), np.abs(diff + TWO_PI)]
    )
    near = prox < SUPPORT_TOL
    out = np.empty(flat.shape, dtype=complex)
    hit = near.any(axis=1)
    if np.any(hit):
        out[hit] = model.fvals[np.argmax(near[hit], axis=1)]
    todo = ~hit
    if np.any(todo):
        out[todo] = _eval_ratio(model, zc[todo], diff[todo])
    return out.reshape(zs.shape)


def _eval_ratio(model, zc, diff):
    w, fv = model.weights, model.fvals
    out = np.empty(zc.shape, dtype=complex)
    if model.parity is Parity.ODD:
        far = np.abs(zc.imag) > 2.0 * LARGE_IMAG
    else:
        far = np.zeros(zc.shape, dtype=bool)
    if np.any(~far):
        terms = _cst_values(model.parity, diff[~far] / 2.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            num = terms @ (w * fv)
            den = terms @ w
            vals = num / den
        vals[den == 0.0] = POLE_VALUE
        out[~far] = vals
    if np.any(far):
        # Scaled terms: csc((z-z_j)/2) = e^{+-i z/2} g_j; the common factor
        # cancels in the ratio, so neither overflow nor underflow occurs.
        zf = zc[far]
        df = diff[far]
        up = zf.imag > 0
        g = np.empty(df.shape, dtype=complex)
        if np.any(up):
            g[up] = 2j * np.exp(-1j * model.support[None, :] / 2.0) / (
                np.exp(1j * df[up]) - 1.0
            )
        if np.any(~up):
            g[~up] = 2j * np.exp(1j * model.support[None, :] / 2.0) / (
                1.0 - np.exp(-1j * df[~up])
            )
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = (g @ (w * fv)) / (g @ w)
        out[far] = vals
    return out


def far_field(model: TrigModel) -> FarField:
    """Limits of the model at +-i*infinity.

    Odd models take two generally different values

        f_inf^+- = sum_j f_j w_j e^{-+i z_j/2} / sum_j w_j e^{-+i z_j/2},

    even models a single one, sum f_j w_j / sum w_j.
    """
    w, fv, zj = model.weights, model.fvals, model.support
    if model.parity is Parity.EVEN:
        den = np.sum(w)
        if abs(den) < 1e-14 * np.sum(np.abs(w)):
            raise ValueError("degenerate far field")
        val = complex(np.sum(fv * w) / den)
        return FarField(val, val)
    ep = w * np.exp(-1j * zj / 2.0)
    em = w * np.exp(1j * zj / 2.0)
    for terms in (ep, em):
        if abs(np.sum(terms)) < 1e-14 * np.sum(np.abs(terms)):
            raise ValueError("degenerate far field")
    return FarField(
        complex(np.sum(fv * ep) / np.sum(ep)),
        complex(np.sum(fv * em) / np.sum(em)),
    )


def interpolatory_weights(parity: Parity, support) -> np.ndarray:
    """Weights that make the model the pure trigonometric interpolant.

    a_j = prod_{k != j} csc((z_k - z_j)/2), returned with unit norm.  The
    products are accumulated in log space to survive large supports.
    """
    sup = _canonicalize_array(np.atleast_1d(np.asarray(support, dtype=complex)))
    m = len(sup)
    if m == 1:
        return np.ones(1, dtype=complex)
    diff = (sup[None, :] - sup[:, None]) / 2.0  # row j: (z_k - z_j)/2
    off = ~np.eye(m, dtype=bool)
    if np.min(np.abs(diff[off])) == 0.0:
        raise ValueError("coincident support points")
    log_csc = -np.log(np.sin(diff, where=off, out=np.ones_like(diff)))
    log_a = np.sum(log_csc, axis=1, where=off)
    a = np.exp(log_a - np.max(log_a.real))
    return a / np.linalg.norm(a)
