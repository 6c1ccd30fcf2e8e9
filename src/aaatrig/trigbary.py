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
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi

# |Im(u)| beyond which sin/cos are evaluated through their exponential
# representations (direct evaluation overflows near |Im| ~ 710).
LARGE_IMAG = 20.0

# Kernel difference (|z - z_j| to first order, over the 2*pi shifts) below
# which evaluation short-circuits to the interpolated value; double
# precision cannot resolve the basis closer.
SUPPORT_TOL = 1e-13

# Cells (points x support points) per block of by_blocks: 1 MiB per complex
# temporary whatever m, half a 2 MiB L2 cache.  With 2048-point blocks (2 MiB
# at m = 64) the 64-point interpolant took 0.21 s per 10^5 points, not 0.13 s.
EVAL_CELLS = 2**16

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
    if wrap.any():
        out = np.where(wrap, out - TWO_PI, out)
    return out


def strip_distance(a, b):
    """Chordal distance on the strip: |a - b| minimised over 2*pi shifts."""
    d = np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex)
    return np.minimum.reduce(
        [np.abs(d), np.abs(d - TWO_PI), np.abs(d + TWO_PI)]
    )


def _cst_values(parity: Parity, u: np.ndarray) -> np.ndarray:
    """Vectorised csc/cot: 1/sin and cos/sin, exponential where |Im(u)| > LARGE_IMAG.

    There, with s the sign of Im(u) and e = e^{isu}, csc u = 2is e/(e^2 - 1)
    and cot u = is (e^2 + 1)/(e^2 - 1).  No singularity checks; callers are
    responsible for staying away from the real multiples of pi.
    """
    u = np.asarray(u, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = 1.0 / np.sin(u) if parity is Parity.ODD else np.cos(u) / np.sin(u)
        far = np.abs(u.imag) > LARGE_IMAG
        if far.any():
            s = np.sign(u.imag[far])
            e = np.exp(1j * s * u[far])
            numer = 2.0 * e if parity is Parity.ODD else e * e + 1.0
            out[far] = 1j * s * numer / (e * e - 1.0)
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
    return complex(_cst_values(parity, np.asarray([u]))[0])


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
    a, b = order[:-1], order[1:]
    same = pts[a] == pts[b]
    return list(zip(np.minimum(a, b)[same], np.maximum(a, b)[same]))


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
        if not all(np.all(np.isfinite(a)) for a in (sup, fv, w)):
            raise ValueError("support, fvals and weights must be finite")
        if np.any(sup.real < 0.0) or np.any(sup.real >= TWO_PI):
            raise ValueError("support points must lie in the canonical strip")
        norm = np.linalg.norm(w)
        if norm == 0.0:
            raise ValueError("weights must not all vanish")
        if not abs(norm - 1.0) <= 1e-12:
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
    return complex(evaluate_batch(model, z))


def evaluate_batch(model: TrigModel, zs) -> np.ndarray:
    """Elementwise evaluation preserving input order.

    Each point is evaluated as the classical barycentric rational of
    :func:`_zeta_form` in zeta = e^{isz}, with s the sign of Im z.  A point's
    value does not depend on the batch it is in.
    """

    def block(s, zc):
        zeta_j, a, c = _zeta_form(model, s, model.weights)
        diff = np.exp(s * 1j * zc)[:, None] - zeta_j
        # |zeta - zeta_j| / |zeta_j| is |z - z_j| to first order, over the
        # 2*pi shifts.
        return barycentric_ratio(diff, np.abs(zeta_j), a, c, model.fvals)

    return blockwise(block, zs, model.m)


def by_blocks(fn, zs, width: int) -> np.ndarray:
    """fn on the points of zs, EVAL_CELLS // width (at least 1) at a time; shaped as zs."""
    zs = np.asarray(zs, dtype=complex)
    flat = zs.reshape(-1)
    out = np.empty_like(flat)
    step = max(1, EVAL_CELLS // max(1, width))
    for start in range(0, flat.size, step):
        out[start:start + step] = fn(flat[start:start + step])
    return out.reshape(zs.shape)


def blockwise(fn, zs, width: int) -> np.ndarray:
    """fn(s, points) on the canonicalized points of zs, by block and half-plane.

    The blocks are those of by_blocks.  Each is split by the sign s of Im z
    (+1 where Im z >= 0), so |e^{isz}| <= 1 at every point fn gets; a block in
    one half-plane goes to fn whole.  Raises on non-finite points.
    """
    zs = np.asarray(zs, dtype=complex)
    if not np.isfinite(zs).all():
        raise ValueError("non-finite sample point")

    def block(chunk):
        chunk = _canonicalize_array(chunk)
        down = chunk.imag < 0.0
        n_down = np.count_nonzero(down)
        if n_down in (0, chunk.size):
            return fn(-1.0 if n_down else 1.0, chunk)
        out = np.empty_like(chunk)
        out[~down], out[down] = fn(1.0, chunk[~down]), fn(-1.0, chunk[down])
        return out

    return by_blocks(block, zs, width)


def _zeta_form(model, s, weights):
    """Nodes zeta_j, Cauchy weights a_j and heads c_j of the model in zeta = e^{isz}.

    r(z) = R(zeta) = sum_j (a_j/(zeta - zeta_j) + c_j) f_j / sum_j (a_j/(zeta - zeta_j) + c_j),
    a classical barycentric rational (Baddoo, sec. 3).  Up to a factor
    common to every j, csc((z - z_j)/2) is e^{isz_j/2}/(zeta - zeta_j), so
    odd parity has a_j = w_j e^{isz_j/2} and c_j = 0; cot((z - z_j)/2) is
    1 + 2 zeta_j/(zeta - zeta_j), so even parity has a_j = 2 w_j zeta_j and
    c_j = w_j, a node at infinity of weight sum_j w_j.  The w_j are the
    given weights, which may be the model's or any coefficients on its
    support.  At zeta = 0 both kernels reach the far-field limit.
    """
    zeta_j = np.exp(s * 1j * model.support)
    if model.parity is Parity.ODD:
        return zeta_j, weights * np.exp(s * 0.5j * model.support), np.zeros_like(weights)
    return zeta_j, 2.0 * weights * zeta_j, weights


def barycentric_ratio(diff, scale, a, c, fvals) -> np.ndarray:
    """The value of :func:`_cauchy_sum` per row, with the rules for a hit.

    diff holds each point's difference to each node.  A row with
    |diff_j| < SUPPORT_TOL * scale_j takes the support value f_j; a row
    whose denominator vanishes exactly takes POLE_VALUE.
    """
    near = np.abs(diff) < SUPPORT_TOL * scale
    with np.errstate(divide="ignore", invalid="ignore"):
        _, den, out = _cauchy_sum(diff, a, c, fvals)
    out[den == 0.0] = POLE_VALUE
    hit = near.any(axis=1)
    if hit.any():
        out[hit] = fvals[np.argmax(near[hit], axis=1)]
    return out


def _cauchy_sum(diff, a, c, f):
    """Terms a_j/diff_j, denominator and value of a barycentric rational per row.

    Row i's value is sum_j (a_j/diff_ij + c_j) f_j / sum_j (a_j/diff_ij + c_j).
    No product or sum mixes rows, so a point's value does not depend on the
    batch it is in.  The sums over c are np.sum's reduction, called directly.
    """
    cauchy = a / diff
    den = np.add.reduce(c, axis=None) + np.einsum("ij->i", cauchy)
    return cauchy, den, (np.add.reduce(c * f, axis=None) + np.einsum("ij,j->i", cauchy, f)) / den


def far_field(model: TrigModel) -> FarField:
    """Limits of the model at +-i*infinity.

    Odd models take two generally different values

        f_inf^+- = sum_j f_j w_j e^{-+i z_j/2} / sum_j w_j e^{-+i z_j/2},

    even models a single one, sum f_j w_j / sum w_j.
    """
    limits = _far_weights(model.parity, model.support, model.weights, model.weights)
    for terms in limits:
        if abs(np.sum(terms)) < 1e-14 * np.sum(np.abs(terms)):
            raise ValueError("degenerate far field")
    return FarField(*(complex(np.sum(model.fvals * t) / np.sum(t)) for t in limits))


def _far_weights(parity: Parity, support, w_plus, w_minus):
    """The weights whose sums give the limits at +i*infinity and -i*infinity.

    Odd parity: w_plus_j e^{-i z_j/2} and w_minus_j e^{i z_j/2}; even parity:
    the weights themselves.  far_field and the fit's far-field constraint
    rows both read this map.
    """
    if parity is Parity.EVEN:
        return w_plus, w_minus
    return w_plus * np.exp(-1j * support / 2.0), w_minus * np.exp(1j * support / 2.0)


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
