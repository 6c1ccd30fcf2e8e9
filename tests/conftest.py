"""Shared helpers: random model generation, a Cauchy-integral derivative
oracle and an independent root finder."""

import dataclasses
from math import factorial

import numpy as np
import scipy.linalg

from aaatrig.trigbary import Parity, TrigModel, TWO_PI, evaluate_batch, strip_distance


def thin_svd_direction(A, overwrite_a=False):
    """Reference weight solve: the last right singular vector of the thin SVD,
    phase-fixed as in aaatrig.numerics.min_singular_direction.  It never
    writes to A, which is correct whatever ``overwrite_a`` says."""
    _, _, vh = np.linalg.svd(np.asarray(A, dtype=complex), full_matrices=False)
    return _unit_phase(vh[-1].conj())


def constrained_svd_direction(A, C):
    """Reference constrained weight solve: the unit w minimising ||A w||
    subject to C w = 0, as w = N v with N = scipy.linalg.null_space(C) and
    v = thin_svd_direction(A @ N).  When C leaves only w = 0 (no null-space
    column) the solve drops C, as aaatrig.solver.solve_weights does."""
    N = scipy.linalg.null_space(np.atleast_2d(C))
    if N.shape[1] == 0:
        return thin_svd_direction(A)
    return _unit_phase(N @ thin_svd_direction(np.asarray(A) @ N))


def _unit_phase(w):
    j = int(np.argmax(np.abs(w)))
    w = w * (abs(w[j]) / w[j])
    return w / np.linalg.norm(w)


RANDOM_MODEL_SEPARATION = 0.35
RANDOM_MODEL_MAX_DRAWS = 10_000


def random_model(rng, m, parity, force_pi=False, im_range=0.3):
    """Well-separated random model.  Even-parity support stays 1e-3 away
    from pi unless force_pi puts the first support point exactly there.
    Raises ValueError when RANDOM_MODEL_MAX_DRAWS draws do not place m
    points RANDOM_MODEL_SEPARATION apart (m above about 30 at im_range=0.3)."""
    pts = []
    for _ in range(RANDOM_MODEL_MAX_DRAWS):
        if len(pts) == m:
            break
        z = rng.uniform(0.0, TWO_PI) + 1j * rng.uniform(-im_range, im_range)
        if force_pi and not pts:
            z = np.pi + 0j
        elif parity is Parity.EVEN and abs(strip_distance(z, np.pi)) < 1e-3:
            continue
        if pts and np.min(strip_distance(z, np.asarray(pts))) < RANDOM_MODEL_SEPARATION:
            continue
        pts.append(z)
    if len(pts) < m:
        raise ValueError(
            f"random_model: {RANDOM_MODEL_MAX_DRAWS} draws placed {len(pts)} of m={m} support "
            f"points {RANDOM_MODEL_SEPARATION} apart with |Im z| <= {im_range}"
        )
    fvals = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    weights = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return TrigModel.build(parity, np.asarray(pts), fvals, weights)


def real_model(rng, m, parity):
    """Random model whose support points, values and weights are all real:
    support jittered about the m-point equispaced grid, so any m fits."""
    support = TWO_PI * (np.arange(m) + rng.uniform(0.0, 0.5, m)) / m
    return TrigModel.build(parity, support, rng.standard_normal(m), rng.standard_normal(m))


def real_axis_points(rng, n=40):
    """n real points: random ones in [-1, 7), one of them moved 2*pi*10^6
    out and one given the imaginary part -0.0."""
    zs = rng.uniform(-1.0, 7.0, n).astype(complex)
    zs[1] += TWO_PI * 1e6
    zs[2] = complex(zs[2].real, -0.0)
    return zs


def complex_twins(model):
    """The model with one weight, one support point or one value made complex."""
    weights = model.weights.copy()
    weights[-1] += 1e-3j
    support, fvals = model.support.copy(), model.fvals.copy()
    support[0] += 1e-3j
    fvals[0] += 1e-3j
    return [dataclasses.replace(model, weights=weights / np.linalg.norm(weights)),
            dataclasses.replace(model, support=support),
            dataclasses.replace(model, fvals=fvals)]


def cauchy_derivative(model, z, p, radius, nodes=64):
    """r^{(p)}(z) by the trapezoidal rule on the Cauchy integral over the
    circle |t - z| = radius, from evaluate_batch only.  radius must stay
    below the distance from z to the model's nearest pole; the error then
    falls like (radius / distance)**nodes, and rounding adds about
    eps * max|r| * p! / radius**p."""
    w = radius * np.exp(2j * np.pi * np.arange(nodes) / nodes)
    z = np.asarray(z, dtype=complex)
    return factorial(p) * np.mean(evaluate_batch(model, z[..., None] + w) * w**-p, axis=-1)


def kernel_and_derivative(parity, u):
    """csc(u) (odd) or cot(u) (even) and its u-derivative, in closed form
    from np.sin/np.cos so the oracles share no code with the package."""
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        csc = 1.0 / np.sin(u)
        cot = np.cos(u) * csc
        if parity is Parity.ODD:
            return csc, -csc * cot
        return cot, -csc * csc


def barycentric_sum(model, z, use_numerator=False):
    """Direct kernel sum (numerator or denominator) and its term magnitudes."""
    coeff = model.weights * (model.fvals if use_numerator else 1.0)
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    u = (z[:, None] - model.support[None, :]) / 2.0
    terms = coeff[None, :] * kernel_and_derivative(model.parity, u)[0]
    return np.sum(terms, axis=1), np.max(np.abs(terms), axis=1)


def dense_roots(model, use_numerator=False, y_max=4.0, nx=420, ny=170):
    """Roots of the model's denominator (or numerator) inside the strip,
    found independently of the eigenvalue route: sample |sum| on a dense
    grid, Newton-refine from every local minimum, keep verified roots."""
    coeff = model.weights * (model.fvals if use_numerator else 1.0)

    def f_df(z):
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            u = (np.atleast_1d(z)[:, None] - model.support[None, :]) / 2.0
            kern, dkern = kernel_and_derivative(model.parity, u)
            return (kern @ coeff), (0.5 * dkern @ coeff)

    xs = np.linspace(0.0, TWO_PI, nx, endpoint=False)
    ys = np.linspace(-y_max, y_max, ny)
    Z = (xs[None, :] + 1j * ys[:, None]).ravel()
    vals, _ = f_df(Z)
    V = np.abs(vals).reshape(ny, nx)
    # Local minima; periodic in x, interior in y.
    minima = (
        (V <= np.roll(V, 1, axis=1))
        & (V <= np.roll(V, -1, axis=1))
        & (V <= np.roll(V, 1, axis=0))
        & (V <= np.roll(V, -1, axis=0))
    )
    minima[0, :] = minima[-1, :] = False
    seeds = list(Z.reshape(ny, nx)[minima])
    # Roots can hide inside one grid cell of a kernel singularity; ring
    # seeds around every support point catch those basins.
    angles = np.exp(2j * np.pi * np.arange(8) / 8)
    for s in model.support:
        for radius in (0.003, 0.012, 0.05):
            seeds.extend(s + radius * angles)
    roots = []
    for z0 in seeds:
        z = complex(z0)
        ok = False
        for _ in range(60):
            if not np.isfinite(z):
                break
            fv, dv = f_df(z)
            fv, dv = complex(fv[0]), complex(dv[0])
            if dv == 0.0:
                break
            step = fv / dv
            z = z - step
            if abs(step) < 1e-13 * (1.0 + abs(z)):
                ok = True
                break
        if not ok or not np.isfinite(z):
            continue
        fv, _ = f_df(z)
        _, ref = barycentric_sum(model, np.asarray([z]), use_numerator)
        if abs(fv[0]) > 1e-8 * ref[0]:
            continue
        if abs(z.imag) > y_max - 0.5:
            continue
        z = complex(np.mod(z.real, TWO_PI) + 1j * z.imag)
        if all(strip_distance(z, r) > 1e-6 for r in roots):
            roots.append(z)
    roots = np.asarray(roots, dtype=complex)
    order = np.lexsort((roots.imag, roots.real))
    return roots[order]


def match_point_sets(a, b, tol):
    """True when a and b agree as multisets to the given tolerance."""
    a, b = np.asarray(a), np.asarray(b)
    if len(a) != len(b):
        return False
    used = np.zeros(len(b), dtype=bool)
    for z in a:
        d = np.where(used, np.inf, strip_distance(z, b))
        j = int(np.argmin(d))
        if d[j] > tol:
            return False
        used[j] = True
    return True
