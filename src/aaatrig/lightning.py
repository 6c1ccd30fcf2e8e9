"""Periodic lightning solver for Laplace problems, with rational compression.

Demo problem: potential flow driven vertically through a 2*pi-periodic row
of half-disk obstacles sitting on the real axis.  The perturbation
potential is expanded in a periodic Newman part (cotangent poles clustered
at the obstacle corners) plus a periodic Runge part (powers of a tangent
coordinate, orthogonalized on the collocation points by Arnoldi), and the
coefficients solve the stream-function boundary condition in least squares.
The solved model can then be compressed into a far smaller trigonometric
barycentric rational by sampling it on the boundary.

Demo geometry: half disk of radius 1/2 centered at z = pi (upper half
plane side), repeated with period 2*pi.  Corners: z = pi - 1/2 and
z = pi + 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import solver
from .polezero import _cot_block
from .trigbary import Parity, SampleSet, TrigModel, TWO_PI, by_blocks

RADIUS = 0.5
CENTER = np.pi
CORNERS = (CENTER - RADIUS + 0j, CENTER + RADIUS + 0j)
# Interior bisectors at the two corners (into the obstacle).
CORNER_DIRECTIONS = (np.exp(1j * np.pi / 4.0), np.exp(3j * np.pi / 4.0))
# Expansion center of the Runge part; tan((z - z*)/2) is singular only at
# z* + pi (mod 2*pi), which must stay inside the obstacle.
RUNGE_CENTER = 0.25j

POLE_LENGTH_SCALE = 0.4
COLLOCATION_PER_POLE = 30
SIGMA_SCALE = 4.0  # taper of the demo's pole clusters and collocation ladders


@dataclass(frozen=True)
class LightningModel:
    """Solved periodic lightning expansion.

    f(z) = sum_j a_j cot((z - p_j)/2) + sum_k b_k q_k(tan((z - z*)/2))

    where q_k is the Arnoldi-orthogonalized polynomial basis described by
    the Hessenberg data.
    """

    newman_poles: np.ndarray
    newman_coeffs: np.ndarray
    runge_center: complex
    runge_coeffs: np.ndarray
    arnoldi_hessenberg: np.ndarray
    boundary_residual: float = 0.0

    @property
    def n_newman(self) -> int:
        return len(self.newman_poles)

    @property
    def n_runge(self) -> int:
        return len(self.runge_coeffs)


def inside_obstacle(z) -> np.ndarray:
    """Strictly inside the half-disk obstacle (period window copies folded in)."""
    z = np.asarray(z, dtype=complex)
    x = np.mod(z.real, TWO_PI)
    d = np.abs(x + 1j * z.imag - CENTER)
    return (d < RADIUS) & (z.imag > 0.0)


def place_poles(per_corner: int) -> np.ndarray:
    """Tapered pole clusters along the corners' interior bisectors.

    For each corner the k-th pole sits at distance
    POLE_LENGTH_SCALE * exp(-SIGMA_SCALE * (sqrt(n) - sqrt(k))), k = 1..n,
    so the cluster tightens root-exponentially toward the corner.  Raises
    if any pole is not strictly inside the obstacle, which happens from
    n = 94 on: the innermost pole comes within rounding of its corner.
    """
    if per_corner < 1:
        raise ValueError("per_corner must be positive")
    k = np.arange(1, per_corner + 1, dtype=float)
    dists = POLE_LENGTH_SCALE * np.exp(-SIGMA_SCALE * (np.sqrt(per_corner) - np.sqrt(k)))
    poles = np.concatenate([c + d * dists for c, d in zip(CORNERS, CORNER_DIRECTIONS)])
    if not np.all(inside_obstacle(poles)):
        raise ValueError(
            f"per_corner {per_corner} too large: the innermost pole comes within"
            " rounding of its corner, outside the open obstacle"
        )
    return poles


def boundary_points(n_total: int) -> np.ndarray:
    """Uniform-parameter points on the obstacle boundary (arc plus base).

    Roughly 60% of the points go to the arc and the rest to the segment,
    matching their lengths.  Corners themselves are excluded.
    """
    n_arc = int(round(n_total * np.pi / (np.pi + 2.0)))
    n_seg = max(n_total - n_arc, 2)
    s_arc = (np.arange(n_arc) + 0.5) / n_arc
    s_seg = (np.arange(n_seg) + 0.5) / n_seg
    arc = CENTER + RADIUS * np.exp(1j * np.pi * (1.0 - s_arc))
    seg = CENTER - RADIUS + 2.0 * RADIUS * s_seg + 0j
    return np.concatenate([arc, seg])


def collocation_points(per_corner: int, oversample: int = 5, stagger: float = 0.0) -> np.ndarray:
    """Boundary collocation: corner ladders plus uniform mid-panel fill.

    Each corner emits a tapered ladder along both adjacent boundary pieces,
    matching the pole clustering depth at ``oversample`` points per pole;
    the remainder of the 30-per-pole budget covers the boundary uniformly.
    """
    # Arclength offsets interleaving the pole ladder at ``oversample`` density.
    tau = (np.arange(1, oversample * per_corner + 1, dtype=float) - stagger) / oversample
    ladder = POLE_LENGTH_SCALE * np.exp(-SIGMA_SCALE * (np.sqrt(per_corner) - np.sqrt(tau)))
    theta = ladder / RADIUS
    pieces = [
        CENTER + RADIUS * np.exp(1j * theta),             # arc, from right corner
        CENTER + RADIUS * np.exp(1j * (np.pi - theta)),   # arc, from left corner
        CENTER - RADIUS + ladder + 0j,                    # base, from left corner
        CENTER + RADIUS - ladder + 0j,                    # base, from right corner
    ]
    target = COLLOCATION_PER_POLE * 2 * per_corner
    fill = max(target - sum(len(p) for p in pieces), 60)
    pieces.append(boundary_points(fill))
    return np.concatenate(pieces)


def _arnoldi_basis(t: np.ndarray, n: int):
    """Vandermonde-with-Arnoldi: columns discretely orthonormal in t-powers."""
    M = len(t)
    Q = np.zeros((M, n + 1), dtype=complex)
    H = np.zeros((n + 1, n), dtype=complex)
    Q[:, 0] = 1.0
    for k in range(n):
        q = t * Q[:, k]
        for j in range(k + 1):
            H[j, k] = np.vdot(Q[:, j], q) / M
            q = q - H[j, k] * Q[:, j]
        H[k + 1, k] = np.linalg.norm(q) / np.sqrt(M)
        Q[:, k + 1] = q / H[k + 1, k]
    return Q, H


def _arnoldi_eval(t: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Re-run the Arnoldi recurrence at new points."""
    n = H.shape[1]
    W = np.zeros((len(t), n + 1), dtype=complex)
    W[:, 0] = 1.0
    for k in range(n):
        w = t * W[:, k]
        for j in range(k + 1):
            w = w - H[j, k] * W[:, j]
        W[:, k + 1] = w / H[k + 1, k]
    return W


def _runge_coordinate(z, center) -> np.ndarray:
    return np.tan((np.asarray(z, dtype=complex) - center) / 2.0)


def evaluate_lightning(model: LightningModel, z) -> np.ndarray:
    """Evaluate the lightning expansion elementwise, by blocks of z as given."""

    def block(zb):
        W = _arnoldi_eval(_runge_coordinate(zb, model.runge_center), model.arnoldi_hessenberg)
        return (np.einsum("ij,j->i", _cot_block(zb, model.newman_poles), model.newman_coeffs)
                + np.einsum("ij,j->i", W, model.runge_coeffs))
    return by_blocks(block, z, model.n_newman + model.n_runge + 1)


def solve_dirichlet(points, targets, poles, n_runge: int) -> LightningModel:
    """Least-squares solve of Im[f(z)] = targets at the boundary points.

    ``targets`` are real, one per point.
    Columns are the cotangent pole terms and the Arnoldi-orthogonalized
    powers of tan((z - RUNGE_CENTER)/2); the real part of the constant
    coefficient is gauge and is pinned to zero.  Column norms are
    equilibrated before the solve.  ``boundary_residual`` is the max
    residual of that least-squares system at the collocation points.
    """
    pts = np.asarray(points, dtype=complex)
    rhs = np.asarray(targets, dtype=float)
    poles = np.asarray(poles, dtype=complex)
    n1 = len(poles)
    if len(pts) < 2 * (n1 + n_runge + 1):
        raise ValueError("not enough collocation points")

    newman = _cot_block(pts, poles)
    t = _runge_coordinate(pts, RUNGE_CENTER)
    Q, H = _arnoldi_basis(t, n_runge)
    basis = np.hstack([newman, Q])

    # Unknown layout: [Re(coef) | Im(coef)]; Im[Re(b_0) * q_0] = 0 for the
    # real constant column q_0, so Re(b_0) is pure gauge and is dropped.
    re_block = np.hstack([basis.imag, basis.real])
    keep = np.ones(re_block.shape[1], dtype=bool)
    keep[n1] = False
    re_block = re_block[:, keep]

    norms = np.linalg.norm(re_block, axis=0)
    norms[norms == 0.0] = 1.0
    scaled = re_block / norms
    sol, _, rank, _ = np.linalg.lstsq(scaled, rhs, rcond=None)
    if rank < scaled.shape[1]:
        raise ValueError(
            f"rank-deficient lightning system: rank {rank} < {scaled.shape[1]} columns"
        )
    resid = float(np.max(np.abs(scaled @ sol - rhs)))

    full = np.zeros(2 * (n1 + n_runge + 1))
    full[keep] = sol / norms
    coefs = full[: n1 + n_runge + 1] + 1j * full[n1 + n_runge + 1 :]
    return LightningModel(poles, coefs[:n1], complex(RUNGE_CENTER), coefs[n1:], H, resid)


def flow_targets(pts) -> np.ndarray:
    """Stream-function data for the flow demo: Im[f + i z] = 0 on the boundary."""
    return -np.asarray(pts, dtype=complex).real


def solve_flow_demo(per_corner: int = 61, n_runge: int = 24) -> LightningModel:
    """Solve the periodic half-disk flow problem, poles tapered by SIGMA_SCALE."""
    poles = place_poles(per_corner)
    pts = collocation_points(per_corner)
    model = solve_dirichlet(pts, flow_targets(pts), poles, n_runge)
    # Residual reported on an independent (staggered + denser) boundary set.
    check = collocation_points(per_corner, oversample=7, stagger=0.41)
    resid = float(np.max(np.abs(evaluate_lightning(model, check).imag - flow_targets(check))))
    return replace(model, boundary_residual=resid)


def compress(model: LightningModel) -> TrigModel:
    """Compress the lightning solution into a trigonometric rational.

    The expansion is evaluated at 1000 boundary points and refitted with
    the odd-parity greedy solver; the tolerance, twice the achieved boundary
    residual relative to the data scale (at least 1e-10), tracks the
    residual so the compression does not chase noise.
    """
    pts = boundary_points(1000)
    vals = evaluate_lightning(model, pts)
    samples = SampleSet.from_data(pts, vals)
    scale = float(np.max(np.abs(vals)))
    rel_tol = max(2.0 * model.boundary_residual / max(scale, 1e-300), 1e-10)
    config = solver.FitConfig(parity=Parity.ODD, rel_tol=rel_tol, max_order=60)
    return solver.fit(samples, config)


def interior_grid() -> np.ndarray:
    """200 deterministic points in the flow domain, clear of the obstacle."""
    xs = np.linspace(0.12, TWO_PI - 0.12, 25)
    ys = np.linspace(-1.1, 1.5, 14)
    zz = (xs[:, None] + 1j * ys[None, :]).ravel()
    clear = np.abs(zz - CENTER) > RADIUS + 0.15
    below = zz.imag < -0.15
    keep = zz[clear | below]
    return keep[:200]
