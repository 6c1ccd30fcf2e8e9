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
from .trigbary import Parity, SampleSet, TrigModel, TWO_PI, _cst_values

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


def place_poles(corners, per_corner: int, sigma_scale: float,
                directions=None, length_scale: float = POLE_LENGTH_SCALE,
                containment=inside_obstacle) -> np.ndarray:
    """Tapered pole clusters along the corners' interior bisectors.

    For each corner the k-th pole sits at distance
    L * exp(-sigma_scale * (sqrt(n) - sqrt(k))), k = 1..n, so the cluster
    tightens root-exponentially toward the corner.  Raises if any pole
    lands outside the obstacle (i.e. inside the flow domain).
    """
    corners = np.atleast_1d(np.asarray(corners, dtype=complex))
    if per_corner < 1:
        raise ValueError("per_corner must be positive")
    if directions is None:
        directions = [CORNER_DIRECTIONS[_nearest_corner(c)] for c in corners]
    k = np.arange(1, per_corner + 1, dtype=float)
    dists = length_scale * np.exp(-sigma_scale * (np.sqrt(per_corner) - np.sqrt(k)))
    poles = np.concatenate([
        c + np.asarray(direction) * dists
        for c, direction in zip(corners, directions)
    ])
    if containment is not None and not np.all(containment(poles)):
        raise ValueError("pole placed inside the flow domain")
    return poles


def _nearest_corner(c: complex) -> int:
    return int(np.argmin([abs(c - corner) for corner in CORNERS]))


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


def _corner_ladder(per_corner: int, sigma_scale: float, oversample: int,
                   length: float, stagger: float = 0.0) -> np.ndarray:
    """Arclength offsets interleaving the pole ladder at ``oversample`` density."""
    tau = (np.arange(1, oversample * per_corner + 1, dtype=float) - stagger) / oversample
    return length * np.exp(-sigma_scale * (np.sqrt(per_corner) - np.sqrt(tau)))


def collocation_points(per_corner: int, sigma_scale: float,
                       per_pole: int = COLLOCATION_PER_POLE,
                       oversample: int = 5, stagger: float = 0.0) -> np.ndarray:
    """Boundary collocation: corner ladders plus uniform mid-panel fill.

    Each corner emits a tapered ladder along both adjacent boundary pieces,
    matching the pole clustering depth at ``oversample`` points per pole;
    the remainder of the 30-per-pole budget covers the boundary uniformly.
    """
    ladder = _corner_ladder(per_corner, sigma_scale, oversample, POLE_LENGTH_SCALE, stagger)
    theta = ladder / RADIUS
    pieces = [
        CENTER + RADIUS * np.exp(1j * theta),             # arc, from right corner
        CENTER + RADIUS * np.exp(1j * (np.pi - theta)),   # arc, from left corner
        CENTER - RADIUS + ladder + 0j,                    # base, from left corner
        CENTER + RADIUS - ladder + 0j,                    # base, from right corner
    ]
    target = per_pole * 2 * per_corner
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


def _newman_block(z, poles) -> np.ndarray:
    u = (np.asarray(z, dtype=complex)[:, None] - poles[None, :]) / 2.0
    return _cst_values(Parity.EVEN, u)


def evaluate_lightning(model: LightningModel, z) -> np.ndarray:
    """Evaluate the lightning expansion at arbitrary points."""
    z = np.asarray(z, dtype=complex)
    flat = np.atleast_1d(z).ravel()
    vals = _newman_block(flat, model.newman_poles) @ model.newman_coeffs
    W = _arnoldi_eval(_runge_coordinate(flat, model.runge_center), model.arnoldi_hessenberg)
    vals = vals + W @ model.runge_coeffs
    return vals.reshape(z.shape)


def solve_dirichlet(boundary, poles, n_runge: int,
                    runge_center: complex = RUNGE_CENTER) -> LightningModel:
    """Least-squares solve of Im[f(z)] = target on the boundary.

    ``boundary`` is a sequence of (point, target) pairs with real targets.
    Columns are the cotangent pole terms and the Arnoldi-orthogonalized
    tangent powers; the real part of the constant coefficient is gauge and
    is pinned to zero.  Column norms are equilibrated before the solve.
    """
    pts = np.asarray([p for p, _ in boundary], dtype=complex)
    rhs = np.asarray([v for _, v in boundary], dtype=float)
    poles = np.asarray(poles, dtype=complex)
    n1 = len(poles)
    if len(pts) < 2 * (n1 + n_runge + 1):
        raise ValueError("not enough collocation points")

    newman = _newman_block(pts, poles)
    t = _runge_coordinate(pts, runge_center)
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
    sol = sol / norms

    full = np.zeros(2 * (n1 + n_runge + 1))
    full[keep] = sol
    coefs = full[: n1 + n_runge + 1] + 1j * full[n1 + n_runge + 1 :]
    model = LightningModel(poles, coefs[:n1], complex(runge_center), coefs[n1:], H)
    resid = float(np.max(np.abs(evaluate_lightning(model, pts).imag - rhs)))
    return replace(model, boundary_residual=resid)


def flow_targets(pts) -> np.ndarray:
    """Stream-function data for the flow demo: Im[f + i z] = 0 on the boundary."""
    return -np.asarray(pts, dtype=complex).real


def solve_flow_demo(per_corner: int = 61, sigma_scale: float = 4.0,
                    n_runge: int = 24) -> LightningModel:
    """Solve the periodic half-disk flow problem."""
    poles = place_poles(CORNERS, per_corner, sigma_scale)
    pts = collocation_points(per_corner, sigma_scale)
    model = solve_dirichlet(list(zip(pts, flow_targets(pts))), poles, n_runge)
    # Residual reported on an independent (staggered + denser) boundary set.
    check = collocation_points(per_corner, sigma_scale, oversample=7, stagger=0.41)
    resid = float(np.max(np.abs(evaluate_lightning(model, check).imag - flow_targets(check))))
    return replace(model, boundary_residual=resid)


def compress(model: LightningModel, n_samples: int = 1000,
             rel_tol: float | None = None) -> TrigModel:
    """Compress the lightning solution into a trigonometric rational.

    The expansion is evaluated at boundary samples and refitted with the
    odd-parity greedy solver; the default tolerance tracks the achieved
    boundary residual so the compression does not chase noise.
    """
    pts = boundary_points(n_samples)
    vals = evaluate_lightning(model, pts)
    samples = SampleSet.from_data(pts, vals)
    scale = float(np.max(np.abs(vals)))
    if rel_tol is None:
        floor = 1e-10
        rel_tol = max(2.0 * model.boundary_residual / max(scale, 1e-300), floor)
    config = solver.FitConfig(parity=Parity.ODD, rel_tol=rel_tol, max_order=60)
    return solver.fit(samples, config)


def interior_grid(n_points: int = 200) -> np.ndarray:
    """Deterministic points in the flow domain, clear of the obstacle."""
    xs = np.linspace(0.12, TWO_PI - 0.12, 25)
    ys = np.linspace(-1.1, 1.5, 14)
    zz = (xs[:, None] + 1j * ys[None, :]).ravel()
    clear = np.abs(zz - CENTER) > RADIUS + 0.15
    below = zz.imag < -0.15
    keep = zz[clear | below]
    return keep[:n_points]
