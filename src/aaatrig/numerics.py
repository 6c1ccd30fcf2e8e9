"""Dense linear-algebra kernels: smallest-singular-direction solves (an
R-only Householder QR and the SVD of R) and generalized eigenproblems with
infinite-eigenvalue filtering."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

# QZ-style rejection: an eigenvalue counts as infinite when its denominator
# coefficient beta satisfies |beta| <= BETA_TOL * max|beta|.
BETA_TOL = 1e-12


@dataclass(frozen=True)
class GepResult:
    """Finite spectrum of a pencil A v = lambda B v."""

    finite_eigenvalues: np.ndarray
    discarded_count: int


def min_singular_direction(A) -> np.ndarray:
    """Right singular vector of the smallest singular value of A.

    Returns a unit vector w minimising ||A w||_2, its largest-magnitude
    entry real positive so that downstream output is deterministic.  One
    owned column-major copy of A (the caller's array is untouched) is
    factored in place, A = QR, by LAPACK's blocked zgeqrf with its optimal
    workspace; w comes from the SVD of the cols x cols R, and neither Q nor
    the left singular vectors are formed.  For rows >= floor(17*cols/9)
    zgesdd takes this route itself, so w is the thin SVD's vector bit for
    bit; nearer to square it differs at rounding.
    """
    A = np.array(np.atleast_2d(A), dtype=complex, order="F")
    if not np.isfinite(A).all():
        raise ValueError("matrix has non-finite entries")
    rows, cols = A.shape
    if cols < 1 or rows < cols:
        raise ValueError("need rows >= cols >= 1")
    lwork = int(scipy.linalg.lapack.zgeqrf_lwork(rows, cols)[0].real)
    qr, _, _, info = scipy.linalg.lapack.zgeqrf(A, lwork=lwork, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"zgeqrf failed (info {info})")
    _, _, vh = np.linalg.svd(np.triu(qr[:cols]))
    w = vh[-1].conj()
    j = int(np.argmax(np.abs(w)))
    w = w * (abs(w[j]) / w[j])
    return w / np.linalg.norm(w)


def generalized_eig(A, B) -> GepResult:
    """All finite eigenvalues of A v = lambda B v, QZ route.

    Eigenvalues whose beta coefficient is negligible (see BETA_TOL) are
    discarded as infinite.  The result is sorted by ascending real part,
    ties broken by imaginary part.
    """
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    alpha, beta = scipy.linalg.eig(A, B, right=False, homogeneous_eigvals=True)
    bmax = np.max(np.abs(beta))
    if bmax == 0.0:
        return GepResult(np.zeros(0, dtype=complex), len(alpha))
    keep = np.abs(beta) > BETA_TOL * bmax
    lam = alpha[keep] / beta[keep]
    finite = np.isfinite(lam.real) & np.isfinite(lam.imag)
    lam = lam[finite]
    order = np.lexsort((lam.imag, lam.real))
    return GepResult(lam[order], int(len(alpha) - len(lam)))


def generalized_eig_arrow(A, B=None) -> GepResult:
    """Finite eigenvalues of an arrowhead pencil.

    A must have the shape

        [ head  payload_1 ... payload_m ]
        [ 1     shift_1               ]
        [ ...            ...          ]
        [ 1                  shift_m  ]

    and B = diag(0, 1, ..., 1).  Raises "not arrowhead" on any structure
    violation.
    """
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    n = A.shape[0]
    if A.shape != (n, n) or n < 2:
        raise ValueError("not arrowhead")
    body = A[1:, 1:]
    if (
        np.any(A[1:, 0] != 1.0)
        or np.any(body[~np.eye(n - 1, dtype=bool)] != 0.0)
    ):
        raise ValueError("not arrowhead")
    if B is None:
        B = arrow_mass_matrix(n)
    else:
        B = np.atleast_2d(np.asarray(B, dtype=complex))
        if B.shape != (n, n) or np.any(B != arrow_mass_matrix(n)):
            raise ValueError("not arrowhead")
    return generalized_eig(A, B)


def arrow_mass_matrix(n: int) -> np.ndarray:
    """diag(0, 1, ..., 1) of size n."""
    B = np.eye(n, dtype=complex)
    B[0, 0] = 0.0
    return B


def arrowhead_matrix(head, payload, shifts) -> np.ndarray:
    """Assemble the arrowhead A-matrix from its head, payload row and shifts."""
    payload = np.asarray(payload, dtype=complex)
    shifts = np.asarray(shifts, dtype=complex)
    m = len(payload)
    if len(shifts) != m:
        raise ValueError("payload and shifts must share length")
    A = np.zeros((m + 1, m + 1), dtype=complex)
    A[0, 0] = head
    A[0, 1:] = payload
    A[1:, 0] = 1.0
    A[1:, 1:] = np.diag(shifts)
    return A
