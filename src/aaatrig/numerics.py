"""Dense linear-algebra kernels: smallest-singular-direction solves (an
R-only Householder QR and the SVD of R), optionally subject to linear
equality constraints held by the null-space method, and generalized
eigenproblems, the arrowhead pencil built from its parts among them."""

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


def min_singular_direction(A, overwrite_a=False) -> np.ndarray:
    """Right singular vector of the smallest singular value of A.

    Returns a unit vector w minimising ||A w||_2, its largest-magnitude
    entry real positive so that downstream output is deterministic.  A is
    factored A = QR by LAPACK's blocked zgeqrf with its optimal workspace;
    w comes from the SVD of the cols x cols R, and neither Q nor the left
    singular vectors are formed.  With ``overwrite_a`` (as in scipy) an
    F-contiguous complex128 A is factored in place, its contents lost; any
    other A, and every A by default, is copied to column-major order.  For
    rows >= floor(17*cols/9) zgesdd takes this route itself, so w is the
    thin SVD's vector bit for bit; nearer to square it differs at rounding.
    """
    A = (np.asarray if overwrite_a else np.array)(np.atleast_2d(A), dtype=complex, order="F")
    if not np.isfinite(A.T.view(float)).all():
        raise ValueError("matrix has non-finite entries")
    rows, cols = A.shape
    if cols < 1 or rows < cols:
        raise ValueError("need rows >= cols >= 1")
    lwork = int(scipy.linalg.lapack.zgeqrf_lwork(rows, cols)[0].real)
    qr, _, _, info = scipy.linalg.lapack.zgeqrf(A, lwork=lwork, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"zgeqrf failed (info {info})")
    _, _, vh = np.linalg.svd(np.triu(qr[:cols]))
    return _unit_phase(vh[-1].conj())


def constrained_min_singular_direction(A, C, overwrite_a=False) -> np.ndarray:
    """Unit vector w minimising ||A w||_2 subject to C w = 0.

    The null-space method (Golub & Van Loan, Matrix Computations, 4th ed.,
    section 6.2): a column-pivoted Householder QR of C^H = Q R keeps the r
    reflectors whose |R_ii| exceeds eps*||C||_F, so a zero row or one that
    repeats another constrains nothing.  The last m - r columns of Q span
    null(C).  The reflectors are applied to A from the right, O(rows*m*r),
    and w = Q [0; v] with v = min_singular_direction((A Q)[:, r:]); Q itself
    is never formed.  When r >= m only w = 0 satisfies C w = 0, so the
    constraints are dropped and w is the unconstrained solve's, as it is
    when C has no rows; ``overwrite_a`` is then passed on.  The phase rule
    is min_singular_direction's.
    """
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    C = np.asarray(C, dtype=complex).reshape(-1, A.shape[1])
    if not np.isfinite(C).all():
        raise ValueError("constraint has non-finite entries")
    if len(C) == 0:
        return min_singular_direction(A, overwrite_a)
    qr, _, tau, _, info = scipy.linalg.lapack.zgeqp3(C.conj().T)
    if info != 0:
        raise np.linalg.LinAlgError(f"zgeqp3 failed (info {info})")
    diag = np.abs(np.diag(qr))
    r = int(np.count_nonzero(diag > np.finfo(float).eps * np.linalg.norm(C)))
    if r == 0 or r >= A.shape[1]:
        return min_singular_direction(A, overwrite_a)
    reflectors, tau = qr[:, :r], tau[:r]
    AQ = _apply_reflectors(b"R", reflectors, tau, A)
    w = np.zeros((A.shape[1], 1), dtype=complex)
    w[r:, 0] = min_singular_direction(AQ[:, r:], overwrite_a=True)
    return _unit_phase(_apply_reflectors(b"L", reflectors, tau, w)[:, 0])


def _apply_reflectors(side: bytes, reflectors, tau, X) -> np.ndarray:
    """X Q (side b"R") or Q X (side b"L") for the Q of zgeqp3's reflectors."""
    lwork = max(1, X.shape[0] if side == b"R" else X.shape[1])
    out, _, info = scipy.linalg.lapack.zunmqr(side, b"N", reflectors, tau, X, lwork)
    if info != 0:
        raise np.linalg.LinAlgError(f"zunmqr failed (info {info})")
    return out


def _unit_phase(w) -> np.ndarray:
    """w with unit norm and its largest-magnitude entry real positive."""
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
    keep = np.abs(beta) > BETA_TOL * np.max(np.abs(beta))
    lam = alpha[keep] / beta[keep]
    finite = np.isfinite(lam.real) & np.isfinite(lam.imag)
    lam = lam[finite]
    order = np.lexsort((lam.imag, lam.real))
    return GepResult(lam[order], int(len(alpha) - len(lam)))


def generalized_eig_arrow(head, payload, shifts) -> GepResult:
    """Finite eigenvalues of the arrowhead pencil A v = lambda B v built from
    its parts, the head, the payload row and the shifts:

        A = [ head  payload_1 ... payload_m ]    B = diag(0, 1, ..., 1)
            [ 1     shift_1               ]
            [ ...            ...          ]
            [ 1                  shift_m  ]

    For m = 0 the 1x1 pencil (head, 0) has no finite eigenvalue.
    """
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
    B = np.eye(m + 1, dtype=complex)
    B[0, 0] = 0.0
    return generalized_eig(A, B)
