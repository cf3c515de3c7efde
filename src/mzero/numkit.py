"""Dense linear algebra helpers with deterministic conventions.

Everything here operates on plain numpy arrays. The things worth
reading before using this module:

* `svd` fixes the phase of each right singular vector (largest-magnitude
  entry made real and positive, ties broken by lowest index), so repeated
  runs and equivalent inputs produce identical factors.
* `LinearSolver` holds one square matrix and solves against it. It takes
  the matrix's singular values once, on its first solve, and refuses every
  solve when the matrix is singular to working precision; `solve_linear`
  is its one-shot form. So a matrix solved against many times, such as
  the invertible block Jhat of a normalized Jacobian, is tested once.
* `unfolding_norm` measures a symmetric multilinear map A : C^n x ... x
  C^n -> C^m by the spectral norm of its (m * n^(k-1)) x n unfolding,
  dense or given compactly (`polycore.symmetric_layout`). Orders one and
  two are exact. For order three and up the estimate is the spectral norm
  of the same unfolding, taken by one SVD; it bounds the multilinear norm
  from above (the exact symmetric norm is NP-hard in general). The
  certified mode takes the Frobenius norm, an upper bound.

Every LAPACK call of the package goes through this module. A
factorization or solve that LAPACK cannot finish, such as an SVD of a
matrix holding a non-finite entry, raises MathDomainError.
"""

import functools

import numpy as np

from .errors import MathDomainError, SingularMatrixError
from .record import Record


def _lapack(routine, *args, **kwargs):
    """routine(*args, **kwargs), an np.linalg routine, with its
    LinAlgError raised as MathDomainError."""
    try:
        return routine(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise MathDomainError("%s failed: %s" % (routine.__name__, exc)) from None


class SvdResult(Record):
    """Factorization A = U @ diag(s) @ V.conj().T with fixed phases."""

    _fields = ("U", "s", "V")


def svd(A):
    """Full SVD with the deterministic phase convention described above."""
    A = np.asarray(A, dtype=complex)
    U, s, Vh = _lapack(np.linalg.svd, A, full_matrices=True)
    V = Vh.conj().T
    for j in range(V.shape[1]):
        col = V[:, j]
        idx = int(np.argmax(np.abs(col)))
        pivot = col[idx]
        mag = abs(pivot)
        if mag == 0.0:
            continue
        phase = pivot / mag
        V[:, j] = col * np.conj(phase)
        if j < U.shape[1]:
            U[:, j] = U[:, j] * np.conj(phase)
    return SvdResult(U, s, V)


def singular_values(A):
    """The singular values of A, largest first."""
    return _lapack(np.linalg.svd, A, compute_uv=False)


def matrix_spectral_norm(A):
    A = np.asarray(A, dtype=complex)
    if A.size == 0:
        return 0.0
    return float(singular_values(A)[0])


def scaled_norm(v):
    """The two-norm of a vector, taken relative to its largest entry, so
    that it stays finite wherever that entry does (squaring the entries
    overflows from about 1.3e154)."""
    big = float(np.max(np.abs(v)))
    return big * float(np.linalg.norm(v / big)) if 0.0 < big < np.inf else big


class LinearSolver:
    """Solves A x = b for one square matrix A (ValueError otherwise),
    refusing every solve when A is singular to working precision,
    s_min <= n eps s_max (SingularMatrixError). `s`, the singular values of
    A, largest first, are taken once, on the first solve or read."""

    def __init__(self, A):
        self.A = np.asarray(A, dtype=complex)
        if self.A.shape[0] != self.A.shape[1]:
            raise ValueError("solve_linear expects a square matrix")

    @functools.cached_property
    def s(self):
        return singular_values(self.A)

    def solve(self, b):
        b = np.asarray(b, dtype=complex)
        if self.A.size == 0:
            return np.zeros(b.shape[1:] if b.ndim > 1 else 0, dtype=complex)
        s = self.s
        if s[-1] <= len(s) * np.finfo(float).eps * s[0] or s[-1] == 0.0:
            raise SingularMatrixError(
                "matrix is singular to working precision (sigma_min=%.3e)" % s[-1]
            )
        return _lapack(np.linalg.solve, self.A, b)


def solve_linear(A, b):
    """Solve A x = b once, as `LinearSolver(A).solve(b)`."""
    return LinearSolver(A).solve(b)


def solve_least_squares(A, b):
    """Minimum-norm least squares solution and the residual two-norm."""
    A = np.asarray(A, dtype=complex)
    b = np.asarray(b, dtype=complex)
    x, _, _, _ = _lapack(np.linalg.lstsq, A, b, rcond=None)
    resid = float(np.linalg.norm(A @ x - b))
    return x, resid


def unfolding_norm(M, k, mode="estimate"):
    """Norm of an order-k symmetric map from an unfolding M, dense or compact
    (see the module notes); "certified" takes the Frobenius norm from order
    three on."""
    if k <= 2:
        return matrix_spectral_norm(M)
    fro = float(np.linalg.norm(M))
    return fro if mode == "certified" else min(matrix_spectral_norm(M), fro)
