"""Dense linear algebra helpers with deterministic conventions.

Everything here operates on plain numpy arrays. The two things worth
reading before using this module:

* `svd` fixes the phase of each right singular vector (largest-magnitude
  entry made real and positive, ties broken by lowest index), so repeated
  runs and equivalent inputs produce identical factors.
* `unfolding_norm` measures a symmetric multilinear map A : C^n x ... x
  C^n -> C^m by the spectral norm of its (m * n^(k-1)) x n unfolding, given
  compactly (`polycore.symmetric_layout`). Orders one and two are exact.
  For order three and up the estimate is the spectral norm of the same
  unfolding, taken by one SVD; it bounds the multilinear norm from above
  (the exact symmetric norm is NP-hard in general). The Frobenius norm is
  reported as the certified upper bound.

Every LAPACK call of the package goes through this module. A
factorization or solve that LAPACK cannot finish, such as an SVD of a
matrix holding a non-finite entry, raises MathDomainError.
"""

import numpy as np

from .errors import AsymmetricTensorError, MathDomainError, SingularMatrixError
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


def solve_linear(A, b):
    """Solve A x = b, refusing matrices singular to working precision."""
    A = np.asarray(A, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if A.shape[0] != A.shape[1]:
        raise ValueError("solve_linear expects a square matrix")
    if A.size == 0:
        return np.zeros(b.shape[1:] if b.ndim > 1 else 0, dtype=complex)
    s = singular_values(A)
    eps = np.finfo(float).eps
    if s[-1] <= A.shape[0] * eps * s[0] or s[-1] == 0.0:
        raise SingularMatrixError(
            "matrix is singular to working precision (sigma_min=%.3e)" % s[-1]
        )
    return _lapack(np.linalg.solve, A, b)


def solve_least_squares(A, b):
    """Minimum-norm least squares solution and the residual two-norm."""
    A = np.asarray(A, dtype=complex)
    b = np.asarray(b, dtype=complex)
    x, _, _, _ = _lapack(np.linalg.lstsq, A, b, rcond=None)
    resid = float(np.linalg.norm(A @ x - b))
    return x, resid


class TensorNorm(Record):
    """Norm report: a certified upper bound plus a (possibly equal) estimate."""

    _fields = ("certified_upper", "estimate", "mode")

    def value(self, mode="estimate"):
        if mode == "certified":
            return self.certified_upper
        return self.estimate


def _check_symmetric(T):
    # Invariance under the adjacent transpositions of the input axes is
    # enough, they generate the full symmetric group.
    k = T.ndim - 1
    if k < 2:
        return
    scale = float(np.max(np.abs(T))) if T.size else 0.0
    tol = 1e-8 * scale + 1e-12
    for ax in range(1, k):
        if not np.allclose(T, np.swapaxes(T, ax, ax + 1), rtol=1e-8, atol=tol):
            raise AsymmetricTensorError(
                "tensor is not symmetric in its input axes (axes %d,%d)" % (ax, ax + 1)
            )


def unfolding_norm(M, k, mode="estimate"):
    """Norm of an order-k symmetric map from an unfolding M, dense or compact
    (see the module notes); "certified" takes the Frobenius norm from order
    three on."""
    if k <= 2:
        val = matrix_spectral_norm(M)
        return TensorNorm(val, val, "exact-spectral")
    fro = float(np.linalg.norm(M))
    if mode == "certified":
        return TensorNorm(fro, fro, "frobenius")
    return TensorNorm(fro, min(matrix_spectral_norm(M), fro), "unfolding")


def tensor_norm(T, mode="estimate"):
    """`unfolding_norm` of a symmetric map stored as an (m, n, ..., n) array,
    (m,) + (n,) * k for order k, from its entries at the sorted index tuples.
    Axes 1..k must be symmetric; an asymmetric array is an error, and so is
    one above `polycore._MAX_TENSOR` entries a row (MathDomainError)."""
    from .polycore import _dense_index, symmetric_layout

    arr = np.asarray(T, dtype=complex)
    if arr.ndim < 2:
        raise ValueError("expected at least an (m, n) array")
    _check_symmetric(arr)
    n, k = arr.shape[-1], arr.ndim - 1
    _, rows, weights = symmetric_layout(n, k)
    # the first index tuple of each multi-index, in C order, is its sorted one
    P = arr.reshape(len(arr), -1)[:, np.unique(_dense_index(n, k), return_index=True)[1]]
    return unfolding_norm((P[:, rows] * weights[:, None]).reshape(-1, n), k, mode)
