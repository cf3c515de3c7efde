"""Dense linear algebra helpers with deterministic conventions.

Everything here operates on plain numpy arrays. The two things worth
reading before using this module:

* `svd` fixes the phase of each right singular vector (largest-magnitude
  entry made real and positive, ties broken by lowest index), so repeated
  runs and equivalent inputs produce identical factors.
* `tensor_norm` measures a symmetric multilinear map A : C^n x ... x C^n
  -> C^m by the spectral norm of its (m * n^(k-1)) x n unfolding. Orders
  one and two are exact. For order three and up the estimate is the
  spectral norm of the same unfolding, taken by one SVD; it bounds the
  multilinear norm from above (the exact symmetric norm is NP-hard in
  general). The Frobenius norm of the full array is reported as the
  certified upper bound.

The scalar root finder `smallest_positive_root` lives in the numpy-free
`constants` module and is re-exported here.
"""

import numpy as np

from .constants import smallest_positive_root  # noqa: F401  re-exported
from .errors import AsymmetricTensorError, SingularMatrixError


class SvdResult:
    """Factorization A = U @ diag(s) @ V.conj().T with fixed phases."""

    __slots__ = ("U", "s", "V")

    def __init__(self, U, s, V):
        self.U = U
        self.s = s
        self.V = V

    def reconstruct(self):
        return (self.U * self.s) @ self.V.conj().T


def svd(A):
    """Full SVD with the deterministic phase convention described above."""
    A = np.asarray(A, dtype=complex)
    U, s, Vh = np.linalg.svd(A, full_matrices=True)
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


def matrix_spectral_norm(A):
    A = np.asarray(A, dtype=complex)
    if A.size == 0:
        return 0.0
    return float(np.linalg.svd(A, compute_uv=False)[0])


def solve_linear(A, b):
    """Solve A x = b, refusing matrices singular to working precision."""
    A = np.asarray(A, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if A.shape[0] != A.shape[1]:
        raise ValueError("solve_linear expects a square matrix")
    if A.size == 0:
        return np.zeros(b.shape[1:] if b.ndim > 1 else 0, dtype=complex)
    s = np.linalg.svd(A, compute_uv=False)
    eps = np.finfo(float).eps
    if s[-1] <= A.shape[0] * eps * s[0] or s[-1] == 0.0:
        raise SingularMatrixError(
            "matrix is singular to working precision (sigma_min=%.3e)" % s[-1],
            sigma_min=float(s[-1]),
        )
    return np.linalg.solve(A, b)


def solve_least_squares(A, b):
    """Minimum-norm least squares solution and the residual two-norm."""
    A = np.asarray(A, dtype=complex)
    b = np.asarray(b, dtype=complex)
    x, _, _, _ = np.linalg.lstsq(A, b, rcond=None)
    resid = float(np.linalg.norm(A @ x - b))
    return x, resid


class TensorNorm:
    """Norm report: a certified upper bound plus a (possibly equal) estimate."""

    __slots__ = ("certified_upper", "estimate", "mode")

    def __init__(self, certified_upper, estimate, mode):
        self.certified_upper = certified_upper
        self.estimate = estimate
        self.mode = mode

    def value(self, mode="estimate"):
        if mode == "certified":
            return self.certified_upper
        return self.estimate

    def __repr__(self):
        return "TensorNorm(certified_upper=%r, estimate=%r, mode=%r)" % (
            self.certified_upper,
            self.estimate,
            self.mode,
        )


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


def tensor_norm(T, mode="auto", check=True):
    """Norm of a symmetric multilinear map stored as an (m, n, ..., n) array.

    Parameters
    ----------
    T : ndarray
        Shape (m,) + (n,) * k for a map of order k. Axes 1..k must be
        symmetric; passing an asymmetric array is an error.
    mode : str
        "auto"/"estimate" takes the unfolding's spectral norm for order
        three and up, "certified" asks for upper bounds only. Orders one
        and two are exact in every mode.
    check : bool
        False skips the symmetry check (dearer than the SVDs) for arrays
        symmetric by construction, such as kernel tensors.

    Returns
    -------
    TensorNorm
    """
    arr = np.asarray(getattr(T, "array", T), dtype=complex)
    if arr.ndim < 2:
        raise ValueError("expected at least an (m, n) array")
    k = arr.ndim - 1
    if check:
        _check_symmetric(arr)
    n = arr.shape[-1]
    M = arr.reshape(-1, n)
    if k <= 2:
        val = matrix_spectral_norm(M)
        return TensorNorm(val, val, "exact-spectral")
    fro = float(np.linalg.norm(arr.ravel()))
    if mode == "certified":
        return TensorNorm(fro, fro, "frobenius")
    return TensorNorm(fro, min(matrix_spectral_norm(M), fro), "unfolding")
