"""Local dual bases for corank-one isolated zeros.

The multiplicity structure of a zero whose Jacobian has a one-dimensional
kernel is a single chain of differential functionals Lambda_0, ...,
Lambda_{mu-1}, Lambda_k = Delta_k + sum a_k d: a raw functional built from
the lower ones by the order-raising map `psi`, corrected by first-order
terms that solve a small linear system against the Jacobian. The chain
ends at the first order whose raw value falls outside the column space of
the Jacobian; that order is the multiplicity.

Lambda_k(f) is the t^k Taylor coefficient of f along the curve x + a_1 t
+ ... + a_k t^k, so the one recursion loop, `_chain`, reads each raw value
from the kernel's `curve_taylor` and forms no functional. The functionals,
by `psi`, are the symbolic record that a `DualBasis` builds on first use.
They and the product-rule route `chainrule_Lk`, which runs the same loop
on raw values of its own, live in `mzero.functionals`, which this module
imports only there, so a command that never prints a functional does not
compile it. `normalizing_frame` loads `mzero.frames` where it runs.
"""

import functools

import numpy as np

from . import DEFAULT_TOLERANCES as DEFAULTS
from .errors import BreadthError, CorankError, InputError, MultiplicityNotFoundError
from .numkit import LinearSolver, matrix_spectral_norm, scaled_norm, solve_least_squares, svd

NORMALIZED_RTOL = 1e-8
# shape test for points that only need to be near the distinguished shape
LOOSE_NORMALIZED_RTOL = 0.1
_BREADTH_RTOL = 1e-6


class DualBasis:
    """Chain of dual functionals at a corank-one zero.

    a_coeffs row k-1 is the correction vector of step k (row 0 is the
    kernel direction). delta_values holds the raw values of orders 2 .. mu
    at the base point and duality_residuals the largest entry of
    Lambda_k(f), k = 1 .. mu-1. corank_gap is sigma_n / sigma_{n-1}, and
    singular_values are those of the Jacobian. Jhat is the
    `numkit.LinearSolver` of its invertible block, J[:n-1, 1:], which
    `gamma.LocalModel` takes over. `lambdas` (Lambda_0 ..
    Lambda_{mu-1}) and `deltas` (the raw functionals of orders 2 .. mu)
    are built from a_coeffs on first use. A plain class: a dataclass costs
    every process that loads this module the exec of its methods.
    """

    def __init__(self, a_coeffs, delta_values, duality_residuals, singular_values, normalized):
        s = singular_values
        self.a_coeffs = a_coeffs
        self.mu = len(a_coeffs) + 1
        self.breadth_one = True
        self.corank_gap = float(s[-1] / s[-2]) if len(s) >= 2 and s[-2] > 0 else float("inf")
        self.delta_values = delta_values
        self.duality_residuals = duality_residuals
        self.normalized = normalized
        self.singular_values = singular_values

    @functools.cached_property
    def functionals(self):
        """(lambdas, deltas), by the order-raising map from a_coeffs."""
        from .functionals import _chain_functionals

        return _chain_functionals(self.a_coeffs)

    @property
    def lambdas(self):
        return self.functionals[0]

    @property
    def deltas(self):
        return self.functionals[1]


def is_normalized(J, rel_tol=NORMALIZED_RTOL, s=None):
    """Whether a Jacobian has the distinguished shape: first column and
    the off-first entries of the last row both negligible against its
    largest singular value, taken from s, its singular values, if given."""
    J = np.asarray(J, dtype=complex)
    scale = matrix_spectral_norm(J) if s is None else float(s[0])
    if scale == 0.0:
        return True
    # relative to the scale, so entries near the overflow threshold do not overflow
    col = float(np.linalg.norm(J[:, 0] / scale))
    row = float(np.linalg.norm(J[-1, 1:] / scale))
    return col <= rel_tol and row <= rel_tol


def _check_corank_one(s, gap_tol):
    """Refuse singular values s of a Jacobian that show no clean
    one-dimensional kernel: sigma_n must fall to gap_tol * sigma_{n-1}
    and sigma_{n-1} must stay above gap_tol * sigma_1 (CorankError)."""
    if len(s) < 2 or not (s[-1] <= gap_tol * s[-2] and s[-2] > gap_tol * s[0]):
        raise CorankError(
            "Jacobian is not corank one at the point (singular values %s)"
            % np.array2string(s, precision=3)
        )


def _chain(source, x, a1, correct, stop, max_order, raw=None):
    """The breadth-one recursion (Li & Zhi, J. Symb. Comput. 2012) from
    Lambda_1 = sum a1 d.

    `raw(a_rows, k)` gives the raw value of order k from the rows a_1 ..
    a_{k-1}; by default the t^k Taylor coefficient of source along x +
    a_1 t + ... + a_{k-1} t^(k-1). `stop(k, vals)` ends the chain there;
    otherwise `correct(k, vals)` gives the trailing coordinates of a_k.
    Returns (a_rows, values); raises MultiplicityNotFoundError when no
    stop came by max_order.
    """
    a_rows, values = [a1], []
    for k in range(2, max_order + 1):
        vals = source.curve_taylor(x, a_rows, k)[:, k] if raw is None else raw(a_rows, k)
        values.append(vals)
        if stop(k, vals):
            return a_rows, values
        a_rows.append(np.concatenate([[0], correct(k, vals)]))
    raise MultiplicityNotFoundError("no terminating order found up to max_order=%d" % max_order)


def kernel_chain(source, x, a1, Jhat, order):
    """Raw chain values at x along the first-order direction a1.

    Runs the recursion of `compute_dual_basis` from Lambda_1 = sum a1 d
    with no membership test: every order below `order` is corrected by
    the trailing-coordinate solve against Jhat, the caller's
    `numkit.LinearSolver` of the block J[:n-1, 1:] of the Jacobian, which
    tests that block for singularity once. Returns the list whose entry
    k-2 is the raw order-k functional applied to source at x, for k =
    2..order. An order below 2 is an InputError: a corank-one chain has
    mu >= 2.
    """
    if order < 2:
        raise InputError("a corank-one chain has order mu >= 2, got %r" % order)
    n = source.nvars
    return _chain(source, x, a1, lambda k, vals: Jhat.solve(-vals[: n - 1]),
                  lambda k, vals: k == order, order)[1]


def compute_dual_basis(source, x, max_order=DEFAULTS["max_order"], gap_tol=DEFAULTS["gap_tol"],
                       delta_zero_tol=DEFAULTS["delta_zero_tol"], J=None, res=None):
    """Multiplicity structure of an isolated zero with corank-one Jacobian.

    source is a PolySystem or NormalizedFrame and x the base point in its
    coordinates; J, the Jacobian there, is evaluated unless given, and
    res, its factorization by `numkit.svd`, is taken unless given. gap_tol
    and delta_zero_tol are the relative tolerances of the corank test and
    of deciding when a raw value still lies in the Jacobian column space.
    Raises CorankError without a clean one-dimensional kernel,
    BreadthError when a correction solve leaves a residual incompatible
    with a single chain, and MultiplicityNotFoundError past max_order.
    """
    x = np.asarray(x, dtype=complex)
    n = source.nvars
    if J is None:
        J = source.jacobian(x)
    if res is None:
        res = svd(J)
    s = res.s
    _check_corank_one(s, gap_tol)
    normalized = is_normalized(J, s=s)

    if normalized:
        a1 = np.zeros(n, dtype=complex)
        a1[0] = 1.0
    else:
        a1 = res.V[:, -1].copy()
    u_last = res.U[:, -1]
    Jhat = LinearSolver(J[: n - 1, 1:])

    def outside_column_space(k, vals):
        resid = abs(vals[-1]) if normalized else abs(np.vdot(u_last, vals))
        return resid > delta_zero_tol * scaled_norm(vals) + 1e-14

    def correction(k, vals):
        if normalized:
            return Jhat.solve(-vals[: n - 1])
        ahat, solve_resid = solve_least_squares(J[:, 1:], -vals)
        if solve_resid > _BREADTH_RTOL * scaled_norm(vals) + 1e-12:
            raise BreadthError(
                "correction solve residual %.3e is too large for a "
                "single-chain structure at order %d" % (solve_resid, k)
            )
        return ahat

    return _dual_basis(J, Jhat, *_chain(source, x, a1, correction, outside_column_space,
                                        max_order), s, normalized)


def _dual_basis(J, Jhat, a_rows, delta_values, s, normalized):
    """DualBasis of a finished chain, whose length is the multiplicity; J
    and s are the Jacobian at the base point and its singular values, and
    Jhat the solver of its invertible block. Lambda_k(f) is the raw value
    of order k plus J a_k (J a_1 for k = 1)."""
    a_coeffs = np.array(a_rows)
    lam_vals = J @ a_coeffs.T
    lam_vals[:, 1:] += np.array(delta_values[:-1]).T.reshape(len(J), -1)
    basis = DualBasis(a_coeffs, delta_values, np.max(np.abs(lam_vals), axis=0),
                      np.array(s, dtype=float), normalized)
    basis.Jhat = Jhat
    return basis


def normalizing_frame(source, x, J=None, res=None):
    """Rotated view whose Jacobian at x is the distinguished shape.

    Returns (frame, w) where w are the coordinates of x in the frame. The
    kernel-most right singular vector becomes the first frame variable;
    the left factor is kept in its original order, which places the
    near-degenerate row last. J, the Jacobian of source at x, and res, its
    `numkit.svd`, are computed unless the caller has them already.
    """
    x = np.asarray(x, dtype=complex)
    n = source.nvars
    if J is None:
        J = source.jacobian(x)
    if res is None:
        res = svd(J)
    perm = [n - 1] + list(range(n - 1))
    from .frames import unitary_pullback

    frame = unitary_pullback(source, res.U, res.V[:, perm])
    return frame, frame.to_frame(x)
