"""Local dual bases for corank-one isolated zeros.

The multiplicity structure of a zero whose Jacobian has a one-dimensional
kernel is a single chain of differential functionals Lambda_0, ...,
Lambda_{mu-1}, Lambda_k = Delta_k + sum a_k d: a raw functional built from
the lower ones by the order-raising map `psi`, corrected by first-order
terms that solve a small linear system against the Jacobian. The chain
ends at the first order whose raw value falls outside the column space of
the Jacobian; that order is the multiplicity.

The chain is found one way, in the distinguished shape: the kernel is
the first coordinate, each correction solves against the invertible
block Jhat = J[:n-1, 1:], and the chain ends at the first raw value with
a non-negligible last entry. A point off that shape first moves to its
normalizing frame U^H f(W y); `local_view` makes that choice, by the
strict shape test alone, for the detection and for every local model of
the package. The chain found there (rows b_k, raw values v) is reported
in the input's coordinates as a_k = W b_k and U v. That is exact:
Lambda_k(f) is the t^k Taylor coefficient of f along x + a_1 t + ... +
a_k t^k in any coordinates, so the one recursion loop, `kernel_chain`,
reads each raw value from the kernel's `curve_taylor` and forms no
functional. The functionals, by `psi`, are the symbolic record
that a `DualBasis` builds on first use.
They and the product-rule route `chainrule_Lk`, which runs the same loop
on raw values of its own, live in `mzero.functionals`, which this module
imports only there, so a command that never prints a functional does not
compile it. `normalizing_frame` loads `mzero.frames` where it runs.
"""

import functools
import math

import numpy as np

from . import DEFAULT_TOLERANCES as DEFAULTS, MAX_ORDER
from .errors import CorankError, InputError, MultiplicityNotFoundError
from .numkit import LinearSolver, matrix_spectral_norm, scaled_norm, svd

NORMALIZED_RTOL = 1e-8


class DualBasis:
    """Chain of dual functionals at a corank-one zero.

    In the input's coordinates: a_coeffs row k-1 is the correction vector
    of step k (row 0 is the kernel direction), delta_values the raw values
    of orders 2 .. mu, and duality_residuals the largest entry of
    Lambda_k(f), k = 1 .. mu-1, by input_J, the Jacobian there, whose
    singular_values, corank_gap (sigma_n / sigma_{n-1}) and shape
    (normalized) are kept; `lambdas` (Lambda_0 .. Lambda_{mu-1}) and
    `deltas` (the raw functionals of orders 2 .. mu) are built from
    a_coeffs on first use. The `dual` report and refinement's detection
    read it; `gamma.LocalModel` runs the chain itself. A plain class: a
    dataclass costs every process that loads this module the exec of its
    methods.
    """

    # a corank-one chain, the only structure found here, has breadth one
    breadth_one = True

    def __init__(self, input_J, s, normalized, a_rows, delta_values):
        a_coeffs = np.array(a_rows)
        # Lambda_k(f) is the raw value of order k plus J a_k (J a_1 for k = 1)
        lam_vals = input_J @ a_coeffs.T
        lam_vals[:, 1:] += np.array(delta_values[:-1]).T.reshape(len(input_J), -1)
        self.a_coeffs = a_coeffs
        self.mu = len(a_coeffs) + 1
        self.corank_gap = float(s[-1] / s[-2]) if len(s) >= 2 and s[-2] > 0 else float("inf")
        self.delta_values = delta_values
        self.duality_residuals = np.max(np.abs(lam_vals), axis=0)
        self.input_J = input_J
        self.normalized = normalized
        self.singular_values = np.array(s, dtype=float)

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


def _e1(n):
    e1 = np.zeros(n, dtype=complex)
    e1[0] = 1.0
    return e1


def _order_cap(source):
    """The order every chain search stops at: min(deg f_1 ... deg f_n,
    MAX_ORDER), as an isolated zero has mu at most the Bezout number of
    the system; a frame takes its system's, since a unitary map of the
    equations and the variables moves no zero and no multiplicity."""
    degrees = (p.degree() for p in getattr(source, "system", source).polys)
    return min(math.prod(degrees), MAX_ORDER)


def check_order(source, mu):
    """Refuse (InputError) a mu that no corank-one chain at an isolated
    zero of source has: none, one below 2, or one above `_order_cap`."""
    if mu is None or mu < 2:
        raise InputError("a corank-one chain has order mu >= 2, got %r" % mu)
    cap = _order_cap(source)
    if mu > cap:
        raise InputError("an isolated zero of this system has mu <= %d, the order cap that "
                         "its degrees imply, got %d" % (cap, mu))


def kernel_chain(source, x, a1, Jhat, mu=None, delta_zero_tol=DEFAULTS["delta_zero_tol"],
                 raw=None):
    """The breadth-one recursion (Li & Zhi, J. Symb. Comput. 2012) from
    Lambda_1 = sum a1 d at x: (a_rows, values), the rows a_1 .. a_{k-1}
    and the raw values of orders 2 .. k for the last order k reached.

    `raw(a_rows, k)` gives the raw value of order k from the rows a_1 ..
    a_{k-1}; by default the t^k Taylor coefficient of source along x +
    a_1 t + ... + a_{k-1} t^(k-1). Each order below the last is corrected
    by a_k = (0, -Jhat^-1 vals[:n-1]), with Jhat the `numkit.LinearSolver`
    of the block J[:n-1, 1:] of the Jacobian, which tests that block for
    singularity once. Given mu, the chain runs to order mu, once
    `check_order` passes it (InputError otherwise). Without mu, it ends at
    the first raw value that leaves the column space of the Jacobian in
    the distinguished shape: its last entry is above delta_zero_tol
    relative to the value, with a floor of 1e-14 relative to Jhat, so that
    no scaling of the equations moves the end. No end by `_order_cap` is
    a MultiplicityNotFoundError.
    """
    if mu is not None:
        check_order(source, mu)
    last = _order_cap(source) if mu is None else mu
    floor = 1e-14 * float(np.max(np.abs(Jhat.A), initial=0.0))
    a_rows, values = [a1], []
    for k in range(2, last + 1):
        vals = source.curve_taylor(x, a_rows, k)[:, k] if raw is None else raw(a_rows, k)
        values.append(vals)
        if k == mu or mu is None and abs(vals[-1]) > delta_zero_tol * scaled_norm(vals) + floor:
            return a_rows, values
        a_rows.append(np.concatenate([[0], Jhat.solve(-vals[: len(a1) - 1])]))
    raise MultiplicityNotFoundError(
        "no terminating order found up to %d, the order cap that the system's degrees imply: "
        "the point is not an isolated zero, or the tolerances miss the chain's end" % last)


def compute_dual_basis(source, x, gap_tol=DEFAULTS["gap_tol"],
                       delta_zero_tol=DEFAULTS["delta_zero_tol"]):
    """Multiplicity structure of an isolated zero with corank-one Jacobian.

    source is a PolySystem or NormalizedFrame and x the base point in its
    coordinates. `local_view` picks the coordinates, with the corank test
    at gap_tol: the recursion along e1 finds the kernel's chain only where
    e1 is the kernel, so a point off the strict shape moves to its
    normalizing frame. `kernel_chain` runs there to the first raw value
    that leaves the column space, by delta_zero_tol. Raises CorankError
    without a clean one-dimensional kernel and MultiplicityNotFoundError
    past the order cap, `_order_cap(source)`.
    """
    view, y, _, Jhat, input_J, res = local_view(source, x, gap_tol=gap_tol)
    a_rows, values = kernel_chain(view, y, _e1(source.nvars), Jhat, delta_zero_tol=delta_zero_tol)
    if view is not source:
        # back to the input's coordinates, by this frame's own factors
        W = _kernel_first(res.V)
        a_rows, values = [W @ b for b in a_rows], [res.U @ v for v in values]
    return DualBasis(input_J, res.s, view is source, a_rows, values)


def local_view(source, x, gap_tol=None):
    """The coordinates every local computation at x runs in, by one rule:
    (view, y, J, Jhat, input_J, res).

    The Jacobian input_J of source at x is evaluated and factored once
    (res, its `numkit.svd`); with gap_tol it first passes the corank test
    (CorankError). A point that passes the strict shape test,
    `is_normalized` at NORMALIZED_RTOL, stays in source's coordinates
    (view is source, y is x); any other point moves to its normalizing
    frame, built from res (view the frame, y the point's coordinates
    there). J is the view's Jacobian at y, input_J mapped by the factors
    of res (U^H input_J W), and Jhat the `numkit.LinearSolver` of its block
    J[:n-1, 1:]. A caller that works only in the shape refuses a moved
    point, `view is not source`.
    """
    x = np.asarray(x, dtype=complex)
    view, y, J = source, x, source.jacobian(x)
    input_J, res = J, svd(J)
    if gap_tol is not None:
        _check_corank_one(res.s, gap_tol)
    if not is_normalized(J, NORMALIZED_RTOL, res.s):
        view, y = normalizing_frame(source, x, res=res)
        J = res.U.conj().T @ J @ _kernel_first(res.V)
    return view, y, J, LinearSolver(J[: source.nvars - 1, 1:]), input_J, res


def _kernel_first(V):
    """V with its last column, the kernel-most right singular vector, first."""
    return V[:, [-1] + list(range(V.shape[1] - 1))]


def normalizing_frame(source, x, res=None):
    """Rotated view whose Jacobian at x is the distinguished shape.

    Returns (frame, w): w = W^H x, with W the right factor of res, are the
    coordinates of x in the frame, also for a NormalizedFrame source,
    whose composed frame maps the rotated system's coordinates. The
    kernel-most right singular vector becomes the first frame variable;
    the left factor is kept in its original order, which places the
    near-degenerate row last. res, the `numkit.svd` of the Jacobian of
    source at x, is taken unless the caller has it already.
    """
    x = np.asarray(x, dtype=complex)
    if res is None:
        res = svd(source.jacobian(x))
    from .frames import unitary_pullback

    W = _kernel_first(res.V)
    return unitary_pullback(source, res.U, W), W.conj().T @ x
