"""Local dual bases for corank-one isolated zeros.

The multiplicity structure of a zero whose Jacobian has a one-dimensional
kernel is a single chain of differential functionals Lambda_0, ...,
Lambda_{mu-1}. Each step of the chain is built from the previous ones by
the order-raising map `psi`, corrected by first-order terms whose
coefficients solve a small linear system against the invertible Jacobian
block. The chain terminates at the first order whose raw functional falls
outside the column space of the Jacobian; that order is the multiplicity.

One recursion loop, `_chain`, builds every chain. Its callers differ
only in how the raw functional of each order is formed, how it is
corrected and when the chain stops. `compute_dual_basis` forms it with
the order-raising map on the input system and stops at the
multiplicity; `kernel_chain` runs the same recursion to a fixed order
along a given first-order direction. `chainrule_Lk` is an independent
second route: it forms the raw functionals on a rotated view of the
system through a derivative-level product rule, without expanding the
rotated polynomials. Agreement of the two routes is a useful end-to-end
check and is exercised in the test suite.
"""

from dataclasses import dataclass, field

import numpy as np

from . import polycore
from .errors import (
    BreadthError,
    CorankError,
    MultiplicityNotFoundError,
    NotNormalizedError,
)
from .numkit import solve_least_squares, solve_linear, svd

DEFAULT_MAX_ORDER = 10
DEFAULT_GAP_TOL = 1e-8
DEFAULT_DELTA_ZERO_TOL = 1e-8
NORMALIZED_RTOL = 1e-8
# shape test for points that only need to be near the distinguished shape
LOOSE_NORMALIZED_RTOL = 0.1
_BREADTH_RTOL = 1e-6


class DualFunctional:
    """Finite combination sum_alpha c_alpha d^alpha of scaled partials.

    d^alpha denotes (1/alpha!) times the |alpha|-fold partial derivative,
    evaluated at the base point supplied on application.
    """

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars, coeffs=None):
        self.nvars = nvars
        self.coeffs = {}
        if coeffs:
            for alpha, c in coeffs.items():
                c = complex(c)
                if c != 0:
                    self.coeffs[alpha] = c

    @classmethod
    def one(cls, nvars):
        return cls(nvars, {(0,) * nvars: 1.0})

    def sorted_items(self):
        return sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def __add__(self, other):
        out = dict(self.coeffs)
        for alpha, c in other.coeffs.items():
            s = out.get(alpha, 0j) + c
            if s == 0:
                out.pop(alpha, None)
            else:
                out[alpha] = s
        return DualFunctional(self.nvars, out)

    def __mul__(self, scalar):
        scalar = complex(scalar)
        return DualFunctional(
            self.nvars, {a: c * scalar for a, c in self.coeffs.items()}
        )

    __rmul__ = __mul__

    def psi(self, sigma):
        """Order-raising map: keep terms with no support left of sigma,
        then append one derivative along sigma."""
        out = {}
        for alpha, c in self.coeffs.items():
            if any(alpha[:sigma]):
                continue
            shifted = list(alpha)
            shifted[sigma] += 1
            out[tuple(shifted)] = out.get(tuple(shifted), 0j) + c
        return DualFunctional(self.nvars, out)

    def dop(self, sigma):
        """Derivative-composition map d^beta -> (beta_sigma + 1) d^(beta+e)."""
        out = {}
        for alpha, c in self.coeffs.items():
            shifted = list(alpha)
            shifted[sigma] += 1
            key = tuple(shifted)
            out[key] = out.get(key, 0j) + c * (alpha[sigma] + 1)
        return DualFunctional(self.nvars, out)

    def apply(self, target, x):
        return polycore.apply_functional(self.coeffs, target, x)

    def __repr__(self):
        parts = []
        for alpha, c in self.sorted_items():
            parts.append("%r*d%s" % (c, "".join(str(a) for a in alpha)))
        return "DualFunctional(" + (" + ".join(parts) if parts else "0") + ")"


@dataclass
class DualBasis:
    """Chain of dual functionals at a corank-one zero.

    lambdas holds Lambda_0 .. Lambda_{mu-1}; deltas holds the raw
    functionals of orders 2 .. mu before first-order correction, with
    delta_values their application to the system at the base point.
    a_coeffs row k-1 is the correction vector of step k (row 0 is the
    kernel direction). corank_gap is sigma_n / sigma_{n-1}.
    """

    lambdas: list
    deltas: list
    a_coeffs: np.ndarray
    mu: int
    breadth_one: bool
    corank_gap: float
    delta_values: list = field(default_factory=list)
    duality_residuals: np.ndarray = None
    normalized: bool = True
    singular_values: np.ndarray = None


def is_normalized(J, rel_tol=NORMALIZED_RTOL):
    """Whether a Jacobian has the distinguished shape: first column and
    the off-first entries of the last row both negligible."""
    J = np.asarray(J, dtype=complex)
    scale = float(np.linalg.svd(J, compute_uv=False)[0]) if J.size else 0.0
    if scale == 0.0:
        return True
    col = float(np.linalg.norm(J[:, 0]))
    row = float(np.linalg.norm(J[-1, 1:]))
    return col <= rel_tol * scale and row <= rel_tol * scale


def _check_corank_one(s, gap_tol):
    """Refuse singular values s of a Jacobian that show no clean
    one-dimensional kernel: sigma_n must fall to gap_tol * sigma_{n-1}
    and sigma_{n-1} must stay above gap_tol * sigma_1 (CorankError)."""
    if len(s) < 2 or not (s[-1] <= gap_tol * s[-2] and s[-2] > gap_tol * s[0]):
        raise CorankError(
            "Jacobian is not corank one at the point (singular values %s)"
            % np.array2string(s, precision=3)
        )


def _delta_from_chain(a_rows, lambdas, k, nvars):
    """Raw order-k functional from the chain built so far."""
    delta = DualFunctional(nvars)
    for sigma in range(nvars):
        acc = DualFunctional(nvars)
        for i in range(1, k):
            coeff = a_rows[i - 1][sigma]
            if coeff != 0:
                acc = acc + lambdas[k - i] * coeff
        delta = delta + acc.psi(sigma)
    return delta


def _first_order(vec):
    """The first-order functional sum_sigma vec[sigma] d_sigma."""
    n = len(vec)
    units = [tuple(int(j == sigma) for j in range(n)) for sigma in range(n)]
    return DualFunctional(n, dict(zip(units, vec)))


def _chain(source, x, a1, correct, stop, max_order, raw=_delta_from_chain):
    """The breadth-one recursion (Li & Zhi, J. Symb. Comput. 2012) from
    Lambda_1 = sum a1 d.

    Order k applies the raw functional `raw(a_rows, lambdas, k, n)` built
    from the chain so far to source at x. `stop(k, vals)` ends the chain
    there; otherwise `correct(k, vals)` gives the trailing coordinates of
    the first-order correction that turns the raw functional into
    Lambda_k. Returns (lambdas, a_rows, deltas, values), or None when no
    stop came by max_order.
    """
    n = source.nvars
    lambdas = [DualFunctional.one(n), _first_order(a1)]
    a_rows = [a1]
    deltas = []
    values = []
    for k in range(2, max_order + 1):
        delta = raw(a_rows, lambdas, k, n)
        vals = delta.apply(source, x)
        deltas.append(delta)
        values.append(vals)
        if stop(k, vals):
            return lambdas, a_rows, deltas, values
        a_k = np.zeros(n, dtype=complex)
        a_k[1:] = correct(k, vals)
        lambdas.append(delta + _first_order(a_k))
        a_rows.append(a_k)
    return None


def kernel_chain(source, x, a1, Jhat, order):
    """Raw chain values at x along the first-order direction a1.

    Runs the recursion of `compute_dual_basis` from Lambda_1 = sum a1 d
    with no membership test: every order below `order` is corrected by
    the trailing-coordinate solve against Jhat, the leading (n-1) x (n-1)
    block of the Jacobian. Returns the list whose entry k-2 is the raw
    order-k functional applied to source at x, for k = 2..order.
    """
    n = source.nvars
    _, _, _, values = _chain(
        source,
        x,
        a1,
        lambda k, vals: solve_linear(Jhat, -vals[: n - 1]),
        lambda k, vals: k == order,
        order,
    )
    return values


def compute_dual_basis(
    source,
    x,
    max_order=DEFAULT_MAX_ORDER,
    gap_tol=DEFAULT_GAP_TOL,
    delta_zero_tol=DEFAULT_DELTA_ZERO_TOL,
    J=None,
):
    """Multiplicity structure of an isolated zero with corank-one Jacobian.

    Parameters
    ----------
    source : PolySystem or NormalizedFrame
    x : array_like
        Base point, in the coordinates of `source`.
    max_order : int
        Recursion cap; exceeding it raises MultiplicityNotFoundError.
    gap_tol, delta_zero_tol : float
        Relative tolerances for the corank test and for deciding when a
        raw functional still lies in the Jacobian column space.
    J : ndarray, optional
        The Jacobian of source at x, when the caller has it already.

    Raises
    ------
    CorankError
        If the Jacobian does not show a clean one-dimensional kernel.
    BreadthError
        If a correction solve leaves a residual incompatible with a
        single-chain structure.
    """
    x = np.asarray(x, dtype=complex)
    n = source.nvars
    if J is None:
        J = source.jacobian(x)
    res = svd(J)
    s = res.s
    _check_corank_one(s, gap_tol)
    normalized = is_normalized(J)

    if normalized:
        a1 = np.zeros(n, dtype=complex)
        a1[0] = 1.0
    else:
        a1 = res.V[:, -1].copy()
    u_last = res.U[:, -1]
    Jhat = J[: n - 1, 1:]

    def outside_column_space(k, vals):
        resid = abs(vals[-1]) if normalized else abs(np.vdot(u_last, vals))
        return resid > delta_zero_tol * float(np.linalg.norm(vals)) + 1e-14

    def correction(k, vals):
        if normalized:
            return solve_linear(Jhat, -vals[: n - 1])
        ahat, solve_resid = solve_least_squares(J[:, 1:], -vals)
        if solve_resid > _BREADTH_RTOL * float(np.linalg.norm(vals)) + 1e-12:
            raise BreadthError(
                "correction solve residual %.3e is too large for a "
                "single-chain structure at order %d" % (solve_resid, k)
            )
        return ahat

    chain = _chain(source, x, a1, correction, outside_column_space, max_order)
    if chain is None:
        raise MultiplicityNotFoundError(
            "no terminating order found up to max_order=%d" % max_order
        )
    return _dual_basis(source, x, chain, s, normalized)


def _dual_basis(source, x, chain, s, normalized):
    """DualBasis of a finished chain, whose length is the multiplicity;
    s are the singular values of the Jacobian at x."""
    lambdas, a_rows, deltas, delta_values = chain
    mu = len(lambdas)
    duality = np.zeros(mu - 1)
    for j in range(1, mu):
        duality[j - 1] = float(np.max(np.abs(lambdas[j].apply(source, x))))

    return DualBasis(
        lambdas=lambdas,
        deltas=deltas,
        a_coeffs=np.array(a_rows),
        mu=mu,
        breadth_one=True,
        corank_gap=float(s[-1] / s[-2]) if len(s) >= 2 and s[-2] > 0 else float("inf"),
        delta_values=delta_values,
        duality_residuals=duality,
        normalized=normalized,
        singular_values=np.array(s, dtype=float),
    )


def _product_rule_delta(a_rows, lambdas, k, n):
    """Raw order-k functional by the derivative product rule,
    P_k = sum over j and sigma of (j/k) a_{j,sigma} D_sigma(L_{k-j})."""
    pk = DualFunctional(n)
    for j in range(1, k):
        L = lambdas[k - j]
        for sigma in range(n):
            coeff = a_rows[j - 1][sigma]
            if coeff != 0:
                pk = pk + L.dop(sigma) * (coeff * j / k)
    return pk


def chainrule_Lk(
    frame,
    w,
    kmax=None,
    max_order=DEFAULT_MAX_ORDER,
    gap_tol=DEFAULT_GAP_TOL,
    delta_zero_tol=DEFAULT_DELTA_ZERO_TOL,
):
    """Dual chain on a rotated view, via the derivative product rule.

    The raw order-k functionals are accumulated as P_k = sum over j and
    sigma of (j/k) a_{j,sigma} D_sigma(L_{k-j}), with L_k = P_k plus its
    first-order correction and L_1 the derivative along the first frame
    variable. Derivatives of the rotated system come from contracted
    tensors of the original system; nothing is expanded symbolically.

    With kmax=None the recursion terminates like `compute_dual_basis` and
    returns the multiplicity. With an explicit kmax it runs to exactly
    that order with no membership test.
    """
    w = np.asarray(w, dtype=complex)
    n = frame.nvars
    J = frame.jacobian(w)
    if not is_normalized(J):
        raise NotNormalizedError(
            "frame Jacobian at the point is not in the distinguished shape"
        )
    s = np.linalg.svd(J, compute_uv=False)
    _check_corank_one(s, gap_tol)
    Jhat = J[: n - 1, 1:]
    a1 = np.zeros(n, dtype=complex)
    a1[0] = 1.0

    def stop(k, vals):
        if kmax is not None:
            return k == kmax
        return abs(vals[-1]) > delta_zero_tol * float(np.linalg.norm(vals)) + 1e-14

    chain = _chain(
        frame,
        w,
        a1,
        lambda k, vals: solve_linear(Jhat, -vals[: n - 1]),
        stop,
        kmax if kmax is not None else max_order,
        _product_rule_delta,
    )
    if chain is None:
        raise MultiplicityNotFoundError(
            "no terminating order found up to max_order=%d" % max_order
        )
    return _dual_basis(frame, w, chain, s, True)


def normalizing_frame(source, x, J=None):
    """Rotated view whose Jacobian at x is the distinguished shape.

    Returns (frame, w, svd_result) where w are the coordinates of x in the
    frame. The kernel-most right singular vector becomes the first frame
    variable; the left factor is kept in its original order, which places
    the near-degenerate row last. J, the Jacobian of source at x, is
    evaluated unless the caller has it already.
    """
    x = np.asarray(x, dtype=complex)
    n = source.nvars
    if J is None:
        J = source.jacobian(x)
    res = svd(J)
    perm = [n - 1] + list(range(n - 1))
    W = res.V[:, perm]
    frame = polycore.unitary_pullback(source, res.U, W)
    return frame, frame.to_frame(x), res


def normalized_view(source, x, rel_tol=NORMALIZED_RTOL):
    """(view, w, J): (source, x) when the Jacobian at x passes
    `is_normalized` with rel_tol, else a normalizing frame and the
    coordinates of x in it; J is the Jacobian of the view at w.

    The frame is a unitary change of coordinates, so distances, residual
    norms, radii and the growth invariants computed in it hold in the
    original coordinates.
    """
    x = np.asarray(x, dtype=complex)
    J = source.jacobian(x)
    if is_normalized(J, rel_tol):
        return source, x, J
    frame, w, _ = normalizing_frame(source, x, J)
    return frame, w, frame.jacobian(w)
