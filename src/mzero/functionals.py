"""Dual functionals: the symbolic record of a chain, and a second route.

`DualBasis.lambdas` and `deltas` are built here from the correction rows
by the order-raising map `psi`; `DualFunctional.apply` evaluates one on
a system or frame through its batched partials. `chainrule_Lk` runs the
chain loop, `dualspace.kernel_chain`, on a rotated view, but reads each
raw value from a functional built by a derivative-level product rule and
applied through contracted derivative tensors; the tests check that it agrees
with the curve route, which forms no functional. It takes its
coordinates from `dualspace.local_view` and refuses a point that rule
moves. So only the `dual` command's printed chain and the tests load
this module.
"""

import math

import numpy as np

from . import DEFAULT_TOLERANCES as DEFAULTS
from .dualspace import DualBasis, _e1, kernel_chain, local_view
from .errors import NotNormalizedError


class DualFunctional:
    """Finite combination sum_alpha c_alpha d^alpha of scaled partials.

    d^alpha denotes (1/alpha!) times the |alpha|-fold partial derivative,
    evaluated at the base point supplied on application.
    """

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars, coeffs=None):
        self.nvars = nvars
        self.coeffs = {alpha: complex(c) for alpha, c in (coeffs or {}).items() if c != 0}

    def sorted_items(self):
        return sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def __add__(self, other):
        out = dict(self.coeffs)
        for alpha, c in other.coeffs.items():
            out[alpha] = out.get(alpha, 0j) + c
        return DualFunctional(self.nvars, out)

    def __mul__(self, scalar):
        scalar = complex(scalar)
        return DualFunctional(self.nvars, {a: c * scalar for a, c in self.coeffs.items()})

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
        """The functional at x on a system or frame, a vector: its
        `partials` evaluates every multi-index in one batch."""
        if not self.coeffs:
            return np.zeros(target.n, dtype=complex)
        alphas = list(self.coeffs)
        weights = np.array(
            [self.coeffs[a] / math.prod(map(math.factorial, a)) for a in alphas], dtype=complex
        )
        return target.partials(alphas, x) @ weights

    def __repr__(self):
        parts = []
        for alpha, c in self.sorted_items():
            parts.append("%r*d%s" % (c, "".join(str(a) for a in alpha)))
        return "DualFunctional(" + (" + ".join(parts) if parts else "0") + ")"


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


def _chain_functionals(a_rows, raw=_delta_from_chain):
    """(lambdas, deltas) of the chain with correction rows a_rows: Lambda_0
    .. Lambda_{len(a_rows)} and the raw functionals of orders 2 ..
    len(a_rows) + 1, each `raw(a_rows, lambdas, k, n)` of the chain below."""
    n = len(a_rows[0])
    lambdas = [DualFunctional(n, {(0,) * n: 1.0}), _first_order(a_rows[0])]
    deltas = []
    for k in range(2, len(a_rows) + 2):
        deltas.append(raw(a_rows, lambdas, k, n))
        if k <= len(a_rows):
            lambdas.append(deltas[-1] + _first_order(a_rows[k - 1]))
    return lambdas, deltas


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


def chainrule_Lk(frame, w, gap_tol=DEFAULTS["gap_tol"], delta_zero_tol=DEFAULTS["delta_zero_tol"]):
    """Dual chain on a rotated view, via the derivative product rule.

    The raw order-k functionals are accumulated as P_k = sum over j and
    sigma of (j/k) a_{j,sigma} D_sigma(L_{k-j}), with L_k = P_k plus its
    first-order correction and L_1 the derivative along the first frame
    variable. Derivatives of the rotated system come from contracted
    tensors of the original system; nothing is expanded symbolically. The
    recursion is the loop of `compute_dual_basis`, `dualspace.kernel_chain`,
    fed with these values, and it ends by the same test and order cap.

    `dualspace.local_view` reads one Jacobian and its one SVD and refuses
    a corank other than one (CorankError); a point it moves to a frame is
    refused here (NotNormalizedError).
    """
    view, w, J, Jhat, _, res = local_view(frame, w, gap_tol=gap_tol)
    if view is not frame:
        raise NotNormalizedError("frame Jacobian at the point is not in the distinguished shape")
    a_rows, values = kernel_chain(
        frame, w, _e1(frame.nvars), Jhat, delta_zero_tol=delta_zero_tol,
        raw=lambda rows, k: _chain_functionals(rows, _product_rule_delta)[1][-1].apply(frame, w))
    basis = DualBasis(J, res.s, True, a_rows, values)
    basis.functionals = _chain_functionals(a_rows, _product_rule_delta)
    return basis
