"""Dual functionals: the symbolic record of a chain, and a second route.

`DualBasis.lambdas` and `deltas` are built here from the correction rows
by the order-raising map `psi`; `apply_functional` evaluates one through
the kernel's batched partials. `chainrule_Lk` runs the chain loop of
`dualspace` on a rotated view, but reads each raw value from a
functional built by a derivative-level product rule and applied through
contracted derivative tensors; the tests check that it agrees with the
curve route, which forms no functional. So only the `dual` command's
printed chain and the tests load this module.
"""

import math

import numpy as np

from . import DEFAULT_TOLERANCES as DEFAULTS
from .dualspace import _chain, _check_corank_one, _dual_basis, is_normalized
from .errors import NotNormalizedError
from .numkit import LinearSolver, scaled_norm, svd
from .polycore import Poly


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
        return apply_functional(self.coeffs, target, x)

    def __repr__(self):
        parts = []
        for alpha, c in self.sorted_items():
            parts.append("%r*d%s" % (c, "".join(str(a) for a in alpha)))
        return "DualFunctional(" + (" + ".join(parts) if parts else "0") + ")"


def apply_functional(coeffs, target, x):
    """Apply a dual functional sum_alpha c_alpha (1/alpha!) d^alpha at x.

    `coeffs` maps multi-index tuples to complex weights. `target` may be a
    Poly (returns a scalar) or a system or frame (returns a vector); its
    `partials` evaluates every multi-index in one batch.
    """
    if not coeffs:
        return 0j if isinstance(target, Poly) else np.zeros(target.n, dtype=complex)
    alphas = list(coeffs)
    weights = np.array(
        [coeffs[a] / math.prod(map(math.factorial, a)) for a in alphas], dtype=complex
    )
    return target.partials(alphas, x) @ weights


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


def chainrule_Lk(frame, w, kmax=None, max_order=DEFAULTS["max_order"],
                 gap_tol=DEFAULTS["gap_tol"], delta_zero_tol=DEFAULTS["delta_zero_tol"]):
    """Dual chain on a rotated view, via the derivative product rule.

    The raw order-k functionals are accumulated as P_k = sum over j and
    sigma of (j/k) a_{j,sigma} D_sigma(L_{k-j}), with L_k = P_k plus its
    first-order correction and L_1 the derivative along the first frame
    variable. Derivatives of the rotated system come from contracted
    tensors of the original system; nothing is expanded symbolically. The
    recursion is the loop of `compute_dual_basis`, `dualspace._chain`, fed
    with these values.

    With kmax=None the recursion terminates like `compute_dual_basis` and
    returns the multiplicity. With an explicit kmax it runs to exactly
    that order with no membership test.
    """
    w = np.asarray(w, dtype=complex)
    n = frame.nvars
    J = frame.jacobian(w)
    # one SVD serves the shape test, the corank test and the basis
    s = svd(J).s
    if not is_normalized(J, s=s):
        raise NotNormalizedError(
            "frame Jacobian at the point is not in the distinguished shape"
        )
    _check_corank_one(s, gap_tol)
    Jhat = LinearSolver(J[: n - 1, 1:])
    a1 = np.zeros(n, dtype=complex)
    a1[0] = 1.0

    def stop(k, vals):
        if kmax is not None:
            return k == kmax
        return abs(vals[-1]) > delta_zero_tol * scaled_norm(vals) + 1e-14

    a_rows, values = _chain(
        frame, w, a1, lambda k, vals: Jhat.solve(-vals[: n - 1]), stop,
        max_order if kmax is None else kmax,
        lambda rows, k: _chain_functionals(rows, _product_rule_delta)[1][-1].apply(frame, w))
    basis = _dual_basis(J, Jhat, a_rows, values, s, True)
    basis.functionals = _chain_functionals(a_rows, _product_rule_delta)
    return basis
