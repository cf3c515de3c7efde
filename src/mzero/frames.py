"""Rotated views g(Y) = U^H f(W @ Y) of a system, and the expansion of a
system into explicit polynomials (`_expand`, run by `materialize` and
`PolySystem.shift`, which the tests use to check the kernel). A point
already in the distinguished shape needs neither, so `polycore` imports
this module only where a frame or an expansion is made.
"""

import numpy as np

from .polycore import Poly, PolySystem, _unit


def _accumulate(out, terms):
    """Add a term dict into `out` in place; a sum that is exactly zero
    drops its monomial, which a later term appends anew."""
    for mono, c in terms.items():
        out[mono] = out.get(mono, 0j) + c
        if out[mono] == 0:
            del out[mono]


def _product(a, b):
    """Product of two term dicts, exact zeros dropped."""
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
            out[mono] = out.get(mono, 0j) + c1 * c2
    return {mono: c for mono, c in out.items() if c != 0}


def _expand(terms, forms):
    """Term dict of a polynomial with variable j replaced by the term dict
    forms[j], expanded in doubles. Terms are taken by degree, then exponent
    tuple; each power of a form is built once, by repeated squaring."""
    zero = (0,) * len(forms)
    out, powers = {}, {}
    for mono, c in sorted(terms.items(), key=lambda kv: (sum(kv[0]), kv[0])):
        term = {zero: c}
        for j, e in enumerate(mono):
            if not e:
                continue
            if (j, e) not in powers:
                power, base, k = {zero: 1 + 0j}, forms[j], e
                while k:
                    if k & 1:
                        power = _product(power, base)
                    base = _product(base, base)
                    k >>= 1
                powers[j, e] = power
            term = _product(term, powers[j, e])
        _accumulate(out, term)
    return out


class NormalizedFrame:
    """View of a system in rotated coordinates, g(Y) = U^H f(W @ Y).

    Values, Jacobians and Taylor coefficients along curves map those of
    the underlying system; higher derivatives contract its derivative
    tensors. Nothing is expanded unless `materialize` is called.
    """

    def __init__(self, system, U, W):
        self.system = system
        self.U = np.asarray(U, dtype=complex)
        self.W = np.asarray(W, dtype=complex)
        n = system.nvars
        if self.U.shape != (system.n, system.n) or self.W.shape != (n, n):
            raise ValueError("frame matrices have wrong shape")

    @property
    def n(self):
        return self.system.n

    @property
    def nvars(self):
        return self.system.nvars

    def max_degree(self):
        return self.system.max_degree()

    def to_frame(self, x):
        """Coordinates of an ambient point x in this frame."""
        return self.W.conj().T @ np.asarray(x, dtype=complex)

    def from_frame(self, y):
        return self.W @ np.asarray(y, dtype=complex)

    def compose(self, U2, W2):
        """Frame of this frame: (U @ U2, W @ W2) over the same base system."""
        return NormalizedFrame(self.system, self.U @ U2, self.W @ W2)

    def eval_at(self, y):
        y = np.asarray(y, dtype=complex)
        return self.U.conj().T @ self.system.eval_at(self.W @ y)

    def jacobian(self, y):
        y = np.asarray(y, dtype=complex)
        J = self.system.jacobian(self.W @ y)
        return self.U.conj().T @ J @ self.W

    def curve_taylor(self, y, A, k):
        """Taylor coefficients of g along y + sum_i A[i] t^(i+1): those of
        the system along W @ y + sum_i (W @ A[i]) t^(i+1), mapped by U^H."""
        A = np.asarray(A, dtype=complex).reshape(-1, self.nvars)
        taylor = self.system.curve_taylor(self.W @ np.asarray(y, dtype=complex), A @ self.W.T, k)
        return self.U.conj().T @ taylor

    def derivative_tensor(self, y, k):
        y = np.asarray(y, dtype=complex)
        T = self.system.derivative_tensor(self.W @ y, k)
        T = np.tensordot(self.U.conj().T, T, axes=(1, 0))
        for ax in range(1, k + 1):
            T = np.moveaxis(np.tensordot(T, self.W, axes=(ax, 0)), -1, ax)
        return T

    def partials(self, alphas, y):
        """Raw partials d^alpha g_i(y) as an m x K matrix, one column per
        multi-index, gathered from one contracted tensor per order."""
        n = self.nvars
        A = np.asarray(alphas, dtype=np.intp).reshape(-1, n)
        orders = A.sum(axis=1)
        out = np.empty((self.n, len(A)), dtype=complex)
        for k in set(orders.tolist()):
            cols = np.flatnonzero(orders == k)
            if k == 0:
                out[:, cols] = self.eval_at(y)[:, None]
                continue
            # flat position of each multi-index's sorted index tuple
            C = np.cumsum(A[cols], axis=1)
            flat = sum((C <= t).sum(axis=1) * n ** (k - 1 - t) for t in range(k))
            T = self.derivative_tensor(y, k).reshape(self.n, -1)
            out[:, cols] = T[:, flat]
        return out

    def partials_vector(self, alpha, y):
        return self.partials([alpha], y)[:, 0]

    def materialize(self):
        """Expand the rotated system into explicit polynomials."""
        n = self.nvars
        forms = [Poly(n, {_unit(n, j): w for j, w in enumerate(row)}).terms for row in self.W]
        substituted = [_expand(p.terms, forms) for p in self.system.polys]
        out = []
        for row in self.U.conj().T:
            g = {}
            for u, terms in zip(row, substituted):
                if u != 0:
                    _accumulate(g, Poly(n, {m: c * complex(u) for m, c in terms.items()}).terms)
            out.append(Poly(n, g))
        labels = ["g%d" % (i + 1) for i in range(self.n)]
        return PolySystem(out, self.system.var_names, labels)

    def __repr__(self):
        return "NormalizedFrame(%r)" % (self.system,)


def unitary_pullback(system, U, W):
    """Rotated view g(Y) = U^H f(W @ Y); frames of frames compose."""
    if isinstance(system, NormalizedFrame):
        return system.compose(U, W)
    return NormalizedFrame(system, U, W)
