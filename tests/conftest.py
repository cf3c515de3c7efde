"""Shared fixtures and construction helpers for the test suite.

Two worked systems appear throughout: a double zero of a planar quadratic
pair (EX_DOUBLE) and a triple zero of a quadratic/cubic pair (EX_TRIPLE),
both at the origin. The triple system's second equation is the cube of a
linear form, which pins its third-order chain value at exactly 192.

`make_normalized_system` builds random square systems with an exact
multiplicity-mu zero at the origin whose Jacobian is already in the
distinguished shape (kernel along the first variable). The exactness comes
from banning the handful of monomials whose coefficients feed the chain
values below order mu. `make_planted_system` covers any mu >= 2 by a
nonlinear change of coordinates of (X_2, ..., X_n, X_1^mu),
`make_planted_pair` adds a known simple zero at a chosen distance, and
`make_split_cluster` also splits the multiple zero into mu known simple
ones.
"""

import importlib.util
import itertools
from pathlib import Path

import numpy as np
import pytest

from mzero.polycore import Poly, PolySystem, parse_system

EX_DOUBLE = """
vars: X1 X2
f1: X1^2 - 1/4*X1 - 1/2*X2
f2: 1/2*X1*X2
"""

EX_TRIPLE = """
vars: X1 X2
f1: 64/73*X1^2 - 48/73*X1*X2 + 9/73*X2^2 + sqrt(73)/12*X2
f2: (8*X1 - 3*X2)^2*(3*X1 + 8*X2)
"""


@pytest.fixture(scope="session")
def ex_double():
    return parse_system(EX_DOUBLE)


@pytest.fixture(scope="session")
def ex_triple():
    return parse_system(EX_TRIPLE)


@pytest.fixture
def ex_double_path(tmp_path):
    p = tmp_path / "double.mz"
    p.write_text(EX_DOUBLE)
    return str(p)


@pytest.fixture
def ex_triple_path(tmp_path):
    p = tmp_path / "triple.mz"
    p.write_text(EX_TRIPLE)
    return str(p)


class KernelCalls:
    """What one run asked of the evaluation kernel and of LAPACK's SVD:
    the multi-index array of every `PolySystem.partials` call, the (x, A,
    k) of every `PolySystem.curve_taylor` call and every matrix passed to
    `np.linalg.svd`, in call order."""

    def __init__(self):
        self.partials, self.curve_taylor, self.svd = [], [], []

    def clear(self):
        for calls in (self.partials, self.curve_taylor, self.svd):
            calls.clear()

    def jacobians(self):
        """The partials calls that read the whole Jacobian: every first-order
        multi-index e_j is among their multi-indices."""
        return [A for A in self.partials
                if {tuple(e) for e in np.eye(A.shape[1], dtype=int)} <= set(map(tuple, A))]

    def svd_shapes(self):
        return [A.shape for A in self.svd]


@pytest.fixture
def kernel_calls(monkeypatch):
    """Count the kernel's evaluations and the SVDs while a test runs; the
    calls go through unchanged."""
    calls = KernelCalls()
    partials, curve_taylor, factor = PolySystem.partials, PolySystem.curve_taylor, np.linalg.svd

    def counted_partials(self, alphas, x):
        calls.partials.append(np.array(alphas, dtype=np.intp).reshape(-1, self.nvars))
        return partials(self, alphas, x)

    def counted_curve_taylor(self, x, A, k):
        calls.curve_taylor.append((x, A, k))
        return curve_taylor(self, x, A, k)

    def counted_svd(A, *args, **kwargs):
        calls.svd.append(np.array(A))
        return factor(A, *args, **kwargs)

    monkeypatch.setattr(PolySystem, "partials", counted_partials)
    monkeypatch.setattr(PolySystem, "curve_taylor", counted_curve_taylor)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    return calls


def perfbench_module(name):
    """A module of the benchmark, `perfbench/<name>.py`, such as its seeded
    system generator `gen`."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, Path(__file__).parents[1] / "perfbench" / (name + ".py")
    )
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def random_unitary(n, rng):
    """Haar-distributed unitary via QR with the R diagonal made positive."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def monomials(nvars, degree):
    """All exponent tuples of the given total degree."""
    out = []
    for combo in itertools.combinations_with_replacement(range(nvars), degree):
        alpha = [0] * nvars
        for j in combo:
            alpha[j] += 1
        out.append(tuple(alpha))
    return out


def _unit(nvars, j, power=1):
    return tuple(power if i == j else 0 for i in range(nvars))


def make_normalized_system(n, mu, rng, coeff_scale=0.2, fill=0.6):
    """Random system with an exact multiplicity-mu zero at the origin.

    The leading n-1 equations are s_i * X_{i+1} plus random quadratics and
    cubics; the last equation is X1^mu plus random higher terms with the
    monomials X1^k (k < mu) excluded, and for mu = 4 the X1*X_sigma
    quadratics as well, so the chain values below order mu vanish exactly.
    """
    if mu not in (2, 3, 4):
        raise ValueError("generator covers mu in {2, 3, 4}")

    def coeff():
        return coeff_scale * complex(rng.normal(), rng.normal())

    quad = monomials(n, 2)
    cub = monomials(n, 3)
    sing = np.sort(rng.uniform(0.8, 2.0, size=n - 1))[::-1]
    polys = []
    for i in range(n - 1):
        terms = {_unit(n, i + 1): complex(sing[i])}
        for m in quad + cub:
            if rng.uniform() < fill:
                terms[m] = terms.get(m, 0j) + coeff()
        polys.append(Poly(n, terms))

    banned = {_unit(n, 0, k) for k in range(1, mu + 1)}
    if mu >= 4:
        banned |= {m for m in quad if m[0] == 1}
    terms = {_unit(n, 0, mu): 1.0 + 0j}
    for m in quad + cub:
        if m in banned:
            continue
        if rng.uniform() < fill:
            terms[m] = terms.get(m, 0j) + coeff()
    polys.append(Poly(n, terms))

    names = ["X%d" % (i + 1) for i in range(n)]
    labels = ["f%d" % (i + 1) for i in range(n)]
    return PolySystem(polys, names, labels)


def _planted_coordinates(n, rng, coeff_scale):
    """phi(X) = X + random complex quadratics, as n term dicts."""
    quad = monomials(n, 2)
    phi = []
    for j in range(n):
        terms = {_unit(n, j): 1.0 + 0j}
        for m in quad:
            terms[m] = coeff_scale * complex(rng.normal(), rng.normal())
        phi.append(terms)
    return phi


def _times(a, b):
    """Product of two term dicts."""
    product = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
            product[m] = product.get(m, 0j) + c1 * c2
    return product


def make_planted_system(n, mu, rng, coeff_scale=0.3):
    """Random system with an exact multiplicity-mu zero at the origin, for
    any mu >= 2.

    phi(X) = X + random complex quadratics is a local change of
    coordinates at the origin, and g = (phi_2, ..., phi_n, phi_1^mu) is
    (Y_2, ..., Y_n, Y_1^mu) in the coordinates Y = phi(X): its zero at the
    origin has multiplicity exactly mu, and its Jacobian there is in the
    distinguished shape.
    """
    phi = _planted_coordinates(n, rng, coeff_scale)
    power = {(0,) * n: 1.0 + 0j}
    for _ in range(mu):
        power = _times(power, phi[0])
    polys = [Poly(n, terms) for terms in phi[1:] + [power]]
    return PolySystem(polys)


def make_planted_pair(n, mu, rng, c=0.1, coeff_scale=0.3):
    """A planted system with a second, simple zero: (system, that zero).

    g = (phi_2, ..., phi_n, phi_1^mu (c - phi_1)) with phi as in
    `make_planted_system` is (Y_2, ..., Y_n, Y_1^mu (c - Y_1)) in Y =
    phi(X). Its zero at the origin has multiplicity mu, and its other zero
    near the origin is phi^-1(c e1), found here by Newton on phi from c e1.
    """
    system, _, second, _ = make_split_cluster(n, mu, rng, 0.0, c, coeff_scale)
    return system, second


def make_split_cluster(n, mu, rng, eps, c=0.1, coeff_scale=0.3):
    """The planted pair with its multiple zero split into a cluster:
    (system, the mu cluster zeros, the second zero, phi as a PolySystem).

    g = (phi_2, ..., phi_n, (phi_1^mu - eps)(c - phi_1)) is (Y_2, ...,
    Y_n, (Y_1^mu - eps)(c - Y_1)) in Y = phi(X). Its zeros near the origin
    are phi^-1(eps^(1/mu) omega^j e1), j < mu, with omega = exp(2 pi i /
    mu), and phi^-1(c e1). With eps = 0 and the same rng the system and
    the second zero are those of `make_planted_pair`.
    """
    phi = _planted_coordinates(n, rng, coeff_scale)
    power = {(0,) * n: 1.0 + 0j}
    for _ in range(mu):
        power = _times(power, phi[0])
    if eps:
        power[(0,) * n] = complex(-eps)
    rest = {m: -v for m, v in phi[0].items()}
    rest[(0,) * n] = complex(c)
    system = PolySystem([Poly(n, terms) for terms in phi[1:] + [_times(power, rest)]])
    coordinates = PolySystem([Poly(n, terms) for terms in phi])

    def inverse(y1):
        # Newton on phi(X) = y1 e1, from y1 e1
        target = np.zeros(n, dtype=complex)
        target[0] = y1
        z = target.copy()
        for _ in range(50):
            step = np.linalg.solve(coordinates.jacobian(z), coordinates.eval_at(z) - target)
            z = z - step
            if np.linalg.norm(step) <= 1e-16 * np.linalg.norm(z):
                break
        return z

    root = eps ** (1.0 / mu)
    cluster = [inverse(root * np.exp(2j * np.pi * j / mu)) for j in range(mu)]
    return system, cluster, inverse(c), coordinates


def macaulay_multiplicity(system, max_order=6, tol=1e-8):
    """Dimension of the local dual space at the origin, by rank counting.

    Order by order, assemble the coefficient matrix of all products
    X^beta * f_i over the monomials of total degree <= D. Functionals of
    order <= D that kill the ideal are the null space; the multiplicity is
    the nullity once it stops growing with D.
    """
    n = system.nvars
    prev = None
    for order in range(1, max_order + 1):
        cols = [(0,) * n]
        for d in range(1, order + 1):
            cols.extend(monomials(n, d))
        col_index = {m: j for j, m in enumerate(cols)}
        rows = []
        shifts = [(0,) * n]
        for d in range(1, order):
            shifts.extend(monomials(n, d))
        for beta in shifts:
            for p in system.polys:
                row = np.zeros(len(cols), dtype=complex)
                for mono, c in p.terms.items():
                    shifted = tuple(a + b for a, b in zip(mono, beta))
                    j = col_index.get(shifted)
                    if j is not None:
                        row[j] = c
                rows.append(row)
        M = np.array(rows)
        s = np.linalg.svd(M, compute_uv=False)
        rank = int(np.sum(s > tol * s[0])) if s.size else 0
        nullity = len(cols) - rank
        if prev is not None and nullity == prev:
            return nullity
        prev = nullity
    raise RuntimeError("nullity did not stabilize up to order %d" % max_order)


def lowering_residual(basis):
    """Largest defect of the lowered functionals against the chain span."""
    alphas = sorted(
        {a for lam in basis.lambdas for a in lam.coeffs},
        key=lambda t: (sum(t), t),
    )

    def as_vector(coeffs):
        return np.array([coeffs.get(a, 0j) for a in alphas], dtype=complex)

    def lower(coeffs, sigma):
        # formal anti-raising map d^beta -> d^(beta - e_sigma), one to one
        return {a[:sigma] + (a[sigma] - 1,) + a[sigma + 1 :]: c
                for a, c in coeffs.items() if a[sigma]}

    span = np.array([as_vector(lam.coeffs) for lam in basis.lambdas]).T
    worst = 0.0
    nvars = basis.lambdas[0].nvars
    for k, lam in enumerate(basis.lambdas):
        for sigma in range(nvars):
            vec = as_vector(lower(lam.coeffs, sigma))
            if not np.any(vec):
                continue
            sub = span[:, :k] if k else np.zeros((len(alphas), 1))
            coef, *_ = np.linalg.lstsq(sub, vec, rcond=None)
            worst = max(worst, float(np.linalg.norm(sub @ coef - vec)))
    return worst
