"""Seeded inputs for the benchmark: worked examples and planted-zero systems.

`planted_system` builds a random square system with an exact
multiplicity-mu zero at the origin whose Jacobian already has the
distinguished shape (kernel along X1). The construction follows the test
suite's normalized-system recipe: the leading n-1 equations are
s_i * X_{i+1} plus random quadratics and cubics, the last is X1^mu plus
random quadratics and cubics with the monomials X1^k (k <= mu) banned, and
for mu = 4 also the X1*X_sigma quadratics. One difference: each equation
draws a fixed number of monomials (round(fill * candidates)) instead of a
coin per monomial, so the term count, and with it the work per call, does
not depend on the seed.

Systems are written in the package's text format with every coefficient
as `(re+imi)` built from `repr` floats, so parsing recovers the generator's
doubles exactly.
"""

import itertools
import math

import numpy as np

EX_DOUBLE = """vars: X1 X2
f1: X1^2 - 1/4*X1 - 1/2*X2
f2: 1/2*X1*X2
"""

EX_TRIPLE = """vars: X1 X2
f1: 64/73*X1^2 - 48/73*X1*X2 + 9/73*X2^2 + sqrt(73)/12*X2
f2: (8*X1 - 3*X2)^2*(3*X1 + 8*X2)
"""

DENSE_SIZES = tuple((n, mu) for n in (4, 6, 8) for mu in (2, 3, 4))
START_RADIUS = 1e-2


def monomials(nvars, degree):
    """All exponent tuples of the given total degree, in a fixed order."""
    out = []
    for combo in itertools.combinations_with_replacement(range(nvars), degree):
        alpha = [0] * nvars
        for j in combo:
            alpha[j] += 1
        out.append(tuple(alpha))
    return out


def _unit(nvars, j, power=1):
    return tuple(power if i == j else 0 for i in range(nvars))


def planted_system(n, mu, rng, coeff_scale=0.2, fill=0.6):
    """List of n term dicts {exponent tuple: complex} with a planted
    multiplicity-mu zero at the origin."""
    if mu not in (2, 3, 4):
        raise ValueError("generator covers mu in {2, 3, 4}")

    def draw(candidates):
        k = int(round(fill * len(candidates)))
        picks = sorted(rng.choice(len(candidates), size=k, replace=False))
        return {
            candidates[p]: coeff_scale * complex(rng.normal(), rng.normal())
            for p in picks
        }

    free = monomials(n, 2) + monomials(n, 3)
    sing = np.sort(rng.uniform(0.8, 2.0, size=n - 1))[::-1]
    polys = []
    for i in range(n - 1):
        terms = draw(free)
        terms[_unit(n, i + 1)] = complex(sing[i])
        polys.append(terms)

    banned = {_unit(n, 0, k) for k in range(1, mu + 1)}
    if mu >= 4:
        banned |= {m for m in monomials(n, 2) if m[0] == 1}
    terms = draw([m for m in free if m not in banned])
    terms[_unit(n, 0, mu)] = 1.0 + 0j
    polys.append(terms)
    return polys


def _monomial_text(mono):
    factors = []
    for j, e in enumerate(mono):
        if e == 1:
            factors.append("X%d" % (j + 1))
        elif e > 1:
            factors.append("X%d^%d" % (j + 1, e))
    return "*".join(factors)


def system_text(polys):
    """The text format of a list of term dicts, coefficients exact."""
    n = len(polys)
    lines = ["vars: " + " ".join("X%d" % (j + 1) for j in range(n))]
    for i, terms in enumerate(polys):
        body = " + ".join(
            "(%s)*%s" % (complex_text(c), _monomial_text(m))
            for m, c in sorted(terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))
        )
        lines.append("f%d: %s" % (i + 1, body))
    return "\n".join(lines) + "\n"


def start_point(n, rng, radius=START_RADIUS):
    """Seeded complex point at the given distance from the origin."""
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    return radius * z / np.linalg.norm(z)


def complex_text(c):
    """`re+imi` (or `re-imi`) from repr floats; parses back exactly."""
    sign = "-" if math.copysign(1.0, c.imag) < 0 else "+"
    return "%r%s%ri" % (c.real, sign, abs(c.imag))


def point_text(z):
    return ",".join(complex_text(complex(c)) for c in z)


def dense_inputs(seed):
    """[(name, n, mu, polys, start)] for every dense size, from one seed."""
    rng = np.random.default_rng(abs(seed))
    out = []
    for n, mu in DENSE_SIZES:
        polys = planted_system(n, mu, rng)
        out.append(("dense_n%d_mu%d" % (n, mu), n, mu, polys, start_point(n, rng)))
    return out
