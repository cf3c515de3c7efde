"""Universal constants: the separation constant d(mu), the minimum of two
closed forms and the first positive root of a scalar function built from
an integer coefficient table, and the refinement thresholds, the first
positive roots of one-variable rational equations. Plain scalar
arithmetic: this module imports no numpy and no other layer.
`_THRESHOLDS` is the one table from a threshold variant to its equation.
"""

import math

from . import THRESHOLD_VARIANTS
from .errors import InputError, NoRootError
from .record import Record

# orders up to this one are cross-checked against recursive substitution
# and a 50-digit root of p in tests/test_certify.py; above it, not yet
ANCHORED_MAX = 20

# samples of the first-crossing scan in `smallest_positive_root`
_GRID = 1024
# relative root tolerances of d3 and of the threshold constants
_SEPARATION_TOL = 1e-13
_THRESHOLD_TOL = 1e-12


def smallest_positive_root(fn, upper, tol=1e-10, first=1):
    """First zero crossing of a scalar function on (0, upper].

    The function must be positive at zero. The interval is scanned on a
    uniform grid to find the first sign change, then bisected until the
    bracket [lo, hi] is no wider than `tol * hi`, a relative tolerance,
    so roots near zero keep their digits. The value returned is lo, the
    last point where fn was seen positive: it sits on the positive side
    of the crossing, within relative `tol` of it, so a radius built from
    it does not overshoot. Raises NoRootError when every grid value
    stays positive. The scan starts at grid point `first`; a caller that
    knows fn positive at every grid point below it passes it to skip them.
    """
    if not upper > 0.0:
        raise ValueError("upper bracket must be positive")
    f0 = fn(0.0)
    if not f0 > 0.0:
        raise ValueError("function must be positive at zero")
    lo = 0.0
    hi = None
    for i in range(first, _GRID + 1):
        t = upper * i / _GRID
        v = fn(t)
        if v != v:
            # NaN: the scan has reached a pole
            break
        if v <= 0.0:
            lo = upper * (i - 1) / _GRID
            hi = t
            break
    if hi is None:
        raise NoRootError("no sign change on (0, %g] with %d samples" % (upper, _GRID))
    while hi - lo > tol * hi:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            # the bracket is down to adjacent floats
            break
        if fn(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return lo


# ---------------------------------------------------------------------------
# separation constant


class CoefficientTable(Record):
    _fields = ("mu", "c", "t", "anchored")


class SeparationResult(Record):
    """gamma, the GammaReport, and bound are set by certify.separation_bound."""

    _fields = ("mu", "d", "d1", "d2", "d3", "gamma", "bound")
    _defaults = {"gamma": None, "bound": None}


def coefficient_table(mu):
    """Integer tables (c, t) driving the exclusion function for order mu.

    Entries of c sit on total degree mu; entries of t have total degree
    at most mu - 2. Both come from repeatedly substituting the
    non-diagonal part of a split Taylor expansion into itself until every
    term reaches total degree mu: a term x^i y^j (j >= 1) of degree below
    mu is tabulated in t as (i, j - 1) and replaced by the terms
    x^(i+k) y^(j-1+l), k + l >= 2, weighted by binomial(k + l, k); a term
    of degree mu lands in c; pure powers of x (j = 0) are exact and drop.

    Substitution is linear in the weights and raises the degree by
    k + l - 1 >= 1, so the total weight W(i, j) reaching a state depends
    only on the states of lower degree, never on mu. The triangle of W is
    built row by row, each entry pulling from every row below it, at a
    cost of O(mu^4) integer operations. c is row mu of W and t holds
    rows 2..mu-1, both over j >= 1.
    """
    if mu < 2:
        raise ValueError("order must be at least 2")
    # W[s][j] is the weight W(s - j, j) of the degree-s state; rows 0
    # and 1 stay empty
    W = [[], []]
    for s in range(2, mu + 1):
        row = []
        for j in range(s + 1):
            w = math.comb(s, j)
            # source (s0 - j0, j0) with j0 >= 1 reaches (s - j, j) by
            # k = (s - j) - (s0 - j0) >= 0 and l = j - j0 + 1 >= 0
            for s0 in range(2, s):
                for j0 in range(max(1, s0 - s + j), min(s0, j + 1) + 1):
                    w += W[s0][j0] * math.comb(s - s0 + 1, s - j - s0 + j0)
            row.append(w)
        W.append(row)
    c = {(mu - j, j): W[mu][j] for j in range(1, mu + 1)}
    t = {(s - j, j - 1): W[s][j] for s in range(2, mu) for j in range(1, s + 1)}
    return CoefficientTable(mu=mu, c=c, t=t, anchored=(mu <= ANCHORED_MAX))


def p_of_d(mu, table=None):
    """Scalar exclusion function whose first positive root gives d3.

    Every tabulated term carries the (1 - d^2)^(i/2) factor, including
    the t-terms with j = 0; the function is positive at zero and crosses
    below zero before d reaches one.
    """
    if table is None:
        table = coefficient_table(mu)
    mu = table.mu
    c_items = sorted(table.c.items())
    t_items = sorted(table.t.items())

    def p(d):
        w = (1.0 - d * d) ** 0.5
        total = w**mu
        for (i, j), coeff in c_items:
            total = total - coeff * w**i * d**j
        tail = 1.0
        for (i, j), coeff in t_items:
            tail = tail + coeff * w**i * d**j
        return total - d * tail

    return p


def separation_constant(mu):
    """Universal constant d(mu) with its three ingredients.

    d3 is the first root of `p_of_d` to relative tolerance 1e-13, taken
    from the side where p is still positive. Orders above ANCHORED_MAX
    are refused with InputError, as no test has cross-checked them.
    """
    if mu > ANCHORED_MAX:
        raise InputError(
            "mu must be at most %d, the largest order whose constant d(mu) "
            "is cross-checked, got %d" % (ANCHORED_MAX, mu)
        )
    table = coefficient_table(mu)
    cm = table.c[(mu - 1, 1)]
    d1 = math.sqrt(1.0 / (cm * cm + 1.0))
    d2 = math.sqrt(1.0 / (mu - 1.0))
    p = p_of_d(mu, table)
    # p crosses zero below d2 at every order up to ANCHORED_MAX (tests check each)
    d3 = smallest_positive_root(p, d2, tol=_SEPARATION_TOL)
    d = min(d1, d2, d3)
    return SeparationResult(mu=mu, d=d, d1=d1, d2=d2, d3=d3)


# ---------------------------------------------------------------------------
# threshold constants


class ThresholdSet(Record):
    _fields = ("variant", "mu", "u_converge", "u_quadratic")


def _b21(u):
    return (1 - 2 * u) ** 2 * u / ((2 * (1 - 2 * u) ** 2 - 1) * (1 - u))


def _b23(u):
    num = u * (
        32 * u**6 - 144 * u**5 + 272 * u**4 - 288 * u**3 + 174 * u**2 - 52 * u + 5
    )
    den = (
        (24 * u**3 - 36 * u**2 + 18 * u - 1)
        * (u - 1) ** 3
        * (8 * u**2 - 8 * u + 1)
    )
    return num / den


def _a3(u):
    num = (2 * u - 1) ** 4 * (8 * u**2 - 8 * u + 1)
    den = 128 * u**6 - 384 * u**5 + 464 * u**4 - 320 * u**3 + 136 * u**2 - 30 * u + 1
    return num / den


def _b33(u):
    poly = (
        3072 * u**12
        - 25088 * u**11
        + 92480 * u**10
        - 202336 * u**9
        + 289640 * u**8
        - 282020 * u**7
        + 188614 * u**6
        - 85997 * u**5
        + 26342 * u**4
        - 5368 * u**3
        + 702 * u**2
        - 42 * u
    )
    pref = -_a3(u) / (
        3 * (2 * u - 1) ** 4 * (8 * u**2 - 8 * u + 1) ** 2 * (u - 1) ** 4
    )
    return pref * poly


def _general_parts(u):
    l1 = (1 - 2 * u) ** 2 / ((2 * (1 - 2 * u) ** 2 - 1) * (1 - u) ** 3)
    l2 = (2 * u - 1) ** 6 / (
        (128 * u**6 - 384 * u**5 + 480 * u**4 - 336 * u**3 + 140 * u**2 - 32 * u + 1)
        * (1 - u) ** 3
    )
    r = l1 * u / (1 - l1 * u)
    l3 = math.sqrt(1 + r * r)
    return l1, l2, l3, r


def _general_b1(u):
    l1, _, _, r = _general_parts(u)
    return u + r


def _general_b2(u):
    l1, l2, l3, r = _general_parts(u)
    s = l1 * l3 * u
    t2 = l2 * l3 * u
    A = 4 * s * (1 - s) / ((1 - 2 * u) ** 2 * (1 - 2 * s) ** 2)
    P = (1 + A) ** 2
    terms = [
        (l2 / 3) * P * (u + r),
        (l2 / 3) * P * l1 * l3**2 * u / (1 - s),
        (l2**2 / 3) * (8 + 7 * A + 2 * A**2) * (u + r),
        (7 * l2**2 / 3) * P * (u**2 + (l1 * u) ** 2 / (1 - l1 * u)),
        (4 * l2**2 / 3) * P * u * (u + r) ** 2,
        (17 * l2 / 3) * P * l3**2 * u,
        (P / 6) * 8 * l2**3 * l3**2 * u * (12 * t2**2 - 16 * t2 + 6) / (1 - 2 * t2) ** 3,
        (P / 3) * u * 8 * l2**3 * l3**3 * u * (4 - 6 * t2) / (1 - 2 * t2) ** 2,
        (l2 / 2) * P * 4 * l1**2 * l3**2 * u * (4 * s**2 - 6 * s + 3) / (1 - 2 * s) ** 3,
        P * l2 * u * 4 * l1**2 * l3**3 * u * (3 - 4 * s) / (1 - 2 * s) ** 2,
    ]
    return sum(terms)


# variant -> (mu, scan bracket safely below the first pole, threshold
# equation), for the variants in the order of mzero.THRESHOLD_VARIANTS; the
# refinement iterations themselves are mzero.VARIANTS
_THRESHOLDS = dict(zip(THRESHOLD_VARIANTS, (
    (2, 0.05, lambda u: 2 * _b21(u) ** 2 + 2 * _b23(u) ** 2),
    (3, 0.05, lambda u: 2 * _b21(u) ** 2 + 2 * _b33(u) ** 2),
    (3, 0.03, lambda u: _general_b1(u) ** 2 + _general_b2(u) ** 2),
)))


def threshold_constants(variant):
    """Convergence and quadratic-decay thresholds for a variant, each to
    relative tolerance 1e-12.

    u_converge solves sum-of-squares = 1 (the next error is strictly
    smaller); u_quadratic solves sum-of-squares = 1/4 (the error at step
    k shrinks by (1/2)^(2^k - 1)).
    """
    if variant not in _THRESHOLDS:
        raise ValueError(
            "variant must be one of %s" % (", ".join(THRESHOLD_VARIANTS))
        )
    mu, upper, eq = _THRESHOLDS[variant]
    u_quad = smallest_positive_root(lambda u: 0.25 - eq(u), upper, tol=_THRESHOLD_TOL)
    # eq < 1/4 at every grid point below u_quad's cell, so 1 - eq > 0 there
    u_conv = smallest_positive_root(lambda u: 1.0 - eq(u), upper, tol=_THRESHOLD_TOL,
                                    first=max(1, int(u_quad / upper * _GRID)))
    return ThresholdSet(
        variant=variant, mu=mu, u_converge=u_conv, u_quadratic=u_quad
    )
