"""Refinement thresholds: for each variant of `mzero.THRESHOLD_VARIANTS`,
the first positive roots of a one-variable rational equation. Plain
scalar arithmetic: this module imports no numpy, and of the other layers
only `constants`, for its root finder. `_THRESHOLDS` is the one table
from a threshold variant to its equation.
"""

import math

from . import THRESHOLD_VARIANTS
from .constants import _GRID, smallest_positive_root
from .record import Record

# relative root tolerance of the threshold constants
_THRESHOLD_TOL = 1e-12


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


def _general_b(u):
    """The two halves (b1, b2) of the general variant's equation, which
    share l1, l2, l3 and r."""
    l1 = (1 - 2 * u) ** 2 / ((2 * (1 - 2 * u) ** 2 - 1) * (1 - u) ** 3)
    l2 = (2 * u - 1) ** 6 / (
        (128 * u**6 - 384 * u**5 + 480 * u**4 - 336 * u**3 + 140 * u**2 - 32 * u + 1)
        * (1 - u) ** 3
    )
    r = l1 * u / (1 - l1 * u)
    l3 = math.sqrt(1 + r * r)
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
    return u + r, sum(terms)


def _general_eq(u):
    b1, b2 = _general_b(u)
    return b1**2 + b2**2


# variant -> (mu, scan bracket safely below the first pole, threshold
# equation), for the variants in the order of mzero.THRESHOLD_VARIANTS; the
# refinement iterations themselves are mzero.VARIANTS
_THRESHOLDS = dict(zip(THRESHOLD_VARIANTS, (
    (2, 0.05, lambda u: 2 * _b21(u) ** 2 + 2 * _b23(u) ** 2),
    (3, 0.05, lambda u: 2 * _b21(u) ** 2 + 2 * _b33(u) ** 2),
    (3, 0.03, _general_eq),
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
