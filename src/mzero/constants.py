"""Universal constants: the separation constant d(mu), the minimum of
three numbers d1, d2, d3 read from a table for every order the package
accepts (2..ANCHORED_MAX). The table was generated by
`derivations.derive_separation_constant`, which derives each entry from
the paper's equations, and tier-1 recomputes every entry from it bit for
bit. So no call builds a coefficient table or finds a root, and none
compiles that code. Plain scalar arithmetic: this module imports no numpy
and no other layer. The refinement thresholds live in `thresholds`.
"""

from .errors import InputError
from .record import Record

# orders up to this one are cross-checked against recursive substitution
# and a 50-digit root of p in tests/test_certify.py; above it, not yet
ANCHORED_MAX = 20


class SeparationResult(Record):
    """gamma, the GammaReport, and bound are set by certify.separation_bound."""

    _fields = ("mu", "d", "d1", "d2", "d3", "gamma", "bound")
    _defaults = {"gamma": None, "bound": None}


# mu -> (d1, d2, d3), from `derivations.derive_separation_constant`, each
# written as the repr of its double
_SEPARATION = {
    2: (0.4472135954999579, 1.0, 0.28659137225821496),
    3: (0.12403473458920845, 0.7071067811865476, 0.0850694642195079),
    4: (0.02939905160189274, 0.5773502691896257, 0.02171749300024415),
    5: (0.006578804996238511, 0.5, 0.005043413107680639),
    6: (0.0014164291740278957, 0.4472135954999579, 0.0011056397878429058),
    7: (0.0002962085178110948, 0.408248290463863, 0.00023361275858575613),
    8: (6.0554680765808725e-05, 0.3779644730092272, 4.808918964822932e-05),
    9: (1.21571678652755e-05, 0.3535533905932738, 9.703953672961292e-06),
    10: (2.404944566020798e-06, 0.3333333333333333, 1.927298998136816e-06),
    11: (4.699548467382735e-07, 0.31622776601683794, 3.778254383228469e-07),
    12: (9.089135883126763e-08, 0.30151134457776363, 7.326613334414656e-08),
    13: (1.7424485416611776e-08, 0.28867513459481287, 1.4076700419878563e-08),
    14: (3.315054718326331e-09, 0.2773500981126146, 2.6831697991205046e-09),
    15: (6.265240196778664e-10, 0.2672612419124244, 5.079232158714654e-10),
    16: (1.1771939622916762e-10, 0.2581988897471611, 9.556960019432523e-11),
    17: (2.2004410510528004e-11, 0.25, 1.788620378257685e-11),
    18: (4.09415887495008e-12, 0.24253562503633297, 3.3315628634779375e-12),
    19: (7.586086540482431e-13, 0.23570226039551584, 6.179086644436315e-13),
    20: (1.4003743897288286e-13, 0.22941573387056177, 1.1416424795614777e-13),
}


def separation_constant(mu):
    """Universal constant d(mu) = min(d1, d2, d3) with its three
    ingredients. Orders above ANCHORED_MAX are refused with InputError, as
    no test has cross-checked them, and orders below 2 with ValueError.
    """
    if mu > ANCHORED_MAX:
        raise InputError(
            "mu must be at most %d, the largest order whose constant d(mu) "
            "is cross-checked, got %d" % (ANCHORED_MAX, mu)
        )
    if mu < 2:
        raise ValueError("order must be at least 2")
    d1, d2, d3 = _SEPARATION[mu]
    return SeparationResult(mu=mu, d=min(d1, d2, d3), d1=d1, d2=d2, d3=d3)
