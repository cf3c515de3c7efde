"""Refinement thresholds: for each variant of `mzero.THRESHOLD_VARIANTS`,
its order mu and the two thresholds u_converge and u_quadratic, read from
a table. The table was generated by
`derivations.derive_threshold_constants`, which solves each variant's
rational equation, and tier-1 recomputes every entry from it bit for bit.
So no call solves an equation, and none compiles one. Plain scalar
arithmetic: this module imports no numpy and no other layer.
"""

from . import THRESHOLD_VARIANTS
from .record import Record


class ThresholdSet(Record):
    _fields = ("variant", "mu", "u_converge", "u_quadratic")


# variant -> (mu, u_converge, u_quadratic), for the variants in the order
# of mzero.THRESHOLD_VARIANTS, from `derivations.derive_threshold_constants`,
# each threshold written as the repr of its double; the refinement
# iterations themselves are mzero.VARIANTS
_THRESHOLDS = dict(zip(THRESHOLD_VARIANTS, (
    (2, 0.04181442147460075, 0.03175334717875558),
    (3, 0.022162723470933086, 0.015389030364769948),
    (3, 0.01371438771495832, 0.009823587888995462),
)))


def threshold_constants(variant):
    """Convergence and quadratic-decay thresholds for a variant, each the
    first positive root of its equation to relative tolerance 1e-12.

    u_converge solves sum-of-squares = 1 (the next error is strictly
    smaller); u_quadratic solves sum-of-squares = 1/4 (the error at step
    k shrinks by (1/2)^(2^k - 1)).
    """
    if variant not in _THRESHOLDS:
        raise ValueError(
            "variant must be one of %s" % (", ".join(THRESHOLD_VARIANTS))
        )
    mu, u_conv, u_quad = _THRESHOLDS[variant]
    return ThresholdSet(
        variant=variant, mu=mu, u_converge=u_conv, u_quadratic=u_quad
    )
