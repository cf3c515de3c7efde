"""Certified separation bounds and cluster certificates.

For a multiplicity-mu zero in normalized coordinates, a universal
constant d(mu) in (0, 1) controls a punctured ball around the zero that
contains no other zero: the exclusion radius is d / (2 gamma^mu). The
constant is read from the table of the numpy-free `constants` module;
its derivation from a coefficient table lives in `derivations`.

For an approximate zero x, `certify_cluster` builds the order-mu
truncation of the system at x (exactly normalized there by construction),
measures how far the input is from that truncation, and compares against
a threshold. When the comparison holds, the ball of radius
d / (4 gamma^mu) around x contains exactly mu zeros of the original
system counted with multiplicity.
"""

import math

import numpy as np

from .constants import separation_constant
from .errors import MathDomainError
from .gamma import LocalModel
from .numkit import matrix_spectral_norm
from .record import Record


class ResidualBound(Record):
    _fields = ("mu", "bound", "fy_norm", "distance", "within_radius", "a_inv_norm", "d",
               "gamma")


class ClusterCertificate(Record):
    _fields = ("center", "radius", "mu", "lhs", "rhs", "holds", "h_norms", "a_inv_norm",
               "gamma_on_g", "d", "mode")


def _power(base, mu):
    """base^mu of the radii and the certificate (gamma^mu, (4 gamma^mu)^mu),
    refused (MathDomainError) beyond the double range."""
    try:
        return base**mu
    except OverflowError:
        raise MathDomainError("a power of gamma, %.6g^%d, overflows a double" % (base, mu)) from None


def separation_bound(source, x, mu=None, mode="estimate", **tolerances):
    """Exclusion radius d / (2 gamma^mu) around a normalized zero.

    Unnormalized input is moved to a normalizing frame first (distances
    are invariant under the rotation, so the radius applies unchanged in
    the original coordinates). mu, when given, must match the detected
    chain length; the tolerances go to `LocalModel` (gap_tol and
    delta_zero_tol; any other name is a TypeError).
    """
    report = LocalModel(source, x, mu, **tolerances).gamma(mode)
    sep = separation_constant(report.mu)
    sep.gamma = report
    sep.bound = sep.d / (2.0 * _power(report.gamma, report.mu))
    return sep


def _a_inv_norm(model):
    inv_hat = 1.0 / float(model.Jhat.s[-1])
    return max(inv_hat / math.sqrt(2.0), math.sqrt(2.0) / abs(model.delta_mu))


def residual_lower_bound(source, x, y, mu=None, mode="estimate"):
    """Lower bound on the residual norm at y, forced by the zero at x.

    Valid for y within distance d / (4 gamma^mu) of the normalized zero
    x; the `within_radius` flag reports whether that held. Unnormalized
    input is handled as in `separation_bound`; the distance and the
    residual norm do not change under the frame, so they are taken in the
    given coordinates.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    dist = float(np.linalg.norm(y - x))
    fy = float(np.linalg.norm(source.eval_at(y)))
    model = LocalModel(source, x, mu)
    report = model.gamma(mode)
    mu = report.mu
    sep = separation_constant(mu)
    ainv = _a_inv_norm(model)
    r_max = sep.d / (4.0 * _power(report.gamma, mu))
    bound = sep.d * dist**mu / (2.0 * ainv)
    return ResidualBound(
        mu=mu,
        bound=bound,
        fy_norm=fy,
        distance=dist,
        within_radius=bool(dist <= r_max),
        a_inv_norm=ainv,
        d=sep.d,
        gamma=report,
    )


def certify_cluster(system, x, mu=None, mode="estimate", **tolerances):
    """Certificate that a ball around x holds exactly mu zeros.

    The input point should be an approximate zero; mu defaults to the
    chain length detected at x and a given mu is taken as it is. The
    tolerances go to `LocalModel` (gap_tol and delta_zero_tol; any other
    name is a TypeError). With or without mu, a point whose Jacobian
    fails the strict shape test is first moved to its normalizing frame
    (`LocalModel`'s one coordinate rule), so a certificate off the zero is
    taken in that frame, where h_norms[0] is sigma_min of the Jacobian at
    x; the radius is the same in the original coordinates. The
    certificate compares the deviation of the system from its order-mu
    truncation at x against a threshold; `holds` reports the comparison,
    and the radius d / (4 gamma^mu) is meaningful only when it holds.
    """
    center = np.asarray(x, dtype=complex)
    model = LocalModel(system, center, mu, trust_mu=True, **tolerances)
    J, mu = model.J, model.mu
    n = model.view.nvars

    # first-order deviation: everything the truncation removes at order 1
    H1 = np.zeros((n, n), dtype=complex)
    H1[: n - 1, 0] = J[: n - 1, 0]
    H1[n - 1, :] = J[n - 1, :]
    # the order-mu truncation subtracts the value, the full first-order
    # term and the pure first-variable terms of orders 2..mu-1 of the
    # last equation: its Jacobian block at x is exactly Jhat, so its
    # chain is the model's chain along e1, and the subtracted terms are
    # that chain's values below mu
    h_norms = [matrix_spectral_norm(H1)] + [abs(v[-1]) for v in model.chain[:-1]]
    report = model.gamma(mode, truncate=True)
    gamma = report.gamma

    sep = separation_constant(mu)
    g_mu = _power(gamma, mu)
    radius = sep.d / (4.0 * g_mu)
    lhs = float(np.linalg.norm(model.view.eval_at(model.x)))
    for k in range(1, mu):
        lhs += h_norms[k - 1] * radius**k
    ainv = _a_inv_norm(model)
    rhs = sep.d ** (mu + 1) / (2.0 * _power(4.0 * g_mu, mu) * ainv)

    return ClusterCertificate(
        center=center,
        radius=radius,
        mu=mu,
        lhs=lhs,
        rhs=rhs,
        holds=bool(lhs < rhs),
        h_norms=h_norms,
        a_inv_norm=ainv,
        gamma_on_g=report,
        d=sep.d,
        mode=mode,
    )
