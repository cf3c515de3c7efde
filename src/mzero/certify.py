"""Certified separation bounds and cluster certificates.

For a multiplicity-mu zero in normalized coordinates, a universal
constant d(mu) in (0, 1) controls a punctured ball around the zero that
contains no other zero: the exclusion radius is d / (2 gamma^mu). The
constant is the minimum of three quantities; two are in closed form, the
third is the first positive root of a scalar function assembled from an
integer coefficient table.

For an approximate zero x, `certify_cluster` builds the order-mu
truncation of the system at x (exactly normalized there by construction),
measures how far the input is from that truncation, and compares against
a threshold. When the comparison holds, the ball of radius
d / (4 gamma^mu) around x contains exactly mu zeros of the original
system counted with multiplicity.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dualspace import LOOSE_NORMALIZED_RTOL
from .errors import NoRootError
from .gamma import GammaReport, LocalModel
from .numkit import matrix_spectral_norm, smallest_positive_root

# orders up to this one are cross-checked against recursive substitution
# and a 50-digit root of p in tests/test_certify.py; above it, not yet
ANCHORED_MAX = 20


@dataclass
class CoefficientTable:
    mu: int
    c: dict
    t: dict
    anchored: bool


@dataclass
class SeparationResult:
    mu: int
    d: float
    d1: float
    d2: float
    d3: float
    gamma: GammaReport = None
    bound: float = None


@dataclass
class ResidualBound:
    mu: int
    bound: float
    fy_norm: float
    distance: float
    within_radius: bool
    a_inv_norm: float
    d: float
    gamma: GammaReport = None


@dataclass
class ClusterCertificate:
    center: np.ndarray
    radius: float
    mu: int
    lhs: float
    rhs: float
    holds: bool
    h_norms: list
    a_inv_norm: float
    gamma_on_g: GammaReport
    d: float
    mode: str


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


def separation_constant(mu, tol=1e-13):
    """Universal constant d(mu) with its three ingredients.

    d3 is the first root of `p_of_d` to relative tolerance tol, taken
    from the side where p is still positive.
    """
    table = coefficient_table(mu)
    cm = table.c[(mu - 1, 1)]
    d1 = math.sqrt(1.0 / (cm * cm + 1.0))
    d2 = math.sqrt(1.0 / (mu - 1.0))
    p = p_of_d(mu, table)
    try:
        d3 = smallest_positive_root(p, d2, tol=tol)
    except NoRootError:
        d3 = smallest_positive_root(p, 1.0 - 1e-9, tol=tol)
    d = min(d1, d2, d3)
    return SeparationResult(mu=mu, d=d, d1=d1, d2=d2, d3=d3)


def separation_bound(source, x, mu=None, mode="estimate", auto_frame=True, **tolerances):
    """Exclusion radius d / (2 gamma^mu) around a normalized zero.

    Unnormalized input is moved to a normalizing frame first (distances
    are invariant under the rotation, so the radius applies unchanged in
    the original coordinates); with auto_frame off it raises
    NotNormalizedError. mu, when given, must match the detected chain
    length; tolerances (gap_tol, delta_zero_tol) go to that detection.
    """
    report = LocalModel(source, x, mu, frame=auto_frame, **tolerances).gamma(mode)
    sep = separation_constant(report.mu)
    sep.gamma = report
    sep.bound = sep.d / (2.0 * report.gamma**report.mu)
    return sep


def _a_inv_norm(model):
    s = np.linalg.svd(model.Jhat, compute_uv=False)
    inv_hat = 1.0 / float(s[-1])
    return max(inv_hat / math.sqrt(2.0), math.sqrt(2.0) / abs(model.delta_mu))


def residual_lower_bound(source, x, y, mu=None, mode="estimate", auto_frame=True):
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
    model = LocalModel(source, x, mu, frame=auto_frame)
    report = model.gamma(mode)
    mu = report.mu
    sep = separation_constant(mu)
    ainv = _a_inv_norm(model)
    r_max = sep.d / (4.0 * report.gamma**mu)
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
    chain length detected at x (tolerances, gap_tol and delta_zero_tol,
    go to that detection) and a given mu is taken as it is. A point whose
    Jacobian is not even loosely in the distinguished shape
    (`LOOSE_NORMALIZED_RTOL`) is first moved to a normalizing frame; the
    radius is the same in the original coordinates. The certificate
    compares the deviation of the system from its order-mu truncation at
    x against a threshold; `holds` reports the comparison, and the radius
    d / (4 gamma^mu) is meaningful only when it holds.
    """
    center = np.asarray(x, dtype=complex)
    model = LocalModel(
        system,
        center,
        mu,
        rel_tol=LOOSE_NORMALIZED_RTOL,
        trust_mu=True,
        **tolerances,
    )
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
    radius = sep.d / (4.0 * gamma**mu)
    lhs = float(np.linalg.norm(model.view.eval_at(model.x)))
    for k in range(1, mu):
        lhs += h_norms[k - 1] * radius**k
    ainv = _a_inv_norm(model)
    rhs = sep.d ** (mu + 1) / (2.0 * (4.0 * gamma**mu) ** mu * ainv)

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
