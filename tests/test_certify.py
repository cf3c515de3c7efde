import math

import numpy as np
import pytest

from mzero.certify import (
    certify_cluster,
    residual_lower_bound,
    separation_bound,
    separation_constant,
)
from mzero.constants import ANCHORED_MAX, coefficient_table, p_of_d, smallest_positive_root
from mzero.dualspace import normalizing_frame
from mzero.errors import InputError, MathDomainError
from mzero.polycore import parse_system

from conftest import make_planted_pair, make_planted_system, make_split_cluster

ORIGIN2 = np.zeros(2, dtype=complex)


def p2_closed_form(d):
    return 1 - 2 * d**2 - 2 * d * math.sqrt(1 - d**2) - d


def p3_closed_form(d):
    s = math.sqrt(1 - d**2)
    return (1 - 2 * d - 8 * d**2) * s - 9 * d - d**2 + 6 * d**3


def test_coefficient_table_order_two():
    tab = coefficient_table(2)
    assert tab.c == {(1, 1): 2.0, (0, 2): 1.0}
    assert tab.t == {}
    assert tab.anchored


def test_coefficient_table_order_three():
    tab = coefficient_table(3)
    assert tab.c == {(2, 1): 8.0, (1, 2): 7.0, (0, 3): 2.0}
    assert tab.t == {(1, 0): 2.0, (0, 1): 1.0}
    assert tab.anchored


def test_coefficient_table_order_four_structure():
    tab3, tab4 = coefficient_table(3), coefficient_table(4)
    # the cross-checks below anchor orders up to 20, none above
    assert tab4.anchored
    assert coefficient_table(20).anchored
    assert not coefficient_table(21).anchored
    assert all(i + j == 4 for (i, j) in tab4.c)
    assert all(1 <= i + j <= 2 for (i, j) in tab4.t)
    assert all(v > 0 for v in tab4.c.values())
    # each order folds the previous top row into the tail table
    folded = dict(tab3.t)
    folded.update({(i, j - 1): v for (i, j), v in tab3.c.items()})
    assert tab4.t == folded


def recursive_table(mu):
    """The table by literal recursive substitution, exponential in mu."""
    c, t = {}, {}

    def push(i, j, beta):
        if j == 0:
            return
        if i + j == mu:
            c[(i, j)] = c.get((i, j), 0) + beta
            return
        t[(i, j - 1)] = t.get((i, j - 1), 0) + beta
        for k in range(mu + 1):
            for l in range(mu + 1):
                if k + l >= 2 and i + k + j - 1 + l <= mu:
                    push(i + k, j - 1 + l, beta * math.comb(k + l, k))

    for s in range(2, mu + 1):
        for j in range(s + 1):
            push(s - j, j, math.comb(s, j))
    return c, t


@pytest.mark.parametrize("mu", range(2, 10))
def test_coefficient_table_matches_recursive_substitution(mu):
    tab = coefficient_table(mu)
    assert (tab.c, tab.t) == recursive_table(mu)


def test_separation_constant_matches_high_precision_root():
    # p from the same integer table, evaluated with 50 digits: d3 must sit
    # just below its first root, where p is still positive
    import mpmath

    mp = mpmath.mp
    for mu in range(2, 21):
        tab = coefficient_table(mu)

        def p(d):
            w = mp.sqrt(1 - d * d)
            total = w**mu - mp.fsum(v * w**i * d**j for (i, j), v in tab.c.items())
            tail = 1 + mp.fsum(v * w**i * d**j for (i, j), v in tab.t.items())
            return total - d * tail

        with mpmath.workdps(50):
            d3 = mp.mpf(separation_constant(mu).d3)
            assert p(d3) > 0, mu
            assert all(p(d3 * k / 16) > 0 for k in range(16)), mu
            root = mp.findroot(p, (d3, d3 * (1 + mp.mpf("1e-9"))), solver="bisect")
            assert abs(d3 - root) <= 1e-12 * root, mu


@pytest.mark.parametrize(
    "mu,closed", [(2, p2_closed_form), (3, p3_closed_form)]
)
def test_p_of_d_matches_closed_forms(mu, closed):
    p = p_of_d(mu)
    worst = max(abs(p(d) - closed(d)) for d in np.linspace(0.0, 0.9, 1001))
    assert worst <= 1e-12


def test_separation_constant_double():
    sep = separation_constant(2)
    assert sep.d1 == pytest.approx(1 / math.sqrt(5), rel=1e-12)
    assert sep.d2 == pytest.approx(1.0, rel=1e-12)
    assert sep.d == sep.d3
    assert sep.d == pytest.approx(0.2865913722489495, abs=1e-9)
    assert abs(p2_closed_form(sep.d3)) <= 1e-9


def test_separation_constant_triple():
    sep = separation_constant(3)
    assert sep.d1 == pytest.approx(1 / math.sqrt(65), rel=1e-12)
    assert sep.d2 == pytest.approx(1 / math.sqrt(2), rel=1e-12)
    assert sep.d == sep.d3
    assert sep.d == pytest.approx(0.08506946422203009, abs=1e-9)
    assert abs(p3_closed_form(sep.d3)) <= 1e-9


def test_separation_constant_higher_order_runs():
    sep = separation_constant(4)
    assert 0.0 < sep.d <= min(sep.d1, sep.d2)
    p = p_of_d(4)
    assert abs(p(sep.d3)) <= 1e-8
    # p starts positive and the root returned is the first crossing
    assert p(sep.d3 * 0.5) > 0


def test_separation_constant_refuses_orders_above_the_anchored_range():
    # the limit the CLI puts on --mu holds for library callers too; from
    # mu = 212 on, d1 would overflow a float
    with pytest.raises(InputError, match="at most 20"):
        separation_constant(21)


def test_first_scan_finds_d3_below_d2_at_every_anchored_order():
    # separation_constant scans p only over (0, d2]; an order whose first
    # root lies beyond d2 would raise NoRootError at run time
    for mu in range(2, ANCHORED_MAX + 1):
        d2 = math.sqrt(1.0 / (mu - 1.0))
        assert 0.0 < smallest_positive_root(p_of_d(mu), d2) < d2


def test_separation_bound_double_zero(ex_double):
    sep = separation_bound(ex_double, ORIGIN2)
    assert sep.mu == 2
    assert sep.bound == pytest.approx(
        sep.d / (2 * sep.gamma.gamma**2), rel=1e-12
    )
    assert sep.bound == pytest.approx(0.0447799019138983, abs=1e-9)
    # the known second zero sits at distance 1/4, outside the exclusion ball
    frame, w = normalizing_frame(ex_double, ORIGIN2)
    other = frame.to_frame(np.array([0.25, 0.0]))
    assert np.linalg.norm(other - w) == pytest.approx(0.25, abs=1e-12)
    assert np.linalg.norm(other - w) > sep.bound


def test_separation_bound_triple_zero(ex_triple):
    sep = separation_bound(ex_triple, ORIGIN2)
    assert sep.mu == 3
    assert sep.bound == pytest.approx(
        sep.d / (2 * sep.gamma.gamma**3), rel=1e-12
    )
    assert sep.d == sep.d3


def test_residual_lower_bound_holds_on_samples(ex_triple):
    rng = np.random.default_rng(41)
    for _ in range(25):
        y = rng.normal(size=2) + 1j * rng.normal(size=2)
        y *= rng.uniform(0.0005, 0.007) / np.linalg.norm(y)
        res = residual_lower_bound(ex_triple, ORIGIN2, y)
        assert res.within_radius
        assert res.fy_norm >= res.bound * (1 - 1e-9)
        assert res.bound == pytest.approx(
            res.d * res.distance**3 / (2 * res.a_inv_norm), rel=1e-12
        )


def test_residual_lower_bound_flags_far_points(ex_triple):
    res = residual_lower_bound(ex_triple, ORIGIN2, np.array([0.05, 0.05]))
    assert not res.within_radius


def test_residual_lower_bound_through_frames(ex_double):
    # unnormalized input goes through the same rotation as the bound itself
    y = np.array([0.001, -0.002])
    res = residual_lower_bound(ex_double, ORIGIN2, y)
    assert res.mu == 2
    assert res.distance == pytest.approx(np.linalg.norm(y), abs=1e-12)
    assert res.fy_norm >= res.bound * (1 - 1e-9)


def test_certificate_at_exact_zero(ex_triple):
    cert = certify_cluster(ex_triple, ORIGIN2)
    assert cert.mu == 3
    assert cert.holds
    assert cert.lhs <= 1e-12
    assert cert.rhs > 0
    assert cert.radius == pytest.approx(
        cert.d / (4 * cert.gamma_on_g.gamma**3), rel=1e-12
    )
    assert cert.radius == pytest.approx(0.00767634, abs=1e-6)
    # the truncation drops nothing at an exact zero of this system
    assert cert.h_norms[0] <= 1e-12
    assert abs(cert.h_norms[1]) <= 1e-12


def test_certificate_moves_off_shape_point_to_a_frame(ex_double):
    # the Jacobian of the double zero at the origin has a nonzero first
    # column; unframed, the certificate had radius 0 and gamma inf
    cert = certify_cluster(ex_double, ORIGIN2, mu=2)
    assert cert.holds
    assert cert.radius == pytest.approx(0.0223899, abs=1e-6)
    assert cert.gamma_on_g.gamma == pytest.approx(4 / math.sqrt(5), abs=1e-10)
    assert np.array_equal(cert.center, ORIGIN2)


def test_certificate_mu_below_two_is_input_error(ex_triple):
    with pytest.raises(InputError, match="mu >= 2"):
        certify_cluster(ex_triple, ORIGIN2, mu=1)


def test_certificate_formula_consistency(ex_triple):
    # mu is supplied: thresholded detection at an approximate zero sees the
    # chain break immediately, the order is established at the zero itself
    cert = certify_cluster(ex_triple, np.array([-4.1291e-8, -2.9505e-8]), mu=3)
    manual = cert.d ** 4 / (2 * (4 * cert.gamma_on_g.gamma**3) ** 3 * cert.a_inv_norm)
    assert cert.rhs == pytest.approx(manual, rel=1e-12)
    fx = float(np.linalg.norm(ex_triple.eval_at(np.array([-4.1291e-8, -2.9505e-8]))))
    manual_lhs = fx + cert.h_norms[0] * cert.radius + cert.h_norms[1] * cert.radius**2
    assert cert.lhs == pytest.approx(manual_lhs, rel=1e-12)
    assert cert.holds == (cert.lhs < cert.rhs)


def test_certificate_certified_mode_is_no_stronger(ex_triple):
    est = certify_cluster(ex_triple, ORIGIN2, mode="estimate")
    cert = certify_cluster(ex_triple, ORIGIN2, mode="certified")
    assert cert.gamma_on_g.gamma >= est.gamma_on_g.gamma * (1 - 1e-12)
    assert cert.radius <= est.radius * (1 + 1e-12)


def test_mu_two_has_no_intermediate_orders(ex_double):
    frame, w = normalizing_frame(ex_double, ORIGIN2)
    flat = frame.materialize()
    cert = certify_cluster(flat, w)
    assert cert.mu == 2
    assert len(cert.h_norms) == 1  # only the first-order deviation block
    assert cert.holds


def test_vanishing_terminating_value_is_domain_error():
    # a trusted mu = 3, but the chain of (X1^2, X2) ends at order 2: its
    # order-3 value is exactly zero and no bound can divide by it
    system = parse_system("vars: X1 X2; f1: X1^2; f2: X2")
    with pytest.raises(MathDomainError, match="delta_mu is 0 at order 3"):
        certify_cluster(system, ORIGIN2, mu=3)


@pytest.mark.parametrize("n, mu", [(n, mu) for n in (2, 3) for mu in range(2, 9)])
def test_separation_radius_excludes_the_second_planted_zero(n, mu):
    # the exclusion radius around the planted multiple zero at the origin
    # must not reach the simple zero at phi^-1(0.1 e1)
    system, second = make_planted_pair(n, mu, np.random.default_rng(0), c=0.1)
    assert np.linalg.norm(system.eval_at(second)) < 1e-12
    sep = separation_bound(system, np.zeros(n, dtype=complex))
    assert sep.mu == mu
    assert sep.bound < np.linalg.norm(second)


@pytest.mark.parametrize("n, mu", [(n, mu) for n in (2, 3) for mu in (2, 3, 4, 5, 6, 7, 8)])
def test_certified_ball_holds_the_cluster_and_not_the_second_zero(n, mu):
    # split the planted zero by eps = rhs / 10 of its own certificate at
    # the origin: the certificate there must still hold, its ball must
    # hold all mu zeros of the cluster, and the simple zero at
    # phi^-1(0.1 e1) must lie outside it
    x = np.zeros(n, dtype=complex)
    system, _ = make_planted_pair(n, mu, np.random.default_rng(0), c=0.1)
    eps = certify_cluster(system, x).rhs / 10
    system, cluster, second, phi = make_split_cluster(
        n, mu, np.random.default_rng(0), eps, c=0.1)
    at_center = np.linalg.norm(system.eval_at(x))
    for i, z in enumerate(cluster):
        # from mu = 5 on, the rounding of g at z (about 1e-16 |z|) is above
        # |g(0)| = 0.1 eps, so the zero is checked in Y = phi(z), where g
        # is (Y_2, ..., Y_n, (Y_1^mu - eps)(0.1 - Y_1))
        if mu <= 4:
            assert np.linalg.norm(system.eval_at(z)) <= 1e-6 * at_center
        y = phi.eval_at(z)
        assert np.linalg.norm(y[1:]) <= 1e-12 * abs(y[0])
        assert abs(y[0] ** mu / eps - 1) <= 1e-12
        assert min(np.linalg.norm(z - w) for w in cluster[:i] + cluster[i + 1 :]) > 0
    assert np.linalg.norm(system.eval_at(second)) < 1e-15
    cert = certify_cluster(system, x, mu=mu)
    assert cert.holds
    assert max(np.linalg.norm(z) for z in cluster) < cert.radius
    assert np.linalg.norm(second) > cert.radius


@pytest.mark.parametrize("n, seed", [(n, seed) for n in (2, 3) for seed in (0, 7)])
def test_order_five_certificate_off_the_zero(n, seed):
    # at x = (s, s/2, 0, ...) near the planted zero, lhs is about s/2 and
    # rhs about 5.7e-18 (6.1e-19 for n = 3, seed 7): the certificate holds
    # at s = 1e-20 and not at s = 1e-16
    system = make_planted_system(n, 5, np.random.default_rng(seed))
    for s, holds in ((1e-20, True), (1e-16, False)):
        x = np.zeros(n, dtype=complex)
        x[:2] = s, s / 2
        cert = certify_cluster(system, x)
        assert cert.mu == 5
        assert cert.lhs == pytest.approx(s / 2, rel=0.01)
        assert 5e-19 < cert.rhs < 6e-18
        assert cert.holds is holds
