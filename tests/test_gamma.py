import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mzero.certify import certify_cluster, separation_bound
from mzero.cli import main
from mzero.dualspace import compute_dual_basis, normalizing_frame
from mzero.errors import InputError, NotNormalizedError
from mzero.gamma import LocalModel, gamma_mu
from mzero.frames import NormalizedFrame, unitary_pullback
from mzero.polycore import PolySystem

from conftest import make_normalized_system, make_planted_system, random_unitary

ORIGIN2 = np.zeros(2, dtype=complex)


def test_triple_zero_invariants(ex_triple):
    report = gamma_mu(ex_triple, ORIGIN2)
    assert report.mu == 3
    assert report.gamma_hat == pytest.approx(12 / math.sqrt(73), abs=1e-10)
    assert report.gamma == max(report.gamma_hat, report.gamma_n)
    assert report.delta_mu == pytest.approx(192.0, rel=1e-9)


def test_triple_zero_leading_block_by_hand(ex_triple):
    # the quadratic part of the first equation is a rank-one form, so the
    # preconditioned second-order block has an exact spectral norm
    J = ex_triple.jacobian(ORIGIN2)
    Jhat = J[:1, 1:]
    T = ex_triple.derivative_tensor(ORIGIN2, 2)[:1] / 2.0
    M = np.linalg.solve(Jhat, T.reshape(1, -1)).reshape(T.shape)
    ref = np.linalg.svd(M.reshape(-1, 2), compute_uv=False)[0]
    report = gamma_mu(ex_triple, ORIGIN2)
    assert report.gamma_hat == pytest.approx(max(1.0, ref), rel=1e-12)
    assert report.per_order[0]["order"] == 2


def test_triple_zero_last_equation_by_hand(ex_triple):
    basis = compute_dual_basis(ex_triple, ORIGIN2)
    delta = basis.delta_values[-1][-1]
    T = ex_triple.derivative_tensor(ORIGIN2, 3)[1:] / 6.0
    ref = np.linalg.svd(T.reshape(-1, 2), compute_uv=False)[0] / abs(delta)
    got = gamma_mu(ex_triple, ORIGIN2, mu=3).gamma_n
    assert got == pytest.approx(max(1.0, math.sqrt(ref)), rel=1e-8)


def test_per_order_rows_expose_vanishing_blocks(ex_triple):
    report = gamma_mu(ex_triple, ORIGIN2)
    by_order = {row["order"]: row for row in report.per_order}
    # the last equation is a pure cubic and the first is a quadratic
    assert by_order[2]["n"] == 0.0
    assert by_order[3]["hat"] == 0.0
    assert by_order[2]["hat"] > 1.0
    assert by_order[3]["n"] > 1.0


def test_double_zero_after_normalization(ex_double):
    frame, w = normalizing_frame(ex_double, ORIGIN2)
    report = gamma_mu(frame, w)
    assert report.mu == 2
    assert report.gamma == pytest.approx(4 / math.sqrt(5), abs=1e-10)


def test_gamma_mu_evaluates_each_order_once(monkeypatch):
    system = make_normalized_system(4, 3, np.random.default_rng(31))
    x = np.zeros(4, dtype=complex)
    report = gamma_mu(system, x)
    # each half is the supremum of its per-order rows, clamped at one
    assert report.gamma_hat == max([1.0] + [r["hat"] for r in report.per_order])
    assert report.gamma_n == max([1.0] + [r["n"] for r in report.per_order])
    batches = []
    evaluate = PolySystem.partials

    def counted(self, alphas, y):
        batches.append(sorted(set(np.asarray(alphas).sum(axis=1).tolist())))
        return evaluate(self, alphas, y)

    def refuse(self, y, k):
        raise AssertionError("an order-%d derivative tensor was built" % k)

    monkeypatch.setattr(PolySystem, "partials", counted)
    monkeypatch.setattr(PolySystem, "derivative_tensor", refuse)
    monkeypatch.setattr(NormalizedFrame, "derivative_tensor", refuse)
    assert gamma_mu(system, x) == report
    # one batch for the Jacobian, then one per order of the local model
    assert batches == [[1]] + [[k] for k in range(2, system.max_degree() + 1)]


def test_requires_normalized_shape(ex_double):
    with pytest.raises(NotNormalizedError):
        gamma_mu(ex_double, ORIGIN2)


def test_local_model_moves_off_shape_point(ex_double):
    frame, w = normalizing_frame(ex_double, ORIGIN2)
    model = LocalModel(ex_double, ORIGIN2)
    assert np.array_equal(model.x, w)
    assert np.array_equal(model.J, model.view.jacobian(model.x))
    assert model.gamma() == gamma_mu(frame, w)
    with pytest.raises(InputError):
        LocalModel(ex_double, ORIGIN2, mu=3)
    # a normalized point is used as it is
    x = np.zeros(3, dtype=complex)
    system = make_normalized_system(3, 3, np.random.default_rng(34))
    model = LocalModel(system, x)
    assert model.view is system and np.array_equal(model.x, x)
    assert np.array_equal(model.J, system.jacobian(x))


def test_mu_mismatch_is_rejected(ex_triple):
    with pytest.raises(ValueError):
        gamma_mu(ex_triple, ORIGIN2, mu=2)
    with pytest.raises(ValueError):
        gamma_mu(ex_triple, ORIGIN2, mu=4)


def test_trusted_mu_below_two_is_input_error(ex_triple):
    with pytest.raises(InputError, match="mu >= 2"):
        LocalModel(ex_triple, ORIGIN2, mu=0, trust_mu=True)


def test_certified_mode_dominates_estimate():
    rng = np.random.default_rng(31)
    sys_ = make_normalized_system(3, 3, rng)
    est = gamma_mu(sys_, np.zeros(3, dtype=complex), mode="estimate")
    cert = gamma_mu(sys_, np.zeros(3, dtype=complex), mode="certified")
    assert cert.gamma >= est.gamma * (1 - 1e-12)
    assert cert.mode == "certified"


def test_floor_at_one():
    # a nearly linear system has tiny higher coefficients, the invariant
    # clamps at one rather than dropping below it
    rng = np.random.default_rng(32)
    sys_ = make_normalized_system(2, 2, rng, coeff_scale=1e-6)
    report = gamma_mu(sys_, ORIGIN2)
    assert 1.0 <= report.gamma <= 1.0 + 1e-9


def test_supremum_over_unit_directions():
    # the unfolding norm used per order equals the best contraction along a
    # unit direction; sampled directions must stay below it and get close
    rng = np.random.default_rng(33)
    sys_ = make_normalized_system(2, 2, rng)
    report = gamma_mu(sys_, ORIGIN2)
    J = sys_.jacobian(ORIGIN2)
    Jhat = J[:1, 1:]
    T = sys_.derivative_tensor(ORIGIN2, 2)[:1] / 2.0
    pre = np.linalg.solve(Jhat, T.reshape(1, -1)).reshape(T.shape)
    best = 0.0
    for _ in range(20000):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        best = max(best, float(np.linalg.norm(pre @ v)))
    hat_row = {r["order"]: r for r in report.per_order}[2]["hat"]
    assert best <= hat_row * (1 + 1e-9)
    assert best >= hat_row * 0.98


def count_jacobians(monkeypatch, runs):
    """Jacobian evaluations of the input system made by each run."""
    calls = []
    evaluate = PolySystem.jacobian

    def counted(self, y):
        calls.append(1)
        return evaluate(self, y)

    monkeypatch.setattr(PolySystem, "jacobian", counted)
    counts = {}
    for name, run in runs.items():
        calls.clear()
        run()
        counts[name] = len(calls)
    return counts


def test_one_jacobian_per_call_at_a_normalized_point(
    monkeypatch, capsys, ex_triple, ex_triple_path
):
    # the local model evaluates J once and hands it to the chain detection
    runs = {
        "gamma_mu": lambda: gamma_mu(ex_triple, ORIGIN2),
        "separation_bound": lambda: separation_bound(ex_triple, ORIGIN2),
        "certify_cluster": lambda: certify_cluster(ex_triple, ORIGIN2),
        "cli gamma": lambda: main(
            ["gamma", "--system", ex_triple_path, "--point", "0,0", "--json"]
        ),
    }
    counts = count_jacobians(monkeypatch, runs)
    capsys.readouterr()
    assert counts == dict.fromkeys(runs, 1)


def test_two_jacobians_per_call_at_an_off_shape_point(
    monkeypatch, capsys, ex_double_path
):
    # one J at the input point, which the frame reuses, and one of the
    # frame at the point's frame coordinates
    at0 = ["--system", ex_double_path, "--point", "0,0", "--json"]
    runs = {
        "gamma": lambda: main(["gamma"] + at0),
        "separation": lambda: main(["separation"] + at0),
        "certify": lambda: main(["certify"] + at0 + ["--mu", "2"]),
    }
    counts = count_jacobians(monkeypatch, runs)
    capsys.readouterr()
    assert counts == dict.fromkeys(runs, 2)


def assert_local_model_is_unitary_and_shift_invariant(build, n, mu, seed):
    # g(Y) = U^H f(W (Y - s)) has the zero of f at the origin moved to s and
    # rotated out of the distinguished shape; the model reaches it through
    # a normalizing frame, and every bound must come out as at the origin
    rng = np.random.default_rng(seed)
    system = build(n, mu, rng)
    U, W = random_unitary(n, rng), random_unitary(n, rng)
    s = rng.normal(size=n) + 1j * rng.normal(size=n)
    moved = unitary_pullback(system, U, W).materialize().shift(-s)
    x = np.zeros(n, dtype=complex)

    report = gamma_mu(system, x)
    sep = separation_bound(system, x)
    cert = certify_cluster(system, x)
    moved_sep = separation_bound(moved, s)
    moved_cert = certify_cluster(moved, s)
    assert report.mu == mu
    assert moved_sep.mu == moved_cert.mu == mu
    assert moved_sep.gamma.gamma == pytest.approx(report.gamma, rel=1e-9)
    assert moved_sep.bound == pytest.approx(sep.bound, rel=1e-9)
    assert moved_cert.radius == pytest.approx(cert.radius, rel=1e-9)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.sampled_from([2, 3, 4]),
    st.sampled_from([2, 3, 4]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_local_model_is_unitary_and_shift_invariant(n, mu, seed):
    assert_local_model_is_unitary_and_shift_invariant(make_normalized_system, n, mu, seed)


@pytest.mark.parametrize("n, mu", [(2, 5), (2, 6), (3, 5)])
def test_local_model_is_unitary_and_shift_invariant_above_order_four(n, mu):
    # one seed: the moved system is expanded in doubles, which perturbs the
    # multiple zero; for some seeds (and for (2, 8) with this one) the
    # perturbation is above the default tolerances, and detection finds a
    # shorter chain or no corank-one Jacobian
    assert_local_model_is_unitary_and_shift_invariant(make_planted_system, n, mu, 1)


def test_local_model_takes_one_svd_per_jacobian(monkeypatch, ex_double):
    shapes, factor = [], np.linalg.svd

    def counted(A, *args, **kwargs):
        shapes.append(np.shape(A))
        return factor(A, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    LocalModel(make_normalized_system(4, 3, np.random.default_rng(35)), np.zeros(4))
    assert shapes.count((4, 4)) == 1
    # off the shape: one of the input's Jacobian and one of the frame's
    shapes.clear()
    LocalModel(ex_double, ORIGIN2)
    assert shapes.count((2, 2)) == 2


def test_one_svd_of_jhat_per_bound(monkeypatch):
    # at a normalized point Jhat is the only 3 x 3 matrix factored: the
    # chain corrections, gamma_hat's solves and the certificate's sigma_min
    # all read the singular values of its one solver
    system, x = make_normalized_system(4, 4, np.random.default_rng(36)), np.zeros(4)
    shapes, factor = [], np.linalg.svd

    def counted(A, *args, **kwargs):
        shapes.append(np.shape(A))
        return factor(A, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    for bound in (lambda: LocalModel(system, x).gamma(), lambda: separation_bound(system, x),
                  lambda: certify_cluster(system, x)):
        shapes.clear()
        bound()
        assert shapes.count((3, 3)) == 1


@pytest.mark.parametrize("mode", ["estimate", "certified"])
def test_truncated_gamma_in_a_frame_matches_the_expanded_frame(mode):
    # off the zero the truncation removes nonzero terms along the frame's
    # first axis; the frame reads the rotated system's derivatives in the
    # original inputs, the expansion in its own, and both must agree
    rng = np.random.default_rng(41)
    system = unitary_pullback(
        make_normalized_system(3, 4, rng), random_unitary(3, rng), random_unitary(3, rng)
    ).materialize()
    x = 0.02 * (rng.normal(size=3) + 1j * rng.normal(size=3))
    frame, w = normalizing_frame(system, x)
    views = [frame, frame.materialize()]
    models = [LocalModel(v, w, 4, frame=False, rel_tol=0.1, trust_mu=True) for v in views]
    reports = [model.gamma(mode, truncate=True) for model in models]
    assert reports[0].per_order != models[0].gamma(mode).per_order
    for got, want in zip(reports[0].per_order, reports[1].per_order):
        assert got["hat"] == pytest.approx(want["hat"], rel=1e-9)
        assert got["n"] == pytest.approx(want["n"], rel=1e-9)
