import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mzero import NORM_MODES
from mzero.certify import certify_cluster, residual_lower_bound, separation_bound
from mzero.cli import main
from mzero.dualspace import compute_dual_basis, normalizing_frame
from mzero.errors import CorankError, InputError, MathDomainError, NotNormalizedError
from mzero.gamma import LocalModel, gamma_mu
from mzero.frames import NormalizedFrame, unitary_pullback
from mzero.newton import iterate_until
from mzero.polycore import PolySystem, parse_system

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


def test_gamma_mu_evaluates_each_order_once(monkeypatch, kernel_calls):
    system = make_normalized_system(4, 3, np.random.default_rng(31))
    x = np.zeros(4, dtype=complex)
    report = gamma_mu(system, x)
    # each half is the supremum of its per-order rows, clamped at one
    assert report.gamma_hat == max([1.0] + [r["hat"] for r in report.per_order])
    assert report.gamma_n == max([1.0] + [r["n"] for r in report.per_order])

    def refuse(self, y, k):
        raise AssertionError("an order-%d derivative tensor was built" % k)

    monkeypatch.setattr(PolySystem, "derivative_tensor", refuse)
    monkeypatch.setattr(NormalizedFrame, "derivative_tensor", refuse)
    kernel_calls.clear()
    assert gamma_mu(system, x) == report
    batches = [sorted(set(A.sum(axis=1).tolist())) for A in kernel_calls.partials]
    # one batch for the Jacobian, then one per order of the local model
    assert batches == [[1]] + [[k] for k in range(2, system.max_degree() + 1)]


def test_requires_normalized_shape(kernel_calls, ex_double):
    # the refusal runs no derivative batch of order two or more, so it
    # comes before the degree's k! limit too
    with pytest.raises(NotNormalizedError):
        gamma_mu(ex_double, ORIGIN2)
    assert kernel_calls.partials
    assert all(A.sum(axis=1).max() <= 1 for A in kernel_calls.partials)
    high = parse_system("vars: X Y\nf: X^2 - X/4 - Y/2\ng: X*Y/2 + X^171*Y")
    with pytest.raises(NotNormalizedError):
        gamma_mu(high, ORIGIN2)
    with pytest.raises(MathDomainError, match="overflows a double"):
        LocalModel(high, ORIGIN2).gamma()
    # detection comes first: an off-shape point that is not corank one
    # is refused for its corank
    system = parse_system("vars: X1 X2 X3\nf1: X1\nf2: X2^2\nf3: X3^2")
    with pytest.raises(CorankError):
        gamma_mu(system, np.zeros(3, dtype=complex))


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


def test_a_trusted_mu_off_the_shape_moves_to_the_frame(ex_double):
    # the one coordinate rule holds with or without detection: off the
    # shape a trusted mu computes in the frame, as a detected one does
    model = LocalModel(ex_double, ORIGIN2, 2, trust_mu=True)
    frame, w = normalizing_frame(ex_double, ORIGIN2)
    assert model.view is not ex_double and np.array_equal(model.x, w)
    assert model.gamma() == gamma_mu(frame, w)


@pytest.mark.parametrize("example, mu, moves", [("ex_double", 2, True), ("ex_triple", 3, False)])
def test_a_trusted_and_a_detected_mu_build_one_model(request, example, mu, moves):
    # the worked double zero moves to its frame and the triple stays; both
    # routes read the same view, Jacobian, Jhat and chain to the bit
    system = request.getfixturevalue(example)
    detected, trusted = (LocalModel(system, ORIGIN2, mu, trust_mu=t) for t in (False, True))
    assert (detected.view is not system) == moves
    assert type(detected.view) is type(trusted.view)
    for name in ("x", "J"):
        assert np.array_equal(getattr(detected, name), getattr(trusted, name))
    assert np.array_equal(detected.Jhat.A, trusted.Jhat.A)
    assert len(detected.chain) == len(trusted.chain) == mu - 1
    assert all(np.array_equal(a, b) for a, b in zip(detected.chain, trusted.chain))
    assert detected.gamma() == trusted.gamma()


TOLERANCE_CALLS = {
    "model": lambda s, mu, **kw: LocalModel(s, ORIGIN2, mu, **kw),
    "trusted-model": lambda s, mu, **kw: LocalModel(s, ORIGIN2, mu, trust_mu=True, **kw),
    "certify": lambda s, mu, **kw: certify_cluster(s, ORIGIN2, mu, **kw),
    "separation": lambda s, mu, **kw: separation_bound(s, ORIGIN2, mu, **kw),
    "refine": lambda s, mu, **kw: iterate_until(s, ORIGIN2, mu, **kw),
}


@pytest.mark.parametrize("mu", [None, 2])
@pytest.mark.parametrize("entry", sorted(TOLERANCE_CALLS))
def test_a_misspelt_tolerance_is_a_type_error(ex_double, entry, mu):
    call = TOLERANCE_CALLS[entry]
    call(ex_double, mu, gap_tol=1e-8, delta_zero_tol=1e-8)
    with pytest.raises(TypeError, match="gap_tl"):
        call(ex_double, mu, gap_tl=5)


MODE_CALLS = {
    "gamma_mu": lambda s, x, mode: gamma_mu(s, x, mode=mode),
    "separation": lambda s, x, mode: separation_bound(s, x, mode=mode),
    "residual": lambda s, x, mode: residual_lower_bound(s, x, x, mode=mode),
    "certify": lambda s, x, mode: certify_cluster(s, x, mode=mode),
}


@pytest.mark.parametrize("entry", sorted(MODE_CALLS))
def test_a_misspelt_norm_mode_is_input_error(kernel_calls, entry):
    # refused before any derivative batch above the Jacobian's order
    system = make_planted_system(3, 3, np.random.default_rng(0), coeff_scale=3.0)
    x = np.zeros(3, dtype=complex)
    for mode in NORM_MODES:
        MODE_CALLS[entry](system, x, mode)
    kernel_calls.clear()
    with pytest.raises(InputError, match="unknown norm mode 'certifed'"):
        MODE_CALLS[entry](system, x, "certifed")
    assert kernel_calls.partials and all(A.sum(axis=1).max() <= 1 for A in kernel_calls.partials)


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


def count_jacobians(kernel_calls, runs):
    """Jacobian evaluations of the input system made by each run: the
    kernel calls that read every first-order partial."""
    counts = {}
    for name, run in runs.items():
        kernel_calls.clear()
        run()
        counts[name] = len(kernel_calls.jacobians())
    return counts


def test_one_jacobian_per_call_at_a_normalized_point(
    kernel_calls, capsys, ex_triple, ex_triple_path
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
    counts = count_jacobians(kernel_calls, runs)
    capsys.readouterr()
    assert counts == dict.fromkeys(runs, 1)


def test_one_jacobian_per_call_at_an_off_shape_point(
    kernel_calls, capsys, ex_double_path
):
    # one J at the input point: the frame's SVD is taken of it, and the
    # frame's Jacobian is that J mapped by the SVD's factors
    at0 = ["--system", ex_double_path, "--point", "0,0", "--json"]
    runs = {
        "dual": lambda: main(["dual"] + at0),
        "gamma": lambda: main(["gamma"] + at0),
        "separation": lambda: main(["separation"] + at0),
        "certify": lambda: main(["certify"] + at0 + ["--mu", "2"]),
    }
    counts = count_jacobians(kernel_calls, runs)
    capsys.readouterr()
    assert counts == dict.fromkeys(runs, 1)


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


def test_local_model_takes_one_svd_per_jacobian(kernel_calls, ex_double):
    LocalModel(make_normalized_system(4, 3, np.random.default_rng(35)), np.zeros(4))
    assert kernel_calls.svd_shapes().count((4, 4)) == 1
    # off the shape: one, of the input's Jacobian, which the corank test,
    # the shape test and the frame all read; the frame's is not factored
    kernel_calls.clear()
    LocalModel(ex_double, ORIGIN2)
    assert kernel_calls.svd_shapes().count((2, 2)) == 1
    # a trusted mu takes no detection: one, of the input's Jacobian, which
    # the shape test and the frame read
    x = np.array([1e-3, 0], dtype=complex)
    kernel_calls.clear()
    assert certify_cluster(ex_double, x, mu=2).mu == 2
    assert sum(np.array_equal(A, ex_double.jacobian(x)) for A in kernel_calls.svd) == 1


def test_one_svd_of_jhat_per_bound(kernel_calls):
    # at a normalized point Jhat is the only 3 x 3 matrix factored: the
    # chain corrections, gamma_hat's solves and the certificate's sigma_min
    # all read the singular values of its one solver
    system, x = make_normalized_system(4, 4, np.random.default_rng(36)), np.zeros(4)
    for bound in (lambda: LocalModel(system, x).gamma(), lambda: separation_bound(system, x),
                  lambda: certify_cluster(system, x)):
        kernel_calls.clear()
        bound()
        assert kernel_calls.svd_shapes().count((3, 3)) == 1


@pytest.mark.parametrize("mode", ["estimate", "certified"])
def test_truncated_gamma_in_a_frame_matches_the_expanded_frame(mode):
    # off the zero the truncation removes nonzero terms along the frame's
    # first axis; the frame reads the rotated system's derivatives in the
    # original inputs, the expansion in its own, and both must agree; at w
    # neither passes the strict shape test, so each moves to its own frame
    rng = np.random.default_rng(41)
    system = unitary_pullback(
        make_normalized_system(3, 4, rng), random_unitary(3, rng), random_unitary(3, rng)
    ).materialize()
    x = 0.02 * (rng.normal(size=3) + 1j * rng.normal(size=3))
    frame, w = normalizing_frame(system, x)
    views = [frame, frame.materialize()]
    models = [LocalModel(v, w, 4, trust_mu=True) for v in views]
    reports = [model.gamma(mode, truncate=True) for model in models]
    assert reports[0].per_order != models[0].gamma(mode).per_order
    for got, want in zip(reports[0].per_order, reports[1].per_order):
        assert got["hat"] == pytest.approx(want["hat"], rel=1e-9)
        assert got["n"] == pytest.approx(want["n"], rel=1e-9)
