import math

import numpy as np
import pytest

import mzero
from mzero import derivations
from mzero.thresholds import threshold_constants
from mzero.dualspace import normalizing_frame
from mzero.errors import InputError
from mzero.frames import unitary_pullback
from mzero.newton import (
    VARIANTS,
    iterate_until,
    n1_step,
    refine_double,
    refine_general,
    refine_triple,
    value_and_jacobian,
)
from mzero.numkit import svd
from mzero.polycore import parse_system

from conftest import make_normalized_system, make_planted_system, random_unitary

START = np.array([-0.01, 0.01], dtype=complex)


# ---------------------------------------------------------------------------
# threshold constants


@pytest.mark.parametrize(
    "variant,conv,quad",
    [
        ("normalized_double", 0.041814421474919074, 0.0317533471785282),
        ("normalized_triple", 0.022162723471046773, 0.015389030364531207),
        ("general_triple", 0.01371438771529938, 0.0098235878894047356),
    ],
)
def test_threshold_values(variant, conv, quad):
    ts = threshold_constants(variant)
    assert ts.u_converge == pytest.approx(conv, abs=1e-10)
    assert ts.u_quadratic == pytest.approx(quad, abs=1e-10)
    assert ts.u_quadratic < ts.u_converge


@pytest.mark.parametrize(
    "variant, conv, quad",
    [
        ("normalized_double", "0x1.568b32978199ap-5", "0x1.041f98757b334p-5"),
        ("normalized_triple", "0x1.6b1d331fde666p-6", "0x1.f8448b1121998p-7"),
        ("general_triple", "0x1.c1649f5c36666p-7", "0x1.41e63a5b370a4p-7"),
    ],
)
def test_threshold_values_keep_every_bit(variant, conv, quad):
    # reorganizing the equations must not move a threshold by one ulp
    ts = threshold_constants(variant)
    assert (ts.u_converge.hex(), ts.u_quadratic.hex()) == (conv, quad)


@pytest.mark.parametrize("variant", mzero.THRESHOLD_VARIANTS)
def test_threshold_table_keeps_every_bit_of_its_derivation(variant):
    # every call reads the table; the derivation from the equations is its
    # reference
    read = threshold_constants(variant)
    derived = derivations.derive_threshold_constants(variant)
    assert (read.variant, read.mu) == (derived.variant, derived.mu)
    assert (read.u_converge.hex(), read.u_quadratic.hex()) == (
        derived.u_converge.hex(), derived.u_quadratic.hex())


def test_threshold_solves_its_equation():
    for variant in ("normalized_double", "normalized_triple"):
        ts = threshold_constants(variant)
        second = derivations._b23 if variant == "normalized_double" else derivations._b33
        for u, target in ((ts.u_converge, 1.0), (ts.u_quadratic, 0.25)):
            value = 2 * derivations._b21(u) ** 2 + 2 * second(u) ** 2
            assert value == pytest.approx(target, abs=1e-9)


def test_general_threshold_solves_its_equation():
    ts = threshold_constants("general_triple")
    for u, target in ((ts.u_converge, 1.0), (ts.u_quadratic, 0.25)):
        value = derivations._general_eq(u)
        assert value == pytest.approx(target, abs=1e-9)


def test_threshold_constants_unknown_variant():
    with pytest.raises(ValueError):
        threshold_constants("cubic")


# ---------------------------------------------------------------------------
# single steps on decoupled model systems


def test_double_step_is_exact_on_model():
    sys_ = parse_system("vars: X1 X2\nf1: X2\nf2: X1^2")
    for z in [np.array([0.3, 0.2]), np.array([0.05 - 0.02j, -0.04 + 0.01j])]:
        out = refine_double(sys_, z, *value_and_jacobian(sys_, z))
        assert np.linalg.norm(out) <= 1e-15


def test_triple_step_is_exact_on_model():
    sys_ = parse_system("vars: X1 X2\nf1: X2\nf2: X1^3")
    for z in [np.array([0.2, 0.1]), np.array([-0.03 + 0.01j, 0.02])]:
        out = refine_triple(sys_, z, *value_and_jacobian(sys_, z))
        assert np.linalg.norm(out) <= 1e-15


def test_general_step_matches_model():
    sys_ = parse_system("vars: X1 X2\nf1: X2\nf2: X1^2")
    z = np.array([0.05, 0.03])
    out = refine_general(sys_, z, *value_and_jacobian(sys_, z), mu=2)
    assert np.linalg.norm(out) <= 1e-12


def test_n1_step_clears_trailing_residual():
    rng = np.random.default_rng(61)
    sys_ = make_normalized_system(3, 2, rng)
    z = np.array([1e-3, 2e-3, -1e-3], dtype=complex)
    y = n1_step(z, *value_and_jacobian(sys_, z))
    # the leading coordinate is untouched, the rest take a Newton update
    assert y[0] == z[0]
    resid_before = np.linalg.norm(sys_.eval_at(z)[:2])
    resid_after = np.linalg.norm(sys_.eval_at(y)[:2])
    assert resid_after < resid_before * 0.01


# ---------------------------------------------------------------------------
# the worked triple zero


def test_triple_iteration_trace(ex_triple):
    trace = iterate_until(ex_triple, START, mu=3, variant="normalized_triple")
    assert trace.converged
    assert trace.stop_reason == "tolerance"
    assert trace.mu == 3
    two = trace.iterates[2]
    assert two[0] == pytest.approx(-4.12918259e-8, abs=5e-12)
    assert two[1] == pytest.approx(-2.95058179e-8, abs=5e-12)
    assert np.linalg.norm(trace.iterates[-1]) <= 1e-10


def test_general_iteration_trace(ex_triple):
    trace = iterate_until(ex_triple, START, mu=3, variant="general")
    assert trace.converged
    assert trace.stop_reason == "tolerance"
    norms = [np.linalg.norm(z) for z in trace.iterates]
    assert norms[1] == pytest.approx(5.198e-4, rel=1e-3)
    assert norms[2] == pytest.approx(5.572e-8, rel=1e-3)
    assert norms[-1] <= 1e-10
    # each step contracts roughly quadratically
    assert norms[2] <= norms[1] ** 2 * 10
    assert norms[3] <= norms[2] ** 2 * 10


def test_zero_iteration_trace(ex_triple):
    trace = iterate_until(ex_triple, np.zeros(2), mu=3)
    assert trace.converged
    assert trace.stop_reason == "tolerance"
    assert len(trace.iterates) == 1
    assert trace.variant == "normalized_triple"


def test_auto_variant_prefers_general_off_shape(ex_triple):
    # away from the zero the Jacobian leaves the distinguished shape, the
    # loose check fails and the frame-based iteration takes over
    trace = iterate_until(ex_triple, START, mu=3)
    assert trace.variant == "general"


def test_detection_and_variant_choice_share_one_jacobian(kernel_calls):
    # without mu, the Jacobian at z0 and its SVD serve both the chain
    # detection and the auto variant's shape test
    system = make_normalized_system(4, 3, np.random.default_rng(35))
    trace = iterate_until(system, np.zeros(4), max_iter=0)
    assert (trace.mu, trace.variant) == (3, "normalized_triple")
    assert kernel_calls.svd_shapes().count((4, 4)) == 1
    assert len(kernel_calls.jacobians()) == 1


@pytest.mark.parametrize("variant", ["normalized_double", "normalized_triple", "general", "auto"])
def test_three_steps_take_seven_kernel_calls(kernel_calls, ex_triple, variant):
    # one call reads f and J at each of the four iterates, and it serves the
    # residual, the auto variant's shape test and the next step; each step
    # makes one more, at its own point y
    mu, system, z = 3, ex_triple, START
    if variant == "normalized_double":
        rng = np.random.default_rng(62)
        mu, system = 2, make_normalized_system(3, 2, rng)
        z = 1e-3 * (rng.normal(size=3) + 1j * rng.normal(size=3))
    trace = iterate_until(system, z, mu=mu, variant=variant, eps=1e-300, max_iter=3)
    assert (len(trace.iterates), trace.stop_reason) == (4, "max_iter")
    assert len(kernel_calls.partials) == 7
    # the order-two step reads only the kernel direction's partials at y
    assert len(kernel_calls.jacobians()) == (4 if variant == "normalized_double" else 7)


def test_a_frame_reads_f_and_j_in_one_call_on_its_system(kernel_calls, ex_triple):
    # one kernel call at W z with the multi-indices 0, e1, e2, no dense tensor
    rng = np.random.default_rng(63)
    frame = unitary_pullback(ex_triple, random_unitary(2, rng), random_unitary(2, rng))
    z = frame.W.conj().T @ START
    fz, J = value_and_jacobian(frame, z)
    assert [A.tolist() for A in kernel_calls.partials] == [[[0, 0], [1, 0], [0, 1]]]
    assert np.allclose(fz, frame.eval_at(z), rtol=0, atol=1e-15)
    assert np.allclose(J, frame.jacobian(z), rtol=0, atol=1e-14)


def test_detection_off_the_shape_finds_the_multiplicity():
    # a triple zero whose kernel is X2 is detected in the normalizing frame
    system = parse_system("vars: X1 X2\nf1: X1 + X2^2\nf2: X2^3\n")
    trace = iterate_until(system, np.zeros(2))
    assert (trace.mu, trace.variant, trace.stop_reason) == (3, "general", "tolerance")


def test_variant_mu_mismatch(ex_triple):
    with pytest.raises(ValueError):
        iterate_until(ex_triple, START, mu=3, variant="normalized_double")
    with pytest.raises(ValueError):
        iterate_until(ex_triple, START, mu=3, variant="thirdorder")


def test_unknown_variant_is_refused_before_any_kernel_call(kernel_calls, ex_triple):
    # at START the detection would raise CorankError first; the name is
    # checked before any evaluation, with mu or without
    for mu in (None, 3):
        with pytest.raises(InputError, match="unknown variant 'bogus'"):
            iterate_until(ex_triple, START, mu=mu, variant="bogus")
    assert kernel_calls.partials == [] and kernel_calls.svd == []


def test_mu_below_two_is_input_error(ex_triple):
    # also at a point that already meets the tolerance, where no step runs
    for z in (START, np.zeros(2, dtype=complex)):
        with pytest.raises(InputError, match="mu >= 2"):
            iterate_until(ex_triple, z, mu=1, variant="general")
    # a step takes mu as given: none is refused, not detected
    for mu in (1, None):
        with pytest.raises(InputError, match="mu >= 2"):
            refine_general(ex_triple, START, *value_and_jacobian(ex_triple, START), mu)


def test_variants_tuple():
    assert set(VARIANTS) == {"normalized_double", "normalized_triple", "general"}


# ---------------------------------------------------------------------------
# stop reasons


def test_singular_step_stop():
    sys_ = parse_system("vars: X1 X2\nf1: X2^2\nf2: X1^2")
    trace = iterate_until(
        sys_, np.array([0.1, 0.0]), mu=2, variant="normalized_double"
    )
    assert not trace.converged
    assert trace.stop_reason == "singular_step"
    assert trace.warnings


def test_divergence_stop():
    sys_ = parse_system("vars: X1 X2\nf1: X2 + X1^2\nf2: X1^2 + 10*X1*X2")
    trace = iterate_until(
        sys_,
        np.array([1.0, 0.1]),
        mu=2,
        variant="normalized_double",
        eps=1e-14,
        max_iter=30,
    )
    assert not trace.converged
    assert trace.stop_reason == "divergence"


def test_stagnation_stop(ex_double):
    # mu = 3 at a double zero: the steps shrink below eps while the residual
    # stays near 1.19e-3, which is not convergence
    trace = iterate_until(ex_double, START, mu=3, variant="general")
    assert not trace.converged
    assert trace.stop_reason == "stagnation"
    assert trace.step_norms[-1] <= 1e-10
    assert trace.residual_norms[-1] == pytest.approx(1.186e-3, rel=1e-2)


def test_max_iter_stop(ex_triple):
    trace = iterate_until(
        ex_triple, START, mu=3, variant="normalized_triple", eps=1e-16, max_iter=1
    )
    assert not trace.converged
    assert trace.stop_reason == "max_iter"
    assert len(trace.iterates) == 2


# ---------------------------------------------------------------------------
# contraction on constructed zeros


@pytest.mark.parametrize("n", [2, 3, 4])
def test_double_contraction(n):
    rng = np.random.default_rng(70 + n)
    sys_ = make_normalized_system(n, 2, rng)
    z = np.zeros(n, dtype=complex)
    z += 1e-3 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    for _ in range(3):
        z = refine_double(sys_, z, *value_and_jacobian(sys_, z))
    assert np.linalg.norm(z) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_triple_contraction(n):
    rng = np.random.default_rng(80 + n)
    sys_ = make_normalized_system(n, 3, rng)
    z = np.zeros(n, dtype=complex)
    z += 1e-3 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    for _ in range(3):
        z = refine_triple(sys_, z, *value_and_jacobian(sys_, z))
    assert np.linalg.norm(z) <= 1e-11


def test_general_step_tests_jhat_at_y_once(kernel_calls):
    # the shear direction, the chain corrections and the transposed solve
    # for the left vector u at y share one solver's singular values
    rng = np.random.default_rng(37)
    system = unitary_pullback(make_normalized_system(4, 4, rng), random_unitary(4, rng),
                              random_unitary(4, rng))
    z = 1e-2 * (rng.normal(size=4) + 1j * rng.normal(size=4))
    fz, J = value_and_jacobian(system, z)
    # the step's Jhat: f and J at z move into the frame by the factors of
    # J's SVD, the kernel-most right singular vector first
    res = svd(J)
    frame, w = normalizing_frame(system, z, res)
    Uh, W = res.U.conj().T, res.V[:, [3, 0, 1, 2]]
    Jhat = frame.jacobian(n1_step(w, Uh @ fz, Uh @ J @ W))[:3, 1:]
    kernel_calls.clear()
    refine_general(system, z, fz, J, 4)
    assert sum(np.array_equal(A, Jhat) for A in kernel_calls.svd) == 1
    assert sum(np.array_equal(A, Jhat.T) for A in kernel_calls.svd) == 0


@pytest.mark.parametrize("mu", [3, 4])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_general_contraction_rotated(n, mu):
    # the zero is neither at the origin nor in the distinguished shape, so
    # the step has to find the kernel direction at every intermediate point
    rng = np.random.default_rng(90 + 10 * mu + n)
    base = make_normalized_system(n, mu, rng)
    rotated = unitary_pullback(
        base, random_unitary(n, rng), random_unitary(n, rng)
    ).materialize()
    xi = 0.3 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    moved = rotated.shift(-xi)
    direction = rng.normal(size=n) + 1j * rng.normal(size=n)
    z = xi + 1e-3 * direction / np.linalg.norm(direction)
    errs = []
    for _ in range(3):
        z = refine_general(moved, z, *value_and_jacobian(moved, z), mu)
        errs.append(np.linalg.norm(z - xi))
    # roughly quadratic contraction down to rounding level
    assert errs[1] <= errs[0] ** 2 * 10 + 1e-14
    assert errs[2] <= 1e-12


@pytest.mark.parametrize("mu", [5, 6, 7, 8])
def test_general_contraction_order_on_planted_zeros(mu):
    # the paper claims quadratic convergence with no rate constant: the order
    # read from the last three errors above the rounding floor is near two,
    # on the planted system and on a unitary pullback of it
    rng = np.random.default_rng(120 + mu)
    system = make_planted_system(3, mu, rng)
    frame = unitary_pullback(system, random_unitary(3, rng), random_unitary(3, rng))
    for source in (system, frame):
        direction = rng.normal(size=3) + 1j * rng.normal(size=3)
        z = 1e-2 * direction / np.linalg.norm(direction)
        errs = [np.linalg.norm(z)]
        for _ in range(5):
            z = refine_general(source, z, *value_and_jacobian(source, z), mu)
            errs.append(np.linalg.norm(z))
        e0, e1, e2 = [e for e in errs if e > 1e-11][-3:]
        assert math.log(e2 / e1) / math.log(e1 / e0) >= 1.8
        assert errs[-1] <= 1e-12
