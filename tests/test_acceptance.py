"""Acceptance gate for the package's headline guarantees.

One test per acceptance item. Each prints a single PASS line with the
computed quantities once its assertions clear, so `pytest -v -s` gives a
per-item report. A failing item raises with the computed value next to
the target. Item 3 is split into lettered sub-tests because its clauses
exercise different code paths and should fail independently.
"""

import math
import time

import numpy as np
import pytest

from mzero import numkit
from mzero.certify import (
    certify_cluster,
    separation_bound,
    separation_constant,
)
from mzero.constants import p_of_d, threshold_constants
from mzero.dualspace import compute_dual_basis, normalizing_frame
from mzero.frames import unitary_pullback
from mzero.functionals import chainrule_Lk
from mzero.gamma import gamma_mu
from mzero.newton import (
    iterate_until,
    refine_double,
    refine_general,
    refine_triple,
)

from conftest import (
    lowering_residual,
    macaulay_multiplicity,
    make_normalized_system,
    random_unitary,
)

ORIGIN2 = np.zeros(2, dtype=complex)
START = np.array([-0.01, 0.01], dtype=complex)

# wall-clock budget shared by the item-3 sub-tests
_ITEM3_ELAPSED = []


def _two_step_point(system):
    trace = iterate_until(
        system, START, mu=3, variant="normalized_triple", eps=1e-30, max_iter=2
    )
    return trace.iterates[2]


def test_item_1_separation_constants():
    t0 = time.monotonic()
    two = separation_constant(2)
    three = separation_constant(3)
    elapsed = time.monotonic() - t0
    assert two.d == pytest.approx(0.2865, abs=5e-4)
    assert three.d3 == pytest.approx(0.08507, abs=5e-5)
    assert elapsed < 1.0
    print(
        "PASS item 1: d(mu=2) = %.6f (target 0.2865 +/- 5e-4), "
        "d3(mu=3) = %.6f (target 0.08507 +/- 5e-5), %.2fs"
        % (two.d, three.d3, elapsed)
    )


def test_item_2_double_zero_end_to_end(ex_double):
    t0 = time.monotonic()
    basis = compute_dual_basis(ex_double, ORIGIN2)
    assert basis.mu == 2

    frame, w = normalizing_frame(ex_double, ORIGIN2)
    report = gamma_mu(frame, w, mu=2)
    target = 4 / math.sqrt(5)
    assert report.gamma == pytest.approx(target, abs=1e-10)

    sep = separation_bound(ex_double, ORIGIN2, mu=2)
    assert sep.bound >= 0.0447
    assert sep.bound == pytest.approx(0.0447, abs=1e-3)

    # the system's other zero sits at (1/4, 0); its distance survives the
    # unitary change of coordinates and must respect the exclusion bound
    other = frame.to_frame(np.array([0.25, 0.0], dtype=complex))
    distance = float(np.linalg.norm(other - w))
    assert distance == pytest.approx(0.25, abs=1e-12)
    assert distance > sep.bound

    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(
        "PASS item 2: mu = 2, gamma = %.12f (target 4/sqrt(5) = %.12f), "
        "bound = %.6f, other zero at 0.25, %.2fs"
        % (report.gamma, target, sep.bound, elapsed)
    )


def test_item_3a_triple_structure_and_bound(ex_triple):
    t0 = time.monotonic()
    basis = compute_dual_basis(ex_triple, ORIGIN2)
    assert basis.mu == 3

    delta3 = basis.delta_values[-1][-1]
    assert delta3 == pytest.approx(192.0, rel=1e-9)

    report = gamma_mu(ex_triple, ORIGIN2, mu=3)
    target = 12 / math.sqrt(73)
    assert report.gamma_hat == pytest.approx(target, abs=1e-10)

    sep = separation_bound(ex_triple, ORIGIN2, mu=3)
    assert sep.bound == pytest.approx(0.01545, abs=1e-4)

    _ITEM3_ELAPSED.append(time.monotonic() - t0)
    print(
        "PASS item 3a: mu = 3, order-3 value on f2 = %.9f, gamma_hat = %.12f "
        "(target 12/sqrt(73) = %.12f), bound = %.6f (target 0.01545 +/- 1e-4)"
        % (delta3.real, report.gamma_hat, target, sep.bound)
    )


def test_item_3b_two_steps_normalized_triple(ex_triple):
    t0 = time.monotonic()
    z2 = _two_step_point(ex_triple)
    norm2 = float(np.linalg.norm(z2))
    _ITEM3_ELAPSED.append(time.monotonic() - t0)
    assert norm2 <= 1e-7, (
        "normalized-shape iterate norm after 2 steps is %.4e, target <= 1e-7"
        % norm2
    )
    print(
        "PASS item 3b: normalized triple iteration from (-0.01, 0.01) reaches "
        "(%.8e, %.8e) after 2 steps, norm %.4e <= 1e-7"
        % (z2[0].real, z2[1].real, norm2)
    )


def test_item_3c_two_steps_general(ex_triple):
    t0 = time.monotonic()
    trace = iterate_until(
        ex_triple, START, mu=3, variant="general", eps=1e-30, max_iter=3
    )
    norms = [float(np.linalg.norm(z)) for z in trace.iterates]
    _ITEM3_ELAPSED.append(time.monotonic() - t0)
    assert norms[2] <= 1e-7, (
        "general-variant iterate norm after 2 steps is %.4e, target <= 1e-7; "
        "the sequence is quadratically convergent (norm %.4e after step 3) "
        "but only the normalized-shape iteration meets the two-step target "
        "from this start" % (norms[2], norms[3])
    )
    print(
        "PASS item 3c: general iteration reaches norm %.4e after 2 steps"
        % norms[2]
    )


def test_item_3d_certificate_radius_and_rhs(ex_triple):
    t0 = time.monotonic()
    z2 = _two_step_point(ex_triple)
    cert = certify_cluster(ex_triple, z2, mu=3, mode="estimate")
    _ITEM3_ELAPSED.append(time.monotonic() - t0)
    assert cert.radius == pytest.approx(0.0076, abs=1e-4)
    rhs_3sig = "%.2e" % cert.rhs
    assert rhs_3sig == "1.94e-08", (
        "certificate rhs is %.6e (3 significant digits %s), target 1.94e-08"
        % (cert.rhs, rhs_3sig)
    )
    print(
        "PASS item 3d: radius = %.6f (target 0.0076 +/- 1e-4), "
        "rhs = %.6e rounds to %s" % (cert.radius, cert.rhs, rhs_3sig)
    )


def test_item_3e_certificate_holds_and_lhs(ex_triple):
    t0 = time.monotonic()
    z2 = _two_step_point(ex_triple)
    cert = certify_cluster(ex_triple, z2, mu=3, mode="estimate")
    certified = certify_cluster(ex_triple, z2, mu=3, mode="certified")
    _ITEM3_ELAPSED.append(time.monotonic() - t0)

    # the item's own runtime budget, checked in its last sub-test
    total = sum(_ITEM3_ELAPSED)
    assert total < 5.0, "item 3 took %.2fs, budget 5s" % total

    # the certified-norm outcome is part of the report either way
    print(
        "item 3e certified mode: holds=%s lhs=%.6e rhs=%.6e"
        % (certified.holds, certified.lhs, certified.rhs)
    )
    lhs_3sig = "%.2e" % cert.lhs
    fy_norm = float(np.linalg.norm(ex_triple.eval_at(np.asarray(z2))))
    assert cert.holds and lhs_3sig == "1.94e-08", (
        "estimate-mode certificate at the two-step point (%.4e, %.4e): "
        "holds=%s, lhs=%.6e (3 significant digits %s, target 1.94e-08), "
        "rhs=%.6e; the evaluated residual |f(y)| = %.4e already exceeds "
        "rhs minus the perturbation terms, so the inequality honestly fails "
        "here even though radius and rhs match their targets; after one more "
        "refinement step the certificate holds (lhs drops below 1e-14)"
        % (
            z2[0].real,
            z2[1].real,
            cert.holds,
            cert.lhs,
            lhs_3sig,
            cert.rhs,
            fy_norm,
        )
    )
    print(
        "PASS item 3e: holds=%s, lhs = %.6e rounds to %s"
        % (cert.holds, cert.lhs, lhs_3sig)
    )


def test_item_4_threshold_constants():
    t0 = time.monotonic()
    targets = {
        "normalized_double": (0.0418, 0.0318),
        "normalized_triple": (0.0222, 0.0154),
        "general_triple": (0.0137, 0.0098),
    }
    got = {}
    for variant, (conv, quad) in targets.items():
        ts = threshold_constants(variant)
        assert ts.u_converge == pytest.approx(conv, abs=5e-4), variant
        assert ts.u_quadratic == pytest.approx(quad, abs=5e-4), variant
        got[variant] = (ts.u_converge, ts.u_quadratic)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(
        "PASS item 4: thresholds "
        + ", ".join(
            "%s = (%.4f, %.4f)" % (v, c, q) for v, (c, q) in got.items()
        )
        + ", %.2fs" % elapsed
    )


def test_item_5_quadratic_convergence():
    t0 = time.monotonic()
    trials = 0

    def run_trial(system, zero, step, start_norm, rng):
        nonlocal trials
        n = len(zero)
        direction = rng.normal(size=n) + 1j * rng.normal(size=n)
        direction /= np.linalg.norm(direction)
        z = zero + start_norm * direction
        for k in range(1, 4):
            z = step(z)
            err = float(np.linalg.norm(z - zero))
            bound = 0.5 ** (2**k - 1) * start_norm
            assert err < bound, (
                "trial %d: error %.3e after %d steps, bound %.3e "
                "(start %.3e)" % (trials, err, k, bound, start_norm)
            )
        trials += 1

    # normalized iterations on constructed double and triple zeros at 0
    for mu, refine, variant in (
        (2, refine_double, "normalized_double"),
        (3, refine_triple, "normalized_triple"),
    ):
        u_quad = threshold_constants(variant).u_quadratic
        for n in (2, 3, 4):
            for seed in range(3):
                rng = np.random.default_rng(1000 * mu + 10 * n + seed)
                system = make_normalized_system(n, mu, rng)
                zero = np.zeros(n, dtype=complex)
                gam = gamma_mu(system, zero, mu=mu, mode="certified").gamma
                # certified gamma only overestimates, so this start
                # genuinely satisfies the quadratic-start condition
                start_norm = 0.8 * u_quad / gam**mu
                run_trial(
                    system, zero, lambda z: refine(system, z), start_norm, rng
                )

    # frame-based iteration on rotated and shifted triple zeros
    u_quad = threshold_constants("general_triple").u_quadratic
    for n in (2, 3):
        for seed in range(3):
            rng = np.random.default_rng(9000 + 10 * n + seed)
            base = make_normalized_system(n, 3, rng)
            gam = gamma_mu(
                base, np.zeros(n, dtype=complex), mu=3, mode="certified"
            ).gamma
            rotated = unitary_pullback(
                base, random_unitary(n, rng), random_unitary(n, rng)
            ).materialize()
            xi = 0.3 * (rng.normal(size=n) + 1j * rng.normal(size=n))
            moved = rotated.shift(-xi)
            start_norm = 0.8 * u_quad / gam**3
            run_trial(
                moved,
                xi,
                lambda z: refine_general(moved, z, mu=3),
                start_norm,
                rng,
            )

    elapsed = time.monotonic() - t0
    assert trials >= 20
    assert elapsed < 30.0
    print(
        "PASS item 5: %d trials, error < (1/2)^(2^k - 1) * start for "
        "k = 1..3 in every trial, %.2fs" % (trials, elapsed)
    )


def test_item_6_duality_structure(ex_double, ex_triple):
    t0 = time.monotonic()
    cases = [(ex_double, ORIGIN2, 2), (ex_triple, ORIGIN2, 3)]
    for n in (2, 3):
        for mu in (2, 3, 4):
            rng = np.random.default_rng(600 + 10 * n + mu)
            cases.append(
                (make_normalized_system(n, mu, rng), np.zeros(n, dtype=complex), mu)
            )

    worst_annihilation = 0.0
    worst_lowering = 0.0
    for system, x, expected_mu in cases:
        basis = compute_dual_basis(system, x)
        for lam in basis.lambdas:
            vals = lam.apply(system, x)
            worst_annihilation = max(
                worst_annihilation, float(np.max(np.abs(vals)))
            )
        worst_lowering = max(worst_lowering, lowering_residual(basis))
        oracle = macaulay_multiplicity(system)
        assert basis.mu == oracle == expected_mu, (
            "multiplicity %d from the dual chain, %d from the nullity "
            "oracle, expected %d" % (basis.mu, oracle, expected_mu)
        )

    assert worst_annihilation <= 1e-9
    assert worst_lowering <= 1e-9
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(
        "PASS item 6: %d bases, annihilation residual %.2e, lowering "
        "residual %.2e, oracle agreement on all, %.2fs"
        % (len(cases), worst_annihilation, worst_lowering, elapsed)
    )


def test_item_7_equivariance(ex_triple):
    t0 = time.monotonic()

    def null_projections(system, basis, n):
        J = system.jacobian(np.zeros(n, dtype=complex))
        u_n = numkit.svd(J).U[:, -1]
        return [
            float(abs(u_n.conj() @ np.asarray(v))) for v in basis.delta_values
        ]

    systems = [
        (ex_triple, 2, np.array([-0.01, 0.01], dtype=complex)),
        (
            make_normalized_system(3, 3, np.random.default_rng(5)),
            3,
            np.array([-0.01, 0.01, 0.005], dtype=complex),
        ),
    ]
    for system, n, z_start in systems:
        for seed in (42, 43):
            rng = np.random.default_rng(seed)
            U = random_unitary(n, rng)
            W = random_unitary(n, rng)
            conjugated = unitary_pullback(system, U, W).materialize()
            zero = np.zeros(n, dtype=complex)

            b0 = compute_dual_basis(system, zero)
            b1 = compute_dual_basis(conjugated, zero)
            assert b0.mu == b1.mu

            # the in-image pattern: every order below mu projects to zero
            # along the left null direction, the terminal order does not,
            # and the terminal magnitude is frame independent
            p0 = null_projections(system, b0, n)
            p1 = null_projections(conjugated, b1, n)
            for a, b in zip(p0[:-1], p1[:-1]):
                assert a <= 1e-9 and b <= 1e-9
            assert abs(p0[-1] - p1[-1]) <= 1e-9 * p0[-1]

            z0 = z_start.copy()
            z1 = W.conj().T @ z_start
            for _ in range(3):
                z0 = refine_general(system, z0, mu=3)
                z1 = refine_general(conjugated, z1, mu=3)
                d0 = float(np.linalg.norm(z0))
                d1 = float(np.linalg.norm(z1))
                assert abs(d0 - d1) <= 1e-9, (
                    "iterate distances %.3e and %.3e diverge" % (d0, d1)
                )
    elapsed = time.monotonic() - t0
    print(
        "PASS item 7: mu, in-image pattern, and iterate distances invariant "
        "under unitary conjugation (4 frames, 2 systems), %.2fs" % elapsed
    )


def test_item_8_formula_equivalence():
    t0 = time.monotonic()
    grid = np.linspace(0.0, 0.9, 1001)

    p2 = p_of_d(2)
    p3 = p_of_d(3)
    worst2 = 0.0
    worst3 = 0.0
    for d in grid:
        root = math.sqrt(1 - d * d)
        closed2 = 1 - 2 * d * d - 2 * d * root - d
        closed3 = (1 - 2 * d - 8 * d * d) * root - 9 * d - d * d + 6 * d**3
        worst2 = max(worst2, abs(p2(d) - closed2))
        worst3 = max(worst3, abs(p3(d) - closed3))
    assert worst2 <= 1e-12
    assert worst3 <= 1e-12

    worst_gap = 0.0
    for n, mu in ((2, 3), (3, 2), (3, 3)):
        rng = np.random.default_rng(80 * n + mu)
        base = make_normalized_system(n, mu, rng)
        rotated = unitary_pullback(
            base, random_unitary(n, rng), random_unitary(n, rng)
        )
        frame, w = normalizing_frame(rotated, np.zeros(n, dtype=complex))
        direct = compute_dual_basis(frame.materialize(), w)
        chained = chainrule_Lk(frame, w)
        assert chained.mu == direct.mu == mu
        for a, b in zip(direct.lambdas[1:], chained.lambdas[1:]):
            keys = set(a.coeffs) | set(b.coeffs)
            scale = max([abs(c) for c in a.coeffs.values()] + [1.0])
            gap = (
                max(
                    abs(a.coeffs.get(k, 0j) - b.coeffs.get(k, 0j))
                    for k in keys
                )
                / scale
            )
            worst_gap = max(worst_gap, gap)
    assert worst_gap <= 1e-9

    elapsed = time.monotonic() - t0
    print(
        "PASS item 8: curve agreement %.2e (<= 1e-12) on [0, 0.9], "
        "chain-rule functional gap %.2e (<= 1e-9) on random frames, %.2fs"
        % (max(worst2, worst3), worst_gap, elapsed)
    )
