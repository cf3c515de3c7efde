import re
from pathlib import Path

import numpy as np
import pytest

from mzero import numkit
from mzero.constants import smallest_positive_root
from mzero.errors import MathDomainError, NoRootError
from mzero.errors import SingularMatrixError
from mzero.numkit import (
    LinearSolver,
    matrix_spectral_norm,
    singular_values,
    solve_least_squares,
    solve_linear,
    svd,
    unfolding_norm,
)


def test_svd_reconstructs():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    res = svd(A)
    assert np.allclose((res.U * res.s) @ res.V.conj().T, A, atol=1e-12)
    assert np.all(res.s[:-1] >= res.s[1:])


def test_svd_phase_convention():
    rng = np.random.default_rng(8)
    A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    res = svd(A)
    for j in range(3):
        col = res.V[:, j]
        i = int(np.argmax(np.abs(col)))
        assert col[i].real > 0
        assert abs(col[i].imag) < 1e-12 * abs(col[i])


def test_svd_deterministic():
    rng = np.random.default_rng(9)
    A = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    r1, r2 = svd(A), svd(A.copy())
    assert np.array_equal(r1.U, r2.U)
    assert np.array_equal(r1.V, r2.V)


def test_solve_linear_matches_numpy():
    rng = np.random.default_rng(10)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = rng.normal(size=4) + 1j * rng.normal(size=4)
    assert np.allclose(solve_linear(A, b), np.linalg.solve(A, b), atol=1e-12)


def test_solve_linear_rejects_singular():
    A = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
    with pytest.raises(SingularMatrixError):
        solve_linear(A, np.ones(2, dtype=complex))


def test_solver_takes_one_svd_for_every_solve(monkeypatch):
    rng = np.random.default_rng(15)
    A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    calls, factor = [], np.linalg.svd

    def counted(M, *args, **kwargs):
        calls.append(1)
        return factor(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    solver = LinearSolver(A)
    assert calls == []
    for _ in range(3):
        b = rng.normal(size=3)
        assert np.allclose(solver.solve(b), np.linalg.solve(A, b), atol=1e-12)
    assert np.allclose(solver.s, factor(A, compute_uv=False), rtol=1e-14)
    assert len(calls) == 1
    singular = LinearSolver(np.array([[1.0, 2.0], [2.0, 4.0]]))
    for _ in range(2):
        with pytest.raises(SingularMatrixError, match="singular to working precision"):
            singular.solve(np.ones(2))
    assert len(calls) == 2


def test_solve_least_squares_residual():
    A = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], dtype=complex)
    b = np.array([1.0, 2.0, 3.0], dtype=complex)
    x, resid = solve_least_squares(A, b)
    assert np.allclose(x, [1.0, 2.0])
    assert resid == pytest.approx(3.0)


def test_matrix_norm_order_two_is_exact():
    rng = np.random.default_rng(11)
    T = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
    T = 0.5 * (T + np.swapaxes(T, 1, 2))
    ref = np.linalg.svd(T.reshape(-1, 4), compute_uv=False)[0]
    for mode in ("estimate", "certified"):
        assert unfolding_norm(T.reshape(-1, 4), 2, mode) == pytest.approx(ref, rel=1e-12)


def test_rank_one_cubic_norm_is_cube_of_length():
    v = np.array([1.2, -0.8, 1.0 + 0.6j])
    T = np.einsum("i,j,k->ijk", v, v, v)[None]
    ref = np.linalg.norm(v) ** 3
    assert unfolding_norm(T.reshape(-1, 3), 3) == pytest.approx(ref, rel=1e-10)
    assert unfolding_norm(T.reshape(-1, 3), 3, "certified") == pytest.approx(ref, rel=1e-12)


def test_order_three_estimate_matches_unfolding():
    rng = np.random.default_rng(12)
    T = rng.normal(size=(2, 3, 3, 3)) + 1j * rng.normal(size=(2, 3, 3, 3))
    T = sum(
        np.moveaxis(T, [1, 2, 3], perm)
        for perm in [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
    ) / 6.0
    estimate = unfolding_norm(T.reshape(-1, 3), 3)
    certified = unfolding_norm(T.reshape(-1, 3), 3, "certified")
    ref = np.linalg.svd(T.reshape(-1, 3), compute_uv=False)[0]
    assert estimate == pytest.approx(ref, rel=1e-12)
    assert certified == pytest.approx(np.linalg.norm(T.ravel()), rel=1e-12)
    assert estimate <= certified * (1 + 1e-12)


def test_order_three_estimate_is_deterministic():
    rng = np.random.default_rng(13)
    T = rng.normal(size=(1, 4, 4, 4))
    T = sum(
        np.moveaxis(T, [1, 2, 3], perm)
        for perm in [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
    ) / 6.0
    a = unfolding_norm(T.reshape(-1, 4), 3)
    b = unfolding_norm(T.copy().reshape(-1, 4), 3)
    assert a == b


def test_certified_mode_is_frobenius():
    rng = np.random.default_rng(14)
    T = rng.normal(size=(1, 3, 3, 3))
    T = sum(
        np.moveaxis(T, [1, 2, 3], perm)
        for perm in [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
    ) / 6.0
    got = unfolding_norm(T.reshape(-1, 3), 3, "certified")
    assert got == pytest.approx(np.linalg.norm(T.ravel()), rel=1e-12)


def test_spectral_norm_helper():
    A = np.diag([3.0, 1.0, 0.5])
    assert matrix_spectral_norm(A) == pytest.approx(3.0)


def test_smallest_positive_root_cosine():
    root = smallest_positive_root(np.cos, 3.0, tol=1e-12)
    assert root == pytest.approx(np.pi / 2, abs=1e-10)


def test_smallest_positive_root_picks_first():
    # roots at 0.1 and 0.5; the scan must land on the first one
    root = smallest_positive_root(lambda t: (t - 0.1) * (t - 0.5), 1.0, tol=1e-12)
    assert root == pytest.approx(0.1, abs=1e-10)


def test_smallest_positive_root_is_relative_and_stays_positive():
    # a root far below an absolute 1e-10 keeps its digits, and the value
    # returned sits on the side where the function is still positive
    root = smallest_positive_root(lambda t: 3e-12 - t, 1.0, tol=1e-13)
    assert 0 < 3e-12 - root <= 1e-13 * 3e-12


def test_smallest_positive_root_no_crossing():
    with pytest.raises(NoRootError):
        smallest_positive_root(lambda t: 1.0 + t * t, 2.0)


def test_smallest_positive_root_needs_positive_start():
    with pytest.raises(ValueError):
        smallest_positive_root(lambda t: -1.0, 2.0)


def test_lapack_failure_is_domain_error():
    bad = np.full((3, 3), np.nan)
    for call in (svd, singular_values, matrix_spectral_norm,
                 lambda A: solve_least_squares(A, np.ones(3))):
        with pytest.raises(MathDomainError, match="did not converge"):
            call(bad)


def lines_outside_numkit(pattern):
    """file:line of each line of a package module other than numkit that
    matches the regex pattern."""
    found = re.compile(pattern).search
    return [
        "%s:%d" % (path.name, number)
        for path in sorted(Path(numkit.__file__).parent.glob("*.py"))
        if path.name != "numkit.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if found(line)
    ]


def test_only_numkit_calls_lapack():
    # numkit raises a LAPACK failure as MathDomainError (exit 3); a raw
    # call anywhere else would surface as an internal error (exit 4)
    assert lines_outside_numkit(r"np\.linalg\.(svd|solve|lstsq)\b") == []


def test_only_numkit_takes_singular_values():
    # a matrix's singular values come from its LinearSolver, which takes
    # them once for its singularity test and for sigma_min
    assert lines_outside_numkit(r"\bsingular_values\(") == []
