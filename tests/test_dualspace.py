import ast
import math
from pathlib import Path

import numpy as np
import pytest

from mzero import dualspace
from mzero.certify import separation_bound
from mzero.dualspace import (
    compute_dual_basis,
    is_normalized,
    kernel_chain,
    normalizing_frame,
)
from mzero.errors import (
    CorankError,
    MultiplicityNotFoundError,
    NotNormalizedError,
)
from mzero.frames import NormalizedFrame, unitary_pullback
from mzero.functionals import chainrule_Lk
from mzero.numkit import LinearSolver
from mzero.newton import iterate_until, refine_general, value_and_jacobian
from mzero.polycore import (
    Poly,
    PolySystem,
    parse_system,
)

from conftest import (
    EX_DOUBLE,
    EX_TRIPLE,
    lowering_residual,
    macaulay_multiplicity,
    make_normalized_system,
    make_planted_system,
    monomials,
    random_unitary,
)

ORIGIN2 = np.zeros(2, dtype=complex)
# a breadth-one triple zero at the origin whose Jacobian kernel is X2
KERNEL_X2 = "vars: X1 X2\nf1: X1 + X2^2\nf2: X2^3\n"


def functional_gap(a, b):
    keys = set(a.coeffs) | set(b.coeffs)
    scale = max([abs(c) for c in a.coeffs.values()] + [1.0])
    return max(abs(a.coeffs.get(k, 0j) - b.coeffs.get(k, 0j)) for k in keys) / scale


def test_double_zero_structure(ex_double):
    basis = compute_dual_basis(ex_double, ORIGIN2)
    assert basis.mu == 2
    assert basis.breadth_one
    assert not basis.normalized
    # kernel of the Jacobian is span(2, -1); the leading phase is fixed positive
    a1 = basis.a_coeffs[0]
    assert a1[0].real > 0
    assert np.allclose(a1 / a1[0], [1.0, -0.5], atol=1e-12)
    assert np.max(basis.duality_residuals) <= 1e-9


def test_triple_zero_structure(ex_triple):
    basis = compute_dual_basis(ex_triple, ORIGIN2)
    assert basis.mu == 3
    assert basis.normalized
    # raw order-3 value on the last equation, exact by construction
    assert basis.delta_values[1][-1] == pytest.approx(192.0, rel=1e-9)
    # the order-2 correction solves the 1x1 leading block exactly
    a22 = -(64 / 73) / (math.sqrt(73) / 12)
    assert basis.a_coeffs[1][1] == pytest.approx(a22, rel=1e-12)
    assert np.max(basis.duality_residuals) <= 1e-9


def test_lambda_chain_annihilates_generators(ex_triple):
    basis = compute_dual_basis(ex_triple, ORIGIN2)
    for lam in basis.lambdas:
        # Lambda_0 evaluates the system itself, which vanishes at the zero
        vals = lam.apply(ex_triple, ORIGIN2)
        assert np.max(np.abs(vals)) <= 1e-9


def test_chain_closed_under_lowering(ex_triple, ex_double):
    for sys_, x in [(ex_triple, ORIGIN2), (ex_double, ORIGIN2)]:
        basis = compute_dual_basis(sys_, x)
        assert lowering_residual(basis) <= 1e-9


@pytest.mark.parametrize("n,mu", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)])
def test_constructed_multiplicity_matches_rank_count(n, mu):
    rng = np.random.default_rng(100 * n + mu)
    sys_ = make_normalized_system(n, mu, rng)
    basis = compute_dual_basis(sys_, np.zeros(n, dtype=complex))
    assert basis.mu == mu
    assert macaulay_multiplicity(sys_) == mu
    assert np.max(basis.duality_residuals) <= 1e-9
    assert lowering_residual(basis) <= 1e-9


def test_example_multiplicities_match_rank_count(ex_double, ex_triple):
    assert macaulay_multiplicity(ex_double) == 2
    assert macaulay_multiplicity(ex_triple) == 3


def test_four_variable_instance():
    rng = np.random.default_rng(404)
    sys_ = make_normalized_system(4, 3, rng)
    basis = compute_dual_basis(sys_, np.zeros(4, dtype=complex))
    assert basis.mu == 3
    assert np.max(basis.duality_residuals) <= 1e-9


def test_corank_check_rejects_regular_point(ex_double):
    with pytest.raises(CorankError):
        compute_dual_basis(ex_double, np.array([0.25, 0.0]))


def test_corank_check_rejects_wider_kernel():
    sys_ = parse_system("vars: X Y\nf: X^2\ng: Y^2")
    with pytest.raises(CorankError):
        compute_dual_basis(sys_, ORIGIN2)


def test_multiplicity_cap():
    # an isolated zero has mu <= deg f_1 ... deg f_n (Bezout): both routes
    # find the mu = 5 of (Y, X^5), whose cap is 1*5 = 5, and stop at the
    # cap 1*2 = 2 of (Y, X*Y), whose zero at the origin lies on the line Y = 0
    isolated = parse_system("vars: X Y\nf: Y\ng: X^5")
    on_a_line = parse_system("vars: X Y\nf: Y\ng: X*Y")
    for route in (compute_dual_basis, chainrule_Lk):
        assert route(isolated, ORIGIN2).mu == 5
        with pytest.raises(MultiplicityNotFoundError,
                           match="no terminating order found up to 2, the order cap"):
            route(on_a_line, ORIGIN2)


@pytest.mark.filterwarnings("error")
def test_chain_values_above_1e154_keep_the_multiplicity():
    # the squares of the chain values overflow a double, their norm does not
    sys_ = parse_system("vars: X Y\nf: Y + 1e155*X^2\ng: 1e150*X^2")
    for route in (compute_dual_basis, chainrule_Lk):
        assert route(sys_, ORIGIN2).mu == 2


def test_is_normalized_shapes(ex_double, ex_triple):
    assert is_normalized(ex_triple.jacobian(ORIGIN2))
    assert not is_normalized(ex_double.jacobian(ORIGIN2))


def test_normalizing_frame_shape(ex_double):
    frame, w = normalizing_frame(ex_double, ORIGIN2)
    J = frame.jacobian(w)
    assert is_normalized(J)
    # rotation preserves singular values
    s = np.linalg.svd(ex_double.jacobian(ORIGIN2), compute_uv=False)
    assert np.allclose(np.linalg.svd(J, compute_uv=False), s, atol=1e-12)


def test_a_lazy_frame_off_its_zero_agrees_with_its_expansion():
    # a frame of a frame: the normalizing frame of a lazy view composes the
    # two rotations over the base system, but the point it is taken at has
    # coordinates in the view, not in the base system; with the zero off the
    # origin a mix-up shows, which a zero at the origin (W^H 0 = 0) hides
    rng = np.random.default_rng(7)
    base = make_normalized_system(3, 3, rng)
    s = 0.3 * (rng.normal(size=3) + 1j * rng.normal(size=3))
    U1, W1 = random_unitary(3, rng), random_unitary(3, rng)
    view = unitary_pullback(base.shift(-s), U1, W1)
    zero = W1.conj().T @ s
    direction = rng.normal(size=3) + 1j * rng.normal(size=3)
    start = zero + 1e-3 * direction / np.linalg.norm(direction)
    lazy, expanded = (
        (compute_dual_basis(v, zero).mu, separation_bound(v, zero).bound,
         iterate_until(v, start, mu=3, variant="general"))
        for v in (view, view.materialize())
    )
    assert lazy[0] == expanded[0] == 3
    assert lazy[1] == pytest.approx(expanded[1], rel=1e-12)
    for trace in (lazy[2], expanded[2]):
        assert trace.stop_reason == "tolerance"
        assert np.linalg.norm(trace.iterates[-1] - zero) <= 1e-12


def test_chainrule_requires_normalized(kernel_calls, ex_double):
    # refused from one Jacobian and its one SVD, by `local_view`'s rule
    with pytest.raises(NotNormalizedError):
        chainrule_Lk(ex_double, ORIGIN2)
    assert len(kernel_calls.jacobians()) == 1
    assert kernel_calls.svd_shapes() == [(2, 2)]


def test_chainrule_rejects_corank_two(kernel_calls):
    # the frame Jacobian at the origin, [[0,1,0],[0,0,0],[0,0,0]], has the
    # distinguished shape but a two-dimensional kernel; one Jacobian and its
    # one SVD serve the corank test, which comes before the shape test
    sys_ = parse_system("vars: X Y Z\nf: Y + X^2\ng: X^3\nh: Z^2")
    frame = unitary_pullback(sys_, np.eye(3), np.eye(3))
    with pytest.raises(CorankError):
        chainrule_Lk(frame, np.zeros(3, dtype=complex))
    assert len(kernel_calls.jacobians()) == 1
    assert kernel_calls.svd_shapes() == [(3, 3)]


def test_chainrule_agrees_with_direct_chain(ex_triple):
    direct = compute_dual_basis(ex_triple, ORIGIN2)
    chained = chainrule_Lk(ex_triple, ORIGIN2)
    assert chained.mu == direct.mu
    for a, b in zip(direct.lambdas[1:], chained.lambdas[1:]):
        assert functional_gap(a, b) <= 1e-9
    assert chained.delta_values[-1][-1] == pytest.approx(
        direct.delta_values[-1][-1], rel=1e-9
    )


@pytest.mark.parametrize("n,mu", [(2, 3), (3, 2), (3, 4)])
def test_chainrule_matches_materialized_on_rotated_views(n, mu):
    rng = np.random.default_rng(10 * n + mu)
    base = make_normalized_system(n, mu, rng)
    rotated = unitary_pullback(base, random_unitary(n, rng), random_unitary(n, rng))
    frame, w = normalizing_frame(rotated, np.zeros(n, dtype=complex))
    flat = frame.materialize()
    direct = compute_dual_basis(flat, w)
    chained = chainrule_Lk(frame, w)
    assert chained.mu == direct.mu == mu
    for a, b in zip(direct.lambdas[1:], chained.lambdas[1:]):
        assert functional_gap(a, b) <= 1e-9


def test_chainrule_forced_order(ex_triple):
    # no caller sets the order: the chain stops where its membership test ends it
    chain = chainrule_Lk(ex_triple, ORIGIN2)
    assert chain.mu == 3
    assert len(chain.deltas) == 2  # orders 2 through 3
    natural = compute_dual_basis(ex_triple, ORIGIN2)
    assert chain.delta_values[1][-1] == pytest.approx(
        natural.delta_values[1][-1], rel=1e-12
    )


def test_general_chain_is_rotation_invariant():
    rng = np.random.default_rng(55)
    base = make_normalized_system(3, 3, rng)
    U, W = random_unitary(3, rng), random_unitary(3, rng)
    rotated = unitary_pullback(base, U, W).materialize()
    b0 = compute_dual_basis(base, np.zeros(3, dtype=complex))
    b1 = compute_dual_basis(rotated, np.zeros(3, dtype=complex))
    assert b1.mu == b0.mu
    assert not b1.normalized
    # below the top order the raw values stay inside the Jacobian column
    # space: their component along the left null direction is numerically zero
    _, _, vh = np.linalg.svd(rotated.jacobian(np.zeros(3)).conj().T)
    u_last = vh[-1].conj()
    for vals in b1.delta_values[:-1]:
        scale = max(1.0, float(np.linalg.norm(vals)))
        assert abs(np.vdot(u_last, vals)) <= 1e-9 * scale
    assert abs(np.vdot(u_last, b1.delta_values[-1])) > 1e-6


# ---------------------------------------------------------------------------
# planted zeros of any multiplicity


def planted_views(n, mu):
    """A planted system with its zero at the origin, and a unitary pullback
    of it, whose Jacobian at the origin is off the distinguished shape."""
    rng = np.random.default_rng(1000 + 10 * n + mu)
    system = make_planted_system(n, mu, rng)
    return system, unitary_pullback(system, random_unitary(n, rng), random_unitary(n, rng))


@pytest.mark.parametrize("n,mu", [(3, 5), (3, 6), (4, 6), (3, 8)])
def test_planted_multiplicity_is_detected(n, mu):
    for source in planted_views(n, mu):
        basis = compute_dual_basis(source, np.zeros(n, dtype=complex))
        assert basis.mu == mu
        assert basis.normalized == isinstance(source, PolySystem)
        assert np.max(basis.duality_residuals) <= 1e-9


@pytest.mark.parametrize(
    "n,mu", [(2, 2), (3, 3), (3, 4), (3, 5), (3, 6), (4, 6), (2, 7), (3, 8)]
)
def test_curve_values_match_the_symbolic_functionals(n, mu):
    # the chain reads its values from the kernel curve; the functionals of
    # the order-raising map, applied through partials (contracted tensors
    # in a frame), must give the same numbers
    x = np.zeros(n, dtype=complex)
    for source in planted_views(n, mu):
        basis = compute_dual_basis(source, x)
        assert len(basis.deltas) == len(basis.delta_values) == mu - 1
        assert_values_are_the_functionals(basis, source, x)


def assert_values_are_the_functionals(basis, source, x):
    """The chain values of basis, read along the kernel curve, are its
    symbolic functionals applied to source at x through partials."""
    for delta, vals in zip(basis.deltas, basis.delta_values):
        want = delta.apply(source, x)
        assert np.linalg.norm(vals - want) <= 1e-14 * np.linalg.norm(want)
    J = source.jacobian(x)
    for k, lam in enumerate(basis.lambdas[1:], start=1):
        want = lam.apply(source, x)
        got = J @ basis.a_coeffs[k - 1] + (basis.delta_values[k - 2] if k > 1 else 0)
        assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))


def test_chain_values_take_no_derivative_tensor(monkeypatch):
    rng = np.random.default_rng(61)
    system = make_planted_system(3, 5, rng)
    frame = unitary_pullback(system, random_unitary(3, rng), random_unitary(3, rng))

    def refuse(self, x, k):
        raise AssertionError("an order-%d derivative tensor was built" % k)

    monkeypatch.setattr(PolySystem, "derivative_tensor", refuse)
    monkeypatch.setattr(NormalizedFrame, "derivative_tensor", refuse)
    x = np.zeros(3, dtype=complex)
    e1 = np.array([1, 0, 0], dtype=complex)
    for source in (system, frame):
        assert compute_dual_basis(source, x).mu == 5
        values = kernel_chain(source, x, e1, LinearSolver(source.jacobian(x)[:2, 1:]), 5)[1]
        assert len(values) == 4
        z0 = np.full(3, 1e-3, dtype=complex)
        z = refine_general(source, z0, *value_and_jacobian(source, z0), 5)
        assert np.linalg.norm(z) < 1e-3


def curve_weights(a_rows, k):
    """{alpha: [t^k] prod_j A_j(t)^alpha_j} over |alpha| <= k, where A_j(t)
    = sum_i a_rows[i-1][j] t^i: the weight of d^alpha in the t^k Taylor
    coefficient along x + a_1 t + a_2 t^2 + ..."""
    n = len(a_rows[0])
    series = np.zeros((n, k + 1), dtype=complex)
    for i, row in enumerate(a_rows[:k], start=1):
        series[:, i] = row
    weights = {}
    for order in range(k + 1):
        for alpha in monomials(n, order):
            prod = np.zeros(k + 1, dtype=complex)
            prod[0] = 1.0
            for j, e in enumerate(alpha):
                for _ in range(e):
                    prod = np.convolve(prod, series[j])[: k + 1]
            weights[alpha] = prod[k]
    return weights


def rotated_planted(n, mu, rng):
    system = make_planted_system(n, mu, rng)
    return unitary_pullback(system, random_unitary(n, rng), random_unitary(n, rng)).materialize()


def kernel_x2(angle):
    """f = (X1 + X2^2, X2^3), a triple zero at the origin whose kernel is
    X2, in inputs and outputs turned by angle."""
    system = parse_system(KERNEL_X2)
    if not angle:
        return system
    R = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    return unitary_pullback(system, R, R).materialize()


# name -> (multiplicity, system with the zero at the origin)
CURVE_CASES = {
    "double": (2, lambda: parse_system(EX_DOUBLE)),
    "triple": (3, lambda: parse_system(EX_TRIPLE)),
    "planted-2-5": (5, lambda: make_planted_system(2, 5, np.random.default_rng(5))),
    "planted-3-4": (4, lambda: make_planted_system(3, 4, np.random.default_rng(4))),
    "planted-2-8": (8, lambda: make_planted_system(2, 8, np.random.default_rng(8))),
    # off the distinguished shape: the chain is found in the normalizing frame
    "rotated-3-4": (4, lambda: rotated_planted(3, 4, np.random.default_rng(77))),
    "kernel-x2": (3, lambda: kernel_x2(0.0)),
    "kernel-x2-rotated": (3, lambda: kernel_x2(1e-9)),
}
OFF_SHAPE = ("double", "rotated-3-4", "kernel-x2", "kernel-x2-rotated")


@pytest.mark.parametrize("name", CURVE_CASES)
def test_chain_functionals_are_the_curve_taylor_coefficients(name):
    # Lambda_k is the t^k coefficient along x + a_1 t + ... + a_k t^k, and
    # the raw functional of order k the same along a_1 .. a_{k-1}
    mu, build = CURVE_CASES[name]
    source = build()
    x = np.zeros(source.nvars, dtype=complex)
    basis = compute_dual_basis(source, x)
    assert basis.mu == mu
    assert basis.normalized == (name not in OFF_SHAPE)
    assert np.max(basis.duality_residuals) <= 1e-9
    assert lowering_residual(basis) <= 1e-9
    assert_values_are_the_functionals(basis, source, x)
    rows = list(basis.a_coeffs)
    pairs = [(lam, curve_weights(rows, k)) for k, lam in enumerate(basis.lambdas)]
    pairs += [(delta, curve_weights(rows[: k - 1], k))
              for k, delta in enumerate(basis.deltas, start=2)]
    for functional, want in pairs:
        assert set(functional.coeffs) <= set(want)
        scale = max(abs(c) for c in want.values())
        gap = max(abs(functional.coeffs.get(alpha, 0j) - c) for alpha, c in want.items())
        assert gap <= 1e-13 * scale


def function_lines(path, name):
    """(file name, line) of every line of the functions or methods `name`
    defined in path."""
    return {
        (path.name, line)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == name
        for line in range(node.lineno, node.end_lineno + 1)
    }


def test_one_chain_loop():
    # every chain, the product-rule route included, runs
    # dualspace.kernel_chain: apart from the kernel in polycore and a frame
    # handing the call on to its system, only that loop reads values along
    # the chain's curve, and it alone refuses a chain with no terminating order
    src = Path(dualspace.__file__).parent
    loop = function_lines(src / "dualspace.py", "kernel_chain")
    handed_on = function_lines(src / "frames.py", "curve_taylor")
    reads, raises = [], []
    for path in sorted(src.glob("*.py")):
        if path.name == "polycore.py":
            continue
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if ".curve_taylor(" in line and (path.name, number) not in loop | handed_on:
                reads.append("%s:%d" % (path.name, number))
            if "raise MultiplicityNotFoundError" in line:
                raises.append((path.name, number))
    assert reads == []
    assert len(raises) == 1 and raises[0] in loop


def test_one_chain_call_with_no_stop_or_order_parameter():
    # one chain function, steered by mu alone: no stop callback, no search
    # order, and no private chain helper that the functionals reach into
    src = Path(dualspace.__file__).parent
    for name in ("dualspace.py", "functionals.py"):
        tree = ast.parse((src / name).read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                args = node.args
                params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                assert not {"stop", "max_order"} & params, (name, getattr(node, "name", "lambda"))
            if isinstance(node, ast.FunctionDef):
                assert node.name not in ("_chain", "_terminates"), (name, node.name)
    imported = {alias.name
                for node in ast.walk(ast.parse((src / "functionals.py").read_text()))
                if isinstance(node, ast.ImportFrom) and node.module == "dualspace"
                for alias in node.names}
    assert {name for name in imported if name.startswith("_")} == {"_e1"}


@pytest.mark.parametrize("c", [1e-20, 1e-13, 1e-10, 1.0, 1e10, 1e20])
def test_scaling_the_equations_keeps_the_multiplicity(ex_double, ex_triple, c):
    # c f has the zeros and multiplicities of f, so the chain's end test
    # must not read an absolute size; the double example moves to its frame
    for system, mu in ((ex_double, 2), (ex_triple, 3)):
        scaled = PolySystem([Poly(p.nvars, {m: c * a for m, a in p.terms.items()})
                             for p in system.polys])
        assert compute_dual_basis(scaled, ORIGIN2).mu == mu
        view, y = dualspace.local_view(scaled, ORIGIN2)[:2]
        assert chainrule_Lk(view, y).mu == mu
