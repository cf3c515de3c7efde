"""Refinement iterations for corank-one multiple zeros, with the
threshold constants that quantify their convergence regions.

Three iterations are provided. The two normalized variants assume the
system is presented in the distinguished coordinate shape at the zero:
`refine_double` for order two, `refine_triple` for order three. The
general variant rotates into a normalizing frame once per step, at the
current point. Inside that frame it follows the kernel by a shear of the
first frame variable and updates the kernel coordinate by a ratio of
chain values. It works in any coordinates and for any order.

Each point is evaluated once: `iterate_until` reads f and J at an
iterate in one kernel call (`value_and_jacobian`) for the residual, the
shape test and the next step, which evaluates only at its own point y.

Each variant contracts quadratically once the scale-free start quality
u = gamma^mu * distance is below the variant's threshold constant. The
constants are the first positive roots of explicit one-variable rational
equations, solved to relative tolerance 1e-12 by
`derivations.derive_threshold_constants`; `thresholds.threshold_constants`
reads them from a table. It lives in the numpy-free `thresholds` module,
which refinement, reading no constant, never loads. The variant names,
`VARIANTS`, live in the package itself, so the command line lists them
without loading numpy.
"""

import numpy as np

from . import DEFAULT_TOLERANCES as DEFAULTS, VARIANTS
from .dualspace import (_kernel_first, check_order, compute_dual_basis, is_normalized,
                        kernel_chain, normalizing_frame)
from .errors import InputError, SingularMatrixError
from .numkit import LinearSolver, solve_linear, svd
from .record import Record


# shape test of `iterate_until`'s variant choice: a normalized step needs its
# point only near the distinguished shape
LOOSE_NORMALIZED_RTOL = 0.1


class NewtonTrace(Record):
    _fields = ("iterates", "residual_norms", "step_norms", "converged", "stop_reason",
               "variant", "mu", "warnings")


def value_and_jacobian(source, z):
    """(f(z), J(z)) of a PolySystem or a NormalizedFrame U^H f(W y), read
    in one kernel call at the multi-indices 0, e_1..e_n (a frame's on the
    system it rotates, at W z)."""
    alphas = np.eye(len(z) + 1, len(z), -1, dtype=np.intp)
    base = getattr(source, "system", source)
    if base is source:
        D = source.partials(alphas, z)
        return D[:, 0], D[:, 1:]
    D = source.U.conj().T @ base.partials(alphas, source.W @ z)
    return D[:, 0], D[:, 1:] @ source.W


# ---------------------------------------------------------------------------
# single steps: each takes fz and J, the values of f and its Jacobian at z,
# and evaluates only at its own point y


def n1_step(z, fz, J):
    """Correct the trailing coordinates of z by one regular step on the
    leading equations, holding the first coordinate fixed."""
    y = np.array(z, dtype=complex)
    y[1:] -= solve_linear(J[:-1, 1:], fz[:-1])
    return y


def refine_double(source, z, fz, J):
    """One step of the order-two normalized iteration."""
    y = n1_step(z, fz, J)
    # d f_n / d x1 and d^2 f_n / d x1^2 at y
    e1 = np.eye(1, len(y), dtype=np.intp)
    d1, d11 = source.partials(np.vstack([e1, 2 * e1]), y)[-1]
    if d11 == 0:
        raise SingularMatrixError("vanishing second derivative in the kernel direction")
    y[0] -= d1 / d11
    return y


def refine_triple(source, z, fz, J):
    """One step of the order-three normalized iteration."""
    y = n1_step(z, fz, J)
    n = len(y)
    # at y: the Jacobian, d^2 f at 2e1 and d^3 f at 3e1, then d^2 f_n at e1 + e_j for j > 1
    unit = np.eye(n, dtype=np.intp)
    D = source.partials(np.vstack([unit, 2 * unit[:1], 3 * unit[:1], unit[0] + unit[1:]]), y)
    J, D = D[:, :n], D[:, n:]
    # correction shared by numerator and denominator
    C = solve_linear(J[: n - 1, 1:], 0.5 * D[: n - 1, 0])
    num = D[n - 1, 0] / 6.0 - J[n - 1, 1:] @ C
    den = D[n - 1, 1] / 6.0 - D[n - 1, 2:] @ C
    if den == 0:
        raise SingularMatrixError("vanishing third-order denominator")
    y[0] -= num / den
    return y


def refine_general(source, z, fz, J, mu):
    """One step of the one-frame iteration for any order mu >= 2.

    The normalizing frame is taken at z from the SVD of J, the only full
    factorization of the step, and fz and J move into it by that SVD's
    own factors: U^H fz and U^H J W. In that frame the trailing
    coordinates take the regular step to y. At y the chain runs along the
    first-order kernel direction a1 = (1, -Jhat^-1 J[:n-1, 0]), a shear
    of the first frame variable rather than a second rotation, to order
    mu by `dualspace.kernel_chain`, with corrections solved against
    Jhat = J(y)[:n-1, 1:]; a mu that `dualspace.check_order` refuses, none
    included, is an InputError before the step. The chain values of
    orders mu-1 and mu are read along u = (-Jhat^-T J[n-1, 1:], 1), the
    left vector with u . J(y)[:, 1:] = 0, and the kernel coordinate moves
    by their ratio. Jhat and its transpose share one solver's singular
    values, so the step tests Jhat's singularity at y once.

    Returns the next point, W times the frame's, in the coordinates of z;
    for a NormalizedFrame source too.
    """
    check_order(source, mu)
    n = len(z)
    res = svd(J)
    frame, w = normalizing_frame(source, z, res)
    Uh, W = res.U.conj().T, _kernel_first(res.V)
    y = n1_step(w, Uh @ fz, Uh @ J @ W)
    J = frame.jacobian(y)
    Jhat = LinearSolver(J[: n - 1, 1:])
    a1 = np.ones(n, dtype=complex)
    a1[1:] = -Jhat.solve(J[: n - 1, 0])
    u = np.ones(n, dtype=complex)
    u[:-1] = -Jhat.T.solve(J[n - 1, 1:])
    values = kernel_chain(frame, y, a1, Jhat, mu)[1]
    prev = u @ (J @ a1 if mu == 2 else values[-2])
    dmu = u @ values[-1]
    if dmu == 0:
        raise SingularMatrixError("vanishing terminating chain value")
    y[0] -= prev / (mu * dmu)
    return W @ y


# ---------------------------------------------------------------------------
# driver

# variant -> (the mu it needs, None for any, and one step from z, f(z) and J(z))
_STEPS = dict(zip(VARIANTS, (
    (2, lambda source, z, fz, J, mu: refine_double(source, z, fz, J)),
    (3, lambda source, z, fz, J, mu: refine_triple(source, z, fz, J)),
    (None, refine_general),
)))


def iterate_until(source, z0, mu=None, variant="auto", eps=DEFAULTS["eps"],
                  max_iter=DEFAULTS["max_iter"], gap_tol=DEFAULTS["gap_tol"],
                  delta_zero_tol=DEFAULTS["delta_zero_tol"]):
    """Run a refinement iteration to tolerance and report the trace.

    A variant outside "auto" and `VARIANTS` is an InputError before any
    evaluation. Without mu, the chain length is detected at z0 by
    `compute_dual_basis` with gap_tol and delta_zero_tol, and its Jacobian
    at z0 serves the first step; a mu that `dualspace.check_order` refuses,
    below 2 or above the Bezout number, is an InputError before any step.
    Every other f and J is read once per iterate, by `value_and_jacobian`.

    Stops when the residual norm drops to eps ('tolerance', the only
    stop with converged=True), when a step of norm at most eps leaves the
    residual above eps ('stagnation'), after three consecutive growing
    steps ('divergence'), when a linear solve degenerates
    ('singular_step'), or at max_iter. A point that already meets the
    residual tolerance returns a zero-iteration trace.
    """
    if variant != "auto" and variant not in _STEPS:
        raise InputError("unknown variant %r" % variant)
    z = np.asarray(z0, dtype=complex)
    basis = None
    if mu is None:
        basis = compute_dual_basis(source, z, gap_tol, delta_zero_tol)
        mu = basis.mu
    check_order(source, mu)
    fz, J = (value_and_jacobian(source, z) if basis is None
             else (source.eval_at(z), basis.input_J))
    if variant == "auto":
        # the normalized variant of order mu at a point loosely in the
        # distinguished shape, else the general one; a detection's singular
        # values serve the shape test
        s = None if basis is None else basis.singular_values
        variant = VARIANTS[-1]
        if mu in (2, 3) and is_normalized(J, LOOSE_NORMALIZED_RTOL, s):
            variant = VARIANTS[mu - 2]
    order, step = _STEPS[variant]
    if order not in (None, mu):
        word = {2: "two", 3: "three"}[order]
        raise InputError("order-%s variant needs mu == %d" % (word, order))

    iterates, residuals = [z.copy()], [float(np.linalg.norm(fz))]
    steps, warnings, grow = [], [], 0
    while True:
        if residuals[-1] <= eps:
            reason = "tolerance"
            break
        if steps and steps[-1] <= eps:
            reason = "stagnation"
            break
        grow = grow + 1 if len(steps) >= 2 and steps[-1] > steps[-2] else 0
        if grow >= 3:
            reason = "divergence"
            break
        if len(steps) >= max_iter:
            reason = "max_iter"
            break
        try:
            z_next = step(source, z, fz, J, mu)
        except SingularMatrixError as exc:
            reason = "singular_step"
            warnings.append(str(exc))
            break
        steps.append(float(np.linalg.norm(z_next - z)))
        z = z_next
        fz, J = value_and_jacobian(source, z)
        iterates.append(z.copy())
        residuals.append(float(np.linalg.norm(fz)))

    return NewtonTrace(iterates=iterates, residual_norms=residuals, step_norms=steps,
                       converged=reason == "tolerance", stop_reason=reason, variant=variant,
                       mu=mu, warnings=warnings)
