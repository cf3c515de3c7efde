"""Refinement iterations for corank-one multiple zeros, with the
threshold constants that quantify their convergence regions.

Three iterations are provided. The two normalized variants assume the
system is presented in the distinguished coordinate shape at the zero:
`refine_double` for order two, `refine_triple` for order three. The
general variant rotates into a normalizing frame once per step, at the
current point. Inside that frame it follows the kernel by a shear of the
first frame variable and updates the kernel coordinate by a ratio of
chain values. It works in any coordinates and for any order.

Each variant contracts quadratically once the scale-free start quality
u = gamma^mu * distance is below the variant's threshold constant. The
constants are the first positive roots of explicit one-variable rational
equations; `constants.threshold_constants` solves them to ten digits.
It lives in the numpy-free `constants` module, which refinement, reading
no constant, never loads. The variant names, `VARIANTS`, live in the
package itself, so the command line lists them without loading numpy.
"""

import numpy as np

from . import DEFAULT_TOLERANCES as DEFAULTS, VARIANTS
from .dualspace import LOOSE_NORMALIZED_RTOL, compute_dual_basis, is_normalized
from .dualspace import kernel_chain, normalizing_frame
from .errors import InputError, SingularMatrixError
from .numkit import LinearSolver, solve_linear, svd
from .record import Record


class NewtonTrace(Record):
    _fields = ("iterates", "residual_norms", "step_norms", "converged", "stop_reason",
               "variant", "mu", "warnings")


# ---------------------------------------------------------------------------
# single steps


def n1_step(source, z):
    """Correct the trailing coordinates by one regular step on the
    leading equations, holding the first coordinate fixed."""
    z = np.asarray(z, dtype=complex)
    n = source.nvars
    J = source.jacobian(z)
    fz = source.eval_at(z)
    y = z.copy()
    y[1:] = z[1:] - solve_linear(J[: n - 1, 1:], fz[: n - 1])
    return y


def refine_double(source, z):
    """One step of the order-two normalized iteration."""
    z = np.asarray(z, dtype=complex)
    n = source.nvars
    y = n1_step(source, z)
    e1 = (1,) + (0,) * (n - 1)
    e11 = (2,) + (0,) * (n - 1)
    d1 = source.partials_vector(e1, y)[n - 1]
    d11 = source.partials_vector(e11, y)[n - 1]
    if d11 == 0:
        raise SingularMatrixError("vanishing second derivative in the kernel direction")
    out = y.copy()
    out[0] = z[0] - d1 / d11
    return out


def refine_triple(source, z):
    """One step of the order-three normalized iteration."""
    z = np.asarray(z, dtype=complex)
    n = source.nvars
    y = n1_step(source, z)
    J = source.jacobian(y)
    Jhat = J[: n - 1, 1:]
    # d^2 f at 2e1 and d^3 f at 3e1, then d^2 f_n at e1 + e_j for j > 1
    unit = np.eye(n, dtype=np.intp)
    D = source.partials(np.vstack([2 * unit[:1], 3 * unit[:1], unit[0] + unit[1:]]), y)
    # correction shared by numerator and denominator
    C = solve_linear(Jhat, 0.5 * D[: n - 1, 0])
    num = D[n - 1, 0] / 6.0 - J[n - 1, 1:] @ C
    den = D[n - 1, 1] / 6.0 - D[n - 1, 2:] @ C
    if den == 0:
        raise SingularMatrixError("vanishing third-order denominator")
    out = y.copy()
    out[0] = z[0] - num / den
    return out


def refine_general(source, z, mu):
    """One step of the one-frame iteration for any order mu >= 2.

    The normalizing frame is taken once, at z; its SVD is the only full
    factorization of the step. In that frame the trailing coordinates
    take the regular step to y. At y the chain runs along the
    first-order kernel direction a1 = (1, -Jhat^-1 J[:n-1, 0]), a shear
    of the first frame variable rather than a second rotation, with
    corrections solved against Jhat = J(y)[:n-1, 1:], one solver whose
    singularity is tested once. The chain values of orders mu-1 and mu
    are read along u = (-Jhat^-T J[n-1, 1:], 1), the left vector with
    u . J(y)[:, 1:] = 0, and the kernel coordinate moves by their ratio.

    Returns the next point, in the coordinates of z.
    """
    z = np.asarray(z, dtype=complex)
    n = source.nvars
    frame, w = normalizing_frame(source, z)
    y = n1_step(frame, w)
    J = frame.jacobian(y)
    Jhat = LinearSolver(J[: n - 1, 1:])
    a1 = np.ones(n, dtype=complex)
    a1[1:] = -Jhat.solve(J[: n - 1, 0])
    u = np.ones(n, dtype=complex)
    u[:-1] = -solve_linear(Jhat.A.T, J[n - 1, 1:])
    values = kernel_chain(frame, y, a1, Jhat, mu)
    prev = u @ (J @ a1 if mu == 2 else values[-2])
    dmu = u @ values[-1]
    if dmu == 0:
        raise SingularMatrixError("vanishing terminating chain value")

    out = y.copy()
    out[0] = y[0] - prev / (mu * dmu)
    return frame.from_frame(out)


# ---------------------------------------------------------------------------
# driver

# variant -> (the mu it needs, None for any, and one step from z)
_STEPS = dict(zip(VARIANTS, (
    (2, lambda source, z, mu: refine_double(source, z)),
    (3, lambda source, z, mu: refine_triple(source, z)),
    (None, refine_general),
)))


def iterate_until(
    source,
    z0,
    mu=None,
    variant="auto",
    eps=DEFAULTS["eps"],
    max_iter=DEFAULTS["max_iter"],
    **tolerances,
):
    """Run a refinement iteration to tolerance and report the trace.

    Without mu, the chain length is detected at z0 by
    `compute_dual_basis` with the given tolerances (gap_tol,
    delta_zero_tol).

    Stops when the residual norm drops to eps ('tolerance', the only
    stop with converged=True), when a step of norm at most eps leaves the
    residual above eps ('stagnation'), after three consecutive growing
    steps ('divergence'), when a linear solve degenerates
    ('singular_step'), or at max_iter. A point that already meets the
    residual tolerance returns a zero-iteration trace.
    """
    z = np.asarray(z0, dtype=complex)
    J = res = None
    if mu is None:
        # one Jacobian and one SVD serve the detection and the variant choice
        J = source.jacobian(z)
        res = svd(J)
        mu = compute_dual_basis(source, z, J=J, res=res, **tolerances).mu
    if mu < 2:
        raise InputError("a corank-one zero has mu >= 2, got %r" % mu)
    if variant == "auto":
        # the normalized variant of order mu at a point loosely in the
        # distinguished shape, else the general one
        variant = VARIANTS[-1]
        if mu in (2, 3):
            J = source.jacobian(z) if J is None else J
            if is_normalized(J, LOOSE_NORMALIZED_RTOL, None if res is None else res.s):
                variant = VARIANTS[mu - 2]
    if variant not in _STEPS:
        raise InputError("unknown variant %r" % variant)
    order, step = _STEPS[variant]
    if order not in (None, mu):
        word = {2: "two", 3: "three"}[order]
        raise InputError("order-%s variant needs mu == %d" % (word, order))

    iterates = [z.copy()]
    residuals = [float(np.linalg.norm(source.eval_at(z)))]
    steps = []
    warnings = []
    grow = 0
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
            z_next = step(source, z, mu)
        except SingularMatrixError as exc:
            reason = "singular_step"
            warnings.append(str(exc))
            break
        steps.append(float(np.linalg.norm(z_next - z)))
        z = z_next
        iterates.append(z.copy())
        residuals.append(float(np.linalg.norm(source.eval_at(z))))

    return NewtonTrace(
        iterates=iterates,
        residual_norms=residuals,
        step_norms=steps,
        converged=reason == "tolerance",
        stop_reason=reason,
        variant=variant,
        mu=mu,
        warnings=warnings,
    )
