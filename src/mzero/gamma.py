"""Growth invariants of a system at a normalized corank-one zero.

The invariants bound how fast higher derivatives grow relative to the
invertible part of the Jacobian. They come in two halves. The first
preconditions the order-k Taylor coefficients of the leading n-1
equations by the inverse of their invertible block and takes a k-th-ish
root. The second does the same for the last equation, scaled by the value
of the terminating chain functional instead of a Jacobian block. Both are
clamped below by one.

All formulas assume the distinguished coordinate shape (first Jacobian
column and the off-first last row negligible); call sites with rotated
input should move to a normalizing frame first.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NotNormalizedError
from .numkit import solve_linear, tensor_norm


@dataclass
class GammaReport:
    gamma: float
    gamma_hat: float
    gamma_n: float
    mu: int
    delta_mu: complex
    mode: str
    per_order: list


def _require_normalized(J):
    from .dualspace import is_normalized

    if not is_normalized(J):
        raise NotNormalizedError(
            "point is not in the distinguished coordinate shape; "
            "compute in a normalizing frame instead"
        )


def _hat_supremum(Jhat, tensors, mode):
    """Sup over orders of the preconditioned leading-block coefficients.

    tensors yields (k, raw_array) with raw_array the order-k derivative
    tensor of the leading n-1 equations, unscaled.
    """
    best = 1.0
    rows = []
    for k, raw in tensors:
        scaled = raw / math.factorial(k)
        m = scaled.shape[0]
        flat = scaled.reshape(m, -1)
        pre = solve_linear(Jhat, flat).reshape(scaled.shape)
        nrm = tensor_norm(pre, mode=mode).value(mode)
        val = nrm ** (1.0 / (k - 1))
        rows.append({"order": k, "hat": val})
        if val > best:
            best = val
    return best, rows


def _n_supremum(delta_mu, tensors, mode):
    """Sup over orders for the last equation, scaled by the terminating
    chain value. tensors yields (k, raw_array) of shape (1, n, ..., n)."""
    best = 1.0
    rows = []
    scale = abs(delta_mu)
    for k, raw in tensors:
        scaled = raw / math.factorial(k)
        nrm = tensor_norm(scaled, mode=mode).value(mode) / scale
        val = nrm ** (1.0 / (k - 1))
        rows.append({"order": k, "n": val})
        if val > best:
            best = val
    return best, rows


def _merge_rows(hat_rows, n_rows):
    by_order = {}
    for row in hat_rows:
        by_order.setdefault(row["order"], {"order": row["order"]}).update(row)
    for row in n_rows:
        by_order.setdefault(row["order"], {"order": row["order"]}).update(row)
    return [by_order[k] for k in sorted(by_order)]


def gamma_hat(source, x, mode="estimate"):
    """Leading-block invariant at a normalized point."""
    x = np.asarray(x, dtype=complex)
    n = source.nvars
    J = source.jacobian(x)
    _require_normalized(J)
    if n < 2:
        return 1.0, []
    Jhat = J[: n - 1, 1:]
    deg = source.max_degree()
    tensors = (
        (k, source.derivative_tensor(x, k).array[: n - 1]) for k in range(2, deg + 1)
    )
    return _hat_supremum(Jhat, tensors, mode)


def gamma_n(source, x, mu, delta_mu=None, mode="estimate"):
    """Last-equation invariant at a normalized point.

    delta_mu is the value of the order-mu chain functional on the last
    equation; when omitted it is recomputed from the dual basis.
    """
    x = np.asarray(x, dtype=complex)
    n = source.nvars
    J = source.jacobian(x)
    _require_normalized(J)
    if delta_mu is None:
        from .dualspace import compute_dual_basis

        basis = compute_dual_basis(source, x)
        if basis.mu != mu:
            raise InputError(
                "requested order %d but the chain terminates at %d" % (mu, basis.mu)
            )
        delta_mu = basis.delta_values[-1][-1]
    deg = source.max_degree()
    tensors = (
        (k, source.derivative_tensor(x, k).array[n - 1 : n])
        for k in range(2, deg + 1)
    )
    val, rows = _n_supremum(delta_mu, tensors, mode)
    return val, rows, delta_mu


def gamma_mu(source, x, mu=None, mode="estimate"):
    """Combined invariant, the maximum of the two halves.

    Computes the dual basis for the multiplicity and the terminating chain
    value (mu, when supplied, must match it; a mismatch is an InputError).
    The Jacobian and each tensor of order 2..deg are evaluated once and
    shared by both halves.
    """
    from .dualspace import compute_dual_basis

    x = np.asarray(x, dtype=complex)
    J = source.jacobian(x)
    _require_normalized(J)
    basis = compute_dual_basis(source, x)
    if mu is not None and basis.mu != mu:
        raise InputError(
            "requested order %d but the chain terminates at %d" % (mu, basis.mu)
        )
    mu = basis.mu
    delta_mu = basis.delta_values[-1][-1]
    n = source.nvars
    raw = [
        (k, source.derivative_tensor(x, k).array)
        for k in range(2, source.max_degree() + 1)
    ]
    ghat, hat_rows = 1.0, []
    if n >= 2:
        hat = [(k, T[: n - 1]) for k, T in raw]
        ghat, hat_rows = _hat_supremum(J[: n - 1, 1:], hat, mode)
    gn, n_rows = _n_supremum(delta_mu, [(k, T[n - 1 :]) for k, T in raw], mode)
    return GammaReport(
        gamma=max(ghat, gn),
        gamma_hat=ghat,
        gamma_n=gn,
        mu=mu,
        delta_mu=complex(delta_mu),
        mode=mode,
        per_order=_merge_rows(hat_rows, n_rows),
    )
