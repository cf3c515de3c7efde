"""Growth invariants of a system at a corank-one zero, read from one
local model of the system at the point.

`LocalModel` computes once what every bound of the package needs at a
point: the view (the input, or a normalizing frame), the Jacobian and
its invertible block Jhat there, the chain values along the kernel
coordinate up to the terminating value delta_mu, and the derivative
tensors. Gamma, the separation radius, the residual bound and the
cluster certificate all read from it.

The invariants bound how fast higher derivatives grow relative to the
invertible part of the Jacobian. They come in two halves. The first
preconditions the order-k Taylor coefficients of the leading n-1
equations by the inverse of their invertible block and takes a k-th-ish
root. The second does the same for the last equation, scaled by the value
of the terminating chain functional instead of a Jacobian block. Both are
clamped below by one.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dualspace import (
    NORMALIZED_RTOL,
    compute_dual_basis,
    is_normalized,
    kernel_chain,
    normalized_view,
)
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


class LocalModel:
    """Local data of a system at one point, each piece computed once.

    A point whose Jacobian fails `is_normalized` with rel_tol moves to a
    normalizing frame (`normalized_view`); with frame off it raises
    NotNormalizedError instead. The frame is unitary, so distances, radii
    and the invariants hold in the original coordinates. Without mu the
    chain length is detected by `compute_dual_basis`, with the keyword
    tolerances (gap_tol, delta_zero_tol, max_order); a given mu must
    match it (InputError), unless trust_mu takes it as it is.

    Attributes: `view` and `x`, the system worked in and the point in its
    coordinates; `J` there and `Jhat` = J[:n-1, 1:]; `mu`; `chain`, the
    raw chain values along e1 (entry k-2 holds order k, for k = 2..mu);
    `delta_mu`, the order-mu value on the last equation; `tensors`, the
    raw derivative tensor of each order 2..deg.
    """

    def __init__(
        self,
        source,
        x,
        mu=None,
        frame=True,
        rel_tol=NORMALIZED_RTOL,
        trust_mu=False,
        **tolerances,
    ):
        x = np.asarray(x, dtype=complex)
        n = source.nvars
        if n < 2:
            raise InputError(
                "a corank-one zero needs at least two variables, got %d" % n
            )
        if frame:
            source, x, J = normalized_view(source, x, rel_tol)
        else:
            J = source.jacobian(x)
            if not is_normalized(J, rel_tol):
                raise NotNormalizedError(
                    "point is not in the distinguished coordinate shape; "
                    "compute in a normalizing frame instead"
                )
        chain = None
        if mu is None or not trust_mu:
            basis = compute_dual_basis(source, x, J=J, **tolerances)
            if mu is not None and basis.mu != mu:
                raise InputError(
                    "requested order %d but the chain terminates at %d"
                    % (mu, basis.mu)
                )
            mu = basis.mu
            if basis.normalized:
                # the recursion ran along e1 against Jhat already
                chain = basis.delta_values
        self.view = source
        self.x = x
        self.J = J
        self.Jhat = J[: n - 1, 1:]
        self.mu = mu
        if chain is None:
            e1 = np.zeros(n, dtype=complex)
            e1[0] = 1.0
            chain = kernel_chain(source, x, e1, self.Jhat, mu)
        self.chain = chain
        self.delta_mu = chain[-1][-1]
        self.tensors = {
            k: source.derivative_tensor(x, k).array
            for k in range(2, source.max_degree() + 1)
        }

    def gamma(self, mode="estimate", truncate=False):
        """Combined invariant, the maximum of the two halves.

        With truncate, the last equation loses its pure first-variable
        terms of orders 2..mu-1 (their coefficients are the chain values
        below mu): the invariant of the order-mu truncation that
        `certify.certify_cluster` compares the system against.
        """
        n = self.view.nvars
        scale = abs(self.delta_mu)
        ghat = gn = 1.0
        rows = []
        for k, raw in self.tensors.items():
            fact = math.factorial(k)
            lead = raw[: n - 1] / fact
            pre = solve_linear(self.Jhat, lead.reshape(n - 1, -1)).reshape(lead.shape)
            hat = tensor_norm(pre, mode, check=False).value(mode) ** (1.0 / (k - 1))
            last = raw[n - 1 :]
            if truncate and k < self.mu:
                last = last.copy()
                last[(0,) * (k + 1)] -= fact * self.chain[k - 2][-1]
            nrm = tensor_norm(last / fact, mode, check=False).value(mode) / scale
            val = nrm ** (1.0 / (k - 1))
            rows.append({"order": k, "hat": hat, "n": val})
            ghat = max(ghat, hat)
            gn = max(gn, val)
        return GammaReport(
            gamma=max(ghat, gn),
            gamma_hat=ghat,
            gamma_n=gn,
            mu=self.mu,
            delta_mu=complex(self.delta_mu),
            mode=mode,
            per_order=rows,
        )


def gamma_mu(source, x, mu=None, mode="estimate"):
    """Combined invariant at a point in the distinguished shape.

    Refuses any other point (NotNormalizedError); `LocalModel` moves such
    a point to a normalizing frame. mu, when supplied, must match the
    detected chain length (a mismatch is an InputError). The Jacobian and
    each tensor of order 2..deg are evaluated once.
    """
    return LocalModel(source, x, mu, frame=False).gamma(mode)
