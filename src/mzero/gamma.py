"""Growth invariants of a system at a corank-one zero, read from one
local model of the system at the point.

`LocalModel` computes once what every bound of the package needs at a
point: the view (the input, or a normalizing frame), the Jacobian and
the solver of its invertible block Jhat there, which tests Jhat for
singularity once, the chain values along the kernel
coordinate up to the terminating value delta_mu, and the distinct
entries of each derivative. Gamma, the separation radius, the residual
bound and the cluster certificate all read from it.

The invariants bound how fast higher derivatives grow relative to the
invertible part of the Jacobian. They come in two halves. The first
preconditions the order-k Taylor coefficients of the leading n-1
equations by the inverse of their invertible block and takes a k-th-ish
root. The second does the same for the last equation, scaled by the value
of the terminating chain functional instead of a Jacobian block. Both are
clamped below by one.
"""

import math

import numpy as np

from . import MAX_ORDER
from .dualspace import (
    NORMALIZED_RTOL,
    compute_dual_basis,
    is_normalized,
    kernel_chain,
    normalizing_frame,
)
from .errors import InputError, MathDomainError, NotNormalizedError
from .numkit import LinearSolver, svd, unfolding_norm
from .polycore import symmetric_layout
from .record import Record


class GammaReport(Record):
    _fields = ("gamma", "gamma_hat", "gamma_n", "mu", "delta_mu", "mode", "per_order")


class LocalModel:
    """Local data of a system at one point, each piece computed once.

    A point whose Jacobian fails `is_normalized` with rel_tol moves to a
    normalizing frame, built from the SVD of that test; with frame off it
    raises NotNormalizedError instead. The frame is unitary, so distances,
    radii and the invariants hold in the original coordinates. Without mu the
    chain length is detected by `compute_dual_basis`, with the keyword
    tolerances (gap_tol, delta_zero_tol, max_order); a given mu must
    match it (InputError), unless trust_mu takes it as it is; a trusted mu
    whose chain value vanishes, so that nothing can be scaled by it, is a
    MathDomainError, and so is a system of degree above 170, whose
    coefficients would need a k! above the largest double.

    Attributes: `view` and `x`, the system worked in and the point in its
    coordinates; `J` there; `Jhat`, the `numkit.LinearSolver` of J[:n-1, 1:]
    (the detection's, when detection ran), so that every solve against
    the block and the certificate's sigma_min read one SVD; `mu`; `chain`, the
    raw chain values along e1 (entry k-2 holds order k, for k = 2..mu);
    `delta_mu`, the order-mu value on the last equation; `coeffs`, per
    order k = 2..deg, d^alpha f / k! at the alphas of `symmetric_layout`, in
    the inputs of the system a frame rotates; `v`, the view's e1 there.
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
        # one SVD of the input's Jacobian serves the shape test and the frame
        J = source.jacobian(x)
        res = svd(J)
        if not is_normalized(J, rel_tol, res.s):
            if not frame:
                raise NotNormalizedError(
                    "point is not in the distinguished coordinate shape; "
                    "compute in a normalizing frame instead"
                )
            source, x = normalizing_frame(source, x, J, res)
            J, res = source.jacobian(x), None
        chain = Jhat = None
        if mu is None or not trust_mu:
            basis = compute_dual_basis(source, x, J=J, res=res, **tolerances)
            if mu is not None and basis.mu != mu:
                raise InputError(
                    "requested order %d but the chain terminates at %d"
                    % (mu, basis.mu)
                )
            mu, Jhat = basis.mu, basis.Jhat
            if basis.normalized:
                # the recursion ran along e1 against Jhat already
                chain = basis.delta_values
        self.view = source
        self.x = x
        self.J = J
        self.Jhat = LinearSolver(J[: n - 1, 1:]) if Jhat is None else Jhat
        self.mu = mu
        if chain is None:
            e1 = np.zeros(n, dtype=complex)
            e1[0] = 1.0
            chain = kernel_chain(source, x, e1, self.Jhat, mu)
        self.chain = chain
        self.delta_mu = chain[-1][-1]
        if self.delta_mu == 0:
            # only a trusted mu gets here: a detected chain ends on a nonzero value
            raise MathDomainError(
                "the terminating value delta_mu is 0 at order %d: the chain does not end there"
                % mu
            )
        degree = source.max_degree()
        if degree > MAX_ORDER:
            raise MathDomainError("the system has degree %d, and k! for an order k above %d "
                                  "overflows a double" % (degree, MAX_ORDER))
        # the invariants do not change under a unitary map of the inputs, so
        # a frame U^H f(W y) needs only its output map, at the point W y
        base = getattr(source, "system", source)
        U, W = (np.eye(n), np.eye(n)) if base is source else (source.U, source.W)
        self.v = W[:, 0].conj()
        self.coeffs = {
            k: U.conj().T @ base.partials(symmetric_layout(n, k)[0], W @ x) / math.factorial(k)
            for k in range(2, degree + 1)
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
        for k, P in self.coeffs.items():
            alphas, index, weights = symmetric_layout(n, k)
            last = P[n - 1 :]
            if truncate and k < self.mu:
                # the view's c e1^k is c v^k in the inputs of P: c v^alpha at alpha
                last = last - self.chain[k - 2][-1] * np.prod(self.v**alphas, axis=1)
            hat, val = (
                unfolding_norm((B[:, index] * weights[:, None]).reshape(-1, n), k, mode)
                ** (1.0 / (k - 1))
                for B in (self.Jhat.solve(P[: n - 1]), last / scale)
            )
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
    each order 2..deg are evaluated once, one kernel batch each.
    """
    return LocalModel(source, x, mu, frame=False).gamma(mode)
