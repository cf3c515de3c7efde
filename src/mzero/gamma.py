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

import functools
import math

import numpy as np

from . import DEFAULT_TOLERANCES as DEFAULTS, MAX_ORDER, NORM_MODES
from .dualspace import _e1, kernel_chain, local_view
from .errors import InputError, MathDomainError, MultiplicityNotFoundError, NotNormalizedError
from .numkit import unfolding_norm
from .polycore import symmetric_layout
from .record import Record


class GammaReport(Record):
    _fields = ("gamma", "gamma_hat", "gamma_n", "mu", "delta_mu", "mode", "per_order")


class LocalModel:
    """Local data of a system at one point, each piece computed once.

    One coordinate rule, `dualspace.local_view`'s: a point whose Jacobian
    passes the strict shape test stays in its coordinates, and any other
    point moves to its normalizing frame. The frame is unitary, so
    distances, radii and the invariants hold in the original coordinates.
    One route: `local_view` reads the Jacobian and its one SVD, with the
    corank test at gap_tol (CorankError), and `dualspace.kernel_chain`
    ends the chain along e1 there by delta_zero_tol. A given mu must match
    that end: a chain that ends before mu, after it or not by the order
    cap is an InputError naming mu. trust_mu takes a given mu as it is,
    with no corank test: the chain runs to it once `dualspace.check_order`
    passes it (at most the Bezout number). A trusted mu whose chain value
    vanishes, so that nothing can be scaled by it, is a MathDomainError.

    Attributes: `view` and `x`, the system worked in and the point in its
    coordinates; `J` there; `Jhat`, the `numkit.LinearSolver` of J[:n-1, 1:],
    so that every solve against the block and the certificate's sigma_min
    read one SVD; `mu`; `chain`, the raw chain values along e1 (entry k-2
    holds order k, for k = 2..mu); `delta_mu`, the order-mu value on the
    last equation; `v`, the view's e1 in the inputs of the system a frame
    rotates; `coeffs`, built on first use.
    """

    def __init__(self, source, x, mu=None, trust_mu=False, gap_tol=DEFAULTS["gap_tol"],
                 delta_zero_tol=DEFAULTS["delta_zero_tol"]):
        n = source.nvars
        if n < 2:
            raise InputError("a corank-one zero needs at least two variables, got %d" % n)
        trusted = trust_mu and mu is not None
        self.view, self.x, self.J, self.Jhat = local_view(
            source, x, gap_tol=None if trusted else gap_tol)[:4]
        try:
            self.chain = kernel_chain(self.view, self.x, _e1(n), self.Jhat,
                                      mu if trusted else None, delta_zero_tol)[1]
        except MultiplicityNotFoundError as exc:
            if mu is None:
                raise
            raise InputError("requested order %d but %s" % (mu, exc)) from None
        self.mu = len(self.chain) + 1
        if mu not in (None, self.mu):
            raise InputError("requested order %d but the chain terminates at %d" % (mu, self.mu))
        self.delta_mu = self.chain[-1][-1]
        if self.delta_mu == 0:
            # only a trusted mu gets here: a detected chain ends on a nonzero value
            raise MathDomainError(
                "the terminating value delta_mu is 0 at order %d: the chain does not end there"
                % self.mu
            )
        self.v = getattr(self.view, "W", np.eye(n))[:, 0].conj()

    @functools.cached_property
    def coeffs(self):
        """Per order k = 2..deg, d^alpha f / k! at the alphas of
        `symmetric_layout`, one kernel batch each; a degree above MAX_ORDER,
        whose k! overflows a double, is a MathDomainError."""
        view, n = self.view, self.view.nvars
        degree = view.max_degree()
        if degree > MAX_ORDER:
            raise MathDomainError("the system has degree %d, and k! for an order k above %d "
                                  "overflows a double" % (degree, MAX_ORDER))
        # the invariants do not change under a unitary map of the inputs, so
        # a frame U^H f(W y) needs only its output map, at the point W y
        base = getattr(view, "system", view)
        U, W = (np.eye(n), np.eye(n)) if base is view else (view.U, view.W)
        return {
            k: U.conj().T @ base.partials(symmetric_layout(n, k)[0], W @ self.x) / math.factorial(k)
            for k in range(2, degree + 1)
        }

    def gamma(self, mode="estimate", truncate=False):
        """Combined invariant, the maximum of the two halves.

        With truncate, the last equation loses its pure first-variable
        terms of orders 2..mu-1 (their coefficients are the chain values
        below mu): the invariant of the order-mu truncation that
        `certify.certify_cluster` compares the system against. A mode
        outside `NORM_MODES` is an InputError before any derivative batch.
        """
        if mode not in NORM_MODES:
            raise InputError("unknown norm mode %r, not one of %s" % (mode, ", ".join(NORM_MODES)))
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

    After the detection's errors (CorankError, and
    MultiplicityNotFoundError without mu, or InputError for a mu that
    disagrees with the chain), and before any order-k batch, a point that
    `local_view` moved to its normalizing frame is refused
    (NotNormalizedError); `LocalModel` computes in the frame instead. The
    Jacobian and each order 2..deg take one kernel batch.
    """
    model = LocalModel(source, x, mu)
    if model.view is not source:
        raise NotNormalizedError("point is not in the distinguished coordinate shape; "
                                 "compute in a normalizing frame instead")
    return model.gamma(mode)
