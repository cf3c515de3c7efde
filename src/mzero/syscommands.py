"""The commands of `mzero.cli` that read a point or a system file.

This module holds the point and system readers and the handlers of
`dual`, `gamma`, `certify` and `refine`, with the system branch of
`separation`. `mzero.cli` imports it only when a call gives a point or a
system file, so `separation --mu k` and `thresholds` never compile it.
Each handler returns its result and its text lines (and `dual` its
duality residuals), and `cli.main` writes them. The module never imports
`mzero.cli`: under `python -m mzero.cli` the running module is
`__main__`, and such an import would compile and run cli.py a second
time.
"""

import math

import numpy as np

from .errors import InputError, ParseError
from .polycore import parse_system


def _coordinate(text, where=""):
    # `i` or `I` marks the imaginary unit only as the last character, so
    # that "inf", "INF" and "infinity" reach `complex` as they are
    literal = text.replace(" ", "")
    try:
        value = complex(literal[:-1] + "j" if literal.endswith(("i", "I")) else literal)
    except ValueError:
        raise ParseError("bad coordinate %r%s" % (text, where))
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ParseError("non-finite coordinate %r%s" % (text, where))
    return value


def parse_point(text):
    """Comma-separated finite complex coordinates; `i`, `j`, `I` or `J`
    marks the imaginary unit, e.g. "-0.01,0.01" or "1+2i,0". An empty
    field, as in "0,,0" or "0,0,", is refused."""
    entries = [e.strip() for e in text.split(",")]
    if "" in entries:
        raise ParseError("empty coordinate in point %r" % text)
    return np.array([_coordinate(e) for e in entries], dtype=complex)


def _read_text(path, what):
    """A file's text, without a leading byte-order mark (removed here, so the
    utf-8-sig codec is not loaded); a file that cannot be opened or is not
    UTF-8 is an input error."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read().removeprefix("\ufeff")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError("cannot read %s %s: %s" % (what, path, exc))


def read_point_file(path):
    values = []
    for raw in _read_text(path, "point file").split("\n"):
        line = raw.split("#", 1)[0].strip()
        if line:
            values.append(_coordinate(line, " in %s" % path))
    if not values:
        raise ParseError("no coordinates in %s" % path)
    return np.array(values, dtype=complex)


def load_system(path):
    return parse_system(_read_text(path, "system file"))


def _load_with_point(args):
    """The system file, with the point checked against its variables."""
    system = load_system(args.system)
    if args.point is None:
        raise ParseError("a point is required (--point or --point-file)")
    if len(args.point) != system.nvars:
        raise ParseError(
            "point dimension %d does not match the %d variables of the system"
            % (len(args.point), system.nvars)
        )
    if system.nvars < 2:
        raise InputError(
            "a corank-one zero needs at least two variables, got %d" % system.nvars
        )
    return system


def _detection(args):
    """The tolerances of the chain-length detection, from the flags."""
    return {"gap_tol": args.gap_tol, "delta_zero_tol": args.delta_zero_tol}


def _functional_json(fn):
    return [{"alpha": list(alpha), "coeff": c} for alpha, c in fn.sorted_items()]


def cmd_dual(args):
    from . import dualspace

    system = _load_with_point(args)
    basis = dualspace.compute_dual_basis(system, args.point, **_detection(args))
    result = {
        "mu": basis.mu,
        "breadth_one": basis.breadth_one,
        "normalized": basis.normalized,
        "corank_gap": basis.corank_gap,
        "singular_values": list(basis.singular_values),
        "a_coeffs": basis.a_coeffs,
        "delta_values": [list(v) for v in basis.delta_values],
        "lambdas": [_functional_json(lam) for lam in basis.lambdas],
    }
    lines = [
        "multiplicity: %d" % basis.mu,
        "normalized coordinates: %s" % ("yes" if basis.normalized else "no"),
        "corank gap (sigma_n / sigma_{n-1}): %.3e" % basis.corank_gap,
        "terminating value on last equation: %s" % basis.delta_values[-1][-1],
        "max duality residual: %.3e"
        % (max(basis.duality_residuals) if len(basis.duality_residuals) else 0.0),
    ]
    return result, lines, basis.duality_residuals


def cmd_gamma(args):
    from . import gamma

    system = _load_with_point(args)
    model = gamma.LocalModel(system, args.point, args.mu, **_detection(args))
    report = model.gamma(args.mode)
    lines = [
        "mu: %d" % report.mu,
        "gamma_hat: %.12g" % report.gamma_hat,
        "gamma_n:   %.12g" % report.gamma_n,
        "gamma:     %.12g  (mode=%s)" % (report.gamma, report.mode),
    ]
    return report.pick("gamma gamma_hat gamma_n mu delta_mu per_order"), lines


def separation_bound(args):
    """The separation record of `separation` with a system: d(mu) with the
    exclusion radius at the point."""
    from . import certify

    system = _load_with_point(args)
    return certify.separation_bound(
        system, args.point, mu=args.mu, mode=args.mode, **_detection(args)
    )


def cmd_certify(args):
    from . import certify

    system = _load_with_point(args)
    cert = certify.certify_cluster(
        system, args.point, mu=args.mu, mode=args.mode, **_detection(args)
    )
    result = cert.pick("holds radius mu lhs rhs d h_norms a_inv_norm")
    result.update(cert.gamma_on_g.pick("gamma gamma_hat gamma_n"))
    verdict = (
        "certified: %d zeros (with multiplicity) in the ball" % cert.mu
        if cert.holds
        else "not certified at this point"
    )
    lines = [
        "lhs: %.6e" % cert.lhs,
        "rhs: %.6e" % cert.rhs,
        "radius: %.6g" % cert.radius,
        "gamma on truncation: %.12g (mode=%s)" % (cert.gamma_on_g.gamma, cert.mode),
        verdict,
    ]
    return result, lines


def cmd_refine(args):
    from . import newton

    system = _load_with_point(args)
    trace = newton.iterate_until(
        system,
        args.point,
        mu=args.mu,
        variant=args.variant,
        eps=args.eps,
        max_iter=args.max_iter,
        **_detection(args),
    )
    result = trace.pick("converged stop_reason variant mu residual_norms step_norms warnings")
    result.update(iterations=len(trace.iterates) - 1, iterates=[list(z) for z in trace.iterates])
    lines = [
        "variant: %s (mu=%d)" % (trace.variant, trace.mu),
        "iterations: %d" % (len(trace.iterates) - 1),
        "stop reason: %s" % trace.stop_reason,
    ]
    for i, (z, r) in enumerate(zip(trace.iterates, trace.residual_norms)):
        lines.append(
            "  %2d: %s   |f| = %.3e"
            % (i, ", ".join("%.9g%+.9gi" % (c.real, c.imag) for c in z), r)
        )
    for w in trace.warnings:
        lines.append("warning: %s" % w)
    return result, lines
