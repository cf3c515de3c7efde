"""Command line front end.

Subcommands: dual, gamma, separation, certify, refine, thresholds. Every
command prints a human-readable summary by default and a canonical JSON
document with --json. Exit codes: 0 on success (a negative certificate is
still a success), 2 for input problems (including a --mu that disagrees
with the chain length found at the point), 3 for numerical-domain
problems, 4 for internal errors. Points are checked on entry: one finite
coordinate per system variable, and at least two variables. `separation`
and `certify` take a --mu of at most `constants.ANCHORED_MAX`, the orders
whose universal constant is cross-checked. `gamma` and `certify` move a
point outside the distinguished shape to a normalizing frame, as
`separation` does. `--gap-tol` and `--delta-zero-tol` reach every
detection of the chain length; they and `--eps` must be finite and
positive, `--max-order` at least 1 and `--max-iter` at least 0.

Each command imports only the layers it runs: `separation --mu k`
without a system and `thresholds` read the numpy-free `constants` module
alone, and numpy is loaded where a point is parsed.

The JSON output is deterministic: keys are sorted, floats are printed
with 17 significant digits, and complex values appear as {"im": ...,
"re": ...} objects. Re-serializing a parsed document reproduces the bytes
exactly. A result holding a non-finite number is a numerical-domain error,
as JSON has no literal for it.
"""

import argparse
import cmath
import json
import math
import sys
from dataclasses import dataclass, field

from . import constants
from .errors import InputError, MathDomainError, ParseError

DEFAULT_TOLERANCES = {
    "gap_tol": 1e-8,
    "delta_zero_tol": 1e-8,
    "eps": 1e-10,
    "max_iter": 50,
    "max_order": 10,
}


@dataclass
class RunConfig:
    command: str
    system_path: str = None
    point: object = None  # complex numpy array
    mu: int = None
    mode: str = "estimate"
    variant: str = "auto"
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    output: str = "text"


# ---------------------------------------------------------------------------
# canonical JSON


def _plain(obj):
    """Convert result objects to plain lists/dicts/scalars; numpy arrays
    and scalars become their Python equivalents through `tolist`."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if hasattr(obj, "tolist"):
        return _plain(obj.tolist())
    if isinstance(obj, complex):
        return {"im": obj.imag, "re": obj.real}
    return obj


def canonical_json(obj):
    """Serialize with sorted keys and 17-significant-digit floats.

    Raises MathDomainError for a non-finite float, which JSON cannot hold.
    """
    out = []

    def emit(v):
        if v is None:
            out.append("null")
        elif isinstance(v, bool):
            out.append("true" if v else "false")
        elif isinstance(v, int):
            out.append(str(v))
        elif isinstance(v, float):
            if not math.isfinite(v):
                raise MathDomainError("result holds the non-finite number %r" % v)
            out.append(format(v, ".17g"))
        elif isinstance(v, str):
            out.append(json.dumps(v))
        elif isinstance(v, dict):
            out.append("{")
            for i, k in enumerate(sorted(v)):
                if i:
                    out.append(", ")
                out.append(json.dumps(str(k)))
                out.append(": ")
                emit(v[k])
            out.append("}")
        elif isinstance(v, (list, tuple)):
            out.append("[")
            for i, item in enumerate(v):
                if i:
                    out.append(", ")
                emit(item)
            out.append("]")
        else:
            raise TypeError("cannot serialize %r" % type(v))

    emit(_plain(obj))
    return "".join(out)


# ---------------------------------------------------------------------------
# parsing helpers


def _coordinate(text, where=""):
    try:
        value = complex(text.replace(" ", "").replace("i", "j"))
    except ValueError:
        raise ParseError("bad coordinate %r%s" % (text, where))
    if not cmath.isfinite(value):
        raise ParseError("non-finite coordinate %r%s" % (text, where))
    return value


def parse_point(text):
    """Comma-separated finite complex coordinates; `i` or `j` marks the
    imaginary unit, e.g. "-0.01,0.01" or "1+2i,0"."""
    entries = [e.strip() for e in text.split(",") if e.strip()]
    if not entries:
        raise ParseError("empty point")
    import numpy as np  # commands without a point never load numpy

    return np.array([_coordinate(e) for e in entries], dtype=complex)


def read_point_file(path):
    values = []
    with open(path) as handle:
        for raw in handle:
            line = raw.split("#", 1)[0].strip()
            if line:
                values.append(_coordinate(line, " in %s" % path))
    if not values:
        raise ParseError("no coordinates in %s" % path)
    import numpy as np

    return np.array(values, dtype=complex)


def load_system(path):
    from . import polycore

    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError("cannot read system file %s: %s" % (path, exc))
    return polycore.parse_system(text)


def _load_with_point(cfg):
    """The system file, with the point checked against its variables."""
    system = load_system(cfg.system_path)
    if cfg.point is None:
        raise ParseError("a point is required (--point or --point-file)")
    if len(cfg.point) != system.nvars:
        raise ParseError(
            "point dimension %d does not match the %d variables of the system"
            % (len(cfg.point), system.nvars)
        )
    if system.nvars < 2:
        raise InputError(
            "a corank-one zero needs at least two variables, got %d" % system.nvars
        )
    return system


def _detection(cfg):
    """The tolerances of the chain-length detection, from the flags."""
    return {key: cfg.tolerances[key] for key in ("gap_tol", "delta_zero_tol")}


def _functional_json(fn):
    return [
        {"alpha": list(alpha), "coeff": c} for alpha, c in fn.sorted_items()
    ]


# ---------------------------------------------------------------------------
# subcommands


def _diagnostics(cfg, duality_residuals):
    keys = ("gap_tol", "delta_zero_tol", "eps", "max_iter")
    return {
        "tolerances": {key: cfg.tolerances[key] for key in keys},
        "norm_mode": cfg.mode,
        "duality_residuals": list(duality_residuals),
    }


def _input_block(cfg):
    block = {"system": cfg.system_path}
    if cfg.point is not None:
        block["point"] = list(cfg.point)
    if cfg.mu is not None:
        block["mu"] = cfg.mu
    block["mode"] = cfg.mode
    return block


def _emit(cfg, result, text_lines, inputs=None, duality_residuals=()):
    if cfg.output == "json":
        document = {
            "command": cfg.command,
            "input": _input_block(cfg) if inputs is None else inputs,
            "result": result,
            "diagnostics": _diagnostics(cfg, duality_residuals),
        }
        print(canonical_json(document))
    else:
        for line in text_lines:
            print(line)
    return 0


def cmd_dual(cfg, args):
    from . import dualspace

    system = _load_with_point(cfg)
    basis = dualspace.compute_dual_basis(
        system,
        cfg.point,
        max_order=cfg.tolerances["max_order"],
        gap_tol=cfg.tolerances["gap_tol"],
        delta_zero_tol=cfg.tolerances["delta_zero_tol"],
    )
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
    return _emit(cfg, result, lines, duality_residuals=basis.duality_residuals)


def cmd_gamma(cfg, args):
    from . import gamma

    system = _load_with_point(cfg)
    model = gamma.LocalModel(system, cfg.point, cfg.mu, **_detection(cfg))
    report = model.gamma(cfg.mode)
    result = {
        "gamma": report.gamma,
        "gamma_hat": report.gamma_hat,
        "gamma_n": report.gamma_n,
        "mu": report.mu,
        "delta_mu": report.delta_mu,
        "per_order": report.per_order,
    }
    lines = [
        "mu: %d" % report.mu,
        "gamma_hat: %.12g" % report.gamma_hat,
        "gamma_n:   %.12g" % report.gamma_n,
        "gamma:     %.12g  (mode=%s)" % (report.gamma, report.mode),
    ]
    return _emit(cfg, result, lines)


def cmd_separation(cfg, args):
    if cfg.system_path:
        from . import certify

        system = _load_with_point(cfg)
        sep = certify.separation_bound(
            system, cfg.point, mu=cfg.mu, mode=cfg.mode, **_detection(cfg)
        )
    else:
        if cfg.mu is None:
            raise ParseError("separation needs --mu when no system is given")
        sep = constants.separation_constant(cfg.mu)
    result = {
        "mu": sep.mu,
        "d": sep.d,
        "d1": sep.d1,
        "d2": sep.d2,
        "d3": sep.d3,
    }
    if sep.bound is not None:
        result["bound"] = sep.bound
        result["gamma"] = sep.gamma.gamma
    lines = [
        "mu: %d" % sep.mu,
        "d = min(%.12g, %.12g, %.12g) = %.12g" % (sep.d1, sep.d2, sep.d3, sep.d),
    ]
    if sep.bound is not None:
        lines.append("gamma: %.12g" % sep.gamma.gamma)
        lines.append("exclusion radius d / (2 gamma^mu): %.12g" % sep.bound)
    return _emit(cfg, result, lines)


def cmd_certify(cfg, args):
    from . import certify

    system = _load_with_point(cfg)
    cert = certify.certify_cluster(
        system, cfg.point, mu=cfg.mu, mode=cfg.mode, **_detection(cfg)
    )
    result = {
        "holds": cert.holds,
        "radius": cert.radius,
        "mu": cert.mu,
        "lhs": cert.lhs,
        "rhs": cert.rhs,
        "d": cert.d,
        "h_norms": cert.h_norms,
        "a_inv_norm": cert.a_inv_norm,
        "gamma": cert.gamma_on_g.gamma,
        "gamma_hat": cert.gamma_on_g.gamma_hat,
        "gamma_n": cert.gamma_on_g.gamma_n,
    }
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
    return _emit(cfg, result, lines)


def cmd_refine(cfg, args):
    from . import newton

    system = _load_with_point(cfg)
    trace = newton.iterate_until(
        system,
        cfg.point,
        mu=cfg.mu,
        variant=cfg.variant,
        eps=cfg.tolerances["eps"],
        max_iter=cfg.tolerances["max_iter"],
        **_detection(cfg),
    )
    result = {
        "converged": trace.converged,
        "stop_reason": trace.stop_reason,
        "variant": trace.variant,
        "mu": trace.mu,
        "iterations": len(trace.iterates) - 1,
        "iterates": [list(z) for z in trace.iterates],
        "residual_norms": trace.residual_norms,
        "step_norms": trace.step_norms,
        "warnings": trace.warnings,
    }
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
    return _emit(cfg, result, lines)


def cmd_thresholds(cfg, args):
    ts = constants.threshold_constants(args.threshold_variant)
    result = {
        "variant": ts.variant,
        "mu": ts.mu,
        "u_converge": ts.u_converge,
        "u_quadratic": ts.u_quadratic,
    }
    lines = [
        "variant: %s" % ts.variant,
        "u_converge:  %.10g" % ts.u_converge,
        "u_quadratic: %.10g" % ts.u_quadratic,
    ]
    return _emit(cfg, result, lines, inputs={"variant": ts.variant, "mode": cfg.mode})


# ---------------------------------------------------------------------------
# argument wiring


def _add_common(sub, point=True, mu=True, mode=True):
    sub.add_argument("--system", help="path to a system description file")
    if point:
        sub.add_argument("--point", help="comma-separated complex coordinates")
        sub.add_argument("--point-file", help="file with one coordinate per line")
    if mu:
        sub.add_argument("--mu", type=int, help="multiplicity (detected if omitted)")
    if mode:
        sub.add_argument(
            "--mode",
            choices=("estimate", "certified"),
            default="estimate",
            help="tensor norm handling for growth invariants",
        )
    sub.add_argument("--gap-tol", type=float, default=DEFAULT_TOLERANCES["gap_tol"])
    sub.add_argument(
        "--delta-zero-tol",
        type=float,
        default=DEFAULT_TOLERANCES["delta_zero_tol"],
    )
    sub.add_argument("--json", action="store_true", help="canonical JSON output")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mzero",
        description="Multiplicity structure, separation bounds, and refinement "
        "for corank-one multiple zeros of polynomial systems.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("dual", help="dual basis and multiplicity at a point")
    _add_common(sp, mu=False, mode=False)
    sp.add_argument("--max-order", type=int, default=DEFAULT_TOLERANCES["max_order"])
    sp.set_defaults(func=cmd_dual, needs_system=True)

    sp = subs.add_parser("gamma", help="growth invariants at a normalized zero")
    _add_common(sp)
    sp.set_defaults(func=cmd_gamma, needs_system=True)

    sp = subs.add_parser("separation", help="separation constant and radius")
    _add_common(sp)
    sp.set_defaults(func=cmd_separation, needs_system=False)

    sp = subs.add_parser("certify", help="cluster certificate at an approximate zero")
    _add_common(sp)
    sp.set_defaults(func=cmd_certify, needs_system=True)

    sp = subs.add_parser("refine", help="refine an approximate multiple zero")
    _add_common(sp, mode=False)
    sp.add_argument(
        "--variant",
        choices=("auto",) + constants.VARIANTS,
        default="auto",
        help="iteration variant (auto picks by mu and coordinate shape)",
    )
    sp.add_argument("--eps", type=float, default=DEFAULT_TOLERANCES["eps"])
    sp.add_argument("--max-iter", type=int, default=DEFAULT_TOLERANCES["max_iter"])
    sp.set_defaults(func=cmd_refine, needs_system=True)

    sp = subs.add_parser("thresholds", help="convergence threshold constants")
    sp.add_argument(
        "--variant",
        dest="threshold_variant",
        choices=constants.THRESHOLD_VARIANTS,
        required=True,
    )
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_thresholds, needs_system=False)

    return parser


def _config_from_args(args):
    tol = dict(DEFAULT_TOLERANCES)
    for key in tol:
        if getattr(args, key, None) is not None:
            tol[key] = getattr(args, key)
    for key in ("gap_tol", "delta_zero_tol", "eps"):
        if not 0 < tol[key] < math.inf:
            raise ParseError("--%s must be finite and above 0" % key.replace("_", "-"))
    for key, low in (("max_order", 1), ("max_iter", 0)):
        if tol[key] < low:
            raise ParseError("--%s must be at least %d" % (key.replace("_", "-"), low))
    cfg = RunConfig(
        command=args.command,
        system_path=getattr(args, "system", None),
        mu=getattr(args, "mu", None),
        mode=getattr(args, "mode", "estimate"),
        variant=getattr(args, "variant", "auto"),
        tolerances=tol,
        output="json" if getattr(args, "json", False) else "text",
    )
    if getattr(args, "point", None):
        cfg.point = parse_point(args.point)
    elif getattr(args, "point_file", None):
        cfg.point = read_point_file(args.point_file)
    if cfg.mu is not None and cfg.mu < 2:
        raise ParseError("--mu must be at least 2")
    top = constants.ANCHORED_MAX
    if cfg.command in ("separation", "certify") and (cfg.mu or 0) > top:
        raise ParseError(
            "--mu must be at most %d, the largest order whose constant d(mu) "
            "is cross-checked" % top
        )
    if getattr(args, "needs_system", False) and not cfg.system_path:
        raise ParseError("a system file is required (--system)")
    return cfg


def _join_value_flags(argv):
    """Glue flag values onto their flags with '=', so coordinates that
    begin with a minus sign are not mistaken for options."""
    joined = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in ("--point", "--point-file") and i + 1 < len(argv):
            joined.append(tok + "=" + argv[i + 1])
            skip = True
        else:
            joined.append(tok)
    return joined


def main(argv=None):
    try:
        if argv is None:
            argv = sys.argv[1:]
        argv = _join_value_flags(list(argv))
        parser = build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code) if exc.code else 0
        cfg = _config_from_args(args)
        return args.func(cfg, args)
    except InputError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except MathDomainError as exc:
        print("numerical-domain error: %s" % exc, file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001  keep the tool from crashing
        import traceback  # imported only here: it adds start-up time and memory

        traceback.print_exc()
        print("internal error: %s" % exc, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
