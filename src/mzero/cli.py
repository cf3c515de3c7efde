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
alone, `dual`, `gamma` and `refine` never load it, and numpy is loaded
where a point is parsed. Only `dual` loads `functionals`, and only a
frame loads `frames`. No call imports `json` or `dataclasses`.

Each command has one flag table. A well-formed call (exact flags, values
that convert and lie in their choices, every required flag) is read from
it directly, so `argparse`, `gettext` and `locale` load only for help,
usage and errors. Those go to the argparse parser built from the same
table for the invoked command alone (the full one, for `mzero --help`,
loads no numpy). A flag value of exactly `--`, which argparse would drop,
is an input error.

The JSON output is deterministic: keys are sorted, floats are printed
with 17 significant digits, and complex values appear as {"im": ...,
"re": ...} objects. Re-serializing a parsed document reproduces the bytes
exactly. A result holding a non-finite number is a numerical-domain error,
as JSON has no literal for it.
"""

import math
import re
import sys
from types import SimpleNamespace

from . import DEFAULT_TOLERANCES, THRESHOLD_VARIANTS, VARIANTS
from .errors import InputError, MathDomainError, ParseError


# ---------------------------------------------------------------------------
# canonical JSON


# what json.dumps escapes: quote, backslash, and all but printable ASCII
_UNSAFE = re.compile(r'["\\]|[^ -~]')
_SHORT = {ch: "\\" + name for ch, name in zip('"\\\b\f\n\r\t', '"\\bfnrt')}


def _escape(match):
    """A short escape, else one \\uXXXX per UTF-16 unit (two above U+FFFF)."""
    ch = match.group()
    units = ch.encode("utf-16-be", "surrogatepass").hex()
    return _SHORT.get(ch) or "".join("\\u" + units[i : i + 4] for i in range(0, len(units), 4))


def _quote(text):
    """text as a JSON string, byte for byte what `json.dumps` gives."""
    return '"' + _UNSAFE.sub(_escape, text) + '"'


def canonical_json(obj):
    """Serialize with sorted keys and 17-significant-digit floats.

    numpy arrays and scalars are written as their `tolist` values, and a
    complex number as {"im": ..., "re": ...}. Raises MathDomainError for a
    non-finite float, which JSON cannot hold.
    """
    out = []

    def emit(v):
        if hasattr(v, "tolist"):
            v = v.tolist()
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
        elif isinstance(v, complex):
            emit({"im": v.imag, "re": v.real})
        elif isinstance(v, str):
            out.append(_quote(v))
        elif isinstance(v, dict):
            v = {str(k): item for k, item in v.items()}
            out.append("{")
            for i, k in enumerate(sorted(v)):
                if i:
                    out.append(", ")
                out.append(_quote(k))
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

    emit(obj)
    return "".join(out)


# ---------------------------------------------------------------------------
# parsing helpers


def _coordinate(text, where=""):
    try:
        value = complex(text.replace(" ", "").replace("i", "j"))
    except ValueError:
        raise ParseError("bad coordinate %r%s" % (text, where))
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
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


def _read_text(path, what):
    """A file's text; a file that cannot be opened or is not UTF-8 is an
    input error."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
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
    import numpy as np

    return np.array(values, dtype=complex)


def load_system(path):
    from . import polycore

    return polycore.parse_system(_read_text(path, "system file"))


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


def _pick(record, names):
    """A result record's fields named in `names`, by name."""
    return {name: getattr(record, name) for name in names.split()}


def _functional_json(fn):
    return [{"alpha": list(alpha), "coeff": c} for alpha, c in fn.sorted_items()]


# ---------------------------------------------------------------------------
# subcommands


def _diagnostics(args, duality_residuals):
    keys = ("gap_tol", "delta_zero_tol", "eps", "max_iter")
    return {
        "tolerances": {key: getattr(args, key) for key in keys},
        "norm_mode": args.mode,
        "duality_residuals": list(duality_residuals),
    }


def _input_block(args):
    block = {"system": args.system}
    if args.point is not None:
        block["point"] = list(args.point)
    if args.mu is not None:
        block["mu"] = args.mu
    block["mode"] = args.mode
    return block


def _emit(args, result, text_lines, inputs=None, duality_residuals=()):
    if args.json:
        document = {
            "command": args.command,
            "input": _input_block(args) if inputs is None else inputs,
            "result": result,
            "diagnostics": _diagnostics(args, duality_residuals),
        }
        print(canonical_json(document))
    else:
        for line in text_lines:
            print(line)
    return 0


def cmd_dual(args):
    from . import dualspace

    system = _load_with_point(args)
    basis = dualspace.compute_dual_basis(
        system, args.point, max_order=args.max_order, **_detection(args)
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
    return _emit(args, result, lines, duality_residuals=basis.duality_residuals)


def cmd_gamma(args):
    from . import gamma

    system = _load_with_point(args)
    model = gamma.LocalModel(system, args.point, args.mu, **_detection(args))
    report = model.gamma(args.mode)
    result = _pick(report, "gamma gamma_hat gamma_n mu delta_mu per_order")
    lines = [
        "mu: %d" % report.mu,
        "gamma_hat: %.12g" % report.gamma_hat,
        "gamma_n:   %.12g" % report.gamma_n,
        "gamma:     %.12g  (mode=%s)" % (report.gamma, report.mode),
    ]
    return _emit(args, result, lines)


def cmd_separation(args):
    if args.system:
        from . import certify

        system = _load_with_point(args)
        sep = certify.separation_bound(
            system, args.point, mu=args.mu, mode=args.mode, **_detection(args)
        )
    else:
        if args.mu is None:
            raise ParseError("separation needs --mu when no system is given")
        from .constants import separation_constant

        sep = separation_constant(args.mu)
    result = _pick(sep, "mu d d1 d2 d3")
    if sep.bound is not None:
        result.update(bound=sep.bound, gamma=sep.gamma.gamma)
    lines = [
        "mu: %d" % sep.mu,
        "d = min(%.12g, %.12g, %.12g) = %.12g" % (sep.d1, sep.d2, sep.d3, sep.d),
    ]
    if sep.bound is not None:
        lines.append("gamma: %.12g" % sep.gamma.gamma)
        lines.append("exclusion radius d / (2 gamma^mu): %.12g" % sep.bound)
    return _emit(args, result, lines)


def cmd_certify(args):
    from . import certify

    system = _load_with_point(args)
    cert = certify.certify_cluster(
        system, args.point, mu=args.mu, mode=args.mode, **_detection(args)
    )
    result = _pick(cert, "holds radius mu lhs rhs d h_norms a_inv_norm")
    result.update(_pick(cert.gamma_on_g, "gamma gamma_hat gamma_n"))
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
    return _emit(args, result, lines)


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
    result = _pick(trace, "converged stop_reason variant mu residual_norms step_norms warnings")
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
    return _emit(args, result, lines)


def cmd_thresholds(args):
    from . import constants

    ts = constants.threshold_constants(args.threshold_variant)
    result = _pick(ts, "variant mu u_converge u_quadratic")
    lines = [
        "variant: %s" % ts.variant,
        "u_converge:  %.10g" % ts.u_converge,
        "u_quadratic: %.10g" % ts.u_quadratic,
    ]
    return _emit(args, result, lines, inputs={"variant": ts.variant, "mode": args.mode})


# ---------------------------------------------------------------------------
# argument wiring


def _flag(flag, type=str, help=None, choices=None, required=False, dest=None):
    """One row of a flag table: (flag, dest, type, choices, required, help).
    A type of None marks a store-true switch."""
    return (flag, dest or flag[2:].replace("-", "_"), type, choices, required, help)


_LOCATION = [
    _flag("--system", help="path to a system description file"),
    _flag("--point", help="comma-separated complex coordinates"),
    _flag("--point-file", help="file with one coordinate per line"),
]
_MU = _flag("--mu", int, "multiplicity (detected if omitted)")
_MODE = _flag("--mode", help="tensor norm handling for growth invariants",
              choices=("estimate", "certified"))
_TOLERANCES = [_flag("--gap-tol", float), _flag("--delta-zero-tol", float)]
_JSON = _flag("--json", None, "canonical JSON output")
_GROWTH = _LOCATION + [_MU, _MODE] + _TOLERANCES + [_JSON]
_REFINE = _LOCATION + [_MU] + _TOLERANCES + [
    _JSON,
    _flag("--variant", help="iteration variant (auto picks by mu and coordinate shape)",
          choices=("auto",) + VARIANTS),
    _flag("--eps", float),
    _flag("--max-iter", int),
]

# the value of each flag left out, or that the command lacks
_DEFAULTS = dict(system=None, point=None, point_file=None, mu=None, mode="estimate", json=False,
                 variant="auto", **DEFAULT_TOLERANCES)

# name: (handler, help, flag table)
COMMANDS = {
    "dual": (cmd_dual, "dual basis and multiplicity at a point",
             _LOCATION + _TOLERANCES + [_JSON, _flag("--max-order", int)]),
    "gamma": (cmd_gamma, "growth invariants at a normalized zero", _GROWTH),
    "separation": (cmd_separation, "separation constant and radius", _GROWTH),
    "certify": (cmd_certify, "cluster certificate at an approximate zero", _GROWTH),
    "refine": (cmd_refine, "refine an approximate multiple zero", _REFINE),
    "thresholds": (cmd_thresholds, "convergence threshold constants", [
        _flag("--variant", choices=THRESHOLD_VARIANTS, required=True, dest="threshold_variant"),
        _flag("--json", None),
    ]),
}


def build_parser(command=None):
    """The parser with the subparser of `command` alone, or of every
    command when `command` names none."""
    import argparse  # loaded only for help, usage and errors; see _fast_args

    parser = argparse.ArgumentParser(
        prog="mzero",
        description="Multiplicity structure, separation bounds, and refinement "
        "for corank-one multiple zeros of polynomial systems.",
    )
    names = [command] if command in COMMANDS else list(COMMANDS)
    # a lone subparser needs the metavar for the usage line to list every
    # command; with all of them, errors name the argument `command`
    metavar = "{%s}" % ",".join(COMMANDS) if len(names) == 1 else None
    subs = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        _, help_text, flags = COMMANDS[name]
        sp = subs.add_parser(name, help=help_text)
        sp.set_defaults(**_DEFAULTS)
        for flag, dest, kind, choices, required, help_text in flags:
            if kind is None:
                sp.add_argument(flag, dest=dest, action="store_true", help=help_text)
            else:
                sp.add_argument(flag, dest=dest, type=kind, choices=choices, required=required,
                                help=help_text)
    # every option that takes a value, for _join_value_flags
    parser.value_flags = {row[0] for name in names for row in COMMANDS[name][2] if row[2]}
    return parser


def _fast_args(argv):
    """The flags of a well-formed call, as build_parser's parser reads them
    from _join_value_flags(argv), without loading argparse.

    Takes a command name and then only that command's exact flags: a
    switch bare, a value as `--flag=value` or as the next token, whatever
    it begins with, converted by the table's type and inside its choices;
    every required flag present. Returns None for anything else (help, an
    error, an abbreviation, `--` as a token or a value, a stray token),
    which argparse reads.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    flags = COMMANDS[argv[0]][2]
    table = {row[0]: row for row in flags}
    values = dict(_DEFAULTS, command=argv[0])
    tokens = iter(argv[1:])
    for tok in tokens:
        flag, eq, value = tok.partition("=")
        if flag not in table:
            return None
        _, dest, kind, choices, _, _ = table[flag]
        if kind is None:
            if eq:
                return None
            values[dest] = True
            continue
        if not eq:
            value = next(tokens, None)
        if value is None or value == "--":  # _join_value_flags refuses a value "--"
            return None
        try:
            value = kind(value)
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    if any(required and dest not in values for _, dest, _, _, required, _ in flags):
        return None
    return SimpleNamespace(**values)


def _check_args(args):
    """Check the parsed flags and read the point, in place."""
    for key in ("gap_tol", "delta_zero_tol", "eps"):
        if not 0 < getattr(args, key) < math.inf:
            raise ParseError("--%s must be finite and above 0" % key.replace("_", "-"))
    for key, low in (("max_order", 1), ("max_iter", 0)):
        if getattr(args, key) < low:
            raise ParseError("--%s must be at least %d" % (key.replace("_", "-"), low))
    if args.point:
        args.point = parse_point(args.point)
    elif args.point_file:
        args.point = read_point_file(args.point_file)
    else:
        args.point = None
    if args.mu is not None and args.mu < 2:
        raise ParseError("--mu must be at least 2")
    if args.command in ("separation", "certify") and args.mu is not None:
        from .constants import ANCHORED_MAX

        if args.mu > ANCHORED_MAX:
            raise ParseError(
                "--mu must be at most %d, the largest order whose constant d(mu) "
                "is cross-checked" % ANCHORED_MAX
            )
    if args.command in ("dual", "gamma", "certify", "refine") and not args.system:
        raise ParseError("a system file is required (--system)")
    if args.point is not None and not args.system:
        raise ParseError("a point needs a system file (--system)")


def _join_value_flags(argv, flags):
    """Glue the value of each flag in `flags` onto it with '=', so a value
    that begins with a minus sign (a coordinate, `-1e-8`) is not mistaken
    for an option. A value of exactly `--`, which argparse would drop, is
    refused (ParseError)."""
    joined, tokens = [], iter(argv)
    for tok in tokens:
        value = next(tokens, None) if tok in flags else None
        flag, eq, glued = tok.partition("=")
        if value == "--" or eq and flag in flags and glued == "--":
            raise ParseError("%s takes a value other than '--'" % flag)
        joined.append(tok if value is None else tok + "=" + value)
    return joined


def main(argv=None):
    try:
        argv = sys.argv[1:] if argv is None else argv
        args = _fast_args(argv)
        if args is None:
            parser = build_parser(argv[0] if argv else None)
            try:
                args = parser.parse_args(_join_value_flags(argv, parser.value_flags))
            except SystemExit as exc:
                return int(exc.code) if exc.code else 0
        _check_args(args)
        return COMMANDS[args.command][0](args)
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
