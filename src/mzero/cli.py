"""Command line front end.

Subcommands: dual, gamma, separation, certify, refine, thresholds. Every
command prints a human-readable summary by default and a canonical JSON
document with --json. Exit codes: 0 on success (a negative certificate is
still a success), 1 when the reader closes stdout before the output is
written (nothing goes to stderr), 2 for input problems (including a --mu
that disagrees with the chain length found at the point), 3 for
numerical-domain problems, 4 for internal errors. Points are checked on
entry: one finite coordinate per system variable, no empty field, and at
least two variables, and --point and --point-file exclude each other.
Every --mu is at most `MAX_ORDER` (170), and `separation` and `certify`
take a --mu of at most `constants.ANCHORED_MAX`, the orders whose
universal constant is cross-checked. A system or point file is read as
UTF-8, with or without a byte-order mark. A point outside the
distinguished shape moves to a normalizing frame wherever the chain is
detected (`dual`, and `gamma`, `separation`, `certify` and `refine`
without --mu) or a local model is built (`gamma`, `separation`,
`certify`); `dual` prints the chain in the input's coordinates.
`--gap-tol` and `--delta-zero-tol` reach every detection of the chain
length, which runs to the order cap that the system's degrees imply;
they and `--eps` must be finite and positive, `--max-iter` at least 0.

Each command imports only the layers it runs: `separation --mu k`
without a system reads d(mu) from the table of the numpy-free
`constants` module alone, and `thresholds` its constants from the table
of the numpy-free `thresholds` module alone; `separation` and `certify`
never load `thresholds`, `dual`, `gamma` and `refine` load neither, and
no call loads `derivations`, which derives both tables. This module
holds only what every call runs: the process entry, the flag tables with
the parser, the JSON writer, and the two commands that read no file. The
point and system readers and the handlers of `dual`, `gamma`, `certify`,
`refine` and of `separation` with a system live in `syscommands`, which a
call loads only when it gives a point or a system file, so `separation
--mu k` and `thresholds` never compile them. numpy is loaded where a
point is parsed.
Only `dual` loads `functionals`, and only a frame loads `frames`. No call
imports `json` or `dataclasses`.

Each command has one flag table, and `parse_args` reads, explains and
refuses every call from the tables: a command name, then only that
command's flags, spelled out in full, each value as `--flag value` or
`--flag=value` (a value may begin with `-`; a value of exactly `--` is
refused). `-h` or `--help` prints the help built from the tables and
exits 0; anything else is an input error that names the command and the
token at fault. No call loads argparse.

A process started as `mzero` or `python -m mzero.cli` enters through
`run()`, which turns the cyclic garbage collector off for the call, then
flushes stdout and stderr and ends the process with `os._exit`, so
neither the numpy import nor interpreter teardown spends time collecting
or freeing. `atexit` hooks do not run in such a process. `main(argv)`
leaves the collector as it finds it, for callers that run it in-process.

The JSON output is deterministic: keys are sorted, floats are printed
with 17 significant digits, and complex values appear as {"im": ...,
"re": ...} objects. Re-serializing a parsed document reproduces the bytes
exactly. A result holding a non-finite number is a numerical-domain error,
as JSON has no literal for it.
"""

import gc
import math
import os
import re
import sys
from types import SimpleNamespace

from . import DEFAULT_TOLERANCES, MAX_ORDER, NORM_MODES, THRESHOLD_VARIANTS, VARIANTS
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

    def text(v):
        if hasattr(v, "tolist"):
            v = v.tolist()
        if v is None:
            return "null"
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, int):
            return str(v)
        if isinstance(v, float):
            if not math.isfinite(v):
                raise MathDomainError("result holds the non-finite number %r" % v)
            return format(v, ".17g")
        if isinstance(v, complex):
            return text({"im": v.imag, "re": v.real})
        if isinstance(v, str):
            return _quote(v)
        if isinstance(v, dict):
            v = {str(k): item for k, item in v.items()}
            return "{%s}" % ", ".join([_quote(k) + ": " + text(v[k]) for k in sorted(v)])
        if isinstance(v, (list, tuple)):
            return "[%s]" % ", ".join(map(text, v))
        raise TypeError("cannot serialize %r" % type(v))

    return text(obj)


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
    if args.command == "thresholds":
        return {"variant": args.variant, "mode": args.mode}
    block = {"system": args.system}
    if args.point is not None:
        block["point"] = list(args.point)
    if args.mu is not None:
        block["mu"] = args.mu
    block["mode"] = args.mode
    return block


def _emit(args, result, text_lines, duality_residuals=()):
    if args.json:
        document = {
            "command": args.command,
            "input": _input_block(args),
            "result": result,
            "diagnostics": _diagnostics(args, duality_residuals),
        }
        print(canonical_json(document))
    else:
        for line in text_lines:
            print(line)
    return 0


def _system_command(args):
    """`dual`, `gamma`, `certify` or `refine`, whose handler lives in
    `syscommands` with the readers it needs."""
    from . import syscommands

    return getattr(syscommands, "cmd_" + args.command)(args)


def cmd_separation(args):
    if args.system:
        from .syscommands import separation_bound

        sep = separation_bound(args)
    else:
        if args.mu is None:
            raise ParseError("separation needs --mu when no system is given")
        from .constants import separation_constant

        sep = separation_constant(args.mu)
    result = sep.pick("mu d d1 d2 d3")
    if sep.bound is not None:
        result.update(bound=sep.bound, gamma=sep.gamma.gamma)
    lines = [
        "mu: %d" % sep.mu,
        "d = min(%.12g, %.12g, %.12g) = %.12g" % (sep.d1, sep.d2, sep.d3, sep.d),
    ]
    if sep.bound is not None:
        lines.append("gamma: %.12g" % sep.gamma.gamma)
        lines.append("exclusion radius d / (2 gamma^mu): %.12g" % sep.bound)
    return result, lines


def cmd_thresholds(args):
    from . import thresholds

    ts = thresholds.threshold_constants(args.variant)
    lines = [
        "variant: %s" % ts.variant,
        "u_converge:  %.10g" % ts.u_converge,
        "u_quadratic: %.10g" % ts.u_quadratic,
    ]
    return ts.pick("variant mu u_converge u_quadratic"), lines


# ---------------------------------------------------------------------------
# argument wiring


def _flag(flag, type=str, help=None, choices=None, required=False):
    """One row of a flag table: (flag, type, choices, required, help). A
    type of None marks a store-true switch. The value is stored under the
    flag's name without its dashes, `-` read as `_`."""
    return (flag, type, choices, required, help)


_LOCATION = [
    _flag("--system", help="path to a system description file"),
    _flag("--point", help="comma-separated complex coordinates"),
    _flag("--point-file", help="file with one coordinate per line"),
]
_MU = _flag("--mu", int, "multiplicity (detected if omitted)")
_MODE = _flag("--mode", help="tensor norm handling for growth invariants", choices=NORM_MODES)
_TOLERANCES = [
    _flag("--gap-tol", float, "corank test of the multiplicity detection"),
    _flag("--delta-zero-tol", float, "chain termination test of the multiplicity detection"),
]
_JSON = _flag("--json", None, "canonical JSON output")
_GROWTH = _LOCATION + [_MU, _MODE] + _TOLERANCES + [_JSON]
_REFINE = _LOCATION + [_MU] + _TOLERANCES + [
    _JSON,
    _flag("--variant", help="iteration variant (auto picks by mu and coordinate shape)",
          choices=("auto",) + VARIANTS),
    _flag("--eps", float, "residual norm at which to stop"),
    _flag("--max-iter", int, "most steps to take"),
]

# the value of each flag left out, or that the command lacks
_DEFAULTS = dict(system=None, point=None, point_file=None, mu=None, mode="estimate", json=False,
                 variant="auto", **DEFAULT_TOLERANCES)

# name: (handler, help, flag table)
COMMANDS = {
    "dual": (_system_command, "dual basis and multiplicity at a point",
             _LOCATION + _TOLERANCES + [_JSON]),
    "gamma": (_system_command, "growth invariants at a normalized zero", _GROWTH),
    "separation": (cmd_separation, "separation constant and radius", _GROWTH),
    "certify": (_system_command, "cluster certificate at an approximate zero", _GROWTH),
    "refine": (_system_command, "refine an approximate multiple zero", _REFINE),
    "thresholds": (cmd_thresholds, "convergence threshold constants", [
        _flag("--variant", help="threshold equation", choices=THRESHOLD_VARIANTS, required=True),
        _JSON]),
}

_HELP = ("-h", "--help")


def _print_help(command=None):
    """The usage of `command`, or of the program, from the flag tables."""
    if command is None:
        print("usage: mzero <command> [flags]\n\ncommands (`mzero <command> --help` lists a "
              "command's flags):")
        for name, (_, text, _) in COMMANDS.items():
            print("  %-12s%s" % (name, text))
        return
    _, text, flags = COMMANDS[command]
    print("usage: mzero %s [flags]\n\n%s\n\nflags:" % (command, text))
    for flag, kind, choices, required, text in flags:
        value = " {%s}" % ",".join(choices) if choices else " " + flag[2:].upper() if kind else ""
        print("  %s%s%s\n        %s" % (flag, value, " (required)" * required, text))


def parse_args(argv):
    """The flags of a call, read from its command's flag table.

    Takes a command name and then only that command's exact flags: a
    switch bare, a value as `--flag=value` or as the next token, whatever
    it begins with, converted by the table's type and inside its choices;
    every required flag present. `-h` or `--help` where a command or a
    flag is expected prints help to stdout and returns None. Anything else
    raises ParseError naming the command and the token at fault.
    """
    if not argv:
        raise ParseError("a command is required, one of %s" % ", ".join(COMMANDS))
    command = argv[0]
    if command in _HELP:
        return _print_help()
    if command not in COMMANDS:
        raise ParseError("unknown command %r, not one of %s" % (command, ", ".join(COMMANDS)))
    flags = COMMANDS[command][2]
    table = {row[0]: row for row in flags}
    values = dict(_DEFAULTS, command=command)
    missing = [row[0] for row in flags if row[3]]
    tokens = iter(argv[1:])
    for tok in tokens:
        if tok in _HELP:
            return _print_help(command)
        flag, eq, value = tok.partition("=")
        if flag not in table:
            raise ParseError("%s: unknown flag %r" % (command, flag))
        _, kind, choices, _, _ = table[flag]
        if kind is None:
            if eq:
                raise ParseError("%s: %s takes no value" % (command, flag))
            value = True
        else:
            if not eq:
                value = next(tokens, None)
            if value is None:
                raise ParseError("%s: %s needs a value" % (command, flag))
            if value == "--":
                raise ParseError("%s: %s takes a value other than '--'" % (command, flag))
            try:
                value = kind(value)
            except ValueError:
                raise ParseError("%s: %s takes %s, not %r"
                                 % (command, flag, "an integer" if kind is int else "a number",
                                    value))
            if choices is not None and value not in choices:
                raise ParseError("%s: %s must be one of %s" % (command, flag, ", ".join(choices)))
        values[flag[2:].replace("-", "_")] = value
        if flag in missing:
            missing.remove(flag)
    if missing:
        raise ParseError("%s: %s is required" % (command, missing[0]))
    return SimpleNamespace(**values)


def _check_args(args):
    """Check the parsed flags and read the point, in place."""
    for key in ("gap_tol", "delta_zero_tol", "eps"):
        if not 0 < getattr(args, key) < math.inf:
            raise ParseError("--%s must be finite and above 0" % key.replace("_", "-"))
    if args.command in ("separation", "certify") and args.mu is not None:
        from .constants import ANCHORED_MAX

        if args.mu > ANCHORED_MAX:
            raise ParseError(
                "--mu must be at most %d, the largest order whose constant d(mu) "
                "is cross-checked" % ANCHORED_MAX
            )
    for key, low, high in (("mu", 2, MAX_ORDER), ("max_iter", 0, math.inf)):
        value = getattr(args, key)
        if value is not None and value < low:
            raise ParseError("--%s must be at least %d" % (key.replace("_", "-"), low))
        if value is not None and value > high:
            raise ParseError("--%s must be at most %d" % (key.replace("_", "-"), high))
    if args.point is not None and args.point_file is not None:
        raise ParseError("--point and --point-file both give the point: give one")
    if args.point is not None:
        from .syscommands import parse_point

        args.point = parse_point(args.point)
    elif args.point_file is not None:
        from .syscommands import read_point_file

        args.point = read_point_file(args.point_file)
    if args.command in ("dual", "gamma", "certify", "refine") and not args.system:
        raise ParseError("a system file is required (--system)")
    if args.point is not None and not args.system:
        raise ParseError("a point needs a system file (--system)")


def main(argv=None):
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            return 0  # help was printed
        _check_args(args)
        return _emit(args, *COMMANDS[args.command][0](args))
    except BrokenPipeError:
        return 1  # the reader closed stdout: nothing more to say
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


def run():
    """The process entry: one `main()` call with the cyclic collector off,
    then stdout and stderr flushed and the process ended at once with the
    call's status. A call leaves almost no cycles to free, yet the collector
    would run about 30 times while numpy loads; and once the output is
    flushed, tearing the interpreter down frees only memory the kernel
    reclaims anyway. A reader that closed stdout ends the call with status
    1; another failed flush is left to the interpreter to report."""
    gc.disable()
    status = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None in a process started with it closed
                stream.flush()
    except BrokenPipeError:
        status = 1
    except OSError:
        sys.exit(status)
    os._exit(status)


if __name__ == "__main__":
    run()
