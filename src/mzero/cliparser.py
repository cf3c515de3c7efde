"""The argparse parser of the command line, for help, usage and errors.

`cli` reads a well-formed call from its flag tables directly and imports
this module only for what it declines, so argparse, gettext and locale
load, and this code compiles, only on those paths. The parser is built
from the same tables, which `cli` passes in.
"""

import argparse

from .errors import ParseError


def build_parser(commands, defaults, command=None):
    """The parser with the subparser of `command` alone, or of every
    command when `command` names none. `commands` maps a name to
    (handler, help, flag table), as `cli.COMMANDS` does; `defaults` holds
    the value of each flag left out."""
    parser = argparse.ArgumentParser(
        prog="mzero",
        description="Multiplicity structure, separation bounds, and refinement "
        "for corank-one multiple zeros of polynomial systems.",
    )
    names = [command] if command in commands else list(commands)
    # a lone subparser needs the metavar for the usage line to list every
    # command; with all of them, errors name the argument `command`
    metavar = "{%s}" % ",".join(commands) if len(names) == 1 else None
    subs = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        _, help_text, flags = commands[name]
        sp = subs.add_parser(name, help=help_text)
        sp.set_defaults(**defaults)
        for flag, dest, kind, choices, required, help_text in flags:
            if kind is None:
                sp.add_argument(flag, dest=dest, action="store_true", help=help_text)
            else:
                sp.add_argument(flag, dest=dest, type=kind, choices=choices, required=required,
                                help=help_text)
    # every option that takes a value, for _join_value_flags
    parser.value_flags = {row[0] for name in names for row in commands[name][2] if row[2]}
    return parser


def parse_args(argv, commands, defaults):
    """The flags argparse reads from argv with the parser of argv's
    command; help and errors raise SystemExit, as argparse does."""
    parser = build_parser(commands, defaults, argv[0] if argv else None)
    return parser.parse_args(_join_value_flags(argv, parser.value_flags))


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
