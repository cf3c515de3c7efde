"""Exception types shared across the package.

Two broad families matter to callers: input problems (bad grammar, bad
flags, options that contradict the input) and numerical-domain problems
(singular where invertibility is required, no root in a bracket, structure
checks that fail). The CLI maps the former to exit code 2 and the latter
to exit code 3; any other exception is an internal error, exit code 4.
"""


class MZeroError(Exception):
    """Base class for all package-specific errors."""


class InputError(MZeroError, ValueError):
    """The caller's input is wrong, e.g. a --mu that disagrees with the
    chain length found at the point."""


class ParseError(InputError):
    """Raised when a system description or a point string is malformed."""


class MathDomainError(MZeroError):
    """A computation left its domain of validity (not a user input error)."""


class SingularMatrixError(MathDomainError):
    """A linear solve hit a matrix that is singular to working precision;
    the message gives its smallest singular value."""


class NoRootError(MathDomainError):
    """A bracketed root scan found no sign change."""


class CorankError(MathDomainError):
    """The Jacobian at the point does not have a clean corank-one profile."""


class NotNormalizedError(MathDomainError):
    """An operation requiring normalized coordinates got an unnormalized input."""


class BreadthError(MathDomainError):
    """The dual-basis recursion detected a structure wider than a single chain."""


class MultiplicityNotFoundError(MathDomainError):
    """No terminating order was found below the recursion's order cap."""
