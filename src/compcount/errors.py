"""Exception hierarchy shared across the package.

Each non-zero exit code of the CLI has exactly one class, which carries
the code as ``exit_code``; the CLI prints the message and returns it.
"""


class CompCountError(Exception):
    """Base class for every package-specific error."""

    exit_code: int


class DomainError(CompCountError, ValueError):
    """An argument lies outside an operation's domain: a malformed
    alphabet spec, an index outside a matrix, a negative binomial upper
    index, or any other out-of-range input."""

    exit_code = 2


class GuardExceeded(CompCountError):
    """A brute-force input exceeds the configured safety guard.

    Oracles must never silently truncate: too-large inputs are refused.
    """

    exit_code = 3


class UnsupportedClosedForm(CompCountError):
    """No closed-form evaluator exists for the requested alphabet."""

    exit_code = 4
