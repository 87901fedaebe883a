"""Errors shared by all loggas modules, one class per command-line exit code.

A raise site picks the class by what went wrong; the message names the
cause.  ``cli.main`` prints ``error (<label>): <message>`` to stderr and
exits with the class's ``exit_code``:

- ``InputError`` (2, "input"): malformed or inconsistent input, or a
  computation that cannot answer for it (a Jacobi run that does not
  converge);
- ``SizeLimitError`` (3, "size limit"): an instance or optimizer family
  above a hard cap;
- ``DomainError`` (4, "domain"): well-formed input outside the domain of
  the requested quantity (an inverse temperature outside the interval,
  charges that fail the 3/2-variation conditions, a grid a fit cannot use).
"""


class LogGasError(Exception):
    """Base class for all loggas errors."""

    exit_code: int
    label: str


class InputError(LogGasError):
    """Input the command cannot use (exit code 2)."""

    exit_code = 2
    label = "input"


class SizeLimitError(LogGasError):
    """Instance or family past a hard cap (exit code 3)."""

    exit_code = 3
    label = "size limit"


class DomainError(LogGasError):
    """Parameter outside the domain of the requested quantity (exit code 4)."""

    exit_code = 4
    label = "domain"
