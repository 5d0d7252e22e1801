"""Exception hierarchy shared by all modules, and the one integer check.

The CLI maps these to exit codes: a violated certificate -> 1, invalid
input / parse problems -> 2, failed hypothesis checks -> 3, size guards
-> 4. Any other exception is an internal error -> 5.
"""

import operator


class GraphonError(Exception):
    """Base class for all graphonlab errors."""


class InvalidInputError(GraphonError):
    """Malformed value: bad measures, asymmetric matrix, parse error, ..."""


class BasisMismatchError(GraphonError):
    """Two objects that must share step count and measures do not."""


class SizeLimitError(GraphonError):
    """Instance exceeds the documented exact-computation guard."""


class HypothesisError(GraphonError):
    """A required hypothesis fails (excluded pattern present, empty set in
    a family to transverse, non-0-1 values where 0-1 is required)."""


class CertificationError(GraphonError):
    """A bound that the construction promises was violated at run time."""


def as_integer(x, what: str) -> int:
    """``x`` as a Python int: Python and numpy integers pass, anything else
    (2.5, "1") is an input error, never truncated."""
    try:
        return operator.index(x)
    except TypeError:
        raise InvalidInputError(f"{what} must be an integer, got {x!r}")
