"""Exception hierarchy shared by all modules, the one integer check and
the one certificate comparison.

The CLI maps the subclasses to exit codes: a violated certificate -> 1,
invalid input / parse problems and basis mismatches -> 2, failed
hypothesis checks -> 3, size guards -> 4. Any other exception, the bare
``GraphonError`` included, is an internal error -> 5; so no module raises
the base class.

This module imports only the standard library, so ``graphonlab report``
re-checks a certificate (``CERTIFIED_ERROR``, ``within_bound``) without
loading numpy or any computing layer.
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
    (2.5, "1", True) is an input error, never truncated; a bool is an int
    subclass but not a count or an index here."""
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise InvalidInputError(f"{what} must be an integer, got {x!r}")


SLACK = 1e-9

#: the error each partition variant certifies: the cut norm or the L1 norm
CERTIFIED_ERROR = {"weak": "cut", "ultra": "l1", "thin": "l1"}


def within_bound(value: float, bound: float) -> bool:
    """The one certificate comparison: a measured value against its bound,
    up to ``SLACK``. Used by the constructions in ``regularity`` and by
    ``graphonlab report``."""
    return value <= bound + SLACK
