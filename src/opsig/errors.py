"""Exception types shared across the package, and its setting checks.

Every domain error derives from ``OpsigError``. A bad setting passed by a
caller (a fold count, a seed, a point count, a fraction) is a ``ValueError``
instead: ``check_integer`` is the one rule for the integer ones,
``check_real`` for the real-valued ones and ``check_pair`` for a setting
made of two values. The CLI reports the same message as a usage error.
"""

from collections.abc import Collection
from numbers import Integral, Real


def check_integer(name: str, value: object, minimum: int) -> int:
    """``value`` as a plain ``int`` if it is an integer (not a ``bool``) of at least ``minimum``.

    numpy integers pass; anything else is a ``ValueError`` naming ``name``.
    Not exported: the modules holding integer settings call it.
    """
    # a plain int skips the ABC check, ten times slower, which would run once per loaded signature
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, Integral)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def check_real(name: str, value: object, low: float, high: float, low_open: bool = False) -> float:
    """``value`` as a ``float`` if it is a real number from ``low`` to ``high``.

    numpy numbers pass, a ``bool`` or a string does not. Both ends are
    allowed, except ``low`` when ``low_open``; NaN never is. Anything else is
    a ``ValueError`` naming ``name`` and the interval. Not exported: the
    modules holding real-valued settings call it.
    """
    real = type(value) is float or (isinstance(value, Real) and not isinstance(value, bool))
    if real and (low < value if low_open else low <= value) and value <= high:
        return float(value)
    interval = f"{'(' if low_open else '['}{low}, {high}]"
    rule = "positive" if interval == "(0, inf]" else f"in {interval}"
    raise ValueError(f"{name} must be {rule}, got {value!r}")


def check_pair(name: str, value: object) -> tuple[object, object]:
    """``value``'s two items if it holds exactly two and is no string, else a ``ValueError``."""
    if isinstance(value, (str, bytes)) or not isinstance(value, Collection) or len(value) != 2:
        raise ValueError(f"{name} must be a pair of values, got {value!r}")
    first, second = value
    return first, second


class OpsigError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(OpsigError):
    """Raised when sample input text cannot be parsed."""


class EmptySampleError(ParseError):
    """Raised when parsing yields no opcodes for a sample."""


class EmptyCorpusError(OpsigError):
    """Raised when a corpus source yields no usable samples."""


class VocabularyMismatchError(OpsigError):
    """Raised when graphs built on different vocabularies are combined."""


class EmptyGraphError(OpsigError):
    """Raised when a sample's graph has no weight on any retained bigram."""


class UnknownSampleError(OpsigError):
    """Raised when a sample id is not present in a distance matrix."""


class EmptyDatabaseError(OpsigError):
    """Raised when classification is attempted against a database with no signatures."""


class FoldPlanError(OpsigError):
    """Raised when a cross-validation plan cannot be built."""


class SimilarityTableError(OpsigError):
    """Raised when a database does not hold exactly one signature per class, for two or more."""


class DatabaseError(OpsigError):
    """Base class for signature database load failures."""


class DatabaseFormatError(DatabaseError):
    """Raised when a database file is malformed."""


class UnsupportedVersionError(DatabaseError):
    """Raised when a database file declares an unsupported format version."""


class ChecksumMismatchError(DatabaseError):
    """Raised when a database file fails its integrity check."""
