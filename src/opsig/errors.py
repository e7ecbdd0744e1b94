"""Exception types shared across the package, and its one integer-setting check.

Every domain error derives from ``OpsigError``. A bad setting passed by a
caller (a fold count, a seed, a point count) is a ``ValueError`` instead, and
``check_integer`` is the one rule for the integer ones; the CLI reports the
same message as a usage error.
"""

from numbers import Integral


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
