"""Exception types shared across the package."""


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
