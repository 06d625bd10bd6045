"""Exception types shared across the package."""


class GopError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(GopError):
    """Invalid configuration or construction arguments."""


class DimensionMismatch(GopError):
    """Array shapes are inconsistent with the model or data."""


class EmptyInput(GopError):
    """An operation received an empty vector where at least one element is required."""


class UnfitNormalization(GopError):
    """Normalization statistics were used before being fitted."""


class FormatError(GopError):
    """A model or report document is malformed; message carries the field path."""


class SingularSystem(GopError):
    """Unregularized solve on a numerically rank-deficient system."""


class AllCandidatesFailed(GopError):
    """Every operator-set candidate failed to produce a finite solution."""


class DegenerateBaseline(GopError):
    """Improvement rate undefined because the baseline value is zero."""


class NonFiniteLoss(GopError):
    """Training diverged: a loss became non-finite, or the training loss
    exploded while staying finite; carries the offending epoch index."""

    def __init__(self, message: str, epoch: int):
        super().__init__(message)
        self.epoch = epoch


class ParseError(ConfigError):
    """CSV cell could not be parsed; message names the row and column."""


class RaggedRows(ConfigError):
    """CSV rows have inconsistent lengths."""


class UnknownLabelColumn(ConfigError):
    """The requested label column does not exist in the file."""


class ClassTooSmall(ConfigError):
    """Stratified splitting impossible for at least one class."""
