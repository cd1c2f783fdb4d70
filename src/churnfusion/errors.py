"""Shared exception types."""


class ChurnFusionError(Exception):
    """Base class for all package errors."""


class SchemaMismatch(ChurnFusionError):
    """Column set or feature width differs from the table's header."""


class DuplicateId(ChurnFusionError):
    """Two rows share the same customer id."""


class UnknownLabel(ChurnFusionError):
    """Emotion label outside the supported set."""


class InvalidConfig(ChurnFusionError):
    """A configuration value violates its declared bounds."""


class ClipTooShort(ChurnFusionError):
    """Audio clip shorter than one analysis frame."""


class BadWav(ChurnFusionError):
    """A WAV file that is not readable 16-bit mono PCM."""


class BadBand(ChurnFusionError):
    """Mel band edges violate 0 <= f_min < f_max <= sr/2."""


class DegenerateData(ChurnFusionError):
    """Too few examples or classes, or a constant column, for the statistic asked."""


class ShapeMismatch(ChurnFusionError):
    """Input shapes or lengths incompatible with each other or with the model."""


class TooFewExamples(ChurnFusionError):
    """Not enough labeled examples for co-training or neighbor-based resampling."""


class TargetOutOfRange(ChurnFusionError):
    """Regression target outside [0, 1]."""


class InvalidTriple(ChurnFusionError):
    """Indicator values outside their weight domains."""


class MissingModality(ChurnFusionError):
    """A customer lacks the audio clip or features a strategy needs."""
