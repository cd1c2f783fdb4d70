"""Shared exception types."""


class ChurnFusionError(Exception):
    """Base class for all package errors."""


class SchemaMismatch(ChurnFusionError):
    """Column set or feature width differs from the declared schema."""


class DuplicateId(ChurnFusionError):
    """Two rows share the same customer id."""


class UnknownLabel(ChurnFusionError):
    """Emotion label outside the supported set."""


class InvalidConfig(ChurnFusionError):
    """A configuration value violates its declared bounds."""


class InvalidDuration(ChurnFusionError):
    """Synthetic clip duration outside [0.5, 10] seconds."""


class ClipTooShort(ChurnFusionError):
    """Audio clip shorter than one analysis frame."""


class BadWav(ChurnFusionError):
    """A WAV file that is not readable 16-bit mono PCM."""


class BadFrameParams(ChurnFusionError):
    """Frame size not a power of two, or hop outside (0, frame_size]."""


class BadKernel(ChurnFusionError):
    """Median-filter kernel not an odd integer >= 3."""


class BadBand(ChurnFusionError):
    """Mel band edges violate 0 <= f_min < f_max <= sr/2."""


class DegenerateData(ChurnFusionError):
    """No training examples, or only one class among them."""


class ShapeMismatch(ChurnFusionError):
    """Input array shape or feature width incompatible with the model."""


class TooFewExamples(ChurnFusionError):
    """Not enough labeled examples for co-training or neighbor-based resampling."""


class TargetOutOfRange(ChurnFusionError):
    """Regression target outside [0, 1]."""


class BadK(ChurnFusionError):
    """Requested feature count outside [1, n_features]."""


class TooFewMinority(ChurnFusionError):
    """Minority class smaller than k+1, interpolation impossible."""


class InvalidTriple(ChurnFusionError):
    """Indicator values outside their weight domains."""


class MissingModality(ChurnFusionError):
    """A customer lacks the audio clip or features a strategy needs."""


class NoRelevant(ChurnFusionError):
    """Average precision undefined: the query has no relevant items."""


class EmptyQuerySet(ChurnFusionError):
    """Mean average precision needs at least one query."""


class LengthMismatch(ChurnFusionError):
    """Paired label lists differ in length."""


class DegenerateColumn(ChurnFusionError):
    """Constant column: Pearson correlation undefined."""
