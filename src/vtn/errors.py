"""Exception hierarchy shared across the package."""


class VtnError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(VtnError):
    """Operand shapes are incompatible."""


class DegenerateColumnError(VtnError):
    """A softmax column has every entry masked."""


class StatsError(VtnError):
    """Speaker statistics cannot be computed or looked up."""


class AdjustmentError(VtnError):
    """Output mean/variance adjustment is undefined for this input."""


class MetricUndefinedError(VtnError):
    """An objective metric is undefined for the given pair."""


class GraphReleasedError(VtnError):
    """backward() reached a graph that an earlier backward() has swept."""


class TrainingDivergedError(VtnError):
    """The training loss became non-finite."""


class NonFiniteOutputError(VtnError):
    """A conversion step decoded a non-finite output column."""


class FormatError(VtnError):
    """A binary file does not conform to its declared format."""


class ConfigError(VtnError):
    """A configuration value has the wrong type or is out of range."""
