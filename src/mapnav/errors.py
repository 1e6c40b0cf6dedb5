"""Exception hierarchy shared across the package."""


class MapnavError(Exception):
    """Base class for all package errors."""


class ShapeError(MapnavError):
    """Operand shapes are incompatible for the requested operation."""


class ConfigError(MapnavError):
    """A configuration value (stride, map size, ...) is inconsistent."""


class UsageError(MapnavError):
    """An API contract was violated (missing gradient, bad token id, ...)."""


class NumericError(MapnavError):
    """A numeric failure (NaN input, diverging loss)."""


class GenerationError(MapnavError):
    """Procedural generation failed to satisfy its invariants after retries."""


class NoPathError(MapnavError):
    """No traversable path exists between the requested points."""


class WorkerError(MapnavError):
    """A worker process died before it replied."""
