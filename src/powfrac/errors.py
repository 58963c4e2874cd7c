"""Exception types shared across the package."""


class PowfracError(Exception):
    """Base class for all package errors."""


class RangeError(PowfracError):
    """An argument is outside its admissible integer range."""


class ResourceError(PowfracError):
    """Predicted work exceeds the configured resource cap."""


class RootBracketError(PowfracError):
    """A claimed-monotone derivative failed to bracket a root."""


class DimensionError(PowfracError):
    """A coefficient vector has the wrong length."""
