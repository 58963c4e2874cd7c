"""Exception types shared across the package."""


class PowfracError(Exception):
    """Base class for all package errors."""


class RangeError(PowfracError):
    """An argument is outside its admissible range, has the wrong length, or
    breaks a hypothesis of the function it is passed to."""


class ResourceError(PowfracError):
    """Predicted work exceeds the configured resource cap."""
