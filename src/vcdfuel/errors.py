"""Exception hierarchy shared across the toolchain: one class per way a
caller reacts. Each message says what went wrong."""


class VcdFuelError(Exception):
    """Base class for all vcdfuel errors."""


class InvalidArgument(VcdFuelError, ValueError):
    """The caller's argument is wrong: a parameter outside its valid range, an
    unknown unit, a bad grid step, gear or degree, series of unequal length;
    still a ValueError to library callers."""


class ParseError(VcdFuelError):
    """Malformed input: a cycle, trace, log, vehicle, model, report or config
    file, timestamps out of order included."""


class InsufficientData(VcdFuelError):
    """The data cannot determine the result: no rows of a needed kind, a
    degenerate fit, a series too short or a bound the data never meets."""


class InsufficientGearData(InsufficientData):
    """A gear has fewer samples than the fitting minimum."""

    def __init__(self, gear: int, count: int, minimum: int):
        self.gear = gear
        self.count = count
        self.minimum = minimum
        super().__init__(
            f"gear {gear}: {count} samples, need at least {minimum}"
        )


class BoundNotReached(InsufficientData):
    """Acceleration bound unmet at convergence; carries best result found.

    The ``best`` attribute holds the SmoothingSelection achieved so the
    caller can decide whether to proceed with it.
    """

    def __init__(self, message: str, best=None):
        self.best = best
        super().__init__(message)


class MissingPrerequisite(VcdFuelError):
    """A pipeline stage's input artifact is absent."""
