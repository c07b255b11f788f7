"""Exception hierarchy shared across the toolchain."""


class VcdFuelError(Exception):
    """Base class for all vcdfuel errors."""


class InvalidArgument(VcdFuelError, ValueError):
    """A parameter outside its valid range, such as a config value a stage
    passes on unchanged; still a ValueError to library callers."""


# --- drive cycle loading -----------------------------------------------------

class ParseError(VcdFuelError):
    """Malformed input: a cycle, trace, log, vehicle, model, report or config file."""


class UnitError(VcdFuelError):
    """Unknown speed unit tag."""


class MonotonicityError(VcdFuelError):
    """Timestamps are not strictly increasing."""


class InvalidDt(VcdFuelError):
    """Grid step must be finite and positive."""


# --- powertrain --------------------------------------------------------------

class GearOutOfRange(VcdFuelError):
    """Gear index outside [1, n_gears]."""


# --- extraction --------------------------------------------------------------

class NoIdleData(VcdFuelError):
    """No qualifying standstill steps in the dataset."""


class NoFuelCutData(VcdFuelError):
    """No zero-fuel steps above the standstill speed."""


class NoDownshiftData(VcdFuelError):
    """No downshift events in the dataset."""


class NoFirstGearData(VcdFuelError):
    """No first-gear steps in the dataset."""


class RankDeficient(VcdFuelError):
    """Sample geometry does not determine the polynomial coefficients."""


class DegreeTooHigh(VcdFuelError):
    """Requested polynomial degree exceeds the configured cap."""


class InsufficientGearData(VcdFuelError):
    """A gear has fewer samples than the fitting minimum."""

    def __init__(self, gear: int, count: int, minimum: int):
        self.gear = gear
        self.count = count
        self.minimum = minimum
        super().__init__(
            f"gear {gear}: {count} samples, need at least {minimum}"
        )


# --- simplified model fitting ------------------------------------------------

class ConstraintInfeasible(VcdFuelError):
    """Positivity constraint cannot be met at the fitted degrees."""


# --- dyno ingestion ----------------------------------------------------------

class InsufficientData(VcdFuelError):
    """Not enough usable rows for the requested operation."""


class NonPositiveSlope(VcdFuelError):
    """Speed regression produced a non-positive slope."""


class SeriesTooShort(VcdFuelError):
    """Smoothing needs at least 3 samples."""


class SmoothingDiverged(VcdFuelError):
    """Peak acceleration grew between smoothing passes (should never happen)."""


class BoundNotReached(VcdFuelError):
    """Acceleration bound unmet at convergence; carries best result found.

    The ``best`` attribute holds the SmoothingSelection achieved so the
    caller can decide whether to proceed with it.
    """

    def __init__(self, message: str, best=None):
        self.best = best
        super().__init__(message)


class NeverHot(VcdFuelError):
    """Engine water temperature never reached the hot threshold."""


# --- validation --------------------------------------------------------------

class NoOverlap(VcdFuelError):
    """Traces share no common time range."""


class LengthMismatch(VcdFuelError):
    """Paired series have different lengths."""


class ZeroReference(VcdFuelError):
    """Reference cumulative fuel is zero; relative error undefined."""


# --- cli ---------------------------------------------------------------------

class MissingPrerequisite(VcdFuelError):
    """A pipeline stage's input artifact is absent."""
