"""Drive cycle loading, validation, and resampling.

A drive cycle is a timestamped target-speed schedule. All cycles are held
internally in SI units (seconds, m/s); unit conversion happens once at load
time.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .csvio import read_columns, write_columns
from .errors import InvalidArgument, ParseError
from .trace import checked_columns, sample_columns, uniform_grid

# factors converting the named unit TO m/s
UNIT_FACTORS = {
    "mps": 1.0,
    "kph": 1.0 / 3.6,
    "mph": 0.44704,
}


@dataclass(frozen=True)
class DriveCycle:
    """Target-speed schedule: time in seconds, speed in m/s.

    Immutable after construction; safe to share across threads.
    """

    name: str
    t: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        t, v = checked_columns(f"cycle '{self.name}'", t=self.t, v=self.v).values()
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "v", v)
        if t.size < 2:
            raise ParseError(f"cycle '{self.name}': needs at least 2 samples")
        if t[0] != 0.0:
            raise ParseError(f"cycle '{self.name}': first timestamp must be 0")
        if np.any(v < 0):
            raise ParseError(f"cycle '{self.name}': negative speed sample")

    @property
    def duration(self) -> float:
        return float(self.t[-1])


def load_cycle(path, unit: str = "mps") -> DriveCycle:
    """Load a two-column `t,v` CSV and convert speed to m/s.

    Parameters
    ----------
    path : file path
        CSV with header ``t,v``, UTF-8, ``.`` decimal separator.
    unit : {"mps", "kph", "mph"}
        Unit of the speed column.

    The cycle is named after the file stem.
    """
    path = Path(path)
    if unit not in UNIT_FACTORS:
        raise InvalidArgument(f"unknown unit '{unit}' (expected one of {sorted(UNIT_FACTORS)})")
    data = read_columns(path)
    if list(data) != ["t", "v"]:
        raise ParseError(f"{path}: expected header 't,v', got {','.join(data)!r}")
    return DriveCycle(name=path.stem, t=data["t"], v=data["v"] * UNIT_FACTORS[unit])


def save_cycle(cycle: DriveCycle, path, unit: str = "mps") -> None:
    """Write a cycle back to `t,v` CSV in the requested unit."""
    if unit not in UNIT_FACTORS:
        raise InvalidArgument(f"unknown unit '{unit}'")
    write_columns(path, {"t": cycle.t, "v": cycle.v / UNIT_FACTORS[unit]}, "%.10g")


def resample(cycle: DriveCycle, dt: float) -> DriveCycle:
    """Linear interpolation onto the uniform grid 0, dt, 2dt, ... <= t_end.

    The final original timestamp is kept if it does not land on the grid, so
    endpoints are always preserved.
    """
    grid = uniform_grid(0.0, cycle.duration, dt)
    if grid[-1] < cycle.duration - 1e-9:
        grid = np.append(grid, cycle.duration)
    return DriveCycle(name=cycle.name, t=grid, **sample_columns(cycle.t, grid, {"v": cycle.v}))
