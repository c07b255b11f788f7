"""Per-timestep trace record shared by the simulator, the reduced models,
and processed dynamometer logs.

Columns are SI: t [s], v [m/s], a [m/s2], grade [rad], gear [1..n],
engine_speed [rad/s], engine_torque [Nm], pedal [%], fuel [g/s].
Reduced models that do not produce internal dynamics leave those columns
as None.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .csvio import read_columns, write_columns
from .errors import InsufficientData, InvalidArgument, ParseError

RADPS_TO_RPM = 60.0 / (2.0 * np.pi)

DT = 0.1  # s, default step of the simulation, resampling and metric grids

# flag bits set per step by producers; a standstill row carries at most FLAG_CLAMPED, of its inputs
FLAG_ENVELOPE = 1    # demanded torque capped at the engine envelope (reference, map-based model)
FLAG_CLAMPED = 2     # v, a or grade clamped to its domain, or (map-based) a map input off its box
FLAG_FLOOR = 4       # demanded torque lifted to the minimum-torque floor (map-based model)

INT_COLUMNS = ("gear", "flags")  # held as integers, never blended between samples


@dataclass
class Trace:
    name: str
    t: np.ndarray
    v: np.ndarray
    a: np.ndarray | None = None
    grade: np.ndarray | None = None
    gear: np.ndarray | None = None
    engine_speed: np.ndarray | None = None
    engine_torque: np.ndarray | None = None
    pedal: np.ndarray | None = None
    fuel: np.ndarray | None = None
    flags: np.ndarray | None = None

    def __post_init__(self):
        owner = f"trace '{self.name}'"
        cols = checked_columns(owner, t=self.t, **{c: getattr(self, c) for c in self.columns()})
        for col, val in cols.items():
            if col in INT_COLUMNS:
                with np.errstate(invalid="ignore"):  # out-of-range values fail the test below
                    ints = val.astype(int)
                if np.any(ints != val):
                    raise ParseError(f"{owner}: column '{col}' holds non-integers")
                val = ints
            setattr(self, col, val)

    def __len__(self) -> int:
        return self.t.size

    def require(self, *names: str) -> None:
        """Raise InsufficientData naming the first of ``names`` this trace lacks."""
        for name in names:
            if getattr(self, name) is None:
                raise InsufficientData(f"trace '{self.name}' has no '{name}' column")

    def columns(self) -> list[str]:
        """Names of the populated data columns (t excluded)."""
        return [
            f.name for f in fields(self)
            if f.name not in ("name", "t") and getattr(self, f.name) is not None
        ]


def checked_columns(owner: str, **columns) -> dict[str, np.ndarray]:
    """The named columns, ``t`` first, as float arrays. ParseError naming ``owner``
    (and the column) when a column is not numbers, ``t`` is not 1-D or not strictly
    increasing, a column's shape differs from ``t``'s, or a value is not finite."""
    for col, val in columns.items():
        try:
            columns[col] = np.asarray(val, dtype=float)
        except (TypeError, ValueError):  # ragged, or not numbers
            raise ParseError(f"{owner}: column '{col}' is not an array of numbers") from None
    t = columns["t"]
    if t.ndim != 1:
        raise ParseError(f"{owner}: column 't' is not one-dimensional, shape {list(t.shape)}")
    for col, val in columns.items():
        if val.shape != t.shape:
            raise ParseError(f"{owner}: t and {col} differ in shape, "
                             f"{list(t.shape)} and {list(val.shape)}")
        if not np.isfinite(val).all():
            raise ParseError(f"{owner}: column '{col}' holds non-finite values")
    if np.any(np.diff(t) <= 0):
        raise ParseError(f"{owner}: timestamps not strictly increasing")
    return columns


def uniform_grid(t0: float, t1: float, dt: float) -> np.ndarray:
    """The grid t0, t0 + dt, t0 + 2 dt, ... up to t1, a 1e-9 step short
    counting as reaching it; dt must be finite and positive."""
    if not (np.isfinite(dt) and dt > 0):
        raise InvalidArgument(f"dt must be finite and positive, got {dt}")
    n = int(np.floor((t1 - t0) / dt + 1e-9))
    return t0 + np.arange(n + 1) * dt


def sample_columns(t, grid, columns: dict) -> dict[str, np.ndarray]:
    """``columns``, sampled at the times ``t``, read at the ``grid`` times:
    gear and flags take the nearest sample, the earlier one on a tie, and
    every other column is linearly interpolated."""
    nearest = np.searchsorted(0.5 * (t[:-1] + t[1:]), grid)
    return {col: src[nearest] if col in INT_COLUMNS else np.interp(grid, t, src)
            for col, src in columns.items()}


def write_trace_csv(trace: Trace, path) -> None:
    # %r round-trips float64 exactly, so rows sitting on mask thresholds
    # (standstill speed, torque floor) survive re-reading
    write_columns(path, {"t": trace.t, **{col: getattr(trace, col) for col in trace.columns()}},
                  "%r")


def read_trace_csv(path, name: str | None = None) -> Trace:
    path = Path(path)
    data = read_columns(path)
    if next(iter(data)) != "t":
        raise ParseError(f"{path}: expected a trace CSV starting with column 't'")
    if "v" not in data:
        raise ParseError(f"{path}: trace CSV has no 'v' column")
    known = {f.name for f in fields(Trace)} - {"name"}
    extra = [c for c in data if c not in known]
    if extra:
        raise ParseError(f"{path}: unknown columns {extra}")
    return Trace(name=name or path.stem, **data)
