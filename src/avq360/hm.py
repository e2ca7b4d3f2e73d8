"""Head-movement trace ingestion and summary statistics.

Traces carry yaw/pitch/roll angles (degrees) sampled nominally at
120 Hz. Statistics never resample: speeds are wrapped finite differences
over the actual timestamps, and time-weighted aggregates use the sample
intervals directly. "Rotation" from capture rigs is treated as roll.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ValidationError
from .manifest import read_csv_table, write_csv_table

YAW_HIST_BINS = 36  # 10 degrees per bin


@dataclass
class HeadMovementTrace:
    t: np.ndarray      # seconds, strictly increasing
    yaw: np.ndarray    # degrees in [-180, 180]
    pitch: np.ndarray  # degrees in [-90, 90]
    roll: np.ndarray   # degrees in [-180, 180]

    @property
    def n_samples(self) -> int:
        return len(self.t)


@dataclass
class HeadMovementStats:
    mean_speed: dict[str, float]   # deg/s per axis, time-weighted
    max_speed: dict[str, float]
    yaw_histogram: np.ndarray      # occupancy over 36 bins of 10 deg, sums to 1
    pitch_within_30_frac: float
    duration_s: float
    n_samples: int


def wrap_degrees(d):
    """Wrap angle differences into (-180, 180]."""
    return 180.0 - np.mod(180.0 - np.asarray(d, dtype=np.float64), 360.0)


_HM_HEADER = ["t", "yaw", "pitch", "roll"]
_ANGLE_RANGES = {"yaw": 180.0, "pitch": 90.0, "roll": 180.0}


def load_hm(path) -> HeadMovementTrace:
    """Read a `t,yaw,pitch,roll` CSV trace.

    Every value must be a finite number. Duplicate timestamps are
    collapsed keeping the first row; at least 2 samples must remain, time
    must be strictly increasing afterwards and angles must be within their
    nominal ranges.
    """
    rows = []
    for lineno, row in read_csv_table(path, _HM_HEADER):
        try:
            values = [float(v) for v in row]
        except ValueError:
            raise DataError(f"{path}: line {lineno}: non-numeric value") from None
        if not all(map(math.isfinite, values)):
            raise DataError(f"{path}: line {lineno}: non-finite value")
        rows.append(values)
    if not rows:
        raise DataError(f"{path}: no samples")
    arr = np.asarray(rows, dtype=np.float64)
    t = arr[:, 0]
    keep = np.concatenate([[True], np.diff(t) != 0.0])  # drop duplicate timestamps
    arr = arr[keep]
    t, yaw, pitch, roll = arr.T
    if len(t) < 2:
        raise DataError(f"{path}: {len(t)} sample(s) after collapsing duplicate "
                        "timestamps, need at least 2")
    if np.any(np.diff(t) <= 0):
        raise DataError(f"{path}: timestamps not strictly increasing")
    for name, values in (("yaw", yaw), ("pitch", pitch), ("roll", roll)):
        lim = _ANGLE_RANGES[name]
        if np.any(np.abs(values) > lim):
            bad = float(values[np.argmax(np.abs(values))])
            raise DataError(f"{path}: {name} value {bad} outside [-{lim}, {lim}]")
    return HeadMovementTrace(t=t, yaw=yaw, pitch=pitch, roll=roll)


def hm_stats(trace: HeadMovementTrace) -> HeadMovementStats:
    """Per-axis angular speeds, yaw occupancy, pitch comfort fraction."""
    if trace.n_samples < 2:
        raise ValidationError("head-movement statistics need at least 2 samples")
    dt = np.diff(trace.t)
    steps = {
        "yaw": np.abs(wrap_degrees(np.diff(trace.yaw))),
        "pitch": np.abs(np.diff(trace.pitch)),
        "roll": np.abs(wrap_degrees(np.diff(trace.roll))),
    }
    total_time = float(dt.sum())
    mean_speed = {axis: float(s.sum()) / total_time for axis, s in steps.items()}
    max_speed = {axis: float((s / dt).max()) for axis, s in steps.items()}
    # Occupancy is time spent per 10-degree yaw bin; the final sample holds
    # no interval, so it carries no weight.
    yaw_wrapped = wrap_degrees(trace.yaw[:-1])
    hist, _ = np.histogram(
        yaw_wrapped, bins=YAW_HIST_BINS, range=(-180.0, 180.0), weights=dt
    )
    pitch_frac = float(np.mean(np.abs(trace.pitch) <= 30.0))
    return HeadMovementStats(
        mean_speed=mean_speed,
        max_speed=max_speed,
        yaw_histogram=hist / total_time,
        pitch_within_30_frac=pitch_frac,
        duration_s=total_time,
        n_samples=trace.n_samples,
    )


_STATS_HEADER = [
    "sequence_id",
    "yaw_speed_mean", "yaw_speed_max",
    "pitch_speed_mean", "pitch_speed_max",
    "roll_speed_mean", "roll_speed_max",
    "pitch_within_30_frac", "duration_s", "n_samples",
]


def write_hm_stats_csv(rows: list[tuple[str, HeadMovementStats]], path) -> None:
    """One summary row per trace."""
    write_csv_table(path, _STATS_HEADER, (
        [seq_id,
         f"{s.mean_speed['yaw']:.6f}", f"{s.max_speed['yaw']:.6f}",
         f"{s.mean_speed['pitch']:.6f}", f"{s.max_speed['pitch']:.6f}",
         f"{s.mean_speed['roll']:.6f}", f"{s.max_speed['roll']:.6f}",
         f"{s.pitch_within_30_frac:.6f}", f"{s.duration_s:.6f}", s.n_samples]
        for seq_id, s in rows
    ))
