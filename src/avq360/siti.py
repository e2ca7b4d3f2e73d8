"""Spatial Information / Temporal Information content statistics.

SI is the spatial standard deviation of the Sobel gradient magnitude per
frame; TI is the spatial standard deviation of consecutive-frame
differences. Both operate on luma in [0, 255]. Sobel output is taken on
the interior only (1-pixel border excluded, no padding) so independent
pixel-level oracles can match it exactly; standard deviations use the
population (n) convention.

Both statistics stream the sequence one frame (TI: one frame pair) at a
time, so no whole-sequence copy is made. uint8 luma takes an integer
path: the Sobel sums, Gx² + Gy² (at most 2 080 800) and the frame
differences are computed in int32, and only the square root and the
standard deviation run in float64. Every intermediate is an integer that
float64 holds exactly, so the results are bit-identical to computing
everything in float64, which is what every other dtype does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .manifest import FrameSequence


@dataclass
class SITIResult:
    si_per_frame: np.ndarray
    ti_per_frame: np.ndarray   # length n_frames - 1
    si_mean: float
    si_max: float
    ti_mean: float
    ti_max: float


def _work_dtype(frame: np.ndarray) -> type:
    """int32 for uint8 luma (exact, see the module docstring), else float64."""
    return np.int32 if frame.dtype == np.uint8 else np.float64


def sobel_magnitude(frame: np.ndarray) -> np.ndarray:
    """3x3 Sobel gradient magnitude (float64) on the (H-2, W-2) interior."""
    f = np.asarray(frame)
    if f.ndim != 2 or f.shape[0] < 3 or f.shape[1] < 3:
        raise ValidationError(f"frame must be at least 3x3, got {f.shape}")
    f = f.astype(_work_dtype(f), copy=False)
    # Separable form: the same sums, term for term and in the same order,
    # as the direct 3x3 kernels.
    cols = f[:-2] + 2 * f[1:-1] + f[2:]                 # vertical [1, 2, 1]
    gx = cols[:, 2:] - cols[:, :-2]
    rows = f[:, :-2] + 2 * f[:, 1:-1] + f[:, 2:]        # horizontal [1, 2, 1]
    gy = rows[2:] - rows[:-2]
    gx *= gx
    gy *= gy
    gx += gy
    return np.sqrt(gx, dtype=np.float64)


def spatial_information(seq: FrameSequence) -> np.ndarray:
    """Per-frame SI values."""
    return np.array([sobel_magnitude(f).std() for f in seq.frames])


def temporal_information(seq: FrameSequence) -> np.ndarray:
    """Per-frame-pair TI values (full frame, no border exclusion)."""
    if seq.n_frames < 2:
        raise ValidationError("temporal information needs at least 2 frames")
    frames = seq.frames
    work = _work_dtype(frames)
    return np.array([
        np.subtract(frames[k + 1], frames[k], dtype=work).std()
        for k in range(seq.n_frames - 1)
    ])


def summarize_siti(seq: FrameSequence) -> SITIResult:
    si = spatial_information(seq)
    ti = temporal_information(seq)
    return SITIResult(
        si_per_frame=si,
        ti_per_frame=ti,
        si_mean=float(si.mean()),
        si_max=float(si.max()),
        ti_mean=float(ti.mean()),
        ti_max=float(ti.max()),
    )
