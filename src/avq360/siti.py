"""Spatial Information / Temporal Information content statistics.

SI is the spatial standard deviation of the Sobel gradient magnitude per
frame; TI is the spatial standard deviation of consecutive-frame
differences. Both operate on luma in [0, 255]. Sobel output is taken on
the interior only (1-pixel border excluded, no padding) so independent
pixel-level oracles can match it exactly; standard deviations use the
population (n) convention.

Both statistics stream the sequence one frame (TI: one frame pair) at a
time, so no whole-sequence copy is made, and each call allocates its work
planes once and fills them frame by frame with ``out=``. So their speed
does not depend on what the allocator was left holding: a fresh process
faults in no new pages per frame. uint8 luma takes an integer
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


def _sobel_planes(shape: tuple, work: type) -> tuple:
    """Work planes of a Sobel pass over frames of ``shape``: one flat
    buffer for the [1, 2, 1] sums of either direction, Gx, Gy and the
    float64 magnitude (Gx itself when ``work`` is float64)."""
    if len(shape) != 2 or shape[0] < 3 or shape[1] < 3:
        raise ValidationError(f"frame must be at least 3x3, got {shape}")
    h, w = shape
    sums = np.empty(max((h - 2) * w, h * (w - 2)), work)
    gx = np.empty((h - 2, w - 2), work)
    gy = np.empty((h - 2, w - 2), work)
    mag = gx if work is np.float64 else np.empty((h - 2, w - 2))
    return sums, gx, gy, mag


def sobel_magnitude(frame: np.ndarray, planes: tuple | None = None) -> np.ndarray:
    """3x3 Sobel gradient magnitude (float64) on the (H-2, W-2) interior;
    a frame under 3x3 is a ValidationError.

    ``planes`` (from ``_sobel_planes``, for frames of this shape and work
    dtype) are work arrays to reuse; the result is then their magnitude
    plane, overwritten by the next call.
    """
    f = np.asarray(frame)
    if planes is None:
        planes = _sobel_planes(f.shape, _work_dtype(f))
    sums, gx, gy, mag = planes
    work = sums.dtype
    h, w = f.shape
    # Separable form: the same sums, term for term and in the same order,
    # as the direct 3x3 kernels.
    cols = sums[: (h - 2) * w].reshape(h - 2, w)        # vertical [1, 2, 1]
    np.multiply(f[1:-1], 2, out=cols, dtype=work)
    np.add(f[:-2], cols, out=cols, dtype=work)
    np.add(cols, f[2:], out=cols, dtype=work)
    np.subtract(cols[:, 2:], cols[:, :-2], out=gx)
    rows = sums[: h * (w - 2)].reshape(h, w - 2)        # horizontal [1, 2, 1]
    np.multiply(f[:, 1:-1], 2, out=rows, dtype=work)
    np.add(f[:, :-2], rows, out=rows, dtype=work)
    np.add(rows, f[:, 2:], out=rows, dtype=work)
    np.subtract(rows[2:], rows[:-2], out=gy)
    gx *= gx
    gy *= gy
    gx += gy
    return np.sqrt(gx, out=mag, dtype=np.float64)


def _std(a: np.ndarray, dev: np.ndarray) -> np.float64:
    """``a.std()``, bit for bit: the same float64 sum to the mean, the
    deviations squared into ``dev`` (a float64 plane shaped like ``a``,
    which may be ``a`` itself), and their sum."""
    n = a.size
    mean = np.add.reduce(a, axis=None, dtype=np.float64, keepdims=True) / n
    np.subtract(a, mean, out=dev)
    np.square(dev, out=dev)
    return np.sqrt(np.add.reduce(dev, axis=None) / n)


def spatial_information(seq: FrameSequence) -> np.ndarray:
    """Per-frame SI values; one set of work planes serves every frame."""
    planes = _sobel_planes(seq.frames.shape[1:], _work_dtype(seq.frames))
    si = []
    for frame in seq.frames:
        mag = sobel_magnitude(frame, planes)
        si.append(_std(mag, mag))
    return np.array(si)


def temporal_information(seq: FrameSequence) -> np.ndarray:
    """Per-frame-pair TI values (full frame, no border exclusion); the
    frames are walked once, keeping the previous one."""
    if seq.n_frames < 2:
        raise ValidationError("temporal information needs at least 2 frames")
    work = _work_dtype(seq.frames)
    diff = np.empty(seq.frames.shape[1:], work)
    dev = diff if work is np.float64 else np.empty(diff.shape)
    frames = iter(seq.frames)
    prev = next(frames)
    ti = []
    for frame in frames:
        np.subtract(frame, prev, out=diff, dtype=work)
        ti.append(_std(diff, dev))
        prev = frame
    return np.array(ti)


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
