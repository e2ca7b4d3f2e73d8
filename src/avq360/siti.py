"""Spatial Information / Temporal Information content statistics.

SI is the spatial standard deviation of the Sobel gradient magnitude per
frame; TI is the spatial standard deviation of consecutive-frame
differences. Both operate on luma in [0, 255]. Sobel output is taken on
the interior only (1-pixel border excluded, no padding) so independent
pixel-level oracles can match it exactly; standard deviations use the
population (n) convention.

``summarize_siti`` walks the sequence once (``FrameSequence.walk``): each
luma plane is read once, into one reused plane, gives its frame's SI, and
is kept, widened, for the TI of the next frame pair. So no whole-sequence
copy is made. The walk allocates its work planes once per sequence and
fills them frame by frame with ``out=``; one float64 plane holds SI's
magnitude and then TI's deviations. So its speed does
not depend on what the allocator was left holding: a fresh process faults
in no new pages per frame. uint8 luma takes an integer path: each frame
is widened once to int16, the Sobel sums, Gx, Gy (|x| <= 1 020) and the
frame differences are int16, Gx² + Gy² (at most 2 080 800) is int32, and
TI's mean is an exact integer sum. Only the square root and the standard
deviations run in float64. Every intermediate is an integer that float64
holds exactly, so the results are bit-identical to computing everything
in float64, which is what every other dtype does.
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


class _Planes:
    """The work planes of one sequence's frames of ``shape``, allocated
    once; the Sobel planes only when ``sobel`` is set, and then a frame
    under 3x3 is a ValidationError.

    The work dtype is int16 for uint8 luma (exact, see the module
    docstring), else float64. ``frames`` holds the widened current and
    previous frame, ``scratch`` the Sobel [1, 2, 1] sums of either
    direction and then TI's difference, ``g`` Gx and then Gy, and the
    float64 ``flt`` SI's magnitude and then TI's deviations. ``squares``
    are the planes of Gx² and Gy². For uint8 they are an int32 plane and
    an int32 view of ``flt``, and ``g`` is an int16 view of ``flt`` past
    that one: the magnitude overwrites both views only after Gx² + Gy² is
    summed. For float64 they are the magnitude plane and ``g`` itself.
    """

    def __init__(self, shape: tuple, dtype, sobel: bool):
        if sobel and (len(shape) != 2 or min(shape) < 3):
            raise ValidationError(f"frame must be at least 3x3, got {shape}")
        h, w = shape
        narrow = np.dtype(dtype) == np.uint8
        self.work = np.dtype(np.int16 if narrow else np.float64)
        self.frames = (np.empty(shape, self.work), np.empty(shape, self.work))
        self._slot = 0
        self.scratch = np.empty(h * w, self.work)
        self.flt = np.empty(h * w)
        if not sobel:
            return
        m = (h - 2) * (w - 2)
        self.mag = self.flt[:m].reshape(h - 2, w - 2)
        if narrow:
            self.g = self.flt.view(np.int16)[2 * m : 3 * m].reshape(h - 2, w - 2)
            gy2 = self.flt.view(np.int32)[:m].reshape(h - 2, w - 2)
            self.squares = (np.empty((h - 2, w - 2), np.int32), gy2)
        else:
            self.g = np.empty((h - 2, w - 2), self.work)
            self.squares = (self.mag, self.g)

    def widen(self, frame: np.ndarray) -> np.ndarray:
        """``frame`` in the work dtype, copied into the frame plane that
        the previous frame does not hold; a frame already in the work
        dtype is taken as it is."""
        if frame.dtype == self.work:
            return frame
        self._slot ^= 1
        out = self.frames[self._slot]
        np.copyto(out, frame)
        return out


def sobel_magnitude(frame: np.ndarray, planes: _Planes | None = None) -> np.ndarray:
    """3x3 Sobel gradient magnitude (float64) on the (H-2, W-2) interior;
    a frame under 3x3 is a ValidationError.

    ``planes`` (a ``_Planes`` for frames of this shape and dtype, which
    also takes the frame already widened to its work dtype) are work
    arrays to reuse; the result is then their magnitude plane, overwritten
    by the next call.
    """
    f = np.asarray(frame)
    if planes is None:
        planes = _Planes(f.shape, f.dtype, sobel=True)
    f = planes.widen(f)
    h, w = f.shape
    g, sums = planes.g, planes.scratch
    gx2, gy2 = planes.squares
    # Separable form: the same sums as the direct 3x3 kernels; float64
    # doubles and adds exactly as the kernels' weights do.
    cols = sums[: (h - 2) * w].reshape(h - 2, w)        # vertical [1, 2, 1]
    np.add(f[1:-1], f[1:-1], out=cols)
    cols += f[:-2]
    cols += f[2:]
    np.subtract(cols[:, 2:], cols[:, :-2], out=g)
    np.square(g, out=gx2, dtype=gx2.dtype)
    rows = sums[: h * (w - 2)].reshape(h, w - 2)        # horizontal [1, 2, 1]
    np.add(f[:, 1:-1], f[:, 1:-1], out=rows)
    rows += f[:, :-2]
    rows += f[:, 2:]
    np.subtract(rows[2:], rows[:-2], out=g)
    np.square(g, out=gy2, dtype=gx2.dtype)
    gx2 += gy2
    return np.sqrt(gx2, out=planes.mag, dtype=np.float64)


def _std(a: np.ndarray, dev: np.ndarray) -> np.float64:
    """``a.std()``, bit for bit: the sum to the mean (exact in int64 for
    an integer plane, as float64 is on integers this small), the float64
    deviations squared into ``dev`` (a C-contiguous plane shaped like
    ``a``, which may be ``a`` itself), and their float64 sum."""
    n = a.size
    total = np.add.reduce(a, axis=None, dtype=np.int64 if a.dtype.kind == "i" else np.float64)
    np.subtract(a, np.float64(total) / n, out=dev)
    np.square(dev, out=dev)
    return np.sqrt(np.add.reduce(dev, axis=None) / n)


def _temporal(frame: np.ndarray, prev: np.ndarray, planes: _Planes) -> np.float64:
    """TI of one frame pair, both in the work dtype of ``planes``."""
    diff = planes.scratch.reshape(frame.shape)
    np.subtract(frame, prev, out=diff)
    return _std(diff, planes.flt.reshape(frame.shape))


def _walk(seq: FrameSequence, si: bool, ti: bool) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame SI and per-frame-pair TI (each when asked for) from one
    walk over the frames, keeping the previous one."""
    planes = _Planes(seq.frames.shape[1:], seq.frames.dtype, sobel=si)
    if ti and seq.n_frames < 2:
        raise ValidationError("temporal information needs at least 2 frames")
    si_values, ti_values = [], []
    prev = None
    for frame in seq.walk():
        frame = planes.widen(frame)
        if si:
            mag = sobel_magnitude(frame, planes)
            si_values.append(_std(mag, mag))
        if ti and prev is not None:
            ti_values.append(_temporal(frame, prev, planes))
        prev = frame
    return np.array(si_values), np.array(ti_values)


def spatial_information(seq: FrameSequence) -> np.ndarray:
    """Per-frame SI values."""
    return _walk(seq, si=True, ti=False)[0]


def temporal_information(seq: FrameSequence) -> np.ndarray:
    """Per-frame-pair TI values (full frame, no border exclusion)."""
    return _walk(seq, si=False, ti=True)[1]


def summarize_siti(seq: FrameSequence) -> SITIResult:
    si, ti = _walk(seq, si=True, ti=True)
    return SITIResult(
        si_per_frame=si,
        ti_per_frame=ti,
        si_mean=float(si.mean()),
        si_max=float(si.max()),
        ti_mean=float(ti.mean()),
        ti_max=float(ti.max()),
    )
