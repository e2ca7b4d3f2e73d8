"""Audio DSP front-end: STFT magnitudes, mel filterbank, log-mel patches.

The front end follows the common audio-embedding convention, and its
values are fixed constants, not parameters: 25 ms windows with 10 ms hops
at 16 kHz, 64 HTK-scale mel bins spanning 125-7500 Hz, a natural log with
a 0.01 offset, and patches of 96 frames: a 96 x 64 patch is the one input
shape of the model's audio CNN. Energies are quadratic in magnitude
(power), so doubling the input amplitude quadruples mel energies before
the log. No DCT is applied; the front-end stops at the
log-mel representation the downstream CNN consumes.

Every step runs on blocks of PATCH_FRAMES frames, placed by ``_blocks``.
``log_mel_patches``, the path the model takes, goes from the clip's row
to the patch stack one block at a time, and holds no whole-clip spectrum:
one block's frames, spectrum and magnitudes, allocated once per clip
(``_STFTBlock``), besides the patch stack it returns. ``stft_magnitude``
and ``log_mel`` are the same steps as whole-clip functions, and the
patch stack equals their composition bit for bit.

Clips arrive as one float64 row, the mean of a file's channels (see
``manifest.load_wav``). A file at a multiple of SAMPLE_RATE (48 or
32 kHz) is decoded at SAMPLE_RATE: only the frames that exact decimation
keeps are read into the row. A file at any other rate is resampled
linearly: ``resample_linear`` places output sample k at input position
k*sr_in/sr_out, taken as an exact integer quotient and remainder, and
interpolates between the two input samples around it. Linear
interpolation has no anti-alias filter, and neither has decimation:
their quality is adequate for features, not for listening.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ValidationError, replaced_when_written
from .manifest import AudioClip, resampled_length
from .nn import write_tensor_record

SAMPLE_RATE = 16000
FRAME_LEN_S = 0.025
HOP_S = 0.010
FMIN_HZ = 125.0
FMAX_HZ = 7500.0
LOG_OFFSET = 0.01
NUM_MEL = 64
PATCH_FRAMES = 96


def hz_to_mel(f):
    """HTK mel scale: 2595*log10(1 + f/700)."""
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


def _frames(clip: AudioClip) -> tuple[np.ndarray, int]:
    """The (n_frames, win) strided frame view of a mono clip, none when it
    is shorter than one window, and the FFT size."""
    if clip.channels != 1:
        raise ValidationError(f"stft needs a mono clip, got {clip.channels} channels")
    x = clip.samples[0]
    win = int(round(FRAME_LEN_S * clip.sample_rate))
    hop = int(round(HOP_S * clip.sample_rate))
    if win < 2 or hop < 1:
        raise ValidationError("window/hop too small for this sample rate")
    frames = sliding_window_view(x, win)[::hop] if len(x) >= win else np.empty((0, win))
    return frames, next_pow2(win)


def _blocks(n: int):
    """Slices of PATCH_FRAMES rows (all n, when there are fewer) that
    cover n rows in order; the last ends at row n and overlaps the one
    before it."""
    k = min(n, PATCH_FRAMES)
    for i in range(0, n, PATCH_FRAMES):
        i = min(i, n - k)
        yield slice(i, i + k)


class _STFTBlock:
    """The work arrays of one clip's STFT, allocated once: the periodic
    Hann window of length win, a zeroed (rows, nfft) frame block, and its
    complex spectrum.

    ``magnitude`` writes the windowed frames into the first win columns
    of the frame block, whose other columns stay zero, so ``rfft`` pads
    no copy of its own. It transforms each row on its own, so blocks give
    the bits of one zero-padded transform over all frames."""

    def __init__(self, rows: int, win: int, nfft: int):
        self.window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(win) / win)
        self.padded = np.zeros((rows, nfft))
        self.spectrum = np.empty((rows, nfft // 2 + 1), dtype=np.complex128)

    def magnitude(self, frames: np.ndarray, out: np.ndarray) -> None:
        """|rfft| of the windowed ``frames``, as many as the block has rows."""
        np.multiply(frames, self.window, out=self.padded[:, : self.window.size])
        np.abs(np.fft.rfft(self.padded, axis=1, out=self.spectrum), out=out)


def _mel_block(mag: np.ndarray, fb: np.ndarray, power: np.ndarray, out: np.ndarray) -> None:
    """``out`` = (mag squared) @ fb.T; ``power`` takes the squares and may
    be ``mag`` itself."""
    np.square(mag, out=power)
    np.matmul(power, fb.T, out=out)


def stft_magnitude(clip: AudioClip) -> np.ndarray:
    """Magnitude STFT of a mono clip.

    Frames are strided views of the signal, hop round(HOP_S*sr), windowed
    with a periodic Hann of length round(FRAME_LEN_S*sr); the FFT size is
    the next power of two at or above the window. Output shape is (n_frames, nfft//2 + 1) with
    n_frames = 1 + floor((len-win)/hop); a clip shorter than one window
    yields zero frames, not an error (``model.audio_input`` makes it one).

    Frames are windowed and transformed PATCH_FRAMES at a time
    (``_blocks``, ``_STFTBlock``), straight into the output, so besides it
    only one block's frames and spectrum are alive.
    """
    frames, nfft = _frames(clip)
    n, win = frames.shape
    out = np.empty((n, nfft // 2 + 1))
    block = _STFTBlock(min(n, PATCH_FRAMES), win, nfft)
    for rows in _blocks(n):
        block.magnitude(frames[rows], out[rows])
    return out


@lru_cache(maxsize=16)
def mel_filterbank(fft_bins: int = 257) -> np.ndarray:
    """Triangular mel filterbank over the bins of a SAMPLE_RATE spectrum,
    shape (NUM_MEL, fft_bins). Cached and shared, so it is read-only.

    Band edges are spaced uniformly on the HTK mel scale between FMIN_HZ
    and FMAX_HZ; each triangle peaks at 1.0 at its center and reaches zero
    at the centers of its neighbours, so adjacent filters cross at half
    height and every filter's support stays inside [FMIN_HZ, FMAX_HZ].
    """
    nfft = 2 * (fft_bins - 1)
    bin_hz = np.arange(fft_bins) * SAMPLE_RATE / nfft
    edges_hz = mel_to_hz(np.linspace(hz_to_mel(FMIN_HZ), hz_to_mel(FMAX_HZ), NUM_MEL + 2))
    fb = np.zeros((NUM_MEL, fft_bins))
    for m in range(NUM_MEL):
        lo, center, hi = edges_hz[m], edges_hz[m + 1], edges_hz[m + 2]
        rising = (bin_hz - lo) / (center - lo)
        falling = (hi - bin_hz) / (hi - center)
        fb[m] = np.clip(np.minimum(rising, falling), 0.0, None)
    fb.flags.writeable = False
    return fb


def log_mel(stft_mag: np.ndarray, filterbank: np.ndarray) -> np.ndarray:
    """log(power mel energy + LOG_OFFSET), natural log; shape (frames, num_mel).

    The spectrum is squared PATCH_FRAMES rows at a time into one work
    block, and each block's mel product goes straight into the output, so
    no squared copy of the whole spectrum is made. Every block has
    PATCH_FRAMES rows (all rows, when there are fewer), placed by
    ``_blocks``. BLAS may sum a product of a few rows in another order,
    while a block of PATCH_FRAMES rows gives each row the bits of one
    product over the whole spectrum (``tests/test_audiofe.py`` holds the
    two equal)."""
    mag = np.asarray(stft_mag, dtype=np.float64)
    fb = np.asarray(filterbank, dtype=np.float64)
    if mag.ndim != 2 or fb.ndim != 2 or mag.shape[1] != fb.shape[1]:
        raise ValidationError(
            f"shape mismatch: stft {mag.shape} vs filterbank {fb.shape}"
        )
    n = mag.shape[0]
    out = np.empty((n, fb.shape[0]))
    power = np.empty((min(n, PATCH_FRAMES), mag.shape[1]))
    for rows in _blocks(n):
        _mel_block(mag[rows], fb, power, out[rows])
    out += LOG_OFFSET
    return np.log(out, out=out)


def log_mel_patches(clip: AudioClip) -> np.ndarray:
    """Log-mel patch stack (P, PATCH_FRAMES, NUM_MEL) of a mono
    SAMPLE_RATE clip: the rows of ``log_mel(stft_magnitude(clip),
    mel_filterbank(...))`` cut into consecutive patches, P = ceil(frames /
    PATCH_FRAMES), the last one zero-padded, bit for bit. A clip shorter
    than one window gives P = 0.

    No whole-clip spectrum is made. PATCH_FRAMES frames at a time are
    windowed, transformed, turned into magnitudes and squared in one
    spectrum block, and the block's mel product is written straight into
    the patch rows. The blocks are those of ``log_mel`` (``_blocks``), so
    every mel row comes from the same PATCH_FRAMES-row product. The offset
    and the log then run on the filled rows only.
    """
    frames, nfft = _frames(clip)
    n, win = frames.shape
    patches = np.zeros((-(-n // PATCH_FRAMES), PATCH_FRAMES, NUM_MEL))
    block = _STFTBlock(min(n, PATCH_FRAMES), win, nfft)
    mag = np.empty(block.spectrum.shape)
    fb = mel_filterbank(fft_bins=mag.shape[1])
    mel = patches.reshape(-1, NUM_MEL)
    for rows in _blocks(n):
        block.magnitude(frames[rows], mag)
        _mel_block(mag, fb, mag, mel[rows])
    filled = mel[:n]
    filled += LOG_OFFSET
    np.log(filled, out=filled)
    return patches


def resample_linear(clip: AudioClip, target_rate: int) -> AudioClip:
    """Linear-interpolation resampler to
    ``manifest.resampled_length(n, sample_rate, target_rate)`` samples.

    Output k sits at input position q + r/target_rate, where
    (q, r) = divmod(k*sample_rate, target_rate) in exact integers, and
    takes x[q] + (x[q+1] - x[q])*r/target_rate; past the last input
    sample it holds that sample. At an integer ratio every r is 0 and the
    result is x[:, ::ratio], copied.
    """
    if target_rate <= 0:
        raise ValidationError("target_rate must be > 0")
    sr = clip.sample_rate
    if target_rate == sr:
        return clip
    n_in = clip.n_samples
    n_out = resampled_length(n_in, sr, target_rate)
    x = clip.samples
    if sr % target_rate == 0:
        out = x[:, :: sr // target_rate][:, :n_out].copy()
    else:
        q, r = np.divmod(np.arange(n_out, dtype=np.int64) * sr, target_rate)
        lo = x[:, q]
        out = (x[:, np.minimum(q + 1, n_in - 1)] - lo) * (r / target_rate) + lo
    return AudioClip(samples=out, sample_rate=target_rate)


# ---------------------------------------------------------------------------
# Feature dump format: "AVQF", then one tensor record (nn.write_tensor_record)
# ---------------------------------------------------------------------------

_AVQF_MAGIC = b"AVQF"


def write_features(path, array: np.ndarray) -> None:
    """Replaces ``path`` only once the whole dump is written."""
    with replaced_when_written(path) as f:
        f.write(_AVQF_MAGIC)
        # a rank-0 array is stored as shape (1,)
        write_tensor_record(f, np.atleast_1d(array))

