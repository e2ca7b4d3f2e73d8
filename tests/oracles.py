"""Independent brute-force oracles, and test-only helpers.

Every oracle here is written with plain loops and stdlib math, on
purpose: these implementations must not share code paths with the
package so that agreement between the two is meaningful evidence.
The central finite differences call the forward passes under test and
nothing else. The helpers after them are the exception: they apply
package building blocks so that tests can pin those blocks' behaviour.
"""

import math
import struct
import tracemalloc
import zlib
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from avq360 import audiofe, nn
from avq360.errors import DataError, ValidationError
from avq360.model import _overlap_matrix


def naive_sobel_si(frame):
    """Pixel-loop Sobel magnitude std over the interior (population)."""
    h = len(frame)
    w = len(frame[0])
    mags = []
    for r in range(1, h - 1):
        for c in range(1, w - 1):
            gx = (
                frame[r - 1][c + 1] + 2 * frame[r][c + 1] + frame[r + 1][c + 1]
                - frame[r - 1][c - 1] - 2 * frame[r][c - 1] - frame[r + 1][c - 1]
            )
            gy = (
                frame[r + 1][c - 1] + 2 * frame[r + 1][c] + frame[r + 1][c + 1]
                - frame[r - 1][c - 1] - 2 * frame[r - 1][c] - frame[r - 1][c + 1]
            )
            mags.append(math.sqrt(gx * gx + gy * gy))
    mean = sum(mags) / len(mags)
    return math.sqrt(sum((m - mean) ** 2 for m in mags) / len(mags))


def naive_ti(frame_a, frame_b):
    """Population std of the pixel-wise difference of two frames."""
    diffs = []
    for row_a, row_b in zip(frame_a, frame_b):
        for a, b in zip(row_a, row_b):
            diffs.append(b - a)
    mean = sum(diffs) / len(diffs)
    return math.sqrt(sum((d - mean) ** 2 for d in diffs) / len(diffs))


def exact_ti(frame_a, frame_b):
    """TI of two integer frames from exact moments: the population
    variance of the pixel-wise differences as a Fraction, rounded once to
    the nearest float, then its square root."""
    diffs = [int(b) - int(a) for row_a, row_b in zip(frame_a, frame_b)
             for a, b in zip(row_a, row_b)]
    n = len(diffs)
    return math.sqrt(Fraction(n * sum(d * d for d in diffs) - sum(diffs) ** 2, n * n))


def screen_oracle(table):
    """Annex-2-style screening on {subject: {sequence: score}}.

    Returns (rejected subject set, {subject: (P, Q, N)}). Thresholds:
    k = 2 when the per-sequence kurtosis m4/m2^2 lies in [2, 4], else
    sqrt(20); sequence std is the sample (n-1) estimate; rejection needs
    (P+Q)/N > 0.05 and |P-Q|/(P+Q) < 0.3.
    """
    sequences = set()
    for scores in table.values():
        sequences |= set(scores)
    thresholds = {}
    for seq in sequences:
        xs = [table[s][seq] for s in table if seq in table[s]]
        n = len(xs)
        mean = sum(xs) / n
        m2 = sum((x - mean) ** 2 for x in xs) / n
        m4 = sum((x - mean) ** 4 for x in xs) / n
        kurt = m4 / (m2 * m2) if m2 > 0 else 0.0
        std = math.sqrt(sum((x - mean) ** 2 for x in xs) / (n - 1))
        k = 2.0 if 2.0 <= kurt <= 4.0 else math.sqrt(20.0)
        thresholds[seq] = (mean + k * std, mean - k * std)
    rejected = set()
    counts = {}
    for subject, scores in table.items():
        p = q = 0
        for seq, x in scores.items():
            hi, lo = thresholds[seq]
            if x > hi:
                p += 1
            elif x < lo:
                q += 1
        n = len(scores)
        counts[subject] = (p, q, n)
        if p + q > 0 and (p + q) / n > 0.05 and abs(p - q) / (p + q) < 0.3:
            rejected.add(subject)
    return rejected, counts


def ranks_with_ties(xs):
    """Average ranks (1-based)."""
    order = sorted(range(len(xs)), key=lambda i: xs[i])
    ranks = [0.0] * len(xs)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and xs[order[j + 1]] == xs[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def pearson(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    return sxy / math.sqrt(sxx * syy)


def brute_srocc(xs, ys):
    return pearson(ranks_with_ties(xs), ranks_with_ties(ys))


def brute_krocc(xs, ys):
    """tau-b by enumerating all pairs."""
    n = len(xs)
    concordant = discordant = tied_x = tied_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = xs[i] - xs[j]
            dy = ys[i] - ys[j]
            if dx == 0 and dy == 0:
                continue
            if dx == 0:
                tied_x += 1
            elif dy == 0:
                tied_y += 1
            elif dx * dy > 0:
                concordant += 1
            else:
                discordant += 1
    denom = math.sqrt(
        (concordant + discordant + tied_x) * (concordant + discordant + tied_y)
    )
    return (concordant - discordant) / denom


def _zeros(*dims):
    if len(dims) == 1:
        return [0.0] * dims[0]
    return [_zeros(*dims[1:]) for _ in range(dims[0])]


def naive_conv2d(x, w, b, gy, stride=1, pad=0):
    """Direct zero-padded cross-correlation and its gradients, tap by tap.

    x is (N, C, H, W), w is (O, C, kh, kw), b is (O,) and gy, the output
    gradient, is (N, O, Ho, Wo), all as nested lists. Returns the nested
    lists (y, gx, gw, gb).
    """
    n_, c_, h, wd = len(x), len(x[0]), len(x[0][0]), len(x[0][0][0])
    o_, kh, kw = len(w), len(w[0][0]), len(w[0][0][0])
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd + 2 * pad - kw) // stride + 1
    y = _zeros(n_, o_, ho, wo)
    gx = _zeros(n_, c_, h, wd)
    gw = _zeros(o_, c_, kh, kw)
    gb = [0.0] * o_
    for n in range(n_):
        for o in range(o_):
            for r in range(ho):
                for q in range(wo):
                    acc = b[o]
                    g = gy[n][o][r][q]
                    gb[o] += g
                    for c in range(c_):
                        for i in range(kh):
                            ih = r * stride + i - pad
                            if not 0 <= ih < h:
                                continue
                            xrow, gxrow = x[n][c][ih], gx[n][c][ih]
                            wrow, gwrow = w[o][c][i], gw[o][c][i]
                            for j in range(kw):
                                iw = q * stride + j - pad
                                if 0 <= iw < wd:
                                    acc += xrow[iw] * wrow[j]
                                    gxrow[iw] += g * wrow[j]
                                    gwrow[j] += g * xrow[iw]
                    y[n][o][r][q] = acc
    return y, gx, gw, gb


def naive_maxpool2(x, gy):
    """2x2 stride-2 max pooling of nested-list x (N, C, H, W), and the
    gradient of the output gradient gy: each window's gradient goes to
    its first maximum in raster order (0,0), (0,1), (1,0), (1,1).
    Returns the nested lists (y, gx)."""
    n_, c_, h, wd = len(x), len(x[0]), len(x[0][0]), len(x[0][0][0])
    y = _zeros(n_, c_, h // 2, wd // 2)
    gx = _zeros(n_, c_, h, wd)
    for n in range(n_):
        for c in range(c_):
            for r in range(h // 2):
                for q in range(wd // 2):
                    best = None
                    for i in (0, 1):
                        for j in (0, 1):
                            v = x[n][c][2 * r + i][2 * q + j]
                            if best is None or v > best[0]:
                                best = (v, 2 * r + i, 2 * q + j)
                    y[n][c][r][q] = best[0]
                    gx[n][c][best[1]][best[2]] = gy[n][c][r][q]
    return y, gx


# -- central finite differences (forward passes only) ------------------------
# The float64 gradient checks of the hand-written backward passes.


def numerical_gradient(f, x, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar f(x) w.r.t. every entry of x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat_x = x.reshape(-1)
    flat_g = g.reshape(-1)
    for i in range(flat_x.size):
        old = flat_x[i]
        flat_x[i] = old + h
        fp = f(x)
        flat_x[i] = old - h
        fm = f(x)
        flat_x[i] = old
        flat_g[i] = (fp - fm) / (2.0 * h)
    return g


def finite_difference_store_grads(
    loss_fn,
    store: nn.ParamStore,
    h: float = 1e-5,
    max_coords_per_tensor: int | None = None,
    seed: int = 0,
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Central differences of loss_fn() w.r.t. store parameters (in place).

    Returns {name: (flat_indices, numeric_grads)}. When a tensor has
    more entries than max_coords_per_tensor, a seeded subset is checked.
    """
    rng = np.random.default_rng(seed)
    out = {}
    for name in store.param_names():
        flat = store.params[name].reshape(-1)
        if max_coords_per_tensor is not None and flat.size > max_coords_per_tensor:
            idx = np.sort(rng.choice(flat.size, size=max_coords_per_tensor, replace=False))
        else:
            idx = np.arange(flat.size)
        vals = np.empty(len(idx))
        for j, i in enumerate(idx):
            old = flat[i]
            flat[i] = old + h
            fp = loss_fn()
            flat[i] = old - h
            fm = loss_fn()
            flat[i] = old
            vals[j] = (fp - fm) / (2.0 * h)
        out[name] = (idx, vals)
    return out


def gradient_rel_err(analytic, numeric, zero_tol: float = 1e-7) -> float:
    """Worst-case relative disagreement between two gradient estimates.

    Entries where both magnitudes are below zero_tol are compared
    absolutely (their ratio would be dominated by finite-difference
    noise rather than by the formulas under test).
    """
    a = np.asarray(analytic, dtype=np.float64).reshape(-1)
    n = np.asarray(numeric, dtype=np.float64).reshape(-1)
    denom = np.maximum(np.abs(a), np.abs(n))
    err = np.abs(a - n)
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.where(denom < zero_tol, err, err / denom)
    return float(rel.max()) if rel.size else 0.0


# -- test-only helpers on package building blocks ----------------------------


def area_resize(img, out_h, out_w):
    """Area-average resize of a 2-D image through the resampling matrices
    that ``model.video_input`` applies to every band (exact box filter,
    any ratio)."""
    img = np.asarray(img, dtype=np.float64)
    return _overlap_matrix(img.shape[0], out_h) @ img @ _overlap_matrix(img.shape[1], out_w).T


def relu_pool_forward(x):
    """A conv stage's relu and 2x2 max pool in the order they first ran,
    relu then pool, by their nn ops. Returns (y, cache)."""
    r, relu_cache = nn.relu_forward(x)
    y, pool_cache = nn.maxpool2_forward(r)
    return y, (relu_cache, pool_cache)


def relu_pool_backward(gy, cache):
    """The input gradient of ``relu_pool_forward``: pool, then relu backward."""
    relu_cache, pool_cache = cache
    return nn.relu_backward(nn.maxpool2_backward(gy, pool_cache), relu_cache)


def four_view_maxpool2(x):
    """2x2 stride-2 max pool as the max of the four stride-2 views, paired
    in raster order: max(max(x00, x01), max(x10, x11))."""
    return np.maximum(np.maximum(x[:, :, 0::2, 0::2], x[:, :, 0::2, 1::2]),
                      np.maximum(x[:, :, 1::2, 0::2], x[:, :, 1::2, 1::2]))


def padded_window_columns(x, kh, kw, stride, pad):
    """The (N, C*kh*kw, Ho*Wo) im2col columns of x by np.pad and
    sliding_window_view, transposed to (N, C, kh, kw, Ho, Wo) and copied."""
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    n, c, ho, wo = win.shape[:4]
    return np.ascontiguousarray(win.transpose(0, 1, 4, 5, 2, 3)).reshape(n, c * kh * kw, ho * wo)


def traced_peak(fn):
    """Peak bytes ``tracemalloc`` sees above its start while ``fn`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def whole_clip_patches(clip):
    """The log-mel patch stack of a mono 16 kHz clip as the whole-clip
    functions give it: ``stft_magnitude``, then ``log_mel``, then the rows
    cut into zero-padded windows of PATCH_FRAMES frames."""
    mag = audiofe.stft_magnitude(clip)
    mel = audiofe.log_mel(mag, audiofe.mel_filterbank(fft_bins=mag.shape[1]))
    p = -(-len(mel) // audiofe.PATCH_FRAMES)
    rows = np.zeros((p * audiofe.PATCH_FRAMES, mel.shape[1]))
    rows[: len(mel)] = mel
    return rows.reshape(p, audiofe.PATCH_FRAMES, mel.shape[1])


def walked_frames(seq, indices=None) -> np.ndarray:
    """The frames of ``seq`` that ``indices`` name (every frame by default),
    stacked from copies of the planes ``seq.walk`` gives, since a walk of a
    loaded sequence reuses one plane."""
    return np.stack([plane.copy() for plane in seq.walk(indices)])


def with_crc(body: bytes) -> bytes:
    """A whole AVQC file from the bytes before its trailer (``nn.write_checkpoint``):
    ``body``, then the u32 ``zlib.crc32`` of it."""
    return body + struct.pack("<I", zlib.crc32(body))


def read_features(path) -> np.ndarray:
    """The array of an AVQF feature dump (``audiofe.write_features``):
    the magic, then one tensor record that must end the file."""
    data = Path(path).read_bytes()
    if data[:4] != audiofe._AVQF_MAGIC:
        raise DataError(f"{path}: bad magic, not an AVQF feature dump")
    arr, end = nn.read_tensor_record(data, 4, path)
    if end != len(data):
        raise DataError(f"{path}: payload size does not match dims {arr.shape}")
    return arr


def filter_center_frequencies(
    num_mel=audiofe.NUM_MEL,
    fmin_hz=audiofe.FMIN_HZ,
    fmax_hz=audiofe.FMAX_HZ,
):
    """Center frequency (Hz) of each filter of ``audiofe.mel_filterbank``:
    the interior points of num_mel + 2 edges spaced evenly in HTK mel."""
    edges = np.linspace(audiofe.hz_to_mel(fmin_hz), audiofe.hz_to_mel(fmax_hz), num_mel + 2)
    return audiofe.mel_to_hz(edges)[1:-1]


# -- reference latitude weighting --------------------------------------------
# The band weighting that ``model.AVQAModel._video_tokens`` does inline,
# written as a separate weights object and a convex combination.


@dataclass
class LatitudeWeights:
    """Prior, learnable logits, and the resulting effective weights."""

    prior_weights: np.ndarray
    learned_logits: np.ndarray
    effective_weights: np.ndarray

    @classmethod
    def from_logits(cls, prior_weights, learned_logits) -> "LatitudeWeights":
        prior = np.asarray(prior_weights, dtype=np.float64)
        logits = np.asarray(learned_logits, dtype=np.float64)
        if prior.shape != logits.shape:
            raise ValidationError("prior and logits must have the same length")
        if np.any(prior <= 0):
            raise ValidationError("prior weights must be strictly positive")
        z = logits + np.log(prior)
        z = z - z.max()
        e = np.exp(z)
        return cls(prior, logits, e / e.sum())


def aggregate_band_features(features, weights: LatitudeWeights) -> np.ndarray:
    """Convex combination of per-band feature tensors.

    ``features`` is a length-M sequence of equally shaped arrays; the
    output is sum_m effective_weights[m] * features[m].
    """
    if len(features) != len(weights.effective_weights):
        raise ValidationError(
            f"{len(features)} feature tensors vs {len(weights.effective_weights)} weights"
        )
    shapes = {np.shape(f) for f in features}
    if len(shapes) != 1:
        raise ValidationError(f"band feature shapes differ: {sorted(shapes)}")
    stacked = np.stack([np.asarray(f, dtype=np.float64) for f in features])
    w = weights.effective_weights.reshape((-1,) + (1,) * (stacked.ndim - 1))
    return (w * stacked).sum(axis=0)


# -- reference formulations of the audio ingest path -------------------------
# Each computes what the package's streamlined kernel computes, the
# straightforward way: float time axes and np.interp, a fancy-index frame
# gather, F-order samples from a transposed PCM view.


def interp_resample(samples, sample_rate, target_rate):
    """Linear resampling of (channels, n) rows by np.interp on float time
    axes, to round(n*target_rate/sample_rate) samples."""
    n_in = samples.shape[1]
    n_out = int(round(n_in * target_rate / sample_rate))
    t_out = np.arange(n_out) / target_rate
    t_in = np.arange(n_in) / sample_rate
    return np.stack([np.interp(t_out, t_in, ch) for ch in samples])


def gathered_stft_magnitude(x, sample_rate=audiofe.SAMPLE_RATE,
                            frame_len_s=audiofe.FRAME_LEN_S,
                            hop_s=audiofe.HOP_S):
    """|rfft| of periodic-Hann frames of the 1-D signal x, gathered by an
    (n_frames, win) index array and zero-padded to the next power of two."""
    win = int(round(frame_len_s * sample_rate))
    hop = int(round(hop_s * sample_rate))
    n_frames = 1 + (len(x) - win) // hop
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(win) / win)
    offsets = np.arange(n_frames) * hop
    frames = x[offsets[:, None] + np.arange(win)] * window
    return np.abs(np.fft.rfft(frames, n=audiofe.next_pow2(win), axis=1))


def one_shot_stft_magnitude(x, sample_rate=audiofe.SAMPLE_RATE):
    """|rfft| of periodic-Hann frames of the 1-D signal x, every frame in
    one transform: strided framing, zero-padded to the next power of two."""
    win = int(round(audiofe.FRAME_LEN_S * sample_rate))
    hop = int(round(audiofe.HOP_S * sample_rate))
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(win) / win)
    nfft = audiofe.next_pow2(win)
    return np.abs(np.fft.rfft(sliding_window_view(x, win)[::hop] * window, n=nfft, axis=1))


def reference_audio_input(pcm, sample_rate):
    """``model.audio_input`` of interleaved int16 PCM (n, channels), built
    from the reference formulations: F-order samples scaled by /32768, a
    mean over the channel axis, np.interp resampling to 16 kHz, a gathered
    STFT, the package's mel filterbank and log, then one zero-padded window
    per patch, cut in a loop."""
    samples = pcm.T.astype(np.float64)
    samples /= 32768.0
    mono = samples.mean(axis=0, keepdims=True)
    if sample_rate != audiofe.SAMPLE_RATE:
        mono = interp_resample(mono, sample_rate, audiofe.SAMPLE_RATE)
    mag = gathered_stft_magnitude(mono[0])
    fb = audiofe.mel_filterbank(fft_bins=mag.shape[1])
    mel = audiofe.log_mel(mag, fb)
    patches = []
    for start in range(0, mel.shape[0], audiofe.PATCH_FRAMES):
        chunk = mel[start : start + audiofe.PATCH_FRAMES]
        pad = np.zeros((audiofe.PATCH_FRAMES - chunk.shape[0], mel.shape[1]))
        patches.append(np.vstack([chunk, pad]))
    return np.stack(patches)
