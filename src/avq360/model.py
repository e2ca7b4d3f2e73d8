"""No-reference audio-visual quality model and its training loop.

Video branch: frames are split into latitude bands, each band is
box-resampled to BAND_INPUT_HW and encoded by its own small CNN;
band features are aggregated with learnable latitude weights biased by
the cos-latitude prior, sinusoidal position codes are added, and one
self-attention block models temporal structure across the frame tokens.
Audio branch: log-mel patches pass through a four-stage CNN into one
token per patch, with no position code, so the score does not depend on
the order of the patches. Fusion: a pre-norm transformer stack over the
video tokens where every second block (indices 1, 3, 5, ...) inserts
cross-attention with video queries and audio keys/values. The pooled
representation maps through a linear head and a sigmoid to a quality
score in (0, 1), rescaled to (0, 100) for reporting.

All forward/backward passes run one sequence at a time; batches
accumulate gradients in a fixed order, so training is bit-reproducible
for a given seed.

Memory: ``forward`` keeps a tape for ``backward``, every layer's cache
with each conv's im2col columns and each pool's input, so training holds
one sample's activations. ``predict`` keeps no tape: each conv stack runs
over groups of at most SCORE_GROUP samples and frees a stage's buffers
before the next, so scoring holds one group's activations however long
the clip is, and its score equals 100 * ``forward``'s bit for bit. At
the default 8 frames, a band's frames run as two groups. Preprocessing
converts one picked video frame at a time, read into one reused plane
(``video_input``), and turns PATCH_FRAMES STFT frames at a time into
log-mel patch rows (``audiofe.log_mel_patches``), so no whole-clip
spectrum is held. A loaded model allocates no gradients until it trains
(``nn.ParamStore``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

from . import audiofe, nn
from .erp import cos_latitude_prior, partition_erp
from .errors import DataError, ValidationError
from .manifest import AudioClip, FrameSequence, downmix_mono

FUSION_MODES = ("transformer", "cat", "add")

# Height and width each latitude band is resampled to before its CNN.
BAND_INPUT_HW = (16, 32)

# Hidden width of every transformer feed-forward, in multiples of d_model.
FF_MULT = 2

# Most samples a scoring pass sends through a conv stack at once: the audio
# CNN holds the activations of 4 patches, not of a whole clip; its second
# conv's columns for one group (3.54 MB) set the scoring peak. 4 runs no
# slower than 8.
SCORE_GROUP = 4

# The version of preprocess_sequence's output bits. A feature file records
# it (see cli), so one written before the arrays changed is recomputed; a
# test pins it with a digest of the arrays, and a change of those bits
# bumps it.
FEATURES_VERSION = 1


@dataclass
class ModelConfig:
    bands: int = 4
    band_channels: tuple = (8, 16, 32)
    d_model: int = 64
    fusion_blocks: int = 4
    heads: int = 4
    audio_channels: tuple = (8, 16, 32, 64)
    frames_per_clip: int = 8
    fusion_mode: str = "transformer"
    seed: int = 1234
    lr: float = 1e-3
    train_steps: int = 300
    batch_size: int = 8

    def validate(self) -> None:
        if self.bands < 1:
            raise ValidationError("bands must be >= 1")
        for key in ("d_model", "heads"):
            if getattr(self, key) < 1:
                raise ValidationError(f"{key} must be >= 1, got {getattr(self, key)}")
        for key in ("band_channels", "audio_channels"):
            if any(ch < 1 for ch in getattr(self, key)):
                raise ValidationError(
                    f"{key} must list channel counts >= 1, got {getattr(self, key)}"
                )
        if self.d_model % self.heads:
            raise ValidationError(
                f"d_model {self.d_model} not divisible by heads {self.heads}"
            )
        if self.fusion_mode not in FUSION_MODES:
            raise ValidationError(f"unknown fusion_mode {self.fusion_mode!r}")
        if self.fusion_mode == "transformer" and (
            self.fusion_blocks < 2 or self.fusion_blocks % 2
        ):
            raise ValidationError(
                "fusion_blocks must be even and >= 2 so the alternate-block "
                f"cross-attention rule is well formed, got {self.fusion_blocks}"
            )
        bh, bw = BAND_INPUT_HW
        div = 2 ** len(self.band_channels)
        if bh % div or bw % div:
            raise ValidationError(
                f"band input {bh}x{bw} must be divisible by {div} "
                f"({len(self.band_channels)} pooling stages)"
            )
        if len(self.audio_channels) != 4:
            raise ValidationError("audio_channels must list exactly 4 conv stages")
        if self.frames_per_clip < 1:
            raise ValidationError("frames_per_clip must be >= 1")
        if not 0 < self.lr < float("inf"):
            raise ValidationError("lr must be finite and > 0")
        if self.train_steps < 0 or self.batch_size < 1:
            raise ValidationError("train_steps must be >= 0 and batch_size >= 1")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")


# ---------------------------------------------------------------------------
# Preprocessing: media -> model input tensors
# ---------------------------------------------------------------------------

@dataclass
class SequenceFeatures:
    """Preprocessed inputs for one sequence; the model reads the float64
    arrays as they are, without a copy."""

    video: np.ndarray       # (T, M, *BAND_INPUT_HW) float64, luma in [0, 1]
    audio: np.ndarray       # (P, PATCH_FRAMES, NUM_MEL) float64 log-mel patches
    lat_prior: np.ndarray   # (M,) cos-latitude prior of the source partition
    sequence_id: str = ""


def sample_frame_indices(n_frames: int, t: int) -> np.ndarray:
    """t evenly spaced frame indices, first and last included."""
    if t > n_frames:
        raise ValidationError(f"requested {t} frames but only {n_frames} available")
    return np.rint(np.linspace(0, n_frames - 1, t)).astype(int)


@lru_cache(maxsize=64)
def _overlap_matrix(n_in: int, n_out: int) -> np.ndarray:
    """Exact area-average resampling matrix (n_out, n_in); rows sum to 1.
    Cached and shared, so it is read-only."""
    scale = n_in / n_out
    mat = np.zeros((n_out, n_in))
    for i in range(n_out):
        lo, hi = i * scale, (i + 1) * scale
        j0, j1 = int(np.floor(lo)), min(int(np.ceil(hi)), n_in)
        for j in range(j0, j1):
            mat[i, j] = max(0.0, min(hi, j + 1) - max(lo, j)) / scale
    mat.flags.writeable = False
    return mat


def video_input(seq: FrameSequence, cfg: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """Banded, resized video tensor (T, M, bh, bw) plus the cos-latitude prior.

    The picked frames are converted one at a time into one float64 frame
    buffer, which, besides the output and the cached resampling matrices,
    is all that is kept alive; a sequence from ``load_y4m`` reads only the
    picked frames from its file, into one reused plane
    (``FrameSequence.walk``). A frame that is not 2:1 is a DataError (see
    ``audio_input``)."""
    if seq.width != 2 * seq.height:
        raise DataError(
            f"frame {seq.width}x{seq.height} is not 2:1 ERP"
        )
    part = partition_erp(seq.height, cfg.bands)
    prior = cos_latitude_prior(part)
    bh, bw = BAND_INPUT_HW
    col_t = _overlap_matrix(seq.width, bw).T
    bands = [(a, b, _overlap_matrix(b - a, bh)) for a, b in part.band_row_ranges]
    # frames_per_clip sizes no parameter: pick the frames, which checks the
    # count against the clip, before it sizes anything
    picked = sample_frame_indices(seq.n_frames, cfg.frames_per_clip)
    out = np.empty((len(picked), cfg.bands, bh, bw))
    frame = np.empty((seq.height, seq.width))
    for t, luma in enumerate(seq.walk(picked)):
        np.divide(luma, 255.0, out=frame, dtype=np.float64)
        for m, (a, b, row_mat) in enumerate(bands):
            out[t, m] = row_mat @ frame[a:b] @ col_t
    return out, prior


def audio_input(clip: AudioClip) -> np.ndarray:
    """Log-mel patch stack (P, PATCH_FRAMES, NUM_MEL) of a clip; a
    multichannel clip (``load_wav`` gives mono) is downmixed first. A clip
    too short for one analysis frame is a DataError naming its sample
    count and rate. The commands decide both checks first, naming the file
    (``cli._features``); these guard library callers, for whom an empty
    stack would be a bare ValueError in the audio CNN."""
    mono = clip if clip.channels == 1 else downmix_mono(clip)
    if mono.sample_rate != audiofe.SAMPLE_RATE:
        mono = audiofe.resample_linear(mono, audiofe.SAMPLE_RATE)
    patches = audiofe.log_mel_patches(mono)
    if len(patches) == 0:
        raise DataError(
            f"audio of {clip.n_samples} samples at {clip.sample_rate} Hz is shorter "
            f"than one {audiofe.FRAME_LEN_S * 1000:g} ms analysis frame"
        )
    return patches


def preprocess_sequence(
    seq: FrameSequence, clip: AudioClip, cfg: ModelConfig, sequence_id: str = ""
) -> SequenceFeatures:
    video, prior = video_input(seq, cfg)
    audio = audio_input(clip)
    return SequenceFeatures(video=video, audio=audio, lat_prior=prior,
                            sequence_id=sequence_id)


def sinusoidal_positions(n: int, d: int) -> np.ndarray:
    """Standard sin/cos positional encoding, shape (n, d)."""
    pos = np.arange(n)[:, None]
    i = np.arange(d)[None, :]
    angle = pos / np.power(10000.0, 2.0 * (i // 2) / d)
    return np.where(i % 2 == 0, np.sin(angle), np.cos(angle))


# ---------------------------------------------------------------------------
# Submodules
# ---------------------------------------------------------------------------

class _ConvStack:
    """conv(3x3, pad 1) + 2x2 maxpool + relu stages, then global mean pool
    and a linear projection to d_model. backward accumulates parameter
    gradients only: the stack's input is data.

    ``forward`` keeps every stage's cache for ``backward``: the im2col
    columns of each conv and the input of each pool, for all N samples.
    ``score`` keeps none of it: it runs the stages and the mean pool over
    at most SCORE_GROUP samples at a time, so only one group's activations
    are alive (audio conv1's im2col columns for 4 patches, 3.54 MB, are
    the largest; with that conv's output and the pool's the peak is
    about 5.4 MB, by ``tracemalloc``), and then projects the pooled rows
    once, as ``forward`` does. Each sample's conv product and mean are
    computed on their own, so its output equals ``forward``'s bit for
    bit whatever the group size.

    Each stage pools before its relu, so the relu runs on a quarter of the
    elements. That equals relu then pool, bit for bit, in both passes:
    relu and max commute, and on the way back a window whose max is <= 0
    sends gy*0 to all four positions in either order, while in a window
    whose max is > 0 the ties fall on the same positive values. Untaped
    (``score``), the relu is applied in place on the pool's output and
    builds no mask, since only ``backward`` reads one."""

    def __init__(self, store, name, channels, d_model, rng):
        self.convs = []
        cin = 1
        for i, cout in enumerate(channels):
            self.convs.append(nn.Conv2d(store, f"{name}.conv{i}", cin, cout, rng))
            cin = cout
        self.proj = nn.Linear(store, f"{name}.proj", cin, d_model, rng)

    def _pooled(self, x, stage_caches=None):
        """(N, C) global means after the stages, and the mean pool's cache;
        each stage's caches are appended to ``stage_caches`` when it is given."""
        for conv in self.convs:
            x, cc = conv.forward(x)
            x, pc = nn.maxpool2_forward(x)
            if stage_caches is None:
                np.maximum(x, 0.0, out=x)  # relu on the pool's fresh output
            else:
                x, rc = nn.relu_forward(x)
                stage_caches.append((cc, pc, rc))
            del cc, pc  # untaped, the buffers go before the next stage
        return nn.global_mean_pool_forward(x)

    def forward(self, x):
        stage_caches = []
        x, gap_cache = self._pooled(x, stage_caches)
        y, proj_cache = self.proj.forward(x)
        return y, (stage_caches, gap_cache, proj_cache)

    def score(self, x):
        """``forward``'s y and, in place of its cache, None."""
        pooled = np.concatenate([self._pooled(x[i : i + SCORE_GROUP])[0]
                                 for i in range(0, len(x), SCORE_GROUP)])
        return self.proj.forward(pooled)[0], None

    def backward(self, gy, cache):
        stage_caches, gap_cache, proj_cache = cache
        g = self.proj.backward(gy, proj_cache)
        g = nn.global_mean_pool_backward(g, gap_cache)
        for conv, (cc, pc, rc) in zip(reversed(self.convs), reversed(stage_caches)):
            g = nn.relu_backward(g, rc)
            g = nn.maxpool2_backward(g, pc)
            # the first conv's input is data: its gradient is never read
            g = conv.backward(g, cc, need_gx=conv is not self.convs[0])


class _FeedForward:
    def __init__(self, store, name, d_model, hidden, rng):
        self.lin1 = nn.Linear(store, f"{name}.lin1", d_model, hidden, rng)
        self.lin2 = nn.Linear(store, f"{name}.lin2", hidden, d_model, rng)

    def forward(self, x):
        h, c1 = self.lin1.forward(x)
        h, rc = nn.relu_forward(h)
        y, c2 = self.lin2.forward(h)
        return y, (c1, rc, c2)

    def backward(self, gy, cache):
        c1, rc, c2 = cache
        g = self.lin2.backward(gy, c2)
        g = nn.relu_backward(g, rc)
        return self.lin1.backward(g, c1)


class _TransformerBlock:
    """Pre-norm block: self-attention, optional cross-attention, feed-forward,
    each as residual sublayers. Its cache maps sublayer names to their caches."""

    def __init__(self, store, name, d_model, heads, rng, cross: bool):
        self.cross = cross
        self.ln1 = nn.LayerNorm(store, f"{name}.ln1", d_model)
        self.attn = nn.MultiHeadAttention(store, f"{name}.attn", d_model, heads, rng)
        if cross:
            self.lnx = nn.LayerNorm(store, f"{name}.lnx", d_model)
            self.xattn = nn.MultiHeadAttention(store, f"{name}.xattn", d_model, heads, rng)
        self.ln2 = nn.LayerNorm(store, f"{name}.ln2", d_model)
        self.ff = _FeedForward(store, f"{name}.ff", d_model, FF_MULT * d_model, rng)

    def forward(self, v, a=None):
        c = {}
        u, c["ln1"] = self.ln1.forward(v)
        y, c["attn"] = self.attn.forward(u, u)
        v = v + y
        if self.cross:
            if a is None:
                raise ValidationError("cross-attention block needs audio tokens")
            u, c["lnx"] = self.lnx.forward(v)
            y, c["xattn"] = self.xattn.forward(u, a)
            v = v + y
        u, c["ln2"] = self.ln2.forward(v)
        y, c["ff"] = self.ff.forward(u)
        return v + y, c

    def backward(self, gv, c):
        ga = None
        gu = self.ff.backward(gv, c["ff"])
        gv = gv + self.ln2.backward(gu, c["ln2"])
        if self.cross:
            gq, ga = self.xattn.backward(gv, c["xattn"])
            gv = gv + self.lnx.backward(gq, c["lnx"])
        gq, gkv = self.attn.backward(gv, c["attn"])
        gv = gv + self.ln1.backward(gq + gkv, c["ln1"])
        return gv, ga


# ---------------------------------------------------------------------------
# Full model
# ---------------------------------------------------------------------------

class AVQAModel:
    def __init__(self, cfg: ModelConfig, params: dict[str, np.ndarray] | None = None):
        """The model of ``cfg``, its parameters drawn from ``cfg.seed``; or,
        given ``params``, holding those float64 arrays themselves, with no
        random draw. A name ``params`` lacks, or an array of another shape,
        raises DataError as its layer is built (see ``nn.ParamStore``)."""
        cfg.validate()
        self.cfg = cfg
        self.store = nn.ParamStore(params)
        rng = np.random.default_rng(cfg.seed)
        d = cfg.d_model

        self.band_encoders = [
            _ConvStack(self.store, f"video.band{m}", cfg.band_channels, d, rng)
            for m in range(cfg.bands)
        ]
        self.lat_logits = self.store.create("video.lat_logits", (cfg.bands,), np.zeros)
        self.temporal = _TransformerBlock(self.store, "video.temporal", d, cfg.heads, rng,
                                          cross=False)
        self.audio_enc = _ConvStack(self.store, "audio.cnn", cfg.audio_channels, d, rng)
        self.audio_ln = nn.LayerNorm(self.store, "audio.ln", d)

        self.fusion_blocks: list[_TransformerBlock] = []
        if cfg.fusion_mode == "transformer":
            for i in range(cfg.fusion_blocks):
                self.fusion_blocks.append(_TransformerBlock(
                    self.store, f"fusion.block{i}", d, cfg.heads, rng, cross=i % 2 == 1))
            self.final_ln = nn.LayerNorm(self.store, "fusion.final_ln", d)
            head_in = d
        elif cfg.fusion_mode == "cat":
            head_in = 2 * d
        else:  # add
            head_in = d
        self.head = nn.Linear(self.store, "head", head_in, 1, rng)
        self._tape = None  # cache of the last forward, consumed by backward

    # -- forward -----------------------------------------------------------

    def _video_tokens(self, feat: SequenceFeatures, taped: bool = True):
        """(T, d) video tokens and their cache; untaped, the band stacks
        keep none (``_ConvStack.score``)."""
        cfg = self.cfg
        if feat.video.shape[1] != cfg.bands:
            raise ValidationError(
                f"features carry {feat.video.shape[1]} bands, model expects {cfg.bands}"
            )
        band_feats, band_caches = zip(*(
            (enc.forward if taped else enc.score)(feat.video[:, m][:, None])
            for m, enc in enumerate(self.band_encoders)
        ))
        stacked = np.stack(band_feats)                       # (M, T, d)
        z = self.lat_logits + np.log(feat.lat_prior)
        eff = nn.softmax(z[None, :])[0]
        tokens = np.einsum("m,mtd->td", eff, stacked)
        tokens = tokens + sinusoidal_positions(tokens.shape[0], cfg.d_model)
        tokens, temporal_cache = self.temporal.forward(tokens)
        return tokens, (band_caches, stacked, eff, temporal_cache)

    def _video_tokens_backward(self, gv, cache):
        band_caches, stacked, eff, temporal_cache = cache
        gtok, _ = self.temporal.backward(gv, temporal_cache)
        geff = np.einsum("td,mtd->m", gtok, stacked)
        gz = nn.softmax_backward(geff[None, :], eff[None, :])[0]
        self.store.add_grad("video.lat_logits", gz)
        for m, (enc, c) in enumerate(zip(self.band_encoders, band_caches)):
            enc.backward(eff[m] * gtok, c)

    def _audio_tokens(self, feat: SequenceFeatures, taped: bool = True):
        """(P, d) audio tokens and their cache; untaped, the audio CNN
        keeps none (``_ConvStack.score``)."""
        enc = self.audio_enc
        tokens, enc_cache = (enc.forward if taped else enc.score)(feat.audio[:, None])
        tokens, ln_cache = self.audio_ln.forward(tokens)
        return tokens, (enc_cache, ln_cache)

    def _audio_tokens_backward(self, ga, cache):
        enc_cache, ln_cache = cache
        g = self.audio_ln.backward(ga, ln_cache)
        self.audio_enc.backward(g, enc_cache)

    def _score(self, feat: SequenceFeatures, taped: bool):
        """Score in (0, 1) for one preprocessed sequence, and its cache;
        untaped, the conv stacks keep no cache and the cache is not one
        ``backward`` can use."""
        cfg = self.cfg
        v, video_cache = self._video_tokens(feat, taped)
        a, audio_cache = self._audio_tokens(feat, taped)
        t, p = v.shape[0], a.shape[0]
        fusion_cache = None
        if cfg.fusion_mode == "transformer":
            block_caches = []
            for blk in self.fusion_blocks:
                v, c = blk.forward(v, a)
                block_caches.append(c)
            v, final_cache = self.final_ln.forward(v)
            fusion_cache = (block_caches, final_cache)
            pooled = v.mean(axis=0)
        elif cfg.fusion_mode == "cat":
            pooled = np.concatenate([v.mean(axis=0), a.mean(axis=0)])
        else:
            pooled = v.mean(axis=0) + a.mean(axis=0)
        y, head_cache = self.head.forward(pooled)
        s = float(nn.sigmoid(y)[0])
        return s, (video_cache, audio_cache, fusion_cache, head_cache, t, p, s)

    def forward(self, feat: SequenceFeatures) -> float:
        """Score in (0, 1) for one preprocessed sequence; keeps the cache
        the next backward consumes."""
        s, self._tape = self._score(feat, taped=True)
        return s

    def backward(self, gscore: float) -> None:
        """Accumulate parameter gradients of gscore * d(score01)/d(params)
        at the input of the last forward."""
        if self._tape is None:
            raise ValidationError("backward needs a forward before it")
        tape, self._tape = self._tape, None
        video_cache, audio_cache, fusion_cache, head_cache, t, p, s = tape
        cfg = self.cfg
        d = cfg.d_model
        gy = np.array([gscore * s * (1.0 - s)], dtype=np.float64)
        gpooled = self.head.backward(gy, head_cache)
        if cfg.fusion_mode == "transformer":
            block_caches, final_cache = fusion_cache
            gv = np.broadcast_to(gpooled / t, (t, d)).copy()
            gv = self.final_ln.backward(gv, final_cache)
            ga_total = np.zeros((p, d))
            for blk, c in zip(reversed(self.fusion_blocks), reversed(block_caches)):
                gv, ga = blk.backward(gv, c)
                if ga is not None:
                    ga_total += ga
        elif cfg.fusion_mode == "cat":
            gv = np.broadcast_to(gpooled[:d] / t, (t, d)).copy()
            ga_total = np.broadcast_to(gpooled[d:] / p, (p, d)).copy()
        else:
            gv = np.broadcast_to(gpooled / t, (t, d)).copy()
            ga_total = np.broadcast_to(gpooled / p, (p, d)).copy()
        self._audio_tokens_backward(ga_total, audio_cache)
        self._video_tokens_backward(gv, video_cache)

    def predict(self, feat: SequenceFeatures) -> float:
        """Quality score in (0, 100), bit for bit 100 * ``forward``'s. It
        keeps no tape: the conv stacks run cache-free, SCORE_GROUP samples
        at a time (``_ConvStack.score``), and the few kilobytes of
        attention and layer-norm caches go when it returns. An earlier
        ``forward``'s tape is left to ``backward``."""
        return 100.0 * self._score(feat, taped=False)[0]

    # -- persistence ---------------------------------------------------------

    def save(self, path, staged=None) -> None:
        """The checkpoint at ``path``, replaced when the ExitStack
        ``staged`` closes, if one is given (``nn.write_checkpoint``)."""
        tensors = dict(self.store.params)
        tensors.update(_config_to_meta(self.cfg))
        nn.write_checkpoint(path, tensors, staged=staged)

    @classmethod
    def load(cls, path) -> "AVQAModel":
        """The model a checkpoint holds: its config read from the ``meta/``
        tensors and validated, then the model built from the file's arrays,
        each checked by name and shape as its layer takes it over, so a
        ``meta/`` value sizes nothing the file does not hold. A parameter
        name no layer takes is refused, as is a ``meta/`` name that is no
        stored field. Any disagreement raises DataError."""
        tensors = nn.read_checkpoint(path)
        meta = {k: v for k, v in tensors.items() if k.startswith("meta/")}
        params = {k: v.astype(np.float64)
                  for k, v in tensors.items() if not k.startswith("meta/")}
        cfg = _config_from_meta(meta, path)
        try:
            model = cls(cfg, params)
            unexpected = sorted(params.keys() - model.store.params.keys())
            if unexpected:
                raise DataError(f"unexpected parameters {unexpected}")
        except DataError as e:
            raise DataError(f"{path}: checkpoint/config mismatch: {e}") from e
        return model


# Training settings a checkpoint does not record; every other ModelConfig
# field is stored as a ``meta/<name>`` tensor.
_UNSTORED_FIELDS = ("seed", "lr", "train_steps", "batch_size")


def _stored_fields(cls) -> list:
    return [f for f in fields(cls) if f.name not in _UNSTORED_FIELDS]


def _config_to_meta(cfg: ModelConfig) -> dict[str, np.ndarray]:
    """The architecture as float32 tensors, one ``meta/<name>`` per stored
    field and no other: a tuple field as a vector, an int field as a
    scalar, ``fusion_mode`` as its code. The cross-attention schedule is
    not among them: the ``fusion.block{i}.xattn.*`` parameter names carry it."""
    meta = {}
    for f in _stored_fields(type(cfg)):
        value = getattr(cfg, f.name)
        if f.name == "fusion_mode":
            value = FUSION_MODES.index(value)
        meta[f"meta/{f.name}"] = np.asarray(value, dtype=np.float32)
    return meta


def _read_meta(meta: dict, name: str, default, path):
    """The value of ``meta/<name>`` for a field whose default is ``default``;
    a missing, misshapen or out-of-range tensor raises DataError."""
    key = f"meta/{name}"
    if key not in meta:
        raise DataError(f"{path}: checkpoint missing {key}")
    t = meta[key]
    rank = 1 if isinstance(default, tuple) else 0
    if t.ndim != rank:
        raise DataError(f"{path}: {key} has rank {t.ndim}, expected {rank}")
    # read_checkpoint has refused a NaN or an infinity
    if not np.all(t == np.round(t)):
        raise DataError(f"{path}: {key} must hold integers, got {t.tolist()}")
    if rank:
        return tuple(int(x) for x in t)
    value = int(t)
    if name == "fusion_mode":
        if value not in range(len(FUSION_MODES)):
            raise DataError(f"{path}: {key} code {value} is out of range")
        return FUSION_MODES[value]
    return value


def _config_from_meta(meta: dict, path) -> ModelConfig:
    """The validated ModelConfig a checkpoint's ``meta/`` tensors record.
    Nothing is sized by it here: ``AVQAModel.load`` checks it against the
    file's arrays while it builds the model. A ``meta/`` name that is no
    stored field raises DataError, as an unknown parameter name does."""
    stored = _stored_fields(ModelConfig)
    unknown = sorted(meta.keys() - {f"meta/{f.name}" for f in stored})
    if unknown:
        raise DataError(f"{path}: unknown architecture metadata {unknown}")
    cfg = ModelConfig(**{f.name: _read_meta(meta, f.name, f.default, path)
                         for f in stored})
    try:
        cfg.validate()
    except ValidationError as e:
        raise DataError(f"{path}: invalid architecture metadata: {e}") from e
    return cfg


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    history: list[tuple[int, float]] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.history[-1][1] if self.history else float("nan")


def train_model(
    model: AVQAModel,
    samples: list[SequenceFeatures],
    targets01: np.ndarray,
) -> TrainResult:
    """MSE training of sigmoid output against MOS normalized to [0, 1].

    One step is one Adam update over a shuffled mini-batch; the shuffle
    order comes from a dedicated seeded generator, so identical calls
    produce bit-identical parameters. Steps, batch size, seed and learning
    rate come from ``model.cfg``.
    """
    cfg = model.cfg
    targets01 = np.asarray(targets01, dtype=np.float64)
    if len(samples) == 0:
        raise ValidationError("empty training set")
    if len(samples) != len(targets01):
        raise ValidationError(
            f"{len(samples)} samples vs {len(targets01)} targets"
        )
    if np.any((targets01 < 0) | (targets01 > 1)):
        raise ValidationError("targets must be normalized to [0, 1]")

    rng = np.random.default_rng(cfg.seed)
    state = nn.adam_init(model.store, lr=cfg.lr)
    order: list[int] = []
    result = TrainResult()
    for step in range(1, cfg.train_steps + 1):
        while len(order) < cfg.batch_size:
            order = order + list(rng.permutation(len(samples)))
        batch, order = order[:cfg.batch_size], order[cfg.batch_size:]
        model.store.zero_grads()
        loss = 0.0
        for i in batch:
            s = model.forward(samples[i])
            err = s - targets01[i]
            loss += err * err
            model.backward(2.0 * err / len(batch))
        loss /= len(batch)
        nn.adam_step(model.store, state)
        result.history.append((step, loss))
    return result
