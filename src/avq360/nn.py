"""Minimal deterministic neural-net core.

A fixed op set (conv, pooling, linear, relu, layer norm, softmax,
multi-head attention) with forward passes and hand-derived analytic
backward passes, plus bias-corrected Adam and a binary checkpoint
format. There is no taped autodiff: every gradient is written out
explicitly so it can be verified op-by-op against central finite
differences, which the test suite does at float64.

Conventions: tensors are plain float64 numpy arrays; conv inputs are
(N, C, H, W); token matrices are (T, d). Finite checks are always on,
with no switch: the conv, max-pool, linear, layer-norm, softmax and
attention forwards, the conv and attention backwards and Adam (on each
gradient) raise NumericError when their output holds NaN/Inf. The layer
settings are fixed constants: 3x3 convs with stride 1 and zero pad 1,
layer-norm epsilon LN_EPS, softmax over the last axis, and Adam with
ADAM_BETA1, ADAM_BETA2 and ADAM_EPS.

Conv is im2col in NCHW order (Chellapilla, Puri & Simard, 2006): the
input is copied once into a zero-bordered array, and one strided window
view of it in (N, C, kh, kw, Ho, Wo) order is copied into the column
tensor (N, C*kh*kw, Ho*Wo), so one batched matmul with the (O, C*kh*kw)
kernel matrix yields (N, O, Ho*Wo) with no transpose, and its cache
holds those columns. ``conv2d_backward(..., need_gx=False)`` skips the
input gradient and returns gx=None, for a conv whose input is data. Max
pooling takes the max of each pair of columns, then of each pair of
rows, so every window's max is max(max(x00, x01), max(x10, x11)). It
caches its input and output, not an index; backward routes each output
gradient to the first maximum of its 2x2 window in raster order (0,0),
(0,1), (1,0), (1,1).

The layer classes at the end own their parameters but no activations:
like the functional ops, their ``forward`` returns ``(y, cache)`` and
their ``backward`` takes that cache back, so any number of forward
passes can be in flight at once. They re-raise an op's NumericError with
their parameters' path in front, e.g. ``audio.cnn.conv0: conv2d:
non-finite values detected``; the functional ops name only themselves.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import DataError, NumericError, ValidationError, replaced_when_written

LN_EPS = 1e-5
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _check_finite(name: str, *arrays) -> None:
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise NumericError(f"{name}: non-finite values detected")


def kaiming_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    """U(-b, b) with b = sqrt(6/fan_in) (relu gain)."""
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


# ---------------------------------------------------------------------------
# Functional ops: each forward returns (y, cache); backward consumes cache.
# ---------------------------------------------------------------------------

def conv2d_forward(x, w, b=None, stride: int = 1, pad: int = 0):
    """Cross-correlation of x (N,C,H,W) with kernels w (O,C,kh,kw).

    Zero padding; output spatial size floor((H+2p-kh)/s)+1. With pad > 0
    the input is copied once into a zero-bordered array. The im2col
    matrix is the copy of one (N, C, kh, kw, Ho, Wo) window view of it,
    kept in NCHW order, one (C*kh*kw, Ho*Wo) column block per sample, so
    y = w.reshape(O, -1) @ cols is already (N, O, Ho, Wo). The cache
    holds those columns, w, whether there was a bias, the padded input
    shape, stride and pad.
    """
    x = np.asarray(x)
    n, c, h, wd = x.shape
    o, c2, kh, kw = w.shape
    if c != c2:
        raise ValidationError(f"conv2d: {c} input channels vs kernel expecting {c2}")
    if stride < 1 or pad < 0:
        raise ValidationError("conv2d: stride must be >= 1 and pad >= 0")
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd + 2 * pad - kw) // stride + 1
    if ho < 1 or wo < 1:
        raise ValidationError(
            f"conv2d: no output positions for input {h}x{wd}, kernel {kh}x{kw}, pad {pad}"
        )
    xp = x
    if pad:
        xp = np.zeros((n, c, h + 2 * pad, wd + 2 * pad), dtype=x.dtype)
        xp[:, :, pad : pad + h, pad : pad + wd] = x
    sn, sc, sh, sw = xp.strides
    win = as_strided(xp, (n, c, kh, kw, ho, wo),
                     (sn, sc, sh, sw, stride * sh, stride * sw), writeable=False)
    cols = win.reshape(n, c * kh * kw, ho * wo)  # copies the overlapping windows
    y = w.reshape(o, -1) @ cols
    if b is not None:
        y += b[:, None]
    y = y.reshape(n, o, ho, wo)
    _check_finite("conv2d", y)
    return y, (cols, w, b is not None, xp.shape, stride, pad)


def conv2d_backward(gy, cache, need_gx: bool = True):
    """Returns (gx, gw, gb); gb is None when forward had no bias.

    With need_gx=False the input gradient is not computed and gx is None:
    for a layer whose input is data, only gw and gb are wanted.
    """
    cols, w, has_bias, xp_shape, stride, pad = cache
    n, o, ho, wo = gy.shape
    _, c, kh, kw = w.shape
    gym = gy.reshape(n, o, ho * wo)
    gw = (gym @ cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    gb = gym.sum(axis=(0, 2)) if has_bias else None
    if not need_gx:
        _check_finite("conv2d.backward", gw)
        return None, gw, gb
    # col2im: scatter-add each kernel tap's (N, C, Ho, Wo) slice back
    gcols = (w.reshape(o, -1).T @ gym).reshape(n, c, kh, kw, ho, wo)
    gxp = np.zeros(xp_shape, dtype=gcols.dtype)
    for i in range(kh):
        for j in range(kw):
            gxp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += gcols[
                :, :, i, j
            ]
    gx = gxp[:, :, pad : xp_shape[2] - pad, pad : xp_shape[3] - pad] if pad else gxp
    _check_finite("conv2d.backward", gx, gw)
    return gx, gw, gb


def maxpool2_forward(x):
    """2x2 stride-2 max pooling; H and W must be even.

    y pairs the columns first, then the rows of the result, so each
    window gives max(max(x00, x01), max(x10, x11)): the same pairs, and so
    the same pick between +0.0 and -0.0, as a max of the four stride-2
    views taken in raster order. The cache is (x, y), a reference to x,
    not a copy, so x must not be written to before the backward; no
    argmax index is built.
    """
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ValidationError(f"maxpool2: spatial dims must be even, got {h}x{w}")
    cols = np.maximum(x[..., 0::2], x[..., 1::2])
    y = np.maximum(cols[:, :, 0::2], cols[:, :, 1::2])
    _check_finite("maxpool2", y)
    return y, (x, y)


def maxpool2_backward(gy, cache):
    """Routes each gy entry to one maximum of its window: on ties, the
    first in raster order (0,0), (0,1), (1,0), (1,1). Each position is
    tested against the forward's y while its window is still free."""
    x, y = cache
    gx = np.empty(x.shape, dtype=gy.dtype)
    free = np.ones(y.shape, dtype=bool)
    for i in (0, 1):
        for j in (0, 1):
            hit = x[:, :, i::2, j::2] == y
            hit &= free
            free ^= hit
            np.multiply(gy, hit, out=gx[:, :, i::2, j::2])
    return gx


def linear_forward(x, w, b=None):
    """y = x @ w + b for x (..., d_in), w (d_in, d_out)."""
    if x.shape[-1] != w.shape[0]:
        raise ValidationError(f"linear: input dim {x.shape[-1]} vs weight {w.shape[0]}")
    y = x @ w
    if b is not None:
        y = y + b
    _check_finite("linear", y)
    return y, (x, w, b is not None)


def linear_backward(gy, cache):
    x, w, has_bias = cache
    xf = x.reshape(-1, x.shape[-1])
    gyf = gy.reshape(-1, gy.shape[-1])
    gw = xf.T @ gyf
    gb = gyf.sum(axis=0) if has_bias else None
    gx = (gyf @ w.T).reshape(x.shape)
    return gx, gw, gb


def relu_forward(x):
    return np.maximum(x, 0.0), (x > 0.0)


def relu_backward(gy, cache):
    return gy * cache


def layer_norm_forward(x, gamma, beta):
    """Normalize over the last dimension (epsilon LN_EPS), then affine."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    y = xhat * gamma + beta
    _check_finite("layer_norm", y)
    return y, (xhat, inv, gamma)


def layer_norm_backward(gy, cache):
    xhat, inv, gamma = cache
    gxhat = gy * gamma
    axes = tuple(range(gy.ndim - 1))
    ggamma = (gy * xhat).sum(axis=axes)
    gbeta = gy.sum(axis=axes)
    gx = inv * (
        gxhat
        - gxhat.mean(axis=-1, keepdims=True)
        - xhat * (gxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return gx, ggamma, gbeta


def softmax(x):
    """Shift-invariant softmax over the last axis (row max subtracted
    before exp)."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)
    _check_finite("softmax", y)
    return y


def softmax_backward(gy, y):
    return y * (gy - (gy * y).sum(axis=-1, keepdims=True))


def sigmoid(x):
    x = np.asarray(x)
    out = np.empty_like(x, dtype=np.result_type(x, np.float64))
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def global_mean_pool_forward(x):
    """(N, C, H, W) -> (N, C) spatial mean."""
    n, c, h, w = x.shape
    return x.mean(axis=(2, 3)), (n, c, h, w)


def global_mean_pool_backward(gy, cache):
    n, c, h, w = cache
    return np.broadcast_to(gy[:, :, None, None], (n, c, h, w)) / (h * w)


def mha_forward(q_in, kv_in, params: dict, heads: int):
    """Multi-head scaled dot-product attention, no masking.

    q_in is (Tq, d), kv_in is (Tk, d); self-attention passes the same
    array for both. Per head: softmax(Q K^T / sqrt(d_head)) V, heads
    concatenated, then the output projection.
    """
    d = q_in.shape[-1]
    if d % heads:
        raise ValidationError(f"model dim {d} not divisible by {heads} heads")
    if kv_in.shape[-1] != d:
        raise ValidationError(
            f"mha: query dim {d} vs key/value dim {kv_in.shape[-1]}"
        )
    hd = d // heads
    tq, tk = q_in.shape[0], kv_in.shape[0]
    q = q_in @ params["wq"] + params["bq"]
    k = kv_in @ params["wk"] + params["bk"]
    v = kv_in @ params["wv"] + params["bv"]
    qh = q.reshape(tq, heads, hd).transpose(1, 0, 2)
    kh = k.reshape(tk, heads, hd).transpose(1, 0, 2)
    vh = v.reshape(tk, heads, hd).transpose(1, 0, 2)
    scale = 1.0 / np.sqrt(hd)
    scores = (qh @ kh.transpose(0, 2, 1)) * scale
    attn = softmax(scores)
    oh = attn @ vh
    o = oh.transpose(1, 0, 2).reshape(tq, d)
    y = o @ params["wo"] + params["bo"]
    _check_finite("mha", y)
    cache = (q_in, kv_in, qh, kh, vh, attn, o, params, heads, scale)
    return y, cache


def mha_backward(gy, cache):
    """Returns (gq_in, gkv_in, param_grads dict)."""
    q_in, kv_in, qh, kh, vh, attn, o, params, heads, scale = cache
    tq, d = q_in.shape
    tk = kv_in.shape[0]
    hd = d // heads
    grads = {}
    grads["wo"] = o.T @ gy
    grads["bo"] = gy.sum(axis=0)
    go = gy @ params["wo"].T
    goh = go.reshape(tq, heads, hd).transpose(1, 0, 2)
    gattn = goh @ vh.transpose(0, 2, 1)
    gvh = attn.transpose(0, 2, 1) @ goh
    gscores = softmax_backward(gattn, attn) * scale
    gqh = gscores @ kh
    gkh = gscores.transpose(0, 2, 1) @ qh
    gq = gqh.transpose(1, 0, 2).reshape(tq, d)
    gk = gkh.transpose(1, 0, 2).reshape(tk, d)
    gv = gvh.transpose(1, 0, 2).reshape(tk, d)
    grads["wq"] = q_in.T @ gq
    grads["bq"] = gq.sum(axis=0)
    grads["wk"] = kv_in.T @ gk
    grads["bk"] = gk.sum(axis=0)
    grads["wv"] = kv_in.T @ gv
    grads["bv"] = gv.sum(axis=0)
    gq_in = gq @ params["wq"].T
    gkv_in = gk @ params["wk"].T + gv @ params["wv"].T
    _check_finite("mha.backward", gq_in, gkv_in)
    return gq_in, gkv_in, grads


# ---------------------------------------------------------------------------
# Parameter store, Adam, checkpoints
# ---------------------------------------------------------------------------

class ParamStore:
    """Named parameters plus same-shaped gradient accumulators.

    Parameter arrays are owned by the store and shared by reference with
    the layers that created them; the optimizer updates them in place
    so those references stay valid.

    A store built from ``initial``, a mapping of names to float64 arrays,
    is strict: ``create`` takes ``initial[name]`` over by reference and
    calls no initializer, and a name ``initial`` lacks, or an array of
    another shape, raises DataError before anything is allocated. Such a
    store, a loaded checkpoint's, holds no gradients until it trains:
    ``zero_grads`` (or the first ``add_grad`` of a name) allocates the
    missing ones, so scoring never carries a zero copy of every parameter.
    """

    def __init__(self, initial: dict[str, np.ndarray] | None = None):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self._initial = initial

    def create(self, name: str, shape: tuple, init) -> np.ndarray:
        """Add parameter ``name`` of ``shape``: its initial array, or a
        float64 ``init(shape)`` for a store built without one."""
        if name in self.params:
            raise ValidationError(f"duplicate parameter name {name!r}")
        if self._initial is None:
            arr = np.array(init(shape), dtype=np.float64)
        elif name not in self._initial:
            raise DataError(f"checkpoint lacks parameter {name}")
        else:
            arr = self._initial[name]
            if arr.shape != shape:
                raise DataError(
                    f"shape mismatch for {name}: checkpoint {arr.shape} vs model {shape}"
                )
        self.params[name] = arr
        if self._initial is None:
            self.grads[name] = np.zeros_like(arr)
        return arr

    def param_names(self) -> list[str]:
        return sorted(self.params)

    def zero_grads(self) -> None:
        for name, p in self.params.items():
            if name in self.grads:
                self.grads[name][...] = 0.0
            else:
                self.grads[name] = np.zeros_like(p)

    def add_grad(self, name: str, g) -> None:
        if name not in self.grads:
            self.grads[name] = np.zeros_like(self.params[name])
        self.grads[name] += g


@dataclass
class AdamState:
    lr: float = 1e-3
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_init(store: ParamStore, lr: float = 1e-3) -> AdamState:
    state = AdamState(lr=lr)
    for name, p in store.params.items():
        state.m[name] = np.zeros_like(p)
        state.v[name] = np.zeros_like(p)
    return state


def adam_step(store: ParamStore, state: AdamState) -> None:
    """Standard bias-corrected Adam update, in place, fixed name order."""
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.step
    bc2 = 1.0 - ADAM_BETA2 ** state.step
    for name in store.param_names():
        if name not in store.grads:
            raise NumericError(f"missing gradient for parameter {name!r}")
        g = store.grads[name]
        _check_finite(f"adam_step[{name}]", g)
        m, v = state.m[name], state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        store.params[name] -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def write_tensor_record(f, array, dtype="<f4") -> None:
    """One tensor as u32 rank, u32 dims[], then its little-endian payload
    as ``dtype``, row-major. Checkpoints and feature dumps share this record."""
    arr = np.asarray(array, dtype=dtype)
    f.write(struct.pack(f"<{arr.ndim + 1}I", arr.ndim, *arr.shape))
    f.write(arr.tobytes())


# numpy's limit on the number of array dimensions
_MAX_RANK = 64


def read_tensor_record(data: bytes, pos: int, path, dtype="<f4") -> tuple[np.ndarray, int]:
    """The record write_tensor_record left at data[pos:] with a ``dtype``
    payload, and the offset just past it. A rank above _MAX_RANK is
    rejected before any dim is read."""
    raw, pos = _take(data, pos, 4, path)
    (rank,) = struct.unpack("<I", raw)
    if rank > _MAX_RANK:
        raise DataError(f"{path}: tensor rank {rank} at offset {pos - 4} exceeds {_MAX_RANK}")
    raw, pos = _take(data, pos, 4 * rank, path)
    dims = struct.unpack(f"<{rank}I", raw)
    raw, pos = _take(data, pos, np.dtype(dtype).itemsize * math.prod(dims), path)
    try:
        return np.frombuffer(raw, dtype=dtype).reshape(dims).copy(), pos
    except ValueError:  # an empty tensor whose other dims numpy cannot hold
        raise DataError(f"{path}: tensor shape {dims} is too large") from None


def _take(data: bytes, pos: int, nbytes: int, path) -> tuple[memoryview, int]:
    """data[pos:pos + nbytes] and the offset after it. The declared size is
    checked against the bytes left before anything is unpacked or allocated."""
    if nbytes > len(data) - pos:
        raise DataError(
            f"{path}: truncated or corrupt: declared size of {nbytes} bytes at "
            f"offset {pos} exceeds the {len(data) - pos} bytes left"
        )
    return memoryview(data)[pos : pos + nbytes], pos + nbytes


CHECKPOINT_MAGIC = b"AVQC"
CHECKPOINT_VERSION = 2
# payload width -> the dtype of every payload in the file
_PAYLOAD_DTYPES = {4: "<f4", 8: "<f8"}


class _Checksummed:
    """A binary file that keeps the ``zlib.crc32`` of the bytes written to it."""

    def __init__(self, f):
        self.f, self.crc = f, 0

    def write(self, data) -> None:
        self.crc = zlib.crc32(data, self.crc)
        self.f.write(data)


def write_checkpoint(path, tensors: dict, dtype="<f4") -> None:
    """``write_checkpoint_bytes`` into ``path``, replaced once complete."""
    with replaced_when_written(path) as f:
        write_checkpoint_bytes(f, tensors, dtype)


def write_checkpoint_bytes(f, tensors: dict, dtype="<f4") -> None:
    """Magic "AVQC", u32 version, u32 tensor count, u32 payload width (4
    for ``<f4``, 8 for ``<f8``, the ``dtype`` of every payload), then per
    tensor u32 name length, name bytes and a tensor record; then the u32
    ``zlib.crc32`` of every byte before it, written to the binary file
    ``f``. Names are written sorted."""
    out = _Checksummed(f)
    out.write(CHECKPOINT_MAGIC)
    out.write(struct.pack("<III", CHECKPOINT_VERSION, len(tensors), np.dtype(dtype).itemsize))
    for name in sorted(tensors):
        nb = name.encode("utf-8")
        out.write(struct.pack("<I", len(nb)) + nb)
        write_tensor_record(out, tensors[name], dtype)
    f.write(struct.pack("<I", out.crc))


def read_checkpoint(path) -> dict[str, np.ndarray]:
    """The tensors of a ``write_checkpoint`` file by name, float32 or
    float64 as its payload width says. Another version, a checksum that
    does not match, another payload width, a malformed file, a name that
    appears twice and a tensor that holds a NaN or an infinity are each a
    DataError naming the file."""
    data = Path(path).read_bytes()
    if data[:4] != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: bad magic, not an AVQC checkpoint")
    raw, pos = _take(data, 4, 4, path)
    (version,) = struct.unpack("<I", raw)
    if version != CHECKPOINT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    body = memoryview(data)[:-4]
    raw, pos = _take(body, pos, 8, path)
    if zlib.crc32(body) != struct.unpack_from("<I", data, len(body))[0]:
        raise DataError(f"{path}: checksum mismatch")
    count, width = struct.unpack("<II", raw)
    if width not in _PAYLOAD_DTYPES:
        raise DataError(f"{path}: payload width {width}, not 4 or 8")
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        raw, pos = _take(body, pos, 4, path)
        raw, pos = _take(body, pos, struct.unpack("<I", raw)[0], path)
        try:
            name = str(raw, "utf-8")
        except UnicodeDecodeError as e:
            raise DataError(f"{path}: tensor name is not UTF-8") from e
        if name in out:
            raise DataError(f"{path}: tensor {name!r} appears twice")
        out[name], pos = read_tensor_record(body, pos, path, _PAYLOAD_DTYPES[width])
        if not np.isfinite(out[name]).all():
            raise DataError(f"{path}: tensor {name!r} holds non-finite values")
    if pos != len(body):
        raise DataError(f"{path}: trailing bytes after last tensor")
    return out


# ---------------------------------------------------------------------------
# Layers: own their parameters via a ParamStore, never their activations.
# forward returns (y, cache); backward(gy, cache) accumulates the parameter
# gradients into the store and returns the input gradient.
# ---------------------------------------------------------------------------

class _Layer:
    """A layer whose parameters are stored under ``<_name>.<key>``."""

    def _run(self, op, *args):
        """op(*args), its NumericError re-raised with the layer's name in front."""
        try:
            return op(*args)
        except NumericError as e:
            raise NumericError(f"{self._name}: {e}") from e


class Conv2d(_Layer):
    """3x3 conv, stride 1, zero pad 1: the output keeps the input's H x W."""

    def __init__(self, store, name, in_channels, out_channels, rng):
        self._store, self._name = store, name
        self.w = store.create(f"{name}.w", (out_channels, in_channels, 3, 3),
                              lambda shape: kaiming_uniform(rng, shape, in_channels * 9))
        self.b = store.create(f"{name}.b", (out_channels,), np.zeros)

    def forward(self, x):
        return self._run(conv2d_forward, x, self.w, self.b, 1, 1)

    def backward(self, gy, cache, need_gx: bool = True):
        """Returns gx, or None when need_gx is False."""
        gx, gw, gb = self._run(conv2d_backward, gy, cache, need_gx)
        self._store.add_grad(f"{self._name}.w", gw)
        self._store.add_grad(f"{self._name}.b", gb)
        return gx


class Linear(_Layer):
    def __init__(self, store, name, d_in, d_out, rng):
        self._store, self._name = store, name
        self.w = store.create(f"{name}.w", (d_in, d_out),
                              lambda shape: kaiming_uniform(rng, shape, d_in))
        self.b = store.create(f"{name}.b", (d_out,), np.zeros)

    def forward(self, x):
        return self._run(linear_forward, x, self.w, self.b)

    def backward(self, gy, cache):
        gx, gw, gb = linear_backward(gy, cache)
        self._store.add_grad(f"{self._name}.w", gw)
        self._store.add_grad(f"{self._name}.b", gb)
        return gx


class LayerNorm(_Layer):
    def __init__(self, store, name, dim):
        self._store, self._name = store, name
        self.gamma = store.create(f"{name}.gamma", (dim,), np.ones)
        self.beta = store.create(f"{name}.beta", (dim,), np.zeros)

    def forward(self, x):
        return self._run(layer_norm_forward, x, self.gamma, self.beta)

    def backward(self, gy, cache):
        gx, ggamma, gbeta = layer_norm_backward(gy, cache)
        self._store.add_grad(f"{self._name}.gamma", ggamma)
        self._store.add_grad(f"{self._name}.beta", gbeta)
        return gx


class MultiHeadAttention(_Layer):
    def __init__(self, store, name, d_model, heads, rng):
        if d_model % heads:
            raise ValidationError(f"d_model {d_model} not divisible by heads {heads}")
        self.heads = heads
        self._store, self._name = store, name
        self.params = {}
        for key in ("wq", "wk", "wv", "wo"):
            self.params[key] = store.create(f"{name}.{key}", (d_model, d_model),
                                            lambda shape: kaiming_uniform(rng, shape, d_model))
        for key in ("bq", "bk", "bv", "bo"):
            self.params[key] = store.create(f"{name}.{key}", (d_model,), np.zeros)

    def forward(self, q_in, kv_in):
        return self._run(mha_forward, q_in, kv_in, self.params, self.heads)

    def backward(self, gy, cache):
        """Returns (gq_in, gkv_in)."""
        gq_in, gkv_in, grads = self._run(mha_backward, gy, cache)
        for key, g in grads.items():
            self._store.add_grad(f"{self._name}.{key}", g)
        return gq_in, gkv_in
