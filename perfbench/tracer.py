"""Outside-in span tracer for the avq360 layers.

The tracer wraps public functions of the ``avq360`` modules from outside
the package: no source file is edited. Each wrapped function is rebound
in every ``avq360.*`` namespace that holds the same function object, so
names imported with ``from .x import f`` are traced too. Spans (name,
parent, start, end) are kept in memory; ``uninstall`` restores every
original binding.

A listed function that does not exist in the traced commit is recorded
as absent and reports zero calls.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import re
import sys
import time

PACKAGE = "avq360"

# (module, attribute path) of every traced function, in report order.
LAYER_FUNCTIONS = (
    ("nn", (
        "conv2d_forward", "conv2d_backward", "maxpool2_forward", "maxpool2_backward",
        "relu_forward", "relu_backward", "linear_forward", "linear_backward",
        "layer_norm_forward", "layer_norm_backward", "mha_forward", "mha_backward",
        "softmax", "global_mean_pool_forward", "global_mean_pool_backward",
        "adam_step", "read_checkpoint", "write_checkpoint",
    )),
    ("model", (
        "preprocess_sequence", "video_input", "audio_input", "AVQAModel.forward",
        "AVQAModel.backward", "AVQAModel.load", "train_model",
    )),
    ("audiofe", ("stft_magnitude", "mel_filterbank", "log_mel", "resample_linear",
                 "write_features")),
    ("manifest", ("load_y4m", "load_wav", "downmix_mono", "load_scores_csv",
                  "load_manifest")),
    ("siti", ("sobel_magnitude", "spatial_information", "temporal_information")),
    ("erp", ("partition_erp", "cos_latitude_prior")),
    ("subjective", ("screen_subjects", "compute_mos", "write_mos_csv", "read_mos_csv")),
    ("hm", ("load_hm", "hm_stats")),
    ("metrics", ("evaluate_predictions", "logistic_fit")),
    ("config", ("load_config",)),
)

# CLI glue: the commands the workloads time. Only self time is reported.
CLI_COMMANDS = ("train", "evaluate", "predict", "process_scores", "siti",
                "hm_stats", "extract_features")

# The conv stages of the default model: 3 per latitude band (the 4 bands
# are summed) and 4 in the audio CNN.
CONV_LABELS = tuple(f"video-conv{i}" for i in range(3)) + tuple(
    f"audio-conv{i}" for i in range(4))
_CONV_NAME = re.compile(r"^(video)\.band\d+\.conv(\d+)\.w$|^(audio)\.cnn\.conv(\d+)\.w$")

CONV_SPAN = "nn.Conv2d"


def conv_label(param_name: str) -> str:
    """``video.band2.conv1.w`` -> ``video-conv1``; ``audio.cnn.conv3.w`` -> ``audio-conv3``."""
    m = _CONV_NAME.match(param_name)
    if not m:
        return "other"
    branch, idx = (m.group(1), m.group(2)) if m.group(1) else (m.group(3), m.group(4))
    return f"{branch}-conv{idx}"


def conv_flops(x_shape, w_shape, stride: int = 1, pad: int = 0) -> int:
    """Multiply-adds times two of a direct convolution: 2*N*Ho*Wo*O*C*kh*kw."""
    n, c, h, w = x_shape
    o, _, kh, kw = w_shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    return 2 * n * ho * wo * o * c * kh * kw


def per_layer_names() -> list[tuple[str, str, str]]:
    """(metric name, unit, better) of every per-layer metric, in report order."""
    out = []
    for mod, funcs in LAYER_FUNCTIONS:
        for f in funcs:
            out.append((f"{mod}.{f}.calls", "count", "lower"))
            out.append((f"{mod}.{f}.self_ms", "ms", "lower"))
    for cmd in CLI_COMMANDS:
        out.append((f"cli.cmd_{cmd}.self_ms", "ms", "lower"))
    for label in CONV_LABELS:
        out.append((f"{CONV_SPAN}.{label}.fwd_ms", "ms", "lower"))
        out.append((f"{CONV_SPAN}.{label}.bwd_ms", "ms", "lower"))
    out.append(("nn.conv2d_forward.gflop", "GFLOP", "lower"))
    out.append(("nn.conv2d_backward.gflop", "GFLOP", "lower"))
    out.append(("manifest.load_y4m.mb", "MB", "lower"))
    out.append(("manifest.load_wav.mb", "MB", "lower"))
    out.append(("model.preprocess_sequence.useful_frac", "fraction", "higher"))
    return out


class Tracer:
    """In-memory span recorder plus the bindings it installed."""

    def __init__(self):
        self.spans: list[list] = []      # [id, parent, name, t0, t1, label]
        self.counters: dict[str, float] = {}
        self.round_ids: list[list[str]] = [[]]   # preprocessed sequence ids per round
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._conv_names: dict[int, tuple[object, str]] = {}
        self._conv_flops: dict[int, int] = {}

    # -- recording -----------------------------------------------------------

    def span(self, name: str, fn, args, kwargs, label: str = ""):
        sid = len(self.spans)
        rec = [sid, self._stack[-1] if self._stack else -1, name, time.perf_counter(), 0.0, label]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def begin_round(self) -> None:
        """Starts a new round of calls, the unit ``useful_frac`` is taken over."""
        if self.round_ids[-1]:
            self.round_ids.append([])

    def call(self, name: str, fn, *args):
        """Root span around one top-level call (one CLI invocation).

        Per-call lookup tables are dropped first, so they hold only the
        models of the current call."""
        self._conv_names.clear()
        self._conv_flops.clear()
        return self.span(name, fn, args, {})

    # -- installation --------------------------------------------------------

    def _rebind_everywhere(self, orig, replacement) -> None:
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, replacement)

    def _set_on_class(self, cls, attr, replacement) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self) -> None:
        """Wrap every listed function of the importable avq360 package."""
        self.absent = []
        for modname, funcs in LAYER_FUNCTIONS:
            try:
                mod = importlib.import_module(f"{PACKAGE}.{modname}")
            except ImportError:
                self.absent.extend(f"{modname}.{f}" for f in funcs)
                continue
            for path in funcs:
                name = f"{modname}.{path}"
                if not self._install_one(mod, path, name):
                    self.absent.append(name)
        cli = importlib.import_module(f"{PACKAGE}.cli")
        for cmd in CLI_COMMANDS:
            if not self._install_one(cli, f"cmd_{cmd}", f"cli.cmd_{cmd}"):
                self.absent.append(f"cli.cmd_{cmd}")
        self._install_conv_hooks()

    def _install_one(self, mod, path: str, name: str) -> bool:
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            cls = getattr(mod, owner_name, None)
            if not isinstance(cls, type) or attr not in cls.__dict__:
                return False
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set_on_class(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            elif callable(raw):
                self._set_on_class(cls, attr, self._wrap(name, raw))
            else:
                return False
            return True
        orig = getattr(mod, attr, None)
        if not callable(orig):
            return False
        self._rebind_everywhere(orig, self._wrap(name, orig))
        return True

    def _wrap(self, name: str, fn):
        probe = _PROBES.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = tracer.span(name, fn, args, kwargs)
            if probe is not None:
                try:
                    probe(tracer, args, kwargs, result)
                except Exception:  # a probe must never break the traced program
                    tracer.count("probe_errors", 1)
            return result

        return traced

    def _install_conv_hooks(self) -> None:
        """Span every nn.Conv2d forward/backward, labelled by the name its
        weight is registered under in the model's ParamStore.params."""
        nn = sys.modules.get(f"{PACKAGE}.nn")
        model = sys.modules.get(f"{PACKAGE}.model")
        conv_cls = getattr(nn, "Conv2d", None)
        model_cls = getattr(model, "AVQAModel", None)
        if not isinstance(conv_cls, type) or not isinstance(model_cls, type):
            self.absent.append(CONV_SPAN)
            return
        tracer = self
        orig_init = model_cls.__dict__["__init__"]

        @functools.wraps(orig_init)
        def init(net, *args, **kwargs):
            orig_init(net, *args, **kwargs)
            params = getattr(getattr(net, "store", None), "params", {})
            for pname, arr in params.items():
                tracer._conv_names[id(arr)] = (arr, pname)

        self._set_on_class(model_cls, "__init__", init)
        for attr, suffix in (("forward", "fwd"), ("backward", "bwd")):
            if attr not in conv_cls.__dict__:
                self.absent.append(f"{CONV_SPAN}.{attr}")
                continue
            self._set_on_class(conv_cls, attr, self._conv_wrapper(conv_cls.__dict__[attr], suffix))

    def _conv_wrapper(self, fn, suffix: str):
        tracer = self

        @functools.wraps(fn)
        def traced(conv, *args, **kwargs):
            entry = tracer._conv_names.get(id(getattr(conv, "w", None)))
            label = conv_label(entry[1]) if entry else "other"
            return tracer.span(CONV_SPAN, fn, (conv,) + args, kwargs, f"{label}.{suffix}")

        return traced

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()
        self._conv_names.clear()

    # -- aggregation ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span: its duration minus its children's."""
        child = [0.0] * len(self.spans)
        for sid, parent, _, t0, t1, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [(s[4] - s[3]) - child[s[0]] for s in self.spans]

    def summary(self) -> dict[str, float]:
        """Per-layer totals over every recorded span (ms, counts, GFLOP, MB)."""
        out = {name: 0.0 for name, _, _ in per_layer_names()}
        for (sid, parent, name, t0, t1, label), self_s in zip(self.spans, self.self_times()):
            if name == CONV_SPAN:
                key = f"{CONV_SPAN}.{label}_ms"
                if key in out:
                    out[key] += 1e3 * (t1 - t0)
                continue
            if f"{name}.calls" in out:
                out[f"{name}.calls"] += 1
            if f"{name}.self_ms" in out:
                out[f"{name}.self_ms"] += 1e3 * self_s
        out["nn.conv2d_forward.gflop"] = self.counters.get("nn.conv2d_forward.flop", 0.0) / 1e9
        out["nn.conv2d_backward.gflop"] = self.counters.get("nn.conv2d_backward.flop", 0.0) / 1e9
        out["manifest.load_y4m.mb"] = self.counters.get("manifest.load_y4m.bytes", 0.0) / 1e6
        out["manifest.load_wav.mb"] = self.counters.get("manifest.load_wav.bytes", 0.0) / 1e6
        rounds = [ids for ids in self.round_ids if ids]
        out["model.preprocess_sequence.useful_frac"] = (
            sum(len(set(ids)) / len(ids) for ids in rounds) / len(rounds) if rounds else 0.0)
        return out

    def write(self, path) -> None:
        """Spans as JSON lines: id, parent, name, start_s, end_s, label."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


# -- per-function probes (count work where it happens) ----------------------
# A probe runs after the traced call with its arguments and result.

def _file_bytes(key):
    def probe(tracer, args, kwargs, result):
        tracer.count(key, os.path.getsize(args[0] if args else kwargs["path"]))
    return probe


def _conv_forward_flops(tracer, args, kwargs, result):
    x, w = args[0], args[1]
    stride = kwargs.get("stride", args[3] if len(args) > 3 else 1)
    pad = kwargs.get("pad", args[4] if len(args) > 4 else 0)
    flops = conv_flops(x.shape, w.shape, stride, pad)
    tracer.count("nn.conv2d_forward.flop", flops)
    # the backward of this forward receives the cache object
    tracer._conv_flops[id(result[1])] = flops


def _conv_backward_flops(tracer, args, kwargs, result):
    cache = args[1] if len(args) > 1 else kwargs["cache"]
    tracer.count("nn.conv2d_backward.flop", 2 * tracer._conv_flops.pop(id(cache)))


def _sequence_id(tracer, args, kwargs, result):
    tracer.round_ids[-1].append(args[3] if len(args) > 3 else kwargs.get("sequence_id", ""))


_PROBES = {
    "manifest.load_y4m": _file_bytes("manifest.load_y4m.bytes"),
    "manifest.load_wav": _file_bytes("manifest.load_wav.bytes"),
    "nn.conv2d_forward": _conv_forward_flops,
    "nn.conv2d_backward": _conv_backward_flops,
    "model.preprocess_sequence": _sequence_id,
}
