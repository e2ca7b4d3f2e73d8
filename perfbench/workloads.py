"""The three benchmark workloads: inputs, timed rounds and output checks.

Every workload is a directory of generated inputs (a pure function of the
benchmark seed) plus a *round*: a fixed list of CLI calls that the runner
repeats for the measured time. Outputs of the last round are checked
against independent oracles and against reference values stored in
``reference.json``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import re
import struct
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

FRAME_FPS = 8
AUDIO_RATE = 48000     # first-order ambisonics: 4 channels at 48 kHz
AUDIO_CHANNELS = 4


# ---------------------------------------------------------------------------
# Sizes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sizes:
    """Input sizes of one workload; ``tiny`` variants back the smoke tests."""

    n_seq: int
    width: int
    n_frames: int
    audio_s: tuple          # (shortest, longest) clip, seconds
    n_rated: int = 0        # rating-only sequences on top of the media ones
    n_subjects: int = 20
    hm_s: float = 0.0
    train_steps: int = 0    # train call of the round (fixture-train)
    predict_passes: int = 0  # predict round-robin passes (longclip-score)


SIZES = {
    "fixture-train": Sizes(n_seq=8, width=64, n_frames=8, audio_s=(1.0, 1.0),
                           train_steps=3),
    "longclip-score": Sizes(n_seq=12, width=512, n_frames=32, audio_s=(10.0, 30.0),
                            predict_passes=3),
    "erp-ingest": Sizes(n_seq=3, width=1024, n_frames=32, audio_s=(20.0, 20.0),
                        n_rated=597, n_subjects=58, hm_s=60.0),
}
TINY = {
    "fixture-train": Sizes(n_seq=8, width=64, n_frames=8, audio_s=(1.0, 1.0),
                           train_steps=1),
    "longclip-score": Sizes(n_seq=5, width=64, n_frames=8, audio_s=(2.0, 3.0),
                            predict_passes=1),
    "erp-ingest": Sizes(n_seq=2, width=64, n_frames=8, audio_s=(2.0, 2.0),
                        n_rated=100, n_subjects=58, hm_s=2.0),
}
WORKLOADS = tuple(SIZES)

# Rater ids of the planted inconsistent subject and the SSQ-flagged one.
PLANTED = "planted"
SSQ = "ssq"

_CONFIG = """\
manifest = manifest.json
media_root = media
scores = scores.csv
hm_root = hm
output_dir = out
"""


# ---------------------------------------------------------------------------
# Input generation (set-up)
# ---------------------------------------------------------------------------

def erp_frames(rng, n_frames: int, height: int, width: int, distortion: float,
               dynamic: bool) -> np.ndarray:
    """uint8 luma (T, H, W): two drifting sinusoid fields plus uniform noise."""
    x = np.arange(width) / width
    y = np.arange(height) / height
    fx, fy = rng.uniform(1.0, 4.0, size=2)
    ph = rng.uniform(0.0, 1.0, size=2)
    drift = 0.08 if dynamic else 0.0
    amp = int(8 + 40 * distortion)
    out = np.empty((n_frames, height, width), dtype=np.uint8)
    for t in range(n_frames):
        row = 56.0 * np.sin(2 * np.pi * (fx * x + ph[0] + drift * t))
        col = 56.0 * np.sin(2 * np.pi * (fy * y + ph[1] + 0.5 * drift * t))
        noise = rng.integers(-amp, amp + 1, size=(height, width), dtype=np.int16)
        out[t] = np.clip(128.0 + col[:, None] + row[None, :] + noise, 0, 255)
    return out


def write_pcm_wav(path: Path, rng, seconds: float, rate: int, channels: int,
                  distortion: float) -> None:
    """16-bit PCM WAV: one tone per channel plus uniform noise whose level
    follows the distortion."""
    n = int(round(seconds * rate))
    noise = int(32767 * 0.3 * distortion)
    pcm = np.empty((n, channels), dtype="<i2")
    for c in range(channels):
        cycles = np.mod(np.arange(n) * (440.0 * 2 ** (c / 4) / rate), 1.0)
        tone = np.sin((2 * np.pi * cycles).astype(np.float32))
        pcm[:, c] = 16000.0 * tone + rng.integers(-noise, noise + 1, size=n)
    body = pcm.tobytes()
    header = (b"RIFF" + struct.pack("<I", 36 + len(body)) + b"WAVE"
              + b"fmt " + struct.pack("<IHHIIHH", 16, 1, channels, rate, 2 * rate * channels,
                                      2 * channels, 16)
              + b"data" + struct.pack("<I", len(body)))
    Path(path).write_bytes(header + body)


def write_media_corpus(root: Path, seed: int, sizes: Sizes, salt: int,
                       train_ids: int = 0) -> None:
    """ERP video + multichannel audio (+ head movement) per sequence, a
    manifest (the first ``train_ids`` sequences on the train side) and a
    rating table.

    Clip lengths are spread evenly over ``sizes.audio_s`` in a fixed order,
    so every seed gives the same amount of work in the same shapes."""
    from avq360 import synthetic
    from avq360.manifest import (SCENES, FrameSequence, SequenceManifestEntry,
                                 write_manifest, write_y4m)

    rng = np.random.default_rng([seed, salt])
    (root / "media").mkdir(parents=True, exist_ok=True)
    (root / "hm").mkdir(parents=True, exist_ok=True)
    height = sizes.width // 2
    durations = np.round(np.linspace(*sizes.audio_s, sizes.n_seq), 2)
    entries, targets = [], {}
    for i in range(sizes.n_seq):
        seq_id = f"seq{i:03d}"
        distortion = i / max(sizes.n_seq - 1, 1)
        dynamic = bool(i % 2)
        frames = erp_frames(rng, sizes.n_frames, height, sizes.width, distortion, dynamic)
        write_y4m(FrameSequence(frames=frames, fps=FRAME_FPS, fps_rational=(FRAME_FPS, 1)),
                  root / "media" / f"{seq_id}.y4m")
        write_pcm_wav(root / "media" / f"{seq_id}.wav", rng, float(durations[i]),
                      AUDIO_RATE, AUDIO_CHANNELS, distortion)
        if sizes.hm_s:
            synthetic.write_hm_csv(
                synthetic.make_hm_rows(rng, "dynamic" if dynamic else "static", sizes.hm_s),
                root / "hm" / f"{seq_id}.csv")
        entries.append(SequenceManifestEntry(
            sequence_id=seq_id, width=sizes.width, height=height, fps=FRAME_FPS,
            duration_s=float(durations[i]), scene=SCENES[i % len(SCENES)], device="Synthetic",
            audio_channels=AUDIO_CHANNELS, audio_sample_rate=AUDIO_RATE,
            motion="dynamic" if dynamic else "static",
            split="train" if i < train_ids else "test"))
        targets[seq_id] = 85.0 - 60.0 * distortion
    for j in range(sizes.n_rated):
        targets[f"rated{j:04d}"] = float(rng.uniform(15.0, 85.0))
    write_manifest(entries, root / "manifest.json")
    write_ratings(root, targets, sizes, int(rng.integers(2**31)))
    (root / "config.txt").write_text(_CONFIG, encoding="utf-8")


def write_ratings(root: Path, targets: dict, sizes: Sizes, seed: int) -> None:
    """scores.csv around per-sequence targets. Consistent raters use bounded
    noise inside the screening thresholds. With rating-only sequences there
    are two more raters: a planted one that mirrors every score around 50,
    so that screening rejects it, and an SSQ one whose records are all
    flagged."""
    from avq360 import synthetic
    from avq360.manifest import write_scores_csv

    records = synthetic.make_rating_table(
        targets, n_consistent=sizes.n_subjects, planted_subject=PLANTED if sizes.n_rated else None,
        ssq_subject=SSQ if sizes.n_rated else None, seed=seed)
    write_scores_csv(records, root / "scores.csv")


def model_scores(root: Path, ids: list) -> list:
    """Scores of the workload's checkpoint, computed through the library."""
    from avq360 import model
    from avq360.manifest import load_wav, load_y4m

    net = model.AVQAModel.load(root / "out" / "model.avqc")
    return [net.predict(model.preprocess_sequence(
        load_y4m(root / "media" / f"{s}.y4m"), load_wav(root / "media" / f"{s}.wav"), net.cfg))
        for s in ids]


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------

@dataclass
class Call:
    kind: str            # CLI command name
    argv: list


@dataclass
class Workload:
    name: str
    root: Path
    sizes: Sizes
    seed: int
    ids: list = field(default_factory=list)

    @property
    def config(self) -> str:
        return str(self.root / "config.txt")

    def round_calls(self) -> list[Call]:
        cfg = ["--config", self.config]
        if self.name == "fixture-train":
            return [Call("train", ["train", *cfg, "--on", "all",
                                   "--set", f"train_steps={self.sizes.train_steps}"])]
        if self.name == "longclip-score":
            calls = [Call("evaluate", ["evaluate", *cfg, "--on", "all"])]
            for _ in range(self.sizes.predict_passes):
                calls += [Call("predict", ["predict", *cfg, "--sequence", s]) for s in self.ids]
            return calls
        return [Call(kind, [kind, *cfg])
                for kind in ("process-scores", "siti", "hm-stats", "extract-features")]

    def luma_mpix(self) -> float:
        return self.sizes.n_seq * self.sizes.n_frames * self.sizes.width * (self.sizes.width // 2) / 1e6

    def samples_per_train(self) -> int:
        return self.sizes.train_steps * 8   # default batch_size


def workload(name: str, root: Path, seed: int, tiny: bool = False) -> Workload:
    """The workload ``name`` with its inputs under ``root``."""
    sizes = (TINY if tiny else SIZES)[name]
    # synth-fixture names its sequences seq00.., the media corpus seq000..
    width = 2 if name == "fixture-train" else 3
    return Workload(name, root, sizes, seed, [f"seq{i:0{width}d}" for i in range(sizes.n_seq)])


def prepare(name: str, root: Path, seed: int, tiny: bool = False) -> Workload:
    """Generate the inputs of ``name`` under ``root`` and run the stages the
    timed round depends on. Runs in the set-up process."""
    from avq360 import cli

    root.mkdir(parents=True, exist_ok=True)
    wl = workload(name, root, seed, tiny)
    sizes = wl.sizes
    if name == "fixture-train":
        # synth-fixture rejects seeds whose rating table misses its designed
        # screening outcome; the next candidate is seed + 10007.
        for attempt in range(20):
            rc, _ = run_cli(cli.main, ["synth-fixture", "--out", str(root),
                                       "--seed", str(seed + 10007 * attempt)])
            if rc == 0:
                break
        _require(rc == 0, "synth-fixture found no usable fixture seed")
        rc, out = run_cli(cli.main, ["process-scores", "--config", wl.config])
        _require(rc == 0, f"process-scores failed: {out}")
    elif name == "longclip-score":
        # The checkpoint is the seeded initial model (0 training steps):
        # scoring costs the same for any weights. The ratings are then
        # redrawn to rank the sequences as the checkpoint scores them, as
        # they would for a trained model. (On scores unrelated to the MOS
        # the logistic fit of `evaluate` can collapse to a constant and the
        # command exits 2; see test_perfbench.py.)
        write_media_corpus(root, seed, sizes, salt=1, train_ids=1)
        stages = (["process-scores", "--config", wl.config],
                  ["train", "--config", wl.config, "--on", "train", "--set", "train_steps=0"])
        for argv in stages:
            rc, out = run_cli(cli.main, argv)
            _require(rc == 0, f"{argv[0]} failed: {out}")
        ranks = np.argsort(np.argsort(model_scores(root, wl.ids)))
        write_ratings(root, {s: 20.0 + 60.0 * r / (len(ranks) - 1) for s, r in zip(wl.ids, ranks)},
                      sizes, seed)
        rc, out = run_cli(cli.main, stages[0])
        _require(rc == 0, f"process-scores failed: {out}")
    else:
        write_media_corpus(root, seed, sizes, salt=2)
    return wl


def run_cli(main, argv) -> tuple[int, str]:
    """One in-process CLI call with stdout and stderr captured. An exception
    that escapes the CLI is a failed call (exit code 1), not a crash of
    the benchmark."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            rc = main(argv)
        except Exception:
            traceback.print_exc()
            rc = 1
    return rc, buf.getvalue()


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise RuntimeError(message)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

@dataclass
class CheckLog:
    """Named check outcomes; a failed check marks one CLI call as failed."""

    failures: list = field(default_factory=list)
    passed: int = 0
    notes: list = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> bool:
        if ok:
            self.passed += 1
        else:
            self.failures.append(what)
        return ok

    def close(self, a: float, b: float, tol: float, what: str) -> bool:
        return self.expect(math.isfinite(a) and abs(a - b) <= tol,
                           f"{what}: {a!r} vs expected {b!r} (tol {tol:g})")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def check_call(wl: Workload, call: Call, rc: int, out: str, log: CheckLog) -> dict:
    """Checks one call's exit code and stdout; returns the facts it printed."""
    facts = {}
    if not log.expect(rc == 0, f"{call.kind} exit code {rc}: {out.strip()[-300:]}"):
        return facts
    if call.kind == "train":
        history = read_csv(wl.root / "out" / "train_log.csv")
        log.expect(len(history) == wl.sizes.train_steps,
                   f"train_log.csv has {len(history)} steps, expected {wl.sizes.train_steps}")
        m = re.search(r"final batch loss: ([-+0-9.eE]+)", out)
        if log.expect(m is not None and history, "train printed no final loss"):
            facts["final_loss"] = float(history[-1]["loss"])
            log.close(float(m.group(1)), facts["final_loss"], 1e-6, "printed final loss")
        facts["checkpoint_sha256"] = sha256_file(wl.root / "out" / "model.avqc")
    elif call.kind == "predict":
        m = re.search(r"^(\S+): ([-+0-9.]+)$", out, re.M)
        if log.expect(m is not None and m.group(1) == call.argv[-1],
                      f"predict printed no score for {call.argv[-1]}"):
            facts["score"] = (m.group(1), float(m.group(2)))
    elif call.kind == "process-scores":
        facts["summary"] = [ln for ln in out.splitlines()
                            if ln.startswith(("records:", "subjects:"))]
    return facts


def _is_ssq(row: dict) -> bool:
    return row["ssq_flag"].strip().lower() in ("1", "true")


def expected_rejections(rows: list[dict]) -> set:
    """The screening rule recomputed from the rating table: per sequence,
    k = 2 if the kurtosis m4/m2^2 lies in [2, 4], else sqrt(20); a score
    above mean + k*std counts to P, below mean - k*std to Q (sample std);
    a rater is rejected iff (P+Q)/N > 0.05 and |P-Q|/(P+Q) < 0.3."""
    by_seq: dict = {}
    for row in rows:
        by_seq.setdefault(row["sequence_id"], []).append(float(row["score"]))
    bounds = {}
    for seq, scores in by_seq.items():
        x = np.asarray(scores)
        d = x - x.mean()
        m2 = (d * d).mean()
        kurt = (d ** 4).mean() / (m2 * m2) if m2 > 0 else 0.0
        k = 2.0 if 2.0 <= kurt <= 4.0 else math.sqrt(20.0)
        std = x.std(ddof=1)
        bounds[seq] = (x.mean() + k * std, x.mean() - k * std)
    pqn: dict = {}
    for row in rows:
        hi, lo = bounds[row["sequence_id"]]
        c = pqn.setdefault(row["subject_id"], [0, 0, 0])
        score = float(row["score"])
        c[0] += score > hi
        c[1] += score < lo
        c[2] += 1
    return {sid for sid, (p, q, n) in pqn.items()
            if p + q and (p + q) / n > 0.05 and abs(p - q) / (p + q) < 0.3}


def expected_mos(rows: list[dict]) -> dict:
    """Per-sequence (mos, sample std, n, ci95) of the given ratings."""
    by_seq: dict = {}
    for row in rows:
        by_seq.setdefault(row["sequence_id"], []).append(float(row["score"]))
    out = {}
    for seq, scores in by_seq.items():
        x = np.asarray(scores)
        std = float(x.std(ddof=1)) if len(x) > 1 else 0.0
        out[seq] = (float(x.mean()), std, len(x), 1.96 * std / math.sqrt(len(x)))
    return out


def check_mos_table(wl: Workload, summary: list, log: CheckLog) -> None:
    """mos.csv against a direct recomputation; rejection set and counts exactly."""
    records = read_csv(wl.root / "scores.csv")
    kept = [r for r in records if not _is_ssq(r)]
    subjects = list(dict.fromkeys(r["subject_id"] for r in kept))
    rejected = expected_rejections(kept)
    expect_summary = [
        f"records: {len(records)} total, {len(records) - len(kept)} SSQ-excluded",
        f"subjects: {len(subjects)} screened, {len(rejected)} rejected"
        + (f" ({', '.join(s for s in subjects if s in rejected)})" if rejected else ""),
    ]
    log.expect(summary == expect_summary, f"process-scores summary {summary} != {expect_summary}")
    if PLANTED not in rejected:   # the generator's intent, not the program's output
        log.notes.append(f"the planted rater escaped screening at this seed ({sorted(rejected)})")
    expected = expected_mos([r for r in kept if r["subject_id"] not in rejected])
    rows = read_csv(wl.root / "out" / "mos.csv")
    log.expect(len(rows) == len(expected), f"mos.csv has {len(rows)} rows, expected {len(expected)}")
    bad = 0
    for row in rows:
        exp = expected.get(row["sequence_id"])
        if exp is None or int(row["n_valid"]) != exp[2] or any(
                abs(float(row[k]) - v) > 2e-6
                for k, v in (("mos", exp[0]), ("std", exp[1]), ("ci95_half_width", exp[3]))):
            bad += 1
    log.expect(bad == 0, f"mos.csv: {bad} rows differ from the recomputed MOS (tol 2e-6)")


def read_y4m_luma(path: Path) -> np.ndarray:
    """Luma planes of a mono YUV4MPEG2 stream as written by the set-up."""
    data = Path(path).read_bytes()
    nl = data.index(b"\n")
    head = dict((t[:1], t[1:]) for t in data[:nl].split(b" ")[1:])
    w, h = int(head[b"W"]), int(head[b"H"])
    frame = len(b"FRAME\n") + w * h
    n = (len(data) - nl - 1) // frame
    body = np.frombuffer(data, dtype=np.uint8, offset=nl + 1, count=n * frame)
    return body.reshape(n, frame)[:, len(b"FRAME\n"):].reshape(n, h, w)


def expected_siti(frames: np.ndarray) -> tuple[float, float, float, float]:
    """SI (Sobel magnitude on the interior, population std) and TI
    (population std of frame differences), mean and max over time."""
    from scipy import ndimage

    si = []
    for f in frames:
        f = f.astype(np.float64)
        mag = np.hypot(ndimage.sobel(f, axis=0), ndimage.sobel(f, axis=1))
        si.append(mag[1:-1, 1:-1].std())
    ti = [(frames[t + 1].astype(np.float64) - frames[t]).std() for t in range(len(frames) - 1)]
    return float(np.mean(si)), float(np.max(si)), float(np.mean(ti)), float(np.max(ti))


def check_siti(wl: Workload, log: CheckLog) -> None:
    rows = read_csv(wl.root / "out" / "siti.csv")
    log.expect([r["sequence_id"] for r in rows] == wl.ids, "siti.csv sequence ids")
    for row in rows:
        exp = expected_siti(read_y4m_luma(wl.root / "media" / f"{row['sequence_id']}.y4m"))
        for key, v in zip(("si_mean", "si_max", "ti_mean", "ti_max"), exp):
            log.close(float(row[key]), v, 1e-5 + 1e-7 * abs(v), f"siti.csv {row['sequence_id']} {key}")


def avqf_shape(path: Path) -> tuple:
    data = Path(path).read_bytes()[:64]
    if data[:4] != b"AVQF":
        return ()
    (rank,) = struct.unpack_from("<I", data, 4)
    return struct.unpack_from(f"<{rank}I", data, 8)


def audio_patches(wav: Path) -> int:
    """Log-mel patch count of a clip: 25 ms / 10 ms frames at 16 kHz, 96 per patch."""
    data = Path(wav).read_bytes()
    channels, rate = struct.unpack_from("<HI", data, 22)
    n = (len(data) - 44) // (2 * channels)
    n16 = int(round(n * 16000 / rate))
    return math.ceil((1 + (n16 - 400) // 160) / 96)


def check_features(wl: Workload, log: CheckLog) -> None:
    feat = wl.root / "out" / "features"
    for seq in wl.ids:
        video, audio = feat / f"{seq}_video.avqf", feat / f"{seq}_audio.avqf"
        log.expect(avqf_shape(video) == (8, 4, 16, 32), f"{video.name} shape {avqf_shape(video)}")
        want = (audio_patches(wl.root / "media" / f"{seq}.wav"), 96, 64)
        log.expect(avqf_shape(audio) == want, f"{audio.name} shape {avqf_shape(audio)} != {want}")
    log.expect(len(list((wl.root / "out").glob("hm_stats.csv"))) == 1, "hm_stats.csv missing")
    log.expect(len(read_csv(wl.root / "out" / "hm_stats.csv")) == len(wl.ids), "hm_stats.csv rows")


def check_metrics_row(wl: Workload, scores: dict, log: CheckLog) -> list:
    """metrics.csv: n exactly; the rank correlations against a scipy
    recomputation from the predict scores when those carry no ties."""
    from scipy import stats

    rows = read_csv(wl.root / "out" / "metrics.csv")
    if not log.expect(len(rows) == 1, "metrics.csv must hold one row"):
        return []
    row = rows[0]
    log.expect(int(row["n"]) == len(wl.ids), f"metrics.csv n={row['n']}, expected {len(wl.ids)}")
    mos = {r["sequence_id"]: float(r["mos"]) for r in read_csv(wl.root / "out" / "mos.csv")}
    pred = [scores[s] for s in wl.ids]
    if len(set(pred)) == len(pred):
        truth = [mos[s] for s in wl.ids]
        log.close(float(row["srocc"]), float(stats.spearmanr(pred, truth).correlation), 2e-6,
                  "metrics.csv srocc vs predict scores")
        log.close(float(row["krocc"]), float(stats.kendalltau(pred, truth).correlation), 2e-6,
                  "metrics.csv krocc vs predict scores")
    else:
        log.notes.append("predict scores tie at 4 decimals: rank cross-check skipped")
    # The logistic parameters are left out: on a barely trained checkpoint
    # the fit is flat along some directions, so b1..b4 may wander where the
    # criteria do not.
    return [float(row[k]) for k in ("plcc", "srocc", "krocc", "rmse")]


# Tolerances of the stored-reference comparison. Bit identity is required
# only between runs of one commit (the hashes); across commits a kernel may
# sum in another order.
REFERENCE_TOL = {"final_loss": 1e-6, "metrics_row": 1e-4}


def check_reference(wl: Workload, facts: dict, log: CheckLog) -> None:
    """Compares ``facts`` with the values stored for the workload's seed
    (full-size inputs only)."""
    refs = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    ref = refs.get(wl.name, {}).get(str(wl.seed)) if wl.sizes == SIZES[wl.name] else None
    if ref is None:
        log.notes.append(f"no stored reference for {wl.name} seed {wl.seed} at these sizes")
        return
    for key, tol in REFERENCE_TOL.items():
        if key not in ref:
            continue
        got = facts.get(key)
        want = ref[key]
        if isinstance(want, list):
            ok = got is not None and len(got) == len(want) and all(
                abs(a - b) <= tol * max(1.0, abs(b)) for a, b in zip(got, want))
        else:
            ok = got is not None and abs(got - want) <= tol * max(1.0, abs(want))
        log.expect(ok, f"{key} {got} differs from stored reference {want} (tol {tol:g})")
