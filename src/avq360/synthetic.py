"""Synthetic desk-scale corpus: media, ratings, head movement.

Generates a deterministic miniature dataset that exercises every stage
of the pipeline: 8 ERP video+audio sequences whose distortion level is
monotonically tied to a target MOS, a rating table with 19 consistent
subjects, one planted inconsistent subject (scores 100 minus the
consensus) and one SSQ-flagged subject, plus per-sequence head-movement
traces. Consistent subjects use bounded uniform noise so their scores
stay inside the screening thresholds; the planted subject's mirrored
scores land outside them on sequences designed to sit in the detection
window of the kurtosis-gated rule.

Everything is a pure function of the seed, so fixtures are
byte-reproducible and safe to regenerate inside tests.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from .config import RunConfig
from .errors import DataError, ValidationError
from .manifest import (
    SCENES,
    AudioClip,
    FrameSequence,
    RatingRecord,
    SequenceManifestEntry,
    write_csv_table,
    write_manifest,
    write_scores_csv,
    write_wav,
    write_y4m,
)
from .model import ModelConfig

DEFAULT_SEED = 7

# Media sequences: distortion level rises, designed MOS falls. These
# targets sit outside the screening detection window so their statistics
# stay clean for MOS aggregation.
MEDIA_TARGETS = (88.0, 80.0, 70.0, 63.0, 55.0, 47.0, 37.0, 30.0)

# Rating-only sequences fill the detection window of the outlier rule on
# both sides of the scale midpoint (the planted subject mirrors scores
# around 50), plus off-window fillers for realism.
_WINDOW_LOW = (39.0, 39.7, 40.4, 41.1, 41.8, 42.5)
_WINDOW_HIGH = (57.5, 58.2, 58.9, 59.6, 60.3, 61.0)
_FILLERS = (35.0, 36.0, 37.0, 45.0, 47.5, 50.0, 52.5, 55.0, 63.0, 65.0)
EXTRA_TARGETS = _WINDOW_LOW + _WINDOW_HIGH + _FILLERS

# Consistent-subject noise: uniform with std 6 (halfwidth 6*sqrt(3)).
NOISE_STD = 6.0
NOISE_HALFWIDTH = NOISE_STD * math.sqrt(3.0)

N_CONSISTENT = 19
PLANTED_SUBJECT = "s19"
SSQ_SUBJECT = "s20"

FRAME_W, FRAME_H = 64, 32
N_FRAMES = 8
FPS = 8.0
AUDIO_SR = 16000
DURATION_S = 1.0
HM_RATE_HZ = 120.0


def _box_blur(img: np.ndarray, passes: int) -> np.ndarray:
    for _ in range(passes):
        p = np.pad(img, 1, mode="edge")
        img = (
            p[:-2, :-2] + p[:-2, 1:-1] + p[:-2, 2:]
            + p[1:-1, :-2] + p[1:-1, 1:-1] + p[1:-1, 2:]
            + p[2:, :-2] + p[2:, 1:-1] + p[2:, 2:]
        ) / 9.0
    return img


def make_frames(rng: np.random.Generator, distortion: float, motion: str) -> np.ndarray:
    """N_FRAMES procedural FRAME_H x FRAME_W luma frames (uint8): sinusoid
    field + blur/noise distortion."""
    yy, xx = np.mgrid[0:FRAME_H, 0:FRAME_W]
    fx = rng.uniform(1.0, 4.0)
    fy = rng.uniform(1.0, 4.0)
    ph1, ph2 = rng.uniform(0, 1, size=2)
    drift = 0.08 if motion == "dynamic" else 0.0
    frames = []
    blur_passes = int(round(4 * distortion))
    for t in range(N_FRAMES):
        base = (
            0.5
            + 0.22 * np.sin(2 * np.pi * (fx * xx / FRAME_W + ph1 + drift * t))
            + 0.22 * np.sin(2 * np.pi * (fy * yy / FRAME_H + ph2 + 0.5 * drift * t))
        )
        img = _box_blur(base, blur_passes)
        img = img + rng.normal(0.0, 0.12 * distortion, size=img.shape)
        frames.append(np.clip(img, 0.0, 1.0))
    return (np.stack(frames) * 255.0).round().astype(np.uint8)


def make_audio(rng: np.random.Generator, distortion: float, channels: int) -> AudioClip:
    """DURATION_S at AUDIO_SR: a tonal bed per channel with noise amplitude
    tied to the distortion."""
    n = int(round(AUDIO_SR * DURATION_S))
    t = np.arange(n) / AUDIO_SR
    tones = (440.0, 554.4, 659.3, 784.0)
    chans = []
    for c in range(channels):
        clean = 0.4 * np.sin(2 * np.pi * tones[c % len(tones)] * t)
        clean += 0.15 * np.sin(2 * np.pi * 2.0 * tones[c % len(tones)] * t)
        noisy = clean + 0.3 * distortion * rng.uniform(-1.0, 1.0, size=n)
        chans.append(np.clip(noisy, -0.98, 0.98))
    return AudioClip(samples=np.stack(chans), sample_rate=AUDIO_SR)


def make_hm_rows(
    rng: np.random.Generator, motion: str, duration_s: float = DURATION_S
) -> list[tuple[float, float, float, float]]:
    """(t, yaw, pitch, roll) rows at HM_RATE_HZ: slow scan for dynamic,
    jitter for static."""
    n = int(round(duration_s * HM_RATE_HZ))
    t = np.arange(n) / HM_RATE_HZ
    if motion == "dynamic":
        yaw = 180.0 - np.mod(180.0 - (-60.0 + 25.0 * t), 360.0)
        pitch = 8.0 * np.sin(2 * np.pi * 0.4 * t)
    else:
        yaw = 5.0 + 1.5 * np.sin(2 * np.pi * 0.3 * t)
        pitch = 2.0 * np.sin(2 * np.pi * 0.2 * t)
    yaw = yaw + rng.normal(0, 0.05, size=n)
    pitch = pitch + rng.normal(0, 0.05, size=n)
    roll = rng.normal(0, 0.3, size=n)
    yaw = np.clip(yaw, -180.0, 180.0)
    pitch = np.clip(pitch, -90.0, 90.0)
    roll = np.clip(roll, -180.0, 180.0)
    return [(float(a), float(b), float(c), float(d))
            for a, b, c, d in zip(t, yaw, pitch, roll)]


def write_hm_csv(rows, path) -> None:
    write_csv_table(path, ["t", "yaw", "pitch", "roll"], (
        [f"{t:.6f}", f"{yaw:.4f}", f"{pitch:.4f}", f"{roll:.4f}"]
        for t, yaw, pitch, roll in rows
    ))


def make_rating_table(
    sequence_targets: dict[str, float],
    n_consistent: int = N_CONSISTENT,
    planted_subject: str | None = PLANTED_SUBJECT,
    ssq_subject: str | None = SSQ_SUBJECT,
    noise_halfwidth: float = NOISE_HALFWIDTH,
    seed: int = DEFAULT_SEED,
) -> list[RatingRecord]:
    """Rating table around per-sequence consensus targets.

    Consistent subjects score target + bounded uniform noise; the
    planted subject scores exactly 100 - target; the SSQ subject's
    records are all flagged for exclusion.
    """
    rng = np.random.default_rng(seed)
    records = []
    subjects = [f"s{i:02d}" for i in range(n_consistent)]
    for sid in subjects:
        for seq, q in sequence_targets.items():
            score = float(np.clip(q + rng.uniform(-noise_halfwidth, noise_halfwidth), 0, 100))
            records.append(RatingRecord(sid, seq, f"sess_{sid}", score))
    if planted_subject is not None:
        for seq, q in sequence_targets.items():
            records.append(
                RatingRecord(planted_subject, seq, f"sess_{planted_subject}", 100.0 - q)
            )
    if ssq_subject is not None:
        for seq, q in sequence_targets.items():
            score = float(np.clip(q + rng.uniform(-noise_halfwidth, noise_halfwidth), 0, 100))
            records.append(
                RatingRecord(ssq_subject, seq, f"sess_{ssq_subject}", score, ssq_flag=True)
            )
    return records


def fixture_sequence_targets() -> dict[str, float]:
    """All rated sequence ids -> designed consensus score."""
    targets = {f"seq{i:02d}": q for i, q in enumerate(MEDIA_TARGETS)}
    targets.update({f"xtr{i:02d}": q for i, q in enumerate(EXTRA_TARGETS)})
    return targets


_CONFIG_PATHS = """\
# avq360 run configuration (paths resolve relative to this file)
manifest = manifest.json
media_root = media
scores = scores.csv
hm_root = hm
output_dir = out
"""


def _config_text(seed: int) -> str:
    """The corpus's config.txt: its paths, then every ``RunConfig`` field
    with a plain default (the ``split_*`` settings) and every
    ``ModelConfig`` field, each at its default but the model seed, which
    is the corpus seed."""
    def line(name, value):
        text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
        return f"{name} = {text}\n"

    split = [line(f.name, f.default) for f in fields(RunConfig) if f.default is not MISSING]
    model_cfg = ModelConfig(seed=seed)
    model_lines = [line(f.name, getattr(model_cfg, f.name)) for f in fields(ModelConfig)]
    return "".join([_CONFIG_PATHS, "\n", *split, "\n# model\n", *model_lines])


def generate_corpus(outdir, seed: int = DEFAULT_SEED) -> list[SequenceManifestEntry]:
    """Write the full synthetic corpus; returns the manifest entries.

    Layout: manifest.json, media/<id>.y4m + .wav, hm/<id>.csv,
    scores.csv, config.txt. Sequence i has distortion i/7 and designed
    MOS MEDIA_TARGETS[i].
    """
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    outdir = Path(outdir)
    (outdir / "media").mkdir(parents=True, exist_ok=True)
    (outdir / "hm").mkdir(parents=True, exist_ok=True)

    entries = []
    for i in range(len(MEDIA_TARGETS)):
        seq_id = f"seq{i:02d}"
        distortion = i / (len(MEDIA_TARGETS) - 1)
        motion = "dynamic" if i % 2 else "static"
        channels = 4 if i % 2 else 2
        entry = SequenceManifestEntry(
            sequence_id=seq_id,
            width=FRAME_W,
            height=FRAME_H,
            fps=FPS,
            duration_s=DURATION_S,
            scene=SCENES[i % len(SCENES)],
            device="Synthetic",
            audio_channels=channels,
            audio_sample_rate=AUDIO_SR,
            motion=motion,
            split="unassigned",
        )
        rng = np.random.default_rng([seed, i])
        frames = make_frames(rng, distortion, motion)
        write_y4m(
            FrameSequence(frames=frames, fps=FPS, fps_rational=(8, 1)),
            outdir / "media" / f"{seq_id}.y4m",
        )
        write_wav(
            make_audio(rng, distortion, channels),
            outdir / "media" / f"{seq_id}.wav",
        )
        write_hm_csv(make_hm_rows(rng, motion), outdir / "hm" / f"{seq_id}.csv")
        entries.append(entry)

    write_manifest(entries, outdir / "manifest.json")

    targets = fixture_sequence_targets()
    records = make_rating_table(targets, seed=seed)
    write_scores_csv(records, outdir / "scores.csv")
    _verify_screening(records)

    (outdir / "config.txt").write_text(_config_text(seed), encoding="utf-8")
    return entries


def _verify_screening(records) -> None:
    """Regenerated fixtures must keep the designed screening outcome:
    the planted subject, and only the planted subject, gets rejected."""
    from .subjective import exclude_ssq, screen_subjects

    results, _ = screen_subjects(exclude_ssq(records))
    rejected = {r.subject_id for r in results if r.rejected}
    if rejected != {PLANTED_SUBJECT}:
        raise DataError(
            f"fixture seed produces rejection set {sorted(rejected)}; "
            f"expected exactly {{{PLANTED_SUBJECT!r}}} - choose another seed"
        )
