"""Command-line entry points wiring the library into batch pipelines.

Every command is driven by one config file (see config.py); individual
keys can be overridden with repeated ``--set key=value`` flags, and each
override is echoed to stdout. Outputs go under the configured output
directory, except the paths ``split_file``, ``mos_table`` and
``checkpoint`` name, and are byte-reproducible for a given config and
seed, except the feature files, whose key records where the media are
and their modification times. A file's parent directories are created
when it is written, and removed if empty when that fails; a path that
cannot be written, or a failed write, is a validation error naming it.

Feature files: ``evaluate`` keeps each sequence's preprocessed model
input in ``<output_dir>/features/<id>.avqc`` (see ``_features``), and
every command that preprocesses reads it instead of the media while its
key matches, so scoring unchanged media again does not preprocess them
again. Only ``evaluate`` writes it, before ``metrics.csv``: ``predict``
scores one sequence and writes nothing, ``train`` preprocesses each
sequence once for a loop whose cost is the network's, and
``extract-features`` keeps the same arrays as AVQF dumps.

Exit codes: 0 success, 2 validation error, 3 data error, 4 numeric
failure. A fault in the content of an input file (the manifest, the
media, the scores, MOS and split tables, a head-movement trace, the
checkpoint, a feature file), or a per-sequence file that ``media_root``
or ``hm_root`` lacks, is a data error naming the file, decided where the
file is read. A fault in the command line or the config file, or a
configured path that names no file or a directory, is a validation
error. A command that fails on its inputs writes nothing: a failing
``evaluate`` leaves the feature files as they were, and ``train`` replaces
the checkpoint and ``train_log.csv`` only once both are written.

Only the commands report: a condition worth knowing is a ``warning:``
line on stdout, and a failure is one ``error:``, ``data error:`` or
``numeric error:`` line on stderr. The library functions return what
they found or raise, and emit no Python warnings.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from contextlib import ExitStack
from pathlib import Path

import numpy as np

from . import audiofe, hm, metrics, model, siti, subjective, synthetic
from .config import RunConfig, load_config
from .errors import (DataError, NumericError, ValidationError, require_file,
                     require_writable_location)
from .manifest import (load_manifest, load_scores_csv, load_wav, load_y4m,
                       read_csv_table, resampled_length, write_csv_table)
from .nn import read_checkpoint, write_checkpoint

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _config_from_args(args) -> RunConfig:
    cfg, applied = load_config(args.config, args.set or [])
    for line in applied:
        print(line)
    return cfg


def _manifest_entries(cfg: RunConfig):
    return load_manifest(require_file(cfg.manifest, "manifest"))


def _sequence_file(root: Path, sequence_id: str, suffix: str, what: str) -> Path:
    """``<root>/<sequence_id><suffix>``, a per-sequence input the manifest
    names; one that is missing or a directory is a data error."""
    return require_file(root / f"{sequence_id}{suffix}",
                        f"{what} of sequence {sequence_id!r}", DataError)


def _features(cfg: RunConfig, model_cfg: model.ModelConfig, sequence_id: str,
              staged: ExitStack | None = None) -> model.SequenceFeatures:
    """Model input tensors of one sequence. They are read from its feature
    file ``<output_dir>/features/<sequence_id>.avqc`` when the file's
    ``meta/key`` is the one ``_feature_key`` gives now, without opening the
    media. Otherwise they are preprocessed from the media (``load_wav``
    decodes the audio to the mean of its channels, at the front end's rate
    when the file's rate is a multiple of it) and, given an ExitStack
    ``staged``, written to a file staged on it (``nn.write_checkpoint``),
    so the file is renamed into place when the stack closes. A medium the
    model cannot take (a frame that is not 2:1, too few frames or rows,
    audio shorter than one analysis frame) is a data error naming its
    file, decided before preprocessing."""
    video = _sequence_file(cfg.media_root, sequence_id, ".y4m", "media")
    audio = _sequence_file(cfg.media_root, sequence_id, ".wav", "media")
    path = cfg.output_dir / "features" / f"{sequence_id}.avqc"
    key = _feature_key(model_cfg, video, audio)
    if path.is_file():
        tensors = read_checkpoint(path)
        if sorted(tensors) != ["audio", "lat_prior", "meta/key", "video"]:
            raise DataError(f"{path}: not a feature file, it holds {sorted(tensors)}")
        if np.array_equal(tensors["meta/key"], key):
            feat = model.SequenceFeatures(tensors["video"], tensors["audio"],
                                          tensors["lat_prior"], sequence_id)
            _check_feature_shapes(path, feat, model_cfg)
            return feat
    seq = load_y4m(video)
    if seq.width != 2 * seq.height:
        raise DataError(f"{video}: frame {seq.width}x{seq.height} is not 2:1 ERP")
    if seq.n_frames < model_cfg.frames_per_clip:
        raise DataError(f"{video}: {seq.n_frames} frames, the model takes "
                        f"{model_cfg.frames_per_clip}")
    if seq.height < model_cfg.bands:
        raise DataError(f"{video}: {seq.height} rows, the model takes "
                        f"{model_cfg.bands} latitude bands")
    sr = audiofe.SAMPLE_RATE
    clip = load_wav(audio, sr)
    if resampled_length(clip.n_samples, clip.sample_rate, sr) < round(audiofe.FRAME_LEN_S * sr):
        raise DataError(f"{audio}: audio of {clip.n_samples} samples at {clip.sample_rate} Hz "
                        f"is shorter than one {audiofe.FRAME_LEN_S * 1000:g} ms analysis frame")
    feat = model.preprocess_sequence(seq, clip, model_cfg, sequence_id)
    if staged is not None:
        write_checkpoint(path, {"video": feat.video, "audio": feat.audio,
                                "lat_prior": feat.lat_prior, "meta/key": key}, "<f8", staged)
    return feat


def _feature_key(model_cfg: model.ModelConfig, video: Path, audio: Path) -> np.ndarray:
    """The SHA-256 digest, as 32 byte values, of what a sequence's features
    depend on: ``model.FEATURES_VERSION``, the two preprocessing fields
    and, for both media files, where it lives (its resolved path and
    inode), its size and its modification time."""
    parts = [model.FEATURES_VERSION, model_cfg.bands, model_cfg.frames_per_clip]
    for media in (video, audio):
        st = media.stat()
        parts += [str(media.resolve()), st.st_ino, st.st_size, st.st_mtime_ns]
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return np.frombuffer(digest, dtype=np.uint8).astype(np.float64)


def _check_feature_shapes(path: Path, feat: model.SequenceFeatures,
                          model_cfg: model.ModelConfig) -> None:
    """A DataError naming the feature file when its arrays do not fit the
    model's frames, bands and input sizes."""
    want = {"video": (model_cfg.frames_per_clip, model_cfg.bands, *model.BAND_INPUT_HW),
            "lat_prior": (model_cfg.bands,)}
    for name, shape in want.items():
        if getattr(feat, name).shape != shape:
            raise DataError(f"{path}: {name} has shape {getattr(feat, name).shape}, "
                            f"the model takes {shape}")
    p = feat.audio.shape
    if len(p) != 3 or p[0] < 1 or p[1:] != (audiofe.PATCH_FRAMES, audiofe.NUM_MEL):
        raise DataError(f"{path}: audio has shape {p}, the model takes "
                        f"(P, {audiofe.PATCH_FRAMES}, {audiofe.NUM_MEL}) with P >= 1")


_SPLIT_HEADER = ["sequence_id", "split"]


def _load_split(path: Path) -> dict[str, str]:
    require_file(path, "split file")
    assignment: dict[str, str] = {}
    for lineno, (seq, split) in read_csv_table(path, _SPLIT_HEADER):
        if split not in ("train", "test"):
            raise DataError(f"{path}: line {lineno}: bad split label {split!r}")
        if seq in assignment and assignment[seq] != split:
            raise DataError(
                f"{path}: line {lineno}: split leakage, sequence {seq!r} "
                "assigned to both splits"
            )
        assignment[seq] = split
    if not assignment:
        raise DataError(f"{path}: empty split file")
    return assignment


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_synth_fixture(args) -> int:
    outdir = Path(args.out)
    entries = synthetic.generate_corpus(outdir, seed=args.seed)
    print(f"wrote {len(entries)} sequences under {outdir}")
    print(f"config: {outdir / 'config.txt'}")
    return EXIT_OK


def cmd_process_scores(args) -> int:
    cfg = _config_from_args(args)
    records = load_scores_csv(require_file(cfg.scores, "scores file"))
    kept = subjective.exclude_ssq(records)
    n_flagged = len(records) - len(kept)
    if not kept:
        raise DataError(f"{cfg.scores}: all rating records are SSQ-flagged; no scores left")
    try:
        # ratings that screening or the MOS cannot use are a fault of the table
        results, filtered = subjective.screen_subjects(kept)
        mos_records = subjective.compute_mos(filtered)
    except (ValidationError, DataError) as e:
        raise DataError(f"{cfg.scores}: {e}") from e
    rejected = [r for r in results if r.rejected]
    out = cfg.mos_table
    subjective.write_mos_csv(mos_records, out)
    print(f"records: {len(records)} total, {n_flagged} SSQ-excluded")
    print(f"subjects: {len(results)} screened, {len(rejected)} rejected"
          + (f" ({', '.join(r.subject_id for r in rejected)})" if rejected else ""))
    low = [m.sequence_id for m in mos_records if not m.meets_minimum()]
    if low:
        print(f"warning: {len(low)} sequence(s) below {subjective.MIN_VALID_RATINGS} "
              f"valid ratings: {', '.join(low[:5])}{', ...' if len(low) > 5 else ''}")
    print(f"mos table: {out} ({len(mos_records)} sequences)")
    return EXIT_OK


def cmd_siti(args) -> int:
    cfg = _config_from_args(args)
    entries = _manifest_entries(cfg)
    rows = []
    for entry in entries:
        video = _sequence_file(cfg.media_root, entry.sequence_id, ".y4m", "media")
        seq = load_y4m(video)
        if seq.height < 3 or seq.width < 3:
            raise DataError(f"{video}: {seq.width}x{seq.height} frames, SI needs at least 3x3")
        if seq.n_frames < 2:
            raise DataError(f"{video}: {seq.n_frames} frame, TI needs at least 2")
        r = siti.summarize_siti(seq)
        rows.append([entry.sequence_id, f"{r.si_mean:.6f}", f"{r.si_max:.6f}",
                     f"{r.ti_mean:.6f}", f"{r.ti_max:.6f}"])
    out = cfg.output_dir / "siti.csv"
    write_csv_table(out, ["sequence_id", "si_mean", "si_max", "ti_mean", "ti_max"], rows)
    print(f"siti table: {out} ({len(entries)} sequences)")
    return EXIT_OK


def cmd_hm_stats(args) -> int:
    cfg = _config_from_args(args)
    entries = _manifest_entries(cfg)
    rows = []
    for entry in entries:
        trace_path = _sequence_file(cfg.hm_root, entry.sequence_id, ".csv",
                                    "head-movement trace")
        rows.append((entry.sequence_id, hm.hm_stats(hm.load_hm(trace_path))))
    out = cfg.output_dir / "hm_stats.csv"
    hm.write_hm_stats_csv(rows, out)
    print(f"hm stats: {out} ({len(rows)} traces)")
    return EXIT_OK


def cmd_split(args) -> int:
    cfg = _config_from_args(args)
    entries = _manifest_entries(cfg)
    n = len(entries)
    # floor for test, with a guard against float residue (10 * 0.2 -> 1.999...)
    n_test = int(np.floor(n * (1.0 - cfg.split_ratio) + 1e-9))
    if n_test < 1 or n - n_test < 1:
        raise ValidationError(
            f"split of {n} sequences at ratio {cfg.split_ratio} leaves an empty side"
        )
    rng = np.random.default_rng(cfg.split_seed)
    shuffled = rng.permutation(n)
    test_idx = set(int(i) for i in shuffled[:n_test])
    out = cfg.split_file
    write_csv_table(out, _SPLIT_HEADER, (
        [entry.sequence_id, "test" if i in test_idx else "train"]
        for i, entry in enumerate(entries)
    ))
    print(f"split: {out} ({n - n_test} train / {n_test} test)")
    return EXIT_OK


def cmd_extract_features(args) -> int:
    cfg = _config_from_args(args)
    entries = _manifest_entries(cfg)
    # every sequence is preprocessed first, so a media failure writes no dump
    feats = [_features(cfg, cfg.model, entry.sequence_id) for entry in entries]
    feat_dir = cfg.output_dir / "features"
    for feat in feats:
        audiofe.write_features(feat_dir / f"{feat.sequence_id}_video.avqf", feat.video)
        audiofe.write_features(feat_dir / f"{feat.sequence_id}_audio.avqf", feat.audio)
    print(f"features: {feat_dir} ({len(entries)} sequences)")
    return EXIT_OK


def _select_entries(cfg: RunConfig, entries, subset: str):
    """Resolve train/test/all membership from the split file, or from the
    manifest split column when nothing exists at the split file's path."""
    if subset == "all":
        return entries
    if cfg.split_file.exists():
        assignment = _load_split(cfg.split_file)
        unknown = [e.sequence_id for e in entries if e.sequence_id not in assignment]
        if unknown:
            raise DataError(f"{cfg.split_file}: lacks assignments for {unknown}")
        return [e for e in entries if assignment[e.sequence_id] == subset]
    return [e for e in entries if e.split == subset]


def _rated_entries(cfg: RunConfig, subset: str):
    """The manifest entries of ``subset`` (see ``_select_entries``) and the
    MOS table; an empty subset or one the table does not rate in full is
    an error."""
    entries = _manifest_entries(cfg)
    mos_map = subjective.read_mos_csv(
        require_file(cfg.mos_table, "MOS table (run process-scores first)"))
    selected = _select_entries(cfg, entries, subset)
    if not selected:
        raise ValidationError(f"subset {subset!r} is empty: run the split command "
                              "or set the manifest split column")
    missing = [e.sequence_id for e in selected if e.sequence_id not in mos_map]
    if missing:
        raise DataError(f"{cfg.mos_table}: lacks sequences {missing}")
    return selected, mos_map


def cmd_train(args) -> int:
    cfg = _config_from_args(args)
    log_path = cfg.output_dir / "train_log.csv"
    for path in (cfg.checkpoint, log_path):
        require_writable_location(path)
    selected, mos_map = _rated_entries(cfg, args.on)
    feats = [_features(cfg, cfg.model, e.sequence_id) for e in selected]
    targets = np.array([mos_map[e.sequence_id].mos / 100.0 for e in selected])

    net = model.AVQAModel(cfg.model)
    result = model.train_model(net, feats, targets)
    with ExitStack() as staged:  # neither output is replaced until both are written
        net.save(cfg.checkpoint, staged)
        write_csv_table(log_path, ["step", "loss"],
                        ([step, f"{loss:.10f}"] for step, loss in result.history), staged)
    print(f"trained on {len(feats)} sequences for {len(result.history)} steps")
    if result.history:
        print(f"final batch loss: {result.final_loss:.6f}")
    print(f"checkpoint: {cfg.checkpoint}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfg = _config_from_args(args)
    require_file(cfg.checkpoint, "checkpoint")
    selected, mos_map = _rated_entries(cfg, args.on)
    if len(selected) < metrics.LOGISTIC_FIT_MIN_N:
        raise ValidationError(
            f"subset {args.on!r} has {len(selected)} sequence(s), the logistic fit needs at "
            f"least {metrics.LOGISTIC_FIT_MIN_N}: evaluate more of the corpus (--on all)")
    # correlation is undefined over a constant MOS or a constant prediction
    mos = np.array([mos_map[e.sequence_id].mos for e in selected])
    if np.ptp(mos) == 0:
        raise DataError(f"{cfg.mos_table}: every sequence of subset {args.on!r} "
                        f"has MOS {mos[0]:.6f}")
    net = model.AVQAModel.load(cfg.checkpoint)
    with ExitStack() as staged:
        # one sequence's features at a time
        preds = np.array([net.predict(_features(cfg, net.cfg, e.sequence_id, staged))
                          for e in selected])
        if np.ptp(preds) == 0:
            raise DataError(f"{cfg.checkpoint}: predicts {preds[0]:.4f} for every sequence "
                            f"of subset {args.on!r}")
        report = metrics.evaluate_predictions(preds, mos)
    out = cfg.output_dir / "metrics.csv"
    metrics.write_report_csv(report, out)
    print(
        f"n={report.n} plcc={report.plcc:.4f} srocc={report.srocc:.4f} "
        f"krocc={report.krocc:.4f} rmse={report.rmse:.4f}"
    )
    if report.degenerate:
        print("warning: logistic fit degenerated to the identity mapping")
    print(f"report: {out}")
    return EXIT_OK


def cmd_predict(args) -> int:
    cfg = _config_from_args(args)
    entries = _manifest_entries(cfg)
    by_id = {e.sequence_id: e for e in entries}
    if args.sequence not in by_id:
        raise ValidationError(f"sequence {args.sequence!r} not in manifest")
    require_file(cfg.checkpoint, "checkpoint")
    net = model.AVQAModel.load(cfg.checkpoint)
    # reads the sequence's feature file, never writes it
    score = net.predict(_features(cfg, net.cfg, args.sequence))
    print(f"{args.sequence}: {score:.4f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser / entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avq360",
        description="Audio-visual quality assessment pipelines for 360-degree video",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-fixture", help="generate the synthetic desk-scale corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=synthetic.DEFAULT_SEED)
    p.set_defaults(func=cmd_synth_fixture)

    def with_config(name, help_text):
        q = sub.add_parser(name, help=help_text)
        q.add_argument("--config", required=True, help="run config file")
        q.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
        return q

    p = with_config("process-scores", "SSQ exclusion, subject screening, MOS table")
    p.set_defaults(func=cmd_process_scores)

    p = with_config("siti", "per-sequence SI/TI content statistics")
    p.set_defaults(func=cmd_siti)

    p = with_config("hm-stats", "head-movement trace summaries")
    p.set_defaults(func=cmd_hm_stats)

    p = with_config("split", "seeded train/test assignment")
    p.set_defaults(func=cmd_split)

    p = with_config("extract-features", "dump model input tensors as AVQF files, "
                    "read from a sequence's feature file while it is current")
    p.set_defaults(func=cmd_extract_features)

    p = with_config("train", "train the quality model")
    p.add_argument("--on", choices=("train", "all"), default="all",
                   help="train on the split's train side or on every sequence")
    p.set_defaults(func=cmd_train)

    p = with_config("evaluate", "logistic fit + PLCC/SROCC/KROCC/RMSE")
    p.add_argument("--on", choices=("train", "test", "all"), default="test")
    p.set_defaults(func=cmd_evaluate)

    p = with_config("predict", "score one sequence with a trained checkpoint")
    p.add_argument("--sequence", required=True, help="sequence id from the manifest")
    p.set_defaults(func=cmd_predict)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
