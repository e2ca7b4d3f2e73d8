import ast
import csv
import dataclasses
import errno
import json
import os
import shutil
import struct
import subprocess
import sys
from contextlib import ExitStack
from pathlib import Path

import numpy as np
import pytest

import avq360
from avq360 import audiofe, cli, model
from avq360.cli import _features, main
from avq360.config import load_config
from avq360.nn import read_checkpoint, write_checkpoint
from avq360.manifest import (
    AudioClip,
    FrameSequence,
    load_manifest,
    write_manifest,
    write_scores_csv,
    write_wav,
    write_y4m,
)
from avq360.siti import summarize_siti
from avq360.manifest import load_wav, load_y4m, RatingRecord
from avq360.subjective import MOSRecord, write_mos_csv
from avq360.synthetic import PLANTED_SUBJECT

from oracles import read_features, walked_frames, with_crc
from test_model import OLDER_FORMAT_META
from test_manifest import MISTYPED_VALUES, make_entry


def read_csv_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def run(args):
    return main([str(a) for a in args])


def run_process(args):
    """The CLI run as ``python -m avq360`` in a fresh interpreter with
    Python's default warning filters, so its stderr is what a user sees."""
    src = str(Path(avq360.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "avq360", *map(str, args)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src, "PYTHONWARNINGS": "default"})


def copy_with_field(src, dst, line, column, value):
    """Copy the CSV file src to dst with one field of a 1-based line replaced."""
    lines = src.read_text(encoding="utf-8").splitlines(keepends=True)
    body = lines[line - 1].rstrip("\r\n")
    fields = body.split(",")
    fields[column] = value
    lines[line - 1] = ",".join(fields) + lines[line - 1][len(body):]
    dst.write_text("".join(lines), encoding="utf-8", newline="")


def one_video_fixture(root, frames):
    """A one-sequence fixture under ``root`` whose video holds ``frames``,
    with the corpus' default model config; returns the video's path."""
    entry = make_entry(0)
    write_manifest([entry], root / "manifest.json")
    video = root / "media" / f"{entry.sequence_id}.y4m"
    video.parent.mkdir()
    write_y4m(FrameSequence(frames=frames, fps=8.0, fps_rational=(8, 1)), video)
    write_wav(AudioClip(samples=np.zeros((1, 16000)), sample_rate=16000),
              root / "media" / f"{entry.sequence_id}.wav")
    (root / "config.txt").write_text(
        "manifest = manifest.json\nmedia_root = media\nscores = s.csv\n"
        "hm_root = hm\noutput_dir = out\n", encoding="utf-8")
    return video


class TestSynthFixture:
    def test_generates_complete_corpus(self, tmp_path, capsys):
        assert run(["synth-fixture", "--out", tmp_path / "fx"]) == 0
        out = capsys.readouterr().out
        assert "8 sequences" in out
        for name in ("manifest.json", "scores.csv", "config.txt"):
            assert (tmp_path / "fx" / name).is_file()
        assert {p.name for p in (tmp_path / "fx").iterdir()} == {
            "manifest.json", "scores.csv", "config.txt", "media", "hm"}
        entries = load_manifest(tmp_path / "fx" / "manifest.json")
        assert len(entries) == 8
        for e in entries:
            assert (tmp_path / "fx" / "media" / f"{e.sequence_id}.y4m").is_file()
            assert (tmp_path / "fx" / "media" / f"{e.sequence_id}.wav").is_file()
            assert (tmp_path / "fx" / "hm" / f"{e.sequence_id}.csv").is_file()

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        assert run(["synth-fixture", "--out", tmp_path / "fx", "--seed", "-1"]) == 2
        assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "fx").exists()

    def test_a_refused_seed_writes_nothing(self, tmp_path, capsys):
        # seed 4's rating table does not reject the planted subject
        assert run(["synth-fixture", "--out", tmp_path / "fx", "--seed", "4"]) == 3
        assert "data error: fixture seed produces rejection set" in capsys.readouterr().err
        assert not (tmp_path / "fx").exists()


class TestImportCost:
    """No command needs scipy, and the package root imports nothing:
    checked in a fresh interpreter."""

    @staticmethod
    def loaded_after(statement):
        src = str(Path(avq360.__file__).resolve().parents[1])
        code = f"import sys; {statement}; print(' '.join(sorted(sys.modules)))"
        out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": src}).stdout
        return out.split()

    def test_cli_import_loads_no_scipy(self):
        loaded = self.loaded_after("import avq360.cli")
        assert "avq360.metrics" in loaded
        assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []

    def test_full_evaluate_loads_no_scipy(self, corpus_dir, trained_dir):
        out, overrides = trained_dir
        argv = ["evaluate", "--config", str(corpus_dir / "config.txt"), "--on", "all"]
        for o in overrides:
            argv += ["--set", o]
        (out / "metrics.csv").unlink(missing_ok=True)
        loaded = self.loaded_after(
            f"from avq360.cli import main; assert main({argv!r}) == 0")
        assert int(read_csv_rows(out / "metrics.csv")[0]["n"]) == 8
        assert "avq360.metrics" in loaded
        assert [m for m in loaded if m.split(".")[0] == "scipy"] == []

    def test_no_module_imports_scipy(self):
        found = []
        for path in sorted(Path(avq360.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                found += [f"{path.name}:{node.lineno}" for n in names
                          if n.split(".")[0] == "scipy"]
        assert found == []

    def test_no_module_imports_warnings(self):
        # the library returns what it found or raises; only the commands report
        found = []
        for path in sorted(Path(avq360.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                found += [f"{path.name}:{node.lineno}" for n in names
                          if n.split(".")[0] == "warnings"]
        assert found == []

    def test_package_import_loads_no_submodule(self):
        loaded = self.loaded_after("import avq360")
        assert [m for m in loaded if m.startswith("avq360.")] == []


class TestProcessScores:
    def test_pipeline_and_idempotence(self, corpus_dir, capsys):
        cfg = corpus_dir / "config.txt"
        assert run(["process-scores", "--config", cfg,
                    "--set", "output_dir=out_ps"]) == 0
        out = capsys.readouterr().out
        assert "override: output_dir = out_ps" in out
        assert "1 rejected" in out and PLANTED_SUBJECT in out
        mos_path = corpus_dir / "out_ps" / "mos.csv"
        rows = read_csv_rows(mos_path)
        assert len(rows) == 30
        assert all(int(r["n_valid"]) == 19 for r in rows)
        first = mos_path.read_bytes()
        assert run(["process-scores", "--config", cfg,
                    "--set", "output_dir=out_ps"]) == 0
        assert mos_path.read_bytes() == first

    def test_all_ssq_flagged_fails(self, tmp_path):
        fixture = tmp_path / "allssq"
        fixture.mkdir()
        write_manifest([make_entry(0)], fixture / "manifest.json")
        records = [
            RatingRecord(f"s{i}", "seq000", "x", 50.0, ssq_flag=True) for i in range(4)
        ]
        write_scores_csv(records, fixture / "scores.csv")
        (fixture / "config.txt").write_text(
            "manifest = manifest.json\nmedia_root = media\nscores = scores.csv\n"
            "hm_root = hm\noutput_dir = out\n"
        )
        assert run(["process-scores", "--config", fixture / "config.txt"]) == 3

    def test_all_ssq_flagged_reports_one_data_error_line(self, tmp_path):
        write_manifest([make_entry(0)], tmp_path / "manifest.json")
        write_scores_csv([RatingRecord(f"s{i}", "seq000", "x", 50.0, ssq_flag=True)
                          for i in range(4)], tmp_path / "scores.csv")
        (tmp_path / "config.txt").write_text(
            "manifest = manifest.json\nmedia_root = media\nscores = scores.csv\n"
            "hm_root = hm\noutput_dir = out\n", encoding="utf-8")
        done = run_process(["process-scores", "--config", tmp_path / "config.txt"])
        assert done.returncode == 3
        assert done.stderr.splitlines() == [
            f"data error: {tmp_path / 'scores.csv'}: all rating records are SSQ-flagged; "
            "no scores left"]

    def test_warning_names_the_first_five_low_sequences(self, tmp_path, capsys):
        write_scores_csv([RatingRecord(f"s{i}", f"seq{j:03d}", "x", 40.0 + i + j)
                          for i in range(3) for j in range(7)], tmp_path / "scores.csv")
        (tmp_path / "config.txt").write_text(
            "manifest = manifest.json\nmedia_root = media\nscores = scores.csv\n"
            "hm_root = hm\noutput_dir = out\n", encoding="utf-8")
        assert run(["process-scores", "--config", tmp_path / "config.txt"]) == 0
        assert ("warning: 7 sequence(s) below 15 valid ratings: seq000, seq001, seq002, "
                "seq003, seq004, ...") in capsys.readouterr().out.splitlines()

    def test_non_utf8_scores_is_data_error(self, tmp_path, corpus_dir, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_bytes((corpus_dir / "scores.csv").read_bytes() + b"\xff")
        assert run(["process-scores", "--config", corpus_dir / "config.txt",
                    "--set", f"scores={scores}",
                    "--set", f"output_dir={tmp_path / 'out'}"]) == 3
        assert "not valid UTF-8" in capsys.readouterr().err


    def test_header_only_scores_is_data_error(self, tmp_path, corpus_dir, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("subject_id,sequence_id,session_id,score,ssq_flag\n")
        assert run(["process-scores", "--config", corpus_dir / "config.txt",
                    "--set", f"scores={scores}",
                    "--set", f"output_dir={tmp_path / 'out'}"]) == 3
        assert f"{scores}: no rating records" in capsys.readouterr().err


class TestSiti:
    def test_constant_corpus_all_zero(self, tmp_path):
        fixture = tmp_path / "const"
        (fixture / "media").mkdir(parents=True)
        entries = [make_entry(i) for i in range(2)]
        write_manifest(entries, fixture / "manifest.json")
        for e in entries:
            frames = np.full((4, e.height, e.width), 100, dtype=np.uint8)
            write_y4m(FrameSequence(frames=frames, fps=8.0, fps_rational=(8, 1)),
                      fixture / "media" / f"{e.sequence_id}.y4m")
        (fixture / "config.txt").write_text(
            "manifest = manifest.json\nmedia_root = media\nscores = s.csv\n"
            "hm_root = hm\noutput_dir = out\n"
        )
        assert run(["siti", "--config", fixture / "config.txt"]) == 0
        rows = read_csv_rows(fixture / "out" / "siti.csv")
        assert len(rows) == 2
        for r in rows:
            assert float(r["si_mean"]) == 0.0
            assert float(r["ti_max"]) == 0.0

    def test_failed_run_leaves_no_partial_table(self, tmp_path, corpus_dir, capsys):
        media = tmp_path / "media"
        shutil.copytree(corpus_dir / "media", media)
        args = ["siti", "--config", corpus_dir / "config.txt",
                "--set", f"media_root={media}", "--set", f"output_dir={tmp_path / 'out'}"]
        (media / "seq05.y4m").rename(tmp_path / "seq05.y4m")
        assert run(args) == 3
        assert (f"media of sequence 'seq05' not found: {media / 'seq05.y4m'}"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()
        # an earlier table survives a failed run byte for byte
        (tmp_path / "seq05.y4m").rename(media / "seq05.y4m")
        assert run(args) == 0
        table = (tmp_path / "out" / "siti.csv").read_bytes()
        (media / "seq05.y4m").unlink()
        assert run(args) == 3
        assert list((tmp_path / "out").iterdir()) == [tmp_path / "out" / "siti.csv"]
        assert (tmp_path / "out" / "siti.csv").read_bytes() == table

    def test_matches_library_summaries(self, corpus_dir):
        assert run(["siti", "--config", corpus_dir / "config.txt",
                    "--set", "output_dir=out_siti"]) == 0
        rows = {r["sequence_id"]: r for r in read_csv_rows(corpus_dir / "out_siti" / "siti.csv")}
        for e in load_manifest(corpus_dir / "manifest.json"):
            expect = summarize_siti(load_y4m(corpus_dir / "media" / f"{e.sequence_id}.y4m"))
            got = rows[e.sequence_id]
            assert float(got["si_mean"]) == pytest.approx(expect.si_mean, abs=1e-6)
            assert float(got["ti_mean"]) == pytest.approx(expect.ti_mean, abs=1e-6)

    @pytest.mark.parametrize("shape, message", [
        ((8, 2, 4), "4x2 frames, SI needs at least 3x3"),
        ((1, 32, 64), "1 frame, TI needs at least 2"),
    ])
    def test_video_too_small_is_data_error_naming_the_file(self, tmp_path, capsys,
                                                           shape, message):
        video = one_video_fixture(tmp_path, np.zeros(shape, dtype=np.uint8))
        assert run(["siti", "--config", tmp_path / "config.txt"]) == 3
        assert f"data error: {video}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, value", MISTYPED_VALUES)
    def test_mistyped_manifest_value_exits_3(self, tmp_path, capsys, field, value):
        (tmp_path / "manifest.json").write_text(
            json.dumps([make_entry(0).__dict__ | {field: value}]), encoding="utf-8")
        (tmp_path / "config.txt").write_text(
            "manifest = manifest.json\nmedia_root = media\nscores = s.csv\n"
            "hm_root = hm\noutput_dir = out\n", encoding="utf-8")
        assert run(["siti", "--config", tmp_path / "config.txt"]) == 3
        assert f"manifest.json: entry 0: bad {field} " in capsys.readouterr().err


class TestHmStats:
    def test_summaries_written(self, corpus_dir):
        assert run(["hm-stats", "--config", corpus_dir / "config.txt",
                    "--set", "output_dir=out_hm"]) == 0
        rows = read_csv_rows(corpus_dir / "out_hm" / "hm_stats.csv")
        assert len(rows) == 8
        for r in rows:
            assert float(r["duration_s"]) > 0


    def test_nan_trace_is_data_error(self, tmp_path, corpus_dir, capsys):
        hm = tmp_path / "hm"
        shutil.copytree(corpus_dir / "hm", hm)
        copy_with_field(corpus_dir / "hm" / "seq02.csv", hm / "seq02.csv",
                        line=10, column=1, value="nan")
        assert run(["hm-stats", "--config", corpus_dir / "config.txt",
                    "--set", f"hm_root={hm}", "--set", f"output_dir={tmp_path / 'out'}"]) == 3
        assert "seq02.csv: line 10: non-finite value" in capsys.readouterr().err
        assert not (tmp_path / "out" / "hm_stats.csv").exists()


    def test_missing_trace_is_data_error(self, tmp_path, corpus_dir, capsys):
        hm = tmp_path / "hm"
        shutil.copytree(corpus_dir / "hm", hm)
        (hm / "seq02.csv").unlink()
        assert run(["hm-stats", "--config", corpus_dir / "config.txt",
                    "--set", f"hm_root={hm}", "--set", f"output_dir={tmp_path / 'out'}"]) == 3
        assert (f"head-movement trace of sequence 'seq02' not found: {hm / 'seq02.csv'}"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_single_sample_trace_is_data_error(self, tmp_path, corpus_dir, capsys):
        hm = tmp_path / "hm"
        shutil.copytree(corpus_dir / "hm", hm)
        lines = (hm / "seq02.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        (hm / "seq02.csv").write_text("".join(lines[:2]), encoding="utf-8")
        assert run(["hm-stats", "--config", corpus_dir / "config.txt",
                    "--set", f"hm_root={hm}", "--set", f"output_dir={tmp_path / 'out'}"]) == 3
        assert "seq02.csv: 1 sample(s) after collapsing duplicate timestamps" in (
            capsys.readouterr().err)


class TestSplit:
    def test_eight_sequences_split_7_1(self, corpus_dir):
        assert run(["split", "--config", corpus_dir / "config.txt",
                    "--set", "output_dir=out_split"]) == 0
        rows = read_csv_rows(corpus_dir / "out_split" / "split.csv")
        labels = [r["split"] for r in rows]
        assert labels.count("train") == 7
        assert labels.count("test") == 1

    def test_repeat_run_identical(self, corpus_dir):
        cfg = corpus_dir / "config.txt"
        run(["split", "--config", cfg, "--set", "output_dir=out_split2"])
        first = (corpus_dir / "out_split2" / "split.csv").read_bytes()
        run(["split", "--config", cfg, "--set", "output_dir=out_split2"])
        assert (corpus_dir / "out_split2" / "split.csv").read_bytes() == first

    @pytest.mark.parametrize("n,expected_test", [(10, 2), (300, 60)])
    def test_ratio_floor_for_test(self, tmp_path, n, expected_test):
        fixture = tmp_path / f"many{n}"
        fixture.mkdir()
        write_manifest([make_entry(i) for i in range(n)], fixture / "manifest.json")
        (fixture / "config.txt").write_text(
            "manifest = manifest.json\nmedia_root = media\nscores = s.csv\n"
            "hm_root = hm\noutput_dir = out\nsplit_ratio = 0.8\n"
        )
        assert run(["split", "--config", fixture / "config.txt"]) == 0
        labels = [r["split"] for r in read_csv_rows(fixture / "out" / "split.csv")]
        assert labels.count("test") == expected_test
        assert labels.count("train") == n - expected_test

    def test_negative_seed_exits_2(self, tmp_path, corpus_dir, capsys):
        assert run(["split", "--config", corpus_dir / "config.txt",
                    "--set", f"output_dir={tmp_path}", "--set", "split_seed=-1"]) == 2
        assert "split_seed must be >= 0, got -1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestExtractFeatures:
    def test_features_equal_preprocess_of_load_wav(self, corpus_dir):
        cfg, _ = load_config(corpus_dir / "config.txt")
        for entry in load_manifest(cfg.manifest):
            seq = entry.sequence_id
            got = _features(cfg, cfg.model, seq)
            want = model.preprocess_sequence(load_y4m(cfg.media_root / f"{seq}.y4m"),
                                              load_wav(cfg.media_root / f"{seq}.wav"),
                                              cfg.model, seq)
            assert got.sequence_id == want.sequence_id == seq
            for f in ("video", "audio", "lat_prior"):
                a, b = getattr(got, f), getattr(want, f)
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f

    def test_avqf_dumps(self, corpus_dir):
        assert run(["extract-features", "--config", corpus_dir / "config.txt",
                    "--set", "output_dir=out_feat"]) == 0
        video = read_features(corpus_dir / "out_feat" / "features" / "seq00_video.avqf")
        audio = read_features(corpus_dir / "out_feat" / "features" / "seq00_audio.avqf")
        assert video.shape == (8, 4, 16, 32)
        assert audio.shape == (2, 96, 64)

    def test_one_frame_clip_is_data_error(self, tmp_path, corpus_dir, capsys):
        fixture = tmp_path / "fixture"
        shutil.copytree(corpus_dir / "media", fixture / "media")
        entry = load_manifest(corpus_dir / "manifest.json")[0]
        video = fixture / "media" / f"{entry.sequence_id}.y4m"
        seq = load_y4m(video)
        write_y4m(FrameSequence(frames=walked_frames(seq, [0]), fps=seq.fps,
                                fps_rational=seq.fps_rational), video)
        (fixture / "manifest.json").write_text(json.dumps([entry.__dict__]), encoding="utf-8")
        (fixture / "config.txt").write_text(
            "manifest = manifest.json\nmedia_root = media\nscores = s.csv\n"
            "hm_root = hm\noutput_dir = out\n", encoding="utf-8")
        assert run(["extract-features", "--config", fixture / "config.txt"]) == 3
        assert f"{video}: 1 frames, the model takes 8" in capsys.readouterr().err
        assert not (fixture / "out").exists()

    def test_fewer_rows_than_bands_is_data_error_naming_the_file(self, tmp_path, capsys):
        # 8 frames of 4x2: enough frames for the model, but 2 rows for its 4 bands
        video = one_video_fixture(tmp_path, np.zeros((8, 2, 4), dtype=np.uint8))
        assert run(["extract-features", "--config", tmp_path / "config.txt"]) == 3
        assert f"data error: {video}: 2 rows, the model takes 4 latitude bands" in \
            capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_path_in_sequence_id_exits_3_and_writes_nothing(self, tmp_path, corpus_dir,
                                                            capsys):
        # valid media two levels above media_root, where "../../evil" points
        fixture = tmp_path / "a" / "fixture"
        (fixture / "media").mkdir(parents=True)
        shutil.copy(corpus_dir / "media" / "seq00.y4m", tmp_path / "a" / "evil.y4m")
        shutil.copy(corpus_dir / "media" / "seq00.wav", tmp_path / "a" / "evil.wav")
        entry = load_manifest(corpus_dir / "manifest.json")[0].__dict__
        (fixture / "manifest.json").write_text(
            json.dumps([entry | {"sequence_id": "../../evil"}]), encoding="utf-8")
        (fixture / "config.txt").write_text(
            "manifest = manifest.json\nmedia_root = media\nscores = s.csv\n"
            "hm_root = hm\noutput_dir = out\n", encoding="utf-8")
        before = sorted(tmp_path.rglob("*"))
        assert run(["extract-features", "--config", fixture / "config.txt"]) == 3
        assert "entry 0: sequence '../../evil': sequence_id must not contain" in \
            capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before


@pytest.fixture(scope="module")
def trained_dir(corpus_dir):
    """Short CLI training shared by train/evaluate/predict tests."""
    cfg = corpus_dir / "config.txt"
    overrides = ["output_dir=out_train", "train_steps=6", "batch_size=4",
                 "d_model=16", "fusion_blocks=2", "heads=2",
                 "band_channels=3,4", "audio_channels=2,2,3,3",
                 "frames_per_clip=4"]
    args = ["process-scores", "--config", cfg]
    for o in overrides:
        args += ["--set", o]
    assert main([str(a) for a in args]) == 0
    args[0] = "train"
    assert main([str(a) for a in args]) == 0
    return corpus_dir / "out_train", overrides


class TestTrain:
    def test_outputs_exist(self, trained_dir):
        out, _ = trained_dir
        assert (out / "model.avqc").is_file()
        rows = read_csv_rows(out / "train_log.csv")
        assert len(rows) == 6
        assert rows[0]["step"] == "1"
        assert all(np.isfinite(float(r["loss"])) for r in rows)

    def test_rerun_bit_identical(self, corpus_dir, trained_dir):
        out, overrides = trained_dir
        first = (out / "model.avqc").read_bytes()
        args = ["train", "--config", corpus_dir / "config.txt"]
        for o in overrides:
            args += ["--set", o]
        assert run(args) == 0
        assert (out / "model.avqc").read_bytes() == first

    def test_missing_mos_table_is_validation_error(self, corpus_dir):
        assert run(["train", "--config", corpus_dir / "config.txt",
                    "--set", "output_dir=out_nomos"]) == 2

    def test_missing_media_is_data_error(self, tmp_path, corpus_dir):
        fixture = tmp_path / "nomedia"
        fixture.mkdir()
        write_manifest([make_entry(0), make_entry(1)], fixture / "manifest.json")
        (fixture / "scores.csv").write_text(
            "subject_id,sequence_id,session_id,score,ssq_flag\n"
            + "".join(
                f"s{i},seq{j:03d},x,{40 + i + j},false\n"
                for i in range(3) for j in range(2)
            )
        )
        (fixture / "config.txt").write_text(
            "manifest = manifest.json\nmedia_root = media\nscores = scores.csv\n"
            "hm_root = hm\noutput_dir = out\n"
        )
        assert run(["process-scores", "--config", fixture / "config.txt"]) == 0
        assert run(["train", "--config", fixture / "config.txt"]) == 3

    def test_negative_seed_exits_2(self, tmp_path, corpus_dir, trained_dir, capsys):
        out, _ = trained_dir
        assert run(["train", "--config", corpus_dir / "config.txt",
                    "--set", f"output_dir={tmp_path}", "--set", f"mos_table={out / 'mos.csv'}",
                    "--set", "train_steps=1", "--set", "seed=-1"]) == 2
        assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


    @staticmethod
    def forbid_work(monkeypatch):
        def no_work(*args):
            raise AssertionError("work done for an unwritable output")

        monkeypatch.setattr(model, "preprocess_sequence", no_work)
        monkeypatch.setattr(model, "train_model", no_work)

    @pytest.mark.parametrize("key", ["checkpoint", "output_dir"])
    def test_path_under_a_regular_file_fails_before_training(
            self, tmp_path, corpus_dir, trained_dir, monkeypatch, capsys, key):
        self.forbid_work(monkeypatch)
        out, _ = trained_dir
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        settings = {"output_dir": tmp_path / "out", "mos_table": out / "mos.csv",
                    "checkpoint": tmp_path / "m.avqc", key: blocker / "sub"}
        args = ["train", "--config", corpus_dir / "config.txt"]
        for k, v in settings.items():
            args += ["--set", f"{k}={v}"]
        assert run(args) == 2
        target = blocker / "sub" / "train_log.csv" if key == "output_dir" else blocker / "sub"
        assert f"error: cannot write {target}: Not a directory" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["blocker"]

    def test_directory_as_checkpoint_fails_before_training(
            self, tmp_path, corpus_dir, trained_dir, monkeypatch, capsys):
        self.forbid_work(monkeypatch)
        out, _ = trained_dir
        assert run(["train", "--config", corpus_dir / "config.txt",
                    "--set", f"output_dir={tmp_path}", "--set", f"mos_table={out / 'mos.csv'}",
                    "--set", f"checkpoint={tmp_path}"]) == 2
        assert f"error: cannot write {tmp_path}: Is a directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestEvaluate:
    def test_untrained_checkpoint_gives_finite_report(self, corpus_dir, trained_dir):
        out, overrides = trained_dir
        args = ["evaluate", "--config", corpus_dir / "config.txt", "--on", "all"]
        for o in overrides:
            args += ["--set", o]
        assert run(args) == 0
        rows = read_csv_rows(out / "metrics.csv")
        assert len(rows) == 1
        for key in ("plcc", "srocc", "krocc", "rmse"):
            assert np.isfinite(float(rows[0][key]))
        assert int(rows[0]["n"]) == 8

    def test_split_leakage_fatal(self, corpus_dir, trained_dir):
        out, overrides = trained_dir
        leaky = out / "split.csv"
        leaky.write_text("sequence_id,split\nseq00,train\nseq00,test\n")
        args = ["evaluate", "--config", corpus_dir / "config.txt", "--on", "test"]
        for o in overrides:
            args += ["--set", o]
        assert run(args) == 3
        leaky.unlink()

    def test_empty_subset_exits_2_with_the_hint(self, tmp_path, corpus_dir, trained_dir,
                                                capsys):
        # no split file, and the manifest's split column assigns nothing
        _, overrides = trained_dir
        args = ["evaluate", "--config", corpus_dir / "config.txt", "--on", "test",
                "--set", f"split_file={tmp_path / 'split.csv'}"]
        for o in overrides:
            args += ["--set", o]
        assert run(args) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: subset 'test' is empty: run the split command or set the manifest "
            "split column"]

    def test_subset_too_small_to_fit_exits_2_before_the_checkpoint_is_read(
            self, tmp_path, corpus_dir, trained_dir, capsys, monkeypatch):
        # the synthetic corpus split at the default ratio: 1 test sequence
        _, overrides = trained_dir
        split = tmp_path / "split.csv"
        split.write_text("sequence_id,split\n" + "".join(
            f"seq{i:02d},{'test' if i == 7 else 'train'}\n" for i in range(8)))

        def not_called(*args, **kwargs):
            raise AssertionError("read or preprocessed before the subset was checked")

        monkeypatch.setattr(model.AVQAModel, "load", not_called)
        monkeypatch.setattr("avq360.cli._features", not_called)
        args = ["evaluate", "--config", corpus_dir / "config.txt", "--on", "test",
                "--set", f"split_file={split}"]
        for o in overrides:
            args += ["--set", o]
        assert run(args) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: subset 'test' has 1 sequence(s), the logistic fit needs at least 5: "
            "evaluate more of the corpus (--on all)"]

    def test_split_row_without_label_is_data_error(self, corpus_dir, trained_dir, capsys):
        out, overrides = trained_dir
        short = out / "short_split.csv"
        short.write_text("sequence_id,split\nseq00\n")
        args = ["evaluate", "--config", corpus_dir / "config.txt", "--on", "test",
                "--set", f"split_file={short}"]
        for o in overrides:
            args += ["--set", o]
        assert run(args) == 3
        assert "expected 2 fields" in capsys.readouterr().err

    @pytest.mark.parametrize("override", ["frames_per_clip=8", "bands=2"])
    def test_preprocesses_with_checkpoint_config(self, corpus_dir, trained_dir, override):
        out, overrides = trained_dir
        key = override.split("=")[0]
        args = ["evaluate", "--config", corpus_dir / "config.txt", "--on", "all"]
        for o in overrides:
            args += ["--set", o]
        assert run(args) == 0
        expected = (out / "metrics.csv").read_bytes()
        (out / "metrics.csv").unlink()
        args = ["evaluate", "--config", corpus_dir / "config.txt", "--on", "all",
                "--set", override]
        for o in overrides:
            if not o.startswith(key + "="):
                args += ["--set", o]
        assert run(args) == 0
        assert (out / "metrics.csv").read_bytes() == expected

    def test_degenerate_fit_is_reported_on_stdout(self, tmp_path, corpus_dir, trained_dir,
                                                  capsys, monkeypatch):
        # the first 8 points of test_metrics' collapsed-fit case: the fitted
        # curve goes flat, so the report holds the identity mapping
        pred = [84.6088, 85.2264, 87.6288, 87.1802, 88.1632, 85.5861, 89.9623, 88.8313]
        mos = [84.4166, 80.94, 73.6788, 67.4811, 63.2739, 56.4764, 53.5722, 45.7547]
        out, overrides = trained_dir
        table = tmp_path / "mos.csv"
        write_mos_csv([MOSRecord(f"seq{i:02d}", m, 0.0, 19, 0.0) for i, m in enumerate(mos)],
                      table)
        monkeypatch.setattr(model.AVQAModel, "predict",
                            lambda self, feat: pred[int(feat.sequence_id[3:])])
        args = ["evaluate", "--config", corpus_dir / "config.txt", "--on", "all",
                "--set", f"mos_table={table}", "--set", f"output_dir={tmp_path / 'out'}",
                "--set", f"checkpoint={out / 'model.avqc'}"]
        for o in overrides:
            if not o.startswith("output_dir="):
                args += ["--set", o]
        assert run(args) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[-3:] == [
            "n=8 plcc=-0.7237 srocc=-0.8095 krocc=-0.6429 rmse=25.6119",
            "warning: logistic fit degenerated to the identity mapping",
            f"report: {tmp_path / 'out' / 'metrics.csv'}",
        ]
        assert captured.err == ""
        # the flag is reported, not written: the table is the one it always was
        assert (tmp_path / "out" / "metrics.csv").read_bytes() == (
            b"plcc,srocc,krocc,rmse,n,b1,b2,b3,b4\r\n"
            b"-0.723730,-0.809524,-0.642857,25.611892,8,"
            b"37.510751,65.699213,112.295673,0.465068\r\n")


    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_nan_mos_is_data_error(self, tmp_path, corpus_dir, trained_dir, command, capsys):
        out, overrides = trained_dir
        bad = tmp_path / "mos.csv"
        copy_with_field(out / "mos.csv", bad, line=5, column=1, value="nan")
        args = [command, "--config", corpus_dir / "config.txt", "--on", "all",
                "--set", f"mos_table={bad}", "--set", f"output_dir={tmp_path / 'out'}"]
        for o in overrides:
            if not o.startswith("output_dir="):
                args += ["--set", o]
        if command == "evaluate":
            args += ["--set", f"checkpoint={out / 'model.avqc'}"]
        assert run(args) == 3
        assert f"{bad}: line 5: mos nan outside" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestFeatureFiles:
    """``<output_dir>/features/<sequence_id>.avqc``: written by evaluate when
    it is missing or stale, read by every command that preprocesses while
    its key matches, never written by predict, train or extract-features."""

    @pytest.fixture
    def env(self, tmp_path, corpus_dir, trained_dir):
        """A copy of the corpus media and the ``--set`` settings that read it
        and write under ``tmp_path/out``, with the trained checkpoint."""
        shutil.copytree(corpus_dir / "media", tmp_path / "media")
        out, overrides = trained_dir
        settings = dict(o.split("=", 1) for o in overrides)
        settings.update(output_dir=tmp_path / "out", media_root=tmp_path / "media",
                        mos_table=out / "mos.csv", checkpoint=out / "model.avqc")
        return tmp_path, [f"{k}={v}" for k, v in settings.items()]

    @staticmethod
    def argv(command, corpus_dir, sets, *extra):
        args = [command, "--config", corpus_dir / "config.txt", *extra]
        for s in sets:
            args += ["--set", s]
        return args

    @staticmethod
    def no_preprocessing(monkeypatch):
        def not_called(*args, **kwargs):
            raise AssertionError("preprocessed or opened media")

        for name in ("load_y4m", "load_wav"):
            monkeypatch.setattr(cli, name, not_called)
        monkeypatch.setattr(model, "preprocess_sequence", not_called)

    @staticmethod
    def snapshot(root):
        return {p.name: p.read_bytes() for p in (root / "out" / "features").iterdir()}

    def evaluate(self, corpus_dir, sets, capsys):
        assert run(self.argv("evaluate", corpus_dir, sets, "--on", "all")) == 0
        capsys.readouterr()

    def test_evaluate_twice_reads_the_features_it_wrote(self, env, corpus_dir, monkeypatch,
                                                        capsys):
        root, sets = env
        args = self.argv("evaluate", corpus_dir, sets, "--on", "all")
        assert run(args) == 0
        first = capsys.readouterr().out
        metrics = (root / "out" / "metrics.csv").read_bytes()
        assert sorted(self.snapshot(root)) == [f"seq{i:02d}.avqc" for i in range(8)]
        self.no_preprocessing(monkeypatch)
        assert run(args) == 0
        assert capsys.readouterr().out == first
        assert (root / "out" / "metrics.csv").read_bytes() == metrics

    def test_predict_reads_features_but_never_writes_them(self, env, corpus_dir, monkeypatch,
                                                          capsys):
        root, sets = env
        predict = self.argv("predict", corpus_dir, sets, "--sequence", "seq03")
        assert run(predict) == 0
        cold = capsys.readouterr().out.splitlines()[-1]
        assert not (root / "out").exists()
        self.evaluate(corpus_dir, sets, capsys)
        self.no_preprocessing(monkeypatch)
        assert run(predict) == 0
        assert capsys.readouterr().out.splitlines()[-1] == cold

    def test_train_and_extract_features_read_them_but_never_write_them(
            self, env, corpus_dir, monkeypatch, capsys):
        root, sets = env
        sets_train = [s for s in sets if not s.startswith("checkpoint=")] + \
            [f"checkpoint={root / 'retrained.avqc'}"]
        dumps = [root / "out" / "features" / f"seq03_{f}.avqf" for f in ("video", "audio")]

        def train_and_dump():
            assert run(self.argv("train", corpus_dir, sets_train)) == 0
            assert run(self.argv("extract-features", corpus_dir, sets)) == 0
            capsys.readouterr()
            return [p.read_bytes() for p in
                    (root / "retrained.avqc", root / "out" / "train_log.csv", *dumps)]

        cold = train_and_dump()
        assert not list((root / "out" / "features").glob("*.avqc*"))
        self.evaluate(corpus_dir, sets, capsys)
        written = self.snapshot(root)
        self.no_preprocessing(monkeypatch)
        assert train_and_dump() == cold
        assert self.snapshot(root) == written

    def test_read_arrays_are_the_preprocessed_float64_ones(self, env, corpus_dir, monkeypatch,
                                                           capsys):
        root, sets = env
        self.evaluate(corpus_dir, sets, capsys)
        cfg, _ = load_config(corpus_dir / "config.txt", sets)
        self.no_preprocessing(monkeypatch)
        read = [_features(cfg, cfg.model, f"seq{i:02d}") for i in range(8)]
        monkeypatch.undo()
        for i, got in enumerate(read):
            seq = f"seq{i:02d}"
            want = _preprocessed(cfg, seq)
            assert got.sequence_id == seq
            for f in ("video", "audio", "lat_prior"):
                a, b = getattr(got, f), getattr(want, f)
                assert a.dtype == np.float64 and np.array_equal(a, b), f

    @pytest.mark.parametrize("change", ["same-size media rewrite", "media copied elsewhere",
                                        "frames_per_clip", "bands"])
    def test_a_changed_input_recomputes_and_rewrites_the_file(self, env, corpus_dir, change,
                                                              capsys):
        root, sets = env
        self.evaluate(corpus_dir, sets, capsys)
        path = root / "out" / "features" / "seq03.avqc"
        before = read_checkpoint(path)
        cfg, _ = load_config(corpus_dir / "config.txt", sets)
        model_cfg = cfg.model
        if change in ("same-size media rewrite", "media copied elsewhere"):
            if change == "media copied elsewhere":
                # a copy that keeps the modification times, then one frame
                # changed and its time set back: only the place differs
                shutil.copytree(root / "media", root / "media2")
                sets = [s for s in sets if not s.startswith("media_root=")] + \
                    [f"media_root={root / 'media2'}"]
                cfg, _ = load_config(corpus_dir / "config.txt", sets)
            video = cfg.media_root / "seq03.y4m"
            seq, st = load_y4m(video), video.stat()
            write_y4m(FrameSequence(frames=255 - walked_frames(seq), fps=seq.fps,
                                    fps_rational=seq.fps_rational), video)
            assert video.stat().st_size == st.st_size
            shift = 10 ** 9 if change == "same-size media rewrite" else 0
            os.utime(video, ns=(st.st_atime_ns, st.st_mtime_ns + shift))
        else:
            model_cfg = dataclasses.replace(model_cfg, **{change: 2})
        with ExitStack() as staged:
            _features(cfg, model_cfg, "seq03", staged)
            # written in full and closed at once, renamed when the stack closes
            assert read_checkpoint(path.with_name("seq03.avqc.tmp")).keys() == before.keys()
        after = read_checkpoint(path)
        assert not np.array_equal(after["meta/key"], before["meta/key"])
        assert not np.array_equal(after["video"], before["video"])
        want = _preprocessed(cfg, "seq03", model_cfg)
        for f in ("video", "audio", "lat_prior"):
            np.testing.assert_array_equal(after[f], getattr(want, f))

    def test_evaluate_failing_on_a_later_sequence_leaves_no_feature_file(
            self, env, corpus_dir, capsys):
        root, sets = env
        write_wav(AudioClip(samples=np.zeros((1, 100)), sample_rate=16000),
                  root / "media" / "seq06.wav")
        assert run(self.argv("evaluate", corpus_dir, sets, "--on", "all")) == 3
        assert f"data error: {root / 'media' / 'seq06.wav'}: audio of 100 samples" in \
            capsys.readouterr().err
        assert not (root / "out").exists()

    def test_evaluate_failing_after_a_stale_file_leaves_it_as_it_was(
            self, env, corpus_dir, capsys):
        root, sets = env
        self.evaluate(corpus_dir, sets, capsys)
        before = self.snapshot(root)
        # seq01's file goes stale and is recomputed before seq06 fails
        video = root / "media" / "seq01.y4m"
        os.utime(video, ns=(video.stat().st_atime_ns, video.stat().st_mtime_ns + 10 ** 9))
        write_wav(AudioClip(samples=np.zeros((1, 100)), sample_rate=16000),
                  root / "media" / "seq06.wav")
        assert run(self.argv("evaluate", corpus_dir, sets, "--on", "all")) == 3
        assert f"data error: {root / 'media' / 'seq06.wav'}: audio of 100 samples" in \
            capsys.readouterr().err
        assert self.snapshot(root) == before

    def test_a_failed_rename_leaves_no_new_file(self, env, corpus_dir, monkeypatch, capsys):
        root, sets = env
        replace, renames = Path.replace, []

        def second_rename_fails(self, target):
            if self.name.endswith(".avqc.tmp"):
                renames.append(self)
                if len(renames) == 2:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return replace(self, target)

        monkeypatch.setattr(Path, "replace", second_rename_fails)
        assert run(self.argv("evaluate", corpus_dir, sets, "--on", "all")) == 2
        features = root / "out" / "features"
        # renamed in reverse order of writing: seq07's first, then seq06's
        assert capsys.readouterr().err.splitlines() == [
            f"error: cannot write {features / 'seq06.avqc'}: {os.strerror(errno.ENOSPC)}"]
        # seq07 was renamed before the failure and stays, keyed to its media
        assert sorted(p.name for p in features.iterdir()) == ["seq07.avqc"]
        assert not (root / "out" / "metrics.csv").exists()
        monkeypatch.undo()
        cfg, _ = load_config(corpus_dir / "config.txt", sets)
        self.no_preprocessing(monkeypatch)
        assert _features(cfg, cfg.model, "seq07").sequence_id == "seq07"

    @pytest.mark.parametrize("edit, message", [
        (lambda t: t.update(video=t["video"][:1]),
         "video has shape (1, 4, 16, 32), the model takes (4, 4, 16, 32)"),
        (lambda t: t.update(lat_prior=t["lat_prior"][:3]),
         "lat_prior has shape (3,), the model takes (4,)"),
        (lambda t: t.update(audio=t["audio"][:, :, :3]),
         "audio has shape (2, 96, 3), the model takes (P, 96, 64) with P >= 1"),
        (lambda t: t.pop("lat_prior"),
         "not a feature file, it holds ['audio', 'meta/key', 'video']"),
    ])
    def test_feature_file_that_does_not_fit_is_data_error(self, env, corpus_dir, edit,
                                                          message, capsys):
        root, sets = env
        self.evaluate(corpus_dir, sets, capsys)
        path = root / "out" / "features" / "seq03.avqc"
        tensors = read_checkpoint(path)
        edit(tensors)
        write_checkpoint(path, tensors, dtype="<f8")
        assert run(self.argv("predict", corpus_dir, sets, "--sequence", "seq03")) == 3
        assert capsys.readouterr().err == f"data error: {path}: {message}\n"


def _preprocessed(cfg, seq, model_cfg=None):
    """The features of ``seq`` computed from its media, as the library does."""
    return model.preprocess_sequence(load_y4m(cfg.media_root / f"{seq}.y4m"),
                                     load_wav(cfg.media_root / f"{seq}.wav",
                                              audiofe.SAMPLE_RATE), model_cfg or cfg.model, seq)


class TestPredict:
    def test_deterministic_scores(self, corpus_dir, trained_dir, capsys):
        _, overrides = trained_dir
        args = ["predict", "--config", corpus_dir / "config.txt",
                "--sequence", "seq03"]
        for o in overrides:
            args += ["--set", o]
        assert run(args) == 0
        first = capsys.readouterr().out.strip().splitlines()[-1]
        assert run(args) == 0
        second = capsys.readouterr().out.strip().splitlines()[-1]
        assert first == second
        score = float(first.split(":")[1])
        assert 0.0 < score < 100.0

    def test_nan_checkpoint_meta_is_data_error(self, tmp_path, corpus_dir, trained_dir, capsys):
        out, overrides = trained_dir
        tensors = read_checkpoint(out / "model.avqc")
        tensors["meta/bands"] = np.float32("nan")
        bad = tmp_path / "nan_bands.avqc"
        write_checkpoint(bad, tensors)
        args = ["predict", "--config", corpus_dir / "config.txt",
                "--sequence", "seq03", "--set", f"checkpoint={bad}"]
        for o in overrides:
            args += ["--set", o]
        assert run(args) == 3
        assert "meta/bands" in capsys.readouterr().err

    def test_checkpoint_of_older_format_is_data_error(
            self, tmp_path, corpus_dir, trained_dir, capsys):
        out, overrides = trained_dir
        tensors = {**read_checkpoint(out / "model.avqc"), **OLDER_FORMAT_META}
        bad = tmp_path / "older.avqc"
        write_checkpoint(bad, tensors)
        args = ["predict", "--config", corpus_dir / "config.txt",
                "--sequence", "seq03", "--set", f"checkpoint={bad}"]
        for o in overrides:
            args += ["--set", o]
        assert run(args) == 3
        assert (f"unknown architecture metadata {sorted(OLDER_FORMAT_META)}"
                in capsys.readouterr().err)

    def test_more_frames_than_the_clip_holds_is_data_error(
            self, tmp_path, corpus_dir, trained_dir, capsys):
        # frames_per_clip sizes no parameter; 2**31 frames of the trained
        # model's input would be 32 TiB, so the count is checked first
        out, overrides = trained_dir
        tensors = read_checkpoint(out / "model.avqc")
        tensors["meta/frames_per_clip"] = np.float32(2 ** 31)
        bad = tmp_path / "many_frames.avqc"
        write_checkpoint(bad, tensors)
        args = ["predict", "--config", corpus_dir / "config.txt",
                "--sequence", "seq03", "--set", f"checkpoint={bad}"]
        for o in overrides:
            args += ["--set", o]
        assert run(args) == 3
        video = corpus_dir / "media" / "seq03.y4m"
        assert f"{video}: 8 frames, the model takes 2147483648" in capsys.readouterr().err

    def test_rank_65_checkpoint_is_data_error(self, tmp_path, corpus_dir, trained_dir, capsys):
        _, overrides = trained_dir
        bad = tmp_path / "rank65.avqc"
        bad.write_bytes(with_crc(b"AVQC" + struct.pack("<IIII", 2, 1, 4, 1) + b"a"
                                 + struct.pack("<66I", 65, *[0] * 65)))
        args = ["predict", "--config", corpus_dir / "config.txt",
                "--sequence", "seq03", "--set", f"checkpoint={bad}"]
        for o in overrides:
            args += ["--set", o]
        assert run(args) == 3
        assert "tensor rank 65 at offset 21 exceeds 64" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_checkpoint_input_size_above_cap_exits_3_before_preprocessing(
            self, tmp_path, corpus_dir, trained_dir, command, capsys, monkeypatch):
        out, overrides = trained_dir
        tensors = read_checkpoint(out / "model.avqc")
        # the band input size is a constant, not a stored field: a file that
        # records one, however wide, is refused before anything is sized by it
        tensors["meta/band_input_hw"] = np.array([16, 4194304], dtype=np.float32)
        bad = tmp_path / "wide_band.avqc"
        write_checkpoint(bad, tensors)

        def no_preprocessing(*args, **kwargs):
            raise AssertionError("preprocessing ran")

        monkeypatch.setattr(model, "preprocess_sequence", no_preprocessing)
        args = [command, "--config", corpus_dir / "config.txt",
                "--set", f"checkpoint={bad}"]
        args += ["--on", "all"] if command == "evaluate" else ["--sequence", "seq03"]
        for o in overrides:
            args += ["--set", o]
        assert run(args) == 3
        assert ("unknown architecture metadata ['meta/band_input_hw']"
                in capsys.readouterr().err)

    def test_zero_sample_rate_wav_is_data_error(self, tmp_path, corpus_dir, trained_dir, capsys):
        _, overrides = trained_dir
        media = tmp_path / "media"
        shutil.copytree(corpus_dir / "media", media)
        raw = bytearray((media / "seq03.wav").read_bytes())
        raw[24:28] = bytes(4)  # fmt chunk sample rate
        (media / "seq03.wav").write_bytes(bytes(raw))
        args = ["predict", "--config", corpus_dir / "config.txt",
                "--sequence", "seq03", "--set", f"media_root={media}"]
        for o in overrides:
            args += ["--set", o]
        assert run(args) == 3
        assert "seq03.wav: sample rate 0" in capsys.readouterr().err

    def test_sample_rate_below_8000_wav_is_data_error(self, tmp_path, corpus_dir, trained_dir,
                                                      capsys):
        _, overrides = trained_dir
        media = tmp_path / "media"
        shutil.copytree(corpus_dir / "media", media)
        raw = bytearray((media / "seq03.wav").read_bytes())
        raw[24:28] = struct.pack("<I", 50)  # fmt chunk sample rate
        (media / "seq03.wav").write_bytes(bytes(raw))
        args = ["predict", "--config", corpus_dir / "config.txt",
                "--sequence", "seq03", "--set", f"media_root={media}"]
        for o in overrides:
            args += ["--set", o]
        assert run(args) == 3
        assert "seq03.wav: sample rate 50" in capsys.readouterr().err

    @staticmethod
    def predict_with_media(corpus_dir, trained_dir, media):
        """Predict seq03 from ``media``; returns the command line."""
        _, overrides = trained_dir
        args = ["predict", "--config", corpus_dir / "config.txt",
                "--sequence", "seq03", "--set", f"media_root={media}"]
        for o in overrides:
            args += ["--set", o]
        return args

    def test_frame_not_2_to_1_is_data_error_naming_the_sequence(self, tmp_path, corpus_dir,
                                                                trained_dir, capsys):
        # the manifest says 64x32; the file's own header says 66x32
        media = tmp_path / "media"
        shutil.copytree(corpus_dir / "media", media)
        write_y4m(FrameSequence(frames=np.zeros((8, 32, 66), dtype=np.uint8), fps=8.0,
                                fps_rational=(8, 1)), media / "seq03.y4m")
        assert run(self.predict_with_media(corpus_dir, trained_dir, media)) == 3
        assert capsys.readouterr().err == (
            f"data error: {media / 'seq03.y4m'}: frame 66x32 is not 2:1 ERP\n")

    def test_short_wav_prints_one_line_naming_the_sequence(self, tmp_path, corpus_dir,
                                                           trained_dir):
        media = tmp_path / "media"
        shutil.copytree(corpus_dir / "media", media)
        write_wav(AudioClip(samples=np.zeros((1, 100)), sample_rate=16000),
                  media / "seq03.wav")
        done = run_process(self.predict_with_media(corpus_dir, trained_dir, media))
        assert done.returncode == 3
        # one line, and no Python warning ahead of it
        assert done.stderr.splitlines() == [
            f"data error: {media / 'seq03.wav'}: audio of 100 samples at 16000 Hz "
            "is shorter than one 25 ms analysis frame"]

    def test_unknown_sequence_is_validation_error(self, corpus_dir, trained_dir):
        _, overrides = trained_dir
        args = ["predict", "--config", corpus_dir / "config.txt",
                "--sequence", "nope"]
        for o in overrides:
            args += ["--set", o]
        assert run(args) == 2


class TestOutputPaths:
    # each command that writes, a config key naming where, and for output_dir
    # the file it writes there (a file key names the file itself)
    WRITERS = [
        ("process-scores", "mos_table", None),
        ("siti", "output_dir", "siti.csv"),
        ("hm-stats", "output_dir", "hm_stats.csv"),
        ("split", "split_file", None),
        ("extract-features", "output_dir", "features/seq00_video.avqf"),
        ("train", "checkpoint", None),
        ("train", "output_dir", "train_log.csv"),
        ("evaluate", "output_dir", "metrics.csv"),
    ]

    @staticmethod
    def args(command, corpus_dir, trained_dir, key, target, tmp_path):
        out, overrides = trained_dir
        settings = dict(o.split("=", 1) for o in overrides)
        settings.update(output_dir=tmp_path / "base", mos_table=out / "mos.csv",
                        train_steps=1)
        if command == "evaluate":
            settings["checkpoint"] = out / "model.avqc"
        settings[key] = target
        args = [command, "--config", corpus_dir / "config.txt"]
        args += ["--on", "all"] if command == "evaluate" else []
        for k, v in settings.items():
            args += ["--set", f"{k}={v}"]
        return args

    @pytest.mark.parametrize("command,key,name", WRITERS)
    def test_writes_into_a_directory_not_made_yet(self, tmp_path, corpus_dir, trained_dir,
                                                  command, key, name):
        new = tmp_path / "new" / "deeper"
        target = new if name else new / "file"
        assert run(self.args(command, corpus_dir, trained_dir, key, target, tmp_path)) == 0
        assert (target / name if name else target).is_file()

    @pytest.mark.parametrize("command,key,name", WRITERS)
    def test_path_under_a_regular_file_exits_2(self, tmp_path, corpus_dir, trained_dir,
                                               command, key, name, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        target = blocker / "sub" if name else blocker / "file"
        assert run(self.args(command, corpus_dir, trained_dir, key, target, tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ") and "Traceback" not in err


class TestConfigHandling:
    def test_missing_config_file(self, tmp_path):
        assert run(["siti", "--config", tmp_path / "none.txt"]) == 2

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.txt"
        cfg.write_text(
            "manifest = m.json\nmedia_root = media\nscores = s.csv\n"
            "hm_root = hm\noutput_dir = out\nwhatever = 3\n"
        )
        assert run(["siti", "--config", cfg]) == 2

    def test_bad_override_format(self, corpus_dir):
        assert run(["siti", "--config", corpus_dir / "config.txt",
                    "--set", "lr:0.1"]) == 2

    def test_comment_only_override_exits_2(self, tmp_path, corpus_dir, capsys):
        assert run(["split", "--config", corpus_dir / "config.txt",
                    "--set", f"output_dir={tmp_path}", "--set", "#split_seed=3"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: --set '#split_seed=3': expected 'key = value'"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("override", [
        "heads=0", "d_model=0", "band_channels=8,0,16", "audio_channels=8,16,32,0",
        "band_channels=8,,16", "lr=inf",
    ])
    def test_invalid_model_config_exits_2(self, tmp_path, corpus_dir, trained_dir, override):
        # a valid MOS table, so only the model config can stop the run
        out, _ = trained_dir
        assert run(["train", "--config", corpus_dir / "config.txt",
                    "--set", f"output_dir={tmp_path}", "--set", f"mos_table={out / 'mos.csv'}",
                    "--set", "train_steps=1", "--set", override]) == 2

    # the input geometry and feed-forward width are constants: setting one,
    # even to its value, is refused
    @pytest.mark.parametrize("override", ["band_input_hw=16,32", "patch_frames=96",
                                          "num_mel=64", "ff_mult=2"])
    def test_fixed_geometry_key_exits_2(self, tmp_path, corpus_dir, trained_dir, override,
                                        capsys):
        out, _ = trained_dir
        assert run(["train", "--config", corpus_dir / "config.txt",
                    "--set", f"output_dir={tmp_path}", "--set", f"mos_table={out / 'mos.csv'}",
                    "--set", "train_steps=1", "--set", override]) == 2
        key = override.split("=")[0]
        assert f"unknown config key {key!r}" in capsys.readouterr().err

    def test_bad_ratio_rejected(self, corpus_dir):
        assert run(["split", "--config", corpus_dir / "config.txt",
                    "--set", "split_ratio=1.5"]) == 2
