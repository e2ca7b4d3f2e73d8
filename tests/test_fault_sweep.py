"""The exit-code rule, held by one sweep over every input of every command.

Each command runs in-process (``cli.main``) on the synthetic corpus with
the tiny model, once for each input file it reads and each fault of
``FAULTS``, and once for each invariant break of ``BREAKS`` of those
inputs. The rule, stated beside the exit codes in README:

- a fault in the content of an input file (the manifest, a sequence's
  ``.y4m``, ``.wav`` or head-movement trace, the scores, MOS and split
  tables, the checkpoint, a sequence's feature file), or a per-sequence
  file that ``media_root`` or ``hm_root`` lacks, exits 3 with one ``data
  error:`` line naming the file;
- a fault in the config file, or a configured path that names no file,
  exits 2 with one ``error:`` line; a directory there says "is a
  directory".

A command that fails prints no traceback and adds no file, not even the
feature files ``evaluate`` wrote for the sequences before the fault. A
missing or stale feature file only makes the command compute the features
again, so the feature file takes only its invariant break, none of
``FAULTS``. (The one linked into a case is keyed to the corpus's own media
paths: a command reads and checks it, finds it stale and preprocesses.) The
cases that still exit 0 are listed in ``ACCEPTED``, each with the reason
its input is still valid for that command.
"""

import dataclasses
import io
import json
import os
import struct

import numpy as np
import pytest

from avq360 import subjective, synthetic
from avq360.cli import main
from avq360.manifest import AudioClip, FrameSequence, load_y4m, write_wav, write_y4m
from avq360.nn import read_checkpoint, write_checkpoint, write_tensor_record

from oracles import walked_frames, with_crc

SEQ = "seq05"  # the sequence whose media and trace are faulted, on the test side
# The tiny model of the gradient checks, trained for 2 steps. split_ratio
# puts 6 of the 8 sequences on the test side, enough for evaluate's fit.
SETTINGS = ["bands=2", "band_channels=2,3", "d_model=8", "fusion_blocks=2", "heads=2",
            "audio_channels=1,2,2,3", "frames_per_clip=2", "train_steps=2",
            "batch_size=2", "split_ratio=0.25"]
SET_ARGS = [arg for setting in SETTINGS for arg in ("--set", setting)]

# input -> its path in a case directory
INPUTS = {
    "config": "config.txt",
    "manifest": "manifest.json",
    "scores": "scores.csv",
    "mos": "mos.csv",
    "split": "split.csv",
    "checkpoint": "model.avqc",
    "y4m": f"media/{SEQ}.y4m",
    "wav": f"media/{SEQ}.wav",
    "trace": f"hm/{SEQ}.csv",
    "features": f"out/features/{SEQ}.avqc",
}
PER_SEQUENCE = ("y4m", "wav", "trace")  # the files media_root and hm_root hold
CACHES = ("features",)  # inputs that take no fault of FAULTS
# the config keys of the inputs that another command writes
WRITTEN = {"mos": "mos_table", "split": "split_file", "checkpoint": "checkpoint"}

# command -> (its arguments besides --config and --set, the inputs it reads)
COMMANDS = {
    "process-scores": ([], ("config", "scores")),
    "siti": ([], ("config", "manifest", "y4m")),
    "hm-stats": ([], ("config", "manifest", "trace")),
    "split": ([], ("config", "manifest")),
    "extract-features": ([], ("config", "manifest", "y4m", "wav", "features")),
    "train": (["--on", "all"], ("config", "manifest", "mos", "y4m", "wav", "features")),
    "evaluate": (["--on", "test"], ("config", "manifest", "mos", "split", "checkpoint",
                                    "y4m", "wav", "features")),
    "predict": (["--sequence", SEQ],
                ("config", "manifest", "checkpoint", "y4m", "wav", "features")),
}


def config_text(reads) -> str:
    """A config that takes each input a command reads from its ``INPUTS``
    path and writes every output under ``out``."""
    lines = ["manifest = manifest.json", "media_root = media", "scores = scores.csv",
             "hm_root = hm", "output_dir = out"]
    lines += [f"{key} = {INPUTS[name]}" for name, key in WRITTEN.items() if name in reads]
    return "\n".join(lines) + "\n"


# A fault writes the broken input at dst from the valid one at src; other
# is the valid file of OTHER[input].
def _bytes(change):
    def fault(src, dst, other):
        dst.write_bytes(change(src.read_bytes(), other.read_bytes()))
    return fault


FAULTS = {
    "missing": lambda src, dst, other: None,
    "empty": _bytes(lambda raw, _: b""),
    "cut in half": _bytes(lambda raw, _: raw[: len(raw) // 2]),
    "one byte": _bytes(lambda raw, _: raw[:1]),
    "zeroed": _bytes(lambda raw, _: bytes(len(raw))),
    "doubled": _bytes(lambda raw, _: raw + raw),
    "a directory": lambda src, dst, other: dst.mkdir(),
    "another input's bytes": _bytes(lambda _, other: other),
}
OTHER = {"config": "wav", "manifest": "scores", "scores": "mos", "mos": "split",
         "split": "trace", "trace": "checkpoint", "checkpoint": "y4m", "y4m": "wav",
         "wav": "manifest", "features": "checkpoint"}


def _manifest_edit(edit):
    def fault(src, dst, other):
        entries = json.loads(src.read_text(encoding="utf-8"))
        edit(entries)
        dst.write_text(json.dumps(entries), encoding="utf-8")
    return fault


def _one_rater(src, dst, other):
    header, *rows = src.read_text(encoding="utf-8").splitlines(keepends=True)
    first = rows[0].split(",")[0]
    dst.write_text(header + "".join(r for r in rows if r.split(",")[0] == first),
                   encoding="utf-8", newline="")


def _sequence_of_one_rater(src, dst, other):
    first = src.read_text(encoding="utf-8").splitlines()[1].split(",")
    dst.write_bytes(src.read_bytes() + f"{first[0]},seq999,{first[2]},50.0,false\r\n".encode())


def _constant_mos(src, dst, other):
    records = subjective.read_mos_csv(src).values()
    subjective.write_mos_csv([dataclasses.replace(r, mos=50.0) for r in records], dst)


def _checkpoint_edit(edit):
    def fault(src, dst, other):
        tensors = read_checkpoint(src)
        edit(tensors)
        write_checkpoint(dst, tensors)
    return fault


def _repeated_tensor(src, dst, other):
    raw = bytearray(src.read_bytes()[:-4])  # without the checksum
    raw[8:12] = struct.pack("<I", struct.unpack("<I", raw[8:12])[0] + 1)  # the tensor count
    record = io.BytesIO()
    write_tensor_record(record, np.full_like(read_checkpoint(src)["head.b"], 5.0))
    raw += struct.pack("<I", len(b"head.b")) + b"head.b"
    dst.write_bytes(with_crc(bytes(raw) + record.getvalue()))


def _payload_bit_flipped(src, dst, other):
    raw = bytearray(src.read_bytes())
    raw[-5] ^= 0x01  # in the last payload byte, ahead of the checksum
    dst.write_bytes(raw)


def _square_frames(src, dst, other):
    seq = load_y4m(src)
    write_y4m(FrameSequence(walked_frames(seq)[:, :, : seq.height], seq.fps,
                            seq.fps_rational), dst)


def _time_goes_back(src, dst, other):
    lines = src.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[2], lines[3] = lines[3], lines[2]
    dst.write_text("".join(lines), encoding="utf-8", newline="")


# invariant break -> (the input it breaks, the fault)
BREAKS = {
    "unknown scene": ("manifest", _manifest_edit(lambda e: e[5].update(scene="underwater"))),
    "duplicate id": ("manifest", _manifest_edit(
        lambda e: e[5].update(sequence_id=e[4]["sequence_id"]))),
    "one rater": ("scores", _one_rater),
    "a sequence of one rater": ("scores", _sequence_of_one_rater),
    "constant MOS": ("mos", _constant_mos),
    "constant predictions": ("checkpoint", _checkpoint_edit(
        lambda t: t.update({"head.w": np.zeros_like(t["head.w"])}))),
    "split leakage": ("split", _bytes(lambda raw, _: raw + f"{SEQ},train\r\n".encode())),
    "time goes back": ("trace", _time_goes_back),
    "square frames": ("y4m", _square_frames),
    "shorter than one analysis frame": ("wav", lambda src, dst, other: write_wav(
        AudioClip(samples=np.zeros((1, 100)), sample_rate=16000), dst)),
    "unknown meta tensor": ("checkpoint", _checkpoint_edit(
        lambda t: t.update({"meta/bogus": np.float32(1)}))),
    "a tensor twice": ("checkpoint", _repeated_tensor),
    "a NaN parameter": ("checkpoint", _checkpoint_edit(
        lambda t: t.update({"head.b": np.full_like(t["head.b"], np.nan)}))),
    "a payload bit flipped": ("checkpoint", _payload_bit_flipped),
    "a feature payload bit flipped": ("features", _payload_bit_flipped),
}

# (command, input, fault) -> why the faulted input is still valid there
ACCEPTED = {
    ("train", "mos", "constant MOS"):
        "the loss is defined for any targets; only evaluate's correlations need them to vary",
    ("predict", "checkpoint", "constant predictions"):
        "a score of one sequence is defined for any weights; only evaluate correlates scores",
    ("siti", "y4m", "square frames"): "SI and TI are defined for any frame size",
}

CASES = [(command, name, fault)
         for command, (_, reads) in COMMANDS.items() for name in reads
         for fault in [*(FAULTS if name not in CACHES else ()),
                       *(b for b, (broken, _) in BREAKS.items() if broken == name)]]


def expected_exit(name: str, fault: str) -> int:
    if name == "config":
        return 2
    if fault in ("missing", "a directory") and name not in PER_SEQUENCE:
        return 2
    return 3


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """The valid inputs at their ``INPUTS`` paths: the synthetic corpus,
    its MOS table, its split, a checkpoint of the tiny model and the
    feature files its evaluation wrote; and under ``configs`` the config of
    each command."""
    root = tmp_path_factory.mktemp("sweep").resolve()
    synthetic.generate_corpus(root)
    (root / "config.txt").write_text(config_text(INPUTS), encoding="utf-8")
    for command in ("process-scores", "split", "train"):
        assert main([command, "--config", str(root / "config.txt"), *SET_ARGS]) == 0
    assert main(["evaluate", "--config", str(root / "config.txt"), "--on", "test",
                 *SET_ARGS]) == 0
    assert f"{SEQ},test" in (root / "split.csv").read_text(encoding="utf-8")
    (root / "configs").mkdir()
    for command, (_, reads) in COMMANDS.items():
        (root / "configs" / f"{command}.txt").write_text(config_text(reads), encoding="utf-8")
    return root


def valid_files(corpus, command):
    """case-relative path -> the valid file a case of ``command`` links there."""
    files = {INPUTS["config"]: corpus / "configs" / f"{command}.txt"}
    for rel in ("manifest.json", "scores.csv", "mos.csv", "split.csv", "model.avqc"):
        files[rel] = corpus / rel
    if "features" in COMMANDS[command][1]:
        files[INPUTS["features"]] = corpus / INPUTS["features"]
    for sub in ("media", "hm"):
        for path in sorted((corpus / sub).iterdir()):
            files[f"{sub}/{path.name}"] = path
    return files


@pytest.mark.parametrize("command, name, fault", CASES)
def test_fault_exits_by_the_rule(tmp_path, corpus, capsys, command, name, fault):
    case = tmp_path.resolve() / "case"
    files = valid_files(corpus, command)
    for rel, src in files.items():
        (case / rel).parent.mkdir(parents=True, exist_ok=True)
        if rel != INPUTS[name]:
            os.link(src, case / rel)
    target = case / INPUTS[name]
    make = FAULTS[fault] if fault in FAULTS else BREAKS[fault][1]
    make(files[INPUTS[name]], target, files[INPUTS[OTHER[name]]])
    before = sorted(case.rglob("*"))

    extra, _ = COMMANDS[command]
    rc = main([command, "--config", str(case / "config.txt"), *extra, *SET_ARGS])
    err = capsys.readouterr().err

    if (command, name, fault) in ACCEPTED:
        assert (rc, err) == (0, "")
        return
    want = expected_exit(name, fault)
    assert rc == want, err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1, err
    if want == 3:
        assert lines[0].startswith("data error: ") and str(target) in lines[0], lines
    else:
        assert lines[0].startswith("error: "), lines
        if fault == "a directory":
            assert f"is a directory: {target}" in lines[0], lines
    assert sorted(case.rglob("*")) == before
