"""A failed write is an error, not a traceback.

Each case writes every output once with the commands that make them
(``process-scores``, ``train``, ``evaluate --on all``, ``extract-features``),
then runs the command that writes one output again while the disk is full
for that output: ENOSPC from its first write, or from closing it (the flush
of bytes still buffered), or an I/O error from the rename over the earlier
file. ``train`` writes two outputs, the checkpoint and ``train_log.csv``; a
fault in either leaves both as they were. The fault is injected where
``errors.replaced_when_written`` opens the output, or where it renames it.
The rule, stated beside the exit codes in README: exit 2 with one
``error: cannot write <path>:`` line, no temporary file left, and every
output of the earlier run byte-identical. A KeyboardInterrupt at the first
write propagates out of ``cli.main`` and leaves the same state.

``synth-fixture`` writes its corpus through the same function: a full disk
at one of its outputs exits 2 the same way, keeps the outputs written
before it, and leaves no directory it made empty.
"""

import errno
import os
import shutil
from pathlib import Path

import pytest

from avq360 import errors
from avq360.cli import main

from test_fault_sweep import SET_ARGS

CONFIG = """manifest = manifest.json
media_root = media
scores = scores.csv
hm_root = hm
output_dir = out
mos_table = mos.csv
checkpoint = model.avqc
"""

# output -> (the command that writes it, its arguments, its path in a case directory)
OUTPUTS = {
    "table": ("evaluate", ["--on", "all"], "out/metrics.csv"),
    "checkpoint": ("train", ["--on", "all"], "model.avqc"),
    # a retrain with another seed, so a checkpoint replaced before the log shows
    "train log": ("train", ["--on", "all", "--set", "seed=8"], "out/train_log.csv"),
    # the one feature file whose media changed since the earlier run
    "feature file": ("evaluate", ["--on", "all"], "out/features/seq03.avqc"),
    "AVQF dump": ("extract-features", [], "out/features/seq00_video.avqf"),
}
EARLIER = [("process-scores", []), ("train", ["--on", "all"]), ("evaluate", ["--on", "all"]),
           ("extract-features", [])]


def _full() -> OSError:
    return OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class FullDisk:
    """An output file on a disk that is full: its first write fails, or,
    with ``at="close"``, every write is kept in a buffer the close fails
    to flush. With ``at="interrupt"``, its first write is interrupted
    instead (Ctrl-C)."""

    def __init__(self, f, at):
        self.f, self.at = f, at

    def write(self, data):
        if self.at == "write":
            raise _full()
        if self.at == "interrupt":
            self.at = None
            raise KeyboardInterrupt
        return self.f.write(data)

    def close(self):
        self.f.close()
        if self.at == "close":
            raise _full()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _fail_at(monkeypatch, target, at):
    """Inject the fault ``at`` into the writing of the output ``target``."""
    if at == "rename":
        replace = Path.replace

        def replace_on_a_failing_disk(self, to):
            if str(self) == f"{target}.tmp":
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            return replace(self, to)

        monkeypatch.setattr(Path, "replace", replace_on_a_failing_disk)
        return

    def open_on_a_full_disk(file, *args, **kwargs):
        f = open(file, *args, **kwargs)  # the temporary file: <target>.tmp
        return FullDisk(f, at) if str(file).startswith(f"{target}.") else f

    monkeypatch.setattr(errors, "open", open_on_a_full_disk, raising=False)


def _earlier_run(tmp_path, corpus_dir, capsys, output):
    """A case directory in which every output was written once, the
    function that runs a command in it, and its files before ``output``
    is written again."""
    case = tmp_path.resolve()
    for name in ("manifest.json", "scores.csv", "media", "hm"):
        copy = shutil.copytree if (corpus_dir / name).is_dir() else shutil.copy2
        copy(corpus_dir / name, case / name)
    (case / "config.txt").write_text(CONFIG, encoding="utf-8")

    def run(command, extra):
        return main([command, "--config", str(case / "config.txt"), *extra, *SET_ARGS])

    for command, extra in EARLIER:
        assert run(command, extra) == 0
    if output == "feature file":
        video = case / "media" / "seq03.y4m"
        os.utime(video, ns=(video.stat().st_atime_ns, video.stat().st_mtime_ns + 10 ** 9))
    capsys.readouterr()
    return case, run, _files(case)


@pytest.mark.parametrize("at", ["write", "close"])
@pytest.mark.parametrize("output", OUTPUTS)
def test_a_full_disk_exits_2_naming_the_output(tmp_path, corpus_dir, monkeypatch, capsys,
                                               output, at):
    case, run, before = _earlier_run(tmp_path, corpus_dir, capsys, output)
    command, extra, rel = OUTPUTS[output]
    target = case / rel
    _fail_at(monkeypatch, target, at)
    assert run(command, extra) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: cannot write {target}: {os.strerror(errno.ENOSPC)}"]
    assert _files(case) == before


@pytest.mark.parametrize("output", OUTPUTS)
def test_a_failed_rename_exits_2_naming_the_output(tmp_path, corpus_dir, monkeypatch, capsys,
                                                   output):
    case, run, before = _earlier_run(tmp_path, corpus_dir, capsys, output)
    command, extra, rel = OUTPUTS[output]
    target = case / rel
    _fail_at(monkeypatch, target, "rename")
    assert run(command, extra) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: cannot write {target}: {os.strerror(errno.EIO)}"]
    assert _files(case) == before


@pytest.mark.parametrize("output", OUTPUTS)
def test_an_interrupted_write_propagates_and_leaves_every_output(tmp_path, corpus_dir,
                                                                  monkeypatch, capsys, output):
    case, run, before = _earlier_run(tmp_path, corpus_dir, capsys, output)
    command, extra, rel = OUTPUTS[output]
    _fail_at(monkeypatch, case / rel, "interrupt")
    with pytest.raises(KeyboardInterrupt):
        run(command, extra)
    assert _files(case) == before


# synth-fixture's outputs, in the order it writes them
CORPUS = ["scores.csv", *(f"{folder}/seq{i:02d}.{ext}" for i in range(8)
                          for folder, ext in (("media", "y4m"), ("media", "wav"), ("hm", "csv"))),
          "manifest.json", "config.txt"]


@pytest.mark.parametrize("at", ["write", "close"])
@pytest.mark.parametrize("rel", ["media/seq00.y4m", "media/seq03.wav", "hm/seq00.csv",
                                 "manifest.json", "scores.csv", "config.txt"])
def test_a_full_disk_stops_synth_fixture_with_exit_2(tmp_path, corpus_dir, monkeypatch, capsys,
                                                     rel, at):
    out = tmp_path.resolve() / "fx"
    target = out / rel
    _fail_at(monkeypatch, target, at)
    assert main(["synth-fixture", "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: cannot write {target}: {os.strerror(errno.ENOSPC)}"]
    written = CORPUS[:CORPUS.index(rel)]
    assert _files(out) == {Path(name): (corpus_dir / name).read_bytes() for name in written}
    assert out.exists() == bool(written)
    assert [d for d in out.rglob("*") if d.is_dir() and not any(d.iterdir())] == []
