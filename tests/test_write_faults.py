"""A failed write is an error, not a traceback.

Each case writes every output once with the commands that make them
(``process-scores``, ``train``, ``evaluate --on all``, ``extract-features``),
then runs the command that writes one output again while the disk is full
for that output: ENOSPC from its first write, or from closing it (the flush
of bytes still buffered). The fault is injected where
``errors.replaced_when_written`` opens the output. The rule, stated beside
the exit codes in README: exit 2 with one ``error: cannot write <path>:``
line, no temporary file left, and every output of the earlier run
byte-identical.
"""

import errno
import os
import shutil

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
    to flush."""

    def __init__(self, f, at):
        self.f, self.at = f, at

    def write(self, data):
        if self.at == "write":
            raise _full()
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


@pytest.mark.parametrize("at", ["write", "close"])
@pytest.mark.parametrize("output", OUTPUTS)
def test_a_full_disk_exits_2_naming_the_output(tmp_path, corpus_dir, monkeypatch, capsys,
                                               output, at):
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
    before = _files(case)
    capsys.readouterr()

    command, extra, rel = OUTPUTS[output]
    target = case / rel

    def open_on_a_full_disk(file, *args, **kwargs):
        f = open(file, *args, **kwargs)  # the temporary file: <target>.tmp
        return FullDisk(f, at) if str(file).startswith(f"{target}.") else f

    monkeypatch.setattr(errors, "open", open_on_a_full_disk, raising=False)
    assert run(command, extra) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: cannot write {target}: {os.strerror(errno.ENOSPC)}"]
    assert _files(case) == before
