"""Every binary and text reader outside the CSV tables, fed a valid file
that one mutation has broken: truncated, one byte changed, or bytes
inserted. Whatever the mutation, the reader either loads the file or
raises one of the toolkit's own errors (``Avq360Error``); no raw Python
exception escapes. ``tests/test_csv_tables.py`` holds the same property
for the CSV tables. The manifest is also fed valid JSON with one field's
value of another JSON type."""

import dataclasses
import json
import typing

import numpy as np
import pytest
from hypothesis import given, strategies as st

from avq360.audiofe import write_features
from avq360.config import load_config
from avq360.errors import Avq360Error
from avq360.manifest import (AudioClip, FrameSequence, SequenceManifestEntry, load_manifest,
                             load_wav, load_y4m, write_manifest, write_wav, write_y4m)
from avq360.model import AVQAModel

from conftest import tiny_model_config
from oracles import read_features, walked_frames
from test_manifest import make_entry


def _y4m(path):
    frames = np.arange(3 * 4 * 8, dtype=np.uint8).reshape(3, 4, 8)
    write_y4m(FrameSequence(frames=frames, fps=8.0), path)


def _read_y4m(path):
    """load_y4m, then a walk over every frame: the luma planes are read
    from the file only when the frames are walked."""
    walked_frames(load_y4m(path))


def _wav(path):
    rng = np.random.default_rng(0)
    write_wav(AudioClip(samples=rng.uniform(-0.5, 0.5, (2, 24)), sample_rate=16000), path)


def _avqc(path):
    AVQAModel(tiny_model_config()).save(path)


def _avqf(path):
    write_features(path, np.arange(12, dtype=np.float64).reshape(3, 4))


def _manifest(path):
    write_manifest([make_entry(0), make_entry(1, split="train")], path)


def _config(path):
    path.write_text("manifest = m.json\nmedia_root = media\nscores = s.csv\n"
                    "hm_root = hm\noutput_dir = out\nsplit_ratio = 0.75\n"
                    "d_model = 16\nband_channels = 4,8\nfusion_mode = cat\n",
                    encoding="utf-8")


# reader, writer of one valid file
READERS = {
    "y4m": (_read_y4m, _y4m),
    "wav": (load_wav, _wav),
    "avqc": (AVQAModel.load, _avqc),
    "avqf": (read_features, _avqf),
    "manifest": (load_manifest, _manifest),
    "config": (load_config, _config),
}


@pytest.mark.parametrize("name", READERS)
def test_valid_file_loads(tmp_path, name):
    reader, write = READERS[name]
    path = tmp_path / name
    write(path)
    reader(path)


@pytest.mark.parametrize("name", READERS)
@given(data=st.data())
def test_mutated_file_loads_or_raises_toolkit_error(tmp_path_factory, name, data):
    reader, write = READERS[name]
    path = tmp_path_factory.getbasetemp() / f"mutated_{name}"
    write(path)
    raw = path.read_bytes()
    kind = data.draw(st.sampled_from(["truncate", "flip", "insert"]), label="mutation")
    if kind == "truncate":
        mutated = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
    elif kind == "flip":
        i = data.draw(st.integers(0, len(raw) - 1), label="position")
        byte = data.draw(st.integers(0, 255).filter(lambda b: b != raw[i]), label="byte")
        mutated = raw[:i] + bytes([byte]) + raw[i + 1:]
    else:
        i = data.draw(st.integers(0, len(raw)), label="position")
        mutated = raw[:i] + data.draw(st.binary(min_size=1, max_size=16), label="bytes") + raw[i:]
    path.write_bytes(mutated)
    try:
        reader(path)
    except Avq360Error:
        pass


# null, a bool, an integer, a fractional number, a string, a list or an object
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: not x.is_integer()),
    st.text(max_size=8), st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


@given(data=st.data())
def test_manifest_field_of_any_json_type_loads_typed_or_raises_toolkit_error(
        tmp_path_factory, data):
    objs = [dataclasses.asdict(make_entry(0)), dataclasses.asdict(make_entry(1, split="train"))]
    obj = objs[data.draw(st.integers(0, 1), label="entry")]
    name = data.draw(st.sampled_from(sorted(obj)), label="field")
    obj[name] = data.draw(_JSON_VALUES, label="value")
    path = tmp_path_factory.getbasetemp() / "retyped_manifest.json"
    path.write_text(json.dumps(objs), encoding="utf-8")
    try:
        entries = load_manifest(path)
    except Avq360Error:
        return
    # each loaded value has its field's type and equals the JSON value
    hints = typing.get_type_hints(SequenceManifestEntry)
    for entry, obj in zip(entries, objs, strict=True):
        for name, value in dataclasses.asdict(entry).items():
            assert type(value) is hints[name] and value == obj[name], (name, value)
