"""The config schema is the ModelConfig dataclass: every field is a config
key and every stored architecture field is a checkpoint ``meta/`` tensor.
Also pins the override rules of ``load_config``."""

import dataclasses
import re
from pathlib import Path

import pytest

from avq360 import config, model
from avq360.config import RunConfig, load_config
from avq360.errors import ValidationError
from avq360.manifest import text_parsers
from avq360.model import FUSION_MODES, AVQAModel, ModelConfig

from conftest import tiny_model_config

BASE = (
    "manifest = m.json\nmedia_root = media\nscores = s.csv\n"
    "hm_root = hm\noutput_dir = out\n"
)
MODEL_FIELDS = dataclasses.fields(ModelConfig)
TRAINING_FIELDS = ("seed", "lr", "train_steps", "batch_size")


def other_value(value):
    """A valid value of the same type that differs from ``value``."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, str):
        return next(m for m in FUSION_MODES if m != value)
    if isinstance(value, tuple):
        return tuple(2 * x for x in value)
    return 2 * value


def as_text(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return ",".join(str(x) for x in value)
    return str(value)


def write_config(tmp_path, text=BASE):
    path = tmp_path / "config.txt"
    path.write_text(text)
    return path


@pytest.mark.parametrize("f", MODEL_FIELDS, ids=lambda f: f.name)
def test_every_model_field_is_a_typed_key(tmp_path, f):
    value = other_value(f.default)
    path = write_config(tmp_path, BASE + f"{f.name} = {as_text(value)}\n")
    cfg, _ = load_config(path)
    parsed = getattr(cfg.model, f.name)
    assert type(parsed) is type(f.default)
    assert parsed == value


@pytest.mark.parametrize(
    "f", [f for f in MODEL_FIELDS if f.name not in TRAINING_FIELDS], ids=lambda f: f.name)
def test_every_stored_field_survives_save_load(tmp_path, f):
    cfg = tiny_model_config()
    cfg = dataclasses.replace(cfg, **{f.name: other_value(getattr(cfg, f.name))})
    AVQAModel(cfg).save(tmp_path / "model.avqc")
    loaded = AVQAModel.load(tmp_path / "model.avqc").cfg
    assert getattr(loaded, f.name) == getattr(cfg, f.name)
    for name in TRAINING_FIELDS:
        assert getattr(loaded, name) == getattr(ModelConfig(), name)


def test_added_field_needs_no_codec_edit(tmp_path, monkeypatch):
    extended = dataclasses.make_dataclass(
        "ExtendedModelConfig",
        [("extra_width", int, 3), ("extra_flag", bool, False), ("extra_sizes", tuple, (1, 2))],
        bases=(ModelConfig,),
    )
    monkeypatch.setattr(config, "ModelConfig", extended)
    monkeypatch.setattr(model, "ModelConfig", extended)
    path = write_config(tmp_path)
    cfg, _ = load_config(path, ["extra_width=5", "extra_flag=true", "extra_sizes=4,5,6"])
    assert (cfg.model.extra_width, cfg.model.extra_flag, cfg.model.extra_sizes) == (
        5, True, (4, 5, 6))
    tiny = tiny_model_config()
    cfg = extended(**{f.name: getattr(tiny, f.name) for f in MODEL_FIELDS},
                   extra_width=5, extra_flag=True, extra_sizes=(4, 5, 6))
    AVQAModel(cfg).save(tmp_path / "model.avqc")
    loaded = AVQAModel.load(tmp_path / "model.avqc").cfg
    assert type(loaded) is extended
    assert (loaded.extra_width, loaded.extra_flag, loaded.extra_sizes) == (5, True, (4, 5, 6))


def test_same_key_twice_in_overrides_rejected(tmp_path):
    path = write_config(tmp_path)
    with pytest.raises(ValidationError, match=r"--set.*duplicate key 'split_seed'"):
        load_config(path, ["split_seed=3", "split_seed=4"])


def test_comment_in_override_is_stripped(tmp_path):
    path = write_config(tmp_path)
    cfg, applied = load_config(path, ["split_seed = 3  # a note"])
    assert cfg.split_seed == 3
    assert applied == ["override: split_seed = 3"]


@pytest.mark.parametrize("override", ["", "  ", "#split_seed=3", " # a note"])
def test_blank_or_comment_only_override_rejected(tmp_path, override):
    path = write_config(tmp_path)
    with pytest.raises(ValidationError, match="^" + re.escape(
            f"--set {override!r}: expected 'key = value'") + "$"):
        load_config(path, [override])


def test_default_paths_follow_overridden_output_dir(tmp_path):
    path = write_config(tmp_path)
    cfg, _ = load_config(path, ["output_dir=elsewhere"])
    out = (tmp_path / "elsewhere").resolve()
    assert cfg.output_dir == out
    assert cfg.split_file == out / "split.csv"
    assert cfg.mos_table == out / "mos.csv"
    assert cfg.checkpoint == out / "model.avqc"


def test_key_twice_in_file_rejected_even_when_overridden(tmp_path):
    path = write_config(tmp_path, BASE + "split_seed = 3\nsplit_seed = 4\n")
    with pytest.raises(ValidationError, match="config line 7: duplicate key 'split_seed'"):
        load_config(path, ["split_seed=5"])


@pytest.mark.parametrize("item", ["band_channels=8,,16", "d_model=6.5", "lr=fast"])
def test_value_that_does_not_parse_names_key_and_value(tmp_path, item):
    key, value = item.split("=")
    with pytest.raises(ValidationError, match=f"^bad value for {key}: '{value}'$"):
        load_config(write_config(tmp_path), [item])


def test_empty_required_path_is_missing(tmp_path):
    path = write_config(tmp_path)
    with pytest.raises(ValidationError, match="output_dir"):
        load_config(path, ["output_dir="])


def readme_config_table() -> dict[str, str]:
    """key -> default cell of each key of README's configuration table. A
    row of several keys gives each its entry of a ", "-separated default."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Configuration file\n", 1)[1].split("\n## ", 1)[0]
    table: dict[str, str] = {}
    for line in section.splitlines():
        if not line.startswith("| `"):  # prose, the header row and the rule
            continue
        keys_cell, _, default_cell = (cell.strip() for cell in line.strip("|").split("|"))
        keys = re.findall(r"`([^`]+)`", keys_cell)
        defaults = default_cell.split(", ")
        if len(defaults) == 1:
            defaults *= len(keys)
        assert len(defaults) == len(keys), line
        for key, default in zip(keys, defaults):
            assert key not in table, f"{key} listed twice"
            table[key] = default
    return table


def test_readme_config_table_lists_every_key_with_its_default():
    table = readme_config_table()
    parsers = {**text_parsers(RunConfig), **text_parsers(ModelConfig)}
    paths = {**{key: "required" for key in config._REQUIRED_PATHS},
             **{key: "under `output_dir`" for key in config._DEFAULT_PATHS}}
    assert sorted(table) == sorted([*paths, *parsers])
    for key, default in paths.items():
        assert table[key] == default, key
    defaults = {f.name: f.default for f in dataclasses.fields(RunConfig) + MODEL_FIELDS}
    for key, parse in parsers.items():
        assert parse(table[key]) == defaults[key], key
