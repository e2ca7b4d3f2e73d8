"""Run configuration: one key/value text file drives every command.

Format: UTF-8 lines of ``key = value``; blank lines and ``#`` comments
ignored, each key given once. Integer lists are comma-separated.
Relative paths resolve against the directory containing the config file,
so a fixture directory is self-contained and relocatable. Every
``ModelConfig`` field is a key. Each value goes through one field parser,
``manifest.text_parsers``, chosen by the field's annotated type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .errors import ValidationError, read_text_utf8
from .manifest import text_parsers
from .model import ModelConfig


@dataclass
class RunConfig:
    manifest: Path
    media_root: Path
    scores: Path
    hm_root: Path
    output_dir: Path
    split_file: Path    # defaults to output_dir/split.csv
    mos_table: Path     # defaults to output_dir/mos.csv
    checkpoint: Path    # defaults to output_dir/model.avqc
    split_seed: int = 7
    split_ratio: float = 0.8
    model: ModelConfig = field(default_factory=ModelConfig)

    def validate(self) -> None:
        if not 0.0 < self.split_ratio < 1.0:
            raise ValidationError(
                f"split_ratio must be in (0, 1), got {self.split_ratio}"
            )
        if self.split_seed < 0:
            raise ValidationError(f"split_seed must be >= 0, got {self.split_seed}")
        self.model.validate()


_REQUIRED_PATHS = ("manifest", "media_root", "scores", "hm_root", "output_dir")
_DEFAULT_PATHS = {"split_file": "split.csv", "mos_table": "mos.csv",
                  "checkpoint": "model.avqc"}


def _parse_lines(lines) -> dict[str, str]:
    """key -> value of ``(where, line)`` pairs of ``key = value`` text; a
    ``#`` starts a comment and a key may be given once."""
    raw: dict[str, str] = {}
    for where, line in lines:
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValidationError(f"{where}: expected 'key = value'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in raw:
            raise ValidationError(f"{where}: duplicate key {key!r}")
        raw[key] = value
    return raw


def _parse_value(key: str, value: str, parser):
    try:
        return parser(value)
    except ValueError:
        raise ValidationError(f"bad value for {key}: {value!r}") from None


def _run_config(raw: dict[str, str], base_dir: Path) -> RunConfig:
    run_parsers, model_parsers = text_parsers(RunConfig), text_parsers(ModelConfig)
    paths: dict = {}
    run_kwargs: dict = {}
    model_kwargs: dict = {}
    for key, value in raw.items():
        if key in _REQUIRED_PATHS or key in _DEFAULT_PATHS:
            # resolve() rejects a NUL byte with ValueError
            paths[key] = (_parse_value(key, value, lambda v: (base_dir / v).resolve())
                          if value else None)
        elif key in run_parsers:
            run_kwargs[key] = _parse_value(key, value, run_parsers[key])
        elif key in model_parsers:
            model_kwargs[key] = _parse_value(key, value, model_parsers[key])
        else:
            raise ValidationError(f"unknown config key {key!r}")

    missing = [k for k in _REQUIRED_PATHS if paths.get(k) is None]
    if missing:
        raise ValidationError(f"config missing required keys: {missing}")
    for key, name in _DEFAULT_PATHS.items():
        paths[key] = paths.get(key) or paths["output_dir"] / name

    cfg = RunConfig(**paths, model=ModelConfig(**model_kwargs), **run_kwargs)
    cfg.validate()
    return cfg


def load_config(path, overrides: list[str] | None = None) -> tuple[RunConfig, list[str]]:
    """Read a config file and apply ``key=value`` override strings.

    An override replaces the file's value of its key; each key may be
    given once in the file and once among the overrides. Returns the
    config plus human-readable lines describing each applied override
    (echoed to the run log by the CLI).
    """
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"config file not found: {path}")
    lines = read_text_utf8(path).splitlines()
    raw = _parse_lines((f"config line {n}", line) for n, line in enumerate(lines, start=1))
    sets = _parse_lines((f"--set {item!r}", item) for item in overrides or [])
    raw.update(sets)
    applied = [f"override: {key} = {value}" for key, value in sets.items()]
    return _run_config(raw, path.parent), applied
