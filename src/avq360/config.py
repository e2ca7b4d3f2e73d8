"""Run configuration: one key/value text file drives every command.

Format: UTF-8 lines of ``key = value``; blank lines and ``#`` comments
ignored. Integer lists are comma-separated. Relative paths resolve
against the directory containing the config file, so a fixture
directory is self-contained and relocatable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .errors import ValidationError, read_text_utf8
from .model import ModelConfig


@dataclass
class RunConfig:
    manifest: Path
    media_root: Path
    scores: Path
    hm_root: Path
    output_dir: Path
    split_seed: int = 7
    split_ratio: float = 0.8
    split_file: Path | None = None   # defaults to output_dir/split.csv
    mos_table: Path | None = None    # defaults to output_dir/mos.csv
    checkpoint: Path | None = None   # defaults to output_dir/model.avqc
    model: ModelConfig = field(default_factory=ModelConfig)

    def validate(self) -> None:
        if not 0.0 < self.split_ratio < 1.0:
            raise ValidationError(
                f"split_ratio must be in (0, 1), got {self.split_ratio}"
            )
        self.model.validate()

    def resolved_split_file(self) -> Path:
        return self.split_file or self.output_dir / "split.csv"

    def resolved_mos_table(self) -> Path:
        return self.mos_table or self.output_dir / "mos.csv"

    def resolved_checkpoint(self) -> Path:
        return self.checkpoint or self.output_dir / "model.avqc"


def _parse_bool(v: str) -> bool:
    lv = v.strip().lower()
    if lv in ("true", "1"):
        return True
    if lv in ("false", "0"):
        return False
    raise ValidationError(f"expected true/false, got {v!r}")


def _parse_int_tuple(v: str) -> tuple:
    try:
        return tuple(int(x) for x in v.split(","))
    except ValueError:
        raise ValidationError(f"expected comma-separated integers, got {v!r}") from None


_PATH_KEYS = ("manifest", "media_root", "scores", "hm_root", "output_dir",
              "split_file", "mos_table", "checkpoint")
_RUN_KEYS = {
    "split_seed": int,
    "split_ratio": float,
}
_MODEL_KEYS = {
    "bands": int,
    "band_channels": _parse_int_tuple,
    "band_input_hw": _parse_int_tuple,
    "d_model": int,
    "fusion_blocks": int,
    "heads": int,
    "audio_channels": _parse_int_tuple,
    "frames_per_clip": int,
    "patch_frames": int,
    "num_mel": int,
    "ff_mult": int,
    "fusion_mode": str,
    "temporal_pos_enc": _parse_bool,
    "audio_pos_enc": _parse_bool,
    "seed": int,
    "lr": float,
    "train_steps": int,
    "batch_size": int,
}


def parse_config_text(text: str, base_dir: Path) -> RunConfig:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValidationError(f"config line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in raw:
            raise ValidationError(f"config line {lineno}: duplicate key {key!r}")
        raw[key] = value

    paths: dict[str, Path] = {}
    run_kwargs: dict = {}
    model_kwargs: dict = {}
    for key, value in raw.items():
        if key in _PATH_KEYS:
            paths[key] = (base_dir / value).resolve() if value else None
        elif key in _RUN_KEYS:
            try:
                run_kwargs[key] = _RUN_KEYS[key](value)
            except ValueError:
                raise ValidationError(f"bad value for {key}: {value!r}") from None
        elif key in _MODEL_KEYS:
            conv = _MODEL_KEYS[key]
            try:
                model_kwargs[key] = conv(value)
            except ValueError:
                raise ValidationError(f"bad value for {key}: {value!r}") from None
        else:
            raise ValidationError(f"unknown config key {key!r}")

    missing = [k for k in ("manifest", "media_root", "scores", "hm_root", "output_dir")
               if k not in paths]
    if missing:
        raise ValidationError(f"config missing required keys: {missing}")

    cfg = RunConfig(
        manifest=paths["manifest"],
        media_root=paths["media_root"],
        scores=paths["scores"],
        hm_root=paths["hm_root"],
        output_dir=paths["output_dir"],
        split_file=paths.get("split_file"),
        mos_table=paths.get("mos_table"),
        checkpoint=paths.get("checkpoint"),
        model=ModelConfig(**model_kwargs),
        **run_kwargs,
    )
    cfg.validate()
    return cfg


def load_config(path, overrides: list[str] | None = None) -> tuple[RunConfig, list[str]]:
    """Read a config file and apply ``key=value`` override strings.

    Returns the config plus human-readable lines describing each applied
    override (echoed to the run log by the CLI).
    """
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"config file not found: {path}")
    text = read_text_utf8(path)
    base_dir = path.parent
    applied = []
    if overrides:
        extra_lines = []
        for item in overrides:
            if "=" not in item:
                raise ValidationError(f"override must be key=value, got {item!r}")
            extra_lines.append(item)
            key, value = (part.strip() for part in item.split("=", 1))
            applied.append(f"override: {key} = {value}")
        # overrides win by replacing earlier occurrences
        kept = []
        override_keys = {item.split("=", 1)[0].strip() for item in overrides}
        for line in text.splitlines():
            stripped = line.split("#", 1)[0].strip()
            if stripped and "=" in stripped:
                key = stripped.split("=", 1)[0].strip()
                if key in override_keys:
                    continue
            kept.append(line)
        text = "\n".join(kept + extra_lines)
    return parse_config_text(text, base_dir), applied
