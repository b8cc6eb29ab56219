"""Run configuration: one JSON document wiring projection, model and training.

The document has flat key groups mirroring the config dataclasses::

    {
      "projection": {"kind": "minhash", "n_hashes": 64, "feature_size": 1024,
                      "window": 1, "max_seq_len": 64, "simhash_bits": 64},
      "model": {"bottleneck": 256, "hidden": 256, "depth": 2,
                 "head": "token", "num_labels": 78},
      "train": {"learning_rate": 5e-4, "batch_size": 256, "epochs": 80,
                 "seed": 0},
      "paths": {"vocab": "...", "cache": null, "train_data": "...",
                 "val_data": "...", "out_dir": "..."}
    }

Named presets cover the five shipped model sizes; a config file overrides a
preset, and command-line flags override both. ``model.input_rows``, when
present, is checked against the projection-derived value rather than stored.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from .errors import DataError
from .mixer import ModelConfig
from .projection import ProjectionConfig
from .training import TrainConfig

# Parameter targets with a 78-label token head: x-small 200K, small 630K,
# base 1.2M, large 2.3M, x-large 4.4M.
PRESETS: dict[str, dict] = {
    "base": {
        "projection": {"feature_size": 1024, "window": 1},
        "model": {"bottleneck": 256, "depth": 2},
    },
    "small": {
        "projection": {"feature_size": 1024, "window": 0},
        "model": {"bottleneck": 256, "depth": 2},
    },
    "x-small": {
        "projection": {"feature_size": 1024, "window": 0},
        "model": {"bottleneck": 64, "depth": 2},
    },
    "large": {
        "projection": {"feature_size": 2048, "window": 1},
        "model": {"bottleneck": 256, "depth": 4},
    },
    "x-large": {
        "projection": {"feature_size": 2048, "window": 1},
        "model": {"bottleneck": 512, "depth": 4},
    },
}


@dataclass(frozen=True)
class RunConfig:
    projection: ProjectionConfig = field(default_factory=ProjectionConfig)
    bottleneck: int = 256
    hidden: int = 256
    depth: int = 2
    head: str = "token"
    num_labels: int | None = None
    train: TrainConfig = field(default_factory=TrainConfig)
    vocab_path: str | None = None
    cache_path: str | None = None
    train_data: str | None = None
    val_data: str | None = None
    out_dir: str | None = None

    def model_config(self, num_labels: int | None = None) -> ModelConfig:
        labels = num_labels if num_labels is not None else self.num_labels
        if labels is None:
            raise ValueError("num_labels is not set and no dataset provided one")
        return ModelConfig(
            input_rows=self.projection.input_rows,
            seq_len=self.projection.max_seq_len,
            bottleneck=self.bottleneck,
            hidden=self.hidden,
            depth=self.depth,
            head=self.head,
            num_labels=labels,
        )

    def to_document(self) -> dict:
        return {
            "projection": dataclasses.asdict(self.projection),
            "model": {
                "bottleneck": self.bottleneck,
                "hidden": self.hidden,
                "depth": self.depth,
                "head": self.head,
                "num_labels": self.num_labels,
            },
            "train": dataclasses.asdict(self.train),
            "paths": {
                "vocab": self.vocab_path,
                "cache": self.cache_path,
                "train_data": self.train_data,
                "val_data": self.val_data,
                "out_dir": self.out_dir,
            },
        }


def _merge(base: dict, extra: dict) -> dict:
    out = {k: dict(v) for k, v in base.items()}
    for group, values in extra.items():
        out.setdefault(group, {})
        if not isinstance(values, dict):
            raise DataError(f"config group {group!r} must be an object")
        out[group].update({k: v for k, v in values.items() if v is not None})
    return out


_GROUPS = ("projection", "model", "train", "paths")


def build_run_config(
    path: str | None = None,
    preset: str | None = None,
    overrides: dict | None = None,
) -> RunConfig:
    """Assemble a RunConfig from preset, file, and flag overrides (in that order)."""
    document: dict = {g: {} for g in _GROUPS}
    if preset is not None:
        if preset not in PRESETS:
            raise ValueError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
        document = _merge(document, PRESETS[preset])
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise DataError(f"cannot read config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: invalid JSON: {exc}") from exc
        unknown = set(loaded) - set(_GROUPS)
        if unknown:
            raise DataError(f"{path}: unknown config groups {sorted(unknown)}")
        document = _merge(document, loaded)
    if overrides:
        document = _merge(document, overrides)
    return _from_document(document)


def _from_document(document: dict) -> RunConfig:
    proj = ProjectionConfig(**document.get("projection", {}))
    model = dict(document.get("model", {}))
    declared_rows = model.pop("input_rows", None)
    if declared_rows is not None and declared_rows != proj.input_rows:
        raise DataError(
            f"model.input_rows = {declared_rows} contradicts the projection "
            f"((2*{proj.window}+1) * {proj.token_feature_len} = {proj.input_rows})"
        )
    train = TrainConfig(**document.get("train", {}))
    paths = document.get("paths", {})
    return RunConfig(
        projection=proj,
        bottleneck=model.get("bottleneck", 256),
        hidden=model.get("hidden", 256),
        depth=model.get("depth", 2),
        head=model.get("head", "token"),
        num_labels=model.get("num_labels"),
        train=train,
        vocab_path=paths.get("vocab"),
        cache_path=paths.get("cache"),
        train_data=paths.get("train_data"),
        val_data=paths.get("val_data"),
        out_dir=paths.get("out_dir"),
    )


def save_run_config(cfg: RunConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg.to_document(), fh, indent=2)
        fh.write("\n")
