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
preset, and a command-line flag that is given overrides both. ``model.input_rows``, when
present, is checked against the projection-derived value rather than stored.
A document that is not an object, an unknown group or key, or a value of the
wrong type or out of range is a :class:`DataError` naming the key; ``null``
leaves a key at its default. An out-of-range value passed in ``overrides``
(a command-line flag) stays the config dataclass's ``ValueError``.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from .errors import DataError
from .files import read_json, replacing
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


def _field_types(cls) -> dict[str, type]:
    return {f.name: type(f.default) for f in dataclasses.fields(cls)}


_MODEL_TYPES = {"bottleneck": int, "hidden": int, "depth": int, "head": str, "num_labels": int}
# document key -> RunConfig field
_PATH_FIELDS = {"vocab": "vocab_path", "cache": "cache_path", "train_data": "train_data",
                "val_data": "val_data", "out_dir": "out_dir"}
# every key a document may hold, with the JSON type of its value
_KEY_TYPES: dict[str, dict[str, type]] = {
    "projection": _field_types(ProjectionConfig),
    "model": {**_MODEL_TYPES, "input_rows": int},
    "train": _field_types(TrainConfig),
    "paths": dict.fromkeys(_PATH_FIELDS, str),
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
            "model": {key: getattr(self, key) for key in _MODEL_TYPES},
            "train": dataclasses.asdict(self.train),
            "paths": {key: getattr(self, name) for key, name in _PATH_FIELDS.items()},
        }


def _merge(base: dict, extra, source: str) -> dict:
    """``base`` updated with the non-null values of the document ``extra``, checked."""
    if not isinstance(extra, dict):
        raise DataError(f"{source}: a config document must be a JSON object")
    unknown = set(extra) - set(_KEY_TYPES)
    if unknown:
        raise DataError(f"{source}: unknown config groups {sorted(unknown)}")
    out = {k: dict(v) for k, v in base.items()}
    for group, values in extra.items():
        if not isinstance(values, dict):
            raise DataError(f"{source}: config group {group!r} must be an object")
        for key, value in values.items():
            expected = _KEY_TYPES[group].get(key)
            if expected is None:
                raise DataError(f"{source}: unknown config key {group}.{key}")
            if value is None:
                continue
            # JSON has one number type, so an integer may stand for a float
            typed = isinstance(value, (int, float) if expected is float else expected)
            if isinstance(value, bool) or not typed:
                raise DataError(f"{source}: config key {group}.{key} must be "
                                f"{expected.__name__}, not {value!r}")
            out[group][key] = value
    return out


def build_run_config(
    path: str | None = None,
    preset: str | None = None,
    overrides: dict | None = None,
) -> RunConfig:
    """Assemble a RunConfig from preset, file, and flag overrides (in that order)."""
    document: dict = {g: {} for g in _KEY_TYPES}
    if preset is not None:
        if preset not in PRESETS:
            raise ValueError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
        document = _merge(document, PRESETS[preset], f"preset {preset}")
    if path is not None:
        loaded = read_json(path, "config file")
        document = _merge(document, loaded, path)
        _from_document(document, source=path)  # what the file sets, before any flag
    if overrides:
        document = _merge(document, overrides, "overrides")
    return _from_document(document)


def _from_document(document: dict, source: str | None = None) -> RunConfig:
    """The RunConfig of a merged document, with every group's values checked.

    A value that its config dataclass rejects is a :class:`DataError` naming
    ``source`` and ``group.key``; with no ``source`` it stays a ``ValueError``.
    """

    def checked(group: str, make):
        try:
            return make()
        except ValueError as exc:
            if source is None:
                raise
            # each config __post_init__ message starts with the field it rejects
            key = str(exc).split()[0]
            raise DataError(f"{source}: config key {group}.{key}: {exc}") from exc

    proj = checked("projection", lambda: ProjectionConfig(**document["projection"]))
    train = checked("train", lambda: TrainConfig(**document["train"]))
    model = dict(document["model"])
    declared_rows = model.pop("input_rows", None)
    if declared_rows is not None and declared_rows != proj.input_rows:
        raise DataError(
            f"model.input_rows = {declared_rows} contradicts the projection "
            f"((2*{proj.window}+1) * {proj.token_feature_len} = {proj.input_rows})"
        )
    paths = document["paths"]
    run = RunConfig(
        projection=proj,
        train=train,
        **model,
        **{name: paths.get(key) for key, name in _PATH_FIELDS.items()},
    )
    # a dataset may give num_labels later; until then 1 stands in for it
    checked("model", lambda: run.model_config(1 if run.num_labels is None else None))
    return run


def save_run_config(cfg: RunConfig, path: str) -> None:
    with replacing(path) as fh:
        fh.write((json.dumps(cfg.to_document(), indent=2) + "\n").encode("utf-8"))
