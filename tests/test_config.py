import json

import pytest

from hashmixer.config import (
    PRESETS,
    build_run_config,
    save_run_config,
)
from hashmixer.errors import DataError
from hashmixer.mixer import count_parameters


class TestPresets:
    def test_five_named_sizes(self):
        assert set(PRESETS) == {"x-small", "small", "base", "large", "x-large"}

    @pytest.mark.parametrize("preset,target", [
        ("x-small", 200_000),
        ("small", 630_000),
        ("base", 1_200_000),
        ("large", 2_300_000),
        ("x-large", 4_400_000),
    ])
    def test_parameter_targets(self, preset, target):
        cfg = build_run_config(preset=preset)
        count = count_parameters(cfg.model_config(num_labels=78))
        assert abs(count - target) / target < 0.10, (preset, count)


class TestBuildRunConfig:
    def test_defaults(self):
        cfg = build_run_config()
        assert cfg.projection.kind == "minhash"
        assert cfg.projection.n_hashes == 64
        assert cfg.train.learning_rate == 5e-4
        assert cfg.head == "token"

    def test_file_overrides_preset(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"model": {"depth": 3}}), encoding="utf-8")
        cfg = build_run_config(path=str(path), preset="base")
        assert cfg.depth == 3
        assert cfg.projection.feature_size == 1024  # from the preset

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"train": {"seed": 1}}), encoding="utf-8")
        cfg = build_run_config(path=str(path), overrides={"train": {"seed": 9}})
        assert cfg.train.seed == 9

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            build_run_config(preset="giant")

    def test_unknown_group_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"optimizer": {}}), encoding="utf-8")
        with pytest.raises(DataError, match="unknown config groups"):
            build_run_config(path=str(path))

    def test_input_rows_cross_check(self, tmp_path):
        path = tmp_path / "run.json"
        document = {
            "projection": {"feature_size": 1024, "window": 1},
            "model": {"input_rows": 1024},
        }
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(DataError, match="input_rows"):
            build_run_config(path=str(path))
        document["model"]["input_rows"] = 3072
        path.write_text(json.dumps(document), encoding="utf-8")
        assert build_run_config(path=str(path)).projection.input_rows == 3072

    def test_round_trip_equality(self, tmp_path):
        cfg = build_run_config(
            preset="x-small",
            overrides={
                "train": {"seed": 42, "epochs": 7},
                "paths": {"vocab": "v.txt", "train_data": "t.jsonl",
                          "val_data": "v.jsonl", "out_dir": "out"},
                "model": {"num_labels": 13},
            },
        )
        path = str(tmp_path / "echo.json")
        save_run_config(cfg, path)
        assert build_run_config(path=path) == cfg
