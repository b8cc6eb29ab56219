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

    @pytest.mark.parametrize("document,named", [
        (5, "JSON object"),
        ([], "JSON object"),
        ({"train": {"bogus": 1}}, "train.bogus"),
        ({"model": {"bogus": 1}}, "model.bogus"),
        ({"paths": {"vocabb": "v.txt"}}, "paths.vocabb"),
        ({"model": {"bottleneck": "x"}}, "model.bottleneck"),
        ({"model": {"depth": 2.0}}, "model.depth"),
        ({"projection": {"window": True}}, "projection.window"),
        ({"train": {"learning_rate": "fast"}}, "train.learning_rate"),
        ({"paths": {"vocab": 3}}, "paths.vocab"),
        ({"train": []}, "'train'"),
        ({"model": {"bottleneck": 0}}, "model.bottleneck: bottleneck must be >= 1"),
        ({"model": {"head": "tree"}}, "model.head"),
        ({"model": {"num_labels": 0}}, "model.num_labels"),
        ({"projection": {"kind": "sketchy"}}, "projection.kind"),
        ({"projection": {"kind": "tsp", "feature_size": 7}}, "projection.feature_size"),
        ({"train": {"epochs": 0}}, "train.epochs"),
    ])
    def test_malformed_document_names_the_key(self, tmp_path, document, named):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(DataError, match=named):
            build_run_config(path=str(path))

    def test_out_of_range_override_stays_value_error(self, tmp_path):
        with pytest.raises(ValueError, match="^epochs must be >= 1$"):
            build_run_config(overrides={"train": {"epochs": 0}})
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"train": {"epochs": 0}}), encoding="utf-8")
        with pytest.raises(DataError, match="run.json: config key train.epochs"):
            build_run_config(path=str(path), overrides={"train": {"epochs": 3}})

    def test_integer_learning_rate_and_nulls_accepted(self, tmp_path):
        path = tmp_path / "run.json"
        document = {"train": {"learning_rate": 1, "seed": None, "select_best_by": "accuracy"},
                    "model": {"num_labels": None, "input_rows": 3072},
                    "paths": {"cache": None}}
        path.write_text(json.dumps(document), encoding="utf-8")
        cfg = build_run_config(path=str(path))
        assert cfg.train.learning_rate == 1
        assert cfg.train.seed == 0 and cfg.num_labels is None and cfg.cache_path is None

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
