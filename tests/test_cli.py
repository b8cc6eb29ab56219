"""End-to-end command-line tests over a miniature synthetic run."""

import hashlib
import json
import os
import struct

import numpy as np
import pytest

from hashmixer.cli import run
from hashmixer.model_io import MODEL_MAGIC, load_features, load_model, save_features, save_model
from hashmixer.projection import (
    FeatureMatrix,
    ProjectionConfig,
    SequenceFeaturizer,
    build_cache,
    load_cache,
    token_feature,
)
from hashmixer.vocab import load_vocab

from conftest import synth_dataset


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    paths = synth_dataset(seed=31, n_examples=300, vocab_size=60, n_labels=5,
                          seq_len_range=(4, 9), out_dir=str(root / "data"))
    config = {
        "projection": {"kind": "minhash", "n_hashes": 32, "feature_size": 256,
                        "window": 0, "max_seq_len": 12},
        "model": {"bottleneck": 32, "hidden": 64, "depth": 1, "head": "token"},
        "train": {"learning_rate": 2e-3, "batch_size": 128, "epochs": 4, "seed": 7},
        "paths": {"vocab": paths["vocab"], "train_data": paths["train"],
                   "val_data": paths["val"], "out_dir": str(root / "run")},
    }
    config_path = str(root / "run.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    return {"root": root, "paths": paths, "config": config_path}


def _sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.fixture(scope="module")
def trained(workspace):
    code = run(["train", "--config", workspace["config"], "--quiet"])
    assert code == 0
    return str(workspace["root"] / "run")


class TestBuildCache:
    def test_reproducible_checksum(self, workspace, capsys):
        root, vocab = workspace["root"], workspace["paths"]["vocab"]
        out1, out2 = str(root / "c1.bin"), str(root / "c2.bin")
        assert run(["build-cache", "--vocab", vocab, "--hashes", "16",
                    "-o", out1, "--quiet"]) == 0
        assert run(["build-cache", "--vocab", vocab, "--hashes", "16",
                    "-o", out2, "--quiet"]) == 0
        assert _sha(out1) == _sha(out2)
        cache = load_cache(out1)
        assert cache.n_hashes == 16

    def test_width_32(self, workspace):
        root, vocab = workspace["root"], workspace["paths"]["vocab"]
        out = str(root / "c32.bin")
        assert run(["build-cache", "--vocab", vocab, "--hashes", "8",
                    "--width", "32", "-o", out, "--quiet"]) == 0
        assert load_cache(out).width == 32


class TestParams:
    def test_base_preset_parameter_count(self, capsys):
        assert run(["params", "--preset", "base"]) == 0
        count = int(capsys.readouterr().out.strip())
        assert abs(count - 1_200_000) / 1_200_000 < 0.10

    def test_check_init_cross_validates(self, capsys):
        assert run(["params", "--preset", "x-small", "--check-init"]) == 0
        count = int(capsys.readouterr().out.strip())
        assert abs(count - 200_000) / 200_000 < 0.10


class TestTrainEvalPredictQuantize:
    def test_artifacts_exist(self, trained):
        for name in ("model.bin", "labels.json", "config.json", "train_log.jsonl"):
            assert os.path.exists(os.path.join(trained, name)), name

    def test_epoch_log_schema(self, trained):
        with open(os.path.join(trained, "train_log.jsonl"), encoding="utf-8") as fh:
            entries = [json.loads(line) for line in fh]
        assert len(entries) == 4
        for e in entries:
            assert set(e) == {"epoch", "train_loss", "val_metric", "wallclock_seconds"}

    def test_eval_matches_best_logged_metric(self, trained, workspace, capsys):
        model = os.path.join(trained, "model.bin")
        code = run(["eval", "--model", model, "--data", workspace["paths"]["val"],
                    "--config", workspace["config"], "--quiet"])
        assert code == 0
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        with open(os.path.join(trained, "train_log.jsonl"), encoding="utf-8") as fh:
            best = max(json.loads(line)["val_metric"] for line in fh)
        assert report["metric"] == "exact_match"
        assert report["value"] == pytest.approx(best, abs=1e-9)

    def test_config_echo_reloads_identically(self, trained, workspace):
        from hashmixer.config import build_run_config

        echoed = build_run_config(path=os.path.join(trained, "config.json"))
        original = build_run_config(path=workspace["config"])
        assert echoed.projection == original.projection
        assert echoed.train == original.train
        assert echoed.num_labels == 5

    def test_predict_tags_tokens(self, trained, workspace, capsys):
        model = os.path.join(trained, "model.bin")
        with open(workspace["paths"]["val"], encoding="utf-8") as fh:
            tokens = json.loads(fh.readline())["tokens"]
        code = run(["predict", "--model", model, "--config", workspace["config"],
                    "--text", " ".join(tokens), "--quiet"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["tokens"] == tokens
        assert len(payload["labels"]) == len(tokens)

    def test_quantize_then_eval(self, trained, workspace, capsys):
        model = os.path.join(trained, "model.bin")
        qmodel = os.path.join(trained, "model.q.bin")
        assert run(["quantize", "--model", model, "-o", qmodel, "--quiet"]) == 0
        assert os.path.getsize(qmodel) < 0.5 * os.path.getsize(model)
        code = run(["eval", "--model", qmodel, "--data", workspace["paths"]["val"],
                    "--config", workspace["config"],
                    "--labels", os.path.join(trained, "labels.json"), "--quiet"])
        assert code == 0
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert report["quantized"] is True
        assert report["value"] > 0.5

    def test_project_dump_matches_reference(self, workspace, capsys):
        out = str(workspace["root"] / "features.bin")
        code = run(["project", "--config", workspace["config"],
                    "--input", workspace["paths"]["val"], "-o", out, "--quiet"])
        assert code == 0
        dumped = load_features(out)
        vocab = load_vocab(workspace["paths"]["vocab"])
        cfg = ProjectionConfig(kind="minhash", n_hashes=32, feature_size=256,
                               window=0, max_seq_len=12)
        from hashmixer.hashing import HashFamily

        cache = build_cache(vocab, HashFamily(32))
        with open(workspace["paths"]["val"], encoding="utf-8") as fh:
            first_tokens = json.loads(fh.readline())["tokens"]
        kept = first_tokens[: cfg.max_seq_len]
        ref = np.zeros((cfg.input_rows, cfg.max_seq_len))
        for t, tok in enumerate(kept):  # window 0: column t is token t's feature
            ref[:, t] = token_feature(tok, vocab, cfg, cache=cache)
        assert dumped[0].valid_len == len(kept)
        assert np.allclose(dumped[0].data, ref, atol=1e-6)

    def test_project_in_chunks_matches_one_shot_dump(self, workspace, tmp_path):
        with open(workspace["config"], encoding="utf-8") as fh:
            config = json.load(fh)
        config["train"]["batch_size"] = 7  # several chunks, the last one partial
        config_path = tmp_path / "chunked.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out = str(tmp_path / "chunked.bin")
        val = workspace["paths"]["val"]
        assert run(["project", "--config", str(config_path), "--input", val,
                    "-o", out, "--quiet"]) == 0

        from hashmixer.data import load_jsonl

        examples = load_jsonl(val)
        assert len(examples) > 7 and len(examples) % 7
        featurizer = SequenceFeaturizer(load_vocab(workspace["paths"]["vocab"]),
                                        ProjectionConfig(**config["projection"]))
        ids, valid = featurizer.encode([ex.tokens for ex in examples])
        inputs = featurizer.materialize(ids, valid, dtype=np.float32)
        ref = str(tmp_path / "one_shot.bin")
        save_features(ref, [FeatureMatrix(data=x, valid_len=int(n)) for x, n in zip(inputs, valid)])
        assert _sha(out) == _sha(ref)

    def test_predict_rejects_malformed_model_file(self, trained, workspace, tmp_path, capsys):
        blob = open(os.path.join(trained, "model.bin"), "rb").read()
        first_name = len(MODEL_MAGIC) + struct.calcsize("<IIIIIIBII") + 2
        bad_name = blob[:first_name] + b"\xff" + blob[first_name + 1 :]
        for name, corrupt, message in (("bad_name.bin", bad_name, "UTF-8"),
                                       ("trailing.bin", blob + b"\x00" * 7, "trailing")):
            path = tmp_path / name
            path.write_bytes(corrupt)
            code = run(["predict", "--model", str(path), "--config", workspace["config"],
                        "--labels", os.path.join(trained, "labels.json"),
                        "--text", "a b", "--quiet"])
            assert code == 2
            assert message in capsys.readouterr().err

    def test_predict_rejects_non_finite_weight(self, trained, workspace, tmp_path, capsys):
        params, cfg, _ = load_model(os.path.join(trained, "model.bin"))
        params["mixer.0.channel_mlp.w1"][3, 1] = np.nan
        path = str(tmp_path / "nan.bin")
        save_model(path, params, cfg)
        code = run(["predict", "--model", path, "--config", workspace["config"],
                    "--labels", os.path.join(trained, "labels.json"), "--text", "a b", "--quiet"])
        assert code == 2
        assert "mixer.0.channel_mlp.w1 holds NaN or infinite values" in capsys.readouterr().err

    def test_predict_rejects_mismatched_labels(self, trained, workspace, tmp_path, capsys):
        model = os.path.join(trained, "model.bin")
        with open(os.path.join(trained, "labels.json"), encoding="utf-8") as fh:
            labels = json.load(fh)
        for wrong in (labels[:-1], labels + ["EXTRA"]):
            path = tmp_path / "labels.json"
            path.write_text(json.dumps(wrong), encoding="utf-8")
            code = run(["predict", "--model", model, "--config", workspace["config"],
                        "--labels", str(path), "--text", "a b", "--quiet"])
            assert code == 2
            assert "inventory" in capsys.readouterr().err


class TestImporters:
    def test_import_mtop_prints_summary(self, tmp_path, capsys):
        raw = tmp_path / "raw.tsv"
        raw.write_text("1\twake me\tO O\n2\tbad\tO O\n", encoding="utf-8")
        out = str(tmp_path / "out.jsonl")
        code = run(["import-mtop", "--input", str(raw),
                    "--field-map", '{"tokens": 1, "slots": 2}', "-o", out])
        assert code == 0
        summary = json.loads(capsys.readouterr().out.strip())
        assert summary == {"examples": 1, "skipped": 1, "labels": 1}

    def test_import_multiatis_prints_summary(self, tmp_path, capsys):
        raw = tmp_path / "raw.tsv"
        raw.write_text("1\tlist flights\tflight\n", encoding="utf-8")
        out = str(tmp_path / "out.jsonl")
        code = run(["import-multiatis", "--input", str(raw),
                    "--field-map", '{"text": 1, "intent": 2}', "-o", out])
        assert code == 0
        summary = json.loads(capsys.readouterr().out.strip())
        assert summary == {"examples": 1, "skipped": 0, "labels": 1}

    def test_bad_field_map_is_usage_error(self, tmp_path):
        raw = tmp_path / "raw.tsv"
        raw.write_text("x\n", encoding="utf-8")
        assert run(["import-mtop", "--input", str(raw),
                    "--field-map", "not json", "-o", str(tmp_path / "o.jsonl")]) == 1


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self):
        assert run(["params", "--preset", "base", "--bogus"]) == 1

    def test_unknown_command_is_usage_error(self):
        assert run(["frobnicate"]) == 1

    def test_missing_data_file_is_data_error(self, workspace):
        assert run(["eval", "--model", str(workspace["root"] / "nope.bin"),
                    "--data", "also-nope.jsonl", "--config", workspace["config"]]) == 2

    def test_help_exits_zero(self):
        assert run(["--help"]) == 0

    def test_bad_config_value_is_usage_error(self, workspace, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"projection": {"kind": "sketchy"}}), encoding="utf-8")
        assert run(["params", "--config", str(bad)]) == 1

    def test_empty_utterance_is_data_error(self, trained, workspace, tmp_path):
        data = tmp_path / "empty.jsonl"
        data.write_text('{"tokens": ["a"], "slots": ["O"]}\n{"tokens": [], "slots": []}\n',
                        encoding="utf-8")
        assert run(["eval", "--model", os.path.join(trained, "model.bin"),
                    "--data", str(data), "--config", workspace["config"], "--quiet"]) == 2
        config = json.load(open(workspace["config"], encoding="utf-8"))
        config["paths"]["val_data"] = str(data)
        config["paths"]["out_dir"] = str(tmp_path / "run")
        bad = tmp_path / "empty-val.json"
        bad.write_text(json.dumps(config), encoding="utf-8")
        assert run(["train", "--config", str(bad), "--quiet"]) == 2

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_diverging_training_is_data_error(self, workspace, tmp_path, capsys):
        config = json.load(open(workspace["config"], encoding="utf-8"))
        config["train"]["learning_rate"] = 1e10
        config["paths"]["out_dir"] = str(tmp_path / "run")
        bad = tmp_path / "diverge.json"
        bad.write_text(json.dumps(config), encoding="utf-8")
        assert run(["train", "--config", str(bad), "--quiet"]) == 2
        assert "epoch 1, batch 2: training loss is nan" in capsys.readouterr().err

    def test_cache_hash_count_mismatch_is_data_error(self, workspace, tmp_path):
        cache_path = str(tmp_path / "c8.bin")
        assert run(["build-cache", "--vocab", workspace["paths"]["vocab"],
                    "--hashes", "8", "-o", cache_path, "--quiet"]) == 0
        config = json.load(open(workspace["config"], encoding="utf-8"))
        config["paths"]["cache"] = cache_path  # config says 32 hashes
        bad = tmp_path / "mismatch.json"
        bad.write_text(json.dumps(config), encoding="utf-8")
        assert run(["project", "--config", str(bad),
                    "--input", workspace["paths"]["val"],
                    "-o", str(tmp_path / "f.bin"), "--quiet"]) == 2
