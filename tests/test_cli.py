"""End-to-end command-line tests over a miniature synthetic run."""

import dataclasses
import hashlib
import json
import os
import stat
import struct
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import hashmixer
from hashmixer.cli import run
from hashmixer.config import build_run_config
from hashmixer.data import LabelInventory, load_jsonl
from hashmixer.hashing import HashFamily
from hashmixer.mixer import count_parameters, forward_batch, init_params
from hashmixer.model_io import (
    MODEL_MAGIC,
    load_features,
    load_model,
    save_features,
    save_model,
    save_quantized_model,
)
from hashmixer.projection import (
    CACHE_MAGIC,
    FeatureMatrix,
    ProjectionConfig,
    SequenceFeaturizer,
    TokenWindows,
    build_cache,
    load_cache,
    token_feature,
)
from hashmixer.quantize import quantize_params
from hashmixer.training import TrainConfig, encode_dataset, evaluate, predict_batches
from hashmixer.vocab import load_vocab

from conftest import MODEL_HEADER, TensorList, patch_model_header, synth_dataset

NOT_UTF8 = b"[UNK]\n\xc3\x28\n"


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


@pytest.fixture(scope="module")
def pooled(workspace):
    """A pooled-head run on a classification copy of the task: each class is the first tag."""
    root = workspace["root"] / "pooled"
    root.mkdir()
    data = {}
    for split in ("train", "val"):
        data[split] = str(root / f"{split}.jsonl")
        with open(workspace["paths"][split], encoding="utf-8") as src, \
                open(data[split], "w", encoding="utf-8") as dst:
            for line in src:
                row = json.loads(line)
                dst.write(json.dumps({"tokens": row["tokens"], "label": row["slots"][0]}) + "\n")
    config = json.load(open(workspace["config"], encoding="utf-8"))
    config["model"]["head"] = "pooled"
    config["paths"].update(train_data=data["train"], val_data=data["val"],
                           out_dir=str(root / "run"))
    path = root / "run.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert run(["train", "--config", str(path), "--quiet"]) == 0
    return {"run": str(root / "run"), "val": data["val"]}


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

    def test_rewriting_a_mapped_cache_leaves_its_holder_the_old_table(self, workspace,
                                                                       tmp_path):
        # a holder would die of SIGBUS if the rewrite truncated the file it maps
        vocab_path, cache = workspace["paths"]["vocab"], tmp_path / "cache.bin"
        assert run(["build-cache", "--vocab", vocab_path, "--hashes", "32",
                    "-o", str(cache), "--quiet"]) == 0
        vocab = load_vocab(vocab_path)
        cfg = ProjectionConfig(n_hashes=32, feature_size=256, window=0)
        old = load_cache(str(cache))
        old = dataclasses.replace(old, table=np.array(old.table))  # a copy, not the mapping
        tokens = [u for u in vocab.units if not u.startswith("##")]
        expected = SequenceFeaturizer(vocab, cfg, old)
        expected.encode([[t] for t in tokens])

        holder = (
            "import json, sys\n"
            "from hashmixer.projection import ProjectionConfig, SequenceFeaturizer, load_cache\n"
            "from hashmixer.vocab import load_vocab\n"
            "cfg = ProjectionConfig(n_hashes=32, feature_size=256, window=0)\n"
            "f = SequenceFeaturizer(load_vocab(sys.argv[1]), cfg, load_cache(sys.argv[2]))\n"
            "print('ready', flush=True)\n"
            "f.encode([[t] for t in json.loads(sys.stdin.readline())])\n"
            "print(json.dumps(f.table.tolist()))\n"
        )
        src = os.path.dirname(os.path.dirname(hashmixer.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.Popen([sys.executable, "-c", holder, vocab_path, str(cache)], env=env,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            assert proc.stdout.readline() == "ready\n"
            # half the size at 16 hashes: a rewrite in place would cut the holder's pages off
            assert run(["build-cache", "--vocab", vocab_path, "--hashes", "16",
                        "-o", str(cache), "--quiet"]) == 0
            out, _ = proc.communicate(json.dumps(tokens) + "\n", timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 0  # not -7, SIGBUS
        assert np.array_equal(np.array(json.loads(out), np.float32), expected.table)
        assert load_cache(str(cache)).n_hashes == 16
        assert os.listdir(tmp_path) == ["cache.bin"]


class TestParams:
    def test_base_preset_parameter_count(self, capsys):
        assert run(["params", "--preset", "base"]) == 0
        count = int(capsys.readouterr().out.strip())
        assert abs(count - 1_200_000) / 1_200_000 < 0.10

    def test_label_count_from_flag_else_config_else_78(self, trained, workspace, capsys):
        echo = os.path.join(trained, "config.json")
        model_cfg = build_run_config(path=echo).model_config()
        assert model_cfg.num_labels == 5
        expected = {
            (echo, None): count_parameters(model_cfg),
            (echo, "78"): count_parameters(dataclasses.replace(model_cfg, num_labels=78)),
            (workspace["config"], None): count_parameters(
                dataclasses.replace(model_cfg, num_labels=78)),
            (workspace["config"], "3"): count_parameters(
                dataclasses.replace(model_cfg, num_labels=3)),
        }
        assert len(set(expected.values())) == 3
        for (config, labels), count in expected.items():
            flag = [] if labels is None else ["--num-labels", labels]
            assert run(["params", "--config", config, *flag]) == 0
            assert int(capsys.readouterr().out) == count, (config, labels)


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(hashmixer.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, hashmixer.cli; print(sorted(m for m in sys.modules if 'scipy' in m))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def _val_split(trained, workspace):
    """The trained run's label inventory, featurizer and encoded validation split."""
    with open(os.path.join(trained, "labels.json"), encoding="utf-8") as fh:
        labels = json.load(fh)
    inventory = LabelInventory(labels=tuple(labels), index={l: i for i, l in enumerate(labels)})
    featurizer = SequenceFeaturizer(load_vocab(workspace["paths"]["vocab"]),
                                    build_run_config(path=workspace["config"]).projection)
    data = encode_dataset(load_jsonl(workspace["paths"]["val"]), featurizer, inventory,
                          "token", strict=False)
    return inventory, featurizer, data


def _assert_float64_argmax_except_ties(preds, featurizer, data, params64, model_cfg):
    """``preds`` are the float64 forward's argmax wherever its top-two margin is
    beyond float32 rounding, and that holds at over 99% of the positions."""
    windows = TokenWindows(featurizer.table, featurizer.window_ids(data.ids, data.valid))
    logits64, _ = forward_batch(windows, data.valid, params64, model_cfg)
    preds64 = [logits64[i, :, :n].argmax(axis=0) for i, n in enumerate(data.valid)]
    decided = 0
    for i, (pred, p64) in enumerate(zip(preds, preds64)):
        top2 = np.sort(logits64[i, :, : data.valid[i]], axis=0)[-2:]
        clear = top2[1] - top2[0] > 1e-5 * np.maximum(1.0, np.abs(top2[1]))
        assert np.array_equal(pred[clear], p64[clear]), i
        decided += int(clear.sum())
    assert decided > 0.99 * int(data.valid.sum())


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
        # the float32 model file runs the float32 forward that scored each epoch
        assert report["value"] == best

    def test_float32_predictions_match_float64_except_ties(self, trained, workspace):
        params, model_cfg, _ = load_model(os.path.join(trained, "model.bin"))
        assert {p.dtype for p in params.values()} == {np.dtype(np.float32)}
        params64 = {k: p.astype(np.float64) for k, p in params.items()}
        _, featurizer, data = _val_split(trained, workspace)
        preds32 = predict_batches(data, featurizer, params, model_cfg)
        _assert_float64_argmax_except_ties(preds32, featurizer, data, params64, model_cfg)

    def test_int8_model_runs_float32(self, trained, workspace, tmp_path, capsys):
        qmodel = str(tmp_path / "model.q.bin")
        assert run(["quantize", "--model", os.path.join(trained, "model.bin"),
                    "-o", qmodel, "--quiet"]) == 0
        params64, model_cfg, was_quantized = load_model(qmodel)
        assert was_quantized and {p.dtype for p in params64.values()} == {np.dtype(np.float64)}
        params32 = {k: p.astype(np.float32) for k, p in params64.items()}
        inventory, featurizer, data = _val_split(trained, workspace)
        preds = predict_batches(data, featurizer, params64, model_cfg)
        preds32 = predict_batches(data, featurizer, params32, model_cfg)
        assert all(np.array_equal(p, p32) for p, p32 in zip(preds, preds32))
        _assert_float64_argmax_except_ties(preds, featurizer, data, params64, model_cfg)
        assert run(["eval", "--model", qmodel, "--data", workspace["paths"]["val"],
                    "--config", workspace["config"],
                    "--labels", os.path.join(trained, "labels.json"), "--quiet"]) == 0
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert report["value"] == evaluate(data, featurizer, params32, model_cfg,
                                           inventory)["value"]

    def test_quantize_output_unchanged(self, trained, tmp_path):
        model = os.path.join(trained, "model.bin")
        out = str(tmp_path / "model.q.bin")
        assert run(["quantize", "--model", model, "-o", out, "--quiet"]) == 0
        params, model_cfg, _ = load_model(model)
        ref = str(tmp_path / "ref.q.bin")
        save_quantized_model(ref, quantize_params({k: p.astype(np.float64)
                                                   for k, p in params.items()}), model_cfg)
        assert _sha(out) == _sha(ref)

    def test_seed_and_out_flags_override_the_config(self, trained, workspace, tmp_path):
        config = json.load(open(workspace["config"], encoding="utf-8"))
        config["train"]["seed"] = 0
        path = tmp_path / "seed0.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        out = str(tmp_path / "flagged")
        assert run(["train", "--config", str(path), "--seed", "7", "--out", out, "--quiet"]) == 0
        # the flags give the fixture's seed and a new directory: the same model lands there
        assert _sha(os.path.join(out, "model.bin")) == _sha(os.path.join(trained, "model.bin"))
        echoed = build_run_config(path=os.path.join(out, "config.json"))
        assert (echoed.train.seed, echoed.out_dir) == (7, out)

    def test_config_echo_reloads_identically(self, trained, workspace):
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

    @pytest.mark.parametrize("model", ["model.bin", "model.q.bin"])
    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_run_directory_alone_serves_the_model(self, trained, workspace, capsys, command,
                                                 model):
        # train writes config.json and labels.json beside model.bin, and so the
        # quantized file written next to it finds them too
        if model == "model.q.bin":
            assert run(["quantize", "--model", os.path.join(trained, "model.bin"),
                        "-o", os.path.join(trained, model), "--quiet"]) == 0
        with open(workspace["paths"]["val"], encoding="utf-8") as fh:
            text = " ".join(json.loads(fh.readline())["tokens"])
        argv = {"eval": ["eval", "--data", workspace["paths"]["val"]],
                "predict": ["predict", "--text", text]}[command]
        argv += ["--model", os.path.join(trained, model)]
        outputs = []
        for flags in ([], ["--config", os.path.join(trained, "config.json")]):
            assert run(argv + flags) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] and outputs[0].strip()

    def test_pooled_head_from_its_run_directory(self, pooled, capsys):
        model = os.path.join(pooled["run"], "model.bin")
        assert run(["eval", "--model", model, "--data", pooled["val"]]) == 0
        report = json.loads(capsys.readouterr().out)
        with open(os.path.join(pooled["run"], "train_log.jsonl"), encoding="utf-8") as fh:
            best = max(json.loads(line)["val_metric"] for line in fh)
        assert report["metric"] == "intent_accuracy"
        assert report["value"] == best
        with open(pooled["val"], encoding="utf-8") as fh:
            text = " ".join(json.loads(fh.readline())["tokens"])
        assert run(["predict", "--model", model, "--text", text]) == 0
        payload = json.loads(capsys.readouterr().out)
        with open(os.path.join(pooled["run"], "labels.json"), encoding="utf-8") as fh:
            assert list(payload) == ["label"] and payload["label"] in json.load(fh)

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

    @pytest.mark.parametrize("batch_size", [1, 7, None])
    def test_streamed_project_matches_one_shot_dump(self, workspace, tmp_path, batch_size):
        with open(workspace["config"], encoding="utf-8") as fh:
            config = json.load(fh)
        # window 1: the neighbour slots of each example's first and last column
        # must not see the examples beside it in the file
        config["projection"]["window"] = 1
        if batch_size is None:
            del config["train"]["batch_size"]  # TrainConfig's default, 256
        else:
            config["train"]["batch_size"] = batch_size
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out = str(tmp_path / "streamed.bin")
        val = workspace["paths"]["val"]
        assert run(["project", "--config", str(config_path), "--input", val,
                    "-o", out, "--quiet"]) == 0

        examples = load_jsonl(val)
        featurizer = SequenceFeaturizer(load_vocab(workspace["paths"]["vocab"]),
                                        ProjectionConfig(**config["projection"]))
        ids, valid = featurizer.encode([ex.tokens for ex in examples])
        inputs = featurizer.materialize(ids, valid, dtype=np.float32)
        ref = str(tmp_path / "one_shot.bin")
        save_features(ref, [FeatureMatrix(data=x, valid_len=int(n)) for x, n in zip(inputs, valid)])
        assert _sha(out) == _sha(ref)

    def test_project_memory_is_flat_in_the_example_count(self, tmp_path):
        # base geometry: one example's dense matrix is 3 * 1024 rows x 64 columns of
        # float32, 768 KiB, so a 64-example chunk would be 48 MiB
        rng = np.random.default_rng(0)
        words = [f"w{k}" for k in range(40)]  # few distinct tokens: the token table stays small
        (tmp_path / "vocab.txt").write_text("\n".join(["[UNK]", *words]) + "\n", encoding="utf-8")
        config = {"projection": {"kind": "minhash", "n_hashes": 64, "feature_size": 1024,
                                 "window": 1, "max_seq_len": 64},
                  "train": {"batch_size": 64},
                  "paths": {"vocab": str(tmp_path / "vocab.txt")}}
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")

        def peak(n_examples):
            data = tmp_path / f"{n_examples}.jsonl"
            with open(data, "w", encoding="utf-8") as fh:
                for _ in range(n_examples):
                    tokens = list(rng.choice(words, size=int(rng.integers(8, 65))))
                    fh.write(json.dumps({"tokens": tokens, "slots": ["O"] * len(tokens)}) + "\n")
            argv = ["project", "--config", str(config_path), "--input", str(data),
                    "-o", str(tmp_path / f"{n_examples}.bin"), "--quiet"]
            tracemalloc.start()
            try:
                assert run(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(16), peak(64)
        assert abs(large - small) < 2**20
        # measured 2.2-2.3 MiB: the 1 MiB token table, one example and its gather
        assert large < 4 * 2**20

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

    @pytest.mark.parametrize("field_map, named", [
        pytest.param("not json", "--field-map", id="not-json"),
        pytest.param('{"tokens": "0", "slots": 1}', "'tokens'", id="string-index"),
        pytest.param('{"tokens": 0.5, "slots": 1}', "'tokens'", id="float-index"),
        pytest.param('{"tokens": -2, "slots": 1}', "'tokens'", id="negative-index"),
        pytest.param('{"tokens": 0, "slots": true}', "'slots'", id="bool-index"),
        pytest.param('{"tokens": 0}', "'slots'", id="missing-key"),
        pytest.param('{"tokens": 0, "slots": 1, "delimiter": ""}', "'delimiter'",
                     id="empty-delimiter"),
        pytest.param('{"tokens": 0, "slots": 1, "delimiter": 9}', "'delimiter'",
                     id="non-string-delimiter"),
        pytest.param('{"tokens": 0, "slots": 1, "skip_header": "false"}', "'skip_header'",
                     id="string-skip-header"),
        pytest.param('{"tokens": 0, "slots": 1, "skip_header": 1}', "'skip_header'",
                     id="int-skip-header"),
    ])
    def test_bad_field_map_is_usage_error(self, tmp_path, capsys, field_map, named):
        raw = tmp_path / "raw.tsv"
        raw.write_text("x\ty\n", encoding="utf-8")
        assert run(["import-mtop", "--input", str(raw),
                    "--field-map", field_map, "-o", str(tmp_path / "o.jsonl")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert named in err and "Traceback" not in err


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self):
        assert run(["params", "--preset", "base", "--bogus"]) == 1

    def test_abbreviated_flag_is_usage_error(self, capsys):
        assert run(["params", "--pre", "base"]) == 1
        assert "unrecognized arguments: --pre" in capsys.readouterr().err

    def test_unknown_command_is_usage_error(self):
        assert run(["frobnicate"]) == 1

    def test_missing_data_file_is_data_error(self, workspace):
        assert run(["eval", "--model", str(workspace["root"] / "nope.bin"),
                    "--data", "also-nope.jsonl", "--config", workspace["config"]]) == 2

    @pytest.mark.parametrize("flag", [["--seed", "1"], ["--out", "d"]], ids=["seed", "out"])
    @pytest.mark.parametrize("command", ["build-cache", "project", "eval", "quantize", "predict",
                                         "import-mtop", "import-multiatis", "params"])
    def test_train_flags_are_usage_errors_elsewhere(self, trained, workspace, tmp_path, capsys,
                                                    monkeypatch, command, flag):
        monkeypatch.chdir(tmp_path)  # where a stray relative "d" would land
        model, config = os.path.join(trained, "model.bin"), workspace["config"]
        val = workspace["paths"]["val"]
        raw = tmp_path / "raw.tsv"
        raw.write_text("1\twake me\tO O\n", encoding="utf-8")
        output = tmp_path / "output"
        argv = {
            "build-cache": ["--vocab", workspace["paths"]["vocab"], "-o", str(output)],
            "project": ["--config", config, "--input", val, "-o", str(output)],
            "eval": ["--model", model, "--data", val, "--config", config],
            "quantize": ["--model", model, "-o", str(output)],
            "predict": ["--model", model, "--config", config, "--text", "a b"],
            "import-mtop": ["--input", str(raw), "--field-map", '{"tokens": 1, "slots": 2}',
                            "-o", str(output)],
            "import-multiatis": ["--input", str(raw), "--field-map", '{"text": 1, "intent": 2}',
                                 "-o", str(output)],
            "params": ["--preset", "base"],
        }[command]
        assert run([command, *argv, *flag, "--quiet"]) == 1
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not output.exists() and not (tmp_path / "d").exists()
        assert run([command, *argv, "--quiet"]) == 0  # the flag alone was at fault

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_uint64_is_rejected(self, workspace, tmp_path, capsys, seed):
        config = json.load(open(workspace["config"], encoding="utf-8"))
        config["train"]["seed"] = seed
        config["paths"]["out_dir"] = str(tmp_path / "run")
        bad = tmp_path / "seed.json"
        bad.write_text(json.dumps(config), encoding="utf-8")
        # in a config file: a bad data file, named with its key
        self._exits_2_naming(capsys, ["train", "--config", str(bad), "--quiet"], bad,
                             "train.seed")
        # as a flag: a usage error
        assert run(["train", "--config", workspace["config"], "--seed", str(seed),
                    "--out", str(tmp_path / "run"), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: seed ") and "Traceback" not in err
        assert not os.path.exists(tmp_path / "run")

    def test_largest_seed_is_accepted(self, trained):
        _, model_cfg, _ = load_model(os.path.join(trained, "model.bin"))
        params = init_params(model_cfg, TrainConfig(seed=2**64 - 1).seed)
        assert all(np.isfinite(p).all() for p in params.values())

    @pytest.mark.parametrize("command", ["eval", "predict"])
    @pytest.mark.parametrize("key, value", [("window", 1), ("max_seq_len", 16)])
    def test_config_not_matching_model_is_data_error(self, trained, workspace, tmp_path, capsys,
                                                     command, key, value):
        config = json.load(open(workspace["config"], encoding="utf-8"))
        config["projection"][key] = value
        bad = tmp_path / "other-projection.json"
        bad.write_text(json.dumps(config), encoding="utf-8")
        model = os.path.join(trained, "model.bin")
        argv = {"eval": ["eval", "--data", workspace["paths"]["val"]],
                "predict": ["predict", "--text", "a b"]}[command]
        self._exits_2_naming(capsys, argv + ["--model", model, "--config", str(bad), "--quiet"],
                             model, str(bad))

    def test_cache_of_another_vocabulary_is_data_error(self, trained, workspace, tmp_path,
                                                       capsys):
        units = open(workspace["paths"]["vocab"], encoding="utf-8").read().splitlines()
        other = tmp_path / "other.txt"  # same size, every unit but [UNK] renamed
        other.write_text("\n".join(u if u == "[UNK]" else u + "x" for u in units) + "\n",
                         encoding="utf-8")
        config = json.load(open(workspace["config"], encoding="utf-8"))
        argv = ["eval", "--model", os.path.join(trained, "model.bin"),
                "--data", workspace["paths"]["val"], "--quiet"]
        for vocab, code in ((str(other), 2), (workspace["paths"]["vocab"], 0)):
            cache = tmp_path / f"cache{code}.bin"
            assert run(["build-cache", "--vocab", vocab, "--hashes", "32",
                        "-o", str(cache), "--quiet"]) == 0
            config["paths"]["cache"] = str(cache)
            path = tmp_path / f"cached{code}.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            if code == 2:
                self._exits_2_naming(capsys, argv + ["--config", str(path)], cache)
            else:  # the cache of the config's own vocabulary loads
                assert run(argv + ["--config", str(path)]) == 0

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_labels_file_listing_a_label_twice_is_data_error(self, trained, workspace,
                                                             tmp_path, capsys, command):
        # same size as the model's inventory, last label replaced by a copy of the first
        labels = json.load(open(os.path.join(trained, "labels.json"), encoding="utf-8"))
        path = tmp_path / "labels.json"
        path.write_text(json.dumps(labels[:-1] + labels[:1]), encoding="utf-8")
        argv = {"eval": ["eval", "--data", workspace["paths"]["val"]],
                "predict": ["predict", "--text", "a b"]}[command]
        self._exits_2_naming(capsys, argv + ["--model", os.path.join(trained, "model.bin"),
                                             "--config", workspace["config"],
                                             "--labels", str(path), "--quiet"],
                             path, repr(labels[0]), "more than once")

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_label_count_not_matching_model_is_data_error(self, trained, workspace, tmp_path,
                                                          capsys, command):
        labels = json.load(open(os.path.join(trained, "labels.json"), encoding="utf-8"))
        path = tmp_path / "short.json"
        path.write_text(json.dumps(labels[:-1]), encoding="utf-8")
        model = os.path.join(trained, "model.bin")
        argv = {"eval": ["eval", "--data", workspace["paths"]["val"]],
                "predict": ["predict", "--text", "a b"]}[command]
        self._exits_2_naming(capsys, argv + ["--model", model, "--labels", str(path)],
                             path, model, f"{len(labels) - 1} entries", f"expects {len(labels)}")

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_model_without_config_beside_it_is_data_error(self, trained, workspace, tmp_path,
                                                          capsys, command):
        # a model copied alone, with its labels: no --config and no config.json to find
        for name in ("model.bin", "labels.json"):
            with open(os.path.join(trained, name), "rb") as fh:
                (tmp_path / name).write_bytes(fh.read())
        argv = {"eval": ["eval", "--data", workspace["paths"]["val"]],
                "predict": ["predict", "--text", "a b"]}[command]
        self._exits_2_naming(capsys, argv + ["--model", str(tmp_path / "model.bin")],
                             tmp_path / "config.json")

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_preset_is_usage_error_for_eval_and_predict(self, trained, workspace, capsys,
                                                        command):
        # the model file fixes the geometry and the run's config.json the rest
        argv = {"eval": ["eval", "--data", workspace["paths"]["val"]],
                "predict": ["predict", "--text", "a b"]}[command]
        argv += ["--model", os.path.join(trained, "model.bin")]
        assert run(argv + ["--preset", "base"]) == 1
        assert "unrecognized arguments: --preset base" in capsys.readouterr().err
        assert run(argv) == 0

    @staticmethod
    def _write_config(workspace, tmp_path, name, **paths):
        """The workspace config with some ``paths`` replaced, written to ``tmp_path/name``."""
        config = json.load(open(workspace["config"], encoding="utf-8"))
        config["train"]["epochs"] = 1
        config["paths"].update(paths, out_dir=str(tmp_path / "newrun"))
        path = tmp_path / name
        path.write_text(json.dumps(config), encoding="utf-8")
        return str(path)

    @staticmethod
    def _argv(command, trained, workspace, tmp_path, config):
        return {
            "eval": ["eval", "--model", os.path.join(trained, "model.bin"),
                     "--data", workspace["paths"]["val"]],
            "predict": ["predict", "--model", os.path.join(trained, "model.bin"),
                        "--text", "a b"],
            "project": ["project", "--input", workspace["paths"]["val"],
                        "-o", str(tmp_path / "f.bin")],
            "train": ["train"],
        }[command] + ["--config", config, "--quiet"]

    @pytest.mark.parametrize("command", ["eval", "predict", "project", "train"])
    def test_cache_of_a_vocabulary_with_two_units_swapped_is_data_error(
            self, trained, workspace, tmp_path, capsys, command):
        # the workspace units plus 100 that no dataset word holds, so they never change a split
        units = open(workspace["paths"]["vocab"], encoding="utf-8").read().splitlines()
        units += [f"\u2603{i:03d}" for i in range(100)]
        # rows outside an evenly spaced 64-row sample, first and last included
        sampled = set(np.linspace(0, len(units) - 1, 64).round().astype(int).tolist())
        row = next(r for r in range(len(units) - 100, len(units) - 1)
                   if r not in sampled and r + 1 not in sampled)
        swapped = list(units)
        swapped[row], swapped[row + 1] = units[row + 1], units[row]
        vocab, other = tmp_path / "vocab.txt", tmp_path / "swapped.txt"
        vocab.write_text("\n".join(units) + "\n", encoding="utf-8")
        other.write_text("\n".join(swapped) + "\n", encoding="utf-8")
        cache = tmp_path / "cache.bin"
        assert run(["build-cache", "--vocab", str(vocab), "--hashes", "32",
                    "-o", str(cache), "--quiet"]) == 0
        bad = self._write_config(workspace, tmp_path, "swapped.json", vocab=str(other),
                                 cache=str(cache))
        self._exits_2_naming(capsys, self._argv(command, trained, workspace, tmp_path, bad),
                             cache, str(other))
        assert not (tmp_path / "newrun").exists()
        good = self._write_config(workspace, tmp_path, "own.json", vocab=str(vocab),
                                  cache=str(cache))
        assert run(self._argv(command, trained, workspace, tmp_path, good)) == 0

    def test_version_1_cache_is_data_error(self, trained, workspace, tmp_path, capsys):
        # and a version 2 file of 32-bit fingerprints, which only an older build wrote
        vocab = load_vocab(workspace["paths"]["vocab"])
        table = build_cache(vocab, HashFamily(32)).table
        headers = {"v1.bin": struct.pack("<IQIB", 1, len(table), 32, 64),
                   "narrow.bin": struct.pack("<IQIB32s", 2, len(table), 32, 32, vocab.digest)}
        for name, header in headers.items():
            cache = tmp_path / name
            # the table holds values of the width the header gives
            dtype = "<u4" if name == "narrow.bin" else "<u8"
            cache.write_bytes(CACHE_MAGIC + header + table.astype(dtype).tobytes())
            config = self._write_config(workspace, tmp_path, f"{name}.json", cache=str(cache))
            self._exits_2_naming(capsys, self._argv("eval", trained, workspace, tmp_path, config),
                                 cache, "hashmixer build-cache")

    @pytest.mark.parametrize("command", ["eval", "predict", "project", "train"])
    def test_missing_named_cache_is_data_error(self, trained, workspace, tmp_path, capsys,
                                               command):
        cache = tmp_path / "nope.bin"
        config = self._write_config(workspace, tmp_path, "nope.json", cache=str(cache))
        self._exits_2_naming(capsys, self._argv(command, trained, workspace, tmp_path, config),
                             cache)
        assert not (tmp_path / "newrun").exists()

    def test_vocabulary_with_crlf_line_ends_loads_with_its_cache(self, trained, workspace,
                                                                 tmp_path, capsys):
        units = open(workspace["paths"]["vocab"], encoding="utf-8").read().splitlines()
        crlf = tmp_path / "crlf.txt"
        crlf.write_bytes("\r\n".join(units).encode("utf-8"))  # no newline after the last
        cache = tmp_path / "cache.bin"
        assert run(["build-cache", "--vocab", workspace["paths"]["vocab"], "--hashes", "32",
                    "-o", str(cache), "--quiet"]) == 0
        reports = []
        for vocab in (workspace["paths"]["vocab"], str(crlf)):
            config = self._write_config(workspace, tmp_path, "c.json", vocab=vocab,
                                        cache=str(cache))
            assert run(self._argv("eval", trained, workspace, tmp_path, config)) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("key", ["vocab", "train_data", "val_data"])  # cache: just above
    def test_train_that_exits_2_creates_no_out_dir(self, workspace, tmp_path, capsys, key):
        missing = tmp_path / "missing.txt"
        config = self._write_config(workspace, tmp_path, "missing.json", **{key: str(missing)})
        self._exits_2_naming(capsys, ["train", "--config", config, "--quiet"], missing)
        assert not (tmp_path / "newrun").exists()

    @pytest.mark.parametrize("command", ["eval", "project", "train"])
    def test_dataset_without_examples_is_data_error(self, trained, workspace, tmp_path, capsys,
                                                    command):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n", encoding="utf-8")
        config = self._write_config(workspace, tmp_path, "empty.json", val_data=str(empty))
        argv = self._argv(command, trained, workspace, tmp_path, config)
        if command != "train":  # eval and project read the file given on the command line
            argv[argv.index(workspace["paths"]["val"])] = str(empty)
        self._exits_2_naming(capsys, argv, empty, "no examples")

    def test_help_exits_zero(self):
        assert run(["--help"]) == 0

    def test_bad_config_value_is_usage_error(self, workspace, tmp_path, capsys):
        # an out-of-range value in a config file is a bad data file, named by its key
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"projection": {"kind": "sketchy"}}), encoding="utf-8")
        assert run(["params", "--config", str(bad)]) == 2
        assert "projection.kind" in capsys.readouterr().err
        # the same kind of value given as a flag stays a usage error
        assert run(["params", "--preset", "base", "--num-labels", "0"]) == 1

    @pytest.mark.parametrize("document", [
        5,
        {"train": {"bogus": 1}},
        {"model": {"bottleneck": "x"}},
        {"paths": {"vocabb": "v.txt"}},
        {"model": {"bogus": 1}},
        {"model": {"bottleneck": 0}},
    ])
    def test_malformed_config_is_data_error(self, tmp_path, capsys, document):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(document), encoding="utf-8")
        assert run(["params", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

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

    def test_diverging_training_is_data_error(self, workspace, tmp_path, capsys):
        config = json.load(open(workspace["config"], encoding="utf-8"))
        config["train"]["learning_rate"] = 1e10
        config["paths"]["out_dir"] = str(tmp_path / "run")
        bad = tmp_path / "diverge.json"
        bad.write_text(json.dumps(config), encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["train", "--config", str(bad), "--quiet"]) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "epoch 1, batch 2: training loss is nan" in capsys.readouterr().err

    @pytest.mark.parametrize("key, literal, named", [
        ("learning_rate", "NaN", "NaN is not a JSON value"),
        ("learning_rate", "Infinity", "Infinity is not a JSON value"),
        ("adam_eps", "-Infinity", "-Infinity is not a JSON value"),
        ("learning_rate", "1e999", "train.learning_rate"),  # JSON reads it as infinity
        ("adam_beta1", "1.5", "train.adam_beta1"),
        ("adam_beta2", "1", "train.adam_beta2"),
        ("adam_eps", "-1", "train.adam_eps"),
        ("adam_eps", "1e999", "train.adam_eps"),
    ])
    def test_bad_optimizer_setting_is_data_error(self, workspace, tmp_path, capsys, key,
                                                 literal, named):
        config = json.load(open(workspace["config"], encoding="utf-8"))
        config["train"][key] = "VALUE"
        config["paths"]["out_dir"] = str(tmp_path / "run")
        bad = tmp_path / "optimizer.json"
        bad.write_text(json.dumps(config).replace('"VALUE"', literal), encoding="utf-8")
        self._exits_2_naming(capsys, ["train", "--config", str(bad), "--quiet"], bad, named)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["build-cache", "import-mtop", "import-multiatis"])
    def test_build_cache_over_a_fifo_is_data_error(self, workspace, tmp_path, capsys, command):
        # refused without opening the FIFO, which would block until a reader came
        raw = tmp_path / "raw.tsv"
        raw.write_text("1\twake me\tO O\n", encoding="utf-8")
        out = tmp_path / "out"
        out.mkdir()
        fifo = out / "out.fifo"
        os.mkfifo(fifo)
        argv = {
            "build-cache": ["--vocab", workspace["paths"]["vocab"]],
            "import-mtop": ["--input", str(raw), "--field-map", '{"tokens": 1, "slots": 2}'],
            "import-multiatis": ["--input", str(raw), "--field-map", '{"text": 1, "intent": 2}'],
        }[command]
        self._exits_2_naming(capsys, [command, *argv, "-o", str(fifo), "--quiet"], fifo,
                             "not a regular file")
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert os.listdir(out) == ["out.fifo"]

    @pytest.mark.parametrize("name", ["train_log.jsonl", "model.bin", "labels.json",
                                      "config.json"])
    def test_train_output_over_a_fifo_is_data_error(self, workspace, tmp_path, capsys, name):
        # refused before training starts: nothing is written and nothing blocks on the FIFO
        out = tmp_path / "run"
        out.mkdir()
        fifo = out / name
        os.mkfifo(fifo)
        self._exits_2_naming(capsys, ["train", "--config", workspace["config"],
                                      "--out", str(out), "--quiet"], fifo, "not a regular file")
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert os.listdir(out) == [name]

    @pytest.mark.parametrize("key", ["vocab", "cache"])
    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_unreadable_run_config_path_names_the_config_and_key(
            self, trained, workspace, tmp_path, capsys, monkeypatch, key, command):
        # a relative path in a run's config.json is read from the working directory
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        for name in ("model.bin", "labels.json"):
            with open(os.path.join(trained, name), "rb") as fh:
                (run_dir / name).write_bytes(fh.read())
        config = json.load(open(os.path.join(trained, "config.json"), encoding="utf-8"))
        config["paths"][key] = os.path.join("data", f"missing.{key}")
        (run_dir / "config.json").write_text(json.dumps(config), encoding="utf-8")
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        argv = {"eval": ["eval", "--data", workspace["paths"]["val"]],
                "predict": ["predict", "--text", "a b"]}[command]
        self._exits_2_naming(capsys, argv + ["--model", str(run_dir / "model.bin")],
                             run_dir / "config.json", f"paths.{key}", f"missing.{key}")

    @staticmethod
    def _exits_2_naming(capsys, argv, path, *names):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert str(path) in err and "Traceback" not in err
        for name in names:
            assert name in err

    @pytest.mark.parametrize("text, message", [
        ("[UNK]\n\nthe\n", "line 2: empty unit"),
        ("[UNK]\na\nb\na\n", "line 4: duplicate unit 'a'"),
        ("the\ncat\n", "missing the unknown token '[UNK]'"),
    ], ids=["empty", "duplicate", "no_unk"])
    def test_vocabulary_format_error_names_the_file(self, tmp_path, capsys, text, message):
        vocab = tmp_path / "v.txt"
        vocab.write_text(text, encoding="utf-8")
        self._exits_2_naming(capsys, ["build-cache", "--vocab", str(vocab),
                                      "-o", str(tmp_path / "c.bin"), "--quiet"], vocab, message)
        assert not (tmp_path / "c.bin").exists()

    @pytest.mark.parametrize("kind", ["vocab", "dataset", "config", "labels", "raw_tsv"])
    def test_non_utf8_input_file_is_data_error(self, trained, workspace, tmp_path, capsys, kind):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(NOT_UTF8)
        model, config = os.path.join(trained, "model.bin"), workspace["config"]
        argv = {
            "vocab": ["build-cache", "--vocab", str(bad), "-o", str(tmp_path / "c.bin")],
            "dataset": ["project", "--config", config, "--input", str(bad),
                        "-o", str(tmp_path / "f.bin")],
            "config": ["params", "--config", str(bad)],
            "labels": ["predict", "--model", model, "--config", config, "--labels", str(bad),
                       "--text", "a b"],
            "raw_tsv": ["import-mtop", "--input", str(bad), "--field-map",
                        '{"tokens": 0, "slots": 1}', "-o", str(tmp_path / "o.jsonl")],
        }[kind]
        self._exits_2_naming(capsys, argv + ["--quiet"], bad)

    def test_truncated_labels_file_is_data_error(self, trained, workspace, tmp_path, capsys):
        labels = tmp_path / "labels.json"
        text = open(os.path.join(trained, "labels.json"), encoding="utf-8").read()
        labels.write_text(text[: len(text) // 2], encoding="utf-8")
        self._exits_2_naming(capsys, ["predict", "--model", os.path.join(trained, "model.bin"),
                                      "--config", workspace["config"], "--labels", str(labels),
                                      "--text", "a b", "--quiet"], labels)

    @pytest.mark.parametrize("fault", ["zero_hidden", "wrapping_shape", "huge_depth"])
    def test_model_header_faults_are_data_errors(self, trained, tmp_path, capsys, fault):
        path = tmp_path / "model.bin"
        path.write_bytes(open(os.path.join(trained, "model.bin"), "rb").read())
        if fault == "zero_hidden":
            patch_model_header(path, hidden=0)
        elif fault == "huge_depth":
            patch_model_header(path, depth=2**32 - 1)
        else:  # 65536**4 elements wrap a 64-bit element count to 0
            name = b"bottleneck.weight"
            path.write_bytes(path.read_bytes()[: len(MODEL_MAGIC) + struct.calcsize(MODEL_HEADER)]
                             + struct.pack("<H", len(name)) + name
                             + struct.pack("<BB4I", 0, 4, *(65536,) * 4))
        self._exits_2_naming(capsys, ["quantize", "--model", str(path),
                                      "-o", str(tmp_path / "q.bin"), "--quiet"], path)

    @pytest.mark.parametrize("command", ["eval", "quantize"])
    @pytest.mark.parametrize("fault", ["unknown", "repeated"])
    def test_model_tensor_faults_are_data_errors(self, trained, workspace, tmp_path, capsys,
                                                 command, fault):
        params, cfg, _ = load_model(os.path.join(trained, "model.bin"))
        path = tmp_path / "model.bin"
        if fault == "unknown":
            name = "junk"
            save_model(str(path), {**params, name: np.ones(3)}, cfg)
        else:
            name = "head.bias"
            save_model(str(path), TensorList([*params.items(), (name, params[name])]), cfg)
        argv = {
            "eval": ["eval", "--model", str(path), "--data", workspace["paths"]["val"],
                     "--config", workspace["config"],
                     "--labels", os.path.join(trained, "labels.json")],
            "quantize": ["quantize", "--model", str(path), "-o", str(tmp_path / "q.bin")],
        }[command]
        self._exits_2_naming(capsys, argv + ["--quiet"], path, name)

    @pytest.mark.parametrize("kind", ["empty", "directory"])
    @pytest.mark.parametrize("role", ["cache", "model"])
    def test_empty_or_directory_container_is_data_error(self, trained, workspace, tmp_path,
                                                        capsys, role, kind):
        path = tmp_path / "container.bin"
        if kind == "empty":
            path.write_bytes(b"")
        else:
            path.mkdir()
        if role == "cache":
            config = self._write_config(workspace, tmp_path, "c.json", cache=str(path))
            argv = self._argv("eval", trained, workspace, tmp_path, config)
        else:
            argv = ["eval", "--model", str(path), "--data", workspace["paths"]["val"],
                    "--config", workspace["config"],
                    "--labels", os.path.join(trained, "labels.json"), "--quiet"]
        self._exits_2_naming(capsys, argv, path)

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
