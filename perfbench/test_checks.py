"""Tests of the benchmark's own references and output checks.

    PYTHONPATH=src python3 -m pytest perfbench -q

Each check must accept the program's real output and reject a deliberately
perturbed copy of it.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from hashmixer.hashing import HashFamily  # noqa: E402
from hashmixer.mixer import ModelConfig, backward_batch, forward_batch, init_params  # noqa: E402
from hashmixer.projection import ProjectionConfig, SequenceFeaturizer, build_cache  # noqa: E402
from hashmixer.quantize import quantize_params  # noqa: E402
from hashmixer.training import (  # noqa: E402
    OptimizerState, TrainConfig, adam_step, cross_entropy_masked)
from hashmixer.vocab import Vocabulary  # noqa: E402

VECTORS = HERE.parent / "tests" / "data" / "hash_vectors.txt"
UNITS = ["[UNK]", "a", "b", "c", "##a", "##b", "##c", "abc", "cab", "bca", "##ca", "ab", "абв",
         "中文"]


def test_reference_hash_reproduces_committed_vectors():
    lines = [line for line in VECTORS.read_text(encoding="utf-8").split("\n") if line]
    for line in lines:
        text, i, expected = line.split("\t")
        assert checks.ref_hash(int(i), text) == int(expected, 16), line
    assert len(lines) == 132


def test_reference_minhash_matches_cache_and_rejects_a_changed_row():
    vocab = Vocabulary.from_units(UNITS)
    table = build_cache(vocab, HashFamily(16)).table
    assert checks.check_cache_rows(table, UNITS, range(len(UNITS))) == len(UNITS)
    bad = table.copy()
    bad[7, 3] ^= np.uint64(1)
    with pytest.raises(checks.CheckFailed):
        checks.check_cache_rows(bad, UNITS, range(len(UNITS)))


@pytest.fixture()
def tiny():
    cfg = ModelConfig(input_rows=12, seq_len=6, bottleneck=8, hidden=8, depth=2, head="token",
                      num_labels=4)
    params = init_params(cfg, seed=5)
    rng = np.random.default_rng(0)
    for name in params:  # move biases and norms off their initial values
        params[name] = params[name] + 0.1 * rng.standard_normal(params[name].shape)
    x = rng.normal(size=(3, 12, 6))
    valid = np.array([6, 4, 2])
    return cfg, params, x, valid


def test_reference_forward_matches_forward_batch(tiny):
    cfg, params, x, valid = tiny
    logits, _ = forward_batch(x, valid, params, cfg)
    for i in range(x.shape[0]):
        ref = checks.ref_token_logits(x[i], params, cfg.depth)
        assert np.allclose(ref, logits[i], rtol=0, atol=1e-12)


def test_prediction_check_rejects_a_changed_label(tiny):
    cfg, params, x, valid = tiny
    logits, _ = forward_batch(x, valid, params, cfg)
    preds = [logits[i].argmax(axis=0)[: valid[i]] for i in range(3)]
    assert checks.check_predictions(x, valid, preds, params, cfg.depth) > 0
    preds[1] = preds[1].copy()
    preds[1][0] = (preds[1][0] + 1) % cfg.num_labels
    with pytest.raises(checks.CheckFailed):
        checks.check_predictions(x, valid, preds, params, cfg.depth)


def test_counting_invariant_holds_on_materialized_features_and_rejects_a_moved_count():
    vocab = Vocabulary.from_units(UNITS)
    cfg = ProjectionConfig(n_hashes=16, feature_size=32, window=1, max_seq_len=5)
    featurizer = SequenceFeaturizer(vocab, cfg, cache=build_cache(vocab, HashFamily(16)))
    ids, valid = featurizer.encode([["abc", "cab", "ab"], ["bca"], ["абв", "中文", "x", "c"]])
    feats = featurizer.materialize(ids, valid, dtype=np.float32)
    checks.check_counting_invariant(feats, valid, 16, 32)
    for i, j, t in ((0, 40, 1), (1, 3, 2)):  # a live column loses a count; padding gains one
        bad = feats.copy()
        live = np.nonzero(bad[i, :, 0])[0][0]
        bad[i, live, 0] -= 1
        bad[i, j, t] += 1
        with pytest.raises(checks.CheckFailed):
            checks.check_counting_invariant(bad, valid, 16, 32)


def test_quantization_step_check_rejects_a_weight_off_grid(tiny):
    _, params, _, _ = tiny
    q = quantize_params(params)
    deq = {k: v.values.astype(np.float64) * v.scale for k, v in q.items()}
    scales = {k: v.scale for k, v in q.items()}
    checks.check_quantization_step(params, deq, scales)
    deq["head.weight"] = deq["head.weight"].copy()
    deq["head.weight"][0, 0] = params["head.weight"][0, 0] + 0.6 * scales["head.weight"]
    with pytest.raises(checks.CheckFailed):
        checks.check_quantization_step(params, deq, scales)


def test_directional_gradient_check_rejects_a_wrong_gradient(tiny):
    cfg, params, x, valid = tiny
    labels = np.array([[0, 1, 2, 3, 0, 1], [1, 2, 3, 0, -1, -1], [3, 3, -1, -1, -1, -1]])

    def loss_fn(p, inp):
        return cross_entropy_masked(forward_batch(inp, valid, p, cfg)[0], labels)[0]

    logits, record = forward_batch(x, valid, params, cfg)
    _, upstream = cross_entropy_masked(logits, labels)
    grads, input_grad = backward_batch(record, upstream, params, cfg)
    assert checks.check_directional_gradient(loss_fn, params, x, grads, input_grad, seed=1) < 1e-6
    bad = dict(grads, **{"mixer.1.token_mlp.w1": grads["mixer.1.token_mlp.w1"] * 1.1})
    with pytest.raises(checks.CheckFailed):
        checks.check_directional_gradient(loss_fn, params, x, bad, input_grad, seed=1)


def test_adam_check_rejects_a_wrong_step(tiny):
    _, params, _, _ = tiny
    rng = np.random.default_rng(3)
    grads = {k: rng.standard_normal(v.shape) for k, v in params.items()}
    tc = TrainConfig(learning_rate=1e-3)
    before = {k: v.copy() for k, v in params.items()}
    after, _ = adam_step(params, grads, OptimizerState.fresh(params), tc)
    checks.check_adam_first_step(before, after, grads, tc.learning_rate, tc.adam_eps)
    after["head.bias"] = after["head.bias"] + 1e-6
    with pytest.raises(checks.CheckFailed):
        checks.check_adam_first_step(before, after, grads, tc.learning_rate, tc.adam_eps)


def test_training_and_accuracy_checks():
    checks.check_training_learns([{"train_loss": 3.5}, {"train_loss": 2.0}], 20)
    for losses in ([3.5, float("nan")], [3.5, 3.1]):
        with pytest.raises(checks.CheckFailed):
            checks.check_training_learns([{"train_loss": x} for x in losses], 20)
    gold = [["a", "b", "c", "d"], ["a", "b", "c", "d", "e"]]
    assert checks.exact_match([["a", "b", "c", "d"], ["a", "b"]], gold) == pytest.approx(6 / 9)
    assert checks.check_accuracy(6 / 9, gold) == pytest.approx(2 / 9)
    with pytest.raises(checks.CheckFailed):
        checks.check_accuracy(3 / 9, gold)


def test_cold_predict_and_eval_checks_reject_changed_output():
    checks.check_cold_predict({"tokens": ["a"], "labels": ["tag_1"]}, ["tag_1"])
    with pytest.raises(checks.CheckFailed):
        checks.check_cold_predict({"tokens": ["a"], "labels": ["tag_2"]}, ["tag_1"])
    report = {"metric": "exact_match", "value": 0.5, "examples": 8, "quantized": True}
    checks.check_eval_report(report, 8, True)
    for bad in ({"examples": 7}, {"quantized": False}, {"value": math.nan}):
        with pytest.raises(checks.CheckFailed):
            checks.check_eval_report(dict(report, **bad), 8, True)


def test_inputs_depend_only_on_the_seed():
    a, b, c = (inputs.serve_vocab(seed, 20_000) for seed in (1, 1, 2))
    assert a == b and a != c and len(set(a)) == 20_000
    lexicon = inputs.ZipfLexicon(1, a, size=5000)
    first = inputs.zipf_utterances(1, lexicon, 50, stream=0)
    assert first == inputs.zipf_utterances(1, inputs.ZipfLexicon(1, a, size=5000), 50, stream=0)
    assert first != inputs.zipf_utterances(1, lexicon, 50, stream=1)
    assert all(4 <= len(u) <= 14 and all(u) for u in first)


def test_benchmark_json_declares_what_the_benchmark_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(worker.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == worker.UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)
