"""Acceptance suite: one test per shipping criterion, each printing a
PASS line with the measured numbers (run with ``pytest -v -s`` to watch).

Criterion 8 needs externally supplied benchmark files and is skipped unless
the HASHMIXER_MTOP_* environment variables point at them; see the README.
"""

import json
import os
import time

import numpy as np
import pytest

from hashmixer.config import build_run_config
from hashmixer.data import synth_examples
from hashmixer.hashing import HashFamily, char_trigrams, minhash_unit, string_hash
from hashmixer.mixer import ModelConfig, backward_batch, count_parameters, forward_batch, init_params
from hashmixer.model_io import load_model, save_model, save_quantized_model
from hashmixer.projection import (
    ProjectionConfig,
    SequenceFeaturizer,
    build_cache,
    counting_feature,
    token_fingerprint,
)
from hashmixer.quantize import quantize_params
from hashmixer.training import (
    TrainConfig,
    cross_entropy_masked,
    encode_dataset,
    evaluate,
    predict_batches,
    train,
)
from hashmixer.vocab import Vocabulary, tokenize_word

VECTORS_PATH = os.path.join(os.path.dirname(__file__), "data", "hash_vectors.txt")


def test_criterion_1_parameter_count_reproduction():
    """Published model-size grid reproduced within 10%."""
    grid = {
        "base": (3072, 256, 2, 1_200_000),
        "cfg1": (1536, 256, 2, 760_000),
        "cfg2": (6144, 256, 2, 1_900_000),
        "cfg5": (1024, 256, 2, 630_000),
        "cfg7": (3072, 64, 2, 340_000),
        "cfg8": (3072, 512, 2, 2_200_000),
        "cfg11": (6144, 256, 4, 2_300_000),
        "cfg12": (6144, 512, 4, 4_400_000),
        "cfg13": (1024, 64, 2, 200_000),
    }
    report = []
    for name, (rows, bottleneck, depth, target) in grid.items():
        cfg = ModelConfig(input_rows=rows, seq_len=64, bottleneck=bottleneck,
                          hidden=256, depth=depth, head="token", num_labels=78)
        count = count_parameters(cfg)
        rel = abs(count - target) / target
        assert rel < 0.10, (name, count, target)
        report.append(f"{name}={count}")
    # the five shipped presets hit the same targets through the config system
    for preset, target in (("x-small", 200_000), ("small", 630_000), ("base", 1_200_000),
                           ("large", 2_300_000), ("x-large", 4_400_000)):
        run_cfg = build_run_config(preset=preset)
        count = count_parameters(run_cfg.model_config(num_labels=78))
        assert abs(count - target) / target < 0.10, preset
    print("ACCEPTANCE 1 PASS: parameter counts within 10% — " + ", ".join(report))


def test_criterion_2_gradient_correctness():
    """Reverse-mode gradients match central finite differences (< 1e-4)."""
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_overall = 0.0
    for head in ("token", "pooled"):
        cfg = ModelConfig(input_rows=12, seq_len=6, bottleneck=8, hidden=8,
                          depth=2, head=head, num_labels=4)
        params = init_params(cfg, seed=17)
        inputs = rng.normal(size=(2, 12, 6))
        valid = np.array([4, 6])
        if head == "token":
            labels = rng.integers(0, 4, size=(2, 6))
            labels[0, 4:] = -1
        else:
            labels = rng.integers(0, 4, size=2)

        def loss():
            logits, _ = forward_batch(inputs, valid, params, cfg)
            return cross_entropy_masked(logits, labels, head=head)[0]

        logits, record = forward_batch(inputs, valid, params, cfg)
        _, upstream = cross_entropy_masked(logits, labels, head=head)
        grads, input_grad = backward_batch(record, upstream, params, cfg)

        h = 1e-4
        worst = 0.0
        for name, p in params.items():
            flat, gflat = p.ravel(), grads[name].ravel()
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + h
                up = loss()
                flat[idx] = orig - h
                down = loss()
                flat[idx] = orig
                numeric = (up - down) / (2 * h)
                worst = max(worst, abs(gflat[idx] - numeric)
                            / max(abs(gflat[idx]), abs(numeric), 1e-6))
        assert worst < 1e-4, (head, worst)
        worst_overall = max(worst_overall, worst)

        flat, gflat = inputs.ravel(), input_grad.ravel()
        for idx in range(0, flat.size, 5):
            orig = flat[idx]
            flat[idx] = orig + h
            up = loss()
            flat[idx] = orig - h
            down = loss()
            flat[idx] = orig
            numeric = (up - down) / (2 * h)
            assert abs(gflat[idx] - numeric) / max(abs(gflat[idx]), abs(numeric), 1e-6) < 1e-4

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"ACCEPTANCE 2 PASS: max relative gradient error {worst_overall:.2e} "
          f"(< 1e-4) in {elapsed:.1f}s")


def test_criterion_3_hash_bit_exactness():
    """Committed vectors reproduce; cached and direct fingerprints agree."""
    family = HashFamily(64)
    with open(VECTORS_PATH, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.rstrip("\n")]
    for line in lines:
        text, i, expected = line.split("\t")
        assert string_hash(family, int(i), text) == int(expected, 16), line

    letters = "abcdefghij"
    units = (["[UNK]"] + list(letters) + ["##" + c for c in letters]
             + [f"stem{i}" for i in range(40)] + [f"##fix{i}" for i in range(10)])
    vocab = Vocabulary.from_units(units)
    cache = build_cache(vocab, family)
    rng = np.random.default_rng(99)
    for _ in range(1000):
        word = "".join(letters[d] for d in rng.integers(0, 10, size=rng.integers(1, 12)))
        # a token that starts with a ``##`` unit is hashed by the same rule as any other
        for token in (word, "##" + word, f"##fix{len(word) % 10}{word}"):
            pieces = tokenize_word(token, vocab)
            via_cache = token_fingerprint(pieces, cache)
            direct = np.minimum.reduce([minhash_unit(family, vocab.units[r]) for r in pieces])
            assert np.array_equal(via_cache, direct), token
    print(f"ACCEPTANCE 3 PASS: {len(lines)} committed vectors exact; "
          f"cache and direct paths bit-identical over 3000 tokens")


def test_criterion_4_minhash_jaccard_property():
    """Slot-collision rate tracks exact trigram-set Jaccard similarity."""
    family = HashFamily(64)
    rng = np.random.default_rng(4242)
    alphabet = "abcdefgh"
    deviations = []
    variance_sum = 0.0
    pairs = 10_000
    for _ in range(pairs):
        length = int(rng.integers(8, 15))
        a = "".join(alphabet[d] for d in rng.integers(0, len(alphabet), size=length))
        b = list(a)
        for _ in range(int(rng.integers(0, 6))):
            b[int(rng.integers(0, len(b)))] = alphabet[int(rng.integers(0, len(alphabet)))]
        b = "".join(b)
        set_a, set_b = set(char_trigrams(a)), set(char_trigrams(b))
        jaccard = len(set_a & set_b) / len(set_a | set_b)
        collisions = int((minhash_unit(family, a) == minhash_unit(family, b)).sum())
        deviations.append(collisions / 64.0 - jaccard)
        variance_sum += jaccard * (1.0 - jaccard) / 64.0
    mean_dev = float(np.mean(deviations))
    se = float(np.sqrt(variance_sum)) / pairs
    assert se > 0.0
    assert abs(mean_dev) < 3.0 * se, (mean_dev, se)
    print(f"ACCEPTANCE 4 PASS: mean deviation {mean_dev:+.2e} vs 3*SE {3*se:.2e} "
          f"over {pairs} pairs")


def test_criterion_5_counting_invariant():
    """Every counting feature sums exactly to the hash count."""
    rng = np.random.default_rng(55)
    alphabet = "abcdefghijklmnop"
    tokens = ["".join(alphabet[d] for d in rng.integers(0, 16, size=rng.integers(1, 14)))
              for _ in range(10_000)]
    checked = 0
    for n in (4, 16, 64):
        family = HashFamily(n)
        fingerprints = [minhash_unit(family, tok) for tok in tokens]
        for m in (8, 128, 1024):
            for fp in fingerprints:
                feature = counting_feature(fp, m)
                assert feature.sum() == n
                checked += 1
    print(f"ACCEPTANCE 5 PASS: sum(counters) == n for {checked} (token, n, m) cases")


@pytest.fixture(scope="module")
def synth_run(tmp_path_factory):
    """Criterion 6 training run, shared with criterion 7."""
    task = synth_examples(seed=20260811, n_examples=5000, vocab_size=300)
    vocab = Vocabulary.from_units(task.vocab_units)
    # x-small preset geometry (feature 1024, window 0, bottleneck 64,
    # depth 2) scaled down to sequence length 32
    proj = ProjectionConfig(kind="minhash", n_hashes=64, feature_size=1024,
                            window=0, max_seq_len=32)
    tc = TrainConfig(learning_rate=5e-4, batch_size=256, epochs=6, seed=3)
    started = time.perf_counter()
    mixer_result = train(task.train, task.val, vocab, proj, tc,
                         bottleneck=64, hidden=256, depth=2, head="token")
    mixer_seconds = time.perf_counter() - started
    tc0 = TrainConfig(learning_rate=5e-4, batch_size=256, epochs=10, seed=3)
    baseline_result = train(task.train, task.val, vocab, proj, tc0,
                            bottleneck=64, hidden=256, depth=0, head="token")
    return {
        "task": task,
        "vocab": vocab,
        "proj": proj,
        "mixer": mixer_result,
        "mixer_seconds": mixer_seconds,
        "baseline": baseline_result,
        "dir": tmp_path_factory.mktemp("synth_models"),
    }


def test_criterion_6_synthetic_end_to_end(synth_run):
    """Depth-2 mixer reaches 95% fast; projection-only baseline cannot."""
    mixer = synth_run["mixer"]
    baseline = synth_run["baseline"]
    crossing = next(e["epoch"] for e in mixer.log if e["val_metric"] >= 0.95)
    assert crossing <= 30
    assert mixer.best_metric >= 0.95
    assert synth_run["mixer_seconds"] < 300.0
    assert baseline.best_metric <= 0.92
    print(f"ACCEPTANCE 6 PASS: depth-2 val accuracy {mixer.best_metric:.4f} "
          f"(>= 0.95 at epoch {crossing}, {synth_run['mixer_seconds']:.0f}s); "
          f"depth-0 ceiling {baseline.best_metric:.4f} <= 0.92")


def test_criterion_7_quantization_fidelity(synth_run):
    """8-bit weights: accuracy drop <= 0.01, file about a quarter the size."""
    mixer = synth_run["mixer"]
    out_dir = synth_run["dir"]
    float_path = str(out_dir / "model.bin")
    quant_path = str(out_dir / "model.q.bin")
    save_model(float_path, mixer.params, mixer.model_cfg)
    save_quantized_model(quant_path, quantize_params(mixer.params), mixer.model_cfg)

    ratio = os.path.getsize(quant_path) / os.path.getsize(float_path)
    assert 0.25 <= ratio <= 0.30, ratio

    featurizer = SequenceFeaturizer(synth_run["vocab"], synth_run["proj"])
    val_data = encode_dataset(synth_run["task"].val, featurizer, mixer.inventory,
                              "token", strict=False)
    float_params, cfg_f, was_quantized_f = load_model(float_path)
    quant_params, cfg_q, was_quantized_q = load_model(quant_path)
    assert not was_quantized_f and was_quantized_q
    float_report = evaluate(val_data, featurizer, float_params, cfg_f, mixer.inventory)
    quant_report = evaluate(val_data, featurizer, quant_params, cfg_q, mixer.inventory)
    drop = float_report["value"] - quant_report["value"]
    assert drop <= 0.01, drop

    float_preds = predict_batches(val_data, featurizer, float_params, cfg_f)
    quant_preds = predict_batches(val_data, featurizer, quant_params, cfg_q)
    same = total = 0
    for fp, qp in zip(float_preds, quant_preds):
        same += int((fp == qp).sum())
        total += len(fp)
    stability = same / total
    assert stability >= 0.99
    print(f"ACCEPTANCE 7 PASS: size ratio {ratio:.3f}, accuracy drop {drop:+.4f}, "
          f"argmax stability {stability:.4f}")


MTOP_TRAIN = os.environ.get("HASHMIXER_MTOP_TRAIN")
MTOP_VAL = os.environ.get("HASHMIXER_MTOP_VAL")
MTOP_VOCAB = os.environ.get("HASHMIXER_VOCAB")


@pytest.mark.skipif(
    not (MTOP_TRAIN and MTOP_VAL and MTOP_VOCAB),
    reason="conditional: set HASHMIXER_MTOP_TRAIN/HASHMIXER_MTOP_VAL (normalized "
           "JSONL) and HASHMIXER_VOCAB (multilingual vocab file) to run",
)
def test_criterion_8_conditional_mtop_reproduction():
    """Base preset on user-supplied MTOP English data: >= 75% exact match."""
    from hashmixer.data import load_jsonl
    from hashmixer.vocab import load_vocab

    run_cfg = build_run_config(preset="base")
    vocab = load_vocab(MTOP_VOCAB)
    train_examples = load_jsonl(MTOP_TRAIN)
    val_examples = load_jsonl(MTOP_VAL)
    tc = TrainConfig(learning_rate=5e-4, batch_size=256, epochs=80, seed=0)
    result = train(train_examples, val_examples, vocab, run_cfg.projection, tc,
                   bottleneck=run_cfg.bottleneck, hidden=run_cfg.hidden,
                   depth=run_cfg.depth, head="token")
    assert result.best_metric >= 0.75, result.best_metric
    print(f"ACCEPTANCE 8 PASS: best-epoch exact match {result.best_metric:.4f} >= 0.75")
