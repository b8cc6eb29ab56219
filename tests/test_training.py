import math
import sys
import threading
import warnings

import numpy as np
import pytest

from hashmixer.data import Example, LabelInventory, synth_examples
from hashmixer.errors import DataError
from hashmixer.mixer import ModelConfig, backward_batch, forward_batch, init_params
from hashmixer.hashing import HashFamily
from hashmixer.projection import ProjectionConfig, SequenceFeaturizer, TokenWindows, build_cache
from hashmixer import parallel, training
from hashmixer.training import (
    IGNORE_LABEL,
    OptimizerState,
    TrainConfig,
    adam_step,
    cross_entropy_masked,
    encode_dataset,
    evaluate,
    exact_match_accuracy,
    train,
)
from hashmixer.vocab import Vocabulary


class TestCrossEntropy:
    def test_uniform_logits_give_log_k(self):
        logits = np.zeros((7, 4))
        labels = np.array([0, 1, 2, 3])
        loss, _ = cross_entropy_masked(logits, labels, head="token")
        assert abs(loss - math.log(7)) < 1e-12

    def test_confident_correct_logits_drive_loss_to_zero(self):
        logits = np.full((3, 2), -1e3)
        logits[1, 0] = logits[2, 1] = 1e3
        loss, _ = cross_entropy_masked(logits, np.array([1, 2]), head="token")
        assert loss < 1e-10

    def test_matches_log_sum_exp_oracle(self, rng):
        logits = rng.normal(size=(5, 8))
        labels = rng.integers(0, 5, size=8)
        labels[6:] = IGNORE_LABEL
        loss, _ = cross_entropy_masked(logits, labels, head="token")
        expected = 0.0
        for t in range(6):
            z = logits[:, t]
            expected += -(z[labels[t]] - math.log(sum(math.exp(v) for v in z)))
        assert abs(loss - expected / 6) < 1e-10

    def test_gradient_matches_finite_differences(self, rng):
        logits = rng.normal(size=(4, 5))
        labels = np.array([1, 3, IGNORE_LABEL, 0, IGNORE_LABEL])
        _, grad = cross_entropy_masked(logits, labels, head="token")
        h = 1e-6
        for i in range(4):
            for t in range(5):
                orig = logits[i, t]
                logits[i, t] = orig + h
                up, _ = cross_entropy_masked(logits, labels, head="token")
                logits[i, t] = orig - h
                down, _ = cross_entropy_masked(logits, labels, head="token")
                logits[i, t] = orig
                assert abs(grad[i, t] - (up - down) / (2 * h)) < 1e-8

    def test_ignored_positions_get_zero_gradient(self, rng):
        logits = rng.normal(size=(4, 5))
        labels = np.array([1, IGNORE_LABEL, 2, IGNORE_LABEL, 0])
        loss_a, grad = cross_entropy_masked(logits, labels, head="token")
        assert not grad[:, 1].any() and not grad[:, 3].any()
        # perturbing logits at an ignored position cannot change the loss
        logits[:, 1] += 100.0
        loss_b, _ = cross_entropy_masked(logits, labels, head="token")
        assert loss_a == loss_b

    def test_pooled_variants(self, rng):
        logits = rng.normal(size=(3, 4))
        labels = np.array([0, 3, 2])
        loss, grad = cross_entropy_masked(logits, labels, head="pooled")
        assert grad.shape == (3, 4)
        single_loss, single_grad = cross_entropy_masked(logits[1], 3, head="pooled")
        z = logits[1]
        expected = -(z[3] - math.log(np.exp(z).sum()))
        assert abs(single_loss - expected) < 1e-12
        assert single_grad.shape == (4,)

    def test_all_ignored_is_an_error(self):
        with pytest.raises(ValueError):
            cross_entropy_masked(np.zeros((3, 2)), np.array([-1, -1]), head="token")


class TestAdam:
    def tc(self, lr=1e-3):
        return TrainConfig(learning_rate=lr, batch_size=1, epochs=1)

    def test_zero_gradient_keeps_params(self):
        params = {"w": np.array([1.0, -2.0, 3.0])}
        state = OptimizerState.fresh(params)
        before = params["w"].copy()
        adam_step(params, {"w": np.zeros(3)}, state, self.tc())
        assert np.array_equal(params["w"], before)

    def test_constant_gradient_update_approaches_lr_sign(self):
        params = {"w": np.array([0.0, 0.0])}
        state = OptimizerState.fresh(params)
        g = {"w": np.array([0.5, -2.0])}
        tc = self.tc(lr=1e-3)
        prev = params["w"].copy()
        for _ in range(500):
            prev = params["w"].copy()
            adam_step(params, g, state, tc)
        step = params["w"] - prev
        assert np.allclose(np.abs(step), tc.learning_rate, rtol=1e-4)
        assert np.all(np.sign(step) == -np.sign(g["w"]))

    def test_two_steps_match_hand_rolled_recurrence(self):
        tc = self.tc(lr=0.01)
        params = {"w": np.array([1.0])}
        state = OptimizerState.fresh(params)
        g1, g2 = 0.3, -0.7
        adam_step(params, {"w": np.array([g1])}, state, tc)
        adam_step(params, {"w": np.array([g2])}, state, tc)

        b1, b2, eps = 0.9, 0.999, 1e-8
        m = (1 - b1) * g1
        v = (1 - b2) * g1 * g1
        w = 1.0 - 0.01 * (m / (1 - b1)) / (math.sqrt(v / (1 - b2)) + eps)
        m = b1 * m + (1 - b1) * g2
        v = b2 * v + (1 - b2) * g2 * g2
        w = w - 0.01 * (m / (1 - b1**2)) / (math.sqrt(v / (1 - b2**2)) + eps)
        assert abs(params["w"][0] - w) < 1e-14


class TestMetrics:
    def test_fraction(self):
        assert exact_match_accuracy([["a"] * 8 + ["x"] * 2], [["a"] * 10]) == 0.8

    def test_perfect(self):
        assert exact_match_accuracy([["a", "b"]], [["a", "b"]]) == 1.0

    def test_micro_pooled_not_macro(self):
        pred = [["a", "a", "a", "x"], ["a", "x"]]
        gold = [["a"] * 4, ["a"] * 2]
        assert exact_match_accuracy(pred, gold) == pytest.approx(4 / 6)

    def test_truncated_predictions_count_as_wrong(self):
        assert exact_match_accuracy([["a", "a"]], [["a", "a", "a", "a"]]) == 0.5

    def test_longer_prediction_is_usage_error(self):
        with pytest.raises(ValueError):
            exact_match_accuracy([["a", "a"]], [["a"]])

    def test_empty_dataset_is_error(self):
        with pytest.raises(ValueError):
            exact_match_accuracy([], [])

    def test_intent_accuracy(self):
        # classification: one label per example
        assert exact_match_accuracy([["1"], ["2"], ["3"]],
                                    [["1"], ["2"], ["4"]]) == pytest.approx(2 / 3)
        assert exact_match_accuracy([["a"]], [["a"]]) == 1.0
        with pytest.raises(ValueError):
            exact_match_accuracy([], [])
        with pytest.raises(ValueError):
            exact_match_accuracy([["a"]], [["a"], ["b"]])


@pytest.fixture(scope="module")
def small_task():
    task = synth_examples(seed=77, n_examples=400, vocab_size=80, n_labels=6,
                          seq_len_range=(4, 10), n_val=120)
    vocab = Vocabulary.from_units(task.vocab_units)
    proj = ProjectionConfig(kind="minhash", n_hashes=32, feature_size=256,
                            window=0, max_seq_len=16)
    return task, vocab, proj


def _to_cls(examples):
    """The classification view of the slot task: the label is the first token's tag."""
    return [Example(tokens=ex.tokens, class_label=ex.slot_labels[0]) for ex in examples]


class TestTrainLoop:
    def test_loss_decreases_and_learns(self, small_task):
        task, vocab, proj = small_task
        tc = TrainConfig(learning_rate=2e-3, batch_size=128, epochs=8, seed=5)
        result = train(task.train, task.val, vocab, proj, tc,
                       bottleneck=32, hidden=64, depth=1, head="token")
        losses = [e["train_loss"] for e in result.log]
        assert losses[-1] < losses[0] * 0.5
        # monotone decrease within a 3-epoch tolerance window
        for i in range(3, len(losses)):
            assert losses[i] < max(losses[i - 3 : i])
        assert result.best_metric > 0.8

    def test_cache_of_another_vocabulary_or_hash_count_is_rejected(self, small_task):
        task, vocab, proj = small_task
        tc = TrainConfig(batch_size=128, epochs=1, seed=5)
        kwargs = dict(bottleneck=16, hidden=32, depth=1, head="token")
        reordered = Vocabulary.from_units(list(reversed(task.vocab_units)))  # same units
        for cache, message in ((build_cache(reordered, HashFamily(32)), "not built from"),
                               (build_cache(vocab, HashFamily(16)), "16 hashes")):
            with pytest.raises(DataError, match=message):
                train(task.train, task.val, vocab, proj, tc, cache=cache, **kwargs)
        # the vocabulary's own cache trains
        train(task.train, task.val, vocab, proj, tc, cache=build_cache(vocab, HashFamily(32)),
              **kwargs)

    def test_same_seed_gives_identical_logs(self, small_task):
        task, vocab, proj = small_task
        tc = TrainConfig(learning_rate=1e-3, batch_size=128, epochs=3, seed=9)
        kwargs = dict(bottleneck=16, hidden=32, depth=1, head="token")
        a = train(task.train, task.val, vocab, proj, tc, **kwargs)
        b = train(task.train, task.val, vocab, proj, tc, **kwargs)
        for ea, eb in zip(a.log, b.log):
            assert ea["epoch"] == eb["epoch"]
            assert ea["train_loss"] == eb["train_loss"]
            assert ea["val_metric"] == eb["val_metric"]
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name])

    def test_vanishing_learning_rate_freezes_the_metric(self, small_task):
        # the closest admissible probe to a zero learning rate: updates
        # underflow to exactly zero in float32
        task, vocab, proj = small_task
        tc = TrainConfig(learning_rate=1e-300, batch_size=128, epochs=3, seed=2)
        result = train(task.train, task.val, vocab, proj, tc,
                       bottleneck=16, hidden=32, depth=1, head="token")
        metrics = {e["val_metric"] for e in result.log}
        assert len(metrics) == 1

    def test_best_epoch_params_reproduce_logged_best(self, small_task):
        task, vocab, proj = small_task
        tc = TrainConfig(learning_rate=2e-3, batch_size=128, epochs=5, seed=13)
        result = train(task.train, task.val, vocab, proj, tc,
                       bottleneck=16, hidden=32, depth=1, head="token")
        best_logged = max(e["val_metric"] for e in result.log)
        assert result.best_metric == best_logged
        featurizer = SequenceFeaturizer(vocab, proj)
        data = encode_dataset(task.val, featurizer, result.inventory, "token", strict=False)
        report = evaluate(data, featurizer, result.params, result.model_cfg, result.inventory)
        assert report["value"] == pytest.approx(best_logged)

    def test_pad_label_perturbation_cannot_change_loss(self, small_task):
        task, vocab, proj = small_task
        featurizer = SequenceFeaturizer(vocab, proj)
        from hashmixer.data import LabelInventory
        inventory = LabelInventory.from_examples(task.train, "slots")
        data = encode_dataset(task.train[:8], featurizer, inventory, "token")
        cfg = ModelConfig(input_rows=proj.input_rows, seq_len=proj.max_seq_len,
                          bottleneck=16, hidden=32, depth=1, head="token",
                          num_labels=len(inventory.labels))
        params = init_params(cfg, seed=0)
        from hashmixer.mixer import forward_batch

        inputs = featurizer.materialize(data.ids, data.valid)
        logits, _ = forward_batch(inputs, data.valid, params, cfg)
        loss_a, _ = cross_entropy_masked(logits, data.labels, head="token")
        # flipping ignored (pad) labels to a real class keeps them ignored
        assert (data.labels[:, -1] == IGNORE_LABEL).all()
        assert loss_a == cross_entropy_masked(logits, data.labels, head="token")[0]

    def test_unseen_eval_labels_reported_not_crashed(self, small_task):
        task, vocab, proj = small_task
        from hashmixer.data import Example, LabelInventory

        inventory = LabelInventory.from_examples(task.train, "slots")
        featurizer = SequenceFeaturizer(vocab, proj)
        odd = Example(tokens=task.val[0].tokens,
                      slot_labels=["never_seen"] * len(task.val[0].tokens))
        data = encode_dataset([odd] + task.val[1:5], featurizer, inventory,
                              "token", strict=False)
        cfg = ModelConfig(input_rows=proj.input_rows, seq_len=proj.max_seq_len,
                          bottleneck=16, hidden=32, depth=0, head="token",
                          num_labels=len(inventory.labels))
        params = init_params(cfg, seed=0)
        report = evaluate(data, featurizer, params, cfg, inventory)
        assert report["unseen_labels"] == ["never_seen"]
        # the unseen gold labels can never be matched, so they score as wrong
        assert report["value"] <= 1.0 - len(odd.tokens) / sum(
            len(ex.slot_labels) for ex in [odd] + task.val[1:5]
        )

    def test_diverging_loss_stops_training(self, small_task):
        # Adam moves every weight by about the learning rate, so the second
        # batch overflows float32 and its loss is NaN
        task, vocab, proj = small_task
        tc = TrainConfig(learning_rate=1e10, batch_size=128, epochs=2, seed=5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DataError, match="epoch 1, batch 2: training loss is nan"):
                train(task.train, task.val, vocab, proj, tc,
                      bottleneck=16, hidden=32, depth=1, head="token")
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_infinite_loss_stops_training(self, small_task, monkeypatch):
        task, vocab, proj = small_task
        calls = []

        def overflowing(logits, labels, head="token"):
            loss, grad = cross_entropy_masked(logits, labels, head=head)
            calls.append(loss)
            return (math.inf if len(calls) == 6 else loss), grad

        monkeypatch.setattr(training, "cross_entropy_masked", overflowing)
        tc = TrainConfig(learning_rate=1e-3, batch_size=128, epochs=3, seed=5)
        with pytest.raises(DataError, match="epoch 2, batch 2: training loss is inf"):
            train(task.train, task.val, vocab, proj, tc,
                  bottleneck=16, hidden=32, depth=1, head="token")

    def test_empty_split_rejected(self, small_task):
        task, vocab, proj = small_task
        tc = TrainConfig(epochs=1)
        with pytest.raises(DataError):
            train([], task.val, vocab, proj, tc,
                  bottleneck=8, hidden=8, depth=0, head="token")

    def test_missing_label_field_errors_with_example_index(self, small_task):
        task, vocab, proj = small_task
        tc = TrainConfig(epochs=1)
        with pytest.raises(DataError, match="example 0"):
            train(task.train, task.val, vocab, proj, tc,
                  bottleneck=8, hidden=8, depth=0, head="pooled")

    def test_pooled_head_trains_on_classification(self, small_task):
        task, vocab, proj = small_task
        tc = TrainConfig(learning_rate=3e-3, batch_size=64, epochs=10, seed=4)
        result = train(_to_cls(task.train), _to_cls(task.val), vocab, proj, tc,
                       bottleneck=32, hidden=64, depth=1, head="pooled")
        assert result.best_metric > 0.9
        assert result.model_cfg.head == "pooled"


class TestTokenWindowsPath:
    """Training and inference feed token windows; they must equal the dense input."""

    @pytest.mark.parametrize("window", [0, 1])
    @pytest.mark.parametrize("head", ["token", "pooled"])
    def test_featurizer_windows_match_dense_path(self, window, head, small_task, rng):
        task, vocab, _ = small_task
        # 6 positions: the 4..10-token examples are both truncated and padded
        proj = ProjectionConfig(kind="minhash", n_hashes=32, feature_size=64,
                                window=window, max_seq_len=6)
        featurizer = SequenceFeaturizer(vocab, proj)
        examples = task.train[:16]
        ids, valid = featurizer.encode([ex.tokens for ex in examples])
        assert any(len(ex.tokens) > 6 for ex in examples) and (valid < 6).any()
        windows = TokenWindows(featurizer.table, featurizer.window_ids(ids, valid))
        dense = featurizer.materialize(ids, valid)
        m = proj.token_feature_len
        for j in range(2 * window + 1):
            block = windows.table[windows.ids[:, j]].transpose(0, 2, 1)
            assert np.array_equal(dense[:, j * m : (j + 1) * m], block)

        cfg = ModelConfig(input_rows=proj.input_rows, seq_len=proj.max_seq_len,
                          bottleneck=12, hidden=10, depth=2, head=head, num_labels=5)
        params = init_params(cfg, seed=4)
        logits_t, record_t = forward_batch(windows, valid, params, cfg)
        logits_d, record_d = forward_batch(dense, valid, params, cfg)
        upstream = rng.normal(size=logits_d.shape)
        if head == "token":
            # token windows leave padded logits at 0: compare live positions, and give padded
            # ones the upstream gradient 0 that cross_entropy_masked gives
            live = np.arange(proj.max_seq_len) < valid[:, None]
            logits_t, logits_d = (a.transpose(0, 2, 1)[live] for a in (logits_t, logits_d))
            upstream *= live[:, None, :]
        assert np.abs(logits_t - logits_d).max() <= 1e-12 * np.abs(logits_d).max()
        grads_t, _ = backward_batch(record_t, upstream, params, cfg)
        grads_d, _ = backward_batch(record_d, upstream, params, cfg)
        for name in grads_d:
            scale = np.abs(grads_d[name]).max()
            assert np.abs(grads_t[name] - grads_d[name]).max() <= 1e-12 * scale, name

    def test_seeded_pooled_window_runs_are_bit_identical(self, small_task):
        task, vocab, _ = small_task
        proj = ProjectionConfig(kind="minhash", n_hashes=32, feature_size=64,
                                window=1, max_seq_len=6)
        tc = TrainConfig(learning_rate=3e-3, batch_size=64, epochs=2, seed=11)
        kwargs = dict(bottleneck=16, hidden=16, depth=1, head="pooled")
        a = train(_to_cls(task.train), _to_cls(task.val), vocab, proj, tc, **kwargs)
        b = train(_to_cls(task.train), _to_cls(task.val), vocab, proj, tc, **kwargs)
        assert [e["train_loss"] for e in a.log] == [e["train_loss"] for e in b.log]
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name])


def _workers(monkeypatch, count: int) -> None:
    """Run the halves on ``count`` workers; two need OpenBLAS's thread-count functions."""
    if count == 2 and parallel._openblas() is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    monkeypatch.setattr(parallel, "workers", lambda: count)


@pytest.fixture
def blas_at_two(monkeypatch):
    """OpenBLAS's thread-count getter, with the count set to 2 and two workers for the test."""
    blas = parallel._openblas()
    if blas is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    get, set_ = blas
    original = get()
    set_(2)
    _workers(monkeypatch, 2)
    yield get
    set_(original)


class _FirstStep(Exception):
    """Raised from a wrapped adam_step once it has seen the first step's gradients."""


class TestBatchHalves:
    """A batch runs as two fixed halves: on one worker or two, the bytes are the same."""

    def test_halves(self):
        assert parallel.halves(0) == [slice(0, 0)]
        assert parallel.halves(1) == [slice(0, 1)]
        assert parallel.halves(2) == [slice(0, 1), slice(1, 2)]
        assert parallel.halves(5) == [slice(0, 3), slice(3, 5)]

    @pytest.mark.parametrize("head", ["token", "pooled"])
    def test_seeded_runs_are_byte_identical_on_one_or_two_workers(
        self, head, small_task, monkeypatch
    ):
        task, vocab, proj = small_task
        train_set, val_set = (task.train, task.val) if head == "token" else (
            _to_cls(task.train), _to_cls(task.val))
        tc = TrainConfig(learning_rate=2e-3, batch_size=101, epochs=2, seed=21)
        threads: set[str] = set()

        def recording(*args, **kwargs):
            threads.add(threading.current_thread().name)
            return forward_batch(*args, **kwargs)

        monkeypatch.setattr(training, "forward_batch", recording)
        results = {}
        for count in (1, 2):
            _workers(monkeypatch, count)
            threads.clear()
            results[count] = train(train_set, val_set, vocab, proj, tc,
                                   bottleneck=16, hidden=32, depth=2, head=head)
            assert len(threads) == count
        serial, threaded = results[1], results[2]
        assert serial.log[-1]["train_loss"] == threaded.log[-1]["train_loss"]
        for name in serial.params:
            assert serial.params[name].tobytes() == threaded.params[name].tobytes(), name

    @pytest.mark.parametrize("batch_size", [1, 5, 256])
    @pytest.mark.parametrize("head", ["token", "pooled"])
    def test_summed_half_gradients_equal_the_whole_batch_gradient(
        self, batch_size, head, small_task, monkeypatch
    ):
        task, vocab, proj = small_task
        train_set, val_set = (task.train, task.val) if head == "token" else (
            _to_cls(task.train), _to_cls(task.val))
        tc = TrainConfig(batch_size=batch_size, epochs=1, seed=8)
        seen = {}

        def first_step(params, grads, state, cfg):
            seen["params"] = {k: p.copy() for k, p in params.items()}
            seen["grads"] = grads
            raise _FirstStep

        monkeypatch.setattr(training, "adam_step", first_step)
        with pytest.raises(_FirstStep):
            train(train_set, val_set, vocab, proj, tc,
                  bottleneck=16, hidden=32, depth=2, head=head)

        # the same batch through one forward and one backward pass
        field = "slots" if head == "token" else "label"
        inventory = LabelInventory.from_examples(train_set, field)
        featurizer = SequenceFeaturizer(vocab, proj)
        data = encode_dataset(train_set, featurizer, inventory, head)
        batch = np.random.default_rng(tc.seed).permutation(len(train_set))[:batch_size]
        cfg = ModelConfig(input_rows=proj.input_rows, seq_len=proj.max_seq_len, bottleneck=16,
                          hidden=32, depth=2, head=head, num_labels=len(inventory.labels))
        windows = TokenWindows(featurizer.table,
                               featurizer.window_ids(data.ids[batch], data.valid[batch]))
        logits, record = forward_batch(windows, data.valid[batch], seen["params"], cfg)
        _, upstream = cross_entropy_masked(logits, data.labels[batch], head=head)
        whole, _ = backward_batch(record, upstream, seen["params"], cfg)

        assert seen["grads"].keys() == whole.keys()
        for name, g in whole.items():
            assert seen["grads"][name].dtype == np.float32
            scale = max(float(np.abs(g).max()), 1e-30)
            assert np.abs(seen["grads"][name] - g).max() <= 1e-5 * scale, name

    @pytest.mark.parametrize("head", ["token", "pooled"])
    @pytest.mark.parametrize("batch_size", [7, 256])
    def test_predictions_equal_on_one_or_two_workers(
        self, head, batch_size, small_task, monkeypatch
    ):
        task, vocab, proj = small_task
        val_set = task.val if head == "token" else _to_cls(task.val)
        inventory = LabelInventory.from_examples(val_set, "slots" if head == "token" else "label")
        featurizer = SequenceFeaturizer(vocab, proj)
        data = encode_dataset(val_set, featurizer, inventory, head)
        cfg = ModelConfig(input_rows=proj.input_rows, seq_len=proj.max_seq_len, bottleneck=16,
                          hidden=32, depth=2, head=head, num_labels=len(inventory.labels))
        params = init_params(cfg, seed=6)
        preds = {}
        for count in (1, 2):
            _workers(monkeypatch, count)
            preds[count] = training.predict_batches(data, featurizer, params, cfg,
                                                    batch_size=batch_size)
        assert len(preds[1]) == len(preds[2]) == len(val_set)
        for a, b in zip(preds[1], preds[2]):
            assert np.array_equal(a, b)

    def test_predictions_keep_no_activation_record(self, small_task, monkeypatch):
        task, vocab, proj = small_task
        inventory = LabelInventory.from_examples(task.val, "slots")
        featurizer = SequenceFeaturizer(vocab, proj)
        data = encode_dataset(task.val[:9], featurizer, inventory, "token")
        cfg = ModelConfig(input_rows=proj.input_rows, seq_len=proj.max_seq_len, bottleneck=8,
                          hidden=8, depth=1, head="token", num_labels=len(inventory.labels))
        calls = []

        def recording(inputs, valid, *args, **kwargs):
            logits, record = forward_batch(inputs, valid, *args, **kwargs)
            calls.append((len(valid), kwargs.get("record"), record))
            return logits, record

        monkeypatch.setattr(training, "forward_batch", recording)
        training.predict_batches(data, featurizer, init_params(cfg, seed=0), cfg)
        # both halves of the 9-example batch, each asking for no record and getting none
        assert sorted(c[0] for c in calls) == [4, 5]
        assert all(record is False and kept is None for _, record, kept in calls)

    def test_blas_thread_count_is_restored_after_a_step(
        self, small_task, monkeypatch, blas_at_two
    ):
        get = blas_at_two
        task, vocab, proj = small_task
        during = []

        def recording(*args, **kwargs):
            during.append(get())
            return forward_batch(*args, **kwargs)

        monkeypatch.setattr(training, "forward_batch", recording)
        train(task.train[:40], task.val[:10], vocab, proj, TrainConfig(batch_size=40, epochs=1),
              bottleneck=8, hidden=8, depth=1, head="token")
        assert get() == 2
        assert set(during) == {1}  # every half, training's and validation's, at one thread

    def test_error_in_the_worker_half_reaches_the_caller(
        self, small_task, monkeypatch, blas_at_two
    ):
        task, vocab, proj = small_task
        val_set = _to_cls(task.val[:6])
        inventory = LabelInventory.from_examples(val_set, "label")
        featurizer = SequenceFeaturizer(vocab, proj)
        data = encode_dataset(val_set, featurizer, inventory, "pooled")
        data.valid[4] = 0  # an empty example in the second half
        cfg = ModelConfig(input_rows=proj.input_rows, seq_len=proj.max_seq_len, bottleneck=8,
                          hidden=8, depth=1, head="pooled", num_labels=len(inventory.labels))
        failing = []

        def recording(inputs, valid, *args, **kwargs):
            if np.any(valid < 1):
                failing.append(threading.current_thread().name)
            return forward_batch(inputs, valid, *args, **kwargs)

        monkeypatch.setattr(training, "forward_batch", recording)
        with pytest.raises(ValueError, match="at least one valid position"):
            training.predict_batches(data, featurizer, init_params(cfg, seed=0), cfg)
        assert failing and failing[0] != threading.current_thread().name
        assert blas_at_two() == 2


    def test_worker_memory_is_released_once_after_a_pass_that_used_it(
        self, small_task, monkeypatch
    ):
        task, vocab, proj = small_task
        _workers(monkeypatch, 2)
        inventory = LabelInventory.from_examples(task.val, "slots")
        featurizer = SequenceFeaturizer(vocab, proj)
        data = encode_dataset(task.val, featurizer, inventory, "token")
        one = encode_dataset(task.val[:1], featurizer, inventory, "token")
        cfg = ModelConfig(input_rows=proj.input_rows, seq_len=proj.max_seq_len, bottleneck=8,
                          hidden=8, depth=1, head="token", num_labels=len(inventory.labels))
        params = init_params(cfg, seed=0)
        training.predict_batches(data, featurizer, params, cfg)  # starts the worker
        trims = []
        monkeypatch.setattr(parallel, "_malloc_trim", lambda pad: trims.append(pad) or 0)
        training.predict_batches(data, featurizer, params, cfg, batch_size=7)
        assert trims == [0]  # once for the pass, not once per batch
        training.predict_batches(one, featurizer, params, cfg)  # a batch of one stays on the caller
        assert trims == [0]

    def test_concurrent_callers_leave_the_blas_thread_count_as_it_was(self, blas_at_two):
        matrix = np.random.default_rng(0).normal(size=(64, 64)).astype(np.float32)
        expected = [matrix[h] @ matrix for h in parallel.halves(64)]
        results, failures = [], []

        def caller():
            try:
                for _ in range(50):
                    results.append(parallel.run_halves(lambda h: matrix[h] @ matrix,
                                                       [(h,) for h in parallel.halves(64)]))
            except BaseException as exc:  # reported by the assertion below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not failures
        assert len(results) == 200
        for got in results:
            assert all(np.array_equal(a, b) for a, b in zip(got, expected))
        # without the lock, one caller could save another's 1 and restore it last
        assert blas_at_two() == 2


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(select_best_by="loss")

    @pytest.mark.parametrize("key, value", [
        ("learning_rate", float("nan")), ("learning_rate", float("inf")),
        ("adam_beta1", 1.5), ("adam_beta1", -0.1), ("adam_beta1", float("nan")),
        ("adam_beta2", 1.0), ("adam_eps", -1.0), ("adam_eps", 0.0), ("adam_eps", float("inf")),
        ("adam_eps", float("nan")),
    ])
    def test_optimizer_settings_are_checked(self, key, value):
        # the message starts with the field, which config.py turns into the key's name
        with pytest.raises(ValueError, match=f"^{key} must be"):
            TrainConfig(**{key: value})

    def test_optimizer_range_ends(self):
        TrainConfig(adam_beta1=0.0, adam_beta2=0.0, adam_eps=1e-300, learning_rate=1e300)

    def test_defaults_match_training_protocol(self):
        tc = TrainConfig()
        assert tc.learning_rate == 5e-4
        assert tc.batch_size == 256
        assert tc.epochs == 80
        assert (tc.adam_beta1, tc.adam_beta2, tc.adam_eps) == (0.9, 0.999, 1e-8)
