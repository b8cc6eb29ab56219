"""Masked cross-entropy, Adam, the training loop, and the two metrics.

Training is deterministic given a seed: batches are drawn in a seeded order,
parameter initialization uses its own counter-based stream, and all updates
run sequentially. Feature extraction is pure and memoized per distinct token,
so epochs after the first pay only for the linear algebra. Training,
evaluation and prediction feed the model :class:`TokenWindows` (token-table
rows per window slot), never the dense projected input.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .data import Example, LabelInventory
from .errors import DataError
from .mixer import (
    ModelConfig,
    ModelParams,
    backward_batch,
    forward_batch,
    init_params,
)
from .projection import FingerprintCache, ProjectionConfig, SequenceFeaturizer, TokenWindows
from .vocab import Vocabulary

IGNORE_LABEL = -1


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 5e-4
    batch_size: int = 256
    epochs: int = 80
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    select_best_by: str = "accuracy"

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.select_best_by != "accuracy":
            raise ValueError("select_best_by supports only 'accuracy'")


@dataclass
class OptimizerState:
    """Adam first/second moment accumulators mirroring the parameter dict."""

    m: ModelParams
    v: ModelParams
    step: int = 0

    @classmethod
    def fresh(cls, params: ModelParams) -> "OptimizerState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


def adam_step(
    params: ModelParams, grads: ModelParams, state: OptimizerState, tc: TrainConfig
) -> tuple[ModelParams, OptimizerState]:
    """One bias-corrected Adam update at a constant learning rate (in place)."""
    state.step += 1
    b1, b2 = tc.adam_beta1, tc.adam_beta2
    c1 = 1.0 - b1**state.step
    c2 = 1.0 - b2**state.step
    for name, p in params.items():
        g = grads[name]
        state.m[name] = b1 * state.m[name] + (1.0 - b1) * g
        state.v[name] = b2 * state.v[name] + (1.0 - b2) * g * g
        p -= tc.learning_rate * (state.m[name] / c1) / (np.sqrt(state.v[name] / c2) + tc.adam_eps)
    return params, state


def _log_softmax(logits: np.ndarray, axis: int) -> np.ndarray:
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def cross_entropy_masked(
    logits: np.ndarray, labels: np.ndarray, head: str = "token"
) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood over non-ignored positions, plus gradient.

    Token head: logits ``(labels, s)`` or ``(batch, labels, s)`` with integer
    labels per position, ``IGNORE_LABEL`` marking padding. Pooled head: logits
    ``(classes,)`` or ``(batch, classes)`` with one label per example. The
    gradient is zero at every ignored position.
    """
    labels = np.asarray(labels)
    if head == "token":
        squeeze = logits.ndim == 2
        lg = logits[None, ...] if squeeze else logits
        lb = labels[None, ...] if squeeze else labels
        mask = lb != IGNORE_LABEL
        count = int(mask.sum())
        if count == 0:
            raise ValueError("cross entropy over zero unmasked positions")
        logp = _log_softmax(lg, axis=1)
        n_idx, s_idx = np.nonzero(mask)
        loss = -logp[n_idx, lb[n_idx, s_idx], s_idx].sum() / count
        grad = np.exp(logp)
        grad[n_idx, lb[n_idx, s_idx], s_idx] -= 1.0
        grad *= mask[:, None, :] / count
        return float(loss), grad[0] if squeeze else grad
    if head == "pooled":
        squeeze = logits.ndim == 1
        lg = logits[None, ...] if squeeze else logits
        lb = np.atleast_1d(labels)
        mask = lb != IGNORE_LABEL
        count = int(mask.sum())
        if count == 0:
            raise ValueError("cross entropy over zero unmasked examples")
        logp = _log_softmax(lg, axis=1)
        rows = np.nonzero(mask)[0]
        loss = -logp[rows, lb[rows]].sum() / count
        grad = np.exp(logp)
        grad[rows, lb[rows]] -= 1.0
        grad *= mask[:, None] / count
        return float(loss), grad[0] if squeeze else grad
    raise ValueError(f"unknown head kind {head!r}")


def exact_match_accuracy(
    pred_labels: list[list[str]], gold_labels: list[list[str]]
) -> float:
    """Correctly labeled words over total words, pooled across the dataset.

    A prediction shorter than its gold sequence (the model truncated the
    input) scores the missing positions as wrong; a longer one is a usage
    error.
    """
    if len(pred_labels) != len(gold_labels):
        raise ValueError("prediction and gold example counts differ")
    correct = 0
    total = 0
    for i, (pred, gold) in enumerate(zip(pred_labels, gold_labels)):
        if len(pred) > len(gold):
            raise ValueError(f"example {i}: more predictions than gold labels")
        total += len(gold)
        correct += sum(p == g for p, g in zip(pred, gold))
    if total == 0:
        raise ValueError("cannot compute accuracy over zero tokens")
    return correct / total


def intent_accuracy(pred: list[str], gold: list[str]) -> float:
    """Correctly classified samples over total samples."""
    if len(pred) != len(gold):
        raise ValueError("prediction and gold counts differ")
    if not gold:
        raise ValueError("cannot compute accuracy over zero samples")
    return sum(p == g for p, g in zip(pred, gold)) / len(gold)


@dataclass
class EncodedDataset:
    """Featurized examples: token-feature ids, lengths and integer labels."""

    ids: np.ndarray
    valid: np.ndarray
    labels: np.ndarray
    examples: list[Example]


def encode_dataset(
    examples: list[Example],
    featurizer: SequenceFeaturizer,
    inventory: LabelInventory,
    head: str,
    strict: bool = True,
) -> EncodedDataset:
    """Tokenize, featurize and label-encode a dataset split.

    With ``strict`` a label outside the inventory raises; otherwise it is
    encoded as ignored (evaluation scores such positions via label strings,
    so they still count as wrong).
    """
    ids, valid = featurizer.encode([ex.tokens for ex in examples])
    s = featurizer.cfg.max_seq_len
    if head == "token":
        labels = np.full((len(examples), s), IGNORE_LABEL, dtype=np.int64)
        for row, ex in enumerate(examples):
            if ex.slot_labels is None:
                raise DataError(f"example {row}: token-head training needs slot labels")
            for col, lab in enumerate(ex.slot_labels[: valid[row]]):
                idx = inventory.index.get(lab)
                if idx is None:
                    if strict:
                        raise DataError(
                            f"example {row}: slot label {lab!r} outside the inventory"
                        )
                else:
                    labels[row, col] = idx
    else:
        labels = np.full(len(examples), IGNORE_LABEL, dtype=np.int64)
        for row, ex in enumerate(examples):
            if ex.class_label is None:
                raise DataError(f"example {row}: pooled-head training needs a class label")
            idx = inventory.index.get(ex.class_label)
            if idx is None and strict:
                raise DataError(
                    f"example {row}: class label {ex.class_label!r} outside the inventory"
                )
            labels[row] = IGNORE_LABEL if idx is None else idx
    return EncodedDataset(ids=ids, valid=valid, labels=labels, examples=examples)


def _token_windows(featurizer: SequenceFeaturizer, data: EncodedDataset, sel) -> TokenWindows:
    """Model input for the selected examples: the token table and their window rows."""
    return TokenWindows(featurizer.table, featurizer.window_ids(data.ids[sel], data.valid[sel]))


def predict_batches(
    data: EncodedDataset,
    featurizer: SequenceFeaturizer,
    params: ModelParams,
    cfg: ModelConfig,
    batch_size: int = 256,
) -> list[np.ndarray]:
    """Arg-max predictions per example (per position for the token head)."""
    out: list[np.ndarray] = []
    for lo in range(0, len(data.examples), batch_size):
        sel = slice(lo, min(lo + batch_size, len(data.examples)))
        logits, _ = forward_batch(_token_windows(featurizer, data, sel), data.valid[sel],
                                  params, cfg)
        if cfg.head == "token":
            pred = logits.argmax(axis=1)
            out.extend(pred[i, : data.valid[sel][i]] for i in range(pred.shape[0]))
        else:
            out.extend(logits.argmax(axis=1))
    return out


def evaluate(
    data: EncodedDataset,
    featurizer: SequenceFeaturizer,
    params: ModelParams,
    cfg: ModelConfig,
    inventory: LabelInventory,
    batch_size: int = 256,
) -> dict:
    """Metric over a split, scoring truncated-away tokens as errors."""
    preds = predict_batches(data, featurizer, params, cfg, batch_size=batch_size)
    if cfg.head == "token":
        pred_strs = [[inventory.labels[i] for i in p] for p in preds]
        gold_strs = [list(ex.slot_labels) for ex in data.examples]
        metric_name = "exact_match"
        value = exact_match_accuracy(pred_strs, gold_strs)
        unseen = sorted(
            {lab for ex in data.examples for lab in ex.slot_labels if lab not in inventory.index}
        )
    else:
        pred_strs = [inventory.labels[int(i)] for i in preds]
        gold_strs = [ex.class_label for ex in data.examples]
        metric_name = "intent_accuracy"
        value = intent_accuracy(pred_strs, gold_strs)
        unseen = sorted(
            {ex.class_label for ex in data.examples if ex.class_label not in inventory.index}
        )
    return {"metric": metric_name, "value": value, "unseen_labels": unseen}


@dataclass
class TrainResult:
    params: ModelParams
    log: list[dict]
    inventory: LabelInventory
    model_cfg: ModelConfig
    best_epoch: int
    best_metric: float


def train(
    train_examples: list[Example],
    val_examples: list[Example],
    vocab: Vocabulary,
    proj_cfg: ProjectionConfig,
    train_cfg: TrainConfig,
    *,
    bottleneck: int,
    hidden: int,
    depth: int,
    head: str,
    cache: FingerprintCache | None = None,
    log_fn=None,
    dtype=np.float32,
) -> TrainResult:
    """Train for the configured epochs and return the best-epoch parameters.

    One epoch = one seeded shuffle of the training set, sequential Adam
    updates per batch, then a full validation pass. ``log_fn`` receives each
    epoch's log entry as it is produced. A batch whose loss is NaN or
    infinite stops training with :class:`DataError` naming the epoch and
    the batch (both counted from 1). Training math runs in ``dtype``
    (float32 by default; initialization is computed in float64 and cast, so
    runs with equal seeds stay bit-identical).
    """
    if not train_examples or not val_examples:
        raise DataError("training and validation splits must be non-empty")
    label_field = "slots" if head == "token" else "label"
    inventory = LabelInventory.from_examples(train_examples, label_field)
    featurizer = SequenceFeaturizer(vocab, proj_cfg, cache=cache)
    train_data = encode_dataset(train_examples, featurizer, inventory, head)
    val_data = encode_dataset(val_examples, featurizer, inventory, head, strict=False)

    model_cfg = ModelConfig(
        input_rows=proj_cfg.input_rows,
        seq_len=proj_cfg.max_seq_len,
        bottleneck=bottleneck,
        hidden=hidden,
        depth=depth,
        head=head,
        num_labels=len(inventory.labels),
    )
    params = {k: p.astype(dtype) for k, p in init_params(model_cfg, train_cfg.seed).items()}
    state = OptimizerState.fresh(params)
    rng = np.random.default_rng(train_cfg.seed)

    best_metric = -np.inf
    best_epoch = -1
    best_params: ModelParams = {k: p.copy() for k, p in params.items()}
    log: list[dict] = []

    n = len(train_examples)
    for epoch in range(1, train_cfg.epochs + 1):
        started = time.perf_counter()
        order = rng.permutation(n)
        loss_sum = 0.0
        weight_sum = 0
        for lo in range(0, n, train_cfg.batch_size):
            batch = order[lo : lo + train_cfg.batch_size]
            inputs = _token_windows(featurizer, train_data, batch)
            logits, record = forward_batch(inputs, train_data.valid[batch], params, model_cfg)
            batch_labels = train_data.labels[batch]
            loss, dlogits = cross_entropy_masked(logits, batch_labels, head=head)
            if not math.isfinite(loss):
                batch_no = lo // train_cfg.batch_size + 1
                raise DataError(f"epoch {epoch}, batch {batch_no}: training loss is {loss}")
            grads, _ = backward_batch(record, dlogits, params, model_cfg, want_input_grad=False)
            params, state = adam_step(params, grads, state, train_cfg)
            counted = int((batch_labels != IGNORE_LABEL).sum())
            loss_sum += loss * counted
            weight_sum += counted

        report = evaluate(val_data, featurizer, params, model_cfg, inventory,
                          batch_size=train_cfg.batch_size)
        entry = {
            "epoch": epoch,
            "train_loss": loss_sum / weight_sum,
            "val_metric": report["value"],
            "wallclock_seconds": time.perf_counter() - started,
        }
        log.append(entry)
        if log_fn is not None:
            log_fn(entry)
        if report["value"] > best_metric:
            best_metric = report["value"]
            best_epoch = epoch
            best_params = {k: p.copy() for k, p in params.items()}

    return TrainResult(
        params=best_params,
        log=log,
        inventory=inventory,
        model_cfg=model_cfg,
        best_epoch=best_epoch,
        best_metric=best_metric,
    )
