"""Masked cross-entropy, Adam, the training loop, and the two metrics.

Training is deterministic given a seed: batches are drawn in a seeded order,
parameter initialization uses its own counter-based stream, and a batch of
two or more examples always runs as the same two halves, their gradients
added in order. The halves run on two threads with OpenBLAS at one thread
while they do, or one after the other under ``OPENBLAS_NUM_THREADS=1`` or a
one-CPU affinity, with byte-identical results either way (see
:mod:`.parallel`). Feature extraction is pure and memoized per distinct
token, so epochs after the first pay only for the linear algebra. Training,
evaluation and prediction feed the model :class:`TokenWindows` (token-table
rows per window slot), never the dense projected input.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .data import Example, LabelInventory, gold_labels
from .errors import DataError
from .mixer import (
    ModelConfig,
    ModelParams,
    backward_batch,
    forward_batch,
    init_params,
)
from .parallel import halves, release_memory, run_halves
from .projection import FingerprintCache, ProjectionConfig, SequenceFeaturizer, TokenWindows
from .vocab import Vocabulary

IGNORE_LABEL = -1

# per head: the example field holding its gold labels, and its metric's name
_HEAD_LABELS = {"token": ("slots", "exact_match"), "pooled": ("label", "intent_accuracy")}


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
        # each message starts with the field it rejects; config.py names the key from it
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be in 0..2**64-1")
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
    ``(classes,)`` or ``(batch, classes)`` with one label per example, scored
    as a sequence of one position. The gradient has the shape of ``logits``
    and is zero at every ignored position.
    """
    if head not in _HEAD_LABELS:
        raise ValueError(f"unknown head kind {head!r}")
    lg = logits[..., None] if head == "pooled" else logits
    lg = lg.reshape(-1, *lg.shape[-2:])  # (batch, classes, positions)
    lb = np.asarray(labels).reshape(lg.shape[0], lg.shape[2])
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
    return float(loss), grad.reshape(logits.shape)


def exact_match_accuracy(
    pred_labels: list[list[str]], gold_labels: list[list[str]]
) -> float:
    """Correctly labeled positions over total positions, pooled across the dataset.

    With one label per example this is intent (classification) accuracy. A
    prediction shorter than its gold sequence (the model truncated the
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

    Labels are ``(examples, positions)``: ``max_seq_len`` positions for the
    token head, one for the pooled head. With ``strict`` a label outside the
    inventory raises; otherwise it is encoded as ignored (evaluation scores
    such positions via label strings, so they still count as wrong).
    """
    ids, valid = featurizer.encode([ex.tokens for ex in examples])
    width = featurizer.cfg.max_seq_len if head == "token" else 1
    labels = np.full((len(examples), width), IGNORE_LABEL, dtype=np.int64)
    for row, gold in enumerate(gold_labels(examples, _HEAD_LABELS[head][0])):
        for col, lab in enumerate(gold[:width]):
            idx = inventory.index.get(lab)
            if idx is not None:
                labels[row, col] = idx
            elif strict:
                raise DataError(f"example {row}: label {lab!r} outside the inventory")
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
    """Arg-max predictions per example (per position for the token head), in float32."""
    params = {k: p.astype(np.float32, copy=False) for k, p in params.items()}

    def predict(sel: slice) -> np.ndarray:
        logits, _ = forward_batch(_token_windows(featurizer, data, sel), data.valid[sel],
                                  params, cfg)
        return logits.argmax(axis=1)

    out: list[np.ndarray] = []
    for lo in range(0, len(data.examples), batch_size):
        n = min(batch_size, len(data.examples) - lo)
        pred = np.concatenate(run_halves(predict, [(slice(lo + h.start, lo + h.stop),)
                                                   for h in halves(n)]))
        if cfg.head == "token":
            out.extend(pred[i, : data.valid[lo + i]] for i in range(n))
        else:
            out.extend(pred)
    release_memory()  # also after train(), whose epochs each end with this validation pass
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
    field, metric = _HEAD_LABELS[cfg.head]
    preds = predict_batches(data, featurizer, params, cfg, batch_size=batch_size)
    pred_strs = [[inventory.labels[i] for i in np.atleast_1d(p)] for p in preds]
    gold = gold_labels(data.examples, field)
    unseen = sorted({lab for g in gold for lab in g if lab not in inventory.index})
    return {"metric": metric, "value": exact_match_accuracy(pred_strs, gold),
            "unseen_labels": unseen}


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
) -> TrainResult:
    """Train for the configured epochs and return the best-epoch parameters.

    One epoch = one seeded shuffle of the training set, one Adam update per
    batch, then a full validation pass. ``log_fn`` receives each epoch's
    log entry as it is produced. A batch whose loss is NaN or infinite stops
    training with :class:`DataError` naming the epoch and the batch (both
    counted from 1); floating-point warnings inside the step are silenced,
    since that check reports the divergence. Training math runs in float32
    (initialization is computed in float64 and cast, so runs with equal
    seeds stay bit-identical).
    """
    if not train_examples or not val_examples:
        raise DataError("training and validation splits must be non-empty")
    inventory = LabelInventory.from_examples(train_examples, _HEAD_LABELS[head][0])
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
    params = {k: p.astype(np.float32) for k, p in init_params(model_cfg, train_cfg.seed).items()}
    state = OptimizerState.fresh(params)
    rng = np.random.default_rng(train_cfg.seed)

    best_metric = -np.inf
    best_epoch = -1
    best_params: ModelParams = {k: p.copy() for k, p in params.items()}
    log: list[dict] = []

    def forward(sel: np.ndarray):
        with np.errstate(all="ignore"):  # errstate is per thread
            return forward_batch(_token_windows(featurizer, train_data, sel),
                                 train_data.valid[sel], params, model_cfg)

    def backward(record, upstream: np.ndarray) -> ModelParams:
        with np.errstate(all="ignore"):
            return backward_batch(record, upstream, params, model_cfg)[0]

    n = len(train_examples)
    for epoch in range(1, train_cfg.epochs + 1):
        started = time.perf_counter()
        order = rng.permutation(n)
        loss_sum = 0.0
        weight_sum = 0
        for lo in range(0, n, train_cfg.batch_size):
            batch = order[lo : lo + train_cfg.batch_size]
            batch_labels = train_data.labels[batch]
            parts = halves(len(batch))
            outputs = run_halves(forward, [(batch[h],) for h in parts])
            with np.errstate(all="ignore"):
                # one loss over the whole batch, so its mean divides by the batch's count
                loss, dlogits = cross_entropy_masked(np.concatenate([lg for lg, _ in outputs]),
                                                     batch_labels, head=head)
                if not math.isfinite(loss):
                    batch_no = lo // train_cfg.batch_size + 1
                    raise DataError(f"epoch {epoch}, batch {batch_no}: training loss is {loss}")
                grads, *rest = run_halves(backward, [(record, dlogits[h])
                                                     for (_, record), h in zip(outputs, parts)])
                for other in rest:  # the halves' gradients, added in order
                    for name, g in other.items():
                        grads[name] += g
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
