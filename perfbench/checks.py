"""Output checks that recompute each result from its definition.

None of these compares against a stored copy of earlier output. Each check
raises ``CheckFailed`` with a reason; the benchmark reports ``correct:
false`` if any check fails. The references here use plain Python integers
and numpy (plus scipy's ``erf`` for the normal CDF), not the program's code.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

MASK64 = 0xFFFFFFFFFFFFFFFF
LN_EPS = 1e-6  # layer-norm epsilon of the model definition
# a reference top-two margin within this share of the top logit is a tie at
# float32 rounding, where the program may pick either label
ARGMAX_TIE_REL = 1e-5
# directional finite difference: step, and tolerance relative to the
# derivative plus an absolute one that covers float64 rounding of the loss
# (about 1e-12) divided by the step, for directions along which the loss
# hardly changes
GRAD_EPS = 1e-5
GRAD_REL_TOL = 1e-6
GRAD_ABS_TOL = 1e-7


class CheckFailed(AssertionError):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# --- MinHash, from the README definition ------------------------------------

def ref_fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & MASK64
    return h


def ref_splitmix64(x: int) -> int:
    z = (x + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def ref_hash(i: int, text: str) -> int:
    """Hash function ``i``: FNV-1a 64 of the UTF-8 text XOR splitmix64(i+1), then splitmix64."""
    return ref_splitmix64(ref_fnv1a64(text.encode("utf-8")) ^ ref_splitmix64(i + 1))


def ref_minhash(unit: str, n_hashes: int) -> list[int]:
    """Per-function minimum over the unit's character trigrams (the whole
    unit when shorter than three characters, or when it is a ``##``
    continuation)."""
    if unit.startswith("##") or len(unit) < 3:
        grams = [unit]
    else:
        grams = [unit[k : k + 3] for k in range(len(unit) - 2)]
    fnvs = [ref_fnv1a64(g.encode("utf-8")) for g in grams]
    seeds = [ref_splitmix64(i + 1) for i in range(n_hashes)]
    return [min(ref_splitmix64(f ^ s) for f in fnvs) for s in seeds]


def check_cache_rows(table: np.ndarray, units: list[str], rows) -> int:
    """Sampled cache rows equal the reference MinHash of their unit."""
    n_hashes = table.shape[1]
    for row in rows:
        expected = ref_minhash(units[row], n_hashes)
        got = [int(v) for v in table[row]]
        require(got == expected, f"cache row {row} ({units[row]!r}) differs from reference MinHash")
    return len(rows)


# --- counting features --------------------------------------------------------

def check_counting_invariant(features: np.ndarray, valid: np.ndarray, n_hashes: int,
                             feature_size: int) -> None:
    """Live columns sum to n_hashes per live window slot; padding is zero.

    ``features`` is (batch, (2w+1)*m, s). Window slot ``j`` of column ``t``
    holds token ``t + j - w``, live when that index lies in the sequence.
    """
    n, rows, s = features.shape
    slots = rows // feature_size
    w = (slots - 1) // 2
    require(slots * feature_size == rows, f"{rows} rows is not a whole number of windows")
    blocks = features.reshape(n, slots, feature_size, s).sum(axis=2, dtype=np.float64)
    t = np.arange(s)
    for i in range(n):
        for j in range(slots):
            neighbour = t + j - w
            live = (t < valid[i]) & (neighbour >= 0) & (neighbour < valid[i])
            expected = np.where(live, float(n_hashes), 0.0)
            require(np.array_equal(blocks[i, j], expected),
                    f"example {i}, window slot {j}: column sums break the counting invariant")
        require(not features[i][:, int(valid[i]):].any(),
                f"example {i}: padding columns are not zero")


# --- the model, from the paper's equations -------------------------------------

def _layer_norm(x: np.ndarray, scale: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Normalize each position's channel vector; x is (b, s)."""
    mean = x.mean(axis=0, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=0, keepdims=True)
    return (x - mean) / np.sqrt(var + LN_EPS) * scale[:, None] + shift[:, None]


def _gelu(x: np.ndarray) -> np.ndarray:
    return x * 0.5 * (1.0 + erf(x / math.sqrt(2.0)))


def ref_token_logits(features: np.ndarray, params: dict, depth: int) -> np.ndarray:
    """Token-head logits (labels, s) of one (rows, s) input, in float64.

    Bottleneck ``x = W C + b``; each mixer layer mixes positions with an MLP
    over the transposed, layer-normalized map, then channels with a second
    MLP, both residual; the head is linear per position.
    """
    p = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}
    x = p["bottleneck.weight"] @ features.astype(np.float64) + p["bottleneck.bias"][:, None]
    for k in range(depth):
        q = f"mixer.{k}."
        n1 = _layer_norm(x, p[q + "norm1.scale"], p[q + "norm1.shift"])
        token_mix = _gelu(n1 @ p[q + "token_mlp.w1"].T + p[q + "token_mlp.b1"])
        x = x + token_mix @ p[q + "token_mlp.w2"].T + p[q + "token_mlp.b2"]
        n2 = _layer_norm(x, p[q + "norm2.scale"], p[q + "norm2.shift"])
        channel_mix = _gelu(p[q + "channel_mlp.w1"] @ n2 + p[q + "channel_mlp.b1"][:, None])
        x = x + p[q + "channel_mlp.w2"] @ channel_mix + p[q + "channel_mlp.b2"][:, None]
    return p["head.weight"] @ x + p["head.bias"][:, None]


def check_predictions(features: np.ndarray, valid: np.ndarray, predictions: list,
                      params: dict, depth: int) -> int:
    """Reference argmax equals the program's prediction at every live position,
    except where the reference's top-two margin is within float32 rounding.
    Returns the number of positions compared."""
    compared = 0
    for i in range(features.shape[0]):
        logits = ref_token_logits(features[i], params, depth)[:, : int(valid[i])]
        pred = np.asarray(predictions[i])
        require(pred.shape == (int(valid[i]),), f"example {i}: prediction length {pred.shape}")
        top2 = np.sort(logits, axis=0)[-2:]
        margin = top2[1] - top2[0]
        decided = margin > ARGMAX_TIE_REL * np.maximum(1.0, np.abs(top2[1]))
        ref = logits.argmax(axis=0)
        bad = np.nonzero(decided & (ref != pred))[0]
        require(bad.size == 0, f"example {i}: prediction differs from reference at {bad.tolist()}")
        compared += int(decided.sum())
    return compared


# --- quantization ------------------------------------------------------------------

def check_quantization_step(params: dict, dequantized: dict, steps: dict) -> None:
    """Every dequantized weight lies within half a quantization step of its float.

    A model file stores each step as float32, so a weight of up to 127 steps
    may also carry 127 float32 roundings of the step.
    """
    for name, w in params.items():
        w = np.asarray(w, dtype=np.float64)
        step = steps[name]
        require(step > 0 and math.isfinite(step), f"{name}: bad quantization step {step}")
        err = np.abs(np.asarray(dequantized[name], dtype=np.float64) - w).max(initial=0.0)
        require(err <= (0.5 + 127 * 2.0**-24) * step,
                f"{name}: error {err} exceeds half a step {step}")


# --- training --------------------------------------------------------------------------

def check_directional_gradient(loss_fn, params: dict, inputs: np.ndarray, grads: dict,
                               input_grad: np.ndarray, seed: int) -> float:
    """Central difference of the loss along a random unit direction in
    parameter and input space equals the gradients' inner product with it."""
    rng = np.random.default_rng(seed)
    direction = {k: rng.standard_normal(v.shape) for k, v in params.items()}
    d_in = rng.standard_normal(inputs.shape)
    norm = math.sqrt(sum(float((d * d).sum()) for d in [*direction.values(), d_in]))
    direction = {k: d / norm for k, d in direction.items()}
    d_in /= norm
    analytic = sum(float((grads[k] * direction[k]).sum()) for k in params)
    analytic += float((input_grad * d_in).sum())

    def shifted(sign: float) -> float:
        p = {k: v + sign * GRAD_EPS * direction[k] for k, v in params.items()}
        return loss_fn(p, inputs + sign * GRAD_EPS * d_in)

    numeric = (shifted(1.0) - shifted(-1.0)) / (2 * GRAD_EPS)
    err = abs(numeric - analytic)
    require(err <= GRAD_REL_TOL * max(abs(numeric), abs(analytic)) + GRAD_ABS_TOL,
            f"directional derivative {numeric} vs backward {analytic} (error {err:.2e})")
    return err / max(abs(numeric), abs(analytic), GRAD_ABS_TOL)


def check_adam_first_step(before: dict, after: dict, grads: dict, lr: float, eps: float) -> None:
    """From zero moments, bias-corrected Adam moves each weight by lr*g/(|g|+eps)."""
    for name, p0 in before.items():
        g = grads[name]
        expected = p0 - lr * g / (np.abs(g) + eps)
        require(np.allclose(after[name], expected, rtol=0, atol=1e-12),
                f"{name}: first Adam step differs from its definition")


def check_training_learns(log: list[dict], n_labels: int) -> None:
    losses = [entry["train_loss"] for entry in log]
    require(all(math.isfinite(x) for x in losses), f"non-finite training loss {losses}")
    require(losses[-1] < math.log(n_labels),
            f"final training loss {losses[-1]:.3f} not below ln({n_labels})")


def check_cold_predict(payload: dict, expected: list[str]) -> None:
    """A one-shot ``predict`` process labels the text as the in-process model does."""
    require(payload.get("labels") == expected,
            f"cold predict labels {payload.get('labels')} differ from in-process {expected}")


def check_eval_report(report: dict, examples: int, quantized: bool) -> None:
    require(report.get("examples") == examples,
            f"eval scored {report.get('examples')} examples, expected {examples}")
    require(report.get("quantized") is quantized,
            f"eval reports quantized={report.get('quantized')}")
    require(0.0 <= report.get("value", -1.0) <= 1.0,
            f"eval metric {report.get('value')} outside [0, 1]")


def exact_match(pred: list[list[str]], gold: list[list[str]]) -> float:
    """Correct words over all gold words; truncated-away words count as wrong."""
    total = sum(len(g) for g in gold)
    correct = sum(p == g for ps, gs in zip(pred, gold) for p, g in zip(ps, gs))
    return correct / total


def check_accuracy(accuracy: float, gold: list[list[str]]) -> float:
    """Accuracy well above always guessing the most frequent gold label."""
    counts: dict[str, int] = {}
    for labels in gold:
        for lab in labels:
            counts[lab] = counts.get(lab, 0) + 1
    majority = max(counts.values()) / sum(counts.values())
    require(accuracy >= 2 * majority and accuracy >= majority + 0.1,
            f"exact match {accuracy:.3f} not well above majority share {majority:.3f}")
    return majority
