"""Bottleneck + MLP-Mixer network with hand-written reverse-mode gradients.

The network maps a projected input matrix ``C`` of shape ``(rows, s)`` to a
``(b, s)`` representation via a linear bottleneck, then applies ``depth``
mixer layers. Each layer runs two residual MLPs: one across positions (after
transposition) and one across channels, both pre-normalized and GELU
activated. A token head emits per-position logits; a pooled head attends over
valid positions with a learned query and classifies the pooled vector.

The input comes in two forms. Training and inference pass
:class:`~hashmixer.projection.TokenWindows`, the token-table row of every
window slot: the bottleneck projects each distinct row of the batch once per
slot and gathers the results per position, and its weight gradient
segment-sums the upstream gradient per distinct row, so ``C`` is never built.
A dense ``(batch, rows, s)`` tensor is the reference form, and only it has an
input gradient. Everything after the bottleneck is shared.

Parameters and their gradients are flat ``{name: ndarray}`` dicts so the
optimizer, serializer and quantizer can treat them uniformly. The math
follows the dtype of the parameters and inputs (float64 for gradient
verification, float32 in the trainer) and is batched: public entry points
accept a single example, the ``*_batch`` variants a leading batch axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

from .hashing import splitmix64_array
from .projection import FeatureMatrix, TokenWindows

LN_EPS = 1e-6

ModelParams = dict[str, np.ndarray]

HEAD_KINDS = ("token", "pooled")

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class ModelConfig:
    input_rows: int
    seq_len: int
    bottleneck: int
    hidden: int
    depth: int
    head: str
    num_labels: int

    def __post_init__(self) -> None:
        for name in ("input_rows", "seq_len", "bottleneck", "hidden", "num_labels"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.depth < 0:
            raise ValueError("depth must be >= 0")
        if self.head not in HEAD_KINDS:
            raise ValueError(f"unknown head kind {self.head!r}, expected one of {HEAD_KINDS}")


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter tensor's shape, in canonical order."""
    b, s, h = cfg.bottleneck, cfg.seq_len, cfg.hidden
    shapes: dict[str, tuple[int, ...]] = {
        "bottleneck.weight": (b, cfg.input_rows),
        "bottleneck.bias": (b,),
    }
    for k in range(cfg.depth):
        prefix = f"mixer.{k}"
        shapes[f"{prefix}.norm1.scale"] = (b,)
        shapes[f"{prefix}.norm1.shift"] = (b,)
        shapes[f"{prefix}.token_mlp.w1"] = (h, s)
        shapes[f"{prefix}.token_mlp.b1"] = (h,)
        shapes[f"{prefix}.token_mlp.w2"] = (s, h)
        shapes[f"{prefix}.token_mlp.b2"] = (s,)
        shapes[f"{prefix}.norm2.scale"] = (b,)
        shapes[f"{prefix}.norm2.shift"] = (b,)
        shapes[f"{prefix}.channel_mlp.w1"] = (h, b)
        shapes[f"{prefix}.channel_mlp.b1"] = (h,)
        shapes[f"{prefix}.channel_mlp.w2"] = (b, h)
        shapes[f"{prefix}.channel_mlp.b2"] = (b,)
    if cfg.head == "pooled":
        shapes["head.query"] = (b,)
    shapes["head.weight"] = (cfg.num_labels, b)
    shapes["head.bias"] = (cfg.num_labels,)
    return shapes


def count_parameters(cfg: ModelConfig) -> int:
    return sum(math.prod(shape) for shape in param_shapes(cfg).values())


def _uniform_stream(seed: int, start: int, count: int) -> tuple[np.ndarray, int]:
    """``count`` floats in [0, 1) from a counter-based splitmix64 stream."""
    counters = (np.uint64(seed) + np.arange(start, start + count, dtype=np.uint64))
    values = splitmix64_array(counters)
    return values.astype(np.float64) / 2.0**64, start + count


def init_params(cfg: ModelConfig, seed: int) -> ModelParams:
    """Glorot-uniform weights, zero biases, unit norm scales; seeded exactly."""
    params: ModelParams = {}
    cursor = 0
    for name, shape in param_shapes(cfg).items():
        if name.endswith(".scale"):
            params[name] = np.ones(shape, dtype=np.float64)
        elif name.endswith((".shift", ".bias", ".b1", ".b2")):
            params[name] = np.zeros(shape, dtype=np.float64)
        else:
            if len(shape) == 2:
                fan_out, fan_in = shape
            else:  # learned query vector: maps b values to one score
                fan_in, fan_out = shape[0], 1
            a = math.sqrt(6.0 / (fan_in + fan_out))
            u, cursor = _uniform_stream(seed, cursor, math.prod(shape))
            params[name] = ((2.0 * u - 1.0) * a).reshape(shape)
    return params


def normal_cdf(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + erf(x * _INV_SQRT2))


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact GELU: x * Phi(x) with Phi the standard normal CDF."""
    return x * normal_cdf(x)


def gelu_grad(x: np.ndarray, cdf: np.ndarray | None = None) -> np.ndarray:
    """d/dx GELU; pass the forward pass's Phi(x) to skip recomputing erf."""
    if cdf is None:
        cdf = normal_cdf(x)
    return cdf + x * np.exp(-0.5 * x * x) * _INV_SQRT_2PI


def layer_norm(
    v: np.ndarray, scale: np.ndarray, shift: np.ndarray, eps: float = LN_EPS
) -> np.ndarray:
    """Normalize a vector to zero mean and unit (biased) variance, then affine."""
    mean = v.mean()
    var = v.var()
    return (v - mean) / math.sqrt(var + eps) * scale + shift


def _ln_columns(x: np.ndarray, scale: np.ndarray, shift: np.ndarray):
    """Layer norm of every column's channel vector; x is (N, b, s)."""
    mean = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (x - mean) * inv_std
    return scale[:, None] * xhat + shift[:, None], xhat, inv_std


def _ln_columns_backward(dy, xhat, inv_std, scale):
    d = xhat.shape[1]
    dscale = (dy * xhat).sum(axis=(0, 2))
    dshift = dy.sum(axis=(0, 2))
    dxhat = dy * scale[:, None]
    dx = inv_std * (
        dxhat
        - dxhat.mean(axis=1, keepdims=True)
        - xhat * (dxhat * xhat).sum(axis=1, keepdims=True) / d
    )
    return dx, dscale, dshift


def _pair_grad(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """einsum('nxt,nyt->xy', a, b) as one GEMM (the hot gradient contraction)."""
    n, x, t = a.shape
    y = b.shape[1]
    return a.transpose(1, 0, 2).reshape(x, n * t) @ b.transpose(1, 0, 2).reshape(y, n * t).T


@dataclass
class _LayerCache:
    x: np.ndarray
    xhat1: np.ndarray
    inv_std1: np.ndarray
    h1: np.ndarray
    cdf1: np.ndarray
    g1: np.ndarray
    u: np.ndarray
    xhat2: np.ndarray
    inv_std2: np.ndarray
    h2: np.ndarray
    cdf2: np.ndarray
    g2: np.ndarray


@dataclass
class ActivationRecord:
    """Everything the backward pass needs, cached during forward.

    ``inputs`` is the dense input tensor, or for token input the pair
    ``(rows, inverse)``: the batch's distinct table rows and, per window
    slot, each position's index into them.
    """

    inputs: np.ndarray | tuple[np.ndarray, np.ndarray]
    valid_lens: np.ndarray
    bottleneck_out: np.ndarray
    mixer_out: np.ndarray
    layers: list[_LayerCache] = field(default_factory=list)
    alpha: np.ndarray | None = None
    pooled: np.ndarray | None = None


def _token_bottleneck(
    windows: TokenWindows, params: ModelParams, cfg: ModelConfig
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """``W @ C + bias`` from token-table rows, projecting each distinct row once."""
    n, slots, s = windows.ids.shape
    m = windows.table.shape[1]
    if slots * m != cfg.input_rows or s != cfg.seq_len:
        raise ValueError(
            f"token windows of {slots} slots x {m} features x {s} positions do not match "
            f"(batch, {cfg.input_rows}, {cfg.seq_len})"
        )
    weight = params["bottleneck.weight"]
    unique, inverse = np.unique(windows.ids, return_inverse=True)
    inverse = inverse.reshape(windows.ids.shape)
    rows = windows.table[unique].astype(weight.dtype, copy=False)
    projected = [rows @ weight[:, j * m : (j + 1) * m].T for j in range(slots)]
    acc = projected[0][inverse[:, 0]]
    for j in range(1, slots):
        acc += projected[j][inverse[:, j]]
    x = np.empty((n, weight.shape[0], s), dtype=acc.dtype)
    np.add(acc.transpose(0, 2, 1), params["bottleneck.bias"][:, None], out=x)
    return x, (rows, inverse)


def _token_bottleneck_weight_grad(
    dx: np.ndarray, rows: np.ndarray, inverse: np.ndarray
) -> np.ndarray:
    """Weight gradient for token input: ``dx`` summed per distinct row, then one GEMM per slot.

    Positions holding an all-zero first row (the padding row) add nothing
    and are skipped. Each segment sum runs in a stable sorted order, so the
    result is deterministic.
    """
    n, b, s = dx.shape
    per_position = dx.transpose(0, 2, 1)
    skip_first = not rows[0].any()
    blocks = []
    for j in range(inverse.shape[1]):
        index = inverse[:, j].ravel()
        live = np.flatnonzero(index) if skip_first else np.arange(index.size)
        order = live[np.argsort(index[live], kind="stable")]
        sorted_index = index[order]
        per_row = np.zeros((len(rows), b), dtype=dx.dtype)
        if len(order):
            starts = np.flatnonzero(np.r_[True, sorted_index[1:] != sorted_index[:-1]])
            gathered = per_position[order // s, order % s]
            per_row[sorted_index[starts]] = np.add.reduceat(gathered, starts, axis=0)
        blocks.append(per_row.T @ rows)
    return np.concatenate(blocks, axis=1)


def forward_batch(
    inputs: np.ndarray | TokenWindows,
    valid_lens: np.ndarray,
    params: ModelParams,
    cfg: ModelConfig,
) -> tuple[np.ndarray, ActivationRecord]:
    """Run the network on a dense (batch, input_rows, seq_len) tensor or on token windows."""
    if isinstance(inputs, TokenWindows):
        x, saved = _token_bottleneck(inputs, params, cfg)
    else:
        if inputs.ndim != 3 or inputs.shape[1:] != (cfg.input_rows, cfg.seq_len):
            raise ValueError(
                f"input shape {inputs.shape} does not match "
                f"(batch, {cfg.input_rows}, {cfg.seq_len})"
            )
        x = params["bottleneck.weight"] @ inputs + params["bottleneck.bias"][:, None]
        saved = inputs
    record = ActivationRecord(
        inputs=saved, valid_lens=np.asarray(valid_lens), bottleneck_out=x, mixer_out=x
    )

    for k in range(cfg.depth):
        prefix = f"mixer.{k}"
        n1, xhat1, inv_std1 = _ln_columns(
            x, params[f"{prefix}.norm1.scale"], params[f"{prefix}.norm1.shift"]
        )
        h1 = params[f"{prefix}.token_mlp.w1"] @ n1.swapaxes(1, 2)
        h1 += params[f"{prefix}.token_mlp.b1"][:, None]
        cdf1 = normal_cdf(h1)
        g1 = h1 * cdf1
        m1 = params[f"{prefix}.token_mlp.w2"] @ g1 + params[f"{prefix}.token_mlp.b2"][:, None]
        u = x + m1.swapaxes(1, 2)

        n2, xhat2, inv_std2 = _ln_columns(
            u, params[f"{prefix}.norm2.scale"], params[f"{prefix}.norm2.shift"]
        )
        h2 = params[f"{prefix}.channel_mlp.w1"] @ n2
        h2 += params[f"{prefix}.channel_mlp.b1"][:, None]
        cdf2 = normal_cdf(h2)
        g2 = h2 * cdf2
        m2 = params[f"{prefix}.channel_mlp.w2"] @ g2 + params[f"{prefix}.channel_mlp.b2"][:, None]
        y = u + m2

        record.layers.append(
            _LayerCache(x=x, xhat1=xhat1, inv_std1=inv_std1, h1=h1, cdf1=cdf1, g1=g1,
                        u=u, xhat2=xhat2, inv_std2=inv_std2, h2=h2, cdf2=cdf2, g2=g2)
        )
        x = y

    record.mixer_out = x

    if cfg.head == "token":
        logits = params["head.weight"] @ x + params["head.bias"][:, None]
        return logits, record

    valid = record.valid_lens
    if np.any(valid < 1):
        raise ValueError("pooled head needs at least one valid position per example")
    mask = np.arange(cfg.seq_len)[None, :] < valid[:, None]
    scores = np.einsum("b,nbs->ns", params["head.query"], x)
    scores = np.where(mask, scores, -np.inf)
    scores -= scores.max(axis=1, keepdims=True)
    exps = np.where(mask, np.exp(scores), 0.0)
    alpha = exps / exps.sum(axis=1, keepdims=True)
    pooled = np.einsum("nbs,ns->nb", x, alpha)
    logits = pooled @ params["head.weight"].T + params["head.bias"]
    record.alpha = alpha
    record.pooled = pooled
    return logits, record


def backward_batch(
    record: ActivationRecord,
    upstream: np.ndarray,
    params: ModelParams,
    cfg: ModelConfig,
    want_input_grad: bool = True,
) -> tuple[ModelParams, np.ndarray | None]:
    """Exact gradients of all parameters (and optionally the dense input tensor)."""
    token_input = isinstance(record.inputs, tuple)
    if token_input and want_input_grad:
        raise ValueError("token input has no input gradient; pass want_input_grad=False")
    grads: ModelParams = {}
    o = record.mixer_out

    if cfg.head == "token":
        grads["head.weight"] = _pair_grad(upstream, o)
        grads["head.bias"] = upstream.sum(axis=(0, 2))
        dx = params["head.weight"].T @ upstream
    else:
        alpha, pooled = record.alpha, record.pooled
        grads["head.weight"] = upstream.T @ pooled
        grads["head.bias"] = upstream.sum(axis=0)
        dpooled = upstream @ params["head.weight"]
        dx = dpooled[:, :, None] * alpha[:, None, :]
        dalpha = np.einsum("nbs,nb->ns", o, dpooled)
        dscores = alpha * (dalpha - (alpha * dalpha).sum(axis=1, keepdims=True))
        grads["head.query"] = np.einsum("ns,nbs->b", dscores, o)
        dx += params["head.query"][None, :, None] * dscores[:, None, :]

    for k in reversed(range(cfg.depth)):
        prefix = f"mixer.{k}"
        cache = record.layers[k]
        w2c = params[f"{prefix}.channel_mlp.w2"]
        w1c = params[f"{prefix}.channel_mlp.w1"]
        w2t = params[f"{prefix}.token_mlp.w2"]
        w1t = params[f"{prefix}.token_mlp.w1"]

        # channel-mixing branch: y = u + w2c @ gelu(w1c @ ln2(u))
        n2 = params[f"{prefix}.norm2.scale"][:, None] * cache.xhat2
        n2 += params[f"{prefix}.norm2.shift"][:, None]
        dm2 = dx
        grads[f"{prefix}.channel_mlp.w2"] = _pair_grad(dm2, cache.g2)
        grads[f"{prefix}.channel_mlp.b2"] = dm2.sum(axis=(0, 2))
        dg2 = w2c.T @ dm2
        dh2 = dg2 * gelu_grad(cache.h2, cache.cdf2)
        grads[f"{prefix}.channel_mlp.w1"] = _pair_grad(dh2, n2)
        grads[f"{prefix}.channel_mlp.b1"] = dh2.sum(axis=(0, 2))
        dn2 = w1c.T @ dh2
        du_norm, dscale2, dshift2 = _ln_columns_backward(
            dn2, cache.xhat2, cache.inv_std2, params[f"{prefix}.norm2.scale"]
        )
        grads[f"{prefix}.norm2.scale"] = dscale2
        grads[f"{prefix}.norm2.shift"] = dshift2
        du = dx + du_norm

        # token-mixing branch: u = x + (w2t @ gelu(w1t @ ln1(x)^T))^T
        t1 = (params[f"{prefix}.norm1.scale"][:, None] * cache.xhat1
              + params[f"{prefix}.norm1.shift"][:, None]).swapaxes(1, 2)
        dm1 = du.swapaxes(1, 2)
        grads[f"{prefix}.token_mlp.w2"] = _pair_grad(dm1, cache.g1)
        grads[f"{prefix}.token_mlp.b2"] = dm1.sum(axis=(0, 2))
        dg1 = w2t.T @ dm1
        dh1 = dg1 * gelu_grad(cache.h1, cache.cdf1)
        grads[f"{prefix}.token_mlp.w1"] = _pair_grad(dh1, t1)
        grads[f"{prefix}.token_mlp.b1"] = dh1.sum(axis=(0, 2))
        dn1 = (w1t.T @ dh1).swapaxes(1, 2)
        dx_norm, dscale1, dshift1 = _ln_columns_backward(
            dn1, cache.xhat1, cache.inv_std1, params[f"{prefix}.norm1.scale"]
        )
        grads[f"{prefix}.norm1.scale"] = dscale1
        grads[f"{prefix}.norm1.shift"] = dshift1
        dx = du + dx_norm

    if token_input:
        grads["bottleneck.weight"] = _token_bottleneck_weight_grad(dx, *record.inputs)
    else:
        grads["bottleneck.weight"] = _pair_grad(dx, record.inputs)
    grads["bottleneck.bias"] = dx.sum(axis=(0, 2))
    input_grad = None
    if want_input_grad:
        input_grad = params["bottleneck.weight"].T @ dx
    return grads, input_grad


def forward(
    matrix: FeatureMatrix, params: ModelParams, cfg: ModelConfig
) -> tuple[np.ndarray, ActivationRecord]:
    """Single-example forward; token head returns (labels, s) logits."""
    logits, record = forward_batch(
        matrix.data[None, :, :], np.array([matrix.valid_len]), params, cfg
    )
    return logits[0], record


def backward(
    record: ActivationRecord,
    upstream: np.ndarray,
    params: ModelParams,
    cfg: ModelConfig,
    want_input_grad: bool = True,
) -> tuple[ModelParams, np.ndarray | None]:
    """Single-example backward matching :func:`forward`."""
    grads, input_grad = backward_batch(
        record, upstream[None, ...], params, cfg, want_input_grad=want_input_grad
    )
    return grads, None if input_grad is None else input_grad[0]
