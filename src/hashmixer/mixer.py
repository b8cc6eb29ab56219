"""Bottleneck + MLP-Mixer network with hand-written reverse-mode gradients.

The network maps a projected input matrix ``C`` of shape ``(rows, s)`` to a
``(b, s)`` representation via a linear bottleneck, then applies ``depth``
mixer layers. Each layer runs two residual MLPs: one across positions and
one across channels, both pre-normalized and GELU activated. A token head
emits per-position logits; a pooled head attends over valid positions with a
learned query and classifies the pooled vector.

Layout. Inside the network the residual stream of a batch of ``N`` examples
is one tokens-major ``(N*s, b)`` array: row ``n*s + t`` is position ``t`` of
example ``n``. The channel MLP, the head and all their gradients are 2-D
GEMMs on it, and layer norm reduces over its contiguous last axis. The token
MLP works on one transposed copy per layer, ``(N*b, s)``, so it too is 2-D
GEMMs; the transposition back is folded into the residual add, and backward
rebuilds the copy from the cached normalized rows instead of keeping it
alive between the passes. Logits keep
the ``(N, labels, s)`` layout, and :class:`ActivationRecord`'s
``mixer_out`` keeps its ``(N, b, s)`` shape as a transposed view of the
stream.

The input comes in two forms. Training and inference pass
:class:`~hashmixer.projection.TokenWindows`, the token-table row of every
window slot: the bottleneck projects each distinct row of the batch once per
slot and gathers the results per position, and its weight gradient
segment-sums the upstream gradient per distinct row, so ``C`` is never built.
A dense ``(batch, rows, s)`` tensor is the reference form, and only it has an
input gradient. Everything after the bottleneck is shared.

GELU is exact, ``x * Phi(x)`` with ``Phi`` the standard normal CDF, and the
dtype of the activations selects how ``Phi`` is computed. float32 uses a
clamped rational erf, ``z * P(z^2) / Q(z^2)`` with ``z`` clamped to
[-4, 4] (Eigen's single-precision form), evaluated in blocks of
:data:`ERF_BLOCK` elements so that its dozens of passes stay in cache. Its
``Phi`` is within 2.4e-7 of the float64 value on a dense grid over
[-10, 10], and is exactly 0 or 1 beyond |x| = 4 sqrt 2. Every other dtype
applies ``math.erf`` per element: slow, but as precise as the float64
gradient checks need. ``gelu_grad`` is blocked the same way in float32.

Parameters and their gradients are flat ``{name: ndarray}`` dicts so the
optimizer, serializer and quantizer can treat them uniformly. The math
follows the dtype of the parameters and inputs and takes a leading batch
axis: float32 in training and in every inference (``predict_batches``
casts any model's weights), float64 in the gradient checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hashing import splitmix64_array
from .projection import TokenWindows

LN_EPS = 1e-6

ModelParams = dict[str, np.ndarray]

HEAD_KINDS = ("token", "pooled")

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_ERF64 = np.frompyfunc(math.erf, 1, 1)

# Elements per block of the float32 GELU: the operands of one block (about
# 1.3 MB) stay in a 2 MB per-core L2 cache across the polynomial's passes.
ERF_BLOCK = 1 << 16

# Eigen's single-precision erf: odd numerator and even denominator
# coefficients in z^2, highest power first; |z| is clamped to 4, where
# erf(z) rounds to 1 in float32.
_ERF_CLAMP = np.float32(4.0)
_ERF_P = tuple(np.float32(c) for c in (
    -2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
    -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
    -1.60960333262415e-02,
))
_ERF_Q = tuple(np.float32(c) for c in (
    -1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
    -7.37332916720468e-03, -1.42647390514189e-02,
))


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
        # each message starts with the field it rejects; config.py names the key from it
        for name in ("input_rows", "seq_len", "bottleneck", "hidden", "num_labels"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.depth < 0:
            raise ValueError("depth must be >= 0")
        if self.head not in HEAD_KINDS:
            raise ValueError(f"head must be one of {HEAD_KINDS}, not {self.head!r}")


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


def _float32_blocks(out: np.ndarray, *arrays: np.ndarray):
    """Matching flat blocks of ``out`` and of C-ordered copies of ``arrays``."""
    flats = [out.reshape(-1)] + [np.ascontiguousarray(a).reshape(-1) for a in arrays]
    for lo in range(0, out.size, ERF_BLOCK):
        yield [f[lo : lo + ERF_BLOCK] for f in flats]


def normal_cdf(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF, ``0.5 * (1 + erf(x / sqrt 2))``, elementwise.

    float32 input takes the blocked rational erf (within 2.4e-7 of the
    float64 value); any other dtype takes ``math.erf`` per element.
    """
    x = np.asarray(x)
    if x.dtype != np.float32:
        return np.asarray(0.5 * (1.0 + _ERF64(x * _INV_SQRT2)), dtype=np.float64)
    out = np.empty(x.shape, dtype=np.float32)
    scratch = np.empty((3, min(x.size, ERF_BLOCK)), dtype=np.float32)
    for p, xb in _float32_blocks(out, x):
        z, z2, q = scratch[:, : len(p)]
        np.multiply(xb, np.float32(_INV_SQRT2), out=z)
        np.minimum(z, _ERF_CLAMP, out=z)
        np.maximum(z, -_ERF_CLAMP, out=z)
        np.multiply(z, z, out=z2)
        np.multiply(z2, _ERF_P[0], out=p)
        p += _ERF_P[1]
        for c in _ERF_P[2:]:
            p *= z2
            p += c
        p *= z
        np.multiply(z2, _ERF_Q[0], out=q)
        q += _ERF_Q[1]
        for c in _ERF_Q[2:]:
            q *= z2
            q += c
        p /= q
        p += np.float32(1.0)
        p *= np.float32(0.5)
    return out


def gelu_grad(x: np.ndarray, cdf: np.ndarray | None = None) -> np.ndarray:
    """d/dx GELU; pass the forward pass's Phi(x) to skip recomputing erf."""
    if cdf is None:
        cdf = normal_cdf(x)
    if np.result_type(x, cdf) != np.float32:
        return cdf + x * np.exp(-0.5 * x * x) * _INV_SQRT_2PI
    out = np.empty(np.shape(x), dtype=np.float32)
    for d, xb, cb in _float32_blocks(out, x, cdf):
        np.multiply(xb, np.float32(-0.5), out=d)
        d *= xb
        np.exp(d, out=d)
        d *= xb
        d *= np.float32(_INV_SQRT_2PI)
        d += cb
    return out


def _normalize_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zero-mean, unit-variance rows of ``x`` (one position's channels per row)."""
    xhat = x - x.mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(np.mean(xhat * xhat, axis=1, keepdims=True) + LN_EPS)
    xhat *= inv_std
    return xhat, inv_std


def _normalize_rows_backward(dy, xhat, inv_std, scale):
    """Gradients of ``xhat * scale + shift`` with respect to the rows, scale and shift."""
    dscale = (dy * xhat).sum(axis=0)
    dshift = dy.sum(axis=0)
    dxhat = dy * scale
    dx = dxhat - dxhat.mean(axis=1, keepdims=True)
    dx -= xhat * ((dxhat * xhat).sum(axis=1, keepdims=True) / xhat.shape[1])
    dx *= inv_std
    return dx, dscale, dshift


@dataclass
class _LayerCache:
    """What one mixer layer's backward reads."""

    xhat1: np.ndarray
    inv_std1: np.ndarray
    h1: np.ndarray
    cdf1: np.ndarray
    g1: np.ndarray
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
    slot, each position's index into them. ``mixer_out`` is an ``(N, b, s)``
    view of the tokens-major stream.
    """

    inputs: np.ndarray | tuple[np.ndarray, np.ndarray]
    mixer_out: np.ndarray
    layers: list[_LayerCache]
    alpha: np.ndarray | None = None
    pooled: np.ndarray | None = None


def _channels_first(stream: np.ndarray, n: int) -> np.ndarray:
    """The ``(N, b, s)`` view of a tokens-major ``(N*s, b)`` stream."""
    return stream.reshape(n, -1, stream.shape[1]).transpose(0, 2, 1)


def _token_mlp_input(xhat: np.ndarray, scale: np.ndarray, shift: np.ndarray, n: int):
    """``xhat * scale + shift`` written as the token MLP's ``(N*b, s)`` transposed copy."""
    t = np.empty((n, xhat.shape[1], xhat.shape[0] // n), dtype=xhat.dtype)
    np.multiply(_channels_first(xhat, n), scale[:, None], out=t)
    t += shift[:, None]
    return t.reshape(-1, t.shape[2])


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
    x = projected[0][inverse[:, 0]]
    for j in range(1, slots):
        x += projected[j][inverse[:, j]]
    x += params["bottleneck.bias"]
    return x.reshape(n * s, -1), (rows, inverse)


def _token_bottleneck_weight_grad(
    dx: np.ndarray, rows: np.ndarray, inverse: np.ndarray
) -> np.ndarray:
    """Weight gradient for token input: ``dx`` summed per distinct row, then one GEMM per slot.

    Positions holding an all-zero first row (the padding row) add nothing
    and are skipped. Each segment sum runs in a stable sorted order, so the
    result is deterministic.
    """
    skip_first = not rows[0].any()
    blocks = []
    for j in range(inverse.shape[1]):
        index = inverse[:, j].ravel()
        live = np.flatnonzero(index) if skip_first else np.arange(index.size)
        order = live[np.argsort(index[live], kind="stable")]
        sorted_index = index[order]
        per_row = np.zeros((len(rows), dx.shape[1]), dtype=dx.dtype)
        if len(order):
            starts = np.flatnonzero(np.r_[True, sorted_index[1:] != sorted_index[:-1]])
            per_row[sorted_index[starts]] = np.add.reduceat(dx[order], starts, axis=0)
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
        n = inputs.ids.shape[0]
    else:
        if inputs.ndim != 3 or inputs.shape[1:] != (cfg.input_rows, cfg.seq_len):
            raise ValueError(
                f"input shape {inputs.shape} does not match "
                f"(batch, {cfg.input_rows}, {cfg.seq_len})"
            )
        n = inputs.shape[0]
        x = np.matmul(inputs.transpose(0, 2, 1), params["bottleneck.weight"].T)
        x = x.reshape(n * cfg.seq_len, cfg.bottleneck)
        x += params["bottleneck.bias"]
        saved = inputs
    s, b = cfg.seq_len, cfg.bottleneck
    layers: list[_LayerCache] = []
    for k in range(cfg.depth):
        prefix = f"mixer.{k}"
        # token-mixing branch on the (N*b, s) transpose of ln1(x)
        xhat1, inv_std1 = _normalize_rows(x)
        t1 = _token_mlp_input(xhat1, params[f"{prefix}.norm1.scale"],
                              params[f"{prefix}.norm1.shift"], n)
        h1 = t1 @ params[f"{prefix}.token_mlp.w1"].T
        h1 += params[f"{prefix}.token_mlp.b1"]
        cdf1 = normal_cdf(h1)
        g1 = h1 * cdf1
        m1 = g1 @ params[f"{prefix}.token_mlp.w2"].T
        m1 += params[f"{prefix}.token_mlp.b2"]
        u = np.empty_like(x)
        np.add(x.reshape(n, s, b), m1.reshape(n, b, s).transpose(0, 2, 1),
               out=u.reshape(n, s, b))

        # channel-mixing branch: y = u + gelu(ln2(u) @ w1c.T) @ w2c.T
        xhat2, inv_std2 = _normalize_rows(u)
        n2 = xhat2 * params[f"{prefix}.norm2.scale"]
        n2 += params[f"{prefix}.norm2.shift"]
        h2 = n2 @ params[f"{prefix}.channel_mlp.w1"].T
        h2 += params[f"{prefix}.channel_mlp.b1"]
        cdf2 = normal_cdf(h2)
        g2 = h2 * cdf2
        y = g2 @ params[f"{prefix}.channel_mlp.w2"].T
        y += params[f"{prefix}.channel_mlp.b2"]
        y += u

        layers.append(
            _LayerCache(xhat1=xhat1, inv_std1=inv_std1, h1=h1, cdf1=cdf1, g1=g1,
                        xhat2=xhat2, inv_std2=inv_std2, h2=h2, cdf2=cdf2, g2=g2)
        )
        x = y

    record = ActivationRecord(inputs=saved, mixer_out=_channels_first(x, n), layers=layers)

    if cfg.head == "token":
        logits = x @ params["head.weight"].T
        logits += params["head.bias"]
        return _channels_first(logits, n), record

    valid = np.asarray(valid_lens)
    if np.any(valid < 1):
        raise ValueError("pooled head needs at least one valid position per example")
    x3 = x.reshape(n, s, b)
    mask = np.arange(s)[None, :] < valid[:, None]
    scores = x3 @ params["head.query"]
    scores = np.where(mask, scores, -np.inf)
    scores -= scores.max(axis=1, keepdims=True)
    exps = np.where(mask, np.exp(scores), 0.0)
    alpha = exps / exps.sum(axis=1, keepdims=True)
    pooled = np.matmul(alpha[:, None, :], x3)[:, 0]
    logits = pooled @ params["head.weight"].T + params["head.bias"]
    record.alpha = alpha
    record.pooled = pooled
    return logits, record


def backward_batch(
    record: ActivationRecord,
    upstream: np.ndarray,
    params: ModelParams,
    cfg: ModelConfig,
) -> tuple[ModelParams, np.ndarray | None]:
    """Exact gradients of all parameters, and of the input when it is a dense tensor.

    Token-window input has no input gradient: the second value is ``None``.
    """
    token_input = isinstance(record.inputs, tuple)
    grads: ModelParams = {}
    n, b, s = record.mixer_out.shape
    o = record.mixer_out.transpose(0, 2, 1).reshape(n * s, b)  # the stream itself, no copy

    if cfg.head == "token":
        up = upstream.transpose(0, 2, 1).reshape(n * s, -1)
        grads["head.weight"] = up.T @ o
        grads["head.bias"] = up.sum(axis=0)
        dx = up @ params["head.weight"]
    else:
        alpha, pooled = record.alpha, record.pooled
        o3 = o.reshape(n, s, b)
        grads["head.weight"] = upstream.T @ pooled
        grads["head.bias"] = upstream.sum(axis=0)
        dpooled = upstream @ params["head.weight"]
        dalpha = np.matmul(o3, dpooled[:, :, None])[:, :, 0]
        dscores = alpha * (dalpha - (alpha * dalpha).sum(axis=1, keepdims=True))
        grads["head.query"] = dscores.reshape(-1) @ o
        dx3 = alpha[:, :, None] * dpooled[:, None, :]
        dx3 += dscores[:, :, None] * params["head.query"]
        dx = dx3.reshape(n * s, b)

    for k in reversed(range(cfg.depth)):
        prefix = f"mixer.{k}"
        cache = record.layers[k]
        w2c = params[f"{prefix}.channel_mlp.w2"]
        w1c = params[f"{prefix}.channel_mlp.w1"]
        w2t = params[f"{prefix}.token_mlp.w2"]
        w1t = params[f"{prefix}.token_mlp.w1"]

        # channel-mixing branch: y = u + gelu(ln2(u) @ w1c.T) @ w2c.T
        n2 = cache.xhat2 * params[f"{prefix}.norm2.scale"]
        n2 += params[f"{prefix}.norm2.shift"]
        grads[f"{prefix}.channel_mlp.w2"] = dx.T @ cache.g2
        grads[f"{prefix}.channel_mlp.b2"] = dx.sum(axis=0)
        dh2 = dx @ w2c
        dh2 *= gelu_grad(cache.h2, cache.cdf2)
        grads[f"{prefix}.channel_mlp.w1"] = dh2.T @ n2
        grads[f"{prefix}.channel_mlp.b1"] = dh2.sum(axis=0)
        du, grads[f"{prefix}.norm2.scale"], grads[f"{prefix}.norm2.shift"] = (
            _normalize_rows_backward(dh2 @ w1c, cache.xhat2, cache.inv_std2,
                                     params[f"{prefix}.norm2.scale"])
        )
        du += dx

        # token-mixing branch: u = x + transpose(gelu(t1 @ w1t.T) @ w2t.T), t1 = ln1(x) transposed
        dm1 = _channels_first(du, n).reshape(n * b, s)
        grads[f"{prefix}.token_mlp.w2"] = dm1.T @ cache.g1
        grads[f"{prefix}.token_mlp.b2"] = dm1.sum(axis=0)
        dh1 = dm1 @ w2t
        dh1 *= gelu_grad(cache.h1, cache.cdf1)
        t1 = _token_mlp_input(cache.xhat1, params[f"{prefix}.norm1.scale"],
                              params[f"{prefix}.norm1.shift"], n)
        grads[f"{prefix}.token_mlp.w1"] = dh1.T @ t1
        grads[f"{prefix}.token_mlp.b1"] = dh1.sum(axis=0)
        dt1 = (dh1 @ w1t).reshape(n, b, s).transpose(0, 2, 1).reshape(n * s, b)
        dx, grads[f"{prefix}.norm1.scale"], grads[f"{prefix}.norm1.shift"] = (
            _normalize_rows_backward(dt1, cache.xhat1, cache.inv_std1,
                                     params[f"{prefix}.norm1.scale"])
        )
        dx += du

    if token_input:
        grads["bottleneck.weight"] = _token_bottleneck_weight_grad(dx, *record.inputs)
    else:
        flat_inputs = record.inputs.transpose(0, 2, 1).reshape(n * s, cfg.input_rows)
        grads["bottleneck.weight"] = dx.T @ flat_inputs
    grads["bottleneck.bias"] = dx.sum(axis=0)
    if token_input:
        return grads, None
    return grads, params["bottleneck.weight"].T @ _channels_first(dx, n)
