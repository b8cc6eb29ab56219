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
``mixer_out`` gives the last stream in ``(N, b, s)`` shape.

Padding. Position ``t`` of example ``n`` is live when ``t < valid_lens[n]``.
Every layer but the last runs on all positions, because the next token MLP
reads them all. After the last token-mixing step no position reads another,
so for token-window input (as training and inference pass it) the last layer
computes only what the loss reads: its token MLP's outputs up to the batch's
longest valid length (the span), then its residual sum, channel MLP and the
head on the live rows alone. Padded positions then hold exactly 0 in the
token-head logits and in ``mixer_out``, which zero-pads the record's live
rows when read. Nothing reads them: the loss masks them, the pooled head
gives them weight 0 (a finite 0 keeps its weighted sum exact), and backward
reads no upstream gradient there. Dense input, the reference form, computes
every position, as a position-by-position reference does; live logits agree.

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
[-4, 4] (Eigen's single-precision form). Its ``Phi`` is within 2.4e-7 of
the float64 value on a dense grid over [-10, 10], and is exactly 0 or 1
beyond |x| = 4 sqrt 2. Every other dtype applies ``math.erf`` per element:
slow, but as precise as the float64 gradient checks need. ``normal_cdf``
and ``gelu_grad`` run over their whole argument, into an ``out`` of any
layout; only an MLP's two passes, :func:`_mlp` and :func:`_mlp_backward`,
block their work, to rows of about :data:`ERF_BLOCK` elements (twice that in
backward) that stay in cache.

Inference. ``forward_batch(..., record=False)``, which ``predict_batches``
runs for validation, ``eval`` and ``predict``, keeps no
:class:`ActivationRecord`: nothing a layer computes outlives the layer.
Every MLP works through its rows in blocks of ``ERF_BLOCK // hidden`` rows.
A block's first product goes into one reused buffer, GELU is applied there
while it is in cache, and the second product writes the block's output
rows. So no ``(rows, hidden)`` array is allocated: at an eval batch half,
that is 8 MiB per token MLP at x-small and 32 MiB at base, which would be
faulted in afresh on every pass after ``release_memory`` trims the heap.
The recording forward runs the same blocks and writes each block's
``Phi(h)`` into the record, its one ``(rows, hidden)`` array per MLP, so
logits with and without a record are equal bit for bit. Backward only reads
the record. It runs blocks of ``2 * ERF_BLOCK // hidden`` rows, recomputes
each block's ``h`` (one product, far cheaper than the erf polynomial's
passes), forms ``gelu(h)`` and ``gelu'(h)`` from it and ``Phi(h)`` in block
buffers, and sums the weight gradients over the blocks in order, so it too
allocates no ``(rows, hidden)`` array. No block of either pass is shorter
than its pass's step unless the whole MLP is, because OpenBLAS multiplies a
few rows with another kernel whose rounding differs. At the presets'
geometries the blocked products then equal whole-array ones bit for bit; at
tiny ones (``seq_len`` 4, say) they may differ within rounding. Backward's
weight gradients are sums over its blocks, so they equal a one-block
backward's within rounding whenever an MLP spans more than one block.

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

# Hidden values per row block of _mlp (twice as many per block of _mlp_backward),
# the only readers: a forward block's GELU operands (about 1.3 MB in float32) stay
# in a 2 MB per-core L2 cache across the erf polynomial's passes.
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


def normal_cdf(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Standard normal CDF, ``0.5 * (1 + erf(x / sqrt 2))``, elementwise, into ``out``
    (an array of ``x``'s shape and any layout, float32 for float32 ``x``) if given.

    float32 input takes the rational erf (within 2.4e-7 of the float64 value) over the
    whole of ``x``, with three scratch arrays of its shape; :func:`_mlp` calls it on
    cache-sized row blocks. Any other dtype takes ``math.erf`` per element.
    """
    x = np.asarray(x)
    if out is None:
        out = np.empty(x.shape, dtype=np.float32 if x.dtype == np.float32 else np.float64)
    if x.dtype != np.float32:
        out[...] = 0.5 * (1.0 + _ERF64(x * _INV_SQRT2))
        return out
    z, z2, q = (np.empty(x.shape, dtype=np.float32) for _ in range(3))
    np.multiply(x, np.float32(_INV_SQRT2), out=z)
    np.minimum(z, _ERF_CLAMP, out=z)
    np.maximum(z, -_ERF_CLAMP, out=z)
    np.multiply(z, z, out=z2)
    np.multiply(z2, _ERF_P[0], out=out)
    out += _ERF_P[1]
    for c in _ERF_P[2:]:
        out *= z2
        out += c
    out *= z
    np.multiply(z2, _ERF_Q[0], out=q)
    q += _ERF_Q[1]
    for c in _ERF_Q[2:]:
        q *= z2
        q += c
    out /= q
    out += np.float32(1.0)
    out *= np.float32(0.5)
    return out


def gelu_grad(x: np.ndarray, cdf: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """d/dx GELU at ``x``, given the forward pass's ``cdf = Phi(x)``, into ``out`` (an
    array of ``x``'s shape and dtype, any layout) if given.

    One in-place body serves every dtype: its constants are Python floats, which take the
    arrays' dtype. :func:`_mlp_backward` calls it on each row block of an MLP's hidden
    values, with the block's recomputed ``h`` and the recorded ``Phi(h)``.
    """
    if out is None:
        out = np.empty(np.shape(x), dtype=np.result_type(x, cdf))
    np.multiply(x, -0.5, out=out)
    out *= x
    np.exp(out, out=out)
    out *= x
    out *= _INV_SQRT_2PI
    out += cdf
    return out


def _normalize_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zero-mean, unit-variance rows of ``x`` (one position's channels per row)."""
    xhat = x - x.mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(np.mean(xhat * xhat, axis=1, keepdims=True) + LN_EPS)
    xhat *= inv_std
    return xhat, inv_std


def _normalize_rows_backward(dy, xhat, inv_std, scale):
    """Gradients of ``xhat * scale + shift`` with respect to the rows, scale and shift.

    Two row-sized arrays: ``dx`` starts as ``dxhat = dy * scale`` and is made in place,
    and one scratch array ``t`` holds each product that is summed or subtracted."""
    t = dy * xhat
    dscale = t.sum(axis=0)
    dshift = dy.sum(axis=0)
    dx = dy * scale
    np.multiply(dx, xhat, out=t)
    c = t.sum(axis=1, keepdims=True) / xhat.shape[1]
    dx -= dx.mean(axis=1, keepdims=True)
    np.multiply(xhat, c, out=t)
    dx -= t
    dx *= inv_std
    return dx, dscale, dshift


@dataclass
class _LayerCache:
    """What one mixer layer's backward reads: each layer norm's ``xhat`` and ``inv_std``, and
    each MLP's ``Phi(h)`` from :func:`_mlp`'s row blocks. ``h`` is not kept: backward
    recomputes it block by block (one product), while ``Phi(h)`` would cost the erf
    polynomial's passes again.
    """

    xhat1: np.ndarray
    inv_std1: np.ndarray
    token_mlp: np.ndarray
    xhat2: np.ndarray
    inv_std2: np.ndarray
    channel_mlp: np.ndarray


@dataclass
class ActivationRecord:
    """Everything the backward pass needs, cached during forward.

    ``inputs`` is the dense input tensor, or for token input the pair
    ``(rows, inverse)``: the batch's distinct table rows and, per window
    slot, each position's index into them. ``computed_lens`` are the
    positions per example that the last layer computed: the valid lengths
    for token input, else ``seq_len``. ``out_rows`` are the last layer's
    output rows at those positions, in example order, and the last layer's
    ``xhat2``, ``inv_std2`` and ``channel_mlp`` hold the same rows.
    """

    inputs: np.ndarray | tuple[np.ndarray, np.ndarray]
    seq_len: int
    computed_lens: np.ndarray
    out_rows: np.ndarray
    layers: list[_LayerCache]
    alpha: np.ndarray | None = None
    pooled: np.ndarray | None = None

    @property
    def mixer_out(self) -> np.ndarray:
        """The last layer's ``(N, b, s)`` output, zero at positions it did not compute."""
        n, s = len(self.computed_lens), self.seq_len
        _, live = _live_positions(self.computed_lens, s)
        return _channels_first(_zero_padded(self.out_rows, live, n, s), n)


def _channels_first(stream: np.ndarray, n: int) -> np.ndarray:
    """The ``(N, b, s)`` view of a tokens-major ``(N*s, b)`` stream."""
    return stream.reshape(n, -1, stream.shape[1]).transpose(0, 2, 1)


def _token_mlp_input(xhat: np.ndarray, scale: np.ndarray, shift: np.ndarray, n: int):
    """``xhat * scale + shift`` written as the token MLP's ``(N*b, s)`` transposed copy."""
    t = np.empty((n, xhat.shape[1], xhat.shape[0] // n), dtype=xhat.dtype)
    np.multiply(_channels_first(xhat, n), scale[:, None], out=t)
    t += shift[:, None]
    return t.reshape(-1, t.shape[2])


def _live_positions(valid: np.ndarray, s: int):
    """The span (the longest valid length) and an index of the live positions (``t < valid``)
    of an ``(N, s, c)`` array: ``None`` when every position is live, else per-position index
    arrays."""
    if valid.min() == s:
        return s, None
    return int(valid.max()), np.nonzero(np.arange(valid.max()) < valid[:, None])


def _live_rows(a3: np.ndarray, live) -> np.ndarray:
    """The live positions of an ``(N, s', c)`` array as ``(L, c)`` rows, in example order."""
    return a3.reshape(-1, a3.shape[2]) if live is None else a3[live]


def _zero_padded(rows: np.ndarray, live, n: int, s: int) -> np.ndarray:
    """The tokens-major ``(N*s, c)`` array holding ``rows`` at the live positions, else zeros."""
    if live is None:
        return rows
    full = np.zeros((n, s, rows.shape[1]), dtype=rows.dtype)
    full[live] = rows
    return full.reshape(n * s, -1)


def _token_residual(x: np.ndarray, m1: np.ndarray, n: int, live) -> np.ndarray:
    """``x`` plus the token MLP's ``(N*b, width)`` output transposed back, at the live rows."""
    x3 = x.reshape(n, -1, x.shape[1])
    m3 = m1.reshape(n, x.shape[1], m1.shape[1]).transpose(0, 2, 1)
    if live is not None:
        return x3[live] + m3[live]
    u = np.empty_like(x)
    np.add(x3, m3, out=u.reshape(x3.shape))  # the transposition folded into the add
    return u


def _row_blocks(rows: int, step: int):
    """``(lo, hi)`` ranges of ``step`` rows, the last one also taking the remainder.

    No block is shorter than ``step`` unless all rows are: OpenBLAS multiplies a
    few rows with another kernel, whose rounding differs from the whole product's.
    """
    starts = range(0, max(rows - step, 0) + 1, step)
    return zip(starts, [*starts[1:], rows])


def _mlp(a: np.ndarray, params: ModelParams, prefix: str, width: int | None = None,
         keep: bool = True):
    """``gelu(a @ w1.T + b1) @ w2.T + b2`` on the rows of ``a``, its first ``width`` outputs
    (all by default), and with ``keep`` the ``Phi(h)`` that backward reads, else None.

    The rows run in blocks of about :data:`ERF_BLOCK` hidden values (see "Inference" in
    the module docstring): each block's first product, GELU and second product run
    while its hidden values are in cache. A block's ``h`` lives in a reused block buffer,
    and ``gelu(h)`` overwrites it there. ``Phi(h)`` goes into a second block buffer, or
    with ``keep`` into the kept array's block rows, so the only ``(rows, hidden)`` array
    is the kept one. Either way the same products run on the same blocks, so the output
    is the same bit for bit.
    """
    w1, b1 = params[f"{prefix}.w1"], params[f"{prefix}.b1"]
    w2, b2 = params[f"{prefix}.w2"][:width], params[f"{prefix}.b2"][:width]
    rows, hidden = len(a), len(w1)
    dtype = np.result_type(a, w1)
    step = max(ERF_BLOCK // hidden, 1)
    out = np.empty((rows, len(w2)), dtype=dtype)
    h_block = np.empty((min(rows, 2 * step - 1), hidden), dtype)
    cdf_all = np.empty((rows, hidden), dtype) if keep else None
    cdf_block = None if keep else np.empty_like(h_block)
    for lo, hi in _row_blocks(rows, step):
        h = h_block[: hi - lo]
        np.matmul(a[lo:hi], w1.T, out=h)
        h += b1
        cdf = normal_cdf(h, out=cdf_all[lo:hi] if keep else cdf_block[: hi - lo])
        np.matmul(np.multiply(h, cdf, out=h), w2.T, out=out[lo:hi])
    out += b2
    return out, cdf_all


def _mlp_backward(d, a, cdf, params: ModelParams, prefix: str, grads: ModelParams):
    """Store :func:`_mlp`'s weight gradients for the gradient ``d`` of its first
    ``d.shape[1]`` outputs, the rows of later outputs being zero; return ``a``'s.

    ``cdf`` is the forward's ``Phi(h)``, only read. The rows run in blocks of about
    ``2 * ERF_BLOCK`` hidden values: each block recomputes its ``h`` (one product), then
    ``gelu'(h)`` and ``gelu(h)`` from it and ``Phi(h)``, in two reused block buffers, so no
    ``(rows, hidden)`` array is allocated. The weight gradients sum the blocks' products
    in block order; ``a``'s gradient is written a block of rows at a time."""
    w1, b1 = params[f"{prefix}.w1"], params[f"{prefix}.b1"]
    w2 = params[f"{prefix}.w2"][: d.shape[1]]
    rows, hidden = len(a), len(w1)
    step = max(2 * ERF_BLOCK // hidden, 1)
    grads[f"{prefix}.w2"] = np.zeros_like(params[f"{prefix}.w2"], d.dtype)
    grads[f"{prefix}.b2"] = np.zeros_like(params[f"{prefix}.b2"], d.dtype)
    d.sum(axis=0, out=grads[f"{prefix}.b2"][: len(w2)])
    grads[f"{prefix}.w1"] = np.empty_like(w1, d.dtype)
    grads[f"{prefix}.b1"] = np.empty_like(b1, d.dtype)
    totals = (grads[f"{prefix}.w2"][: len(w2)], grads[f"{prefix}.w1"], grads[f"{prefix}.b1"])
    parts = tuple(np.empty_like(t) for t in totals)
    da = np.empty((rows, a.shape[1]), d.dtype)
    h_block = np.empty((min(rows, 2 * step - 1), hidden), d.dtype)
    gp_block = np.empty_like(h_block)
    for lo, hi in _row_blocks(rows, step):
        dw2, dw1, db1 = totals if lo == 0 else parts  # the first block writes the totals
        h = h_block[: hi - lo]
        np.matmul(a[lo:hi], w1.T, out=h)
        h += b1
        gp = gelu_grad(h, cdf[lo:hi], out=gp_block[: hi - lo])
        g = np.multiply(h, cdf[lo:hi], out=h)
        np.matmul(d[lo:hi].T, g, out=dw2)
        dh = np.matmul(d[lo:hi], w2, out=g)
        dh *= gp
        np.matmul(dh.T, a[lo:hi], out=dw1)
        dh.sum(axis=0, out=db1)
        np.matmul(dh, w1, out=da[lo:hi])
        if lo:
            for total, part in zip(totals, parts):
                total += part
    return da


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


def _mixer_layer(x: np.ndarray, params: ModelParams, prefix: str, n: int, live, width: int,
                 keep: bool) -> tuple[np.ndarray, _LayerCache | None]:
    """One mixer layer on the ``(N*s, b)`` stream ``x``: its output at the ``live`` rows
    (every row when ``None``) from token outputs up to ``width``, and with ``keep`` the
    :class:`_LayerCache` that backward reads, else None."""
    # token-mixing branch on the (N*b, s) transpose of ln1(x)
    xhat1, inv_std1 = _normalize_rows(x)
    t1 = _token_mlp_input(xhat1, params[f"{prefix}.norm1.scale"],
                          params[f"{prefix}.norm1.shift"], n)
    m1, token_saved = _mlp(t1, params, f"{prefix}.token_mlp", width, keep)
    u = _token_residual(x, m1, n, live)

    # channel-mixing branch: y = u + mlp(ln2(u)) on the rows of u
    xhat2, inv_std2 = _normalize_rows(u)
    n2 = xhat2 * params[f"{prefix}.norm2.scale"]
    n2 += params[f"{prefix}.norm2.shift"]
    y, channel_saved = _mlp(n2, params, f"{prefix}.channel_mlp", keep=keep)
    y += u
    if not keep:
        return y, None
    return y, _LayerCache(xhat1=xhat1, inv_std1=inv_std1, token_mlp=token_saved,
                          xhat2=xhat2, inv_std2=inv_std2, channel_mlp=channel_saved)


def forward_batch(
    inputs: np.ndarray | TokenWindows,
    valid_lens: np.ndarray,
    params: ModelParams,
    cfg: ModelConfig,
    record: bool = True,
) -> tuple[np.ndarray, ActivationRecord | None]:
    """Run the network on a dense (batch, input_rows, seq_len) tensor or on token windows.

    Position ``t`` of example ``n`` is live when ``t < valid_lens[n]``. For token windows
    the last layer and the head compute only the live positions, and token-head logits and
    the record's ``mixer_out`` are exactly 0 at padded ones (see "Padding" in the module
    docstring). Dense input, the reference form, computes every position. Live logits are
    the same for both forms.

    The second value is the :class:`ActivationRecord` that :func:`backward_batch` reads.
    With ``record=False`` it is None: no activation is kept, each layer's temporaries go
    when the layer ends, and the logits are the same bit for bit (see "Inference").
    """
    token_input = isinstance(inputs, TokenWindows)
    if token_input:
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
    valid = np.asarray(valid_lens)
    if cfg.head == "pooled" and np.any(valid < 1):
        raise ValueError("pooled head needs at least one valid position per example")
    computed = valid if token_input else np.full(len(valid), s)
    span, live = _live_positions(computed, s)
    layers: list[_LayerCache] = []
    for k in range(cfg.depth):
        # the last layer keeps only the live rows, after mixing in token outputs up to span
        last_live, width = (live, span) if k == cfg.depth - 1 else (None, s)
        x, cache = _mixer_layer(x, params, f"mixer.{k}", n, last_live, width, record)
        layers.append(cache)
    if cfg.depth == 0:
        x = _live_rows(x.reshape(n, s, b), live)

    alpha = pooled = None
    if cfg.head == "pooled":
        # rows not computed are 0, finite, so their weight 0 keeps the pooled sum exact
        x3 = _zero_padded(x, live, n, s).reshape(n, s, b)
        mask = np.arange(s)[None, :] < valid[:, None]
        scores = x3 @ params["head.query"]
        scores = np.where(mask, scores, -np.inf)
        scores -= scores.max(axis=1, keepdims=True)
        exps = np.where(mask, np.exp(scores), 0.0)
        alpha = exps / exps.sum(axis=1, keepdims=True)
        pooled = np.matmul(alpha[:, None, :], x3)[:, 0]
    # the linear head, on the computed rows (token head) or the pooled vectors
    logits = (x if pooled is None else pooled) @ params["head.weight"].T
    logits += params["head.bias"]
    if cfg.head == "token":
        logits = _channels_first(_zero_padded(logits, live, n, s), n)
    if not record:
        return logits, None
    return logits, ActivationRecord(inputs=saved, seq_len=s, computed_lens=computed,
                                    out_rows=x, layers=layers, alpha=alpha, pooled=pooled)


def backward_batch(
    record: ActivationRecord,
    upstream: np.ndarray,
    params: ModelParams,
    cfg: ModelConfig,
) -> tuple[ModelParams, np.ndarray | None]:
    """Exact gradients of all parameters, and of the input when it is a dense tensor.

    After a token-window forward, ``upstream`` at padded positions is not read: the logits
    there are constant. Token-window input has no input gradient: the second value is ``None``.
    """
    token_input = isinstance(record.inputs, tuple)
    grads: ModelParams = {}
    n, s, b = len(record.computed_lens), cfg.seq_len, cfg.bottleneck
    span, live = _live_positions(record.computed_lens, s)

    # the linear head, on the computed rows (token head) or the pooled vectors
    if cfg.head == "token":
        up, head_in = _live_rows(upstream.transpose(0, 2, 1), live), record.out_rows
    else:
        up, head_in = upstream, record.pooled
    grads["head.weight"] = up.T @ head_in
    grads["head.bias"] = up.sum(axis=0)
    dx = up @ params["head.weight"]
    if cfg.head == "pooled":
        o3 = record.mixer_out.transpose(0, 2, 1)  # the (N, s, b) stream
        alpha, dpooled = record.alpha, dx
        dalpha = np.matmul(o3, dpooled[:, :, None])[:, :, 0]
        dscores = alpha * (dalpha - (alpha * dalpha).sum(axis=1, keepdims=True))
        grads["head.query"] = dscores.reshape(-1) @ o3.reshape(n * s, b)
        dx3 = alpha[:, :, None] * dpooled[:, None, :]
        dx3 += dscores[:, :, None] * params["head.query"]
        dx = _live_rows(dx3, live)

    for k in reversed(range(cfg.depth)):
        prefix = f"mixer.{k}"
        cache = record.layers[k]
        last_live, width = (live, span) if k == cfg.depth - 1 else (None, s)

        # channel-mixing branch: y = u + mlp(ln2(u)) on the rows of u
        n2 = cache.xhat2 * params[f"{prefix}.norm2.scale"]
        n2 += params[f"{prefix}.norm2.shift"]
        dn2 = _mlp_backward(dx, n2, cache.channel_mlp, params, f"{prefix}.channel_mlp", grads)
        du, grads[f"{prefix}.norm2.scale"], grads[f"{prefix}.norm2.shift"] = (
            _normalize_rows_backward(dn2, cache.xhat2, cache.inv_std2,
                                     params[f"{prefix}.norm2.scale"])
        )
        du += dx
        du = _zero_padded(du, last_live, n, s)  # u's gradient on every row, 0 at padded ones

        # token-mixing branch: u = x + transpose(mlp(t1)), t1 = ln1(x) transposed to (N*b, s)
        dm1 = _channels_first(du, n)[:, :, :width].reshape(n * b, width)
        t1 = _token_mlp_input(cache.xhat1, params[f"{prefix}.norm1.scale"],
                              params[f"{prefix}.norm1.shift"], n)
        dt1 = _mlp_backward(dm1, t1, cache.token_mlp, params, f"{prefix}.token_mlp", grads)
        dt1 = dt1.reshape(n, b, s).transpose(0, 2, 1).reshape(n * s, b)
        dx, grads[f"{prefix}.norm1.scale"], grads[f"{prefix}.norm1.shift"] = (
            _normalize_rows_backward(dt1, cache.xhat1, cache.inv_std1,
                                     params[f"{prefix}.norm1.scale"])
        )
        dx += du
    if cfg.depth == 0:
        dx = _zero_padded(dx, live, n, s)

    grads["bottleneck.bias"] = dx.sum(axis=0)
    if token_input:
        grads["bottleneck.weight"] = _token_bottleneck_weight_grad(dx, *record.inputs)
        return grads, None
    flat_inputs = record.inputs.transpose(0, 2, 1).reshape(n * s, cfg.input_rows)
    grads["bottleneck.weight"] = dx.T @ flat_inputs
    return grads, params["bottleneck.weight"].T @ _channels_first(dx, n)
