"""Symmetric per-tensor 8-bit weight quantization.

Quantization maps a float tensor onto the grid ``k * scale`` for integer
``k in [-127, 127]`` with ``scale = max|w| / 127``, rounding half away from
zero so every implementation lands on identical integers. A float32 input
(a loaded float model file) is widened to float64 exactly, so it quantizes
as its float64 copy does.

Evaluation is "fake quant": the model loader dequantizes int8 tensors to
float64, where ``values * scale`` is exact, and inference casts them to
float32 like any other model's weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mixer import ModelParams


@dataclass(frozen=True)
class QuantTensor:
    values: np.ndarray
    scale: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"quantization scale must be finite and positive, got {self.scale}")
        if self.values.dtype != np.int8:
            raise ValueError("quantized values must be int8")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape


def _round_half_away(x: np.ndarray) -> np.ndarray:
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


def quantize_tensor(w: np.ndarray) -> QuantTensor:
    """Quantize one tensor; an all-zero tensor gets scale 1.0 by convention.

    So does a tensor whose scale would underflow to 0 as the float32 the
    model container stores.
    """
    w = np.asarray(w, dtype=np.float64)
    if not np.all(np.isfinite(w)):
        raise ValueError("cannot quantize a tensor with non-finite values")
    peak = float(np.abs(w).max()) if w.size else 0.0
    scale = peak / 127.0
    if np.float32(scale) == 0.0:
        return QuantTensor(values=np.zeros(w.shape, dtype=np.int8), scale=1.0)
    values = np.clip(_round_half_away(w / scale), -127, 127).astype(np.int8)
    return QuantTensor(values=values, scale=scale)


def dequantize(q: QuantTensor) -> np.ndarray:
    return q.values.astype(np.float64) * q.scale


def quantize_params(params: ModelParams) -> dict[str, QuantTensor]:
    return {name: quantize_tensor(p) for name, p in params.items()}
