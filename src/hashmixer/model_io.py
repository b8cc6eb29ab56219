"""Binary containers for trained models and dumped feature matrices.

Model container (little endian throughout):

    magic "PNLPMODL" | version u32
    input_rows u32 | seq_len u32 | bottleneck u32 | hidden u32 | depth u32
    head u8 (0 = token, 1 = pooled) | num_labels u32
    tensor_count u32
    per tensor: name_len u16 | name utf-8 | type u8 | rank u8 | dims u32[rank]
                type 0: float32 data
                type 1: scale float32 | int8 data

Feature dump:

    magic "PNLPFEAT" | version u32 | count u64 | rows u32 | cols u32
    per example: valid_len u32 | float32 data (rows x cols, row major)

Readers reject a file with bytes after its last record.
"""

from __future__ import annotations

import os
import struct
from collections.abc import Iterable

import numpy as np

from .errors import ModelFileError
from .mixer import ModelConfig, ModelParams, param_shapes
from .projection import FeatureMatrix
from .quantize import QuantTensor, dequantize

MODEL_MAGIC = b"PNLPMODL"
FEATURES_MAGIC = b"PNLPFEAT"
CONTAINER_VERSION = 1

TENSOR_FLOAT32 = 0
TENSOR_INT8 = 1

_HEAD_CODES = {"token": 0, "pooled": 1}
_HEAD_NAMES = {v: k for k, v in _HEAD_CODES.items()}


def _pack_header(cfg: ModelConfig, tensor_count: int) -> bytes:
    return MODEL_MAGIC + struct.pack(
        "<IIIIIIBII",
        CONTAINER_VERSION,
        cfg.input_rows,
        cfg.seq_len,
        cfg.bottleneck,
        cfg.hidden,
        cfg.depth,
        _HEAD_CODES[cfg.head],
        cfg.num_labels,
        tensor_count,
    )


def save_model(path: str, params: ModelParams, cfg: ModelConfig) -> None:
    """Write float32 tensors in the canonical parameter order."""
    with open(path, "wb") as fh:
        fh.write(_pack_header(cfg, len(params)))
        for name, tensor in params.items():
            _write_tensor_header(fh, name, TENSOR_FLOAT32, tensor.shape)
            fh.write(np.ascontiguousarray(tensor, dtype="<f4").tobytes())


def save_quantized_model(path: str, qparams: dict[str, QuantTensor], cfg: ModelConfig) -> None:
    with open(path, "wb") as fh:
        fh.write(_pack_header(cfg, len(qparams)))
        for name, q in qparams.items():
            _write_tensor_header(fh, name, TENSOR_INT8, q.shape)
            fh.write(struct.pack("<f", q.scale))
            fh.write(q.values.tobytes())


def _write_tensor_header(fh, name: str, type_tag: int, shape: tuple[int, ...]) -> None:
    encoded = name.encode("utf-8")
    fh.write(struct.pack("<H", len(encoded)))
    fh.write(encoded)
    fh.write(struct.pack("<BB", type_tag, len(shape)))
    fh.write(struct.pack(f"<{len(shape)}I", *shape))


class _Reader:
    def __init__(self, blob: bytes, path: str) -> None:
        self.blob = blob
        self.path = path
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise ModelFileError(f"{self.path}: truncated file")
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def finish(self) -> None:
        extra = len(self.blob) - self.pos
        if extra:
            raise ModelFileError(f"{self.path}: {extra} trailing bytes after the last record")


def load_model(path: str) -> tuple[ModelParams, ModelConfig, bool]:
    """Read a model container; quantized tensors come back dequantized.

    Returns ``(params, config, was_quantized)``. Parameters are float64,
    ready for the forward pass (fake quantization for int8 containers). A
    float32 tensor holding NaN or infinity is a :class:`ModelFileError`.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ModelFileError(f"cannot read model file {path}: {exc}") from exc
    reader = _Reader(blob, path)
    if reader.take(len(MODEL_MAGIC)) != MODEL_MAGIC:
        raise ModelFileError(f"{path} is not a model container")
    (version, input_rows, seq_len, bottleneck, hidden, depth,
     head_code, num_labels, tensor_count) = reader.unpack("<IIIIIIBII")
    if version != CONTAINER_VERSION:
        raise ModelFileError(f"{path}: unsupported container version {version}")
    if head_code not in _HEAD_NAMES:
        raise ModelFileError(f"{path}: unknown head code {head_code}")
    cfg = ModelConfig(
        input_rows=input_rows,
        seq_len=seq_len,
        bottleneck=bottleneck,
        hidden=hidden,
        depth=depth,
        head=_HEAD_NAMES[head_code],
        num_labels=num_labels,
    )

    params: ModelParams = {}
    any_quantized = False
    for _ in range(tensor_count):
        (name_len,) = reader.unpack("<H")
        try:
            name = reader.take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ModelFileError(f"{path}: tensor name is not valid UTF-8: {exc}") from exc
        type_tag, rank = reader.unpack("<BB")
        shape = tuple(reader.unpack(f"<{rank}I")) if rank else ()
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        if type_tag == TENSOR_FLOAT32:
            data = np.frombuffer(reader.take(4 * count), dtype="<f4")
            if not np.isfinite(data).all():
                raise ModelFileError(f"{path}: tensor {name} holds NaN or infinite values")
            params[name] = data.astype(np.float64).reshape(shape)
        elif type_tag == TENSOR_INT8:
            any_quantized = True
            (scale,) = reader.unpack("<f")
            values = np.frombuffer(reader.take(count), dtype=np.int8).reshape(shape)
            try:
                q = QuantTensor(values=values, scale=scale, shape=shape)
            except ValueError as exc:
                raise ModelFileError(f"{path}: tensor {name}: {exc}") from exc
            params[name] = dequantize(q)
        else:
            raise ModelFileError(f"{path}: unknown tensor type tag {type_tag}")
    reader.finish()

    expected = param_shapes(cfg)
    missing = sorted(set(expected) - set(params))
    if missing:
        raise ModelFileError(f"{path}: missing tensors {missing}")
    for name, shape in expected.items():
        if params[name].shape != shape:
            raise ModelFileError(
                f"{path}: tensor {name} has shape {params[name].shape}, expected {shape}"
            )
    return params, cfg, any_quantized


def save_features(
    path: str, matrices: Iterable[FeatureMatrix], count: int | None = None
) -> None:
    """Dump projected matrices so several models can reuse one extraction.

    ``matrices`` may be a generator when ``count`` gives its length up
    front: each matrix is written as it arrives, so a dump never has to fit
    in memory. A dump whose matrices disagree in shape or number with its
    header is deleted.
    """
    if count is None:
        count = len(matrices)
    shape = None
    written = 0
    with open(path, "wb") as fh:
        try:
            for m in matrices:
                if shape is None:
                    shape = m.data.shape
                    fh.write(FEATURES_MAGIC + struct.pack("<IQII", CONTAINER_VERSION, count, *shape))
                elif m.data.shape != shape:
                    raise ValueError("all feature matrices in one dump must share a shape")
                fh.write(struct.pack("<I", m.valid_len))
                fh.write(np.ascontiguousarray(m.data, dtype="<f4").tobytes())
                written += 1
                # hold no matrix while the generator builds its next one, which
                # may be a view of a batch it can then free
                del m
            if shape is None:
                fh.write(FEATURES_MAGIC + struct.pack("<IQII", CONTAINER_VERSION, count, 0, 0))
            if written != count:
                raise ValueError(f"{path}: wrote {written} feature matrices, header says {count}")
        except ValueError:
            fh.close()
            os.remove(path)
            raise


def load_features(path: str) -> list[FeatureMatrix]:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ModelFileError(f"cannot read feature file {path}: {exc}") from exc
    reader = _Reader(blob, path)
    if reader.take(len(FEATURES_MAGIC)) != FEATURES_MAGIC:
        raise ModelFileError(f"{path} is not a feature dump")
    version, count, rows, cols = reader.unpack("<IQII")
    if version != CONTAINER_VERSION:
        raise ModelFileError(f"{path}: unsupported feature dump version {version}")
    out = []
    for _ in range(count):
        (valid_len,) = reader.unpack("<I")
        data = np.frombuffer(reader.take(4 * rows * cols), dtype="<f4")
        out.append(FeatureMatrix(data=data.astype(np.float64).reshape(rows, cols),
                                 valid_len=valid_len))
    reader.finish()
    return out
