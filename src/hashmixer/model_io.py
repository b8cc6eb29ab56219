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

Writers fill a temporary file beside the target and rename it over the
target only once it is complete (:func:`files.replacing`), so a reader never
sees a partial file and a process holding the old one keeps it. Readers map
the file and reject one with bytes after its last record.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable

import numpy as np

from .errors import ModelFileError
from .files import ContainerReader, replacing
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
_TENSORS_PER_LAYER = 12  # each mixer layer's entries in mixer.param_shapes


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
    with replacing(path) as fh:
        fh.write(_pack_header(cfg, len(params)))
        for name, tensor in params.items():
            _write_tensor_header(fh, name, TENSOR_FLOAT32, tensor.shape)
            fh.write(np.ascontiguousarray(tensor, dtype="<f4"))


def save_quantized_model(path: str, qparams: dict[str, QuantTensor], cfg: ModelConfig) -> None:
    with replacing(path) as fh:
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


def load_model(path: str) -> tuple[ModelParams, ModelConfig, bool]:
    """Read a model container; quantized tensors come back dequantized.

    Returns ``(params, config, was_quantized)``, each parameter a writeable,
    aligned array of its own, copied out of the mapped file. A container of
    float32 tensors loads as float32, exactly as stored. A container with
    any int8 tensor loads as float64, where ``values * scale`` (up to 31
    significant bits) is exact and so compares exactly with the float
    weights it was quantized from; inference casts it to float32. A float32
    tensor holding NaN or infinity is a :class:`ModelFileError`.
    """
    reader = ContainerReader(path, MODEL_MAGIC, "model container")
    (version, input_rows, seq_len, bottleneck, hidden, depth,
     head_code, num_labels, tensor_count) = reader.unpack("<IIIIIIBII")
    if version != CONTAINER_VERSION:
        raise ModelFileError(f"{path}: unsupported container version {version}")
    if head_code not in _HEAD_NAMES:
        raise ModelFileError(f"{path}: unknown head code {head_code}")
    # param_shapes runs after the tensors are read: bound its work by their count
    if depth * _TENSORS_PER_LAYER > tensor_count:
        raise ModelFileError(f"{path}: depth {depth} needs {depth * _TENSORS_PER_LAYER} "
                             f"tensors, the file has {tensor_count}")
    try:
        cfg = ModelConfig(input_rows=input_rows, seq_len=seq_len, bottleneck=bottleneck,
                          hidden=hidden, depth=depth, head=_HEAD_NAMES[head_code],
                          num_labels=num_labels)
    except ValueError as exc:
        raise ModelFileError(f"{path}: {exc}") from exc

    params: ModelParams = {}
    any_quantized = False
    for _ in range(tensor_count):
        (name_len,) = reader.unpack("<H")
        try:
            name = str(reader.take(name_len), "utf-8")
        except UnicodeDecodeError as exc:
            raise ModelFileError(f"{path}: tensor name is not valid UTF-8: {exc}") from exc
        if name in params:
            raise ModelFileError(f"{path}: tensor {name} appears more than once")
        type_tag, rank = reader.unpack("<BB")
        shape = reader.unpack(f"<{rank}I")
        if type_tag == TENSOR_FLOAT32:
            data = reader.array("<f4", shape)
            if not np.isfinite(data).all():
                raise ModelFileError(f"{path}: tensor {name} holds NaN or infinite values")
            params[name] = data.astype(np.float32)
        elif type_tag == TENSOR_INT8:
            any_quantized = True
            (scale,) = reader.unpack("<f")
            values = reader.array(np.int8, shape)
            try:
                q = QuantTensor(values=values, scale=scale)
            except ValueError as exc:
                raise ModelFileError(f"{path}: tensor {name}: {exc}") from exc
            params[name] = dequantize(q)
        else:
            raise ModelFileError(f"{path}: unknown tensor type tag {type_tag}")
    reader.finish()
    if any_quantized:
        params = {name: p.astype(np.float64, copy=False) for name, p in params.items()}

    expected = param_shapes(cfg)
    missing = sorted(set(expected) - set(params))
    if missing:
        raise ModelFileError(f"{path}: missing tensors {missing}")
    unknown = sorted(set(params) - set(expected))
    if unknown:
        raise ModelFileError(f"{path}: tensors {unknown} are not parameters of this model")
    for name, shape in expected.items():
        if params[name].shape != shape:
            raise ModelFileError(
                f"{path}: tensor {name} has shape {params[name].shape}, expected {shape}"
            )
    return params, cfg, any_quantized


def save_features(path: str, matrices: Iterable[FeatureMatrix]) -> None:
    """Dump projected matrices so several models can reuse one extraction.

    ``matrices`` may be a generator: each matrix is written as it arrives,
    so a dump never has to fit in memory. The count and shape go into the
    header when the stream ends. A stream that fails, or whose matrices
    disagree in shape, leaves ``path`` as it was.
    """
    shape, count = None, 0
    with replacing(path) as fh:
        fh.write(FEATURES_MAGIC + struct.pack("<IQII", CONTAINER_VERSION, 0, 0, 0))
        for m in matrices:
            if shape is None:
                shape = m.data.shape
            elif m.data.shape != shape:
                raise ValueError("all feature matrices in one dump must share a shape")
            fh.write(struct.pack("<I", m.valid_len))
            fh.write(np.ascontiguousarray(m.data, dtype="<f4"))
            count += 1
            # hold no matrix while the generator builds its next one, which
            # may be a view of a batch it can then free
            del m
        fh.seek(len(FEATURES_MAGIC))
        fh.write(struct.pack("<IQII", CONTAINER_VERSION, count, *(shape or (0, 0))))


def load_features(path: str) -> list[FeatureMatrix]:
    """Read a feature dump; each matrix is a read-only float32 view of the mapped file."""
    reader = ContainerReader(path, FEATURES_MAGIC, "feature dump")
    version, count, rows, cols = reader.unpack("<IQII")
    if version != CONTAINER_VERSION:
        raise ModelFileError(f"{path}: unsupported feature dump version {version}")
    out = []
    for _ in range(count):
        (valid_len,) = reader.unpack("<I")
        if valid_len > cols:
            raise ModelFileError(f"{path}: valid length {valid_len} exceeds {cols} columns")
        data = reader.array("<f4", (rows, cols))
        out.append(FeatureMatrix(data=data, valid_len=valid_len))
    reader.finish()
    return out
