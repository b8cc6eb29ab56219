"""Input file readers; a file that cannot be read, decoded or parsed is a DataError naming it."""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .errors import DataError, ModelFileError


def read_text(path: str, what: str) -> str:
    """The whole UTF-8 file, with universal newlines (``\\r\\n`` and ``\\r`` read as ``\\n``)."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc


def read_json(path: str, what: str):
    """The file's text parsed as one JSON document."""
    try:
        return json.loads(read_text(path, what))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from exc


class ContainerReader:
    """Sequential reads over a binary container that starts with ``magic``.

    Each read is a view of the file's bytes, not a copy. A read past the end,
    and bytes left over at :meth:`finish`, are :class:`ModelFileError`.
    """

    def __init__(self, path: str, magic: bytes, what: str) -> None:
        try:
            with open(path, "rb") as fh:
                self.blob = memoryview(fh.read())
        except OSError as exc:
            raise ModelFileError(f"cannot read {what} {path}: {exc}") from exc
        self.path = path
        if self.blob[: len(magic)] != magic:
            raise ModelFileError(f"{path} is not a {what}")
        self.pos = len(magic)

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.blob):
            raise ModelFileError(f"{self.path}: truncated file")
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, dtype, shape: tuple[int, ...]) -> np.ndarray:
        """The next ``shape`` items of ``dtype`` as a read-only view of the file."""
        dtype = np.dtype(dtype)
        count = math.prod(shape)  # a Python int: a corrupt shape cannot wrap to a small count
        data = np.frombuffer(self.take(dtype.itemsize * count), dtype=dtype)
        try:
            return data.reshape(shape)
        except ValueError as exc:  # more dimensions, or a zero-size shape, than numpy can hold
            raise ModelFileError(f"{self.path}: invalid array shape {shape}: {exc}") from exc

    def finish(self) -> None:
        extra = len(self.blob) - self.pos
        if extra:
            raise ModelFileError(f"{self.path}: {extra} trailing bytes after the last record")
