"""Input file readers and the atomic file writer.

A file that cannot be read, decoded or parsed is a DataError naming it.
"""

from __future__ import annotations

import contextlib
import errno
import json
import math
import mmap
import os
import stat
import struct

import numpy as np

from .errors import DataError, ModelFileError

TEMP_SUFFIX = ".hashmixer-tmp"


def read_text(path: str, what: str) -> str:
    """The whole UTF-8 file, with universal newlines (``\\r\\n`` and ``\\r`` read as ``\\n``)."""
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")  # an error's position is the file's
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def read_json(path: str, what: str):
    """The file's text parsed as one JSON document; the non-JSON ``NaN``/``Infinity`` fail."""

    def refuse(literal: str):
        raise DataError(f"{path}: invalid JSON: {literal} is not a JSON value")

    try:
        return json.loads(read_text(path, what), parse_constant=refuse)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from exc


def regular_file_mode(path: str) -> int | None:
    """The mode of the regular file at ``path`` (through links), or ``None`` if there is none.

    An existing ``path`` that is not a regular file is refused: a directory
    with :class:`IsADirectoryError`, anything else (a FIFO, a device) with
    :class:`DataError`. So a writer that checks first neither blocks on a
    FIFO nor replaces a device's node.
    """
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    if stat.S_ISDIR(mode):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not stat.S_ISREG(mode):
        raise DataError(f"{path} is not a regular file; refusing to replace it")
    return mode


@contextlib.contextmanager
def replacing(path: str):
    """A new binary file that replaces ``path`` when the block completes.

    The data goes to a temporary file beside ``path`` (named
    ``.<name>.<random><TEMP_SUFFIX>``), renamed over ``path`` only on
    success, with the permission bits of the file it replaces. An existing
    ``path`` that is not a regular file (a directory, a FIFO, a device) is
    refused before anything is written (:func:`regular_file_mode`). On any
    exception the temporary file is removed and an existing ``path`` is left
    untouched, so a process that maps the old file keeps reading the old
    bytes.
    """
    target = os.path.realpath(path)  # through a symbolic link, as open(path, "wb") writes
    mode = regular_file_mode(path)  # None: a new file keeps open()'s mode
    directory, name = os.path.split(target)
    tmp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}{TEMP_SUFFIX}")
    try:
        fh = open(tmp, "xb")
    except OSError as exc:  # named after the caller's file, not the temporary one
        raise OSError(exc.errno, exc.strerror, path) from exc
    try:
        with fh:
            yield fh
        try:
            if mode is not None:
                os.chmod(tmp, stat.S_IMODE(mode))
            os.replace(tmp, target)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from exc
    except BaseException:
        with contextlib.suppress(OSError):  # the first error is the one to report
            os.remove(tmp)
        raise


class ContainerReader:
    """Sequential reads over a binary container that starts with ``magic``.

    The file is mapped read-only, and each read is a view of the mapping,
    not a copy: only the pages a caller touches are read from disk. A file
    that cannot be mapped (an empty file, a pipe) is read into memory
    instead. A read past the end, and bytes left over at :meth:`finish`, are
    :class:`ModelFileError`.
    """

    def __init__(self, path: str, magic: bytes, what: str) -> None:
        try:
            with open(path, "rb") as fh:
                try:
                    self.blob = memoryview(mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ))
                except (ValueError, OSError):
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
