"""Vocabulary loading and greedy longest-match subword tokenization.

The vocabulary file format is the de-facto published one: UTF-8, one unit per
line, line number = unit id. Continuation units carry a leading ``##``.
Swapping the file swaps the tokenizer; nothing else changes.
"""

from __future__ import annotations

import hashlib
import unicodedata
from dataclasses import dataclass, field
from functools import cached_property

from .errors import DataError
from .files import read_text, replacing

CONTINUATION_PREFIX = "##"
DEFAULT_UNK = "[UNK]"


@dataclass(frozen=True)
class Vocabulary:
    """Ordered subword units with a reverse index; ``path`` (``None`` in memory) is for messages."""

    units: tuple[str, ...]
    index: dict[str, int]
    digest: bytes  # SHA-256 of the units joined by "\n" in UTF-8: the identity a cache records
    path: str | None = field(default=None, compare=False)

    def __len__(self) -> int:
        return len(self.units)

    @cached_property
    def longest(self) -> int:
        """Length of the longest unit, ``##`` prefix included: computed on first use."""
        return max(map(len, self.units))

    @classmethod
    def from_units(cls, units: list[str]) -> "Vocabulary":
        """Check, index and digest ``units``; an error names the first bad line."""
        joined = "\n".join(units)
        if joined.count("\n") > len(units) - 1:  # the join could not be split back
            raise DataError("a vocabulary unit holds a line feed, so the vocabulary has no digest")
        return _indexed(units, joined, None)


def _indexed(units: list[str], joined: str, path: str | None) -> Vocabulary:
    """Check and index ``units``, whose join by ``\n`` is ``joined``, and hash their digest.

    The index is built in one pass; the per-unit loop runs only when a
    check fails, to find the line to report.
    """
    index = dict(zip(units, range(len(units))))
    if len(index) == len(units) and "" not in index and DEFAULT_UNK in index:
        digest = hashlib.sha256(joined.encode("utf-8")).digest()
        return Vocabulary(units=tuple(units), index=index, digest=digest, path=path)
    where = f"vocabulary {path}" if path else "vocabulary"
    seen: set[str] = set()
    for lineno, unit in enumerate(units, start=1):
        if not unit:
            raise DataError(f"{where} line {lineno}: empty unit")
        if unit in seen:
            raise DataError(f"{where} line {lineno}: duplicate unit {unit!r}")
        seen.add(unit)
    raise DataError(f"{where} is missing the unknown token {DEFAULT_UNK!r}")


def load_vocab(path: str) -> Vocabulary:
    """Load a vocabulary file, one unit per line (split on ``\n`` only), preserving order.

    The digest is hashed from the text read: without its final line feed it
    is the units' join, so the units are not joined again.
    """
    text = read_text(path, "vocabulary file")
    joined = text.removesuffix("\n")  # the final line feed ends a line, not a unit
    return _indexed(joined.split("\n") if text else [], joined, path)


def save_vocab(units: list[str], path: str) -> None:
    with replacing(path) as fh:
        fh.write(("\n".join(units) + "\n").encode("utf-8"))


def _is_punctuation(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def pre_tokenize(text: str) -> list[str]:
    """Split on Unicode whitespace, then isolate punctuation characters."""
    tokens: list[str] = []
    for chunk in text.split():
        buf = ""
        for ch in chunk:
            if _is_punctuation(ch):
                if buf:
                    tokens.append(buf)
                    buf = ""
                tokens.append(ch)
            else:
                buf += ch
        if buf:
            tokens.append(buf)
    return tokens


def tokenize_word(word: str, vocab: Vocabulary) -> list[int]:
    """Vocabulary rows of the greedy longest-match-first WordPiece split of one word.

    After the first piece, candidates are looked up with the ``##`` prefix.
    If at any step no vocabulary unit matches, the whole word maps to the
    unknown token's row. No unit is longer than ``Vocabulary.longest``, so
    each piece's search starts at the longest candidate of that length
    (``##`` counted), not at the word's end: a long word costs lookups
    linear in its length, not quadratic.
    """
    if not word:
        raise ValueError("cannot tokenize an empty word")
    rows: list[int] = []
    start = 0
    while start < len(word):
        prefix = CONTINUATION_PREFIX if start > 0 else ""
        end = min(len(word), start + vocab.longest - len(prefix))
        while (row := vocab.index.get(prefix + word[start:end])) is None:
            end -= 1
            if end == start:
                return [vocab.index[DEFAULT_UNK]]
        rows.append(row)
        start = end
    return rows
