"""Vocabulary loading and greedy longest-match subword tokenization.

The vocabulary file format is the de-facto published one: UTF-8, one unit per
line, line number = unit id. Continuation units carry a leading ``##``.
Swapping the file swaps the tokenizer; nothing else changes.
"""

from __future__ import annotations

import hashlib
import unicodedata
from dataclasses import dataclass
from functools import cached_property

from .errors import DataError
from .files import read_text

CONTINUATION_PREFIX = "##"
DEFAULT_UNK = "[UNK]"


@dataclass(frozen=True)
class Vocabulary:
    """Ordered subword units with a reverse index."""

    units: tuple[str, ...]
    index: dict[str, int]

    def __len__(self) -> int:
        return len(self.units)

    def __contains__(self, unit: str) -> bool:
        return unit in self.index

    @cached_property
    def digest(self) -> bytes:
        """SHA-256 of the units joined by ``\n`` in UTF-8: the identity a cache records."""
        return hashlib.sha256("\n".join(self.units).encode("utf-8")).digest()

    @classmethod
    def from_units(cls, units: list[str]) -> "Vocabulary":
        index: dict[str, int] = {}
        for lineno, unit in enumerate(units, start=1):
            if not unit:
                raise DataError(f"vocabulary line {lineno}: empty unit")
            if unit in index:
                raise DataError(f"vocabulary line {lineno}: duplicate unit {unit!r}")
            index[unit] = lineno - 1
        if DEFAULT_UNK not in index:
            raise DataError(f"vocabulary is missing the unknown token {DEFAULT_UNK!r}")
        return cls(units=tuple(units), index=index)


def load_vocab(path: str) -> Vocabulary:
    """Load a newline-separated vocabulary file, preserving order."""
    return Vocabulary.from_units(read_text(path, "vocabulary file").splitlines())


def save_vocab(units: list[str], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(units) + "\n")


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
    unknown token's row.
    """
    if not word:
        raise ValueError("cannot tokenize an empty word")
    rows: list[int] = []
    start = 0
    while start < len(word):
        prefix = CONTINUATION_PREFIX if start > 0 else ""
        end = len(word)
        while (row := vocab.index.get(prefix + word[start:end])) is None:
            end -= 1
            if end == start:
                return [vocab.index[DEFAULT_UNK]]
        rows.append(row)
        start = end
    return rows
