"""Vocabulary loading and greedy longest-match subword tokenization.

The vocabulary file format is the de-facto published one: UTF-8, one unit per
line, line number = unit id. Continuation units carry a leading ``##``.
Swapping the file swaps the tokenizer; nothing else changes.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass

from .errors import DataError
from .files import read_text

CONTINUATION_PREFIX = "##"
DEFAULT_UNK = "[UNK]"


@dataclass(frozen=True)
class SubwordUnit:
    text: str
    is_continuation: bool

    def __post_init__(self) -> None:
        if not self.text:
            raise ValueError("subword unit text must be non-empty")


@dataclass(frozen=True)
class Vocabulary:
    """Ordered subword units with a reverse index."""

    units: tuple[str, ...]
    index: dict[str, int]

    def __len__(self) -> int:
        return len(self.units)

    def __contains__(self, unit: str) -> bool:
        return unit in self.index

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


def tokenize_word(word: str, vocab: Vocabulary) -> list[SubwordUnit]:
    """Greedy longest-match-first WordPiece split of one word.

    After the first piece, candidates are looked up with the ``##`` prefix.
    If at any step no vocabulary unit matches, the whole word maps to the
    unknown token.
    """
    if not word:
        raise ValueError("cannot tokenize an empty word")
    units: list[SubwordUnit] = []
    start = 0
    while start < len(word):
        end = len(word)
        piece = None
        while start < end:
            candidate = word[start:end]
            if start > 0:
                candidate = CONTINUATION_PREFIX + candidate
            if candidate in vocab.index:
                piece = candidate
                break
            end -= 1
        if piece is None:
            return [SubwordUnit(DEFAULT_UNK, is_continuation=False)]
        units.append(SubwordUnit(piece, is_continuation=start > 0))
        start = end
    return units
