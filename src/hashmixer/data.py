"""Dataset normalization, benchmark importers, and a synthetic tagging task.

Normalized storage is JSON lines, one object per example:

    {"tokens": ["wake", "me"], "slots": ["O", "O"]}          # tagging
    {"tokens": ["book", "a", "flight"], "label": "flight"}   # classification

Importers for the two benchmark TSV layouts take a user-supplied field map
(column indices and parsing hints) instead of hardcoded schemas, because the
raw distributions vary by release. The synthetic generator provides a fully
self-contained task whose context-dependent labels require mixing information
across positions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .vocab import DEFAULT_UNK


@dataclass(frozen=True)
class Example:
    tokens: list[str]
    slot_labels: list[str] | None = None
    class_label: str | None = None

    def __post_init__(self) -> None:
        if self.slot_labels is None and self.class_label is None:
            raise ValueError("example needs slot labels, a class label, or both")
        if self.slot_labels is not None and len(self.slot_labels) != len(self.tokens):
            raise ValueError(
                f"{len(self.slot_labels)} slot labels for {len(self.tokens)} tokens"
            )


@dataclass(frozen=True)
class LabelInventory:
    """Ordered label strings fixed from the training split."""

    labels: tuple[str, ...]
    index: dict[str, int]

    @classmethod
    def from_examples(cls, examples: list[Example], field: str) -> "LabelInventory":
        seen: dict[str, int] = {}
        for i, ex in enumerate(examples):
            if field == "slots":
                if ex.slot_labels is None:
                    raise DataError(f"example {i} has no slot labels")
                values = ex.slot_labels
            elif field == "label":
                if ex.class_label is None:
                    raise DataError(f"example {i} has no class label")
                values = [ex.class_label]
            else:
                raise ValueError(f"unknown label field {field!r}")
            for lab in values:
                seen.setdefault(lab, len(seen))
        labels = tuple(sorted(seen, key=seen.get))
        return cls(labels=labels, index={lab: i for i, lab in enumerate(labels)})


def load_jsonl(path: str) -> list[Example]:
    """Read normalized examples, reporting the line number on any defect."""
    examples: list[Example] = []
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read dataset {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if not isinstance(obj, dict) or "tokens" not in obj:
                raise DataError(f"{path}:{lineno}: expected an object with a 'tokens' key")
            tokens = obj["tokens"]
            if not (isinstance(tokens, list) and tokens
                    and all(isinstance(t, str) and t for t in tokens)):
                raise DataError(
                    f"{path}:{lineno}: 'tokens' must be a non-empty list of non-empty strings"
                )
            try:
                examples.append(
                    Example(
                        tokens=tokens,
                        slot_labels=obj.get("slots"),
                        class_label=obj.get("label"),
                    )
                )
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
    return examples


def save_jsonl(examples: list[Example], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            obj: dict = {"tokens": ex.tokens}
            if ex.slot_labels is not None:
                obj["slots"] = ex.slot_labels
            if ex.class_label is not None:
                obj["label"] = ex.class_label
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")


def _parse_cell(cell: str) -> list[str]:
    """A column holding either a JSON array of strings or whitespace-joined items."""
    cell = cell.strip()
    if cell.startswith("["):
        parsed = json.loads(cell)
        if not isinstance(parsed, list):
            raise ValueError("expected a JSON array")
        return [str(x) for x in parsed]
    return cell.split()


def _read_rows(raw_path: str, field_map: dict):
    delimiter = field_map.get("delimiter", "\t")
    skip_header = bool(field_map.get("skip_header", False))
    try:
        fh = open(raw_path, encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read raw file {raw_path}: {exc}") from exc
    with fh:
        for rowno, line in enumerate(fh, start=1):
            if skip_header and rowno == 1:
                continue
            line = line.rstrip("\n")
            if not line:
                continue
            yield rowno, line.split(delimiter)


def import_mtop(raw_path: str, field_map: dict, out_path: str) -> dict:
    """Normalize a flat slot-tagging TSV into JSONL.

    ``field_map`` names the zero-based column indices: ``{"tokens": i,
    "slots": j}`` plus optional ``delimiter`` and ``skip_header``. Rows whose
    token and label counts disagree are skipped and counted.
    """
    tok_col, slot_col = field_map["tokens"], field_map["slots"]
    examples: list[Example] = []
    skipped: list[int] = []
    labels: set[str] = set()
    for rowno, cells in _read_rows(raw_path, field_map):
        if len(cells) <= max(tok_col, slot_col):
            raise DataError(f"{raw_path}:{rowno}: expected at least {max(tok_col, slot_col) + 1} columns")
        try:
            tokens = _parse_cell(cells[tok_col])
            slots = _parse_cell(cells[slot_col])
        except (ValueError, json.JSONDecodeError) as exc:
            raise DataError(f"{raw_path}:{rowno}: {exc}") from exc
        if not tokens or len(tokens) != len(slots):
            skipped.append(rowno)
            continue
        labels.update(slots)
        examples.append(Example(tokens=tokens, slot_labels=slots))
    save_jsonl(examples, out_path)
    return {
        "path": out_path,
        "examples": len(examples),
        "skipped": len(skipped),
        "skipped_rows": skipped,
        "labels": len(labels),
    }


def import_multiatis(raw_path: str, field_map: dict, out_path: str) -> dict:
    """Normalize an utterance/intent TSV into classification JSONL.

    ``field_map``: ``{"text": i, "intent": j}`` plus optional ``delimiter``
    and ``skip_header``.
    """
    text_col, intent_col = field_map["text"], field_map["intent"]
    examples: list[Example] = []
    skipped: list[int] = []
    labels: set[str] = set()
    for rowno, cells in _read_rows(raw_path, field_map):
        if len(cells) <= max(text_col, intent_col):
            raise DataError(f"{raw_path}:{rowno}: expected at least {max(text_col, intent_col) + 1} columns")
        tokens = cells[text_col].split()
        intent = cells[intent_col].strip()
        if not tokens or not intent:
            skipped.append(rowno)
            continue
        labels.add(intent)
        examples.append(Example(tokens=tokens, class_label=intent))
    save_jsonl(examples, out_path)
    return {
        "path": out_path,
        "examples": len(examples),
        "skipped": len(skipped),
        "skipped_rows": skipped,
        "labels": len(labels),
    }


_LETTERS = "abcdefghijklmnopqrstuvwxyz"

# Echo words copy the label of the preceding token, so ~10% of positions are
# unpredictable from the token alone. An echo never starts a sentence and
# never follows another echo; with per-step probability p the echo fraction
# is p/(1+p) scaled by (len-1)/len, so p = 0.125 lands at 10% for typical
# lengths.
_ECHO_PROB = 0.125


def _random_word(rng: np.random.Generator, taken: set[str]) -> str:
    while True:
        length = int(rng.integers(4, 9))
        word = "".join(_LETTERS[i] for i in rng.integers(0, 26, size=length))
        if word not in taken:
            taken.add(word)
            return word


@dataclass(frozen=True)
class SynthTask:
    train: list[Example]
    val: list[Example]
    vocab_units: list[str]
    word_label: dict[str, str]
    echo_words: list[str]


def synth_examples(
    seed: int,
    n_examples: int,
    vocab_size: int = 300,
    seq_len_range: tuple[int, int] = (6, 16),
    n_labels: int = 20,
    n_val: int | None = None,
) -> SynthTask:
    """Deterministic token-tagging task with context-dependent positions.

    Every lexicon word carries a fixed label (balanced across labels by a
    seeded permutation). Dedicated echo words take the label of the previous
    token, which forces any model scoring above the per-token ceiling to mix
    information across positions.
    """
    if n_labels < 2:
        raise ValueError("need at least two labels")
    rng = np.random.default_rng(seed)
    taken: set[str] = set()
    lexicon = [_random_word(rng, taken) for _ in range(vocab_size)]
    echo_words = [_random_word(rng, taken) for _ in range(max(1, vocab_size // 10))]
    order = rng.permutation(vocab_size)
    word_label = {lexicon[order[i]]: f"tag_{i % n_labels}" for i in range(vocab_size)}

    def make_example() -> Example:
        length = int(rng.integers(seq_len_range[0], seq_len_range[1] + 1))
        tokens: list[str] = []
        slots: list[str] = []
        prev_was_echo = True  # position 0 must be a regular word
        for _ in range(length):
            if not prev_was_echo and rng.random() < _ECHO_PROB:
                tokens.append(echo_words[int(rng.integers(len(echo_words)))])
                slots.append(slots[-1])
                prev_was_echo = True
            else:
                word = lexicon[int(rng.integers(vocab_size))]
                tokens.append(word)
                slots.append(word_label[word])
                prev_was_echo = False
        return Example(tokens=tokens, slot_labels=slots)

    if n_val is None:
        n_val = max(n_examples // 10, 50)
    train = [make_example() for _ in range(n_examples)]
    val = [make_example() for _ in range(n_val)]
    units = (
        [DEFAULT_UNK]
        + list(_LETTERS)
        + ["##" + c for c in _LETTERS]
        + lexicon
        + echo_words
    )
    return SynthTask(
        train=train, val=val, vocab_units=units, word_label=word_label, echo_words=echo_words
    )
