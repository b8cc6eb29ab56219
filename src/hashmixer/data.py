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
from .files import read_text, replacing
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


def gold_labels(examples: list[Example], field: str) -> list[list[str]]:
    """Each example's gold label sequence, read from ``field``.

    ``"slots"`` gives the slot labels; ``"label"`` gives the class label as
    a one-label list, so both heads encode, score and count labels the same
    way.
    """
    if field == "slots":
        out, missing = [ex.slot_labels for ex in examples], "slot labels"
    elif field == "label":
        out = [None if ex.class_label is None else [ex.class_label] for ex in examples]
        missing = "class label"
    else:
        raise ValueError(f"unknown label field {field!r}")
    for i, gold in enumerate(out):
        if gold is None:
            raise DataError(f"example {i} has no {missing}")
    return out


@dataclass(frozen=True)
class LabelInventory:
    """Ordered label strings fixed from the training split."""

    labels: tuple[str, ...]
    index: dict[str, int]

    @classmethod
    def from_examples(cls, examples: list[Example], field: str) -> "LabelInventory":
        # a dict keeps first-appearance order
        labels = tuple(dict.fromkeys(lab for gold in gold_labels(examples, field) for lab in gold))
        return cls(labels=labels, index={lab: i for i, lab in enumerate(labels)})


def load_jsonl(path: str) -> list[Example]:
    """Read normalized examples, reporting the line number on any defect; none is one too."""
    examples: list[Example] = []
    # split on "\n" only, as file iteration does: a JSON string may hold U+2028
    for lineno, line in enumerate(read_text(path, "dataset").split("\n"), start=1):
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
        slots, label = obj.get("slots"), obj.get("label")
        if slots is not None and not (isinstance(slots, list)
                                      and all(isinstance(s, str) for s in slots)):
            raise DataError(f"{path}:{lineno}: 'slots' must be a list of strings")
        if label is not None and not isinstance(label, str):
            raise DataError(f"{path}:{lineno}: 'label' must be a string")
        try:
            examples.append(Example(tokens=tokens, slot_labels=slots, class_label=label))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
    if not examples:
        raise DataError(f"{path}: no examples")
    return examples


def save_jsonl(examples: list[Example], path: str) -> None:
    """Write ``examples`` as UTF-8 JSON lines, replacing ``path`` only once all are written."""
    with replacing(path) as fh:
        for ex in examples:
            obj: dict = {"tokens": ex.tokens}
            if ex.slot_labels is not None:
                obj["slots"] = ex.slot_labels
            if ex.class_label is not None:
                obj["label"] = ex.class_label
            fh.write((json.dumps(obj, ensure_ascii=False) + "\n").encode("utf-8"))


def _parse_cell(cell: str) -> list[str]:
    """A column holding either a JSON array of strings or whitespace-joined items."""
    cell = cell.strip()
    if cell.startswith("["):
        parsed = json.loads(cell)
        if not isinstance(parsed, list):
            raise ValueError("expected a JSON array")
        return [str(x) for x in parsed]
    return cell.split()


def import_mtop(raw_path: str, field_map: dict, out_path: str) -> dict:
    """Normalize a flat slot-tagging TSV into JSONL.

    ``field_map`` names the zero-based column indices: ``{"tokens": i,
    "slots": j}`` plus optional ``delimiter`` and ``skip_header``. Rows whose
    token and label counts disagree are skipped and counted.
    """
    def parse(tokens_cell: str, slots_cell: str) -> Example | None:
        tokens, slots = _parse_cell(tokens_cell), _parse_cell(slots_cell)
        if not tokens or len(tokens) != len(slots):
            return None
        return Example(tokens=tokens, slot_labels=slots)

    return _import_rows(raw_path, field_map, out_path, ("tokens", "slots"), "slots", parse)


def import_multiatis(raw_path: str, field_map: dict, out_path: str) -> dict:
    """Normalize an utterance/intent TSV into classification JSONL.

    ``field_map``: ``{"text": i, "intent": j}`` plus optional ``delimiter``
    and ``skip_header``.
    """
    def parse(text_cell: str, intent_cell: str) -> Example | None:
        tokens, intent = text_cell.split(), intent_cell.strip()
        if not tokens or not intent:
            return None
        return Example(tokens=tokens, class_label=intent)

    return _import_rows(raw_path, field_map, out_path, ("text", "intent"), "label", parse)


def _import_rows(raw_path: str, field_map: dict, out_path: str, columns: tuple[str, str],
                 field: str, parse) -> dict:
    """The importers' shared loop; writes the JSONL and returns the import summary.

    ``parse`` turns a row's two cells named by ``columns`` into an example
    labeled in ``field``, or returns ``None`` to skip the row.
    """
    for name in columns:
        if name not in field_map:
            raise ValueError(f"field map is missing the column key {name!r}")
        col = field_map[name]
        if isinstance(col, bool) or not isinstance(col, int) or col < 0:
            raise ValueError(f"field map key {name!r} must be a non-negative column index, "
                             f"not {col!r}")
    cols = [field_map[name] for name in columns]
    width = max(cols) + 1
    delimiter = field_map.get("delimiter", "\t")
    if not isinstance(delimiter, str) or not delimiter:
        raise ValueError(
            f"field map key 'delimiter' must be a non-empty string, not {delimiter!r}")
    skip_header = field_map.get("skip_header", False)
    if not isinstance(skip_header, bool):
        raise ValueError(f"field map key 'skip_header' must be true or false, not {skip_header!r}")
    examples: list[Example] = []
    skipped: list[int] = []
    for rowno, line in enumerate(read_text(raw_path, "raw file").split("\n"), start=1):
        if not line or (skip_header and rowno == 1):
            continue
        cells = line.split(delimiter)
        if len(cells) < width:
            raise DataError(f"{raw_path}:{rowno}: expected at least {width} columns")
        try:
            example = parse(*(cells[c] for c in cols))
        except ValueError as exc:  # includes a malformed JSON array cell
            raise DataError(f"{raw_path}:{rowno}: {exc}") from exc
        if example is None:
            skipped.append(rowno)
        else:
            examples.append(example)
    save_jsonl(examples, out_path)
    return {
        "path": out_path,
        "examples": len(examples),
        "skipped": len(skipped),
        "skipped_rows": skipped,
        "labels": len({lab for gold in gold_labels(examples, field) for lab in gold}),
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
