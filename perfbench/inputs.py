"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of its seed and uses only numpy and the
standard library, so the program under test receives nothing but the
generated inputs.
"""

from __future__ import annotations

import numpy as np

SPECIALS = ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"]

# (name, alphabet, share of word units, shortest head, longest head)
SCRIPTS = (
    ("latin", "abcdefghijklmnopqrstuvwxyz", 0.55, 2, 9),
    ("accented", "abcdefghijklmnopqrstuvwxyzàáâäãåçèéêëìíîïñòóôöõùúûüýÿßøæœ", 0.20, 2, 9),
    ("cyrillic", "абвгдеёжзийклмнопрстуфхцчшщъыьэюя", 0.17, 2, 9),
    # 6,000 common CJK ideographs; an mBERT-style vocabulary keeps each as a
    # single-character unit, plus a few multi-character words
    ("cjk", "".join(chr(0x4E00 + i) for i in range(6000)), 0.08, 2, 3),
)

# Characters that are in no vocabulary unit, so a word holding one maps to
# the unknown token.
UNSEEN_CHARS = "ᚠᚢᚦᚨᚱᚲᚷᚹ"

SERVE_VOCAB_UNITS = 120_000
SERVE_LABELS = 78
SERVE_LEXICON = 200_000
ZIPF_EXPONENT = 1.1
UNSEEN_CHAR_RATE = 0.005
UTTERANCE_WORDS = (4, 14)  # shortest and longest utterance


def _words(rng: np.random.Generator, alphabet: str, n: int, lo: int, hi: int) -> list[str]:
    """``n`` random strings over ``alphabet`` with lengths in ``lo..hi``."""
    codes = np.array([ord(c) for c in alphabet], dtype=np.uint32)
    lengths = rng.integers(lo, hi + 1, size=n)
    chars = codes[rng.integers(0, len(codes), size=(n, hi))]
    chars[np.arange(hi)[None, :] >= lengths[:, None]] = 0  # NUL tail is dropped
    return chars.view(f"<U{hi}").ravel().tolist()


def serve_vocab(seed: int, size: int = SERVE_VOCAB_UNITS) -> list[str]:
    """An mBERT-sized multilingual vocabulary of ``size`` distinct units.

    Specials, every character of every script as a head unit, the non-CJK
    characters again as ``##`` continuations, then head words and
    continuation pieces per script in the shares of ``SCRIPTS``. Heads
    outnumber pieces three to one.
    """
    rng = np.random.default_rng([seed, 1])
    units: list[str] = list(SPECIALS)
    taken: set[str] = set(units)

    def add(batch) -> None:
        for unit in batch:
            if len(units) == size:
                return
            if unit not in taken:
                taken.add(unit)
                units.append(unit)

    for name, alphabet, _, _, _ in SCRIPTS:
        add(alphabet)
        if name != "cjk":
            add("##" + ch for ch in alphabet)
    while len(units) < size:
        missing = size - len(units)
        for name, alphabet, share, lo, hi in SCRIPTS:
            n = int(missing * share) + 1
            if name == "cjk":
                add(_words(rng, alphabet, n, lo, hi))
            else:
                n_pieces = n // 4
                add(_words(rng, alphabet, n - n_pieces, lo, hi))
                add("##" + w for w in _words(rng, alphabet, n_pieces, 2, 5))
    return units


class ZipfLexicon:
    """Word types by frequency rank, built from same-script vocabulary pieces.

    A word is a head unit plus zero to two continuation pieces of the same
    script, so WordPiece splits it into known units. A share of
    ``UNSEEN_CHAR_RATE`` carries a character that no unit holds and
    tokenizes to the unknown token. The random draws for every rank are made
    up front; a word's text is built the first time its rank is drawn.
    """

    def __init__(self, seed: int, vocab: list[str], size: int = SERVE_LEXICON) -> None:
        rng = np.random.default_rng([seed, 2])
        script_of = {}
        for name, alphabet, _, _, _ in SCRIPTS:
            for ch in alphabet:
                script_of.setdefault(ch, name)
        self.heads: dict[str, list[str]] = {name: [] for name, *_ in SCRIPTS}
        self.pieces: dict[str, list[str]] = {name: [] for name, *_ in SCRIPTS}
        for unit in vocab:
            if unit in SPECIALS:
                continue
            if unit.startswith("##"):
                self.pieces[script_of[unit[-1]]].append(unit[2:])
            else:
                self.heads[script_of[unit[-1]]].append(unit)
        shares = np.array([share for _, _, share, _, _ in SCRIPTS])
        self.size = size
        self.script = rng.choice(len(SCRIPTS), size=size, p=shares / shares.sum())
        self.n_pieces = rng.integers(0, 3, size=size)
        self.draws = rng.random((size, 4))
        self.words: dict[int, str] = {}

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, rank: int) -> str:
        word = self.words.get(rank)
        if word is None:
            name = SCRIPTS[self.script[rank]][0]
            hs, ps, d = self.heads[name], self.pieces[name], self.draws[rank]
            word = hs[int(d[0] * len(hs))]
            if ps:
                for j in range(self.n_pieces[rank]):
                    word += ps[int(d[1 + j] * len(ps))]
            if d[3] < UNSEEN_CHAR_RATE:
                word += UNSEEN_CHARS[int(d[3] / UNSEEN_CHAR_RATE * len(UNSEEN_CHARS))]
            self.words[rank] = word
        return word


def zipf_utterances(seed: int, lexicon: ZipfLexicon, count: int,
                    stream: int) -> list[list[str]]:
    """``count`` utterances whose words follow a Zipf law over ``lexicon``.

    ``stream`` separates independent corpora drawn from the same seed.
    """
    rng = np.random.default_rng([seed, 3, stream])
    p = np.arange(1, len(lexicon) + 1, dtype=np.float64) ** -ZIPF_EXPONENT
    cdf = np.cumsum(p / p.sum())
    lengths = rng.integers(UTTERANCE_WORDS[0], UTTERANCE_WORDS[1] + 1, size=count)
    idx = np.minimum(np.searchsorted(cdf, rng.random(int(lengths.sum()))), len(lexicon) - 1)
    out, pos = [], 0
    for length in lengths:
        out.append([lexicon[i] for i in idx[pos : pos + length]])
        pos += length
    return out


def random_labels(seed: int, utterances: list[list[str]], n_labels: int) -> list[list[str]]:
    """Gold slot labels for a serving corpus (the served model is untrained)."""
    rng = np.random.default_rng([seed, 4])
    return [[f"tag_{int(i)}" for i in rng.integers(0, n_labels, size=len(u))]
            for u in utterances]
