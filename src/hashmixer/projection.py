"""Text-to-matrix projection: cached MinHash features plus baselines.

The main path turns a token sequence into a ``(2w+1)*m x s`` float matrix:

* tokenize each token into subword units, as vocabulary rows,
* look up those rows' precomputed MinHash fingerprints and take the
  elementwise minimum (no string hashing at inference time),
* scatter the ``n`` fingerprint values into an ``m``-counter array
  (a Counting Bloom Filter), and
* concatenate each token's counters with those of its ``w`` neighbours on
  either side, zero-padding at the boundaries and after the last token.

That dense matrix is under 1% nonzero, so only ``project`` dumps (and the
tests' reference) build it, through :meth:`SequenceFeaturizer.materialize`.
Training and inference hand the model a :class:`TokenWindows` instead: the
featurizer's token table plus, for every window slot of every position, the
table row it holds.

Binary, ternary-pair (tsp) and simhash baseline features share the tokenizer
and hash family but skip the cache and hash the units' texts; they exist for
head-to-head comparisons against the counting features.

A unit whose text starts with ``##`` is a continuation and is hashed whole,
wherever it appears in a word; any other unit is hashed by its character
trigrams (:func:`hashing.gram_hashes`). The cache and simhash follow this one
rule; binary and tsp hash every unit whole.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ModelFileError
from .files import ContainerReader, replacing
from .hashing import HashFamily, all_hashes, gram_hashes, minhash_units
from .vocab import Vocabulary, tokenize_word

PROJECTION_KINDS = ("minhash", "binary", "tsp", "simhash")

CACHE_MAGIC = b"PNLPCACH"
CACHE_VERSION = 2


@dataclass(frozen=True)
class ProjectionConfig:
    kind: str = "minhash"
    n_hashes: int = 64
    feature_size: int = 1024
    window: int = 1
    max_seq_len: int = 64
    simhash_bits: int = 64

    def __post_init__(self) -> None:
        # each message starts with the field it rejects; config.py names the key from it
        if self.kind not in PROJECTION_KINDS:
            raise ValueError(f"kind must be one of {PROJECTION_KINDS}, not {self.kind!r}")
        if self.n_hashes < 1:
            raise ValueError("n_hashes must be >= 1")
        if self.feature_size < 1:
            raise ValueError("feature_size must be >= 1")
        if self.window < 0:
            raise ValueError("window must be >= 0")
        if self.max_seq_len < 1:
            raise ValueError("max_seq_len must be >= 1")
        if not 1 <= self.simhash_bits <= 64:
            raise ValueError("simhash_bits must be in 1..64")
        if self.kind == "tsp" and self.feature_size % 2 != 0:
            raise ValueError("feature_size must be even: the tsp projection consumes bits in pairs")

    @property
    def token_feature_len(self) -> int:
        """Length of one token's feature vector (simhash uses its bit count)."""
        return self.simhash_bits if self.kind == "simhash" else self.feature_size

    @property
    def input_rows(self) -> int:
        return (2 * self.window + 1) * self.token_feature_len


@dataclass(frozen=True)
class FingerprintCache:
    """Per-vocabulary-unit fingerprints, row-aligned with the vocabulary.

    ``width`` 64 stores raw fingerprints; 32 stores the low halves, which
    count as the full values do only at a ``feature_size`` dividing 2^32.
    ``vocab_digest`` is the :attr:`Vocabulary.digest` of its vocabulary; ``path`` its file, if any.
    """

    table: np.ndarray
    n_hashes: int
    vocab_digest: bytes
    width: int = 64
    path: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.width not in (32, 64):
            raise ValueError("cache width must be 32 or 64")
        if self.table.shape[1] != self.n_hashes:
            raise ValueError("cache table column count must equal n_hashes")

    @property
    def vocab_size(self) -> int:
        return self.table.shape[0]


def build_cache(vocab: Vocabulary, family: HashFamily, width: int = 64) -> FingerprintCache:
    """Precompute the fingerprint of every vocabulary unit."""
    table = minhash_units(family, vocab.units, dtype=np.uint32 if width == 32 else np.uint64)
    table.setflags(write=False)
    return FingerprintCache(table, family.size_n, vocab.digest, width)


def save_cache(cache: FingerprintCache, path: str) -> None:
    header = CACHE_MAGIC + struct.pack(
        "<IQIB32s", CACHE_VERSION, cache.vocab_size, cache.n_hashes, cache.width, cache.vocab_digest
    )
    with replacing(path) as fh:
        fh.write(header)
        # written from the array's own buffer, without a bytes copy of the table
        fh.write(np.ascontiguousarray(cache.table, dtype=f"<u{cache.width // 8}"))


def load_cache(path: str, expected_vocab_size: int | None = None) -> FingerprintCache:
    """Read a cache file; its table is a read-only view of the mapped file."""
    reader = ContainerReader(path, CACHE_MAGIC, "fingerprint cache file")
    (version,) = reader.unpack("<I")
    if version != CACHE_VERSION:
        raise ModelFileError(f"{path}: unsupported cache version {version}; "
                             "rebuild it with hashmixer build-cache")
    vocab_size, n_hashes, width, vocab_digest = reader.unpack("<QIB32s")
    if width not in (32, 64):
        raise ModelFileError(f"{path}: invalid cache width {width}")
    if expected_vocab_size is not None and vocab_size != expected_vocab_size:
        raise ModelFileError(f"{path}: cache built for vocabulary of {vocab_size} units, "
                             f"got a vocabulary of {expected_vocab_size}")
    table = reader.array(f"<u{width // 8}", (vocab_size, n_hashes))
    reader.finish()
    return FingerprintCache(table, n_hashes, vocab_digest, width, path)


def token_fingerprint(rows: list[int], cache: FingerprintCache) -> np.ndarray:
    """Elementwise minimum of the cached fingerprints of a token's vocabulary rows."""
    if not rows:
        raise ValueError("token_fingerprint needs at least one subword unit")
    return cache.table[rows].min(axis=0)


def counting_feature(fingerprint: np.ndarray, m: int) -> np.ndarray:
    """Scatter n fingerprint values into m counters; each adds exactly one."""
    if m < 1:
        raise ValueError("feature size m must be >= 1")
    counters = np.zeros(m, dtype=np.float64)
    positions = (fingerprint.astype(np.uint64) % np.uint64(m)).astype(np.intp)
    np.add.at(counters, positions, 1.0)
    return counters


def binary_feature(units: list[str], family: HashFamily, m: int) -> np.ndarray:
    """Bitmap of size m: every whole-unit hash value sets one position."""
    if not units:
        raise ValueError("binary_feature needs at least one subword unit")
    bitmap = np.zeros(m, dtype=np.float64)
    values = np.stack([all_hashes(family, u) for u in units])
    bitmap[(values % np.uint64(m)).astype(np.intp).ravel()] = 1.0
    return bitmap


def tsp_feature(units: list[str], family: HashFamily, m: int) -> np.ndarray:
    """Ternary feature: map consecutive bitmap bit pairs to {-1, 0, +1}."""
    if m % 2 != 0:
        raise ValueError("tsp feature size must be even")
    bits = binary_feature(units, family, m)
    out = np.zeros(m, dtype=np.float64)
    pairs = bits.reshape(-1, 2)
    # (0,1) -> +1, (1,0) -> -1, (0,0) and (1,1) -> 0
    out[: m // 2] = pairs[:, 1] - pairs[:, 0]
    return out


def simhash_feature(units: list[str], family: HashFamily, l: int) -> np.ndarray:
    """Sign histogram over the low ``l`` bits of the units' :func:`gram_hashes`.

    Each hash value votes +1 where its bit is set and -1 where it is clear;
    a non-negative tally yields 1.0 (ties included), a negative one 0.0.
    """
    if not 1 <= l <= 64:
        raise ValueError("simhash bit count must be in 1..64")
    if not units:
        raise ValueError("simhash_feature needs at least one subword unit")
    values = np.concatenate([gram_hashes(family, u) for u in units])
    bits = (values[:, :, None] >> np.arange(l, dtype=np.uint64)) & np.uint64(1)
    histogram = (2.0 * bits.astype(np.float64) - 1.0).sum(axis=(0, 1))
    return (histogram >= 0.0).astype(np.float64)


@dataclass(frozen=True)
class FeatureMatrix:
    """Model input: stacked windowed token features, one column per position."""

    data: np.ndarray
    valid_len: int

    def __post_init__(self) -> None:
        if not 0 <= self.valid_len <= self.data.shape[1]:
            raise ValueError("valid_len must be within the column count")


@dataclass(frozen=True, eq=False)
class TokenWindows:
    """Model input as token-table rows instead of a dense matrix.

    ``table[ids[n, j, t]]`` is the feature block that rows ``j*m .. (j+1)*m``
    of column ``t`` of example ``n``'s dense matrix would hold; row 0 of
    ``table`` is the zero padding feature.
    """

    table: np.ndarray
    ids: np.ndarray


def token_feature(
    token: str,
    vocab: Vocabulary,
    cfg: ProjectionConfig,
    cache: FingerprintCache | None = None,
    family: HashFamily | None = None,
) -> np.ndarray:
    """Per-token feature vector for the configured projection kind."""
    rows = tokenize_word(token, vocab)
    if cfg.kind == "minhash":
        if cache is None:
            raise ValueError("minhash projection requires a fingerprint cache")
        return counting_feature(token_fingerprint(rows, cache), cfg.feature_size)
    units = [vocab.units[r] for r in rows]
    if family is None:
        family = HashFamily(cfg.n_hashes)
    if cfg.kind == "binary":
        return binary_feature(units, family, cfg.feature_size)
    if cfg.kind == "tsp":
        return tsp_feature(units, family, cfg.feature_size)
    return simhash_feature(units, family, cfg.simhash_bits)


class SequenceFeaturizer:
    """Batch featurizer that computes each distinct token's feature once.

    Column ``t`` of an example's matrix stacks the :func:`token_feature` of
    tokens ``t-w .. t+w`` top to bottom, substituting zero blocks where the
    neighbour index falls outside the (truncated) sequence. Sequences longer
    than ``max_seq_len`` keep their first ``max_seq_len`` tokens.

    Token features live in one float32 table that grows by doubling; row 0
    is reserved as the zero (padding) feature. Counting, bitmap and ternary
    features are small integers, so float32 holds them exactly. A minhash
    featurizer rejects a cache of another vocabulary or hash count, or a
    32-bit one at a ``feature_size`` that does not divide 2^32
    (:class:`DataError`), and builds its own without one; other kinds ignore it.
    """

    _INITIAL_ROWS = 256

    def __init__(
        self,
        vocab: Vocabulary,
        cfg: ProjectionConfig,
        cache: FingerprintCache | None = None,
    ) -> None:
        self.vocab = vocab
        self.cfg = cfg
        self.family = HashFamily(cfg.n_hashes)
        if cfg.kind != "minhash":
            cache = None
        elif cache is None:
            cache = build_cache(vocab, self.family)
        elif cache.n_hashes != cfg.n_hashes:
            raise DataError(f"{cache.path or 'the fingerprint cache'} was built with "
                            f"{cache.n_hashes} hashes, config expects {cfg.n_hashes}")
        elif cache.vocab_size != len(vocab) or cache.vocab_digest != vocab.digest:
            raise DataError(f"{cache.path or 'the fingerprint cache'} was not built from "
                            f"the vocabulary {vocab.path or 'given'}")
        elif cache.width == 32 and 2**32 % cfg.feature_size:
            raise DataError(f"{cache.path or 'the fingerprint cache'} holds 32-bit fingerprints, "
                            f"and feature_size {cfg.feature_size} does not divide 2^32")
        self.cache = cache
        self._table = np.zeros((self._INITIAL_ROWS, cfg.token_feature_len), dtype=np.float32)
        self._ids: dict[str, int] = {}

    def _token_id(self, token: str) -> int:
        tid = self._ids.get(token)
        if tid is None:
            tid = len(self._ids) + 1
            if tid == len(self._table):
                self._table = np.concatenate([self._table, np.zeros_like(self._table)])
            self._table[tid] = token_feature(
                token, self.vocab, self.cfg, cache=self.cache, family=self.family
            )
            self._ids[token] = tid
        return tid

    def encode(self, examples_tokens: list[list[str]]) -> tuple[np.ndarray, np.ndarray]:
        """Map token sequences to a padded id matrix plus valid lengths."""
        s = self.cfg.max_seq_len
        ids = np.zeros((len(examples_tokens), s), dtype=np.intp)
        valid = np.zeros(len(examples_tokens), dtype=np.intp)
        for row, tokens in enumerate(examples_tokens):
            kept = tokens[:s]
            valid[row] = len(kept)
            for col, tok in enumerate(kept):
                ids[row, col] = self._token_id(tok)
        return ids, valid

    @property
    def table(self) -> np.ndarray:
        """The float32 token table: row 0 is padding, then one row per distinct token."""
        return self._table[: len(self._ids) + 1]

    def window_ids(self, ids: np.ndarray, valid: np.ndarray) -> np.ndarray:
        """Table row of every window slot: a (batch, 2w+1, s) array.

        Slot ``j`` of column ``t`` holds the token at ``t + j - w``, or row 0
        where that neighbour, or column ``t`` itself, lies past the valid
        length or before the start.
        """
        w = self.cfg.window
        n, s = ids.shape
        out = np.empty((n, 2 * w + 1, s), dtype=np.intp)
        positions = np.arange(s)
        column_live = positions[None, :] < valid[:, None]
        for j in range(2 * w + 1):
            neighbour = positions + (j - w)
            in_range = (neighbour >= 0) & (neighbour < valid[:, None]) & column_live
            out[:, j, :] = np.where(in_range, ids[:, np.clip(neighbour, 0, s - 1)], 0)
        return out

    def materialize(
        self, ids: np.ndarray, valid: np.ndarray, dtype=np.float64
    ) -> np.ndarray:
        """Assemble the dense (batch, rows, s) input tensor for encoded examples.

        float32 output is exact; other dtypes upcast the table's rows on
        assignment.
        """
        table = self._table
        m = self.cfg.token_feature_len
        windows = self.window_ids(ids, valid)
        n, slots, s = windows.shape
        out = np.empty((n, slots * m, s), dtype=dtype)
        for j in range(slots):
            out[:, j * m : (j + 1) * m, :] = table[windows[:, j]].transpose(0, 2, 1)
        return out
