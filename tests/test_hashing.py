"""Bit-exactness and statistical properties of the hash primitives.

The reference implementations in this file are deliberately straight-line
re-derivations of the published constants, independent of the package code,
so a regression in either side shows up as a disagreement.
"""

import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hashmixer.projection import build_cache
from hashmixer.vocab import Vocabulary

from hashmixer import hashing
from hashmixer.hashing import (
    MASK64,
    HashFamily,
    all_hashes,
    char_trigrams,
    fnv1a64,
    gram_hashes,
    minhash_unit,
    minhash_units,
    splitmix64,
    splitmix64_array,
    string_hash,
)

VECTORS_PATH = os.path.join(os.path.dirname(__file__), "data", "hash_vectors.txt")


def ref_fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & MASK64
    return h


def ref_splitmix64(x: int) -> int:
    z = (x + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def ref_minhash(unit: str, n_hashes: int) -> list[int]:
    """Plain-integer MinHash: trigrams, or the whole unit if it is a ``##`` unit or short."""
    if unit.startswith("##") or len(unit) < 3:
        grams = [unit]
    else:
        grams = [unit[k : k + 3] for k in range(len(unit) - 2)]
    fnvs = [ref_fnv1a64(g.encode("utf-8")) for g in grams]
    return [min(ref_splitmix64(f ^ ref_splitmix64(i + 1)) for f in fnvs) for i in range(n_hashes)]


def vector_inputs() -> list[str]:
    """The distinct non-empty inputs of the committed hash vectors."""
    with open(VECTORS_PATH, encoding="utf-8") as fh:
        texts = [line.rstrip("\n").split("\t")[0] for line in fh if line.rstrip("\n")]
    return list(dict.fromkeys(t for t in texts if t))


class TestFnv1a64:
    def test_empty_is_offset_basis(self):
        assert fnv1a64(b"") == 0xCBF29CE484222325

    def test_single_byte_unrolled(self):
        expected = ((0xCBF29CE484222325 ^ 0x61) * 0x100000001B3) & MASK64
        assert fnv1a64(b"a") == expected

    @pytest.mark.parametrize("text", ["Bri", "rin", "ing", "hello", "नमस्ते"])
    def test_against_reference(self, text):
        assert fnv1a64(text.encode("utf-8")) == ref_fnv1a64(text.encode("utf-8"))


class TestSplitmix64:
    def test_zero_input_evaluates_the_constants(self):
        z = 0x9E3779B97F4A7C15
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        assert splitmix64(0) == z ^ (z >> 31)

    def test_neighbours_differ_over_many_samples(self):
        xs = np.random.default_rng(7).integers(0, 2**63, size=100_000, dtype=np.uint64)
        out = splitmix64_array(xs)
        out_next = splitmix64_array(xs + np.uint64(1))
        assert np.all(out != out_next)

    def test_deterministic(self):
        assert splitmix64(123456789) == splitmix64(123456789)

    @given(st.integers(min_value=0, max_value=MASK64))
    @settings(max_examples=200)
    def test_array_matches_scalar(self, x):
        scalar = splitmix64(x)
        vector = splitmix64_array(np.array([x], dtype=np.uint64))
        assert int(vector[0]) == scalar


class TestHashFamily:
    def test_seeds_are_pure_function_of_n(self):
        a, b = HashFamily(16), HashFamily(16)
        assert np.array_equal(a.seeds, b.seeds)
        assert int(a.seeds[3]) == ref_splitmix64(4)

    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            HashFamily(0)

    def test_committed_vectors_reproduce_exactly(self, family64):
        with open(VECTORS_PATH, encoding="utf-8") as fh:
            lines = [line.rstrip("\n") for line in fh if line.rstrip("\n")]
        assert len(lines) > 100
        for line in lines:
            text, i, expected = line.split("\t")
            assert string_hash(family64, int(i), text) == int(expected, 16), line

    def test_vectors_match_independent_rederivation(self, family64):
        with open(VECTORS_PATH, encoding="utf-8") as fh:
            for line in fh:
                if not line.rstrip("\n"):
                    continue
                text, i, expected = line.rstrip("\n").split("\t")
                seed = ref_splitmix64(int(i) + 1)
                rederived = ref_splitmix64(ref_fnv1a64(text.encode("utf-8")) ^ seed)
                assert rederived == int(expected, 16), line

    def test_different_indices_differ(self, family64):
        assert string_hash(family64, 0, "ing") != string_hash(family64, 1, "ing")

    def test_index_out_of_range(self, family64):
        with pytest.raises(IndexError):
            string_hash(family64, 64, "x")
        with pytest.raises(IndexError):
            string_hash(family64, -1, "x")

    def test_empty_string_is_defined(self, family64):
        expected = splitmix64(fnv1a64(b"") ^ int(family64.seeds[5]))
        assert string_hash(family64, 5, "") == expected

    def test_all_hashes_matches_scalar_path(self, family64):
        vec = all_hashes(family64, "Bring")
        assert vec.shape == (64,)
        for i in (0, 13, 63):
            assert int(vec[i]) == string_hash(family64, i, "Bring")


class TestCharTrigrams:
    def test_documented_example(self):
        assert char_trigrams("Bring") == ["Bri", "rin", "ing"]

    def test_short_string_fallback(self):
        assert char_trigrams("at") == ["at"]
        assert char_trigrams("a") == ["a"]

    def test_sliding_window(self):
        assert char_trigrams("abcd") == ["abc", "bcd"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            char_trigrams("")

    def test_unicode_scalars_not_bytes(self):
        grams = char_trigrams("नमस्ते")
        assert len(grams) == len("नमस्ते") - 2
        assert all(len(g) == 3 for g in grams)

    @given(st.text(min_size=1, max_size=30))
    @settings(max_examples=100)
    def test_count_and_coverage(self, s):
        grams = char_trigrams(s)
        assert len(grams) == max(1, len(s) - 2)
        if len(s) >= 3:
            assert all(len(g) == 3 for g in grams)
            assert grams[0] == s[:3] and grams[-1] == s[-3:]


class TestMinhashUnit:
    def test_head_unit_is_min_over_trigrams(self, family64):
        fp = minhash_unit(family64, "Bring")
        for i in (0, 7, 63):
            grams = [string_hash(family64, i, g) for g in ("Bri", "rin", "ing")]
            assert int(fp[i]) == min(grams)

    def test_continuation_skips_trigrams(self, family64):
        fp = minhash_unit(family64, "##ing")
        assert np.array_equal(fp, all_hashes(family64, "##ing"))
        trigram_min = np.minimum.reduce([all_hashes(family64, g) for g in char_trigrams("##ing")])
        assert not np.array_equal(fp, trigram_min)

    def test_gram_hashes_are_trigram_rows_or_one_whole_row(self, family64):
        trigrams = np.stack([all_hashes(family64, g) for g in ("Bri", "rin", "ing")])
        assert np.array_equal(gram_hashes(family64, "Bring"), trigrams)
        whole = all_hashes(family64, "##Bring")[None]
        assert np.array_equal(gram_hashes(family64, "##Bring"), whole)

    def test_single_trigram_unit(self, family64):
        assert np.array_equal(minhash_unit(family64, "ing"), all_hashes(family64, "ing"))

    def test_empty_rejected(self, family64):
        with pytest.raises(ValueError):
            minhash_unit(family64, "")

    def test_bitwise_deterministic(self, family64):
        a = minhash_unit(family64, "deterministic")
        b = minhash_unit(family64, "deterministic")
        assert np.array_equal(a, b)

    @given(st.text(alphabet="abcdef", min_size=3, max_size=12),
           st.text(alphabet="abcdef", min_size=1, max_size=6))
    @settings(max_examples=100)
    def test_min_monotonicity_under_extension(self, base, suffix):
        # extending a string only adds trigrams, so per-index minima cannot rise
        family = HashFamily(16)
        longer = minhash_unit(family, base + suffix)
        shorter = minhash_unit(family, base)
        assert np.all(longer <= shorter)


LONG_UNIT = "x" * 200 + "é中🙂" * 50 + "\x00" * 150  # 500 characters

# every kind of unit the batched build groups differently
EDGE_UNITS = [
    "a", "ab", "abc", "abcd",           # 1, 2 and 3 characters (whole), 4 (two trigrams)
    "##", "##x", "##xyz",                # continuations are hashed whole at any length
    "é", "éa", "aéb", "naïveté",        # 2-byte UTF-8
    "中", "中文", "中文字", "中文字符",   # 3-byte UTF-8
    "🙂", "🙂ab", "a🙂b🙂", "##🙂",       # 4-byte UTF-8
    LONG_UNIT, "##" + LONG_UNIT,           # among short ones
    "नमस्ते", "क्षत्रिय", "##ि",           # Devanagari with combining marks
    "\x00", "a\x00", "a\x00b", "ab\x00", "\x00\x00\x00", "##\x00",  # U+0000 inside and at the end
]


class TestMinhashUnits:
    @pytest.mark.parametrize("n_hashes", [1, 64])
    def test_rows_equal_scalar_and_reference(self, n_hashes):
        units = EDGE_UNITS + vector_inputs()
        family = HashFamily(n_hashes)
        table = minhash_units(family, units)
        assert table.shape == (len(units), n_hashes) and table.dtype == np.uint64
        for row, unit in enumerate(units):
            scalar = minhash_unit(family, unit)
            assert np.array_equal(table[row], scalar), unit
            assert [int(v) for v in table[row]] == ref_minhash(unit, n_hashes), unit

    @pytest.mark.parametrize("n_hashes", [1, 64])
    @pytest.mark.parametrize("width", [32, 64])
    def test_build_cache_rows_equal_reference(self, n_hashes, width):
        units = list(dict.fromkeys(["[UNK]"] + EDGE_UNITS + vector_inputs()))
        cache = build_cache(Vocabulary.from_units(units), HashFamily(n_hashes), width=width)
        assert cache.table.dtype == (np.uint32 if width == 32 else np.uint64)
        mask = (1 << width) - 1
        for row, unit in enumerate(units):
            expected = [v & mask for v in ref_minhash(unit, n_hashes)]
            assert [int(v) for v in cache.table[row]] == expected, unit

    @pytest.mark.parametrize("width", [32, 64])
    def test_unk_only_vocabulary(self, family64, width):
        cache = build_cache(Vocabulary.from_units(["[UNK]"]), family64, width=width)
        expected = [v & ((1 << width) - 1) for v in ref_minhash("[UNK]", 64)]
        assert [int(v) for v in cache.table[0]] == expected

    def test_rows_follow_input_order_across_blocks(self, family64, monkeypatch):
        # blocks of a few units each: every group spans several blocks
        monkeypatch.setattr(hashing, "_BLOCK_VALUES", 3 * 64)
        units = [f"w{i}{'z' * (i % 7)}" for i in range(200)] + [f"##{i}" for i in range(50)]
        table = minhash_units(family64, units)
        for row, unit in enumerate(units):
            assert np.array_equal(table[row], minhash_unit(family64, unit))

    def test_low_halves_for_uint32(self, family64):
        wide = minhash_units(family64, EDGE_UNITS)
        narrow = minhash_units(family64, EDGE_UNITS, dtype=np.uint32)
        assert np.array_equal(narrow, (wide & np.uint64(0xFFFFFFFF)).astype(np.uint32))

    def test_no_units(self, family64):
        assert minhash_units(family64, []).shape == (0, 64)

    def test_empty_unit_rejected(self, family64):
        with pytest.raises(ValueError, match="empty"):
            minhash_units(family64, ["a", ""])

    def test_transient_memory_is_bounded_by_blocks(self):
        # 40,000 units of 1 to 12 characters: the table is 20 MB and the build
        # may hold at most 8 MiB more at any time
        rng = np.random.default_rng(3)
        units = ["".join(rng.choice(list("abcdéf中🙂"), size=k)) for k in rng.integers(1, 13, 40_000)]
        tracemalloc.start()
        try:
            table = minhash_units(HashFamily(64), units)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - table.nbytes < 8 * 2**20

    @given(st.lists(
        st.one_of(
            st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r"),
                    min_size=1, max_size=12),
            st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r"),
                    max_size=6).map(lambda t: "##" + t),
        ),
        min_size=1, max_size=20,
    ))
    @settings(max_examples=150, deadline=None)
    def test_random_units_match_scalar(self, units):
        family = HashFamily(8)
        table = minhash_units(family, units)
        for row, unit in enumerate(units):
            assert np.array_equal(table[row], minhash_unit(family, unit))
