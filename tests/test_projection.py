import dataclasses
import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hashmixer.errors import DataError, ModelFileError
from hashmixer.hashing import HashFamily, all_hashes, char_trigrams, minhash_unit, string_hash
from hashmixer.projection import (
    CACHE_MAGIC,
    FingerprintCache,
    ProjectionConfig,
    SequenceFeaturizer,
    binary_feature,
    build_cache,
    counting_feature,
    load_cache,
    save_cache,
    simhash_feature,
    token_feature,
    token_fingerprint,
    tsp_feature,
)
from hashmixer.vocab import Vocabulary, load_vocab, tokenize_word

words = st.text(alphabet="abcdefgh", min_size=1, max_size=12)


class TestProjectionConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProjectionConfig(kind="nope")
        with pytest.raises(ValueError):
            ProjectionConfig(n_hashes=0)
        with pytest.raises(ValueError):
            ProjectionConfig(kind="tsp", feature_size=33)
        with pytest.raises(ValueError):
            ProjectionConfig(simhash_bits=65)

    def test_input_rows(self):
        cfg = ProjectionConfig(feature_size=1024, window=1)
        assert cfg.input_rows == 3072
        assert ProjectionConfig(kind="simhash", simhash_bits=32, window=2).input_rows == 5 * 32


class TestCache:
    def test_rows_match_unit_fingerprints(self, tiny_vocab, family64):
        cache = build_cache(tiny_vocab, family64)
        assert cache.table.shape == (len(tiny_vocab), 64)
        row = tiny_vocab.index["Bring"]
        assert np.array_equal(cache.table[row], minhash_unit(family64, "Bring"))
        cont = tiny_vocab.index["##ing"]
        assert np.array_equal(cache.table[cont], all_hashes(family64, "##ing"))

    def test_rebuild_is_bit_identical(self, tiny_vocab, family64):
        a = build_cache(tiny_vocab, family64)
        b = build_cache(tiny_vocab, family64)
        assert np.array_equal(a.table, b.table)

    def test_width32_truncates_consistently(self, tiny_vocab, family64):
        wide = build_cache(tiny_vocab, family64, width=64)
        narrow = build_cache(tiny_vocab, family64, width=32)
        assert narrow.table.dtype == np.uint32
        assert np.array_equal(narrow.table, (wide.table & np.uint64(0xFFFFFFFF)).astype(np.uint32))

    def test_save_load_round_trip(self, tiny_vocab, family64, tmp_path):
        for width in (32, 64):
            cache = build_cache(tiny_vocab, family64, width=width)
            path = str(tmp_path / f"cache{width}.bin")
            save_cache(cache, path)
            loaded = load_cache(path, expected_vocab_size=len(tiny_vocab))
            assert loaded.width == width
            assert loaded.n_hashes == 64
            assert np.array_equal(loaded.table, cache.table)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTACACHE" + b"\x00" * 32)
        with pytest.raises(ModelFileError):
            load_cache(str(path))

    def test_vocab_size_mismatch_rejected(self, tiny_vocab, family64, tmp_path):
        cache = build_cache(tiny_vocab, HashFamily(4))
        path = str(tmp_path / "c.bin")
        save_cache(cache, path)
        with pytest.raises(ModelFileError, match="vocabulary"):
            load_cache(path, expected_vocab_size=len(tiny_vocab) + 1)

    # sha256 of the table bytes after the header, as written before the header held a digest
    TABLE_SHA256 = {32: "69402eabf0b3af79bbded564aba156902db70461016596de2aa6d7a17f158ee0",
                    64: "f63ba2743f5f80299dec45279ad3d930ed73c9e80845d9cd6729661cea26e5dd"}

    @pytest.mark.parametrize("width", [32, 64])
    def test_header_records_the_vocabulary_digest(self, tiny_vocab, family64, tmp_path, width):
        path = str(tmp_path / "c.bin")
        save_cache(build_cache(tiny_vocab, family64, width=width), path)
        blob = open(path, "rb").read()
        header = struct.calcsize("<IQIB32s")
        digest = hashlib.sha256("\n".join(tiny_vocab.units).encode("utf-8")).digest()
        assert blob[: len(CACHE_MAGIC)] == CACHE_MAGIC
        assert struct.unpack_from("<IQIB32s", blob, len(CACHE_MAGIC)) == (
            2, len(tiny_vocab), 64, width, digest)
        table = blob[len(CACHE_MAGIC) + header:]
        assert hashlib.sha256(table).hexdigest() == self.TABLE_SHA256[width]
        assert load_cache(path).vocab_digest == digest == tiny_vocab.digest

    def test_version_1_cache_rejected(self, tiny_vocab, family64, tmp_path):
        table = build_cache(tiny_vocab, family64).table
        path = tmp_path / "v1.bin"
        path.write_bytes(CACHE_MAGIC + struct.pack("<IQIB", 1, len(tiny_vocab), 64, 64)
                         + table.astype("<u8").tobytes())
        with pytest.raises(ModelFileError, match="v1.bin.*rebuild it with hashmixer build-cache"):
            load_cache(str(path))


class TestTokenFingerprint:
    def test_elementwise_min_of_units(self, tiny_vocab, family64):
        cache = build_cache(tiny_vocab, family64)
        rows = tokenize_word("Bringing", tiny_vocab)
        fp = token_fingerprint(rows, cache)
        direct = np.minimum(minhash_unit(family64, "Bring"), all_hashes(family64, "##ing"))
        assert np.array_equal(fp, direct)

    def test_single_unit_passthrough(self, tiny_vocab, family64):
        cache = build_cache(tiny_vocab, family64)
        fp = token_fingerprint([tiny_vocab.index["the"]], cache)
        assert np.array_equal(fp, minhash_unit(family64, "the"))

    def test_cache_path_equals_direct_path(self, family64):
        units = ["[UNK]"] + [f"w{i}" for i in range(20)] + [f"##s{i}" for i in range(10)]
        vocab = Vocabulary.from_units(units)
        cache = build_cache(vocab, family64)
        rng = np.random.default_rng(5)
        for _ in range(50):
            picks = rng.choice(len(units), size=rng.integers(1, 4), replace=False)
            via_cache = token_fingerprint(picks.tolist(), cache)
            direct = np.minimum.reduce([minhash_unit(family64, units[i]) for i in picks])
            assert np.array_equal(via_cache, direct)

    def test_permutation_invariance(self, tiny_vocab, family64):
        cache = build_cache(tiny_vocab, family64)
        rows = tokenize_word("Bringing", tiny_vocab)
        fwd = token_fingerprint(rows, cache)
        rev = token_fingerprint(rows[::-1], cache)
        assert np.array_equal(fwd, rev)

    def test_empty_units_rejected(self, tiny_vocab, family64):
        cache = build_cache(tiny_vocab, family64)
        with pytest.raises(ValueError):
            token_fingerprint([], cache)


class TestCountingFeature:
    def test_no_collisions(self):
        feat = counting_feature(np.array([0, 1, 2, 3], dtype=np.uint64), 4)
        assert np.array_equal(feat, [1.0, 1.0, 1.0, 1.0])

    def test_collisions_accumulate(self):
        feat = counting_feature(np.array([0, 4, 8, 2], dtype=np.uint64), 4)
        assert np.array_equal(feat, [3.0, 0.0, 1.0, 0.0])

    @given(words, st.sampled_from([4, 16, 64]), st.sampled_from([8, 128, 1024]))
    @settings(max_examples=60, deadline=None)
    def test_sum_equals_hash_count(self, word, n, m):
        fp = minhash_unit(HashFamily(n), word)
        feat = counting_feature(fp, m)
        assert feat.sum() == n
        assert np.all(feat >= 0)


class TestBinaryFeature:
    def test_matches_two_loop_oracle(self, family64):
        units = ["Bring", "##ing"]
        got = binary_feature(units, family64, 64)
        expected = np.zeros(64)
        for u in units:
            for i in range(family64.size_n):
                expected[string_hash(family64, i, u) % 64] = 1.0
        assert np.array_equal(got, expected)

    def test_set_semantics_idempotent(self, family64):
        one = binary_feature(["the"], family64, 32)
        twice = binary_feature(["the"] * 2, family64, 32)
        assert np.array_equal(one, twice)
        assert set(np.unique(one)) <= {0.0, 1.0}

    def test_disjoint_positions_popcount(self):
        family = HashFamily(2)
        # with a huge m, collisions are implausible: popcount == n per unit
        feat = binary_feature(["qqq"], family, 1 << 16)
        assert feat.sum() == 2


class TestTspFeature:
    def test_pair_table(self, family64):
        bits = binary_feature(["Bring"], family64, 64)
        got = tsp_feature(["Bring"], family64, 64)
        for j in range(32):
            b0, b1 = bits[2 * j], bits[2 * j + 1]
            expected = {(0, 0): 0, (0, 1): 1, (1, 0): -1, (1, 1): 0}[(b0, b1)]
            assert got[j] == expected
        assert np.all(got[32:] == 0.0)

    def test_values_are_ternary(self, family64):
        got = tsp_feature(["hello"], family64, 128)
        assert set(np.unique(got)) <= {-1.0, 0.0, 1.0}

    def test_odd_size_rejected(self, family64):
        with pytest.raises(ValueError):
            tsp_feature(["x"], family64, 7)


class TestSimhashFeature:
    def test_single_value_is_its_low_bits(self):
        family = HashFamily(1)
        # one hash function, one trigram: the histogram holds a single vote
        value = string_hash(family, 0, "abc")
        feat = simhash_feature(["abc"], family, 16)
        expected = [(value >> p) & 1 for p in range(16)]
        assert np.array_equal(feat, np.array(expected, dtype=np.float64))

    def test_matches_bit_count_oracle(self, family64):
        units = ["Bring", "##ing"]
        l = 48
        got = simhash_feature(units, family64, l)
        hist = np.zeros(l)
        for u in units:
            grams = [u] if u.startswith("##") else char_trigrams(u)
            for gram in grams:
                for i in range(family64.size_n):
                    v = string_hash(family64, i, gram)
                    for p in range(l):
                        hist[p] += 1.0 if (v >> p) & 1 else -1.0
        assert np.array_equal(got, (hist >= 0).astype(np.float64))

    def test_tie_maps_to_one(self):
        # two hash functions and one trigram: find a unit whose two hash
        # values disagree at bit 0, making the histogram tally exactly zero
        family = HashFamily(2)
        for k in range(1000):
            unit = f"t{k}q"
            values = all_hashes(family, unit)
            if (int(values[0]) ^ int(values[1])) & 1:
                feat = simhash_feature([unit], family, 1)
                assert feat[0] == 1.0
                return
        pytest.fail("no tie-producing unit found")

    def test_length_is_bit_count(self, family64):
        assert simhash_feature(["abc"], family64, 24).shape == (24,)


def _votes(values, l):
    """Per-bit simhash tally of uint64 hash values: +1 where a bit is set, -1 where clear."""
    bits = (values[..., None] >> np.arange(l, dtype=np.uint64)) & np.uint64(1)
    return (2.0 * bits - 1.0).reshape(-1, l).sum(axis=0)


class TestContinuationToken:
    """A dataset token that is itself a ``##`` unit: the unit is hashed whole, as in any word."""

    def test_minhash_feature_is_the_whole_unit_fingerprint(self, tiny_vocab, family64):
        cache = build_cache(tiny_vocab, family64)
        cfg = ProjectionConfig(kind="minhash", feature_size=64)
        got = token_feature("##ing", tiny_vocab, cfg, cache=cache)
        assert np.array_equal(got, counting_feature(minhash_unit(family64, "##ing"), 64))

    def test_simhash_feature_hashes_the_unit_whole(self, tiny_vocab, family64):
        l = 64
        cfg = ProjectionConfig(kind="simhash", simhash_bits=l)
        whole = _votes(all_hashes(family64, "##ing"), l)
        trigrams = _votes(np.stack([all_hashes(family64, g) for g in char_trigrams("##ing")]), l)
        assert not np.array_equal(whole >= 0, trigrams >= 0)
        got = token_feature("##ing", tiny_vocab, cfg, family=family64)
        assert np.array_equal(got, (whole >= 0).astype(np.float64))
        # "Bringing" hashes its ``##ing`` the same way, next to the trigrams of "Bring"
        bring = _votes(np.stack([all_hashes(family64, g) for g in char_trigrams("Bring")]), l)
        got = token_feature("Bringing", tiny_vocab, cfg, family=family64)
        assert np.array_equal(got, (bring + whole >= 0).astype(np.float64))


def _featurize(tokens, vocab, cache, cfg):
    """One sequence through a fresh featurizer: its matrix and valid length."""
    featurizer = SequenceFeaturizer(vocab, cfg, cache=cache)
    ids, valid = featurizer.encode([tokens])
    return featurizer.materialize(ids, valid)[0], int(valid[0])


def _stacked(tokens, vocab, cache, cfg):
    """Reference matrix: per-token ``token_feature`` blocks stacked by hand."""
    m, s, w = cfg.token_feature_len, cfg.max_seq_len, cfg.window
    kept = tokens[:s]
    feats = [token_feature(tok, vocab, cfg, cache=cache) for tok in kept]
    data = np.zeros(((2 * w + 1) * m, s))
    for t in range(len(kept)):
        for j in range(2 * w + 1):
            if 0 <= t + j - w < len(kept):
                data[j * m : (j + 1) * m, t] = feats[t + j - w]
    return data


class TestProjectSequence:
    """A token sequence projected onto the model input by ``SequenceFeaturizer``."""

    @pytest.fixture()
    def setup(self, tiny_vocab, family64):
        cache = build_cache(tiny_vocab, family64)
        cfg = ProjectionConfig(kind="minhash", n_hashes=64, feature_size=8, window=1, max_seq_len=5)
        return tiny_vocab, cache, cfg

    def test_window_stacking_and_boundaries(self, setup):
        vocab, cache, cfg = setup
        tokens = ["Bring", "it", "the"]
        data, _ = _featurize(tokens, vocab, cache, cfg)
        feats = [token_feature(t, vocab, cfg, cache=cache) for t in tokens]
        m = cfg.feature_size
        col1 = np.concatenate([feats[0], feats[1], feats[2]])
        assert np.array_equal(data[:, 1], col1)
        col0 = np.concatenate([np.zeros(m), feats[0], feats[1]])
        assert np.array_equal(data[:, 0], col0)
        col2 = np.concatenate([feats[1], feats[2], np.zeros(m)])
        assert np.array_equal(data[:, 2], col2)

    def test_zero_window_rows(self, tiny_vocab, family64):
        cache = build_cache(tiny_vocab, family64)
        cfg = ProjectionConfig(feature_size=8, window=0, max_seq_len=4)
        data, _ = _featurize(["the", "it"], tiny_vocab, cache, cfg)
        assert data.shape == (8, 4)
        assert np.array_equal(data[:, 0], token_feature("the", tiny_vocab, cfg, cache=cache))

    def test_paper_scale_shape(self, tiny_vocab, family64):
        cache = build_cache(tiny_vocab, family64)
        cfg = ProjectionConfig(feature_size=1024, window=1, max_seq_len=64)
        data, _ = _featurize(["the"], tiny_vocab, cache, cfg)
        assert data.shape == (3072, 64)

    def test_empty_sequence(self, setup):
        vocab, cache, cfg = setup
        data, valid_len = _featurize([], vocab, cache, cfg)
        assert valid_len == 0
        assert not data.any()

    def test_truncation_keeps_first_s(self, setup):
        vocab, cache, cfg = setup
        tokens = ["the", "it", "at", "a", "b", "Bring", "Bring"]
        data, valid_len = _featurize(tokens, vocab, cache, cfg)
        short, _ = _featurize(tokens[:5], vocab, cache, cfg)
        assert valid_len == 5
        assert np.array_equal(data, short)
        assert np.array_equal(data, _stacked(tokens, vocab, cache, cfg))

    def test_pad_purity_all_kinds(self, tiny_vocab, family64):
        cache = build_cache(tiny_vocab, family64)
        for kind in ("minhash", "binary", "tsp", "simhash"):
            cfg = ProjectionConfig(kind=kind, feature_size=16, window=1,
                                   max_seq_len=6, simhash_bits=16)
            data, valid_len = _featurize(["the", "it"], tiny_vocab, cache, cfg)
            assert valid_len == 2
            assert not data[:, 2:].any(), kind

    def test_window_locality(self, setup):
        vocab, cache, cfg = setup
        base, _ = _featurize(["the", "it", "at", "a", "b"], vocab, cache, cfg)
        changed, _ = _featurize(["the", "it", "Bring", "a", "b"], vocab, cache, cfg)
        diff_cols = np.nonzero(np.any(base != changed, axis=0))[0]
        assert set(diff_cols) <= {1, 2, 3}

    def test_featurizer_matches_reference(self, tiny_vocab, family64):
        cache = build_cache(tiny_vocab, family64)
        for kind, window in (("minhash", 1), ("binary", 0), ("tsp", 2), ("simhash", 1)):
            cfg = ProjectionConfig(kind=kind, feature_size=16, window=window,
                                   max_seq_len=6, simhash_bits=16)
            featurizer = SequenceFeaturizer(tiny_vocab, cfg, cache=cache)
            seqs = [["the", "it", "at"], ["Bring"], ["a", "b", "the", "it", "at", "a", "b"]]
            ids, valid = featurizer.encode(seqs)
            batch = featurizer.materialize(ids, valid)
            for row, tokens in enumerate(seqs):
                assert np.array_equal(batch[row], _stacked(tokens, tiny_vocab, cache, cfg)), \
                    (kind, row)
                assert valid[row] == min(len(tokens), cfg.max_seq_len)

    def test_table_growth_interleaved_with_materialize(self, tiny_vocab, family64):
        cache = build_cache(tiny_vocab, family64)
        cfg = ProjectionConfig(feature_size=16, window=1, max_seq_len=4)
        featurizer = SequenceFeaturizer(tiny_vocab, cfg, cache=cache)
        # distinct made-up words split into known units, well past the first capacity
        pieces = ["the", "it", "at", "a", "b", "Bring"]
        conts = ["##ing", "##t", "##ring"]
        words = [p + c[2:] * k for p in pieces for c in conts for k in range(1, 40)]
        assert len(set(words)) > 2 * SequenceFeaturizer._INITIAL_ROWS
        seqs = [words[i : i + 3] for i in range(0, len(words), 3)]
        for step, lo in enumerate(range(0, len(seqs), 17)):
            chunk = seqs[lo : lo + 17]
            ids, valid = featurizer.encode(chunk)
            dtype = (np.float32, np.float64)[step % 2]
            batch = featurizer.materialize(ids, valid, dtype=dtype)
            assert batch.dtype == dtype
            for row, tokens in enumerate(chunk):
                assert np.array_equal(batch[row], _stacked(tokens, tiny_vocab, cache, cfg))
        # rows written before the table grew are still intact
        ids, valid = featurizer.encode(seqs[:2])
        for dtype in (np.float32, np.float64):
            batch = featurizer.materialize(ids, valid, dtype=dtype)
            for row, tokens in enumerate(seqs[:2]):
                assert np.array_equal(batch[row], _stacked(tokens, tiny_vocab, cache, cfg))

    def test_unknown_words_use_unk_row(self, setup):
        vocab, cache, cfg = setup
        data, valid_len = _featurize(["zzz"], vocab, cache, cfg)
        unk = token_feature("zzz", vocab, cfg, cache=cache)
        m = cfg.feature_size
        assert np.array_equal(data[m : 2 * m, 0], unk)
        assert valid_len == 1


class TestFeaturizerCacheCheck:
    """A minhash featurizer takes only a cache of its own vocabulary and hash count."""

    CFG = ProjectionConfig(n_hashes=64, feature_size=16, window=1, max_seq_len=4)

    @staticmethod
    def _rejects(vocab, cache, cfg, *names):
        with pytest.raises(DataError) as err:
            SequenceFeaturizer(vocab, cfg, cache=cache)
        for name in names:
            assert name in str(err.value)
        assert "None" not in str(err.value)  # an in-memory cache or vocabulary has no path

    def test_cache_of_another_vocabulary_is_rejected(self, tiny_vocab, family64):
        swapped = list(tiny_vocab.units)
        swapped[1], swapped[3] = swapped[3], swapped[1]
        cache = build_cache(tiny_vocab, family64)
        for other in (swapped, list(tiny_vocab.units) + ["extra"]):
            self._rejects(Vocabulary.from_units(other), cache, self.CFG, "not built from")
        assert SequenceFeaturizer(tiny_vocab, self.CFG, cache=cache).cache is cache

    def test_cache_with_another_hash_count_is_rejected(self, tiny_vocab):
        cache = build_cache(tiny_vocab, HashFamily(16))
        self._rejects(tiny_vocab, cache, self.CFG, "16 hashes", "expects 64")

    def test_messages_name_the_files(self, tiny_vocab, family64, tmp_path):
        vocab_path, cache_path = tmp_path / "vocab.txt", tmp_path / "cache.bin"
        vocab_path.write_text("\n".join(reversed(tiny_vocab.units)) + "\n", encoding="utf-8")
        save_cache(build_cache(tiny_vocab, family64), str(cache_path))
        self._rejects(load_vocab(str(vocab_path)), load_cache(str(cache_path)), self.CFG,
                      str(cache_path), str(vocab_path))

    def test_32_bit_cache_needs_a_feature_size_dividing_2_to_the_32(self, tiny_vocab):
        family = HashFamily(16)
        wide, narrow = build_cache(tiny_vocab, family), build_cache(tiny_vocab, family, width=32)
        cfg = ProjectionConfig(n_hashes=16, feature_size=1024, window=1, max_seq_len=8)
        tokens = ["Bring", "the", "it", "at", "a", "b", "zzz"]  # one vocabulary unit each
        assert np.array_equal(_featurize(tokens, tiny_vocab, narrow, cfg)[0],
                              _featurize(tokens, tiny_vocab, wide, cfg)[0])
        row = [tiny_vocab.index["Bring"]]
        assert not np.array_equal(counting_feature(token_fingerprint(row, narrow), 1000),
                                  counting_feature(token_fingerprint(row, wide), 1000))
        at_1000 = dataclasses.replace(cfg, feature_size=1000)
        self._rejects(tiny_vocab, narrow, at_1000, "32-bit", "feature_size 1000")
        assert SequenceFeaturizer(tiny_vocab, at_1000, cache=wide).cache is wide

    @pytest.mark.parametrize("kind", ["binary", "tsp", "simhash"])
    def test_other_kinds_ignore_any_cache(self, tiny_vocab, kind):
        cfg = dataclasses.replace(self.CFG, kind=kind, simhash_bits=16)
        stray = build_cache(Vocabulary.from_units(["[UNK]", "zz"]), HashFamily(8))
        assert SequenceFeaturizer(tiny_vocab, cfg, cache=stray).cache is None
        tokens = ["Bringing", "it", "the"]
        assert np.array_equal(_featurize(tokens, tiny_vocab, stray, cfg)[0],
                              _featurize(tokens, tiny_vocab, None, cfg)[0])
