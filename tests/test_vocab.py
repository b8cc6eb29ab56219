import hashlib
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hashmixer.errors import DataError
from hashmixer.hashing import HashFamily, minhash_unit
from hashmixer.projection import build_cache
from hashmixer.vocab import Vocabulary, load_vocab, pre_tokenize, tokenize_word

PUBLISHED_VOCAB = os.environ.get("HASHMIXER_VOCAB")


@pytest.mark.skipif(not PUBLISHED_VOCAB, reason="set HASHMIXER_VOCAB to a "
                    "multilingual-cased vocabulary file to run")
def test_published_multilingual_vocab_size():
    vocab = load_vocab(PUBLISHED_VOCAB)
    assert abs(len(vocab) - 119_547) / 119_547 < 0.02


class TestLoadVocab:
    def test_four_line_file(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("[UNK]\nBring\n##ing\nthe\n", encoding="utf-8")
        vocab = load_vocab(str(path))
        assert len(vocab) == 4
        assert vocab.index["##ing"] == 2
        assert vocab.units[3] == "the"

    def test_duplicate_line_names_the_offender(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("[UNK]\nthe\nthe\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 3.*'the'"):
            load_vocab(str(path))

    def test_missing_unk(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("the\ncat\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"\[UNK\]"):
            load_vocab(str(path))

    def test_digest_is_sha256_of_the_units_one_per_line(self, tmp_path):
        expected = hashlib.sha256("[UNK]\nBring\n##ing\nd\u00e9j\u00e0".encode("utf-8")).digest()
        path = tmp_path / "vocab.txt"
        for text in ("[UNK]\nBring\n##ing\nd\u00e9j\u00e0\n",
                     "[UNK]\r\nBring\r\n##ing\r\nd\u00e9j\u00e0"):
            path.write_bytes(text.encode("utf-8"))
            vocab = load_vocab(str(path))
            assert vocab.digest == Vocabulary.from_units(list(vocab.units)).digest
            assert vocab.digest == expected
        swapped = Vocabulary.from_units(["[UNK]", "##ing", "Bring", "d\u00e9j\u00e0"])
        assert swapped.digest != expected

    def test_units_are_split_on_line_feeds_only(self, tmp_path):
        # other Unicode line breaks stay inside their unit; CRLF and CR end a line
        lines = ["[UNK]", "z\x85w", "q\x0cr", "v\x0bu", "s\x1ct", "p\u2028o", "n\u2029m", "k"]
        path = tmp_path / "vocab.txt"
        path.write_bytes(("\n".join(lines[:-2]) + "\r\n" + lines[-2] + "\r" + lines[-1] + "\n")
                         .encode("utf-8"))
        vocab = load_vocab(str(path))
        assert vocab.units == tuple(lines)
        family = HashFamily(8)
        table = build_cache(vocab, family).table
        for row, unit in enumerate(lines):
            assert np.array_equal(table[row], minhash_unit(family, unit)), unit

    @pytest.mark.parametrize("units", [["[UNK]", "a\nb", "c"], ["[UNK]", "a", "b\nc"]])
    def test_digest_rejects_a_unit_holding_a_line_feed(self, units):
        # joined by line feeds, these two would share one digest
        with pytest.raises(DataError, match="line feed"):
            Vocabulary.from_units(units).digest

    @given(units=st.lists(st.text(st.one_of(st.characters(blacklist_characters="\n\r",
                                                           blacklist_categories=("Cs",)),
                                            st.sampled_from("\x85\u2028\u00e9\u8a9e#")),
                                  min_size=1, max_size=6),
                          unique=True, max_size=8),
           ending=st.sampled_from(["\n", "\r\n", "\r"]), final=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_file_loads_as_its_units(self, tmp_path_factory, units, ending, final):
        # the one-pass load agrees with the checked in-memory build, digest included
        units = ["[UNK]", *(u for u in units if u != "[UNK]")]
        path = tmp_path_factory.mktemp("vocab") / "vocab.txt"
        path.write_bytes((ending.join(units) + (ending if final else "")).encode("utf-8"))
        loaded, built = load_vocab(str(path)), Vocabulary.from_units(units)
        assert loaded.units == built.units
        assert loaded.index == built.index
        assert loaded.digest == built.digest

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_vocab(str(tmp_path / "absent.txt"))

    def test_empty_line_rejected(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("[UNK]\n\nthe\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 2"):
            load_vocab(str(path))


class TestPreTokenize:
    def test_whitespace_and_punctuation(self):
        assert pre_tokenize("Bring it!") == ["Bring", "it", "!"]

    def test_empty(self):
        assert pre_tokenize("") == []
        assert pre_tokenize("   \t\n") == []

    def test_interior_punctuation(self):
        assert pre_tokenize("a,b") == ["a", ",", "b"]

    def test_unicode_whitespace(self):
        assert pre_tokenize("one two") == ["one", "two"]

    @given(st.text(max_size=40))
    @settings(max_examples=100)
    def test_never_emits_empty_tokens(self, text):
        assert all(tok for tok in pre_tokenize(text))


def texts(rows, vocab):
    return [vocab.units[r] for r in rows]


class TestTokenizeWord:
    def test_documented_split(self, tiny_vocab):
        rows = tokenize_word("Bringing", tiny_vocab)
        assert texts(rows, tiny_vocab) == ["Bring", "##ing"]
        assert [u.startswith("##") for u in texts(rows, tiny_vocab)] == [False, True]

    def test_whole_word_match(self, tiny_vocab):
        rows = tokenize_word("the", tiny_vocab)
        assert texts(rows, tiny_vocab) == ["the"]

    def test_unknown_character_yields_unk(self, tiny_vocab):
        rows = tokenize_word("zzz", tiny_vocab)
        assert texts(rows, tiny_vocab) == ["[UNK]"]
        assert not tiny_vocab.units[rows[0]].startswith("##")

    def test_empty_word_rejected(self, tiny_vocab):
        with pytest.raises(ValueError):
            tokenize_word("", tiny_vocab)

    def test_greedy_prefix_is_longest(self, tiny_vocab):
        # brute force: the first emitted unit must be the longest vocab prefix
        word = "att"
        rows = tokenize_word(word, tiny_vocab)
        assert texts(rows, tiny_vocab) == ["at", "##t"]
        longest = max(
            (word[:k] for k in range(1, len(word) + 1) if word[:k] in tiny_vocab.index),
            key=len,
        )
        assert tiny_vocab.units[rows[0]] == longest

    def test_never_returns_empty_list(self, tiny_vocab):
        for word in ("Bringing", "zzz", "a", "bat"):
            assert tokenize_word(word, tiny_vocab)

    def test_word_starting_with_a_continuation_unit(self, tiny_vocab):
        # a dataset token may itself be a ``##`` unit: its first piece is that unit's row
        assert texts(tokenize_word("##ing", tiny_vocab), tiny_vocab) == ["##ing"]

    @given(st.text(alphabet="abct", min_size=1, max_size=12))
    @settings(max_examples=150)
    def test_round_trip_coverage(self, word):
        units = ["[UNK]", "a", "b", "c", "t", "##a", "##b", "##c", "##t", "at", "##at"]
        vocab = Vocabulary.from_units(units)
        pieces = texts(tokenize_word(word, vocab), vocab)
        assert pieces
        if pieces != ["[UNK]"]:
            rebuilt = "".join(u.removeprefix("##") for u in pieces)
            assert rebuilt == word
