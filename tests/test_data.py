import pytest

from hashmixer.data import (
    Example,
    LabelInventory,
    import_mtop,
    import_multiatis,
    load_jsonl,
    save_jsonl,
    synth_examples,
)
from hashmixer.errors import DataError

from conftest import synth_dataset


class TestExample:
    def test_classification(self):
        ex = Example(tokens=["book", "a", "flight"], class_label="flight")
        assert ex.slot_labels is None

    def test_tagging(self):
        ex = Example(tokens=["wake", "me"], slot_labels=["O", "O"])
        assert ex.class_label is None

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Example(tokens=["a", "b"], slot_labels=["O"])

    def test_needs_some_label(self):
        with pytest.raises(ValueError):
            Example(tokens=["a"])


class TestJsonl:
    def test_load_both_kinds(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"tokens":["book","a","flight"],"label":"flight"}\n'
            '{"tokens":["wake","me"],"slots":["O","O"]}\n',
            encoding="utf-8",
        )
        examples = load_jsonl(str(path))
        assert examples[0].class_label == "flight"
        assert examples[1].slot_labels == ["O", "O"]

    def test_error_reports_line_number(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"tokens":["a"],"slots":["O"]}\n{"tokens":["a","b"],"slots":["O"]}\n',
            encoding="utf-8",
        )
        with pytest.raises(DataError, match=":2:"):
            load_jsonl(str(path))

    def test_empty_token_list_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"tokens":["a"],"slots":["O"]}\n{"tokens":[],"slots":[]}\n',
                        encoding="utf-8")
        with pytest.raises(DataError, match=":2:"):
            load_jsonl(str(path))

    def test_invalid_json_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"tokens":["a"],"slots":["O"]}\nnot json\n', encoding="utf-8")
        with pytest.raises(DataError, match=":2:"):
            load_jsonl(str(path))

    def test_round_trip_with_unicode(self, tmp_path):
        examples = [
            Example(tokens=["नमस्ते", "!"], slot_labels=["GREET", "O"]),
            Example(tokens=["中文"], class_label="zh"),
        ]
        path = str(tmp_path / "u.jsonl")
        save_jsonl(examples, path)
        assert load_jsonl(path) == examples


class TestLabelInventory:
    def test_order_is_first_appearance(self):
        examples = [Example(tokens=["a", "b"], slot_labels=["X", "Y"]),
                    Example(tokens=["c"], slot_labels=["X"])]
        inv = LabelInventory.from_examples(examples, "slots")
        assert inv.labels == ("X", "Y")
        assert inv.index == {"X": 0, "Y": 1}

    def test_classification_field(self):
        examples = [Example(tokens=["a"], class_label="p"),
                    Example(tokens=["b"], class_label="q")]
        inv = LabelInventory.from_examples(examples, "label")
        assert inv.labels == ("p", "q")

    def test_missing_field_is_data_error(self):
        with pytest.raises(DataError, match="example 0"):
            LabelInventory.from_examples([Example(tokens=["a"], class_label="x")], "slots")


class TestImportMtop:
    def test_space_separated_columns(self, tmp_path):
        raw = tmp_path / "raw.tsv"
        raw.write_text(
            "1\twake me up\tO O O\n"
            "2\tplay music\tO B-GENRE\n"
            "3\tbad row here\tO O\n",  # token/label count mismatch
            encoding="utf-8",
        )
        out = str(tmp_path / "out.jsonl")
        summary = import_mtop(str(raw), {"tokens": 1, "slots": 2}, out)
        assert summary["examples"] == 2
        assert summary["skipped"] == 1
        assert summary["skipped_rows"] == [3]
        assert summary["labels"] == 2
        examples = load_jsonl(out)
        assert examples[0].tokens == ["wake", "me", "up"]

    def test_json_array_columns(self, tmp_path):
        raw = tmp_path / "raw.tsv"
        raw.write_text('x\t["a","b"]\t["O","B-X"]\n', encoding="utf-8")
        out = str(tmp_path / "out.jsonl")
        summary = import_mtop(str(raw), {"tokens": 1, "slots": 2}, out)
        assert summary["examples"] == 1
        assert load_jsonl(out)[0].slot_labels == ["O", "B-X"]

    def test_import_is_deterministic(self, tmp_path):
        raw = tmp_path / "raw.tsv"
        raw.write_text("1\ta b\tO O\n2\tc\tO\n", encoding="utf-8")
        out1, out2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        import_mtop(str(raw), {"tokens": 1, "slots": 2}, out1)
        import_mtop(str(raw), {"tokens": 1, "slots": 2}, out2)
        from pathlib import Path

        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    def test_too_few_columns_is_an_error(self, tmp_path):
        raw = tmp_path / "raw.tsv"
        raw.write_text("only one column\n", encoding="utf-8")
        with pytest.raises(DataError, match=":1:"):
            import_mtop(str(raw), {"tokens": 1, "slots": 2}, str(tmp_path / "o.jsonl"))


class TestImportMultiatis:
    def test_basic(self, tmp_path):
        raw = tmp_path / "raw.tsv"
        raw.write_text(
            "id\tutterance\tintent\n"
            "1\tlist flights to denver\tflight\n"
            "2\twhat is the fare\tairfare\n",
            encoding="utf-8",
        )
        out = str(tmp_path / "out.jsonl")
        summary = import_multiatis(
            str(raw), {"text": 1, "intent": 2, "skip_header": True}, out
        )
        assert summary["examples"] == 2
        assert summary["labels"] == 2
        examples = load_jsonl(out)
        assert examples[0].class_label == "flight"
        assert examples[0].tokens[0] == "list"

    def test_empty_fields_skipped(self, tmp_path):
        raw = tmp_path / "raw.tsv"
        raw.write_text("1\t\tflight\n2\thello\t\n3\tok then\tx\n", encoding="utf-8")
        out = str(tmp_path / "out.jsonl")
        summary = import_multiatis(str(raw), {"text": 1, "intent": 2}, out)
        assert summary["examples"] == 1
        assert summary["skipped"] == 2


class TestSynthTask:
    def test_deterministic(self, tmp_path):
        a = synth_examples(seed=5, n_examples=50, vocab_size=40, n_labels=4)
        b = synth_examples(seed=5, n_examples=50, vocab_size=40, n_labels=4)
        assert a.train == b.train
        assert a.val == b.val
        assert a.vocab_units == b.vocab_units
        d1 = synth_dataset(seed=5, n_examples=50, vocab_size=40, n_labels=4,
                           out_dir=str(tmp_path / "one"))
        d2 = synth_dataset(seed=5, n_examples=50, vocab_size=40, n_labels=4,
                           out_dir=str(tmp_path / "two"))
        from pathlib import Path

        assert Path(d1["train"]).read_bytes() == Path(d2["train"]).read_bytes()
        assert Path(d1["vocab"]).read_bytes() == Path(d2["vocab"]).read_bytes()

    def test_every_label_appears_roughly_uniformly(self):
        task = synth_examples(seed=9, n_examples=400, vocab_size=100, n_labels=8)
        counts = {}
        for ex in task.train:
            for lab in ex.slot_labels:
                counts[lab] = counts.get(lab, 0) + 1
        assert len(counts) == 8
        total = sum(counts.values())
        # generous chi-square-style sanity bound against uniform
        for lab, c in counts.items():
            assert 0.4 / 8 < c / total < 2.5 / 8, (lab, c / total)

    def test_context_dependent_fraction_near_ten_percent(self):
        task = synth_examples(seed=3, n_examples=2000, vocab_size=200)
        echo = set(task.echo_words)
        total = ne = 0
        for ex in task.train:
            for tok in ex.tokens:
                total += 1
                ne += tok in echo
        assert abs(ne / total - 0.10) < 0.01

    def test_echo_tokens_copy_previous_label(self):
        task = synth_examples(seed=4, n_examples=200, vocab_size=60, n_labels=5)
        echo = set(task.echo_words)
        for ex in task.train:
            for i, tok in enumerate(ex.tokens):
                if tok in echo:
                    assert i > 0
                    assert ex.tokens[i - 1] not in echo
                    assert ex.slot_labels[i] == ex.slot_labels[i - 1]
                else:
                    assert ex.slot_labels[i] == task.word_label[tok]

    def test_vocab_units_unique_and_cover_lexicon(self):
        task = synth_examples(seed=6, n_examples=10, vocab_size=30, n_labels=3)
        assert len(set(task.vocab_units)) == len(task.vocab_units)
        assert task.vocab_units[0] == "[UNK]"
        for word in list(task.word_label) + task.echo_words:
            assert word in task.vocab_units

    def test_lengths_respect_range(self):
        task = synth_examples(seed=8, n_examples=100, vocab_size=40,
                              seq_len_range=(3, 7), n_labels=3)
        for ex in task.train + task.val:
            assert 3 <= len(ex.tokens) <= 7

    def test_dataset_files_load_back(self, tmp_path):
        paths = synth_dataset(seed=7, n_examples=30, vocab_size=25, n_labels=3,
                              out_dir=str(tmp_path))
        train = load_jsonl(paths["train"])
        val = load_jsonl(paths["val"])
        assert len(train) == 30
        assert len(val) == 50  # floor of 50 validation examples
        from hashmixer.vocab import load_vocab

        vocab = load_vocab(paths["vocab"])
        assert all(tok in vocab.index for ex in train for tok in ex.tokens)

    def test_label_count_validation(self):
        with pytest.raises(ValueError):
            synth_examples(seed=1, n_examples=5, n_labels=1)
