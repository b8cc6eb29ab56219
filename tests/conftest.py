import os
import struct

import numpy as np
import pytest

from hashmixer.data import save_jsonl, synth_examples
from hashmixer.hashing import HashFamily
from hashmixer.model_io import MODEL_MAGIC
from hashmixer.vocab import Vocabulary, save_vocab


def synth_dataset(
    seed: int,
    n_examples: int,
    vocab_size: int = 300,
    seq_len_range: tuple[int, int] = (6, 16),
    n_labels: int = 20,
    out_dir: str = ".",
) -> dict:
    """Write the synthetic task's train/val JSONL and vocabulary files."""
    task = synth_examples(seed, n_examples, vocab_size, seq_len_range, n_labels)
    os.makedirs(out_dir, exist_ok=True)
    train_path = os.path.join(out_dir, "train.jsonl")
    val_path = os.path.join(out_dir, "val.jsonl")
    vocab_path = os.path.join(out_dir, "vocab.txt")
    save_jsonl(task.train, train_path)
    save_jsonl(task.val, val_path)
    save_vocab(task.vocab_units, vocab_path)
    return {"train": train_path, "val": val_path, "vocab": vocab_path}


MODEL_HEADER = "<IIIIIIBII"
MODEL_HEADER_FIELDS = ("version", "input_rows", "seq_len", "bottleneck", "hidden", "depth",
                       "head", "num_labels", "tensor_count")


def patch_model_header(path, **changes) -> None:
    """Rewrite named fields of a model container's header in place."""
    blob = path.read_bytes()
    at, end = len(MODEL_MAGIC), len(MODEL_MAGIC) + struct.calcsize(MODEL_HEADER)
    fields = dict(zip(MODEL_HEADER_FIELDS, struct.unpack(MODEL_HEADER, blob[at:end])))
    fields.update(changes)
    path.write_bytes(blob[:at] + struct.pack(MODEL_HEADER, *fields.values()) + blob[end:])


class TensorList(list):
    """``(name, tensor)`` pairs that ``save_model`` writes as listed, repeated names included."""

    def items(self):
        return self


@pytest.fixture(scope="session")
def family64() -> HashFamily:
    return HashFamily(64)


@pytest.fixture(scope="session")
def tiny_vocab() -> Vocabulary:
    units = ["[UNK]", "Bring", "##ing", "the", "it", "at", "a", "##t", "b", "##ring"]
    return Vocabulary.from_units(units)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
