import os

import numpy as np
import pytest

from hashmixer.data import save_jsonl, synth_examples
from hashmixer.hashing import HashFamily
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
