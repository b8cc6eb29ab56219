#!/usr/bin/env python3
"""Seeded tiny runs of the ``hashmixer`` CLI, listed as a SHA-256 digest per output.

Run it on two source trees and compare the listings, to see whether a change
keeps seeded outputs byte-identical:

    python3 scripts/seeded_outputs.py --src src --out /tmp/head > head.txt
    python3 scripts/seeded_outputs.py --src ../base/src --out /tmp/base > base.txt
    diff base.txt head.txt

It writes a small synthetic task with the tree's own ``synth_examples``. Then,
for window 0 and 1 and for the token and the pooled head, it trains a seeded
model, quantizes it, and runs ``eval`` and ``predict`` with both model files.
Each listing line is ``<sha256>  <run>/<output>``: ``model.bin``,
``model.q.bin``, ``labels.json``, ``config.json``, ``train_log.jsonl`` without
its ``wallclock_seconds`` field, and the stdout of each ``eval`` and
``predict`` call. It also lists the ``build-cache`` output of the task's
vocabulary (``data/cache.bin``) and, for each window, the ``project`` dump of
the training set under the token run's config (``w<window>/features.bin``).
Every command runs inside ``--out`` with relative paths, so the listing does
not depend on where the trees are.

Before the CLI runs, one process runs the network itself on a fixed tiny
batch: ``forward_batch`` and ``backward_batch`` on dense and token-window
input, with the token and the pooled head, in float64 and float32. Dense
input computes every position and token windows only the live ones, so the
token cases' names end in ``-live-only``. Its lines are
``<sha256>  mixer/<case>/<output>`` for the logits, the logits of
``forward_batch(..., record=False)``, the parameter gradients and the dense
input's gradient. The hidden width (512) splits each token MLP's 288 rows
into two row blocks of 128 and 160 rows, so the last block's GELU runs over
more than ``ERF_BLOCK`` elements.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

# the synthetic task, written by the tree under test; the pooled head's class is the first tag
MAKE_DATA = """
import json, sys
from hashmixer.data import synth_examples
from hashmixer.vocab import save_vocab
task = synth_examples(seed=5, n_examples=400, vocab_size=80, seq_len_range=(4, 10), n_labels=6)
save_vocab(task.vocab_units, "vocab.txt")
for name, examples in (("train", task.train), ("val", task.val)):
    with open(name + ".jsonl", "w", encoding="utf-8") as fh:
        for ex in examples:
            row = {"tokens": ex.tokens, "slots": ex.slot_labels, "label": ex.slot_labels[0]}
            fh.write(json.dumps(row) + "\\n")
"""

# the network on one fixed batch, run by the tree under test; window 1, so 3 slots of 8 features
MIXER = """
import hashlib, itertools
import numpy as np
from hashmixer.mixer import ModelConfig, backward_batch, forward_batch, init_params
from hashmixer.projection import TokenWindows

def digest(arrays):
    h = hashlib.sha256()
    for name, a in arrays:
        h.update(f"{name} {a.dtype} {a.shape}\\n".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()

rng = np.random.default_rng(3)
n, slots, m, s = 6, 3, 8, 16
valid = np.array([16, 3, 9, 1, 12, 5])
table = np.vstack([np.zeros((1, m)), rng.integers(0, 4, size=(40, m))]).astype(np.float32)
ids = rng.integers(1, len(table), size=(n, slots, s)) * (np.arange(s) < valid[:, None, None])
windows = TokenWindows(table=table, ids=ids)
dense = np.concatenate([table[ids[:, j]].transpose(0, 2, 1) for j in range(slots)], axis=1)
for head, dtype, form in itertools.product(
        ("token", "pooled"), ("float64", "float32"), ("dense", "token")):
    cfg = ModelConfig(input_rows=slots * m, seq_len=s, bottleneck=48, hidden=512, depth=2,
                      head=head, num_labels=5)
    params = {k: v.astype(dtype) for k, v in init_params(cfg, seed=9).items()}
    inputs = dense.astype(dtype) if form == "dense" else windows
    logits, record = forward_batch(inputs, valid, params, cfg)
    unrecorded, _ = forward_batch(inputs, valid, params, cfg, record=False)
    upstream = np.random.default_rng(4).normal(size=logits.shape).astype(dtype)
    grads, input_grad = backward_batch(record, upstream, params, cfg)
    case = f"mixer/{form}-{head}-{dtype}" + ("-live-only" if form == "token" else "")
    outputs = {"logits": [("logits", logits)], "unrecorded logits": [("logits", unrecorded)],
               "gradients": sorted(grads.items())}
    if input_grad is not None:
        outputs["input gradient"] = [("input", input_grad)]
    for name, arrays in outputs.items():
        print(f"{digest(arrays)}  {case}/{name}")
"""


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", required=True, help="the tree's package directory (its src/)")
    parser.add_argument("--out", required=True, help="a new or empty working directory")
    args = parser.parse_args()
    src = os.path.abspath(args.src)
    os.makedirs(args.out, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": src}

    def call(*argv: str, cwd: str = args.out) -> bytes:
        return subprocess.run([sys.executable, *argv], cwd=cwd, env=env, check=True,
                              stdout=subprocess.PIPE).stdout

    # an installed package must not shadow the tree being measured
    package = call("-c", "import hashmixer; print(hashmixer.__file__)").decode().strip()
    if not package.startswith(src + os.sep):
        sys.exit(f"hashmixer imports from {package}, not from {src}")

    sys.stdout.write(call("-c", MIXER).decode())
    data = os.path.join(args.out, "data")
    os.makedirs(data, exist_ok=True)
    call("-c", MAKE_DATA, cwd=data)
    with open(os.path.join(data, "val.jsonl"), encoding="utf-8") as fh:
        text = " ".join(json.loads(fh.readline())["tokens"])

    cli = ("-m", "hashmixer.cli")

    def file_digest(path: str) -> str:
        with open(os.path.join(args.out, path), "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    call(*cli, "build-cache", "--vocab", "data/vocab.txt", "--hashes", "16",
         "-o", "data/cache.bin", "--quiet")
    print(f"{file_digest('data/cache.bin')}  data/cache.bin")
    for window in (0, 1):
        for head in ("token", "pooled"):
            run = f"w{window}-{head}"
            config = {
                "projection": {"kind": "minhash", "n_hashes": 16, "feature_size": 128,
                               "window": window, "max_seq_len": 12},
                "model": {"bottleneck": 16, "hidden": 32, "depth": 2, "head": head},
                "train": {"learning_rate": 2e-3, "batch_size": 64, "epochs": 2, "seed": 11},
                "paths": {"vocab": "data/vocab.txt", "train_data": "data/train.jsonl",
                          "val_data": "data/val.jsonl", "out_dir": run},
            }
            config_path = f"{run}.json"
            with open(os.path.join(args.out, config_path), "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            call(*cli, "train", "--config", config_path, "--quiet")
            call(*cli, "quantize", "--model", f"{run}/model.bin", "-o", f"{run}/model.q.bin",
                 "--quiet")
            outputs = {}
            for name in ("model.bin", "model.q.bin", "labels.json", "config.json"):
                with open(os.path.join(args.out, run, name), "rb") as fh:
                    outputs[name] = fh.read()
            with open(os.path.join(args.out, run, "train_log.jsonl"), encoding="utf-8") as fh:
                entries = [json.loads(line) for line in fh]
            outputs["train_log.jsonl"] = json.dumps(
                [{k: v for k, v in e.items() if k != "wallclock_seconds"} for e in entries]
            ).encode()
            for model in ("model.bin", "model.q.bin"):
                model_args = ("--model", f"{run}/{model}", "--config", config_path)
                outputs[f"eval {model}"] = call(*cli, "eval", *model_args,
                                                "--data", "data/val.jsonl")
                outputs[f"predict {model}"] = call(*cli, "predict", *model_args, "--text", text)
            for name, blob in outputs.items():
                print(f"{hashlib.sha256(blob).hexdigest()}  {run}/{name}")
        # the training set's dense dump under the token run's config: 400 examples, several
        # of its 64-example batches
        call(*cli, "project", "--config", f"w{window}-token.json", "--input", "data/train.jsonl",
             "-o", f"w{window}-features.bin", "--quiet")
        print(f"{file_digest(f'w{window}-features.bin')}  w{window}/features.bin")


if __name__ == "__main__":
    main()
