"""One benchmark workload, run in this process; the last stdout line is its result.

Usage (``run.py`` starts this in a fresh process; run that instead):

    python3 perfbench/worker.py --workload train-xsmall --seed 0 --seconds 30 \
        --trace 0 --t0 <time.monotonic() when the process was started>

The timed operations call only the package's entry points: ``training.train``,
``training.encode_dataset``/``predict_batches``, ``cli.run`` and
``python -m hashmixer.cli``. Set-up uses ``projection.build_cache``/
``save_cache``/``load_cache``, ``model_io.save_model``/``load_model``,
``quantize.quantize_params`` and ``vocab.load_vocab``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from hashmixer import (  # noqa: E402
    cli, data, hashing, mixer, model_io, projection, quantize, training, vocab)

import checks  # noqa: E402
import inputs  # noqa: E402
from tracer import Tracer  # noqa: E402

N_HASHES = 64
HIDDEN = 256
DEPTH = 2
BATCH = 256
REQUESTS = 1000
# The host's speed drifts by a fifth or more over seconds to minutes,
# so the operations after ``train()`` run in rounds spread over the
# rest of the run, and each metric pools samples from every round: a round
# is a chunk of the requests (in the first MIN_ROUNDS rounds), build-cache,
# eval of both model files, PROJECT_PER_ROUND projects and COLD_PER_ROUND
# cold predicts; on ``serve`` also the fine-tune.
MIN_ROUNDS = 3
COLD_PER_ROUND = 2
PROJECT_PER_ROUND = 2
# build-cache repeats within a round until it has fingerprinted this many
# units, so a 383-unit vocabulary is timed over more than a few milliseconds
CACHE_UNITS_PER_ROUND = 10_000

# train workloads: the geometry, the data size and the training schedule
TRAIN = {
    "train-xsmall": dict(window=0, seq=32, bottleneck=64, n_train=5000, n_val=500, n_eval=256,
                         n_project=256,
                         epochs=1, lr=5e-4, check_requests=32),
    "train-base": dict(window=1, seq=64, bottleneck=256, n_train=256, n_val=128, n_eval=64,
                       n_project=128,
                       epochs=4, lr=2e-3, check_requests=16),
}
# serve also fine-tunes the served geometry for one epoch (one step) in
# every round, so that every workload reports every end-to-end metric
SERVE = dict(window=1, seq=64, bottleneck=256, n_train=128, n_eval=32, n_project=192, n_cold=8,
             epochs=1, lr=5e-4, check_requests=16, cache_check_rows=256)
WORKLOADS = ("train-xsmall", "train-base", "serve")


@dataclass
class Context:
    """Inputs and loaded artifacts shared by the timed operations and the checks."""

    work: Path
    proj: projection.ProjectionConfig
    vocab: vocab.Vocabulary
    vocab_units: list[str]
    cache: projection.FingerprintCache
    inventory: data.LabelInventory
    requests: list[data.Example]
    val_examples: list[data.Example]      # train()'s validation split
    eval_examples: list[data.Example]     # scored by ``hashmixer eval``
    project_examples: list[data.Example]
    cold_texts: list[str]
    run_config: Path
    model_f32: Path | None = None
    model_int8: Path | None = None
    params: dict | None = None          # the float weights that were saved and quantized
    qparams: dict | None = None         # their quantize_params output
    served: tuple | None = None         # load_model(model_f32)
    train_examples: list[data.Example] = field(default_factory=list)


def _write_run_config(work: Path, spec: dict, vocab_path: Path, cache_path: Path) -> Path:
    path = work / "run.json"
    doc = {
        "projection": {"kind": "minhash", "n_hashes": N_HASHES, "feature_size": 1024,
                       "window": spec["window"], "max_seq_len": spec["seq"]},
        "model": {"bottleneck": spec["bottleneck"], "hidden": HIDDEN, "depth": DEPTH,
                  "head": "token"},
        "train": {"batch_size": BATCH},
        "paths": {"vocab": str(vocab_path), "cache": str(cache_path)},
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _load_vocab_and_cache(work: Path, units: list[str]):
    vocab_path = work / "vocab.txt"
    vocab.save_vocab(units, str(vocab_path))
    voc = vocab.load_vocab(str(vocab_path))
    cache_path = work / "cache.bin"
    projection.save_cache(projection.build_cache(voc, hashing.HashFamily(N_HASHES)),
                          str(cache_path))
    cache = projection.load_cache(str(cache_path), expected_vocab_size=len(voc))
    return voc, vocab_path, cache, cache_path


def _save_models(ctx: Context, params: dict, model_cfg: mixer.ModelConfig) -> None:
    ctx.model_f32 = ctx.work / "model.bin"
    ctx.model_int8 = ctx.work / "model.q.bin"
    model_io.save_model(str(ctx.model_f32), params, model_cfg)
    ctx.qparams = quantize.quantize_params(params)
    model_io.save_quantized_model(str(ctx.model_int8), ctx.qparams, model_cfg)
    (ctx.work / "labels.json").write_text(json.dumps(list(ctx.inventory.labels)), encoding="utf-8")
    ctx.params = params


def setup_train(workload: str, seed: int, work: Path) -> Context:
    spec = TRAIN[workload]
    task = data.synth_examples(seed, spec["n_train"], n_val=spec["n_val"] + REQUESTS + 8)
    voc, vocab_path, cache, cache_path = _load_vocab_and_cache(work, task.vocab_units)
    val = task.val[: spec["n_val"]]
    extra = task.val[spec["n_val"]:]
    ctx = Context(
        work=work,
        proj=projection.ProjectionConfig(n_hashes=N_HASHES, feature_size=1024,
                                         window=spec["window"], max_seq_len=spec["seq"]),
        vocab=voc, vocab_units=task.vocab_units, cache=cache,
        inventory=data.LabelInventory.from_examples(task.train, "slots"),
        requests=extra[:REQUESTS], val_examples=val, eval_examples=val[: spec["n_eval"]],
        project_examples=val[: spec["n_project"]],
        cold_texts=[" ".join(ex.tokens) for ex in extra[REQUESTS:]],
        run_config=_write_run_config(work, spec, vocab_path, cache_path),
        train_examples=task.train,
    )
    data.save_jsonl(ctx.eval_examples, str(work / "eval.jsonl"))
    data.save_jsonl(ctx.project_examples, str(work / "project.jsonl"))
    return ctx


def setup_serve(seed: int, work: Path) -> Context:
    spec = SERVE
    units = inputs.serve_vocab(seed)
    lexicon = inputs.ZipfLexicon(seed, units)
    labels = [f"tag_{i}" for i in range(inputs.SERVE_LABELS)]

    def corpus(count: int, stream: int) -> list[data.Example]:
        utts = inputs.zipf_utterances(seed, lexicon, count, stream)
        gold = inputs.random_labels(seed + stream, utts, len(labels))
        return [data.Example(tokens=u, slot_labels=g) for u, g in zip(utts, gold)]

    voc, vocab_path, cache, cache_path = _load_vocab_and_cache(work, units)
    eval_examples = corpus(spec["n_eval"], 1)
    proj = projection.ProjectionConfig(n_hashes=N_HASHES, feature_size=1024,
                                       window=spec["window"], max_seq_len=spec["seq"])
    ctx = Context(
        work=work, proj=proj, vocab=voc, vocab_units=units, cache=cache,
        inventory=data.LabelInventory(labels=tuple(labels),
                                      index={lab: i for i, lab in enumerate(labels)}),
        requests=corpus(REQUESTS, 0), val_examples=eval_examples, eval_examples=eval_examples,
        project_examples=corpus(spec["n_project"], 2),
        cold_texts=[" ".join(ex.tokens) for ex in corpus(spec["n_cold"], 3)],
        run_config=_write_run_config(work, spec, vocab_path, cache_path),
        train_examples=corpus(spec["n_train"], 4),
    )
    data.save_jsonl(ctx.eval_examples, str(work / "eval.jsonl"))
    data.save_jsonl(ctx.project_examples, str(work / "project.jsonl"))
    model_cfg = mixer.ModelConfig(input_rows=proj.input_rows, seq_len=proj.max_seq_len,
                                  bottleneck=spec["bottleneck"], hidden=HIDDEN, depth=DEPTH,
                                  head="token", num_labels=len(labels))
    _save_models(ctx, mixer.init_params(model_cfg, seed), model_cfg)
    ctx.served = model_io.load_model(str(ctx.model_f32))
    return ctx


# --- timed operations ---------------------------------------------------------------


class Ops:
    """Counts every timed operation and every one that failed."""

    def __init__(self, tracer: Tracer | None) -> None:
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0

    def label(self, op: str) -> None:
        if self.tracer is not None:
            self.tracer.op = op

    def cli(self, argv: list[str]) -> tuple[float | None, str]:
        """``cli.run`` in this process; returns (seconds or None on failure, stdout)."""
        self.attempted += 1
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.run(argv)
        elapsed = time.perf_counter() - start
        if code != 0:
            self.failed += 1
            print(f"hashmixer {argv[0]} exited {code}", file=sys.stderr)
            return None, out.getvalue()
        return elapsed, out.getvalue()

    def cold_predict(self, ctx: Context, text: str) -> tuple[float | None, str]:
        """A one-shot ``python -m hashmixer.cli predict`` process."""
        argv = [sys.executable, "-m", "hashmixer.cli", "predict", "--model", str(ctx.model_f32),
                "--config", str(ctx.run_config), "--text", text]
        if self.tracer is not None:
            # the traced run keeps every call in this process, where the wrappers are
            return self.cli(argv[3:])
        self.attempted += 1
        env = dict(os.environ, PYTHONPATH=str(SRC))
        start = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            self.failed += 1
            print(f"cold predict exited {proc.returncode}: {proc.stderr}", file=sys.stderr)
            return None, proc.stdout
        return elapsed, proc.stdout


def train_once(ops: Ops, ctx: Context, spec: dict) -> tuple[float, training.TrainResult]:
    """One timed ``train()`` call; returns (seconds, its result)."""
    tc = training.TrainConfig(learning_rate=spec["lr"], batch_size=BATCH,
                              epochs=spec["epochs"], seed=0)
    ops.attempted += 1
    start = time.perf_counter()
    result = training.train(ctx.train_examples, ctx.val_examples, ctx.vocab, ctx.proj, tc,
                            bottleneck=spec["bottleneck"], hidden=HIDDEN, depth=DEPTH,
                            head="token", cache=ctx.cache)
    return time.perf_counter() - start, result


def closed_loop(ops: Ops, ctx: Context, featurizer, first: int, stop: int, samples: dict) -> None:
    """One client sends requests ``first..stop-1``, each after the previous
    reply, to the long-lived featurizer and the loaded float model."""
    params, model_cfg, _ = ctx.served
    for k in range(first, stop):
        ops.label(f"request {k}")
        ops.attempted += 1
        start = time.perf_counter()
        encoded = training.encode_dataset([ctx.requests[k]], featurizer, ctx.inventory, "token",
                                          strict=False)
        pred = training.predict_batches(encoded, featurizer, params, model_cfg, batch_size=1)
        samples["latency"].append(time.perf_counter() - start)
        samples["predictions"].append(pred[0])


def open_vocabulary_stats(ctx: Context) -> dict:
    """How many requests carry a token that no earlier request carried."""
    seen: set[str] = set()
    with_new = 0
    for ex in ctx.requests:
        kept = ex.tokens[: ctx.proj.max_seq_len]
        with_new += any(tok not in seen for tok in kept)
        seen.update(kept)
    return {"requests": len(ctx.requests), "requests_with_new_token": with_new,
            "distinct_tokens": len(seen)}


def serving_round(ops: Ops, ctx: Context, samples: dict, round_no: int) -> None:
    """build-cache, eval of both model files, project, and cold predicts.

    Each timed call adds (units of work, seconds) to its metric's samples.
    """
    units = len(ctx.vocab_units)
    ops.label(f"build-cache {round_no}")
    for _ in range(math.ceil(CACHE_UNITS_PER_ROUND / units)):
        seconds, _ = ops.cli(["build-cache", "--vocab", str(ctx.work / "vocab.txt"),
                              "--hashes", str(N_HASHES), "-o", str(ctx.work / "built.bin"),
                              "--quiet"])
        if seconds is not None:
            samples["cache_build"].append((units, seconds))

    ops.label(f"eval {round_no}")
    for model in (ctx.model_f32, ctx.model_int8):
        seconds, out = ops.cli(["eval", "--model", str(model), "--data",
                                str(ctx.work / "eval.jsonl"), "--config", str(ctx.run_config)])
        if seconds is not None:
            report = json.loads(out.strip().splitlines()[-1])
            samples["eval_reports"].append((model == ctx.model_int8, report))
            samples["eval"].append((report["examples"], seconds))

    ops.label(f"project {round_no}")
    for _ in range(PROJECT_PER_ROUND):
        seconds, _ = ops.cli(["project", "--config", str(ctx.run_config), "--input",
                              str(ctx.work / "project.jsonl"), "-o",
                              str(ctx.work / "features.bin"), "--quiet"])
        if seconds is not None:
            samples["project"].append((len(ctx.project_examples), seconds))

    ops.label(f"cold-predict {round_no}")
    for k in range(COLD_PER_ROUND):
        text = ctx.cold_texts[(round_no * COLD_PER_ROUND + k) % len(ctx.cold_texts)]
        seconds, out = ops.cold_predict(ctx, text)
        if seconds is not None:
            samples["predict_cold_s"].append(seconds)
            samples["cold_outputs"].append((text, json.loads(out.strip().splitlines()[-1])))


# --- output checks ---------------------------------------------------------------------


def _materialize(featurizer, examples, dtype):
    ids, valid = featurizer.encode([ex.tokens for ex in examples])
    return featurizer.materialize(ids, valid, dtype=dtype), valid


def check_outputs(ops: Ops, ctx: Context, workload: str, seed: int, samples: dict,
                  result: training.TrainResult) -> dict:
    """Run every output check; returns what they compared. Raises CheckFailed."""
    report: dict = {}
    spec = TRAIN.get(workload, SERVE)
    n_check = spec["check_requests"]
    params64, model_cfg, _ = ctx.served

    ops.label("check minhash")
    built = projection.load_cache(str(ctx.work / "built.bin"))
    checks.require(np.array_equal(built.table, ctx.cache.table),
                   "build-cache output differs from the set-up cache")
    rng = np.random.default_rng([seed, 9])
    units = len(ctx.vocab_units)
    rows = range(units) if units <= 1000 else sorted(
        rng.choice(units, size=SERVE["cache_check_rows"], replace=False).tolist())
    report["cache_rows_checked"] = checks.check_cache_rows(built.table, ctx.vocab_units, rows)

    ops.label("check counting")
    featurizer = projection.SequenceFeaturizer(ctx.vocab, ctx.proj, cache=ctx.cache)
    sample = ctx.requests[:n_check]
    feats32, valid = _materialize(featurizer, sample, np.float32)
    checks.check_counting_invariant(feats32, valid, N_HASHES, ctx.proj.feature_size)
    dumped = model_io.load_features(str(ctx.work / "features.bin"))
    checks.require(len(dumped) == len(ctx.project_examples), "feature dump has the wrong count")
    checks.check_counting_invariant(np.stack([m.data for m in dumped]),
                                    np.array([m.valid_len for m in dumped]),
                                    N_HASHES, ctx.proj.feature_size)

    ops.label("check forward")
    feats64, valid = _materialize(featurizer, sample, np.float64)
    report["positions_checked_float"] = checks.check_predictions(
        feats64, valid, samples["predictions"][:n_check], params64, DEPTH)
    int8_params, _, was_quantized = model_io.load_model(str(ctx.model_int8))
    checks.require(was_quantized, "the int8 model file does not load as quantized")
    encoded = training.encode_dataset(sample, featurizer, ctx.inventory, "token", strict=False)
    int8_preds = training.predict_batches(encoded, featurizer, int8_params, model_cfg)
    dequantized = {k: q.values.astype(np.float64) * q.scale for k, q in ctx.qparams.items()}
    report["positions_checked_int8"] = checks.check_predictions(
        feats64, valid, int8_preds, dequantized, DEPTH)

    ops.label("check quantization")
    checks.check_quantization_step(ctx.params, int8_params,
                                   {k: q.scale for k, q in ctx.qparams.items()})

    ops.label("check gradient")
    grad_cfg = mixer.ModelConfig(input_rows=ctx.proj.input_rows, seq_len=ctx.proj.max_seq_len,
                                 bottleneck=model_cfg.bottleneck, hidden=HIDDEN, depth=DEPTH,
                                 head="token", num_labels=model_cfg.num_labels)
    grad_params = mixer.init_params(grad_cfg, seed)
    pair = (ctx.train_examples or ctx.requests)[:2]
    enc = training.encode_dataset(pair, featurizer, ctx.inventory, "token", strict=False)
    inputs64 = featurizer.materialize(enc.ids, enc.valid, dtype=np.float64)

    def loss_fn(p, x):
        logits, _ = mixer.forward_batch(x, enc.valid, p, grad_cfg)
        return training.cross_entropy_masked(logits, enc.labels, head="token")[0]

    logits, record = mixer.forward_batch(inputs64, enc.valid, grad_params, grad_cfg)
    _, upstream = training.cross_entropy_masked(logits, enc.labels, head="token")
    grads, input_grad = mixer.backward_batch(record, upstream, grad_params, grad_cfg)
    report["gradient_rel_error"] = checks.check_directional_gradient(
        loss_fn, grad_params, inputs64, grads, input_grad, seed)

    ops.label("check adam")
    tc = training.TrainConfig(learning_rate=1e-3)
    before = {k: v.copy() for k, v in grad_params.items()}
    state = training.OptimizerState.fresh(grad_params)
    after, _ = training.adam_step(grad_params, grads, state, tc)
    checks.check_adam_first_step(before, after, grads, tc.learning_rate, tc.adam_eps)

    ops.label("check cold-predict")
    checks.require(bool(samples["cold_outputs"]), "no cold predict output")
    for text, payload in samples["cold_outputs"]:
        tokens = vocab.pre_tokenize(text)
        ex = data.Example(tokens=tokens, slot_labels=["O"] * len(tokens))
        enc = training.encode_dataset([ex], featurizer, ctx.inventory, "token", strict=False)
        pred = training.predict_batches(enc, featurizer, params64, model_cfg)[0]
        checks.check_cold_predict(payload, [ctx.inventory.labels[int(i)] for i in pred])

    ops.label("check eval")
    for quantized, rep in samples["eval_reports"]:
        checks.check_eval_report(rep, len(ctx.eval_examples), quantized)

    ops.label("check train")
    checks.require(all(math.isfinite(e["train_loss"]) for e in result.log),
                   f"non-finite training loss in {result.log}")
    if workload not in TRAIN:
        return report  # one epoch on random serving labels is not expected to learn
    checks.check_training_learns(result.log, len(result.inventory.labels))
    enc = training.encode_dataset(ctx.val_examples, featurizer, result.inventory, "token",
                                  strict=False)
    preds = training.predict_batches(enc, featurizer, result.params, result.model_cfg)
    pred_labels = [[result.inventory.labels[int(i)] for i in p] for p in preds]
    gold = [ex.slot_labels for ex in ctx.val_examples]
    accuracy = checks.exact_match(pred_labels, gold)
    checks.require(abs(accuracy - result.best_metric) < 1e-9,
                   f"recomputed exact match {accuracy} differs from train's {result.best_metric}")
    report["majority_share"] = checks.check_accuracy(accuracy, gold)
    report["val_exact_match"] = accuracy
    report["final_train_loss"] = result.log[-1]["train_loss"]
    return report


# --- the run ---------------------------------------------------------------------------


def measure(ops: Ops, ctx: Context, workload: str, seconds: float):
    samples: dict[str, list] = {k: [] for k in (
        "train", "latency", "predictions", "cache_build", "eval", "project", "predict_cold_s",
        "eval_reports", "cold_outputs")}
    started = time.perf_counter()
    spec = TRAIN.get(workload, SERVE)
    examples_per_call = len(ctx.train_examples) * spec["epochs"]
    result = None
    if workload in TRAIN:
        # one long call, as a user trains; its own length steadies it
        ops.label("train")
        call, result = train_once(ops, ctx, spec)
        samples["train"].append((examples_per_call, call))
        ops.label("serve-prep")
        _save_models(ctx, result.params, result.model_cfg)
        ctx.served = model_io.load_model(str(ctx.model_f32))
    phase_s = {"before_rounds": time.perf_counter() - started}

    featurizer = projection.SequenceFeaturizer(ctx.vocab, ctx.proj, cache=ctx.cache)
    chunk_ends = np.linspace(0, len(ctx.requests), MIN_ROUNDS + 1).astype(int)
    rounds_start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or (time.perf_counter() - started
                                  + (time.perf_counter() - rounds_start) / rounds <= seconds):
        if workload not in TRAIN:
            ops.label(f"train {rounds}")
            call, result = train_once(ops, ctx, spec)
            samples["train"].append((examples_per_call, call))
        if rounds < MIN_ROUNDS:
            closed_loop(ops, ctx, featurizer, chunk_ends[rounds], chunk_ends[rounds + 1],
                        samples)
        serving_round(ops, ctx, samples, rounds)
        rounds += 1
    phase_s["rounds"] = time.perf_counter() - rounds_start
    phase_s["requests"] = float(sum(samples["latency"]))
    lat_ms = np.array(samples["latency"]) * 1e3
    metrics = {"predict_p50_ms": float(np.percentile(lat_ms, 50))}
    # throughputs are total work over total time, which averages the run's
    # slow and fast stretches
    totals = {key: [sum(col) for col in zip(*samples[key])]
              for key in ("train", "eval", "project")}
    metrics["train_examples_per_s"] = totals["train"][0] / totals["train"][1]
    phase_s["train_calls"] = totals["train"][1]
    # every build-cache call repeats the same work, so the median call is the
    # program's cost; the host's interruptions of single calls drop out
    metrics["cache_build_us_per_unit"] = statistics.median(
        seconds / units for units, seconds in samples["cache_build"]) * 1e6
    metrics["eval_examples_per_s"] = totals["eval"][0] / totals["eval"][1]
    metrics["project_examples_per_s"] = totals["project"][0] / totals["project"][1]
    metrics["predict_cold_s"] = statistics.median(samples["predict_cold_s"])
    # reported, not gated: see "Dropped metric" in the README
    info = dict(open_vocabulary_stats(ctx), predict_p99_ms=float(np.percentile(lat_ms, 99)),
                rounds=rounds, phase_s=phase_s,
                samples={k: len(v) for k, v in samples.items()})
    return metrics, samples, result, info


UNITS = {
    "setup_s": "s", "train_examples_per_s": "examples/s", "eval_examples_per_s": "examples/s",
    "predict_p50_ms": "ms", "predict_cold_s": "s",
    "project_examples_per_s": "examples/s", "cache_build_us_per_unit": "us",
    "peak_rss_mb": "MB",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"tmp-{os.getpid()}"
    work.mkdir()
    try:
        if args.workload == "serve":
            ctx = setup_serve(args.seed, work)
        else:
            ctx = setup_train(args.workload, args.seed, work)
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        ops = Ops(tracer)
        metrics, samples, result, info = measure(ops, ctx, args.workload, args.seconds)
        metrics["setup_s"] = setup_s
        # before the checks, whose float64 copies are not the program's memory
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        correct = True
        checks_start = time.perf_counter()
        try:
            info["checks"] = check_outputs(ops, ctx, args.workload, args.seed, samples, result)
        except checks.CheckFailed as exc:
            print(f"output check failed: {exc}", file=sys.stderr)
            correct = False
        info["phase_s"]["checks"] = time.perf_counter() - checks_start
        print(json.dumps({"info": info}))
        if tracer is not None:
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(str(trace_path), {"workload": args.workload, "seed": args.seed,
                                           "traced_metrics": metrics})
            out_metrics = tracer.metrics()
        else:
            out_metrics = {name: {"value": metrics[name], "unit": unit}
                           for name, unit in UNITS.items()}
        print(json.dumps({"correct": correct, "attempted": ops.attempted,
                          "failed": ops.failed, "metrics": out_metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
