"""Command-line entry point wiring caches, projection, training and models.

Subcommands:

    build-cache       precompute vocabulary fingerprints into a cache file
    project           dump feature matrices for a dataset (extract once, reuse)
    train             train a model from a config, writing artifacts to --out
    eval              evaluate a (float or quantized) model file on a dataset
    quantize          convert a float model container to 8-bit
    predict           tag or classify a single text
    params            print the exact trainable-parameter count of a config
    import-mtop       normalize a flat slot-tagging TSV into dataset JSONL
    import-multiatis  normalize an utterance/intent TSV into dataset JSONL

Exit codes: 0 success, 1 usage error, 2 data or model-file error. Output goes
to stdout. --quiet silences the JSON lines of build-cache, project, train
(progress and result) and quantize; eval, predict, params and the importers
print their one result line with or without it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .config import PRESETS, RunConfig, build_run_config, save_run_config
from .data import Example, LabelInventory, import_mtop, import_multiatis, load_jsonl
from .errors import DataError
from .files import read_json, regular_file_mode, replacing
from .hashing import HashFamily
from .mixer import count_parameters
from .model_io import load_model, save_features, save_model, save_quantized_model
from .projection import FeatureMatrix, SequenceFeaturizer, build_cache, load_cache, save_cache
from .quantize import quantize_params
from .training import encode_dataset, evaluate, predict_batches, train
from .vocab import load_vocab, pre_tokenize


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        # no prefix matching: an option is either spelled out or refused
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _emit(args, payload: dict) -> None:
    if not args.quiet:
        print(json.dumps(payload))


def _featurizer(cfg: RunConfig, source: str | None) -> SequenceFeaturizer:
    """The run config's featurizer; a vocabulary or cache error names the config file
    ``source`` and the key the path came from."""
    if cfg.vocab_path is None:
        raise ValueError("config paths.vocab is required for this command")

    def load(loader, key: str, path: str):
        try:
            return loader(path)
        except DataError as exc:
            raise type(exc)(f"{exc} (paths.{key} in {source})") from exc

    vocab = load(load_vocab, "vocab", cfg.vocab_path)
    cache = None
    if cfg.projection.kind == "minhash" and cfg.cache_path is not None:
        cache = load(load_cache, "cache", cfg.cache_path)
    return SequenceFeaturizer(vocab, cfg.projection, cache=cache)


def _cmd_build_cache(args) -> int:
    vocab = load_vocab(args.vocab)
    save_cache(build_cache(vocab, HashFamily(args.hashes)), args.output)
    _emit(args, {"cache": args.output, "units": len(vocab), "hashes": args.hashes})
    return 0


def _cmd_project(args) -> int:
    cfg = build_run_config(args.config, args.preset)
    featurizer = _featurizer(cfg, args.config)
    examples = load_jsonl(args.input)

    def matrices():
        # one example's dense matrix at a time, so memory depends on neither the
        # corpus size nor train.batch_size
        for ex in examples:
            ids, valid = featurizer.encode([ex.tokens])
            yield FeatureMatrix(data=featurizer.materialize(ids, valid, dtype=np.float32)[0],
                                valid_len=int(valid[0]))

    save_features(args.output, matrices())
    _emit(args, {"features": args.output, "examples": len(examples),
                 "rows": cfg.projection.input_rows,
                 "cols": cfg.projection.max_seq_len})
    return 0


def _cmd_train(args) -> int:
    # a flag left out is None, and None leaves the config's value in place
    cfg = build_run_config(args.config, args.preset,
                           {"train": {"seed": args.seed}, "paths": {"out_dir": args.out}})
    if cfg.train_data is None or cfg.val_data is None:
        raise ValueError("config paths.train_data and paths.val_data are required")
    out_dir = cfg.out_dir
    if out_dir is None:
        raise ValueError("an output directory is required (--out or paths.out_dir)")
    featurizer = _featurizer(cfg, args.config)
    train_examples = load_jsonl(cfg.train_data)
    val_examples = load_jsonl(cfg.val_data)
    os.makedirs(out_dir, exist_ok=True)  # only once every input has loaded
    # an output that is not a regular file is refused now, not after training
    # (the log's plain open would block on a FIFO)
    for name in ("train_log.jsonl", "model.bin", "labels.json", "config.json"):
        regular_file_mode(os.path.join(out_dir, name))

    log_path = os.path.join(out_dir, "train_log.jsonl")
    with open(log_path, "w", encoding="utf-8") as log_fh:

        def log_fn(entry: dict) -> None:
            log_fh.write(json.dumps(entry) + "\n")
            _emit(args, entry)

        result = train(
            train_examples,
            val_examples,
            featurizer.vocab,
            cfg.projection,
            cfg.train,
            bottleneck=cfg.bottleneck,
            hidden=cfg.hidden,
            depth=cfg.depth,
            head=cfg.head,
            cache=featurizer.cache,
            log_fn=log_fn,
        )

    model_path = os.path.join(out_dir, "model.bin")
    save_model(model_path, result.params, result.model_cfg)
    with replacing(os.path.join(out_dir, "labels.json")) as fh:
        fh.write(json.dumps(list(result.inventory.labels), ensure_ascii=False,
                            indent=2).encode("utf-8"))
    echo = dataclasses.replace(cfg, num_labels=result.model_cfg.num_labels)
    save_run_config(echo, os.path.join(out_dir, "config.json"))
    _emit(args, {"model": model_path, "best_epoch": result.best_epoch,
                 "best_metric": result.best_metric})
    return 0


def _load_for_inference(args):
    """Load the model, its run config, its checked label inventory and the featurizer.

    Each side file is the flag's, if given, or else the file of that name in
    the model's directory, where ``train`` writes it. Returns ``(cfg, params,
    model_cfg, was_quantized, inventory, featurizer)``.
    """
    model_dir = os.path.dirname(os.path.abspath(args.model))
    config_path = os.path.join(model_dir, "config.json") if args.config is None else args.config
    labels_path = os.path.join(model_dir, "labels.json") if args.labels is None else args.labels
    params, model_cfg, was_quantized = load_model(args.model)
    cfg = build_run_config(config_path)
    proj = cfg.projection
    if (proj.input_rows, proj.max_seq_len) != (model_cfg.input_rows, model_cfg.seq_len):
        raise DataError(
            f"{args.model} takes {model_cfg.input_rows} input rows x {model_cfg.seq_len} "
            f"positions, {config_path} projects {proj.input_rows} x {proj.max_seq_len}"
        )
    labels = read_json(labels_path, "label inventory")
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise DataError(f"{labels_path}: expected a JSON array of label strings")
    if len(labels) != model_cfg.num_labels:
        raise DataError(f"{labels_path}: label inventory has {len(labels)} entries, "
                        f"{args.model} expects {model_cfg.num_labels}")
    index = {l: i for i, l in enumerate(labels)}
    if len(index) != len(labels):  # a repeated label keeps only its last position
        repeated = next(l for i, l in enumerate(labels) if index[l] != i)
        raise DataError(f"{labels_path}: label {repeated!r} is listed more than once")
    inventory = LabelInventory(labels=tuple(labels), index=index)
    return cfg, params, model_cfg, was_quantized, inventory, _featurizer(cfg, config_path)


def _cmd_eval(args) -> int:
    cfg, params, model_cfg, was_quantized, inventory, featurizer = _load_for_inference(args)
    examples = load_jsonl(args.data)
    data = encode_dataset(examples, featurizer, inventory, model_cfg.head, strict=False)
    report = evaluate(data, featurizer, params, model_cfg, inventory,
                      batch_size=cfg.train.batch_size)
    report["examples"] = len(examples)
    report["quantized"] = was_quantized
    print(json.dumps(report))
    return 0


def _cmd_quantize(args) -> int:
    params, model_cfg, was_quantized = load_model(args.model)
    if was_quantized:
        raise DataError(f"{args.model} is already quantized")
    save_quantized_model(args.output, quantize_params(params), model_cfg)
    _emit(args, {
        "quantized": args.output,
        "float_bytes": os.path.getsize(args.model),
        "quantized_bytes": os.path.getsize(args.output),
    })
    return 0


def _cmd_predict(args) -> int:
    _, params, model_cfg, _, inventory, featurizer = _load_for_inference(args)
    labels = inventory.labels
    tokens = pre_tokenize(args.text)
    if not tokens:
        raise ValueError("no tokens found in the input text")
    # encode_dataset needs gold labels; these placeholders are never read
    example = Example(tokens=tokens, slot_labels=[labels[0]] * len(tokens), class_label=labels[0])
    data = encode_dataset([example], featurizer, inventory, model_cfg.head, strict=False)
    pred = predict_batches(data, featurizer, params, model_cfg)[0]
    if model_cfg.head == "token":
        payload = {"tokens": tokens[: len(pred)], "labels": [labels[int(i)] for i in pred]}
    else:
        payload = {"label": labels[int(pred)]}
    print(json.dumps(payload, ensure_ascii=False))
    return 0


def _parse_field_map(raw: str) -> dict:
    try:
        field_map = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"--field-map must be JSON: {exc}") from exc
    if not isinstance(field_map, dict):
        raise ValueError("--field-map must be a JSON object")
    return field_map


def _cmd_import(args) -> int:
    summary = args.importer(args.input, _parse_field_map(args.field_map), args.output)
    print(json.dumps({k: summary[k] for k in ("examples", "skipped", "labels")}))
    return 0


def _cmd_params(args) -> int:
    cfg = build_run_config(args.config, args.preset, {"model": {"num_labels": args.num_labels}})
    # the 78 MTOP labels of the paper's size grid, when neither flag nor config sets a count
    model_cfg = cfg.model_config(num_labels=cfg.num_labels or 78)
    print(count_parameters(model_cfg))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="hashmixer", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-cache", help="precompute vocabulary fingerprints")
    p.add_argument("--vocab", required=True)
    p.add_argument("--hashes", type=int, default=64)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_build_cache)

    p = sub.add_parser("project", help="dump feature matrices for a dataset")
    p.add_argument("--config", default=None)
    p.add_argument("--preset", choices=sorted(PRESETS), default=None)
    p.add_argument("--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("train", help="train a model from a config")
    p.add_argument("--config", default=None)
    p.add_argument("--preset", choices=sorted(PRESETS), default=None)
    p.add_argument("--seed", type=int, default=None, help="override train.seed")
    p.add_argument("--out", default=None, help="override paths.out_dir")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a model file on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None, help="run config JSON (default: next to model)")
    p.add_argument("--labels", default=None, help="label inventory JSON (default: next to model)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("quantize", help="convert a float model to 8-bit")
    p.add_argument("--model", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_quantize)

    p = sub.add_parser("predict", help="tag or classify one text")
    p.add_argument("--model", required=True)
    p.add_argument("--text", required=True)
    p.add_argument("--config", default=None, help="run config JSON (default: next to model)")
    p.add_argument("--labels", default=None, help="label inventory JSON (default: next to model)")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("import-mtop", help="normalize a flat slot-tagging TSV to JSONL")
    p.add_argument("--input", required=True)
    p.add_argument("--field-map", required=True,
                   help='JSON, e.g. {"tokens": 1, "slots": 2, "skip_header": false}')
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_import, importer=import_mtop)

    p = sub.add_parser("import-multiatis", help="normalize an utterance/intent TSV to JSONL")
    p.add_argument("--input", required=True)
    p.add_argument("--field-map", required=True,
                   help='JSON, e.g. {"text": 1, "intent": 2, "skip_header": true}')
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_import, importer=import_multiatis)

    p = sub.add_parser("params", help="print the parameter count of a config")
    p.add_argument("--config", default=None)
    p.add_argument("--preset", choices=sorted(PRESETS), default=None)
    p.add_argument("--num-labels", type=int, default=None,
                   help="override model.num_labels (78 when neither sets it)")
    p.set_defaults(func=_cmd_params)

    for p in sub.choices.values():  # the one flag of every subcommand
        p.add_argument("--quiet", action="store_true", help="suppress JSON progress lines")
    return parser


_parser: _Parser | None = None  # built on the first run, reused by every later one


def run(argv: list[str]) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, LookupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
