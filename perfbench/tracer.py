"""Per-layer tracing by wrapping the program's public functions from outside.

``Tracer.install`` replaces every public function of the traced modules, and
every public method of the classes they define, with a wrapper that records
one span per call: name, start, end, the span that was open when it
started, and the benchmark operation (a request, a ``train`` call, the
set-up, an output check) it belongs to. Self time is a span's duration
minus the time its child spans cover. Calls are aggregated for every call;
individual spans are kept in memory up to ``SPAN_CAP`` and written out when
the run ends. The per-layer metrics leave out the benchmark's own output
checks (the ``check`` phase), which the trace file still holds.

The program is not changed: the wrappers are installed on the imported
modules of this process only.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
import weakref
from collections import defaultdict

import numpy as np

PACKAGE = "hashmixer"
TRACED_MODULES = ("vocab", "hashing", "projection", "mixer", "training", "model_io", "quantize")
SPAN_CAP = 100_000  # spans kept for the trace file; later calls are only aggregated
CHECK_PHASE = "check"

# Per-layer metrics printed by a traced run: (name, unit). ``<layer>.s`` is
# the inclusive wall time of every call of that function outside the
# ``check`` phase; the trace file holds self times too.
PER_LAYER = (
    ("projection.materialize.s", "s"),
    ("projection.materialize.calls", "count"),
    ("projection.materialize.bytes", "bytes"),
    ("projection.materialize.density", "ratio"),
    ("mixer.forward_batch.s", "s"),
    ("mixer.backward_batch.s", "s"),
    ("mixer.normal_cdf.s", "s"),
    ("mixer.gelu_grad.s", "s"),
    ("training.cross_entropy_masked.s", "s"),
    ("training.adam_step.s", "s"),
    ("training.predict_batches.s", "s"),
    ("training.evaluate.s", "s"),
    ("hashing.minhash_unit.calls", "count"),
    ("hashing.minhash_unit.s", "s"),
    ("projection.build_cache.s", "s"),
    ("projection.save_cache.s", "s"),
    ("vocab.tokenize_word.calls", "count"),
    ("vocab.tokenize_word.s", "s"),
    ("projection.encode.s", "s"),
    ("projection.encode.tokens", "count"),
    ("projection.encode.new_tokens", "count"),
    ("vocab.load_vocab.s", "s"),
    ("projection.load_cache.s", "s"),
    ("model_io.load_model.s", "s"),
    ("model_io.model.bytes", "bytes"),
    ("projection.project_sequence.s", "s"),
    ("model_io.save_features.s", "s"),
    ("model_io.features.bytes", "bytes"),
    ("quantize.quantize_params.s", "s"),
    ("model_io.save_model.s", "s"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op = "setup"
        # (phase, layer) -> [calls, total seconds, self seconds]; the phase is
        # the operation label up to its first space
        self.stats: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 1
        self._seen_tokens: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._hooks = {
            "projection.materialize": self._after_materialize,
            "projection.encode": self._after_encode,
            "model_io.load_model": self._after_load_model,
            "model_io.save_features": self._after_save_features,
        }

    def _wrap(self, name: str, fn):
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            frame = [self._next_id, 0.0]
            self._next_id += 1
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                elapsed = end - start
                if parent is not None:
                    parent[1] += elapsed
                phase = self.op.split(" ", 1)[0]
                entry = self.stats[(phase, name)]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]
                if len(self.spans) < SPAN_CAP:
                    self.spans.append(
                        (frame[0], parent[0] if parent else 0, name, start, end, self.op))
                else:
                    self.dropped += 1
            if hook is not None and phase != CHECK_PHASE:
                hook(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the traced modules' public functions wherever they are bound."""
        replaced: dict[int, object] = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"{PACKAGE}.{short}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapped = self._wrap(f"{short}.{attr}", obj)
                    replaced[id(obj)] = wrapped
                    setattr(module, attr, wrapped)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            setattr(obj, meth, self._wrap(f"{short}.{meth}", fn))
        # names imported into other modules (``from .mixer import forward_batch``)
        for name, module in list(sys.modules.items()):
            if name == PACKAGE or name.startswith(PACKAGE + "."):
                for attr, obj in list(vars(module).items()):
                    if id(obj) in replaced and inspect.isfunction(obj):
                        setattr(module, attr, replaced[id(obj)])

    # --- counters measured where the work happens -------------------------

    def _after_materialize(self, args, kwargs, out) -> None:
        self.counters["projection.materialize.bytes"] += out.nbytes
        self.counters["projection.materialize.elements"] += out.size
        self.counters["projection.materialize.nonzeros"] += int(np.count_nonzero(out))

    def _after_encode(self, args, kwargs, result) -> None:
        featurizer, examples_tokens = args[0], args[1]
        seen = self._seen_tokens.setdefault(featurizer, set())
        s = featurizer.cfg.max_seq_len
        for tokens in examples_tokens:
            for tok in tokens[:s]:
                self.counters["projection.encode.tokens"] += 1
                if tok not in seen:
                    seen.add(tok)
                    self.counters["projection.encode.new_tokens"] += 1

    def _after_load_model(self, args, kwargs, result) -> None:
        path = args[0] if args else kwargs["path"]
        self.counters["model_io.model.bytes"] += os.path.getsize(path)

    def _after_save_features(self, args, kwargs, result) -> None:
        path = args[0] if args else kwargs["path"]
        self.counters["model_io.features.bytes"] += os.path.getsize(path)

    # --- results ------------------------------------------------------------

    def _total(self, layer: str, field: int) -> float:
        return sum(v[field] for (phase, name), v in self.stats.items()
                   if name == layer and phase != CHECK_PHASE)

    def metric(self, name: str) -> float:
        layer, _, kind = name.rpartition(".")
        if kind == "s":
            return self._total(layer, 1)
        if kind == "calls":
            return int(self._total(layer, 0))
        if name == "projection.materialize.density":
            elements = self.counters["projection.materialize.elements"]
            return self.counters["projection.materialize.nonzeros"] / elements if elements else 0.0
        return self.counters[name]

    def metrics(self) -> dict:
        return {name: {"value": self.metric(name), "unit": unit} for name, unit in PER_LAYER}

    def write(self, path: str, extra: dict) -> None:
        """One summary line (calls, total and self time per phase and layer), then the spans."""
        layers: dict[str, dict] = defaultdict(dict)
        for (phase, name), (calls, total, own) in sorted(self.stats.items(),
                                                         key=lambda kv: -kv[1][2]):
            layers[phase][name] = {"calls": calls, "total_s": total, "self_s": own}
        summary = {
            "layers": layers,
            "counters": dict(self.counters),
            "spans_kept": len(self.spans),
            "spans_dropped": self.dropped,
            **extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(summary) + "\n")
            for span_id, parent, name, start, end, op in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end, "op": op}) + "\n")
