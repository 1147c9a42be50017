"""Span recorder and layer aggregation for the traced benchmark run.

``install`` replaces the module attributes that the CLI and the library
look up at call time (``spellcl.model.train_encoded``,
``spellcl._kernels.train_pass``, ``HashedEmbedder.embed_side``, ...) with
wrappers that record a span around each call and take counts from its
arguments and return value.  Nothing in the program changes; the
wrappers live in the child process only.

A span is ``[name, start, end, parent]`` (perf_counter seconds, parent an
index into the list or -1).  Spans stay in memory and are written once at
exit.  Counting runs after the span closes, inside its own
``trace.count`` span, so it inflates no layer's time.
"""

from __future__ import annotations

import functools
import importlib
import operator
import os
import time

import numpy as np

COUNT_SPAN = "trace.count"
# Counts that hold a maximum rather than a sum, within and across processes.
PEAK_COUNTS = ("model.features",)


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, value: float) -> None:
        merge = max if key in PEAK_COUNTS else operator.add
        self.counts[key] = merge(self.counts.get(key, 0), value)

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                idx = self.open(COUNT_SPAN)
                count(self, args, result)
                self.close(idx)
            return result

        setattr(owner, attr, wrapper)


# --- counters: (recorder, positional args, return value) ----------------------

def _count_corpus(rec, args, corpus):
    rec.add("corpus.samples", len(corpus.samples))
    rec.add("corpus.chars", sum(len(s.source) for s in corpus.samples))
    rec.add("corpus.error_positions", sum(len(s.error_positions) for s in corpus.samples))


def _count_embed(rec, args, emb):
    sample = args[1]
    rec.add("embed.positions", len(emb.vectors))
    rec.add("embed.error_positions", len(sample.error_positions))


def _count_encode(rec, args, enc):
    rec.add("model.positions", len(enc.pos_n_real))
    rec.add("model.slots", len(enc.slot_char))
    rec.add("model.feat_refs", len(enc.feat_ids))


def _count_train(rec, args, result):
    enc, manifest = args[0], args[1]
    idx = np.fromiter((enc.id_to_idx[sid] for stage in manifest.stages for sid in stage),
                      dtype=np.int64)
    rec.add("model.positions_visited",
            int((enc.samp_pos_start[idx + 1] - enc.samp_pos_start[idx]).sum()))
    rec.add("model.updates", int(result[2]))
    rec.add("model.features", len(enc.feature_index))


def _count_arrange(rec, args, manifest):
    rec.add("curriculum.visits", sum(len(stage) for stage in manifest.stages))


def _count_model_file(rec, args, result):
    rec.add("model.file_bytes", os.path.getsize(args[1]))


# (module, attribute path, counter); the span is named "<module>.<attribute>".
PROBES = (
    ("corpus", "load_corpus", _count_corpus),
    ("corpus", "load_confusion_set", None),
    ("corpus", "save_corpus", None),
    ("corpus", "inject_errors", None),
    ("difficulty", "score_corpus", None),
    ("difficulty", "load_records", None),
    ("difficulty", "save_records", None),
    ("embed", "HashedEmbedder.embed_side", _count_embed),
    ("embed", "hash_embed", None),
    ("curriculum", "arrange_annealing", _count_arrange),
    ("curriculum", "arrange_sorted_only", _count_arrange),
    ("curriculum", "arrange_random_stages", _count_arrange),
    ("curriculum", "arrange_shuffled_baseline", _count_arrange),
    ("curriculum", "load_manifest", None),
    ("curriculum", "save_manifest", None),
    ("model", "encode_corpus", _count_encode),
    ("model", "train", None),
    ("model", "train_encoded", _count_train),
    ("_kernels", "train_pass", None),
    ("model", "predict_corpus", None),
    ("model", "predict_encoded", None),
    ("_kernels", "predict_slots", None),
    ("model", "save_model", _count_model_file),
    ("model", "load_model", None),
    ("metrics", "evaluate", None),
)

ROOT_SPAN = "cli.main"

# Layer time metric -> spans whose self time it sums.  ``kernels.*`` are the
# ``spellcl._kernels`` functions (metric names start with a letter);
# ``embed.hash_embed`` is that kernel as the embedder imports it.
LAYER_SPANS = {
    "corpus.parse_s": ("corpus.load_corpus", "corpus.load_confusion_set",
                       "corpus.save_corpus"),
    "corpus.inject_s": ("corpus.inject_errors",),
    "difficulty.score_s": ("difficulty.score_corpus",),
    "embed.embed_s": ("embed.HashedEmbedder.embed_side",),
    "kernels.hash_embed_s": ("embed.hash_embed",),
    "model.encode_s": ("model.encode_corpus",),
    "curriculum.arrange_s": ("curriculum.arrange_annealing", "curriculum.arrange_sorted_only",
                             "curriculum.arrange_random_stages",
                             "curriculum.arrange_shuffled_baseline"),
    "curriculum.io_s": ("difficulty.load_records", "difficulty.save_records",
                        "curriculum.load_manifest", "curriculum.save_manifest"),
    "model.train_s": ("model.train", "model.train_encoded"),
    "kernels.train_pass_s": ("_kernels.train_pass",),
    "model.predict_s": ("model.predict_corpus", "model.predict_encoded"),
    "kernels.predict_slots_s": ("_kernels.predict_slots",),
    "metrics.evaluate_s": ("metrics.evaluate",),
    "model.io_s": ("model.save_model", "model.load_model"),
    "cli.self_s": (ROOT_SPAN,),
}

# A grid run opens with a train_encoded call and takes in the predict and
# evaluate calls that follow it.
RUN_OPEN = "model.train_encoded"
RUN_BODY = ("model.predict_encoded", "metrics.evaluate")


def install(rec: Recorder) -> None:
    for module_name, path, count in PROBES:
        owner = importlib.import_module(f"spellcl.{module_name}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        rec.wrap(owner, attr, f"{module_name}.{path}", count)


def self_times(spans: list[list]) -> dict[str, float]:
    """Total self time per span name: duration minus direct children's durations."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, float] = {}
    for i, (name, start, end, _) in enumerate(spans):
        totals[name] = totals.get(name, 0.0) + (end - start) - child[i]
    return totals


def run_durations(spans: list[list]) -> list[float]:
    """Seconds per grid run, in call order."""
    runs = []
    for name, start, end, _ in sorted(spans, key=lambda s: s[1]):
        if name == RUN_OPEN:
            runs.append([start, end])
        elif name in RUN_BODY and runs and start >= runs[-1][1]:
            runs[-1][1] = max(runs[-1][1], end)
    return [end - start for start, end in runs]
