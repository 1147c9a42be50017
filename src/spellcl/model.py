"""Desk-scale corrector: a confusion-candidate averaged perceptron.

At every position the model picks one character from the candidate set
(the observed character plus its confusion-set entries, code-point
ordered) by scoring five context-conditioned features per candidate plus
a KEEP indicator for the observed character.  Training makes one
sequential pass per curriculum stage in manifest order; each wrong
prediction triggers a +1/-1 perceptron update, and the served weights are
the average of the weight vector over all update steps.  Ordering is the
experimental variable, so training is strictly sequential and completely
determined by the manifest.

For speed the corpus is pre-encoded once into flat integer arrays that
the train and predict kernels in ``_kernels`` walk.  Each encoding numbers
its features in its own table, in first-seen order; a model's averaged
weights are copied into that numbering (0.0 for a feature the model
lacks), so the kernels never meet an unknown feature.  The encoding is the
only prediction path (``predict`` runs it on a one-sample corpus); the
test suite's dict-based predictor is the oracle it must agree with
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .corpus import (
    ConfusionSet, Corpus, Sample, derive_error_positions, numbered_lines, read_text, write_text,
)
from .curriculum import CurriculumManifest
from .errors import MalformedLine, UnknownSampleId

BOS = "<BOS>"
EOS = "<EOS>"
FEATURE_SCHEMA = 1
WINDOW = 2


@dataclass(frozen=True)
class Prediction:
    sample_id: str
    predicted: str
    detected_positions: tuple[int, ...]


@dataclass
class CorrectorModel:
    averaged_weights: dict[str, float]
    updates_seen: int
    confusion: ConfusionSet


def candidate_set(source: str, j: int, confusion: ConfusionSet) -> list[str]:
    """Observed character first, then its confusables in code-point order."""
    return [source[j]] + sorted(confusion.candidates(source[j]))


def featurize(sequence: str, j: int, candidate: str) -> list[str]:
    """Feature keys for choosing ``candidate`` at position j of ``sequence``."""
    n = len(sequence)
    left = sequence[j - 1] if j >= 1 else BOS
    ll = sequence[j - 2] if j >= 2 else BOS
    right = sequence[j + 1] if j + 1 < n else EOS
    rr = sequence[j + 2] if j + 2 < n else EOS
    keys = [
        f"C|{candidate}",
        f"L|{left}|{candidate}",
        f"R|{right}|{candidate}",
        f"LL|{ll}|{candidate}",
        f"RR|{rr}|{candidate}",
    ]
    if candidate == sequence[j]:
        keys.append("KEEP")
    return keys


# --- corpus encoding ----------------------------------------------------------

@dataclass
class CorpusEncoding:
    """Flat-array view of a corpus for the train/predict kernels.

    Per sample: a contiguous run of positions.  Per position: a run of
    slots - the real candidates in tie-break order, plus one hidden slot
    holding the gold character's features whenever the gold character is
    not a candidate.  Per slot: a run of feature ids.  Ids index the
    encoding's own feature table, ``feature_index`` (names in first-seen
    order), so every id is known; a model's weights reach an encoding by
    being copied into that numbering.
    """

    id_to_idx: dict[str, int]
    samp_pos_start: np.ndarray   # int64, len n_samples+1
    pos_slot_start: np.ndarray   # int64, len n_positions+1
    pos_n_real: np.ndarray       # int64, real candidates per position
    pos_gold_slot: np.ndarray    # int64, slot index of the gold character
    slot_feat_start: np.ndarray  # int64, len n_slots+1
    slot_char: np.ndarray        # int64, candidate code point per slot
    feat_ids: np.ndarray         # int64, flattened feature ids
    feature_index: list[str]     # feature name per id


def encode_corpus(corpus: Corpus, confusion: ConfusionSet) -> CorpusEncoding:
    ids: dict[str, int] = {}
    samp_pos_start = [0]
    pos_slot_start = [0]
    pos_n_real: list[int] = []
    pos_gold_slot: list[int] = []
    slot_feat_start = [0]
    slot_char: list[int] = []
    feat_ids: list[int] = []

    for sample in corpus:
        src, tgt = sample.source, sample.target
        for j in range(len(src)):
            cands = candidate_set(src, j, confusion)
            pos_n_real.append(len(cands))
            if tgt[j] not in cands:
                # gold character outside the candidate set: hidden slot so
                # updates still promote its features
                cands.append(tgt[j])
            pos_gold_slot.append(len(slot_char) + cands.index(tgt[j]))
            for cand in cands:
                slot_char.append(ord(cand))
                for key in featurize(src, j, cand):
                    feat_ids.append(ids.setdefault(key, len(ids)))
                slot_feat_start.append(len(feat_ids))
            pos_slot_start.append(len(slot_char))
        samp_pos_start.append(len(pos_n_real))

    return CorpusEncoding(
        id_to_idx={sid: i for i, sid in enumerate(corpus.ids())},
        samp_pos_start=np.asarray(samp_pos_start, dtype=np.int64),
        pos_slot_start=np.asarray(pos_slot_start, dtype=np.int64),
        pos_n_real=np.asarray(pos_n_real, dtype=np.int64),
        pos_gold_slot=np.asarray(pos_gold_slot, dtype=np.int64),
        slot_feat_start=np.asarray(slot_feat_start, dtype=np.int64),
        slot_char=np.asarray(slot_char, dtype=np.int64),
        feat_ids=np.asarray(feat_ids, dtype=np.int64),
        feature_index=list(ids),
    )


def manifest_order(manifest: CurriculumManifest, enc: CorpusEncoding) -> np.ndarray:
    """Sample indices in training order (stages concatenated)."""
    order = []
    for stage in manifest.stages:
        for sid in stage:
            idx = enc.id_to_idx.get(sid)
            if idx is None:
                raise UnknownSampleId(f"manifest references unknown sample {sid!r}")
            order.append(idx)
    return np.asarray(order, dtype=np.int64)


# --- training -------------------------------------------------------------------

def train_encoded(enc: CorpusEncoding,
                  manifest: CurriculumManifest) -> tuple[np.ndarray, np.ndarray, int]:
    """Train over an encoding; returns (final weights, averaged weights, updates)."""
    n_feat = len(enc.feature_index)
    w = np.zeros(n_feat, dtype=np.float64)
    u_acc = np.zeros(n_feat, dtype=np.float64)
    last_upd = np.zeros(n_feat, dtype=np.int64)
    order = manifest_order(manifest, enc)
    t = _kernels.train_pass(order, enc, w, u_acc, last_upd)
    if t > 0:
        averaged = (u_acc + w * (t - last_upd)) / t
    else:
        averaged = np.zeros(n_feat, dtype=np.float64)
    return w, averaged, t


def train(manifest: CurriculumManifest, corpus: Corpus,
          confusion: ConfusionSet) -> CorrectorModel:
    """Train one epoch per manifest stage, in order.

    The manifest fixes the visiting order completely, so training is
    deterministic.
    """
    enc = encode_corpus(corpus, confusion)
    _, averaged, t = train_encoded(enc, manifest)
    names = enc.feature_index
    averaged_weights = {names[i]: float(averaged[i]) for i in np.flatnonzero(averaged)}
    return CorrectorModel(averaged_weights=averaged_weights, updates_seen=t,
                          confusion=confusion)


# --- prediction ------------------------------------------------------------------

def predict(model: CorrectorModel, sample: Sample) -> Prediction:
    """Prediction for one sample; see ``predict_corpus``."""
    return predict_corpus(model, Corpus((sample,)))[0]


def predict_encoded(enc: CorpusEncoding, corpus: Corpus,
                    weights: np.ndarray) -> list[Prediction]:
    """Kernel-backed prediction for every sample of the encoded ``corpus``."""
    slots = _kernels.predict_slots(enc, weights)
    preds = []
    k = 0
    for sample in corpus:
        n = len(sample.source)
        chars = [chr(int(enc.slot_char[slots[k + j]])) for j in range(n)]
        k += n
        predicted = "".join(chars)
        preds.append(Prediction(
            sample_id=sample.id, predicted=predicted,
            detected_positions=derive_error_positions(sample.source, predicted),
        ))
    return preds


def predict_corpus(model: CorrectorModel, corpus: Corpus) -> list[Prediction]:
    """Bulk prediction for a free-standing model (e.g. loaded from disk).

    Looks up only the corpus's own features, so the cost follows the
    corpus, not the model's size; a feature the model lacks weighs 0.0.
    """
    enc = encode_corpus(corpus, model.confusion)
    aw = model.averaged_weights
    weights = np.array([aw.get(name, 0.0) for name in enc.feature_index], dtype=np.float64)
    return predict_encoded(enc, corpus, weights)


# --- model file -----------------------------------------------------------------

def model_to_tsv(model: CorrectorModel) -> str:
    """Header with window and schema version, then sorted feature/weight rows."""
    lines = [f"# spellcl-model schema={FEATURE_SCHEMA} window={WINDOW}\n"]
    for key in sorted(model.averaged_weights):
        lines.append(f"{key}\t{repr(model.averaged_weights[key])}\n")
    return "".join(lines)


def parse_model(text: str, confusion: ConfusionSet) -> CorrectorModel:
    lines = numbered_lines(text)
    first_no, first = next(lines, (1, ""))
    if first_no != 1 or not first.startswith("# spellcl-model"):
        raise MalformedLine("line 1: expected '# spellcl-model' header")
    header = dict(
        part.split("=", 1) for part in first.split() if "=" in part
    )
    try:
        schema = int(header["schema"])
        window = int(header["window"])
    except (KeyError, ValueError):
        raise MalformedLine("line 1: header must carry schema=<int> window=<int>")
    if schema != FEATURE_SCHEMA:
        raise MalformedLine(f"unsupported feature schema {schema}")
    if window != WINDOW:
        raise MalformedLine(
            f"line 1: model was trained with window={window}; features use window={WINDOW}"
        )
    averaged: dict[str, float] = {}
    for line_no, line in lines:
        fields = line.split("\t")
        if len(fields) != 2:
            raise MalformedLine(f"line {line_no}: expected 'feature<TAB>weight'")
        try:
            weight = float(fields[1])
            if math.isnan(weight):  # loses every comparison: the argmax would skip it
                raise ValueError
        except ValueError:
            raise MalformedLine(f"line {line_no}: bad weight {fields[1]!r}")
        if fields[0] in averaged:
            raise MalformedLine(f"line {line_no}: repeated feature {fields[0]!r}")
        averaged[fields[0]] = weight
    return CorrectorModel(averaged_weights=averaged, updates_seen=0, confusion=confusion)


def save_model(model: CorrectorModel, path) -> None:
    write_text(path, model_to_tsv(model))


def load_model(path, confusion: ConfusionSet) -> CorrectorModel:
    return parse_model(read_text(path), confusion)
