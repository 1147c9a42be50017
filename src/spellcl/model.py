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

For speed the corpus is pre-encoded once into fixed-width integer tables
that the vectorized train and predict kernels in ``_kernels`` read.  The
perceptron's rule (argmax, update, averaging) lives in those kernels alone;
this module turns a manifest into a visiting order and averaged weights
into predictions.  A prediction is ``{sample_id: predicted string}``;
``metrics.evaluate`` derives both verdicts of a sentence from its string.
The encoder works on code points with numpy and never builds a feature
name: a feature is an integer key, and each encoding numbers the keys of
its own corpus in ascending order.  A model holds ascending keys and the
non-zero averaged weights; ``feature_rows`` copies them into an encoding's
numbering (0.0 for a feature the model lacks), so the kernels never meet
an unknown feature.  Names such as ``L|<BOS>|a`` exist only in the model
file, written by ``model_to_tsv`` and read back into keys by
``parse_model``.  The test suite holds the per-position candidate and
feature lists that the encoding is tested against.
The encoding is the only prediction path, for one sample as for a corpus;
the test suite's dict-based predictor is the oracle it must agree with
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import _kernels
from .corpus import ConfusionSet, Corpus, numbered_lines, read_text, write_text
from .curriculum import CurriculumManifest
from .errors import IdMismatch, MalformedLine

BOS = "<BOS>"
EOS = "<EOS>"
# line 1 of a model file; the features read a context of two characters each side
_HEADER = "# spellcl-model schema=1 window=2"
# features per slot: C, L, R, LL, RR, and KEEP on the observed character
SLOT_WIDTH = 6


@dataclass(eq=False)  # == is identity: a dataclass == on array fields raises
class CorrectorModel:
    keys: np.ndarray      # int64 feature keys, ascending
    weights: np.ndarray   # float64 averaged weight per key
    updates_seen: int
    confusion: ConfusionSet


# --- corpus encoding ----------------------------------------------------------
#
# A feature is an int64 key: template << 42 | context code << 21 | candidate
# code, with the templates numbered in slot order (C, L, R, LL, RR)
# and KEEP the single key of template 5.  Code points fit in 21 bits; BOS and
# EOS take the two codes past the last one, so a key sorts by template, then
# context, then candidate.

_TEMPLATES = ("C", "L", "R", "LL", "RR")
_OFFSETS = (0, -1, 1, -2, 2)  # each template's context position, relative to j
_CODE_BITS = 21
_CODE_MASK = (1 << _CODE_BITS) - 1
_BOS_CODE, _EOS_CODE = 0x110000, 0x110001
_CONTEXT_NAMES = {_BOS_CODE: BOS, _EOS_CODE: EOS}
_CONTEXT_CODES = {BOS: _BOS_CODE, EOS: _EOS_CODE}
_KEEP_KEY = len(_TEMPLATES) << 2 * _CODE_BITS
_RANK_BLOCK = 16_384  # codes per ``_rank`` numpy call, so no slot-sized intp copy


def _feature_name(key: int) -> str:
    template = key >> 2 * _CODE_BITS
    if template == len(_TEMPLATES):
        return "KEEP"
    cand = chr(key & _CODE_MASK)
    if template == 0:
        return f"C|{cand}"
    ctx = key >> _CODE_BITS & _CODE_MASK
    return f"{_TEMPLATES[template]}|{_CONTEXT_NAMES.get(ctx) or chr(ctx)}|{cand}"


def _feature_key(name: str) -> int | None:
    """The key that ``_feature_name`` names ``name``, or None if none does.
    The candidate is the last code point, so ``L|||a`` reads one way."""
    if name == "KEEP":
        return _KEEP_KEY
    template, _, ctx = name[:-2].partition("|")
    if template not in _TEMPLATES:
        return None
    number = _TEMPLATES.index(template)
    context = _CONTEXT_CODES.get(ctx, ord(ctx) if len(ctx) == 1 else 0)
    if context == (_EOS_CODE if _OFFSETS[number] < 0 else _BOS_CODE):
        return None  # a left context is never EOS, a right one never BOS
    key = number << 2 * _CODE_BITS | context << _CODE_BITS | ord(name[-1])
    return key if _feature_name(key) == name else None


def feature_names(keys: np.ndarray) -> list[str]:
    """The name of each feature key, such as ``L|<BOS>|a``."""
    return [_feature_name(key) for key in keys.tolist()]


@dataclass
class CorpusEncoding:
    """Fixed-width tables of a corpus for the train/predict kernels.

    Per sample: a contiguous run of positions.  Per position: the slots of
    its class's candidate-table entry - the real candidates in tie-break
    order, then, for an error's (source, gold) class whose gold character is
    none of them, a hidden slot holding it.  Ids index the encoding's own
    feature table, ``feature_index``: the sorted int64 keys of the corpus's
    features (see above), so every id is known.  A model's weights reach an
    encoding by being copied into its numbering through ``feature_rows``.

    ``slot_feats`` has one row of ``SLOT_WIDTH`` feature ids per slot (C,
    L, R, LL, RR, KEEP); a slot without KEEP holds the sentinel id
    ``n_feat`` (``len(feature_index)``) in its last column, which the
    kernels weigh 0.0.  A position's slots are contiguous, from
    ``pos_first_slot``: ``pos_n_real`` real ones, then its hidden slot if
    it has one.  The kernels read real slots alone, so a hidden gold slot is
    never chosen.  A slot's character is its C feature's key; only the
    benchmark's counts (``perfbench/spans.py``) and the tests read
    ``slot_char`` and ``feat_ids``, so both can go when that probe moves.
    """

    id_to_idx: dict[str, int]
    samp_pos_start: np.ndarray   # int64, len n_samples+1
    pos_first_slot: np.ndarray   # int32, slot index of the observed character
    pos_n_real: np.ndarray       # int32, real candidates per position
    pos_gold_slot: np.ndarray    # int32, slot index of the gold character
    slot_feats: np.ndarray       # narrowest signed type for its ids, (n_slots, SLOT_WIDTH)
    feature_index: np.ndarray    # int64, feature key per id, ascending

    @property
    def slot_char(self) -> np.ndarray:  # each slot's candidate code point: its C key
        return self.feature_index[self.slot_feats[:, 0]]

    @property
    def feat_ids(self) -> np.ndarray:  # every slot's ids but the sentinels, flattened
        return self.slot_feats[self.slot_feats < len(self.feature_index)]


def _codes(strings) -> np.ndarray:
    """Code points of the concatenated strings (a lone surrogate keeps its own)."""
    return np.frombuffer("".join(strings).encode("utf-32-le", "surrogatepass"), dtype=np.int32)


def _rank(codes: np.ndarray, size: int, out: np.ndarray, offset: int) -> np.ndarray:
    """The distinct ``codes`` in [0, size), ascending, as ``np.unique`` gives
    them; writes each code's rank among them plus ``offset`` into ``out``.
    Ranks by a presence mask's running count, unless the range dwarfs the
    input and a sort is cheaper."""
    blocks = [slice(lo, lo + _RANK_BLOCK) for lo in range(0, len(codes), _RANK_BLOCK)]
    if size > 4 * len(codes) + 65_536:
        uniq = np.unique(codes)
        rank = partial(np.searchsorted, uniq)
    else:
        present = np.zeros(size, dtype=bool)
        for b in blocks:
            present[codes[b]] = True
        uniq, rank = np.flatnonzero(present), (np.cumsum(present, dtype=np.int32) - 1).take
    for b in blocks:
        np.add(rank(codes[b]), offset, out=out[b], casting="unsafe")
    return uniq


def encode_corpus(corpus: Corpus, confusion: ConfusionSet) -> CorpusEncoding:
    samples = corpus.samples
    lens = np.fromiter((len(s.source) for s in samples), dtype=np.int64, count=len(samples))
    samp_pos_start = np.concatenate(([0], np.cumsum(lens)))
    src = _codes(s.source for s in samples)
    tgt = _codes(s.target for s in samples)
    n = src.shape[0]

    # Candidate table, one entry per class: per distinct source character,
    # then per distinct (source class, gold character) pair at an error.  An
    # entry is the source character, its confusables in code-point order
    # and, when it is none of those, the gold character: the hidden slot.
    chars, cls = np.unique(src, return_inverse=True)
    err = np.flatnonzero(src != tgt)
    pairs, pair_cls = np.unique(cls[err] << _CODE_BITS | tgt[err], return_inverse=True)
    cls = cls.astype(np.int32)
    reals = [c + confusion.candidates(c) for c in map(chr, chars.tolist())]
    classes = [(r, r[0]) for r in reals]  # (real candidates, gold character)
    classes += [(reals[pair >> _CODE_BITS], chr(pair & _CODE_MASK)) for pair in pairs.tolist()]
    entries = [r if g in r else r + g for r, g in classes]
    class_n_slot = np.array([len(e) for e in entries], dtype=np.int32)
    class_n_real = np.array([len(r) for r, _ in classes], dtype=np.int32)
    class_gold = np.array([e.index(g) for e, (_, g) in zip(entries, classes)], dtype=np.int32)
    class_start = np.cumsum(class_n_slot, dtype=np.int32) - class_n_slot
    cand_table = _codes(entries)
    pos_cls = cls.copy()
    pos_cls[err] = len(chars) + pair_cls
    del err, pairs, pair_cls, reals, classes, entries

    n_slot = class_n_slot[pos_cls]
    pos_slot_start = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(n_slot, out=pos_slot_start[1:], dtype=np.int32)
    n_slots = int(pos_slot_start[-1])
    n_real = class_n_real[pos_cls]
    pos_gold_slot = pos_slot_start[:-1] + class_gold[pos_cls]
    # a slot's candidate-table entry and candidate class (its character's rank among all)
    entry = np.arange(n_slots, dtype=np.int32)
    entry -= np.repeat(pos_slot_start[:-1] - class_start[pos_cls], n_slot)
    del pos_cls
    cand_chars = np.unique(cand_table)
    n_cc = len(cand_chars)
    ctx_codes = np.append(chars, [_BOS_CODE, _EOS_CODE]).astype(np.int64)
    # the narrowest signed type (an empty corpus's KEEP id is -1) of one id per (template,
    # context class, candidate class), KEEP and the sentinel; and of dense codes
    id_type = np.min_scalar_type(-(n_cc * (1 + 4 * len(ctx_codes)) + 2))
    slot_cc = np.searchsorted(cand_chars, cand_table).astype(id_type)[entry]
    del entry

    # Feature ids, one template column at a time: a dense (context class,
    # candidate class) code's rank among the column's codes numbers each
    # template's keys in key order, and the templates' key ranges follow.
    in_sample = (np.arange(n) - np.repeat(samp_pos_start[:-1], lens)).astype(np.int32)
    to_end = np.repeat(lens.astype(np.int32), lens) - in_sample
    slot_feats = np.empty((n_slots, SLOT_WIDTH), dtype=id_type)
    feature_keys = []
    n_feat = 0
    for template, offset in enumerate(_OFFSETS):
        if offset:
            inside = in_sample >= -offset if offset < 0 else to_end > offset
            ctx_class = np.full(n, (len(chars) + (offset > 0)) * n_cc, dtype=id_type)
            ctx_class[inside] = cls[np.flatnonzero(inside) + offset].astype(id_type) * n_cc
            dense = np.repeat(ctx_class, n_slot)
            dense += slot_cc
        else:
            dense = slot_cc
        uniq = _rank(dense, len(ctx_codes) * n_cc if offset else n_cc,
                     slot_feats[:, template], n_feat)
        del dense
        context = ctx_codes[uniq // n_cc] << _CODE_BITS if offset else 0
        feature_keys.append(template << 2 * _CODE_BITS | context | cand_chars[uniq % n_cc])
        n_feat += len(uniq)
    del n_slot, slot_cc
    if n:
        feature_keys.append(np.array([_KEEP_KEY]))
        n_feat += 1
    # KEEP on the observed character's slot, the first of each position
    slot_feats[:, -1] = n_feat
    slot_feats[pos_slot_start[:-1], -1] = n_feat - 1

    return CorpusEncoding(
        id_to_idx={sid: i for i, sid in enumerate(corpus.ids())},
        samp_pos_start=samp_pos_start,
        pos_first_slot=pos_slot_start[:-1],
        pos_n_real=n_real,
        pos_gold_slot=pos_gold_slot,
        slot_feats=slot_feats,
        feature_index=np.concatenate(feature_keys, dtype=np.int64),
    )


def manifest_order(manifest: CurriculumManifest, enc: CorpusEncoding) -> np.ndarray:
    """Sample indices in training order (stages concatenated)."""
    try:
        return np.array([enc.id_to_idx[sid] for stage in manifest.stages for sid in stage],
                        dtype=np.int64)
    except KeyError as exc:
        raise IdMismatch(f"manifest references unknown sample {exc.args[0]!r}") from None


# --- training -------------------------------------------------------------------

def train_encoded(enc: CorpusEncoding,
                  manifest: CurriculumManifest) -> tuple[np.ndarray, np.ndarray, int]:
    """Train over an encoding; returns (final weights, averaged weights, updates)."""
    return _kernels.train_pass(manifest_order(manifest, enc), enc)


def train(manifest: CurriculumManifest, corpus: Corpus,
          confusion: ConfusionSet) -> CorrectorModel:
    """Train one epoch per manifest stage, in order.

    The manifest fixes the visiting order completely, so training is
    deterministic.
    """
    enc = encode_corpus(corpus, confusion)
    _, averaged, t = train_encoded(enc, manifest)
    kept = np.flatnonzero(averaged)
    return CorrectorModel(keys=enc.feature_index[kept], weights=averaged[kept], updates_seen=t,
                          confusion=confusion)


# --- prediction ------------------------------------------------------------------

def feature_rows(keys: np.ndarray, enc: CorpusEncoding) -> np.ndarray:
    """Row of each of ``enc``'s features in the ascending key table ``keys``
    (a model's or an encoding's), or ``len(keys)``, weighed 0.0, for one it
    lacks.  The work follows ``enc``'s features, not the table's size."""
    rows = np.searchsorted(keys, enc.feature_index)
    if len(keys):
        rows[keys.take(rows, mode="clip") != enc.feature_index] = len(keys)
    return rows


def predict_encoded(enc: CorpusEncoding, weights: np.ndarray, rows: np.ndarray) -> dict[str, str]:
    """Kernel-backed ``{sample_id: predicted string}`` of the encoded corpus,
    keyed by ``enc.id_to_idx`` in corpus order; see ``feature_rows``."""
    found = rows < len(weights)
    taken = np.zeros(len(rows))
    taken[found] = weights[rows[found]]
    slots = _kernels.predict_slots(enc, taken)  # a slot's character is its C key
    chars = "".join(map(chr, enc.feature_index[enc.slot_feats[slots, 0]].tolist()))
    bounds = enc.samp_pos_start.tolist()
    return {sid: chars[lo:hi] for sid, lo, hi in zip(enc.id_to_idx, bounds, bounds[1:])}


def predict_corpus(model: CorrectorModel, corpus: Corpus) -> dict[str, str]:
    """``{sample_id: predicted string}`` of a free-standing model (e.g. loaded
    from disk), in corpus order.

    Looks up only the corpus's own features, one binary search each in the
    model's keys; a feature the model lacks weighs 0.0.
    """
    enc = encode_corpus(corpus, model.confusion)
    return predict_encoded(enc, model.weights, feature_rows(model.keys, enc))


# --- model file -----------------------------------------------------------------

def model_to_tsv(model: CorrectorModel) -> str:
    """``_HEADER``, then rows sorted by feature name."""
    lines = [_HEADER + "\n"]
    for name, weight in sorted(zip(feature_names(model.keys), model.weights.tolist())):
        lines.append(f"{name}\t{weight!r}\n")
    return "".join(lines)


def parse_model(text: str, confusion: ConfusionSet) -> CorrectorModel:
    lines = numbered_lines(text)
    if next(lines, None) != (1, _HEADER):
        got = text.partition("\n")[0]
        raise MalformedLine(f"line 1: expected header {_HEADER!r}, got {got!r}")
    averaged: dict[int, float] = {}
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
        key = _feature_key(fields[0])
        if key is None:
            raise MalformedLine(f"line {line_no}: unknown feature {fields[0]!r}")
        if key in averaged:
            raise MalformedLine(f"line {line_no}: repeated feature {fields[0]!r}")
        averaged[key] = weight
    keys = np.array(sorted(averaged), dtype=np.int64)
    weights = np.array([averaged[k] for k in keys.tolist()], dtype=np.float64)
    return CorrectorModel(keys=keys, weights=weights, updates_seen=0, confusion=confusion)


def save_model(model: CorrectorModel, path) -> None:
    write_text(path, model_to_tsv(model))


def load_model(path, confusion: ConfusionSet) -> CorrectorModel:
    return parse_model(read_text(path), confusion)
