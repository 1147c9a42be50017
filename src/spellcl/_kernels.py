"""Hot numeric kernels: the context-hash embedder and the averaged-perceptron
train/predict passes.

One implementation each.  The embedder is vectorized over positions per
window offset; the perceptron passes are plain loops, because an update
changes the scores of every later position and training must visit
samples strictly in manifest order.  The whole perceptron rule lives here:
both passes pick a slot through one argmax, ``_best_slot``, and
``train_pass`` owns its weight arrays and returns the averaged weights,
kept as a step-weighted sum (exact while T(T+1) < 2**53 for T updates).
Every float that matters is an integer-valued weight, a sum of signed
units, or a sum accumulated in a fixed order, so results are bit-identical
across runs and platforms.

Encoding fields read (``CorpusEncoding``, model.py): ``train_pass`` reads
``samp_pos_start``, ``pos_slot_start``, ``pos_n_real``, ``pos_gold_slot``,
``slot_feat_start`` and ``feat_ids``; ``predict_slots`` reads the same but
``samp_pos_start`` and ``pos_gold_slot``, walking every position in order.
Every feature id indexes the weight array passed in: the caller copies a
model's weights into the encoding's own feature numbering, 0.0 where the
model lacks a feature, so there are no unknown ids to skip.
"""

from __future__ import annotations

import numpy as np

FNV_PRIME = np.uint64(0x100000001B3)


def fnv1a64(data: bytes) -> int:
    """Reference FNV-1a 64 over a byte string (python ints, no wrapping tricks)."""
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


# --- context-hash embedding --------------------------------------------------
#
# Vector at position j is the sum over in-bounds offsets o in [-w, w] of a
# signed unit at index FNV1a64(utf8(char at j+o) ++ signed_byte(o)) mod d,
# sign taken from bit 63 of the hash.


def hash_embed(sequence: str, window: int, dim: int) -> np.ndarray:
    n = len(sequence)
    out = np.zeros((n, dim), dtype=np.float64)
    # FNV over each character's UTF-8 bytes; the offset byte is folded in
    # afterwards per offset, vectorized over positions.
    base = np.empty(n, dtype=np.uint64)
    for p, ch in enumerate(sequence):
        base[p] = fnv1a64(ch.encode("utf-8"))
    positions = np.arange(n)
    for o in range(-window, window + 1):
        h = (base ^ np.uint64(o & 0xFF)) * FNV_PRIME
        idx = (h % np.uint64(dim)).astype(np.int64)
        sign = np.where((h >> np.uint64(63)) == 0, 1.0, -1.0)
        j = positions - o
        ok = (j >= 0) & (j < n)
        np.add.at(out, (j[ok], idx[ok]), sign[ok])
    return out


# --- averaged perceptron over a pre-encoded corpus ---------------------------
#
# The corpus encoding (see model.py) flattens every (position, candidate)
# into a "slot" whose features are a contiguous run of integer IDs.  Slots
# 0..pos_n_real-1 at a position are the real candidates in tie-break order
# (observed character first, confusables in code-point order); when the
# gold character is not a candidate, its features occupy one extra hidden
# slot that scoring never considers.
#
# Averaging (Daume III's step-weighted sum): update t adds +-1 to w[f] and
# +-t to c[f] for every feature f it touches, so after T updates
# ((T + 1) * w[f] - c[f]) is the integer sum of w[f] over the T weight
# vectors the updates left, and dividing it by T gives the averaged weight.
# |c[f]| <= T(T+1)/2 and |(T + 1) * w[f]| <= T(T+1), so every quantity is
# an integer held exactly in float64 while T(T+1) < 2**53 (T < 9.4e7).


def _best_slot(first, stop, slot_feat_start, feat_ids, w):
    """Highest-scoring slot in ``first..stop-1``, the first on ties: slot
    ``first`` is always taken, a later one only if it scores strictly
    higher, so a NaN score never wins over it."""
    best_slot = first
    best_score = 0.0
    for si in range(first, stop):
        sc = 0.0
        for fi in range(slot_feat_start[si], slot_feat_start[si + 1]):
            sc += w[feat_ids[fi]]
        if si == first or sc > best_score:
            best_score = sc
            best_slot = si
    return best_slot


def train_pass(order, enc, n_feat) -> tuple[np.ndarray, np.ndarray, int]:
    """One sequential training pass over the samples in ``order``, from zero
    weights over ``n_feat`` features; returns (final weights, averaged
    weights, update count)."""
    samp_pos_start = enc.samp_pos_start
    pos_slot_start = enc.pos_slot_start
    pos_n_real = enc.pos_n_real
    pos_gold_slot = enc.pos_gold_slot
    slot_feat_start = enc.slot_feat_start
    feat_ids = enc.feat_ids
    w = np.zeros(n_feat, dtype=np.float64)
    c = np.zeros(n_feat, dtype=np.float64)
    t = 0
    for oi in range(order.shape[0]):
        s = order[oi]
        for p in range(samp_pos_start[s], samp_pos_start[s + 1]):
            base = pos_slot_start[p]
            best = _best_slot(base, base + pos_n_real[p], slot_feat_start, feat_ids, w)
            g = pos_gold_slot[p]
            if best != g:
                t += 1
                for fi in range(slot_feat_start[g], slot_feat_start[g + 1]):
                    f = feat_ids[fi]
                    w[f] += 1.0
                    c[f] += t
                for fi in range(slot_feat_start[best], slot_feat_start[best + 1]):
                    f = feat_ids[fi]
                    w[f] -= 1.0
                    c[f] -= t
    # with no update, w and c are all zero and so is the average
    return w, ((t + 1) * w - c) / max(t, 1), t


def predict_slots(enc, weights) -> np.ndarray:
    """Chosen slot per position of the encoded corpus, in position order."""
    slot_feat_start = enc.slot_feat_start
    feat_ids = enc.feat_ids
    return np.array([_best_slot(base, base + n_real, slot_feat_start, feat_ids, weights)
                     for base, n_real in zip(enc.pos_slot_start[:-1], enc.pos_n_real)],
                    dtype=np.int64)
