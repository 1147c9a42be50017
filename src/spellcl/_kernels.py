"""Hot numeric kernels: the context-hash embedder and the averaged-perceptron
train/predict passes.

One implementation each, all vectorized with numpy.  The embedder works
over positions per window offset.  The perceptron passes read the
encoding's two fixed-width tables (``CorpusEncoding``, model.py):
``pos_slots`` (each position's candidate slots) and ``slot_feats`` (each
slot's feature ids).  The whole perceptron rule lives here, and both
passes give exactly what a loop over slots and features gives:

- ``train_pass`` must visit samples strictly in manifest order, since an
  update changes the scores of every later position.  It scores the next
  ``_BLOCK`` positions of the visiting order at once, applies the update of
  the first wrong one and resumes right after it.  That is exact in any
  summation order, because every training weight is an integer and every
  sum of them is held exactly in float64; ``argmax`` takes the first
  maximum, which is the loop's strict ``>`` tie-break.  The averaged
  weights are kept as a step-weighted sum (exact while T(T+1) < 2**53 for
  T updates).
- ``predict_slots`` scores every position in one call.  Averaged (and
  loaded) weights are not integers, so it adds a slot's features in index
  order, as the loop does (``np.add.accumulate``; a pairwise sum or
  ``np.add.reduceat`` can round differently).  The first slot is taken
  unless a later one scores strictly higher, so a NaN score never wins and
  a NaN first slot stays chosen.

Every feature id indexes the weight array passed in: the caller copies a
model's weights into the encoding's own feature numbering, 0.0 where the
model lacks a feature, so there are no unknown ids to skip.  Results are
bit-identical across runs and platforms.
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
# The corpus encoding (see model.py) gives every (position, candidate) a
# "slot": a row of ``slot_feats`` holding its feature ids.  Row
# ``pos_slots[p]`` lists position p's real candidates in tie-break order
# (observed character first, confusables in code-point order), then the
# padding slot.  Both kernels extend the weights with two entries: id
# ``n_feat`` (a slot's missing KEEP) weighs 0.0 and id ``n_feat + 1`` (the
# padding slot) weighs -inf, so a padding slot never beats a real one.
#
# Averaging (Daume III's step-weighted sum): update t adds +-1 to w[f] and
# +-t to c[f] for every feature f it touches, so after T updates
# ((T + 1) * w[f] - c[f]) is the integer sum of w[f] over the T weight
# vectors the updates left, and dividing it by T gives the averaged weight.
# |c[f]| <= T(T+1)/2 and |(T + 1) * w[f]| <= T(T+1), so every quantity is
# an integer held exactly in float64 while T(T+1) < 2**53 (T < 9.4e7).

# Positions scored per step of ``train_pass``; an update restarts the block
# right after the position it corrected.
_BLOCK = 32


def _extend(weights: np.ndarray) -> np.ndarray:
    """``weights`` followed by the sentinel 0.0 and the padding -inf."""
    return np.concatenate([weights, [0.0, -np.inf]])


def train_pass(order, enc, n_feat) -> tuple[np.ndarray, np.ndarray, int]:
    """One sequential training pass over the samples in ``order``, from zero
    weights over ``n_feat`` features; returns (final weights, averaged
    weights, update count)."""
    pos_slots, slot_feats = enc.pos_slots, enc.slot_feats
    # every position of every visited sample, in visiting order
    starts = enc.samp_pos_start[order]
    lens = enc.samp_pos_start[order + 1] - starts
    visits = np.arange(lens.sum()) + np.repeat(starts - (np.cumsum(lens) - lens), lens)
    gold = enc.pos_gold_slot[visits]
    w = _extend(np.zeros(n_feat))
    c = np.zeros(n_feat + 2)
    rows = np.arange(_BLOCK)
    ones = np.ones(slot_feats.shape[1])
    t = 0
    i = 0
    while i < visits.shape[0]:
        cand = pos_slots.take(visits[i:i + _BLOCK], axis=0)
        # "@ ones" is sum(-1), faster on a short axis; every weight is an
        # integer, so any summation order gives the same scores
        score = w.take(slot_feats.take(cand, axis=0)) @ ones
        best = cand[rows[:cand.shape[0]], score.argmax(1)]
        wrong = np.flatnonzero(best != gold[i:i + _BLOCK])
        if wrong.shape[0] == 0:
            i += cand.shape[0]
            continue
        k = wrong[0]
        t += 1
        up, down = slot_feats[gold[i + k]], slot_feats[best[k]]
        w[up] += 1.0
        w[down] -= 1.0
        c[up] += t
        c[down] -= t
        w[n_feat] = 0.0  # the missing-KEEP sentinel stays weightless
        i += k + 1
    w = w[:n_feat]
    # with no update, w and c are all zero and so is the average
    return w, ((t + 1) * w - c[:n_feat]) / max(t, 1), t


def predict_slots(enc, weights) -> np.ndarray:
    """Chosen slot per position of the encoded corpus, in position order.

    A slot's score adds its features in index order.  The first slot is
    taken unless a later one scores strictly higher, so a NaN score never
    wins, and a NaN in the first slot keeps it.
    """
    slot_score = np.add.accumulate(_extend(weights)[enc.slot_feats], axis=1)[:, -1]
    scores = slot_score[enc.pos_slots]
    nan = np.isnan(scores)
    scores[nan] = -np.inf
    scores[nan[:, 0], 0] = np.inf
    return enc.pos_slots[np.arange(scores.shape[0]), scores.argmax(1)]
