"""Hot numeric kernels: the context-hash embedder and the averaged-perceptron
train/predict passes.

One implementation each.  The embedder is vectorized over positions per
window offset; the perceptron passes are plain loops, because an update
changes the scores of every later position and training must visit
samples strictly in manifest order.  Every float that matters is an
integer-valued weight, a sum of signed units, or a sum accumulated in a
fixed order, so results are bit-identical across runs and platforms.

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
# Averaging bookkeeping: u_acc[f] holds the prefix sum of w[f] snapshots
# through the last update that touched f (at index last_upd[f]); the final
# averaged weight is (u_acc[f] + w[f] * (T - last_upd[f])) / T.  Updates
# are +-1, so every quantity is integer-valued and exact in float64.


def train_pass(order, enc, w, u_acc, last_upd) -> int:
    """Run one sequential training pass over ``order``; returns the update count."""
    samp_pos_start = enc.samp_pos_start
    pos_slot_start = enc.pos_slot_start
    pos_n_real = enc.pos_n_real
    pos_gold_slot = enc.pos_gold_slot
    slot_feat_start = enc.slot_feat_start
    feat_ids = enc.feat_ids
    t = 0
    for oi in range(order.shape[0]):
        s = order[oi]
        for p in range(samp_pos_start[s], samp_pos_start[s + 1]):
            base = pos_slot_start[p]
            best_slot = base
            best_score = 0.0
            for si in range(base, base + pos_n_real[p]):
                sc = 0.0
                for fi in range(slot_feat_start[si], slot_feat_start[si + 1]):
                    sc += w[feat_ids[fi]]
                if si == base or sc > best_score:
                    best_score = sc
                    best_slot = si
            g = pos_gold_slot[p]
            if best_slot != g:
                t += 1
                for fi in range(slot_feat_start[g], slot_feat_start[g + 1]):
                    f = feat_ids[fi]
                    u_acc[f] += w[f] * (t - last_upd[f]) + 1.0
                    w[f] += 1.0
                    last_upd[f] = t
                for fi in range(slot_feat_start[best_slot], slot_feat_start[best_slot + 1]):
                    f = feat_ids[fi]
                    u_acc[f] += w[f] * (t - last_upd[f]) - 1.0
                    w[f] -= 1.0
                    last_upd[f] = t
    return t


def predict_slots(enc, weights) -> np.ndarray:
    """Chosen slot per position of the encoded corpus, in position order."""
    pos_slot_start = enc.pos_slot_start
    pos_n_real = enc.pos_n_real
    slot_feat_start = enc.slot_feat_start
    feat_ids = enc.feat_ids
    n_pos = pos_n_real.shape[0]
    out_slots = np.empty(n_pos, dtype=np.int64)
    for p in range(n_pos):
        base = pos_slot_start[p]
        best_slot = base
        best_score = 0.0
        for si in range(base, base + pos_n_real[p]):
            sc = 0.0
            for fi in range(slot_feat_start[si], slot_feat_start[si + 1]):
                sc += weights[feat_ids[fi]]
            if si == base or sc > best_score:
                best_score = sc
                best_slot = si
        out_slots[p] = best_slot
    return out_slots
