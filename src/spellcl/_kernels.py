"""Hot numeric kernels: the context-hash embedder and the averaged-perceptron
train/predict passes.

One implementation each.  The embedder is vectorized over positions per
window offset; the perceptron passes are plain loops, because an update
changes the scores of every later position and training must visit
samples strictly in manifest order.  Every float that matters is an
integer-valued weight, a sum of signed units, or a sum accumulated in a
fixed order, so results are bit-identical across runs and platforms.
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


def hash_embed(char_bytes, char_nbytes, window: int, dim: int) -> np.ndarray:
    n = char_bytes.shape[0]
    out = np.zeros((n, dim), dtype=np.float64)
    if n == 0:
        return out
    # FNV over each character's UTF-8 bytes; the offset byte is folded in
    # afterwards per offset, vectorized over positions.
    base = np.empty(n, dtype=np.uint64)
    for p in range(n):
        base[p] = fnv1a64(char_bytes[p, : char_nbytes[p]].tobytes())
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


def _train_loop(order, samp_pos_start, pos_slot_start, pos_n_real, pos_gold_slot,
                slot_feat_start, feat_ids, w, u_acc, last_upd, t_start):
    t = t_start
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


def _predict_loop(sample_idx, samp_pos_start, pos_slot_start, pos_n_real,
                  slot_feat_start, feat_ids, weights, out_slots):
    k = 0
    for oi in range(sample_idx.shape[0]):
        s = sample_idx[oi]
        for p in range(samp_pos_start[s], samp_pos_start[s + 1]):
            base = pos_slot_start[p]
            best_slot = base
            best_score = 0.0
            for si in range(base, base + pos_n_real[p]):
                sc = 0.0
                for fi in range(slot_feat_start[si], slot_feat_start[si + 1]):
                    f = feat_ids[fi]
                    if f >= 0:
                        sc += weights[f]
                if si == base or sc > best_score:
                    best_score = sc
                    best_slot = si
            out_slots[k] = best_slot
            k += 1


def train_pass(order, enc, w, u_acc, last_upd, t_start: int) -> int:
    """Run one sequential training pass over ``order``; returns the update count."""
    return int(_train_loop(order, enc.samp_pos_start, enc.pos_slot_start, enc.pos_n_real,
                           enc.pos_gold_slot, enc.slot_feat_start, enc.feat_ids,
                           w, u_acc, last_upd, t_start))


def predict_slots(sample_idx, enc, weights) -> np.ndarray:
    """Chosen slot per position for the given samples, flattened in order."""
    n_pos = int(
        (enc.samp_pos_start[sample_idx + 1] - enc.samp_pos_start[sample_idx]).sum()
    )
    out = np.empty(n_pos, dtype=np.int64)
    _predict_loop(sample_idx, enc.samp_pos_start, enc.pos_slot_start, enc.pos_n_real,
                  enc.slot_feat_start, enc.feat_ids, weights, out)
    return out
