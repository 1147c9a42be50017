"""Hot numeric kernels: the context-hash embedder and the averaged-perceptron
train/predict passes.

One implementation each.  The embedder builds only the rows it is asked
for, with a plain loop over each row's window.  The perceptron passes are
vectorized with numpy over the encoding (``CorpusEncoding``, model.py):
``slot_feats`` (each slot's feature ids) and each position's first slot
and real-slot count, from which training builds padded rows of candidate
slots as it needs them.  The whole perceptron rule lives here, and both
passes give exactly what a loop over slots and features gives:

- ``train_pass`` must visit samples strictly in manifest order, since an
  update changes the scores of every later position.  It scores the next
  ``_BLOCK`` positions of the visiting order at once, applies the update of
  the first wrong one and resumes right after it.  That is exact in any
  summation order, BLAS's ``np.dot`` included, because every training
  weight is an integer and every sum of them is held exactly in float64;
  ``argmax`` takes the first maximum, which is the loop's strict ``>``
  tie-break.  The feature ids of ``_CHUNK`` visits are gathered at once,
  so a block is a slice of that table and stops at the chunk's end.  An
  update is one write to the weights and one entry in a log of (gold slot,
  predicted slot) pairs; the averaging sum is one ``np.bincount`` over that
  log after the pass (exact while T(T+1) < 2**53 for T updates, checked).
- ``predict_slots`` scores every position in one call.  Averaged (and
  loaded) weights are not integers, so it adds a slot's features in index
  order, as the loop does: one vector add per feature column, left to
  right (a pairwise sum or ``np.add.reduceat`` can round differently).
  A running strict maximum over the real slots keeps the first unless a
  later one scores higher: a NaN never wins, and a NaN first slot stays.

Every feature id indexes the weight array passed in: the caller copies a
model's weights into the encoding's own feature numbering, 0.0 where the
model lacks a feature, so there are no unknown ids to skip.  Results are
bit-identical across runs and platforms.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def fnv1a64(data: bytes) -> int:
    """Reference FNV-1a 64 over a byte string (python ints, no wrapping tricks)."""
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


# --- context-hash embedding --------------------------------------------------
#
# Vector at position j is the sum over in-bounds offsets o in [-w, w] of a
# signed unit at index FNV1a64(utf8(char at j+o) ++ signed_byte(o)) mod d,
# sign taken from bit 63 of the hash.  Every component is a sum of +-1.0, an
# integer held exactly in float64, so a row is the same bit for bit whatever
# other positions are built with it and in whatever order its units are added.

# Per (window, dim), each character's signed units over offsets -w..w: a
# tuple of indices and a tuple of signs, filled on first use: ~0.2 KB per
# distinct character at the default w=2, ~4 KB at the largest w=127.
_UNITS: dict[tuple[int, int], dict[str, tuple[tuple[int, ...], tuple[float, ...]]]] = {}


def _char_units(ch: str, window: int, dim: int) -> tuple[tuple[int, ...], tuple[float, ...]]:
    # surrogatepass: a lone surrogate hashes as its three-byte encoding, so
    # every sample that encodes (model.encode_corpus) also embeds
    base = fnv1a64(ch.encode("utf-8", "surrogatepass"))
    hs = [((base ^ (o & 0xFF)) * _FNV_PRIME) & _MASK64 for o in range(-window, window + 1)]
    return tuple(h % dim for h in hs), tuple(-1.0 if h >> 63 else 1.0 for h in hs)


def hash_embed(sequence: str, window: int, dim: int, positions) -> np.ndarray:
    """The context vectors of ``sequence`` at ``positions`` (in range, any
    order, repeats allowed), shape ``(len(positions), dim)``."""
    n = len(sequence)
    units = _UNITS.setdefault((window, dim), {})
    out = np.zeros((len(positions), dim), dtype=np.float64)
    # at most 2w+1 neighbours per row: a plain loop beats any batched form
    for r, j in enumerate(positions):
        for p in range(max(0, j - window), min(n, j + window + 1)):
            ch = sequence[p]
            u = units.get(ch)
            if u is None:
                u = units[ch] = _char_units(ch, window, dim)
            o = p - j + window
            out[r, u[0][o]] += u[1][o]
    return out


# --- averaged perceptron over a pre-encoded corpus ---------------------------
#
# The corpus encoding (see model.py) gives every (position, candidate) a
# "slot": a row of ``slot_feats`` holding its feature ids.  Position p's
# real candidates are the ``pos_n_real[p]`` slots from ``pos_first_slot[p]``
# on, in tie-break order (observed character first, confusables in
# code-point order).  Training alone pads them, to the widest position's
# count with copies of the first slot (``_row_maker``), which tie with it,
# so ``argmax`` (the first maximum) never chooses one.  Both kernels extend
# the weights with id ``n_feat``, a slot's missing KEEP, weighed 0.0.
#
# An update adds +1 to the weights of its gold slot's features and -1 to
# its predicted slot's in one fancy-index write of 2 * SLOT_WIDTH flat ids:
# two candidates of one position share no id but the missing-KEEP sentinel,
# reset after the write.
#
# Index arrays are intp: numpy casts a narrower index array to intp on every
# call, a large part of the cost of a gather or write this small.
# ``slot_feats`` stays narrow in the encoding (int16 on desk-shaped corpora,
# a quarter of intp's memory), so the pass casts one chunk of gathered ids at
# a time (~0.5-0.8 MB on the benchmark's corpora, whatever the corpus size),
# and an update's gold ids join the chunk's intp predicted ids.
#
# Averaging (Daume III's step-weighted sum): update t adds +-1 to w[f] and
# +-t to c[f] for every feature f it touches, so after T updates
# ((T + 1) * w[f] - c[f]) is the integer sum of w[f] over the T weight
# vectors the updates left, and dividing it by T gives the averaged weight.
# The pass only logs each update's two slots and builds c after the loop,
# in one ``np.bincount``.  |c[f]| <= T(T+1)/2 and |(T + 1) * w[f]| <=
# T(T+1), so every quantity is an integer held exactly in float64, in any
# summation order, while T(T+1) < 2**53: for T <= _MAX_UPDATES, checked.
_MAX_UPDATES = 94_906_265

# Positions scored per step of ``train_pass``; an update restarts the block
# right after the position it corrected.
_BLOCK = 32
# Visits whose feature ids ``train_pass`` gathers into one intp table.
_CHUNK = 1024


def _extend(weights: np.ndarray) -> np.ndarray:
    """``weights`` followed by the sentinel 0.0."""
    return np.concatenate([weights, [0.0]])


def _row_maker(enc, width: int):
    """A function from positions to their intp slot rows: each one's real
    slots, then copies of its first slot up to ``width`` columns."""
    # row k, for k real slots: offsets 0..k-1, then 0, the first slot's
    offsets = np.tril(np.broadcast_to(np.arange(width), (width + 1, width)), -1)

    def rows(positions):
        out = offsets.take(enc.pos_n_real[positions], axis=0)
        out += enc.pos_first_slot[positions][:, None]
        return out
    return rows


def train_pass(order, enc) -> tuple[np.ndarray, np.ndarray, int]:
    """One sequential training pass over the samples in ``order``, from zero
    weights over the encoding's features; returns (final weights, averaged
    weights, update count)."""
    slot_feats, n_feat = enc.slot_feats, len(enc.feature_index)
    # every position of every visited sample, in visiting order
    starts = enc.samp_pos_start[order]
    lens = enc.samp_pos_start[order + 1] - starts
    visits = np.repeat(starts - (np.cumsum(lens) - lens), lens)
    visits += np.arange(len(visits))
    width = int(enc.pos_n_real.max(initial=1))
    rows = _row_maker(enc, width)
    w = _extend(np.zeros(n_feat))
    ones = np.ones(slot_feats.shape[1])
    signs = np.repeat([1.0, -1.0], slot_feats.shape[1])  # gold ids, then predicted
    block, chunk = _BLOCK, _CHUNK
    log = []  # (gold slot, predicted slot) of every update, in order
    for lo in range(0, visits.shape[0], chunk):
        cand = rows(visits[lo:lo + chunk])
        gold = enc.pos_gold_slot.take(visits[lo:lo + chunk])
        # the gold slot's column in its position's row: a hidden gold slot's
        # is at least the row's real count, which argmax never reaches
        gcol = gold - cand[:, 0]
        # row r * width + c holds the ids of slot c of the chunk's visit r
        feats = slot_feats.take(cand.ravel(), axis=0).astype(np.intp)
        i = 0
        while i < cand.shape[0]:
            # a block that would cross the chunk's end is cut short there
            scores = np.dot(w.take(feats[i * width:(i + block) * width]), ones)
            best = scores.reshape(-1, width).argmax(1)
            wrong = best != gcol[i:i + block]
            k = int(wrong.argmax())
            if not wrong[k]:
                i += block
                continue
            i += k
            p = int(best[k])
            w[np.concatenate((slot_feats[gold[i]], feats[i * width + p]))] += signs
            w[n_feat] = 0.0  # the missing-KEEP sentinel stays weightless
            log.append((gold[i], cand[i, p]))
            i += 1
    t = len(log)
    if t > _MAX_UPDATES:
        raise ConfigError(f"{t} updates; averaged weights are exact for at most {_MAX_UPDATES}")
    w = w[:n_feat]
    feats = slot_feats.take(np.asarray(log, dtype=np.intp).reshape(t, 2), axis=0)
    del visits, log
    steps = np.arange(1.0, t + 1.0)[:, None] * signs  # shaped as feats.reshape(t, -1)
    c = np.bincount(feats.ravel(), steps.ravel(), minlength=n_feat)
    del feats, steps
    avg = w * (t + 1)
    avg -= c[:n_feat]
    # with no update, w and c are all zero and so is the average
    avg /= max(t, 1)
    return w, avg, t


def predict_slots(enc, weights) -> np.ndarray:
    """Chosen slot per position of the encoded corpus, in position order.

    A slot's score adds its features in index order.  The first slot is
    taken unless a later one scores strictly higher, so a NaN score never
    wins, and a NaN in the first slot keeps it.
    """
    w, ids = _extend(weights), enc.slot_feats.T
    slot_score = w.take(ids[0])
    with np.errstate(invalid="ignore", over="ignore"):  # inf + -inf is NaN; an overflow +-inf
        for column in ids[1:]:
            slot_score += w.take(column)
    first, last = enc.pos_first_slot, enc.pos_first_slot + (enc.pos_n_real - 1)
    chosen = first.copy()
    for c in range(1, enc.pos_n_real.max(initial=1)):
        slot = np.minimum(first + c, last)  # past its last real slot a position re-reads it
        np.copyto(chosen, slot, where=slot_score.take(slot) > slot_score.take(chosen))
    return chosen
