"""Peak memory of the corpus-sized steps: scoring, encoding, training and
prediction.

``tracemalloc`` sees numpy's array allocations, so each peak is a
deterministic byte count.  The corpus is the seed-0 desk training corpus of
the acceptance suite: 2,000 sentences, 2,790 error positions, 141,703 slots.
Four renamed copies of it (11,160 error positions, 566,812 slots) take
several of each step's fixed blocks, so a peak that grows with the corpus
shows there.
"""

import tracemalloc
from dataclasses import fields
from functools import lru_cache

import numpy as np

from spellcl.corpus import Corpus, Sample, inject_errors
from spellcl.curriculum import arrange_annealing, arrange_shuffled_baseline
from spellcl.difficulty import score_corpus
from spellcl.embed import HashedEmbedder
from spellcl.model import encode_corpus, predict_corpus, train, train_encoded

from helpers import make_markov_corpus, make_symmetric_confusion, make_vocab

SLOTS = 141_703


@lru_cache(maxsize=1)
def desk_train():
    vocab = make_vocab(50)
    confusion = make_symmetric_confusion(vocab, n_pairs=100, seed=11)
    corpus = inject_errors(make_markov_corpus(vocab, 2000, seed=21), confusion,
                           rate=0.1, seed=31)
    return corpus, confusion


@lru_cache(maxsize=1)
def desk_copies() -> Corpus:
    corpus, _ = desk_train()
    return Corpus(tuple(Sample(f"{i}.{s.id}", s.source, s.target)
                        for i in range(4) for s in corpus))


def traced_peak(fn, *args, **kwargs) -> int:
    """Peak bytes allocated during a call of ``fn``, after one untraced call
    that fills the caches every later call finds filled."""
    fn(*args, **kwargs)
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def row_bytes(corpus, provider) -> int:
    """R: one side's rows, (error positions, dim) float64."""
    return sum(len(s.error_positions) for s in corpus) * provider.dim * 8


def test_scoring_peaks_below_four_row_arrays():
    # Each side's rows pass through blocks of whole samples, about 512 rows
    # each, held as the answers and their float64 copy: about 1.01 R at the
    # desk corpus's 2,790 error rows, four fifths of it the blocks.  One
    # (error positions, dim) array per side peaked at 2.5 R, and lists of
    # per-sample arrays and the stacked copy of each at 5.4 R.
    corpus, _ = desk_train()
    provider = HashedEmbedder()
    rows = row_bytes(corpus, provider)
    assert traced_peak(score_corpus, corpus, "contextual", provider=provider) < 4 * rows


def test_scoring_many_blocks_peaks_below_0_4_row_arrays():
    # the 4 copies' 11,160 error rows pass through blocks of whole samples,
    # about 512 rows per side, so the peak is one block's answers and their
    # float64 copy, the rows' cosines, the scores and the returned dict: about
    # 0.28 R; one (error positions, dim) array per side peaked at 2.2 R, and
    # a whole-corpus product temporary on top at 3.1 R
    copies = desk_copies()
    provider = HashedEmbedder()
    assert sum(len(s.error_positions) for s in copies) == 11_160
    rows = row_bytes(copies, provider)
    assert traced_peak(score_corpus, copies, "contextual", provider=provider) < 0.4 * rows


def test_encoding_peaks_below_29_bytes_per_slot():
    # int32 per-position arrays, no padded slot table, no per-slot character,
    # codes written and ranked in place in fixed blocks: about 22.4 bytes per
    # slot; slot-sized code temporaries peaked at 26.4, an int32 character per
    # slot on top at 30.4, and a padded table, int64 entries and slot-sized
    # intp copies of the codes at 43.5
    corpus, confusion = desk_train()
    assert len(encode_corpus(corpus, confusion).slot_char) == SLOTS
    assert traced_peak(encode_corpus, corpus, confusion) < 29 * SLOTS


def test_encoding_many_blocks_peaks_below_19_bytes_per_slot():
    # the 4 copies take many blocks of positions, and each block's codes go
    # straight into their slot_feats columns, ranked there: about 17.7 bytes
    # per slot, where slot-sized entry, class and code temporaries peaked at 25.8
    _, confusion = desk_train()
    copies = desk_copies()
    slots = len(encode_corpus(copies, confusion).slot_feats)
    assert slots == 566_812
    assert traced_peak(encode_corpus, copies, confusion) < 19 * slots


def test_encoding_arrays_hold_below_16_bytes_per_slot():
    # 12 bytes of int16 feature ids per slot (a slot's character is its C
    # feature's key) and three int32 arrays per position: about 15 bytes per
    # slot; an int32 code point per slot held 19.0, and int64 position arrays
    # and the padded slot table 27.8
    corpus, confusion = desk_train()
    enc = encode_corpus(corpus, confusion)
    assert sum(a.nbytes for a in held_arrays(enc)) < 16 * SLOTS


def held_arrays(enc) -> list[np.ndarray]:
    """Every array the encoding holds, in a field or in a tuple or list
    field, each counted once."""
    arrays = {}
    for field in fields(enc):
        value = getattr(enc, field.name)
        for item in value if isinstance(value, (tuple, list)) else (value,):
            if isinstance(item, np.ndarray):
                arrays[id(item)] = item
    return list(arrays.values())


def test_prediction_peaks_below_24_bytes_per_slot():
    # the peak is the encoding's own (see above): the slots are scored in
    # fixed blocks of positions and the predicted string decoded from one
    # code-point array, about 22.4 bytes per slot; one float64 score per slot
    # and a Python string per predicted character peaked at 42.5, and the
    # padded rows' scores and their intp index at 61.3
    corpus, confusion = desk_train()
    model = train(arrange_shuffled_baseline(corpus.ids(), seed=0), corpus, confusion)
    assert traced_peak(predict_corpus, model, corpus) < 24 * SLOTS


def test_training_peaks_below_13_bytes_per_visit():
    # one int32 per visit for the visiting order, each chunk's intp positions
    # built from it: about 12.1 bytes per visit; an int64 order and an int64
    # arange beside it peaked at 17.7
    _, confusion = desk_train()
    copies = desk_copies()
    enc = encode_corpus(copies, confusion)
    scores = score_corpus(copies, "contextual", provider=HashedEmbedder())
    manifest = arrange_annealing(scores, k=4, seed=0)
    order = [enc.id_to_idx[sid] for stage in manifest.stages for sid in stage]
    visits = int(sum(enc.samp_pos_start[i + 1] - enc.samp_pos_start[i] for i in order))
    assert visits == 225_856
    assert traced_peak(train_encoded, enc, manifest) < 13 * visits
