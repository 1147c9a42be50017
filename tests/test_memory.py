"""Peak memory of the corpus-sized steps: scoring, encoding and prediction.

``tracemalloc`` sees numpy's array allocations, so each peak is a
deterministic byte count.  The corpus is the seed-0 desk training corpus of
the acceptance suite: 2,000 sentences, 2,790 error positions, 141,703 slots.
"""

import tracemalloc
from dataclasses import fields
from functools import lru_cache

import numpy as np

from spellcl.corpus import Corpus, Sample, inject_errors
from spellcl.curriculum import arrange_shuffled_baseline
from spellcl.difficulty import score_corpus
from spellcl.embed import HashedEmbedder
from spellcl.model import encode_corpus, predict_corpus, train

from helpers import make_markov_corpus, make_symmetric_confusion, make_vocab

SLOTS = 141_703


@lru_cache(maxsize=1)
def desk_train():
    vocab = make_vocab(50)
    confusion = make_symmetric_confusion(vocab, n_pairs=100, seed=11)
    corpus = inject_errors(make_markov_corpus(vocab, 2000, seed=21), confusion,
                           rate=0.1, seed=31)
    return corpus, confusion


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
    # Each side's rows are written in place into one array, and the cosines
    # take fixed row blocks: about 2.2 R.  Lists of per-sample arrays and the
    # stacked copy of each peaked at 5.4 R.
    corpus, _ = desk_train()
    provider = HashedEmbedder()
    rows = row_bytes(corpus, provider)
    assert traced_peak(score_corpus, corpus, "contextual", provider=provider) < 4 * rows


def test_scoring_many_blocks_peaks_below_2_8_row_arrays():
    # 4 copies of the corpus, 11,160 error rows, so the cosines take many row
    # blocks: about 2.2 R, where one whole-corpus product temporary gave 3.1 R
    corpus, _ = desk_train()
    copies = Corpus(tuple(Sample(f"{i}.{s.id}", s.source, s.target)
                          for i in range(4) for s in corpus))
    provider = HashedEmbedder()
    assert sum(len(s.error_positions) for s in copies) == 11_160
    rows = row_bytes(copies, provider)
    assert traced_peak(score_corpus, copies, "contextual", provider=provider) < 2.8 * rows


def test_encoding_peaks_below_29_bytes_per_slot():
    # int32 per-position arrays and candidate entries, no padded slot table,
    # no per-slot character, ranks indexed in fixed blocks: about 26.4 bytes
    # per slot; an int32 character per slot peaked at 30.4, and a padded
    # table, int64 entries and slot-sized intp copies of the codes at 43.5
    corpus, confusion = desk_train()
    assert len(encode_corpus(corpus, confusion).slot_char) == SLOTS
    assert traced_peak(encode_corpus, corpus, confusion) < 29 * SLOTS


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


def test_prediction_peaks_below_48_bytes_per_slot():
    # the encoding, then one float64 score per slot summed a feature column at
    # a time and a running maximum over per-position arrays: about 42.5 bytes
    # per slot; the padded rows' scores and their intp index peaked at 61.3,
    # and the whole (slots, 6) float64 gather and its intp index at 93.6
    corpus, confusion = desk_train()
    model = train(arrange_shuffled_baseline(corpus.ids(), seed=0), corpus, confusion)
    assert traced_peak(predict_corpus, model, corpus) < 48 * SLOTS
