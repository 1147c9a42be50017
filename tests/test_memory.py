"""Peak memory of the two corpus-sized steps, scoring and encoding.

``tracemalloc`` sees numpy's array allocations, so each peak is a
deterministic byte count.  The corpus is the seed-0 desk training corpus of
the acceptance suite: 2,000 sentences, 2,790 error positions, 141,703 slots.
"""

import tracemalloc
from functools import lru_cache

from spellcl.corpus import inject_errors
from spellcl.difficulty import score_corpus
from spellcl.embed import HashedEmbedder
from spellcl.model import encode_corpus

from helpers import make_markov_corpus, make_symmetric_confusion, make_vocab


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


def test_scoring_peaks_below_four_row_arrays():
    # R is one side's rows, (error positions, dim) float64.  Each side's rows
    # are written in place into one array, and the cosines add one product
    # array: about 3.1 R.  Lists of per-sample arrays and the stacked copy of
    # each peaked at 5.4 R.
    corpus, _ = desk_train()
    provider = HashedEmbedder()
    rows = sum(len(s.error_positions) for s in corpus) * provider.dim * 8
    assert traced_peak(score_corpus, corpus, "contextual", provider=provider) < 4 * rows


def test_encoding_peaks_below_54_bytes_per_slot():
    # int16 feature ids and no int64 copy of a slot-sized array: about 46
    # bytes per slot; int32 ids and int64 ranks peaked at 62
    corpus, confusion = desk_train()
    slots = len(encode_corpus(corpus, confusion).slot_char)
    assert slots == 141_703
    assert traced_peak(encode_corpus, corpus, confusion) < 54 * slots
