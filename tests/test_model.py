"""Averaged-perceptron corrector: features, training, prediction, model file."""

import math
import re
from collections import defaultdict
from functools import reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spellcl import _kernels
from spellcl.corpus import (
    ConfusionSet,
    Corpus,
    Sample,
    inject_errors,
    parse_corpus,
)
from spellcl.curriculum import (
    arrange_annealing,
    arrange_shuffled_baseline,
    arrange_sorted_only,
)
from spellcl.difficulty import score_corpus
from spellcl.embed import HashedEmbedder
from spellcl.errors import ConfigError, IdMismatch, MalformedLine
from spellcl.model import (
    BOS,
    EOS,
    SLOT_WIDTH,
    CorrectorModel,
    _rank,
    encode_corpus,
    feature_names,
    feature_rows,
    load_model,
    manifest_order,
    model_to_tsv,
    parse_model,
    predict_corpus,
    predict_encoded,
    save_model,
    train,
    train_encoded,
)

from helpers import (
    candidate_set,
    featurize,
    make_clean_corpus,
    make_markov_corpus,
    make_symmetric_confusion,
    make_vocab,
    model_from_weights,
    overfit_fixture,
    weights_by_name,
)


def trace_train(manifest, corpus, confusion):
    """Independent dict-based training trace capturing a snapshot per update."""
    w = defaultdict(float)
    snapshots = []
    by_id = {s.id: s for s in corpus}
    for stage in manifest.stages:
        for sid in stage:
            s = by_id[sid]
            for j in range(len(s.source)):
                best, best_sc = None, 0.0
                for ci, c in enumerate(candidate_set(s.source, j, confusion)):
                    sc = 0.0
                    for key in featurize(s.source, j, c):
                        sc += w[key]
                    if ci == 0 or sc > best_sc:
                        best, best_sc = c, sc
                gold = s.target[j]
                if best != gold:
                    for key in featurize(s.source, j, gold):
                        w[key] += 1.0
                    for key in featurize(s.source, j, best):
                        w[key] -= 1.0
                    snapshots.append({k: v for k, v in w.items() if v != 0.0})
    keys = set()
    for sn in snapshots:
        keys.update(sn)
    averaged = {
        k: sum(sn.get(k, 0.0) for sn in snapshots) / len(snapshots) for k in keys
    } if snapshots else {}
    final = {k: v for k, v in w.items() if v != 0.0}
    return final, averaged, len(snapshots)


def final_weights(manifest, corpus, confusion):
    """Non-zero final (not averaged) weights by feature name, from ``train_encoded``."""
    enc = encode_corpus(corpus, confusion)
    w, _, _ = train_encoded(enc, manifest)
    names = feature_names(enc.feature_index)
    return {name: float(w[i]) for i, name in enumerate(names) if w[i] != 0.0}


def assert_kernel_matches_trace(corpus, confusion, manifest):
    """``train_encoded``'s full returned arrays equal the trace oracle's, laid
    out in the encoding's feature numbering; returns the update count."""
    enc = encode_corpus(corpus, confusion)
    w, averaged, t = train_encoded(enc, manifest)
    final, trace_avg, n_updates = trace_train(manifest, corpus, confusion)
    names = feature_names(enc.feature_index)
    assert set(final) | set(trace_avg) <= set(names)
    assert t == n_updates
    assert np.array_equal(w, [final.get(name, 0.0) for name in names])
    assert np.array_equal(averaged, [trace_avg.get(name, 0.0) for name in names])
    return t


def predict_one(model, sample):
    """``predict_corpus`` on the one-sample corpus of ``sample``."""
    return predict_corpus(model, Corpus((sample,)))[sample.id]


def reference_predict(model, sample):
    """Independent dict-based prediction of the predicted string from the
    averaged weight map."""
    aw = weights_by_name(model)
    src = sample.source
    out = []
    for j in range(len(src)):
        best_char = src[j]
        best_score = 0.0
        for ci, cand in enumerate(candidate_set(src, j, model.confusion)):
            score = 0.0
            for key in featurize(src, j, cand):
                score += aw.get(key, 0.0)
            if ci == 0 or score > best_score:
                best_score = score
                best_char = cand
        out.append(best_char)
    return "".join(out)


def reference_items(model, corpus):
    """``reference_predict`` of each sample, as the items of a prediction dict."""
    return [(s.id, reference_predict(model, s)) for s in corpus]


class LookupOnly(np.ndarray):
    """A model array that allows binary searches and reads of fewer rows
    than it holds; any other use of the whole array fails."""

    def _whole(self, what):
        raise AssertionError(f"{what} over the whole model array")

    def _read(self, out):
        if np.size(out) >= len(self):
            self._whole("a read")
        return out

    def __array_function__(self, func, types, args, kwargs):
        if func is not np.searchsorted:
            self._whole(f"np.{func.__name__}")
        return np.searchsorted(*(a.view(np.ndarray) if isinstance(a, LookupOnly) else a
                                 for a in args), **kwargs)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        self._whole(f"np.{ufunc.__name__}")

    def __getitem__(self, index):
        return self._read(self.view(np.ndarray)[index])

    def take(self, *args, **kwargs):
        return self._read(self.view(np.ndarray).take(*args, **kwargs))

    def __iter__(self):
        self._whole("iteration")

    def tolist(self):
        self._whole("tolist")

    def copy(self, *args, **kwargs):
        self._whole("a copy")

    def astype(self, *args, **kwargs):
        self._whole("astype")


def same_model(a, b, updates=True):
    """Equal key and weight arrays, bit for bit and dtype for dtype (models
    compare by identity), and equal update counts."""
    return (a.keys.dtype == b.keys.dtype == np.int64 and a.keys.tobytes() == b.keys.tobytes()
            and a.weights.dtype == b.weights.dtype == np.float64
            and a.weights.tobytes() == b.weights.tobytes()
            and (not updates or a.updates_seen == b.updates_seen))


def small_noisy_setup(n_sentences=30, seed=0):
    vocab = make_vocab(12)
    confusion = make_symmetric_confusion(vocab, n_pairs=10, seed=3)
    clean = make_clean_corpus(vocab, n_sentences, seed=seed, min_len=5, max_len=10)
    noisy = inject_errors(clean, confusion, rate=0.2, seed=seed + 1)
    return noisy, confusion


# Small random corpora: sources over a short alphabet, gold characters that
# may fall outside the candidate set (the hidden-slot path), and an
# annealing manifest over random scores, whose last stage revisits every
# sample.
ALPHABET = "abcdé他"


@st.composite
def random_corpus(draw, prefix="s"):
    rows = draw(st.lists(st.text(alphabet=ALPHABET, min_size=1, max_size=7),
                         min_size=1, max_size=6))
    samples = []
    for i, src in enumerate(rows):
        tgt = "".join(draw(st.sampled_from(ALPHABET)) if draw(st.booleans()) else c
                      for c in src)
        samples.append(Sample(id=f"{prefix}{i}", source=src, target=tgt))
    return Corpus(samples=tuple(samples))


CONFUSIONS = st.builds(ConfusionSet, st.dictionaries(
    st.sampled_from(ALPHABET), st.sets(st.sampled_from(ALPHABET + "Z"), max_size=3),
    max_size=len(ALPHABET),
))

# Weights whose sums round differently in different orders (1e16 + 1.0 is
# 1e16), so a prediction that adds a slot's features out of order shows; a
# slot holding both infinities scores NaN, which the argmax never picks over
# an earlier slot and which, in the first slot, no later slot beats; two
# finite 1e308s of one sign overflow to an infinity of that sign.
NON_ASSOCIATIVE = (1e16, -1e16, 1.0, 0.5, 3.0, float("inf"), float("-inf"), 1e308, -1e308)


@st.composite
def random_setup(draw, long_sample=False):
    corpus = draw(random_corpus())
    if long_sample:
        # one sample longer than a training block, so a block boundary falls
        # inside it
        src = draw(st.text(alphabet=ALPHABET, min_size=_kernels._BLOCK + 1,
                           max_size=2 * _kernels._BLOCK + 3))
        tgt = "".join(draw(st.sampled_from(ALPHABET)) if draw(st.booleans()) else c
                      for c in src)
        corpus = Corpus(samples=corpus.samples + (Sample(id="long", source=src, target=tgt),))
    confusion = draw(CONFUSIONS)
    scores = draw(st.lists(st.integers(0, 3), min_size=len(corpus), max_size=len(corpus)))
    k = draw(st.integers(1, len(corpus)))
    manifest = arrange_annealing(dict(zip(corpus.ids(), map(float, scores))), k,
                                 seed=draw(st.integers(0, 2**32)))
    return corpus, confusion, manifest


# With no confusables every position has one real slot, the observed
# character, and every gold character here is another one: each position
# is a mistake, so an update lands at every offset of every block.
EVERY_POSITION_WRONG = (
    Corpus(samples=(Sample(id="long", source="ab" * 40, target="ba" * 40),)),
    ConfusionSet(),
    arrange_shuffled_baseline(["long"], seed=0),
)

# Every gold character is the observed one, which wins every zero-weight
# tie: the pass makes no update.
NO_UPDATE = (
    Corpus(samples=(Sample(id="s", source="abca", target="abca"),)),
    ConfusionSet({"a": {"b"}}),
    arrange_shuffled_baseline(["s"], seed=0),
)

# Position 0 ("a", candidates a and b) is the widest, so its real slots fill
# its whole padded row, and its gold "z" is no candidate: the hidden gold
# slot's column equals the row width.
HIDDEN_GOLD_AT_FULL_WIDTH = (
    Corpus(samples=(Sample(id="s", source="ab", target="zb"),)),
    ConfusionSet({"a": {"b"}}),
    arrange_shuffled_baseline(["s"], seed=0),
)

# One block of clean positions, then a short final block of three whose
# last position is the only mistake.
LAST_OF_SHORT_BLOCK = (
    Corpus(samples=(Sample(id="s", source="a" * (_kernels._BLOCK + 3),
                           target="a" * (_kernels._BLOCK + 2) + "b"),)),
    ConfusionSet({"a": {"b"}}),
    arrange_shuffled_baseline(["s"], seed=0),
)

# Chunk fixtures: one sample of "a"s, the only candidate and the gold
# character, except at each marked visit, which holds a distinct character
# with one confusable (its upper case) and gold "z", a hidden slot.  So
# every mark is a mistake and no other visit is.  The chunk sizes tested are
# 1, 2, 3 and ODD_CHUNK, which ``_BLOCK`` does not divide.
ODD_CHUNK = _kernels._BLOCK + 5
CHUNKS = (1, 2, 3, ODD_CHUNK)


def marked(length, marks):
    chars = dict(zip(marks, "bcdefg"))
    source = "".join(chars.get(j, "a") for j in range(length))
    target = "".join("z" if j in chars else "a" for j in range(length))
    return (Corpus(samples=(Sample(id="s", source=source, target=target),)),
            ConfusionSet({c: {c.upper()} for c in chars.values()}),
            arrange_shuffled_baseline(["s"], seed=0))


# a mistake on the last visit of a chunk of 2, of 3 and of ODD_CHUNK, then
# one in the next chunk
MISTAKE_AT_CHUNK_END = marked(ODD_CHUNK + 3, (1, 2, ODD_CHUNK - 1, ODD_CHUNK + 1))
# with ODD_CHUNK, the second block is cut short by the chunk's end, holds a
# mistake, and the restart after it is cut short again; the next chunk's
# first visit is a mistake that a block reading past the chunk would take
BLOCK_CUT_AT_CHUNK_END = marked(ODD_CHUNK + 3, (ODD_CHUNK - 3, ODD_CHUNK))
# 6 * ODD_CHUNK visits, a multiple of every chunk size, the last a mistake
EXACT_CHUNK_MULTIPLE = marked(6 * ODD_CHUNK, (3 * ODD_CHUNK, 6 * ODD_CHUNK - 1))


# ===========================================================================
# candidate_set / featurize
# ===========================================================================

class TestCandidateSet:

    def test_empty_confusion_entry(self):
        assert candidate_set("AB", 0, ConfusionSet()) == ["A"]

    def test_code_point_order_after_head(self):
        confusion = ConfusionSet({"带": {"戴", "代"}})
        assert candidate_set("带", 0, confusion) == ["带", "代", "戴"]

    def test_no_duplicates(self):
        confusion = ConfusionSet({"a": {"b", "c"}})
        cands = candidate_set("a", 0, confusion)
        assert len(cands) == len(set(cands)) == 3


class TestFeaturize:

    def test_boundary_sentinels(self):
        keys = featurize("AB", 0, "A")
        assert f"L|{BOS}|A" in keys
        assert f"LL|{BOS}|A" in keys
        assert "R|B|A" in keys
        assert f"RR|{EOS}|A" in keys

    def test_keep_only_for_observed(self):
        assert "KEEP" in featurize("AB", 0, "A")
        assert "KEEP" not in featurize("AB", 0, "X")

    def test_distinct_candidates_share_no_keys(self):
        a = set(featurize("XAY", 1, "A"))
        b = set(featurize("XAY", 1, "B"))
        assert a.isdisjoint(b - {"KEEP"}) and "KEEP" not in b

    def test_interior_position(self):
        keys = featurize("ABCDE", 2, "Z")
        assert keys == ["C|Z", "L|B|Z", "R|D|Z", "LL|A|Z", "RR|E|Z"]


# ===========================================================================
# corpus encoding
# ===========================================================================

# 1- to 4-byte UTF-8 characters, the name separator "|" and the "<" that
# opens "<BOS>"/"<EOS>"; "Z" only ever appears as a gold character and
# "\U0010ffff" is the last code point, next to the BOS/EOS codes.
SPEC_ALPHABET = "a|<é他😀\U0010ffff"


@st.composite
def spec_corpus(draw):
    rows = draw(st.lists(st.text(alphabet=SPEC_ALPHABET, max_size=6), max_size=5))
    samples = []
    for i, src in enumerate(rows):
        tgt = "".join(draw(st.sampled_from(SPEC_ALPHABET + "Z")) if draw(st.booleans()) else c
                      for c in src)
        samples.append(Sample(id=f"s{i}", source=src, target=tgt))
    confusion = draw(st.builds(ConfusionSet, st.dictionaries(
        st.sampled_from(SPEC_ALPHABET), st.sets(st.sampled_from(SPEC_ALPHABET), max_size=3),
    )))
    return Corpus(samples=tuple(samples)), confusion


# Valid feature names over any character a corpus field can hold
_NAME_CHARS = st.characters(exclude_characters="\t\n\r")
FEATURE_NAMES = st.one_of(
    st.just("KEEP"),
    st.builds("C|{}".format, _NAME_CHARS),
    # BOS is only ever a left context, EOS a right one
    st.builds("{}|{}|{}".format, st.sampled_from(["L", "LL"]),
              st.one_of(_NAME_CHARS, st.just(BOS)), _NAME_CHARS),
    st.builds("{}|{}|{}".format, st.sampled_from(["R", "RR"]),
              st.one_of(_NAME_CHARS, st.just(EOS)), _NAME_CHARS),
)


# a lone surrogate cannot be encoded as plain UTF-32 but is a valid str
LONE_SURROGATE = (Corpus(samples=(Sample(id="s", source="a\ud800", target="a\udfff"),)),
                  ConfusionSet({"\ud800": {"a"}}))


# 300 distinct characters in 3 samples: a context template's code range,
# ~302 x 300, is wider than 4 x its ~300 slots + 65,536, so its feature ids
# come from the sorting fallback; the candidate template's 300 take the
# counting rank.
_WIDE = [chr(0x4E00 + i) for i in range(300)]
WIDE_ALPHABET = (
    Corpus(samples=tuple(
        Sample(id=f"w{i}", source="".join(_WIDE[100 * i:100 * i + 100]),
               target="".join(_WIDE[100 * i:100 * i + 100]).replace(_WIDE[100 * i + 7], "Z"))
        for i in range(3)
    )),
    ConfusionSet({_WIDE[0]: {_WIDE[1]}, _WIDE[150]: {_WIDE[5], _WIDE[299]}, _WIDE[107]: {"Z"}}),
)


# One source character "a" whose golds are itself, both of its confusables
# and the non-candidate "z", twice and in two samples: three (source, gold)
# classes, of which only the "z" one has a hidden slot.
PAIR_CLASSES = (Corpus((Sample("p", "aaaa", "abzc"), Sample("q", "aa", "za"))),
                ConfusionSet({"a": {"b", "c"}}))


def alphabet_setup(size: int, confused: bool) -> tuple[Corpus, ConfusionSet]:
    """A corpus whose sources hold all ``size`` characters of an alphabet, with
    errors inside it, and either no confusion entries or pairs inside it: both
    give ``size`` context and ``size`` candidate classes."""
    vocab = make_vocab(size)
    pairs = make_symmetric_confusion(vocab, n_pairs=size, seed=4)
    noisy = inject_errors(make_markov_corpus(vocab, 30, seed=size), pairs, rate=0.2, seed=5)
    corpus = Corpus((Sample("all", "".join(vocab), "".join(vocab)),) + noisy.samples)
    return corpus, pairs if confused else ConfusionSet()


class TestEncoding:

    @settings(max_examples=150, deadline=None)
    @example((Corpus(()), ConfusionSet()))  # no position: the KEEP id n_feat - 1 is -1
    @example(LONE_SURROGATE)
    @example(WIDE_ALPHABET)
    @example(PAIR_CLASSES)
    @given(spec_corpus())
    def test_slots_follow_the_spec(self, setup):
        corpus, confusion = setup
        enc = encode_corpus(corpus, confusion)
        keys = enc.feature_index
        n_feat, n_slots = len(keys), len(enc.slot_char)
        assert np.iinfo(enc.slot_feats.dtype).max >= n_feat + 1  # the padding slot's id
        assert (np.diff(keys) > 0).all()  # ascending, so no key repeats
        names = feature_names(keys)

        def slot_names(slot):
            ids = enc.slot_feats[slot]
            assert (ids[:-1] < n_feat).all()
            return [names[i] for i in ids if i != n_feat]

        for field in (enc.pos_first_slot, enc.pos_n_real, enc.pos_gold_slot):
            assert field.dtype == np.int32
        # the padded rows the kernels build: real slots, then the padding slot
        rows = _kernels._row_maker(enc)(slice(None))
        p = first = 0
        for sample in corpus:
            src, tgt = sample.source, sample.target
            for j in range(len(src)):
                cands = candidate_set(src, j, confusion)
                row = rows[p]
                assert enc.pos_n_real[p] == len(cands)
                # a position's slots follow the previous position's, hidden slot included
                assert enc.pos_first_slot[p] == first
                real = row[:len(cands)]
                assert real.tolist() == list(range(first, first + len(cands)))
                first += len(cands) + (tgt[j] not in cands)
                assert (row[len(cands):] == n_slots).all()
                assert [chr(c) for c in enc.slot_char[real]] == cands
                for slot, cand in zip(real, cands):
                    assert slot_names(slot) == featurize(src, j, cand)
                gold = enc.pos_gold_slot[p]
                assert chr(enc.slot_char[gold]) == tgt[j]
                assert (gold in real) == (tgt[j] in cands)
                assert slot_names(gold) == featurize(src, j, tgt[j])
                p += 1
        assert p == len(enc.pos_n_real) == len(rows)
        assert first == n_slots
        assert enc.slot_feats[-1].tolist() == [n_feat + 1] + [n_feat] * (SLOT_WIDTH - 1)
        assert len(set(names)) == n_feat


    # one id per (template, context class, candidate class), KEEP, the sentinel
    # and the padding: 89 x (1 + 4 x 91) + 3 = 32,488 ids fit int16, and
    # 90 x (1 + 4 x 92) + 3 = 33,213 need int32
    @pytest.mark.parametrize("size, bound, id_type", [(89, 32_488, np.int16),
                                                      (90, 33_213, np.int32)])
    @pytest.mark.parametrize("confused", [False, True], ids=["no-confusion", "pairs"])
    def test_ids_take_the_narrowest_signed_type_of_the_bound(self, size, bound, id_type,
                                                             confused):
        corpus, confusion = alphabet_setup(size, confused)
        enc = encode_corpus(corpus, confusion)
        n_cc = len(np.unique(enc.slot_char))
        n_chars = len({c for s in corpus for c in s.source})
        assert n_cc == n_chars == size
        assert n_cc * (1 + 4 * (n_chars + 2)) + 3 == bound
        assert enc.slot_feats.dtype == id_type
        manifest = arrange_shuffled_baseline(corpus.ids(), seed=0)
        assert assert_kernel_matches_trace(corpus, confusion, manifest) > 0
        model = train(manifest, corpus, confusion)
        assert list(predict_corpus(model, corpus).items()) == reference_items(model, corpus)

    def test_wide_alphabet_takes_the_sorting_fallback(self):
        with mock.patch("spellcl.model._rank", wraps=_rank) as rank:
            encode_corpus(*WIDE_ALPHABET)
        sorted_ = [size > 4 * len(codes) + 65_536 for (codes, size, *_), _ in rank.call_args_list]
        assert sorted_ == [False, True, True, True, True]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_rank_matches_np_unique(self, data):
        n = data.draw(st.integers(0, 40))
        threshold = 4 * n + 65_536  # the widest range ranked by counting
        size = data.draw(st.one_of(st.integers(1, 200),
                                   st.integers(threshold - 2, threshold + 2)))
        codes = np.array(data.draw(st.lists(st.integers(0, size - 1), min_size=n, max_size=n)),
                         dtype=data.draw(st.sampled_from(
                             [np.int32, np.int64] + [np.int16] * (size <= 2**15))))
        offset = data.draw(st.integers(0, 100))
        # ranks are written into one column of a wider table, as encode_corpus does
        table = np.full((n, 3), -1, dtype=np.int32)
        with mock.patch("numpy.unique", wraps=np.unique) as unique, \
                mock.patch("spellcl.model._RANK_BLOCK", data.draw(st.integers(1, 50))):
            uniq = _rank(codes, size, table[:, 1], offset)
        assert unique.called == (size > threshold)
        want_uniq, want_inverse = np.unique(codes, return_inverse=True)
        assert np.array_equal(uniq, want_uniq)
        assert np.array_equal(table[:, 1], want_inverse + offset)
        assert (table[:, [0, 2]] == -1).all()


# ===========================================================================
# training
# ===========================================================================

class TestTrain:

    def test_zero_weight_model_keeps_everything(self):
        _, confusion = overfit_fixture()
        model = model_from_weights({}, confusion)
        sample = Sample(id="x", source="abcde", target="abcde")
        assert predict_one(model, sample) == "abcde"

    def test_single_update_increases_gold_margin(self):
        confusion = ConfusionSet({"a": {"c"}, "c": {"a"}})
        corpus = parse_corpus("t1\tab\tcb\n")
        manifest = arrange_shuffled_baseline(["t1"], seed=0)

        def margin(weights):
            gold = sum(weights.get(k, 0.0) for k in featurize("ab", 0, "c"))
            obs = sum(weights.get(k, 0.0) for k in featurize("ab", 0, "a"))
            return gold - obs

        # was 0 before the update
        assert margin(final_weights(manifest, corpus, confusion)) > 0

    def test_deterministic(self):
        corpus, confusion = small_noisy_setup()
        scores = score_corpus(corpus, "contextual", provider=HashedEmbedder())
        manifest = arrange_annealing(scores, k=3, seed=5)
        a = train(manifest, corpus, confusion)
        b = train(manifest, corpus, confusion)
        assert final_weights(manifest, corpus, confusion) == final_weights(
            manifest, corpus, confusion)
        assert same_model(a, b)

    def test_matches_trace_oracle(self):
        corpus, confusion = small_noisy_setup()
        manifest = arrange_shuffled_baseline(corpus.ids(), seed=2)
        model = train(manifest, corpus, confusion)
        final, averaged, n_updates = trace_train(manifest, corpus, confusion)
        assert model.updates_seen == n_updates
        assert n_updates >= 10
        assert final_weights(manifest, corpus, confusion) == final
        # the oracle's mean is an exact integer sum divided by T, as the kernel's is
        assert weights_by_name(model) == averaged

    @settings(max_examples=60, deadline=None)
    @given(random_setup())
    def test_matches_trace_oracle_random(self, setup):
        corpus, confusion, manifest = setup
        model = train(manifest, corpus, confusion)
        final, averaged, n_updates = trace_train(manifest, corpus, confusion)
        assert model.updates_seen == n_updates
        assert final_weights(manifest, corpus, confusion) == final
        # the model stores only non-zero averages; an update and its reversal
        # can leave a feature's average at exactly 0 in the trace
        assert weights_by_name(model) == {k: v for k, v in averaged.items() if v != 0.0}

    @pytest.mark.parametrize("block", [1, 2, 3, _kernels._BLOCK])
    @settings(max_examples=30, deadline=None)
    @example(EVERY_POSITION_WRONG)
    @example(NO_UPDATE)
    @example(HIDDEN_GOLD_AT_FULL_WIDTH)
    @example(LAST_OF_SHORT_BLOCK)
    @given(random_setup(long_sample=True))
    def test_every_block_size_matches_trace_oracle(self, block, setup):
        corpus, confusion, manifest = setup
        final, averaged, n_updates = trace_train(manifest, corpus, confusion)
        with mock.patch.object(_kernels, "_BLOCK", block):
            model = train(manifest, corpus, confusion)
            assert final_weights(manifest, corpus, confusion) == final
            assert_kernel_matches_trace(corpus, confusion, manifest)
        assert model.updates_seen == n_updates
        assert weights_by_name(model) == {k: v for k, v in averaged.items() if v != 0.0}

    @pytest.mark.parametrize("block", [1, 2, 3, _kernels._BLOCK])
    @pytest.mark.parametrize("chunk", CHUNKS)
    @settings(max_examples=20, deadline=None)
    @example(MISTAKE_AT_CHUNK_END)
    @example(BLOCK_CUT_AT_CHUNK_END)
    @example(EXACT_CHUNK_MULTIPLE)
    @example(EVERY_POSITION_WRONG)
    @given(random_setup(long_sample=True))
    def test_every_chunk_size_matches_trace_oracle(self, chunk, block, setup):
        corpus, confusion, manifest = setup
        with mock.patch.object(_kernels, "_CHUNK", chunk), \
                mock.patch.object(_kernels, "_BLOCK", block):
            assert_kernel_matches_trace(corpus, confusion, manifest)

    @pytest.mark.parametrize("fixture", [
        MISTAKE_AT_CHUNK_END, BLOCK_CUT_AT_CHUNK_END, EXACT_CHUNK_MULTIPLE])
    def test_every_mark_of_a_chunk_fixture_is_one_update(self, fixture):
        corpus, confusion, manifest = fixture
        marks = sum(c != "a" for c in corpus.samples[0].source)
        with mock.patch.object(_kernels, "_CHUNK", ODD_CHUNK):
            assert assert_kernel_matches_trace(corpus, confusion, manifest) == marks

    def test_weights_are_indexed_with_intp_ids(self):
        # int32 index arrays take numpy's slow casting path; the kernel casts
        # each chunk's ids and each update's once, so the weights never see one
        class IntpOnly(np.ndarray):
            def _check(self, ids):
                assert not isinstance(ids, np.ndarray) or ids.dtype == np.intp, ids.dtype

            def take(self, ids, *args, **kwargs):
                self._check(ids)
                return np.asarray(self).take(ids, *args, **kwargs)

            def __getitem__(self, ids):
                self._check(ids)
                return super().__getitem__(ids)

            def __setitem__(self, ids, value):
                self._check(ids)
                super().__setitem__(ids, value)

        extend = _kernels._extend
        corpus, confusion, manifest = EVERY_POSITION_WRONG
        with mock.patch.object(_kernels, "_extend", lambda w: extend(w).view(IntpOnly)):
            assert assert_kernel_matches_trace(corpus, confusion, manifest) == 80

    def test_every_position_wrong_updates_at_every_position(self):
        corpus, confusion, manifest = EVERY_POSITION_WRONG
        _, _, t = train_encoded(encode_corpus(corpus, confusion), manifest)
        assert t == len(corpus.samples[0].source) > 2 * _kernels._BLOCK

    def test_more_updates_than_the_average_holds_exactly_are_refused(self):
        # the averaged weights are exact while T(T+1) < 2**53; the bound is
        # the largest such T, checked on the exact count after the pass
        bound = _kernels._MAX_UPDATES
        assert bound * (bound + 1) < 2**53 <= (bound + 1) * (bound + 2)
        corpus, confusion = overfit_fixture()
        manifest = arrange_shuffled_baseline(corpus.ids(), seed=0)
        model = train(manifest, corpus, confusion)
        t = model.updates_seen
        assert t >= 1
        with mock.patch.object(_kernels, "_MAX_UPDATES", t):
            assert same_model(train(manifest, corpus, confusion), model)
        with mock.patch.object(_kernels, "_MAX_UPDATES", t - 1):
            with pytest.raises(ConfigError, match=f"^{t} updates; averaged weights are exact "
                                                  f"for at most {t - 1}$"):
                train(manifest, corpus, confusion)

    def test_pass_without_updates_returns_zeros(self):
        corpus, confusion, manifest = NO_UPDATE
        enc = encode_corpus(corpus, confusion)
        n_feat = len(enc.feature_index)
        for order in (manifest_order(manifest, enc), np.zeros(0, dtype=np.int64)):
            w, averaged, t = _kernels.train_pass(order, enc)
            assert t == 0
            assert np.array_equal(w, np.zeros(n_feat))
            assert np.array_equal(averaged, np.zeros(n_feat))

    def test_hidden_gold_slot_at_full_row_width(self):
        corpus, confusion, manifest = HIDDEN_GOLD_AT_FULL_WIDTH
        enc = encode_corpus(corpus, confusion)
        assert enc.pos_gold_slot[0] - enc.pos_first_slot[0] == enc.pos_n_real.max() == 2
        assert assert_kernel_matches_trace(corpus, confusion, manifest) == 1

    def test_mistake_on_the_last_position_of_a_short_final_block(self):
        corpus, confusion, manifest = LAST_OF_SHORT_BLOCK
        assert len(corpus.samples[0].source) % _kernels._BLOCK == 3
        assert assert_kernel_matches_trace(corpus, confusion, manifest) == 1

    def test_unknown_sample_id(self):
        corpus, confusion = small_noisy_setup(n_sentences=3)
        manifest = arrange_shuffled_baseline(corpus.ids() + ["ghost"], seed=0)
        with pytest.raises(IdMismatch, match="manifest references unknown sample 'ghost'"):
            train(manifest, corpus, confusion)

    def test_order_sensitivity(self):
        # the premise of the whole exercise: sample order changes the model
        corpus, confusion = small_noisy_setup(n_sentences=40, seed=7)
        scores = score_corpus(corpus, "contextual", provider=HashedEmbedder())
        sorted_m = arrange_sorted_only(scores, seed=0)
        baseline_m = arrange_shuffled_baseline(corpus.ids(), seed=0)
        assert (final_weights(sorted_m, corpus, confusion)
                != final_weights(baseline_m, corpus, confusion))


# ===========================================================================
# prediction
# ===========================================================================

class TestPredict:

    def test_no_candidates_means_no_changes(self):
        corpus, confusion = small_noisy_setup()
        manifest = arrange_shuffled_baseline(corpus.ids(), seed=1)
        model = train(manifest, corpus, confusion)
        sample = Sample(id="q", source="QRSTU", target="QRSTU")  # outside vocab
        assert predict_one(model, sample) == "QRSTU"

    def test_changes_stay_inside_candidate_sets(self):
        corpus, confusion = small_noisy_setup(n_sentences=40)
        manifest = arrange_shuffled_baseline(corpus.ids(), seed=1)
        model = train(manifest, corpus, confusion)
        for sample in corpus:
            for j, ch in enumerate(predict_one(model, sample)):
                assert ch in candidate_set(sample.source, j, confusion)

    def test_bulk_predict_matches_reference(self):
        corpus, confusion = small_noisy_setup(n_sentences=40, seed=9)
        manifest = arrange_shuffled_baseline(corpus.ids(), seed=3)
        model = train(manifest, corpus, confusion)
        bulk = predict_corpus(model, corpus)
        assert list(bulk.items()) == reference_items(model, corpus)
        for sample in corpus:
            assert predict_one(model, sample) == bulk[sample.id]

    @settings(max_examples=60, deadline=None)
    @given(random_setup(), random_corpus(prefix="t"))
    def test_bulk_predict_matches_reference_random(self, setup, test_corpus):
        corpus, confusion, manifest = setup
        model = train(manifest, corpus, confusion)
        bulk = predict_corpus(model, test_corpus)
        assert list(bulk.items()) == reference_items(model, test_corpus)

    def test_predict_reads_only_the_samples_features(self):
        # the weight lookup follows the sample, not the model: it names no
        # feature, and each read of the model's arrays is a binary search or
        # takes fewer rows than the model holds; a copy, a ufunc or an
        # iteration over a whole array fails
        corpus, confusion = small_noisy_setup(n_sentences=40, seed=9)
        model = train(arrange_shuffled_baseline(corpus.ids(), seed=3), corpus, confusion)
        lookup_only = CorrectorModel(keys=model.keys.view(LookupOnly),
                                     weights=model.weights.view(LookupOnly),
                                     updates_seen=model.updates_seen, confusion=confusion)
        with mock.patch("spellcl.model._feature_name",
                        side_effect=AssertionError("predict named a feature")):
            preds = [predict_one(lookup_only, sample) for sample in corpus]
        assert preds == [reference_predict(model, sample) for sample in corpus]
        assert any(p != sample.source for p, sample in zip(preds, corpus))
        assert len(model.keys) > max(len(encode_corpus(Corpus((s,)), confusion).feature_index)
                                     for s in corpus)

    @settings(max_examples=150, deadline=None)
    @given(random_corpus(), CONFUSIONS, st.data())
    def test_column_sums_choose_what_the_whole_gather_chose(self, corpus, confusion, data):
        # predict_slots adds one feature column at a time; the whole (slots, 6)
        # gather reduced over its columns, then argmax over padded rows, is the
        # kernel it replaced.  NaN, +-inf and finite weights whose sums
        # overflow make any change in the order of the additions show.
        enc = encode_corpus(corpus, confusion)
        weights = np.array(data.draw(st.lists(st.sampled_from(NON_ASSOCIATIVE + (math.nan,)),
                                              min_size=len(enc.feature_index),
                                              max_size=len(enc.feature_index))), dtype=float)
        with np.errstate(invalid="ignore", over="ignore"):
            slot_score = reduce(np.add, _kernels._extend(weights)[enc.slot_feats].T)
        width, pad = enc.pos_n_real.max(), len(enc.slot_char)
        want = []
        for first, n_real in zip(enc.pos_first_slot.tolist(), enc.pos_n_real.tolist()):
            row = list(range(first, first + n_real)) + [pad] * (width - n_real)
            scores = slot_score[row]
            nan = np.isnan(scores)
            scores[nan] = -np.inf
            scores[0] = np.inf if nan[0] else scores[0]
            want.append(row[int(scores.argmax())])
        assert _kernels.predict_slots(enc, weights).tolist() == want

    @settings(max_examples=60, deadline=None)
    @given(random_corpus(prefix="t"), CONFUSIONS, st.data())
    def test_non_associative_weights_match_reference_random(self, corpus, confusion, data):
        names = sorted({key for s in corpus for j, gold in enumerate(s.target)
                        for cand in candidate_set(s.source, j, confusion) + [gold]
                        for key in featurize(s.source, j, cand)})
        # some of the corpus's features are left out of the model
        weights = {name: data.draw(st.sampled_from(NON_ASSOCIATIVE)) for name in names
                   if data.draw(st.booleans())}
        model = model_from_weights(weights, confusion)
        preds = predict_corpus(model, corpus)
        assert list(preds.items()) == reference_items(model, corpus)

    @settings(max_examples=60, deadline=None)
    @given(random_setup(), random_corpus(prefix="t"))
    def test_grid_weight_rows_match_reference_random(self, setup, test_corpus):
        # the experiment grid maps test features to training rows once and
        # takes each run's averaged weights through that map
        corpus, confusion, manifest = setup
        enc_train = encode_corpus(corpus, confusion)
        enc_test = encode_corpus(test_corpus, confusion)
        rows = feature_rows(enc_train.feature_index, enc_test)
        _, averaged, _ = train_encoded(enc_train, manifest)
        preds = predict_encoded(enc_test, averaged, rows)
        model = train(manifest, corpus, confusion)
        assert list(preds.items()) == reference_items(model, test_corpus)

    def test_predictions_are_keyed_by_the_encoded_corpus_ids(self):
        # the IDs come from the encoding, in its corpus order, which is not sorted
        corpus = parse_corpus("z\taa\taa\na\tccc\tccc\nm\tb\tb\n")
        enc = encode_corpus(corpus, ConfusionSet({"a": {"b"}}))
        preds = predict_encoded(enc, np.zeros(0), feature_rows(np.zeros(0, np.int64), enc))
        assert list(preds.items()) == [("z", "aa"), ("a", "ccc"), ("m", "b")]

    def test_grid_rows_of_an_empty_training_table_are_the_sentinel(self):
        corpus, confusion = overfit_fixture()
        enc_test = encode_corpus(corpus, confusion)
        enc_train = encode_corpus(Corpus(samples=()), confusion)
        rows = feature_rows(enc_train.feature_index, enc_test)
        assert len(rows) == len(enc_test.feature_index) > 0
        assert (rows == 0).all()

    def test_grid_row_of_an_unseen_feature_is_the_sentinel(self):
        confusion = ConfusionSet({"a": {"b"}})
        enc_train = encode_corpus(parse_corpus("s1\tab\tbb\n"), confusion)
        enc_test = encode_corpus(parse_corpus("t1\tax\tax\n"), confusion)
        rows = feature_rows(enc_train.feature_index, enc_test)
        train_names = feature_names(enc_train.feature_index)
        for name, row in zip(feature_names(enc_test.feature_index), rows):
            if name in train_names:
                assert train_names[row] == name
            else:
                assert row == len(train_names)
        # "C|a" is shared; "R|x|a" and "C|x" were never seen in training
        assert {"C|a", "R|x|a", "C|x"} <= set(feature_names(enc_test.feature_index))
        assert "C|a" in train_names and not {"R|x|a", "C|x"} & set(train_names)

    # Deterministic edge cases of the argmax.  Sample "a" has one position;
    # the observed slot's features are, in index order:
    A_FEATURES = featurize("a", 0, "a")  # C, L, R, LL, RR, KEEP

    def predicts(self, weights, confusion, source="a"):
        """The predicted string, checked against the dict-based oracle."""
        model = model_from_weights(weights, confusion)
        sample = Sample(id="x", source=source, target=source)
        got = predict_one(model, sample)
        assert got == reference_predict(model, sample)
        return got

    def test_nan_first_slot_is_kept(self):
        weights = {"C|a": float("inf"), "L|<BOS>|a": float("-inf"), "C|b": 1.0}
        assert self.predicts(weights, ConfusionSet({"a": {"b"}})) == "a"

    def test_later_nan_never_wins(self):
        nan_b = {"C|b": float("inf"), "L|<BOS>|b": float("-inf")}
        confusion = ConfusionSet({"a": {"b", "c"}})
        assert self.predicts({"C|a": 1.0, "C|c": 0.5, **nan_b}, confusion) == "a"
        # a later slot that beats the first still wins past the NaN
        assert self.predicts({"C|a": 1.0, "C|c": 2.0, **nan_b}, confusion) == "c"

    def test_overflowing_first_slot_is_kept(self):
        # finite weights whose sum overflows: the first slot scores +inf, which
        # no later slot beats, and a later +inf past a finite first slot wins
        over_a = {"C|a": 1e308, "L|<BOS>|a": 1e308}
        confusion = ConfusionSet({"a": {"b", "c"}})
        assert self.predicts({**over_a, "C|b": 1.0, "C|c": 1e308}, confusion) == "a"
        assert self.predicts({"C|a": 1.0, "C|b": 1e308, "L|<BOS>|b": 1e308}, confusion) == "b"

    def test_all_minus_inf_takes_the_first_slot(self):
        # "b" has one candidate, "a" three, so b's row carries padding slots
        # that score -inf as well
        weights = {f"C|{ch}": float("-inf") for ch in "abc"}
        assert self.predicts(weights, ConfusionSet({"a": {"b", "c"}}), source="ab") == "ab"

    @pytest.mark.parametrize("rival, expected", [(3.25, "a"), (3.75, "b")])
    def test_features_add_in_index_order(self, rival, expected):
        # in index order the observed slot scores 3.5; a pairwise sum or
        # np.add.reduceat gives 4.0, and these rivals pin the score to (3.25, 3.75)
        weights = dict(zip(self.A_FEATURES, (1e16, 1.0, 1.0, -1e16, 0.5, 3.0)))
        weights["C|b"] = rival
        assert self.predicts(weights, ConfusionSet({"a": {"b"}})) == expected

    def test_hidden_gold_slot_is_never_predicted_but_trained(self):
        # gold "z" is no candidate of "a"; "c" has more candidates than "a",
        # so the row of "a" is padded where its hidden slot would follow
        confusion = ConfusionSet({"a": {"b"}, "c": {"d", "e"}})
        corpus = parse_corpus("t1\tac\tzc\n")
        model = model_from_weights({"C|z": 100.0}, confusion)
        assert predict_corpus(model, corpus) == {"t1": "ac"}
        manifest = arrange_shuffled_baseline(["t1"], seed=0)
        final = final_weights(manifest, corpus, confusion)
        assert final == trace_train(manifest, corpus, confusion)[0]
        assert all(final[key] == 1.0 for key in featurize("ac", 0, "z"))

    def test_empty_corpus(self):
        corpus, confusion = overfit_fixture()
        model = train(arrange_shuffled_baseline(corpus.ids(), seed=0), corpus, confusion)
        assert predict_corpus(model, Corpus(samples=())) == {}

    def test_overfit_five_sentences(self):
        corpus, confusion = overfit_fixture()
        scores = score_corpus(corpus, "contextual", provider=HashedEmbedder())
        manifest = arrange_annealing(scores, k=2, seed=0)
        model = train(manifest, corpus, confusion)
        for sample in corpus:
            assert predict_one(model, sample) == sample.target


# ===========================================================================
# model file
# ===========================================================================

class TestModelFile:

    def test_roundtrip_predictions(self, tmp_path):
        corpus, confusion = small_noisy_setup(n_sentences=25)
        manifest = arrange_shuffled_baseline(corpus.ids(), seed=6)
        model = train(manifest, corpus, confusion)
        path = tmp_path / "model.tsv"
        save_model(model, path)
        loaded = load_model(path, confusion)
        assert same_model(loaded, model, updates=False)
        for sample in corpus:
            assert predict_one(loaded, sample) == predict_one(model, sample)

    def test_sorted_by_key(self):
        corpus, confusion = small_noisy_setup(n_sentences=10)
        manifest = arrange_shuffled_baseline(corpus.ids(), seed=0)
        model = train(manifest, corpus, confusion)
        rows = [ln.split("\t")[0] for ln in model_to_tsv(model).splitlines()[1:]]
        assert rows == sorted(rows)

    def test_header_carries_window_and_schema(self):
        _, confusion = overfit_fixture()
        model = model_from_weights({"KEEP": -1.0}, confusion, updates_seen=1)
        header = model_to_tsv(model).splitlines()[0]
        assert "schema=1" in header and "window=2" in header

    def test_malformed(self):
        confusion = ConfusionSet()
        with pytest.raises(MalformedLine):
            parse_model("no header\n", confusion)
        with pytest.raises(MalformedLine):
            parse_model("# spellcl-model schema=1 window=2\nbad-row\n", confusion)
        # any line 1 but the one the writer writes, including headers that
        # carry the right schema and window in another form
        for header in ("schema=99 window=2", "schema=1 window=5", "schema=1", "schema=1 window=",
                       "schema=1 window=two", "schema=1 window=2 note=x",
                       "schema=1  window=2", "window=2 schema=1"):
            line = f"# spellcl-model {header}"
            with pytest.raises(MalformedLine, match=re.escape(
                    f"line 1: expected header '# spellcl-model schema=1 window=2', got '{line}'")):
                parse_model(f"{line}\nKEEP\t-1.0\n", confusion)

    def test_repeated_feature_names_the_line(self):
        # before, the later row silently won
        with pytest.raises(MalformedLine, match="line 3: repeated feature 'KEEP'"):
            parse_model("# spellcl-model schema=1 window=2\nKEEP\t1.0\nKEEP\t-2.0\n",
                        ConfusionSet())
        with pytest.raises(MalformedLine, match=r"line 4: repeated feature 'L\|\|\|a'"):
            parse_model("# spellcl-model schema=1 window=2\nL|||a\t1.0\nC|a\t0.5\n"
                        "L|||a\t-2.0\n", ConfusionSet())

    @pytest.mark.parametrize("name", ["C|ab", "X|a", "L|ab|c", "bogus", "C|", "L|a", "",
                                      "C|<BOS>", f"C|{BOS}|a", "KEEP|a", "LL|<BOS|a",
                                      f"L|{EOS}|a", f"LL|{EOS}|a", f"R|{BOS}|a",
                                      f"RR|{BOS}|a"])
    def test_unknown_feature_names_the_line(self, name):
        # before, such a row loaded silently and was never read; read as a
        # key, a loosely parsed name could weigh a real feature
        with pytest.raises(MalformedLine, match=f"line 3: unknown feature '{re.escape(name)}'"):
            parse_model(f"# spellcl-model schema=1 window=2\nKEEP\t1.0\n{name}\t-2.0\n",
                        ConfusionSet())

    def test_models_compare_by_identity(self):
        # a dataclass == on array fields would raise on more than one feature
        model = model_from_weights({"KEEP": 1.0, "C|a": 2.0}, ConfusionSet())
        loaded = parse_model(model_to_tsv(model), ConfusionSet())
        assert model == model and model != loaded and same_model(loaded, model, updates=False)

    def test_nan_weight_names_the_line(self):
        # a NaN score loses every comparison, so the argmax would silently
        # favour earlier slots; inf stays a valid weight
        with pytest.raises(MalformedLine, match="line 3: bad weight 'nan'"):
            parse_model("# spellcl-model schema=1 window=2\nKEEP\tinf\nC|a\tnan\n",
                        ConfusionSet())

    def test_header_must_be_line_one(self):
        with pytest.raises(MalformedLine, match=re.escape(
                "line 1: expected header '# spellcl-model schema=1 window=2', got ''")):
            parse_model("\n# spellcl-model schema=1 window=2\nKEEP\t-1.0\n", ConfusionSet())

    def test_byte_order_mark_names_the_cause(self):
        with pytest.raises(MalformedLine, match="line 1: file starts with a UTF-8 byte-order mark"):
            parse_model("\ufeff# spellcl-model schema=1 window=2\nKEEP\t-1.0\n", ConfusionSet())

    def test_crlf_names_the_cause(self):
        # without the check, int() and float() strip the '\r' and the file loads
        with pytest.raises(MalformedLine, match="line 1: CRLF line ending"):
            parse_model("# spellcl-model schema=1 window=2\r\nKEEP\t-1.0\r\n", ConfusionSet())

    @given(st.dictionaries(FEATURE_NAMES, st.floats(allow_nan=False), max_size=8))
    def test_roundtrip_random(self, averaged):
        confusion = ConfusionSet()
        model = model_from_weights(averaged, confusion)
        text = model_to_tsv(model)
        loaded = parse_model(text, confusion)
        assert weights_by_name(loaded) == averaged
        assert same_model(loaded, model)
        assert model_to_tsv(loaded) == text

    @settings(max_examples=150, deadline=None)
    @example(LONE_SURROGATE)
    @example(WIDE_ALPHABET)
    @given(spec_corpus())
    def test_every_key_of_an_encoding_roundtrips(self, setup):
        corpus, confusion = setup
        keys = encode_corpus(corpus, confusion).feature_index
        model = CorrectorModel(keys=keys, weights=np.arange(len(keys), dtype=np.float64),
                               updates_seen=0, confusion=confusion)
        loaded = parse_model(model_to_tsv(model), confusion)
        assert same_model(loaded, model)
