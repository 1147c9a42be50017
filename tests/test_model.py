"""Averaged-perceptron corrector: features, training, prediction, model file."""

from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from spellcl.corpus import ConfusionSet, Corpus, Sample, inject_errors, parse_corpus
from spellcl.curriculum import (
    arrange_annealing,
    arrange_shuffled_baseline,
    arrange_sorted_only,
)
from spellcl.difficulty import DifficultyRecord, score_corpus
from spellcl.embed import HashedEmbedder
from spellcl.errors import MalformedLine, UnknownSampleId
from spellcl.model import (
    BOS,
    EOS,
    CorrectorModel,
    candidate_set,
    featurize,
    load_model,
    model_to_tsv,
    parse_model,
    predict,
    predict_corpus,
    save_model,
    train,
)

from helpers import (
    make_clean_corpus,
    make_symmetric_confusion,
    make_vocab,
    overfit_fixture,
)


def trace_train(manifest, corpus, confusion):
    """Independent dict-based training trace capturing a snapshot per update."""
    w = defaultdict(float)
    snapshots = []
    by_id = corpus.by_id()
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


@st.composite
def random_setup(draw):
    corpus = draw(random_corpus())
    confusion = ConfusionSet(draw(st.dictionaries(
        st.sampled_from(ALPHABET), st.sets(st.sampled_from(ALPHABET + "Z"), max_size=3),
        max_size=len(ALPHABET),
    )))
    scores = draw(st.lists(st.integers(0, 3), min_size=len(corpus), max_size=len(corpus)))
    records = [DifficultyRecord(sid, float(sc), "contextual")
               for sid, sc in zip(corpus.ids(), scores)]
    k = draw(st.integers(1, len(corpus)))
    manifest = arrange_annealing(records, k, seed=draw(st.integers(0, 2**32)))
    return corpus, confusion, manifest


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
# training
# ===========================================================================

class TestTrain:

    def test_zero_weight_model_keeps_everything(self):
        _, confusion = overfit_fixture()
        model = CorrectorModel(weights={}, averaged_weights={}, updates_seen=0,
                               confusion=confusion)
        sample = Sample(id="x", source="abcde", target="abcde")
        pred = predict(model, sample)
        assert pred.predicted == "abcde"
        assert pred.detected_positions == ()

    def test_single_update_increases_gold_margin(self):
        confusion = ConfusionSet({"a": {"c"}, "c": {"a"}})
        corpus = parse_corpus("t1\tab\tcb\n")
        manifest = arrange_shuffled_baseline(["t1"], seed=0)
        model = train(manifest, corpus, confusion)

        def margin(weights):
            gold = sum(weights.get(k, 0.0) for k in featurize("ab", 0, "c"))
            obs = sum(weights.get(k, 0.0) for k in featurize("ab", 0, "a"))
            return gold - obs

        assert margin(model.weights) > 0  # was 0 before the update

    def test_deterministic(self):
        corpus, confusion = small_noisy_setup()
        records = score_corpus(corpus, "contextual", provider=HashedEmbedder())
        manifest = arrange_annealing(records, k=3, seed=5)
        a = train(manifest, corpus, confusion)
        b = train(manifest, corpus, confusion)
        assert a.weights == b.weights
        assert a.averaged_weights == b.averaged_weights
        assert a.updates_seen == b.updates_seen

    def test_matches_trace_oracle(self):
        corpus, confusion = small_noisy_setup()
        manifest = arrange_shuffled_baseline(corpus.ids(), seed=2)
        model = train(manifest, corpus, confusion)
        final, averaged, n_updates = trace_train(manifest, corpus, confusion)
        assert model.updates_seen == n_updates
        assert n_updates >= 10
        assert model.weights == final
        assert set(model.averaged_weights) == set(averaged)
        for k, v in averaged.items():
            assert model.averaged_weights[k] == pytest.approx(v, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(random_setup())
    def test_matches_trace_oracle_random(self, setup):
        corpus, confusion, manifest = setup
        model = train(manifest, corpus, confusion)
        final, averaged, n_updates = trace_train(manifest, corpus, confusion)
        assert model.updates_seen == n_updates
        assert model.weights == final
        # the model stores only non-zero averages; an update and its reversal
        # can leave a feature's average at exactly 0 in the trace
        for k in set(model.averaged_weights) | set(averaged):
            assert model.averaged_weights.get(k, 0.0) == pytest.approx(
                averaged.get(k, 0.0), abs=1e-9)

    def test_unknown_sample_id(self):
        corpus, confusion = small_noisy_setup(n_sentences=3)
        manifest = arrange_shuffled_baseline(corpus.ids() + ["ghost"], seed=0)
        with pytest.raises(UnknownSampleId):
            train(manifest, corpus, confusion)

    def test_order_sensitivity(self):
        # the premise of the whole exercise: sample order changes the model
        corpus, confusion = small_noisy_setup(n_sentences=40, seed=7)
        records = score_corpus(corpus, "contextual", provider=HashedEmbedder())
        sorted_m = arrange_sorted_only(records, seed=0)
        baseline_m = arrange_shuffled_baseline(corpus.ids(), seed=0)
        a = train(sorted_m, corpus, confusion)
        b = train(baseline_m, corpus, confusion)
        assert a.weights != b.weights


# ===========================================================================
# prediction
# ===========================================================================

class TestPredict:

    def test_no_candidates_means_no_changes(self):
        corpus, confusion = small_noisy_setup()
        manifest = arrange_shuffled_baseline(corpus.ids(), seed=1)
        model = train(manifest, corpus, confusion)
        sample = Sample(id="q", source="QRSTU", target="QRSTU")  # outside vocab
        pred = predict(model, sample)
        assert pred.predicted == "QRSTU"

    def test_changes_stay_inside_candidate_sets(self):
        corpus, confusion = small_noisy_setup(n_sentences=40)
        manifest = arrange_shuffled_baseline(corpus.ids(), seed=1)
        model = train(manifest, corpus, confusion)
        for sample in corpus:
            pred = predict(model, sample)
            for j, ch in enumerate(pred.predicted):
                assert ch in candidate_set(sample.source, j, confusion)

    def test_detected_positions_consistent(self):
        corpus, confusion = small_noisy_setup(n_sentences=20)
        manifest = arrange_shuffled_baseline(corpus.ids(), seed=1)
        model = train(manifest, corpus, confusion)
        for sample in corpus:
            pred = predict(model, sample)
            assert len(pred.predicted) == len(sample.source)
            expected = tuple(
                j for j in range(len(sample.source))
                if pred.predicted[j] != sample.source[j]
            )
            assert pred.detected_positions == expected

    def test_bulk_predict_matches_reference(self):
        corpus, confusion = small_noisy_setup(n_sentences=40, seed=9)
        manifest = arrange_shuffled_baseline(corpus.ids(), seed=3)
        model = train(manifest, corpus, confusion)
        bulk = predict_corpus(model, corpus)
        for sample, got in zip(corpus, bulk):
            assert got == predict(model, sample)

    @settings(max_examples=60, deadline=None)
    @given(random_setup(), random_corpus(prefix="t"))
    def test_bulk_predict_matches_reference_random(self, setup, test_corpus):
        corpus, confusion, manifest = setup
        model = train(manifest, corpus, confusion)
        bulk = predict_corpus(model, test_corpus)
        assert bulk == [predict(model, sample) for sample in test_corpus]

    def test_overfit_five_sentences(self):
        corpus, confusion = overfit_fixture()
        records = score_corpus(corpus, "contextual", provider=HashedEmbedder())
        manifest = arrange_annealing(records, k=2, seed=0)
        model = train(manifest, corpus, confusion)
        for sample in corpus:
            assert predict(model, sample).predicted == sample.target


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
        assert loaded.averaged_weights == model.averaged_weights
        for sample in corpus:
            assert predict(loaded, sample) == predict(model, sample)

    def test_sorted_by_key(self):
        corpus, confusion = small_noisy_setup(n_sentences=10)
        manifest = arrange_shuffled_baseline(corpus.ids(), seed=0)
        model = train(manifest, corpus, confusion)
        rows = [ln.split("\t")[0] for ln in model_to_tsv(model).splitlines()[1:]]
        assert rows == sorted(rows)

    def test_header_carries_window_and_schema(self):
        _, confusion = overfit_fixture()
        model = CorrectorModel(weights={}, averaged_weights={"KEEP": -1.0},
                               updates_seen=1, confusion=confusion)
        header = model_to_tsv(model).splitlines()[0]
        assert "schema=1" in header and "window=2" in header

    def test_malformed(self):
        confusion = ConfusionSet()
        with pytest.raises(MalformedLine):
            parse_model("no header\n", confusion)
        with pytest.raises(MalformedLine):
            parse_model("# spellcl-model schema=1 window=2\nbad-row\n", confusion)
        with pytest.raises(MalformedLine):
            parse_model("# spellcl-model schema=99 window=2\n", confusion)
        with pytest.raises(MalformedLine, match="window=5"):
            parse_model("# spellcl-model schema=1 window=5\nKEEP\t-1.0\n", confusion)
