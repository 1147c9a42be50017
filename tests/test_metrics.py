"""Sentence-level evaluation counts, metric formulas, comparison tables."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spellcl.corpus import Corpus, Sample, parse_corpus
from spellcl.errors import IdMismatch, LengthMismatch
from spellcl.metrics import LEVELS, EvalReport, evaluate, reports_to_tsv


def perfect(corpus: Corpus) -> dict[str, str]:
    return {s.id: s.target for s in corpus}


def changed_at(source: str, predicted: str) -> list[int]:
    return [j for j in range(len(source)) if predicted[j] != source[j]]


def classify(sample: Sample, predicted: str, level: str) -> set[str]:
    """The counts the sentence falls in, read off the ``metrics`` docstring."""
    errored = sample.source != sample.target
    if level == "detection":
        exact = changed_at(sample.source, predicted) == changed_at(sample.source, sample.target)
    else:
        exact = predicted == sample.target
    if errored and exact:
        return {"tp"}
    counts = set()
    if predicted != sample.source:
        counts.add("fp")
    if errored:
        counts.add("fn")
    return counts or {"tn"}


GOLD2 = parse_corpus("e1\tAB\tXB\ne2\tCD\tCY\n")  # both sentences have gold errors

# sentences as (source, target, predicted) character triples over a small alphabet
CHAR = st.sampled_from("abX")
SENTENCES = st.lists(st.lists(st.tuples(CHAR, CHAR, CHAR), max_size=5), max_size=8)


# ===========================================================================
# evaluate
# ===========================================================================

class TestEvaluate:

    def test_hand_counted_two_sentence_case(self):
        # sentence 1 matched exactly; nothing predicted on sentence 2:
        # det TP=1 (e1), FN=1 (e2, no predicted change so no FP), FP=0, TN=0
        rep, _ = evaluate({"e1": "XB", "e2": "CD"}, GOLD2)
        assert (rep.tp, rep.fp, rep.fn, rep.tn) == (1, 0, 1, 0)
        assert rep.precision == pytest.approx(1.0)
        assert rep.recall == pytest.approx(0.5)
        assert rep.f1 == pytest.approx(2 / 3, abs=1e-12)
        assert rep.accuracy == pytest.approx(0.5)

    def test_perfect_predictions_all_ones(self):
        corpus = parse_corpus("e1\tAB\tXB\nc1\tGH\tGH\ne2\tCD\tCY\nc2\tIJ\tIJ\n")
        for rep in evaluate(perfect(corpus), corpus):
            assert (rep.accuracy, rep.precision, rep.recall, rep.f1) == (1.0, 1.0, 1.0, 1.0)
            assert (rep.tp, rep.tn) == (2, 2)

    def test_false_alarm_on_clean_sentence(self):
        corpus = parse_corpus("c1\tAB\tAB\n")
        for rep in evaluate({"c1": "XB"}, corpus):
            assert (rep.tp, rep.fp, rep.fn, rep.tn) == (0, 1, 0, 0)
            assert rep.accuracy == 0.0

    def test_right_positions_wrong_characters(self):
        # detection-exact but correction-wrong: det TP, corr FP+FN
        corpus = parse_corpus("e1\tAB\tXB\n")
        det, corr = evaluate({"e1": "QB"}, corpus)
        assert (det.tp, det.fp, det.fn) == (1, 0, 0)
        assert (corr.tp, corr.fp, corr.fn) == (0, 1, 1)

    def test_changed_and_wrong_counts_both_fp_and_fn(self):
        corpus = parse_corpus("e1\tABC\tXBC\n")
        rep, _ = evaluate({"e1": "ABQ"}, corpus)  # wrong position changed
        assert (rep.tp, rep.fp, rep.fn, rep.tn) == (0, 1, 1, 0)
        # tp+fp counts changed sentences; tp+fn counts errored sentences
        assert rep.tp + rep.fp == 1
        assert rep.tp + rep.fn == 1

    def test_zero_denominators(self):
        corpus = parse_corpus("c1\tAB\tAB\n")
        rep, _ = evaluate(perfect(corpus), corpus)
        assert (rep.precision, rep.recall, rep.f1) == (0.0, 0.0, 0.0)
        assert rep.accuracy == 1.0

    def test_id_mismatch(self):
        for predicted in ({"e1": "XB"},                          # e2 missing
                          {"e1": "XB", "e2": "CD", "zz": "CD"},  # an extra ID
                          {"e1": "XB", "zz": "CD"}):             # e2 replaced
            with pytest.raises(IdMismatch,
                               match="^prediction IDs must be exactly the gold corpus IDs$"):
                evaluate(predicted, GOLD2)

    @pytest.mark.parametrize("wrong", ["C", "CDE", ""])
    def test_wrong_length_prediction_names_the_sample(self, wrong):
        with pytest.raises(LengthMismatch, match=f"^sample 'e2': prediction has {len(wrong)} "
                                                 "characters, source has 2$"):
            evaluate({"e1": "XB", "e2": wrong}, GOLD2)

    @given(SENTENCES)
    def test_counts_match_per_sentence_classification(self, sentences):
        samples = [Sample(f"s{i}", "".join(t[0] for t in chars), "".join(t[1] for t in chars))
                   for i, chars in enumerate(sentences)]
        predicted = {f"s{i}": "".join(t[2] for t in chars) for i, chars in enumerate(sentences)}
        reports = evaluate(predicted, Corpus(tuple(samples)))
        for level, rep in zip(LEVELS, reports):
            counts = [classify(s, predicted[s.id], level) for s in samples]
            assert rep.level == level
            assert (rep.tp, rep.fp, rep.fn, rep.tn) == tuple(
                sum(name in c for c in counts) for name in ("tp", "fp", "fn", "tn"))
            assert rep.n_sentences == len(samples)

    def test_correction_tp_subset_of_detection_tp_random(self):
        rng = np.random.default_rng(12)
        alphabet = list("abcd")
        for trial in range(200):
            samples, preds = [], {}
            for i in range(rng.integers(1, 8)):
                n = int(rng.integers(1, 6))
                src = "".join(rng.choice(alphabet, size=n))
                tgt = "".join(
                    c if rng.random() < 0.7 else "X" for c in src
                )
                predicted = "".join(
                    rng.choice(alphabet + ["X"]) if rng.random() < 0.4 else c
                    for c in src
                )
                s = Sample(id=f"t{trial}_{i}", source=src, target=tgt)
                samples.append(s)
                preds[s.id] = predicted
            corpus = Corpus(samples=tuple(samples))
            # independent per-sentence classification
            det_tp = {s.id for s in samples if s.error_positions
                      and changed_at(s.source, preds[s.id]) == list(s.error_positions)}
            corr_tp = {s.id for s in samples if s.error_positions and preds[s.id] == s.target}
            assert corr_tp <= det_tp
            det, corr = evaluate(preds, corpus)
            assert det.tp == len(det_tp)
            assert corr.tp == len(corr_tp)
            for rep in (det, corr):
                assert 0.0 <= rep.precision <= 1.0
                assert 0.0 <= rep.recall <= 1.0
                assert 0.0 <= rep.f1 <= 1.0
                assert 0.0 <= rep.accuracy <= 1.0
                assert rep.f1 <= (rep.precision + rep.recall) / 2 + 1e-12
                assert rep.tp + rep.fp == sum(1 for s in samples if preds[s.id] != s.source)
                assert rep.tp + rep.fn == sum(1 for s in samples if s.error_positions)


# ===========================================================================
# tables
# ===========================================================================

def report(f1: float) -> EvalReport:
    return EvalReport(level="correction", accuracy=f1, precision=f1, recall=f1,
                      f1=f1, tp=0, fp=0, fn=0, tn=0, n_sentences=0)


class TestTables:

    def test_reports_tsv_four_decimals(self):
        text = reports_to_tsv([report(1 / 3)])
        row = text.splitlines()[1].split("\t")
        assert row[4] == "0.3333"
