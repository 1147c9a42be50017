"""Sentence-level evaluation counts, metric formulas, comparison tables."""

import numpy as np
import pytest

from spellcl.corpus import Corpus, Sample, parse_corpus
from spellcl.errors import IdMismatch
from spellcl.metrics import EvalReport, evaluate, reports_to_tsv
from spellcl.model import Prediction


def pred_for(sample: Sample, predicted: str) -> Prediction:
    detected = tuple(j for j in range(len(predicted)) if predicted[j] != sample.source[j])
    return Prediction(sample_id=sample.id, predicted=predicted, detected_positions=detected)


def perfect(corpus: Corpus) -> list[Prediction]:
    return [pred_for(s, s.target) for s in corpus]


GOLD2 = parse_corpus("e1\tAB\tXB\ne2\tCD\tCY\n")  # both sentences have gold errors


# ===========================================================================
# evaluate
# ===========================================================================

class TestEvaluate:

    def test_hand_counted_two_sentence_case(self):
        # sentence 1 matched exactly; nothing predicted on sentence 2:
        # det TP=1 (e1), FN=1 (e2, no predicted change so no FP), FP=0, TN=0
        preds = [pred_for(GOLD2.samples[0], "XB"), pred_for(GOLD2.samples[1], "CD")]
        rep = evaluate(preds, GOLD2, "detection")
        assert (rep.tp, rep.fp, rep.fn, rep.tn) == (1, 0, 1, 0)
        assert rep.precision == pytest.approx(1.0)
        assert rep.recall == pytest.approx(0.5)
        assert rep.f1 == pytest.approx(2 / 3, abs=1e-12)
        assert rep.accuracy == pytest.approx(0.5)

    def test_perfect_predictions_all_ones(self):
        corpus = parse_corpus("e1\tAB\tXB\nc1\tGH\tGH\ne2\tCD\tCY\nc2\tIJ\tIJ\n")
        for level in ("detection", "correction"):
            rep = evaluate(perfect(corpus), corpus, level)
            assert (rep.accuracy, rep.precision, rep.recall, rep.f1) == (1.0, 1.0, 1.0, 1.0)
            assert (rep.tp, rep.tn) == (2, 2)

    def test_false_alarm_on_clean_sentence(self):
        corpus = parse_corpus("c1\tAB\tAB\n")
        preds = [pred_for(corpus.samples[0], "XB")]
        for level in ("detection", "correction"):
            rep = evaluate(preds, corpus, level)
            assert (rep.tp, rep.fp, rep.fn, rep.tn) == (0, 1, 0, 0)
            assert rep.accuracy == 0.0

    def test_right_positions_wrong_characters(self):
        # detection-exact but correction-wrong: det TP, corr FP+FN
        corpus = parse_corpus("e1\tAB\tXB\n")
        preds = [pred_for(corpus.samples[0], "QB")]
        det = evaluate(preds, corpus, "detection")
        corr = evaluate(preds, corpus, "correction")
        assert (det.tp, det.fp, det.fn) == (1, 0, 0)
        assert (corr.tp, corr.fp, corr.fn) == (0, 1, 1)

    def test_changed_and_wrong_counts_both_fp_and_fn(self):
        corpus = parse_corpus("e1\tABC\tXBC\n")
        preds = [pred_for(corpus.samples[0], "ABQ")]  # wrong position changed
        rep = evaluate(preds, corpus, "detection")
        assert (rep.tp, rep.fp, rep.fn, rep.tn) == (0, 1, 1, 0)
        # tp+fp counts changed sentences; tp+fn counts errored sentences
        assert rep.tp + rep.fp == 1
        assert rep.tp + rep.fn == 1

    def test_zero_denominators(self):
        corpus = parse_corpus("c1\tAB\tAB\n")
        rep = evaluate(perfect(corpus), corpus, "detection")
        assert (rep.precision, rep.recall, rep.f1) == (0.0, 0.0, 0.0)
        assert rep.accuracy == 1.0

    def test_unknown_level(self):
        with pytest.raises(ValueError, match="^unknown evaluation level 'sentence'$"):
            evaluate(perfect(GOLD2), GOLD2, "sentence")

    def test_id_mismatch(self):
        with pytest.raises(IdMismatch):
            evaluate([pred_for(GOLD2.samples[0], "XB")], GOLD2, "detection")
        with pytest.raises(IdMismatch):
            evaluate(
                [pred_for(GOLD2.samples[0], "XB"),
                 Prediction("zz", "CD", ())],
                GOLD2, "detection",
            )

    def test_correction_tp_subset_of_detection_tp_random(self):
        rng = np.random.default_rng(12)
        alphabet = list("abcd")
        for trial in range(200):
            samples, preds = [], []
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
                preds.append(pred_for(s, predicted))
            corpus = Corpus(samples=tuple(samples))
            # independent per-sentence classification
            det_tp = {s.id for s, p in zip(samples, preds)
                      if s.error_positions and p.detected_positions == s.error_positions}
            corr_tp = {s.id for s, p in zip(samples, preds)
                       if s.error_positions and p.predicted == s.target}
            assert corr_tp <= det_tp
            det = evaluate(preds, corpus, "detection")
            corr = evaluate(preds, corpus, "correction")
            assert det.tp == len(det_tp)
            assert corr.tp == len(corr_tp)
            for rep in (det, corr):
                assert 0.0 <= rep.precision <= 1.0
                assert 0.0 <= rep.recall <= 1.0
                assert 0.0 <= rep.f1 <= 1.0
                assert 0.0 <= rep.accuracy <= 1.0
                assert rep.f1 <= (rep.precision + rep.recall) / 2 + 1e-12
                assert rep.tp + rep.fp == sum(1 for p in preds if p.detected_positions)
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
