"""Sentence-level detection and correction evaluation.

A sentence counts as detected-correct only when the predicted change
positions match the gold error positions exactly, and corrected-correct
only when the whole predicted sentence equals the gold target.  Counts
follow the convention of the common sentence-level CSC scorers:

* TP: sentence has gold errors and is exactly right at the given level.
* FP: the model changed something and the sentence is not a TP.
* FN: the sentence has gold errors and is not a TP.
* TN: clean sentence left untouched.

so tp+fp = sentences with any predicted change and tp+fn = sentences with
any gold error.  An errored sentence that was changed incorrectly counts
as both FP and FN.  Zero-denominator precision/recall are defined as 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import Corpus
from .errors import IdMismatch
from .model import Prediction

LEVELS = ("detection", "correction")


@dataclass(frozen=True)
class EvalReport:
    level: str
    accuracy: float
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int
    tn: int
    n_sentences: int


def _ratio(num: int, den: int) -> float:
    return num / den if den > 0 else 0.0


def evaluate(predictions: list[Prediction], gold: Corpus, level: str) -> EvalReport:
    if level not in LEVELS:
        raise ValueError(f"unknown evaluation level {level!r}")
    by_id = {p.sample_id: p for p in predictions}
    if len(by_id) != len(predictions) or set(by_id) != {s.id for s in gold}:
        raise IdMismatch("prediction IDs must biject onto gold corpus IDs")

    tp = fp = fn = tn = 0
    for sample in gold:
        pred = by_id[sample.id]
        changed = bool(pred.detected_positions)
        gold_err = bool(sample.error_positions)
        if level == "detection":
            exact = pred.detected_positions == sample.error_positions
        else:
            exact = pred.predicted == sample.target
        is_tp = gold_err and exact
        if is_tp:
            tp += 1
        else:
            if gold_err:
                fn += 1
            if changed:
                fp += 1
            if not gold_err and not changed:
                tn += 1

    n = len(gold)
    precision = _ratio(tp, tp + fp)
    recall = _ratio(tp, tp + fn)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return EvalReport(
        level=level, accuracy=_ratio(tp + tn, n), precision=precision,
        recall=recall, f1=f1, tp=tp, fp=fp, fn=fn, tn=tn, n_sentences=n,
    )


# --- report files -------------------------------------------------------------

_REPORT_HEADER = "level\taccuracy\tprecision\trecall\tf1\ttp\tfp\tfn\ttn\tn_sentences"


def reports_to_tsv(reports: list[EvalReport]) -> str:
    """Report table; metric values at 4 decimal places."""
    lines = [_REPORT_HEADER]
    for r in reports:
        lines.append(
            f"{r.level}\t{r.accuracy:.4f}\t{r.precision:.4f}\t{r.recall:.4f}"
            f"\t{r.f1:.4f}\t{r.tp}\t{r.fp}\t{r.fn}\t{r.tn}\t{r.n_sentences}"
        )
    return "\n".join(lines) + "\n"
