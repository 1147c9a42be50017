"""Sentence-level detection and correction evaluation.

A prediction is ``{sample_id: predicted string}``.  A sentence counts as
detected-correct only when the positions where its string differs from
the source are exactly the gold error positions, and corrected-correct
only when the string equals the gold target.  Counts follow the
convention of the common sentence-level CSC scorers:

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

from .corpus import Corpus, derive_error_positions
from .errors import IdMismatch, LengthMismatch

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


def evaluate(predicted: dict[str, str], gold: Corpus) -> list[EvalReport]:
    """The reports of ``predicted`` against ``gold``, one per level in ``LEVELS``
    order; loads no numpy, so it scores any system's strings."""
    if predicted.keys() != {s.id for s in gold}:
        raise IdMismatch("prediction IDs must be exactly the gold corpus IDs")
    # A TP is a changed sentence, so per level fp = changed - tp and
    # fn = errored - tp; tn does not depend on the level.
    errored = changed = tn = det_tp = corr_tp = 0
    for sample in gold:
        pred = predicted[sample.id]
        if len(pred) != len(sample.source):
            raise LengthMismatch(f"sample {sample.id!r}: prediction has {len(pred)} "
                                 f"characters, source has {len(sample.source)}")
        changed += pred != sample.source
        if sample.error_positions:
            errored += 1
            det_tp += derive_error_positions(sample.source, pred) == sample.error_positions
            corr_tp += pred == sample.target
        elif pred == sample.source:
            tn += 1

    reports = []
    for level, tp in zip(LEVELS, (det_tp, corr_tp)):
        precision = _ratio(tp, changed)
        recall = _ratio(tp, errored)
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        reports.append(EvalReport(
            level=level, accuracy=_ratio(tp + tn, len(gold)), precision=precision, recall=recall,
            f1=f1, tp=tp, fp=changed - tp, fn=errored - tp, tn=tn, n_sentences=len(gold),
        ))
    return reports


# --- report files -------------------------------------------------------------

_REPORT_HEADER = "level\taccuracy\tprecision\trecall\tf1\ttp\tfp\tfn\ttn\tn_sentences"


def reports_to_tsv(reports: list[EvalReport]) -> str:
    """Report table; metric values at 4 decimal places."""
    lines = [_REPORT_HEADER]
    for r in reports:
        lines.append(f"{r.level}\t{r.accuracy:.4f}\t{r.precision:.4f}\t{r.recall:.4f}"
                     f"\t{r.f1:.4f}\t{r.tp}\t{r.fp}\t{r.fn}\t{r.tn}\t{r.n_sentences}")
    return "\n".join(lines) + "\n"
