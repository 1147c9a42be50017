"""Difficulty scoring for training samples.

The contextual policy scores a sample as the sum, over its error
positions, of the cosine similarity between the wrong-side and
correct-side context vectors at that position: samples whose typo looks
contextually "close" to the correction are the hard ones, and more errors
mean a harder sample.  The character-similarity policy is the ablation
variant: an indicator sum of confusion-set membership over error
positions.  Error-free samples score exactly 0 under both policies.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .corpus import ConfusionSet, Corpus, Sample, numbered_lines, read_text, write_text
from .errors import MalformedLine, ShapeMismatch

if TYPE_CHECKING:
    import numpy as np

logger = logging.getLogger(__name__)

POLICIES = ("contextual", "char_similarity")


@dataclass(frozen=True)
class DifficultyRecord:
    sample_id: str
    score: float
    policy: str


def _row_cosines(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cosine of each row pair of two (rows, dim) arrays, clamped to [-1, 1]
    against float overshoot and 0.0 where a row has zero norm, and the mask
    of those pairs.  Each sum of products is ``np.add.reduce`` along its row,
    so a row gets the same bits in any batch; hashed rows hold small
    integers, whose sums are exact in any order."""
    import numpy as np
    norms = np.sqrt(np.add.reduce(u * u, axis=1)) * np.sqrt(np.add.reduce(v * v, axis=1))
    zero = norms == 0.0
    cos = np.divide(np.add.reduce(u * v, axis=1), norms, out=np.zeros(len(norms)), where=~zero)
    return np.clip(cos, -1.0, 1.0, out=cos), zero


def score_char_similarity(sample: Sample, confusion: ConfusionSet) -> DifficultyRecord:
    """Count error positions whose (wrong, correct) pair is confusion-linked."""
    score = 0
    for j in sample.error_positions:
        src_c, tgt_c = sample.source[j], sample.target[j]
        if tgt_c in confusion.candidates(src_c) or src_c in confusion.candidates(tgt_c):
            score += 1
    return DifficultyRecord(sample_id=sample.id, score=float(score), policy="char_similarity")


def score_corpus(corpus: Corpus, policy: str, provider=None,
                 confusion: ConfusionSet | None = None) -> list[DifficultyRecord]:
    """One record per sample, in corpus order.

    The contextual policy asks ``provider.embed_side`` for each side's
    vectors at the error positions only, sample by sample.  The cosines of
    all samples come from one pass over the stacked rows; each sample's are
    then added to 0.0 left to right in error order (``np.add.at``), as a
    running sum does.
    """
    if policy == "char_similarity":
        if confusion is None:
            raise ValueError("char_similarity scoring needs a confusion set")
        return [score_char_similarity(s, confusion) for s in corpus]
    if policy != "contextual":
        raise ValueError(f"unknown difficulty policy {policy!r}")
    if provider is None:
        raise ValueError("contextual scoring needs an embedding provider")
    if not len(corpus):
        return []
    import numpy as np
    src_rows, tgt_rows = [], []
    for s in corpus:
        src_rows.append(provider.embed_side(s, "source", s.error_positions).vectors)
        tgt_rows.append(provider.embed_side(s, "target", s.error_positions).vectors)
    dim = src_rows[0].shape[1]
    for s, u, v in zip(corpus, src_rows, tgt_rows):
        if u.shape != (len(s.error_positions), dim) or v.shape != u.shape:
            raise ShapeMismatch(f"sample {s.id!r}: embedding rows {u.shape} and {v.shape} for "
                                f"{len(s.error_positions)} error positions of dimension {dim}")
    owner = np.repeat(np.arange(len(corpus)), [len(s.error_positions) for s in corpus])
    cos, zero = _row_cosines(np.concatenate(src_rows, dtype=np.float64),
                             np.concatenate(tgt_rows, dtype=np.float64))
    for i in np.flatnonzero(zero).tolist():
        s = corpus.samples[owner[i]]
        logger.warning("zero-norm embedding at sample %r position %d; similarity taken as 0",
                       s.id, s.error_positions[i - np.searchsorted(owner, owner[i])])
    scores = np.zeros(len(corpus))
    np.add.at(scores, owner, cos)
    return [DifficultyRecord(sample_id=s.id, score=score, policy="contextual")
            for s, score in zip(corpus, scores.tolist())]


# --- difficulty file ---------------------------------------------------------

def records_to_tsv(records: list[DifficultyRecord]) -> str:
    """``sample_id<TAB>score<TAB>policy`` rows, scores at 9 decimal places."""
    return "".join(f"{r.sample_id}\t{r.score:.9f}\t{r.policy}\n" for r in records)


def parse_records(text: str) -> list[DifficultyRecord]:
    """One record per non-empty sample ID.  A NaN score has no place in ascending
    order and is rejected; +-inf sorts first or last."""
    records: dict[str, DifficultyRecord] = {}
    for line_no, line in numbered_lines(text):
        fields = line.split("\t")
        if len(fields) != 3 or fields[2] not in POLICIES:
            raise MalformedLine(f"line {line_no}: expected 'id<TAB>score<TAB>policy'")
        try:
            score = float(fields[1])
            if math.isnan(score):
                raise ValueError
        except ValueError:
            raise MalformedLine(f"line {line_no}: bad score {fields[1]!r}")
        if not fields[0]:
            raise MalformedLine(f"line {line_no}: empty sample ID")
        if fields[0] in records:
            raise MalformedLine(f"line {line_no}: repeated sample ID {fields[0]!r}")
        records[fields[0]] = DifficultyRecord(sample_id=fields[0], score=score, policy=fields[2])
    return list(records.values())


def load_records(path) -> list[DifficultyRecord]:
    return parse_records(read_text(path))


def save_records(records: list[DifficultyRecord], path) -> None:
    write_text(path, records_to_tsv(records))
