"""Difficulty scoring for training samples.

The contextual policy scores a sample as the sum, over its error
positions, of the cosine similarity between the wrong-side and
correct-side context vectors at that position: samples whose typo looks
contextually "close" to the correction are the hard ones, and more errors
mean a harder sample.  The character-similarity policy is the ablation
variant: an indicator sum of confusion-set membership over error
positions.  Error-free samples score exactly 0 under both policies.

Two facts limit what the policies can tell apart.  With errors from
``inject_errors`` or ``perfbench/gen.py``, every error is a confusion-set
substitution, so char_similarity is the error count (on every seed-0 desk
and dense training sample).  The hashed contextual score depends on where an
error sits, not on which characters: against ``abcdefg``, ``abcXefg`` and
``abcYefg`` both score 0.857142857142857; an error at position 0 scores 2/3.
"""

from __future__ import annotations

import logging
import math
from typing import TYPE_CHECKING

from .corpus import ConfusionSet, Corpus, numbered_lines, read_text, write_text
from .errors import MalformedLine, ShapeMismatch

if TYPE_CHECKING:
    import numpy as np

logger = logging.getLogger(__name__)

POLICIES = ("contextual", "char_similarity")
_ROWS = 512  # error rows a block gathers: it holds them twice, as answers and as a float64 copy


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


def score_corpus(corpus: Corpus, policy: str, provider=None,
                 confusion: ConfusionSet | None = None) -> dict[str, float]:
    """``{sample_id: score}``, in corpus order.

    The char_similarity policy counts the error positions whose (wrong,
    correct) pair is confusion-linked in either direction.  The contextual
    policy asks ``provider.embed_side`` for each sample's rows at its error
    positions only, joins whole samples' rows into float64 blocks of about
    ``_ROWS`` rows per side and takes one cosine per error row.  After the
    last block it warns of zero-norm rows and adds each sample's cosines to
    its score from 0.0 on in error order (``np.add.at``), as a running sum does.
    """
    if policy == "char_similarity":
        if confusion is None:
            raise ValueError("char_similarity scoring needs a confusion set")
        def linked(wrong: str, right: str) -> bool:
            return right in confusion.candidates(wrong) or wrong in confusion.candidates(right)
        return {s.id: float(sum(linked(s.source[j], s.target[j]) for j in s.error_positions))
                for s in corpus}
    if policy != "contextual":
        raise ValueError(f"unknown difficulty policy {policy!r}")
    if provider is None:
        raise ValueError("contextual scoring needs an embedding provider")
    import numpy as np
    counts = [len(s.error_positions) for s in corpus]
    cos, zero = np.empty(sum(counts)), np.empty(sum(counts), dtype=bool)  # per error row
    block, rows, done = [], 0, 0  # the block's (source, target) answers, its rows, rows before it
    for i, s in enumerate(corpus):
        a = provider.embed_side(s, "source", s.error_positions).vectors
        b = provider.embed_side(s, "target", s.error_positions).vectors
        if not i:  # the first answer gives the dimension
            dim = a.shape[1]
        if a.shape != (counts[i], dim) or b.shape != a.shape:
            raise ShapeMismatch(f"sample {s.id!r}: embedding rows {a.shape} and {b.shape} for "
                                f"{counts[i]} error positions of dimension {dim}")
        if counts[i]:  # an error-free sample adds nothing
            block.append((a, b))
            rows += counts[i]
        if block and (rows >= _ROWS or i + 1 == len(counts) or counts[i + 1] > _ROWS):
            cos[done:done + rows], zero[done:done + rows] = _row_cosines(
                *(np.concatenate(side, dtype=np.float64) for side in zip(*block)))
            block, rows, done = [], 0, done + rows
    owner = np.repeat(np.arange(len(counts)), counts)  # each error row's sample
    for r in np.flatnonzero(zero).tolist():
        s = corpus.samples[owner[r]]
        logger.warning("zero-norm embedding at sample %r position %d; similarity taken as 0",
                       s.id, s.error_positions[r - owner.searchsorted(owner[r])])
    scores = np.zeros(len(counts))
    np.add.at(scores, owner, cos)
    return dict(zip(corpus.ids(), scores.tolist()))


# --- difficulty file ---------------------------------------------------------

def records_to_tsv(scores: dict[str, float], policy: str) -> str:
    """``sample_id<TAB>score<TAB>policy`` rows, scores at 9 decimal places."""
    return "".join(f"{sid}\t{score:.9f}\t{policy}\n" for sid, score in scores.items())


def parse_records(text: str) -> dict[str, float]:
    """``{sample_id: score}`` in line order.  A file holds one policy, that of its
    first line: two policies score on different scales.  A NaN score has no
    place in ascending order and is rejected; +-inf sorts first or last."""
    scores: dict[str, float] = {}
    policy = ""
    for line_no, line in numbered_lines(text):
        fields = line.split("\t")
        if len(fields) != 3 or fields[2] not in POLICIES:
            raise MalformedLine(f"line {line_no}: expected 'id<TAB>score<TAB>policy'")
        policy = policy or fields[2]
        if fields[2] != policy:
            raise MalformedLine(f"line {line_no}: policy {fields[2]!r} in a {policy!r} file")
        try:
            score = float(fields[1])
            if math.isnan(score):
                raise ValueError
        except ValueError:
            raise MalformedLine(f"line {line_no}: bad score {fields[1]!r}")
        if not fields[0]:
            raise MalformedLine(f"line {line_no}: empty sample ID")
        if fields[0] in scores:
            raise MalformedLine(f"line {line_no}: repeated sample ID {fields[0]!r}")
        scores[fields[0]] = score
    return scores


def load_records(path) -> dict[str, float]:
    return parse_records(read_text(path))


def save_records(scores: dict[str, float], policy: str, path) -> None:
    write_text(path, records_to_tsv(scores, policy))
