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
from dataclasses import dataclass

import numpy as np

from .corpus import ConfusionSet, Corpus, Sample, numbered_lines, read_text, write_text
from .embed import ContextualEmbedding
from .errors import MalformedLine, ShapeMismatch, ZeroNormVector

logger = logging.getLogger(__name__)

POLICIES = ("contextual", "char_similarity")


@dataclass(frozen=True)
class DifficultyRecord:
    sample_id: str
    score: float
    policy: str


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity, clamped to [-1, 1] against float overshoot.

    Raises ZeroNormVector for degenerate inputs; the contextual score maps
    that case to similarity 0.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ShapeMismatch(f"vector shapes differ: {u.shape} vs {v.shape}")
    nu = float(np.sqrt(np.dot(u, u)))
    nv = float(np.sqrt(np.dot(v, v)))
    if nu == 0.0 or nv == 0.0:
        raise ZeroNormVector("cosine undefined for zero-norm vector")
    return min(1.0, max(-1.0, float(np.dot(u, v)) / (nu * nv)))


def _sum_error_cosines(sample: Sample, src_rows: np.ndarray,
                       tgt_rows: np.ndarray) -> DifficultyRecord:
    """Contextual record from each side's vectors at ``sample.error_positions``,
    one row per error position in that order."""
    if src_rows.shape[1] != tgt_rows.shape[1]:
        raise ShapeMismatch(
            f"sample {sample.id!r}: embedding dims differ "
            f"({src_rows.shape[1]} vs {tgt_rows.shape[1]})"
        )
    score = 0.0
    for j, u, v in zip(sample.error_positions, src_rows, tgt_rows):
        try:
            score += cosine(u, v)
        except ZeroNormVector:
            logger.warning(
                "zero-norm embedding at sample %r position %d; similarity taken as 0",
                sample.id, j,
            )
    return DifficultyRecord(sample_id=sample.id, score=score, policy="contextual")


def score_contextual(sample: Sample, emb_src: ContextualEmbedding,
                     emb_tgt: ContextualEmbedding) -> DifficultyRecord:
    """Sum of per-error-position cosines between the two sides' full-length
    vectors."""
    if len(emb_src) != len(sample.source) or len(emb_tgt) != len(sample.target):
        raise ShapeMismatch(
            f"sample {sample.id!r}: embeddings cover {len(emb_src)}/{len(emb_tgt)} "
            f"positions for a {len(sample.source)}-character sample"
        )
    rows = list(sample.error_positions)
    return _sum_error_cosines(sample, emb_src.vectors[rows], emb_tgt.vectors[rows])


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
    """One record per sample, in corpus order.  The contextual policy asks
    ``provider.embed_side`` for each side's vectors at the error positions
    only."""
    if policy == "contextual":
        if provider is None:
            raise ValueError("contextual scoring needs an embedding provider")
        return [
            _sum_error_cosines(
                s,
                provider.embed_side(s, "source", s.error_positions).vectors,
                provider.embed_side(s, "target", s.error_positions).vectors,
            )
            for s in corpus
        ]
    if policy == "char_similarity":
        if confusion is None:
            raise ValueError("char_similarity scoring needs a confusion set")
        return [score_char_similarity(s, confusion) for s in corpus]
    raise ValueError(f"unknown difficulty policy {policy!r}")


# --- difficulty file ---------------------------------------------------------

def records_to_tsv(records: list[DifficultyRecord]) -> str:
    """``sample_id<TAB>score<TAB>policy`` rows, scores at 9 decimal places."""
    return "".join(f"{r.sample_id}\t{r.score:.9f}\t{r.policy}\n" for r in records)


def parse_records(text: str) -> list[DifficultyRecord]:
    records = []
    for line_no, line in numbered_lines(text):
        fields = line.split("\t")
        if len(fields) != 3 or fields[2] not in POLICIES:
            raise MalformedLine(f"line {line_no}: expected 'id<TAB>score<TAB>policy'")
        try:
            score = float(fields[1])
        except ValueError:
            raise MalformedLine(f"line {line_no}: bad score {fields[1]!r}")
        records.append(DifficultyRecord(sample_id=fields[0], score=score, policy=fields[2]))
    return records


def load_records(path) -> list[DifficultyRecord]:
    return parse_records(read_text(path))


def save_records(records: list[DifficultyRecord], path) -> None:
    write_text(path, records_to_tsv(records))
