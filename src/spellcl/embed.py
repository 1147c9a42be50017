"""Per-position contextual representations for character sequences.

Two providers are available:

* ``HashedEmbedder`` - a deterministic, training-free stand-in for a
  neural encoder.  Each position's vector is built by feature-hashing the
  characters in a +-w window (offset-tagged, so left and right neighbors
  differ), giving bit-exact reproducibility across runs and platforms.
* ``FileEmbeddingProvider`` - vectors precomputed by an external encoder
  and loaded from a text file (header ``dim=<d>``, then one position per
  line: ``sample_id<TAB>side<TAB>position<TAB>v1,v2,...,vd``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import hash_embed
from .corpus import Corpus, Sample, numbered_lines, read_text
from .errors import DimMismatch, MalformedLine, MissingEmbedding, MissingPosition

SIDES = ("source", "target")


@dataclass(frozen=True)
class ContextualEmbedding:
    """One vector per character position of a sample side."""

    sample_id: str
    side: str
    vectors: np.ndarray  # shape (sequence length, dim), float64

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return self.vectors.shape[0]


def hashed_embed(sequence: str, window: int = 2, dim: int = 64) -> np.ndarray:
    """Feature-hashed context vectors, shape (len(sequence), dim).

    Position j sums one signed unit per in-bounds offset o in [-w, w]:
    the feature (character at j+o, o) is hashed with 64-bit FNV-1a over
    the character's UTF-8 bytes followed by the offset as one signed
    (two's-complement) byte; bit 63 picks the sign, hash mod dim the index.
    """
    if window < 0 or window > 127:
        raise ValueError(f"window must be in [0, 127], got {window}")
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    return hash_embed(sequence, window, dim)


class HashedEmbedder:
    """Deterministic built-in embedding provider."""

    def __init__(self, window: int = 2, dim: int = 64):
        if window < 0 or window > 127:
            raise ValueError(f"window must be in [0, 127], got {window}")
        if dim < 2:
            raise ValueError(f"dim must be >= 2, got {dim}")
        self.window = window
        self.dim = dim

    def embed_side(self, sample: Sample, side: str) -> ContextualEmbedding:
        seq = sample.source if side == "source" else sample.target
        vectors = hashed_embed(seq, self.window, self.dim)
        return ContextualEmbedding(sample_id=sample.id, side=side, vectors=vectors)


class FileEmbeddingProvider:
    """Provider backed by externally computed vectors."""

    def __init__(self, table: dict[tuple[str, str], ContextualEmbedding]):
        self._table = table

    def embed_side(self, sample: Sample, side: str) -> ContextualEmbedding:
        try:
            return self._table[(sample.id, side)]
        except KeyError:
            raise MissingEmbedding(f"no embedding for sample {sample.id!r} side {side!r}")


def parse_embeddings(text: str) -> dict[tuple[str, str], ContextualEmbedding]:
    """Parse an embedding document into a (sample_id, side) -> embedding map."""
    lines = numbered_lines(text)
    first_no, first = next(lines, (1, ""))
    if first_no != 1 or not first.startswith("dim="):
        raise MalformedLine("line 1: expected header 'dim=<d>'")
    try:
        dim = int(first[4:])
    except ValueError:
        raise MalformedLine(f"line 1: bad dimension in header {first!r}")
    if dim < 1:
        raise MalformedLine(f"line 1: dimension must be positive, got {dim}")

    rows: dict[tuple[str, str], dict[int, np.ndarray]] = {}
    for line_no, line in lines:
        fields = line.split("\t")
        if len(fields) != 4:
            raise MalformedLine(f"line {line_no}: expected 4 tab-separated fields")
        sample_id, side, pos_str, vec_str = fields
        if side not in SIDES:
            raise MalformedLine(f"line {line_no}: side must be 'source' or 'target'")
        try:
            pos = int(pos_str)
            vec = np.array([float(v) for v in vec_str.split(",")], dtype=np.float64)
        except ValueError:
            raise MalformedLine(f"line {line_no}: bad position or vector")
        if vec.shape[0] != dim:
            raise DimMismatch(
                f"line {line_no}: vector has {vec.shape[0]} components, header says {dim}"
            )
        group = rows.setdefault((sample_id, side), {})
        if pos in group:
            raise MalformedLine(f"line {line_no}: duplicate position {pos}")
        group[pos] = vec

    table = {}
    for (sample_id, side), group in rows.items():
        for j in range(len(group)):
            if j not in group:
                raise MissingPosition(
                    f"sample {sample_id!r} side {side!r}: position {j} missing"
                )
        vectors = np.stack([group[j] for j in range(len(group))])
        table[(sample_id, side)] = ContextualEmbedding(sample_id, side, vectors)
    return table


def load_embeddings(path) -> FileEmbeddingProvider:
    return FileEmbeddingProvider(parse_embeddings(read_text(path)))


def embeddings_to_text(table: dict[tuple[str, str], ContextualEmbedding], dim: int) -> str:
    """Serialize embeddings; floats use shortest round-trip decimals."""
    out = [f"dim={dim}\n"]
    for (sample_id, side), emb in table.items():
        for j in range(len(emb)):
            values = ",".join(repr(float(v)) for v in emb.vectors[j])
            out.append(f"{sample_id}\t{side}\t{j}\t{values}\n")
    return "".join(out)


def embed_corpus(corpus: Corpus, provider) -> dict[tuple[str, str], ContextualEmbedding]:
    """Embed both sides of every sample; shapes are checked against the corpus."""
    result = {}
    for sample in corpus:
        for side in SIDES:
            emb = provider.embed_side(sample, side)
            seq = sample.source if side == "source" else sample.target
            if len(emb) != len(seq):
                raise DimMismatch(
                    f"sample {sample.id!r} side {side}: {len(emb)} vectors "
                    f"for {len(seq)} characters"
                )
            result[(sample.id, side)] = emb
    return result
