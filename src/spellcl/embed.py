"""Per-position contextual representations for character sequences.

A provider answers ``embed_side(sample, side, positions)`` with a
``ContextualEmbedding``: the (rows, dim) float64 vectors of one side of a
sample at the given positions only, one row per position in the order
given.  The contextual score reads vectors at error positions alone, so
that is all it asks for.  Two providers are available:

* ``HashedEmbedder`` - a deterministic, training-free stand-in for a
  neural encoder.  Each position's vector is built by feature-hashing the
  characters in a +-w window (offset-tagged, so left and right neighbors
  differ), giving bit-exact reproducibility across runs and platforms.
  A vector is computed only when it is asked for.
* ``FileEmbeddingProvider`` - vectors precomputed by an external encoder
  and loaded from a text file (header ``dim=<d>``, then one position per
  line: ``sample_id<TAB>side<TAB>position<TAB>v1,v2,...,vd``).  Its table
  maps (sample_id, side) to a (chars, dim) array: one row per character,
  positions from 0, each row's squared norm finite in float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import hash_embed
from .corpus import Sample, numbered_lines, read_text
from .errors import MalformedLine, ShapeMismatch

SIDES = ("source", "target")


def _side_text(sample: Sample, side: str) -> str:
    """The characters of ``sample``'s ``side``; an unknown side raises ValueError."""
    if side == "source":
        return sample.source
    if side == "target":
        return sample.target
    raise ValueError(f"unknown side {side!r}, expected one of {SIDES}")


@dataclass(frozen=True)
class ContextualEmbedding:
    """A provider's ``embed_side`` answer: one row per requested position."""

    vectors: np.ndarray  # shape (rows, dim), float64


class HashedEmbedder:
    """Deterministic built-in embedding provider: feature-hashed context
    vectors, computed only at the requested positions.

    Position j sums one signed unit per in-bounds offset o in [-w, w]:
    the feature (character at j+o, o) is hashed with 64-bit FNV-1a over
    the character's UTF-8 bytes (a lone surrogate as its three
    ``surrogatepass`` bytes) followed by the offset as one signed
    (two's-complement) byte; bit 63 picks the sign, hash mod dim the index.
    """

    def __init__(self, window: int = 2, dim: int = 64):
        if window < 0 or window > 127:
            raise ValueError(f"window must be in [0, 127], got {window}")
        if dim < 2:
            raise ValueError(f"dim must be >= 2, got {dim}")
        self.window = window
        self.dim = dim

    def embed_side(self, sample: Sample, side: str, positions) -> ContextualEmbedding:
        vectors = hash_embed(_side_text(sample, side), self.window, self.dim, positions)
        return ContextualEmbedding(vectors)


class FileEmbeddingProvider:
    """Provider backed by externally computed vectors."""

    def __init__(self, table: dict[tuple[str, str], np.ndarray]):
        self._table = table

    def embed_side(self, sample: Sample, side: str, positions) -> ContextualEmbedding:
        n_chars = len(_side_text(sample, side))
        try:
            vectors = self._table[(sample.id, side)]
        except KeyError:
            raise ShapeMismatch(f"no embedding for sample {sample.id!r} side {side!r}")
        if len(vectors) != n_chars:
            raise ShapeMismatch(
                f"sample {sample.id!r} side {side}: {len(vectors)} vectors "
                f"for {n_chars} characters"
            )
        return ContextualEmbedding(vectors[np.asarray(positions, dtype=np.intp)])


def parse_embeddings(text: str) -> dict[tuple[str, str], np.ndarray]:
    """Parse an embedding document into a (sample_id, side) -> (chars, dim) map."""
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
        if pos < 0:
            raise MalformedLine(f"line {line_no}: position must be >= 0, got {pos}")
        if not np.isfinite(vec).all():
            raise MalformedLine(f"line {line_no}: vector component is not finite")
        if vec.shape[0] != dim:
            raise MalformedLine(
                f"line {line_no}: vector has {vec.shape[0]} components, header says {dim}"
            )
        with np.errstate(over="ignore"):  # the sum of squares the cosine takes
            if not np.isfinite(np.add.reduce(vec * vec)):
                raise MalformedLine(f"line {line_no}: vector norm overflows float64")
        group = rows.setdefault((sample_id, side), {})
        if pos in group:
            raise MalformedLine(f"line {line_no}: duplicate position {pos}")
        group[pos] = vec

    table = {}
    for (sample_id, side), group in rows.items():
        for j in range(len(group)):
            if j not in group:
                raise MalformedLine(
                    f"sample {sample_id!r} side {side!r}: position {j} missing"
                )
        table[(sample_id, side)] = np.stack([group[j] for j in range(len(group))])
    return table


def load_embeddings(path) -> FileEmbeddingProvider:
    return FileEmbeddingProvider(parse_embeddings(read_text(path)))

