"""Parallel spell-checking corpora: parsing, validation, synthesis.

A corpus is a list of (wrong, correct) sentence pairs of equal character
length; the error positions of a sample are exactly the indices where the
two sides disagree.  The on-disk format is one sample per line:
``id<TAB>source<TAB>target``, UTF-8, LF line endings, no header.

Confusion sets map a character to the characters it is plausibly confused
with, one head per line: ``head<TAB>candidates`` with the candidates
concatenated.  Self-entries are dropped and repeated heads are merged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DuplicateId, LengthMismatch, MalformedLine
from .rng import XorShift64Star


@dataclass(frozen=True)
class Sample:
    """One (wrong, correct) sentence pair with derived error positions."""

    id: str
    source: str
    target: str
    error_positions: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        if len(self.source) != len(self.target):
            raise LengthMismatch(
                f"sample {self.id!r}: source has {len(self.source)} characters, "
                f"target has {len(self.target)}"
            )
        object.__setattr__(
            self, "error_positions", derive_error_positions(self.source, self.target)
        )


@dataclass(frozen=True)
class Corpus:
    samples: tuple[Sample, ...]
    name: str = ""

    def __post_init__(self):
        seen = set()
        for s in self.samples:
            if s.id in seen:
                raise DuplicateId(f"duplicate sample id {s.id!r} in corpus {self.name!r}")
            seen.add(s.id)

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    def ids(self) -> list[str]:
        return [s.id for s in self.samples]

    def by_id(self) -> dict[str, Sample]:
        return {s.id: s for s in self.samples}


def derive_error_positions(source: str, target: str) -> tuple[int, ...]:
    """Indices where the two equal-length sequences differ, ascending."""
    if len(source) != len(target):
        raise LengthMismatch(
            f"source has {len(source)} characters, target has {len(target)}"
        )
    return tuple(j for j, (a, b) in enumerate(zip(source, target)) if a != b)


class ConfusionSet:
    """Map from a character to the set of characters it is confused with."""

    def __init__(self, entries: dict[str, set[str]] | None = None):
        self._map: dict[str, frozenset[str]] = {}
        if entries:
            for head, cands in entries.items():
                cleaned = frozenset(c for c in cands if c != head)
                if cleaned:
                    self._map[head] = cleaned

    def candidates(self, char: str) -> frozenset[str]:
        """Confusable characters for ``char``; empty set when unknown."""
        return self._map.get(char, frozenset())

    def heads(self) -> list[str]:
        return sorted(self._map)

    def __len__(self) -> int:
        return len(self._map)

    def __eq__(self, other) -> bool:
        return isinstance(other, ConfusionSet) and self._map == other._map


# --- parsing and serialization ---------------------------------------------

def parse_corpus(text: str, name: str = "") -> Corpus:
    """Parse a TSV document into a Corpus; line order is preserved.

    Raises MalformedLine for a leading byte-order mark, a CRLF line ending
    or a wrong field count, LengthMismatch when the two sides differ in
    length, DuplicateId for repeated IDs.
    """
    if text.startswith("\ufeff"):
        raise MalformedLine(
            "line 1: file starts with a UTF-8 byte-order mark; save it as UTF-8 without BOM"
        )
    samples = []
    seen: set[str] = set()
    for line_no, line in enumerate(text.split("\n"), start=1):
        if line.endswith("\r"):
            raise MalformedLine(
                f"line {line_no}: CRLF line ending; the format requires LF line endings"
            )
        if line == "":
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise MalformedLine(
                f"line {line_no}: expected 3 tab-separated fields, got {len(fields)}"
            )
        sample_id, source, target = fields
        if len(source) != len(target):
            raise LengthMismatch(
                f"line {line_no}: source has {len(source)} characters, "
                f"target has {len(target)}"
            )
        if sample_id in seen:
            raise DuplicateId(f"line {line_no}: duplicate sample id {sample_id!r}")
        seen.add(sample_id)
        samples.append(Sample(id=sample_id, source=source, target=target))
    return Corpus(samples=tuple(samples), name=name)


def corpus_to_tsv(corpus: Corpus) -> str:
    """Serialize a corpus; parse_corpus(corpus_to_tsv(c)) round-trips."""
    return "".join(f"{s.id}\t{s.source}\t{s.target}\n" for s in corpus.samples)


def load_corpus(path, name: str | None = None) -> Corpus:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return parse_corpus(text, name=name if name is not None else str(path))


def save_corpus(corpus: Corpus, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(corpus_to_tsv(corpus))


def parse_confusion_set(text: str) -> ConfusionSet:
    """Parse a ``head<TAB>candidates`` document into a ConfusionSet.

    Self-entries are silently dropped; duplicate heads merge by set union.
    """
    entries: dict[str, set[str]] = {}
    for line_no, line in enumerate(text.split("\n"), start=1):
        if line == "":
            continue
        fields = line.split("\t")
        if len(fields) != 2 or len(fields[0]) != 1:
            raise MalformedLine(
                f"line {line_no}: expected 'head<TAB>candidates' with a single-character head"
            )
        head, cands = fields
        entries.setdefault(head, set()).update(cands)
    return ConfusionSet(entries)


def load_confusion_set(path) -> ConfusionSet:
    with open(path, encoding="utf-8") as fh:
        return parse_confusion_set(fh.read())


def confusion_to_tsv(confusion: ConfusionSet) -> str:
    return "".join(
        f"{head}\t{''.join(sorted(confusion.candidates(head)))}\n"
        for head in confusion.heads()
    )


# --- synthetic error injection ----------------------------------------------

def inject_errors(corpus: Corpus, confusion: ConfusionSet, rate: float, seed: int) -> Corpus:
    """Corrupt an error-free corpus by confusion-set substitution.

    Each character is independently replaced with probability ``rate`` by a
    uniformly chosen member of its confusion set; characters with no
    confusion entry are never touched.  Targets are preserved, so the
    result is a training-ready parallel corpus.  Deterministic in ``seed``.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must be in [0, 1], got {rate}")
    for s in corpus.samples:
        if s.source != s.target:
            raise ValueError(
                f"inject_errors expects an error-free corpus; sample {s.id!r} has errors"
            )
    rng = XorShift64Star(seed, stream=0)
    out = []
    for s in corpus.samples:
        chars = list(s.source)
        for j, ch in enumerate(chars):
            if rng.unit() < rate:
                cands = sorted(confusion.candidates(ch))
                if cands:
                    chars[j] = cands[rng.below(len(cands))]
        out.append(Sample(id=s.id, source="".join(chars), target=s.target))
    return Corpus(samples=tuple(out), name=corpus.name)
