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

import os
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from operator import ne

from .errors import DuplicateId, LengthMismatch, MalformedLine
from .rng import XorShift64Star


@dataclass(frozen=True)
class Sample:
    """One (wrong, correct) sentence pair; its error positions are derived on first read."""

    id: str
    source: str
    target: str

    def __post_init__(self):
        if len(self.source) != len(self.target):
            raise LengthMismatch(
                f"sample {self.id!r}: source has {len(self.source)} characters, "
                f"target has {len(self.target)}"
            )

    @cached_property
    def error_positions(self) -> tuple[int, ...]:
        return derive_error_positions(self.source, self.target)


@dataclass(frozen=True)
class Corpus:
    samples: tuple[Sample, ...]

    def __post_init__(self):
        seen = set()
        for s in self.samples:
            if s.id in seen:
                raise DuplicateId(f"duplicate sample id {s.id!r}")
            seen.add(s.id)

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    def ids(self) -> list[str]:
        return [s.id for s in self.samples]


def derive_error_positions(source: str, target: str) -> tuple[int, ...]:
    """Indices where the two equal-length sequences differ, ascending."""
    if len(source) != len(target):
        raise LengthMismatch(
            f"source has {len(source)} characters, target has {len(target)}"
        )
    if source == target:
        return ()
    return tuple(compress(range(len(source)), map(ne, source, target)))


class ConfusionSet:
    """Map from a character to the characters it is confused with, held as one
    string in code-point order: the corrector's tie-break and the order
    ``inject_errors`` draws from.  A head and each candidate must be one character."""

    def __init__(self, entries: dict[str, str | set[str]] | None = None):
        self._map: dict[str, str] = {}
        for head, cands in (entries or {}).items():
            if len(head) != 1:
                raise ValueError(f"confusion head {head!r} is not one character")
            for c in cands:
                if len(c) != 1:
                    raise ValueError(f"confusion head {head!r}: candidate {c!r} "
                                     "is not one character")
            cleaned = "".join(sorted(set(cands) - {head}))
            if cleaned:
                self._map[head] = cleaned

    def candidates(self, char: str) -> str:
        """Confusable characters for ``char`` in code-point order; "" when unknown."""
        return self._map.get(char, "")

    def heads(self) -> list[str]:
        return sorted(self._map)

    def __len__(self) -> int:
        return len(self._map)

    def __eq__(self, other) -> bool:
        return isinstance(other, ConfusionSet) and self._map == other._map


# --- text files ----------------------------------------------------------------

def read_text(path) -> str:
    """A whole artifact as text, line endings as in the file, so a parser sees a CRLF;
    MalformedLine naming the line of the first byte that is not UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise MalformedLine(f"line {line_no}: not UTF-8 (byte 0x{data[exc.start]:02x})")


def write_text(path, text: str) -> None:
    """Write an artifact as UTF-8 without byte-order mark, with LF line endings,
    creating its directory if it does not exist yet."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def numbered_lines(text: str):
    """(line number, line) for every non-empty line; MalformedLine for a
    leading byte-order mark or a CRLF ending."""
    if text.startswith("\ufeff"):
        raise MalformedLine(
            "line 1: file starts with a UTF-8 byte-order mark; save it as UTF-8 without BOM"
        )
    for line_no, line in enumerate(text.split("\n"), start=1):
        if line.endswith("\r"):
            raise MalformedLine(
                f"line {line_no}: CRLF line ending; the format requires LF line endings"
            )
        if line != "":
            yield line_no, line


# --- parsing and serialization ---------------------------------------------

def parse_corpus(text: str) -> Corpus:
    """Parse a TSV document into a Corpus; line order is preserved.

    Raises MalformedLine for a leading byte-order mark, a CRLF line ending
    a wrong field count or an empty ID, LengthMismatch when the two sides
    differ in length, DuplicateId for repeated IDs.
    """
    samples = []
    seen: set[str] = set()
    for line_no, line in numbered_lines(text):
        fields = line.split("\t")
        if len(fields) != 3:
            raise MalformedLine(
                f"line {line_no}: expected 3 tab-separated fields, got {len(fields)}"
            )
        sample_id, source, target = fields
        if not sample_id:
            raise MalformedLine(f"line {line_no}: empty sample ID")
        if len(source) != len(target):
            raise LengthMismatch(
                f"line {line_no}: source has {len(source)} characters, "
                f"target has {len(target)}"
            )
        if sample_id in seen:
            raise DuplicateId(f"line {line_no}: duplicate sample id {sample_id!r}")
        seen.add(sample_id)
        samples.append(Sample(id=sample_id, source=source, target=target))
    return Corpus(samples=tuple(samples))


def corpus_to_tsv(corpus: Corpus) -> str:
    """Serialize a corpus; ValueError names a sample that parse_corpus would not read back."""
    lines = [f"{s.id}\t{s.source}\t{s.target}\n" for s in corpus.samples]
    for s, line in zip(corpus.samples, lines):
        if (not s.id or line.count("\t") + line.count("\n") > 3 or line.endswith("\r\n")
                or s is corpus.samples[0] and s.id[0] == "\ufeff"):
            raise ValueError(f"sample {s.id!r} cannot be written as one corpus line")
    return "".join(lines)


def load_corpus(path) -> Corpus:
    return parse_corpus(read_text(path))


def save_corpus(corpus: Corpus, path) -> None:
    write_text(path, corpus_to_tsv(corpus))


def parse_confusion_set(text: str) -> ConfusionSet:
    """Parse a ``head<TAB>candidates`` document into a ConfusionSet.

    Self-entries are silently dropped; duplicate heads merge by set union.
    Raises MalformedLine for a byte-order mark, CRLF, or a malformed line.
    """
    entries: dict[str, set[str]] = {}
    for line_no, line in numbered_lines(text):
        fields = line.split("\t")
        if len(fields) != 2 or len(fields[0]) != 1:
            raise MalformedLine(
                f"line {line_no}: expected 'head<TAB>candidates' with a single-character head"
            )
        head, cands = fields
        entries.setdefault(head, set()).update(cands)
    return ConfusionSet(entries)


def load_confusion_set(path) -> ConfusionSet:
    return parse_confusion_set(read_text(path))


def confusion_to_tsv(confusion: ConfusionSet) -> str:
    return "".join(
        f"{head}\t{confusion.candidates(head)}\n"
        for head in confusion.heads()
    )


# --- synthetic error injection ----------------------------------------------

def inject_errors(corpus: Corpus, confusion: ConfusionSet, rate: float, seed: int) -> Corpus:
    """Corrupt an error-free corpus by confusion-set substitution.

    Each character is independently replaced with probability ``rate`` by a
    uniformly chosen member of its confusion set; characters with no
    confusion entry are never touched.  Targets are preserved, so the
    result is a training-ready parallel corpus.  Deterministic in ``seed``.
    A sample with errors raises MalformedLine: the input must be clean.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must be in [0, 1], got {rate}")
    for s in corpus.samples:
        if s.source != s.target:
            raise MalformedLine(
                f"inject_errors expects an error-free corpus; sample {s.id!r} has errors"
            )
    rng = XorShift64Star(seed, stream=0)
    out = []
    for s in corpus.samples:
        chars = list(s.source)
        for j, ch in enumerate(chars):
            if rng.unit() < rate:
                cands = confusion.candidates(ch)
                if cands:
                    chars[j] = cands[rng.below(len(cands))]
        out.append(Sample(id=s.id, source="".join(chars), target=s.target))
    return Corpus(samples=tuple(out))
