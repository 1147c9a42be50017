"""Input generator for the benchmark workloads.

Standalone on purpose: it imports nothing from ``spellcl``, so a change to
the program cannot change the inputs it is measured on.  Markov corpora
and confusion sets follow the recipe of the acceptance suite's desk
fixture (numpy ``default_rng`` draws in the same order), and error
injection reimplements the program's pinned xorshift64* substitution.
With seed 0 the desk inputs are byte-identical to the fixture of
``test_end_to_end_desk_experiment``.

The confusion set (seed 11) and the bigram structure (seed 1234) are
part of a shape and stay fixed, so every workload seed gives a corpus of
the same language and the same work per character.  A workload seed
``s`` draws the sentences and their errors: train walk 21+s, test walk
22+s, train injection 31+s, test injection 32+s.
"""

from __future__ import annotations

import os

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    z = (x + GAMMA) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


class XorShift64Star:
    """xorshift64* seeded by two splitmix64 rounds over (seed, stream)."""

    def __init__(self, seed: int, stream: int = 0):
        state = _splitmix64(_splitmix64(seed & MASK64) ^ (stream & MASK64))
        self.state = state if state != 0 else GAMMA

    def next_u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x = (x ^ (x << 25)) & MASK64
        x ^= x >> 27
        self.state = x
        return (x * 0x2545F4914F6CDD1D) & MASK64

    def unit(self) -> float:
        return (self.next_u64() >> 11) * 2.0 ** -53


def vocab(n: int) -> list[str]:
    return [chr(0x4E00 + i) for i in range(n)]


def symmetric_confusion(chars: list[str], n_pairs: int, seed: int) -> dict[str, list[str]]:
    """n_pairs distinct unordered pairs, each linked both ways; sorted candidates."""
    rng = np.random.default_rng(seed)
    pairs = set()
    while len(pairs) < n_pairs:
        a, b = rng.integers(0, len(chars), size=2)
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    entries: dict[str, set[str]] = {}
    for a, b in sorted(pairs):
        entries.setdefault(chars[a], set()).add(chars[b])
        entries.setdefault(chars[b], set()).add(chars[a])
    return {head: sorted(cands) for head, cands in entries.items()}


def markov_sentences(chars: list[str], n: int, seed: int, structure_seed: int,
                     min_len: int, max_len: int, branching: int = 3) -> list[str]:
    """Random bigram walks; each character has ``branching`` fixed successors."""
    struct_rng = np.random.default_rng(structure_seed)
    successors = [struct_rng.choice(len(chars), size=branching, replace=False)
                  for _ in range(len(chars))]
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        length = int(rng.integers(min_len, max_len + 1))
        state = int(rng.integers(0, len(chars)))
        walk = [chars[state]]
        for _ in range(length - 1):
            state = int(successors[state][rng.integers(0, branching)])
            walk.append(chars[state])
        out.append("".join(walk))
    return out


def inject(sentences: list[str], confusion: dict[str, list[str]], rate: float,
           seed: int) -> list[str]:
    """Per-character substitution by a confusable, as ``spellcl inject`` does."""
    rng = XorShift64Star(seed)
    out = []
    for text in sentences:
        chars = list(text)
        for j, ch in enumerate(chars):
            if rng.unit() < rate:
                cands = confusion.get(ch)
                if cands:
                    chars[j] = cands[rng.next_u64() % len(cands)]
        out.append("".join(chars))
    return out


def corpus_tsv(prefix: str, sources: list[str], targets: list[str]) -> str:
    return "".join(f"{prefix}{i:05d}\t{s}\t{t}\n"
                   for i, (s, t) in enumerate(zip(sources, targets)))


def confusion_tsv(confusion: dict[str, list[str]]) -> str:
    return "".join(f"{head}\t{''.join(confusion[head])}\n" for head in sorted(confusion))


# Corpus shapes.  ``desk`` is the acceptance fixture; ``dense`` has about
# the same character count but a large vocabulary, eight confusables per
# character and three times the error rate.
SHAPES = {
    "desk": dict(vocab=50, pairs=100, train=2000, test=500, min_len=8, max_len=20,
                 rate=0.1),
    "dense": dict(vocab=400, pairs=1600, train=700, test=175, min_len=20, max_len=60,
                  rate=0.3),
}


def write_inputs(outdir: str, shape: str, seed: int, scale: float = 1.0,
                 inject_train: bool = True) -> dict[str, str]:
    """Write train.tsv, test.tsv and conf.tsv; return their paths.

    ``scale`` multiplies the sentence counts.  With ``inject_train`` false
    the train corpus is left clean, for workloads that run the program's
    own injection.
    """
    spec = SHAPES[shape]
    chars = vocab(spec["vocab"])
    confusion = symmetric_confusion(chars, spec["pairs"], 11)
    lengths = (spec["min_len"], spec["max_len"])
    n_train = max(1, round(spec["train"] * scale))
    n_test = max(1, round(spec["test"] * scale))
    train = markov_sentences(chars, n_train, 21 + seed, 1234, *lengths)
    test = markov_sentences(chars, n_test, 22 + seed, 1234, *lengths)
    train_src = inject(train, confusion, spec["rate"], 31 + seed) if inject_train else train
    test_src = inject(test, confusion, spec["rate"], 32 + seed)

    os.makedirs(outdir, exist_ok=True)
    paths = {name: os.path.join(outdir, f"{name}.tsv") for name in ("train", "test", "conf")}
    texts = {
        "train": corpus_tsv("s", train_src, train),
        "test": corpus_tsv("t", test_src, test),
        "conf": confusion_tsv(confusion),
    }
    for name, text in texts.items():
        with open(paths[name], "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return paths
