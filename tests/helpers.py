"""Shared fixture builders for the test suite."""

from __future__ import annotations

import numpy as np

from spellcl.corpus import ConfusionSet, Corpus, Sample
from spellcl.embed import SIDES, ContextualEmbedding
from spellcl.model import BOS, EOS, CorrectorModel, _feature_key, feature_names


# The corrector's spec, per position: the encoding (model.encode_corpus) must
# give every position these candidates and every candidate these features.

def candidate_set(source: str, j: int, confusion: ConfusionSet) -> list[str]:
    """Observed character first, then its confusables in code-point order."""
    return [source[j]] + sorted(confusion.candidates(source[j]))


def featurize(sequence: str, j: int, candidate: str) -> list[str]:
    """Feature names for choosing ``candidate`` at position j of ``sequence``."""
    n = len(sequence)
    left = sequence[j - 1] if j >= 1 else BOS
    ll = sequence[j - 2] if j >= 2 else BOS
    right = sequence[j + 1] if j + 1 < n else EOS
    rr = sequence[j + 2] if j + 2 < n else EOS
    keys = [
        f"C|{candidate}",
        f"L|{left}|{candidate}",
        f"R|{right}|{candidate}",
        f"LL|{ll}|{candidate}",
        f"RR|{rr}|{candidate}",
    ]
    if candidate == sequence[j]:
        keys.append("KEEP")
    return keys


def model_from_weights(weights: dict[str, float], confusion: ConfusionSet,
                       updates_seen: int = 0) -> CorrectorModel:
    """A model holding a name -> averaged weight dict."""
    names = sorted(weights, key=_feature_key)
    return CorrectorModel(keys=np.array([_feature_key(n) for n in names], dtype=np.int64),
                          weights=np.array([weights[n] for n in names], dtype=np.float64),
                          updates_seen=updates_seen, confusion=confusion)


def weights_by_name(model: CorrectorModel) -> dict[str, float]:
    """The model's averaged weights by feature name."""
    return dict(zip(feature_names(model.keys), model.weights.tolist()))


def make_vocab(n: int = 50) -> list[str]:
    """n distinct CJK characters."""
    return [chr(0x4E00 + i) for i in range(n)]


def make_symmetric_confusion(vocab: list[str], n_pairs: int, seed: int) -> ConfusionSet:
    """n_pairs unordered confusable pairs => 2*n_pairs directed entries."""
    rng = np.random.default_rng(seed)
    entries: dict[str, set[str]] = {}
    pairs = set()
    while len(pairs) < n_pairs:
        a, b = rng.integers(0, len(vocab), size=2)
        if a == b:
            continue
        pairs.add((min(a, b), max(a, b)))
    for a, b in sorted(pairs):
        entries.setdefault(vocab[a], set()).add(vocab[b])
        entries.setdefault(vocab[b], set()).add(vocab[a])
    return ConfusionSet(entries)


def confusion_entry_count(confusion: ConfusionSet) -> int:
    return sum(len(confusion.candidates(h)) for h in confusion.heads())


def make_clean_corpus(vocab: list[str], n_sentences: int, seed: int,
                      min_len: int = 8, max_len: int = 20,
                      prefix: str = "s") -> Corpus:
    """Random error-free sentences over the vocabulary."""
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n_sentences):
        length = int(rng.integers(min_len, max_len + 1))
        chars = [vocab[int(c)] for c in rng.integers(0, len(vocab), size=length)]
        text = "".join(chars)
        samples.append(Sample(id=f"{prefix}{i:05d}", source=text, target=text))
    return Corpus(samples=tuple(samples), name=f"synthetic-{seed}")


def make_markov_corpus(vocab: list[str], n_sentences: int, seed: int,
                       structure_seed: int = 1234, min_len: int = 8,
                       max_len: int = 20, branching: int = 3,
                       prefix: str = "s") -> Corpus:
    """Error-free sentences from a random bigram walk.

    Each character gets a fixed set of ``branching`` allowed successors
    (drawn from ``structure_seed``, shared between train and test so both
    speak the same language), so neighbors predict each other the way real
    text does and context features carry signal; uniformly random
    character soup would make keeping every character statistically
    optimal.  ``seed`` drives the walks themselves.
    """
    struct_rng = np.random.default_rng(structure_seed)
    successors = {
        c: struct_rng.choice(len(vocab), size=branching, replace=False)
        for c in range(len(vocab))
    }
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n_sentences):
        length = int(rng.integers(min_len, max_len + 1))
        state = int(rng.integers(0, len(vocab)))
        chars = [vocab[state]]
        for _ in range(length - 1):
            state = int(successors[state][rng.integers(0, branching)])
            chars.append(vocab[state])
        text = "".join(chars)
        samples.append(Sample(id=f"{prefix}{i:05d}", source=text, target=text))
    return Corpus(samples=tuple(samples), name=f"markov-{seed}")


def overfit_fixture() -> tuple[Corpus, ConfusionSet]:
    """Five one-error sentences a two-epoch run corrects perfectly.

    Each wrong/correct pair is confusion-linked both ways and the correct
    characters never occur in any source, so every position outside an
    error has a singleton candidate set (no false alarms possible) and
    every error position has exactly the gold character as its alternative.
    """
    rows = [
        ("o1", "abcde", "Abcde"),
        ("o2", "fghij", "fGhij"),
        ("o3", "klmno", "klMno"),
        ("o4", "pqrst", "pqrSt"),
        ("o5", "uvwxy", "uvwxY"),
    ]
    confusion = ConfusionSet({
        "a": {"A"}, "A": {"a"},
        "g": {"G"}, "G": {"g"},
        "m": {"M"}, "M": {"m"},
        "s": {"S"}, "S": {"s"},
        "y": {"Y"}, "Y": {"y"},
    })
    corpus = Corpus(
        samples=tuple(Sample(id=i, source=s, target=t) for i, s, t in rows),
        name="overfit",
    )
    return corpus, confusion


def embed_corpus(corpus: Corpus, provider) -> dict[tuple[str, str], ContextualEmbedding]:
    """Every position of both sides of every sample, as an embedding file holds them."""
    return {
        (sample.id, side): provider.embed_side(sample, side, range(len(sample.source)))
        for sample in corpus
        for side in SIDES
    }
