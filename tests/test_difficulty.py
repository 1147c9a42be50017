"""Difficulty scoring: cosine, contextual sum, character-similarity ablation."""

import math

import numpy as np
import pytest

from spellcl.corpus import ConfusionSet, Sample, parse_corpus
from spellcl.difficulty import (
    cosine,
    load_records,
    parse_records,
    records_to_tsv,
    save_records,
    score_char_similarity,
    score_contextual,
    score_corpus,
)
from spellcl.embed import ContextualEmbedding, HashedEmbedder
from spellcl.errors import MalformedLine, ShapeMismatch, ZeroNormVector


def oracle_score(sample: Sample, src_vecs, tgt_vecs) -> float:
    """Brute-force per-position cosine sum, independent of the library path."""
    total = 0.0
    for j in sample.error_positions:
        u, v = src_vecs[j], tgt_vecs[j]
        dot = sum(float(a) * float(b) for a, b in zip(u, v))
        nu = math.sqrt(sum(float(a) * float(a) for a in u))
        nv = math.sqrt(sum(float(b) * float(b) for b in v))
        if nu == 0.0 or nv == 0.0:
            continue
        total += max(-1.0, min(1.0, dot / (nu * nv)))
    return total


def stub(sample_id, side, vectors) -> ContextualEmbedding:
    return ContextualEmbedding(sample_id, side, np.asarray(vectors, dtype=np.float64))


# ===========================================================================
# cosine
# ===========================================================================

class TestCosine:

    def test_identical_direction(self):
        assert cosine([1.0, 0.0], [1.0, 0.0]) == 1.0

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_formula_value(self):
        # direct evaluation: (1*1 + 1*0) / (sqrt(2) * 1) = 1/sqrt(2)
        assert cosine([1.0, 1.0], [1.0, 0.0]) == pytest.approx(math.sqrt(0.5), abs=1e-9)
        assert cosine([1.0, 1.0], [1.0, 0.0]) == pytest.approx(0.70710678, abs=5e-9)

    def test_zero_norm_raises(self):
        with pytest.raises(ZeroNormVector):
            cosine([0.0, 0.0], [1.0, 0.0])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            cosine([1.0], [1.0, 2.0])

    def test_clamped(self):
        v = np.full(64, 0.1)
        assert -1.0 <= cosine(v, v) <= 1.0
        assert cosine(v, -v) == -1.0


# ===========================================================================
# score_contextual
# ===========================================================================

class TestScoreContextual:

    def test_no_errors_scores_zero(self):
        s = Sample(id="a", source="AB", target="AB")
        emb = stub("a", "source", [[1.0, 0.0], [0.0, 1.0]])
        rec = score_contextual(s, emb, stub("a", "target", emb.vectors))
        assert rec.score == 0.0
        assert rec.policy == "contextual"

    def test_known_cosine_sum(self):
        # errors at 2 and 5 with per-position cosines 0.5 and 0.3
        s = Sample(id="a", source="ABCDEF", target="ABXDEY")
        src = np.tile([1.0, 0.0], (6, 1))
        tgt = np.tile([1.0, 0.0], (6, 1))
        tgt[2] = [0.5, math.sqrt(1 - 0.25)]
        tgt[5] = [0.3, math.sqrt(1 - 0.09)]
        rec = score_contextual(s, stub("a", "source", src), stub("a", "target", tgt))
        expected = oracle_score(s, src, tgt)
        assert rec.score == pytest.approx(expected, abs=1e-12)
        assert rec.score == pytest.approx(0.8, abs=1e-9)

    def test_zero_norm_position_contributes_zero(self, caplog):
        s = Sample(id="a", source="AB", target="AC")
        src = [[0.0, 0.0], [0.0, 0.0]]
        tgt = [[1.0, 0.0], [1.0, 0.0]]
        with caplog.at_level("WARNING"):
            rec = score_contextual(s, stub("a", "source", src), stub("a", "target", tgt))
        assert rec.score == 0.0
        assert any("zero-norm" in r.message for r in caplog.records)

    def test_shape_mismatch(self):
        s = Sample(id="a", source="AB", target="AC")
        with pytest.raises(ShapeMismatch):
            score_contextual(s, stub("a", "source", [[1.0, 0.0]]),
                             stub("a", "target", [[1.0, 0.0], [0.0, 1.0]]))

    def test_bound_and_additivity_random(self):
        rng = np.random.default_rng(0)
        alphabet = "abcdefghijkl"
        for _ in range(50):
            n = int(rng.integers(1, 12))
            dim = int(rng.integers(2, 16))
            src_text = "".join(rng.choice(list(alphabet), size=n))
            n_err = int(rng.integers(0, min(n, 5) + 1))
            err = sorted(rng.choice(n, size=n_err, replace=False))
            tgt_text = "".join(
                "Z" if j in err else c for j, c in enumerate(src_text)
            )
            s = Sample(id="r", source=src_text, target=tgt_text)
            src = rng.normal(size=(n, dim))
            tgt = rng.normal(size=(n, dim))
            rec = score_contextual(s, stub("r", "source", src), stub("r", "target", tgt))
            assert abs(rec.score) <= len(s.error_positions) + 1e-12
            assert rec.score == pytest.approx(oracle_score(s, src, tgt), abs=1e-9)


# ===========================================================================
# score_char_similarity
# ===========================================================================

class TestScoreCharSimilarity:

    CONFUSION = ConfusionSet({"带": {"戴"}, "X": {"Y"}})

    def test_no_errors(self):
        s = Sample(id="a", source="AB", target="AB")
        assert score_char_similarity(s, self.CONFUSION).score == 0.0

    def test_single_pair_in_set(self):
        s = Sample(id="a", source="他带着", target="他戴着")
        assert score_char_similarity(s, self.CONFUSION).score == 1.0

    def test_indicator_sum(self):
        # three errors: two pairs confusion-linked, one not
        s = Sample(id="a", source="带XQ", target="戴YR")
        rec = score_char_similarity(s, self.CONFUSION)
        assert rec.score == 2.0
        assert rec.policy == "char_similarity"

    def test_symmetric_lookup(self):
        # linked only via the reverse direction
        s = Sample(id="a", source="戴", target="带")
        assert score_char_similarity(s, self.CONFUSION).score == 1.0


# ===========================================================================
# score_corpus
# ===========================================================================

class TestScoreCorpus:

    def test_empty_corpus(self):
        assert score_corpus(parse_corpus(""), "contextual", provider=HashedEmbedder()) == []

    def test_order_preserved_and_purity(self):
        corpus = parse_corpus("b\t他带着\t他戴着\na\t他带着\t他戴着\n")
        records = score_corpus(corpus, "contextual", provider=HashedEmbedder())
        assert [r.sample_id for r in records] == ["b", "a"]
        assert records[0].score == records[1].score

    def test_more_errors_scores_higher(self):
        # same context everywhere, positive equal cosines => score grows with |W|
        class ConstantProvider:
            dim = 2

            def embed_side(self, sample, side):
                vecs = np.tile([1.0, 0.0], (len(sample.source), 1))
                return ContextualEmbedding(sample.id, side, vecs)

        corpus = parse_corpus("two\tABCD\tXYCD\none\tABCD\tXBCD\n")
        records = score_corpus(corpus, "contextual", provider=ConstantProvider())
        assert records[0].score > records[1].score

    def test_missing_provider(self):
        with pytest.raises(ValueError):
            score_corpus(parse_corpus(""), "contextual")


# ===========================================================================
# difficulty file
# ===========================================================================

class TestDifficultyFile:

    def test_format_and_roundtrip(self, tmp_path):
        corpus = parse_corpus("s1\t他带着\t他戴着\ns2\tAB\tAB\n")
        records = score_corpus(corpus, "contextual", provider=HashedEmbedder())
        text = records_to_tsv(records)
        line = text.split("\n")[0].split("\t")
        assert line[0] == "s1"
        assert len(line[1].split(".")[1]) == 9  # nine decimal places
        path = tmp_path / "d.tsv"
        save_records(records, path)
        again = load_records(path)
        assert [r.sample_id for r in again] == ["s1", "s2"]
        assert again[1].score == 0.0

    def test_malformed(self):
        with pytest.raises(MalformedLine):
            parse_records("s1\t0.5\n")
        with pytest.raises(MalformedLine):
            parse_records("s1\tnot-a-number\tcontextual\n")
        with pytest.raises(MalformedLine):
            parse_records("s1\t0.5\tbogus_policy\n")
