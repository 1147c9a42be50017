"""Difficulty scoring: contextual cosine sum, character-similarity ablation."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spellcl.corpus import ConfusionSet, Corpus, Sample, parse_corpus
from spellcl.curriculum import arrange_sorted_only
from spellcl import difficulty
from spellcl.difficulty import (
    POLICIES,
    _row_cosines,
    load_records,
    parse_records,
    records_to_tsv,
    save_records,
    score_corpus,
)
from spellcl.embed import (
    ContextualEmbedding,
    FileEmbeddingProvider,
    HashedEmbedder,
    parse_embeddings,
)
from spellcl.errors import MalformedLine, ShapeMismatch


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


def score_one(sample: Sample, src_vecs, tgt_vecs) -> float:
    """``score_corpus`` of the one-sample corpus ``(sample,)`` over full-length
    source and target vectors, read through the file provider."""
    table = {(sample.id, "source"): np.asarray(src_vecs, dtype=np.float64),
             (sample.id, "target"): np.asarray(tgt_vecs, dtype=np.float64)}
    return score_corpus(Corpus((sample,)), "contextual", FileEmbeddingProvider(table))[sample.id]


# ===========================================================================
# the cosine behind each contextual score
# ===========================================================================

def one_error_score(u, v) -> float:
    """The score of a one-character sample whose only position is an error,
    with source row ``u`` and target row ``v``: their cosine."""
    return score_one(Sample(id="c", source="A", target="B"), [u], [v])


class TestCosine:

    def test_identical_direction(self):
        assert one_error_score([1.0, 0.0], [1.0, 0.0]) == 1.0

    def test_orthogonal(self):
        assert one_error_score([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_formula_value(self):
        # direct evaluation: (1*1 + 1*0) / (sqrt(2) * 1) = 1/sqrt(2)
        assert one_error_score([1.0, 1.0], [1.0, 0.0]) == pytest.approx(math.sqrt(0.5), abs=1e-9)
        assert one_error_score([1.0, 1.0], [1.0, 0.0]) == pytest.approx(0.70710678, abs=5e-9)

    def test_clamped(self):
        # exactly the bounds of the [-1, 1] clamp, not merely within them
        v = np.full(64, 0.1)
        assert one_error_score(v, v) == 1.0
        assert one_error_score(v, -v) == -1.0

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_row_blocks_give_the_bits_of_one_call(self, data):
        # score_corpus takes the cosines in fixed blocks of rows; each row's
        # sums must not depend on the rows around it.  Arbitrary finite
        # components (squares and their sums stay finite), with all-zero rows
        # on either side, so the zero mask shows too.
        n, dim = data.draw(st.integers(0, 40)), data.draw(st.integers(1, 70))
        component = st.floats(-1e150, 1e150, allow_nan=False)
        u, v = (np.array(data.draw(st.lists(component, min_size=n * dim, max_size=n * dim)),
                         dtype=np.float64).reshape(n, dim) for _ in range(2))
        for rows in (u, v):
            rows[data.draw(st.lists(st.booleans(), min_size=n, max_size=n))] = 0.0
        block = data.draw(st.integers(1, n + 1))
        cos, zero = _row_cosines(u, v)
        parts = [_row_cosines(u[lo:lo + block], v[lo:lo + block]) for lo in range(0, n, block)]
        blocks = [c for part, _ in parts for c in part.tolist()]
        assert [c.hex() for c in blocks] == [c.hex() for c in cos.tolist()]
        assert [z for _, part in parts for z in part.tolist()] == zero.tolist()


# ===========================================================================
# one sample's contextual score
# ===========================================================================

class TestScoreContextual:

    def test_no_errors_scores_zero(self):
        s = Sample(id="a", source="AB", target="AB")
        vecs = [[1.0, 0.0], [0.0, 1.0]]
        assert score_one(s, vecs, vecs) == 0.0

    def test_known_cosine_sum(self):
        # errors at 2 and 5 with per-position cosines 0.5 and 0.3
        s = Sample(id="a", source="ABCDEF", target="ABXDEY")
        src = np.tile([1.0, 0.0], (6, 1))
        tgt = np.tile([1.0, 0.0], (6, 1))
        tgt[2] = [0.5, math.sqrt(1 - 0.25)]
        tgt[5] = [0.3, math.sqrt(1 - 0.09)]
        score = score_one(s, src, tgt)
        assert score == pytest.approx(oracle_score(s, src, tgt), abs=1e-12)
        assert score == pytest.approx(0.8, abs=1e-9)

    def test_zero_norm_position_contributes_zero(self, caplog):
        s = Sample(id="a", source="AB", target="AC")
        src = [[0.0, 0.0], [0.0, 0.0]]
        tgt = [[1.0, 0.0], [1.0, 0.0]]
        with caplog.at_level("WARNING"):
            score = score_one(s, src, tgt)
        assert score == 0.0
        assert any("zero-norm" in r.message for r in caplog.records)

    def test_shape_mismatch(self):
        s = Sample(id="a", source="AB", target="AC")
        with pytest.raises(ShapeMismatch):
            score_one(s, [[1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]])

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
            score = score_one(s, src, tgt)
            assert abs(score) <= len(s.error_positions) + 1e-12
            assert score == pytest.approx(oracle_score(s, src, tgt), abs=1e-9)


# ===========================================================================
# char_similarity policy
# ===========================================================================

class TestScoreCharSimilarity:

    CONFUSION = ConfusionSet({"带": {"戴"}, "X": {"Y"}})

    def char_score(self, sample: Sample) -> float:
        return score_corpus(Corpus((sample,)), "char_similarity",
                            confusion=self.CONFUSION)[sample.id]

    def test_no_errors(self):
        s = Sample(id="a", source="AB", target="AB")
        assert self.char_score(s) == 0.0

    def test_single_pair_in_set(self):
        s = Sample(id="a", source="他带着", target="他戴着")
        assert self.char_score(s) == 1.0

    def test_indicator_sum(self):
        # three errors: two pairs confusion-linked, one not
        s = Sample(id="a", source="带XQ", target="戴YR")
        assert self.char_score(s) == 2.0

    def test_symmetric_lookup(self):
        # linked only via the reverse direction
        s = Sample(id="a", source="戴", target="带")
        assert self.char_score(s) == 1.0


# ===========================================================================
# score_corpus
# ===========================================================================

class TestScoreCorpus:

    def test_empty_corpus(self):
        assert score_corpus(parse_corpus(""), "contextual", provider=HashedEmbedder()) == {}

    def test_order_preserved_and_purity(self):
        corpus = parse_corpus("b\t他带着\t他戴着\na\t他带着\t他戴着\n")
        scores = score_corpus(corpus, "contextual", provider=HashedEmbedder())
        assert list(scores) == ["b", "a"]
        assert scores["b"] == scores["a"]

    def test_more_errors_scores_higher(self):
        # same context everywhere, positive equal cosines => score grows with |W|
        class ConstantProvider:
            dim = 2

            def embed_side(self, sample, side, positions):
                vecs = np.tile([1.0, 0.0], (len(positions), 1))
                return ContextualEmbedding(vecs)

        corpus = parse_corpus("two\tABCD\tXYCD\none\tABCD\tXBCD\n")
        scores = score_corpus(corpus, "contextual", provider=ConstantProvider())
        assert scores["two"] > scores["one"]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(st.text(alphabet="abc他\ud800", max_size=12),
                           st.lists(st.booleans(), max_size=12)), max_size=6),
        st.integers(0, 3),
        st.integers(2, 16),
    )
    def test_matches_full_length_route_bitwise(self, rows, window, dim):
        # a flipped position holds "x", which no source holds: an error
        corpus = Corpus(tuple(
            Sample(id=f"s{i}", source=text,
                   target="".join("x" if flip else c
                                  for c, flip in zip(text, flips + [False] * len(text))))
            for i, (text, flips) in enumerate(rows)
        ))
        provider = HashedEmbedder(window=window, dim=dim)
        got = score_corpus(corpus, "contextual", provider=provider)
        # the oracle scores each sample alone, from full-length vectors
        full = [[provider.embed_side(s, side, range(len(s.source))).vectors
                 for side in ("source", "target")] for s in corpus]
        want = [(s.id, score_one(s, *vecs).hex()) for s, vecs in zip(corpus, full)]
        assert [(sid, score.hex()) for sid, score in got.items()] == want
        # hashed components are integers, so the loop's sums are exact too
        assert [score.hex() for score in got.values()] == [
            oracle_score(s, src, tgt).hex() for s, (src, tgt) in zip(corpus, full)]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_file_vectors_match_full_length_route_bitwise(self, data):
        # non-integer components, so the order of every sum shows in the bits
        dim = data.draw(st.integers(1, 8))
        flips = data.draw(st.lists(st.lists(st.booleans(), min_size=1, max_size=8),
                                   max_size=6))
        corpus = Corpus(tuple(
            Sample(id=f"s{i}", source="a" * len(row),
                   target="".join("x" if flip else "a" for flip in row))
            for i, row in enumerate(flips)
        ))
        component = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
        table = {
            (s.id, side): np.array(data.draw(st.lists(
                st.lists(component, min_size=dim, max_size=dim),
                min_size=len(s.source), max_size=len(s.source))), dtype=np.float64)
            for s in corpus for side in ("source", "target")
        }
        # cosines in blocks of any number of rows, one or several per sample
        block = data.draw(st.integers(1, 9))
        with mock.patch.object(difficulty, "_ROWS", block):
            got = score_corpus(corpus, "contextual", provider=FileEmbeddingProvider(table))
        want = [(s.id, score_one(s, table[(s.id, "source")], table[(s.id, "target")]).hex())
                for s in corpus]
        assert [(sid, score.hex()) for sid, score in got.items()] == want

    def test_zero_norm_position_contributes_zero(self, caplog):
        # errors at 1 and 3; the source row at 3 is zero, the cosine at 1 is 0.6
        class Provider:
            def embed_side(self, sample, side, positions):
                rows = {"source": [[0.6, 0.8], [0.0, 0.0]], "target": [[1.0, 0.0], [1.0, 0.0]]}
                return ContextualEmbedding(np.array(rows[side]))

        corpus = parse_corpus("s1\tABCD\tAXCY\n")
        with caplog.at_level("WARNING"):
            score = score_corpus(corpus, "contextual", provider=Provider())["s1"]
        assert score == pytest.approx(0.6, abs=1e-15)
        assert [r.getMessage() for r in caplog.records] == [
            "zero-norm embedding at sample 's1' position 3; similarity taken as 0"]

    @pytest.mark.parametrize("n_vectors", [2, 4])
    def test_file_embedding_of_wrong_length(self, n_vectors):
        doc = "dim=2\n" + "".join(f"s1\t{side}\t{j}\t1.0,0.0\n"
                                  for side in ("source", "target") for j in range(n_vectors))
        provider = FileEmbeddingProvider(parse_embeddings(doc))
        corpus = parse_corpus("s1\tABC\tABX\n")
        with pytest.raises(ShapeMismatch, match=rf"^sample 's1' side source: {n_vectors} "
                                                r"vectors for 3 characters$"):
            score_corpus(corpus, "contextual", provider=provider)

    def test_missing_provider(self):
        with pytest.raises(ValueError):
            score_corpus(parse_corpus(""), "contextual")

    @pytest.mark.parametrize("policy, message", [
        ("bogus", "unknown difficulty policy 'bogus'"),
        ("char_similarity", "char_similarity scoring needs a confusion set"),
    ])
    def test_policy_without_its_input(self, policy, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            score_corpus(parse_corpus("s1\tAB\tAC\n"), policy, provider=HashedEmbedder())

    @pytest.mark.parametrize("n_src, n_tgt, dim_tgt", [(1, 1, 2), (2, 2, 3), (2, 1, 2)])
    def test_rows_that_do_not_match_the_error_positions(self, n_src, n_tgt, dim_tgt):
        # the sample has two error positions; every source row has dimension 2
        class Provider:
            def embed_side(self, sample, side, positions):
                shape = (n_src, 2) if side == "source" else (n_tgt, dim_tgt)
                return ContextualEmbedding(np.ones(shape))

        with pytest.raises(ShapeMismatch, match=rf"^sample 's1': embedding rows \({n_src}, 2\) "
                                                rf"and \({n_tgt}, {dim_tgt}\) for 2 error "
                                                r"positions of dimension 2$"):
            score_corpus(parse_corpus("s1\tABC\tXBY\n"), "contextual", provider=Provider())


# ===========================================================================
# difficulty file
# ===========================================================================

class TestDifficultyFile:

    def test_format_and_roundtrip(self, tmp_path):
        corpus = parse_corpus("s1\t他带着\t他戴着\ns2\tAB\tAB\n")
        scores = score_corpus(corpus, "contextual", provider=HashedEmbedder())
        text = records_to_tsv(scores, "contextual")
        line = text.split("\n")[0].split("\t")
        assert line[0] == "s1"
        assert len(line[1].split(".")[1]) == 9  # nine decimal places
        assert line[2] == "contextual"
        path = tmp_path / "d.tsv"
        save_records(scores, "contextual", path)
        again = load_records(path)
        assert list(again) == ["s1", "s2"]
        assert again["s2"] == 0.0

    def test_malformed(self):
        with pytest.raises(MalformedLine):
            parse_records("s1\t0.5\n")
        with pytest.raises(MalformedLine):
            parse_records("s1\tnot-a-number\tcontextual\n")
        with pytest.raises(MalformedLine):
            parse_records("s1\t0.5\tbogus_policy\n")

    def test_repeated_sample_id_names_the_line(self):
        # arranged, the repeat would land twice in one stage, which the
        # manifest reader rejects only later, in train
        with pytest.raises(MalformedLine, match="^line 3: repeated sample ID 'a'$"):
            parse_records("a\t0.1\tcontextual\nb\t0.2\tcontextual\n"
                          "a\t0.3\tcontextual\nc\t0.0\tcontextual\n")

    def test_empty_sample_id_names_the_line(self):
        # arranged, it would become an empty ID in the manifest's first stage
        with pytest.raises(MalformedLine, match="^line 1: empty sample ID$"):
            parse_records("\t0.1\tcontextual\nb\t0.2\tcontextual\n")

    @pytest.mark.parametrize("text", ["nan", "NaN", "-nan"])
    def test_nan_score_names_the_line(self, text):
        # NaN compares false both ways, so its place in ascending order would
        # follow the line order
        with pytest.raises(MalformedLine, match=f"^line 2: bad score '{text}'$"):
            parse_records(f"b\t0.5\tcontextual\na\t{text}\tcontextual\n")

    def test_infinite_scores_sort_at_the_ends(self):
        text = "b\tinf\tcontextual\na\t0.500000000\tcontextual\nc\t-inf\tcontextual\n"
        scores = parse_records(text)
        assert records_to_tsv(scores, "contextual") == text
        assert arrange_sorted_only(scores, seed=0).stages == (("c", "a", "b"),)

    def test_byte_order_mark_names_the_cause(self):
        # without the check, the first ID would silently read '\ufeffs1'
        with pytest.raises(MalformedLine, match="line 1: file starts with a UTF-8 byte-order mark"):
            parse_records("\ufeffs1\t0.5\tcontextual\n")

    def test_crlf_names_the_cause(self):
        with pytest.raises(MalformedLine, match="line 2: CRLF line ending"):
            parse_records("s1\t0.5\tcontextual\ns2\t0.5\tcontextual\r\n")

    @pytest.mark.parametrize("first, other", [("contextual", "char_similarity"),
                                              ("char_similarity", "contextual")])
    def test_second_policy_names_the_line_and_both_policies(self, first, other):
        # the two policies score on different scales, so one sorted order
        # over both would mean nothing
        with pytest.raises(MalformedLine, match=f"^line 4: policy '{other}' in a '{first}' file$"):
            parse_records(f"\na\t0.1\t{first}\nb\t2.0\t{first}\nc\t0.5\t{other}\n")

    # A byte-order mark is rejected when an ID starting with one comes first,
    # and an empty or repeated ID wherever it comes.  One policy is drawn per
    # document, as a file holds one.
    @given(st.dictionaries(
        st.text(alphabet=st.characters(exclude_characters="\t\n\ufeff"), min_size=1,
                max_size=6),
        st.floats(-1e6, 1e6), max_size=8,
    ), st.sampled_from(POLICIES))
    def test_text_roundtrip_random(self, scores, policy):
        # scores are written at 9 decimals, so the text is the fixpoint
        text = records_to_tsv(scores, policy)
        again = parse_records(text)
        assert records_to_tsv(again, policy) == text
        assert list(again) == list(scores)
        for sid, score in scores.items():
            assert again[sid] == pytest.approx(score, abs=1e-9)
