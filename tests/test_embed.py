"""Hashed context embeddings and the external embedding file format."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spellcl.corpus import Corpus, Sample, parse_corpus
from spellcl.embed import (
    SIDES,
    FileEmbeddingProvider,
    HashedEmbedder,
    load_embeddings,
    parse_embeddings,
)
from spellcl.errors import MalformedLine, ShapeMismatch

from helpers import embed_corpus, embeddings_text


def oracle_vector(sequence: str, j: int, window: int, dim: int) -> np.ndarray:
    """Independent re-implementation of the hashing rule for one position."""

    def fnv1a(data: bytes) -> int:
        h = 0xCBF29CE484222325
        for byte in data:
            h ^= byte
            h = (h * 0x100000001B3) % (1 << 64)
        return h

    vec = np.zeros(dim)
    for o in range(-window, window + 1):
        p = j + o
        if 0 <= p < len(sequence):
            h = fnv1a(sequence[p].encode("utf-8", "surrogatepass") + bytes([o & 0xFF]))
            vec[h % dim] += 1.0 if h < (1 << 63) else -1.0
    return vec


def embed(sequence: str, window: int, dim: int) -> np.ndarray:
    """``HashedEmbedder`` vectors at every position of ``sequence``, as a
    sample's source side."""
    sample = Sample(id="s", source=sequence, target=sequence)
    provider = HashedEmbedder(window=window, dim=dim)
    return provider.embed_side(sample, "source", range(len(sequence))).vectors


# ===========================================================================
# HashedEmbedder
# ===========================================================================

class TestHashedEmbed:

    def test_matches_independent_oracle(self):
        vectors = embed("AB", window=1, dim=8)
        np.testing.assert_array_equal(vectors[0], oracle_vector("AB", 0, 1, 8))
        np.testing.assert_array_equal(vectors[1], oracle_vector("AB", 1, 1, 8))

    def test_oracle_multibyte_chars(self):
        seq = "他戴着帽子"
        vectors = embed(seq, window=2, dim=16)
        for j in range(len(seq)):
            np.testing.assert_array_equal(vectors[j], oracle_vector(seq, j, 2, 16))

    @settings(max_examples=80, deadline=None)
    @given(
        st.text(alphabet=st.one_of(st.sampled_from("aZé他😀\ud800"),
                                   st.characters(exclude_categories=("Cs",))),
                max_size=10),
        st.integers(0, 3),
        st.integers(2, 32),
    )
    @example("a\udfffb\ud800", 1, 8)  # lone surrogates, which encode_corpus accepts
    def test_matches_oracle_random(self, seq, window, dim):
        vectors = embed(seq, window=window, dim=dim)
        assert vectors.shape == (len(seq), dim)
        for j in range(len(seq)):
            np.testing.assert_array_equal(vectors[j], oracle_vector(seq, j, window, dim))

    @settings(max_examples=80, deadline=None)
    @given(
        st.text(alphabet="ab他😀\ud800", min_size=1, max_size=10),
        st.sampled_from(SIDES),
        st.lists(st.integers(0, 40), max_size=8),
        st.integers(0, 3),
        st.integers(2, 16),
    )
    @example("abcde", "source", [], 2, 8)
    @example("abcde", "target", [4, 0, 4, 2, 0], 2, 8)  # unsorted, repeated, last, first
    @example("a", "source", [0, 0], 3, 2)
    def test_rows_at_positions_match_oracle(self, seq, side, raw, window, dim):
        # both providers return one row per requested position, in the order asked
        positions = [p % len(seq) for p in raw]
        sample = Sample(id="s", source=seq, target=seq[::-1])
        text = seq if side == "source" else seq[::-1]
        hashed = HashedEmbedder(window=window, dim=dim)
        from_file = FileEmbeddingProvider(embed_corpus(Corpus((sample,)), hashed))
        for provider in (hashed, from_file):
            emb = provider.embed_side(sample, side, positions)
            assert emb.vectors.shape == (len(positions), dim)
            for row, j in zip(emb.vectors, positions):
                np.testing.assert_array_equal(row, oracle_vector(text, j, window, dim))

    @pytest.mark.parametrize("provider", [
        HashedEmbedder(window=1, dim=8),
        FileEmbeddingProvider(parse_embeddings("dim=1\ns1\tsource\t0\t1.0\n")),
    ], ids=["hashed", "file"])
    def test_unknown_side_is_rejected(self, provider):
        sample = Sample(id="s1", source="A", target="B")
        with pytest.raises(ValueError, match=r"unknown side 'bogus', expected one of "
                                             r"\('source', 'target'\)"):
            provider.embed_side(sample, "bogus", [0])

    def test_window_zero_position_independent(self):
        vectors = embed("ABA", window=0, dim=8)
        np.testing.assert_array_equal(vectors[0], vectors[2])
        assert not np.array_equal(vectors[0], vectors[1])

    def test_deterministic(self):
        a = embed("他带着", window=2, dim=64)
        b = embed("他带着", window=2, dim=64)
        assert a.tobytes() == b.tobytes()

    def test_locality(self):
        # editing position p only moves vectors within the window
        base = embed("ABCDEFGH", window=2, dim=32)
        edited = embed("ABCXEFGH", window=2, dim=32)
        for j in range(8):
            if abs(j - 3) <= 2:
                assert not np.array_equal(base[j], edited[j])
            else:
                np.testing.assert_array_equal(base[j], edited[j])

    def test_context_sensitivity(self):
        # same center character, different neighbor => different vector
        a = embed("XAY", window=1, dim=64)
        b = embed("XAZ", window=1, dim=64)
        assert not np.array_equal(a[1], b[1])

    def test_empty_sequence(self):
        assert embed("", window=2, dim=8).shape == (0, 8)

    def test_validation(self):
        with pytest.raises(ValueError, match=r"window must be in \[0, 127\], got -1"):
            HashedEmbedder(window=-1, dim=8)
        with pytest.raises(ValueError, match="dim must be >= 2, got 1"):
            HashedEmbedder(window=0, dim=1)
        with pytest.raises(ValueError, match=r"window must be in \[0, 127\], got 128"):
            HashedEmbedder(window=128, dim=8)


# ===========================================================================
# embed_corpus
# ===========================================================================

class TestEmbedCorpus:

    def test_empty_corpus(self):
        corpus = parse_corpus("")
        assert embed_corpus(corpus, HashedEmbedder()) == {}

    def test_shapes(self):
        corpus = parse_corpus("s1\tABCDE\tABCDX\n")
        table = embed_corpus(corpus, HashedEmbedder(window=2, dim=16))
        assert set(table) == {("s1", "source"), ("s1", "target")}
        assert table[("s1", "source")].shape == (5, 16)
        assert table[("s1", "target")].shape == (5, 16)

    def test_deterministic(self):
        corpus = parse_corpus("s1\t他带着\t他戴着\n")
        t1 = embed_corpus(corpus, HashedEmbedder())
        t2 = embed_corpus(corpus, HashedEmbedder())
        for key in t1:
            assert t1[key].tobytes() == t2[key].tobytes()


# ===========================================================================
# embedding file
# ===========================================================================

EMB_DOC = (
    "dim=2\n"
    "s1\tsource\t0\t1.0,0.0\n"
    "s1\tsource\t1\t0.5,-0.25\n"
    "s1\ttarget\t0\t0.0,1.0\n"
    "s1\ttarget\t1\t-1.0,0.0\n"
)


class TestEmbeddingFile:

    def test_parse(self):
        table = parse_embeddings(EMB_DOC)
        vectors = table[("s1", "source")]
        assert vectors.shape == (2, 2) and vectors.dtype == np.float64
        np.testing.assert_array_equal(vectors[1], [0.5, -0.25])

    def test_position_gap(self):
        doc = "dim=2\ns1\tsource\t0\t1.0,0.0\ns1\tsource\t2\t0.0,1.0\n"
        with pytest.raises(MalformedLine, match="sample 's1' side 'source': position 1 missing"):
            parse_embeddings(doc)

    def test_dim_mismatch(self):
        doc = "dim=2\ns1\tsource\t0\t1.0,2.0,3.0\n"
        with pytest.raises(MalformedLine, match="line 2: vector has 3 components, header says 2"):
            parse_embeddings(doc)

    def test_bad_header(self):
        with pytest.raises(MalformedLine):
            parse_embeddings("s1\tsource\t0\t1.0\n")

    def test_header_must_be_line_one(self):
        with pytest.raises(MalformedLine, match="line 1: expected header 'dim=<d>'"):
            parse_embeddings("\ndim=1\ns1\tsource\t0\t1.0\n")

    def test_byte_order_mark_names_the_cause(self):
        with pytest.raises(MalformedLine, match="line 1: file starts with a UTF-8 byte-order mark"):
            parse_embeddings("\ufeffdim=1\ns1\tsource\t0\t1.0\n")

    def test_crlf_names_the_cause(self):
        # without the check, int() and float() strip the '\r' and the file loads
        with pytest.raises(MalformedLine, match="line 1: CRLF line ending"):
            parse_embeddings("dim=1\r\ns1\tsource\t0\t1.0\r\n")

    @pytest.mark.parametrize("doc, message", [
        ("dim=x\n", "line 1: bad dimension in header 'dim=x'"),
        ("dim=0\n", "line 1: dimension must be positive, got 0"),
        ("dim=1\ns1\tsource\t0\n", "line 2: expected 4 tab-separated fields"),
        ("dim=2\ns1\tsource\t0\t1.0,abc\n", "line 2: bad position or vector"),
        # read as "position 1 missing", on no line, before the check
        ("dim=1\ns1\tsource\t-1\t1.0\ns1\tsource\t0\t1.0\n",
         "line 2: position must be >= 0, got -1"),
        # each square is finite, but their sum, which the cosine takes, is
        # not: accepted, the vector made the contextual score nan
        ("dim=2\ns1\tsource\t0\t1.0,0.0\ns1\tsource\t1\t1.3e154,-1.3e154\n",
         "line 3: vector norm overflows float64"),
        # a non-zero vector whose squared norm underflows: accepted, two equal
        # rows scored 0.0 with a zero-norm warning, where their cosine is 1
        ("dim=2\ns1\tsource\t0\t1.0,0.0\ns1\tsource\t1\t1e-200,1e-200\n",
         "line 3: vector norm underflows float64"),
    ])
    def test_malformed_names_the_line(self, doc, message):
        with pytest.raises(MalformedLine, match=f"^{message}$"):
            parse_embeddings(doc)

    def test_bad_side(self):
        with pytest.raises(MalformedLine):
            parse_embeddings("dim=1\ns1\tmiddle\t0\t1.0\n")

    @pytest.mark.parametrize("component", ["nan", "inf", "-inf", "NaN", "-Infinity"])
    def test_non_finite_component_names_the_line(self, component):
        # accepted, a "nan" made the sample's contextual score read -1.0
        doc = f"dim=2\ns1\tsource\t0\t1.0,0.0\ns1\tsource\t1\t{component},1.0\n"
        with pytest.raises(MalformedLine, match="^line 3: vector component is not finite$"):
            parse_embeddings(doc)

    def test_largest_norms_load(self):
        # squared norms just below float64's maximum are kept as given
        big = float(np.sqrt(np.finfo(np.float64).max))
        doc = f"dim=2\ns1\tsource\t0\t{big!r},0.0\ns1\tsource\t1\t{big / 2!r},{big / 2!r}\n"
        np.testing.assert_array_equal(parse_embeddings(doc)[("s1", "source")],
                                      [[big, 0.0], [big / 2, big / 2]])

    def test_smallest_norms_load(self):
        # an all-zero row loads, and scoring warns at it; a non-zero row needs
        # a squared norm of at least float64's smallest normal number
        doc = "dim=2\ns1\tsource\t0\t0.0,-0.0\ns1\tsource\t1\t2e-154,0.0\n"
        np.testing.assert_array_equal(parse_embeddings(doc)[("s1", "source")],
                                      [[0.0, 0.0], [2e-154, 0.0]])

    def test_duplicate_position(self):
        doc = "dim=1\ns1\tsource\t0\t1.0\ns1\tsource\t0\t2.0\n"
        with pytest.raises(MalformedLine):
            parse_embeddings(doc)

    def test_roundtrip(self, tmp_path):
        table = parse_embeddings(EMB_DOC)
        text = embeddings_text(table, dim=2)
        again = parse_embeddings(text)
        for key in table:
            assert table[key].tobytes() == again[key].tobytes()

    @given(st.data())
    def test_roundtrip_random(self, data):
        dim = data.draw(st.integers(1, 4))
        keys = data.draw(st.lists(st.tuples(
            st.text(alphabet=st.characters(exclude_characters="\t\n"), max_size=5),
            st.sampled_from(SIDES),
        ), unique=True, max_size=4))
        table = {}
        for sample_id, side in keys:
            n = data.draw(st.integers(1, 3))
            # zero, or 1e-150 to 1e150 apart from it, so no squared norm
            # overflows and none of a non-zero vector underflows
            component = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(1e-150, 1e150),
                                  st.floats(-1e150, -1e-150))
            values = data.draw(st.lists(component, min_size=n * dim, max_size=n * dim))
            table[(sample_id, side)] = np.array(values, dtype=np.float64).reshape(n, dim)
        text = embeddings_text(table, dim)
        again = parse_embeddings(text)
        assert list(again) == list(table)
        for key, vectors in table.items():
            assert again[key].tobytes() == vectors.tobytes()
        assert embeddings_text(again, dim) == text

    def test_file_provider(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text(EMB_DOC, encoding="utf-8")
        provider = load_embeddings(path)
        corpus = parse_corpus("s1\tAB\tAC\n")
        table = embed_corpus(corpus, provider)
        np.testing.assert_array_equal(table[("s1", "target")][0], [0.0, 1.0])

    def test_file_provider_missing_sample(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text(EMB_DOC, encoding="utf-8")
        provider = load_embeddings(path)
        corpus = parse_corpus("s2\tAB\tAC\n")
        with pytest.raises(ShapeMismatch, match="no embedding for sample 's2' side 'source'"):
            embed_corpus(corpus, provider)
