"""Hashed context embeddings and the external embedding file format."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spellcl.corpus import Sample, parse_corpus
from spellcl.embed import (
    SIDES,
    ContextualEmbedding,
    HashedEmbedder,
    embed_corpus,
    embeddings_to_text,
    load_embeddings,
    parse_embeddings,
)
from spellcl.errors import DimMismatch, MalformedLine, MissingEmbedding, MissingPosition


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
            h = fnv1a(sequence[p].encode("utf-8") + bytes([o & 0xFF]))
            vec[h % dim] += 1.0 if h < (1 << 63) else -1.0
    return vec


def embed(sequence: str, window: int, dim: int) -> np.ndarray:
    """``HashedEmbedder`` vectors for ``sequence``, as a sample's source side."""
    sample = Sample(id="s", source=sequence, target=sequence)
    return HashedEmbedder(window=window, dim=dim).embed_side(sample, "source").vectors


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
        st.text(alphabet=st.one_of(st.sampled_from("aZé他😀"),
                                   st.characters(exclude_categories=("Cs",))),
                max_size=10),
        st.integers(0, 3),
        st.integers(2, 32),
    )
    def test_matches_oracle_random(self, seq, window, dim):
        vectors = embed(seq, window=window, dim=dim)
        assert vectors.shape == (len(seq), dim)
        for j in range(len(seq)):
            np.testing.assert_array_equal(vectors[j], oracle_vector(seq, j, window, dim))

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
        assert len(table[("s1", "source")]) == 5
        assert table[("s1", "target")].dim == 16

    def test_deterministic(self):
        corpus = parse_corpus("s1\t他带着\t他戴着\n")
        t1 = embed_corpus(corpus, HashedEmbedder())
        t2 = embed_corpus(corpus, HashedEmbedder())
        for key in t1:
            assert t1[key].vectors.tobytes() == t2[key].vectors.tobytes()


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
        emb = table[("s1", "source")]
        assert len(emb) == 2 and emb.dim == 2
        np.testing.assert_array_equal(emb.vectors[1], [0.5, -0.25])

    def test_position_gap(self):
        doc = "dim=2\ns1\tsource\t0\t1.0,0.0\ns1\tsource\t2\t0.0,1.0\n"
        with pytest.raises(MissingPosition):
            parse_embeddings(doc)

    def test_dim_mismatch(self):
        doc = "dim=2\ns1\tsource\t0\t1.0,2.0,3.0\n"
        with pytest.raises(DimMismatch):
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

    def test_bad_side(self):
        with pytest.raises(MalformedLine):
            parse_embeddings("dim=1\ns1\tmiddle\t0\t1.0\n")

    def test_duplicate_position(self):
        doc = "dim=1\ns1\tsource\t0\t1.0\ns1\tsource\t0\t2.0\n"
        with pytest.raises(MalformedLine):
            parse_embeddings(doc)

    def test_roundtrip(self, tmp_path):
        table = parse_embeddings(EMB_DOC)
        text = embeddings_to_text(table, dim=2)
        again = parse_embeddings(text)
        for key in table:
            assert table[key].vectors.tobytes() == again[key].vectors.tobytes()

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
            values = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                        min_size=n * dim, max_size=n * dim))
            table[(sample_id, side)] = ContextualEmbedding(
                sample_id, side, np.array(values, dtype=np.float64).reshape(n, dim))
        text = embeddings_to_text(table, dim)
        again = parse_embeddings(text)
        assert list(again) == list(table)
        for key, emb in table.items():
            assert again[key].vectors.tobytes() == emb.vectors.tobytes()
        assert embeddings_to_text(again, dim) == text

    def test_file_provider(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text(EMB_DOC, encoding="utf-8")
        provider = load_embeddings(path)
        corpus = parse_corpus("s1\tAB\tAC\n")
        table = embed_corpus(corpus, provider)
        np.testing.assert_array_equal(table[("s1", "target")].vectors[0], [0.0, 1.0])

    def test_file_provider_missing_sample(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text(EMB_DOC, encoding="utf-8")
        provider = load_embeddings(path)
        corpus = parse_corpus("s2\tAB\tAC\n")
        with pytest.raises(MissingEmbedding):
            embed_corpus(corpus, provider)
