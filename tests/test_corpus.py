"""Corpus parsing, error-position derivation, confusion sets, injection."""

import pytest
from hypothesis import given, strategies as st

from spellcl.corpus import (
    ConfusionSet,
    Corpus,
    Sample,
    corpus_to_tsv,
    derive_error_positions,
    inject_errors,
    parse_confusion_set,
    parse_corpus,
)
from spellcl.errors import DuplicateId, LengthMismatch, MalformedLine

from helpers import make_clean_corpus, make_symmetric_confusion, make_vocab


# ===========================================================================
# derive_error_positions
# ===========================================================================

class TestDeriveErrorPositions:

    def test_paper_substitution_example(self):
        # "wears a hat" typo: same pinyin, different character at position 1
        assert derive_error_positions("他带着", "他戴着") == (1,)

    def test_identical(self):
        assert derive_error_positions("日日", "日日") == ()

    def test_two_positions(self):
        # brute-force: compare character by character
        src, tgt = "XYZW", "AYZB"
        expected = tuple(j for j in range(4) if src[j] != tgt[j])
        assert expected == (0, 3)
        assert derive_error_positions(src, tgt) == expected

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            derive_error_positions("ABC", "AB")

    @given(st.text(alphabet="abcXYZ", max_size=30), st.data())
    def test_matches_bruteforce(self, src, data):
        tgt = "".join(
            data.draw(st.sampled_from("abcXYZ")) for _ in src
        )
        got = derive_error_positions(src, tgt)
        assert got == tuple(j for j in range(len(src)) if src[j] != tgt[j])
        assert list(got) == sorted(got)


# ===========================================================================
# parse_corpus
# ===========================================================================

class TestParseCorpus:

    def test_single_error_line(self):
        corpus = parse_corpus("s1\tAB\tAC\n")
        assert corpus.samples[0].id == "s1"
        assert corpus.samples[0].error_positions == (1,)

    def test_clean_line(self):
        corpus = parse_corpus("s2\tAB\tAB\n")
        assert corpus.samples[0].error_positions == ()

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            parse_corpus("s3\tABC\tAB\n")

    def test_duplicate_id(self):
        with pytest.raises(DuplicateId):
            parse_corpus("a\tX\tX\nb\tY\tY\na\tZ\tZ\n")

    def test_malformed_line(self):
        with pytest.raises(MalformedLine):
            parse_corpus("only-two-fields\tX\n")

    def test_byte_order_mark_names_the_cause(self):
        with pytest.raises(MalformedLine, match="line 1: file starts with a UTF-8 byte-order mark"):
            parse_corpus("\ufeffa\tAB\tAC\n")

    def test_crlf_names_the_cause(self):
        with pytest.raises(MalformedLine, match="line 2: CRLF line ending"):
            parse_corpus("a\tAB\tAC\nb\tAB\tAB\r\n")

    def test_order_preserved(self):
        corpus = parse_corpus("b\tX\tX\na\tY\tY\n")
        assert corpus.ids() == ["b", "a"]

    def test_empty_document(self):
        assert len(parse_corpus("")) == 0

    def test_roundtrip(self):
        text = "s1\t他带着\t他戴着\ns2\t日日\t日日\n"
        corpus = parse_corpus(text)
        assert corpus_to_tsv(corpus) == text
        assert parse_corpus(corpus_to_tsv(corpus)).samples == corpus.samples

    @given(st.lists(
        st.tuples(st.text(alphabet="xyz日曰", min_size=0, max_size=12), st.integers(0, 5)),
        max_size=8,
    ))
    def test_roundtrip_random(self, rows):
        samples = []
        for i, (text, flip) in enumerate(rows):
            tgt = list(text)
            if tgt and flip < len(tgt):
                tgt[flip] = "Q"
            samples.append(Sample(id=f"r{i}", source=text, target="".join(tgt)))
        corpus = Corpus(samples=tuple(samples))
        assert parse_corpus(corpus_to_tsv(corpus)).samples == corpus.samples


# ===========================================================================
# confusion sets
# ===========================================================================

class TestConfusionSet:

    def test_basic_parse(self):
        cs = parse_confusion_set("带\t戴代待\n")
        assert cs.candidates("带") == {"戴", "代", "待"}

    def test_self_entry_dropped(self):
        cs = parse_confusion_set("日\t日曰\n")
        assert cs.candidates("日") == {"曰"}

    def test_empty_document(self):
        cs = parse_confusion_set("")
        assert len(cs) == 0

    def test_absent_lookup_is_empty(self):
        cs = parse_confusion_set("带\t戴\n")
        assert cs.candidates("日") == frozenset()

    def test_duplicate_heads_merge(self):
        cs = parse_confusion_set("带\t戴\n带\t代\n")
        assert cs.candidates("带") == {"戴", "代"}

    def test_malformed(self):
        with pytest.raises(MalformedLine):
            parse_confusion_set("no-tab-here\n")
        with pytest.raises(MalformedLine):
            parse_confusion_set("两字\t戴\n")

    def test_no_self_mapping_invariant(self):
        cs = ConfusionSet({"a": {"a", "b"}})
        assert cs.candidates("a") == {"b"}


# ===========================================================================
# inject_errors
# ===========================================================================

class TestInjectErrors:

    def setup_method(self):
        self.vocab = make_vocab(20)
        self.confusion = make_symmetric_confusion(self.vocab, n_pairs=30, seed=1)
        self.clean = make_clean_corpus(self.vocab, 40, seed=2)

    def test_rate_zero_is_identity(self):
        out = inject_errors(self.clean, self.confusion, 0.0, seed=3)
        assert out.samples == self.clean.samples
        assert all(s.error_positions == () for s in out)

    def test_rate_one_replaces_every_eligible_char(self):
        confusion = ConfusionSet({"甲": {"乙"}})
        clean = parse_corpus("a\t甲甲丙\t甲甲丙\n")
        out = inject_errors(clean, confusion, 1.0, seed=0)
        # both eligible chars flipped, ineligible one untouched
        assert out.samples[0].source == "乙乙丙"
        assert out.samples[0].error_positions == (0, 1)

    def test_targets_preserved(self):
        out = inject_errors(self.clean, self.confusion, 0.5, seed=4)
        for before, after in zip(self.clean, out):
            assert after.target == before.target
            assert len(after.source) == len(before.source)

    def test_deterministic(self):
        a = inject_errors(self.clean, self.confusion, 0.3, seed=9)
        b = inject_errors(self.clean, self.confusion, 0.3, seed=9)
        assert a.samples == b.samples

    def test_seed_changes_output(self):
        a = inject_errors(self.clean, self.confusion, 0.3, seed=9)
        b = inject_errors(self.clean, self.confusion, 0.3, seed=10)
        assert a.samples != b.samples

    def test_replacements_come_from_confusion_set(self):
        out = inject_errors(self.clean, self.confusion, 0.5, seed=5)
        for s in out:
            for j in s.error_positions:
                assert s.source[j] in self.confusion.candidates(s.target[j])

    def test_rejects_errored_input(self):
        bad = Corpus(samples=(Sample(id="x", source="AB", target="AC"),))
        with pytest.raises(ValueError):
            inject_errors(bad, self.confusion, 0.1, seed=0)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            inject_errors(self.clean, self.confusion, 1.5, seed=0)

    def test_binomial_concentration_rate_point_one(self):
        # 1000 characters, all eligible, rate 0.1, seed 7: corrupted
        # fraction concentrates near the rate
        confusion = ConfusionSet({"甲": {"乙"}, "乙": {"甲"}})
        text = "甲乙" * 25  # 50 chars per sentence
        samples = tuple(
            Sample(id=f"b{i}", source=text, target=text) for i in range(20)
        )
        corpus = Corpus(samples=samples)
        out = inject_errors(corpus, confusion, rate=0.1, seed=7)
        n_corrupted = sum(len(s.error_positions) for s in out)
        assert 0.07 <= n_corrupted / 1000 <= 0.13
