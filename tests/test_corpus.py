"""Corpus parsing, error-position derivation, confusion sets, injection."""

import re
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings, strategies as st

from spellcl.corpus import (
    ConfusionSet,
    Corpus,
    Sample,
    confusion_to_tsv,
    corpus_to_tsv,
    derive_error_positions,
    inject_errors,
    load_confusion_set,
    load_corpus,
    parse_confusion_set,
    parse_corpus,
    save_corpus,
)
from spellcl.curriculum import load_manifest
from spellcl.difficulty import load_records
from spellcl.embed import load_embeddings
from spellcl.errors import DuplicateId, LengthMismatch, MalformedLine, SpellclError
from spellcl.model import load_model

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
# Sample
# ===========================================================================

class TestSample:

    def test_holds_only_its_three_strings(self):
        # the error positions are derived on first read and cached; they are
        # no field, so repr and == leave them out
        sample = Sample("s1", "AXCY", "ABCD")
        assert repr(sample) == "Sample(id='s1', source='AXCY', target='ABCD')"
        assert sample.error_positions == (1, 3)
        assert sample.error_positions is sample.error_positions
        twin = Sample("s1", "AXCY", "ABCD")
        assert sample == twin and hash(sample) == hash(twin)
        assert twin.error_positions == sample.error_positions
        assert sample != Sample("s1", "AXCY", "AXCD")

    def test_is_frozen(self):
        sample = Sample("s1", "AB", "AC")
        with pytest.raises(FrozenInstanceError):
            sample.source = "AC"

    def test_length_mismatch_names_the_sample(self):
        with pytest.raises(LengthMismatch, match="sample 's1': source has 3 characters"):
            Sample("s1", "ABC", "AB")


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

    def test_corpus_rejects_a_repeated_id(self):
        # built directly, not parsed: no line to name
        a = Sample(id="a", source="X", target="X")
        with pytest.raises(DuplicateId, match="^duplicate sample id 'a'$"):
            Corpus((a, Sample(id="b", source="Y", target="Y"), a))

    def test_empty_id_names_the_line(self):
        # the sample would train under an ID no manifest can name apart
        with pytest.raises(MalformedLine, match="^line 2: empty sample ID$"):
            parse_corpus("a\tX\tX\n\tY\tZ\n")

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

    # each would be written as a line that parse_corpus refuses
    @pytest.mark.parametrize("sample", [
        Sample("a\tb", "x", "x"),
        Sample("", "x", "x"),
        Sample("a\nb", "x", "x"),
        Sample("s", "x\n", "xy"),
        Sample("s", "x\t", "y\t"),
        Sample("s", "xy", "x\r"),
        Sample("\ufeffs", "x", "x"),
    ])
    def test_writer_refuses_a_sample_no_line_holds(self, sample, tmp_path):
        corpus = Corpus((Sample("first", "a", "a"), sample))
        if sample.id.startswith("\ufeff"):  # a BOM only breaks the first line
            assert parse_corpus(corpus_to_tsv(corpus)) == corpus
            corpus = Corpus((sample,))
        message = re.escape(f"sample {sample.id!r} cannot be written")
        with pytest.raises(ValueError, match=message):
            corpus_to_tsv(corpus)
        with pytest.raises(ValueError, match=message):
            save_corpus(corpus, tmp_path / "c.tsv")
        assert not (tmp_path / "c.tsv").exists()

    @settings(max_examples=300)
    @given(st.data())
    def test_writer_refuses_exactly_what_would_not_read_back(self, data):
        alphabet = "\t\n\r\ufeffab"
        field = st.text(alphabet=alphabet, max_size=4)
        samples = []
        for sid in data.draw(st.lists(field, max_size=4, unique=True)):
            source = data.draw(field)
            target = data.draw(st.text(alphabet=alphabet, min_size=len(source),
                                       max_size=len(source)))
            samples.append(Sample(sid, source, target))
        corpus = Corpus(tuple(samples))
        plain = "".join(f"{s.id}\t{s.source}\t{s.target}\n" for s in corpus)
        try:
            reads_back = parse_corpus(plain) == corpus
        except SpellclError:
            reads_back = False
        if reads_back:
            assert corpus_to_tsv(corpus) == plain
        else:
            with pytest.raises(ValueError, match="cannot be written"):
                corpus_to_tsv(corpus)


# ===========================================================================
# files on disk
# ===========================================================================

# loader, a valid LF document
LOADERS = {
    "corpus": (load_corpus, "a\tAB\tAC\nb\tAB\tAB\n"),
    "confusion": (load_confusion_set, "a\tb\nb\ta\n"),
    "records": (load_records, "a\t0.5\tcontextual\nb\t0.1\tcontextual\n"),
    "manifest": (load_manifest, '{"policy": "annealing", "k": 1, "seed": 0, "corpus": ""}\n'
                                '{"stage": 1, "ids": ["a"]}\n'),
    "model": (lambda path: load_model(path, ConfusionSet()),
              "# spellcl-model schema=1 window=2\nKEEP\t-1.0\n"),
    "embeddings": (load_embeddings, "dim=1\na\tsource\t0\t1.0\n"),
}


class TestFilesOnDisk:

    @pytest.mark.parametrize("kind", LOADERS)
    def test_crlf_file_names_its_line(self, tmp_path, kind):
        # a file parses exactly as its text: reading turns no CRLF into LF,
        # and a byte that is not UTF-8 (here GBK on line 2) names its line
        load, text = LOADERS[kind]
        path = tmp_path / "f"
        path.write_bytes(text.encode("utf-8"))
        load(path)
        line1, rest = text.encode("utf-8").split(b"\n", 1)
        for data, message in (
            (text.replace("\n", "\r\n").encode("utf-8"), "line 1: CRLF line ending"),
            (line1 + b"\n" + "错".encode("gbk") + rest, r"line 2: not UTF-8 \(byte 0xb4\)$"),
        ):
            path.write_bytes(data)
            with pytest.raises(MalformedLine, match="^" + message):
                load(path)


# ===========================================================================
# confusion sets
# ===========================================================================

class TestConfusionSet:

    def test_basic_parse(self):
        cs = parse_confusion_set("带\t戴代待\n")
        assert cs.candidates("带") == "代待戴"  # code-point order

    def test_self_entry_dropped(self):
        cs = parse_confusion_set("日\t日曰\n")
        assert cs.candidates("日") == "曰"

    def test_empty_document(self):
        cs = parse_confusion_set("")
        assert len(cs) == 0

    def test_absent_lookup_is_empty(self):
        cs = parse_confusion_set("带\t戴\n")
        assert cs.candidates("日") == ""

    def test_duplicate_heads_merge(self):
        cs = parse_confusion_set("带\t戴\n带\t代\n")
        assert cs.candidates("带") == "代戴"

    def test_malformed(self):
        with pytest.raises(MalformedLine):
            parse_confusion_set("no-tab-here\n")
        with pytest.raises(MalformedLine):
            parse_confusion_set("两字\t戴\n")

    def test_no_self_mapping_invariant(self):
        cs = ConfusionSet({"a": {"a", "b"}})
        assert cs.candidates("a") == "b"

    @given(st.dictionaries(st.characters(), st.sets(st.characters(), max_size=8), max_size=6))
    def test_candidates_are_the_given_characters_in_code_point_order(self, entries):
        cs = ConfusionSet(entries)
        for head, cands in entries.items():
            got = cs.candidates(head)
            assert all(a < b for a, b in zip(got, got[1:]))
            assert head not in got
            assert set(got) == cands - {head} and len(got) == len(cands - {head})

    @pytest.mark.parametrize("cands, bad", [({"b", "cd"}, "'cd'"), ({""}, "''"),
                                            (["b", "xy"], "'xy'")])
    def test_candidate_of_other_than_one_character_names_its_head(self, cands, bad):
        # a string would be split into characters without an error
        with pytest.raises(ValueError,
                           match=f"^confusion head 'a': candidate {bad} is not one character$"):
            ConfusionSet({"a": cands})

    @pytest.mark.parametrize("head", ["ab", ""])
    def test_head_of_other_than_one_character_is_refused(self, head):
        # such a head matches no character, and confusion_to_tsv would write
        # a file that parse_confusion_set refuses
        with pytest.raises(ValueError, match=f"^confusion head {head!r} is not one character$"):
            ConfusionSet({head: "c", "d": "e"})

    def test_byte_order_mark_names_the_cause(self):
        with pytest.raises(MalformedLine, match="line 1: file starts with a UTF-8 byte-order mark"):
            parse_confusion_set("\ufeffa\tb\n")

    def test_crlf_names_the_cause(self):
        # without the check, 'a' would silently get the candidates {'\r', 'b'}
        with pytest.raises(MalformedLine, match="line 1: CRLF line ending"):
            parse_confusion_set("a\tb\r\n")

    # Any character but the separators; a byte-order mark would only be
    # rejected when it sorts first, so it is left out as well.
    @given(st.dictionaries(
        st.characters(exclude_characters="\t\n\r\ufeff"),
        st.sets(st.characters(exclude_characters="\t\n\r\ufeff"), max_size=4),
        max_size=6,
    ))
    def test_roundtrip_random(self, entries):
        cs = ConfusionSet(entries)
        text = confusion_to_tsv(cs)
        assert parse_confusion_set(text) == cs
        assert confusion_to_tsv(parse_confusion_set(text)) == text


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
        with pytest.raises(MalformedLine, match="expects an error-free corpus; sample 'x' has"):
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
