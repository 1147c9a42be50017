"""Stage arrangements and the manifest file format."""

import hashlib
import re
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from spellcl.curriculum import (
    ARRANGEMENTS,
    CurriculumManifest,
    arrange,
    arrange_annealing,
    arrange_random_stages,
    arrange_shuffled_baseline,
    arrange_sorted_only,
    balanced_split,
    manifest_to_jsonl,
    parse_manifest,
)
from spellcl.difficulty import DifficultyRecord
from spellcl.errors import ConfigError, MalformedLine
from spellcl.rng import shuffled


def recs(scores: dict[str, float]) -> list[DifficultyRecord]:
    return [DifficultyRecord(sample_id=i, score=s, policy="contextual")
            for i, s in scores.items()]


def expected_stage_sets(scores: dict[str, float], k: int) -> list[set[str]]:
    """Independent re-derivation of the pre-shuffle stage composition."""
    ordered = [i for i, _ in sorted(scores.items(), key=lambda kv: (kv[1], kv[0]))]

    def split(items, parts):
        n, out, start = len(items), [], 0
        for i in range(parts):
            size = n // parts + (1 if i < n % parts else 0)
            out.append(items[start:start + size])
            start += size
        return out

    subsets = split(ordered, k)
    stages = []
    for i in range(k):
        stage = set()
        for subset in subsets:
            stage.update(split(subset, k)[i])
        stages.append(stage)
    stages.append(set(ordered))
    return stages


# ===========================================================================
# balanced_split
# ===========================================================================

class TestBalancedSplit:

    def test_even(self):
        assert balanced_split(list(range(9)), 3) == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]

    def test_remainder_goes_to_front(self):
        parts = balanced_split(list(range(10)), 3)
        assert [len(p) for p in parts] == [4, 3, 3]

    def test_inner_split_of_size_four(self):
        assert [len(p) for p in balanced_split(list(range(4)), 3)] == [2, 1, 1]

    def test_more_parts_than_items(self):
        assert [len(p) for p in balanced_split([1, 2], 4)] == [1, 1, 0, 0]


# ===========================================================================
# arrange_annealing
# ===========================================================================

class TestArrangeAnnealing:

    N9_SCORES = {c: float(i) for i, c in enumerate("abcdefghi")}

    def test_hand_enumerated_nine_by_three(self):
        m = arrange_annealing(recs(self.N9_SCORES), k=3, seed=0)
        assert len(m.stages) == 4
        assert set(m.stages[0]) == {"a", "d", "g"}
        assert set(m.stages[1]) == {"b", "e", "h"}
        assert set(m.stages[2]) == {"c", "f", "i"}
        assert set(m.stages[3]) == set("abcdefghi")

    def test_n10_k3_sizes(self):
        scores = {f"s{i:02d}": float(i) for i in range(10)}
        m = arrange_annealing(recs(scores), k=3, seed=1)
        assert [len(s) for s in m.stages] == [4, 3, 3, 10]
        assert expected_stage_sets(scores, 3) == [set(s) for s in m.stages]

    def test_k1_degenerate(self):
        scores = {c: float(i) for i, c in enumerate("abcd")}
        m = arrange_annealing(recs(scores), k=1, seed=5)
        assert len(m.stages) == 2
        assert set(m.stages[0]) == set("abcd")
        assert set(m.stages[1]) == set("abcd")

    def test_stages_are_shuffled(self):
        scores = {f"s{i:03d}": float(i) for i in range(60)}
        m = arrange_annealing(recs(scores), k=2, seed=3)
        # stage contents are right but order is not the sorted order
        assert list(m.stages[0]) != sorted(m.stages[0])

    def test_tie_break_by_id(self):
        # all scores equal: the sorted order is ID order, so the stage
        # composition matches the hand-enumerated distinct-score case
        m = arrange_annealing(recs({c: 1.0 for c in "abcdefghi"}), k=3, seed=0)
        assert set(m.stages[0]) == {"a", "d", "g"}
        assert set(m.stages[1]) == {"b", "e", "h"}
        assert set(m.stages[2]) == {"c", "f", "i"}

    def test_subsets_smaller_than_k_frontload_stage_one(self):
        # n == k: every subset has one element, so stage 1 takes all of
        # them and stages 2..k are empty (balanced split, extras first)
        m = arrange_annealing(recs({"z": 1.0, "a": 2.0, "m": 3.0}), k=3, seed=0)
        assert set(m.stages[0]) == {"z", "a", "m"}
        assert m.stages[1] == () and m.stages[2] == ()
        assert set(m.stages[3]) == {"z", "a", "m"}

    def test_deterministic(self):
        scores = {f"s{i}": float(i % 7) for i in range(30)}
        a = arrange_annealing(recs(scores), k=4, seed=11)
        b = arrange_annealing(recs(scores), k=4, seed=11)
        assert a == b

    def test_seed_changes_stage_order(self):
        scores = {f"s{i}": float(i) for i in range(30)}
        a = arrange_annealing(recs(scores), k=3, seed=1)
        b = arrange_annealing(recs(scores), k=3, seed=2)
        assert a.stages != b.stages
        assert [set(x) for x in a.stages] == [set(x) for x in b.stages]

    def test_k_too_large(self):
        with pytest.raises(ConfigError, match=r"k=2 exceeds the number of samples \(1\)"):
            arrange_annealing(recs({"a": 1.0}), k=2, seed=0)

    def test_empty_input(self):
        with pytest.raises(ConfigError, match="cannot arrange an empty"):
            arrange_annealing([], k=1, seed=0)


# ===========================================================================
# ablation arrangements
# ===========================================================================

class TestSortedOnly:

    def test_sort_oracle(self):
        m = arrange_sorted_only(recs({"x": 3.0, "y": 1.0, "z": 2.0}), seed=0)
        assert m.stages == (("y", "z", "x"),)

    def test_all_equal_scores_id_order(self):
        m = arrange_sorted_only(recs({"c": 1.0, "a": 1.0, "b": 1.0}), seed=9)
        assert m.stages == (("a", "b", "c"),)

    def test_single_sample(self):
        m = arrange_sorted_only(recs({"only": 0.5}), seed=0)
        assert m.stages == (("only",),)

    def test_empty(self):
        with pytest.raises(ConfigError, match="cannot arrange an empty"):
            arrange_sorted_only([], seed=0)


class TestRandomStages:

    def test_sizes(self):
        m = arrange_random_stages([f"i{j}" for j in range(9)], k=3, seed=0)
        assert [len(s) for s in m.stages] == [3, 3, 3, 9]

    def test_deterministic(self):
        ids = [f"i{j}" for j in range(20)]
        assert arrange_random_stages(ids, 4, 7) == arrange_random_stages(ids, 4, 7)

    def test_partition_property(self):
        for seed in range(100):
            ids = [f"i{j}" for j in range(17)]
            m = arrange_random_stages(ids, k=4, seed=seed)
            union = [i for stage in m.stages[:-1] for i in stage]
            assert sorted(union) == sorted(ids)
            assert sorted(m.stages[-1]) == sorted(ids)

    def test_k_too_large(self):
        with pytest.raises(ConfigError, match=r"k=3 exceeds the number of samples \(1\)"):
            arrange_random_stages(["a"], k=3, seed=0)


class TestStagedArrangements:
    """What annealing and random_stages share: k stages that partition the
    IDs, then the full set shuffled under stream k+1."""

    @given(policy=st.sampled_from(["annealing", "random_stages"]),
           scores=st.lists(st.integers(0, 3), min_size=1, max_size=40),
           data=st.data(), seed=st.integers(0, 2**64 - 1))
    def test_k_partitioning_stages_then_the_full_set(self, policy, scores, data, seed):
        n = len(scores)
        k = data.draw(st.integers(1, n), label="k")
        order = data.draw(st.permutations(range(n)), label="input order")
        records = recs({f"s{i:02d}": float(scores[i]) for i in order})
        ids = [r.sample_id for r in records]
        m = arrange(policy, ids, records, k, seed)
        assert len(m.stages) == k + 1
        first = [i for stage in m.stages[:-1] for i in stage]
        assert len(first) == n and set(first) == set(ids)
        # annealing's order is ascending difficulty, random_stages' the input's
        if policy == "annealing":
            ids = sorted(ids, key=lambda i: (scores[int(i[1:])], i))
        assert list(m.stages[-1]) == shuffled(ids, seed, k + 1)

    @pytest.mark.parametrize("policy", ARRANGEMENTS)
    def test_every_policy_rejects_empty_input(self, policy):
        with pytest.raises(ConfigError, match="cannot arrange an empty"):
            arrange(policy, [], [], 1, 0)

    @pytest.mark.parametrize("policy", ["annealing", "random_stages"])
    def test_k_outside_one_to_n(self, policy):
        records = recs({"a": 0.0, "b": 1.0})
        ids = [r.sample_id for r in records]
        with pytest.raises(ValueError, match="k must be >= 1, got 0"):
            arrange(policy, ids, records, 0, 0)
        with pytest.raises(ConfigError, match=r"k=3 exceeds the number of samples \(2\)"):
            arrange(policy, ids, records, 3, 0)


class TestShuffledBaseline:

    def test_empty(self):
        with pytest.raises(ConfigError, match="cannot arrange an empty"):
            arrange_shuffled_baseline([], seed=0)

    def test_single(self):
        assert arrange_shuffled_baseline(["x"], seed=1).stages == (("x",),)

    def test_reproducible_permutation(self):
        ids = list("abcde")
        a = arrange_shuffled_baseline(ids, seed=99)
        b = arrange_shuffled_baseline(ids, seed=99)
        assert manifest_to_jsonl(a) == manifest_to_jsonl(b)
        assert sorted(a.stages[0]) == ids


# ===========================================================================
# policy dispatch
# ===========================================================================

class TestArrange:

    def test_each_policy_calls_its_arranger(self):
        records = recs({c: float(i % 3) for i, c in enumerate("abcdefg")})
        ids = [r.sample_id for r in records]
        assert arrange("annealing", None, records, 2, 5) == arrange_annealing(records, 2, 5)
        assert arrange("sorted_only", None, records, 2, 5) == arrange_sorted_only(records, 5)
        assert arrange("random_stages", ids, None, 2, 5) == arrange_random_stages(ids, 2, 5)
        assert arrange("shuffled_baseline", ids, None, 2, 5) == (
            arrange_shuffled_baseline(ids, 5))

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown arrangement policy 'bogus'"):
            arrange("bogus", ["a"], recs({"a": 0.0}), 1, 0)

    # sha256 of manifest_to_jsonl for each policy on PIN_RECORDS, k=3, seed=7:
    # the arrangements' exact output, which a refactor must keep byte for byte
    PIN_RECORDS = recs({f"s{i:02d}": (i % 4) / 4 for i in (7, 3, 12, 0, 9, 5, 1, 11, 4, 10,
                                                            2, 8, 6)})
    PINNED = {
        "annealing": "ec05d4d1edcef34bf22d27bb77ac91d0d0a586965aafb9f0c6cfc6e76db77e44",
        "sorted_only": "d044432066b6e31a412aca9d9e10b87a2e39ce4c7d76526b7dd922a242d7350f",
        "random_stages": "4d0167ea143ae8b39c2f60aba9241da9fbd808137ed7fa88a3b9960144e443a4",
        "shuffled_baseline":
            "084375107a3167dda2452a4ff7e15e7bc5bbf9b338af11eeb9ede1ed20f2c917",
    }

    @pytest.mark.parametrize("policy", ARRANGEMENTS)
    def test_pinned_manifest(self, policy):
        # 13 records in no sorted order, four distinct scores, so ties abound
        ids = [r.sample_id for r in self.PIN_RECORDS]
        manifest = replace(arrange(policy, ids, self.PIN_RECORDS, 3, 7), source_corpus="pin")
        digest = hashlib.sha256(manifest_to_jsonl(manifest).encode("utf-8")).hexdigest()
        assert digest == self.PINNED[policy]


# ===========================================================================
# manifest file
# ===========================================================================

class TestManifestFile:

    def test_roundtrip(self):
        m = replace(arrange_annealing(recs({c: float(i) for i, c in enumerate("abcdef")}),
                                      k=2, seed=42), source_corpus="toy")
        again = parse_manifest(manifest_to_jsonl(m))
        assert again == m

    def test_duplicate_id_in_stage(self):
        doc = (
            '{"policy": "annealing", "k": 1, "seed": 0, "corpus": "", "n": 1}\n'
            '{"stage": 1, "ids": ["a", "a"]}\n'
        )
        with pytest.raises(MalformedLine, match="line 2: duplicate ID within stage"):
            parse_manifest(doc)

    def test_missing_stage_index(self):
        doc = (
            '{"policy": "annealing", "k": 2, "seed": 0, "corpus": "", "n": 2}\n'
            '{"stage": 1, "ids": ["a"]}\n'
            '{"stage": 3, "ids": ["b"]}\n'
        )
        with pytest.raises(MalformedLine, match="line 3: expected stage 2, got 3"):
            parse_manifest(doc)

    def test_missing_metadata_key(self):
        with pytest.raises(MalformedLine, match="line 1: metadata missing 'k'"):
            parse_manifest('{"policy": "annealing"}\n{"stage": 1, "ids": []}\n')

    def test_not_json(self):
        with pytest.raises(MalformedLine, match="line 1: Expecting value"):
            parse_manifest("not json at all\n")

    META = '{"policy": "annealing", "k": 1, "seed": 0, "corpus": ""}\n'

    def test_metadata_line_not_an_object_names_the_line(self):
        with pytest.raises(MalformedLine, match="line 1: expected a JSON object"):
            parse_manifest('5\n{"stage": 1, "ids": ["s1"]}\n')

    def test_stage_line_not_an_object_names_the_line(self):
        with pytest.raises(MalformedLine, match="line 2: expected a JSON object"):
            parse_manifest(self.META + "7\n")

    @pytest.mark.parametrize("ids", ['[["s1"]]', "5", '"s1"', '["s1", 2]', '[""]', "null"])
    def test_ids_not_a_list_of_non_empty_strings_names_the_line(self, ids):
        doc = self.META + '{"stage": 1, "ids": ["s0"]}\n{"stage": 2, "ids": ' + ids + "}\n"
        with pytest.raises(MalformedLine,
                           match="line 3: 'ids' must be a list of non-empty strings"):
            parse_manifest(doc)

    @pytest.mark.parametrize("key, value, kind", [
        ("k", '"many"', "an integer >= 1"), ("k", "0", "an integer >= 1"),
        ("k", "true", "an integer >= 1"), ("k", "2.0", "an integer >= 1"),
        ("k", "null", "an integer >= 1"), ("seed", "[1]", "an integer"),
        ("seed", "false", "an integer"), ("seed", "1.5", "an integer"),
        ("corpus", "5", "a string"), ("corpus", "null", "a string"),
    ])
    def test_metadata_of_the_wrong_type_names_the_line(self, key, value, kind):
        # before, each loaded as given and train ran on it
        meta = {"policy": '"annealing"', "k": "1", "seed": "0", "corpus": '""', key: value}
        doc = "{" + ", ".join(f'"{k}": {v}' for k, v in meta.items()) + "}\n"
        with pytest.raises(MalformedLine, match=f"line 1: '{key}' must be {kind}, got "):
            parse_manifest(doc + '{"stage": 1, "ids": ["s1"]}\n')

    @pytest.mark.parametrize("stage", ["true", "1.0"])
    def test_stage_that_is_not_an_integer_names_the_line(self, stage):
        with pytest.raises(MalformedLine, match="line 2: expected stage 1, got "):
            parse_manifest(self.META + '{"stage": ' + stage + ', "ids": ["s1"]}\n')

    def test_byte_order_mark_names_the_cause(self):
        doc = '\ufeff{"policy": "annealing", "k": 1, "seed": 0, "corpus": ""}\n'
        with pytest.raises(MalformedLine, match="line 1: file starts with a UTF-8 byte-order mark"):
            parse_manifest(doc)

    def test_crlf_names_the_cause(self):
        doc = ('{"policy": "annealing", "k": 1, "seed": 0, "corpus": ""}\r\n'
               '{"stage": 1, "ids": ["a"]}\r\n')
        with pytest.raises(MalformedLine, match="line 1: CRLF line ending"):
            parse_manifest(doc)

    @pytest.mark.parametrize("doc, message", [
        ("\n\n", "empty manifest document"),
        (META.replace("annealing", "bogus") + '{"stage": 1, "ids": ["a"]}\n',
         "line 1: unknown policy 'bogus'"),
        (META + "stage 1: a\n", "line 2: Expecting value: line 1 column 1 (char 0)"),
        (META + '{"stage": 1}\n', "line 2: expected 'stage' and 'ids'"),
        (META, "manifest has no stages"),
    ])
    def test_malformed_names_the_cause(self, doc, message):
        with pytest.raises(MalformedLine, match=f"^{re.escape(message)}$"):
            parse_manifest(doc)

    def test_line_numbers_count_blank_lines(self):
        doc = (
            '{"policy": "annealing", "k": 2, "seed": 0, "corpus": ""}\n'
            '\n'
            '{"stage": 2, "ids": ["a"]}\n'
        )
        with pytest.raises(MalformedLine, match="line 3: expected stage 1, got 2"):
            parse_manifest(doc)

    @given(st.builds(
        CurriculumManifest,
        policy=st.sampled_from(ARRANGEMENTS),
        k=st.integers(1, 64),
        seed=st.integers(0, 2**64 - 1),
        stages=st.lists(st.lists(st.text(min_size=1, max_size=5), unique=True,
                                 max_size=5).map(tuple),
                        min_size=1, max_size=5).map(tuple),
        source_corpus=st.text(max_size=8),
    ))
    def test_roundtrip_random(self, manifest):
        text = manifest_to_jsonl(manifest)
        assert parse_manifest(text) == manifest
        assert manifest_to_jsonl(parse_manifest(text)) == text
