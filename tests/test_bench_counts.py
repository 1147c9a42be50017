"""The meaning of the benchmark's encoding counters.

``perfbench/spans.py`` takes its model counts from the lengths of the
encoding's arrays and feature table.  These tests compute each count
independently from ``candidate_set`` and ``featurize`` and check the
counters against them, so a change of the encoding's layout cannot
silently change what a benchmark count means.
"""

import importlib.util
from pathlib import Path

import pytest

from spellcl.corpus import ConfusionSet
from spellcl.curriculum import arrange_shuffled_baseline
from spellcl.model import encode_corpus, train_encoded

from helpers import candidate_set, featurize, overfit_fixture

ROOT = Path(__file__).resolve().parents[1]


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def expected_counts(corpus, confusion) -> dict[str, int]:
    """Positions, slots (real candidates plus a hidden gold slot where the gold
    character is not a candidate), feature references and distinct names."""
    slots = feat_refs = 0
    names = set()
    for sample in corpus:
        for j, gold in enumerate(sample.target):
            cands = candidate_set(sample.source, j, confusion)
            if gold not in cands:
                cands.append(gold)
            slots += len(cands)
            for cand in cands:
                keys = featurize(sample.source, j, cand)
                feat_refs += len(keys)
                names.update(keys)
    return {
        "model.positions": sum(len(s.source) for s in corpus),
        "model.slots": slots,
        "model.feat_refs": feat_refs,
        "model.features": len(names),
    }


# the fixture's own confusion set makes every gold character a candidate; an
# empty one puts every gold correction into a hidden slot
@pytest.mark.parametrize("confusion", [overfit_fixture()[1], ConfusionSet()],
                         ids=["candidates", "hidden-gold"])
def test_encoding_counters_keep_their_meaning(confusion):
    spans = load_spans()
    corpus, _ = overfit_fixture()
    manifest = arrange_shuffled_baseline(corpus.ids(), seed=0)
    enc = encode_corpus(corpus, confusion)
    rec = spans.Recorder()
    spans._count_encode(rec, (corpus, confusion), enc)
    result = train_encoded(enc, manifest)
    spans._count_train(rec, (enc, manifest), result)

    expected = expected_counts(corpus, confusion)
    assert {key: rec.counts[key] for key in expected} == expected
    assert rec.counts["model.positions_visited"] == expected["model.positions"]
    assert rec.counts["model.updates"] == result[2] > 0
