"""The benchmark's probe contract.

``perfbench/spans.py`` times layers by replacing module attributes
(``spellcl.model.train_encoded``, ``spellcl._kernels.train_pass``, ...)
with wrappers.  A call that bypasses the module attribute, such as a
function object captured at import time, silently reads 0 in the
benchmark.  This test runs a traced ``ablate`` through the benchmark's
own launcher and checks that every grid run passes through every probe.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from spellcl.corpus import confusion_to_tsv, corpus_to_tsv

from helpers import overfit_fixture

ROOT = Path(__file__).resolve().parents[1]

# probes every (mode, k, seed) run of the grid calls at least once
RUN_PROBES = ("model.train_encoded", "_kernels.train_pass", "model.predict_encoded",
              "_kernels.predict_slots", "metrics.evaluate")
ARRANGE_PROBES = ("curriculum.arrange_annealing", "curriculum.arrange_sorted_only",
                  "curriculum.arrange_random_stages", "curriculum.arrange_shuffled_baseline")
SCORE_PROBES = ("embed.HashedEmbedder.embed_side", "embed.hash_embed")


def test_traced_ablate_passes_every_grid_probe(tmp_path):
    corpus, confusion = overfit_fixture()
    train = tmp_path / "train.tsv"
    conf = tmp_path / "conf.tsv"
    train.write_text(corpus_to_tsv(corpus), encoding="utf-8")
    conf.write_text(confusion_to_tsv(confusion), encoding="utf-8")
    record = tmp_path / "record.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)

    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "launch.py"), str(record), "1",
         "ablate", "--train", str(train), "--test", str(train), "--confusion", str(conf),
         "--k", "2", "--seeds", "0", "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr

    traced = json.loads(record.read_text())
    calls = Counter(span[0] for span in traced["spans"])
    n_runs = 5  # five modes, one seed
    for name in RUN_PROBES:
        assert calls[name] >= n_runs, (name, calls[name])
    for name in ARRANGE_PROBES + SCORE_PROBES:
        assert calls[name] > 0, name
    assert sum(calls[name] for name in ARRANGE_PROBES) == n_runs
    # the score embeds each side at its one error position only: 5 samples x 2 sides
    assert traced["counts"]["embed.positions"] == traced["counts"]["embed.error_positions"] == 10
