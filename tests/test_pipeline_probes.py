"""The benchmark's probes on the five pipeline commands.

``perfbench/spans.py`` wraps module attributes.  The commands import
``model``, ``metrics`` and ``embed`` in their own bodies, so a call bound
at import time (``from .difficulty import load_records`` at the top of
``cli.py``) would bypass its probe and read 0 in the benchmark.  This test
runs each command traced through the benchmark's launcher, as the
pipeline workload does, and checks that its probes record calls.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from spellcl.corpus import Corpus, Sample, confusion_to_tsv, corpus_to_tsv

from helpers import overfit_fixture

ROOT = Path(__file__).resolve().parents[1]

# command -> probes its traced run must pass through
COMMAND_PROBES = {
    "inject": ("corpus.inject_errors",),
    "score": ("difficulty.score_corpus", "embed.hash_embed"),
    "arrange": ("difficulty.load_records", "curriculum.save_manifest"),
    "train": ("model.train", "_kernels.train_pass", "model.save_model"),
    "evaluate": ("model.load_model", "model.predict_corpus", "metrics.evaluate"),
}


def launch(record: Path, *argv) -> Counter:
    """Span names of one traced command run through ``perfbench/launch.py``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "launch.py"), str(record), "1",
         *map(str, argv)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return Counter(span[0] for span in json.loads(record.read_text())["spans"])


def test_traced_pipeline_passes_every_command_probe(tmp_path):
    corpus, confusion = overfit_fixture()
    clean = Corpus(tuple(Sample(s.id, s.target, s.target) for s in corpus))
    paths = {name: tmp_path / f"{name}.tsv" for name in ("clean", "train", "conf")}
    paths["clean"].write_text(corpus_to_tsv(clean), encoding="utf-8")
    paths["train"].write_text(corpus_to_tsv(corpus), encoding="utf-8")
    paths["conf"].write_text(confusion_to_tsv(confusion), encoding="utf-8")
    out = tmp_path / "out"
    commands = {
        "inject": ("--input", paths["clean"], "--confusion", paths["conf"], "--rate", "0.5"),
        "score": ("--train", paths["train"], "--policy", "contextual"),
        "arrange": ("--scores", out / "difficulty.tsv", "--policy", "annealing", "--k", "2"),
        "train": ("--manifest", out / "manifest.jsonl", "--train", paths["train"],
                  "--confusion", paths["conf"]),
        "evaluate": ("--model", out / "model.tsv", "--test", paths["train"],
                     "--confusion", paths["conf"]),
    }
    for command, args in commands.items():
        calls = launch(tmp_path / f"{command}.json", command, *args, "--out", out)
        assert calls["cli.main"] == 1, command
        for name in COMMAND_PROBES[command]:
            assert calls[name] > 0, (command, name)
