"""The package's import contract.

``import spellcl`` and the numpy-free commands must not load numpy: the
pipeline runs one process per command, and numpy's import is most of a
process's start-up.  Each check runs in a fresh interpreter, because the
test process has loaded numpy long before.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from spellcl.corpus import Corpus, Sample, confusion_to_tsv, corpus_to_tsv

from helpers import overfit_fixture

ROOT = Path(__file__).resolve().parents[1]

# The public names and their home modules, as the package exported them
# when every module was imported eagerly.
EXPORTS = {
    "corpus": ["ConfusionSet", "Corpus", "Sample", "corpus_to_tsv", "derive_error_positions",
               "inject_errors", "load_confusion_set", "load_corpus", "parse_confusion_set",
               "parse_corpus", "save_corpus"],
    "curriculum": ["CurriculumManifest", "arrange_annealing", "arrange_random_stages",
                   "arrange_shuffled_baseline", "arrange_sorted_only", "load_manifest",
                   "save_manifest"],
    "difficulty": ["DifficultyRecord", "score_corpus"],
    "embed": ["ContextualEmbedding", "FileEmbeddingProvider", "HashedEmbedder",
              "load_embeddings"],
    "metrics": ["EvalReport", "evaluate"],
    "model": ["CorrectorModel", "load_model", "predict_corpus", "save_model", "train"],
}


def python(code: str, *args) -> str:
    """Run ``code`` in a fresh interpreter with ``src`` on the path; its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code), *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_cli_loads_no_numpy():
    assert python("""
        import sys
        import spellcl, spellcl.cli
        print("numpy" in sys.modules)
    """) == "False\n"


def _run_command_without_numpy(*argv):
    assert python("""
        import sys
        from spellcl.cli import main
        assert main(sys.argv[1:]) == 0
        print("numpy" in sys.modules)
    """, *argv).endswith("False\n")


def test_inject_loads_no_numpy(tmp_path):
    corpus, confusion = overfit_fixture()
    clean = Corpus(tuple(Sample(s.id, s.target, s.target) for s in corpus))
    (tmp_path / "clean.tsv").write_text(corpus_to_tsv(clean), encoding="utf-8")
    (tmp_path / "conf.tsv").write_text(confusion_to_tsv(confusion), encoding="utf-8")
    _run_command_without_numpy("inject", "--input", tmp_path / "clean.tsv", "--confusion",
                               tmp_path / "conf.tsv", "--rate", "0.5", "--out", tmp_path)
    assert (tmp_path / "injected.tsv").exists()


def test_char_similarity_score_loads_no_numpy(tmp_path):
    # only contextual scoring builds an embedding provider
    corpus, confusion = overfit_fixture()
    (tmp_path / "train.tsv").write_text(corpus_to_tsv(corpus), encoding="utf-8")
    (tmp_path / "conf.tsv").write_text(confusion_to_tsv(confusion), encoding="utf-8")
    _run_command_without_numpy("score", "--train", tmp_path / "train.tsv", "--policy",
                               "char_similarity", "--confusion", tmp_path / "conf.tsv",
                               "--out", tmp_path)
    assert (tmp_path / "difficulty.tsv").exists()


def test_arrange_loads_no_numpy(tmp_path):
    scores = tmp_path / "difficulty.tsv"
    scores.write_text("".join(f"s{i}\t{i / 10:.9f}\tcontextual\n" for i in range(6)),
                      encoding="utf-8")
    _run_command_without_numpy("arrange", "--scores", scores, "--policy", "annealing",
                               "--k", "2", "--out", tmp_path)
    corpus, _ = overfit_fixture()
    (tmp_path / "train.tsv").write_text(corpus_to_tsv(corpus), encoding="utf-8")
    _run_command_without_numpy("arrange", "--train", tmp_path / "train.tsv", "--policy",
                               "random_stages", "--k", "2", "--out", tmp_path / "ids")
    assert (tmp_path / "manifest.jsonl").exists()
    assert (tmp_path / "ids" / "manifest.jsonl").exists()


def test_scoring_predicted_strings_loads_no_numpy():
    # another system's predictions are scored without the corrector
    assert python("""
        import sys
        from spellcl.corpus import parse_corpus
        from spellcl.metrics import evaluate, reports_to_tsv
        gold = parse_corpus("e1\\tAB\\tXB\\nc1\\tCD\\tCD\\n")
        reports_to_tsv(evaluate({"e1": "XB", "c1": "CY"}, gold))
        print("numpy" in sys.modules, "spellcl.model" in sys.modules)
    """) == "False False\n"


def test_all_lists_every_public_name_from_its_home_module():
    assert python("""
        import importlib, json, sys
        import spellcl
        exports = json.loads(sys.argv[1])
        assert spellcl.__all__ == [name for names in exports.values() for name in names]
        for module, names in exports.items():
            home = importlib.import_module("spellcl." + module)
            for name in names:
                assert getattr(spellcl, name) is getattr(home, name), name
                assert getattr(spellcl, name).__module__ == home.__name__, name
        print("ok")
    """, json.dumps(EXPORTS)) == "ok\n"


def test_star_import_and_unknown_names():
    assert python("""
        import sys
        import spellcl
        try:
            spellcl.no_such_name
        except AttributeError as exc:
            assert "no_such_name" in str(exc)
        else:
            raise AssertionError("spellcl.no_such_name resolved")
        assert not hasattr(spellcl, "_kernels")
        from spellcl import _kernels  # an unknown attribute falls through to the submodule
        assert _kernels is sys.modules["spellcl._kernels"]
        namespace = {}
        exec("from spellcl import *", namespace)
        assert set(spellcl.__all__) <= set(namespace)
        assert namespace["train"] is sys.modules["spellcl.model"].train
        print("ok")
    """) == "ok\n"

