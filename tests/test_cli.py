"""End-to-end command-line behavior: pipelines, config handling, exit codes."""

import json
import os

import pytest

from spellcl.cli import main
from spellcl.corpus import confusion_to_tsv, corpus_to_tsv, inject_errors, load_corpus

from helpers import (
    make_clean_corpus,
    make_symmetric_confusion,
    make_vocab,
    overfit_fixture,
)


@pytest.fixture
def workdir(tmp_path):
    """Small injected train/test corpora plus a confusion set, on disk."""
    vocab = make_vocab(15)
    confusion = make_symmetric_confusion(vocab, n_pairs=15, seed=0)
    train_clean = make_clean_corpus(vocab, 30, seed=1, min_len=5, max_len=10)
    test_clean = make_clean_corpus(vocab, 12, seed=2, min_len=5, max_len=10, prefix="t")
    train = inject_errors(train_clean, confusion, 0.15, seed=3)
    test = inject_errors(test_clean, confusion, 0.15, seed=4)
    paths = {
        "train": tmp_path / "train.tsv",
        "test": tmp_path / "test.tsv",
        "clean": tmp_path / "clean.tsv",
        "confusion": tmp_path / "confusion.tsv",
    }
    paths["train"].write_text(corpus_to_tsv(train), encoding="utf-8")
    paths["test"].write_text(corpus_to_tsv(test), encoding="utf-8")
    paths["clean"].write_text(corpus_to_tsv(train_clean), encoding="utf-8")
    paths["confusion"].write_text(confusion_to_tsv(confusion), encoding="utf-8")
    paths["root"] = tmp_path
    return paths


def run(*argv) -> int:
    return main([str(a) for a in argv])


# ===========================================================================
# inject
# ===========================================================================

class TestInject:

    def test_writes_corpus_and_config(self, workdir):
        out = workdir["root"] / "inj"
        code = run("inject", "--input", workdir["clean"], "--confusion",
                   workdir["confusion"], "--rate", "0.2", "--seed", "5", "--out", out)
        assert code == 0
        noisy = load_corpus(out / "injected.tsv")
        assert len(noisy) == 30
        assert all(s.source == s.target or s.error_positions for s in noisy)
        assert (out / "inject_config.json").exists()

    def test_missing_input_is_usage_error(self, workdir):
        code = run("inject", "--input", workdir["root"] / "nope.tsv",
                   "--confusion", workdir["confusion"], "--out", workdir["root"] / "x")
        assert code == 2

    def test_bad_rate(self, workdir):
        code = run("inject", "--input", workdir["clean"], "--confusion",
                   workdir["confusion"], "--rate", "1.5", "--out", workdir["root"] / "x")
        assert code == 2


# ===========================================================================
# score
# ===========================================================================

class TestScore:

    def test_three_sample_corpus_three_lines(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("a\tAB\tAB\nb\tCD\tCD\nc\tEF\tEF\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("score", "--train", path, "--policy", "contextual", "--out", out) == 0
        lines = (out / "difficulty.tsv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3

    def test_identical_tsv_across_runs(self, workdir):
        out1, out2 = workdir["root"] / "s1", workdir["root"] / "s2"
        for out in (out1, out2):
            assert run("score", "--train", workdir["train"], "--policy", "contextual",
                       "--out", out) == 0
        assert (out1 / "difficulty.tsv").read_bytes() == (out2 / "difficulty.tsv").read_bytes()

    def test_char_similarity_needs_confusion(self, workdir):
        code = run("score", "--train", workdir["train"], "--policy", "char_similarity",
                   "--out", workdir["root"] / "x")
        assert code == 2

    def test_char_similarity(self, workdir):
        out = workdir["root"] / "cs"
        assert run("score", "--train", workdir["train"], "--policy", "char_similarity",
                   "--confusion", workdir["confusion"], "--out", out) == 0
        lines = (out / "difficulty.tsv").read_text(encoding="utf-8").splitlines()
        assert all(ln.split("\t")[2] == "char_similarity" for ln in lines)


# ===========================================================================
# arrange
# ===========================================================================

class TestArrange:

    def _scores(self, workdir, n=9):
        path = workdir["root"] / "scores.tsv"
        rows = "".join(f"id{i}\t{float(i):.9f}\tcontextual\n" for i in range(n))
        path.write_text(rows, encoding="utf-8")
        return path

    def test_annealing_k3_n9_four_stage_lines(self, workdir):
        out = workdir["root"] / "arr"
        assert run("arrange", "--scores", self._scores(workdir), "--policy", "annealing",
                   "--k", "3", "--seed", "1", "--out", out) == 0
        lines = (out / "manifest.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 4  # metadata + k+1 stages

    def test_k_larger_than_n_is_usage_error(self, workdir):
        code = run("arrange", "--scores", self._scores(workdir, n=2), "--policy",
                   "annealing", "--k", "5", "--out", workdir["root"] / "x")
        assert code == 2

    def test_sorted_only_single_stage(self, workdir):
        out = workdir["root"] / "so"
        assert run("arrange", "--scores", self._scores(workdir), "--policy",
                   "sorted_only", "--out", out) == 0
        lines = (out / "manifest.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["ids"] == [f"id{i}" for i in range(9)]

    def test_baseline_from_corpus_ids(self, workdir):
        out = workdir["root"] / "bl"
        assert run("arrange", "--train", workdir["train"], "--policy",
                   "shuffled_baseline", "--seed", "3", "--out", out) == 0
        lines = (out / "manifest.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2


# ===========================================================================
# train / evaluate
# ===========================================================================

class TestTrainEvaluate:

    def _pipeline(self, workdir, outname="run"):
        root = workdir["root"] / outname
        assert run("score", "--train", workdir["train"], "--policy", "contextual",
                   "--out", root) == 0
        assert run("arrange", "--scores", root / "difficulty.tsv", "--policy",
                   "annealing", "--k", "3", "--seed", "0", "--out", root) == 0
        assert run("train", "--manifest", root / "manifest.jsonl", "--train",
                   workdir["train"], "--confusion", workdir["confusion"],
                   "--out", root) == 0
        assert run("evaluate", "--model", root / "model.tsv", "--test",
                   workdir["test"], "--confusion", workdir["confusion"],
                   "--out", root) == 0
        return root

    def test_full_pipeline_produces_report(self, workdir):
        root = self._pipeline(workdir)
        lines = (root / "report.tsv").read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("level\t")
        assert lines[1].startswith("detection\t")
        assert lines[2].startswith("correction\t")

    def test_byte_identical_reports(self, workdir):
        # identical configs (same paths) rerun end to end: all artifacts
        # must come out byte-identical
        root = self._pipeline(workdir, "runA")
        names = ("difficulty.tsv", "manifest.jsonl", "model.tsv", "report.tsv")
        first = {name: (root / name).read_bytes() for name in names}
        again = self._pipeline(workdir, "runA")
        for name in names:
            assert (again / name).read_bytes() == first[name]
        # artifacts that embed no paths are stable across output dirs too
        other = self._pipeline(workdir, "runB")
        for name in ("difficulty.tsv", "model.tsv", "report.tsv"):
            assert (other / name).read_bytes() == first[name]

    def test_overfit_correction_f1_reaches_one(self, tmp_path):
        corpus, confusion = overfit_fixture()
        cpath = tmp_path / "tiny.tsv"
        fpath = tmp_path / "conf.tsv"
        cpath.write_text(corpus_to_tsv(corpus), encoding="utf-8")
        fpath.write_text(confusion_to_tsv(confusion), encoding="utf-8")
        out = tmp_path / "out"
        assert run("score", "--train", cpath, "--policy", "contextual", "--out", out) == 0
        assert run("arrange", "--scores", out / "difficulty.tsv", "--policy",
                   "annealing", "--k", "2", "--seed", "0", "--out", out) == 0
        assert run("train", "--manifest", out / "manifest.jsonl", "--train", cpath,
                   "--confusion", fpath, "--out", out) == 0
        assert run("evaluate", "--model", out / "model.tsv", "--test", cpath,
                   "--confusion", fpath, "--out", out) == 0
        corr = (out / "report.tsv").read_text(encoding="utf-8").splitlines()[2].split("\t")
        assert corr[0] == "correction"
        assert corr[4] == "1.0000"

    def test_empty_test_corpus_is_usage_error(self, workdir):
        root = self._pipeline(workdir, "runE")
        empty = workdir["root"] / "empty.tsv"
        empty.write_text("", encoding="utf-8")
        code = run("evaluate", "--model", root / "model.tsv", "--test", empty,
                   "--confusion", workdir["confusion"], "--out", workdir["root"] / "x")
        assert code == 2


# ===========================================================================
# ablate / sweep-k
# ===========================================================================

class TestAblate:

    def test_five_mode_table_baseline_first(self, workdir, capsys):
        out = workdir["root"] / "abl"
        code = run("ablate", "--train", workdir["train"], "--test", workdir["test"],
                   "--confusion", workdir["confusion"], "--k", "3",
                   "--seeds", "0,1,2", "--out", out)
        assert code == 0
        lines = (out / "ablation.tsv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 6
        modes = [ln.split("\t")[0] for ln in lines[1:]]
        assert modes == ["shuffled_baseline", "sorted_only", "random_stages",
                         "annealing_char_similarity", "annealing_contextual"]
        assert lines[1].split("\t")[-1] == "+0.0000"  # baseline delta

    def test_no_errors_anywhere_all_modes_identical(self, workdir):
        out = workdir["root"] / "degen"
        code = run("ablate", "--train", workdir["clean"], "--test", workdir["clean"],
                   "--confusion", workdir["confusion"], "--k", "2",
                   "--seeds", "0,1", "--out", out)
        assert code == 0
        rows = (out / "ablation.tsv").read_text(encoding="utf-8").splitlines()[1:]
        f1s = {row.split("\t")[3] for row in rows}
        assert len(f1s) == 1


class TestSweepK:

    def test_one_row_per_k(self, workdir):
        out = workdir["root"] / "sweep"
        code = run("sweep-k", "--train", workdir["train"], "--test", workdir["test"],
                   "--confusion", workdir["confusion"], "--k-values", "1,2,4",
                   "--seeds", "0,1", "--out", out)
        assert code == 0
        lines = (out / "sweep.tsv").read_text(encoding="utf-8").splitlines()
        assert [ln.split("\t")[0] for ln in lines] == ["k", "1", "2", "4"]

    def test_duplicate_k_is_usage_error(self, workdir):
        code = run("sweep-k", "--train", workdir["train"], "--test", workdir["test"],
                   "--confusion", workdir["confusion"], "--k-values", "2,2",
                   "--seeds", "0", "--out", workdir["root"] / "x")
        assert code == 2

    def test_rows_carry_mean_over_seeds(self, workdir):
        # averaging oracle: the k row equals the mean of per-seed runs
        # computed independently through the library
        from spellcl.corpus import load_confusion_set
        from spellcl.curriculum import arrange_annealing
        from spellcl.difficulty import score_corpus
        from spellcl.embed import HashedEmbedder
        from spellcl.metrics import evaluate
        from spellcl.model import predict_corpus, train as train_model

        out = workdir["root"] / "sweepavg"
        assert run("sweep-k", "--train", workdir["train"], "--test", workdir["test"],
                   "--confusion", workdir["confusion"], "--k-values", "2",
                   "--seeds", "0,1,2", "--out", out) == 0
        row = (out / "sweep.tsv").read_text(encoding="utf-8").splitlines()[1].split("\t")

        train_c = load_corpus(workdir["train"])
        test_c = load_corpus(workdir["test"])
        confusion = load_confusion_set(workdir["confusion"])
        records = score_corpus(train_c, "contextual", provider=HashedEmbedder())
        f1s = []
        for seed in (0, 1, 2):
            manifest = arrange_annealing(records, k=2, seed=seed)
            model = train_model(manifest, train_c, confusion)
            preds = predict_corpus(model, test_c)
            f1s.append(evaluate(preds, test_c, "correction").f1)
        assert row[2] == f"{sum(f1s) / len(f1s):.4f}"


# ===========================================================================
# config handling
# ===========================================================================

class TestConfig:

    def test_config_file_with_flag_override(self, workdir):
        cfg = {
            "train": str(workdir["train"]),
            "policy": "contextual",
            "dim": 32,
        }
        cfg_path = workdir["root"] / "cfg.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        out = workdir["root"] / "cfgout"
        assert run("score", "--config", cfg_path, "--out", out) == 0
        resolved = json.loads((out / "score_config.json").read_text(encoding="utf-8"))
        assert resolved["dim"] == 32
        assert resolved["out"] == str(out)

    def test_unknown_config_key(self, workdir):
        cfg_path = workdir["root"] / "bad.json"
        cfg_path.write_text('{"bogus": 1}', encoding="utf-8")
        assert run("score", "--config", cfg_path, "--out", workdir["root"] / "x") == 2

    def test_backend_flag_is_usage_error(self, workdir):
        assert run("ablate", "--backend", "numpy", "--train", workdir["train"],
                   "--test", workdir["test"], "--confusion", workdir["confusion"],
                   "--out", workdir["root"] / "x") == 2

    def test_backend_config_key_is_usage_error(self, workdir, capsys):
        cfg_path = workdir["root"] / "backend.json"
        cfg_path.write_text('{"backend": "numpy"}', encoding="utf-8")
        assert run("ablate", "--config", cfg_path, "--train", workdir["train"],
                   "--test", workdir["test"], "--confusion", workdir["confusion"],
                   "--out", workdir["root"] / "x") == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_missing_required_flag(self, workdir):
        assert run("score", "--out", workdir["root"] / "x") == 2

    def test_unknown_subcommand(self):
        assert run("frobnicate") == 2

    def test_data_error_exits_one(self, workdir):
        # a structurally broken corpus is a data error, not a usage error
        bad = workdir["root"] / "bad.tsv"
        bad.write_text("x\tABC\tAB\n", encoding="utf-8")
        assert run("score", "--train", bad, "--policy", "contextual",
                   "--out", workdir["root"] / "x") == 1


class TestFileProvider:

    def test_score_with_external_embeddings_matches_hashed(self, workdir):
        # export the hashed embeddings of the corpus, then score through the
        # file-provider interface; the two routes must agree exactly
        from spellcl.embed import HashedEmbedder, embed_corpus, embeddings_to_text

        corpus = load_corpus(workdir["train"])
        table = embed_corpus(corpus, HashedEmbedder(window=2, dim=64))
        emb_path = workdir["root"] / "vectors.tsv"
        emb_path.write_text(embeddings_to_text(table, dim=64), encoding="utf-8")

        out_hashed = workdir["root"] / "via_hashed"
        out_file = workdir["root"] / "via_file"
        assert run("score", "--train", workdir["train"], "--policy", "contextual",
                   "--out", out_hashed) == 0
        assert run("score", "--train", workdir["train"], "--policy", "contextual",
                   "--provider", "file", "--embeddings", emb_path,
                   "--out", out_file) == 0
        assert ((out_hashed / "difficulty.tsv").read_bytes()
                == (out_file / "difficulty.tsv").read_bytes())

    def test_file_provider_without_embeddings_flag(self, workdir):
        assert run("score", "--train", workdir["train"], "--policy", "contextual",
                   "--provider", "file", "--out", workdir["root"] / "x") == 2
