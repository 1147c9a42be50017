"""End-to-end command-line behavior: pipelines, config handling, exit codes."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spellcl.cli import main
from spellcl.corpus import Corpus, confusion_to_tsv, corpus_to_tsv, inject_errors, load_corpus

from helpers import (
    embed_corpus,
    embeddings_text,
    make_clean_corpus,
    make_markov_corpus,
    make_symmetric_confusion,
    make_vocab,
    overfit_fixture,
)

ROOT = Path(__file__).resolve().parents[1]


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


@pytest.fixture
def markov_workdir(tmp_path):
    """Bigram-walk train/test corpora on which every ablation mode scores differently."""
    vocab = make_vocab(15)
    confusion = make_symmetric_confusion(vocab, n_pairs=15, seed=0)
    train = make_markov_corpus(vocab, 120, seed=1, min_len=5, max_len=10)
    test = make_markov_corpus(vocab, 40, seed=2, min_len=5, max_len=10, prefix="t")
    paths = {name: tmp_path / f"{name}.tsv" for name in ("train", "test", "confusion")}
    paths["train"].write_text(corpus_to_tsv(inject_errors(train, confusion, 0.15, seed=3)),
                              encoding="utf-8")
    paths["test"].write_text(corpus_to_tsv(inject_errors(test, confusion, 0.15, seed=4)),
                             encoding="utf-8")
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

    @pytest.mark.parametrize("command, flag", [("score", "--train"), ("inject", "--input")])
    def test_crlf_input_file_is_a_data_error(self, workdir, capsys, command, flag):
        crlf = workdir["root"] / "crlf.tsv"
        crlf.write_bytes(workdir["clean"].read_bytes().replace(b"\n", b"\r\n"))
        out = workdir["root"] / "x"
        options = ("--policy", "contextual") if command == "score" else (
            "--confusion", workdir["confusion"])
        assert run(command, flag, crlf, *options, "--out", out) == 1
        assert capsys.readouterr().err == (
            "error: line 1: CRLF line ending; the format requires LF line endings\n")
        assert not out.exists()

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

    def test_repeated_score_id_is_a_data_error(self, workdir, capsys):
        path = workdir["root"] / "scores.tsv"
        path.write_text("a\t0.1\tcontextual\nb\t0.2\tcontextual\n"
                        "a\t0.3\tcontextual\nc\t0.0\tcontextual\n", encoding="utf-8")
        out = workdir["root"] / "so"
        assert run("arrange", "--scores", path, "--policy", "sorted_only", "--out", out) == 1
        assert "line 3: repeated sample ID 'a'" in capsys.readouterr().err
        assert not (out / "manifest.jsonl").exists()

    def test_empty_score_id_is_a_data_error(self, workdir, capsys):
        path = workdir["root"] / "scores.tsv"
        path.write_text("\t0.1\tcontextual\nb\t0.2\tcontextual\n", encoding="utf-8")
        out = workdir["root"] / "so"
        assert run("arrange", "--scores", path, "--policy", "sorted_only", "--out", out) == 1
        assert "line 1: empty sample ID" in capsys.readouterr().err
        assert not (out / "manifest.jsonl").exists()

    @pytest.mark.parametrize("policy, flag", [("annealing", "--scores"),
                                              ("sorted_only", "--scores"),
                                              ("random_stages", "--train"),
                                              ("shuffled_baseline", "--train")])
    def test_manifest_names_the_file_read(self, workdir, monkeypatch, policy, flag):
        # "corpus" is the path as given on the command line, relative here
        monkeypatch.chdir(workdir["root"])
        given = self._scores(workdir).name if flag == "--scores" else workdir["train"].name
        assert run("arrange", flag, given, "--policy", policy, "--out", "arr") == 0
        meta = json.loads((workdir["root"] / "arr" / "manifest.jsonl")
                          .read_text(encoding="utf-8").splitlines()[0])
        assert meta["policy"] == policy and meta["corpus"] == given

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

    @pytest.mark.parametrize("stage", ['{"stage": 1, "ids": [["s1"]]}', "7"])
    def test_malformed_manifest_is_a_data_error(self, workdir, capsys, stage):
        manifest = workdir["root"] / "bad.jsonl"
        manifest.write_text('{"policy": "annealing", "k": 1, "seed": 0, "corpus": ""}\n'
                            + stage + "\n", encoding="utf-8")
        out = workdir["root"] / "bad"
        assert run("train", "--manifest", manifest, "--train", workdir["train"],
                   "--confusion", workdir["confusion"], "--out", out) == 1
        assert "error: line 2: " in capsys.readouterr().err
        assert not (out / "model.tsv").exists()

    def test_manifest_metadata_of_the_wrong_type_is_a_data_error(self, workdir, capsys):
        # before, train exited 0 on it and wrote a model
        manifest = workdir["root"] / "typed.jsonl"
        manifest.write_text('{"policy": "annealing", "k": "many", "seed": [1], "corpus": 5}\n'
                            '{"stage": true, "ids": ["s1"]}\n', encoding="utf-8")
        out = workdir["root"] / "typed"
        assert run("train", "--manifest", manifest, "--train", workdir["train"],
                   "--confusion", workdir["confusion"], "--out", out) == 1
        assert "error: line 1: 'k' must be an integer >= 1, got 'many'" in capsys.readouterr().err
        assert not (out / "model.tsv").exists()

    def test_unknown_model_feature_is_a_data_error(self, tmp_path, capsys):
        # before, the row loaded silently and was never read
        model = tmp_path / "model.tsv"
        model.write_text("# spellcl-model schema=1 window=2\nC|a\t1.0\nC|ab\t2.0\n",
                         encoding="utf-8")
        (tmp_path / "test.tsv").write_text("t1\tab\tab\n", encoding="utf-8")
        (tmp_path / "conf.tsv").write_text("a\tb\n", encoding="utf-8")
        assert run("evaluate", "--model", model, "--test", tmp_path / "test.tsv",
                   "--confusion", tmp_path / "conf.tsv", "--out", tmp_path / "out") == 1
        assert "error: line 3: unknown feature 'C|ab'" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.tsv").exists()

    @pytest.mark.parametrize("weights", [("inf", "-inf"), ("1e308", "1e308")],
                             ids=["nan", "overflow"])
    def test_nan_scoring_model_evaluates_without_warning(self, tmp_path, weights):
        # C|a inf plus L|<BOS>|a -inf makes the observed slot score NaN, and
        # 1e308 plus 1e308 overflows to inf; the argmax's rules decide both,
        # and no numpy warning reaches stderr
        model = tmp_path / "model.tsv"
        model.write_text("# spellcl-model schema=1 window=2\nC|a\t{}\nL|<BOS>|a\t{}\n"
                         .format(*weights), encoding="utf-8")
        (tmp_path / "test.tsv").write_text("t1\tab\tab\n", encoding="utf-8")
        (tmp_path / "conf.tsv").write_text("a\tb\n", encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-c",
             "import sys; from spellcl.cli import main; sys.exit(main(sys.argv[1:]))",
             "evaluate", "--model", str(model), "--test", str(tmp_path / "test.tsv"),
             "--confusion", str(tmp_path / "conf.tsv"), "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert (tmp_path / "out" / "report.tsv").exists()

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

    @pytest.mark.parametrize("which", ["train", "test"])
    def test_empty_corpus_is_usage_error(self, workdir, capsys, which):
        empty = workdir["root"] / "empty.tsv"
        empty.write_text("", encoding="utf-8")
        corpora = {"train": workdir["train"], "test": workdir["test"], which: empty}
        out = workdir["root"] / "x"
        assert run("ablate", "--train", corpora["train"], "--test", corpora["test"],
                   "--confusion", workdir["confusion"], "--out", out) == 2
        assert capsys.readouterr().err == f"error: {which} corpus is empty\n"
        assert not out.exists()

    def test_no_errors_anywhere_all_modes_identical(self, workdir):
        out = workdir["root"] / "degen"
        code = run("ablate", "--train", workdir["clean"], "--test", workdir["clean"],
                   "--confusion", workdir["confusion"], "--k", "2",
                   "--seeds", "0,1", "--out", out)
        assert code == 0
        rows = (out / "ablation.tsv").read_text(encoding="utf-8").splitlines()[1:]
        f1s = {row.split("\t")[3] for row in rows}
        assert len(f1s) == 1


    def test_rows_carry_mean_over_seeds(self, markov_workdir):
        # mode-table oracle: every row equals the mean of per-seed runs,
        # each arranged and scored independently through the library
        from spellcl.corpus import load_confusion_set
        from spellcl.curriculum import (
            arrange_annealing,
            arrange_random_stages,
            arrange_shuffled_baseline,
            arrange_sorted_only,
        )
        from spellcl.difficulty import score_corpus
        from spellcl.embed import HashedEmbedder
        from spellcl.metrics import evaluate
        from spellcl.model import predict_corpus, train as train_model

        workdir = markov_workdir
        out = workdir["root"] / "ablavg"
        assert run("ablate", "--train", workdir["train"], "--test", workdir["test"],
                   "--confusion", workdir["confusion"], "--k", "3",
                   "--seeds", "0,1,2", "--out", out) == 0
        rows = [ln.split("\t") for ln in
                (out / "ablation.tsv").read_text(encoding="utf-8").splitlines()[1:]]
        # the fixture tells the modes apart, so a miswired mode shows
        assert len({row[3] for row in rows}) == 5

        train_c = load_corpus(workdir["train"])
        test_c = load_corpus(workdir["test"])
        confusion = load_confusion_set(workdir["confusion"])
        ids = train_c.ids()
        ctx = score_corpus(train_c, "contextual", provider=HashedEmbedder())
        chs = score_corpus(train_c, "char_similarity", confusion=confusion)
        arrangers = {
            "shuffled_baseline": lambda seed: arrange_shuffled_baseline(ids, seed),
            "sorted_only": lambda seed: arrange_sorted_only(ctx, seed),
            "random_stages": lambda seed: arrange_random_stages(ids, 3, seed),
            "annealing_char_similarity": lambda seed: arrange_annealing(chs, 3, seed),
            "annealing_contextual": lambda seed: arrange_annealing(ctx, 3, seed),
        }
        assert [row[0] for row in rows] == list(arrangers)
        for row in rows:
            det_f1s, corr_f1s = [], []
            for seed in (0, 1, 2):
                model = train_model(arrangers[row[0]](seed), train_c, confusion)
                det, corr = evaluate(predict_corpus(model, test_c), test_c)
                det_f1s.append(det.f1)
                corr_f1s.append(corr.f1)
            assert row[2] == f"{sum(det_f1s) / 3:.4f}", row[0]
            assert row[3] == f"{sum(corr_f1s) / 3:.4f}", row[0]


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

    @pytest.mark.parametrize("command, option, value", [("ablate", "--k", "31"),
                                                        ("sweep-k", "--k-values", "1,31,2")])
    def test_k_above_the_sample_count_exits_before_scoring(self, workdir, capsys, monkeypatch,
                                                           command, option, value):
        # the largest k of the grid is checked before any cell is scored or run
        def no_scoring(*args, **kwargs):
            raise AssertionError("scored before checking k")
        monkeypatch.setattr("spellcl.difficulty.score_corpus", no_scoring)
        out = workdir["root"] / "x"
        assert len(load_corpus(workdir["train"])) == 30
        assert run(command, "--train", workdir["train"], "--test", workdir["test"],
                   "--confusion", workdir["confusion"], option, value, "--out", out) == 2
        assert capsys.readouterr().err == "error: k=31 exceeds the number of samples (30)\n"
        assert not out.exists()

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
        scores = score_corpus(train_c, "contextual", provider=HashedEmbedder())
        f1s = []
        for seed in (0, 1, 2):
            manifest = arrange_annealing(scores, k=2, seed=seed)
            model = train_model(manifest, train_c, confusion)
            _, corr = evaluate(predict_corpus(model, test_c), test_c)
            f1s.append(corr.f1)
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

    @pytest.mark.parametrize("command, name", [
        ("ablate", "seeds"), ("sweep-k", "seeds"), ("sweep-k", "k_values")])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_repeated_list_value_is_usage_error(self, workdir, capsys, command, name, source):
        # a repeated seed would train the same run twice and report a zero sd
        flag = "--" + name.replace("_", "-")
        out = workdir["root"] / "rep"
        argv = [command, "--train", workdir["train"], "--test", workdir["test"],
                "--confusion", workdir["confusion"], "--out", out]
        if command == "sweep-k" and name != "k_values":
            argv += ["--k-values", "1,2"]
        if source == "flag":
            argv += [flag, "3,3"]
        else:
            cfg_path = workdir["root"] / "rep.json"
            cfg_path.write_text(json.dumps({name: [3, 3]}), encoding="utf-8")
            argv += ["--config", cfg_path]
        assert run(*argv) == 2
        assert f"error: {flag}: repeated value in [3, 3]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, name, value", [
        ("ablate", "seeds", "0,,1"), ("ablate", "seeds", "0,1,"), ("sweep-k", "k_values", "1,,8")])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_list_item_is_usage_error(self, workdir, capsys, command, name, value, source):
        # skipping the empty item would run fewer grid cells than were typed
        flag = "--" + name.replace("_", "-")
        out = workdir["root"] / "empty"
        argv = [command, "--train", workdir["train"], "--test", workdir["test"],
                "--confusion", workdir["confusion"], "--out", out]
        given = value
        if source == "flag":
            argv += [flag, value]
        else:
            given = [int(v) if v else "" for v in value.split(",")]
            cfg_path = workdir["root"] / "empty.json"
            cfg_path.write_text(json.dumps({name: given}), encoding="utf-8")
            argv += ["--config", cfg_path]
        assert self._usage_error(capsys, *argv) == (
            f"error: {flag}: expected comma-separated integers, got {given!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, name, value", [
        ("ablate", "seeds", [0, 2**64]), ("arrange", "seed", -1), ("inject", "seed", 2**64)])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_seed_outside_64_bits_is_usage_error(self, workdir, capsys, command, name, value,
                                                 source):
        # the generator reads a seed mod 2**64: 0 and 2**64 would be one seed
        # trained twice, and -1 would silently be 2**64 - 1
        flag = "--" + name
        out = workdir["root"] / "wide"
        argv = {"ablate": ["--train", workdir["train"], "--test", workdir["test"],
                           "--confusion", workdir["confusion"]],
                "arrange": ["--train", workdir["train"], "--policy", "shuffled_baseline"],
                "inject": ["--input", workdir["clean"], "--confusion", workdir["confusion"]]}
        argv = [command, *argv[command], "--out", out]
        if source == "flag":
            argv += [flag, ",".join(map(str, value)) if name == "seeds" else str(value)]
        else:
            cfg_path = workdir["root"] / "wide.json"
            cfg_path.write_text(json.dumps({name: value}), encoding="utf-8")
            argv += ["--config", cfg_path]
        bad = value[-1] if name == "seeds" else value
        assert self._usage_error(capsys, *argv) == (
            f"error: {flag} must be in [0, 18446744073709551615], got {bad}\n")
        assert not out.exists()

    def test_missing_required_flag(self, workdir):
        assert run("score", "--out", workdir["root"] / "x") == 2

    def test_unknown_subcommand(self):
        assert run("frobnicate") == 2

    def test_keys_of_other_commands_are_ignored(self, workdir):
        # one shared pipeline config serves every command that reads it; a key
        # the command's policy does not read is ignored, not checked: --scores
        # names the file that score has yet to write
        out = workdir["root"] / "shared"
        cfg = {"train": str(workdir["train"]), "test": str(workdir["test"]),
               "confusion": str(workdir["confusion"]), "scores": str(out / "difficulty.tsv"),
               "policy": "contextual", "k": 3, "window": 3, "seeds": [0, 1], "rate": 0.5}
        cfg_path = workdir["root"] / "shared.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert run("arrange", "--config", cfg_path, "--policy", "random_stages",
                   "--out", out) == 0
        assert run("score", "--config", cfg_path, "--out", out) == 0
        resolved = json.loads((out / "score_config.json").read_text(encoding="utf-8"))
        assert set(resolved) == {"command", "train", "policy", "window", "dim", "out"}
        assert resolved["window"] == 3
        resolved = json.loads((out / "arrange_config.json").read_text(encoding="utf-8"))
        assert set(resolved) == {"command", "train", "policy", "k", "seed", "out"}
        assert resolved["k"] == 3

    @pytest.mark.parametrize("argv, flag, why", [
        (("score", "--policy", "char_similarity", "--confusion", "confusion",
          "--embeddings", "vectors"), "--embeddings", "--policy char_similarity"),
        (("score", "--policy", "char_similarity", "--confusion", "confusion", "--window", "5"),
         "--window", "--policy char_similarity"),
        (("score", "--policy", "contextual", "--confusion", "confusion"),
         "--confusion", "--policy contextual"),
        (("score", "--policy", "contextual", "--embeddings", "vectors", "--window", "5"),
         "--window", "--embeddings"),
        (("score", "--policy", "contextual", "--embeddings", "vectors", "--dim", "8"),
         "--dim", "--embeddings"),
        (("ablate", "--test", "test", "--confusion", "confusion", "--embeddings", "vectors",
          "--window", "5"), "--window", "--embeddings"),
        (("sweep-k", "--test", "test", "--confusion", "confusion", "--k-values", "2",
          "--embeddings", "vectors", "--dim", "8"), "--dim", "--embeddings"),
        (("arrange", "--policy", "sorted_only", "--scores", "scores", "--k", "3"),
         "--k", "--policy sorted_only"),
        (("arrange", "--policy", "random_stages", "--train", "train", "--scores", "scores"),
         "--scores", "--policy random_stages"),
        (("arrange", "--policy", "annealing", "--scores", "scores", "--train", "train"),
         "--train", "--policy annealing"),
    ], ids=["char_similarity-embeddings", "char_similarity-window", "contextual-confusion",
            "score-embeddings-window", "score-embeddings-dim", "ablate-embeddings-window",
            "sweep-k-embeddings-dim", "sorted_only-k", "random_stages-scores",
            "annealing-train"])
    def test_flag_not_read_is_usage_error(self, workdir, capsys, argv, flag, why):
        # the record of a run names only the inputs it read, so a flag that
        # would not be read is refused rather than recorded
        workdir["vectors"] = workdir["root"] / "vectors.tsv"
        workdir["vectors"].write_text("dim=2\n", encoding="utf-8")
        workdir["scores"] = workdir["root"] / "scores.tsv"
        workdir["scores"].write_text("a\t0.5\tcontextual\n", encoding="utf-8")
        out = workdir["root"] / "unread"
        if argv[0] != "arrange":
            argv += ("--train", "train")
        err = self._usage_error(capsys, *(workdir.get(a, a) for a in argv), "--out", out)
        assert err == f"error: {argv[0]}: {flag} is not read with {why}\n"
        assert not out.exists()

    @pytest.mark.parametrize("policy, source", [
        ("sorted_only", "scores"), ("shuffled_baseline", "train")])
    def test_one_stage_records_hold_no_k(self, workdir, policy, source):
        # neither policy reads --k; the record reruns the command as it ran
        scores = workdir["root"] / "scores.tsv"
        scores.write_text("a\t0.5\tcontextual\nb\t0.1\tcontextual\n", encoding="utf-8")
        first, again = workdir["root"] / "first", workdir["root"] / "again"
        assert run("arrange", "--policy", policy, f"--{source}",
                   scores if source == "scores" else workdir["train"], "--out", first) == 0
        resolved = json.loads((first / "arrange_config.json").read_text(encoding="utf-8"))
        assert set(resolved) == {"command", "policy", source, "seed", "out"}
        assert run("arrange", "--config", first / "arrange_config.json", "--out", again) == 0
        assert ((again / "manifest.jsonl").read_bytes()
                == (first / "manifest.jsonl").read_bytes())

    def test_score_record_holds_only_score_options(self, workdir):
        out = workdir["root"] / "rec"
        assert run("score", "--train", workdir["train"], "--policy", "contextual",
                   "--out", out) == 0
        resolved = json.loads((out / "score_config.json").read_text(encoding="utf-8"))
        assert set(resolved) == {"command", "train", "policy", "window", "dim", "out"}
        assert not {"k", "rate", "seed", "seeds"} & set(resolved)

    def _pipeline(self, workdir, root):
        assert run("inject", "--input", workdir["clean"], "--confusion", workdir["confusion"],
                   "--rate", "0.3", "--seed", "2", "--out", root) == 0
        assert run("score", "--train", root / "injected.tsv", "--policy", "contextual",
                   "--dim", "32", "--out", root) == 0
        assert run("arrange", "--scores", root / "difficulty.tsv", "--policy", "annealing",
                   "--k", "3", "--seed", "1", "--out", root) == 0
        assert run("train", "--manifest", root / "manifest.jsonl", "--train",
                   root / "injected.tsv", "--confusion", workdir["confusion"],
                   "--out", root) == 0
        assert run("evaluate", "--model", root / "model.tsv", "--test", workdir["test"],
                   "--confusion", workdir["confusion"], "--out", root) == 0

    @pytest.mark.parametrize("command, artifact", [
        ("inject", "injected.tsv"), ("score", "difficulty.tsv"),
        ("arrange", "manifest.jsonl"), ("train", "model.tsv"),
        ("evaluate", "report.tsv"),
    ])
    def test_record_reruns_the_command(self, workdir, command, artifact):
        first, again = workdir["root"] / "first", workdir["root"] / "again"
        self._pipeline(workdir, first)
        assert run(command, "--config", first / f"{command}_config.json",
                   "--out", again) == 0
        assert (again / artifact).read_bytes() == (first / artifact).read_bytes()

    def _usage_error(self, capsys, *argv) -> str:
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err
        return err

    def test_bad_values_are_usage_errors(self, workdir, capsys):
        x = workdir["root"] / "x"
        scores = workdir["root"] / "scores.tsv"
        scores.write_text("a\t0.5\tcontextual\nb\t1.5\tcontextual\n", encoding="utf-8")
        score = ("score", "--train", workdir["train"], "--policy", "contextual", "--out", x)
        assert "--k" in self._usage_error(capsys, "arrange", "--scores", scores, "--policy",
                                          "annealing", "--k", "0", "--out", x)
        assert "--dim" in self._usage_error(capsys, *score, "--dim", "1")
        assert "--window" in self._usage_error(capsys, *score, "--window", "200")
        assert "--policy" in self._usage_error(capsys, "score", "--train", workdir["train"],
                                               "--policy", "bogus", "--out", x)
        assert self._usage_error(capsys, "ablate", "--train", workdir["train"], "--test",
                                 workdir["test"], "--confusion", workdir["confusion"],
                                 "--seeds", "", "--out", x) == (
            "error: --seeds: expected comma-separated integers, got ''\n")
        # an input file is checked when it is given, whether optional or not
        nope = workdir["root"] / "nope.tsv"
        assert "file not found for --embeddings" in self._usage_error(
            capsys, *score, "--embeddings", nope)
        assert "file not found for --confusion" in self._usage_error(
            capsys, "score", "--train", workdir["train"], "--policy", "char_similarity",
            "--confusion", nope, "--out", x)

    def test_bad_config_values_are_usage_errors(self, workdir, capsys):
        x = workdir["root"] / "x"
        bad_k = workdir["root"] / "bad_k.json"
        bad_k.write_text('{"k": "x"}', encoding="utf-8")
        assert "--k" in self._usage_error(capsys, "arrange", "--config", bad_k, "--train",
                                          workdir["train"], "--policy", "random_stages",
                                          "--out", x)
        bad_seeds = workdir["root"] / "bad_seeds.json"
        bad_seeds.write_text('{"seeds": "a,b"}', encoding="utf-8")
        assert "--seeds" in self._usage_error(capsys, "ablate", "--config", bad_seeds,
                                              "--train", workdir["train"], "--test",
                                              workdir["test"], "--confusion",
                                              workdir["confusion"], "--out", x)
        score = ("score", "--train", workdir["train"], "--policy", "contextual", "--out", x)
        not_object = workdir["root"] / "number.json"
        not_object.write_text("5", encoding="utf-8")
        assert "JSON object" in self._usage_error(capsys, *score, "--config", not_object)
        assert "bad config file" in self._usage_error(capsys, *score, "--config",
                                                      workdir["root"] / "nope.json")
        gbk = workdir["root"] / "gbk.json"
        gbk.write_bytes('{"seed": "错"}'.encode("gbk"))
        assert self._usage_error(capsys, *score, "--config", gbk) == (
            f"error: bad config file {gbk}: line 1: not UTF-8 (byte 0xb4)\n")

    def test_crlf_config_file_loads(self, workdir):
        # JSON reads a CR as whitespace, so a config saved with CRLF endings still loads
        config = workdir["root"] / "crlf.json"
        config.write_bytes(json.dumps({"policy": "contextual", "train": str(workdir["train"])},
                                      indent=2).replace("\n", "\r\n").encode("utf-8"))
        by_config, by_flags = workdir["root"] / "c", workdir["root"] / "f"
        assert run("score", "--config", config, "--out", by_config) == 0
        assert run("score", "--train", workdir["train"], "--policy", "contextual",
                   "--out", by_flags) == 0
        assert ((by_config / "difficulty.tsv").read_bytes()
                == (by_flags / "difficulty.tsv").read_bytes())

    def test_config_of_another_command_is_usage_error(self, workdir, capsys):
        first = workdir["root"] / "first"
        assert run("score", "--train", workdir["train"], "--policy", "contextual",
                   "--out", first) == 0
        err = self._usage_error(capsys, "train", "--config", first / "score_config.json",
                                "--out", workdir["root"] / "x")
        assert "'score'" in err

    def test_out_naming_a_file_is_usage_error(self, workdir, capsys):
        afile = workdir["root"] / "afile"
        afile.write_text("keep me\n", encoding="utf-8")
        err = self._usage_error(capsys, "score", "--train", workdir["train"], "--policy",
                                "contextual", "--out", afile)
        assert "--out" in err and "not a directory" in err
        assert afile.read_text(encoding="utf-8") == "keep me\n"

    def test_out_below_a_file_is_usage_error(self, workdir, capsys):
        # rejected before any work: otherwise the scores are computed and the
        # first write fails with a NotADirectoryError traceback
        afile = workdir["root"] / "afile"
        afile.write_text("keep me\n", encoding="utf-8")
        err = self._usage_error(capsys, "score", "--train", workdir["train"], "--policy",
                                "contextual", "--out", afile / "sub" / "deeper")
        assert f"--out: {afile} exists and is not a directory" in err
        assert afile.read_text(encoding="utf-8") == "keep me\n"

    def test_rejected_command_creates_no_out_directory(self, workdir, capsys):
        new1, new2 = workdir["root"] / "newdir", workdir["root"] / "newdir2"
        self._usage_error(capsys, "score", "--train", workdir["train"], "--policy", "bogus",
                          "--out", new1)
        self._usage_error(capsys, "arrange", "--policy", "annealing", "--train",
                          workdir["train"], "--out", new2)
        assert not new1.exists() and not new2.exists()

    def test_existing_out_directory_is_written_into(self, workdir, monkeypatch):
        # the benchmark runs every command with --out .
        monkeypatch.chdir(workdir["root"])
        assert run("score", "--train", workdir["train"], "--policy", "contextual",
                   "--out", ".") == 0
        assert (workdir["root"] / "difficulty.tsv").exists()
        assert (workdir["root"] / "score_config.json").exists()

    def test_data_error_exits_one(self, workdir):
        # a structurally broken corpus is a data error, not a usage error
        bad = workdir["root"] / "bad.tsv"
        bad.write_text("x\tABC\tAB\n", encoding="utf-8")
        assert run("score", "--train", bad, "--policy", "contextual",
                   "--out", workdir["root"] / "x") == 1

    def test_non_utf8_input_file_is_a_data_error(self, workdir, capsys):
        # Chinese corpora often come as GBK; the error names the line, not a byte offset
        gbk = workdir["root"] / "gbk.tsv"
        gbk.write_bytes("a\t正字\t正字\n".encode("utf-8") + "b\t错字\t错字\n".encode("gbk"))
        out = workdir["root"] / "x"
        assert run("inject", "--input", gbk, "--confusion", workdir["confusion"],
                   "--out", out) == 1
        assert capsys.readouterr().err == "error: line 2: not UTF-8 (byte 0xb4)\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, inputs", [
        ("inject", ("--input", "clean", "--confusion", "confusion")),
        ("arrange", ("--train", "train", "--policy", "shuffled_baseline")),
    ])
    def test_out_that_is_not_utf8_is_usage_error(self, workdir, capsys, command, inputs):
        # a path from a byte that is not UTF-8 (argv decodes it to a lone
        # surrogate) cannot go into the config record, so it fails before any work
        argv = [workdir.get(a, a) for a in inputs]
        before = sorted(workdir["root"].iterdir())
        assert run(command, *argv, "--out", str(workdir["root"] / "o\udcff")) == 2
        assert capsys.readouterr().err == "error: --out: '%s' is not valid UTF-8\n" % (
            workdir["root"] / "o\\udcff")
        assert sorted(workdir["root"].iterdir()) == before

    @pytest.mark.parametrize("command, inputs, key", [
        ("inject", ("--input", "clean", "--confusion", "confusion"), "out"),
        ("score", ("--policy", "contextual", "--out", "root"), "train"),
    ])
    def test_config_string_with_nul_is_usage_error(self, workdir, capsys, command, inputs,
                                                   key):
        # a JSON string can hold a NUL, which no path can: the first write would
        # fail only after the work, and the input check would call the file missing
        value = str(workdir["root"] / "o\0x")
        config = workdir["root"] / "nul.json"
        config.write_text(json.dumps({key: value}), encoding="utf-8")
        argv = [workdir.get(a, a) for a in inputs]
        before = sorted(workdir["root"].iterdir())
        assert run(command, "--config", config, *argv) == 2
        assert capsys.readouterr().err == (
            f"error: --{key}: {value!r} contains a NUL character\n")
        assert sorted(workdir["root"].iterdir()) == before

    def test_io_error_is_a_data_error(self, workdir, capsys):
        # the output file's path is taken by a directory, so the write itself fails
        out = workdir["root"] / "x"
        (out / "difficulty.tsv").mkdir(parents=True)
        assert run("score", "--train", workdir["train"], "--policy", "contextual",
                   "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Is a directory" in err

    def test_directory_as_input_file_is_usage_error(self, workdir, capsys):
        # a directory is no input file: the usage error names the flag, as for a missing file
        out = workdir["root"] / "x"
        assert run("score", "--train", workdir["root"], "--policy", "contextual",
                   "--out", out) == 2
        assert capsys.readouterr().err == f"error: file not found for --train: {workdir['root']}\n"
        assert not out.exists()

    @pytest.mark.parametrize("files, argv, code, message", [
        ({"scores.tsv": ""}, ("arrange", "--scores", "scores.tsv", "--policy", "annealing"),
         2, "cannot arrange an empty record list"),
        ({"m.jsonl": '{"policy": "annealing", "k": 1, "seed": 0, "corpus": ""}\n'
                     '{"stage": 1, "ids": ["ghost"]}\n',
          "train.tsv": "s1\tAB\tAX\n", "conf.tsv": "B\tX\n"},
         ("train", "--manifest", "m.jsonl", "--train", "train.tsv", "--confusion", "conf.tsv"),
         1, "manifest references unknown sample 'ghost'"),
        ({"train.tsv": "s1\tAB\tAX\n", "v.tsv": "dim=2\ns1\tsource\t0\t1.0\n"},
         ("score", "--train", "train.tsv", "--policy", "contextual", "--embeddings", "v.tsv"),
         1, "line 2: vector has 1 components, header says 2"),
        ({"train.tsv": "s1\tAB\tAX\n",
          "v.tsv": "dim=1\ns1\tsource\t0\t1.0\ns1\tsource\t2\t1.0\n"},
         ("score", "--train", "train.tsv", "--policy", "contextual", "--embeddings", "v.tsv"),
         1, "sample 's1' side 'source': position 1 missing"),
        ({"noisy.tsv": "s1\tAB\tAX\n", "conf.tsv": "B\tX\n"},
         ("inject", "--input", "noisy.tsv", "--confusion", "conf.tsv"),
         1, "inject_errors expects an error-free corpus; sample 's1' has errors"),
    ], ids=["empty_scores", "unknown_manifest_id", "short_vector", "position_gap",
            "errored_inject_input"])
    def test_exit_code_of_each_fault(self, tmp_path, monkeypatch, capsys, files, argv, code,
                                     message):
        monkeypatch.chdir(tmp_path)
        for name, text in files.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        assert run(*argv, "--out", "out") == code
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()


class TestFileProvider:

    def test_score_with_external_embeddings_matches_hashed(self, workdir):
        # export the hashed embeddings of the corpus, then score through the
        # file-provider interface; the two routes must agree exactly
        from spellcl.embed import HashedEmbedder

        corpus = load_corpus(workdir["train"])
        table = embed_corpus(corpus, HashedEmbedder(window=2, dim=64))
        emb_path = workdir["root"] / "vectors.tsv"
        emb_path.write_text(embeddings_text(table, dim=64), encoding="utf-8")

        out_hashed = workdir["root"] / "via_hashed"
        out_file = workdir["root"] / "via_file"
        assert run("score", "--train", workdir["train"], "--policy", "contextual",
                   "--out", out_hashed) == 0
        assert run("score", "--train", workdir["train"], "--policy", "contextual",
                   "--embeddings", emb_path, "--out", out_file) == 0
        assert ((out_hashed / "difficulty.tsv").read_bytes()
                == (out_file / "difficulty.tsv").read_bytes())

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_embedding_of_wrong_length_exits_one_naming_the_sample(self, tmp_path, capsys,
                                                                   extra):
        train = tmp_path / "train.tsv"
        train.write_text("s1\tABC\tABX\n", encoding="utf-8")
        rows = ["dim=2\n"] + [f"s1\t{side}\t{j}\t1.0,0.0\n"
                              for side in ("source", "target") for j in range(3 + extra)]
        emb_path = tmp_path / "vectors.tsv"
        emb_path.write_text("".join(rows), encoding="utf-8")
        capsys.readouterr()
        assert run("score", "--train", train, "--policy", "contextual",
                   "--embeddings", emb_path, "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err == f"error: sample 's1' side source: {3 + extra} vectors for 3 characters\n"

    @pytest.mark.parametrize("lines, message", [
        # finite components whose squared norm is not: the score read nan, exit 0
        (("source\t0\t1.0,0.0", "source\t1\t1e200,1e200", "target\t0\t1.0,0.0",
          "target\t1\t1e200,0.0"), "line 3: vector norm overflows float64"),
        # a non-zero vector whose squared norm underflows: scored 0.0 with a
        # zero-norm warning, exit 0, where the two equal rows' cosine is 1
        (("source\t0\t1.0,0.0", "source\t1\t1e-200,1e-200", "target\t0\t1.0,0.0",
          "target\t1\t1e-200,1e-200"), "line 3: vector norm underflows float64"),
        # read as position 1 missing, on no line
        (("source\t-1\t1.0,0.0", "source\t0\t1.0,0.0", "target\t0\t1.0,0.0",
          "target\t1\t1.0,0.0"), "line 2: position must be >= 0, got -1"),
    ], ids=["norm_overflow", "norm_underflow", "negative_position"])
    def test_bad_vector_file_exits_one_naming_the_line(self, tmp_path, capsys, lines, message):
        train = tmp_path / "train.tsv"
        train.write_text("s1\tab\tac\n", encoding="utf-8")
        emb_path = tmp_path / "vectors.tsv"
        emb_path.write_text("dim=2\n" + "".join(f"s1\t{line}\n" for line in lines),
                            encoding="utf-8")
        capsys.readouterr()
        assert run("score", "--train", train, "--policy", "contextual",
                   "--embeddings", emb_path, "--out", tmp_path / "out") == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_embeddings_alone_score_with_the_files_vectors(self, tmp_path):
        # no other flag: the file's vectors, equal on both sides at the error,
        # give 1.0, where the hashed provider gives 0.8
        train = tmp_path / "train.tsv"
        train.write_text("s1\tABC\tAXC\n", encoding="utf-8")
        emb_path = tmp_path / "vectors.tsv"
        emb_path.write_text("dim=2\n" + "".join(f"s1\t{side}\t{j}\t1.0,{j}.0\n"
                                                for side in ("source", "target")
                                                for j in range(3)), encoding="utf-8")
        for out, extra, score in (("file", ("--embeddings", emb_path), "1.000000000"),
                                  ("hashed", (), "0.800000000")):
            assert run("score", "--train", train, "--policy", "contextual", *extra,
                       "--out", tmp_path / out) == 0
            assert ((tmp_path / out / "difficulty.tsv").read_text(encoding="utf-8")
                    == f"s1\t{score}\tcontextual\n")

    @pytest.mark.parametrize("samples, vectors, difficulty", [
        # an empty sentence first: its (0, dim) rows give the dimension
        (("e", "s1"), ("s1",), "e\t0.000000000\tcontextual\ns1\t1.000000000\tcontextual\n"),
        (("s1", "e"), ("s1",), "s1\t1.000000000\tcontextual\ne\t0.000000000\tcontextual\n"),
        # a file of no vectors at all
        (("e",), (), "e\t0.000000000\tcontextual\n"),
    ], ids=["empty-first", "empty-last", "no-vectors"])
    def test_empty_sentence_scores_zero_from_a_file(self, tmp_path, samples, vectors,
                                                    difficulty):
        # a file holds no row for a 0-character side, so the empty sentence
        # has none to read; it scores 0.0, as the hashed provider scores it
        lines = {"e": "e\t\t\n", "s1": "s1\tABC\tAXC\n"}
        train = tmp_path / "train.tsv"
        train.write_text("".join(lines[sid] for sid in samples), encoding="utf-8")
        emb_path = tmp_path / "vectors.tsv"
        emb_path.write_text("dim=2\n" + "".join(f"{sid}\t{side}\t{j}\t1.0,{j}.0\n"
                                                for sid in vectors
                                                for side in ("source", "target")
                                                for j in range(3)), encoding="utf-8")
        assert run("score", "--train", train, "--policy", "contextual",
                   "--embeddings", emb_path, "--out", tmp_path / "file") == 0
        assert (tmp_path / "file" / "difficulty.tsv").read_text(encoding="utf-8") == difficulty
        assert run("score", "--train", train, "--policy", "contextual",
                   "--out", tmp_path / "hashed") == 0
        hashed = (tmp_path / "hashed" / "difficulty.tsv").read_text(encoding="utf-8")
        assert "e\t0.000000000\tcontextual\n" in hashed

    @pytest.mark.parametrize("corpus, vectors, message", [
        # a row for the empty sentence is one too many
        ("e\t\t\n", "e\tsource\t0\t1.0,0.0\ne\ttarget\t0\t1.0,0.0\n",
         "sample 'e' side source: 1 vectors for 0 characters"),
        # a non-empty sentence still needs its rows
        ("s1\tABC\tAXC\ne\t\t\n", "", "no embedding for sample 's1' side 'source'"),
    ], ids=["rows-for-empty", "none-for-nonempty"])
    def test_empty_sentence_keeps_the_shape_errors(self, tmp_path, capsys, corpus, vectors,
                                                   message):
        train = tmp_path / "train.tsv"
        train.write_text(corpus, encoding="utf-8")
        emb_path = tmp_path / "vectors.tsv"
        emb_path.write_text("dim=2\n" + vectors, encoding="utf-8")
        capsys.readouterr()
        assert run("score", "--train", train, "--policy", "contextual",
                   "--embeddings", emb_path, "--out", tmp_path / "out") == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command, options", [
        ("ablate", ("--k", "2")), ("sweep-k", ("--k-values", "2")),
    ])
    def test_experiment_drivers_read_the_embeddings(self, workdir, capsys, command, options):
        # a file that holds only the first sample's vectors fails on the second
        from spellcl.embed import HashedEmbedder

        corpus = load_corpus(workdir["train"])
        table = embed_corpus(Corpus(corpus.samples[:1]), HashedEmbedder(window=2, dim=64))
        emb_path = workdir["root"] / "vectors.tsv"
        emb_path.write_text(embeddings_text(table, dim=64), encoding="utf-8")
        capsys.readouterr()
        out = workdir["root"] / "out"
        assert run(command, "--train", workdir["train"], "--test", workdir["test"],
                   "--confusion", workdir["confusion"], *options, "--embeddings", emb_path,
                   "--out", out) == 1
        second = corpus.samples[1].id
        assert capsys.readouterr().err == (f"error: no embedding for sample {second!r} "
                                           "side 'source'\n")

    def test_provider_flag_is_rejected(self, workdir, capsys):
        # the provider follows from --embeddings: the flag is gone, and a
        # config record that still holds it is rejected as an unknown key
        score = ("score", "--train", workdir["train"], "--policy", "contextual",
                 "--out", workdir["root"] / "x")
        assert run(*score, "--provider", "hashed") == 2
        assert "unrecognized arguments: --provider" in capsys.readouterr().err
        cfg_path = workdir["root"] / "old.json"
        cfg_path.write_text(json.dumps({"command": "score", "provider": "hashed"}),
                            encoding="utf-8")
        assert run(*score, "--config", cfg_path) == 2
        assert capsys.readouterr().err == "error: unknown config keys: ['provider']\n"
        assert not (workdir["root"] / "x").exists()


# ===========================================================================
# flag surface
# ===========================================================================

class TestSurface:
    """Pins every subcommand's flags and the defaults, so none changes silently."""

    FLAGS = {
        "inject": {"--input", "--confusion", "--rate", "--seed"},
        "score": {"--train", "--policy", "--confusion", "--window", "--dim", "--embeddings"},
        "arrange": {"--scores", "--train", "--policy", "--k", "--seed"},
        "train": {"--manifest", "--train", "--confusion"},
        "evaluate": {"--model", "--test", "--confusion"},
        "ablate": {"--train", "--test", "--confusion", "--k", "--seeds", "--window", "--dim",
                   "--embeddings"},
        "sweep-k": {"--train", "--test", "--confusion", "--k-values", "--seeds", "--window",
                    "--dim", "--embeddings"},
    }

    def test_flags_per_subcommand(self):
        from spellcl.cli import build_parser

        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(self.FLAGS)
        for command, parser in sub.choices.items():
            flags = {opt for action in parser._actions for opt in action.option_strings}
            assert flags == self.FLAGS[command] | {"-h", "--help", "--config", "--out"}, command

    def test_config_keys(self):
        from spellcl.cli import OPTIONS

        assert set(OPTIONS) == {
            "train", "test", "confusion", "input", "scores", "manifest", "model",
            "embeddings", "window", "dim", "policy", "k", "k_values",
            "seed", "seeds", "rate", "out",
        }

    def test_policy_options_name_each_policy_and_options_of_its_command(self):
        from spellcl import curriculum as cur, difficulty as diff
        from spellcl.cli import COMMANDS, POLICY_OPTIONS

        assert set(POLICY_OPTIONS) == {"score", "arrange"}
        assert tuple(POLICY_OPTIONS["score"]) == diff.POLICIES
        assert tuple(POLICY_OPTIONS["arrange"]) == cur.ARRANGEMENTS
        for command, policies in POLICY_OPTIONS.items():
            _, _, required, optional = COMMANDS[command]
            for needs, takes in policies.values():
                assert set(needs) | set(takes) <= set(required + optional), command

    @pytest.mark.parametrize("command", list(FLAGS))
    def test_help_lists_only_the_commands_own_policies(self, capsys, command):
        from spellcl.cli import POLICY_OPTIONS

        assert run(command, "--help") == 0
        help_text = " ".join(capsys.readouterr().out.split())  # argparse wraps lines
        own = POLICY_OPTIONS.get(command, {})
        if own:
            assert "--policy POLICY one of: " + ", ".join(own) in help_text
        others = {p for policies in POLICY_OPTIONS.values() for p in policies} - set(own)
        assert [p for p in sorted(others) if p in help_text] == []

    def test_defaults(self):
        from spellcl.cli import OPTIONS, _help

        defaults = {name: opt.default for name, opt in OPTIONS.items()
                    if opt.default is not None}
        assert defaults == {"window": 2, "dim": 64, "k": 4,
                            "seed": 0, "seeds": [0], "rate": 0.1}
        # the help text shows each default as the flag would take it
        assert _help("seeds").endswith("(default 0)")
        assert _help("rate").endswith("(default 0.1)")
        assert "(default" not in _help("out")
