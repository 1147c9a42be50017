"""End-to-end command-line behavior: pipelines, config handling, exit codes."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spellcl.cli import main
from spellcl.corpus import confusion_to_tsv, corpus_to_tsv, inject_errors, load_corpus

from helpers import (
    embed_corpus,
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

    def test_nan_scoring_model_evaluates_without_warning(self, tmp_path):
        # C|a inf plus L|<BOS>|a -inf makes the observed slot score NaN; the
        # argmax's NaN rule decides it, and no numpy warning reaches stderr
        model = tmp_path / "model.tsv"
        model.write_text("# spellcl-model schema=1 window=2\nC|a\tinf\nL|<BOS>|a\t-inf\n",
                         encoding="utf-8")
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
                preds = predict_corpus(model, test_c)
                det_f1s.append(evaluate(preds, test_c, "detection").f1)
                corr_f1s.append(evaluate(preds, test_c, "correction").f1)
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

    def test_missing_required_flag(self, workdir):
        assert run("score", "--out", workdir["root"] / "x") == 2

    def test_unknown_subcommand(self):
        assert run("frobnicate") == 2

    def test_keys_of_other_commands_are_ignored(self, workdir):
        # one shared pipeline config serves every command that reads it
        cfg = {"train": str(workdir["train"]), "test": str(workdir["test"]),
               "policy": "contextual", "k": 3, "seeds": [0, 1], "rate": 0.5}
        cfg_path = workdir["root"] / "shared.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        out = workdir["root"] / "shared"
        assert run("score", "--config", cfg_path, "--out", out) == 0
        resolved = json.loads((out / "score_config.json").read_text(encoding="utf-8"))
        assert not {"test", "k", "seeds", "rate"} & set(resolved)

    def test_score_record_holds_only_score_options(self, workdir):
        out = workdir["root"] / "rec"
        assert run("score", "--train", workdir["train"], "--policy", "contextual",
                   "--out", out) == 0
        resolved = json.loads((out / "score_config.json").read_text(encoding="utf-8"))
        assert set(resolved) == {"command", "train", "policy", "provider", "window",
                                 "dim", "out"}
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
        assert "provider" in self._usage_error(capsys, *score, "--provider", "bogus")
        # an optional input file is checked when it is given
        assert "--confusion" in self._usage_error(capsys, *score, "--confusion",
                                                  workdir["root"] / "nope.tsv")

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


class TestFileProvider:

    def test_score_with_external_embeddings_matches_hashed(self, workdir):
        # export the hashed embeddings of the corpus, then score through the
        # file-provider interface; the two routes must agree exactly
        from spellcl.embed import HashedEmbedder, embeddings_to_text

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
        assert run("score", "--train", train, "--policy", "contextual", "--provider", "file",
                   "--embeddings", emb_path, "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err == f"error: sample 's1' side source: {3 + extra} vectors for 3 characters\n"

    def test_file_provider_without_embeddings_flag(self, workdir):
        assert run("score", "--train", workdir["train"], "--policy", "contextual",
                   "--provider", "file", "--out", workdir["root"] / "x") == 2


# ===========================================================================
# flag surface
# ===========================================================================

class TestSurface:
    """Pins every subcommand's flags and the defaults, so none changes silently."""

    FLAGS = {
        "inject": {"--input", "--confusion", "--rate", "--seed"},
        "score": {"--train", "--policy", "--confusion", "--provider", "--window", "--dim",
                  "--embeddings"},
        "arrange": {"--scores", "--train", "--policy", "--k", "--seed"},
        "train": {"--manifest", "--train", "--confusion"},
        "evaluate": {"--model", "--test", "--confusion"},
        "ablate": {"--train", "--test", "--confusion", "--k", "--seeds", "--provider",
                   "--window", "--dim", "--embeddings"},
        "sweep-k": {"--train", "--test", "--confusion", "--k-values", "--seeds",
                    "--provider", "--window", "--dim", "--embeddings"},
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
            "embeddings", "provider", "window", "dim", "policy", "k", "k_values",
            "seed", "seeds", "rate", "out",
        }

    def test_defaults(self):
        from spellcl.cli import OPTIONS, _help

        defaults = {name: opt.default for name, opt in OPTIONS.items()
                    if opt.default is not None}
        assert defaults == {"provider": "hashed", "window": 2, "dim": 64, "k": 4,
                            "seed": 0, "seeds": [0], "rate": 0.1}
        # the help text shows each default as the flag would take it
        assert _help("seeds").endswith("(default 0)")
        assert _help("rate").endswith("(default 0.1)")
        assert "(default" not in _help("out")
