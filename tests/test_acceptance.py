"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v`` for the per-criterion
pass/fail lines (each test also prints an ACCEPTANCE line).
"""

import hashlib
import math
import time

import numpy as np
import pytest

from spellcl.cli import main
from spellcl.corpus import (
    Corpus,
    Sample,
    confusion_to_tsv,
    corpus_to_tsv,
    inject_errors,
)
from spellcl.curriculum import arrange_annealing
from spellcl.difficulty import DifficultyRecord, score_corpus
from spellcl.embed import FileEmbeddingProvider
from spellcl.metrics import evaluate
from spellcl.rng import shuffled

from helpers import (
    confusion_entry_count,
    make_markov_corpus,
    make_symmetric_confusion,
    make_vocab,
    overfit_fixture,
)


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ===========================================================================
# Criterion 1: contextual-score oracle equivalence
# ===========================================================================

def test_contextual_score_matches_bruteforce_oracle():
    """200 randomized samples, stub embeddings, |diff| <= 1e-9, < 1 s."""
    rng = np.random.default_rng(2024)
    alphabet = list("abcdefghijklmnop")
    start = time.perf_counter()
    for case in range(200):
        n = int(rng.integers(1, 20))
        dim = int(rng.integers(2, 65))
        n_err = int(rng.integers(0, min(n, 5) + 1))
        err = set(int(j) for j in rng.choice(n, size=n_err, replace=False))
        src = "".join(rng.choice(alphabet, size=n))
        tgt = "".join("Z" if j in err else c for j, c in enumerate(src))
        sample = Sample(id=f"c{case}", source=src, target=tgt)
        src_vecs = rng.normal(size=(n, dim))
        tgt_vecs = rng.normal(size=(n, dim))

        table = {(sample.id, "source"): src_vecs, (sample.id, "target"): tgt_vecs}
        (record,) = score_corpus(Corpus((sample,)), "contextual", FileEmbeddingProvider(table))
        got = record.score

        expected = 0.0  # brute force: per-position cosine, plain python sums
        for j in sorted(err):
            dot = sum(float(a) * float(b) for a, b in zip(src_vecs[j], tgt_vecs[j]))
            nu = math.sqrt(sum(float(a) ** 2 for a in src_vecs[j]))
            nv = math.sqrt(sum(float(b) ** 2 for b in tgt_vecs[j]))
            expected += max(-1.0, min(1.0, dot / (nu * nv)))
        assert abs(got - expected) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE eq1-oracle-equivalence: PASS ({elapsed:.2f}s)")


# ===========================================================================
# Criterion 2: annealing arrangement invariants
# ===========================================================================

def _split_sizes(n: int, k: int) -> list[int]:
    return [n // k + (1 if i < n % k else 0) for i in range(k)]


def test_annealing_arrangement_invariants():
    """500 randomized (n <= 200, k <= 10) cases, < 5 s."""
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    for case in range(500):
        n = int(rng.integers(1, 201))
        k = int(rng.integers(1, min(10, n) + 1))
        scores = rng.permutation(n).astype(float)  # distinct scores
        records = [DifficultyRecord(f"s{i:03d}", float(scores[i]), "contextual")
                   for i in range(n)]
        manifest = arrange_annealing(records, k, seed=case)
        score_of = {r.sample_id: r.score for r in records}

        # partition: stages 1..k disjoint, covering; final stage = full set
        all_ids = {r.sample_id for r in records}
        seen: set[str] = set()
        for stage in manifest.stages[:-1]:
            stage_set = set(stage)
            assert len(stage_set) == len(stage)
            assert not (stage_set & seen)
            seen |= stage_set
        assert seen == all_ids
        assert set(manifest.stages[-1]) == all_ids
        assert len(manifest.stages[-1]) == n

        # independent re-derivation of subsets and their inner parts
        ordered = sorted(records, key=lambda r: (r.score, r.sample_id))
        subsets, pos = [], 0
        for size in _split_sizes(n, k):
            subsets.append([r.sample_id for r in ordered[pos:pos + size]])
            pos += size
        parts = []
        for subset in subsets:
            inner, p = [], 0
            for size in _split_sizes(len(subset), k):
                inner.append(subset[p:p + size])
                p += size
            parts.append(inner)

        for i in range(k):
            stage_set = set(manifest.stages[i])
            expected = set().union(*(parts[j][i] for j in range(k)))
            assert stage_set == expected
            for j in range(k):
                # difficulty monotonicity between consecutive parts
                if i > 0 and parts[j][i] and parts[j][i - 1]:
                    assert (min(score_of[s] for s in parts[j][i])
                            >= max(score_of[s] for s in parts[j][i - 1]))
                # stratification: stage i reaches into subset j whenever
                # that subset is large enough to have an i-th part
                if parts[j][i]:
                    assert stage_set & set(subsets[j])

        # consequence for consecutive stages 1..k.  Remainders go first, so
        # a later stage is never larger, and each of its sorted scores is at
        # least the score at the same rank one stage earlier.  The stage
        # mean only follows when the sizes agree: with unequal sizes a later
        # stage can have the lower mean (n=4, k=3 gives {0,2,3} then {1}).
        for i in range(1, k):
            prev = sorted(score_of[s] for s in manifest.stages[i - 1])
            cur = sorted(score_of[s] for s in manifest.stages[i])
            assert len(cur) <= len(prev)
            assert all(c >= p for c, p in zip(cur, prev))
            if cur and len(cur) == len(prev):
                assert sum(cur) / len(cur) >= sum(prev) / len(prev) - 1e-9

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\nACCEPTANCE annealing-invariants: PASS ({elapsed:.2f}s)")


def test_annealing_hand_enumerated_case():
    records = [DifficultyRecord(c, float(i), "contextual")
               for i, c in enumerate("abcdefghi")]
    manifest = arrange_annealing(records, k=3, seed=123)
    assert [set(s) for s in manifest.stages] == [
        {"a", "d", "g"}, {"b", "e", "h"}, {"c", "f", "i"}, set("abcdefghi"),
    ]
    # remainders first, by design: n=4, k=3 makes subsets {a,b}, {c}, {d},
    # so stage 2 ({b}) has a lower mean than stage 1 and stage 3 is empty
    small = [DifficultyRecord(c, float(i), "contextual") for i, c in enumerate("abcd")]
    manifest = arrange_annealing(small, k=3, seed=123)
    assert [set(s) for s in manifest.stages] == [
        {"a", "c", "d"}, {"b"}, set(), set("abcd"),
    ]
    print("\nACCEPTANCE annealing-hand-case: PASS")


# ===========================================================================
# Criterion 3: pipeline determinism (file hashing)
# ===========================================================================

def test_pipeline_determinism_by_file_hash(tmp_path):
    vocab = make_vocab(20)
    confusion = make_symmetric_confusion(vocab, n_pairs=25, seed=5)
    clean = make_markov_corpus(vocab, 80, seed=6, min_len=6, max_len=12)
    noisy = inject_errors(clean, confusion, 0.12, seed=7)
    train_path = tmp_path / "train.tsv"
    conf_path = tmp_path / "conf.tsv"
    train_path.write_text(corpus_to_tsv(noisy), encoding="utf-8")
    conf_path.write_text(confusion_to_tsv(confusion), encoding="utf-8")
    out = tmp_path / "run"

    def pipeline():
        assert run_cli("score", "--train", train_path, "--policy", "contextual",
                       "--out", out) == 0
        assert run_cli("arrange", "--scores", out / "difficulty.tsv", "--policy",
                       "annealing", "--k", "4", "--seed", "9", "--out", out) == 0
        assert run_cli("train", "--manifest", out / "manifest.jsonl", "--train",
                       train_path, "--confusion", conf_path, "--out", out) == 0
        assert run_cli("evaluate", "--model", out / "model.tsv", "--test", train_path,
                       "--confusion", conf_path, "--out", out) == 0
        return {
            name: sha256(out / name)
            for name in ("difficulty.tsv", "manifest.jsonl", "model.tsv", "report.tsv")
        }

    first = pipeline()
    second = pipeline()
    assert first == second
    print("\nACCEPTANCE pipeline-determinism: PASS")


# ===========================================================================
# Criterion 4: metrics fixtures
# ===========================================================================

def test_metrics_hand_counted_fixture():
    gold = Corpus(samples=(
        Sample(id="e1", source="AB", target="XB"),
        Sample(id="e2", source="CD", target="CY"),
    ))
    rep, _ = evaluate({"e1": "XB", "e2": "CD"}, gold)
    assert f"{rep.precision:.4f}" == "1.0000"
    assert f"{rep.recall:.4f}" == "0.5000"
    assert f"{rep.f1:.4f}" == "0.6667"
    assert f"{rep.accuracy:.4f}" == "0.5000"
    print("\nACCEPTANCE metrics-hand-count: PASS")


def test_metrics_perfect_prediction_fixture():
    gold = Corpus(samples=(
        Sample(id="e1", source="AB", target="XB"),
        Sample(id="c1", source="GH", target="GH"),
        Sample(id="e2", source="CDE", target="CYZ"),
    ))
    for rep in evaluate({s.id: s.target for s in gold}, gold):
        assert (rep.accuracy, rep.precision, rep.recall, rep.f1) == (1.0, 1.0, 1.0, 1.0)
    print("\nACCEPTANCE metrics-perfect: PASS")


def test_correction_tp_subset_of_detection_tp_1000_randomized():
    rng = np.random.default_rng(99)
    alphabet = list("abcde")
    for trial in range(1000):
        n_sent = int(rng.integers(1, 6))
        samples, preds = [], {}
        for i in range(n_sent):
            n = int(rng.integers(1, 7))
            src = "".join(rng.choice(alphabet, size=n))
            tgt = "".join(c if rng.random() < 0.65 else "X" for c in src)
            predicted = "".join(
                str(rng.choice(alphabet + ["X"])) if rng.random() < 0.45 else c
                for c in src
            )
            s = Sample(id=f"r{i}", source=src, target=tgt)
            samples.append(s)
            preds[s.id] = predicted
        gold = Corpus(samples=tuple(samples))
        det, corr = evaluate(preds, gold)
        # per-sentence TP sets, classified independently of the library
        det_tp = {s.id for s in samples if s.error_positions and s.error_positions == tuple(
            j for j, (a, b) in enumerate(zip(s.source, preds[s.id])) if a != b)}
        corr_tp = {s.id for s in samples if s.error_positions and preds[s.id] == s.target}
        assert corr_tp <= det_tp
        assert det.tp == len(det_tp) and corr.tp == len(corr_tp)
    print("\nACCEPTANCE metrics-correction-subset: PASS")


# ===========================================================================
# Criterion 5: shuffle fairness
# ===========================================================================

def test_shuffle_fairness_three_elements_10000_seeds():
    counts: dict[tuple, int] = {}
    n = 10_000
    for seed in range(n):
        perm = tuple(shuffled(["a", "b", "c"], seed, stream=1))
        counts[perm] = counts.get(perm, 0) + 1
    assert len(counts) == 6
    for perm, c in counts.items():
        assert abs(c / n - 1 / 6) <= 0.02, (perm, c / n)
    print("\nACCEPTANCE shuffle-fairness: PASS")


# ===========================================================================
# Criterion 6: end-to-end desk experiment
# ===========================================================================

def test_end_to_end_desk_experiment(tmp_path):
    """2000 train / 500 test @ rate 0.1, 50-char vocab, 200-entry confusion,
    10-seed ablation in < 60 s with a sane 5-mode table."""
    vocab = make_vocab(50)
    confusion = make_symmetric_confusion(vocab, n_pairs=100, seed=11)
    assert confusion_entry_count(confusion) == 200

    train = inject_errors(make_markov_corpus(vocab, 2000, seed=21), confusion,
                          rate=0.1, seed=31)
    test = inject_errors(make_markov_corpus(vocab, 500, seed=22, prefix="t"),
                         confusion, rate=0.1, seed=32)
    train_path, test_path = tmp_path / "train.tsv", tmp_path / "test.tsv"
    conf_path = tmp_path / "conf.tsv"
    train_path.write_text(corpus_to_tsv(train), encoding="utf-8")
    test_path.write_text(corpus_to_tsv(test), encoding="utf-8")
    conf_path.write_text(confusion_to_tsv(confusion), encoding="utf-8")

    out = tmp_path / "ablation"
    start = time.perf_counter()
    code = run_cli("ablate", "--train", train_path, "--test", test_path,
                   "--confusion", conf_path, "--k", "4",
                   "--seeds", ",".join(str(s) for s in range(10)), "--out", out)
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 60.0

    lines = (out / "ablation.tsv").read_text(encoding="utf-8").splitlines()
    rows = [ln.split("\t") for ln in lines[1:]]
    assert len(rows) == 5
    assert rows[0][0] == "shuffled_baseline"
    by_mode = {}
    for row in rows:
        det_mean, corr_mean, corr_sd = float(row[2]), float(row[3]), float(row[4])
        assert 0.0 <= det_mean <= 1.0
        assert 0.0 <= corr_mean <= 1.0
        assert 0.0 <= corr_sd <= 1.0
        by_mode[row[0]] = (corr_mean, corr_sd)

    base_mean, base_sd = by_mode["shuffled_baseline"]
    cl_mean, cl_sd = by_mode["annealing_contextual"]
    print(f"\nACCEPTANCE end-to-end-experiment: PASS ({elapsed:.1f}s)")
    print(f"  directional comparison (reported, not gated): "
          f"contextual annealing {cl_mean:.4f}±{cl_sd:.4f} vs "
          f"shuffled baseline {base_mean:.4f}±{base_sd:.4f} "
          f"(delta {cl_mean - base_mean:+.4f})")


def test_end_to_end_overfit_sanity(tmp_path):
    """train == test on 5 sentences must reach correction F1 = 1.0."""
    corpus, confusion = overfit_fixture()
    cpath, fpath = tmp_path / "tiny.tsv", tmp_path / "conf.tsv"
    cpath.write_text(corpus_to_tsv(corpus), encoding="utf-8")
    fpath.write_text(confusion_to_tsv(confusion), encoding="utf-8")
    out = tmp_path / "run"
    assert run_cli("score", "--train", cpath, "--policy", "contextual", "--out", out) == 0
    assert run_cli("arrange", "--scores", out / "difficulty.tsv", "--policy",
                   "annealing", "--k", "2", "--seed", "0", "--out", out) == 0
    assert run_cli("train", "--manifest", out / "manifest.jsonl", "--train", cpath,
                   "--confusion", fpath, "--out", out) == 0
    assert run_cli("evaluate", "--model", out / "model.tsv", "--test", cpath,
                   "--confusion", fpath, "--out", out) == 0
    rows = (out / "report.tsv").read_text(encoding="utf-8").splitlines()
    corr = rows[2].split("\t")
    assert corr[0] == "correction" and corr[4] == "1.0000"
    print("\nACCEPTANCE overfit-sanity: PASS")


# ===========================================================================
# Criterion 7: k-sweep harness
# ===========================================================================

def test_k_sweep_harness(tmp_path):
    vocab = make_vocab(30)
    confusion = make_symmetric_confusion(vocab, n_pairs=40, seed=13)
    train = inject_errors(make_markov_corpus(vocab, 300, seed=41), confusion, 0.1, seed=51)
    test = inject_errors(make_markov_corpus(vocab, 100, seed=42, prefix="t"),
                         confusion, 0.1, seed=52)
    train_path, test_path = tmp_path / "train.tsv", tmp_path / "test.tsv"
    conf_path = tmp_path / "conf.tsv"
    train_path.write_text(corpus_to_tsv(train), encoding="utf-8")
    test_path.write_text(corpus_to_tsv(test), encoding="utf-8")
    conf_path.write_text(confusion_to_tsv(confusion), encoding="utf-8")

    out = tmp_path / "sweep"
    args = ("sweep-k", "--train", train_path, "--test", test_path, "--confusion",
            conf_path, "--k-values", "1,2,4,8", "--seeds", "0,1,2", "--out", out)
    assert run_cli(*args) == 0
    first = sha256(out / "sweep.tsv")
    lines = (out / "sweep.tsv").read_text(encoding="utf-8").splitlines()
    assert [ln.split("\t")[0] for ln in lines] == ["k", "1", "2", "4", "8"]
    for ln in lines[1:]:
        mean = float(ln.split("\t")[2])
        assert 0.0 <= mean <= 1.0
    assert run_cli(*args) == 0
    assert sha256(out / "sweep.tsv") == first  # deterministic rerun
    print("\nACCEPTANCE k-sweep: PASS")
