"""Command-line pipeline: inject -> score -> arrange -> train -> evaluate,
plus the ablation and k-sweep experiment drivers.

Every command reads an optional JSON config file, applies flag overrides,
validates, and writes a resolved-config copy next to its outputs so runs
are reproducible from the artifacts alone.  Exit codes: 0 success, 1
internal/data error, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import corpus as corpus_mod
from . import curriculum as cur
from . import difficulty as diff
from . import metrics as met
from . import model as mod
from .embed import HashedEmbedder, load_embeddings
from .errors import ConfigError, EmptyInput, KTooLarge, SpellclError

ABLATION_MODES = (
    "shuffled_baseline",
    "sorted_only",
    "random_stages",
    "annealing_char_similarity",
    "annealing_contextual",
)


# --- config handling -----------------------------------------------------------

_CONFIG_KEYS = (
    "train", "test", "confusion", "input", "scores", "manifest", "model",
    "embeddings", "provider", "window", "dim", "policy", "k", "k_values",
    "seed", "seeds", "rate", "out",
)

_DEFAULTS = {
    "provider": "hashed",
    "window": 2,
    "dim": 64,
    "k": 4,
    "seed": 0,
    "seeds": [0],
    "rate": 0.1,
}


def resolve_config(args: argparse.Namespace) -> dict:
    cfg = dict(_DEFAULTS)
    if getattr(args, "config", None):
        if not os.path.exists(args.config):
            raise ConfigError(f"config file not found: {args.config}")
        with open(args.config, encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"bad config file {args.config}: {exc}")
        unknown = set(loaded) - set(_CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(loaded)
    for key in _CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


def _require(cfg: dict, keys: list[str], command: str) -> None:
    missing = [k for k in keys if cfg.get(k) is None]
    if missing:
        raise ConfigError(f"{command}: missing required option(s): {', '.join('--' + m for m in missing)}")


def _require_paths(cfg: dict, keys: list[str]) -> None:
    for key in keys:
        path = cfg.get(key)
        if path is not None and not os.path.exists(path):
            raise ConfigError(f"file not found for --{key}: {path}")


def _parse_int_list(value) -> list[int]:
    if isinstance(value, str):
        value = [v for v in value.split(",") if v != ""]
    try:
        return [int(v) for v in value]
    except (TypeError, ValueError):
        raise ConfigError(f"expected a comma-separated integer list, got {value!r}")


def _outdir(cfg: dict) -> str:
    out = cfg.get("out")
    if not out:
        raise ConfigError("missing required option --out")
    os.makedirs(out, exist_ok=True)
    return out


def _write_resolved(cfg: dict, command: str, outdir: str) -> None:
    resolved = {k: cfg[k] for k in sorted(cfg) if cfg[k] is not None}
    resolved["command"] = command
    path = os.path.join(outdir, f"{command.replace('-', '_')}_config.json")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(resolved, fh, ensure_ascii=False, indent=2, sort_keys=True)
        fh.write("\n")


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def build_provider(cfg: dict):
    if cfg["provider"] == "hashed":
        return HashedEmbedder(window=int(cfg["window"]), dim=int(cfg["dim"]))
    if cfg["provider"] == "file":
        if not cfg.get("embeddings"):
            raise ConfigError("provider 'file' needs --embeddings")
        _require_paths(cfg, ["embeddings"])
        return load_embeddings(cfg["embeddings"])
    raise ConfigError(f"unknown provider {cfg['provider']!r} (expected 'hashed' or 'file')")


# --- commands --------------------------------------------------------------------

def cmd_inject(cfg: dict) -> int:
    _require(cfg, ["input", "confusion", "out"], "inject")
    _require_paths(cfg, ["input", "confusion"])
    rate = float(cfg["rate"])
    if not 0.0 <= rate <= 1.0:
        raise ConfigError(f"--rate must be in [0, 1], got {rate}")
    outdir = _outdir(cfg)
    clean = corpus_mod.load_corpus(cfg["input"])
    confusion = corpus_mod.load_confusion_set(cfg["confusion"])
    noisy = corpus_mod.inject_errors(clean, confusion, rate, int(cfg["seed"]))
    corpus_mod.save_corpus(noisy, os.path.join(outdir, "injected.tsv"))
    _write_resolved(cfg, "inject", outdir)
    print(f"injected {len(noisy)} samples -> {os.path.join(outdir, 'injected.tsv')}")
    return 0


def _score_records(cfg: dict, train_corpus: corpus_mod.Corpus,
                   policy: str) -> list[diff.DifficultyRecord]:
    if policy == "contextual":
        return diff.score_corpus(train_corpus, "contextual", provider=build_provider(cfg))
    if policy == "char_similarity":
        if not cfg.get("confusion"):
            raise ConfigError("char_similarity scoring needs --confusion")
        _require_paths(cfg, ["confusion"])
        confusion = corpus_mod.load_confusion_set(cfg["confusion"])
        return diff.score_corpus(train_corpus, "char_similarity", confusion=confusion)
    raise ConfigError(f"unknown scoring policy {policy!r}")


def cmd_score(cfg: dict) -> int:
    _require(cfg, ["train", "policy", "out"], "score")
    _require_paths(cfg, ["train"])
    outdir = _outdir(cfg)
    train_corpus = corpus_mod.load_corpus(cfg["train"])
    records = _score_records(cfg, train_corpus, cfg["policy"])
    diff.save_records(records, os.path.join(outdir, "difficulty.tsv"))
    _write_resolved(cfg, "score", outdir)
    print(f"scored {len(records)} samples -> {os.path.join(outdir, 'difficulty.tsv')}")
    return 0


def cmd_arrange(cfg: dict) -> int:
    _require(cfg, ["policy", "out"], "arrange")
    policy = cfg["policy"]
    if policy not in cur.ARRANGEMENTS:
        raise ConfigError(
            f"unknown arrangement policy {policy!r} (expected one of {cur.ARRANGEMENTS})"
        )
    outdir = _outdir(cfg)
    seed = int(cfg["seed"])
    k = int(cfg["k"])

    if policy in ("annealing", "sorted_only"):
        _require(cfg, ["scores"], "arrange")
        _require_paths(cfg, ["scores"])
        records = diff.load_records(cfg["scores"])
        name = cfg["scores"]
        if policy == "annealing":
            manifest = cur.arrange_annealing(records, k, seed, source_corpus=name)
        else:
            manifest = cur.arrange_sorted_only(records, seed, source_corpus=name)
    else:
        if cfg.get("scores"):
            _require_paths(cfg, ["scores"])
            ids = [r.sample_id for r in diff.load_records(cfg["scores"])]
            name = cfg["scores"]
        elif cfg.get("train"):
            _require_paths(cfg, ["train"])
            ids = corpus_mod.load_corpus(cfg["train"]).ids()
            name = cfg["train"]
        else:
            raise ConfigError("arrange: need --scores or --train as the sample-id source")
        if policy == "random_stages":
            manifest = cur.arrange_random_stages(ids, k, seed, source_corpus=name)
        else:
            manifest = cur.arrange_shuffled_baseline(ids, seed, source_corpus=name)

    cur.save_manifest(manifest, os.path.join(outdir, "manifest.jsonl"))
    _write_resolved(cfg, "arrange", outdir)
    print(f"arranged {len(manifest.stages)} stages -> {os.path.join(outdir, 'manifest.jsonl')}")
    return 0


def cmd_train(cfg: dict) -> int:
    _require(cfg, ["manifest", "train", "confusion", "out"], "train")
    _require_paths(cfg, ["manifest", "train", "confusion"])
    outdir = _outdir(cfg)
    manifest = cur.load_manifest(cfg["manifest"])
    train_corpus = corpus_mod.load_corpus(cfg["train"])
    confusion = corpus_mod.load_confusion_set(cfg["confusion"])
    model = mod.train(manifest, train_corpus, confusion)
    mod.save_model(model, os.path.join(outdir, "model.tsv"))
    _write_resolved(cfg, "train", outdir)
    print(f"trained: {model.updates_seen} updates, "
          f"{len(model.averaged_weights)} features -> {os.path.join(outdir, 'model.tsv')}")
    return 0


def cmd_evaluate(cfg: dict) -> int:
    _require(cfg, ["model", "test", "confusion", "out"], "evaluate")
    _require_paths(cfg, ["model", "test", "confusion"])
    outdir = _outdir(cfg)
    confusion = corpus_mod.load_confusion_set(cfg["confusion"])
    model = mod.load_model(cfg["model"], confusion)
    test_corpus = corpus_mod.load_corpus(cfg["test"])
    if len(test_corpus) == 0:
        raise ConfigError("evaluate: test corpus is empty")
    preds = mod.predict_corpus(model, test_corpus)
    reports = [met.evaluate(preds, test_corpus, level) for level in met.LEVELS]
    table = met.reports_to_tsv(reports)
    _write_text(os.path.join(outdir, "report.tsv"), table)
    _write_resolved(cfg, "evaluate", outdir)
    print(table, end="")
    return 0


def _experiment_inputs(cfg: dict):
    _require_paths(cfg, ["train", "test", "confusion"])
    train_corpus = corpus_mod.load_corpus(cfg["train"])
    test_corpus = corpus_mod.load_corpus(cfg["test"])
    confusion = corpus_mod.load_confusion_set(cfg["confusion"])
    if len(train_corpus) == 0:
        raise ConfigError("train corpus is empty")
    if len(test_corpus) == 0:
        raise ConfigError("test corpus is empty")
    provider = build_provider(cfg)
    ctx_records = diff.score_corpus(train_corpus, "contextual", provider=provider)
    chr_records = diff.score_corpus(train_corpus, "char_similarity", confusion=confusion)
    enc_train = mod.encode_corpus(train_corpus, confusion)
    frozen = mod.FeatureIndex(names=enc_train.feature_index.names, frozen=True)
    enc_test = mod.encode_corpus(test_corpus, confusion, feature_index=frozen)
    return train_corpus, test_corpus, ctx_records, chr_records, enc_train, enc_test


def _arrange_for_mode(mode: str, ids, ctx_records, chr_records, k: int, seed: int,
                      name: str) -> cur.CurriculumManifest:
    if mode == "shuffled_baseline":
        return cur.arrange_shuffled_baseline(ids, seed, source_corpus=name)
    if mode == "sorted_only":
        return cur.arrange_sorted_only(ctx_records, seed, source_corpus=name)
    if mode == "random_stages":
        return cur.arrange_random_stages(ids, k, seed, source_corpus=name)
    if mode == "annealing_char_similarity":
        return cur.arrange_annealing(chr_records, k, seed, source_corpus=name)
    if mode == "annealing_contextual":
        return cur.arrange_annealing(ctx_records, k, seed, source_corpus=name)
    raise ValueError(f"unknown ablation mode {mode!r}")


def _run_one(manifest, enc_train, enc_test, test_corpus):
    _, averaged, _ = mod.train_encoded(enc_train, manifest)
    preds = mod.predict_encoded(enc_test, test_corpus, averaged)
    det = met.evaluate(preds, test_corpus, "detection")
    corr = met.evaluate(preds, test_corpus, "correction")
    return det, corr


def _mean_sd(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return mean, sd


def cmd_ablate(cfg: dict) -> int:
    _require(cfg, ["train", "test", "confusion", "out"], "ablate")
    outdir = _outdir(cfg)
    seeds = _parse_int_list(cfg["seeds"])
    if not seeds:
        raise ConfigError("ablate: --seeds must be non-empty")
    k = int(cfg["k"])
    (train_corpus, test_corpus, ctx_records, chr_records,
     enc_train, enc_test) = _experiment_inputs(cfg)
    ids = train_corpus.ids()

    lines = ["mode\tseeds\tdetection_f1_mean\tcorrection_f1_mean\tcorrection_f1_sd\tdelta_f1"]
    baseline_mean = None
    for mode in ABLATION_MODES:
        det_f1s, corr_f1s = [], []
        for seed in seeds:
            manifest = _arrange_for_mode(mode, ids, ctx_records, chr_records, k, seed,
                                         cfg["train"])
            det, corr = _run_one(manifest, enc_train, enc_test, test_corpus)
            det_f1s.append(det.f1)
            corr_f1s.append(corr.f1)
        det_mean, _ = _mean_sd(det_f1s)
        corr_mean, corr_sd = _mean_sd(corr_f1s)
        if baseline_mean is None:
            baseline_mean = corr_mean
        lines.append(
            f"{mode}\t{len(seeds)}\t{det_mean:.4f}\t{corr_mean:.4f}"
            f"\t{corr_sd:.4f}\t{corr_mean - baseline_mean:+.4f}"
        )
    table = "\n".join(lines) + "\n"
    _write_text(os.path.join(outdir, "ablation.tsv"), table)
    _write_resolved(cfg, "ablate", outdir)
    print(table, end="")
    return 0


def cmd_sweep_k(cfg: dict) -> int:
    _require(cfg, ["train", "test", "confusion", "k_values", "out"], "sweep-k")
    outdir = _outdir(cfg)
    seeds = _parse_int_list(cfg["seeds"])
    k_values = _parse_int_list(cfg["k_values"])
    if not seeds:
        raise ConfigError("sweep-k: --seeds must be non-empty")
    if not k_values:
        raise ConfigError("sweep-k: --k-values must be non-empty")
    if len(set(k_values)) != len(k_values):
        raise ConfigError(f"sweep-k: duplicate k values in {k_values}")
    if any(k < 1 for k in k_values):
        raise ConfigError(f"sweep-k: k values must be >= 1, got {k_values}")
    (train_corpus, test_corpus, ctx_records, _chr_records,
     enc_train, enc_test) = _experiment_inputs(cfg)

    lines = ["k\tseeds\tcorrection_f1_mean\tcorrection_f1_sd"]
    for k in k_values:
        corr_f1s = []
        for seed in seeds:
            manifest = cur.arrange_annealing(ctx_records, k, seed,
                                             source_corpus=cfg["train"])
            _, corr = _run_one(manifest, enc_train, enc_test, test_corpus)
            corr_f1s.append(corr.f1)
        mean, sd = _mean_sd(corr_f1s)
        lines.append(f"{k}\t{len(seeds)}\t{mean:.4f}\t{sd:.4f}")
    table = "\n".join(lines) + "\n"
    _write_text(os.path.join(outdir, "sweep.tsv"), table)
    _write_resolved(cfg, "sweep-k", outdir)
    print(table, end="")
    return 0


# --- argument parsing --------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--out", help="output directory")


def _add_provider(p: argparse.ArgumentParser) -> None:
    p.add_argument("--provider", choices=["hashed", "file"],
                   help="embedding provider (default hashed)")
    p.add_argument("--window", type=int, help="hashed provider context window (default 2)")
    p.add_argument("--dim", type=int, help="hashed provider dimension (default 64)")
    p.add_argument("--embeddings", help="embedding file for provider 'file'")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spellcl",
        description="Curriculum ordering, training, and evaluation for spell-checking data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inject", help="corrupt a clean corpus via confusion-set substitution")
    p.add_argument("--input", help="clean corpus TSV (source == target)")
    p.add_argument("--confusion", help="confusion set TSV")
    p.add_argument("--rate", type=float, help="per-character corruption probability (default 0.1)")
    p.add_argument("--seed", type=int, help="PRNG seed (default 0)")
    _add_common(p)
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser("score", help="write per-sample difficulty scores")
    p.add_argument("--train", help="training corpus TSV")
    p.add_argument("--policy", choices=["contextual", "char_similarity"],
                   help="difficulty policy")
    p.add_argument("--confusion", help="confusion set TSV (char_similarity)")
    _add_provider(p)
    _add_common(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("arrange", help="build a stage manifest from difficulty scores")
    p.add_argument("--scores", help="difficulty TSV from 'score'")
    p.add_argument("--train", help="corpus TSV (id source for id-based policies)")
    p.add_argument("--policy", help="arrangement policy: " + ", ".join(cur.ARRANGEMENTS))
    p.add_argument("--k", type=int, help="number of subsets/stages (default 4)")
    p.add_argument("--seed", type=int, help="shuffle seed (default 0)")
    _add_common(p)
    p.set_defaults(func=cmd_arrange)

    p = sub.add_parser("train", help="train the corrector over a manifest")
    p.add_argument("--manifest", help="manifest JSONL from 'arrange'")
    p.add_argument("--train", help="training corpus TSV")
    p.add_argument("--confusion", help="confusion set TSV")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="sentence-level detection/correction report")
    p.add_argument("--model", help="model TSV from 'train'")
    p.add_argument("--test", help="test corpus TSV")
    p.add_argument("--confusion", help="confusion set TSV")
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="run all ordering modes over seeds and compare")
    p.add_argument("--train", help="training corpus TSV")
    p.add_argument("--test", help="test corpus TSV")
    p.add_argument("--confusion", help="confusion set TSV")
    p.add_argument("--k", type=int, help="subsets for staged modes (default 4)")
    p.add_argument("--seeds", help="comma-separated seeds, e.g. 0,1,2")
    _add_provider(p)
    _add_common(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("sweep-k", help="correction F1 as a function of k")
    p.add_argument("--train", help="training corpus TSV")
    p.add_argument("--test", help="test corpus TSV")
    p.add_argument("--confusion", help="confusion set TSV")
    p.add_argument("--k-values", dest="k_values", help="comma-separated k values, e.g. 1,2,4,8")
    p.add_argument("--seeds", help="comma-separated seeds")
    _add_provider(p)
    _add_common(p)
    p.set_defaults(func=cmd_sweep_k)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        cfg = resolve_config(args)
        return args.func(cfg)
    except (ConfigError, KTooLarge, EmptyInput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SpellclError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
