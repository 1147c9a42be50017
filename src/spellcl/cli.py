"""Command-line pipeline: inject -> score -> arrange -> train -> evaluate,
plus the ablation and k-sweep experiment drivers.

Two tables drive the command line: ``OPTIONS`` declares every option once
(type, bounds, default, help, whether it names an input file) and
``COMMANDS`` lists each subcommand's function, help, required options and
other options.  The parser and its help, the config file, defaults, type
and bound checks, file checks and the resolved-config record are all
derived from them.

Every command reads an optional JSON config file, applies flag overrides,
validates, and writes ``<command>_config.json`` next to its outputs.  The
record holds exactly the command's options that have a value, plus
``command``, so passing it back with ``--config`` reruns the command; a
config key that belongs to another command is ignored.  Exit codes: 0
success, 1 internal/data error, 2 usage/config error.

Start-up: no module-level import in ``spellcl/__init__``, ``cli``, ``corpus``,
``curriculum``, ``difficulty``, ``rng`` or ``errors`` may load numpy, so
``inject`` and ``arrange`` never load it.  Commands import ``model``,
``metrics``, ``embed`` and numpy where they use them, and call library
functions through module attributes (``mod.train_encoded``) at call time.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import NamedTuple

from . import corpus as corpus_mod
from . import curriculum as cur
from . import difficulty as diff
from .errors import ConfigError, EmptyInput, KTooLarge, SpellclError

# ablation mode -> (arrangement policy, difficulty policy it reads or None)
ABLATION_MODES = {
    "shuffled_baseline": ("shuffled_baseline", None),
    "sorted_only": ("sorted_only", "contextual"),
    "random_stages": ("random_stages", None),
    "annealing_char_similarity": ("annealing", "char_similarity"),
    "annealing_contextual": ("annealing", "contextual"),
}


# --- options ---------------------------------------------------------------------

class Option(NamedTuple):
    help: str
    type: type = str      # str, int, float, or list: a comma-separated integer list
    lo: float | None = None
    hi: float | None = None
    is_file: bool = False  # an input file, which must exist when given
    default: object = None  # the value when neither config nor flag gives one


OPTIONS = {
    "input": Option("clean corpus TSV (source == target)", is_file=True),
    "train": Option("training corpus TSV; arrange reads its sample ids", is_file=True),
    "test": Option("test corpus TSV", is_file=True),
    "confusion": Option("confusion set TSV", is_file=True),
    "scores": Option("difficulty TSV from 'score'", is_file=True),
    "manifest": Option("manifest JSONL from 'arrange'", is_file=True),
    "model": Option("model TSV from 'train'", is_file=True),
    "embeddings": Option("embedding file for provider 'file'", is_file=True),
    "provider": Option("embedding provider: hashed or file", default="hashed"),
    "window": Option("hashed provider context window", int, 0, 127, default=2),
    "dim": Option("hashed provider dimension", int, 2, default=64),
    "policy": Option("score: " + ", ".join(diff.POLICIES)
                     + "; arrange: " + ", ".join(cur.ARRANGEMENTS)),
    "k": Option("number of subsets/stages", int, 1, default=4),
    "k_values": Option("comma-separated k values, e.g. 1,2,4,8", list, 1),
    "seed": Option("PRNG seed", int, default=0),
    "seeds": Option("comma-separated seeds, e.g. 0,1,2", list, default=[0]),
    "rate": Option("per-character corruption probability", float, 0.0, 1.0, default=0.1),
    "out": Option("output directory"),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _help(name: str) -> str:
    """The option's help, ending in its default as the flag would take it."""
    opt = OPTIONS[name]
    if opt.default is None:
        return opt.help
    shown = ",".join(map(str, opt.default)) if opt.type is list else opt.default
    return f"{opt.help} (default {shown})"


def _convert(name: str, value):
    """``value`` as the option's type, within its bounds, a list option's
    values distinct, an input file existing; ConfigError naming the flag
    otherwise."""
    opt = OPTIONS[name]
    try:
        if opt.type is list:
            items = value.split(",") if isinstance(value, str) else value
            value = [int(str(v)) for v in items if str(v) != ""]
            if not value:
                raise ValueError
        else:
            # str() first, so a JSON true or 2.5 is rejected, not read as 1 or 2
            value = opt.type(str(value))
    except (TypeError, ValueError):
        kind = "comma-separated integers" if opt.type is list else opt.type.__name__
        raise ConfigError(f"{_flag(name)}: expected {kind}, got {value!r}")
    if opt.type is list and len(set(value)) != len(value):
        # a repeated seed or k would run the same grid cell twice
        raise ConfigError(f"{_flag(name)}: repeated value in {value}")
    for v in value if opt.type is list else [value]:
        if not ((opt.lo is None or v >= opt.lo) and (opt.hi is None or v <= opt.hi)):
            bounds = f">= {opt.lo}" if opt.hi is None else f"in [{opt.lo}, {opt.hi}]"
            raise ConfigError(f"{_flag(name)} must be {bounds}, got {v}")
    if opt.is_file and not os.path.exists(value):
        raise ConfigError(f"file not found for {_flag(name)}: {value}")
    return value


def _load_config(path: str) -> dict:
    try:
        loaded = json.loads(corpus_mod.read_text(path))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"bad config file {path}: {exc}")
    if not isinstance(loaded, dict):
        raise ConfigError(f"bad config file {path}: expected a JSON object")
    unknown = set(loaded) - set(OPTIONS) - {"command"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return loaded


def resolve_config(args: argparse.Namespace) -> dict:
    """The command's options: defaults, then the config file, then flags;
    converted, bound-checked, required options present, input files existing."""
    command = args.command
    _, _, required, optional = COMMANDS[command]
    names = required + optional
    cfg = {name: OPTIONS[name].default for name in names
           if OPTIONS[name].default is not None}
    if args.config:
        loaded = _load_config(args.config)
        if loaded.get("command", command) != command:
            raise ConfigError(
                f"config file {args.config} is for command {loaded['command']!r}, not {command!r}"
            )
        cfg.update((name, loaded[name]) for name in names if loaded.get(name) is not None)
    cfg.update((name, getattr(args, name)) for name in names
               if getattr(args, name) is not None)
    missing = [_flag(name) for name in required if cfg.get(name, "") == ""]
    if missing:
        raise ConfigError(f"{command}: missing required option(s): {', '.join(missing)}")
    cfg = {name: _convert(name, value) for name, value in cfg.items()}
    # the nearest existing ancestor of --out must be a directory, or the
    # first write would fail after all the work is done
    out = cfg["out"]
    while out and not os.path.lexists(out):
        out = os.path.dirname(out)
    if out and not os.path.isdir(out):
        raise ConfigError(f"--out: {out} exists and is not a directory")
    return cfg


def _write_resolved(cfg: dict, command: str) -> None:
    resolved = dict(cfg, command=command)
    path = os.path.join(cfg["out"], f"{command.replace('-', '_')}_config.json")
    corpus_mod.write_text(path, json.dumps(resolved, ensure_ascii=False, indent=2,
                                           sort_keys=True) + "\n")


def build_provider(cfg: dict):
    from .embed import HashedEmbedder, load_embeddings
    if cfg["provider"] == "hashed":
        return HashedEmbedder(window=cfg["window"], dim=cfg["dim"])
    if cfg["provider"] == "file":
        if not cfg.get("embeddings"):
            raise ConfigError("provider 'file' needs --embeddings")
        return load_embeddings(cfg["embeddings"])
    raise ConfigError(f"unknown provider {cfg['provider']!r} (expected 'hashed' or 'file')")


# --- commands --------------------------------------------------------------------

def cmd_inject(cfg: dict) -> int:
    clean = corpus_mod.load_corpus(cfg["input"])
    confusion = corpus_mod.load_confusion_set(cfg["confusion"])
    noisy = corpus_mod.inject_errors(clean, confusion, cfg["rate"], cfg["seed"])
    corpus_mod.save_corpus(noisy, os.path.join(cfg["out"], "injected.tsv"))
    print(f"injected {len(noisy)} samples -> {os.path.join(cfg['out'], 'injected.tsv')}")
    return 0


def _score_records(cfg: dict, train_corpus: corpus_mod.Corpus,
                   policy: str) -> list[diff.DifficultyRecord]:
    if policy == "contextual":
        return diff.score_corpus(train_corpus, "contextual", provider=build_provider(cfg))
    if policy == "char_similarity":
        if not cfg.get("confusion"):
            raise ConfigError("char_similarity scoring needs --confusion")
        confusion = corpus_mod.load_confusion_set(cfg["confusion"])
        return diff.score_corpus(train_corpus, "char_similarity", confusion=confusion)
    raise ConfigError(f"unknown scoring policy {policy!r} for --policy")


def cmd_score(cfg: dict) -> int:
    train_corpus = corpus_mod.load_corpus(cfg["train"])
    records = _score_records(cfg, train_corpus, cfg["policy"])
    diff.save_records(records, os.path.join(cfg["out"], "difficulty.tsv"))
    print(f"scored {len(records)} samples -> {os.path.join(cfg['out'], 'difficulty.tsv')}")
    return 0


def cmd_arrange(cfg: dict) -> int:
    policy = cfg["policy"]
    if policy not in cur.ARRANGEMENTS:
        raise ConfigError(
            f"unknown arrangement policy {policy!r} (expected one of {cur.ARRANGEMENTS})"
        )
    records = None
    if policy in cur.SCORED and not cfg.get("scores"):
        raise ConfigError(f"arrange: policy {policy!r} needs --scores")
    if cfg.get("scores"):
        records = diff.load_records(cfg["scores"])
        ids = [r.sample_id for r in records]
        name = cfg["scores"]
    elif cfg.get("train"):
        ids = corpus_mod.load_corpus(cfg["train"]).ids()
        name = cfg["train"]
    else:
        raise ConfigError("arrange: need --scores or --train as the sample-id source")
    manifest = cur.arrange(policy, ids, records, cfg["k"], cfg["seed"], name)

    cur.save_manifest(manifest, os.path.join(cfg["out"], "manifest.jsonl"))
    print(f"arranged {len(manifest.stages)} stages -> "
          f"{os.path.join(cfg['out'], 'manifest.jsonl')}")
    return 0


def cmd_train(cfg: dict) -> int:
    from . import model as mod
    manifest = cur.load_manifest(cfg["manifest"])
    train_corpus = corpus_mod.load_corpus(cfg["train"])
    confusion = corpus_mod.load_confusion_set(cfg["confusion"])
    model = mod.train(manifest, train_corpus, confusion)
    mod.save_model(model, os.path.join(cfg["out"], "model.tsv"))
    print(f"trained: {model.updates_seen} updates, "
          f"{len(model.keys)} features -> {os.path.join(cfg['out'], 'model.tsv')}")
    return 0


def cmd_evaluate(cfg: dict) -> int:
    from . import metrics as met
    from . import model as mod
    confusion = corpus_mod.load_confusion_set(cfg["confusion"])
    model = mod.load_model(cfg["model"], confusion)
    test_corpus = corpus_mod.load_corpus(cfg["test"])
    if len(test_corpus) == 0:
        raise ConfigError("evaluate: test corpus is empty")
    preds = mod.predict_corpus(model, test_corpus)
    reports = [met.evaluate(preds, test_corpus, level) for level in met.LEVELS]
    table = met.reports_to_tsv(reports)
    corpus_mod.write_text(os.path.join(cfg["out"], "report.tsv"), table)
    print(table, end="")
    return 0


def _run_grid(cfg: dict, keys: list[tuple[str, int, int]]) -> dict:
    """``{(mode, k, seed): (detection F1, correction F1)}`` for the given keys;
    scores the training corpus only under the difficulty policies the modes read."""
    from . import model as mod
    train_corpus = corpus_mod.load_corpus(cfg["train"])
    test_corpus = corpus_mod.load_corpus(cfg["test"])
    confusion = corpus_mod.load_confusion_set(cfg["confusion"])
    if len(train_corpus) == 0:
        raise ConfigError("train corpus is empty")
    if len(test_corpus) == 0:
        raise ConfigError("test corpus is empty")
    provider = build_provider(cfg)
    records = {
        policy: diff.score_corpus(train_corpus, policy, provider=provider, confusion=confusion)
        for policy in dict.fromkeys(ABLATION_MODES[mode][1] for mode, _, _ in keys)
        if policy is not None
    }
    enc_train = mod.encode_corpus(train_corpus, confusion)
    enc_test = mod.encode_corpus(test_corpus, confusion)
    rows = mod.feature_rows(enc_train.feature_index, enc_test)
    ids = train_corpus.ids()
    results = {}
    for mode, k, seed in keys:
        arrangement, difficulty = ABLATION_MODES[mode]
        manifest = cur.arrange(arrangement, ids, records.get(difficulty), k, seed, cfg["train"])
        results[(mode, k, seed)] = _run_one(manifest, enc_train, enc_test, rows, test_corpus)
    return results


def _run_one(manifest, enc_train, enc_test, rows, test_corpus) -> tuple[float, float]:
    # Its own frame, so one run's weights and predictions are freed before
    # the next run trains: peak memory stays that of a single run.
    from . import metrics as met
    from . import model as mod
    _, averaged, _ = mod.train_encoded(enc_train, manifest)
    preds = mod.predict_encoded(enc_test, test_corpus, averaged, rows)
    det = met.evaluate(preds, test_corpus, "detection")
    corr = met.evaluate(preds, test_corpus, "correction")
    return det.f1, corr.f1


def _mean_sd(values: list[float]) -> tuple[float, float]:
    import numpy as np
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return mean, sd


def cmd_ablate(cfg: dict) -> int:
    seeds, k = cfg["seeds"], cfg["k"]
    grid = _run_grid(cfg, [(mode, k, seed) for mode in ABLATION_MODES for seed in seeds])

    lines = ["mode\tseeds\tdetection_f1_mean\tcorrection_f1_mean\tcorrection_f1_sd\tdelta_f1"]
    baseline_mean = None
    for mode in ABLATION_MODES:
        det_f1s, corr_f1s = zip(*(grid[(mode, k, seed)] for seed in seeds))
        det_mean, _ = _mean_sd(det_f1s)
        corr_mean, corr_sd = _mean_sd(corr_f1s)
        if baseline_mean is None:
            baseline_mean = corr_mean
        lines.append(
            f"{mode}\t{len(seeds)}\t{det_mean:.4f}\t{corr_mean:.4f}"
            f"\t{corr_sd:.4f}\t{corr_mean - baseline_mean:+.4f}"
        )
    table = "\n".join(lines) + "\n"
    corpus_mod.write_text(os.path.join(cfg["out"], "ablation.tsv"), table)
    print(table, end="")
    return 0


def cmd_sweep_k(cfg: dict) -> int:
    seeds, k_values = cfg["seeds"], cfg["k_values"]
    mode = "annealing_contextual"
    grid = _run_grid(cfg, [(mode, k, seed) for k in k_values for seed in seeds])

    lines = ["k\tseeds\tcorrection_f1_mean\tcorrection_f1_sd"]
    for k in k_values:
        mean, sd = _mean_sd([grid[(mode, k, seed)][1] for seed in seeds])
        lines.append(f"{k}\t{len(seeds)}\t{mean:.4f}\t{sd:.4f}")
    table = "\n".join(lines) + "\n"
    corpus_mod.write_text(os.path.join(cfg["out"], "sweep.tsv"), table)
    print(table, end="")
    return 0


# --- command table and argument parsing ----------------------------------------------

_PROVIDER = ("provider", "window", "dim", "embeddings")

# command -> (function, help, required options, other options)
COMMANDS = {
    "inject": (cmd_inject, "corrupt a clean corpus via confusion-set substitution",
               ("input", "confusion", "out"), ("rate", "seed")),
    "score": (cmd_score, "write per-sample difficulty scores",
              ("train", "policy", "out"), ("confusion",) + _PROVIDER),
    "arrange": (cmd_arrange, "build a stage manifest from difficulty scores",
                ("policy", "out"), ("scores", "train", "k", "seed")),
    "train": (cmd_train, "train the corrector over a manifest",
              ("manifest", "train", "confusion", "out"), ()),
    "evaluate": (cmd_evaluate, "sentence-level detection/correction report",
                 ("model", "test", "confusion", "out"), ()),
    "ablate": (cmd_ablate, "run all ordering modes over seeds and compare",
               ("train", "test", "confusion", "out"), ("k", "seeds") + _PROVIDER),
    "sweep-k": (cmd_sweep_k, "correction F1 as a function of k",
                ("train", "test", "confusion", "k_values", "out"), ("seeds",) + _PROVIDER),
}


def build_parser() -> argparse.ArgumentParser:
    """Flags only; ``resolve_config`` converts and checks every value."""
    parser = argparse.ArgumentParser(
        prog="spellcl",
        description="Curriculum ordering, training, and evaluation for spell-checking data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, required, optional) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name in required + optional:
            p.add_argument(_flag(name), dest=name, help=_help(name))
        p.add_argument("--config", help="JSON config file; flags override its values")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        cfg = resolve_config(args)
        code = COMMANDS[args.command][0](cfg)
        _write_resolved(cfg, args.command)
        return code
    except (ConfigError, KTooLarge, EmptyInput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SpellclError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
