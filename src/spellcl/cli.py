"""Command-line pipeline: inject -> score -> arrange -> train -> evaluate,
plus the ablation and k-sweep experiment drivers.

Three tables drive the command line: ``OPTIONS`` declares every option once
(type, bounds, default, help, whether it names an input file), ``COMMANDS``
lists each subcommand's function, help and options, and ``POLICY_OPTIONS``
the options each ``score`` and ``arrange`` policy reads.  The parser and
its help, the config file, defaults, checks and the resolved-config record
are all derived from them.

Every command reads an optional JSON config file, applies flag overrides,
validates, and writes ``<command>_config.json`` next to its outputs.  The
record holds ``command`` and exactly the options read, so passing it back
with ``--config`` reruns the command.  A flag that is not read is a usage
error; a config key that is not read is ignored.  Exit codes: 0 on success,
2 on a ConfigError (usage), 1 on any other SpellclError or an OSError.

Start-up: no module-level import in ``spellcl/__init__``, ``cli``, ``corpus``,
``curriculum``, ``difficulty``, ``rng`` or ``errors`` may load numpy, so
``inject`` and ``arrange`` never load it.  Commands import ``model``,
``metrics``, ``embed`` and numpy where they use them, and call library
functions through module attributes (``mod.train_encoded``) at call time.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import NamedTuple

from . import corpus as corpus_mod
from . import curriculum as cur
from . import difficulty as diff
from .errors import ConfigError, MalformedLine, SpellclError

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
    is_file: bool = False  # an input file, which must be an existing file when given
    default: object = None  # the value when neither config nor flag gives one


OPTIONS = {
    "input": Option("clean corpus TSV (source == target)", is_file=True),
    "train": Option("training corpus TSV", is_file=True),
    "test": Option("test corpus TSV", is_file=True),
    "confusion": Option("confusion set TSV", is_file=True),
    "scores": Option("difficulty TSV from 'score'", is_file=True),
    "manifest": Option("manifest JSONL from 'arrange'", is_file=True),
    "model": Option("model TSV from 'train'", is_file=True),
    "embeddings": Option("vectors of an external encoder, used in place of hashing", is_file=True),
    "window": Option("hashing context window; rejected with --embeddings", int, 0, 127, default=2),
    "dim": Option("hashing dimension; rejected with --embeddings", int, 2, default=64),
    "policy": Option("one of"),  # the command's policies follow
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
    values distinct, a string valid UTF-8 without NUL, an input file an existing file;
    ConfigError naming the flag otherwise."""
    opt = OPTIONS[name]
    try:
        if opt.type is list:
            items = value.split(",") if isinstance(value, str) else value
            ints = [int(str(v)) for v in items]
            if not ints:  # the message names the value as given
                raise ValueError
            value = ints
        else:
            # str() first, so a JSON true or 2.5 is rejected, not read as 1 or 2
            value = opt.type(str(value))
    except (TypeError, ValueError):
        kind = "comma-separated integers" if opt.type is list else opt.type.__name__
        raise ConfigError(f"{_flag(name)}: expected {kind}, got {value!r}")
    if opt.type is str:
        if "\0" in value:  # a JSON string can hold one, no path can: fail before the work
            raise ConfigError(f"{_flag(name)}: {value!r} contains a NUL character")
        try:  # the resolved-config record holds every path and policy as UTF-8
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise ConfigError(f"{_flag(name)}: {value!r} is not valid UTF-8") from None
    if opt.type is list and len(set(value)) != len(value):
        # a repeated seed or k would run the same grid cell twice
        raise ConfigError(f"{_flag(name)}: repeated value in {value}")
    for v in value if opt.type is list else [value]:
        if not ((opt.lo is None or v >= opt.lo) and (opt.hi is None or v <= opt.hi)):
            bounds = f">= {opt.lo}" if opt.hi is None else f"in [{opt.lo}, {opt.hi}]"
            raise ConfigError(f"{_flag(name)} must be {bounds}, got {v}")
    if opt.is_file and not os.path.isfile(value):
        raise ConfigError(f"file not found for {_flag(name)}: {value}")
    return value


def _load_config(path: str) -> dict:
    try:
        loaded = json.loads(corpus_mod.read_text(path))
    except (OSError, ValueError, MalformedLine) as exc:
        raise ConfigError(f"bad config file {path}: {exc}")
    if not isinstance(loaded, dict):
        raise ConfigError(f"bad config file {path}: expected a JSON object")
    unknown = set(loaded) - set(OPTIONS) - {"command"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return loaded


def resolve_config(args: argparse.Namespace) -> dict:
    """The options the command and its policy read: defaults, then the config file,
    then flags; required ones present, no unread flag, checked, files existing."""
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
    flags = [name for name in names if getattr(args, name) is not None]
    cfg.update((name, getattr(args, name)) for name in flags)
    policies = POLICY_OPTIONS.get(command, {})
    by_policy = names
    if policies and cfg.get("policy", "") != "":
        policy = cfg["policy"] = _convert("policy", cfg["policy"])
        if policy not in policies:
            raise ConfigError(f"--policy: unknown {command} policy {policy!r} "
                              f"(expected one of {', '.join(policies)})")
        needs, takes = policies[policy]
        required, by_policy = required + needs, required + needs + takes
    missing = [_flag(name) for name in required if cfg.get(name, "") == ""]
    if missing:
        raise ConfigError(f"{command}: missing required option(s): {', '.join(missing)}")
    # the hashing options are not read when the vectors come from a file
    read = [name for name in by_policy
            if not (name in ("window", "dim") and "embeddings" in cfg)]
    unread = [name for name in flags if name not in read]
    if unread:
        why = f"--policy {cfg['policy']}" if unread[0] not in by_policy else "--embeddings"
        raise ConfigError(f"{command}: {_flag(unread[0])} is not read with {why}")
    cfg = {name: _convert(name, cfg[name]) for name in read if name in cfg}
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
    """The vectors of ``--embeddings`` when it is given, else the hashed provider."""
    from .embed import HashedEmbedder, load_embeddings
    if "embeddings" in cfg:
        return load_embeddings(cfg["embeddings"])
    return HashedEmbedder(window=cfg["window"], dim=cfg["dim"])


# --- commands --------------------------------------------------------------------

def cmd_inject(cfg: dict) -> int:
    clean = corpus_mod.load_corpus(cfg["input"])
    confusion = corpus_mod.load_confusion_set(cfg["confusion"])
    noisy = corpus_mod.inject_errors(clean, confusion, cfg["rate"], cfg["seed"])
    corpus_mod.save_corpus(noisy, os.path.join(cfg["out"], "injected.tsv"))
    print(f"injected {len(noisy)} samples -> {os.path.join(cfg['out'], 'injected.tsv')}")
    return 0


def cmd_score(cfg: dict) -> int:
    train_corpus = corpus_mod.load_corpus(cfg["train"])
    if cfg["policy"] == "contextual":
        scores = diff.score_corpus(train_corpus, "contextual", provider=build_provider(cfg))
    else:
        confusion = corpus_mod.load_confusion_set(cfg["confusion"])
        scores = diff.score_corpus(train_corpus, "char_similarity", confusion=confusion)
    diff.save_records(scores, cfg["policy"], os.path.join(cfg["out"], "difficulty.tsv"))
    print(f"scored {len(scores)} samples -> {os.path.join(cfg['out'], 'difficulty.tsv')}")
    return 0


def cmd_arrange(cfg: dict) -> int:
    if "scores" in cfg:
        scores, ids, name = diff.load_records(cfg["scores"]), None, cfg["scores"]
    else:
        scores, ids, name = None, corpus_mod.load_corpus(cfg["train"]).ids(), cfg["train"]
    # sorted_only and shuffled_baseline take no --k: they have one stage
    manifest = cur.arrange(cfg["policy"], ids, scores, cfg.get("k", 1), cfg["seed"])
    manifest = dataclasses.replace(manifest, source_corpus=name)
    cur.save_manifest(manifest, os.path.join(cfg["out"], "manifest.jsonl"))
    print(f"arranged {len(manifest.stages)} stages -> {os.path.join(cfg['out'], 'manifest.jsonl')}")
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
    reports = met.evaluate(mod.predict_corpus(model, test_corpus), test_corpus)
    return _write_table(cfg, "report.tsv", met.reports_to_tsv(reports))


def _write_table(cfg: dict, name: str, table: str) -> int:
    corpus_mod.write_text(os.path.join(cfg["out"], name), table)
    print(table, end="")
    return 0


def _run_grid(cfg: dict, cells: list[tuple[str, int]]) -> dict:
    """``{(mode, k): [(detection F1, correction F1) per seed of cfg["seeds"]]}``,
    run cell by cell, seed by seed; scores the training corpus only under the
    difficulty policies the modes read."""
    from . import model as mod
    train_corpus = corpus_mod.load_corpus(cfg["train"])
    test_corpus = corpus_mod.load_corpus(cfg["test"])
    confusion = corpus_mod.load_confusion_set(cfg["confusion"])
    for name, loaded in (("train", train_corpus), ("test", test_corpus)):
        if not len(loaded):
            raise ConfigError(f"{name} corpus is empty")
    k = max(k for _, k in cells)  # every ablate reads --k in random_stages
    if k > len(train_corpus):
        raise ConfigError(f"k={k} exceeds the number of samples ({len(train_corpus)})")
    provider = build_provider(cfg)
    scores = {
        policy: diff.score_corpus(train_corpus, policy, provider=provider, confusion=confusion)
        for policy in dict.fromkeys(ABLATION_MODES[mode][1] for mode, _ in cells)
        if policy is not None
    }
    enc_train = mod.encode_corpus(train_corpus, confusion)
    enc_test = mod.encode_corpus(test_corpus, confusion)
    rows = mod.feature_rows(enc_train.feature_index, enc_test)
    ids = train_corpus.ids()
    results = {}
    for mode, k in cells:
        arrangement, difficulty = ABLATION_MODES[mode]
        results[(mode, k)] = [
            _run_one(cur.arrange(arrangement, ids, scores.get(difficulty), k, seed),
                     enc_train, enc_test, rows, test_corpus)
            for seed in cfg["seeds"]]
    return results


def _run_one(manifest, enc_train, enc_test, rows, test_corpus) -> tuple[float, float]:
    # Its own frame, so one run's weights and predictions are freed before
    # the next run trains: peak memory stays that of a single run.
    from . import metrics as met
    from . import model as mod
    _, averaged, _ = mod.train_encoded(enc_train, manifest)
    det, corr = met.evaluate(mod.predict_encoded(enc_test, averaged, rows), test_corpus)
    return det.f1, corr.f1


def _mean_sd(values: list[float]) -> tuple[float, float]:
    import numpy as np
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std(ddof=1)) if arr.size > 1 else 0.0


def cmd_ablate(cfg: dict) -> int:
    grid = _run_grid(cfg, [(mode, cfg["k"]) for mode in ABLATION_MODES])
    baseline_mean, _ = _mean_sd([corr for _, corr in grid["shuffled_baseline", cfg["k"]]])
    lines = ["mode\tseeds\tdetection_f1_mean\tcorrection_f1_mean\tcorrection_f1_sd\tdelta_f1"]
    for (mode, _), runs in grid.items():
        det_f1s, corr_f1s = zip(*runs)
        det_mean, _ = _mean_sd(det_f1s)
        corr_mean, corr_sd = _mean_sd(corr_f1s)
        lines.append(f"{mode}\t{len(runs)}\t{det_mean:.4f}\t{corr_mean:.4f}"
                     f"\t{corr_sd:.4f}\t{corr_mean - baseline_mean:+.4f}")
    return _write_table(cfg, "ablation.tsv", "\n".join(lines) + "\n")


def cmd_sweep_k(cfg: dict) -> int:
    grid = _run_grid(cfg, [("annealing_contextual", k) for k in cfg["k_values"]])
    lines = ["k\tseeds\tcorrection_f1_mean\tcorrection_f1_sd"]
    for (_, k), runs in grid.items():
        mean, sd = _mean_sd([corr for _, corr in runs])
        lines.append(f"{k}\t{len(runs)}\t{mean:.4f}\t{sd:.4f}")
    return _write_table(cfg, "sweep.tsv", "\n".join(lines) + "\n")


# --- command table and argument parsing ----------------------------------------------

_PROVIDER = ("embeddings", "window", "dim")

# command -> policy -> (options it needs, other options it reads)
POLICY_OPTIONS = {
    "score": {"contextual": ((), _PROVIDER), "char_similarity": (("confusion",), ())},
    "arrange": {"annealing": (("scores",), ("k", "seed")),
                "sorted_only": (("scores",), ("seed",)),
                "random_stages": (("train",), ("k", "seed")),
                "shuffled_baseline": (("train",), ("seed",))},
}

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
            listed = ": " + ", ".join(POLICY_OPTIONS[command]) if name == "policy" else ""
            p.add_argument(_flag(name), dest=name, help=_help(name) + listed)
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
    except (SpellclError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())
