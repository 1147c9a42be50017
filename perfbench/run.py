#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the spellcl CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload desk_ablate --seed 0 --seconds 40 --trace 0

Each workload is a fixed sequence of ``spellcl`` commands, run one child
process at a time from this script on inputs that ``gen.py`` writes from
``--seed`` before timing starts.  The program is imported from ``src/``
of the checkout; nothing needs building.

``--trace 0`` repeats the workload until ``--seconds`` would be exceeded
(at least once), with import-only probes before each repeat, and reports
the end-to-end metrics: ``wall_s`` (median over repeats of the
per-process wall times summed), ``setup_s`` (median import cost of one
process, over probes and workload processes, times the workload's
process count) and ``peak_rss_mb``.  ``--trace 1`` runs the workload
once untraced and once with the span recorder of ``spans.py`` and
reports the per-layer metrics, the tracing overhead and the error rate.

Every command's exit code and outputs are checked: outputs must parse, be
byte-identical across repeats of the same seed (also across runs, via
``.perfbench/repeat.json``), and at the default seed 0 match the sha256
digests pinned in ``digests.json``.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import operator
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import gen
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
LAUNCH = HERE / "launch.py"
PINNED = HERE / "digests.json"
REPEAT = WORK / "repeat.json"

# Import-only set-up probes before each execution; with the workload's own
# processes they give setup_s.  One more runs first, untimed, to warm the
# bytecode cache.
PROBES = 2

TRAIN, TEST, CONF = "../inputs/train.tsv", "../inputs/test.tsv", "../inputs/conf.tsv"
# Few grid seeds keep one execution of a grid workload at a few seconds,
# so a run repeats it several times and its statistic is taken over them.
ABLATE_SEEDS = (0, 1)
SWEEP_SEEDS = (0,)
ABLATE_MODES = ("shuffled_baseline", "sorted_only", "random_stages",
                "annealing_char_similarity", "annealing_contextual")
SWEEP_K = (1, 2, 4, 8)


# --- output checks: each raises ValueError naming what is wrong ---------------

def _rows(path: Path) -> list[list[str]]:
    return [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()]


def _unit_interval(values: list[str], where: str) -> None:
    for v in values:
        if not 0.0 <= float(v) <= 1.0:
            raise ValueError(f"{where}: {v} outside [0, 1]")


def check_ablation(out: Path, ctx: dict) -> None:
    rows = _rows(out / "ablation.tsv")
    if tuple(r[0] for r in rows[1:]) != ABLATE_MODES:
        raise ValueError(f"ablation.tsv: modes {[r[0] for r in rows[1:]]}")
    for r in rows[1:]:
        if r[1] != str(len(ABLATE_SEEDS)):
            raise ValueError(f"ablation.tsv: {r[0]} ran {r[1]} seeds")
        _unit_interval(r[2:5], f"ablation.tsv {r[0]}")


def check_sweep(out: Path, ctx: dict) -> None:
    rows = _rows(out / "sweep.tsv")
    if tuple(int(r[0]) for r in rows[1:]) != SWEEP_K:
        raise ValueError(f"sweep.tsv: k values {[r[0] for r in rows[1:]]}")
    for r in rows[1:]:
        if r[1] != str(len(SWEEP_SEEDS)):
            raise ValueError(f"sweep.tsv: k={r[0]} ran {r[1]} seeds")
        _unit_interval(r[2:4], f"sweep.tsv k={r[0]}")


def check_inject(out: Path, ctx: dict) -> None:
    clean = _rows(out / TRAIN)
    noisy = _rows(out / "injected.tsv")
    if [(r[0], r[2]) for r in noisy] != [(r[0], r[2]) for r in clean]:
        raise ValueError("injected.tsv: ids or targets differ from the clean corpus")
    if all(r[1] == r[2] for r in noisy):
        raise ValueError("injected.tsv: no errors injected")


def check_score(out: Path, ctx: dict) -> None:
    rows = _rows(out / "difficulty.tsv")
    if len(rows) != ctx["n_train"] or any(r[2] != "contextual" for r in rows):
        raise ValueError("difficulty.tsv: wrong row count or policy")


def check_arrange(out: Path, ctx: dict) -> None:
    lines = (out / "manifest.jsonl").read_text(encoding="utf-8").splitlines()
    meta = json.loads(lines[0])
    if meta["policy"] != "annealing" or len(lines) != 1 + 4 + 1:
        raise ValueError("manifest.jsonl: expected an annealing manifest with 5 stages")
    visits = sum(len(json.loads(line)["ids"]) for line in lines[1:])
    if visits != 2 * ctx["n_train"]:
        raise ValueError(f"manifest.jsonl: {visits} visits for {ctx['n_train']} samples")


def check_train(out: Path, ctx: dict) -> None:
    with open(out / "model.tsv", encoding="utf-8") as fh:
        if not fh.readline().startswith("# spellcl-model"):
            raise ValueError("model.tsv: missing header")


def check_evaluate(out: Path, ctx: dict) -> None:
    rows = _rows(out / "report.tsv")
    if [r[0] for r in rows[1:]] != ["detection", "correction"]:
        raise ValueError("report.tsv: expected detection and correction rows")
    for r in rows[1:]:
        _unit_interval(r[1:5], f"report.tsv {r[0]}")
        if int(r[9]) != ctx["n_test"]:
            raise ValueError(f"report.tsv: {r[9]} sentences, test set has {ctx['n_test']}")


# --- workloads ------------------------------------------------------------------

@dataclass(frozen=True)
class Step:
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    check: Callable[[Path, dict], None]


def desk_ablate(seed: int) -> list[Step]:
    return [Step(("ablate", "--train", TRAIN, "--test", TEST, "--confusion", CONF,
                  "--k", "4", "--seeds", ",".join(map(str, ABLATE_SEEDS)), "--out", "."),
                 ("ablation.tsv",), check_ablation)]


def pipeline_x10(seed: int) -> list[Step]:
    return [
        Step(("inject", "--input", TRAIN, "--confusion", CONF, "--rate", "0.1",
              "--seed", str(31 + seed), "--out", "."), ("injected.tsv",), check_inject),
        Step(("score", "--train", "injected.tsv", "--policy", "contextual", "--out", "."),
             ("difficulty.tsv",), check_score),
        Step(("arrange", "--scores", "difficulty.tsv", "--policy", "annealing", "--k", "4",
              "--seed", str(seed), "--out", "."), ("manifest.jsonl",), check_arrange),
        Step(("train", "--manifest", "manifest.jsonl", "--train", "injected.tsv",
              "--confusion", CONF, "--out", "."), ("model.tsv",), check_train),
        Step(("evaluate", "--model", "model.tsv", "--test", TEST, "--confusion", CONF,
              "--out", "."), ("report.tsv",), check_evaluate),
    ]


def dense_sweep(seed: int) -> list[Step]:
    return [Step(("sweep-k", "--train", TRAIN, "--test", TEST, "--confusion", CONF,
                  "--k-values", ",".join(map(str, SWEEP_K)),
                  "--seeds", ",".join(map(str, SWEEP_SEEDS)),
                  "--out", "."), ("sweep.tsv",), check_sweep)]


# name -> (corpus shape, sentence-count scale, train corpus injected by gen, steps)
WORKLOADS = {
    "desk_ablate": ("desk", 1, True, desk_ablate),
    "pipeline_x10": ("desk", 10, False, pipeline_x10),
    "dense_sweep": ("dense", 1, True, dense_sweep),
}


# --- child processes ----------------------------------------------------------------

@dataclass
class Proc:
    code: int
    wall: float
    setup: float | None
    rss_mb: float
    cpu: float
    record: dict


def spawn(argv: tuple[str, ...], cwd: Path, trace: bool, record_path: Path) -> Proc:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(LAUNCH), str(record_path), "1" if trace else "0", *argv]
    with open(cwd / "stdout.txt", "ab") as out, open(cwd / "stderr.txt", "ab") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = {}
    if record_path.exists():
        record = json.loads(record_path.read_text(encoding="utf-8"))
        record_path.unlink()
    return Proc(code=proc.returncode, wall=wall,
                setup=record["ready"] - t0 if "ready" in record else None,
                rss_mb=usage.ru_maxrss / 1024, cpu=usage.ru_utime + usage.ru_stime,
                record=record)


@dataclass
class Execution:
    procs: list[Proc] = field(default_factory=list)
    failures: list[tuple[int, str]] = field(default_factory=list)  # (step, reason)
    digests: dict[str, str] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(p.wall for p in self.procs)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def execute(steps: list[Step], workdir: Path, ctx: dict, trace: bool) -> Execution:
    """Run every step once in a fresh output directory and check its outputs."""
    out = workdir / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    ex = Execution()
    for i, step in enumerate(steps):
        proc = spawn(step.argv, out, trace, workdir / "record.json")
        ex.procs.append(proc)
        if proc.code != 0:
            ex.failures.append((i, f"exit code {proc.code}"))
            ex.failures += [(j, "not run") for j in range(i + 1, len(steps))]
            return ex
        try:
            step.check(out, ctx)
        except (OSError, ValueError, IndexError, KeyError) as exc:
            ex.failures.append((i, repr(exc)))
            continue
        for name in step.outputs:
            ex.digests[name] = sha256(out / name)
    return ex


def compare_digests(ex: Execution, expected: dict[str, str], what: str,
                    steps: list[Step]) -> None:
    """Count each step with an output that differs from ``expected`` as failed."""
    for i, step in enumerate(steps):
        bad = [n for n in step.outputs
               if n in expected and n in ex.digests and ex.digests[n] != expected[n]]
        if bad:
            ex.failures.append((i, f"{', '.join(bad)} differ from {what}"))


def probe(workdir: Path) -> Proc:
    """One import-only child process."""
    proc = spawn((), workdir, False, workdir / "probe.json")
    if proc.code != 0 or proc.setup is None:
        raise RuntimeError(f"set-up probe failed with exit code {proc.code}; "
                           f"see {workdir / 'stderr.txt'}")
    return proc


def source_stamp() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True)
        commit = res.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


# --- metrics ------------------------------------------------------------------------

COUNT_METRICS = ("corpus.samples", "corpus.chars", "corpus.error_positions",
                 "embed.positions", "model.positions", "model.slots", "model.features",
                 "model.feat_refs", "model.updates", "curriculum.visits")


def layer_metrics(untraced: Execution, traced: Execution) -> dict[str, tuple[float, str]]:
    times: dict[str, float] = {}
    counts: dict[str, float] = {}
    runs: list[float] = []
    for proc in traced.procs:
        for name, t in spans.self_times(proc.record.get("spans", [])).items():
            times[name] = times.get(name, 0.0) + t
        for key, value in proc.record.get("counts", {}).items():
            merge = max if key in spans.PEAK_COUNTS else operator.add
            counts[key] = merge(counts.get(key, 0), value)
        runs += spans.run_durations(proc.record.get("spans", []))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {name: (sum(times.get(s, 0.0) for s in names), "s")
         for name, names in spans.LAYER_SPANS.items()}
    m.update({name: (counts.get(name, 0), "count") for name in COUNT_METRICS})
    m["model.file_bytes"] = (counts.get("model.file_bytes", 0), "bytes")
    visited = counts.get("model.positions_visited", 0)
    m["model.update_ratio"] = (ratio(counts.get("model.updates", 0), visited), "ratio")
    m["kernels.train_positions_per_s"] = (ratio(visited, m["kernels.train_pass_s"][0]),
                                           "1/s")
    m["embed.useful_ratio"] = (ratio(counts.get("embed.error_positions", 0),
                                     counts.get("embed.positions", 0)), "ratio")
    m["cli.runs"] = (len(runs), "count")
    p50, p80 = np.percentile(runs, (50, 80)) * 1000 if runs else (0.0, 0.0)
    m["cli.run_p50_ms"] = (float(p50), "ms")
    m["cli.run_p80_ms"] = (float(p80), "ms")
    m["cli.cpu_s"] = (sum(p.cpu for p in untraced.procs), "s")
    m["trace.overhead_s"] = (traced.wall - untraced.wall, "s")
    return m


# --- main -----------------------------------------------------------------------------

def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="multiply corpus sizes (smoke runs); digests are pinned at 1")
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    began = time.monotonic()
    args = parse_args(argv)
    if not (SRC / "spellcl" / "cli.py").is_file():
        print(f"error: program source {SRC / 'spellcl'} not found", file=sys.stderr)
        return 2

    shape, scale, inject_train, make_steps = WORKLOADS[args.workload]
    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    paths = gen.write_inputs(str(workdir / "inputs"), shape, args.seed, scale * args.scale,
                             inject_train)
    ctx = {f"n_{name}": len(_rows(Path(paths[name]))) for name in ("train", "test")}
    steps = make_steps(args.seed)
    # Outputs are compared across runs with the same inputs and commands.
    key = hashlib.sha256(json.dumps([[s.argv for s in steps]] + [
        sha256(Path(paths[name])) for name in sorted(paths)]).encode()).hexdigest()

    env = probe(workdir).record["env"]  # also warms the bytecode cache
    env.update(source_stamp())

    setups: list[float] = []
    if args.trace:
        executions = [execute(steps, workdir, ctx, False), execute(steps, workdir, ctx, True)]
    else:
        # Probes and executions alternate, so both sample the same stretch of time.
        executions = []
        start = time.monotonic()
        while True:
            setups += [probe(workdir).setup for _ in range(PROBES)]
            executions.append(execute(steps, workdir, ctx, False))
            if time.monotonic() - start + executions[-1].wall >= args.seconds:
                break

    repeat = json.loads(REPEAT.read_text(encoding="utf-8")) if REPEAT.exists() else {}
    if key not in repeat and not executions[0].failures:
        repeat[key] = executions[0].digests
    reference = repeat.get(key, {})
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))[args.workload]
    for ex in executions:
        compare_digests(ex, reference, "an earlier repeat", steps)
        if args.seed == 0 and args.scale == 1.0:
            compare_digests(ex, pinned, "the pinned digests", steps)
    REPEAT.write_text(json.dumps(repeat, indent=1, sort_keys=True), encoding="utf-8")

    attempted = len(steps) * len(executions)
    failed = sum(len({i for i, _ in ex.failures}) for ex in executions)
    failures = [f"{steps[i].argv[0]}: {reason}" for ex in executions for i, reason in ex.failures]
    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)

    if args.trace:
        m = layer_metrics(executions[0], executions[1])
        m["error_rate"] = (failed / attempted, "ratio")
    else:
        setups += [p.setup for ex in executions for p in ex.procs if p.setup is not None]
        m = {
            "wall_s": (statistics.median(ex.wall for ex in executions), "s"),
            "setup_s": (statistics.median(setups) * len(steps), "s"),
            "peak_rss_mb": (max(p.rss_mb for ex in executions for p in ex.procs), "MB"),
        }
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (workdir / "result.json").write_text(
        json.dumps({"env": env, "executions": len(executions), "failures": failures,
                    "walls": [ex.wall for ex in executions], "setups": setups,
                    "digests": executions[0].digests, "run_s": time.monotonic() - began,
                    **result}, indent=1), encoding="utf-8")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
