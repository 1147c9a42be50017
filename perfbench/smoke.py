#!/usr/bin/env python3
"""Tiny-scale smoke run of every benchmark workload.

Usage (from the repository root): python3 perfbench/smoke.py

Runs each workload of BENCHMARK.json at 2% of its corpus size, untraced
and traced, and asserts that the run passes its output checks and prints
every end_to_end (untraced) and per_layer (traced) metric with its unit.
Takes about 15 seconds on 2 CPUs.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, metrics in expected.items():
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--scale", "0.02"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit code {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: outputs failed their checks")
            printed = result["metrics"]
            for m in metrics:
                got = printed.get(m["name"])
                if got is None or got.get("unit") != m["unit"] \
                        or not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{where}: metric {m['name']} [{m['unit']}] got {got}")
            extra = set(printed) - {m["name"] for m in metrics}
            if extra:
                problems.append(f"{where}: unlisted metrics {sorted(extra)}")
            print(f"{where}: {len(printed)} metrics", flush=True)
    for p in problems:
        print("FAIL", p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
