"""The benchmark's outputs against their pinned digests.

``perfbench/digests.json`` pins the sha256 of every seed-0 output the
benchmark checks.  This test writes the seed-0 inputs with
``perfbench/gen.py`` and runs each workload's commands of
``perfbench/run.py`` (``ablate``, the five pipeline commands from
``inject`` to ``evaluate``, ``sweep-k``), argv for argv, in process, so a
change that moves an output byte fails here and not only in a benchmark
run.  Both perfbench
files are loaded by path and only read.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from spellcl.cli import main

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def load(name: str, monkeypatch):
    """``perfbench/<name>.py`` as module ``name`` for the test's duration: run.py
    imports its siblings by their plain names, and its dataclasses look their
    module up in ``sys.modules``."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["desk_ablate", "pipeline_x10", "dense_sweep"])
def test_grid_outputs_match_pinned_digests(workload, tmp_path, monkeypatch, capsys):
    gen, _, run = (load(name, monkeypatch) for name in ("gen", "spans", "run"))
    shape, scale, inject_train, make_steps = run.WORKLOADS[workload]
    gen.write_inputs(str(tmp_path / "inputs"), shape, 0, scale, inject_train)
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.chdir(out)

    pinned = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))[workload]
    outputs = {}
    for step in make_steps(0):
        assert main(list(step.argv)) == 0, capsys.readouterr().err
        for name in step.outputs:
            outputs[name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
    assert outputs == pinned
