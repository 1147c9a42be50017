"""Child process of the benchmark: one ``spellcl`` command, as the console script runs it.

Usage: python launch.py RECORD TRACE [spellcl arguments...]

Imports ``spellcl.cli`` first and notes the monotonic clock once the
import is done; the parent subtracts its spawn time to get the set-up
cost (interpreter start plus import).  With TRACE=1 it installs the span
recorder before running the command.  With no spellcl arguments it only
imports (a set-up probe) and also reports the environment.  RECORD
receives one JSON object at exit; the exit code is the command's.
"""

import sys
import time

import spellcl.cli

READY = time.monotonic()


def environment() -> dict:
    import importlib.util
    import os
    import platform

    import numpy

    from spellcl import _kernels

    resolve = getattr(_kernels, "resolve_backend", None)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "backend": resolve() if resolve is not None else "single",
    }


def main() -> int:
    import json

    record_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    record = {"ready": READY}
    if not argv:
        record["env"] = environment()
        code = 0
    elif trace:
        import spans

        rec = spans.Recorder()
        spans.install(rec)
        root = rec.open(spans.ROOT_SPAN)
        code = spellcl.cli.main(argv)
        rec.close(root)
        record.update(spans=rec.spans, counts=rec.counts)
    else:
        code = spellcl.cli.main(argv)
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
