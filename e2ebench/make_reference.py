#!/usr/bin/env python3
"""Write the SDS reference series the output checks compare against.

    PYTHONPATH=src python3 e2ebench/make_reference.py

Runs each workload's command with a single replicate (the deterministic
series does not depend on the replicate count or seed) and stores its SDS
values at every whole day in ``e2ebench/reference/<workload>.json``.
Regenerate only when a change to the model is intended.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import checks
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def main() -> int:
    import dualsim
    import dualsim.cli

    for workload in WORKLOADS.values():
        out = HERE.parent / ".bench_build" / "make_reference" / workload.name
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = dualsim.cli.main([*workload.argv(1, out), "--reps", "1"])
        if rc != 0:
            print(f"{workload.name}: exit code {rc}", file=sys.stderr)
            return 1
        doc = {"command": " ".join(workload.args), "backend": dualsim.BACKEND_NAME,
               **checks.reference_series(out)}
        path = HERE / "reference" / f"{workload.name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
