#!/usr/bin/env python3
"""End-to-end benchmark of the dualsim CLI.

    python3 e2ebench/run.py --workload s4-extinct [--seed 1] [--seconds 30] [--trace 0]

Run from the root of a source tree.  Set-up builds the package with the
tree's own ``setup.py build``, from a copy of the tree into
``.bench_build/`` (cached by a hash of the sources).  A fresh worker
process then runs the workload's command back to back for about
``--seconds`` (at least once), timing fresh interpreters that import
``dualsim.cli`` from the build between commands; the outputs are checked
afterwards.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The line before it, starting with ``info``, records provenance and the
compare verdicts; the full record, spans included, is kept under
``.bench_build/runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import speed
from worker import BenchError, child_env, fresh_start
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".bench_build"

#: A run must end within 180 s; the worker starts no command past this.
RUN_BUDGET_S = 140.0


def source_files() -> list[Path]:
    """What a build reads: the build files and src/, minus build products."""
    files = [ROOT / n for n in ("setup.py", "pyproject.toml", "README.md") if (ROOT / n).is_file()]
    for path in sorted((ROOT / "src").rglob("*")):
        rel = path.relative_to(ROOT)
        if path.is_file() and not any(p == "__pycache__" or p.endswith(".egg-info") for p in rel.parts) \
                and path.suffix not in (".so", ".pyd", ".pyc"):
            files.append(path)
    return files


def strays() -> set[str]:
    """Build products inside src/ that would change what the tests import."""
    return {str(p.relative_to(ROOT)) for pattern in ("*.so", "*.egg-info")
            for p in (ROOT / "src").rglob(pattern)}


def build() -> tuple[Path, dict]:
    """Build the package from a copy of the tree; reuse a build of the same
    sources.  Returns the build's lib directory and its record."""
    files = source_files()
    h = hashlib.sha256()
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    key = h.hexdigest()
    pkg = STATE / f"pkg-{key[:16]}"
    if (pkg / "build.json").is_file():
        return pkg / "lib", json.loads((pkg / "build.json").read_text())
    tmp = STATE / f"pkg-{key[:16]}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    for path in files:
        dest = tmp / "tree" / path.relative_to(ROOT)
        dest.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(path, dest)
    t0 = time.perf_counter()
    proc = subprocess.run(
        # an explicit lib directory: the default one is named after the
        # platform as soon as setup.py declares an extension
        [sys.executable, "setup.py", "build", "--build-base", str(tmp / "build"), "--build-lib", str(tmp / "lib")],
        cwd=tmp / "tree", env=child_env(None), capture_output=True, text=True, timeout=800,
    )
    build_s = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"setup.py build failed:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    record = {"build_s": build_s, "source_sha256": key}
    (tmp / "build.json").write_text(json.dumps(record))
    shutil.rmtree(pkg, ignore_errors=True)
    os.rename(tmp, pkg)
    return pkg / "lib", record


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def declared_metrics() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def command_problems(commands: list[dict], baseline_problems: list[str]) -> list[list[str]]:
    """Problems per command.  Commands whose outputs are byte-identical to
    the first successful one share its check result."""
    base = next((c for c in commands if c["rc"] == 0), None)
    out = []
    for c in commands:
        if c["error"]:
            out.append([f"exception: {c['error'].strip().splitlines()[-1]}"])
        elif c["rc"] != 0:
            out.append([f"exit code {c['rc']}"])
        elif c["digest"] != base["digest"] or c["written"] != base["written"]:
            out.append(["outputs differ from the first command's"])
        else:
            out.append(list(baseline_problems))
    return out


def run(args) -> dict:
    start = time.monotonic()
    workload = WORKLOADS[args.workload]
    end_to_end, per_layer = declared_metrics()
    stray_before = strays()
    STATE.mkdir(exist_ok=True)
    lib, build_record = build()
    *_, backend = fresh_start(lib)  # untimed: also writes the build's bytecode

    out = STATE / "out" / workload.name
    runs = STATE / "runs"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    runs.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    result_path = runs / f"{stem}.worker.json"
    result_path.unlink(missing_ok=True)
    budget = RUN_BUDGET_S - (time.monotonic() - start)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload.name,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--budget", str(budget),
         "--trace", str(args.trace), "--lib", str(lib), "--out", str(out),
         "--result", str(result_path), "--spans", str(runs / f"{stem}.spans.jsonl")],
        cwd=ROOT, env=child_env(lib), stdout=sys.stderr, timeout=budget + 20,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    res = json.loads(result_path.read_text())
    commands = res["commands"]

    reference = json.loads((HERE / "reference" / f"{workload.name}.json").read_text())
    verdicts = {}
    if res["baseline"] is None:
        baseline_problems = ["no command succeeded"]
    else:
        baseline = Path(res["baseline"])
        written = next(c["written"] for c in commands if c["rc"] == 0)
        baseline_problems = checks.check_outputs(workload, baseline, written, reference)
        if (baseline / "report.json").is_file() and not baseline_problems:
            verdicts = checks.verdicts(json.loads((baseline / "report.json").read_text()))
    problems = command_problems(commands, baseline_problems)
    failed = sum(1 for p in problems if p)
    trace_problems = res.get("trace_problems", {})

    speed_info = {}
    if args.trace:
        untraced = [c["wall_s"] for c in commands if not c["traced"]]
        traced = [c["wall_s"] for c in commands if c["traced"]]
        if "layers" not in res:
            raise BenchError("no traced command succeeded")
        values = dict(res["layers"])
        values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced) - 1
        units = per_layer
    else:
        # times at the reference host speed: each command by the probes it
        # met, its own time in them taken out; each start by its own probes
        probes = [p for c in commands for p in c["probes_s"]]
        values = {
            "wall_s": statistics.median(
                speed.at_reference_speed(c["wall_s"] - sum(c["probes_s"][1:]), c["probes_s"]) for c in commands),
            "setup_s": statistics.median(
                speed.at_reference_speed(t, [p]) for t, p in zip(res["setup_s"], res["setup_probe_s"])),
            "peak_rss_mb": res["peak_rss_mib"],
        }
        speed_info = {"host_speed": speed.PROBE_REF_S / statistics.fmean(probes), "probes": len(probes)}
        units = end_to_end
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json")

    new_strays = strays() - stray_before
    if new_strays:
        raise BenchError(f"the run left build products in src/: {sorted(new_strays)}")

    info = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "backend": backend, "dualsim_file": res["dualsim_file"],
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "git_sha": git_sha(),
        "source_sha256": build_record["source_sha256"], "build_s": build_record["build_s"],
        "verdicts": verdicts, "walls_s": [c["wall_s"] for c in commands],
        "traced": [c["traced"] for c in commands], "setup_starts_s": res["setup_s"],
        "peak_rss_mib": res["peak_rss_mib"], **speed_info,
        "problems": sorted({p for ps in problems for p in ps}), "trace_problems": trace_problems,
        "stray_build_products_in_src": sorted(stray_before),
    }
    summary = {
        "correct": failed == 0 and not trace_problems,
        "attempted": len(commands),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    (runs / f"{stem}.json").write_text(json.dumps({"info": info, **summary}, indent=1))
    print("info " + json.dumps(info))
    return summary


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1, help="passed to dualsim as --seed")
    ap.add_argument("--seconds", type=float, default=30.0, help="measure for about this long (at least one command)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "setup.py").is_file() or not (ROOT / "src" / "dualsim" / "__init__.py").is_file():
        print(f"run.py: no dualsim source tree at {ROOT}", file=sys.stderr)
        return 2
    try:
        summary = run(args)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
