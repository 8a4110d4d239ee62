"""One workload's commands, run back to back in this fresh process.

Started by run.py with PYTHONPATH set to the private build.  Calls
``dualsim.cli.main(argv)`` in-process, at least once and then while the
next call is expected to end within ``--seconds``, timing each call from
entry to return (all output files written), and, with ``--trace 0``, times
probes of the host's speed during each command (speed.py).  Between commands
it times fresh interpreters importing ``dualsim.cli`` (set-up), so that those
starts see the same changes in host speed as the commands and their probes.
With ``--trace 1`` it alternates untraced and traced commands, installing
the tracer only around the traced ones, and times no starts or probes.  Output checking happens in run.py, after this
process has exited, so it cannot raise this process's peak RSS.

Writes a JSON result to ``--result`` and, when tracing, the spans to
``--spans``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from checks import digest, make_grid
from speed import Sampler
from tracing import Tracer, check_spans, run_layers
from workloads import WORKLOADS

#: Fresh starts timed for setup_s: this many before the first command, this
#: many between two commands, and after the last command at least
#: SETUP_FIRST and enough to reach SETUP_STARTS in all.
SETUP_FIRST, SETUP_BETWEEN, SETUP_STARTS = 8, 2, 24
START_PROBES = 16

#: Run by a fresh interpreter with the benchmark's directory as argument: the
#: import, then the host's speed there (the mean of START_PROBES probes).
PROBE = ("import time, dualsim.cli, dualsim; ready = time.monotonic(); "
         "import statistics, sys; sys.path.append(sys.argv[1]); import speed; "
         f"probe = statistics.fmean(speed.timed_probe() for _ in range({START_PROBES})); "
         "print(ready, probe, dualsim.BACKEND_NAME, dualsim.__file__, sep='\\n')")
HERE = Path(__file__).resolve().parent


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def child_env(lib: Path | None) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    if lib is not None:
        env["PYTHONPATH"] = str(lib)
    return env


def fresh_start(lib: Path) -> tuple[float, float, str]:
    """Seconds from spawning an interpreter until ``import dualsim.cli`` is
    done, the mean probe time it then measured, and the backend it loaded.
    Fails if it imported another dualsim."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", PROBE, str(HERE)], cwd=lib.parent, env=child_env(lib),
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"import dualsim.cli failed:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    if len(lines) < 4:
        raise BenchError(f"unexpected output from the import probe: {proc.stdout!r}")
    ready, probe, backend, file = lines[-4:]
    if not Path(file).resolve().is_relative_to(lib.resolve()):
        raise BenchError(f"imported {file}, not the build in {lib}")
    return float(ready) - t0, float(probe), backend


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--budget", type=float, required=True, help="start no command past this many seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--lib", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args()
    try:
        return work(args)
    except BenchError as exc:
        print(f"worker: {exc}", file=sys.stderr)
        return 3


def work(args) -> int:
    import dualsim
    import dualsim.cli

    if not Path(dualsim.__file__).resolve().is_relative_to(args.lib.resolve()):
        print(f"worker: imported {dualsim.__file__}, not the build in {args.lib}", file=sys.stderr)
        return 3

    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None

    def starts(n: int) -> list[tuple[float, float]]:
        return [] if tracer is not None else [fresh_start(args.lib)[:2] for _ in range(n)]

    commands = []
    traced_spans = []  # spans of each traced command that succeeded
    # every command writes to the same directory: the manifest records it
    out = args.out / "cmd"
    baseline = None
    start = time.perf_counter()
    setup = starts(SETUP_FIRST)
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        shutil.rmtree(out, ignore_errors=True)
        argv = workload.argv(args.seed, out)
        printed = io.StringIO()
        error = None
        gc.collect()  # each command starts without the previous one's garbage
        if traced:
            tracer.command = i
            tracer.install(dualsim)
        # the host's speed is sampled in untraced runs, whose times are reported
        sampler = Sampler() if tracer is None else contextlib.nullcontext()
        with sampler:
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(printed):
                    rc = dualsim.cli.main(argv)
            except Exception:  # a crash is a failed command, not a benchmark error
                rc, error = None, traceback.format_exc()
        wall = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
            spans = tracer.take()
            if rc == 0:
                traced_spans.append(spans)
        record = {"wall_s": wall, "traced": traced, "rc": rc, "error": error}
        if tracer is None:
            record["probes_s"] = sampler.probes_s
        if rc == 0:
            record["written"] = [Path(line).name for line in printed.getvalue().splitlines()]
            record["digest"] = digest(out)
            if baseline is None:
                baseline = args.out / "first"
                out.rename(baseline)
        shutil.rmtree(out, ignore_errors=True)
        commands.append(record)
        i += 1
        elapsed = time.perf_counter() - start
        if tracer is not None and not traced and elapsed + wall < args.budget:
            continue  # every untraced command is paired with a traced one
        # start no command (no pair, when tracing) expected to end past --seconds
        if tracer is not None:
            step = 2 * statistics.median(c["wall_s"] for c in commands)
        else:
            step = statistics.median(c["wall_s"] for c in commands) + SETUP_BETWEEN * statistics.median(t for t, _ in setup)
        if elapsed + step > min(args.seconds, args.budget):
            break
        setup += starts(SETUP_BETWEEN)
    setup += starts(max(SETUP_FIRST, SETUP_STARTS - len(setup)))

    result = {
        "dualsim_file": dualsim.__file__,
        "backend": dualsim.BACKEND_NAME,
        "commands": commands,
        "setup_s": [t for t, _ in setup],
        "setup_probe_s": [p for _, p in setup],
        "baseline": str(baseline) if baseline is not None else None,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["trace_problems"] = {spans[0].command: p for spans in traced_spans if (p := check_spans(spans))}
        if tracer.errors:
            result["trace_problems"]["counters"] = sorted(set(tracer.errors))
        if traced_spans:
            result["layers"] = run_layers(traced_spans, len(make_grid(workload.t_end, workload.grid)))
        with open(args.spans, "w", encoding="utf-8") as fh:
            for span in (span for spans in traced_spans for span in spans):
                fh.write(json.dumps(dataclasses.asdict(span)) + "\n")
    args.result.write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
