"""In-memory spans around the public functions of each dualsim layer.

The tracer wraps functions from outside the package: it replaces each public
function (and ``Trajectory.__post_init__``) by a wrapper that records a span,
and rebinds every reference to the original held in a dualsim module's
globals, so calls through ``from .x import f`` are traced too.  Nothing is
installed until ``install`` is called, and ``uninstall`` restores the
originals, so untraced commands run the unmodified program.

A span is (name, start, end, parent, command).  A span's self time is its
duration minus the durations of its direct children.  ``TIME_METRICS`` says
which reported metric takes each span's self time; ``check_spans`` makes sure
every span falls in one and that the reported times add up to the command.
"""

from __future__ import annotations

import inspect
import math
import statistics
import sys
import time
from dataclasses import dataclass, field

#: Layers (dualsim modules) whose public functions are traced.
LAYERS = ("cli", "sds", "ssa", "stats", "plotting", "kernels")

ROOT = "cli.main"

#: The per-layer time metrics and the spans whose self time each reports.  A
#: bare layer name takes the spans of that layer that no metric names.
TIME_METRICS = {
    "kernels.ssa_s": ("kernels.ssa", "kernels.ssa_frozen"),
    "kernels.rk4_s": ("kernels.rk4_growth", "kernels.rk4_kuznetsov"),
    "kernels.tau_s": ("kernels.tau_leap",),
    "ssa.self_s": ("ssa",),
    "trajectory.validate_s": ("trajectory.validate",),
    "sds.self_s": ("sds",),
    "stats.sample_s": ("stats.sample_on_grid",),
    "stats.ensemble_mean_s": ("stats.ensemble_mean",),
    "stats.wilcoxon_s": ("stats.wilcoxon_ranksum",),
    "stats.other_s": ("stats",),
    "plotting.svg_s": ("plotting.emit_svg_plot",),
    "cli.self_s": ("cli",),
}
_BY_NAME = {name: metric for metric, names in TIME_METRICS.items() for name in names}


def time_metric(span_name: str) -> str | None:
    """The time metric that reports a span's self time, None if none does."""
    return _BY_NAME.get(span_name) or _BY_NAME.get(span_name.split(".")[0])


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    command: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# --- counts taken at layer boundaries --------------------------------------
# Each takes (args, result) of the wrapped call and returns a dict of counts.

def _ssa_counts(args, result):
    # samples: the initial state, one per event, and the final hold
    n = len(result[0])
    return {"samples": n, "events": max(n - 2, 0)}


def _tau_counts(args, result):
    # samples: the initial state and one per leap
    n = len(result[0])
    return {"samples": n, "steps": max(n - 1, 0)}


def _rk4_counts(args, result):
    # rk4_growth(kind, a, b, alpha, beta, T0, dt, t_end, ...) or
    # rk4_kuznetsov(a, b, g, m, n, p, d, s, T0, E0, dt, t_end, ...)
    dt, t_end = (args[6], args[7]) if len(args) == 10 else (args[10], args[11])
    return {"steps": round(t_end / dt)}


def _trajectory_counts(args, result):
    traj = args[0]
    rows, species = traj.states.shape
    counts = {"rows": rows, "bytes": rows * (1 + species) * 8}
    if traj.paradigm.value == "abs":
        counts["extinct"] = int(traj.termination.value == "extinct")
    return counts


def _svg_counts(args, result):
    times, curves = args[0], args[1]
    return {"points": len(times) * len(curves)}


def _written_counts(args, result):
    return {"bytes": sum(path.stat().st_size for path in result)}


COUNTERS = {
    "kernels.ssa": _ssa_counts,
    "kernels.ssa_frozen": _ssa_counts,
    "kernels.tau_leap": _tau_counts,
    "kernels.rk4_growth": _rk4_counts,
    "kernels.rk4_kuznetsov": _rk4_counts,
    "trajectory.validate": _trajectory_counts,
    "plotting.emit_svg_plot": _svg_counts,
    "cli.cmd_run": _written_counts,
    "cli.cmd_compare": _written_counts,
}


def targets(dualsim) -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every traced callable: the public
    functions of each layer (the kernels package re-exports its backend's)
    and ``Trajectory.__post_init__``."""
    out = []
    for layer in LAYERS:
        module = getattr(dualsim, layer)
        for attr in module.__all__:
            obj = getattr(module, attr)
            if inspect.isclass(obj) or inspect.ismodule(obj) or not callable(obj):
                continue
            if layer != "kernels" and getattr(obj, "__module__", None) != module.__name__:
                continue
            out.append((module, attr, f"{layer}.{attr}"))
    out.append((dualsim.trajectory.Trajectory, "__post_init__", "trajectory.validate"))
    return out


class Tracer:
    """Records spans for the commands run while it is installed; ``take``
    collects one command's."""

    def __init__(self):
        self.spans: list[Span] = []
        self.command = -1
        self.errors: list[str] = []  # counters that could not read a call
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def take(self) -> list[Span]:
        """The spans recorded since the last call, parents indexing into it."""
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            spans = self.spans
            index = len(spans)
            span = Span(name, clock(), math.nan, stack[-1] if stack else -1, self.command)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if counter is not None:
                try:
                    span.counts = counter(args, result)
                except (LookupError, TypeError, ValueError, AttributeError) as exc:
                    self.errors.append(f"{name}: counter failed: {exc!r}")
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, dualsim) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "dualsim" or n.startswith("dualsim."))]
        for owner, attr, name in targets(dualsim):
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original)
            self._patch(owner, attr, wrapper)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original and not (module is owner and key == attr):
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# --- span arithmetic --------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def check_spans(spans: list[Span]) -> list[str]:
    """Problems with one command's spans: it must have exactly one root named
    ``cli.main``, every span must fall in a time metric, and the reported
    time metrics must add up to the root span."""
    roots = [s for s in spans if s.parent < 0]
    if len(roots) != 1 or roots[0].name != ROOT:
        return [f"expected one root span {ROOT}, got {[s.name for s in roots]}"]
    problems = [f"span {name} falls in no reported metric"
                for name in sorted({s.name for s in spans if time_metric(s.name) is None})]
    layers = command_layers(spans, grid_points=1)
    total, root = math.fsum(layers[m] for m in TIME_METRICS), roots[0].duration
    if abs(total - root) > 1e-6 * max(root, 1.0):
        problems.append(f"the reported times sum to {total!r} s, the command took {root!r} s")
    return problems


# --- per-layer metrics ------------------------------------------------------

REPLICATE_SPANS = ("ssa.simulate_exact", "ssa.simulate_tau_leap")


TAIL_LADDER = (50, 75, 90, 95, 99, 99.5, 99.9, 99.95, 99.99)
TAIL_MIN_BEYOND = 10


def tail_percentile(values):
    """The highest ``TAIL_LADDER`` percentile (nearest rank) with at least
    ``TAIL_MIN_BEYOND`` values above its rank: (percentile, value, count
    beyond).  With too few values for any rung, the maximum: (100, max, 0)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no values")
    best = (100, ordered[-1], 0)
    for pct in TAIL_LADDER:
        rank = math.ceil(n * pct / 100)
        if n - rank >= TAIL_MIN_BEYOND:
            best = (pct, ordered[rank - 1], n - rank)
    return best


def command_layers(spans: list[Span], grid_points: int) -> dict[str, float]:
    """Per-layer self times and counts of one command's spans."""
    times: dict[str, list[float]] = {m: [] for m in TIME_METRICS}
    count: dict[str, float] = {}
    for s, st in zip(spans, self_times(spans)):
        metric = time_metric(s.name)
        if metric is not None:
            times[metric].append(st)
        count[s.name] = count.get(s.name, 0) + 1
        for key, v in s.counts.items():
            count[f"{s.name}.{key}"] = count.get(f"{s.name}.{key}", 0) + v

    def c(*names):
        return sum(count.get(n, 0) for n in names)

    samples = c("kernels.ssa.samples", "kernels.ssa_frozen.samples", "kernels.tau_leap.samples")
    return {
        **{m: math.fsum(v) for m, v in times.items()},
        "kernels.ssa_events": c("kernels.ssa.events", "kernels.ssa_frozen.events"),
        "kernels.rk4_steps": c("kernels.rk4_growth.steps", "kernels.rk4_kuznetsov.steps"),
        "kernels.tau_steps": c("kernels.tau_leap.steps"),
        "ssa.samples": samples,
        "ssa.samples_used_ratio": c(*REPLICATE_SPANS) * grid_points / samples if samples else 0.0,
        "ssa.extinct_replicates": c("trajectory.validate.extinct"),
        "trajectory.samples": c("trajectory.validate.rows"),
        "trajectory.bytes": c("trajectory.validate.bytes"),
        "stats.sample_calls": c("stats.sample_on_grid"),
        "plotting.points": c("plotting.emit_svg_plot.points"),
        "cli.bytes_written": c("cli.cmd_run.bytes", "cli.cmd_compare.bytes"),
    }


def _rate(work, seconds):
    return work / seconds if seconds > 0 else 0.0


def run_layers(commands: list[list[Span]], grid_points: int) -> dict[str, float]:
    """Per-layer metrics of a traced run, from each traced command's spans:
    the median over the commands of each per-command figure, kernel rates
    over the pooled commands, and the per-replicate span pooled over all."""
    per_cmd = [command_layers(spans, grid_points) for spans in commands]
    out = {k: statistics.median([m[k] for m in per_cmd]) for k in per_cmd[0]}
    for kernel, work in (("ssa", "events"), ("rk4", "steps"), ("tau", "steps")):
        total_s = math.fsum(m[f"kernels.{kernel}_s"] for m in per_cmd)
        out[f"kernels.{kernel}_{work}_per_s"] = _rate(sum(m[f"kernels.{kernel}_{work}"] for m in per_cmd), total_s)
    reps_ms = [s.duration * 1e3 for spans in commands for s in spans if s.name in REPLICATE_SPANS]
    if reps_ms:
        pct, tail, _ = tail_percentile(reps_ms)
        out["ssa.replicate_ms_p50"] = statistics.median(reps_ms)
        out["ssa.replicate_ms_tail"] = tail
        out["ssa.replicate_tail_pct"] = pct
    else:
        out["ssa.replicate_ms_p50"] = out["ssa.replicate_ms_tail"] = out["ssa.replicate_tail_pct"] = 0.0
    out["ssa.replicates"] = len(reps_ms)
    return out

