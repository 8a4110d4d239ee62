"""The benchmark's workloads: one dualsim command each, with what its
outputs must satisfy.  The reasons for each choice are in README.md."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

COMPARE_OUTPUTS = ("comparison.csv", "comparison.svg", "manifest.json", "report.json")
RUN_OUTPUTS = ("abs_ensemble.csv", "manifest.json", "plot.svg", "sds.csv")


def _tumour(parsed: dict) -> dict:
    return parsed["report.json"]["populations"]["tumour"]


def _gate_extinct(parsed: dict) -> list[str]:
    w = _tumour(parsed)["wilcoxon"]
    if w["h"] != 1 or not w["p"] < 1e-10:
        return [f"tumour verdict h={w['h']} p={w['p']!r}, expected the extinction divergence h=1, p<1e-10"]
    return []


def _gate_floor(parsed: dict) -> list[str]:
    tumour = _tumour(parsed)
    problems = []
    if min(tumour["abs_mean"]) < 1:
        problems.append(f"floored tumour abs_mean drops to {min(tumour['abs_mean'])!r} < 1")
    if not tumour["wilcoxon"]["p"] >= 1e-6:
        problems.append(f"floored tumour p={tumour['wilcoxon']['p']!r} < 1e-6")
    return problems


def _no_gate(parsed: dict) -> list[str]:
    return []


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]  # dualsim arguments without --seed and --out
    outputs: tuple[str, ...]  # files the command must write
    reps: int
    t_end: float
    grid: float
    gate: Callable[[dict], list[str]] = _no_gate

    def argv(self, seed: int, out: Path) -> list[str]:
        return [*self.args, "--seed", str(seed), "--out", str(out)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "s4-floor",
            ("compare", "--model", "kuznetsov", "--scenario", "4", "--fix", "tumour"),
            COMPARE_OUTPUTS, reps=50, t_end=100.0, grid=1.0, gate=_gate_floor,
        ),
        Workload(
            "s4-extinct",
            ("compare", "--model", "kuznetsov", "--scenario", "4", "--reps", "2000", "--dt", "0.0001"),
            COMPARE_OUTPUTS, reps=2000, t_end=100.0, grid=1.0, gate=_gate_extinct,
        ),
        Workload(
            "s2-tau-csv",
            ("run", "--model", "kuznetsov", "--scenario", "2", "--paradigm", "both", "--method", "tau",
             "--dt", "0.01", "--grid", "0.01", "--reps", "50", "--plot"),
            RUN_OUTPUTS, reps=50, t_end=100.0, grid=0.01,
        ),
    )
}
