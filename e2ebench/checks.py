"""Checks on the files one dualsim command wrote.

``check_outputs`` returns a list of problems, empty when the outputs are
correct.  It reads only the output directory, the names the command printed,
the workload's expectations and the stored SDS reference, so the tests can
feed it deliberately corrupted files.
"""

from __future__ import annotations

import hashlib
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

#: SDS values may drift from the stored reference by this relative amount.
#: Perturbing any scenario parameter by one ulp moves the series by at most
#: 6e-14 relative, so reordering the RK4 arithmetic stays far inside it,
#: while a change to the model or the step rule does not.
SDS_RTOL = 1e-9
#: Absolute slack below which a population counts as zero in that comparison.
SDS_ATOL = 1e-15


def make_grid(t_end: float, spacing: float) -> np.ndarray:
    """The comparison grid the CLI builds: 0, spacing, ... up to t_end.
    Computed here rather than imported, so the check does not rely on the
    code it checks."""
    return spacing * np.arange(int(math.floor(t_end / spacing + 1e-9)) + 1)


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Header and a float matrix; raises ValueError when it does not parse."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = np.loadtxt(fh, delimiter=",", dtype=float, ndmin=2)
    if rows.shape[0] == 0 or rows.shape[1] != len(header):
        raise ValueError(f"{rows.shape[0]} rows of {rows.shape[1]} cells under a {len(header)}-column header")
    return header, rows


def digest(out_dir: Path) -> str:
    """SHA-256 over the sorted file names and their bytes."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0")
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 20):
                h.update(chunk)
        h.update(b"\0")
    return h.hexdigest()


def parse_outputs(out_dir: Path) -> tuple[dict, list[str]]:
    """Every output parsed by its extension: CSVs to (header, rows), JSON to
    objects, SVG checked as XML."""
    parsed, problems = {}, []
    for path in sorted(out_dir.iterdir()):
        try:
            if path.suffix == ".csv":
                parsed[path.name] = read_csv(path)
            elif path.suffix == ".json":
                parsed[path.name] = json.loads(path.read_text(encoding="utf-8"))
            elif path.suffix == ".svg":
                ET.parse(path)
                parsed[path.name] = None
            else:
                problems.append(f"{path.name}: unexpected output file")
        except (ValueError, ET.ParseError, UnicodeDecodeError) as exc:
            problems.append(f"{path.name}: does not parse: {exc}")
    return parsed, problems


def check_manifest(parsed: dict, written: list[str], present: list[str], expected) -> list[str]:
    """The manifest lists exactly the files the command reported writing,
    which are exactly the files present and the ones the command makes."""
    manifest = parsed.get("manifest.json")
    if not isinstance(manifest, dict) or not isinstance(manifest.get("outputs"), list):
        return ["manifest.json: missing or has no outputs list"]
    listed = sorted(manifest["outputs"])
    problems = []
    if listed != sorted(written):
        problems.append(f"manifest lists {listed}, the command wrote {sorted(written)}")
    if sorted(written) != sorted(present):
        problems.append(f"the command wrote {sorted(written)}, the directory holds {sorted(present)}")
    if sorted(present) != sorted(expected):
        problems.append(f"expected outputs {sorted(expected)}, found {sorted(present)}")
    return problems


def check_values(parsed: dict) -> list[str]:
    """Every CSV cell and every number in report.json is finite and >= 0."""
    problems = []
    for name, value in parsed.items():
        if name.endswith(".csv"):
            rows = value[1]
            if not np.all(np.isfinite(rows)):
                problems.append(f"{name}: non-finite values")
            elif np.any(rows < 0):
                problems.append(f"{name}: negative values")
    report = parsed.get("report.json")
    if report is not None:
        try:
            numbers = []
            for comp in report["populations"].values():
                numbers += comp["sds"] + comp["abs_mean"] + comp["abs_variance"]
                numbers += [comp["wilcoxon"]["U"], comp["wilcoxon"]["p"]]
                if not 0 <= comp["wilcoxon"]["p"] <= 1 or comp["wilcoxon"]["h"] not in (0, 1):
                    problems.append("report.json: p outside [0, 1] or h not 0/1")
            if not all(isinstance(v, (int, float)) and math.isfinite(v) and v >= 0 for v in numbers):
                problems.append("report.json: a value is not a finite number >= 0")
        except (KeyError, TypeError, AttributeError) as exc:
            problems.append(f"report.json: unexpected structure ({exc!r})")
    return problems


def sds_series(parsed: dict) -> tuple[np.ndarray, dict[str, np.ndarray]] | None:
    """The deterministic series a command wrote: report.json for compare,
    sds.csv for run."""
    report = parsed.get("report.json")
    if report is not None:
        times = np.asarray(report["grid"]["times"], dtype=float)
        return times, {k: np.asarray(v["sds"], dtype=float) for k, v in report["populations"].items()}
    if "sds.csv" in parsed:
        header, rows = parsed["sds.csv"]
        return rows[:, 0], {name: rows[:, i + 1] for i, name in enumerate(header[1:])}
    return None


def reference_series(out_dir: Path) -> dict:
    """The SDS series a command wrote, at every whole day: the form of the
    stored references."""
    parsed, _ = parse_outputs(out_dir)
    times, columns = sds_series(parsed)
    days = make_grid(times[-1], 1.0)
    idx = np.searchsorted(times, days - 1e-9)
    if np.any(np.abs(times[idx] - days) > 1e-9):
        raise ValueError("the SDS series does not hold every whole day")
    return {"times": days.tolist(), "series": {name: col[idx].tolist() for name, col in columns.items()}}


def check_sds(parsed: dict, reference: dict) -> list[str]:
    """The SDS series matches the reference at the reference's times."""
    try:
        found = sds_series(parsed)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"SDS series unreadable ({exc!r})"]
    if found is None:
        return ["no SDS series in the outputs"]
    times, columns = found
    ref_times = np.asarray(reference["times"], dtype=float)
    idx = np.searchsorted(times, ref_times - 1e-9)
    if np.any(idx >= len(times)) or np.any(np.abs(times[np.minimum(idx, len(times) - 1)] - ref_times) > 1e-9):
        return ["SDS series does not cover the reference times"]
    problems = []
    for name, ref in reference["series"].items():
        if name not in columns:
            problems.append(f"SDS series has no {name}")
            continue
        got, ref = columns[name][idx], np.asarray(ref, dtype=float)
        bad = np.abs(got - ref) > SDS_RTOL * np.abs(ref) + SDS_ATOL
        if np.any(bad):
            i = int(np.argmax(bad))
            problems.append(f"SDS {name} at t={ref_times[i]:g} is {got[i]!r}, reference {ref[i]!r}")
    return problems


def check_ensemble(parsed: dict, reps: int, grid: np.ndarray) -> list[str]:
    """abs_ensemble.csv holds one block per replicate 0..reps-1, each on the
    grid, with integer populations."""
    if "abs_ensemble.csv" not in parsed:
        return []
    _, rows = parsed["abs_ensemble.csv"]
    if rows.shape[0] != reps * len(grid):
        return [f"abs_ensemble.csv: {rows.shape[0]} rows, expected {reps} x {len(grid)}"]
    problems = []
    if not np.array_equal(rows[:, 0], np.repeat(np.arange(reps, dtype=float), len(grid))):
        problems.append(f"abs_ensemble.csv: replicate ids are not blocks 0..{reps - 1}")
    if np.any(np.abs(rows[:, 1] - np.tile(grid, reps)) > 5e-7 + 1e-12 * grid[-1]):
        problems.append("abs_ensemble.csv: times differ from the grid")
    if np.any(rows[:, 2:] != np.floor(rows[:, 2:])):
        problems.append("abs_ensemble.csv: non-integer populations")
    return problems


def check_outputs(workload, out_dir: Path, written: list[str], reference: dict) -> list[str]:
    """All checks on one command's output directory."""
    present = sorted(p.name for p in out_dir.iterdir())
    parsed, problems = parse_outputs(out_dir)
    problems += check_manifest(parsed, written, present, workload.outputs)
    problems += check_values(parsed)
    problems += check_sds(parsed, reference)
    problems += check_ensemble(parsed, workload.reps, make_grid(workload.t_end, workload.grid))
    if not problems:
        problems += workload.gate(parsed)
    return problems


def verdicts(report: dict) -> dict:
    """The rank-sum verdict per population of a compare report."""
    return {name: {"p": comp["wilcoxon"]["p"], "h": comp["wilcoxon"]["h"]}
            for name, comp in report["populations"].items()}
