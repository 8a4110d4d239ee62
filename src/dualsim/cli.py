"""Command-line interface: ``dualsim run | compare | list-scenarios``.

Runs are described by a JSON config document and/or flags (flags win).  A
:class:`RunSpec` checks itself when it is built, parsed or made in code: its
fields' types and enumerations, which fields each model takes, and then,
once, its plan: the model, the initial state, the grid and the ensemble
spec, with the step rule, so a refused spec gets the library's own
message.  Every run writes a manifest recording all resolved inputs, the
seeds and the kernel backend; re-running from a manifest reproduces the
output files byte for byte on either backend, the manifest's ``backend``
field aside.  A manifest that names another random stream (``rng``), or
none, still runs, with a note on stderr that its seeded stochastic outputs
may not reproduce (those of ``sfc64-splitmix64``, the stream before exact
waiting times came from a ziggurat, reproduce for tau-leaping only).

Exit codes: 0 success, 2 configuration error (a grid or a replicate count
too large to hold included), 3 engine error (running out of memory
included), 4 I/O error.
Nothing is written on a nonzero exit except diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import sys
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__, kernels, stats
from .errors import ConfigError, EngineError
from .models import GROWTH_LAWS, GrowthLaw, PopulationState, experiment_one_law, scenario_preset
from .plotting import Curve, emit_svg_plot
from .sds import integrate
from .ssa import (
    DEFAULT_REPS,
    EnsembleSpec,
    Floors,
    RatePolicy,
    _beside,
    _check_steps,
    run_ensemble,
)

__all__ = ["RunSpec", "parse_config", "cmd_run", "cmd_compare", "main"]

_MODELS = (*GROWTH_LAWS, "kuznetsov")
_PARADIGMS = ("sds", "abs", "both")
_METHODS = ("exact", "tau")
_POLICIES = tuple(policy.value for policy in RatePolicy)
_FIXES = ("none", "tumour", "both")


@dataclass(frozen=True)
class RunSpec:
    """A fully resolved run description (what the manifest records), checked
    when built; ``t0`` and ``e0`` default to the model's initial state."""

    model: str
    paradigm: str = "both"
    scenario: int | None = None
    c: float | None = None
    a: float | None = None
    b: float | None = None
    t0: float | None = None
    e0: float | None = None
    # the RK4 (and tau-leap) step: resolves the fastest scenario rate constant
    # (a = 1.636/day) by three orders of magnitude
    dt: float = 0.001
    t_end: float = 100.0
    grid: float = 1.0
    reps: int = DEFAULT_REPS
    seed: int = 1
    method: str = "exact"
    policy: str = "live"
    fix: str = "none"
    alpha: float = 0.05
    out: str = "."
    plot: bool = False

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None or not f.type.endswith(" | None"):
                object.__setattr__(self, f.name, _coerce(f.name, value))
        if self.model not in _MODELS:
            raise ConfigError(f"model: must be one of {_MODELS}, got {self.model!r}")
        for name, allowed in (("paradigm", _PARADIGMS), ("method", _METHODS),
                              ("policy", _POLICIES), ("fix", _FIXES)):
            v = getattr(self, name)
            if v not in allowed:
                raise ConfigError(f"{name}: must be one of {allowed}, got {v!r}")
        if self.model == "kuznetsov":
            for bad in ("c", "a", "b"):
                if getattr(self, bad) is not None:
                    raise ConfigError(f"{bad}: only applies to one-equation models, not kuznetsov")
            if self.policy == "frozen":
                raise ConfigError("policy: frozen is invalid for kuznetsov (one-equation models only)")
        else:
            if self.scenario is not None:
                raise ConfigError("scenario: only applies to the kuznetsov model")
            if self.e0 is not None:
                raise ConfigError("e0: one-equation models have no effector population")
            if self.fix == "both":
                raise ConfigError("fix: both floors the effector too; one-equation models have no effector population")
            has_c = self.c is not None
            has_ab = self.a is not None or self.b is not None
            if has_c and has_ab:
                raise ConfigError("give either the ratio c or explicit a/b, not both")
            if not has_c and not has_ab:
                raise ConfigError("one-equation models need either c or a and b")
            if has_ab and (self.a is None or self.b is None):
                raise ConfigError("a and b must be given together")
        # the initial state's defaults: arbitrary (no canonical values exist),
        # overridable, and stamped into every manifest
        if self.t0 is None:
            object.__setattr__(self, "t0", 100.0 if self.model == "kuznetsov" else 1.0)
        if self.e0 is None and self.model == "kuznetsov":
            object.__setattr__(self, "e0", 10.0)
        # SDS-only runs build no EnsembleSpec to check reps, and the library
        # checks alpha only after the SDS has run
        if self.policy == "frozen" and self.method == "tau":
            raise ConfigError("policy: frozen requires the exact method")
        if self.reps < 1:
            raise ConfigError(f"reps: must be >= 1, got {self.reps}")
        if not (0 < self.alpha < 1):
            raise ConfigError(f"alpha: must be in (0, 1), got {self.alpha}")

        # building the run checks every other rule: the scenario, the model's
        # domain (b < a ...), the populations, dt, t_end and the grid
        self.plan

    @cached_property
    def plan(self) -> tuple:
        """``(model, initial, grid, ensemble)``: what runs this spec, built
        once, each refusing what it cannot run, the ensemble also a replicate
        count too large to hold.  ``dt`` and ``t_end`` pass the step rule
        here, an SDS-only run's too.  ``grid`` is read-only, and ``ensemble``
        is None for an SDS-only run."""
        if self.model == "kuznetsov":
            model = scenario_preset(self.scenario)
        else:
            model = GrowthLaw(self.model, self.a, self.b) if self.c is None else experiment_one_law(self.model, self.c)
        initial = PopulationState(self.t0, self.e0)
        grid = stats.make_grid(self.t_end, self.grid)
        grid.flags.writeable = False
        _check_steps(self.dt, self.t_end)
        ensemble = None
        if self.paradigm != "sds":
            ensemble = EnsembleSpec(
                channels=model.channels,
                initial=initial,
                t_end=self.t_end,
                policy=RatePolicy(self.policy),
                floors=Floors.from_fix(self.fix),
                dt=self.dt if self.method == "tau" else None,
                grid=grid,
            )
            ensemble.values_shape(self.reps)
        return model, initial, grid, ensemble


# each field's type, read from its annotation ("int | None" -> int)
_FIELD_TYPES = {
    f.name: {"str": str, "int": int, "float": float, "bool": bool}[f.type.removesuffix(" | None")]
    for f in fields(RunSpec)
}


def _coerce(name: str, value):
    want = _FIELD_TYPES[name]
    if want is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{name}: expected a number, got {value!r}")
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(f"{name}: expected a number, got an integer too large for a double") from None
    if want is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{name}: expected an integer, got {value!r}")
        return value
    if want is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{name}: expected true/false, got {value!r}")
        return value
    if not isinstance(value, str):
        raise ConfigError(f"{name}: expected a string, got {value!r}")
    return value


def _validate_raw(raw: dict) -> RunSpec:
    unknown = sorted(set(raw) - set(_FIELD_TYPES))
    if unknown:
        raise ConfigError(f"unknown config field(s): {', '.join(unknown)}")
    vals = {k: v for k, v in raw.items() if v is not None}
    if "model" not in vals:
        raise ConfigError(f"model: required (one of {', '.join(_MODELS)})")
    return RunSpec(**vals)


def _decode_config(text: str) -> tuple[dict, dict | None]:
    """The raw fields of a JSON config document, or of a manifest's run spec,
    and the manifest (None for a config document)."""
    try:
        raw = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer of more digits than Python converts
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    manifest = None
    if isinstance(raw, dict) and "run_spec" in raw:
        manifest, raw = raw, raw["run_spec"]
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
    return raw, manifest


def parse_config(text: str) -> RunSpec:
    """Parse a JSON config document (or a previously written manifest) into a
    fully validated RunSpec with defaults filled in."""
    return _validate_raw(_decode_config(text)[0])


def _sds_times(spec: RunSpec) -> np.ndarray:
    """The times of sds.csv: every min(0.1, grid) days but no closer than dt,
    and ``t_end`` (the benchmark's tests read it at 0.1-day rows)."""
    times = stats.make_grid(spec.t_end, max(spec.dt, min(0.1, spec.grid)))
    return times if spec.t_end - times[-1] <= 1e-9 * max(1.0, spec.t_end) else np.append(times, spec.t_end)


def _comparison_csv(report: stats.ComparisonReport) -> tuple:
    header = ["time"] + [f"{kind}_{name}" for name in report.species for kind in ("sds", "abs_mean", "abs_var")]
    # columns sds, abs_mean, abs_var of each species in turn
    values = np.stack([report.sds, report.abs_mean, report.abs_variance], axis=2).reshape(len(report.grid), -1)
    return header, values, report.grid


def _json_doc(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _manifest(spec: RunSpec, outputs: list[str], results: dict) -> str:
    doc = {
        "format": "dualsim-manifest/1",
        "backend": kernels.BACKEND_NAME,
        "rng": kernels.RNG,
        "version": __version__,
        "run_spec": asdict(spec),
        "replicate_seeds": (
            [spec.seed + i for i in range(spec.reps)] if spec.paradigm in ("abs", "both") else []
        ),
        "outputs": sorted(outputs),
        "results": results,
    }
    return _json_doc(doc)


def _curve(label: str, species: str, values: np.ndarray) -> Curve:
    """One plotted series: tumour solid on the left axis, any other species
    dotted on the right."""
    return Curve(f"{label} {species}", values, secondary=species != "tumour")


def _model_label(spec: RunSpec) -> str:
    if spec.model == "kuznetsov":
        return f"kuznetsov scenario {spec.scenario}"
    if spec.c is not None:
        return f"{spec.model} c={spec.c:g}"
    return f"{spec.model} a={spec.a:g} b={spec.b:g}"


def _write_outputs(out_dir: str, outputs: dict[str, str | tuple]) -> list[Path]:
    """Writes every output to its ``.tmp`` file, a ``str`` as it is and a CSV
    ``(header, values, times)`` as its header line, then the rows that
    ``kernels.write_rows`` formats into the open file piece by piece; refuses
    a target that is a directory, then moves them all into place.  On any
    exception (an OSError, or a MemoryError while rows are formatted) it
    removes the ``.tmp`` files it made and re-raises, so that nothing is left
    behind unless a move fails part way."""
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    paths = [directory / name for name in sorted(outputs)]
    tmps: list[Path] = []
    try:
        for path in paths:
            tmp = path.with_name(path.name + ".tmp")
            tmps.append(tmp)
            output = outputs[path.name]
            with open(tmp, "w", encoding="utf-8", newline="\n") as file:
                if isinstance(output, str):
                    file.write(output)
                else:
                    header, values, times = output
                    file.write(",".join(header) + "\n")
                    kernels.write_rows(values, times, file.write)
        for path in paths:
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, "an output path is a directory", str(path))
        for path, tmp in zip(paths, tmps):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            with contextlib.suppress(OSError):
                tmp.unlink()
        raise
    return paths


def cmd_run(spec: RunSpec) -> list[Path]:
    """Execute the requested paradigm(s) and write trajectory CSVs, an
    optional SVG plot, and the manifest.  With both paradigms the SDS runs
    on a helper thread beside the ensemble (``ssa._beside``), an error of
    the SDS is raised before one of the ensemble, as if the SDS had run
    first, and an interrupt waits for the SDS.  The simulations run before
    anything is written; each CSV is formatted while it is written to its
    ``.tmp`` file, and nothing moves into place until every output is
    complete, so failures leave no partial files.  A plot leaves out an SDS
    that stopped before the grid's end, with a note on stderr; with nothing
    else to plot, no plot is written."""
    model, initial, grid, ensemble = spec.plan
    outputs: dict[str, str | tuple] = {}
    results: dict = {}
    plot_curves: list[Curve] = []

    def sds():
        return integrate(model, initial, dt=spec.dt, t_end=spec.t_end, grid=_sds_times(spec))

    if spec.paradigm == "both":
        ens, [traj] = _beside(lambda: run_ensemble(ensemble, reps=spec.reps, base_seed=spec.seed), [sds])
    elif spec.paradigm == "sds":
        traj, ens = sds(), None
    else:
        traj, ens = None, run_ensemble(ensemble, reps=spec.reps, base_seed=spec.seed)

    if traj is not None:
        outputs["sds.csv"] = (["time", *traj.species], traj.states, traj.times)
        results["sds_termination"] = traj.termination.value
        if spec.plot and traj.end_time >= grid[-1]:
            sds = stats.sample_on_grid(traj, grid)
            plot_curves += [_curve("sds", name, col) for name, col in zip(traj.species, sds.T)]
        elif spec.plot:
            print(f"note: the SDS ended early ({traj.termination.value} at t={traj.end_time:g}), so "
                  + ("plot.svg leaves it out" if ensemble is not None else "no plot.svg is written"),
                  file=sys.stderr)
    if ens is not None:
        outputs["abs_ensemble.csv"] = (["replicate", "time", *ens.species], ens.values, ens.grid)
        results["abs_terminations"] = sorted({t.value for t in ens.terminations})
        if spec.plot:
            mean = ens.values.mean(axis=0)
            plot_curves += [_curve("abs mean", name, col) for name, col in zip(ens.species, mean.T)]

    if spec.plot and plot_curves:
        outputs["plot.svg"] = emit_svg_plot(grid, plot_curves, title=_model_label(spec))

    outputs["manifest.json"] = _manifest(spec, [*outputs, "manifest.json"], results)
    return _write_outputs(spec.out, outputs)


def _require_both(paradigm) -> None:
    if paradigm != "both":
        raise ConfigError("compare needs paradigm=both")


def cmd_compare(spec: RunSpec) -> list[Path]:
    """Run the deterministic trajectory and the stochastic ensemble, test
    their agreement per population, and write report.json, comparison.csv,
    comparison.svg and the manifest.  The SDS runs on a helper thread beside
    the ensemble (``ssa._beside``), as in :func:`cmd_run`.  An SDS that ends
    before the grid's end is an engine error; it and any other error of the
    SDS are raised before one of the ensemble, but only once the ensemble
    has run as well.  An interrupt waits for the SDS to end."""
    _require_both(spec.paradigm)
    model, initial, grid, ensemble = spec.plan

    def sds():
        traj = integrate(model, initial, dt=spec.dt, t_end=spec.t_end, grid=grid)
        if traj.end_time < grid[-1]:
            raise EngineError(
                f"deterministic run terminated early ({traj.termination.value} at t={traj.end_time:g}); "
                "cannot compare on the requested grid"
            )
        return traj

    ens, [traj] = _beside(lambda: run_ensemble(ensemble, reps=spec.reps, base_seed=spec.seed), [sds])
    report = stats.compare(traj, ens, alpha=spec.alpha)

    doc = report.to_dict()
    doc["metadata"].update(model=_model_label(spec), policy=spec.policy, fix=spec.fix, method=spec.method,
                           t0=spec.t0, e0=spec.e0)
    curves = [
        _curve(label, name, values[:, k])
        for k, name in enumerate(report.species)
        for label, values in (("sds", report.sds), ("abs mean", report.abs_mean))
    ]
    outputs = {
        "report.json": _json_doc(doc),
        "comparison.csv": _comparison_csv(report),
        "comparison.svg": emit_svg_plot(grid, curves, title=_model_label(spec)),
    }
    results = {
        "sds_termination": traj.termination.value,
        "wilcoxon": {name: pop["wilcoxon"] for name, pop in doc["populations"].items()},
    }
    outputs["manifest.json"] = _manifest(spec, [*outputs, "manifest.json"], results)
    return _write_outputs(spec.out, outputs)


def list_scenarios() -> str:
    rows = ["scenario    b        d        s"]
    for i in (1, 2, 3, 4):
        p = scenario_preset(i)
        note = "  (no treatment)" if p.s == 0 else ""
        rows.append(f"{i}           {p.b:<8g} {p.d:<8g} {p.s:<8g}{note}")
    shared = scenario_preset(1)
    rows.append(
        f"shared across scenarios: a={shared.a:g}, g={shared.g:g}, "
        f"m={shared.m:g}, n={shared.n:g}, p={shared.p:g}"
    )
    return "\n".join(rows)


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="PATH", help="JSON config document or a previous manifest")
    p.add_argument("--model", choices=_MODELS)
    p.add_argument("--scenario", type=int, help="kuznetsov parameter scenario (1..4)")
    p.add_argument("--paradigm", choices=_PARADIGMS)
    p.add_argument("--c", type=float, help="ratio a/b for one-equation laws (sets a=1, b=1/c)")
    p.add_argument("--a", type=float, help="proliferation constant (one-equation)")
    p.add_argument("--b", type=float, help="death constant (one-equation)")
    p.add_argument("--t0", type=float, help="initial tumour cells")
    p.add_argument("--e0", type=float, help="initial effector cells (kuznetsov)")
    p.add_argument("--t-end", dest="t_end", type=float, help="horizon in days")
    p.add_argument("--dt", type=float, help="integration / leap step in days")
    p.add_argument("--grid", type=float, help="spacing in days of the grid the outputs are recorded on")
    p.add_argument("--reps", type=int, help="stochastic replicates")
    p.add_argument("--seed", type=int, help="base seed; replicate i uses seed + i")
    p.add_argument("--method", choices=_METHODS, help="stochastic stepper")
    p.add_argument("--policy", choices=_POLICIES, help="death-rate policy (one-equation)")
    p.add_argument("--fix", choices=_FIXES, help="extinction floors: none, tumour, or both")
    p.add_argument("--alpha", type=float, help="rank-sum significance level")
    p.add_argument("--out", help="output directory")
    p.add_argument("--plot", action="store_true", default=None, help="also write an SVG plot")


def _load_spec(args: argparse.Namespace, compare: bool = False) -> RunSpec:
    raw: dict = {}
    if args.config:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        doc, manifest = _decode_config(text)
        raw.update(doc)
        # a manifest of another stream runs, but its seeded draws may differ
        rng = manifest.get("rng") if manifest is not None else kernels.RNG
        if rng != kernels.RNG:
            recorded = "no rng" if rng is None else f"rng {rng!r}"
            print(f"note: manifest {args.config} records {recorded}, not {kernels.RNG!r}: "
                  "its seeded stochastic outputs may not reproduce", file=sys.stderr)
    for name in _FIELD_TYPES:
        v = getattr(args, name, None)
        if v is not None:
            raw[name] = v
    if compare:
        # before validation, which builds the run and so may raise an engine error
        _require_both(raw.setdefault("paradigm", "both"))
    return _validate_raw(raw)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dualsim",
        description="Simulate tumour growth / tumour-effector models both as "
        "deterministic ODE systems and as stochastic discrete birth-death "
        "processes, and quantify whether the two paradigms agree.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="simulate and write trajectory CSVs + manifest")
    _add_run_flags(run_p)
    cmp_p = sub.add_parser("compare", help="run both paradigms and write an agreement report")
    _add_run_flags(cmp_p)
    sub.add_parser("list-scenarios", help="print the kuznetsov scenario presets")

    args = parser.parse_args(argv)
    try:
        if args.command == "list-scenarios":
            print(list_scenarios())
            return 0
        if args.command == "run":
            paths = cmd_run(_load_spec(args))
        else:
            paths = cmd_compare(_load_spec(args, compare=True))
        for path in paths:
            print(path)
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except EngineError as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # e.g. more replicates than memory holds
        detail = str(exc)
        print("engine error: out of memory" + (f": {detail}" if detail else ""), file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
