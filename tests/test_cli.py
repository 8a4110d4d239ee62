"""CLI: config parsing, file emission, exit codes, reproducibility."""

import errno
import json
import signal
import threading
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import dualsim
from dualsim import kernels
from dualsim.cli import (
    RunSpec,
    _comparison_csv,
    _sds_times,
    _write_outputs,
    cmd_compare,
    cmd_run,
    list_scenarios,
    main,
    parse_config,
)
from dualsim.errors import ConfigError, EngineError
from dualsim.kernels import _pykernels
from dualsim.models import GrowthLaw, PopulationState, scenario_preset
from dualsim.sds import integrate
from dualsim.ssa import EnsembleSpec, run_ensemble, simulate_exact
from dualsim.stats import compare, make_grid, sample_on_grid
from dualsim.trajectory import Paradigm, Termination, Trajectory
from reference import assert_same_text


def read(path):
    return path.read_text(encoding="utf-8")


class TestParseConfig:
    def test_minimal_logistic_fills_defaults(self):
        spec = parse_config('{"model": "logistic", "c": 5, "paradigm": "both"}')
        assert spec.c == 5.0
        assert spec.t0 == 1.0
        assert spec.reps == 50
        assert spec.alpha == 0.05
        assert spec.dt == 0.001
        assert spec.grid == 1.0
        assert spec.t_end == 100.0
        assert spec.method == "exact"
        assert spec.policy == "live"
        assert spec.fix == "none"

    def test_kuznetsov_fix_run(self):
        spec = parse_config('{"model": "kuznetsov", "scenario": 4, "fix": "tumour"}')
        assert spec.scenario == 4
        assert spec.fix == "tumour"
        assert spec.t0 == 100.0 and spec.e0 == 10.0  # documented arbitrary defaults

    def test_frozen_with_kuznetsov_rejected(self):
        with pytest.raises(ConfigError, match="frozen"):
            parse_config('{"model": "kuznetsov", "scenario": 1, "policy": "frozen"}')

    @pytest.mark.parametrize("doc,msg", [
        ('{"c": 5}', "model"),
        ('{"model": "hybrid", "c": 5}', "model"),
        ('{"model": "logistic"}', "c or a and b"),
        ('{"model": "logistic", "c": 5, "a": 1, "b": 0.2}', "not both"),
        ('{"model": "logistic", "a": 1}', "together"),
        ('{"model": "logistic", "c": 5, "scenario": 1}', "scenario"),
        ('{"model": "logistic", "c": 5, "e0": 1}', "e0"),
        ('{"model": "logistic", "c": 5, "fix": "both"}', "fix"),
        ('{"model": "kuznetsov"}', "scenario"),
        ('{"model": "kuznetsov", "scenario": 9}', "scenario"),
        ('{"model": "kuznetsov", "scenario": 1, "c": 5}', "one-equation"),
        ('{"model": "logistic", "c": 5, "reps": 0}', "reps"),
        ('{"model": "logistic", "c": 5, "alpha": 1.0}', "alpha"),
        ('{"model": "logistic", "c": 5, "dt": -1}', "dt"),
        ('{"model": "logistic", "c": 5, "grid": 1000}', "grid"),
        ('{"model": "logistic", "c": 0.5}', "c"),
        ('{"model": "logistic", "a": 1, "b": 2}', "b < a"),
        ('{"model": "logistic", "c": 5, "paradigm": "abs", "t0": 1.5}', "integer"),
        ('{"model": "logistic", "c": 5, "t0": Infinity}', "finite"),
        ('{"model": "logistic", "c": 5, "t0": NaN}', "finite"),
        ('{"model": "kuznetsov", "scenario": 1, "e0": Infinity}', "finite"),
        ('{"model": "logistic", "c": 5, "policy": "frozen", "method": "tau"}', "exact"),
        ('{"model": "logistic", "c": 5, "volume": 3}', "unknown"),
        ('[1, 2]', "object"),
        ('{"model": "logistic", "c": 5', "JSON"),
    ])
    def test_validation_errors(self, doc, msg):
        with pytest.raises(ConfigError, match=msg):
            parse_config(doc)
        # a spec built in code is refused alike; model is its one required argument
        try:
            raw = json.loads(doc)
        except json.JSONDecodeError:
            return
        if isinstance(raw, dict) and "model" in raw and set(raw) <= {f.name for f in fields(RunSpec)}:
            with pytest.raises(ConfigError, match=msg):
                RunSpec(**raw)

    def test_a_spec_built_in_code_takes_the_model_defaults(self, tmp_path, monkeypatch):
        spec = RunSpec(model="kuznetsov", scenario=4, paradigm="sds", t_end=2.0, out="out")
        assert (spec.t0, spec.e0) == (100.0, 10.0)
        assert RunSpec(model="kuznetsov", scenario=4, e0=10.0).t0 == 100.0
        assert (RunSpec(model="logistic", c=5).t0, RunSpec(model="logistic", c=5).e0) == (1.0, None)
        for name in ("code", "cli"):
            (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / "code")
        cmd_run(spec)
        monkeypatch.chdir(tmp_path / "cli")
        assert main(["run", "--model", "kuznetsov", "--scenario", "4", "--paradigm", "sds", "--t-end", "2",
                     "--out", "out"]) == 0
        manifest = (tmp_path / "code" / "out" / "manifest.json").read_bytes()
        assert manifest == (tmp_path / "cli" / "out" / "manifest.json").read_bytes()
        assert json.loads(manifest)["run_spec"]["t0"] == 100.0

    def test_a_spec_is_coerced_when_built(self):
        spec = RunSpec(model="logistic", c=5, t_end=2)
        assert type(spec.c) is float and type(spec.t_end) is float
        assert spec == parse_config('{"model": "logistic", "c": 5.0, "t_end": 2.0}')
        with pytest.raises(ConfigError, match="dt: expected a number, got None"):
            RunSpec(model="logistic", c=5, dt=None)

    def test_accepts_manifest_documents(self, tmp_path):
        spec = RunSpec(model="logistic", c=5.0, paradigm="sds", t_end=2.0, out=str(tmp_path))
        cmd_run(spec)
        reparsed = parse_config(read(tmp_path / "manifest.json"))
        assert reparsed == spec


class TestCmdRun:
    def test_sds_only_outputs(self, tmp_path):
        spec = parse_config(json.dumps({
            "model": "logistic", "c": 5, "paradigm": "sds", "t_end": 5.0, "out": str(tmp_path),
        }))
        paths = cmd_run(spec)
        names = sorted(p.name for p in paths)
        assert names == ["manifest.json", "sds.csv"]
        csv = read(tmp_path / "sds.csv").splitlines()
        assert csv[0] == "time,tumour"
        assert csv[1].startswith("0.000000,1.0")
        manifest = json.loads(read(tmp_path / "manifest.json"))
        assert manifest["run_spec"]["model"] == "logistic"
        assert manifest["replicate_seeds"] == []
        assert manifest["backend"] == dualsim.BACKEND_NAME
        assert manifest["rng"] == "sfc64-splitmix64-ziggurat"
        assert manifest["version"] == dualsim.__version__

    @pytest.mark.parametrize("grid, dt, times", [
        (0.05, 0.001, make_grid(2.0, 0.05)),
        (0.5, 0.001, make_grid(2.0, 0.1)),
        (0.7, 0.001, [*make_grid(2.0, 0.1), 2.05]),
        (0.05, 0.25, make_grid(2.0, 0.25)),
    ], ids=["grid", "coarse-grid", "coarse-grid-off-the-tenths", "coarse-dt"])
    def test_sds_csv_rows_every_min_of_grid_and_a_tenth_no_closer_than_dt(self, tmp_path, grid, dt, times):
        t_end = times[-1]
        spec = parse_config(json.dumps({
            "model": "logistic", "c": 5, "paradigm": "sds", "t_end": t_end, "grid": grid, "dt": dt,
            "plot": True, "out": str(tmp_path),
        }))
        cmd_run(spec)
        rows = read(tmp_path / "sds.csv").splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == [f"{t:.6f}" for t in times]
        assert "sds tumour" in read(tmp_path / "plot.svg")

    def test_kuznetsov_sds_header(self, tmp_path):
        spec = parse_config(json.dumps({
            "model": "kuznetsov", "scenario": 1, "paradigm": "sds", "t_end": 2.0,
            "out": str(tmp_path),
        }))
        cmd_run(spec)
        assert read(tmp_path / "sds.csv").splitlines()[0] == "time,tumour,effector"

    def test_abs_ensemble_blocks(self, tmp_path):
        spec = parse_config(json.dumps({
            "model": "logistic", "c": 5, "paradigm": "abs", "t_end": 3.0, "reps": 4,
            "seed": 9, "out": str(tmp_path),
        }))
        cmd_run(spec)
        lines = read(tmp_path / "abs_ensemble.csv").splitlines()
        assert lines[0] == "replicate,time,tumour"
        replicates = {line.split(",")[0] for line in lines[1:]}
        assert replicates == {"0", "1", "2", "3"}
        manifest = json.loads(read(tmp_path / "manifest.json"))
        assert manifest["replicate_seeds"] == [9, 10, 11, 12]

    # von Bertalanffy at a = 1, b = 0.5 blows up between t = 4 and t = 5
    BLOWUP = ["run", "--model", "bertalanffy", "--a", "1", "--b", "0.5", "--t-end", "10", "--plot"]

    def test_plot_of_an_sds_alone_that_stops_early_is_not_written_with_a_note(self, tmp_path, capsys):
        assert main([*self.BLOWUP, "--paradigm", "sds", "--out", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == "note: the SDS ended early (blow-up at t=4.1), so no plot.svg is written\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json", "sds.csv"]
        assert json.loads(read(tmp_path / "manifest.json"))["results"]["sds_termination"] == "blow-up"

    def test_plot_leaves_out_an_sds_that_stops_early_with_a_note(self, tmp_path, capsys):
        assert main([*self.BLOWUP, "--reps", "2", "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == "note: the SDS ended early (blow-up at t=4.1), so plot.svg leaves it out\n"
        svg = read(tmp_path / "plot.svg")
        assert "abs mean tumour" in svg and "sds tumour" not in svg

    def test_plot_of_an_sds_that_completes_has_no_note(self, tmp_path, capsys):
        assert main([*self.BLOWUP, "--paradigm", "sds", "--t-end", "4", "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        assert "sds tumour" in read(tmp_path / "plot.svg")

    def test_plot_flag_writes_svg(self, tmp_path):
        spec = parse_config(json.dumps({
            "model": "kuznetsov", "scenario": 1, "paradigm": "sds", "t_end": 5.0,
            "plot": True, "out": str(tmp_path),
        }))
        cmd_run(spec)
        svg = read(tmp_path / "plot.svg")
        assert svg.startswith("<svg")
        assert "stroke-dasharray" in svg  # effector curve is dotted

    def test_both_paradigms(self, tmp_path):
        spec = parse_config(json.dumps({
            "model": "logistic", "c": 5, "paradigm": "both", "t_end": 2.0, "reps": 2,
            "out": str(tmp_path),
        }))
        paths = cmd_run(spec)
        assert sorted(p.name for p in paths) == ["abs_ensemble.csv", "manifest.json", "sds.csv"]

    @pytest.mark.parametrize("model", ["logistic", "bertalanffy", "gompertz"])
    def test_a_ratio_runs_the_law_with_a_one(self, tmp_path, model):
        # c = 5 is a = 1, b = 0.2: the same law, so the same output bytes
        outputs = []
        for rates, out in ((["--c", "5"], "ratio"), (["--a", "1", "--b", "0.2"], "rates")):
            assert main(["run", "--model", model, *rates, "--t-end", "3", "--reps", "3",
                         "--out", str(tmp_path / out)]) == 0
            outputs.append({name: read(tmp_path / out / name) for name in ("sds.csv", "abs_ensemble.csv")})
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("model", [
        ["--model", "logistic", "--c", "2"],
        ["--model", "gompertz", "--c", "2"],
        ["--model", "bertalanffy", "--c", "2"],
        ["--model", "kuznetsov", "--scenario", "4", "--e0", "0"],
    ], ids=["logistic", "gompertz", "bertalanffy", "kuznetsov"])
    @pytest.mark.parametrize("command", [
        ["run", "--paradigm", "sds"], ["run", "--paradigm", "abs"], ["run", "--paradigm", "both"], ["compare"],
    ], ids=["sds", "abs", "both", "compare"])
    def test_a_spec_that_builds_from_zero_also_runs(self, tmp_path, model, command):
        # every law may start at T(0) = 0, its fixed point on both paradigms
        argv = [*command, *model, "--t0", "0", "--t-end", "2", "--reps", "3", "--out", str(tmp_path)]
        assert main(argv) == 0
        for name in ("sds.csv", "abs_ensemble.csv"):
            if (tmp_path / name).exists():
                rows = np.loadtxt(tmp_path / name, delimiter=",", skiprows=1, ndmin=2)
                assert np.all(rows[:, 2 if name == "abs_ensemble.csv" else 1] == 0.0)


def reference_sds_csv(traj):
    # the per-cell formula of the original writer, kept as the byte reference
    lines = ["time," + ",".join(traj.species)]
    for i in range(len(traj.times)):
        cells = [f"{traj.times[i]:.6f}"] + [repr(float(v)) for v in traj.states[i]]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def reference_ensemble_csv(spec, reps, base_seed, grid):
    # the per-cell formula of the original writer, over the per-event
    # replicates step-sampled on the grid
    lines = ["replicate,time," + ",".join(spec.channels.species)]
    for r in range(reps):
        rep = simulate_exact(spec, seed=base_seed + r)
        values = sample_on_grid(rep, grid)
        for i in range(len(grid)):
            cells = [str(r), f"{grid[i]:.6f}"]
            cells += [repr(float(v)) for v in values[i]]
            lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def reference_comparison_csv(report):
    # the per-cell formula of the original writer
    header = ["time"]
    for name in report.species:
        header += [f"sds_{name}", f"abs_mean_{name}", f"abs_var_{name}"]
    lines = [",".join(header)]
    for i, t in enumerate(report.grid):
        cells = [f"{t:.6f}"]
        for k in range(len(report.species)):
            cells += [repr(float(v)) for v in (report.sds[i, k], report.abs_mean[i, k], report.abs_variance[i, k])]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


COMPARISON_CASES = [
    (scenario_preset(4), (100, 10)),
    (GrowthLaw("logistic", 1.0, 0.2), (5,)),
]


def render(directory, output):
    """The text ``_write_outputs`` writes for one output."""
    [path] = _write_outputs(str(directory / "render"), {"output.csv": output})
    return read(path)


class TestCsvWriters:
    """The CSVs are formatted through ``kernels.write_rows``: these tests run
    the active backend's, and the last runs them all on the pure twin."""

    # the last with 10,001 points, so that 13 replicates reach the file in many pieces
    GRIDS = [make_grid(2.0, 0.01), np.arange(0.0, 2.0, 1 / 3), make_grid(2.0, 0.0002)]

    def test_sds_csv_matches_the_per_cell_formula(self, tmp_path):
        traj = integrate(scenario_preset(2), PopulationState(100.0, 10.0),
                         dt=0.01, t_end=3.0, grid=make_grid(3.0, 0.07))
        assert_same_text(render(tmp_path, (["time", *traj.species], traj.states, traj.times)), reference_sds_csv(traj))
        awkward = Trajectory(
            times=np.array([0.0, 1 / 3, 2.0000005, 7.1234565, 1e6]),
            states=np.array([[0.1 + 0.2, 0.0], [1e-300, 1e300], [1 / 3, 2.0**53 + 2],
                             [5e-324, 123456789.125], [1.0, 2.5]]),
            species=("tumour", "effector"), termination=Termination.COMPLETED,
            paradigm=Paradigm.SDS,
        )
        assert_same_text(render(tmp_path, (["time", *awkward.species], awkward.states, awkward.times)),
                         reference_sds_csv(awkward))

    @pytest.mark.parametrize("grid", GRIDS, ids=["grid", "thirds", "10001-points"])
    def test_ensemble_csv_matches_the_per_cell_formula(self, tmp_path, grid):
        spec = EnsembleSpec(channels=scenario_preset(4).channels,
                            initial=PopulationState(100, 10), t_end=2.0)
        ens = run_ensemble(replace(spec, grid=grid), reps=13, base_seed=5)
        text = render(tmp_path, (["replicate", "time", *ens.species], ens.values, ens.grid))
        assert_same_text(text, reference_ensemble_csv(spec, 13, 5, grid))

    @pytest.mark.parametrize("model, initial", COMPARISON_CASES, ids=["two-species", "one-species"])
    def test_comparison_csv_matches_the_per_cell_formula(self, tmp_path, model, initial):
        sds = integrate(model, PopulationState(*map(float, initial)),
                        dt=0.01, t_end=3.0, grid=make_grid(3.0, 0.1))
        ens = run_ensemble(EnsembleSpec(channels=model.channels, initial=PopulationState(*initial),
                                        t_end=3.0, grid=np.arange(0.0, 3.0, 1 / 3)),
                           reps=3, base_seed=2)
        report = compare(sds, ens)
        assert_same_text(render(tmp_path, _comparison_csv(report)), reference_comparison_csv(report))

    def test_cmd_run_writes_the_per_cell_formula(self, tmp_path):
        spec = RunSpec(model="kuznetsov", scenario=4, t_end=2.0, grid=0.05, reps=3, seed=5, out=str(tmp_path))
        cmd_run(spec)
        model, initial, _, ensemble = spec.plan
        traj = integrate(model, initial, dt=spec.dt, t_end=spec.t_end, grid=_sds_times(spec))
        assert_same_text(read(tmp_path / "sds.csv"), reference_sds_csv(traj))
        assert_same_text(read(tmp_path / "abs_ensemble.csv"),
                         reference_ensemble_csv(replace(ensemble, grid=None), 3, 5, ensemble.grid))

    def test_the_pure_twin_writes_the_same_bytes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(kernels, "write_rows", _pykernels.write_rows)
        self.test_sds_csv_matches_the_per_cell_formula(tmp_path)
        for grid in self.GRIDS:
            self.test_ensemble_csv_matches_the_per_cell_formula(tmp_path, grid)
        for case in COMPARISON_CASES:
            self.test_comparison_csv_matches_the_per_cell_formula(tmp_path, *case)
        self.test_cmd_run_writes_the_per_cell_formula(tmp_path / "run")


class TestCmdCompare:
    def test_outputs_and_report_schema(self, tmp_path):
        spec = parse_config(json.dumps({
            "model": "kuznetsov", "scenario": 1, "t_end": 20.0, "reps": 5,
            "out": str(tmp_path),
        }))
        paths = cmd_compare(spec)
        assert sorted(p.name for p in paths) == [
            "comparison.csv", "comparison.svg", "manifest.json", "report.json",
        ]
        report = json.loads(read(tmp_path / "report.json"))
        for pop in ("tumour", "effector"):
            w = report["populations"][pop]["wilcoxon"]
            assert set(w) == {"U", "p", "h"}
            assert w["h"] in (0, 1)
        header = read(tmp_path / "comparison.csv").splitlines()[0]
        assert header == ("time,sds_tumour,abs_mean_tumour,abs_var_tumour,"
                          "sds_effector,abs_mean_effector,abs_var_effector")

    def test_the_plan_is_built_once_per_spec(self, tmp_path, monkeypatch):
        builds = []

        def counted(build):
            def counting(*args, **kwargs):
                builds.append(build.__name__)
                return build(*args, **kwargs)
            return counting

        for name in ("_check_steps", "EnsembleSpec"):
            monkeypatch.setattr(dualsim.cli, name, counted(getattr(dualsim.cli, name)))
        spec = RunSpec(model="logistic", c=5, t_end=5.0, reps=3, out=str(tmp_path))
        assert spec.plan is spec.plan and not spec.plan[2].flags.writeable
        cmd_compare(spec)
        assert builds == ["_check_steps", "EnsembleSpec"]

    def test_compare_requires_both(self):
        spec = parse_config('{"model": "logistic", "c": 5, "paradigm": "sds"}')
        with pytest.raises(ConfigError, match="both"):
            cmd_compare(spec)

    def test_one_equation_compare(self, tmp_path):
        spec = parse_config(json.dumps({
            "model": "logistic", "c": 5, "t_end": 10.0, "reps": 6, "out": str(tmp_path),
        }))
        cmd_compare(spec)
        report = json.loads(read(tmp_path / "report.json"))
        assert list(report["populations"]) == ["tumour"]
        header = read(tmp_path / "comparison.csv").splitlines()[0]
        assert header == "time,sds_tumour,abs_mean_tumour,abs_var_tumour"

    def test_report_metadata_records_the_run(self, tmp_path):
        spec = parse_config(json.dumps({
            "model": "kuznetsov", "scenario": 4, "fix": "tumour", "t_end": 5.0, "grid": 0.5, "reps": 3,
            "seed": 3, "alpha": 0.1, "out": str(tmp_path),
        }))
        cmd_compare(spec)
        report = json.loads(read(tmp_path / "report.json"))
        assert report["metadata"] == {
            "alpha": 0.1,
            "grid_spacing": 0.5,
            "grid_points": 11,
            "reps": 3,
            "base_seed": 3,
            "protocol": "per population: linear-interpolated SDS series vs step-sampled ABS ensemble-mean series, "
                        "two-sided rank-sum",
            "model": "kuznetsov scenario 4",
            "policy": "live",
            "fix": "tumour",
            "method": "exact",
            "t0": 100.0,
            "e0": 10.0,
        }


class TestReproducibility:
    def test_rerun_from_manifest_is_byte_identical(self, tmp_path):
        out = tmp_path / "run"
        spec = parse_config(json.dumps({
            "model": "kuznetsov", "scenario": 4, "t_end": 15.0, "reps": 4, "seed": 3,
            "out": str(out),
        }))
        paths = cmd_compare(spec)
        before = {p.name: p.read_bytes() for p in paths}
        respec = parse_config(read(out / "manifest.json"))
        cmd_compare(respec)
        after = {p.name: p.read_bytes() for p in paths}
        assert before == after

    def test_run_twice_same_spec(self, tmp_path):
        spec = parse_config(json.dumps({
            "model": "logistic", "c": 1.25, "paradigm": "both", "t_end": 5.0, "reps": 3,
            "policy": "frozen", "out": str(tmp_path), "plot": True,
        }))
        first = {p.name: p.read_bytes() for p in cmd_run(spec)}
        second = {p.name: p.read_bytes() for p in cmd_run(spec)}
        assert first == second


class TestMainExitCodes:
    def test_success(self, tmp_path, capsys):
        rc = main(["run", "--model", "logistic", "--c", "5", "--paradigm", "sds",
                   "--t-end", "2", "--out", str(tmp_path)])
        assert rc == 0
        assert "sds.csv" in capsys.readouterr().out

    def test_config_error_is_2(self, tmp_path, capsys):
        rc = main(["run", "--model", "kuznetsov", "--scenario", "1", "--policy", "frozen",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []  # nothing written

    def test_engine_error_is_3_and_cites_the_cap(self, tmp_path, capsys):
        rc = main(["run", "--model", "gompertz", "--a", "1.636", "--b", "0.002",
                   "--paradigm", "abs", "--method", "tau", "--dt", "0.001",
                   "--reps", "1", "--out", str(tmp_path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "cap" in err
        assert list(tmp_path.iterdir()) == []

    def test_leaps_too_large_for_a_long_count_reach_the_cap(self, tmp_path, capsys):
        # births and deaths of about 1e278 and 1e277 per leap: their counts
        # must not cancel or wrap below the cap
        rc = main(["run", "--model", "logistic", "--a", "1e280", "--b", "1e279", "--method", "tau",
                   "--paradigm", "abs", "--t-end", "1", "--grid", "0.5", "--dt", "0.01", "--reps", "1",
                   "--out", str(tmp_path)])
        assert rc == 3
        assert "cap" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_grid_too_large_to_hold_is_2(self, tmp_path, capsys):
        rc = main(["run", "--model", "logistic", "--c", "5", "--paradigm", "abs",
                   "--grid", "1e-300", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: a grid of ") and "too large" in err
        assert len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, message", [
        (["run", "--t-end", "1e300", "--grid", "1e-300"], "a grid of inf points is too large to hold"),
        (["run", "--t-end", "2", "--reps", "100000000000000000000"], "too many to hold"),
        (["compare", "--t-end", "2", "--reps", "100000000000000000000"], "too many to hold"),
    ], ids=["grid", "run-reps", "compare-reps"])
    def test_sizes_too_large_to_represent_are_2(self, tmp_path, capsys, argv, message):
        rc = main([*argv, "--model", "logistic", "--c", "5", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and message in err and len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_too_many_replicates_are_refused_before_the_sds_runs(self, tmp_path, capsys, monkeypatch, command):
        # a 10M-step RK4 run that the replicate count makes pointless
        def no_integration(*args, **kwargs):
            raise AssertionError("integrate ran")

        monkeypatch.setattr(dualsim.cli, "integrate", no_integration)
        rc = main([command, "--model", "kuznetsov", "--scenario", "4", "--t-end", "1000", "--dt", "1e-4",
                   "--reps", "100000000000000000000", "--out", str(tmp_path)])
        assert rc == 2
        assert "too many to hold" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, value", [("--t0", "nan"), ("--t-end", "inf")])
    def test_non_finite_value_is_2_and_writes_nothing(self, tmp_path, capsys, flag, value):
        rc = main(["run", "--model", "logistic", "--c", "5", flag, value, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("field", ["t_end", "c", "t0", "dt", "alpha"])
    def test_an_int_too_large_for_a_double_is_2(self, tmp_path, capsys, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "logistic", "c": 5, "t_end": 2, field: 10**400}))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (f"configuration error: {field}: expected a number, "
                                          "got an integer too large for a double\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["run", "--model", "logistic", "--c", "5", "--paradigm", "sds"],
        ["run", "--model", "kuznetsov", "--scenario", "2", "--paradigm", "abs", "--method", "tau",
         "--reps", "1"],
    ], ids=["rk4", "tau"])
    def test_fixed_step_runs_past_the_step_budget_are_2(self, tmp_path, capsys, argv):
        rc = main([*argv, "--t-end", "1e10", "--dt", "1e-10", "--grid", "1e10", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and "at most 5e+07 steps" in err
        assert list(tmp_path.iterdir()) == []

    def test_a_dt_past_t_end_names_only_dt_and_t_end(self, tmp_path, capsys):
        rc = main(["compare", "--model", "kuznetsov", "--scenario", "4", "--t-end", "1e-12", "--grid", "1e-12",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == ("configuration error: need dt <= t_end and at most 5e+07 steps, "
                                          "got dt=0.001, t_end=1e-12\n")
        assert list(tmp_path.iterdir()) == []

    def test_compare_refuses_another_paradigm_before_building_the_run(self, tmp_path, capsys):
        # t0 above the population cap would be an engine error (3) once the run is built
        rc = main(["compare", "--model", "logistic", "--c", "5", "--paradigm", "abs", "--t0", "1e13",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == "configuration error: compare needs paradigm=both\n"

    def test_out_of_memory_is_3(self, tmp_path, capsys, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 1.00 PiB")

        monkeypatch.setattr(dualsim.cli, "run_ensemble", no_memory)
        rc = main(["run", "--model", "logistic", "--c", "5", "--paradigm", "abs",
                   "--t-end", "2", "--out", str(tmp_path)])
        assert rc == 3
        assert capsys.readouterr().err == "engine error: out of memory: Unable to allocate 1.00 PiB\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("backend", {mod.__name__: mod for mod in (_pykernels, kernels.backend)}.values(),
                             ids=lambda mod: mod.__name__.rpartition(".")[2])
    @pytest.mark.parametrize("kernel, argv, error", [
        # a logistic stock of 1e150 falls by about 1e300 a day: no halving of the step keeps it above zero
        ("rk4_growth", ["--a", "2", "--b", "1", "--t0", "1e150", "--paradigm", "sds", "--dt", "1", "--t-end", "2"],
         "integration step kept undershooting zero after 40 local halvings"),
        # a birth rate of 1e308 is finite, but a leap of 2 at it has an infinite mean
        ("tau_leap", ["--a", "1e308", "--b", "1", "--paradigm", "abs", "--method", "tau", "--dt", "2", "--t-end", "4",
                      "--reps", "1", "--seed", "3"],
         "replicate 0 (seed 3): total event rate negative, infinite or nan (seed 3) at t=0 with population 1; a "
         "channel's rate law left its domain or double range"),
    ], ids=["sds-undershooting", "leap-of-infinite-mean"])
    def test_a_run_that_the_kernel_stops_is_3_and_writes_nothing(self, tmp_path, capsys, monkeypatch, backend, kernel,
                                                                argv, error):
        monkeypatch.setattr(kernels, kernel, getattr(backend, kernel))
        rc = main(["run", "--model", "logistic", *argv, "--out", str(tmp_path)])
        assert rc == 3
        assert capsys.readouterr().err == f"engine error: {error}\n"
        assert list(tmp_path.iterdir()) == []

    def test_an_sds_that_ends_early_is_3_in_compare_and_writes_nothing(self, tmp_path, capsys):
        threads = threading.active_count()
        # von Bertalanffy growth at a/b = 2 passes 1e300 past t = 4
        rc = main(["compare", "--model", "bertalanffy", "--a", "1", "--b", "0.5", "--t-end", "10", "--reps", "2",
                   "--out", str(tmp_path)])
        assert rc == 3
        assert capsys.readouterr().err == ("engine error: deterministic run terminated early (blow-up at t=4); "
                                          "cannot compare on the requested grid\n")
        assert list(tmp_path.iterdir()) == []
        assert threading.active_count() == threads

    # both commands that run both paradigms, the SDS beside the ensemble
    BOTH = {"compare": ["compare"], "run": ["run", "--paradigm", "both"]}

    @staticmethod
    def fail(monkeypatch, name, message):
        """Make ``dualsim.cli``'s ``name`` raise an EngineError of ``message``
        after a moment, so that the other side is still running."""
        def failing(*args, **kwargs):
            time.sleep(0.05)
            raise EngineError(message)

        monkeypatch.setattr(dualsim.cli, name, failing)

    @pytest.mark.parametrize("command", BOTH)
    def test_the_sds_error_wins_when_both_sides_raise(self, tmp_path, capsys, monkeypatch, command):
        threads = threading.active_count()
        self.fail(monkeypatch, "integrate", "the SDS failed")
        self.fail(monkeypatch, "run_ensemble", "the ensemble failed")
        rc = main([*self.BOTH[command], "--model", "logistic", "--c", "5", "--t-end", "2", "--reps", "2",
                   "--out", str(tmp_path)])
        assert rc == 3
        assert capsys.readouterr().err == "engine error: the SDS failed\n"
        assert list(tmp_path.iterdir()) == []
        assert threading.active_count() == threads

    @pytest.mark.parametrize("command", BOTH)
    def test_the_ensemble_error_is_raised_when_the_sds_succeeds(self, tmp_path, capsys, monkeypatch, command):
        threads = threading.active_count()
        self.fail(monkeypatch, "run_ensemble", "the ensemble failed")
        rc = main([*self.BOTH[command], "--model", "logistic", "--c", "5", "--t-end", "2", "--reps", "2",
                   "--out", str(tmp_path)])
        assert rc == 3
        assert capsys.readouterr().err == "engine error: the ensemble failed\n"
        assert list(tmp_path.iterdir()) == []
        assert threading.active_count() == threads

    @pytest.mark.parametrize("command", BOTH)
    def test_the_sds_runs_on_a_helper_thread_beside_the_ensemble(self, tmp_path, monkeypatch, command):
        threads, ran_on = threading.active_count(), {}

        def recorded(name, run):
            def recording(*args, **kwargs):
                ran_on[name] = threading.current_thread()
                return run(*args, **kwargs)

            monkeypatch.setattr(dualsim.cli, name, recording)

        recorded("integrate", integrate)
        recorded("run_ensemble", run_ensemble)
        assert main([*self.BOTH[command], "--model", "logistic", "--c", "5", "--t-end", "2", "--reps", "2",
                     "--out", str(tmp_path)]) == 0
        assert ran_on["run_ensemble"] is threading.main_thread() is not ran_on["integrate"]
        assert threading.active_count() == threads

    @pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="sends SIGINT to this thread")
    @pytest.mark.parametrize("command", BOTH)
    def test_an_interrupt_while_waiting_for_the_sds_waits_for_its_end(self, tmp_path, monkeypatch, command):
        # the ensemble ends first; then, while this thread waits for the SDS, the SDS sends it SIGINT and runs on
        threads, main_thread = threading.active_count(), threading.get_ident()
        ensemble_done, sds_ended = threading.Event(), threading.Event()

        def ensemble(*args, **kwargs):
            result = run_ensemble(*args, **kwargs)
            ensemble_done.set()
            return result

        def slow_sds(*args, **kwargs):
            ensemble_done.wait(10)
            time.sleep(0.1)  # this thread is waiting for the SDS by now
            signal.pthread_kill(main_thread, signal.SIGINT)
            time.sleep(0.3)
            traj = integrate(*args, **kwargs)
            sds_ended.set()
            return traj

        monkeypatch.setattr(dualsim.cli, "run_ensemble", ensemble)
        monkeypatch.setattr(dualsim.cli, "integrate", slow_sds)
        handler = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            with pytest.raises(KeyboardInterrupt):
                main([*self.BOTH[command], "--model", "logistic", "--c", "5", "--t-end", "2", "--reps", "2",
                      "--out", str(tmp_path)])
        finally:
            signal.signal(signal.SIGINT, handler)
        assert sds_ended.is_set()
        assert threading.active_count() == threads  # the helper was joined
        assert list(tmp_path.iterdir()) == []

    def test_an_sds_helper_that_cannot_start_is_raised_at_once_in_compare(self, tmp_path, monkeypatch):
        threads, ran, error = threading.active_count(), [], RuntimeError("can't start new thread")

        def start(thread):
            raise error

        monkeypatch.setattr(threading.Thread, "start", start)
        monkeypatch.setattr(dualsim.cli, "run_ensemble", lambda *args, **kwargs: ran.append(args))
        with pytest.raises(RuntimeError) as info:
            main(["compare", "--model", "logistic", "--c", "5", "--t-end", "2", "--reps", "2", "--out", str(tmp_path)])
        assert info.value is error and ran == []  # the ensemble never began
        assert threading.active_count() == threads
        assert list(tmp_path.iterdir()) == []

    def test_io_error_is_4(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        rc = main(["run", "--model", "logistic", "--c", "5", "--paradigm", "sds",
                   "--t-end", "2", "--out", str(blocker)])
        assert rc == 4
        assert "i/o error" in capsys.readouterr().err

    COMPARE = ["compare", "--model", "logistic", "--c", "5", "--t-end", "2", "--reps", "2"]

    def test_output_that_is_a_directory_is_4_and_writes_nothing(self, tmp_path, capsys):
        (tmp_path / "report.json").mkdir()
        rc = main([*self.COMPARE, "--out", str(tmp_path)])
        assert rc == 4
        assert "i/o error" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
        assert list((tmp_path / "report.json").iterdir()) == []

    # a run of three replicates: abs_ensemble.csv is its one CSV
    RUN_ABS = ["run", "--model", "logistic", "--c", "5", "--paradigm", "abs", "--t-end", "2", "--reps", "3"]

    @staticmethod
    def fill_the_disk(monkeypatch, name, nth):
        """Make the ``nth`` write to the .tmp file ``name`` write 10
        characters, then fail with ENOSPC."""

        class FullDisk:
            def __init__(self, file):
                self.file, self.writes = file, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.file.close()

            def write(self, text):
                self.writes += 1
                if self.writes < nth:
                    return self.file.write(text)
                self.file.write(text[:10])
                raise OSError(errno.ENOSPC, "No space left on device", self.file.name)

        def open_on_a_full_disk(path, *args, **kwargs):
            file = open(path, *args, **kwargs)
            return FullDisk(file) if Path(path).name == name else file

        monkeypatch.setattr(dualsim.cli, "open", open_on_a_full_disk, raising=False)

    def test_failed_tmp_write_is_4_and_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # the third of four outputs: two .tmp files are written before it
        self.fill_the_disk(monkeypatch, "manifest.json.tmp", 1)
        rc = main([*self.COMPARE, "--out", str(tmp_path)])
        assert rc == 4
        assert "No space left" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_of_the_ensemble_rows_is_4_and_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # the header is written, the first piece of rows fails
        self.fill_the_disk(monkeypatch, "abs_ensemble.csv.tmp", 2)
        rc = main([*self.RUN_ABS, "--out", str(tmp_path)])
        assert rc == 4
        assert "No space left" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_out_of_memory_while_rows_are_formatted_is_3_and_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # the first piece of rows is in abs_ensemble.csv.tmp when formatting runs out of memory
        write_rows, written = kernels.write_rows, []

        def no_memory_after_the_first_piece(values, times, write):
            pieces = []
            write_rows(values, times, pieces.append)
            write(pieces[0])
            written.append(pieces[0])
            assert (tmp_path / "abs_ensemble.csv.tmp").is_file()
            raise MemoryError

        monkeypatch.setattr(kernels, "write_rows", no_memory_after_the_first_piece)
        rc = main([*self.RUN_ABS, "--out", str(tmp_path)])
        assert rc == 3
        assert capsys.readouterr().err == "engine error: out of memory\n"
        assert len(written) == 1 and written[0].startswith("0,0.000000,")
        assert list(tmp_path.iterdir()) == []

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"model": "logistic", "c": 5, "paradigm": "sds", "t_end": 2.0}')
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfg), "--c", "2.5", "--out", str(out)])
        assert rc == 0
        manifest = json.loads(read(out / "manifest.json"))
        assert manifest["run_spec"]["c"] == 2.5

    def test_grid_that_rounds_past_t_end(self, tmp_path):
        # 3 * 0.1 is 0.30000000000000004 in floating point, past both runs' end
        flags = ["--model", "logistic", "--c", "5", "--t-end", "0.3", "--grid", "0.1", "--reps", "3"]
        assert main(["compare", *flags, "--out", str(tmp_path / "compare")]) == 0
        report = json.loads(read(tmp_path / "compare" / "report.json"))
        assert report["grid"]["times"][-1] == 0.3
        assert main(["run", *flags, "--plot", "--out", str(tmp_path / "run")]) == 0
        assert read(tmp_path / "run" / "plot.svg").count("<polyline") == 2  # sds and abs mean

    def test_list_scenarios(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "0.3743" in out and "0.1908" in out
        assert "a=1.636" in out

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["run", "--config", str(tmp_path / "nope.json")])
        assert rc == 2

    def test_a_config_that_is_not_utf8_is_2_and_writes_nothing(self, tmp_path, capsys):
        # a UTF-16 document that starts with its byte-order mark, ff fe
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b"\xff\xfe" + '{"model": "logistic", "c": 5}'.encode("utf-16-le"))
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"configuration error: cannot read config {cfg}: ")
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("rng", ["xoshiro256**", None, "sfc64-splitmix64", "sfc64-splitmix64-ziggurat"],
                             ids=["another rng", "no rng", "the previous rng", "this rng"])
    def test_a_manifest_of_another_rng_reruns_with_a_note(self, tmp_path, capsys, rng):
        flags = ["--model", "logistic", "--c", "5", "--t-end", "2", "--reps", "2", "--grid", "0.5"]
        assert main(["run", *flags, "--out", str(tmp_path / "first")]) == 0
        manifest = json.loads(read(tmp_path / "first" / "manifest.json"))
        if rng is None:
            del manifest["rng"]
        else:
            manifest["rng"] = rng
        cfg = tmp_path / "manifest.json"
        cfg.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "again")]) == 0
        err = capsys.readouterr().err
        if rng == "sfc64-splitmix64-ziggurat":
            assert err == ""
        else:
            recorded = "no rng" if rng is None else f"rng {rng!r}"
            assert err == (f"note: manifest {cfg} records {recorded}, not 'sfc64-splitmix64-ziggurat': "
                           "its seeded stochastic outputs may not reproduce\n")
        for name in ("sds.csv", "abs_ensemble.csv"):
            assert read(tmp_path / "again" / name) == read(tmp_path / "first" / name)

    @pytest.mark.parametrize("doc", ['[1, 2]', '{"run_spec": 3}', '{"model": ',
                                     # more digits than Python converts from a string
                                     pytest.param('{"t_end": 1' + '0' * 5000 + '}', id="5001-digit-int")])
    def test_config_file_decodes_like_parse_config(self, tmp_path, capsys, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(doc)
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"configuration error: {info.value}\n"


class TestListScenarios:
    def test_table_mentions_no_treatment(self):
        text = list_scenarios()
        assert "no treatment" in text
        assert text.count("\n") >= 5
