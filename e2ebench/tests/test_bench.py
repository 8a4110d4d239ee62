"""Tests of the benchmark's own logic: the tail-percentile helper, span
arithmetic, the tracer, the speed sampler, the build, and every output check
against corrupted files.

    python3 -m pytest -q e2ebench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402
from workloads import COMPARE_OUTPUTS, RUN_OUTPUTS, WORKLOADS, Workload  # noqa: E402

# --- tail percentile ----------------------------------------------------------


@pytest.mark.parametrize(
    "n, pct, rank, beyond",
    [(50, 75, 38, 12), (2000, 99.5, 1990, 10), (20, 50, 10, 10), (100, 90, 90, 10)],
)
def test_tail_percentile_picks_highest_rung_with_ten_beyond(n, pct, rank, beyond):
    values = np.random.default_rng(n).permutation(np.arange(1.0, n + 1))
    assert tracing.tail_percentile(values) == (pct, float(rank), beyond)


def test_tail_percentile_with_too_few_values_is_the_maximum():
    assert tracing.tail_percentile([3.0, 1.0, 2.0]) == (100, 3.0, 0)
    with pytest.raises(ValueError):
        tracing.tail_percentile([])


# --- span arithmetic ------------------------------------------------------------


def _tree():
    # cli.main [0, 10]
    #   sds.integrate [1, 3] > kernels.rk4_kuznetsov [1.5, 2.5]
    #   ssa.run_ensemble [3, 9]
    #     ssa.simulate_exact [3, 5] > kernels.ssa [3.25, 4.75], trajectory.validate [4.75, 5]
    #     ssa.simulate_exact [5, 8] > kernels.ssa [5.5, 7.5]
    #   stats.sample_on_grid [9, 9.5]
    return [
        Span("cli.main", 0.0, 10.0, -1, 0),
        Span("sds.integrate", 1.0, 3.0, 0, 0),
        Span("kernels.rk4_kuznetsov", 1.5, 2.5, 1, 0, {"steps": 1000}),
        Span("ssa.run_ensemble", 3.0, 9.0, 0, 0),
        Span("ssa.simulate_exact", 3.0, 5.0, 3, 0),
        Span("kernels.ssa", 3.25, 4.75, 4, 0, {"samples": 12, "events": 10}),
        Span("trajectory.validate", 4.75, 5.0, 4, 0, {"rows": 12, "bytes": 288, "extinct": 1}),
        Span("ssa.simulate_exact", 5.0, 8.0, 3, 0),
        Span("kernels.ssa", 5.5, 7.5, 7, 0, {"samples": 32, "events": 30}),
        Span("stats.sample_on_grid", 9.0, 9.5, 0, 0),
    ]


def test_self_times_subtract_direct_children():
    assert tracing.self_times(_tree()) == [1.5, 1.0, 1.0, 1.0, 0.25, 1.5, 0.25, 1.0, 2.0, 0.5]


def test_layer_metrics_of_a_synthetic_tree():
    m = tracing.command_layers(_tree(), grid_points=11)
    assert m["cli.self_s"] == 1.5
    assert m["sds.self_s"] == 1.0
    assert m["kernels.rk4_s"] == 1.0 and m["kernels.rk4_steps"] == 1000
    assert m["kernels.ssa_s"] == 3.5 and m["kernels.ssa_events"] == 40
    assert m["ssa.self_s"] == 1.0 + 0.25 + 1.0
    assert m["ssa.samples"] == 44 and m["ssa.samples_used_ratio"] == 2 * 11 / 44
    assert m["ssa.extinct_replicates"] == 1
    assert m["trajectory.validate_s"] == 0.25 and m["trajectory.bytes"] == 288
    assert m["stats.sample_s"] == 0.5 and m["stats.sample_calls"] == 1
    # every span of this tree falls in a reported layer, so they add up to the root
    assert sum(v for k, v in m.items() if k.endswith("_s")) == 10.0


def test_run_layers_pools_replicates_and_rates():
    out = tracing.run_layers([_tree(), _tree()], grid_points=11)
    assert out["ssa.replicates"] == 4
    assert out["ssa.replicate_ms_p50"] == 2500.0
    assert out["kernels.ssa_events_per_s"] == 80 / 7.0
    assert out["kernels.tau_steps_per_s"] == 0.0


def test_span_check_accepts_a_well_formed_tree():
    assert tracing.check_spans(_tree()) == []


def test_spans_a_layer_reports_under_no_name_of_its_own_fall_in_its_rest():
    tree = _tree()
    tree[9] = Span("stats.compare", 9.0, 9.5, 0, 0)
    assert tracing.check_spans(tree) == []
    assert tracing.command_layers(tree, grid_points=11)["stats.other_s"] == 0.5


def test_span_check_rejects_a_second_root():
    tree = _tree() + [Span("cli.main", 11.0, 12.0, -1, 0)]
    assert any("one root" in p for p in tracing.check_spans(tree))


def test_span_check_rejects_a_span_no_metric_reports():
    tree = _tree()
    tree[2] = Span("kernels.rk4_channels", 1.5, 2.5, 1, 0)
    problems = tracing.check_spans(tree)
    assert "span kernels.rk4_channels falls in no reported metric" in problems
    assert any("the reported times sum to 9.0 s" in p for p in problems)


# --- real commands ---------------------------------------------------------------

TINY_COMPARE = Workload(
    "tiny-compare",
    ("compare", "--model", "kuznetsov", "--scenario", "4", "--fix", "tumour", "--t-end", "5", "--reps", "3"),
    COMPARE_OUTPUTS, reps=3, t_end=5.0, grid=1.0,
)
TINY_RUN = Workload(
    "tiny-run",
    ("run", "--model", "kuznetsov", "--scenario", "2", "--paradigm", "both", "--method", "tau",
     "--dt", "0.01", "--grid", "0.5", "--t-end", "2", "--reps", "3", "--plot"),
    RUN_OUTPUTS, reps=3, t_end=2.0, grid=0.5,
)


def _run_cli(workload, out):
    import dualsim.cli

    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert dualsim.cli.main(workload.argv(7, out)) == 0
    return [Path(line).name for line in printed.getvalue().splitlines()]


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    made = {}
    for workload in (TINY_COMPARE, TINY_RUN):
        out = tmp_path_factory.mktemp(workload.name)
        written = _run_cli(workload, out)
        made[workload.name] = (workload, out, written, checks.reference_series(out))
    return made


def _copy(clean, name, tmp_path):
    workload, out, written, reference = clean[name]
    dest = tmp_path / "out"
    shutil.copytree(out, dest)
    return workload, dest, list(written), reference


def test_clean_outputs_pass(clean):
    for workload, out, written, reference in clean.values():
        assert checks.check_outputs(workload, out, written, reference) == []


def _edit_csv(path, row, col, value):
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = value(cells[col])
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _edit_json(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _tumour(doc):
    return doc["populations"]["tumour"]


COMPARE_CORRUPTIONS = {
    "manifest drops a file": (
        lambda d, w: _edit_json(d / "manifest.json", lambda m: m["outputs"].remove("comparison.csv")),
        "manifest lists"),
    "stray file": (lambda d, w: (d / "extra.txt").write_text("x"), "unexpected output file"),
    "missing file": (lambda d, w: (d / "comparison.svg").unlink(), "the directory holds"),
    "unwritten file": (lambda d, w: w.remove("report.json"), "manifest lists"),
    "csv does not parse": (lambda d, w: _edit_csv(d / "comparison.csv", 2, 1, lambda c: "abc"), "does not parse"),
    "csv ragged": (lambda d, w: _edit_csv(d / "comparison.csv", 3, 2, lambda c: c + ",1"), "does not parse"),
    "csv negative": (lambda d, w: _edit_csv(d / "comparison.csv", 2, 3, lambda c: "-1.0"), "negative values"),
    "csv nan": (lambda d, w: _edit_csv(d / "comparison.csv", 2, 3, lambda c: "nan"), "non-finite"),
    "report does not parse": (lambda d, w: (d / "report.json").write_text("{"), "does not parse"),
    "report negative": (
        lambda d, w: _edit_json(d / "report.json", lambda r: _tumour(r)["abs_variance"].__setitem__(1, -2.0)),
        "report.json: a value"),
    "report p above 1": (
        lambda d, w: _edit_json(d / "report.json", lambda r: _tumour(r)["wilcoxon"].__setitem__("p", 1.5)),
        "p outside"),
    "report structure": (
        lambda d, w: _edit_json(d / "report.json", lambda r: _tumour(r).pop("abs_mean")), "unexpected structure"),
    "svg does not parse": (lambda d, w: (d / "comparison.svg").write_text("<svg><g></svg>"), "does not parse"),
    "sds drifts": (
        lambda d, w: _edit_json(d / "report.json",
                                lambda r: _tumour(r)["sds"].__setitem__(3, _tumour(r)["sds"][3] * (1 + 1e-7))),
        "SDS tumour at t=3"),
}

RUN_CORRUPTIONS = {
    "sds.csv drifts": (lambda d, w: _edit_csv(d / "sds.csv", 11, 2, lambda c: repr(float(c) * 1.001)),
                       "SDS effector at t=1"),
    "sds.csv loses the reference times": (
        lambda d, w: (d / "sds.csv").write_text("\n".join((d / "sds.csv").read_text().splitlines()[:5]) + "\n"),
        "does not cover"),
    "ensemble row missing": (
        lambda d, w: (d / "abs_ensemble.csv").write_text(
            "\n".join((d / "abs_ensemble.csv").read_text().splitlines()[:-1]) + "\n"),
        "rows, expected 3 x 5"),
    "ensemble replicate id": (lambda d, w: _edit_csv(d / "abs_ensemble.csv", 6, 0, lambda c: "2"), "replicate ids"),
    "ensemble time off the grid": (
        lambda d, w: _edit_csv(d / "abs_ensemble.csv", 7, 1, lambda c: "1.000010"), "times differ"),
    "ensemble non-integer population": (
        lambda d, w: _edit_csv(d / "abs_ensemble.csv", 8, 2, lambda c: c + "5"), "non-integer"),
    "plot does not parse": (lambda d, w: (d / "plot.svg").write_text("<svg"), "does not parse"),
}


@pytest.mark.parametrize("case", sorted(COMPARE_CORRUPTIONS))
def test_each_check_rejects_a_corrupted_compare_output(clean, tmp_path, case):
    workload, out, written, reference = _copy(clean, "tiny-compare", tmp_path)
    corrupt, message = COMPARE_CORRUPTIONS[case]
    corrupt(out, written)
    problems = checks.check_outputs(workload, out, written, reference)
    assert any(message in p for p in problems), problems


@pytest.mark.parametrize("case", sorted(RUN_CORRUPTIONS))
def test_each_check_rejects_a_corrupted_run_output(clean, tmp_path, case):
    workload, out, written, reference = _copy(clean, "tiny-run", tmp_path)
    corrupt, message = RUN_CORRUPTIONS[case]
    corrupt(out, written)
    problems = checks.check_outputs(workload, out, written, reference)
    assert any(message in p for p in problems), problems


def _report(p, h, abs_mean):
    return {"report.json": {"populations": {"tumour": {"wilcoxon": {"p": p, "h": h}, "abs_mean": abs_mean}}}}


def test_extinction_gate():
    gate = WORKLOADS["s4-extinct"].gate
    assert gate(_report(1e-38, 1, [100.0, 0.0])) == []
    assert gate(_report(1e-38, 0, [100.0, 0.0]))
    assert gate(_report(1e-9, 1, [100.0, 0.0]))


def test_floor_gate():
    gate = WORKLOADS["s4-floor"].gate
    assert gate(_report(0.3, 0, [100.0, 1.0, 2.0])) == []
    assert any("drops to" in p for p in gate(_report(0.3, 0, [100.0, 0.98, 2.0])))
    assert any("< 1e-6" in p for p in gate(_report(1e-7, 1, [100.0, 1.0, 2.0])))


def test_gates_run_inside_check_outputs(clean, tmp_path):
    workload, out, written, reference = _copy(clean, "tiny-compare", tmp_path)
    floored = Workload(workload.name, workload.args, workload.outputs, workload.reps,
                       workload.t_end, workload.grid, gate=WORKLOADS["s4-extinct"].gate)
    assert any("extinction divergence" in p for p in checks.check_outputs(floored, out, written, reference))


def test_command_problems_count_exits_crashes_and_nondeterminism():
    ok = {"rc": 0, "error": None, "digest": "a", "written": ["x"]}
    commands = [
        {"rc": None, "error": "Traceback\nValueError: boom\n"},
        ok,
        {**ok, "digest": "b"},
        {**ok, "written": ["y"]},
        {"rc": 3, "error": None},
        ok,
    ]
    problems = run.command_problems(commands, [])
    assert [bool(p) for p in problems] == [True, False, True, True, True, False]
    assert problems[0] == ["exception: ValueError: boom"]
    assert problems[4] == ["exit code 3"]
    # outputs identical to a baseline that failed its checks fail too
    assert run.command_problems([ok, ok], ["bad"]) == [["bad"], ["bad"]]


def test_a_counter_that_cannot_read_a_call_is_reported_not_raised():
    tracer = tracing.Tracer()
    wrapped = tracer.wrap("kernels.rk4_growth", lambda *args: ([0.0], [1.0], 0))
    assert wrapped(1.0, 2.0) == ([0.0], [1.0], 0)
    assert tracer.spans[0].counts == {} and "counter failed" in tracer.errors[0]


def test_tracer_wraps_public_functions_and_restores_them(tmp_path):
    import dualsim
    import dualsim.cli

    originals = (dualsim.cli.integrate, dualsim.kernels.ssa, dualsim.stats.sample_on_grid,
                 dualsim.trajectory.Trajectory.__post_init__)
    tracer = tracing.Tracer()
    tracer.command = 0
    tracer.install(dualsim)
    try:
        assert dualsim.cli.integrate is not originals[0]
        assert dualsim.cli.integrate.__wrapped__ is originals[0]
        _run_cli(TINY_COMPARE, tmp_path / "traced")
    finally:
        tracer.uninstall()
    assert (dualsim.cli.integrate, dualsim.kernels.ssa, dualsim.stats.sample_on_grid,
            dualsim.trajectory.Trajectory.__post_init__) == originals
    spans = tracer.take()
    assert tracing.check_spans(spans) == [] and tracer.spans == []
    names = {s.name for s in spans}
    assert {"cli.main", "cli.cmd_compare", "sds.integrate", "kernels.rk4_kuznetsov", "ssa.run_ensemble",
            "ssa.simulate_exact", "kernels.ssa", "trajectory.validate", "stats.compare",
            "stats.ensemble_mean", "stats.sample_on_grid", "stats.wilcoxon_ranksum",
            "plotting.emit_svg_plot"} <= names
    m = tracing.command_layers(spans, grid_points=6)
    assert m["ssa.samples_used_ratio"] > 0 and m["cli.bytes_written"] > 0
    # tracing does not change the outputs
    _run_cli(TINY_COMPARE, tmp_path / "plain")
    for name in ("report.json", "comparison.csv", "comparison.svg"):
        assert (tmp_path / "traced" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


def test_build_finds_the_package_when_setup_py_declares_an_extension(tmp_path, monkeypatch):
    # with an extension, setup.py build's default lib directory is named
    # after the platform; the no-op build_ext keeps this test free of a compiler
    tree = tmp_path / "tree"
    (tree / "src" / "dualsim").mkdir(parents=True)
    (tree / "src" / "dualsim" / "__init__.py").write_text("BACKEND_NAME = 'test'\n")
    (tree / "setup.py").write_text(
        "from setuptools import Extension, setup\n"
        "from setuptools.command.build_ext import build_ext\n"
        "class NoCompile(build_ext):\n"
        "    def run(self):\n"
        "        pass\n"
        "setup(name='dualsim', version='0', package_dir={'': 'src'}, packages=['dualsim'],\n"
        "      ext_modules=[Extension('dualsim._x', ['src/dualsim/_x.c'])], cmdclass={'build_ext': NoCompile})\n"
    )
    monkeypatch.setattr(run, "ROOT", tree)
    monkeypatch.setattr(run, "STATE", tmp_path / "state")
    lib, record = run.build()
    assert (lib / "dualsim" / "__init__.py").is_file()
    assert run.build() == (lib, record)  # the second call reuses the build
    assert run.strays() == set()


def test_sampler_probes_on_entry_and_on_the_timer_then_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler() as sampler:
        assert len(sampler.probes_s) == 1  # the entry probe
        end = time.perf_counter() + 4.5 * speed.INTERVAL_S
        while time.perf_counter() < end:
            sum(range(1000))  # bytecodes, so that the handler runs
    n = len(sampler.probes_s)
    assert n >= 4 and all(p > 0 for p in sampler.probes_s)
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    time.sleep(2 * speed.INTERVAL_S)
    assert len(sampler.probes_s) == n


def test_times_scale_to_the_reference_speed():
    ref = speed.PROBE_REF_S
    assert speed.at_reference_speed(3.0, [ref, ref]) == pytest.approx(3.0)
    # probes taking twice as long: the host ran at half speed
    assert speed.at_reference_speed(3.0, [ref, 3 * ref]) == pytest.approx(1.5)
