"""Grid sampling, ensemble aggregation, and the rank-sum test."""

import itertools
import math
import random

import numpy as np
import pytest

from dualsim.errors import ConfigError
from dualsim.kernels import R_CONST
from dualsim.models import GrowthLaw, PopulationState, scenario_preset
from dualsim.sds import IntegratorConfig, integrate
from dualsim.ssa import Channel, ChannelSet, Ensemble, EnsembleSpec, RateLaw, run_ensemble
from dualsim.stats import (
    EXACT_LIMIT,
    GridSeries,
    Interp,
    PValueMode,
    compare,
    ensemble_mean,
    make_grid,
    sample_on_grid,
    wilcoxon_ranksum,
)
from dualsim.trajectory import Paradigm, Termination, Trajectory


def abs_traj(times, values, species=("tumour",), termination=Termination.COMPLETED):
    states = np.asarray(values, dtype=float)
    if states.ndim == 1:
        states = states.reshape(-1, 1)
    return Trajectory(
        times=np.asarray(times, dtype=float),
        states=states,
        species=species,
        termination=termination,
        paradigm=Paradigm.ABS,
    )


def brute_force_two_sided_p(x, y):
    """Independent oracle: enumerate every assignment of the pooled values
    and count those at least as extreme in |U - E[U]| as observed."""
    pooled = list(x) + list(y)
    n1, n = len(x), len(pooled)
    mu = n1 * (n - n1) / 2.0

    def u_stat(xs, ys):
        u = 0.0
        for xi in xs:
            for yj in ys:
                if xi > yj:
                    u += 1.0
                elif xi == yj:
                    u += 0.5
        return u

    obs = abs(u_stat(list(x), list(y)) - mu)
    count = total = 0
    for idx in itertools.combinations(range(n), n1):
        chosen = set(idx)
        xs = [pooled[i] for i in idx]
        ys = [pooled[i] for i in range(n) if i not in chosen]
        total += 1
        if abs(u_stat(xs, ys) - mu) >= obs:
            count += 1
    return count / total


class TestSampleOnGrid:
    def test_constant_trajectory_any_grid(self):
        traj = abs_traj([0.0, 2.0], [3.0, 3.0])
        for interp in (Interp.STEP, Interp.LINEAR):
            series = sample_on_grid(traj, np.array([0.0, 0.5, 1.0, 1.5, 2.0]), interp)
            assert np.all(series.values == 3.0)

    def test_step_holds_value_between_events(self):
        traj = abs_traj([0.0, 0.5, 2.0], [1.0, 2.0, 1.0])
        series = sample_on_grid(traj, np.array([0.0, 1.0, 2.0]), Interp.STEP)
        assert list(series.column("tumour")) == [1.0, 2.0, 1.0]

    def test_knots_pass_through_unchanged(self):
        law = GrowthLaw.logistic(1.0, 0.2)
        traj = integrate(law, PopulationState(1.0), IntegratorConfig(dt=0.01, t_end=5.0, sample_every=0.5))
        series = sample_on_grid(traj, traj.times, Interp.LINEAR)
        assert np.array_equal(series.column("tumour"), traj.values("tumour"))
        step = sample_on_grid(traj, traj.times, Interp.STEP)
        assert np.array_equal(step.column("tumour"), traj.values("tumour"))

    def test_grid_beyond_span_errors(self):
        traj = abs_traj([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(ConfigError):
            sample_on_grid(traj, np.array([0.0, 2.0]))

    def test_make_grid(self):
        grid = make_grid(100.0, 1.0)
        assert len(grid) == 101
        assert grid[0] == 0.0 and grid[-1] == 100.0
        assert np.allclose(np.diff(grid), 1.0)


class TestEnsembleMean:
    def test_identical_replicates_zero_variance(self):
        rep = abs_traj([0.0, 1.0, 3.0], [2.0, 4.0, 4.0])
        ens = Ensemble(replicates=(rep, rep, rep), base_seed=0)
        mean, var = ensemble_mean(ens, np.array([0.0, 1.0, 2.0, 3.0]))
        assert list(mean.column("tumour")) == [2.0, 4.0, 4.0, 4.0]
        assert np.all(var.values == 0.0)

    def test_two_point_formula(self):
        r0 = abs_traj([0.0, 1.0], [0.0, 0.0])
        r2 = abs_traj([0.0, 1.0], [2.0, 2.0])
        mean, var = ensemble_mean(Ensemble(replicates=(r0, r2), base_seed=0), np.array([0.0, 1.0]))
        assert np.all(mean.values == 1.0)
        assert np.all(var.values == 2.0)  # unbiased: ((0-1)^2 + (2-1)^2) / (2-1)

    def test_single_replicate_identity(self):
        rep = abs_traj([0.0, 0.7, 2.0], [1.0, 3.0, 0.0])
        grid = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
        mean, var = ensemble_mean(Ensemble(replicates=(rep,), base_seed=0), grid)
        direct = sample_on_grid(rep, grid, Interp.STEP)
        assert np.array_equal(mean.values, direct.values)
        assert np.all(var.values == 0.0)

    def test_equals_moments_of_step_sampled_replicates(self):
        reps = (abs_traj([0.0, 0.4, 1.3, 2.0], [3.0, 4.0, 2.0, 2.0]),
                abs_traj([0.0, 1.0, 1.5, 2.0], [3.0, 0.0, 0.0, 0.0]),
                abs_traj([0.0, 0.25, 2.0], [3.0, 7.0, 7.0]))
        grid = make_grid(2.0, 0.25)
        mean, var = ensemble_mean(Ensemble(replicates=reps, base_seed=0), grid)
        stack = np.stack([sample_on_grid(r, grid, Interp.STEP).values for r in reps])
        assert np.array_equal(mean.values, stack.mean(axis=0))
        assert np.array_equal(var.values, stack.var(axis=0, ddof=1))
        assert np.array_equal(mean.times, grid) and mean.species == ("tumour",)

    def test_grid_beyond_a_replicate_errors(self):
        reps = (abs_traj([0.0, 2.0], [1.0, 1.0]), abs_traj([0.0, 1.0], [1.0, 1.0]))
        with pytest.raises(ConfigError, match="exceeds"):
            ensemble_mean(Ensemble(replicates=reps, base_seed=0), make_grid(2.0, 0.5))


class TestWilcoxon:
    def test_separated_triples_exact_p(self):
        res = wilcoxon_ranksum([1, 2, 3], [4, 5, 6])
        assert res.U == 0.0
        assert res.p == 0.1  # 2 of the C(6,3)=20 arrangements are as extreme
        assert res.h == 0

    def test_identical_samples_cannot_be_distinguished(self):
        x = [2.0, 2.0, 3.0, 5.0]
        res = wilcoxon_ranksum(x, list(x))
        assert res.p >= 0.99
        assert res.h == 0
        res_normal = wilcoxon_ranksum(x * 6, list(x) * 6, mode=PValueMode.NORMAL)
        assert res_normal.p >= 0.99 and res_normal.h == 0

    def test_exchange_symmetry(self):
        rng = random.Random(8)
        for _ in range(25):
            x = [rng.uniform(0, 10) for _ in range(rng.randint(1, 6))]
            y = [rng.uniform(0, 10) for _ in range(rng.randint(1, 6))]
            a = wilcoxon_ranksum(x, y)
            b = wilcoxon_ranksum(y, x)
            assert a.p == b.p
            assert a.h == b.h

    def test_exact_matches_brute_force_enumeration(self):
        rng = random.Random(31)
        for _ in range(40):
            n1 = rng.randint(1, 7)
            n2 = rng.randint(1, 8 - n1)
            pool = rng.sample(range(1000), n1 + n2)  # tie-free
            x = [float(v) for v in pool[:n1]]
            y = [float(v) for v in pool[n1:]]
            mine = wilcoxon_ranksum(x, y, mode=PValueMode.EXACT).p
            oracle = brute_force_two_sided_p(x, y)
            assert mine == oracle

    def test_exact_matches_brute_force_with_ties(self):
        rng = random.Random(77)
        for _ in range(25):
            n1 = rng.randint(1, 6)
            n2 = rng.randint(1, 7 - n1)
            x = [float(rng.randint(0, 3)) for _ in range(n1)]
            y = [float(rng.randint(0, 3)) for _ in range(n2)]
            mine = wilcoxon_ranksum(x, y, mode=PValueMode.EXACT).p
            oracle = brute_force_two_sided_p(x, y)
            assert mine == oracle

    def test_exact_and_normal_agree_for_moderate_sizes(self):
        # the 0.02 bound provably holds (worst case over all tie-free data)
        # once both sides have at least 5 observations
        rng = random.Random(5)
        for _ in range(12):
            n = rng.randint(10, 20)
            n1 = rng.randint(5, n - 5)
            pool = rng.sample(range(10_000), n)
            x = [float(v) for v in pool[:n1]]
            y = [float(v) for v in pool[n1:]]
            exact = wilcoxon_ranksum(x, y, mode=PValueMode.EXACT).p
            normal = wilcoxon_ranksum(x, y, mode=PValueMode.NORMAL).p
            assert abs(exact - normal) < 0.02

    def test_auto_picks_exact_for_small_samples(self):
        x, y = [1.0, 2.0, 3.0], [4.0, 5.0, 6.0]
        auto = wilcoxon_ranksum(x, y, mode=PValueMode.AUTO)
        exact = wilcoxon_ranksum(x, y, mode=PValueMode.EXACT)
        assert auto.p == exact.p
        assert len(x) + len(y) <= EXACT_LIMIT

    def test_monotone_shift(self):
        x = [1.0, 3.0, 5.0, 7.0, 9.0]
        y = [2.0, 4.0, 6.0, 8.0, 10.0]
        p_pre = wilcoxon_ranksum(x, y).p
        span = max(x + y) - min(x + y)
        shifted = [wilcoxon_ranksum(x, [v + off for v in y]).p for off in (span + 1, span + 50, span + 1e6)]
        assert all(p <= p_pre for p in shifted)
        assert shifted[0] == shifted[1] == shifted[2]  # ranks saturate

    def test_h_flag_tracks_alpha(self):
        x = list(range(1, 11))
        y = [v + 100 for v in x]
        strict = wilcoxon_ranksum(x, y, alpha=0.05)
        assert strict.h == 1
        loose = wilcoxon_ranksum(x, y, alpha=1e-9)
        assert loose.h == 0

    def test_empty_input_errors(self):
        with pytest.raises(ConfigError):
            wilcoxon_ranksum([], [1.0])
        with pytest.raises(ConfigError):
            wilcoxon_ranksum([1.0], [])

    def test_bad_alpha(self):
        with pytest.raises(ConfigError):
            wilcoxon_ranksum([1.0], [2.0], alpha=0.0)

    def test_exact_refused_when_infeasible(self):
        x = list(map(float, range(40)))
        with pytest.raises(ConfigError):
            wilcoxon_ranksum(x, x, mode=PValueMode.EXACT)

    def test_normal_mode_against_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = random.Random(13)
        for _ in range(10):
            x = [rng.gauss(0, 1) for _ in range(30)]
            y = [rng.gauss(0.3, 1) for _ in range(25)]
            mine = wilcoxon_ranksum(x, y, mode=PValueMode.NORMAL)
            ref = scipy_stats.mannwhitneyu(x, y, alternative="two-sided", method="asymptotic")
            assert mine.p == pytest.approx(ref.pvalue, rel=1e-9)


class TestCompare:
    def test_identical_series_accept(self):
        # a constant deterministic run against an ensemble of frozen copies
        law = GrowthLaw.logistic(1.0, 0.2)
        sds_traj = integrate(law, PopulationState(5.0), IntegratorConfig(dt=0.01, t_end=10.0, sample_every=0.1))
        idle = ChannelSet(channels=(Channel("idle", RateLaw(R_CONST, 0.0), (1, 0)),), species=("tumour",))
        from dualsim.ssa import simulate_exact

        reps = tuple(simulate_exact(idle, PopulationState(5), t_end=10.0, seed=i, replicate=i) for i in range(5))
        ens = Ensemble(replicates=reps, base_seed=0)
        report = compare(sds_traj, ens, make_grid(10.0, 1.0))
        assert report.populations["tumour"].wilcoxon.h == 0
        assert report.populations["tumour"].wilcoxon.p >= 0.99

    def test_report_schema(self):
        params = scenario_preset(1)
        sds_traj = integrate(params, PopulationState(100.0, 10.0),
                             IntegratorConfig(dt=0.01, t_end=20.0, sample_every=0.1))
        from dualsim.ssa import kuznetsov_channels

        ens = run_ensemble(
            EnsembleSpec(channels=kuznetsov_channels(params), initial=PopulationState(100, 10), t_end=20.0),
            reps=5, base_seed=9,
        )
        grid = make_grid(20.0, 1.0)
        report = compare(sds_traj, ens, grid, alpha=0.05, metadata={"scenario": 1})
        d = report.to_dict()
        assert set(d["populations"]) == {"tumour", "effector"}
        for pop in d["populations"].values():
            assert set(pop) == {"sds", "abs_mean", "abs_variance", "wilcoxon"}
            assert set(pop["wilcoxon"]) == {"U", "p", "h"}
            assert len(pop["sds"]) == len(grid)
        assert d["metadata"]["scenario"] == 1
        assert d["metadata"]["reps"] == 5
        assert d["metadata"]["alpha"] == 0.05

    def test_mismatched_populations_error(self):
        law = GrowthLaw.logistic(1.0, 0.2)
        sds_traj = integrate(law, PopulationState(1.0), IntegratorConfig(dt=0.01, t_end=5.0, sample_every=0.5))
        params = scenario_preset(1)
        from dualsim.ssa import kuznetsov_channels

        ens = run_ensemble(
            EnsembleSpec(channels=kuznetsov_channels(params), initial=PopulationState(5, 1), t_end=5.0),
            reps=2, base_seed=0,
        )
        with pytest.raises(ConfigError):
            compare(sds_traj, ens, make_grid(5.0, 1.0))


class TestGridSeries:
    def test_requires_uniform_spacing(self):
        with pytest.raises(ConfigError):
            GridSeries(times=np.array([0.0, 1.0, 3.0]), values=np.zeros((3, 1)), species=("tumour",))

    def test_requires_two_points(self):
        with pytest.raises(ConfigError):
            GridSeries(times=np.array([0.0]), values=np.zeros((1, 1)), species=("tumour",))

    def test_column_lookup(self):
        gs = GridSeries(times=np.array([0.0, 1.0]), values=np.array([[1.0, 2.0], [3.0, 4.0]]),
                        species=("tumour", "effector"))
        assert list(gs.column("effector")) == [2.0, 4.0]
        with pytest.raises(KeyError):
            gs.column("stroma")
