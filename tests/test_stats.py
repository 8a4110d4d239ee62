"""Grid sampling, ensemble aggregation, and the rank-sum test."""

import itertools
import math
import random

import numpy as np
import pytest

from dualsim.errors import ConfigError
from dualsim.kernels import R_CONST
from dualsim.models import ChannelSet, GrowthLaw, PopulationState, scenario_preset
from dualsim.sds import integrate
from dualsim.ssa import (
    Ensemble,
    EnsembleSpec,
    run_ensemble,
    simulate_exact,
)
from dualsim.stats import (
    EXACT_LIMIT,
    _exact_p,
    _normal_p,
    _ranks,
    compare,
    ensemble_mean,
    make_grid,
    sample_on_grid,
    wilcoxon_ranksum,
)
from dualsim.trajectory import Paradigm, Termination, Trajectory


def abs_traj(times, values, species=("tumour",), termination=Termination.COMPLETED, paradigm=Paradigm.ABS):
    states = np.asarray(values, dtype=float)
    if states.ndim == 1:
        states = states.reshape(-1, 1)
    return Trajectory(
        times=np.asarray(times, dtype=float),
        states=states,
        species=species,
        termination=termination,
        paradigm=paradigm,
    )


def exact_p(x, y):
    """The exact permutation p of ``wilcoxon_ranksum``, at any sample size."""
    dranks, _, n1 = _ranks(x, y)
    return _exact_p(dranks, n1)


def normal_p(x, y):
    """The normal-approximation p of ``wilcoxon_ranksum``, at any sample size."""
    return _normal_p(*_ranks(x, y))


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
        grid = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
        for paradigm in (Paradigm.ABS, Paradigm.SDS):
            values = sample_on_grid(abs_traj([0.0, 2.0], [3.0, 3.0], paradigm=paradigm), grid)
            assert values.shape == (5, 1) and np.all(values == 3.0)

    def test_step_holds_value_between_events(self):
        traj = abs_traj([0.0, 0.5, 2.0], [1.0, 2.0, 1.0])
        values = sample_on_grid(traj, np.array([0.0, 1.0, 2.0]))
        assert list(values[:, 0]) == [1.0, 2.0, 1.0]

    def test_paradigm_picks_step_or_linear(self):
        # the same samples, held by a stochastic run, interpolated by a
        # deterministic one
        grid = np.array([0.0, 0.5, 1.0])
        states = [[0.0, 4.0], [2.0, 8.0]]
        step = sample_on_grid(abs_traj([0.0, 1.0], states, ("tumour", "effector")), grid)
        linear = sample_on_grid(abs_traj([0.0, 1.0], states, ("tumour", "effector"), paradigm=Paradigm.SDS), grid)
        assert step.tolist() == [[0.0, 4.0], [0.0, 4.0], [2.0, 8.0]]
        assert linear.tolist() == [[0.0, 4.0], [1.0, 6.0], [2.0, 8.0]]

    def test_knots_pass_through_unchanged(self):
        law = GrowthLaw("logistic", 1.0, 0.2)
        traj = integrate(law, PopulationState(1.0),
                         dt=0.01, t_end=5.0, grid=make_grid(5.0, 0.5))
        assert np.array_equal(sample_on_grid(traj, traj.times), traj.states)
        events = abs_traj([0.0, 0.3, 1.7, 2.0], [1.0, 2.0, 1.0, 1.0])
        assert np.array_equal(sample_on_grid(events, events.times), events.states)

    def test_grid_beyond_span_errors(self):
        traj = abs_traj([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(ConfigError, match="grid"):
            sample_on_grid(traj, np.array([0.0, 2.0]))

    @pytest.mark.parametrize("grid", [[0.5, 1.0], [0.0, 1.0, 0.5], []],
                             ids=["not-from-0", "not-increasing", "empty"])
    def test_malformed_grid_errors(self, grid):
        traj = abs_traj([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(ConfigError, match="grid"):
            sample_on_grid(traj, np.array(grid))

    def test_make_grid(self):
        grid = make_grid(100.0, 1.0)
        assert len(grid) == 101
        assert grid[0] == 0.0 and grid[-1] == 100.0
        assert np.allclose(np.diff(grid), 1.0)
        # 3 * 0.1 is 0.30000000000000004 in floating point; the last point
        # is t_end itself
        grid = make_grid(0.3, 0.1)
        assert len(grid) == 4 and grid[-1] == 0.3
        assert np.allclose(np.diff(grid), 0.1)

    @pytest.mark.parametrize("t_end", [math.inf, math.nan])
    def test_make_grid_refuses_a_non_finite_t_end(self, t_end):
        with pytest.raises(ConfigError, match="grid"):
            make_grid(t_end, 1.0)

    def test_make_grid_too_large_to_allocate_is_a_config_error(self, monkeypatch):
        # the failed allocation is simulated, never attempted
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 PiB")

        monkeypatch.setattr(np, "arange", no_memory)
        with pytest.raises(ConfigError, match="too large"):
            make_grid(100.0, 1e-13)

    def test_make_grid_with_more_points_than_an_int_holds_is_a_config_error(self):
        # t_end / spacing overflows to inf before any allocation
        with pytest.raises(ConfigError, match="a grid of inf points is too large to hold"):
            make_grid(1e300, 1e-300)


def held_ensemble(grid, rows, species=("tumour",)):
    """An ensemble holding ``rows`` (one per replicate) on ``grid``."""
    values = np.asarray(rows, dtype=float).reshape(len(rows), len(grid), len(species))
    return Ensemble(grid=np.asarray(grid, dtype=float), values=values, species=species,
                    terminations=(Termination.COMPLETED,) * len(rows), base_seed=0)


def kuznetsov_spec(t_end, grid=None):
    return EnsembleSpec(channels=scenario_preset(4).channels,
                        initial=PopulationState(100, 10), t_end=t_end, grid=grid)


class TestEnsembleMean:
    def test_identical_replicates_zero_variance(self):
        row = [2.0, 4.0, 4.0, 4.0]
        mean, var = ensemble_mean(held_ensemble([0.0, 1.0, 2.0, 3.0], [row, row, row]))
        assert mean.tolist() == [[2.0], [4.0], [4.0], [4.0]]
        assert var.shape == (4, 1) and np.all(var == 0.0)

    def test_two_point_formula(self):
        mean, var = ensemble_mean(held_ensemble([0.0, 1.0], [[0.0, 0.0], [2.0, 2.0]]))
        assert np.all(mean == 1.0)
        assert np.all(var == 2.0)  # unbiased: ((0-1)^2 + (2-1)^2) / (2-1)

    def test_single_replicate_identity(self):
        grid = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
        ens = held_ensemble(grid, [[1.0, 1.0, 3.0, 3.0, 0.0]])
        mean, var = ensemble_mean(ens)
        assert np.array_equal(mean, ens.values[0])
        assert np.all(var == 0.0)

    def test_equals_moments_of_step_sampled_replicates(self):
        # numpy's moments of the held values, bit for bit, and those values
        # are the per-event replicates step-sampled on the grid
        grid = make_grid(2.0, 0.25)
        ens = run_ensemble(kuznetsov_spec(2.0, grid), reps=5, base_seed=3)
        mean, var = ensemble_mean(ens)
        assert np.array_equal(mean, ens.values.mean(axis=0))
        assert np.array_equal(var, ens.values.var(axis=0, ddof=1))
        assert mean.shape == var.shape == (len(grid), 2)
        stack = np.stack([
            sample_on_grid(simulate_exact(kuznetsov_spec(2.0), seed=3 + i), grid)
            for i in range(5)
        ])
        assert np.array_equal(ens.values, stack)

    @pytest.mark.parametrize("shape, kind", [
        ((2000, 101, 2), "counts"), ((2000, 101, 2), "reals"), ((4097, 3, 1), "reals"), ((8192, 1, 1), "reals"),
        ((7, 2, 2), "reals"),
    ])
    def test_equals_numpys_moments_across_blocks(self, shape, kind):
        # many blocks of replicates: the variance is still numpy's, bit for bit
        rng = np.random.default_rng(7)
        values = rng.integers(0, 500, size=shape) if kind == "counts" else rng.random(shape) * 1e3
        mean, var = ensemble_mean(held_ensemble(np.arange(shape[1]), values, ("tumour", "effector")[:shape[2]]))
        assert mean.tobytes() == values.mean(axis=0).tobytes()
        assert var.tobytes() == values.var(axis=0, ddof=1).tobytes()

    @pytest.mark.parametrize("grid", [[0.0, 0.5, 2.0], [0.0]], ids=["non-uniform", "one-point"])
    def test_any_grid_run_ensemble_accepts(self, grid):
        ens = run_ensemble(kuznetsov_spec(2.0, grid), reps=3, base_seed=1)
        mean, var = ensemble_mean(ens)
        assert mean.shape == var.shape == (len(grid), 2)
        assert np.array_equal(mean, ens.values.mean(axis=0))


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
        assert normal_p(x * 6, list(x) * 6) >= 0.99

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
            mine = exact_p(x, y)
            oracle = brute_force_two_sided_p(x, y)
            assert mine == oracle

    def test_exact_matches_brute_force_with_ties(self):
        rng = random.Random(77)
        for _ in range(25):
            n1 = rng.randint(1, 6)
            n2 = rng.randint(1, 7 - n1)
            x = [float(rng.randint(0, 3)) for _ in range(n1)]
            y = [float(rng.randint(0, 3)) for _ in range(n2)]
            mine = exact_p(x, y)
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
            exact = exact_p(x, y)
            normal = normal_p(x, y)
            assert abs(exact - normal) < 0.02

    def test_rank_pass_gives_doubled_midranks_and_tie_counts(self):
        rng = random.Random(3)
        for _ in range(50):
            x = [float(rng.randint(0, 9)) for _ in range(rng.randint(1, 30))]
            y = [float(rng.randint(0, 9)) for _ in range(rng.randint(1, 30))]
            pooled = x + y
            dranks, counts, n1 = _ranks(x, y)
            # midrank of v: the values below it, plus the middle of its ties
            assert dranks.tolist() == [2 * sum(u < v for u in pooled) + pooled.count(v) + 1 for v in pooled]
            assert counts.tolist() == [pooled.count(v) for v in sorted(set(pooled))]
            assert n1 == len(x)

    def test_auto_picks_exact_for_small_samples(self):
        # the exact p up to EXACT_LIMIT observations in all, the normal one beyond
        for n in (6, EXACT_LIMIT, EXACT_LIMIT + 1):
            x, y = [float(v) for v in range(n // 2)], [float(v) for v in range(n // 2, n)]
            expected = exact_p(x, y) if n <= EXACT_LIMIT else normal_p(x, y)
            assert wilcoxon_ranksum(x, y).p == expected
        assert exact_p(x, y) != normal_p(x, y)

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

    def test_exact_on_large_identical_samples_is_one(self):
        # 80 values: far beyond what enumerating C(80, 40) assignments allows
        x = list(map(float, range(40)))
        assert exact_p(x, x) == 1.0

    # scipy.stats.mannwhitneyu(x, y, alternative="two-sided", method="asymptotic").pvalue for the ten
    # draws below, computed once with scipy 1.17.1, so the check needs no scipy
    SCIPY_P = [0.3658283673347519, 0.08020992974782894, 0.3227460897170271, 0.03684016101887583,
               0.47252232689305407, 0.13913498406818411, 0.05722385087767772, 0.37485714268334,
               0.3569365505838832, 0.07183244767003341]

    def test_normal_mode_against_scipy(self):
        rng = random.Random(13)
        for ref in self.SCIPY_P:
            x = [rng.gauss(0, 1) for _ in range(30)]
            y = [rng.gauss(0.3, 1) for _ in range(25)]
            assert normal_p(x, y) == pytest.approx(ref, rel=1e-9)


class TestCompare:
    def test_identical_series_accept(self):
        # a constant deterministic run against an ensemble of frozen copies
        law = GrowthLaw("logistic", 1.0, 0.2)
        sds_traj = integrate(law, PopulationState(5.0),
                             dt=0.01, t_end=10.0, grid=make_grid(10.0, 0.1))
        idle = ChannelSet(table=((R_CONST, 0.0, 0.0, 0.0, 1, 0),), species=("tumour",))
        ens = run_ensemble(EnsembleSpec(channels=idle, initial=PopulationState(5), t_end=10.0,
                                        grid=make_grid(10.0, 1.0)),
                           reps=5, base_seed=0)
        report = compare(sds_traj, ens)
        assert report.wilcoxon["tumour"].h == 0
        assert report.wilcoxon["tumour"].p >= 0.99

    def test_report_schema(self):
        params = scenario_preset(1)
        sds_traj = integrate(params, PopulationState(100.0, 10.0),
                             dt=0.01, t_end=20.0, grid=make_grid(20.0, 0.1))
        grid = make_grid(20.0, 1.0)
        ens = run_ensemble(
            EnsembleSpec(channels=params.channels, initial=PopulationState(100, 10), t_end=20.0,
                         grid=grid),
            reps=5, base_seed=9,
        )
        report = compare(sds_traj, ens, alpha=0.05)
        assert report.grid is ens.grid
        assert report.species == ("tumour", "effector")
        # the arrays are held as computed, bit for bit
        mean, var = ensemble_mean(ens)
        for got, want in ((report.sds, sample_on_grid(sds_traj, grid)), (report.abs_mean, mean),
                          (report.abs_variance, var)):
            assert got.shape == (len(grid), 2)
            assert got.tobytes() == want.tobytes()
        d = report.to_dict()
        assert list(d["populations"]) == ["tumour", "effector"]
        for k, (name, pop) in enumerate(d["populations"].items()):
            assert set(pop) == {"sds", "abs_mean", "abs_variance", "wilcoxon"}
            assert pop["sds"] == report.sds[:, k].tolist()
            assert pop["abs_mean"] == report.abs_mean[:, k].tolist()
            assert pop["abs_variance"] == report.abs_variance[:, k].tolist()
            w = report.wilcoxon[name]
            assert pop["wilcoxon"] == {"U": w.U, "p": w.p, "h": w.h}
        assert set(d["metadata"]) == {"alpha", "grid_spacing", "grid_points", "reps", "base_seed", "protocol"}
        assert d["metadata"]["reps"] == 5
        assert d["metadata"]["alpha"] == 0.05

    def test_mismatched_populations_error(self):
        law = GrowthLaw("logistic", 1.0, 0.2)
        sds_traj = integrate(law, PopulationState(1.0),
                             dt=0.01, t_end=5.0, grid=make_grid(5.0, 0.5))
        params = scenario_preset(1)
        ens = run_ensemble(
            EnsembleSpec(channels=params.channels, initial=PopulationState(5, 1), t_end=5.0,
                         grid=make_grid(5.0, 1.0)),
            reps=2, base_seed=0,
        )
        with pytest.raises(ConfigError):
            compare(sds_traj, ens)

    @pytest.mark.parametrize("grid", [[0.0, 0.5, 2.0], [0.0, 1.0, 3.0]], ids=["shrinking", "growing"])
    def test_requires_uniform_grid(self, grid):
        sds_traj = integrate(scenario_preset(4), PopulationState(100.0, 10.0),
                             dt=0.01, t_end=3.0, grid=make_grid(3.0, 0.1))
        ens = run_ensemble(kuznetsov_spec(3.0, grid), reps=3, base_seed=1)
        with pytest.raises(ConfigError, match="uniform grid of at least 2 points"):
            compare(sds_traj, ens)

    def test_requires_two_grid_points(self):
        sds_traj = integrate(scenario_preset(4), PopulationState(100.0, 10.0),
                             dt=0.01, t_end=2.0, grid=make_grid(2.0, 0.1))
        ens = run_ensemble(kuznetsov_spec(2.0, [0.0]), reps=3, base_seed=1)
        with pytest.raises(ConfigError, match="uniform grid of at least 2 points"):
            compare(sds_traj, ens)
