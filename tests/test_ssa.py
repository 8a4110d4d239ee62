"""Stochastic engine: the models' channel sets, exact SSA, tau-leaping, ensembles."""

import contextlib
import math
import random
import re
import signal
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

import dualsim.kernels
import dualsim.ssa
from dualsim.errors import ConfigError, EngineError, ModelDomainError, PopulationCapError
from dualsim.kernels import R_CONST, R_LIN_E, R_MASS_TE, R_MM_TE, R_POW_T, R_TLOGT
from dualsim.kernels import _pykernels
from dualsim.kernels._pykernels import _rates, _table
from dualsim.models import ChannelSet, GrowthLaw, PopulationState, experiment_one_law, scenario_preset
from dualsim.sds import integrate
from dualsim.ssa import (
    Ensemble,
    EnsembleSpec,
    Floors,
    RatePolicy,
    run_ensemble,
    simulate_exact,
    simulate_tau_leap,
)
from dualsim.stats import make_grid, sample_on_grid
from dualsim.trajectory import Paradigm, Termination
from reference import first_seeds, linear_bd_channels


# each kernel backend that can run here, by module name
BACKENDS = {mod.__name__.rpartition(".")[2]: mod for mod in (_pykernels, dualsim.kernels.backend)}


def death_only_channels(b=1.0):
    return ChannelSet(table=((R_POW_T, b, 1.0, 0.0, -1, 0),), species=("tumour",))


def channel_rates(cs, T, E=0.0):
    """Each channel's rate at (T, E), from the reference evaluator ``_rates``."""
    rates = [0.0] * len(cs.table)
    assert _rates(_table(cs.table), T, E, -math.inf, -math.inf, rates) >= 0.0
    return rates


class TestChannelCompilation:
    def test_one_equation_has_two_channels(self):
        cs = GrowthLaw("logistic", 1.0, 0.2).channels
        assert len(cs.table) == 2
        birth, death = cs.table
        # total rates are T*p(T) and T*d(T)
        assert channel_rates(cs, 7.0) == pytest.approx([1.0 * 7.0, 0.2 * 49.0])
        assert birth[4:] == (1, 0) and death[4:] == (-1, 0)

    def test_von_bertalanffy_channel_rates(self):
        cs = GrowthLaw("bertalanffy", 1.0, 0.5).channels
        assert channel_rates(cs, 8.0) == pytest.approx([8.0 ** (4.0 / 3.0), 0.5 * 8.0])

    def test_gompertz_channel_rates(self):
        cs = GrowthLaw("gompertz", 1.5, 0.3).channels
        assert channel_rates(cs, 4.0) == pytest.approx([1.5 * 4.0, 0.3 * 4.0 * math.log(4.0)])
        assert channel_rates(cs, 0.0) == [0.0, 0.0]

    def test_kuznetsov_has_exactly_seven_channels(self):
        p = scenario_preset(1)
        cs = p.channels
        assert len(cs.table) == 7
        T, E = 10.0, 3.0
        expected = [
            (p.a * T, (1, 0)),  # tumour birth
            (p.a * p.b * T * T, (-1, 0)),  # tumour intrinsic death
            (p.n * T * E, (-1, 0)),  # tumour kill
            (p.p * T * E / (p.g + T), (0, 1)),  # effector proliferation
            (p.m * T * E, (0, -1)),  # effector interaction death
            (p.d * E, (0, -1)),  # effector apoptosis
            (p.s, (0, 1)),  # effector influx
        ]
        for k, (row, rate_at, (rate, delta)) in enumerate(zip(cs.table, channel_rates(cs, T, E), expected)):
            assert rate_at == pytest.approx(rate, rel=1e-12), k
            assert row[4:] == delta, k

    def test_all_rates_nonnegative_on_integer_states(self):
        sets = [scenario_preset(i).channels for i in (1, 2, 3, 4)]
        sets += [GrowthLaw("logistic", 1.0, 0.2).channels,
                 GrowthLaw("bertalanffy", 1.0, 0.5).channels,
                 GrowthLaw("gompertz", 1.5, 0.3).channels]
        for cs in sets:
            for T in range(0, 30, 7):
                for E in range(0, 10, 3):
                    assert min(channel_rates(cs, float(T), float(E))) >= 0.0

    def test_channel_table_is_built_once_per_set(self):
        cs = scenario_preset(4).channels
        assert cs.table is cs.table
        assert cs.table[0] == (R_POW_T, 1.636, 1.0, 0.0, 1, 0)

    def test_rate_law_rejects_negative_coefficient(self):
        with pytest.raises(ModelDomainError, match="coefficient"):
            ChannelSet(((R_CONST, -1.0, 0.0, 0.0, 1, 0),), ("tumour",))

    @pytest.mark.parametrize("code, e, g", [
        (R_POW_T, math.nan, 0.0),
        (R_POW_T, math.inf, 0.0),
        (R_MM_TE, 0.0, math.nan),
    ], ids=["nan-e", "inf-e", "nan-g"])
    def test_rate_law_rejects_non_finite_exponent_or_saturation(self, code, e, g):
        with pytest.raises(ModelDomainError, match="must be finite"):
            ChannelSet(((code, 1.0, e, g, 1, 0),), ("tumour", "effector"))

    def test_rate_law_rejects_a_negative_power(self):
        # c*T**e with e < 0 is infinite at T = 0
        with pytest.raises(ModelDomainError, match="e >= 0"):
            ChannelSet(((R_POW_T, 1.0, -1.0, 0.0, 1, 0),), ("tumour",))
        ChannelSet(((R_POW_T, 1.0, 0.0, 0.0, 1, 0),), ("tumour",))


    # the rows and species each model builds: pinned in type and value, so
    # every seeded output stays the same
    @pytest.mark.parametrize("model, species, rows", [
        (scenario_preset(1), ("tumour", "effector"),
         ((1, 1.636, 1.0, 0.0, 1, 0), (1, 0.0032719999999999997, 2.0, 0.0, -1, 0), (4, 1.0, 0.0, 0.0, -1, 0),
          (5, 1.131, 0.0, 20.19, 0, 1), (4, 0.00311, 0.0, 0.0, 0, -1), (3, 0.1908, 0.0, 0.0, 0, -1),
          (0, 0.318, 0.0, 0.0, 0, 1))),
        (scenario_preset(2), ("tumour", "effector"),
         ((1, 1.636, 1.0, 0.0, 1, 0), (1, 0.0065439999999999995, 2.0, 0.0, -1, 0), (4, 1.0, 0.0, 0.0, -1, 0),
          (5, 1.131, 0.0, 20.19, 0, 1), (4, 0.00311, 0.0, 0.0, 0, -1), (3, 2.0, 0.0, 0.0, 0, -1),
          (0, 0.318, 0.0, 0.0, 0, 1))),
        (scenario_preset(3), ("tumour", "effector"),
         ((1, 1.636, 1.0, 0.0, 1, 0), (1, 0.0032719999999999997, 2.0, 0.0, -1, 0), (4, 1.0, 0.0, 0.0, -1, 0),
          (5, 1.131, 0.0, 20.19, 0, 1), (4, 0.00311, 0.0, 0.0, 0, -1), (3, 0.3743, 0.0, 0.0, 0, -1),
          (0, 0.1181, 0.0, 0.0, 0, 1))),
        (scenario_preset(4), ("tumour", "effector"),
         ((1, 1.636, 1.0, 0.0, 1, 0), (1, 0.0032719999999999997, 2.0, 0.0, -1, 0), (4, 1.0, 0.0, 0.0, -1, 0),
          (5, 1.131, 0.0, 20.19, 0, 1), (4, 0.00311, 0.0, 0.0, 0, -1), (3, 0.3743, 0.0, 0.0, 0, -1),
          (0, 0.0, 0.0, 0.0, 0, 1))),
        (experiment_one_law("logistic", 2.5), ("tumour",),
         ((1, 1.0, 1.0, 0.0, 1, 0), (1, 0.4, 2.0, 0.0, -1, 0))),
        (experiment_one_law("bertalanffy", 2.5), ("tumour",),
         ((1, 1.0, 1.3333333333333333, 0.0, 1, 0), (1, 0.4, 1.0, 0.0, -1, 0))),
        (experiment_one_law("gompertz", 2.5), ("tumour",),
         ((1, 1.0, 1.0, 0.0, 1, 0), (2, 0.4, 0.0, 0.0, -1, 0))),
    ], ids=["s1", "s2", "s3", "s4", "logistic", "bertalanffy", "gompertz"])
    def test_each_model_builds_its_rows_and_species(self, model, species, rows):
        def typed(table):
            return [[(type(x), x) for x in row] for row in table]
        cs = model.channels
        assert type(cs.table) is tuple and all(type(row) is tuple for row in cs.table)
        assert typed(cs.table) == typed(rows)
        assert model.species == cs.species == species

    @pytest.mark.parametrize("table, species, match", [
        (((R_POW_T, 1.0, 1.0, 0.0, 1, 0),), ("tumour", "effector", "immune"), "one or two species"),
        (((R_POW_T, 1.0, 1.0, 0.0, 1, 0),), (), "one or two species"),
        ((), ("tumour",), "at least one channel"),
        (((R_CONST, 1.0, 0.0, 0.0, 1, 0),) * 17, ("tumour",), "at most 16 channels"),
        (((R_POW_T, 1.0, 1.0, 0.0, 1, 0, 0),), ("tumour",), "six numbers"),
        (((R_POW_T, 1.0, 1.0, 0.0, 1),), ("tumour",), "six numbers"),
        (([R_POW_T, 1.0, 1.0, 0.0, 1, 0],), ("tumour",), "six numbers"),
        (((R_POW_T, "1", 1.0, 0.0, 1, 0),), ("tumour",), "six numbers"),
        (((R_POW_T, 1.0, 1.0, 0.0, 0.5, 0),), ("tumour",), "integers"),
        (((R_POW_T, 1.0, 1.0, 0.0, 1, 0.0),), ("tumour", "effector"), "integers"),
        (((1.0, 1.0, 1.0, 0.0, 1, 0),), ("tumour",), "rate-law code"),
        (((6, 1.0, 1.0, 0.0, 1, 0),), ("tumour",), "rate-law code"),
        (((-1, 1.0, 1.0, 0.0, 1, 0),), ("tumour",), "rate-law code"),
        (((R_CONST, math.nan, 0.0, 0.0, 1, 0),), ("tumour",), "coefficient"),
        (((R_CONST, math.inf, 0.0, 0.0, 1, 0),), ("tumour",), "coefficient"),
        (((R_MM_TE, 1.0, 0.0, 0.0, 0, 1),), ("tumour", "effector"), "g > 0"),
        (((R_LIN_E, 1.0, 0.0, 0.0, -1, 0),), ("tumour",), "neither reads nor changes E"),
        (((R_MASS_TE, 1.0, 0.0, 0.0, -1, 0),), ("tumour",), "neither reads nor changes E"),
        (((R_MM_TE, 1.0, 0.0, 1.0, -1, 0),), ("tumour",), "neither reads nor changes E"),
        (((R_POW_T, 1.0, 1.0, 0.0, 1, 1),), ("tumour",), "neither reads nor changes E"),
        (((R_CONST, 10**400, 0.0, 0.0, 1, 0),), ("tumour",), "fit in a double"),
        (((R_POW_T, 1.0, 10**400, 0.0, 1, 0),), ("tumour",), "fit in a double"),
        (((R_POW_T, 1.0, 1.0, 0.0, 10**400, 0),), ("tumour",), "fit in a double"),
    ], ids=["three-species", "no-species", "no-rows", "17-rows", "three-jumps", "five-fields", "list-row", "string",
            "fractional-jump", "float-jump", "float-code", "code-6", "code-negative", "nan-c", "inf-c",
            "saturation-0", "lin-e-one-species", "mass-te-one-species", "mm-te-one-species", "de-one-species",
            "huge-c", "huge-e", "huge-jump"])
    def test_set_refuses_a_malformed_table_when_built(self, table, species, match):
        with pytest.raises(ModelDomainError, match=match):
            ChannelSet(table, species)

    def test_a_table_of_any_sequence_is_held_as_a_tuple(self):
        rows = [(R_CONST, 2.0, 0.0, 0.0, 1, 0), (R_POW_T, 0.1, 1.0, 0.0, -1, 0)]
        cs = ChannelSet(rows, ("tumour",))
        rows.clear()
        assert cs.table == ((R_CONST, 2.0, 0.0, 0.0, 1, 0), (R_POW_T, 0.1, 1.0, 0.0, -1, 0))

    def test_immigration_death_runs_without_kernel_code(self):
        # constant influx 2 and per-capita death 0.1 from T = 0: T(t) is
        # Poisson with mean 20 * (1 - exp(-0.1 t))
        cs = ChannelSet(table=((R_CONST, 2.0, 0.0, 0.0, 1, 0), (R_POW_T, 0.1, 1.0, 0.0, -1, 0)), species=("tumour",))
        reps, t_end = 200, 50.0
        ens = run_ensemble(EnsembleSpec(channels=cs, initial=PopulationState(0), t_end=t_end,
                                        grid=make_grid(t_end, 10.0)),
                           reps=reps, base_seed=7)
        finals = ens.values[:, -1, 0]
        expected = 20.0 * (1.0 - math.exp(-0.1 * t_end))
        assert abs(finals.mean() - expected) <= 3 * math.sqrt(expected / reps)
        assert set(ens.terminations) == {Termination.COMPLETED}


class TestSimulateExact:
    def test_death_only_single_event_exponential_time(self):
        # one agent with unit death rate: extinction at an Exp(1) time
        spec = EnsembleSpec(death_only_channels(b=1.0), PopulationState(1), t_end=200.0)
        times = []
        for i in range(10_000):
            traj = simulate_exact(spec, seed=5000 + i)
            assert traj.termination is Termination.EXTINCT
            assert traj.states[-1, 0] == 0.0
            times.append(traj.times[1])  # the single event
        mean = float(np.mean(times))
        se = float(np.std(times, ddof=1)) / math.sqrt(len(times))
        assert abs(mean - 1.0) <= 3 * se

    def test_absorbing_extinction(self):
        spec = EnsembleSpec(GrowthLaw("logistic", 1.0, 0.8).channels, PopulationState(1), t_end=50.0)
        for i in range(20):
            traj = simulate_exact(spec, seed=i)
            T = traj.states[:, 0]
            zeros = np.where(T == 0)[0]
            if zeros.size:
                assert np.all(T[zeros[0]:] == 0)

    def test_frozen_equals_live_for_state_independent_rates(self):
        # constant per-capita rates: both policies see the same rates, so
        # with one seed they produce identical event sequences
        cs = linear_bd_channels(0.7, 0.9)
        live = simulate_exact(EnsembleSpec(cs, PopulationState(5), t_end=40.0, policy=RatePolicy.LIVE), seed=123)
        frozen = simulate_exact(EnsembleSpec(cs, PopulationState(5), t_end=40.0,
                                             policy=RatePolicy.FROZEN_AT_BIRTH), seed=123)
        assert np.array_equal(live.times, frozen.times)
        assert np.array_equal(live.states, frozen.states)

    def test_frozen_equals_live_on_a_hand_built_birth_death_set(self):
        # the frozen policy reads the channel table, not the growth law the
        # set was compiled from, so any one-species birth-death set runs
        cs = linear_bd_channels()
        live = simulate_exact(EnsembleSpec(cs, PopulationState(5), t_end=3.0), seed=123)
        frozen = simulate_exact(EnsembleSpec(cs, PopulationState(5), t_end=3.0,
                                             policy=RatePolicy.FROZEN_AT_BIRTH), seed=123)
        assert len(live.times) > 10
        assert np.array_equal(live.times, frozen.times)
        assert np.array_equal(live.states, frozen.states)

    def test_frozen_policy_needs_one_equation_law(self):
        cs = scenario_preset(1).channels
        with pytest.raises(ConfigError, match="birth-death"):
            EnsembleSpec(cs, PopulationState(10, 2), t_end=1.0, policy=RatePolicy.FROZEN_AT_BIRTH)
        with pytest.raises(ConfigError, match="birth-death"):
            EnsembleSpec(death_only_channels(), PopulationState(10), t_end=1.0, policy=RatePolicy.FROZEN_AT_BIRTH)

    def test_tumour_floor_keeps_tumour_alive(self):
        spec = EnsembleSpec(scenario_preset(4).channels, PopulationState(100, 10), t_end=60.0,
                            floors=Floors(1, 0))
        for i in range(10):
            traj = simulate_exact(spec, seed=900 + i)
            assert traj.states[:, 0].min() >= 1.0

    def test_both_floors(self):
        spec = EnsembleSpec(scenario_preset(4).channels, PopulationState(100, 10), t_end=60.0,
                            floors=Floors(1, 1))
        traj = simulate_exact(spec, seed=4242)
        assert traj.states[:, 0].min() >= 1.0
        assert traj.states[:, 1].min() >= 1.0

    def test_integer_nonnegative_samples(self):
        traj = simulate_exact(EnsembleSpec(scenario_preset(2).channels, PopulationState(50, 5), t_end=5.0),
                              seed=77)
        assert np.all(traj.states >= 0)
        assert np.all(traj.states == np.floor(traj.states))

    def test_seed_determinism_and_distinct_streams(self):
        spec = EnsembleSpec(linear_bd_channels(1.0, 1.0), PopulationState(30), t_end=2.0)
        a1 = simulate_exact(spec, seed=1)
        a2 = simulate_exact(spec, seed=1)
        b = simulate_exact(spec, seed=2)
        assert np.array_equal(a1.times, a2.times) and np.array_equal(a1.states, a2.states)
        assert not np.array_equal(a1.times, b.times)

    def test_rejects_fractional_initial_state(self):
        with pytest.raises(ConfigError):
            EnsembleSpec(linear_bd_channels(), PopulationState(1.5), t_end=1.0)

    def test_rejects_initial_state_below_floor(self):
        with pytest.raises(ConfigError):
            EnsembleSpec(linear_bd_channels(), PopulationState(0), t_end=1.0, floors=Floors(1, 0))

    def test_max_events_guard(self, monkeypatch):
        monkeypatch.setattr(dualsim.ssa, "DEFAULT_MAX_EVENTS", 1000)
        spec = EnsembleSpec(linear_bd_channels(2.0, 1.0), PopulationState(100), t_end=50.0)
        with pytest.raises(EngineError, match="event budget of 1000 exhausted"):
            simulate_exact(spec, seed=3)

    def test_trajectory_metadata(self):
        traj = simulate_exact(EnsembleSpec(linear_bd_channels(), PopulationState(10), t_end=1.0), seed=11)
        assert traj.paradigm is Paradigm.ABS
        assert traj.seed == 11
        assert traj.times[-1] == 1.0  # final hold sample


class TestFloorEquivalence:
    @staticmethod
    def _veto_resample_final_T(a, b, T0, floor, t_end, seed):
        """Independent oracle: events fire from the unfloored total rate and a
        draw that would break the floor is discarded (time still advances)."""
        rng = random.Random(seed)
        T = float(T0)
        t = 0.0
        while True:
            rb, rd = a * T, b * T * T
            R = rb + rd
            if R <= 0:
                break
            t += rng.expovariate(R)
            if t >= t_end:
                break
            if rng.random() * R < rb:
                T += 1
            elif T - 1 >= floor:
                T -= 1
        return T

    def test_rate_zeroing_matches_veto_and_resample(self):
        # logistic a=1, b=0.5 from two cells with the tumour floored at one
        a, b, T0, t_end, n = 1.0, 0.5, 2, 3.0, 10_000
        spec = EnsembleSpec(GrowthLaw("logistic", a, b).channels, PopulationState(T0), t_end=t_end,
                            floors=Floors(1, 0))
        engine = np.array([
            simulate_exact(spec, seed=20_000 + i).states[-1, 0]
            for i in range(n)
        ])
        oracle = np.array([
            self._veto_resample_final_T(a, b, T0, 1, t_end, 50_000 + i) for i in range(n)
        ])
        se = math.sqrt(engine.var(ddof=1) / n + oracle.var(ddof=1) / n)
        assert abs(engine.mean() - oracle.mean()) <= 3 * se
        assert engine.min() >= 1.0 and oracle.min() >= 1.0


class TestMeanField:
    def test_linear_birth_death_matches_branching_mean(self):
        # E[T(t)] = T0 * exp((a-b) t) for constant per-capita rates
        reps, t_end = 600, 0.5
        spec = EnsembleSpec(linear_bd_channels(2.0, 1.0), PopulationState(100), t_end=t_end)
        finals = np.array([
            simulate_exact(spec, seed=31_000 + i).states[-1, 0]
            for i in range(reps)
        ])
        expected = 100.0 * math.exp(1.0 * t_end)
        se = float(np.std(finals, ddof=1)) / math.sqrt(reps)
        assert abs(float(np.mean(finals)) - expected) <= 3 * se


class TestTauLeap:
    def test_all_rates_zero_is_constant(self):
        cs = ChannelSet(table=((R_CONST, 0.0, 0.0, 0.0, 1, 0),), species=("tumour",))
        traj = simulate_tau_leap(EnsembleSpec(cs, PopulationState(5), t_end=2.0, dt=0.1), seed=1)
        assert np.all(traj.states[:, 0] == 5.0)
        # nothing can fire, but the tumour is alive: not extinct
        assert traj.termination is Termination.COMPLETED

    def test_linear_birth_death_mean(self):
        spec = EnsembleSpec(linear_bd_channels(2.0, 1.0), PopulationState(100), t_end=1.0, dt=0.001)
        reps = 1000
        finals = np.array([
            simulate_tau_leap(spec, seed=40_000 + i).states[-1, 0]
            for i in range(reps)
        ])
        expected = 100.0 * math.e
        se = float(np.std(finals, ddof=1)) / math.sqrt(reps)
        assert abs(float(np.mean(finals)) - expected) <= 3 * se

    def test_agrees_with_exact_within_5_percent(self):
        exact_spec = EnsembleSpec(linear_bd_channels(2.0, 1.0), PopulationState(100), t_end=1.0)
        tau_spec = replace(exact_spec, dt=0.001)
        reps = 400
        tau = np.mean([
            simulate_tau_leap(tau_spec, seed=60_000 + i).states[-1, 0]
            for i in range(reps)
        ])
        exact = np.mean([
            simulate_exact(exact_spec, seed=61_000 + i).states[-1, 0]
            for i in range(reps)
        ])
        assert abs(tau - exact) / exact < 0.05

    def test_floor_clamps(self):
        spec = EnsembleSpec(death_only_channels(b=5.0), PopulationState(3), t_end=5.0, floors=Floors(1, 0), dt=0.05)
        traj = simulate_tau_leap(spec, seed=9)
        assert traj.states[:, 0].min() >= 1.0

    def test_frozen_policy_rejected(self):
        cs = GrowthLaw("logistic", 1.0, 0.2).channels
        with pytest.raises(ConfigError, match="live rate policy"):
            EnsembleSpec(channels=cs, initial=PopulationState(1), t_end=1.0,
                         policy=RatePolicy.FROZEN_AT_BIRTH, dt=0.01)


class TestPopulationCap:
    def test_von_bertalanffy_hits_cap_under_leaping(self):
        spec = EnsembleSpec(GrowthLaw("bertalanffy", 1.636, 0.002).channels, PopulationState(1),
                            t_end=100.0, dt=0.001)
        with pytest.raises(PopulationCapError):
            simulate_tau_leap(spec, seed=7)

    def test_gompertz_hits_cap_under_leaping(self):
        spec = EnsembleSpec(GrowthLaw("gompertz", 1.636, 0.002).channels, PopulationState(1),
                            t_end=100.0, dt=0.001)
        with pytest.raises(PopulationCapError):
            simulate_tau_leap(spec, seed=7)


def simulate(spec, seed):
    """One replicate of ``spec``, by the simulator its kind of spec takes."""
    return (simulate_exact if spec.dt is None else simulate_tau_leap)(spec, seed)


def per_event_replicate(spec, seed):
    """One replicate of ``spec`` run per event, without a grid."""
    return simulate(replace(spec, grid=None), seed)


class TestEnsembles:
    def test_same_base_seed_is_bit_identical(self):
        spec = EnsembleSpec(channels=linear_bd_channels(1.0, 1.0),
                            initial=PopulationState(20), t_end=2.0, grid=make_grid(2.0, 0.1))
        e1 = run_ensemble(spec, reps=8, base_seed=5)
        e2 = run_ensemble(spec, reps=8, base_seed=5)
        assert np.array_equal(e1.values, e2.values)
        assert e1.terminations == e2.terminations

    def test_default_is_50_replicates_with_derived_seeds(self):
        grid = make_grid(1.0, 0.25)
        spec = EnsembleSpec(channels=death_only_channels(),
                            initial=PopulationState(1), t_end=1.0, grid=grid)
        ens = run_ensemble(spec, base_seed=100)
        assert len(ens) == 50 and ens.base_seed == 100
        for i, row in enumerate(ens.values):
            assert np.array_equal(row, sample_on_grid(per_event_replicate(spec, 100 + i), grid))

    def test_logistic_extinction_fractions_frozen_exceeds_live(self):
        # ratio c = 1.25 (a=1, b=0.8) from one cell: many runs die out early,
        # and freezing death rates at birth makes extinction more likely
        law = GrowthLaw("logistic", 1.0, 0.8)
        cs = law.channels
        reps, base = 500, 42

        def extinct_fraction(policy):
            ens = run_ensemble(
                EnsembleSpec(channels=cs, initial=PopulationState(1), t_end=5.0, policy=policy,
                             grid=make_grid(5.0, 1.0)),
                reps=reps, base_seed=base,
            )
            return np.count_nonzero(ens.values[:, -1, 0] == 0) / reps

        live = extinct_fraction(RatePolicy.LIVE)
        frozen = extinct_fraction(RatePolicy.FROZEN_AT_BIRTH)
        assert 0.0 < live < 1.0
        assert frozen > live

    def test_replicate_errors_carry_the_index(self):
        spec = EnsembleSpec(channels=GrowthLaw("gompertz", 1.636, 0.002).channels,
                            initial=PopulationState(1), t_end=100.0, dt=0.001, grid=make_grid(100.0, 1.0))
        with pytest.raises(PopulationCapError, match=r"replicate 0"):
            run_ensemble(spec, reps=3, base_seed=7)

    @pytest.mark.parametrize("dt", [0.0, -1.0, math.nan, math.inf, 2.0, 1e-8])  # 1e-8: 1e8 leaps
    def test_dt_must_be_positive(self, dt):
        with pytest.raises(ConfigError, match=r"dt must be finite and > 0|need dt <= t_end and at most 5e\+07 steps"):
            EnsembleSpec(channels=death_only_channels(), initial=PopulationState(1), t_end=1.0, dt=dt)

    @pytest.mark.parametrize("dt, t_end", [
        (0.0, 1.0), (-1.0, 1.0), (math.nan, 1.0), (math.inf, 1.0), ("0.1", 1.0), (2.0, 1.0), (1e-8, 1.0),
        (0.1, 0.0), (0.1, -1.0), (0.1, math.nan), (0.1, math.inf), (0.1, None),
    ])
    def test_tau_and_rk4_steps_are_refused_alike(self, dt, t_end):
        with pytest.raises(ConfigError) as rk4:
            integrate(GrowthLaw("logistic", 1.0, 0.2), PopulationState(1.0), dt=dt, t_end=t_end, grid=[0.0])
        with pytest.raises(ConfigError) as tau:
            EnsembleSpec(channels=death_only_channels(), initial=PopulationState(1), t_end=t_end, dt=dt)
        assert str(tau.value) == str(rk4.value)

    @pytest.mark.parametrize("model, initial", [
        (GrowthLaw("logistic", 1.0, 0.2), PopulationState(1, 1)),
        (scenario_preset(1), PopulationState(1)),
    ], ids=["growth-with-E", "kuznetsov-without-E"])
    def test_sds_and_abs_starts_are_refused_alike(self, model, initial):
        with pytest.raises(ConfigError) as sds:
            integrate(model, initial, dt=0.01, t_end=1.0, grid=make_grid(1.0))
        channels = model.channels
        with pytest.raises(ConfigError) as abs_:
            EnsembleSpec(channels=channels, initial=initial, t_end=1.0)
        assert str(abs_.value) == str(sds.value)

    @pytest.mark.parametrize("backend", [_pykernels, dualsim.kernels.backend], ids=["pure", "active"])
    @pytest.mark.parametrize("steps", [
        (np.float64(0.1), np.float64(2)), (np.float32(0.1), np.float32(2)), (np.int64(1), np.int64(2)), (1, 2),
    ], ids=["float64", "float32", "int64", "int"])
    def test_steps_of_any_real_type_are_taken_alike(self, monkeypatch, backend, steps):
        # every kernel takes its steps as doubles, so steps of any real type run as their floats do
        monkeypatch.setattr(dualsim.kernels, "rk4_growth", backend.rk4_growth)
        monkeypatch.setattr(dualsim.kernels, "tau_leap", backend.tau_leap)
        model, initial, grid = GrowthLaw("logistic", 1.0, 0.2), PopulationState(1.0), make_grid(2.0)
        sds = [integrate(model, initial, dt=dt, t_end=t_end, grid=grid).states
               for dt, t_end in (steps, map(float, steps))]
        assert sds[0].tobytes() == sds[1].tobytes()
        abs_ = [simulate_tau_leap(EnsembleSpec(death_only_channels(), PopulationState(10), t_end=t_end, dt=dt),
                                  seed=1).states
                for dt, t_end in (steps, map(float, steps))]
        assert abs_[0].tobytes() == abs_[1].tobytes()

    @pytest.mark.parametrize("channels, initial, t_end, policy, floors", [
        (death_only_channels(), PopulationState(1), 0.0, RatePolicy.LIVE, Floors()),
        (death_only_channels(), PopulationState(1), -1.0, RatePolicy.LIVE, Floors()),
        (death_only_channels(), PopulationState(1), math.nan, RatePolicy.LIVE, Floors()),
        (death_only_channels(), PopulationState(1.5), 1.0, RatePolicy.LIVE, Floors()),
        (death_only_channels(), PopulationState(0), 1.0, RatePolicy.LIVE, Floors(1, 0)),
        (scenario_preset(1).channels, PopulationState(10, 2), 1.0,
         RatePolicy.FROZEN_AT_BIRTH, Floors()),
    ], ids=["t-end-0", "t-end-negative", "t-end-nan", "fractional", "below-floor", "frozen-kuznetsov"])
    def test_spec_refuses_a_bad_run_when_built(self, channels, initial, t_end, policy, floors):
        with pytest.raises(ConfigError):
            EnsembleSpec(channels=channels, initial=initial, t_end=t_end, policy=policy, floors=floors)

    @pytest.mark.parametrize("channels", [
        death_only_channels(),
        ChannelSet(((R_POW_T, 1.0, 1.0, 0.0, -1, 0), (R_POW_T, 2.0, 1.0, 0.0, 1, 0)), ("tumour",)),
        ChannelSet(((R_CONST, 2.0, 0.0, 0.0, 1, 0), (R_POW_T, 1.0, 1.0, 0.0, -1, 0)), ("tumour",)),
        ChannelSet(((R_POW_T, 2.0, 1.0, 0.0, 2, 0), (R_POW_T, 1.0, 1.0, 0.0, -1, 0)), ("tumour",)),
        ChannelSet(((R_POW_T, 2.0, 1.0, 0.0, 1, 0), (R_CONST, 1.0, 0.0, 0.0, -1, 0)), ("tumour",)),
        ChannelSet(((R_POW_T, 2.0, 1.0, 0.0, 1, 0), (R_POW_T, 1.0, 1.0, 0.0, -1, 0),
                    (R_CONST, 1.0, 0.0, 0.0, 1, 0)), ("tumour",)),
    ], ids=["death-only", "death-first", "constant-birth", "double-birth", "constant-death", "three-rows"])
    def test_spec_refuses_a_set_the_frozen_kernel_cannot_run(self, channels):
        with pytest.raises(ConfigError, match="birth-death"):
            EnsembleSpec(channels=channels, initial=PopulationState(10), t_end=1.0,
                         policy=RatePolicy.FROZEN_AT_BIRTH)
        with pytest.raises(ValueError, match="birth-death"):  # the kernel's own rule agrees
            dualsim.kernels._pykernels.ssa_frozen(channels.table, 10, 1.0, 0, 0, 1e12, 100)

    @pytest.mark.parametrize("dt", [None, 0.01])
    def test_a_run_no_event_can_change_is_extinct_only_at_zero(self, dt):
        # death only from T = 3: unfloored, every replicate dies out; floored
        # at one, nothing can fire at T = 1, yet the tumour is alive
        grid = make_grid(20.0, 1.0)
        for floors, held, label in ((Floors(), 0.0, Termination.EXTINCT),
                                    (Floors(1, 0), 1.0, Termination.COMPLETED)):
            spec = EnsembleSpec(channels=death_only_channels(), initial=PopulationState(3), t_end=20.0,
                                floors=floors, dt=dt, grid=grid)
            ens = run_ensemble(spec, reps=5, base_seed=1)
            assert np.all(ens.values[:, -1, 0] == held)
            assert ens.terminations == (label,) * 5
            assert per_event_replicate(spec, 1).termination is label

    def test_dt_selects_tau_leaping(self):
        channels, initial = scenario_preset(2).channels, PopulationState(100, 10)
        spec = EnsembleSpec(channels=channels, initial=initial, t_end=5.0, dt=0.01, grid=make_grid(5.0, 0.5))
        ens = run_ensemble(spec, reps=4, base_seed=11)
        for i, row in enumerate(ens.values):
            assert np.array_equal(row, simulate_tau_leap(spec, 11 + i).states)
            assert not np.array_equal(row, simulate_exact(replace(spec, dt=None), 11 + i).states)

    def test_reps_must_be_positive(self):
        spec = EnsembleSpec(channels=death_only_channels(), initial=PopulationState(1), t_end=1.0,
                            grid=make_grid(1.0, 0.5))
        with pytest.raises(ConfigError):
            run_ensemble(spec, reps=0, base_seed=0)

    @pytest.mark.parametrize("reps", [10**20, 2**62])
    def test_more_replicates_than_an_array_can_index_is_a_config_error(self, reps):
        # numpy refuses the shape before it allocates anything
        spec = EnsembleSpec(channels=death_only_channels(), initial=PopulationState(1), t_end=1.0,
                            grid=make_grid(1.0, 0.5))
        with pytest.raises(ConfigError, match="too many to hold"):
            run_ensemble(spec, reps=reps, base_seed=0)

    @pytest.mark.parametrize("method, dt", [("exact", None), ("tau", 0.01)])
    def test_grid_held_replicates_match_step_sampling(self, method, dt):
        # two species, one species, (exact only) rates frozen at birth and,
        # last, extinction before the grid ends
        cases = [
            (scenario_preset(4).channels, PopulationState(100, 10), RatePolicy.LIVE),
            (linear_bd_channels(1.0, 0.8), PopulationState(5), RatePolicy.LIVE),
        ]
        if method == "exact":
            cases.append((GrowthLaw("logistic", 1.0, 0.2).channels, PopulationState(3),
                          RatePolicy.FROZEN_AT_BIRTH))
        cases.append((death_only_channels(), PopulationState(3), RatePolicy.LIVE))
        grid = make_grid(10.0, 0.5)
        for channels, initial, policy in cases:
            spec = EnsembleSpec(channels=channels, initial=initial, t_end=10.0, policy=policy, dt=dt, grid=grid)
            held = run_ensemble(spec, reps=6, base_seed=3)
            full = [per_event_replicate(spec, 3 + i) for i in range(6)]
            assert np.array_equal(held.grid, grid) and held.species == channels.species
            assert held.values.shape == (6, len(grid), len(channels.species))
            for row, f in zip(held.values, full):
                assert np.array_equal(row, sample_on_grid(f, grid))
            assert held.terminations == tuple(f.termination for f in full)
        # the death-only replicates die out long before t = 10
        assert all(t is Termination.EXTINCT for t in held.terminations)
        assert all(f.times[-2] < grid[-1] for f in full)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("channels, initial, t_end, policy, dt, grid", [
        (scenario_preset(4).channels, PopulationState(100, 10), 20.0, RatePolicy.LIVE, None, make_grid(14.0, 7.0)),
        (scenario_preset(4).channels, PopulationState(100, 10), 20.0, RatePolicy.LIVE, 0.01, make_grid(14.0, 7.0)),
        (GrowthLaw("logistic", 1.0, 0.8).channels, PopulationState(1), 5.0, RatePolicy.FROZEN_AT_BIRTH,
         None, make_grid(4.0, 2.0)),
    ], ids=["exact", "tau", "frozen"])
    def test_a_grid_that_stops_short_is_labelled_by_the_whole_run(self, monkeypatch, backend, channels, initial,
                                                                   t_end, policy, dt, grid):
        spec = EnsembleSpec(channels=channels, initial=initial, t_end=t_end, policy=policy, dt=dt, grid=grid)

        def dies_after_the_grid(seed):
            full = per_event_replicate(spec, seed)
            return full.termination is Termination.EXTINCT and full.times[-2] > grid[-1]

        # each seed's run dies out after the last grid time and before t_end
        seeds = first_seeds(dies_after_the_grid, 2)
        for name in ("ssa", "ssa_frozen", "tau_leap"):
            monkeypatch.setattr(dualsim.kernels, name, getattr(BACKENDS[backend], name))
        for seed in seeds:
            held, full = simulate(spec, seed), per_event_replicate(spec, seed)
            assert np.array_equal(held.times, grid) and np.array_equal(held.states, sample_on_grid(full, grid))
            assert full.times[-2] > grid[-1]
            assert held.termination is full.termination is Termination.EXTINCT

    def test_grid_past_the_run_is_refused(self):
        with pytest.raises(ConfigError, match="grid"):
            EnsembleSpec(channels=death_only_channels(), initial=PopulationState(1), t_end=1.0,
                         grid=make_grid(2.0, 0.5))

    def test_a_grid_is_required(self):
        spec = EnsembleSpec(channels=death_only_channels(), initial=PopulationState(1), t_end=1.0)
        with pytest.raises(ConfigError, match="grid"):
            run_ensemble(spec, reps=1, base_seed=0)

    @pytest.mark.parametrize("dt", [None, 0.01])
    def test_run_rules_and_grid_are_checked_once_per_spec(self, monkeypatch, dt):
        spec = EnsembleSpec(channels=linear_bd_channels(1.0, 1.0), initial=PopulationState(20), t_end=2.0,
                            dt=dt, grid=make_grid(2.0, 0.1))
        calls = []

        def counted(check):
            def counting(*args):
                calls.append(check.__name__)
                return check(*args)
            return counting

        monkeypatch.setattr(EnsembleSpec, "__post_init__", counted(EnsembleSpec.__post_init__))
        monkeypatch.setattr(dualsim.ssa, "_check_grid", counted(dualsim.ssa._check_grid))
        ens = run_ensemble(spec, reps=20, base_seed=1)
        assert len(ens) == 20 and calls == []
        EnsembleSpec(spec.channels, spec.initial, spec.t_end, dt=dt, grid=spec.grid)  # the counters count
        assert calls == ["__post_init__", "_check_grid"]

    def test_spec_holds_a_read_only_copy_of_its_grid(self):
        grid = make_grid(1.0, 0.25)
        spec = EnsembleSpec(channels=death_only_channels(), initial=PopulationState(1), t_end=1.0,
                            grid=grid.tolist())
        assert spec.grid.dtype == np.float64 and np.array_equal(spec.grid, grid)
        with pytest.raises(ValueError, match="read-only"):
            spec.grid[1] = 0.5
        spec = EnsembleSpec(channels=death_only_channels(), initial=PopulationState(1), t_end=1.0, grid=grid)
        grid[1] = 0.5
        assert spec.grid[1] == 0.25
        assert spec != replace(spec) and hash(spec) == hash(spec)  # compared by identity, never by array

    def test_each_simulator_refuses_the_other_kind_of_spec(self):
        exact = EnsembleSpec(channels=death_only_channels(), initial=PopulationState(1), t_end=1.0)
        with pytest.raises(ConfigError, match="simulate_tau_leap"):
            simulate_exact(replace(exact, dt=0.1), seed=0)
        with pytest.raises(ConfigError, match="leap step dt"):
            simulate_tau_leap(exact, seed=0)

    @pytest.mark.parametrize("values, terminations", [
        (np.zeros((0, 3, 1)), ()),  # no replicate
        (np.zeros((2, 3)), (Termination.COMPLETED,) * 2),  # no species axis
        (np.zeros((2, 4, 1)), (Termination.COMPLETED,) * 2),  # not on the grid
        (np.zeros((2, 3, 2)), (Termination.COMPLETED,) * 2),  # two species for one
        (np.zeros((2, 3, 1)), (Termination.COMPLETED,)),  # a termination missing
    ], ids=["empty", "2d", "grid-length", "species", "terminations"])
    def test_ensemble_rejects_mis_shaped_records(self, values, terminations):
        with pytest.raises(EngineError):
            Ensemble(grid=np.array([0.0, 1.0, 2.0]), values=values, species=("tumour",),
                     terminations=terminations, base_seed=0)


def use_cpus(monkeypatch, n):
    """Makes ``run_ensemble`` see ``n`` usable CPUs."""
    monkeypatch.setattr(dualsim.ssa.os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


# short runs of each kind: scenario 4 exact and tau-leaped, and a frozen-policy logistic law
THREAD_SPECS = {
    "exact": EnsembleSpec(channels=scenario_preset(4).channels, initial=PopulationState(100, 10), t_end=5.0,
                          floors=Floors(1, 0), grid=make_grid(5.0, 0.5)),
    "tau": EnsembleSpec(channels=scenario_preset(4).channels, initial=PopulationState(100, 10), t_end=5.0,
                        dt=0.01, grid=make_grid(5.0, 0.5)),
    "frozen": EnsembleSpec(channels=GrowthLaw("logistic", 1.0, 0.8).channels, initial=PopulationState(1),
                           t_end=5.0, policy=RatePolicy.FROZEN_AT_BIRTH, grid=make_grid(5.0, 1.0)),
}


def failing_at(monkeypatch, failures, good=None):
    """Makes ``simulate_exact`` raise ``failures[seed]`` for those seeds and
    run ``good`` (the real simulator by default) for the others; returns the
    list of seeds it was called with."""
    real, calls = good or simulate_exact, []

    def simulate(spec, seed):
        calls.append(seed)
        if seed in failures:
            raise failures[seed]
        return real(spec, seed)

    monkeypatch.setattr(dualsim.ssa, "simulate_exact", simulate)
    return calls


def after(event, simulate, spec, seed):
    """``simulate(spec, seed)``, once ``event`` is set and 0.1 s more have
    passed, in which the thread that set it handles what it raises."""
    event.wait(10)
    time.sleep(0.1)
    return simulate(spec, seed)


class TestEnsembleThreads:
    """``run_ensemble`` splits replicates over ``min(reps, usable CPUs)``
    threads, with the serial results and errors."""

    @pytest.mark.parametrize("kind", THREAD_SPECS)
    @pytest.mark.parametrize("reps", [1, 2, 5])
    def test_values_are_the_same_bytes_on_any_thread_count(self, monkeypatch, kind, reps):
        runs = []
        for n in (1, 2, 3, 8):
            use_cpus(monkeypatch, n)
            ens = run_ensemble(THREAD_SPECS[kind], reps=reps, base_seed=21)
            runs.append((ens.values.tobytes(), ens.terminations))
        assert runs[1:] == runs[:1] * 3

    @pytest.mark.parametrize("n, reps, chunks", [
        (1, 5, [[0, 1, 2, 3, 4]]),
        (2, 5, [[0, 1], [2, 3, 4]]),
        (3, 5, [[0], [1, 2], [3, 4]]),
        (8, 5, [[0], [1], [2], [3], [4]]),
        (8, 1, [[0]]),
    ])
    def test_each_thread_runs_a_contiguous_chunk_and_this_one_the_first(self, monkeypatch, n, reps, chunks):
        use_cpus(monkeypatch, n)
        ran = {}  # thread -> replicate indices, in the order it ran them
        real = simulate_exact

        def simulate(spec, seed):
            ran.setdefault(threading.current_thread(), []).append(seed)
            return real(spec, seed)

        monkeypatch.setattr(dualsim.ssa, "simulate_exact", simulate)
        run_ensemble(THREAD_SPECS["exact"], reps=reps, base_seed=0)
        assert sorted(ran.values()) == chunks and ran[threading.current_thread()] == chunks[0]

    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_the_lowest_failing_replicate_is_reported(self, monkeypatch, n):
        # on more than one thread, replicate 1 fails only once replicate 4 has
        use_cpus(monkeypatch, n)
        four_failed = threading.Event()

        def simulate(spec, seed):
            if seed == 14:
                four_failed.set()
                raise EngineError("four")
            if seed == 11:
                assert n == 1 or four_failed.wait(10)
                raise EngineError("one")
            return simulate_exact(spec, seed)

        monkeypatch.setattr(dualsim.ssa, "simulate_exact", simulate)
        with pytest.raises(EngineError, match=r"^replicate 1 \(seed 11\): one$"):
            run_ensemble(THREAD_SPECS["exact"], reps=5, base_seed=10)

    def test_an_error_of_any_type_in_a_helper_is_raised_on_the_caller(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        error = ZeroDivisionError("in the second chunk")
        failing_at(monkeypatch, {3: error})
        with pytest.raises(ZeroDivisionError) as info:
            run_ensemble(THREAD_SPECS["exact"], reps=4, base_seed=0)
        assert info.value is error  # as it was raised, with no replicate label

    @pytest.mark.parametrize("error", [EngineError("boom"), KeyboardInterrupt()], ids=["error", "interrupt"])
    def test_a_failure_at_replicate_0_stops_every_chunk_at_its_next_replicate(self, monkeypatch, error):
        # the other replicates end only after replicate 0 has failed, so each chunk begins one at most
        use_cpus(monkeypatch, 4)
        failed = threading.Event()

        class Failing(type(error)):
            def __init__(self, *args):
                super().__init__(*args)
                failed.set()

        calls = failing_at(monkeypatch, {0: Failing},
                           good=lambda spec, seed: after(failed, simulate_exact, spec, seed))
        with pytest.raises(type(error)):
            run_ensemble(THREAD_SPECS["exact"], reps=40, base_seed=0)
        assert 0 in calls and len(calls) <= 4, calls

    def test_a_replicate_that_cannot_be_stored_in_a_helper_is_raised_on_the_caller(self, monkeypatch):
        # replicate 3, in the second chunk, returns states of the wrong shape
        use_cpus(monkeypatch, 2)

        class Misshapen:
            states = np.zeros(7)

        def simulate(spec, seed):
            return Misshapen() if seed == 3 else simulate_exact(spec, seed)

        monkeypatch.setattr(dualsim.ssa, "simulate_exact", simulate)
        with pytest.raises(ValueError, match="broadcast"):
            run_ensemble(THREAD_SPECS["exact"], reps=4, base_seed=0)

    @pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="sends SIGINT to this thread")
    def test_an_interrupt_while_waiting_for_the_helpers_stops_every_chunk(self, monkeypatch):
        # this thread runs its chunk of 10 and waits in a join; one helper then sends it SIGINT, and the
        # other helpers' first replicates end only after that
        use_cpus(monkeypatch, 4)
        handler = signal.signal(signal.SIGINT, signal.default_int_handler)
        main, chunk_done, sent, sending = threading.get_ident(), threading.Event(), threading.Event(), threading.Lock()
        calls = []

        def simulate(spec, seed):
            calls.append(seed)
            if threading.get_ident() == main:
                if seed == 9:
                    chunk_done.set()
            elif not sending.acquire(blocking=False):
                return after(sent, simulate_exact, spec, seed)
            else:
                chunk_done.wait(10)
                time.sleep(0.1)  # this thread is in the join by now
                signal.pthread_kill(main, signal.SIGINT)
                sent.set()
                time.sleep(0.1)
            return simulate_exact(spec, seed)

        monkeypatch.setattr(dualsim.ssa, "simulate_exact", simulate)
        before = threading.active_count()
        try:
            with pytest.raises(KeyboardInterrupt):
                run_ensemble(THREAD_SPECS["exact"], reps=40, base_seed=0)
        finally:
            signal.signal(signal.SIGINT, handler)
        assert threading.active_count() == before  # the helpers were joined, so no more calls come
        assert sorted(calls)[:10] == list(range(10)) and len(calls) <= 13, calls

    def test_under_many_thread_switches_the_values_and_the_lowest_failure_hold(self, monkeypatch):
        # 16 threads on any host, switching every 10 microseconds: a lost update of the shared stop
        # index or of a row would show as other bytes or another replicate's error
        spec, interval = THREAD_SPECS["frozen"], sys.getswitchinterval()
        use_cpus(monkeypatch, 1)
        serial = run_ensemble(spec, reps=64, base_seed=3).values.tobytes()
        use_cpus(monkeypatch, 16)
        sys.setswitchinterval(1e-5)
        try:
            assert run_ensemble(spec, reps=64, base_seed=3).values.tobytes() == serial
            failing_at(monkeypatch, {seed: EngineError("boom") for seed in (40, 50, 60, 66)})
            with pytest.raises(EngineError, match=r"^replicate 37 \(seed 40\)"):
                run_ensemble(spec, reps=64, base_seed=3)
        finally:
            sys.setswitchinterval(interval)

    def test_a_helper_that_cannot_start_is_raised_at_once_and_no_replicate_follows(self, monkeypatch):
        # the second of three helpers fails to start; the chunk of the first, which did start, may begin
        # replicate 10 only, and this thread runs none of its own
        use_cpus(monkeypatch, 4)
        failed, starts, real_start = threading.Event(), [], threading.Thread.start
        error = RuntimeError("can't start new thread")

        def start(thread):
            starts.append(thread)
            if len(starts) == 2:
                failed.set()
                raise error
            real_start(thread)

        calls = failing_at(monkeypatch, {}, good=lambda spec, seed: after(failed, simulate_exact, spec, seed))
        monkeypatch.setattr(threading.Thread, "start", start)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            run_ensemble(THREAD_SPECS["exact"], reps=40, base_seed=0)
        assert info.value is error and threading.active_count() == before
        assert calls in ([], [10]), calls

    @pytest.mark.parametrize("fails", [False, True])
    def test_every_helper_is_joined(self, monkeypatch, fails):
        use_cpus(monkeypatch, 8)
        failing_at(monkeypatch, {5: EngineError("boom")} if fails else {})
        before = threading.active_count()
        with pytest.raises(EngineError) if fails else contextlib.nullcontext():
            run_ensemble(THREAD_SPECS["exact"], reps=8, base_seed=0)
        assert threading.active_count() == before


def _no_kernel(*args, **kwargs):
    raise AssertionError("a kernel ran before the grid was checked")


class TestGridValidation:
    @pytest.mark.parametrize("grid, match", [
        (np.zeros((3, 2)), "1-D"),
        (np.array([]), "non-empty"),
        (["0", "one"], "array of times"),
        (np.array([0.0, np.nan, 1.0]), "finite"),
        (np.array([0.0, 0.5, np.inf]), "finite"),
        (np.array([-1.0, 0.0, 1.0]), "start at t=0"),
        (np.array([0.5, 1.0]), "start at t=0"),
        (np.array([0.0, 0.5, 0.5, 1.0]), "strictly increasing"),
        (np.array([0.0, 1.0, 0.5]), "strictly increasing"),
        (np.array([0.0, 1.0, 2.0 + 1e-6]), "end by t=2"),
    ], ids=["2d", "empty", "not-numbers", "nan", "inf", "negative-start", "late-start",
            "repeated", "decreasing", "past-t-end"])
    @pytest.mark.parametrize("method", ["exact", "frozen", "tau", "sds"])
    def test_bad_grid_is_refused_before_any_kernel_runs(self, monkeypatch, method, grid, match):
        for name in ("ssa", "ssa_frozen", "tau_leap", "rk4_growth", "rk4_kuznetsov"):
            monkeypatch.setattr(dualsim.kernels, name, _no_kernel)
        law = GrowthLaw("logistic", 1.0, 0.2).channels
        with pytest.raises(ConfigError, match=match):
            if method == "sds":
                integrate(GrowthLaw("logistic", 1.0, 0.2), PopulationState(3.0), dt=0.1, t_end=2.0, grid=grid)
            else:
                policy = RatePolicy.FROZEN_AT_BIRTH if method == "frozen" else RatePolicy.LIVE
                EnsembleSpec(law, PopulationState(3), t_end=2.0, policy=policy,
                             dt=0.1 if method == "tau" else None, grid=grid)

    def test_lists_strided_arrays_and_the_end_tolerance_are_accepted(self):
        spec = EnsembleSpec(GrowthLaw("logistic", 1.0, 0.2).channels, PopulationState(3), t_end=2.0)
        expected = simulate_exact(replace(spec, grid=np.array([0.0, 1.0, 2.0])), seed=1)
        for grid in ([0, 1, 2], np.arange(0.0, 2.5, 0.5)[::2], np.array([0.0, 1.0, 2.0 + 1e-10])):
            traj = simulate_exact(replace(spec, grid=grid), seed=1)
            assert np.array_equal(traj.states, expected.states)
            assert traj.times.dtype == np.float64 and traj.times.flags.c_contiguous

    def test_event_budget_error_names_the_last_event_in_grid_mode(self, monkeypatch):
        monkeypatch.setattr(dualsim.ssa, "DEFAULT_MAX_EVENTS", 1000)
        messages = []
        for grid in (None, make_grid(50.0, 1.0)):
            spec = EnsembleSpec(linear_bd_channels(2.0, 1.0), PopulationState(100), t_end=50.0, grid=grid)
            with pytest.raises(EngineError, match="event budget of 1000 exhausted") as info:
                simulate_exact(spec, seed=3)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert re.search(r" at t=\S+ with population \d+;", messages[1])
        assert " at t=50 " not in messages[1]

    @pytest.mark.parametrize("channels, initial, message", [
        (scenario_preset(4).channels, PopulationState(100, 10), "event budget of 1000 exhausted"),
        # 10**400 overflows to inf at T = 10
        (ChannelSet(((R_POW_T, 1.0, 400.0, 0.0, 1, 0), (R_LIN_E, 1.0, 0.0, 0.0, 0, 1)), ("tumour", "effector")),
         PopulationState(10, 7), "infinite or nan"),
    ], ids=["event-budget", "bad-rate"])
    def test_a_two_species_error_names_both_populations(self, monkeypatch, channels, initial, message):
        monkeypatch.setattr(dualsim.ssa, "DEFAULT_MAX_EVENTS", 1000)
        with pytest.raises(EngineError, match=message) as info:
            simulate_exact(EnsembleSpec(channels, initial, t_end=50.0, floors=Floors(1, 0)), seed=3)
        assert re.search(r" at t=\S+ with population T=\d+, E=\d+;", str(info.value))
        if message == "infinite or nan":
            assert " at t=0 with population T=10, E=7;" in str(info.value)


class TestScenarioDiscreteness:
    def test_scenario1_discrete_runs_reach_exact_zero(self):
        # the deterministic tumour only decays asymptotically; the discrete
        # process hits zero and stays there, event by event
        spec = EnsembleSpec(scenario_preset(1).channels, PopulationState(100, 10), t_end=100.0)
        for seed in range(300, 320):
            rep = simulate_exact(spec, seed)
            T = rep.states[:, 0]
            assert T[-1] == 0.0
            zeros = np.where(T == 0)[0]
            assert np.all(T[zeros[0]:] == 0)

    def test_scenario4_effector_extinction_is_absorbing_without_influx(self):
        # s = 0: once the effectors are gone nothing can replenish them
        spec = EnsembleSpec(scenario_preset(4).channels, PopulationState(100, 10), t_end=100.0)
        saw_extinct = 0
        for seed in range(55, 75):
            rep = simulate_exact(spec, seed)
            E = rep.states[:, 1]
            zeros = np.where(E == 0)[0]
            if zeros.size:
                saw_extinct += 1
                assert np.all(E[zeros[0]:] == 0)
        assert saw_extinct > 0

    def test_initial_state_beyond_cap_is_refused(self):
        with pytest.raises(PopulationCapError):
            EnsembleSpec(scenario_preset(4).channels, PopulationState(2e12, 1), t_end=1.0)
