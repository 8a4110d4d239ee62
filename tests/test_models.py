"""Model definitions, and the facts of each model's channel table."""

import dataclasses
import math

import numpy as np
import pytest

from dualsim import kernels
from dualsim.errors import ConfigError, ModelDomainError, UnknownScenarioError
from dualsim.kernels import _pykernels
from dualsim.kernels._pykernels import _rates, _table
from dualsim.models import (
    GROWTH_LAWS,
    GrowthLaw,
    KuznetsovParams,
    PopulationState,
    experiment_one_law,
    scenario_preset,
)
from dualsim.sds import integrate
from dualsim.ssa import EnsembleSpec
from dualsim.stats import make_grid
from reference import PAPER_RATIOS

# the pure backend and the active one (the compiled backend when it is built)
BACKENDS = {mod.__name__.rpartition(".")[2]: mod for mod in (_pykernels, kernels.backend)}

LAWS = {
    "logistic": GrowthLaw("logistic", 1.636, 0.002),
    "von-bertalanffy": GrowthLaw("bertalanffy", 1.0, 0.5),
    "gompertz": GrowthLaw("gompertz", 1.636, 0.002),
}


def channel_rates(model, T, E=0.0):
    """Each channel's rate at (T, E), from the reference evaluator ``_rates``."""
    table = _table(model.channels.table)
    rates = [0.0] * len(table)
    assert _rates(table, T, E, -math.inf, -math.inf, rates) >= 0.0
    return table, rates


def drift(model, T, E=0.0):
    """(dT/dt, dE/dt) = sum_k delta_k * r_k(T, E), the ODE of the table."""
    table, rates = channel_rates(model, T, E)
    return (math.fsum(r * row[4] for r, row in zip(rates, table)),
            math.fsum(r * row[5] for r, row in zip(rates, table)))


def drift_rk4_step(model, T, E, h):
    """One classic RK4 step of the table's drift."""
    k1 = drift(model, T, E)
    k2 = drift(model, T + 0.5 * h * k1[0], E + 0.5 * h * k1[1])
    k3 = drift(model, T + 0.5 * h * k2[0], E + 0.5 * h * k2[1])
    k4 = drift(model, T + h * k3[0], E + h * k3[1])
    return tuple(x + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
                 for x, a, b, c, d in zip((T, E), k1, k2, k3, k4))


class TestGrowthLaw:
    def test_a_law_is_its_name_and_two_rates(self):
        law = GrowthLaw("logistic", 1.0, 0.2)
        assert [f.name for f in dataclasses.fields(law)] == ["kind", "a", "b"]
        assert law == GrowthLaw("logistic", 1.0, 0.2) != GrowthLaw("bertalanffy", 1.0, 0.2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            law.a = 2.0

    def test_logistic_preset_exponents(self):
        assert GrowthLaw("logistic", 1.0, 0.2).exponents == (0.0, 1.0)

    def test_von_bertalanffy_preset_exponents(self):
        assert GrowthLaw("bertalanffy", 1.0, 0.5).exponents == (1.0 / 3.0, 0.0)

    @pytest.mark.parametrize("kind", ["logistic", "bertalanffy"])
    def test_growth_condition_b_less_than_a(self, kind):
        GrowthLaw(kind, 1.0, 0.999)
        with pytest.raises(ModelDomainError, match="b < a"):
            GrowthLaw(kind, 1.0, 1.0)
        with pytest.raises(ModelDomainError, match="b < a"):
            GrowthLaw(kind, 1.0, 2.0)
        with pytest.raises(ConfigError):  # so the CLI exits 2 on it
            GrowthLaw(kind, 1.0, 2.0)

    def test_gompertz_allows_any_positive_pair(self):
        # only a, b > 0 is required for Gompertz, which has no exponents
        assert GrowthLaw("gompertz", 1.0, 5.0).exponents is None
        GrowthLaw("gompertz", 5.0, 1.0)
        GrowthLaw("gompertz", 1.0, 1.0)

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (1.0, -1.0)])
    def test_rates_must_be_positive(self, a, b):
        for kind in GROWTH_LAWS:
            with pytest.raises(ModelDomainError, match="a > 0 and b > 0"):
                GrowthLaw(kind, a, b)

    @pytest.mark.parametrize("kind", GROWTH_LAWS)
    @pytest.mark.parametrize("a,b", [(math.nan, 0.5), (1.0, math.nan), (math.inf, 0.5), (1.0, math.inf),
                                     (1.0, -math.inf)])
    def test_rates_must_be_finite(self, kind, a, b):
        with pytest.raises(ModelDomainError, match="finite"):
            GrowthLaw(kind, a, b)

    @pytest.mark.parametrize("kind", ["power-law", "von Bertalanffy", "Logistic", "kuznetsov", None])
    def test_unknown_kind(self, kind):
        with pytest.raises(ModelDomainError, match="unknown growth-law kind"):
            GrowthLaw(kind, 1.0, 0.5)


class TestPerCapitaRates:
    """Per-capita rates of a growth table: each channel's rate over T."""

    def test_logistic_balance_point(self):
        # a=1, b=0.2: proliferation and death balance at exactly five cells
        _, (birth, death) = channel_rates(GrowthLaw("logistic", 1.0, 0.2), 5.0)
        assert birth / 5.0 == 1.0
        assert death / 5.0 == 1.0

    def test_gompertz_at_one_cell(self):
        _, (birth, death) = channel_rates(GrowthLaw("gompertz", 1.7, 0.4), 1.0)
        assert death == 0.0  # ln 1 = 0
        assert birth == 1.7

    def test_von_bertalanffy_exact_cube_root(self):
        _, (birth, death) = channel_rates(GrowthLaw("bertalanffy", 1.0, 0.5), 8.0)
        assert birth / 8.0 == pytest.approx(2.0, rel=1e-12)
        assert death / 8.0 == 0.5


class TestGrowthF:
    """Net per-capita growth f(T) = (dT/dt) / T of a growth table's drift."""

    @staticmethod
    def f(law, T):
        return drift(law, T)[0] / T

    def test_logistic_fixed_point(self):
        law = GrowthLaw("logistic", 1.636, 0.002)
        assert self.f(law, 818.0) == pytest.approx(0.0, abs=1e-12)

    def test_logistic_strictly_decreasing_with_sign_change(self):
        law = GrowthLaw("logistic", 1.0, 0.2)
        values = [self.f(law, T) for T in (1.0, 2.0, 4.999, 5.0, 5.001, 10.0)]
        assert all(x > y for x, y in zip(values, values[1:]))
        assert self.f(law, 4.999) > 0 > self.f(law, 5.001)

    def test_gompertz_sign_change_at_exp_a_over_b(self):
        law = GrowthLaw("gompertz", 1.0, 0.5)
        star = math.exp(1.0 / 0.5)
        assert self.f(law, star) == pytest.approx(0.0, abs=1e-12)
        assert self.f(law, star * 0.99) > 0 > self.f(law, star * 1.01)
        assert self.f(law, 1.0) > 0  # always grows from one cell

    def test_pure_and_deterministic(self):
        law = GrowthLaw("bertalanffy", 1.3, 0.7)
        assert drift(law, 7.7) == drift(law, 7.7)


class TestKuznetsov:
    """The drift of the seven-channel tumour-effector table."""

    def test_empty_system_only_influx(self):
        params = scenario_preset(1)
        assert drift(params, 0.0, 0.0) == (0.0, params.s)

    def test_tumour_free_equilibrium(self):
        params = scenario_preset(1)
        e_star = params.s / params.d  # 0.318 / 0.1908 = 5/3
        assert e_star == pytest.approx(5.0 / 3.0, rel=1e-12)
        dT, dE = drift(params, 0.0, e_star)
        assert dT == 0.0
        assert dE == pytest.approx(0.0, abs=1e-15)

    def test_scenario1_hand_substitution(self):
        # recomputed by direct substitution of T=1, E=1 into the rate forms
        dT, dE = drift(scenario_preset(1), 1.0, 1.0)
        assert dT == pytest.approx(0.632728, rel=1e-9)
        assert dE == pytest.approx(0.17746423312883436, rel=1e-9)

    def test_reduces_to_logistic_growth(self):
        # without effectors, dT/dt collapses to a*T*(1 - b*T), i.e. the
        # logistic law with a' = a and b' = a*b, and dE/dt to the influx
        for params in map(scenario_preset, (1, 2, 3, 4)):
            law = GrowthLaw("logistic", params.a, params.a * params.b)
            for T in (0.5, 1.0, 40.0, 99.9, 818.0):
                dT, dE = drift(params, T, 0.0)
                assert dT == pytest.approx(drift(law, T)[0], rel=1e-12)
                assert dE == params.s

    def test_rejects_negative_params(self):
        with pytest.raises(ModelDomainError):
            KuznetsovParams(a=1.0, b=-0.1, g=1.0, m=0.0, n=0.0, p=0.0, d=0.0, s=0.0)
        with pytest.raises(ModelDomainError):
            KuznetsovParams(a=1.0, b=0.1, g=0.0, m=0.0, n=0.0, p=0.0, d=0.0, s=0.0)


BIG = 10**400  # an int too large for a double, which math.isfinite cannot take
LOGISTIC = GrowthLaw("logistic", 1.0, 0.2)


@pytest.mark.parametrize("build, message", [
    (lambda: GrowthLaw("logistic", BIG, 0.5), "requires finite a > 0 and b > 0"),
    (lambda: GrowthLaw("gompertz", 1.0, BIG), "requires finite a > 0 and b > 0"),
    (lambda: KuznetsovParams(**{**dataclasses.asdict(scenario_preset(1)), "s": BIG}), "s must be finite"),
    (lambda: PopulationState(BIG), "T must be finite"),
    (lambda: PopulationState(1.0, BIG), "E must be finite"),
    (lambda: experiment_one_law("logistic", BIG), "ratio c must be > 1"),
    (lambda: make_grid(BIG, 1.0), "needs a finite t_end"),
    (lambda: integrate(LOGISTIC, PopulationState(1.0), dt=0.1, t_end=BIG, grid=[0.0]), "t_end must be finite"),
    (lambda: integrate(LOGISTIC, PopulationState(1.0), dt=BIG, t_end=1.0, grid=[0.0]), "dt must be finite"),
    (lambda: EnsembleSpec(LOGISTIC.channels, PopulationState(1), t_end=BIG), "t_end must be finite"),
    (lambda: EnsembleSpec(LOGISTIC.channels, PopulationState(1), t_end=1.0, dt=BIG), "dt must be finite"),
], ids=["growth-a", "growth-b", "kuznetsov", "state-T", "state-E", "ratio", "grid", "rk4-t-end", "rk4-dt",
        "ssa-t-end", "tau-dt"])  # ChannelSet's cases are in test_ssa.py
def test_an_int_too_large_for_a_double_is_refused_as_not_finite(build, message):
    with pytest.raises(ConfigError, match=message):
        build()


class TestRk4DerivativesMatchTheTable:
    """Each backend's hand-written RK4 derivatives are the table's drift: one
    kernel step (dt = t_end = h, grid (0, h)) equals one RK4 step of it."""

    H = 0.01
    GRID = np.array([0.0, H])

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("law", LAWS)
    def test_rk4_growth(self, backend, law):
        law = LAWS[law]
        alpha, beta = law.exponents or (0.0, 0.0)  # Gompertz, kernel kind 1, has none
        for T0 in (0.0, 1.0, 3.7, 818.0, 5000.0):
            rows, status = BACKENDS[backend].rk4_growth(
                int(law.exponents is None), law.a, law.b, alpha, beta, T0, self.H, self.H, self.GRID, 1e300)
            rows = np.asarray(rows)
            assert status == 0 and list(rows[:, 0]) == [0.0, self.H]
            assert rows[1, 1] == pytest.approx(drift_rk4_step(law, T0, 0.0, self.H)[0], rel=1e-12)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("scenario", [1, 2, 3, 4])
    def test_rk4_kuznetsov(self, backend, scenario):
        p = scenario_preset(scenario)
        for T0, E0 in ((0.0, 0.0), (0.0, 2.0), (100.0, 10.0), (5.0, 30.0), (700.0, 0.5)):
            rows, status = BACKENDS[backend].rk4_kuznetsov(
                p.a, p.b, p.g, p.m, p.n, p.p, p.d, p.s, T0, E0, self.H, self.H, self.GRID, 1e300)
            rows = np.asarray(rows)
            assert status == 0 and list(rows[:, 0]) == [0.0, self.H]
            T1, E1 = drift_rk4_step(p, T0, E0, self.H)
            assert rows[1, 1] == pytest.approx(T1, rel=1e-12)
            assert rows[1, 2] == pytest.approx(E1, rel=1e-12)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kernel", ["ssa", "tau_leap", "ssa_frozen"])
def test_unknown_rate_law_code_raises_value_error(backend, kernel):
    args = {
        "ssa": (1, 0, 1.0, 1, 0, 0, 1e12, 10**6),
        "tau_leap": (1, 0, 1.0, 0.1, 1, 0, 0, 1e12),
        "ssa_frozen": (1, 1.0, 1, 0, 1e12, 10**6),
    }[kernel]
    for codes in ([0, 9], [-1]):
        table = tuple((code, 2.0, 0.0, 0.0, 1, 0) for code in codes)
        with pytest.raises(ValueError, match="unknown rate-law code"):
            getattr(BACKENDS[backend], kernel)(table, *args)


class TestScenarioPresets:
    def test_scenario_1(self):
        p = scenario_preset(1)
        assert (p.b, p.d, p.s) == (0.002, 0.1908, 0.318)

    def test_scenario_4_has_no_treatment(self):
        p = scenario_preset(4)
        assert (p.b, p.d, p.s) == (0.002, 0.3743, 0.0)

    def test_shared_constants(self):
        for i in (1, 2, 3, 4):
            p = scenario_preset(i)
            assert (p.a, p.g, p.m, p.n, p.p) == (1.636, 20.19, 0.00311, 1.0, 1.131)

    def test_scenario_2_and_3(self):
        assert (scenario_preset(2).b, scenario_preset(2).d, scenario_preset(2).s) == (0.004, 2.0, 0.318)
        assert (scenario_preset(3).b, scenario_preset(3).d, scenario_preset(3).s) == (0.002, 0.3743, 0.1181)

    def test_a_preset_is_its_constants(self):
        assert scenario_preset(4) == KuznetsovParams(a=1.636, b=0.002, g=20.19, m=0.00311, n=1.0, p=1.131,
                                                     d=0.3743, s=0.0)

    @pytest.mark.parametrize("bad", [0, 5, -1, "one"])
    def test_unknown_scenario(self, bad):
        with pytest.raises(UnknownScenarioError):
            scenario_preset(bad)
        with pytest.raises(ConfigError):  # so the CLI exits 2 on it
            scenario_preset(bad)


class TestExperimentOneLaw:
    def test_c_five_gives_the_worked_pair(self):
        law = experiment_one_law("logistic", 5.0)
        assert law.a == 1.0 and law.b == 0.2

    def test_c_smallest_ratio(self):
        law = experiment_one_law("logistic", 1.25)
        assert law.a == 1.0 and law.b == 0.8

    @pytest.mark.parametrize("c", PAPER_RATIOS)
    def test_all_swept_ratios(self, c):
        law = experiment_one_law("bertalanffy", c)
        assert law.a / law.b == pytest.approx(c, rel=1e-12)

    @pytest.mark.parametrize("c", [1.0, 0.5, -3.0])
    def test_rejects_non_growing_ratio(self, c):
        with pytest.raises(ModelDomainError):
            experiment_one_law("logistic", c)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ModelDomainError):
            experiment_one_law("exponential", 5.0)


class TestPopulationState:
    def test_rejects_negative(self):
        with pytest.raises(ModelDomainError):
            PopulationState(-1.0)
        with pytest.raises(ModelDomainError):
            PopulationState(1.0, -0.5)

    def test_rejects_non_finite(self):
        with pytest.raises(ModelDomainError):
            PopulationState(math.inf)
