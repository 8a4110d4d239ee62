"""Deterministic engine: accuracy, guards, and the known curve shapes."""

import math

import numpy as np
import pytest

from dualsim.errors import ConfigError, ModelDomainError
from dualsim.models import GrowthLaw, PopulationState, scenario_preset
from dualsim.sds import integrate
from dualsim.stats import make_grid
from dualsim.trajectory import Paradigm, Termination
from reference import closed_form, closed_form_log


def max_rel_error(traj, law, T0):
    errs = []
    for t, T in zip(traj.times, traj.states[:, 0]):
        exact = closed_form(law, T0, t)
        errs.append(abs(T - exact) / exact)
    return max(errs)


class TestClosedForm:
    def test_identity_at_t0(self):
        assert closed_form(GrowthLaw("logistic", 1.0, 0.2), 1.0, 0.0) == pytest.approx(1.0, rel=1e-15)
        assert closed_form(GrowthLaw("gompertz", 1.0, 0.2), 1.0, 0.0) == pytest.approx(1.0, rel=1e-15)

    def test_logistic_reaches_carrying_capacity(self):
        assert closed_form(GrowthLaw("logistic", 1.0, 0.2), 1.0, 200.0) == pytest.approx(5.0, abs=1e-9)

    def test_gompertz_asymptote(self):
        law = GrowthLaw("gompertz", 1.0, 0.5)
        assert closed_form(law, 1.0, 1e6) == pytest.approx(math.exp(2.0), rel=1e-9)
        assert closed_form_log(law, 1.0, 1e6) == pytest.approx(2.0, rel=1e-9)

    def test_gompertz_log_form_survives_overflow(self):
        law = GrowthLaw("gompertz", 1.636, 0.002)
        assert closed_form_log(law, 1.0, 1e6) == pytest.approx(818.0, rel=1e-9)
        assert closed_form(law, 1.0, 1e6) == math.inf  # linear scale overflows

    def test_unsupported_law(self):
        with pytest.raises(ModelDomainError):
            closed_form(GrowthLaw("bertalanffy", 1.0, 0.5), 1.0, 1.0)


class TestLogisticAccuracy:
    def test_matches_closed_form_to_1e6(self):
        law = GrowthLaw("logistic", 1.0, 0.2)
        traj = integrate(law, PopulationState(1.0),
                         dt=0.001, t_end=10.0, grid=make_grid(10.0, 0.1))
        assert max_rel_error(traj, law, 1.0) < 1e-6

    def test_fourth_order_convergence(self):
        # ratio measured where truncation error dominates roundoff
        law = GrowthLaw("logistic", 1.0, 0.2)
        errs = {}
        for dt in (0.1, 0.05):
            traj = integrate(law, PopulationState(1.0),
                             dt=dt, t_end=10.0, grid=make_grid(10.0, 0.5))
            errs[dt] = max_rel_error(traj, law, 1.0)
        assert errs[0.1] / errs[0.05] >= 12.0

    def test_fixed_point_is_constant(self):
        law = GrowthLaw("logistic", 1.0, 0.2)
        traj = integrate(law, PopulationState(5.0),
                         dt=0.01, t_end=5.0, grid=make_grid(5.0, 0.5))
        assert np.all(traj.states[:, 0] == 5.0)

    def test_monotone_growth_below_capacity(self):
        law = GrowthLaw("logistic", 1.0, 0.2)
        traj = integrate(law, PopulationState(1.0),
                         dt=0.001, t_end=30.0, grid=make_grid(30.0, 0.1))
        T = traj.states[:, 0]
        assert np.all(np.diff(T) > 0)
        assert np.all(T <= 5.0 + 1e-9)


class TestGompertzBlowupScale:
    def test_log_magnitude_matches_closed_form(self):
        law = GrowthLaw("gompertz", 1.636, 0.002)
        traj = integrate(law, PopulationState(1.0),
                         dt=0.001, t_end=100.0, grid=make_grid(100.0, 1.0))
        ln_end = math.log(traj.states[-1, 0])
        assert ln_end == pytest.approx(148.27824398221088, rel=1e-4)
        assert traj.states[-1, 0] > 1e64

    def test_gompertz_from_zero_stays_at_zero(self):
        # T = 0 is the law's fixed point, as the channel table's rates are 0 there
        traj = integrate(GrowthLaw("gompertz", 1.0, 0.5), PopulationState(0.0), dt=0.001, t_end=100.0,
                         grid=make_grid(100.0))
        assert traj.termination is Termination.COMPLETED
        assert traj.times[-1] == 100.0 and np.all(traj.states == 0.0)


class TestBlowupGuard:
    def test_von_bertalanffy_flags_blowup(self):
        law = GrowthLaw("bertalanffy", 1.636, 0.002)
        traj = integrate(law, PopulationState(1.0),
                         dt=0.001, t_end=10.0, grid=make_grid(10.0, 0.1))
        assert traj.termination is Termination.BLOWUP
        assert traj.end_time < 10.0
        assert np.all(np.isfinite(traj.states))

    def test_gompertz_long_horizon_blows_up_flagged(self):
        # the asymptote e^(a/b) = e^818 is far beyond double range
        law = GrowthLaw("gompertz", 1.636, 0.002)
        traj = integrate(law, PopulationState(1.0),
                         dt=0.01, t_end=2000.0, grid=make_grid(2000.0, 10.0))
        assert traj.termination is Termination.BLOWUP
        assert np.all(np.isfinite(traj.states))


class TestScenarios:
    @pytest.mark.parametrize("scenario", [1, 2, 3, 4])
    def test_positivity_at_coarse_step(self, scenario):
        traj = integrate(
            scenario_preset(scenario),
            PopulationState(100.0, 10.0),
            dt=0.01, t_end=100.0, grid=make_grid(100.0, 0.5),
        )
        assert np.all(traj.states >= 0)
        assert traj.termination is Termination.COMPLETED

    def test_scenario4_trough_and_resurgence(self):
        traj = integrate(
            scenario_preset(4),
            PopulationState(100.0, 10.0),
            dt=0.001, t_end=100.0, grid=make_grid(100.0, 0.1),
        )
        T = traj.states[:, 0]
        tmin = T.min()
        assert tmin > 0.0
        imin = int(np.argmin(T))
        assert T[imin:].max() >= 2.0 * tmin

    def test_scenario1_decays_towards_zero_but_stays_positive(self):
        traj = integrate(
            scenario_preset(1),
            PopulationState(100.0, 10.0),
            dt=0.001, t_end=100.0, grid=make_grid(100.0, 0.1),
        )
        T = traj.states[:, 0]
        assert T[-1] < 1e-6
        assert np.all(T > 0)
        # effectors settle at the influx/apoptosis balance s/d
        assert traj.states[-1, 1] == pytest.approx(5.0 / 3.0, rel=1e-3)


class TestContracts:
    def test_determinism(self):
        law = scenario_preset(3)
        t1 = integrate(law, PopulationState(100.0, 10.0), dt=0.005, t_end=20.0, grid=make_grid(20.0, 0.5))
        t2 = integrate(law, PopulationState(100.0, 10.0), dt=0.005, t_end=20.0, grid=make_grid(20.0, 0.5))
        assert np.array_equal(t1.times, t2.times)
        assert np.array_equal(t1.states, t2.states)

    def test_trajectory_metadata(self):
        traj = integrate(GrowthLaw("logistic", 1.0, 0.2), PopulationState(1.0),
                         dt=0.01, t_end=1.0, grid=make_grid(1.0, 0.1))
        assert traj.paradigm is Paradigm.SDS
        assert traj.species == ("tumour",)
        assert traj.times[0] == 0.0
        assert traj.states[0, 0] == 1.0

    def test_grid_lands_exactly_on_t_end(self):
        traj = integrate(GrowthLaw("logistic", 1.0, 0.2), PopulationState(1.0),
                         dt=0.001, t_end=10.0, grid=make_grid(10.0, 0.1))
        assert traj.times[-1] == 10.0
        assert len(traj.times) == 101

    @pytest.mark.parametrize("bad", [
        dict(dt=0.0),
        dict(dt=-0.1),
        dict(dt=None),  # only an exact stochastic run has no step
        dict(t_end=-1.0, dt=0.001),
        dict(dt=200.0, t_end=100.0),
        dict(dt=1e-10, t_end=1e10),  # 1e20 steps, past the step budget
    ])
    def test_config_validation(self, bad):
        with pytest.raises(ConfigError):
            integrate(GrowthLaw("logistic", 1.0, 0.2), PopulationState(1.0), **{"t_end": 100.0, **bad},
                      grid=make_grid(1.0))

    def test_an_unsupported_model_type(self):
        with pytest.raises(ConfigError, match="^unsupported model type object$"):
            integrate(object(), PopulationState(1.0), dt=0.1, t_end=1.0, grid=make_grid(1.0))

    def test_one_equation_rejects_effector_state(self):
        with pytest.raises(ConfigError):
            integrate(GrowthLaw("logistic", 1.0, 0.2), PopulationState(1.0, 1.0), dt=0.001, t_end=100.0,
                      grid=make_grid(100.0))

    def test_kuznetsov_requires_effector_state(self):
        with pytest.raises(ConfigError):
            integrate(scenario_preset(1), PopulationState(1.0), dt=0.001, t_end=100.0, grid=make_grid(100.0))
