"""Acceptance suite: the package's exit criteria, one timed check each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines.  Runtime budgets assume the compiled kernel backend but hold
for the pure-Python fallback as well.
"""

import itertools
import json
import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from dualsim.cli import cmd_compare, parse_config
from dualsim.errors import PopulationCapError
from dualsim.models import GrowthLaw, PopulationState, scenario_preset
from dualsim.sds import integrate
from dualsim.ssa import (
    EnsembleSpec,
    Floors,
    RatePolicy,
    growth_channels,
    kuznetsov_channels,
    run_ensemble,
    simulate_exact,
    simulate_tau_leap,
)
from dualsim.stats import EXACT_LIMIT, compare, make_grid, wilcoxon_ranksum
from dualsim.trajectory import Termination
from reference import closed_form, closed_form_log, linear_bd_channels


@contextmanager
def criterion(number: int, label: str, budget_s: float):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - t0
        in_budget = elapsed < budget_s
        status = "PASS" if (ok and in_budget) else "FAIL"
        print(f"criterion {number} [{label}]: {status} ({elapsed:.2f}s, budget {budget_s:g}s)")
    assert in_budget, f"criterion {number} exceeded its {budget_s:g}s budget ({elapsed:.2f}s)"


def test_criterion_1_sds_logistic_accuracy():
    with criterion(1, "SDS logistic accuracy + 4th-order convergence", 1.0):
        law = GrowthLaw("logistic", 1.0, 0.2)

        def max_rel_err(dt, spacing=0.1):
            traj = integrate(law, PopulationState(1.0),
                             dt=dt, t_end=10.0, grid=make_grid(10.0, spacing))
            return max(
                abs(T - closed_form(law, 1.0, t)) / closed_form(law, 1.0, t)
                for t, T in zip(traj.times, traj.states[:, 0])
            )

        assert max_rel_err(0.001) < 1e-6
        # the order ratio is measured where truncation dominates roundoff
        # (at dt = 0.001 the error already sits at the 1e-14 roundoff floor)
        assert max_rel_err(0.1, 0.5) / max_rel_err(0.05, 0.5) >= 12.0


def test_criterion_2_gompertz_blowup_scale():
    with criterion(2, "Gompertz exceeds 1e64 cells before t = 110", 1.0):
        law = GrowthLaw("gompertz", 1.636, 0.002)
        traj = integrate(law, PopulationState(1.0),
                         dt=0.001, t_end=110.0, grid=make_grid(110.0, 1.0))
        assert traj.termination is Termination.COMPLETED
        T = traj.states[:, 0]
        crossed = np.where(T > 1e64)[0]
        assert crossed.size > 0
        assert traj.times[crossed[0]] < 110.0
        # log-scale agreement with ln T(t) = (a/b) (1 - e^(-b t))
        for i in range(10, len(T), 10):
            ln_num = math.log(T[i])
            ln_exact = closed_form_log(law, 1.0, traj.times[i])
            assert abs(ln_num - ln_exact) / ln_exact < 0.01


def test_criterion_3_abs_mean_field_consistency():
    with criterion(3, "exact-SSA ensemble mean vs branching-process mean", 30.0):
        cs = linear_bd_channels(2.0, 1.0)
        grid = make_grid(1.0, 0.25)
        ens = run_ensemble(
            EnsembleSpec(channels=cs, initial=PopulationState(100), t_end=1.0, grid=grid),
            reps=1000, base_seed=11,
        )
        values = ens.values[:, :, 0]
        for j, t in ((1, 0.25), (2, 0.5), (4, 1.0)):
            sample = values[:, j]
            expected = 100.0 * math.exp((2.0 - 1.0) * t)
            se = sample.std(ddof=1) / math.sqrt(len(sample))
            assert abs(sample.mean() - expected) <= 3 * se, f"t={t}"


def test_criterion_4_logistic_extinction_effect():
    with criterion(4, "frozen-at-birth extinction exceeds live (c = 1.25)", 30.0):
        law = GrowthLaw("logistic", 1.0, 0.8)
        cs = growth_channels(law)
        reps, base_seed, t_end = 500, 42, 20.0
        grid = np.array([0.0, 5.0, t_end])

        def ensemble(policy):
            return run_ensemble(
                EnsembleSpec(channels=cs, initial=PopulationState(1), t_end=t_end, policy=policy, grid=grid),
                reps=reps, base_seed=base_seed,
            )

        live, frozen = ensemble(RatePolicy.LIVE), ensemble(RatePolicy.FROZEN_AT_BIRTH)

        def extinct_by_5(ens):
            return np.count_nonzero(ens.values[:, 1, 0] == 0) / len(ens)

        f_live, f_frozen = extinct_by_5(live), extinct_by_5(frozen)
        assert f_frozen > f_live, (f_frozen, f_live)

        frozen_mean_20 = np.mean(frozen.values[:, 2, 0])
        sds = integrate(law, PopulationState(1.0),
                        dt=0.001, t_end=t_end, grid=make_grid(t_end, 1.0))
        sds_20 = sds.states[-1, 0]
        assert frozen_mean_20 < 0.5 * sds_20, (frozen_mean_20, sds_20)


def test_criterion_5_discrete_extinction_divergence():
    with criterion(5, "scenario 4: SDS resurges, discrete runs die out", 60.0):
        params = scenario_preset(4)
        sds = integrate(params, PopulationState(100.0, 10.0),
                        dt=0.001, t_end=100.0, grid=make_grid(100.0, 0.1))
        T = sds.states[:, 0]
        tmin = T.min()
        assert tmin > 0.0
        imin = int(np.argmin(T))
        assert T[imin:].max() >= 2.0 * tmin

        # absorption is a per-event property: replicate seeds 1..50, no grid
        spec = EnsembleSpec(channels=kuznetsov_channels(params), initial=PopulationState(100, 10), t_end=100.0)
        reached_and_stayed = 0
        for seed in range(1, 51):
            rep = simulate_exact(spec, seed)
            vals = rep.states[:, 0]
            zeros = np.where(vals == 0)[0]
            if zeros.size and np.all(vals[zeros[0]:] == 0):
                reached_and_stayed += 1
        assert reached_and_stayed >= 45, reached_and_stayed  # >= 90% of 50


def test_criterion_6_fix_reconciliation():
    with criterion(6, "tumour floor turns h=1 divergence into larger p", 60.0):
        params = scenario_preset(4)
        sds = integrate(params, PopulationState(100.0, 10.0),
                        dt=0.001, t_end=100.0, grid=make_grid(100.0, 0.1))
        grid = make_grid(100.0, 1.0)
        cs = kuznetsov_channels(params)

        def tumour_result(floors):
            ens = run_ensemble(
                EnsembleSpec(channels=cs, initial=PopulationState(100, 10), floors=floors, t_end=100.0,
                             grid=grid),
                reps=50, base_seed=1,
            )
            return compare(sds, ens, alpha=0.05).wilcoxon["tumour"]

        no_fix = tumour_result(Floors(0, 0))
        fix1 = tumour_result(Floors(1, 0))
        assert no_fix.h == 1
        assert fix1.p > no_fix.p, (fix1.p, no_fix.p)


def test_criterion_7_wilcoxon_exactness():
    with criterion(7, "exact rank-sum p matches brute-force enumeration", 10.0):
        assert wilcoxon_ranksum([1, 2, 3], [4, 5, 6]).p == 0.1

        def brute_force(x, y):
            pooled = list(x) + list(y)
            n1, n = len(x), len(x) + len(y)
            mu = n1 * (n - n1) / 2.0

            def u_stat(xs, ys):
                return sum(1.0 if xi > yj else 0.5 if xi == yj else 0.0
                           for xi in xs for yj in ys)

            obs = abs(u_stat(x, y) - mu)
            count = total = 0
            for idx in itertools.combinations(range(n), n1):
                chosen = set(idx)
                xs = [pooled[i] for i in idx]
                ys = [pooled[i] for i in range(n) if i not in chosen]
                total += 1
                if abs(u_stat(xs, ys) - mu) >= obs:
                    count += 1
            return count / total

        rng = random.Random(2718)
        for _ in range(200):
            n1 = rng.randint(1, 7)
            n2 = rng.randint(1, 8 - n1)
            pool = rng.sample(range(100_000), n1 + n2)  # tie-free
            x = [float(v) for v in pool[:n1]]
            y = [float(v) for v in pool[n1:]]
            assert n1 + n2 <= EXACT_LIMIT  # the size rule takes the exact p
            assert wilcoxon_ranksum(x, y).p == brute_force(x, y)


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "rerunning a manifest is byte-identical", 60.0):
        out = tmp_path / "first"
        spec = parse_config(json.dumps({
            "model": "kuznetsov", "scenario": 1, "t_end": 30.0, "reps": 10,
            "seed": 5, "out": str(out),
        }))
        paths = cmd_compare(spec)
        first = {p.name: p.read_bytes() for p in paths}
        assert {"report.json", "comparison.csv", "comparison.svg", "manifest.json"} == set(first)

        # identical spec, then again from the emitted manifest itself
        second = {p.name: p.read_bytes() for p in cmd_compare(spec)}
        assert first == second
        respec = parse_config((out / "manifest.json").read_text(encoding="utf-8"))
        third = {p.name: p.read_bytes() for p in cmd_compare(respec)}
        assert first == third


def test_criterion_9_blowup_safety():
    with criterion(9, "blow-up laws: flagged SDS stop, hard ABS cap", 5.0):
        law = GrowthLaw("bertalanffy", 1.636, 0.002)
        traj = integrate(law, PopulationState(1.0),
                         dt=0.001, t_end=5.0, grid=make_grid(5.0, 0.1))
        assert traj.termination is Termination.BLOWUP
        assert np.all(np.isfinite(traj.states))

        with pytest.raises(PopulationCapError):
            simulate_tau_leap(EnsembleSpec(growth_channels(law), PopulationState(1), t_end=100.0, dt=0.001),
                              seed=7)
        with pytest.raises(PopulationCapError):
            simulate_tau_leap(EnsembleSpec(growth_channels(GrowthLaw("gompertz", 1.636, 0.002)),
                                           PopulationState(1), t_end=100.0, dt=0.001), seed=7)
