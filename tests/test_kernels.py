"""Backend consistency: the compiled and pure kernels honor one contract."""

import ctypes
import functools
import hashlib
import math
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from dualsim import kernels
from dualsim.errors import EngineError, PopulationCapError
from dualsim.kernels import _pykernels as pure
from dualsim.models import PopulationState, experiment_one_law, scenario_preset
from dualsim.models import ChannelSet
from dualsim.ssa import DEFAULT_MAX_EVENTS, EnsembleSpec, simulate_exact
from dualsim.stats import make_grid
from reference import assert_same_text, first_seeds, reference_rows

try:
    from dualsim.kernels import _ckernels as compiled
except ImportError:
    compiled = None

needs_compiled = pytest.mark.skipif(compiled is None, reason="compiled backend not built")

# the pure backend and the active one (the compiled backend when it is built)
BACKENDS = {mod.__name__.rpartition(".")[2]: mod for mod in (pure, kernels.backend)}

KERNELS = ("rk4_growth", "rk4_kuznetsov", "ssa", "ssa_frozen", "tau_leap")


def birth_death(a, b, birth_e=1.0, death_e=1.0):
    """The table of birth a*T**birth_e and death b*T**death_e."""
    return ((1, a, birth_e, 0.0, 1, 0), (1, b, death_e, 0.0, -1, 0))


# scenario-4 channel table: birth aT, intrinsic death abT^2, kill nTE,
# recruitment pTE/(g+T), interaction death mTE, apoptosis dE, influx s
S4_TABLE = (
    (1, 1.636, 1.0, 0.0, 1, 0),
    (1, 1.636 * 0.002, 2.0, 0.0, -1, 0),
    (4, 1.0, 0.0, 0.0, -1, 0),
    (5, 1.131, 0.0, 20.19, 0, 1),
    (4, 0.00311, 0.0, 0.0, 0, -1),
    (3, 0.3743, 0.0, 0.0, 0, -1),
    (0, 0.0, 0.0, 0.0, 0, 1),
)
S2_TABLE = scenario_preset(2).channels.table
ONE_SPECIES = birth_death(1.0, 0.05, death_e=2.0)
DEATH_ONLY = ((1, 1.0, 1.0, 0.0, -1, 0),)


def columns(result):
    """A kernel's ``(rows, status)`` as its t, T and E columns, then status."""
    rows, status = result
    view = np.asarray(rows)
    return view[:, 0], view[:, 1], view[:, 2], status


class TestStochasticAgreement:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("birth_e, t_end, T0", [(1.0, 15.0, 5), (2.0, 1.0, 5), (4 / 3, 1.0, 5), (1.0, 15.0, 0)])
    def test_frozen_equals_live_within_each_backend(self, backend, birth_e, t_end, T0):
        # a death rate linear in T is the same per agent whenever it is frozen,
        # so the two kernels draw alike for every birth law; ssa_frozen drops no
        # row, and an extinct population ends both runs alike
        mod = BACKENDS[backend]
        table = birth_death(0.7, 0.9, birth_e=birth_e)
        statuses = set()
        for seed in (0, 1, 4, 4242):
            live = mod.ssa(table, T0, 0, t_end, seed, 0, 0, 1e12, 20_000)
            frozen = mod.ssa_frozen(table, T0, t_end, seed, 0, 1e12, 20_000)
            assert bytes(live[0]) == bytes(frozen[0]) and live[1] == frozen[1]
            statuses.add(live[1])
        assert (kernels.ST_EXTINCT in statuses) == (t_end == 15.0)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_tau_leap_poisson_means(self, backend):
        # a single constant channel: events by t are Poisson(c * t)
        base = 1_000 if backend == "_pykernels" else 2_000
        finals = []
        for i in range(300):
            _, Ts, _, st = columns(BACKENDS[backend].tau_leap(((0, 3.0, 0.0, 0.0, 1, 0),),
                                                              0, 0, 2.0, 0.01, base + i, 0, 0, 1e12))
            assert st == 0
            finals.append(Ts[-1])
        assert np.mean(finals) == pytest.approx(6.0, abs=0.5)


@pytest.mark.parametrize("backend", BACKENDS)
class TestStream:
    """The stream for seed 7, pinned exactly on each backend: splitmix64-seeded
    SFC64, the ziggurat's tables and the kernels' arithmetic may not drift."""

    def test_ssa(self, backend):
        times, Ts, Es, status = columns(BACKENDS[backend].ssa(S4_TABLE, 100, 10, 100.0, 7, 1, 0, 1e12, 10**8))
        assert status == 0 and len(times) == len(Ts) == len(Es) == 142911
        assert list(times[:5]) == [0.0, 0.0021596952379729223, 0.002209875119842422,
                                   0.0030041921771219045, 0.003040649344672342]
        assert list(Ts[:5]) == [100.0, 99.0, 98.0, 97.0, 96.0]
        assert list(Es[:5]) == [10.0, 10.0, 10.0, 10.0, 10.0]

    def test_ssa_on_a_grid(self, backend):
        """The grid-mode run, which steps without the GIL on the compiled
        backend, as the CLI's ensembles run it."""
        rows, status = BACKENDS[backend].ssa(S4_TABLE, 100, 10, 100.0, 7, 1, 0, 1e12, 10**8, np.arange(101.0))
        assert status == 0 and len(rows) == 101
        assert hashlib.sha256(np.asarray(rows).tobytes()).hexdigest() == \
            "f6019553cb51adf92e9cdfa265f70642a2bfc9b718ef7af01db0f501b2b2a299"

    def test_ssa_frozen(self, backend):
        times, Ts, _, status = columns(BACKENDS[backend].ssa_frozen(birth_death(0.7, 0.9), 5, 15.0, 7, 0,
                                                                    1e12, 10**7))
        assert status == 2 and len(times) == len(Ts) == 11
        assert list(times[:5]) == [0.0, 0.32735124352149164, 0.33676192315446907,
                                   0.4547101661277252, 0.4614068887442888]
        assert list(Ts[:5]) == [5.0, 4.0, 5.0, 4.0, 3.0]

    def test_tau_leap(self, backend):
        times, Ts, Es, status = columns(BACKENDS[backend].tau_leap(S4_TABLE, 100, 10, 100.0, 0.01, 7, 1, 0,
                                                                   1e12))
        assert status == 0 and len(times) == len(Ts) == len(Es) == 10001
        assert list(times[:5]) == [0.0, 0.01, 0.02, 0.03, 0.04]
        assert list(Ts[:5]) == [100.0, 96.0, 87.0, 75.0, 70.0]
        assert list(Es[:5]) == [10.0, 9.0, 9.0, 9.0, 10.0]


def splitmix64(seed, n):
    """``n`` outputs of splitmix64 from ``seed`` (Steele, Lea & Flood 2014)."""
    mask = 2**64 - 1
    out = []
    for _ in range(n):
        seed = (seed + 0x9E3779B97F4A7C15) & mask
        z = ((seed ^ (seed >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def test_splitmix64_matches_its_reference_output():
    assert splitmix64(0, 1) == [0xE220A8397B1DCDAF]


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1, 2**70, -7])
def test_draws_are_numpy_sfc64_words_from_the_splitmix64_state(seed):
    """The pure ``_rng`` is numpy's SFC64 raw stream from four splitmix64
    words of the seed's low 64 bits, each word w drawn as the uniform
    (w >> 11) * 2**-53 (the compiled ``rng_seed``, ``rng_next`` and
    ``rng_uniform``) or, for the exact kernels, as that uniform and the
    ziggurat's first attempt of w.  One ``random_raw`` call checks draws
    that cross every boundary of its blocks, which grow 64, 256, 1024, then
    4096 words."""
    bits = np.random.SFC64()
    bits.state = {"bit_generator": "SFC64",
                  "state": {"state": np.array(splitmix64(seed & (2**64 - 1), 4), dtype=np.uint64)},
                  "has_uint32": 0, "uinteger": 0}
    n = 64 + 256 + 1024 + 2 * 4096 + 1
    words = [int(w) for w in bits.random_raw(n)]
    draw, pair = pure._rng(seed, False), pure._rng(seed, True)
    assert [draw() for _ in range(n)] == [(w >> 11) * 2.0**-53 for w in words]
    assert [pair() for _ in range(n)] == [((w >> 11) * 2.0**-53, (w >> 11) * pure._WE[w & 255]
                                           if w >> 11 < pure._KE[w & 255] else -1.0 - (w & 255)) for w in words]


# (table, T0, E0, floors, dying) of runs to t = 100 in which a species reaches 0, ``dying`` naming the
# columns (1: T, 2: E) at 0 in a run's first row at 0; ``absorbing_seed`` finds each run's seed
ABSORPTION_CASES = {
    # the tumour dies out, then the effectors: the table loses six rows, then the last
    "scenario-4": (S4_TABLE, 100, 10, (0, 0), (1,)),
    # the effectors die out and five of the seven rows leave
    "scenario-4-tumour-floor": (S4_TABLE, 100, 10, (1, 0), (2,)),
    "no-effectors": (S4_TABLE, 100, 0, (1, 0), (2,)),
    # the tumour dies, while the effector influx keeps raising E from 0
    "scenario-2": (S2_TABLE, 100, 10, (0, 0), (1,)),
    # an influx row of c > 0 raises E again, so nothing may leave
    "revived": ((*S4_TABLE[:-1], (kernels.R_CONST, 0.05, 0.0, 0.0, 0, 1)), 100, 10, (1, 0), (2,)),
    # one event takes both species to 0 together
    "both-at-once": (((kernels.R_MASS_TE, 1.0, 0.0, 0.0, -1, -1), (kernels.R_CONST, 0.0, 0.0, 0.0, 1, 1)),
                     1, 1, (0, 0), (1, 2)),
}


@functools.cache
def absorbing_seed(case, kernel):
    """The first seed from 1, below 50, whose ``kernel`` ("ssa" or "tau_leap")
    run of ``ABSORPTION_CASES[case]`` per event first reaches 0 in the case's
    ``dying`` columns."""
    table, T0, E0, floors, dying = ABSORPTION_CASES[case]

    def dies_first(seed):
        rows, _ = (kernels.ssa(table, T0, E0, 100.0, seed, *floors, 1e12, 10**8) if kernel == "ssa"
                   else kernels.tau_leap(table, T0, E0, 100.0, 0.01, seed, *floors, 1e12))
        rows = np.asarray(rows)
        at_zero = rows[(rows[:, 1] == 0.0) | (rows[:, 2] == 0.0)]
        return len(at_zero) > 0 and tuple(c for c in (1, 2) if at_zero[0, c] == 0.0) == dying
    return first_seeds(dies_first, 1, bound=49)[0]


BIRTH_DEATH = birth_death(2.0, 0.5)
# (kernel, arguments, status, rows) of runs that end on an event or leap past the cap (status 3), whose rows stop
# at the last state within it, or on an RK4 step that keeps undershooting zero (status 6): a logistic stock of
# 1e150 falls by about 1e300 a day, so a step of 2**-40 days still takes it below zero
ENDINGS = {
    "ssa-cap": ("ssa", (BIRTH_DEATH, 5, 0, 10.0, 1, 0, 0, 20, 10**8), 3, 18, [0.7989463482422375, 20.0, 0.0]),
    "ssa_frozen-cap": ("ssa_frozen", (BIRTH_DEATH, 5, 10.0, 1, 0, 20, 10**8), 3, 18, [0.7989463482422375, 20.0, 0.0]),
    "tau_leap-cap": ("tau_leap", (BIRTH_DEATH, 5, 0, 10.0, 0.1, 1, 0, 0, 20), 3, 13, [1.2, 19.0, 0.0]),
    "rk4_growth-step-fail": ("rk4_growth", (0, 2.0, 1.0, 0.0, 1.0, 1e150, 1.0, 2.0, np.array([0.0, 1.0, 2.0]), 1e300),
                             6, 1, [0.0, 1e150, 0.0]),
}


def corpus():
    """(kernel, arguments) of the fixed calls that the backends must agree on."""
    grid = make_grid(10.0, 0.1)
    for scenario in (1, 2, 3, 4):
        table = scenario_preset(scenario).channels.table
        for floors in ((0, 0), (1, 0), (1, 1)):
            for seed in (1, 2, 3):
                yield "ssa", (table, 100, 10, 10.0, seed, *floors, 1e12, 10**8)
                yield "ssa", (table, 100, 10, 10.0, seed, *floors, 1e12, 10**8, grid)
                yield "tau_leap", (table, 100, 10, 10.0, 0.01, seed, *floors, 1e12)
    # rows of rate 0 make consecutive running sums tie: placed first, in the middle and last; a
    # wrong pick of one would jump both populations by 5
    zero, s4 = (kernels.R_CONST, 0.0, 0.0, 0.0, 5, 5), scenario_preset(4).channels.table
    for table in ((zero, *s4), (*s4[:3], zero, zero, *s4[3:]), (*s4, zero)):
        for floors in ((0, 0), (1, 0)):
            yield "ssa", (table, 100, 10, 10.0, 1, *floors, 1e12, 10**8)
            yield "ssa", (table, 100, 10, 10.0, 1, *floors, 1e12, 10**8, grid)
    for table in (DEATH_ONLY, ((kernels.R_POW_T, 1.0, 1.0, 0.0, 1, 0),)):  # one row: nothing to compare
        yield "ssa", (table, 5, 0, 2.0, 1, 0, 0, 1e12, 10**8)
        yield "ssa", (table, 5, 0, 2.0, 1, 0, 0, 1e12, 10**8, grid)
    # means of 30 and more take the rounded-normal branch of the Poisson sampler
    yield "tau_leap", (birth_death(50.0, 40.0), 100, 0, 1.0, 0.1, 3, 0, 0, 1e12)
    # runs to t = 100, long enough that a species reaches 0 and its silenced rows leave the table
    long_grid = make_grid(100.0, 0.5)
    for case, (table, T0, E0, floors, _) in ABSORPTION_CASES.items():
        for grid_arg in ((), (long_grid,)):
            yield "ssa", (table, T0, E0, 100.0, absorbing_seed(case, "ssa"), *floors, 1e12, 10**8, *grid_arg)
            yield "tau_leap", (table, T0, E0, 100.0, 0.01, absorbing_seed(case, "tau_leap"), *floors, 1e12,
                               *grid_arg)
    # numpy scalars of another width: every backend takes each double argument as a double
    f32 = np.float32
    yield "rk4_growth", (0, 1.0, 0.2, 0.0, 1.0, 1.0, f32(0.1), f32(2), make_grid(2.0), 1e300)
    yield "rk4_kuznetsov", (1.636, 0.002, 20.19, 0.00311, 1.0, 1.131, 0.3743, 0.0, 100.0, 10.0, f32(0.01), f32(3.0),
                            make_grid(3.0), 1e300)
    yield "tau_leap", (S2_TABLE, 100, 10, f32(5.0), f32(0.01), 1, 0, 0, 1e12)
    yield "ssa", (S2_TABLE, f32(100), f32(10), f32(5.0), 1, f32(1), 0, f32(1e12), 10**8, make_grid(5.0))
    # rates that C computes as an inf or a nan, where Python's scalar arithmetic raises: a code-5 row
    # with g + T == 0 (0/0 and c*T*E/0), a code-1 row with e < 0 at T = 0, and one with e = 0.5 at T < 0
    mm_at, pow_at = (kernels.R_MM_TE, 1.131, 0.0), (kernels.R_POW_T, 1.0)
    for table, T0 in ((((*mm_at, 0.0, 0, 1), *S4_TABLE), 0), (((*mm_at, -100.0, 0, 1), *S4_TABLE), 100),
                      (((*pow_at, -0.5, 0.0, 1, 0), *S4_TABLE[1:]), 0), (((*pow_at, 0.5, 0.0, 1, 0), *S4_TABLE[1:]), -1)):
        for floors in ((0, 0), (1, 0)):
            yield "ssa", (table, T0, 10, 10.0, 1, *floors, 1e12, 10**8)
            yield "tau_leap", (table, T0, 10, 10.0, 0.01, 1, *floors, 1e12, grid)
    # the RK4 twin: a derivative with g + T == 0, nan in C, so the run stops at its first row with status 1
    yield "rk4_kuznetsov", (1.636, 0.002, 0.0, 0.00311, 1.0, 1.131, 0.3743, 0.0, 0.0, 10.0, 0.01, 1.0,
                            make_grid(1.0, 0.5), 1e300)
    for kind in ("logistic", "gompertz", "bertalanffy"):
        for c in (5, 2.5, 1.7, 1.25):
            table = experiment_one_law(kind, c).channels.table
            for seed in (1, 2, 3):
                # von Bertalanffy blows up, so its runs stop on the event budget
                yield "ssa", (table, 1, 0, 20.0, seed, 0, 0, 1e12, 2000)
                if kind != "bertalanffy":
                    yield "ssa_frozen", (table, 1, 20.0, seed, 0, 1e12, 10**6)
                    yield "ssa_frozen", (table, 1, 20.0, seed, 0, 1e12, 20)
    # a birth from T = -1 reaches T = 0, where a kept T*ln(T) death rate is C's -inf: status 5
    yield "ssa_frozen", (((1, 2.5, 1000.0, 0.0, 1, 0), (2, 0.4, 0.0, 0.0, -1, 0)), -1, 1.0, 1, 0.5, math.inf, 10)
    for kernel, args, *_ in ENDINGS.values():
        yield kernel, args
    yield "ssa", (*ENDINGS["ssa-cap"][1], grid)
    # RK4 runs: logistic, Gompertz at large magnitudes, scenario 4's system, and von Bertalanffy's blow-up (status 1)
    yield "rk4_growth", (0, 1.0, 0.2, 0.0, 1.0, 1.0, 0.001, 10.0, grid, 1e300)
    yield "rk4_growth", (1, 1.636, 0.002, 0.0, 1.0, 1.0, 0.01, 110.0, make_grid(110.0, 1.0), 1e300)
    yield "rk4_kuznetsov", (1.636, 0.002, 20.19, 0.00311, 1.0, 1.131, 0.3743, 0.0, 100.0, 10.0, 0.001, 30.0,
                            make_grid(30.0, 0.5), 1e300)
    yield "rk4_growth", (0, 1.636, 0.002, 1 / 3, 0.0, 1.0, 0.001, 10.0, grid, 1e300)
    # finite rates whose leap of 2 has an infinite mean, of which a Poisson count would be inf or nan: status 5
    yield "tau_leap", (((kernels.R_CONST, 1e308, 0.0, 0.0, 1, 0),), 0, 0, 4.0, 2.0, 7, 0, 0, 1e12)
    yield "tau_leap", (((kernels.R_CONST, 1e308, 0.0, 0.0, -1, 0), (kernels.R_CONST, 1.0, 0.0, 0.0, 1, 0)), 10**6, 0,
                       4.0, 2.0, 1, 0, 0, 1e12)


# coefficients of the generated calls: mostly plain, sometimes an edge of the domain
PLAIN = (0.05, 0.3, 1.0, 1.636, 2.5)
EDGES = (0.0, 5e-324, 1e300, math.inf, math.nan, -1.0)


class Draws(random.Random):
    """The seeded draws that both generators of kernel calls share."""

    def coef(self):
        return self.choice(EDGES) if self.random() < 0.1 else self.choice(PLAIN)

    def end_grid_and_seed(self):
        """A ``t_end``, a grid of 1-39 times up to 1.2 ``t_end`` as a trailing argument or none, and a seed."""
        t_end, grid = self.choice((0.0, 0.5, 5.0, 30.0)), ()
        if self.random() < 0.5:
            times = {round(self.uniform(0.0, 1.2 * t_end), 3) for _ in range(self.randrange(1, 40))}
            grid = (np.array(sorted(times)),)
        return t_end, grid, self.randrange(-2**63, 2**64)

    def table(self, jumps):
        """A table of 1-6 rows over the codes 0-5, each jump drawn from ``jumps``."""
        return tuple((code, self.coef(), self.choice((0.0, 0.5, 1.0, 2.0, -0.5)), self.choice((0.0, 1.0, 20.19)),
                      self.choice(jumps), self.choice(jumps))
                     for code in (self.randrange(6) for _ in range(self.randrange(1, 7))))


def generated_exact_calls(n):
    """``n`` calls (kernel, arguments) of ``ssa`` and ``ssa_frozen``, with floors, caps and budgets.  The first is a
    run of 2 * 10**4 events at R = 1 per event, so that the ziggurat's wedge and tail fire."""
    gen = Draws(37)
    yield "ssa", (((kernels.R_CONST, 1.0, 0.0, 0.0, 1, 0),), 0, 0, 1e9, gen.randrange(2**64), 0, 0, 1e12, 2 * 10**4)
    for _ in range(n - 1):
        t_end, grid, seed = gen.end_grid_and_seed()
        budget = (gen.choice((20.0, 1e3, 1e12)), gen.choice((1, 50, 2000)), *grid)
        if gen.random() < 0.7:
            yield "ssa", (gen.table((-1, 0, 1)), gen.choice((0, 1, 5, 100)), gen.choice((0, 1, 10)), t_end, seed,
                          gen.choice((0, 1, -1)), gen.choice((0, 1, -1)), *budget)
        else:
            table = ((kernels.R_POW_T, gen.coef(), gen.choice((0.0, 1.0, 2.0)), 0.0, 1, 0),
                     (gen.choice((kernels.R_POW_T, kernels.R_TLOGT)), gen.coef(), gen.choice((1.0, 2.0, 1 / 3)), 0.0,
                      -1, 0))
            yield "ssa_frozen", (table, gen.choice((0, 1, 5, 20)), t_end, seed, gen.choice((0, 1, 0.5)), *budget)


def generated_tau_calls(n):
    """``n`` calls (kernel, arguments) of ``tau_leap``, with floors, caps and steps of 0.01-2, at most 3000 leaps a
    run.  Populations of 1000 and huge coefficients give first leaps of mean past 30, which the rounded normal
    draws.  One table in ten starts with a constant rate of 1.5e308, finite, whose leap of 2 has an infinite
    mean."""
    gen = Draws(38)
    for _ in range(n):
        t_end, grid, seed = gen.end_grid_and_seed()
        table = gen.table((-1, 0, 1, 3))
        if gen.random() < 0.1:
            table = ((kernels.R_CONST, 1.5e308, 0.0, 0.0, *table[0][4:]), *table[1:])
        yield "tau_leap", (table, gen.choice((0, 1, 5, 100, 1000)), gen.choice((0, 1, 10, 1000)),
                           t_end, gen.choice((0.01, 0.1, 0.5, 2.0)), seed, gen.choice((0, 1, -1)),
                           gen.choice((0, 1, -1)), gen.choice((20.0, 1e4, 1e12)), *grid)


def outcome(backend, kernel, args):
    """The status and row bytes of ``kernel`` of ``backend`` called with ``args``, or the type and text of what it
    raised."""
    try:
        rows, status = getattr(backend, kernel)(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return status, np.asarray(rows).tobytes()


def literal(kernel, args):
    """The call of ``kernel`` with ``args`` as source that reproduces it."""
    return f"{kernel}({', '.join(f'np.array({a.tolist()})' if isinstance(a, np.ndarray) else repr(a) for a in args)})"


def calls(source):
    """(kernel, arguments) of the fixed corpus or of the two seeded generators."""
    return corpus() if source == "corpus" else (*generated_exact_calls(1000), *generated_tau_calls(500))


GENERATED = ("ssa", "ssa_frozen", "tau_leap")  # the kernels that the two generators call
# the statuses that each kernel's calls reach, in the fixed corpus and again among the generated calls
REACHED = {"ssa": {0, 2, 3, 4, 5}, "ssa_frozen": {0, 2, 3, 4, 5}, "tau_leap": {0, 2, 3, 5}, "rk4_growth": {0, 1, 6},
           "rk4_kuznetsov": {0, 1}}
SOURCES = [*((kernel, "corpus") for kernel in REACHED), *((kernel, "generated") for kernel in GENERATED)]


@needs_compiled
@pytest.mark.parametrize("kernel, source", SOURCES, ids=[f"{kernel}-{source}" for kernel, source in SOURCES])
def test_the_backends_return_the_same_rows(kernel, source):
    """One stream and one arithmetic: every call of ``kernel`` in the fixed corpus or among the two seeded
    generators' calls gives the same status and row bytes on both backends, or raises alike; a mismatch is reported
    as the call that reproduces it.  The calls reach the statuses pinned in ``REACHED``.  The tau generator's first
    leaps reach the Poisson sampler's rounded normal and the stop on an infinite mean by themselves, and replaying
    the first exact run's draws shows that its waiting times took the ziggurat's wedge and tail, so these paths and
    the tables they read agree across backends."""
    mine = [args for name, args in calls(source) if name == kernel]
    reached = set()
    for args in mine:
        got = outcome(pure, kernel, args)
        assert got == outcome(compiled, kernel, args), \
            f"the backends differ on {literal(kernel, args)}, with inf, nan = math.inf, math.nan"
        reached.add(got[0])
    assert reached == REACHED[kernel]
    if (kernel, source) == ("tau_leap", "generated"):
        normal = overflowing = 0
        for table, T0, E0, t_end, dt, *_ in mine:
            rates = [0.0] * len(table)
            R, h = pure._rates(pure._table(table), T0, E0, -math.inf, -math.inf, rates), min(dt, t_end)
            if t_end > 0.0 and 0.0 < R < math.inf:
                normal += 30.0 <= max(rates) * h and R * h < math.inf
                overflowing += R * h == math.inf
        assert normal >= 20 and overflowing > 0
    if (kernel, source) == ("ssa", "generated"):
        # the first exact run draws per event a waiting time, whose first word takes the wedge of a layer i > 0 if
        # x < -1 and the tail if x == -1, then the pick
        args = mine[0]
        draw, first = pure._rng(args[4], True), []
        for _ in range(args[-1]):
            u, x = draw()
            first.append(x)
            pure._exp(draw, u, x)
            draw()
        assert np.count_nonzero(np.array(first) < -1.0) > np.count_nonzero(np.array(first) == -1.0) > 0


ZIG_R = 7.697117470131487  # the ziggurat's tail start


def test_the_ziggurat_tables_satisfy_their_recurrence():
    """Every layer of the pure tables has the area v, x_i = we[i] 2**53 its
    right edge and fe[i] = exp(-x_i): exp(-x_i) = v / x_(i+1) + exp(-x_(i+1))
    within 4 ulps, layer 0's rectangle and tail q f(r) = v, and the top
    layer closes, x_1 (1 - f(x_1)) = v, within 1e-10; ke[i] is x_(i-1) / x_i
    of 2**53, truncated, and 0 for the top layer."""
    v, ke, we, fe = 3.949659822581572e-3, pure._KE, pure._WE, pure._FE
    x = [w * 2.0**53 for w in we]
    assert x[255] == ZIG_R and fe[0] == 1.0 and x[0] * fe[255] == pytest.approx(v, rel=1e-15)
    assert all(fe[i] == math.exp(-x[i]) for i in range(1, 256))
    assert max(abs(fe[i] - (v / x[i + 1] + fe[i + 1])) / math.ulp(fe[i]) for i in range(1, 255)) <= 4
    assert x[1] * (1.0 - fe[1]) == pytest.approx(v, rel=1e-10)
    assert ke[1] == 0 and ke[0] == int(ZIG_R / x[0] * 2.0**53)
    assert all(ke[i] == int(x[i - 1] / x[i] * 2.0**53) for i in range(2, 256))


@needs_compiled
def test_waiting_times_follow_exp_1():
    """The law of the compiled waiting times, at alpha = 0.01 fixed before
    the run: the 10**6 gaps of a one-row table of rate 1, per event, pass a
    Kolmogorov-Smirnov test against Exp(1), and the count beyond the
    ziggurat's r an exact two-sided binomial test against e**-r."""
    rows, status = compiled.ssa(((kernels.R_CONST, 1.0, 0.0, 0.0, 1, 0),), 0, 0, 1e9, 1, 0, 0, 1e12, 10**6)
    gaps = np.sort(np.diff(np.asarray(rows)[:, 0]))
    n = len(gaps)
    assert status == 4 and n == 10**6
    cdf = -np.expm1(-gaps)
    d = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
    assert math.sqrt(n) * d < 1.6276  # the 0.99 quantile of the Kolmogorov distribution
    beyond, p = int(np.count_nonzero(gaps > ZIG_R)), math.exp(-ZIG_R)

    def log_pmf(k):
        return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1) + k * math.log(p) \
            + (n - k) * math.log1p(-p)

    # the counts past 3000 (mean 454, sd 21) carry no mass a double holds
    pmf = np.exp([log_pmf(k) for k in range(3000)])
    assert pmf[pmf <= pmf[beyond] * (1 + 1e-9)].sum() > 0.01


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", ENDINGS)
def test_a_run_past_the_cap_or_with_a_failed_step_ends_with_its_status(backend, case):
    kernel, args, status, n, last = ENDINGS[case]
    rows, got = getattr(BACKENDS[backend], kernel)(*args)
    assert got == status and len(rows) == n and np.asarray(rows)[-1].tolist() == last


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("dt", [0.1, 1e-4])
def test_an_rk4_drift_below_zero_at_a_zero_stock_ends_with_status_6(backend, dt):
    """With s < 0 at E = 0 no step keeps E at or above zero: halving accepted
    steps of about 1e-12 days, so this run would have crawled for weeks on
    both backends.  It now stops at once with status 6, at its last grid
    time reached, for a dt that reaches the undershoot tolerance after 37
    halvings and one that reaches it after 27."""
    start = time.perf_counter()
    rows, status = BACKENDS[backend].rk4_kuznetsov(1.636, 0.002, 20.19, 0.00311, 1.0, 1.131, 0.3743, -1.0, 100.0,
                                                   0.0, dt, 1.0, np.array([0.0, 1.0]), 1e300)
    assert time.perf_counter() - start < 1.0
    assert status == 6 and np.asarray(rows).tolist() == [[0.0, 100.0, 0.0]]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", range(5))
def test_tau_leap_draws_nothing_for_a_zero_rate_row(backend, seed):
    """A row of rate 0 never reaches the Poisson sampler, so it leaves the
    stream alone: scenario 4's table leaps alike with its s = 0 influx row
    dropped or with another c = 0 row inserted mid-table."""
    tau = BACKENDS[backend].tau_leap
    s4 = scenario_preset(4).channels.table
    zero = (kernels.R_CONST, 0.0, 0.0, 0.0, 5, 5)  # a draw for it would jump both populations by 5
    expected = tau(s4, 100, 10, 10.0, 0.01, seed, 0, 0, 1e12)
    for table in (s4[:-1], (*s4[:3], zero, *s4[3:])):
        rows, status = tau(table, 100, 10, 10.0, 0.01, seed, 0, 0, 1e12)
        assert status == expected[1]
        assert np.asarray(rows).tobytes() == np.asarray(expected[0]).tobytes()


@pytest.mark.parametrize("case", ABSORPTION_CASES)
def test_each_absorption_case_takes_a_species_to_zero(case):
    """The corpus's absorption cases reach the drop: in each exact run
    a species reaches 0 where the absorption rule drops rows, except in the
    revived run, whose influx keeps every row."""
    table, T0, E0, floors, _ = ABSORPTION_CASES[case]
    rows = np.asarray(kernels.ssa(table, T0, E0, 100.0, absorbing_seed(case, "ssa"), *floors, 1e12, 10**8)[0])
    at_zero = rows[(rows[:, 1] == 0.0) | (rows[:, 2] == 0.0)]
    assert len(at_zero)
    kept, _ = pure._absorb(pure._table(table), *at_zero[0, 1:].tolist(), *map(float, floors), 1e12)
    assert (len(kept) == len(table)) == (case == "revived")


E_RAISES_T = (*S4_TABLE, (kernels.R_LIN_E, 1.0, 0.0, 0.0, 1, 0))


@pytest.mark.parametrize("table, T, E, floors, kept, watch", [
    # the rows that read E and the s = 0 row leave; a floor of 1 keeps T from being watched
    (S4_TABLE, 100, 0, (1, 0), S4_TABLE[:2], 0),
    (S4_TABLE, 100, 0, (0, 0), S4_TABLE[:2], 1),
    (S4_TABLE, 100, 10, (0, 0), S4_TABLE, 3),
    # the rows that read T leave, and the influx keeps E from being absorbed
    (S2_TABLE, 0, 10, (0, 0), S2_TABLE[5:], 0),
    # a row that reads E and raises T lets T be absorbed only once E has been
    (E_RAISES_T, 0, 0, (0, 0), (), 0),
    (E_RAISES_T, 0, 5, (0, 0), E_RAISES_T, 2),
], ids=["e", "e-t-watched", "none-at-0", "t", "e-then-t", "t-not-absorbed"])
def test_the_absorption_rule(table, T, E, floors, kept, watch):
    """``_absorb`` returns the rows kept and the species still watched (bit
    0: T, bit 1: E); the corpus holds the compiled twin to it."""
    assert pure._absorb(pure._table(table), float(T), float(E), *map(float, floors), 1e12) == (kept, watch)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kernel", ["ssa", "tau_leap"])
@pytest.mark.parametrize("table, T0, E0, floors", [
    # a floor of -1 lets E leave 0, where c*E turns negative
    (((kernels.R_CONST, 1.0, 0.0, 0.0, 0, -1), (kernels.R_LIN_E, 1.0, 0.0, 0.0, 0, 1)), 0, 0, (0, -1)),
    # rows of rate nan at E = 0 (jumps that no floor zeroes): a nan or an infinite
    # coefficient, or c*T overflowing
    ((*S4_TABLE[:5], (kernels.R_LIN_E, math.nan, 0.0, 0.0, -1, 0), S4_TABLE[6]), 100, 0, (1, 0)),
    ((*S4_TABLE[:2], (kernels.R_MASS_TE, math.inf, 0.0, 0.0, -1, 0), *S4_TABLE[3:]), 100, 0, (1, 0)),
    ((*S4_TABLE[:4], (kernels.R_MASS_TE, 1e300, 0.0, 0.0, -1, 0), *S4_TABLE[5:]), 1e10, 0, (1, 0)),
    # a birth row of rate nan at T = 0
    (((kernels.R_POW_T, math.inf, 1.0, 0.0, 1, 0), (kernels.R_LIN_E, 1.0, 0.0, 0.0, 0, -1)), 0, 5, (0, 0)),
    # the nan-c row on a jump that the floors zero: the nan still stops the run
    ((*S4_TABLE[:5], (kernels.R_LIN_E, math.nan, 0.0, 0.0, 0, -1), S4_TABLE[6]), 100, 0, (1, 0)),
], ids=["negative-floor", "nan-c", "inf-c", "overflowing-c", "inf-birth", "nan-c-floored"])
def test_rows_that_could_stop_the_run_stay(backend, kernel, table, T0, E0, floors):
    """A row leaves only if its rate would stay 0: each of these runs stops
    with status 5, as the whole table makes it do, instead of dropping the
    row that stops it, and a nan rate stops it whatever the floors."""
    fn = getattr(BACKENDS[backend], kernel)
    args = (100.0, 1) if kernel == "ssa" else (100.0, 0.01, 1)
    rows, status = fn(table, T0, E0, *args, *floors, 1e12, *((10**6,) if kernel == "ssa" else ()))
    assert status == kernels.ST_BAD_RATE


# rows whose rates stay >= 0 while E >= 0: a death of T at rate 2, an influx and a decay of E
STEADY = ((kernels.R_CONST, 2.0, 0.0, 0.0, -1, 0), (kernels.R_CONST, 1.0, 0.0, 0.0, 0, 1),
          (kernels.R_LIN_E, 0.5, 0.0, 0.0, 0, -1))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kernel", ["ssa", "tau_leap"])
@pytest.mark.parametrize("grid", [None, make_grid(100.0, 0.5)], ids=["per-step", "grid"])
@pytest.mark.parametrize("at", [0, 1, 3], ids=["first", "middle", "last"])
@pytest.mark.parametrize("bad, jump", [
    ((kernels.R_POW_T, 1.0, 1.0), 0),  # T: negative below 0
    ((kernels.R_POW_T, 1.0, 0.5), 0),  # T**0.5: nan below 0
    # negative, on a jump that ssa's floor T >= -3 zeroes from T < 2 on (leaping clamps after the leap)
    ((kernels.R_POW_T, 1.0, 1.0), -5),
], ids=["negative", "nan", "negative-floored"])
def test_a_bad_rate_in_any_row_stops_the_run_where_it_turns_bad(backend, kernel, grid, at, bad, jump):
    """T falls from 5 below 0, where one row's rate turns negative or nan:
    wherever that row sits, and whether or not a floor zeroes it, the run
    stops with status 5 at the first state with the bad rate, and both
    backends return the same rows."""
    table = list(STEADY)
    table.insert(at, (*bad, 0.0, jump, 0))
    args = (tuple(table), 5, 0, 100.0, *(() if kernel == "ssa" else (0.1,)), 1, -3, 0, 1e12,
            *((10**6,) if kernel == "ssa" else ()), *(() if grid is None else (grid,)))
    rows, status = getattr(BACKENDS[backend], kernel)(*args)
    rows_p, status_p = getattr(pure, kernel)(*args)
    assert status == status_p == kernels.ST_BAD_RATE
    assert np.asarray(rows).tobytes() == np.asarray(rows_p).tobytes()
    if grid is None:
        Ts = np.asarray(rows)[:, 1]
        assert len(Ts) > 1 and Ts[-1] < 0.0 <= Ts[:-1].min()


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_nan_death_rate_stops_ssa_frozen_below_its_floor(backend):
    """As in ``ssa``, a nan rate stops the run with status 5 even while the
    floor keeps the death row from firing."""
    frozen = ((kernels.R_POW_T, 1.0, 1.0, 0.0, 1, 0), (kernels.R_POW_T, math.nan, 1.0, 0.0, -1, 0))
    assert BACKENDS[backend].ssa_frozen(frozen, 1, 10.0, 1, 1e9, 1e12, 10**6)[1] == kernels.ST_BAD_RATE


# one short run of each kernel, by name
KERNEL_ARGS = {
    "rk4_growth": (0, 1.0, 0.2, 0.0, 1.0, 1.0, 0.01, 1.0, make_grid(1.0, 0.1), 1e300),
    "rk4_kuznetsov": (1.636, 0.002, 20.19, 0.00311, 1.0, 1.131, 0.3743, 0.0,
                      100.0, 10.0, 0.01, 1.0, make_grid(1.0, 0.1), 1e300),
    "ssa": (S4_TABLE, 100, 10, 1.0, 3, 1, 0, 1e12, 10**7),
    "ssa_frozen": (birth_death(0.7, 0.9), 5, 1.0, 3, 0, 1e12, 10**7),
    "tau_leap": (S4_TABLE, 100, 10, 1.0, 0.1, 3, 1, 0, 1e12),
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kernel", KERNELS)
def test_rows_are_an_n_by_3_float64_buffer_numpy_views_without_copy(backend, kernel):
    rows, status = getattr(BACKENDS[backend], kernel)(*KERNEL_ARGS[kernel])
    assert status == 0
    view = np.asarray(rows)
    assert len(rows) == len(view) > 2
    assert view.shape == (len(rows), 3) and view.dtype == np.float64
    rows[0, 0] = -1.0
    assert view[0, 0] == -1.0
    if kernel in ("rk4_growth", "ssa_frozen"):
        # one species: E is 0 in every row
        assert np.all(view[:, 2] == 0.0)


# the last required argument of each kernel
LAST_ARG = {"rk4_growth": "blowup", "rk4_kuznetsov": "blowup", "ssa": "max_events",
            "ssa_frozen": "max_events", "tau_leap": "cap"}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kernel", KERNELS)
def test_keyword_calls_raise_type_error(backend, kernel):
    """Every argument is positional only: callers, the benchmark's tracer
    among them, read the arguments by position."""
    fn = getattr(BACKENDS[backend], kernel)
    *args, last = KERNEL_ARGS[kernel]
    with pytest.raises(TypeError):
        fn(*args, **{LAST_ARG[kernel]: last})


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kernel", KERNELS)
def test_a_str_for_a_double_raises_type_error(backend, kernel):
    """Each backend parses every double argument as C's "d" does: a number
    of any real type is taken as its float, a str is refused."""
    args = list(KERNEL_ARGS[kernel])
    args[0 if kernel == "rk4_kuznetsov" else 1] = "1"
    with pytest.raises(TypeError):
        getattr(BACKENDS[backend], kernel)(*args)


# the integer argument of each kernel that has one, its position and the C type the compiled kernel parses it
# as, with that type's range
INT_ARGS = {"rk4_growth": (0, ctypes.c_int), "ssa": (8, ctypes.c_long), "ssa_frozen": (6, ctypes.c_long)}


def c_range(ctype):
    """The least and the greatest value of the signed C integer type ``ctype``."""
    bits = 8 * ctypes.sizeof(ctype)
    return -(2 ** (bits - 1)), 2 ** (bits - 1) - 1


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kernel", INT_ARGS)
def test_integer_arguments_parse_as_c_does(backend, kernel):
    """Each backend parses every integer argument as C's "i" or "l" does: by
    ``__index__``, so a float, a str or None is refused with TypeError, and
    within the C type's range, past which it raises OverflowError.  A kind
    of ``rk4_growth`` other than 0 or 1 then raises ValueError."""
    at, ctype = INT_ARGS[kernel]
    lo, hi = c_range(ctype)

    def call(value):
        args = list(KERNEL_ARGS[kernel])
        args[at] = value
        return getattr(BACKENDS[backend], kernel)(*args)

    for value in (0.0, 1.0, 10.0, "0", None):
        with pytest.raises(TypeError):
            call(value)
    for value in (lo - 1, hi + 1, 10**30):
        with pytest.raises(OverflowError):
            call(value)
    for value in (lo, hi, True, np.int64(1)):
        if kernel == "rk4_growth" and value not in (0, 1):
            with pytest.raises(ValueError, match=r"^kind must be 0 \(power law\) or 1 \(Gompertz\)$"):
                call(value)
        else:
            assert call(value)[1] in (kernels.ST_OK, kernels.ST_MAX_EVENTS)


# where each stochastic kernel takes its seed
SEED_AT = {"ssa": 4, "ssa_frozen": 3, "tau_leap": 5}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kernel", SEED_AT)
def test_seed_is_masked_to_64_bits(backend, kernel):
    def rows(seed):
        args = list(KERNEL_ARGS[kernel])
        args[SEED_AT[kernel]] = seed
        return np.asarray(getattr(BACKENDS[backend], kernel)(*args)[0])

    assert np.array_equal(rows(7), rows(7 + 2**64))
    assert np.array_equal(rows(7), rows(7 - 2**64))
    assert not np.array_equal(rows(3), rows(-3))


def call_with_table(backend, kernel, table):
    """``kernel`` of ``backend`` on ``table`` from one tumour cell to t = 1."""
    fn = getattr(BACKENDS[backend], kernel)
    if kernel == "ssa":
        return fn(table, 1, 0, 1.0, 1, 0, 0, 1e12, 10**6)
    if kernel == "ssa_frozen":
        return fn(table, 1, 1.0, 1, 0, 1e12, 10**6)
    return fn(table, 1, 0, 1.0, 0.1, 1, 0, 0, 1e12)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kernel", ["ssa", "tau_leap"])  # ssa_frozen takes two rows only
def test_max_channels_is_the_kernels_limit(backend, kernel):
    row = (kernels.R_CONST, 1.0, 0.0, 0.0, 1, 0)
    rows, status = call_with_table(backend, kernel, ChannelSet((row,) * kernels.MAX_CHANNELS, ("tumour",)).table)
    assert status == kernels.ST_OK and np.asarray(rows)[-1, 1] > 1
    with pytest.raises(ValueError, match=f"at most {kernels.MAX_CHANNELS} channels"):
        call_with_table(backend, kernel, (row,) * (kernels.MAX_CHANNELS + 1))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kernel", ["ssa", "ssa_frozen", "tau_leap"])
class TestTableFormat:
    """Every stochastic kernel reads one table of (code, c, e, g, dT, dE) rows."""

    def test_more_than_16_channels_raise_value_error(self, backend, kernel):
        with pytest.raises(ValueError, match="at most 16 channels"):
            call_with_table(backend, kernel, ((0, 1.0, 0.0, 0.0, 1, 0),) * 17)

    @pytest.mark.parametrize("table", [
        3,
        None,
        [[1, 1.0, 1.0, 0.0, 1, 0]],
        ((1, 1.0, 1.0, 0.0, 1),),
        ((1, 1.0, 1.0, 0.0, 1, 0, 0),),
        ((1, 1.0, 1.0, 0.0, 1, "0"),),
        ((1.0, 1.0, 1.0, 0.0, 1, 0),),
        (3,),
    ], ids=["int", "none", "list-row", "5-numbers", "7-numbers", "str", "float-code", "bare-number"])
    def test_non_table_raises_type_error(self, backend, kernel, table):
        with pytest.raises(TypeError):
            call_with_table(backend, kernel, table)

    def test_a_code_is_read_as_a_c_long(self, backend, kernel):
        lo, hi = c_range(ctypes.c_long)
        for code, error in ((6, ValueError), (-1, ValueError), (hi + 1, OverflowError), (lo - 1, OverflowError)):
            with pytest.raises(error):
                call_with_table(backend, kernel, ((code, 1.0, 1.0, 0.0, 1, 0), (1, 0.5, 1.0, 0.0, -1, 0)))

    def test_any_sequence_of_rows_is_read_alike(self, backend, kernel):
        table = birth_death(1.0, 0.5)
        assert call_with_table(backend, kernel, list(table)) == call_with_table(backend, kernel, table)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("table", [
    (),
    birth_death(1.0, 0.5)[:1],
    birth_death(1.0, 0.5) + DEATH_ONLY,
    birth_death(1.0, 0.5)[::-1],
    ((0, 1.0, 0.0, 0.0, 1, 0), (1, 0.5, 1.0, 0.0, -1, 0)),
    ((1, 1.0, 1.0, 0.0, 1, 0), (3, 0.5, 0.0, 0.0, -1, 0)),
    ((1, 1.0, 1.0, 0.0, 1, 1), (1, 0.5, 1.0, 0.0, -1, 0)),
    ((1, 1.0, 1.0, 0.0, 1, 0), (1, 0.5, 1.0, 0.0, -2, 0)),
    S4_TABLE,
], ids=["empty", "one-row", "three-rows", "death-first", "constant-birth", "death-of-effectors",
        "birth-moves-E", "death-of-two", "kuznetsov"])
def test_ssa_frozen_needs_a_birth_death_table(backend, table):
    with pytest.raises(ValueError, match="birth-death table"):
        BACKENDS[backend].ssa_frozen(table, 5, 1.0, 1, 0, 1e12, 10**6)


@pytest.mark.parametrize("backend", BACKENDS)
def test_ssa_frozen_kept_death_rate_of_a_t_log_t_row_is_c_ln_t(backend):
    # one cell under a T*ln(T) death row keeps the per-capita rate 5*ln(1) =
    # 0, so without births it outlives t_end (c*T**(e-1) would kill it)
    table = ((1, 0.0, 1.0, 0.0, 1, 0), (2, 5.0, 0.0, 0.0, -1, 0))
    times, Ts, _, status = columns(BACKENDS[backend].ssa_frozen(table, 1, 5.0, 9, 0, 1e12, 10**6))
    assert status == 2 and list(times) == [0.0, 5.0] and list(Ts) == [1.0, 1.0]


# (kernel, case) -> (t_end, the arguments before ``grid``); "budget" stops on
# the event budget, "extinct" dies out long before t_end
GRID_CASES = {
    ("ssa", "two-species"): (2.0, (S4_TABLE, 100, 10, 2.0, 5, 1, 0, 1e12, 10**8)),
    ("ssa", "one-species"): (10.0, (ONE_SPECIES, 20, 0, 10.0, 5, 0, 0, 1e12, 10**8)),
    ("ssa", "extinct"): (10.0, (DEATH_ONLY, 4, 0, 10.0, 5, 0, 0, 1e12, 10**8)),
    ("ssa", "budget"): (2.0, (S4_TABLE, 100, 10, 2.0, 5, 1, 0, 1e12, 100)),
    ("ssa_frozen", "one-species"): (10.0, (ONE_SPECIES, 20, 10.0, 5, 0, 1e12, 10**8)),
    ("ssa_frozen", "extinct"): (10.0, (birth_death(0.1, 1.0), 4, 10.0, 5, 0, 1e12, 10**8)),
    ("ssa_frozen", "budget"): (10.0, (ONE_SPECIES, 20, 10.0, 5, 0, 1e12, 100)),
    ("tau_leap", "two-species"): (2.0, (S4_TABLE, 100, 10, 2.0, 0.01, 5, 1, 0, 1e12)),
    ("tau_leap", "one-species"): (10.0, (ONE_SPECIES, 20, 0, 10.0, 0.05, 5, 0, 0, 1e12)),
    ("tau_leap", "extinct"): (10.0, (DEATH_ONLY, 4, 0, 10.0, 0.05, 5, 0, 0, 1e12)),
}
STATUS = {"extinct": 2, "budget": 4}


def grid_on_samples(times, t_end):
    """A uniform grid of 21 points plus every third sample time (so grid
    points land exactly on events) and the midpoints of some other gaps."""
    times = np.asarray(times)
    mids = (times[1:] + times[:-1]) / 2
    return np.unique(np.concatenate([np.linspace(0.0, t_end, 21), times[::3], mids[1::3]]))


GRID_TIME_ERROR = r"^grid times must be finite, >= 0 and strictly increasing$"


class TestGridRecording:
    """With a grid, every kernel returns the per-event series step-sampled
    at the grid times: the last sample at or before each."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kernel, case", GRID_CASES)
    def test_grid_series_equal_step_sampled_event_series(self, backend, kernel, case):
        fn = getattr(BACKENDS[backend], kernel)
        t_end, args = GRID_CASES[kernel, case]
        *full, status = columns(fn(*args))
        assert status == STATUS.get(case, 0)
        grid = grid_on_samples(full[0], t_end)
        *held, held_status = columns(fn(*args, grid))
        assert held_status == status and len(held) == len(full)
        idx = np.searchsorted(np.asarray(full[0]), grid, side="right") - 1
        assert np.any(np.isin(grid[1:], full[0]))  # right-continuity is exercised
        for f, h in zip(full, held):
            assert len(h) == len(grid)
            assert np.array_equal(np.asarray(h), np.asarray(f)[idx])
        if case == "extinct":
            # the last event comes before most of the grid
            assert full[1][-1] == 0.0 and np.count_nonzero(grid > full[0][-2]) > 10
        if case == "budget":
            # the last row holds the last event's time and population
            assert (held[0][-1], held[1][-1]) == (full[0][-1], full[1][-1]) and full[0][-1] < t_end

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kernel", ["ssa", "ssa_frozen", "tau_leap"])
    def test_grid_none_is_the_per_event_series(self, backend, kernel):
        fn = getattr(BACKENDS[backend], kernel)
        _, args = GRID_CASES[kernel, "one-species"]
        *default, status = columns(fn(*args))
        *explicit, status_none = columns(fn(*args, None))
        assert status == status_none and len(default[0]) > 100
        assert [list(c) for c in default] == [list(c) for c in explicit]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("grid", [
        [0.0, 1.0],
        np.arange(6.0)[::2],
        np.zeros((2, 2)),
        np.arange(3, dtype=np.float32),
        "0 1",
        np.empty(0),
    ], ids=["list", "strided", "2d", "float32", "str", "empty"])
    def test_grid_must_be_a_contiguous_1d_double_buffer(self, backend, kernel, grid):
        fn = getattr(BACKENDS[backend], kernel)
        with pytest.raises(TypeError, match="contiguous 1-D buffer of doubles"):
            fn(*with_grid(kernel, grid))

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("grid", [
        [0.0, math.inf, 1.0],
        [0.0, -math.inf, 1.0],
        [0.0, math.nan, 1.0],
        [0.0, 1.0, math.inf],
        [0.0, 1.0, math.nan],
        [0.0, 5.0, 1.0],
        [0.0, 1.0, 1.0],
        [-1.0, 0.0, 1.0],
        [math.nan],
    ], ids=["inf", "-inf", "nan", "last-inf", "last-nan", "decreasing", "repeated", "negative", "only-nan"])
    def test_grid_times_must_be_finite_non_negative_and_strictly_increasing(self, backend, kernel, grid):
        # an RK4 run steps to each grid time in turn, so one of +-inf would never end, and one below the
        # time reached would make it step back over time it has already integrated
        fn = getattr(BACKENDS[backend], kernel)
        with pytest.raises(ValueError, match=GRID_TIME_ERROR):
            fn(*with_grid(kernel, np.array(grid)))

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kernel, args", [
        # the row for t = 1 held the sample at t = 4.99; the per-event series has (0.909, 1, 8) there
        ("ssa", (S4_TABLE, 100, 10, 10.0, 1, 1, 0, 1e12, 10**8, np.array([0.0, 5.0, 1.0]))),
        # 2 rows for 3 grid times, the second labelled t = 0.5 but holding T(1.5)
        ("rk4_growth", (0, 1.0, 0.2, 0.0, 1.0, 1.0, 0.1, 2.0, np.array([0.0, 1.5, 0.5]), 1e300)),
        # 2 rows for 3 grid times
        ("rk4_growth", (0, 1.0, 0.2, 0.0, 1.0, 1.0, 0.1, 2.0, np.array([0.0, 1.0, 1.0]), 1e300)),
    ], ids=["ssa-decreasing", "rk4-decreasing", "rk4-repeated"])
    def test_a_grid_that_gave_rows_of_other_times_is_refused(self, backend, kernel, args):
        with pytest.raises(ValueError, match=GRID_TIME_ERROR):
            getattr(BACKENDS[backend], kernel)(*args)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_a_finite_grid_time_past_t_end_is_taken(self, backend, kernel):
        # ssa._check_grid admits a last grid time up to t_end + 1e-9; these runs end by t = 3 and 10
        grid = np.array([0.0, 20.0])
        rows, status = getattr(BACKENDS[backend], kernel)(*with_grid(kernel, grid))
        assert status == 0 and len(rows) == 2
        if kernel in RK4_ARGS:  # the RK4 steps on to the grid time past t_end and records its row there
            assert np.asarray(rows)[:, 0].tobytes() == grid.tobytes()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kernel, row", [("ssa", 0), ("tau_leap", 0), ("ssa_frozen", 0), ("ssa_frozen", 1)],
                         ids=["ssa", "tau_leap", "ssa_frozen-birth", "ssa_frozen-death"])
@pytest.mark.parametrize("c, status", [(-1.0, 5), (0.0, 2), (math.inf, 5), (math.nan, 5)],
                         ids=["negative", "zero", "inf", "nan"])
def test_total_rate_outside_zero_inf_stops_the_run(backend, kernel, row, c, status):
    """One stop rule on the total rate R: R == 0 stops with status 2 after
    holding the state until t_end, negative, inf or nan R with 5."""
    fn = getattr(BACKENDS[backend], kernel)
    if kernel == "ssa_frozen":
        # a birth row c*T or a death row of per-capita rate c, the other row 0
        table = [(1, 0.0, 1.0, 0.0, 1, 0), (1, 0.0, 1.0, 0.0, -1, 0)]
        table[row] = (1, c, 1.0, 0.0, *table[row][4:])
        rows, got = fn(tuple(table), 3, 5.0, 1, 0, 1e12, 10**6)
        E0 = 0.0
    else:
        table = ((0, c, 0.0, 0.0, 1, 0),)
        args = (3, 2, 5.0, 1, 0, 0, 1e12, 10**6) if kernel == "ssa" else (3, 2, 5.0, 0.1, 1, 0, 0, 1e12)
        rows, got = fn(table, *args)
        E0 = 2.0
    assert got == status
    held = [[5.0, 3.0, E0]] if status == 2 else []
    assert np.asarray(rows).tolist() == [[0.0, 3.0, E0], *held]


@pytest.mark.parametrize("backend", BACKENDS)
def test_an_overflowing_rate_is_an_engine_error_not_the_cap(backend, monkeypatch):
    # 10**400 overflows to inf while the population is 10, far below the cap
    monkeypatch.setattr(kernels, "ssa", BACKENDS[backend].ssa)
    channels = ChannelSet(((kernels.R_POW_T, 1.0, 400.0, 0.0, 1, 0),), ("tumour",))
    with pytest.raises(EngineError, match="infinite") as info:
        simulate_exact(EnsembleSpec(channels, PopulationState(10), t_end=1.0), seed=1)
    assert not isinstance(info.value, PopulationCapError)
    assert " at t=0 with population 10;" in str(info.value)


# the arguments of each RK4 kernel before and after its grid
RK4_ARGS = {
    "rk4_growth": ((0, 1.0, 0.2, 0.0, 1.0, 1.0, 0.01, 3.0), (1e300,)),
    "rk4_kuznetsov": ((1.636, 0.002, 20.19, 0.00311, 1.0, 1.131, 0.3743, 0.0, 100.0, 10.0, 0.01, 3.0),
                      (1e300,)),
}


def with_grid(kernel, grid):
    """The arguments of one short run of ``kernel`` recorded on ``grid``."""
    if kernel in RK4_ARGS:
        before, after = RK4_ARGS[kernel]
        return (*before, grid, *after)
    return (*GRID_CASES[kernel, "one-species"][1], grid)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kernel", RK4_ARGS)
def test_rk4_rows_are_the_grid_times(backend, kernel):
    fn = getattr(BACKENDS[backend], kernel)
    grid = np.arange(0.0, 3.0, 1 / 3)  # times off the multiples of dt
    t, *_, status = columns(fn(*with_grid(kernel, grid)))
    assert status == 0 and np.asarray(t).tobytes() == grid.tobytes()
    with pytest.raises(TypeError, match="contiguous 1-D buffer of doubles"):
        fn(*with_grid(kernel, None))  # None, "no grid" to the stochastic kernels


STEP_ERROR = r"^need a finite dt > 0 and a finite t_end >= 0, with t_end / dt at most 5e7$"


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kernel", RK4_ARGS)
@pytest.mark.parametrize("dt, t_end", [
    (0.0, 1.0), (-0.01, 1.0), (math.nan, 1.0), (math.inf, 1.0), (0.01, -1.0), (0.01, math.nan),
    (0.01, math.inf), (1e-9, 1.0), (5e-324, 1e300), (1.0, 5e7 * (1 + 2**-52)),
], ids=["dt-0", "dt-negative", "dt-nan", "dt-inf", "t_end-negative", "t_end-nan", "t_end-inf",
        "1e9-steps", "steps-overflow", "one-step-past-the-cap"])
def test_rk4_refuses_a_step_rule_that_would_not_end(backend, kernel, dt, t_end):
    """Outside the kernels' domain, where the loop would run for ever or for
    more than ``_check_steps`` admits, both RK4 kernels raise one ValueError
    before they read the grid."""
    (*before, _, _), after = RK4_ARGS[kernel]
    with pytest.raises(ValueError, match=STEP_ERROR):
        getattr(BACKENDS[backend], kernel)(*before, dt, t_end, None, *after)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kernel, args, message", [
    # the run steps to each grid time in turn: here to 1e300, past a t_end of 1
    ("rk4_kuznetsov", (1.636, 0.002, 20.19, 0.00311, 1.0, 1.131, 0.1908, 0.318, 100.0, 10.0, 0.1, 1.0,
                       np.array([0.0, 1e300]), 1e300), STEP_ERROR),
    # to 3e7, back to 0 and to 3e7 again (6e7 steps): the grid rule refuses it before any step
    ("rk4_growth", (0, 1.0, 0.2, 0.0, 1.0, 1.0, 1.0, 1.0, np.array([0.0, 3e7, 0.0, 3e7]), 1e300),
     GRID_TIME_ERROR),
    # from 0 back to -1e300, where no step of 1 moves t: refused by the grid rule too
    ("rk4_growth", (0, 1.0, 0.2, 0.0, 1.0, 1.0, 1.0, 1.0, np.array([-1e300, 0.0]), 1e300), GRID_TIME_ERROR),
], ids=["past-t_end", "back-and-forth", "back-below-0"])
def test_rk4_refuses_a_grid_that_would_step_past_the_cap(backend, kernel, args, message):
    """The step cap bounds the whole way a run travels, to the later of
    ``t_end`` and the last grid time, with the step rule's ValueError on
    both backends; the grid rule refuses a grid that would step back."""
    with pytest.raises(ValueError, match=message):
        getattr(BACKENDS[backend], kernel)(*args)


END_ERROR = r"^need a finite t_end >= 0$"


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kernel, args, message", [
    ("tau_leap", (S4_TABLE, 100, 10, 1.0, 0.0, 1, 0, 0, 1e12), STEP_ERROR),
    ("tau_leap", (S4_TABLE, 100, 10, 1.0, -0.1, 1, 0, 0, 1e12), STEP_ERROR),
    ("tau_leap", (S4_TABLE, 100, 10, 1.0, 1e-300, 1, 0, 0, 1e12), STEP_ERROR),
    ("tau_leap", (S4_TABLE, 100, 10, math.inf, 0.01, 1, 0, 0, 1e12), STEP_ERROR),
    ("tau_leap", (S4_TABLE, 100, 10, 1.0, math.nan, 1, 0, 0, 1e12), STEP_ERROR),
    ("tau_leap", (S4_TABLE, 100, 10, 5e7 * (1 + 2**-52), 1.0, 1, 0, 0, 1e12), STEP_ERROR),
    ("ssa", (S4_TABLE, 100, 10, math.nan, 1, 0, 0, 1e12, 10**9), END_ERROR),
    ("ssa", (S4_TABLE, 100, 10, math.inf, 1, 1, 0, 1e12, 10**9), END_ERROR),
    ("ssa", (S4_TABLE, 100, 10, -1.0, 1, 0, 0, 1e12, 10**9), END_ERROR),
    ("ssa_frozen", (ONE_SPECIES, 20, math.nan, 1, 0, 1e12, 10**9), END_ERROR),
    ("ssa_frozen", (ONE_SPECIES, 20, math.inf, 1, 0, 1e12, 10**9), END_ERROR),
], ids=["tau-dt-0", "tau-dt-negative", "tau-dt-1e-300", "tau-t_end-inf", "tau-dt-nan", "tau-past-the-step-cap",
        "ssa-t_end-nan", "ssa-t_end-inf-under-a-floor", "ssa-t_end-negative", "frozen-t_end-nan", "frozen-t_end-inf"])
def test_the_stochastic_kernels_refuse_a_run_that_would_not_end(backend, kernel, args, message):
    """Each of these ran for ever, or to ``max_events``, before: the kernels'
    domain is that of the RK4 for tau_leap, a finite t_end >= 0 for the exact
    kernels."""
    with pytest.raises(ValueError, match=message):
        getattr(BACKENDS[backend], kernel)(*args)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kernel", RK4_ARGS)
def test_rk4_domain_edges_run(backend, kernel):
    """t_end = 0 and dt > t_end are in the domain, and its step cap is the
    one of ``_check_steps``."""
    (*before, _, _), after = RK4_ARGS[kernel]
    fn = getattr(BACKENDS[backend], kernel)
    assert pure._MAX_STEPS == DEFAULT_MAX_EVENTS
    t, *_, status = columns(fn(*before, 0.01, 0.0, np.zeros(1), *after))
    assert status == 0 and list(t) == [0.0]
    t, *_, status = columns(fn(*before, 5.0, 1.0, make_grid(1.0, 0.5), *after))
    assert status == 0 and list(t) == [0.0, 0.5, 1.0]


# a run of each kernel on a grid that takes about 0.1-0.3 s on the compiled backend
LONG_GRID_RUNS = {
    **{kernel: (*before, 1e-4, 100.0, make_grid(100.0), *after)  # 1M steps
       for kernel, ((*before, _, _), after) in RK4_ARGS.items()},
    "ssa": (S4_TABLE, 100, 10, 4000.0, 1, 1, 0, 1e12, 10**9, make_grid(4000.0)),  # about 6M events
    "ssa_frozen": (ONE_SPECIES, 20, 1e5, 1, 1, 1e12, 10**9, make_grid(1e5)),
    "tau_leap": (S4_TABLE, 100, 10, 2e4, 0.01, 1, 1, 0, 1e12, make_grid(2e4)),  # 2M leaps
}


@needs_compiled
@pytest.mark.parametrize("kernel", KERNELS)
def test_the_compiled_grid_kernels_release_the_gil(kernel):
    """While a long compiled run on a grid steps on a helper thread, this one
    goes on running Python.  Holding the GIL, the kernel would stop this
    thread for its whole run: the longest pause between two of this thread's
    loop iterations would be as long as the kernel's run, not a fraction."""
    args = LONG_GRID_RUNS[kernel]
    runs = []

    def run():
        start = time.perf_counter()
        status = getattr(compiled, kernel)(*args)[1]
        runs.append((time.perf_counter() - start, status))

    helper = threading.Thread(target=run)
    stamps = [time.perf_counter()]
    helper.start()
    while helper.is_alive():
        stamps.append(time.perf_counter())
    helper.join()
    (seconds, status), = runs
    assert status == 0 and len(stamps) > 2
    assert np.diff(stamps).max() < seconds / 2, seconds


@pytest.mark.parametrize("backend", BACKENDS)
def test_rk4_blowup_ends_the_rows_at_the_last_grid_time_reached(backend):
    # von Bertalanffy growth at this ratio passes 1e300 between t = 1 and t = 10
    fn = BACKENDS[backend].rk4_growth
    law = (0, 1.636, 0.002, 1.0 / 3.0, 0.0, 1.0, 0.001, 10.0)
    grid = make_grid(10.0, 0.5)
    t, T, _, status = columns(fn(*law, grid, 1e300))
    n = len(t)
    assert status == 1 and 2 < n < len(grid)
    assert list(t) == list(grid[:n]) and all(map(math.isfinite, T))
    # the reached grid times alone: the run still steps on to t_end, blows up
    # after the last of them and keeps every row
    t_reached, T_reached, _, status_reached = columns(fn(*law, grid[:n].copy(), 1e300))
    assert status_reached == 1 and list(t_reached) == list(t) and list(T_reached) == list(T)


OUT_OF_MEMORY_RUN = """
import resource, sys, time
from dualsim.kernels import {module} as backend

with open("/proc/self/statm") as statm:
    size = int(statm.read().split()[0]) * resource.getpagesize()
resource.setrlimit(resource.RLIMIT_AS, (size + (300 << 20), resource.getrlimit(resource.RLIMIT_AS)[1]))
raised = False
start = time.perf_counter()
try:
    # under a tumour floor, about 1630 events a day: 16M events and 390 MB of rows by t = 1e4
    backend.ssa({table}, 100, 10, {t_end}, 1, 1, 0, 1e12, 2**62)
except MemoryError:
    raised = True  # out of the handler, the run's frames and rows are freed
print(raised, time.perf_counter() - start)
"""


def run_out_of_memory(backend, t_end):
    """Runs ``OUT_OF_MEMORY_RUN`` on the ``backend`` module to ``t_end`` in a
    subprocess; returns its exit code, whether the kernel raised
    MemoryError, its stderr and the seconds the kernel call took."""
    code = OUT_OF_MEMORY_RUN.format(module=backend.__name__.rpartition(".")[2], table=S4_TABLE, t_end=t_end)
    env = {**os.environ, "PYTHONPATH": str(Path(kernels.__file__).parents[2])}  # the dualsim under test
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    raised, seconds = done.stdout.split() or ("", "nan")
    return done.returncode, raised, done.stderr, float(seconds)


# the run reads /proc/self/statm, and ASan reserves shadow address space past any cap
needs_an_address_space_cap = pytest.mark.skipif(
    not sys.platform.startswith("linux") or "libasan" in os.environ.get("LD_PRELOAD", ""),
    reason="needs Linux and no AddressSanitizer")


@needs_an_address_space_cap
@pytest.mark.parametrize("backend", BACKENDS)
def test_a_per_event_run_out_of_memory_raises_memory_error(backend):
    """A subprocess caps its address space 300 MiB above its size and runs
    a per-event ``ssa`` whose rows pass it: the kernel raises MemoryError
    and the process goes on, on both backends."""
    assert run_out_of_memory(BACKENDS[backend], 1e4)[:3] == (0, "True", "")


@needs_compiled
@needs_an_address_space_cap
def test_a_compiled_per_event_run_out_of_memory_stops_at_once():
    """The same run to t = 1e7, 1.6e10 events: the compiled kernel raises
    as soon as its rows run out, not at the end of a run many minutes long.
    (The pure kernel raises where its list fails to grow.)"""
    *result, seconds = run_out_of_memory(compiled, 1e7)
    assert result == [0, "True", ""] and seconds < 60, seconds


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_poisson_count_past_long_range_passes_the_cap(backend):
    # a mean of 1e28 firings in one leap: the count must reach the cap, not wrap to 0
    rows, status = BACKENDS[backend].tau_leap(((1, 1e30, 1.0, 0.0, 1, 0),), 1.0, 0.0, 1.0, 0.01, 1,
                                              0.0, 0.0, 1e12)
    assert status == 3 and np.asarray(rows).tolist() == [[0.0, 1.0, 0.0]]


# -0.0, the smallest subnormal and normal, repr's switch to exponents at
# 1e-4 and 1e16, a double past 2**53, the largest double, inf and nan
EDGE_VALUES = [-0.0, 0.0, 5e-324, sys.float_info.min, 1e-5, 0.1, 1e15, 1e16, 2.0**53 + 2,
               sys.float_info.max, math.inf, -math.inf, math.nan]


def edge_and_random_values():
    """The edge values and 20,000 random floats over +-300 decades, as 3 columns."""
    rng = np.random.default_rng(19)
    random = rng.standard_normal(20_000) * 10.0 ** rng.uniform(-300, 300, 20_000)
    return np.concatenate([EDGE_VALUES, random]).reshape(-1, 3)


def rows_written(backend, values, times):
    """The text ``backend.write_rows`` hands its ``write``, joined."""
    pieces = []
    assert backend.write_rows(values, times, pieces.append) is None
    return "".join(pieces)


def test_write_rows_is_a_kernel_outside_all():
    # the benchmark's tracer wraps every callable of kernels.__all__
    assert "write_rows" not in kernels.__all__
    assert kernels.write_rows is kernels.backend.write_rows


@pytest.mark.parametrize("backend", BACKENDS)
class TestWriteRows:
    def test_cells_are_repr_and_times_six_decimals(self, backend):
        # every edge value and random float is a time and a value
        values = edge_and_random_values()
        times = values[:, 0].copy()
        assert_same_text(rows_written(BACKENDS[backend], values, times), reference_rows(values, times))

    def test_the_same_text_as_the_pure_twin(self, backend):
        values = edge_and_random_values()
        blocks = values[:3000].reshape(12, 250, 3)
        for args in ((values, values[:, 0]), (blocks, values[:250, 1]), (values[:, ::2], values[:, 1])):
            assert_same_text(rows_written(BACKENDS[backend], *args), rows_written(pure, *args))

    def test_integral_cells_are_repr(self, backend):
        # the integral values of the C twin's exact path (|v| < 1e16, not
        # -0.0) and those beside its edges that still go through repr's dtoa
        cells = [0.0, -0.0, 1.0, -1.0, -123456789.0, 2.0**53, 2.0**53 + 2, 9999999999999998.0,
                 -9999999999999998.0, 1e16, -1e16, 1e16 + 2, 1e15 + 0.5, 4503599627370495.5]
        values = np.array(cells).reshape(-1, 2)
        times = np.arange(len(values), dtype=float)
        assert_same_text(rows_written(BACKENDS[backend], values, times), reference_rows(values, times))

    def test_dense_cells_and_stamps_are_repr_and_six_decimals(self, backend):
        # the C twin's exact paths: 200,000 log-uniform values over 1e-6..1e17 (its
        # fraction range [1e-4, 2**52) and both sides), 100,000 raw bit patterns,
        # and times rounded to 0-7 decimals
        rng = np.random.default_rng(31)
        n = 100_000
        wide = 10.0 ** rng.uniform(-6, 17, (n, 2)) * rng.choice([-1.0, 1.0], (n, 2))
        bits = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
        values = np.column_stack([wide, bits])
        scale = 10.0 ** rng.integers(0, 8, n)
        times = np.rint(rng.uniform(0.0, 1e4, n) * scale) / scale
        assert_same_text(rows_written(BACKENDS[backend], values, times), reference_rows(values, times))

    def test_cells_and_stamps_off_the_exact_paths_match(self, backend):
        # what the C twin leaves to dtoa: exact .6f ties (k/128: 0.0078125 is
        # 0.007812), powers of two (their interval is narrower below),
        # repr's own tie (2**50 + 0.25 is ...624.2), the doubles beside 1e-4,
        # 1e16 and 2**52, -0.0 and subnormals
        beside = [np.nextafter(x, direction) for x in (1e-4, 1e16, 2.0**52) for direction in (0.0, math.inf)]
        powers = [sign * 2.0**e for e in range(-30, 60) for sign in (1.0, -1.0)]
        cells = np.array([*powers, 2.0**50 + 0.25, 2.0**50 + 0.75, 1e-4, 1e16, 2.0**52, *beside, -0.0,
                          5e-324, -5e-324, sys.float_info.min / 3])
        ties = np.arange(-256, 1025) / 128
        values = np.resize(cells, (len(ties), 2))
        assert_same_text(rows_written(BACKENDS[backend], values, ties), reference_rows(values, ties))
        column = cells[:, None]
        assert_same_text(rows_written(BACKENDS[backend], column, cells), reference_rows(column, cells))

    def test_integer_counts_past_many_pieces(self, backend):
        # an abs_ensemble of 9-digit counts, filled in place per replicate:
        # about 20,000 rows of 40 characters, past 64 KiB eight times
        rng = np.random.default_rng(23)
        reps, n = 10, 2001
        values = np.empty((reps, n, 2))
        for i in range(reps):
            values[i] = rng.integers(0, 10**9, size=(n, 2), endpoint=True)
        times = np.linspace(0.0, 20.0, n)
        text = rows_written(BACKENDS[backend], values, times)
        assert len(text) > 8 * 2**16
        assert_same_text(text, reference_rows(values, times))

    def test_a_2d_buffer_has_no_index_column(self, backend):
        values, times = np.array([[1.0, 2.5], [0.1, -0.0]]), np.array([0.0, 0.5])
        assert rows_written(BACKENDS[backend], values, times) == "0.000000,1.0,2.5\n0.500000,0.1,-0.0\n"

    def test_a_3d_buffer_leads_each_row_with_its_replicate(self, backend):
        module = BACKENDS[backend]
        text = rows_written(module, np.array([[[1.0], [2.0]], [[3.0], [4.0]]]), np.array([0.0, 1 / 3]))
        assert text == "0,0.000000,1.0\n0,0.333333,2.0\n1,0.000000,3.0\n1,0.333333,4.0\n"
        values = edge_and_random_values()[:2400].reshape(12, 200, 3)
        times = np.linspace(0.0, 2.0, 200)
        assert_same_text(rows_written(module, values, times), reference_rows(values, times))

    def test_strided_and_empty_buffers(self, backend):
        module = BACKENDS[backend]
        values = edge_and_random_values()
        cells, stamps = values[:, 1:], values[:, 0]
        assert_same_text(rows_written(module, cells, stamps), reference_rows(cells, stamps))
        # a strided 3-D buffer and strided times
        values = values[: 2 * 11 * 150].reshape(11, 150, 6)[:, ::3, 1::2]
        times = np.linspace(0.0, 2.0, 100)[::2]
        assert not values.flags.c_contiguous
        assert_same_text(rows_written(module, values, times), reference_rows(values, times))
        assert rows_written(module, np.zeros((0, 2)), np.zeros(0)) == ""
        assert rows_written(module, np.zeros((0, 4, 2)), np.zeros(4)) == ""

    @pytest.mark.parametrize("reps", [1, 4, 5, 11])
    def test_replicates_join_to_the_whole(self, backend, reps):
        # each replicate of a strided buffer is its 2-D rows led by its label, from 0
        module = BACKENDS[backend]
        values = edge_and_random_values()[: 2 * reps * 150].reshape(reps, 150, 6)[:, ::3, 1::2]
        times = np.linspace(0.0, 2.0, 100)[::2]
        assert not values.flags.c_contiguous
        replicates = ["".join(f"{r},{row}" for row in rows_written(module, values[r], times).splitlines(True))
                      for r in range(reps)]
        assert_same_text(rows_written(module, values, times), "".join(replicates))
        assert_same_text("".join(replicates), reference_rows(values, times))
        # the pure twin writes one piece per replicate
        pieces = []
        pure.write_rows(values, times, pieces.append)
        assert pieces == replicates

    def test_an_empty_buffer_makes_no_call(self, backend):
        def write(piece):
            raise AssertionError(f"write({piece!r})")

        for values, times in ((np.zeros((0, 2)), np.zeros(0)), (np.zeros((0, 4, 2)), np.zeros(4)),
                              (np.zeros((3, 0, 2)), np.zeros(0))):
            assert BACKENDS[backend].write_rows(values, times, write) is None

    def test_an_exception_from_write_propagates_at_once(self, backend):
        # 13 replicates of 2001 rows: several pieces on either backend
        values, times = np.zeros((13, 2001, 2)), np.linspace(0.0, 20.0, 2001)
        calls = []

        def full_on_the_second_call(piece):
            calls.append(piece)
            if len(calls) == 2:
                raise OSError(28, "No space left on device")

        with pytest.raises(OSError, match="No space left"):
            BACKENDS[backend].write_rows(values, times, full_on_the_second_call)
        assert len(calls) == 2

    def test_a_times_length_other_than_the_rows_is_a_value_error(self, backend):
        with pytest.raises(ValueError, match="3 rows of values but 2 times"):
            BACKENDS[backend].write_rows(np.zeros((3, 2)), np.zeros(2), print)
        with pytest.raises(ValueError):
            BACKENDS[backend].write_rows(np.zeros((2, 3, 2)), np.zeros(2), print)

    @pytest.mark.parametrize("values, times", [
        (np.zeros((2, 2), dtype=np.float32), np.zeros(2)),
        (np.zeros((2, 2), dtype=np.int64), np.zeros(2)),
        (np.zeros(2), np.zeros(2)),
        (np.zeros((1, 1, 2, 2)), np.zeros(2)),
        (np.zeros((2, 2)), np.zeros((2, 1))),
        (np.zeros((2, 2)), np.zeros(2, dtype=np.float32)),
        ([[0.0, 1.0], [2.0, 3.0]], np.zeros(2)),
    ], ids=["float32", "int64", "1-D", "4-D", "2-D times", "float32 times", "list"])
    def test_another_rank_or_item_type_is_a_type_error(self, backend, values, times):
        with pytest.raises(TypeError, match="2-D or 3-D buffer of doubles"):
            BACKENDS[backend].write_rows(values, times, print)

    def test_keyword_calls_raise_type_error(self, backend):
        with pytest.raises(TypeError):
            BACKENDS[backend].write_rows(np.zeros((1, 1)), np.zeros(1), write=print)
        with pytest.raises(TypeError):
            BACKENDS[backend].write_rows(np.zeros((1, 1)), times=np.zeros(1), write=print)


@needs_compiled
def test_compiled_pieces_are_64_kib_and_at_most_one_row_more():
    values = np.random.default_rng(29).integers(0, 10**9, size=(13, 2001, 2)).astype(float)
    times = np.linspace(0.0, 20.0, 2001)
    pieces = []
    compiled.write_rows(values, times, pieces.append)
    longest_row = max(map(len, reference_rows(values, times).splitlines(keepends=True)))
    assert len(pieces) > 2
    assert all(type(piece) is str for piece in pieces)
    assert all(len(piece) >= 2**16 for piece in pieces[:-1])
    assert all(len(piece) <= 2**16 + longest_row for piece in pieces)
    assert_same_text("".join(pieces), reference_rows(values, times))
