"""Stochastic engine: exact event simulation over integer populations.

This is the agent-based side of the package, realized as a continuous-time
Markov birth-death process: the agents of each population carry no state
beyond being alive (plus, under the frozen-at-birth policy, a death rate
remembered from creation), so cohort counts are distribution-equivalent to
one object per agent and scale far better.

Models compile to a :class:`ChannelSet` of event channels (name, rate law,
integer state delta).  ``simulate_exact`` runs the Gillespie direct method;
``simulate_tau_leap`` is the approximate fixed-step alternative for large
populations.  ``run_ensemble`` runs replicates on a shared time grid and
holds them as one :class:`Ensemble` array.  Extinction floors ("keep
tumour >= 1", "keep both >= 1") are implemented in the exact engine by
zeroing the rate of any channel whose delta would drop a floored population
below its floor, which is distributionally equivalent to vetoing and
redrawing such events.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import ConfigError, EngineError, ModelDomainError, PopulationCapError
from .models import GrowthKind, GrowthLaw, KuznetsovParams, PopulationState
from .trajectory import Paradigm, Termination, Trajectory

__all__ = [
    "RateLaw",
    "Channel",
    "ChannelSet",
    "RatePolicy",
    "Floors",
    "Ensemble",
    "EnsembleSpec",
    "growth_channels",
    "kuznetsov_channels",
    "simulate_exact",
    "simulate_tau_leap",
    "run_ensemble",
    "POPULATION_CAP",
    "DEFAULT_MAX_EVENTS",
    "DEFAULT_REPS",
]

#: Hard ceiling on any discrete population; beyond it the run is infeasible
#: (the blow-up laws reach astronomically many agents) and fails cleanly.
POPULATION_CAP = 10**12

#: Safety budget on events per exact run, so runaway configurations fail
#: instead of looping for hours.
DEFAULT_MAX_EVENTS = 50_000_000

#: Replicates per ensemble unless asked otherwise.
DEFAULT_REPS = 50


class RatePolicy(enum.Enum):
    LIVE = "live"
    FROZEN_AT_BIRTH = "frozen"


@dataclass(frozen=True)
class RateLaw:
    """A parametric channel rate, one of the closed set of forms the kernels
    understand; the kernels evaluate it (``_pykernels._rates`` in Python)."""

    code: int
    c: float
    e: float = 0.0
    g: float = 0.0

    def __post_init__(self) -> None:
        if self.code not in (kernels.R_CONST, kernels.R_POW_T, kernels.R_TLOGT,
                             kernels.R_LIN_E, kernels.R_MASS_TE, kernels.R_MM_TE):
            raise ModelDomainError(f"unknown rate-law code {self.code}")
        if not math.isfinite(self.c) or self.c < 0:
            raise ModelDomainError(f"rate coefficient must be finite and >= 0, got {self.c!r}")
        if not (math.isfinite(self.e) and math.isfinite(self.g)):
            raise ModelDomainError(f"rate exponent and saturation must be finite, got e={self.e!r}, g={self.g!r}")
        if self.code == kernels.R_MM_TE and self.g <= 0:
            raise ModelDomainError("saturating rate needs g > 0")
        if self.code == kernels.R_POW_T and self.e < 0:
            # c*T**e would be infinite at T = 0
            raise ModelDomainError(f"power-law rate needs e >= 0, got e={self.e!r}")


@dataclass(frozen=True)
class Channel:
    """One event channel: a rate law plus the integer jump it applies."""

    name: str
    rate: RateLaw
    delta: tuple[int, int]  # (dT, dE)


@dataclass(frozen=True)
class ChannelSet:
    """The compiled event channels of a model: the one model definition
    every stochastic kernel runs."""

    channels: tuple[Channel, ...]
    species: tuple[str, ...]

    @functools.cached_property
    def table(self) -> tuple[tuple[int, float, float, float, int, int], ...]:
        """The kernels' channel table: one ``(code, c, e, g, dT, dE)`` row
        per channel, built once per set."""
        return tuple((ch.rate.code, ch.rate.c, ch.rate.e, ch.rate.g, *ch.delta) for ch in self.channels)


@dataclass(frozen=True)
class Floors:
    """Extinction floors: 0 = none, 1 = never drop below one individual.

    (0, 0) is the plain model, (1, 0) keeps the tumour alive, (1, 1) keeps
    both populations alive.
    """

    min_tumour: int = 0
    min_effector: int = 0

    def __post_init__(self) -> None:
        if self.min_tumour not in (0, 1) or self.min_effector not in (0, 1):
            raise ConfigError(f"floors must be 0 or 1, got {self}")

    @classmethod
    def from_fix(cls, fix: str) -> "Floors":
        table = {"none": cls(0, 0), "tumour": cls(1, 0), "both": cls(1, 1)}
        try:
            return table[fix]
        except KeyError:
            raise ConfigError(f"fix must be one of {sorted(table)}, got {fix!r}") from None


def growth_channels(law: GrowthLaw) -> ChannelSet:
    """Compile a one-equation law to its two channels.

    Total birth rate is T*p(T) and total death rate T*d(T): power laws give
    a*T**(alpha+1) and b*T**(beta+1); Gompertz gives a*T and b*T*ln(T).
    The frozen-at-birth kernel keeps each agent's per-capita death rate
    b*T**(e-1), with the row's ``e - 1`` taken in double arithmetic: that is
    ``beta`` only when ``beta + 1`` rounds to no other double (``beta = 0.3``
    gives an exponent of 0.30000000000000004).
    """
    if law.kind is GrowthKind.GOMPERTZ:
        birth = RateLaw(kernels.R_POW_T, law.a, e=1.0)
        death = RateLaw(kernels.R_TLOGT, law.b)
    else:
        birth = RateLaw(kernels.R_POW_T, law.a, e=law.alpha + 1.0)
        death = RateLaw(kernels.R_POW_T, law.b, e=law.beta + 1.0)
    return ChannelSet(
        channels=(
            Channel("tumour birth", birth, (1, 0)),
            Channel("tumour death", death, (-1, 0)),
        ),
        species=("tumour",),
    )


def kuznetsov_channels(params: KuznetsovParams) -> ChannelSet:
    """Compile the tumour-effector system to its seven channels."""
    return ChannelSet(
        channels=(
            Channel("tumour birth", RateLaw(kernels.R_POW_T, params.a, e=1.0), (1, 0)),
            Channel("tumour intrinsic death", RateLaw(kernels.R_POW_T, params.a * params.b, e=2.0), (-1, 0)),
            Channel("tumour kill", RateLaw(kernels.R_MASS_TE, params.n), (-1, 0)),
            Channel("effector proliferation", RateLaw(kernels.R_MM_TE, params.p, g=params.g), (0, 1)),
            Channel("effector interaction death", RateLaw(kernels.R_MASS_TE, params.m), (0, -1)),
            Channel("effector apoptosis", RateLaw(kernels.R_LIN_E, params.d), (0, -1)),
            Channel("effector influx", RateLaw(kernels.R_CONST, params.s), (0, 1)),
        ),
        species=("tumour", "effector"),
    )


@dataclass(frozen=True)
class Ensemble:
    """Replicated stochastic runs held on one time grid, with seed provenance.

    ``values[i, j, k]`` is species k of replicate i at ``grid[j]``: the state
    held at that time, the last event at or before it.  Replicate i ran with
    seed ``base_seed + i`` and ended with ``terminations[i]``.
    """

    grid: np.ndarray
    values: np.ndarray
    species: tuple[str, ...]
    terminations: tuple[Termination, ...]
    base_seed: int

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or values.shape[1:] != (len(grid), len(self.species)):
            raise EngineError(
                f"values must be (reps, grid points, {len(self.species)} species) on a 1-D grid, "
                f"got {values.shape} on a grid of shape {grid.shape}"
            )
        if len(values) < 1:
            raise EngineError("an ensemble needs at least one replicate")
        if len(self.terminations) != len(values):
            raise EngineError(f"{len(self.terminations)} terminations for {len(values)} replicates")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class EnsembleSpec:
    """Everything one stochastic run needs, minus the seed.  Runs are exact
    unless a leap step ``dt`` is given, which tau-leaps them.  Every run rule
    is checked when the spec is built."""

    channels: ChannelSet
    initial: PopulationState
    t_end: float
    policy: RatePolicy = RatePolicy.LIVE
    floors: Floors = field(default_factory=Floors)
    dt: float | None = None

    def __post_init__(self) -> None:
        _check_run(self.channels, self.initial, self.t_end, self.policy, self.floors, self.dt)


def _check_run(channels: ChannelSet, initial: PopulationState, t_end: float, policy: RatePolicy,
               floors: Floors, dt: float | None) -> tuple[int, int]:
    """The rules of one stochastic run (tau-leaped when ``dt`` is given);
    returns the initial ``(T, E)`` as ints."""
    if not (math.isfinite(t_end) and t_end > 0):
        raise ConfigError(f"t_end must be finite and > 0, got {t_end!r}")
    if dt is not None:
        if not (math.isfinite(dt) and 0 < dt <= t_end):
            raise ConfigError(f"tau-leaping needs a positive dt no larger than t_end, got dt={dt!r}")
        if policy is not RatePolicy.LIVE:
            raise ConfigError("tau-leaping supports the live rate policy only")
    if policy is RatePolicy.FROZEN_AT_BIRTH and len(channels.species) != 1:
        raise ConfigError("the frozen-at-birth policy applies to one-species birth-death channel sets only")
    if (initial.E is None) != (len(channels.species) == 1):
        raise ConfigError(f"the initial state needs E exactly when there are two species, "
                          f"got {initial} for {channels.species}")
    T, E = initial.T, initial.E or 0.0
    if T != int(T) or E != int(E):
        raise ConfigError(f"stochastic runs need integer populations, got {initial}")
    if T < floors.min_tumour or E < floors.min_effector:
        raise ConfigError(f"initial state {initial} is below the floors {floors}")
    if max(T, E) > POPULATION_CAP:
        raise PopulationCapError(f"initial state {initial} exceeds the {POPULATION_CAP:.0e} population cap")
    return int(T), int(E)


def _check_grid(grid, t_end: float) -> np.ndarray:
    """``grid`` as contiguous float64; ConfigError unless it is 1-D, finite,
    strictly increasing, starts at 0 and ends by ``t_end``.  The one grid
    rule for recording runs and for sampling them (``stats.sample_on_grid``)."""
    try:
        grid = np.asarray(grid, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"the grid must be an array of times: {exc}") from None
    if grid.ndim != 1 or grid.size == 0:
        raise ConfigError(f"the grid must be a non-empty 1-D array, got shape {grid.shape}")
    if not np.all(np.isfinite(grid)):
        raise ConfigError("the grid must be finite")
    if grid[0] != 0.0:
        raise ConfigError(f"the grid must start at t=0, got {grid[0]:g}")
    if np.any(np.diff(grid) <= 0):
        raise ConfigError("the grid must be strictly increasing")
    if grid[-1] > t_end + 1e-9:
        raise ConfigError(f"the grid must end by t={t_end:g}, got {grid[-1]:g}")
    return np.ascontiguousarray(grid)


def _simulate(channels: ChannelSet, initial: PopulationState, t_end: float, seed: int,
              policy: RatePolicy, floors: Floors, dt: float | None, max_events: int,
              grid) -> Trajectory:
    """One replicate: tau-leaped when ``dt`` is given, else exact under
    ``policy``; the body of :func:`simulate_exact` and :func:`simulate_tau_leap`."""
    T0, E0 = _check_run(channels, initial, t_end, policy, floors, dt)
    grid = None if grid is None else _check_grid(grid, t_end)
    cap = float(POPULATION_CAP)
    try:
        if dt is not None:
            rows, status = kernels.tau_leap(
                channels.table, T0, E0, t_end, dt, seed, floors.min_tumour, floors.min_effector, cap, grid,
            )
        elif policy is RatePolicy.FROZEN_AT_BIRTH:
            rows, status = kernels.ssa_frozen(
                channels.table, T0, t_end, seed, floors.min_tumour, cap, max_events, grid,
            )
        else:
            rows, status = kernels.ssa(
                channels.table, T0, E0, t_end, seed, floors.min_tumour, floors.min_effector,
                cap, max_events, grid,
            )
    except ValueError as exc:  # a channel table the kernel refuses
        raise ConfigError(str(exc)) from exc

    rows = np.asarray(rows)
    if status == kernels.ST_CAP:
        raise PopulationCapError(
            f"population exceeded the hard cap of {POPULATION_CAP:.0e} agents (seed {seed}); "
            "this configuration is infeasible for discrete simulation"
        )
    if status == kernels.ST_MAX_EVENTS:
        # the last row holds the last sample, in grid mode too
        raise EngineError(
            f"event budget of {max_events} exhausted (seed {seed}) at t={rows[-1, 0]:.3g} "
            f"with population {rows[-1, 1]:.4g}; raise max_events, or use tau-leaping for "
            f"blow-up-scale growth (the {POPULATION_CAP:.0e} population cap still applies)"
        )
    if status == kernels.ST_BAD_RATE:
        raise EngineError(
            f"total event rate negative, infinite or nan (seed {seed}) at t={rows[-1, 0]:.3g} "
            f"with population {rows[-1, 1]:.4g}; a channel's rate law left its domain or double range"
        )
    return Trajectory(
        times=rows[:, 0] if grid is None else grid,
        states=rows[:, 1:1 + len(channels.species)],
        species=channels.species,
        termination=Termination.EXTINCT if status == kernels.ST_EXTINCT else Termination.COMPLETED,
        paradigm=Paradigm.ABS,
        seed=seed,
    )


def simulate_exact(
    channels: ChannelSet,
    initial: PopulationState,
    t_end: float,
    seed: int,
    policy: RatePolicy = RatePolicy.LIVE,
    floors: Floors = Floors(),
    max_events: int = DEFAULT_MAX_EVENTS,
    grid: np.ndarray | None = None,
) -> Trajectory:
    """Gillespie direct method: exponential waiting times from the total
    rate, channel choice proportional to rate, one sample per event plus the
    final hold at ``t_end``.

    With a ``grid`` (1-D, strictly increasing, from 0 to at most ``t_end``)
    the kernel records only the state held at each grid time, the last
    sample at or before it, so the trajectory has one row per grid point
    and costs neither time nor memory per event.
    """
    return _simulate(channels, initial, t_end, seed, policy, floors, None, max_events, grid)


def simulate_tau_leap(
    channels: ChannelSet,
    initial: PopulationState,
    t_end: float,
    dt: float,
    seed: int,
    floors: Floors = Floors(),
    grid: np.ndarray | None = None,
) -> Trajectory:
    """Poisson tau-leaping over fixed steps of ``dt`` under the live rate
    policy; any component pushed below its floor is clamped to the floor.
    One sample per leap or, with a ``grid`` (as for :func:`simulate_exact`),
    the state held at each grid time."""
    return _simulate(channels, initial, t_end, seed, RatePolicy.LIVE, floors, float(dt), 0, grid)


def run_ensemble(
    spec: EnsembleSpec, reps: int = DEFAULT_REPS, base_seed: int = 0, *, grid: np.ndarray
) -> Ensemble:
    """``reps`` independent replicates seeded ``base_seed + 0 .. reps-1``,
    recorded on ``grid`` (1-D, strictly increasing, from 0 to at most
    ``spec.t_end``).

    The kernels record each replicate only at the grid times, holding the
    last event at or before each: the values that step sampling on that grid
    (``stats.sample_on_grid``) takes from the per-event trajectory, at a cost
    per grid point instead of per event.  Replicates are independent (they
    could run concurrently); rows are ordered by replicate index either way.
    """
    if reps < 1:
        raise ConfigError(f"reps must be >= 1, got {reps}")
    grid = _check_grid(grid, spec.t_end)
    # filled in place: no per-replicate copies alive beside the array
    values = np.empty((reps, len(grid), len(spec.channels.species)))
    terminations = []
    for i in range(reps):
        seed = base_seed + i
        try:
            if spec.dt is not None:
                traj = simulate_tau_leap(
                    spec.channels, spec.initial, spec.t_end, spec.dt, seed,
                    floors=spec.floors, grid=grid,
                )
            else:
                traj = simulate_exact(
                    spec.channels, spec.initial, spec.t_end, seed,
                    policy=spec.policy, floors=spec.floors, grid=grid,
                )
        except EngineError as exc:
            raise type(exc)(f"replicate {i} (seed {seed}): {exc}") from exc
        values[i] = traj.states
        terminations.append(traj.termination)
    return Ensemble(grid=grid, values=values, species=spec.channels.species,
                    terminations=tuple(terminations), base_seed=base_seed)
