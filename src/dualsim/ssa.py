"""Stochastic engine: exact event simulation over integer populations.

This is the agent-based side of the package, realized as a continuous-time
Markov birth-death process: the agents of each population carry no state
beyond being alive (plus, under the frozen-at-birth policy, a death rate
remembered from creation), so cohort counts are distribution-equivalent to
one object per agent and scale far better.

A run is one :class:`EnsembleSpec`, checked when built, of a model's
``channels`` (a ``models.ChannelSet``): the kernels' channel table, one
``(code, c, e, g, dT, dE)`` row of rate law and integer jump per channel,
and its species, all the engine knows of the model.  ``simulate_exact``
runs a spec by the Gillespie direct method; ``simulate_tau_leap`` is the
approximate fixed-step alternative for large populations.  ``run_ensemble``
runs replicates on the spec's time grid and holds them as one
:class:`Ensemble` array.  A run that stops with every population at 0 is
extinct.  Extinction floors ("keep tumour >= 1", "keep both >= 1") are
implemented in the exact engine by zeroing the rate of any channel whose
delta would drop a floored population below its floor, which is
distributionally equivalent to vetoing and redrawing such events.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from . import kernels
from .errors import ConfigError, EngineError, PopulationCapError
from .models import ChannelSet, PopulationState, _finite
from .trajectory import Paradigm, Termination, Trajectory

__all__ = [
    "RatePolicy",
    "Floors",
    "Ensemble",
    "EnsembleSpec",
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


@dataclass(frozen=True, eq=False)
class EnsembleSpec:
    """Everything one stochastic run needs, minus the seed.  Runs are exact
    unless a leap step ``dt`` is given, which tau-leaps them.  With a
    ``grid`` (1-D, strictly increasing, from 0 to at most ``t_end``) a run
    records only the state held at each grid time; without one it records
    every event; a run's termination describes it up to ``t_end`` either
    way.  Every run rule is checked when the spec is built, and the grid is
    held as a read-only float64 copy."""

    channels: ChannelSet
    initial: PopulationState
    t_end: float
    policy: RatePolicy = RatePolicy.LIVE
    floors: Floors = field(default_factory=Floors)
    dt: float | None = None
    grid: np.ndarray | None = None
    # the grid the kernels record on: ``grid``, and ``t_end`` if it stops short, so
    # that their last row is where the run ended
    _kernel_grid: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        channels, initial, t_end, policy, dt = self.channels, self.initial, self.t_end, self.policy, self.dt
        _check_steps(dt, t_end, exact=dt is None)
        if dt is not None and policy is not RatePolicy.LIVE:
            raise ConfigError("tau-leaping supports the live rate policy only")
        table = channels.table
        if policy is RatePolicy.FROZEN_AT_BIRTH and not (
            len(channels.species) == 1 and len(table) == 2
            and table[0][0] == kernels.R_POW_T and table[0][4:] == (1, 0)
            and table[1][0] in (kernels.R_POW_T, kernels.R_TLOGT) and table[1][4:] == (-1, 0)
        ):
            raise ConfigError("the frozen-at-birth policy needs a one-species birth-death channel set: a birth "
                              "row of code 1 and jump (1, 0), then a death row of code 1 or 2 and jump (-1, 0)")
        _check_start(initial, channels.species)
        T, E = initial.T, initial.E or 0.0
        if T != int(T) or E != int(E):
            raise ConfigError(f"stochastic runs need integer populations, got {initial}")
        if T < self.floors.min_tumour or E < self.floors.min_effector:
            raise ConfigError(f"initial state {initial} is below the floors {self.floors}")
        if max(T, E) > POPULATION_CAP:
            raise PopulationCapError(f"initial state {initial} exceeds the {POPULATION_CAP:.0e} population cap")
        if self.grid is not None:
            grid = np.array(_check_grid(self.grid, t_end))
            grid.flags.writeable = False
            object.__setattr__(self, "grid", grid)
            object.__setattr__(self, "_kernel_grid", grid if grid[-1] >= t_end else np.append(grid, t_end))

    def values_shape(self, reps: int) -> tuple[int, int, int]:
        """``(reps, len(grid), species)``: the shape of ``reps`` replicates'
        values on the grid.  ConfigError unless ``reps >= 1``, the spec has a
        grid and the values fit in the bytes numpy can index, so a run can be
        refused before anything runs."""
        if reps < 1:
            raise ConfigError(f"reps must be >= 1, got {reps}")
        if self.grid is None:
            raise ConfigError("an ensemble is recorded on a grid: build the spec with one")
        shape = (reps, len(self.grid), len(self.channels.species))
        if math.prod(shape) * np.dtype(float).itemsize > np.iinfo(np.intp).max:  # numpy's bound
            raise ConfigError(f"{reps} replicates of {len(self.grid)} grid points are too many to hold")
        return shape


def _check_steps(dt: float | None, t_end: float, *, exact: bool = False) -> None:
    """The one step rule (``sds.integrate``, ``EnsembleSpec``): ConfigError unless ``t_end`` and a step
    ``dt`` (none if ``exact``) are finite reals > 0, ``dt <= t_end`` and ``t_end / dt <= DEFAULT_MAX_EVENTS``."""
    for name, v in (("t_end", t_end),) if exact else (("dt", dt), ("t_end", t_end)):
        if not (isinstance(v, Real) and _finite(v) and v > 0):
            raise ConfigError(f"{name} must be finite and > 0, got {v!r}")
    if not (exact or dt <= t_end and t_end / dt <= DEFAULT_MAX_EVENTS):
        raise ConfigError(f"need dt <= t_end and at most {DEFAULT_MAX_EVENTS:.0e} steps, got dt={dt}, t_end={t_end}")


def _check_start(initial: PopulationState, species: tuple[str, ...]) -> None:
    """The one start rule, of both paradigms: E is given exactly when there are two species."""
    if (initial.E is None) != (len(species) == 1):
        raise ConfigError(f"the initial state needs E exactly when there are two species, got {initial} for {species}")


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


def _simulate(spec: EnsembleSpec, seed: int) -> Trajectory:
    """One replicate of a checked ``spec``: the body of :func:`simulate_exact`
    and :func:`simulate_tau_leap`."""
    table, floors, grid = spec.channels.table, spec.floors, spec._kernel_grid
    T0, E0, t_end = spec.initial.T, spec.initial.E or 0, spec.t_end
    cap, max_events = float(POPULATION_CAP), DEFAULT_MAX_EVENTS
    if spec.dt is not None:
        rows, status = kernels.tau_leap(
            table, T0, E0, t_end, spec.dt, seed, floors.min_tumour, floors.min_effector, cap, grid,
        )
    elif spec.policy is RatePolicy.FROZEN_AT_BIRTH:
        rows, status = kernels.ssa_frozen(table, T0, t_end, seed, floors.min_tumour, cap, max_events, grid)
    else:
        rows, status = kernels.ssa(
            table, T0, E0, t_end, seed, floors.min_tumour, floors.min_effector, cap, max_events, grid,
        )

    rows = np.asarray(rows)
    t, T, E = rows[-1].tolist()  # the last sample, in grid mode too, since the kernel grid reaches t_end
    if status == kernels.ST_CAP:
        raise PopulationCapError(
            f"population exceeded the hard cap of {POPULATION_CAP:.0e} agents (seed {seed}); "
            "this configuration is infeasible for discrete simulation"
        )
    if status in (kernels.ST_MAX_EVENTS, kernels.ST_BAD_RATE):
        at = f"(seed {seed}) at t={t:.3g} with population " + (
            f"{T:.4g}" if len(spec.channels.species) == 1 else f"T={T:.4g}, E={E:.4g}")
        if status == kernels.ST_MAX_EVENTS:
            raise EngineError(f"event budget of {max_events} exhausted {at}; use tau-leaping for blow-up-scale "
                              f"growth (the {POPULATION_CAP:.0e} population cap still applies)")
        raise EngineError(f"total event rate negative, infinite or nan {at}; "
                          "a channel's rate law left its domain or double range")
    # status 2 means that no event can fire; the run is extinct only if every population is 0
    extinct = status == kernels.ST_EXTINCT and T == 0.0 and E == 0.0
    times = rows[:, 0] if grid is None else spec.grid
    return Trajectory(
        times=times,
        states=rows[:len(times), 1:1 + len(spec.channels.species)],
        species=spec.channels.species,
        termination=Termination.EXTINCT if extinct else Termination.COMPLETED,
        paradigm=Paradigm.ABS,
        seed=seed,
    )


def simulate_exact(spec: EnsembleSpec, seed: int) -> Trajectory:
    """One exact replicate of ``spec`` (which has no ``dt``) by the
    Gillespie direct method: exponential waiting times from the total rate,
    channel choice proportional to rate, one sample per event plus the final
    hold at ``t_end``.  At most ``DEFAULT_MAX_EVENTS`` events fire.

    With a grid in the spec the kernel records only the state held at each
    grid time, the last sample at or before it, so the trajectory has one
    row per grid point and costs neither time nor memory per event.
    """
    if spec.dt is not None:
        raise ConfigError("a spec with a leap step dt runs by simulate_tau_leap")
    return _simulate(spec, seed)


def simulate_tau_leap(spec: EnsembleSpec, seed: int) -> Trajectory:
    """One Poisson tau-leaped replicate of ``spec``, over fixed steps of
    ``spec.dt`` under the live rate policy; any component pushed below its
    floor is clamped to the floor.  One sample per leap or, with a grid in
    the spec (as for :func:`simulate_exact`), the state held at each grid
    time."""
    if spec.dt is None:
        raise ConfigError("tau-leaping needs a spec with a leap step dt; simulate_exact runs the others")
    return _simulate(spec, seed)


def run_ensemble(spec: EnsembleSpec, reps: int = DEFAULT_REPS, base_seed: int = 0) -> Ensemble:
    """``reps`` independent replicates of ``spec`` seeded ``base_seed + 0 ..
    reps-1``, recorded on the spec's grid, which an ensemble needs.

    The kernels record each replicate only at the grid times, holding the
    last event at or before each: the values that step sampling on that grid
    (``stats.sample_on_grid``) takes from the per-event trajectory, at a cost
    per grid point instead of per event.  Replicates are independent (they
    could run concurrently); rows are ordered by replicate index either way.
    """
    values = np.empty(spec.values_shape(reps))  # filled in place: no per-replicate copies beside it
    simulate = simulate_exact if spec.dt is None else simulate_tau_leap
    terminations = []
    for i in range(reps):
        seed = base_seed + i
        try:
            traj = simulate(spec, seed)
        except EngineError as exc:
            raise type(exc)(f"replicate {i} (seed {seed}): {exc}") from exc
        values[i] = traj.states
        terminations.append(traj.termination)
    return Ensemble(grid=spec.grid, values=values, species=spec.channels.species,
                    terminations=tuple(terminations), base_seed=base_seed)
