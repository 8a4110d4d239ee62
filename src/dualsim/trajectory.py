"""Trajectory container shared by both simulation paradigms."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import EngineError

__all__ = ["Termination", "Paradigm", "Trajectory"]


class Termination(enum.Enum):
    COMPLETED = "completed"
    BLOWUP = "blow-up"
    EXTINCT = "extinct"


class Paradigm(enum.Enum):
    SDS = "sds"
    ABS = "abs"


@dataclass(frozen=True)
class Trajectory:
    """A time-ordered series of population states from one simulation run.

    ``states`` has one row per sample and one column per species (in the
    order given by ``species``).  Times are strictly increasing and start at
    t = 0 with the initial condition; all values are finite and nonnegative.
    Stochastic runs carry their seed.
    """

    times: np.ndarray
    states: np.ndarray
    species: tuple[str, ...]
    termination: Termination
    paradigm: Paradigm
    seed: int | None = None

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        if states.ndim != 2 or states.shape[1] != len(self.species):
            raise EngineError(f"states must be (n samples, {len(self.species)} species), got {states.shape}")
        if times.ndim != 1 or times.shape[0] != states.shape[0]:
            raise EngineError("times and states must have matching lengths")
        if times.shape[0] == 0 or times[0] != 0.0:
            raise EngineError("a trajectory starts at t = 0 with the initial condition")
        if times.shape[0] > 1 and not np.all(np.diff(times) > 0):
            raise EngineError("sample times must be strictly increasing")
        if not np.all(np.isfinite(states)) or np.any(states < 0):
            raise EngineError("all state components must be finite and >= 0")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    @property
    def end_time(self) -> float:
        return float(self.times[-1])

    def values(self, species: str) -> np.ndarray:
        """The sampled series of one population."""
        try:
            col = self.species.index(species)
        except ValueError:
            raise KeyError(f"no species {species!r} in trajectory {self.species}") from None
        return self.states[:, col]
