"""Deterministic engine: fixed-step ODE integration of the models.

This is the stock-and-flow side of the package: populations are continuous
stocks changed by the model's rate flows, integrated with the classic
fourth-order Runge-Kutta scheme and recorded at the times of a grid.  Runs
that would leave double range are cut short and flagged as blow-ups instead
of emitting non-finite samples; steps that would undershoot zero are locally
halved and tiny negative residues are clamped, since the dynamics themselves
preserve positivity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ConfigError, EngineError
from .models import GrowthKind, GrowthLaw, KuznetsovParams, PopulationState
from .ssa import DEFAULT_MAX_EVENTS, _check_grid
from .trajectory import Paradigm, Termination, Trajectory

__all__ = ["IntegratorConfig", "integrate"]

#: Default integration step (days): resolves the fastest scenario rate
#: constant (1.636/day) by three orders of magnitude.
DEFAULT_DT = 0.001

#: Default horizon (days).
DEFAULT_T_END = 100.0

#: Any component beyond this stops the run as a blow-up.
BLOWUP_THRESHOLD = 1e300


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integration knobs.  Requires dt <= t_end and at most
    ``DEFAULT_MAX_EVENTS`` steps, so that runaway configurations fail."""

    dt: float = DEFAULT_DT
    t_end: float = DEFAULT_T_END

    def __post_init__(self) -> None:
        for name in ("dt", "t_end"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ConfigError(f"IntegratorConfig.{name} must be finite and > 0, got {v!r}")
        if not (self.dt <= self.t_end and self.t_end / self.dt <= DEFAULT_MAX_EVENTS):
            raise ConfigError(f"need dt <= t_end and at most {DEFAULT_MAX_EVENTS:.0e} steps, "
                              f"got dt={self.dt}, t_end={self.t_end}")


def integrate(
    model: GrowthLaw | KuznetsovParams,
    initial: PopulationState,
    cfg: IntegratorConfig | None = None,
    *,
    grid: np.ndarray,
) -> Trajectory:
    """Integrate a model from ``initial`` to ``cfg.t_end``, recorded at the
    times of ``grid`` (1-D, strictly increasing, from 0 to at most ``t_end``).

    If any component would exceed ``BLOWUP_THRESHOLD`` the run stops at
    the last grid time already reached and the trajectory is flagged
    ``Termination.BLOWUP``.
    """
    cfg = cfg or IntegratorConfig()
    grid = _check_grid(grid, cfg.t_end)
    if isinstance(model, GrowthLaw):
        if initial.E is not None:
            raise ConfigError("one-equation models take a tumour-only initial state (E must be None)")
        if model.kind is GrowthKind.GOMPERTZ and initial.T <= 0:
            raise ConfigError("Gompertz growth needs T(0) > 0 (ln undefined at 0)")
        kind = 0 if model.kind is GrowthKind.POWER_LAW else 1
        rows, status = kernels.rk4_growth(
            kind, model.a, model.b, model.alpha, model.beta,
            initial.T, cfg.dt, cfg.t_end, grid, BLOWUP_THRESHOLD,
        )
        species: tuple[str, ...] = ("tumour",)
    elif isinstance(model, KuznetsovParams):
        if initial.E is None:
            raise ConfigError("the tumour-effector model needs an initial E (use PopulationState(T, E))")
        rows, status = kernels.rk4_kuznetsov(
            model.a, model.b, model.g, model.m, model.n, model.p, model.d, model.s,
            initial.T, initial.E, cfg.dt, cfg.t_end, grid, BLOWUP_THRESHOLD,
        )
        species = ("tumour", "effector")
    else:
        raise ConfigError(f"unsupported model type {type(model).__name__}")

    if status == kernels.ST_STEP_FAIL:
        raise EngineError("integration step kept undershooting zero after 40 local halvings")
    termination = Termination.BLOWUP if status == kernels.ST_BLOWUP else Termination.COMPLETED
    rows = np.asarray(rows)
    return Trajectory(
        times=rows[:, 0],
        states=rows[:, 1:1 + len(species)],
        species=species,
        termination=termination,
        paradigm=Paradigm.SDS,
    )
