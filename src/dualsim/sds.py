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

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ConfigError, EngineError
from .models import GrowthLaw, KuznetsovParams, PopulationState
from .ssa import _check_grid, _check_start, _check_steps
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
    """Fixed-step integration knobs, checked by the step rule tau-leaped runs
    share (``ssa._check_steps``), so that runaway configurations fail."""

    dt: float = DEFAULT_DT
    t_end: float = DEFAULT_T_END

    def __post_init__(self) -> None:
        _check_steps(self.dt, self.t_end)


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
        species: tuple[str, ...] = ("tumour",)
        _check_start(initial, species)
        alpha, beta = model.exponents or (0.0, 0.0)  # Gompertz, kernel kind 1, has none
        rows, status = kernels.rk4_growth(
            int(model.exponents is None), model.a, model.b, alpha, beta,
            initial.T, cfg.dt, cfg.t_end, grid, BLOWUP_THRESHOLD,
        )
    elif isinstance(model, KuznetsovParams):
        species = ("tumour", "effector")
        _check_start(initial, species)
        rows, status = kernels.rk4_kuznetsov(
            model.a, model.b, model.g, model.m, model.n, model.p, model.d, model.s,
            initial.T, initial.E, cfg.dt, cfg.t_end, grid, BLOWUP_THRESHOLD,
        )
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
