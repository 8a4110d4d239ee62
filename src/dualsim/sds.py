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

import numpy as np

from . import kernels
from .errors import ConfigError, EngineError
from .models import GrowthLaw, KuznetsovParams, PopulationState
from .ssa import _check_grid, _check_start, _check_steps
from .trajectory import Paradigm, Termination, Trajectory

__all__ = ["integrate"]

#: Any component beyond this stops the run as a blow-up.
BLOWUP_THRESHOLD = 1e300


def integrate(
    model: GrowthLaw | KuznetsovParams,
    initial: PopulationState,
    *,
    dt: float,
    t_end: float,
    grid: np.ndarray,
) -> Trajectory:
    """Integrate a model from ``initial`` to ``t_end`` in steps of ``dt``,
    recorded at the times of ``grid`` (1-D, strictly increasing, from 0 to at
    most ``t_end``).  The step rule (``ssa._check_steps``), the grid rule and
    the start rule are checked first, in that order.

    If any component would exceed ``BLOWUP_THRESHOLD`` the run stops at
    the last grid time already reached and the trajectory is flagged
    ``Termination.BLOWUP``.
    """
    _check_steps(dt, t_end)
    grid = _check_grid(grid, t_end)
    if not isinstance(model, (GrowthLaw, KuznetsovParams)):
        raise ConfigError(f"unsupported model type {type(model).__name__}")
    _check_start(initial, model.species)
    if isinstance(model, GrowthLaw):
        alpha, beta = model.exponents or (0.0, 0.0)  # Gompertz, kernel kind 1, has none
        rows, status = kernels.rk4_growth(
            int(model.exponents is None), model.a, model.b, alpha, beta,
            initial.T, dt, t_end, grid, BLOWUP_THRESHOLD,
        )
    else:
        rows, status = kernels.rk4_kuznetsov(
            model.a, model.b, model.g, model.m, model.n, model.p, model.d, model.s,
            initial.T, initial.E, dt, t_end, grid, BLOWUP_THRESHOLD,
        )

    if status == kernels.ST_STEP_FAIL:
        raise EngineError("integration step kept undershooting zero after 40 local halvings")
    termination = Termination.BLOWUP if status == kernels.ST_BLOWUP else Termination.COMPLETED
    rows = np.asarray(rows)
    return Trajectory(
        times=rows[:, 0],
        states=rows[:, 1:1 + len(model.species)],
        species=model.species,
        termination=termination,
        paradigm=Paradigm.SDS,
    )
