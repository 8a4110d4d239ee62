"""Grid alignment, ensemble aggregation, and the rank-sum similarity test.

The two paradigms are compared on a shared uniform time grid: deterministic
trajectories are linearly interpolated, event-driven trajectories are
step-sampled (right-continuous, correct for piecewise-constant counts) and
averaged across replicates, and a two-sided Wilcoxon rank-sum (Mann-Whitney)
test per population decides whether the two grid series look alike.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EngineError
from .ssa import Ensemble
from .trajectory import Trajectory

__all__ = [
    "GridSeries",
    "Interp",
    "PValueMode",
    "WilcoxonResult",
    "PopulationComparison",
    "ComparisonReport",
    "make_grid",
    "sample_on_grid",
    "ensemble_mean",
    "wilcoxon_ranksum",
    "compare",
    "EXACT_LIMIT",
]

#: Combined sample size up to which the exact permutation distribution is
#: enumerated by default.
EXACT_LIMIT = 20

# Forced exact mode beyond this is refused: C(n, n/2) explodes.
_EXACT_HARD_LIMIT = 25


class Interp(enum.Enum):
    STEP = "step"
    LINEAR = "linear"


class PValueMode(enum.Enum):
    AUTO = "auto"
    EXACT = "exact"
    NORMAL = "normal"


@dataclass(frozen=True)
class GridSeries:
    """Values on a uniform time grid, one column per population."""

    times: np.ndarray
    values: np.ndarray
    species: tuple[str, ...]

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values.reshape(-1, 1)
        if times.ndim != 1 or len(times) < 2:
            raise ConfigError("a grid series needs at least 2 grid points")
        steps = np.diff(times)
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12) or steps[0] <= 0:
            raise ConfigError("grid spacing must be constant and positive")
        if values.shape != (len(times), len(self.species)):
            raise ConfigError(
                f"values shape {values.shape} does not match {len(times)} points x {len(self.species)} species"
            )
        if not np.all(np.isfinite(values)):
            raise ConfigError("grid series values must be finite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def spacing(self) -> float:
        return float(self.times[1] - self.times[0])

    def column(self, species: str) -> np.ndarray:
        try:
            return self.values[:, self.species.index(species)]
        except ValueError:
            raise KeyError(f"no species {species!r} in {self.species}") from None


def make_grid(t_end: float, spacing: float = 1.0) -> np.ndarray:
    """Uniform grid 0, spacing, 2*spacing, ... up to (and including) the last
    multiple of ``spacing`` that fits in ``t_end``."""
    if not (spacing > 0 and t_end >= spacing):
        raise ConfigError(f"need 0 < spacing <= t_end, got spacing={spacing}, t_end={t_end}")
    n = int(math.floor(t_end / spacing + 1e-9))
    return spacing * np.arange(n + 1)


def _check_span(traj: Trajectory, grid: np.ndarray) -> None:
    if grid.size == 0:
        raise ConfigError("empty grid")
    if grid[0] < 0 or grid[-1] > traj.end_time + 1e-9:
        raise ConfigError(
            f"grid [{grid[0]}, {grid[-1]}] exceeds the trajectory span [0, {traj.end_time}]"
        )


def _step_values(traj: Trajectory, grid: np.ndarray) -> np.ndarray:
    """The states held at the grid times: the last sample at or before each."""
    _check_span(traj, grid)
    idx = np.searchsorted(traj.times, grid, side="right") - 1
    idx = np.clip(idx, 0, len(traj.times) - 1)
    return traj.states[idx, :]


def sample_on_grid(traj: Trajectory, grid: np.ndarray, interp: Interp = Interp.STEP) -> GridSeries:
    """Resample a trajectory on a grid.

    STEP holds the value of the last sample at or before each grid time
    (right-continuous piecewise-constant); LINEAR interpolates between
    samples.  Grid times that hit a sample exactly pass through unchanged.
    """
    grid = np.asarray(grid, dtype=float)
    if interp is Interp.STEP:
        values = _step_values(traj, grid)
    else:
        _check_span(traj, grid)
        values = np.column_stack(
            [np.interp(grid, traj.times, traj.states[:, k]) for k in range(traj.states.shape[1])]
        )
    return GridSeries(times=grid, values=values, species=traj.species)


def ensemble_mean(ens: Ensemble, grid: np.ndarray) -> tuple[GridSeries, GridSeries]:
    """Pointwise mean and unbiased variance across step-sampled replicates.

    Extinct replicates hold their absorbing final state to the end of the
    grid by construction (every run records its final hold sample), so all
    replicates span the grid.  A single-replicate ensemble has variance 0.
    """
    if len(ens.replicates) == 0:
        raise EngineError("empty ensemble")
    grid = np.asarray(grid, dtype=float)
    species = ens.replicates[0].species
    # filled in place: no per-replicate copies alive beside the stack
    stack = np.empty((len(ens.replicates), len(grid), len(species)))
    for i, rep in enumerate(ens.replicates):
        stack[i] = _step_values(rep, grid)
    mean = stack.mean(axis=0)
    if stack.shape[0] > 1:
        var = stack.var(axis=0, ddof=1)
    else:
        var = np.zeros_like(mean)
    return (
        GridSeries(times=grid, values=mean, species=species),
        GridSeries(times=grid, values=var, species=species),
    )


@dataclass(frozen=True)
class WilcoxonResult:
    """Rank-sum outcome: U statistic of the first sample, two-sided p, and
    the rejection flag h = 1 iff p < alpha."""

    U: float
    p: float
    h: int


def _midranks(pooled: np.ndarray) -> np.ndarray:
    order = np.argsort(pooled, kind="stable")
    svals = pooled[order]
    ranks = np.empty(len(pooled), dtype=float)
    i, n = 0, len(pooled)
    while i < n:
        j = i
        while j + 1 < n and svals[j + 1] == svals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def _exact_two_sided_p(dranks: list[int], n1: int) -> float:
    """Two-sided p over the full permutation distribution of the rank sum.

    ``dranks`` are doubled midranks (integers, so the enumeration is exact
    arithmetic) with the first sample occupying the first n1 positions.
    p = P(|S - E[S]| >= |s_obs - E[S]|) over all C(n, n1) assignments.
    """
    n = len(dranks)
    e2 = n1 * (n + 1)  # doubled E[S] = n1 (n+1) / 2
    obs_dev = abs(sum(dranks[:n1]) - e2)
    count = 0
    for comb in itertools.combinations(dranks, n1):
        if abs(sum(comb) - e2) >= obs_dev:
            count += 1
    return count / math.comb(n, n1)


def wilcoxon_ranksum(
    x,
    y,
    alpha: float = 0.05,
    mode: PValueMode = PValueMode.AUTO,
) -> WilcoxonResult:
    """Two-sided Wilcoxon rank-sum (Mann-Whitney U) test with midranks.

    EXACT enumerates the full permutation distribution (exact even with
    ties); NORMAL uses the tie-corrected normal approximation with a 0.5
    continuity correction; AUTO picks EXACT when the combined sample size is
    at most ``EXACT_LIMIT``.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size == 0 or y.size == 0:
        raise ConfigError("rank-sum test needs two nonempty samples")
    if not (0.0 < alpha < 1.0):
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    n1, n2 = x.size, y.size
    n = n1 + n2
    pooled = np.concatenate([x, y])
    if not np.all(np.isfinite(pooled)):
        raise ConfigError("samples must be finite")
    ranks = _midranks(pooled)
    s_obs = float(ranks[:n1].sum())
    u = s_obs - n1 * (n1 + 1) / 2.0
    mu = n1 * n2 / 2.0

    if mode is PValueMode.AUTO:
        mode = PValueMode.EXACT if n <= EXACT_LIMIT else PValueMode.NORMAL

    if mode is PValueMode.EXACT:
        if n > _EXACT_HARD_LIMIT:
            raise ConfigError(
                f"exact enumeration over C({n}, {n1}) arrangements is infeasible; use NORMAL"
            )
        dranks = [int(round(2.0 * r)) for r in ranks]
        p = _exact_two_sided_p(dranks, n1)
    else:
        # variance with tie correction
        _, counts = np.unique(pooled, return_counts=True)
        tie_term = float(np.sum(counts.astype(float) ** 3 - counts))
        sigma2 = (n1 * n2 / 12.0) * ((n + 1) - tie_term / (n * (n - 1.0)))
        if sigma2 <= 0.0:
            p = 1.0
        else:
            z = (abs(u - mu) - 0.5) / math.sqrt(sigma2)
            p = 1.0 if z <= 0.0 else math.erfc(z / math.sqrt(2.0))
            p = min(p, 1.0)
    return WilcoxonResult(U=u, p=p, h=1 if p < alpha else 0)


@dataclass(frozen=True)
class PopulationComparison:
    """One population's side-by-side series and its test outcome."""

    sds: np.ndarray
    abs_mean: np.ndarray
    abs_variance: np.ndarray
    wilcoxon: WilcoxonResult


@dataclass(frozen=True)
class ComparisonReport:
    """Grid-aligned deterministic vs stochastic-mean series, pointwise
    ensemble variance, and a rank-sum verdict per population."""

    grid: np.ndarray
    populations: dict[str, PopulationComparison]
    metadata: dict

    def to_dict(self) -> dict:
        return {
            "grid": {
                "times": [float(t) for t in self.grid],
                "spacing": float(self.grid[1] - self.grid[0]),
            },
            "populations": {
                name: {
                    "sds": [float(v) for v in comp.sds],
                    "abs_mean": [float(v) for v in comp.abs_mean],
                    "abs_variance": [float(v) for v in comp.abs_variance],
                    "wilcoxon": {
                        "U": comp.wilcoxon.U,
                        "p": comp.wilcoxon.p,
                        "h": comp.wilcoxon.h,
                    },
                }
                for name, comp in self.populations.items()
            },
            "metadata": dict(self.metadata),
        }


def compare(
    sds_traj: Trajectory,
    ens: Ensemble,
    grid: np.ndarray,
    alpha: float = 0.05,
    metadata: dict | None = None,
) -> ComparisonReport:
    """Align both paradigms on ``grid`` and test each population.

    The deterministic side is linearly interpolated, the stochastic side is
    the step-sampled ensemble mean; the two grid series feed the rank-sum
    test.  The protocol (grid spacing, alpha, replicate count, seeds) is
    recorded in the report metadata so results are self-describing.
    """
    species = sds_traj.species
    for rep in ens.replicates:
        if rep.species != species:
            raise ConfigError(
                f"mismatched populations: deterministic run has {species}, a replicate has {rep.species}"
            )
    grid = np.asarray(grid, dtype=float)
    sds_series = sample_on_grid(sds_traj, grid, Interp.LINEAR)
    mean_series, var_series = ensemble_mean(ens, grid)
    populations = {}
    for name in species:
        w = wilcoxon_ranksum(sds_series.column(name), mean_series.column(name), alpha=alpha)
        populations[name] = PopulationComparison(
            sds=sds_series.column(name),
            abs_mean=mean_series.column(name),
            abs_variance=var_series.column(name),
            wilcoxon=w,
        )
    meta = {
        "alpha": alpha,
        "grid_spacing": float(grid[1] - grid[0]),
        "grid_points": int(len(grid)),
        "reps": len(ens.replicates),
        "base_seed": ens.base_seed,
        "protocol": "per population: linear-interpolated SDS series vs step-sampled ABS ensemble-mean series, two-sided rank-sum",
    }
    if metadata:
        meta.update(metadata)
    return ComparisonReport(grid=grid, populations=populations, metadata=meta)
