"""Grid alignment, ensemble aggregation, and the rank-sum similarity test.

Everything here works on plain arrays of shape ``(len(grid), len(species))``,
columns in the order of ``species``.  The two paradigms are compared on the
stochastic ensemble's time grid: a deterministic trajectory recorded on
another grid is linearly interpolated onto it, the ensemble already holds
each replicate's state at every grid time (the right-continuous step sample,
correct for piecewise-constant counts) and is averaged across replicates,
and a two-sided Wilcoxon rank-sum (Mann-Whitney) test per population decides
whether the two series look alike; ``compare`` returns the three arrays and
the verdicts in one ``ComparisonReport``.  The test's p is exact up to
``EXACT_LIMIT`` observations in all and the normal approximation beyond: the
sample size is the only choice between the two.  A grid is valid for
sampling when ``ssa``'s rule accepts it (1-D, finite, strictly increasing,
from 0 to at most the run's end); ``compare`` also needs it uniform with at
least two points, because its report records one spacing.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError
from .models import _finite
from .ssa import Ensemble, _check_grid
from .trajectory import Paradigm, Trajectory

__all__ = [
    "WilcoxonResult",
    "ComparisonReport",
    "make_grid",
    "sample_on_grid",
    "ensemble_mean",
    "wilcoxon_ranksum",
    "compare",
    "EXACT_LIMIT",
]

#: Combined sample size up to which the rank-sum p counts the exact
#: permutation distribution; larger samples take the normal approximation.
EXACT_LIMIT = 20


def make_grid(t_end: float, spacing: float = 1.0) -> np.ndarray:
    """Uniform grid 0, spacing, 2*spacing, ... up to (and including) the last
    multiple of ``spacing`` that fits in ``t_end``; a last point that rounding
    puts past ``t_end`` is clamped to it."""
    if not (_finite(t_end) and 0 < spacing <= t_end):
        raise ConfigError(f"the grid needs a finite t_end and 0 < spacing <= t_end, "
                          f"got spacing={spacing}, t_end={t_end}")
    try:
        grid = spacing * np.arange(int(math.floor(t_end / spacing + 1e-9)) + 1)
    except (OverflowError, ValueError, MemoryError) as exc:  # more points than an int or numpy can hold
        raise ConfigError(f"a grid of {t_end / spacing + 1:.3g} points is too large to hold: {exc}") from None
    grid[-1] = min(grid[-1], t_end)
    return grid


def sample_on_grid(traj: Trajectory, grid: np.ndarray) -> np.ndarray:
    """A trajectory's states at the grid times, ``(len(grid), len(species))``.

    Stochastic (ABS) runs are step-sampled: each grid time takes the last
    sample at or before it, as piecewise-constant counts hold.  Deterministic
    (SDS) runs are linearly interpolated.  Grid times that hit a sample
    exactly, such as those of an SDS recorded on the grid, pass unchanged.
    """
    grid = _check_grid(grid, traj.end_time)
    if traj.paradigm is Paradigm.ABS:
        return traj.states[np.searchsorted(traj.times, grid, side="right") - 1]
    return np.column_stack([np.interp(grid, traj.times, column) for column in traj.states.T])


def ensemble_mean(ens: Ensemble) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise mean and unbiased variance across the replicates, each
    ``(len(ens.grid), len(ens.species))``.

    Extinct replicates hold their absorbing final state to the end of the
    grid.  A single-replicate ensemble has variance 0.
    """
    mean = ens.values.mean(axis=0)
    # var(axis=0, ddof=1) bit for bit, in 64 KiB blocks, not a copy of the values: numpy adds the squared
    # deviations in replicate order when a replicate holds two or more values, as these running block sums do
    step, ss = max(1, 8192 // mean.size), 0.0
    for start in range(0, len(ens), step):
        sq = np.square(ens.values[start:start + step] - mean)
        sq[0] += ss
        ss = sq.sum(axis=0)
    return mean, ss / max(len(ens) - 1, 1)


@dataclass(frozen=True)
class WilcoxonResult:
    """Rank-sum outcome: U statistic of the first sample, two-sided p, and
    the rejection flag h = 1 iff p < alpha."""

    U: float
    p: float
    h: int


def _ranks(x, y) -> tuple[np.ndarray, np.ndarray, int]:
    """One rank pass over the pooled samples, x first: the doubled midranks
    (exact integers), the size of each group of tied values and n1."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size == 0 or y.size == 0:
        raise ConfigError("rank-sum test needs two nonempty samples")
    pooled = np.concatenate([x, y])
    if not np.all(np.isfinite(pooled)):
        raise ConfigError("samples must be finite")
    _, inv, counts = np.unique(pooled, return_inverse=True, return_counts=True)
    # a group of c ties ending at rank r has midrank r - (c - 1) / 2
    dranks = (2 * np.cumsum(counts) - counts + 1)[inv]
    return dranks, counts, x.size


def _u_statistic(dranks: np.ndarray, n1: int) -> float:
    return float(dranks[:n1].sum()) / 2.0 - n1 * (n1 + 1) / 2.0


def _exact_p(dranks: np.ndarray, n1: int) -> float:
    """Two-sided p over the full permutation distribution of the rank sum.

    ``dranks`` are doubled midranks (integers, so the counts are exact
    integer arithmetic) with the first sample occupying the first n1
    positions.  p = P(|S - E[S]| >= |s_obs - E[S]|) over all C(n, n1)
    assignments, counted by a dynamic programme over the doubled rank sums
    instead of enumerating the assignments; exact even with ties.
    """
    n = len(dranks)
    e2 = n1 * (n + 1)  # doubled E[S] = n1 (n+1) / 2
    obs_dev = abs(int(dranks[:n1].sum()) - e2)
    # ways[k, s]: the k-subsets of the ranks seen so far with doubled sum s
    ways = np.zeros((n1 + 1, int(dranks.sum()) + 1), dtype=object)
    ways[0, 0] = 1
    for i, d in enumerate(dranks.tolist()):
        # k falls so that each rank joins a subset at most once; d >= 2
        for k in range(min(i + 1, n1), 0, -1):
            ways[k, d:] += ways[k - 1, :-d]
    sums = np.arange(ways.shape[1])
    count = int(ways[n1, np.abs(sums - e2) >= obs_dev].sum())
    return count / math.comb(n, n1)


def _normal_p(dranks: np.ndarray, counts: np.ndarray, n1: int) -> float:
    """Two-sided p from the tie-corrected normal approximation to U, with a
    0.5 continuity correction."""
    n = len(dranks)
    n2 = n - n1
    u = _u_statistic(dranks, n1)
    tie_term = float(np.sum(counts.astype(float) ** 3 - counts))
    sigma2 = (n1 * n2 / 12.0) * ((n + 1) - tie_term / (n * (n - 1.0)))
    if sigma2 <= 0.0:
        return 1.0
    z = (abs(u - n1 * n2 / 2.0) - 0.5) / math.sqrt(sigma2)
    return 1.0 if z <= 0.0 else min(math.erfc(z / math.sqrt(2.0)), 1.0)


def wilcoxon_ranksum(x, y, alpha: float = 0.05) -> WilcoxonResult:
    """Two-sided Wilcoxon rank-sum (Mann-Whitney U) test with midranks.

    Up to ``EXACT_LIMIT`` observations in all, p counts the full
    permutation distribution (exact even with ties); beyond it, p is the
    tie-corrected normal approximation with a 0.5 continuity correction.
    """
    if not (0.0 < alpha < 1.0):
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    dranks, counts, n1 = _ranks(x, y)
    if len(dranks) <= EXACT_LIMIT:
        p = _exact_p(dranks, n1)
    else:
        p = _normal_p(dranks, counts, n1)
    return WilcoxonResult(U=_u_statistic(dranks, n1), p=p, h=1 if p < alpha else 0)


@dataclass(frozen=True)
class ComparisonReport:
    """Both paradigms on one grid and a rank-sum verdict per population.

    ``sds``, ``abs_mean`` and ``abs_variance`` are ``(len(grid),
    len(species))`` arrays, columns in the order of ``species``;
    ``wilcoxon`` maps each species name to its test outcome."""

    grid: np.ndarray
    species: tuple[str, ...]
    sds: np.ndarray
    abs_mean: np.ndarray
    abs_variance: np.ndarray
    wilcoxon: dict[str, WilcoxonResult]
    metadata: dict

    def to_dict(self) -> dict:
        return {
            "grid": {
                "times": [float(t) for t in self.grid],
                "spacing": float(self.grid[1] - self.grid[0]),
            },
            "populations": {
                name: {
                    "sds": self.sds[:, k].tolist(),
                    "abs_mean": self.abs_mean[:, k].tolist(),
                    "abs_variance": self.abs_variance[:, k].tolist(),
                    "wilcoxon": asdict(self.wilcoxon[name]),
                }
                for k, name in enumerate(self.species)
            },
            "metadata": dict(self.metadata),
        }


def compare(sds_traj: Trajectory, ens: Ensemble, *, alpha: float = 0.05) -> ComparisonReport:
    """Align both paradigms on the ensemble's grid and test each population.

    ``sds`` is the deterministic run at the grid times (exact at its own
    samples, linearly interpolated between them), ``abs_mean`` and
    ``abs_variance`` are ``ensemble_mean(ens)``; each species column of
    ``sds`` is tested against the same column of ``abs_mean``.  The report's
    metadata records the protocol: alpha, the grid spacing and point count,
    the replicate count and the base seed.
    """
    species = sds_traj.species
    if ens.species != species:
        raise ConfigError(
            f"mismatched populations: deterministic run has {species}, the ensemble has {ens.species}"
        )
    grid = ens.grid
    steps = np.diff(grid)
    if len(grid) < 2 or not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
        raise ConfigError("compare needs a uniform grid of at least 2 points: the report records one spacing")
    sds = sample_on_grid(sds_traj, grid)
    mean, var = ensemble_mean(ens)
    wilcoxon = {name: wilcoxon_ranksum(sds[:, k], mean[:, k], alpha=alpha) for k, name in enumerate(species)}
    meta = {
        "alpha": alpha,
        "grid_spacing": float(grid[1] - grid[0]),
        "grid_points": int(len(grid)),
        "reps": len(ens),
        "base_seed": ens.base_seed,
        "protocol": "per population: linear-interpolated SDS series vs step-sampled ABS ensemble-mean series, two-sided rank-sum",
    }
    return ComparisonReport(grid=grid, species=species, sds=sds, abs_mean=mean, abs_variance=var,
                            wilcoxon=wilcoxon, metadata=meta)
