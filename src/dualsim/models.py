"""Model definitions: parameters, presets and their validation.

Two model families are supported:

* the three one-equation tumour growth laws of ``GROWTH_LAWS``,
  dT/dt = T * (p(T) - d(T)).  Logistic and von Bertalanffy take per-capita
  power laws p(T) = a*T**alpha, d(T) = b*T**beta with fixed exponents
  (alpha, beta) = (0, 1) and (1/3, 0); Gompertz takes p(T) = a,
  d(T) = b*ln(T).  A law is its name and the two rates, ``GrowthLaw(kind,
  a, b)``;

* the Kuznetsov tumour-effector system,
      dT/dt = a*T*(1 - b*T) - n*T*E
      dE/dt = p*T*E/(g + T) - m*T*E - d*E + s
  with four classic parameter scenarios (treatment is the constant effector
  influx s; scenario 4 has s = 0).

Everything here is immutable.  The rates are defined once, by the channel
table each model compiles to (``ssa.growth_channels``,
``ssa.kuznetsov_channels``): a checked ``ssa.ChannelSet(table, species)`` of
``(code, c, e, g, dT, dE)`` rows.  The stochastic kernels evaluate that
table, and the ODE is its drift, dX/dt = sum_k delta_k * r_k(X).  The RK4
kernels carry the drift of each model as a hand-written derivative for
speed; tests tie each backend's derivatives to the table.  A stochastic
model needs no kernel code: any table of the six rate laws runs, a power
law with other exponents among them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ModelDomainError, UnknownScenarioError

__all__ = [
    "GROWTH_LAWS",
    "GrowthLaw",
    "KuznetsovParams",
    "PopulationState",
    "scenario_preset",
    "experiment_one_law",
]

#: The one-equation laws by name: each power law's per-capita exponents
#: (alpha, beta); Gompertz has none.
GROWTH_LAWS = {"logistic": (0.0, 1.0), "bertalanffy": (1.0 / 3.0, 0.0), "gompertz": None}


def _finite(v) -> bool:
    """``math.isfinite(v)``, except that an int too large for a double is not
    finite: the one finiteness test of every checked number."""
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


@dataclass(frozen=True)
class GrowthLaw:
    """A one-equation tumour growth law: its ``kind`` (a name in
    ``GROWTH_LAWS``) and its rates ``a`` and ``b``, finite and > 0.

    The power laws have per-capita rates p(T) = a*T**alpha and
    d(T) = b*T**beta, with the kind's ``exponents`` (alpha, beta), and need
    b < a so that growth is possible.  Gompertz has p(T) = a and
    d(T) = b*ln(T), and takes any positive pair.
    """

    kind: str
    a: float
    b: float

    def __post_init__(self) -> None:
        if self.kind not in GROWTH_LAWS:
            raise ModelDomainError(f"unknown growth-law kind {self.kind!r}; valid kinds are {list(GROWTH_LAWS)}")
        if not (_finite(self.a) and _finite(self.b) and self.a > 0 and self.b > 0):
            raise ModelDomainError(f"GrowthLaw requires finite a > 0 and b > 0, got a={self.a!r}, b={self.b!r}")
        if self.exponents is not None and not self.b < self.a:
            raise ModelDomainError(f"the {self.kind} law requires 0 < b < a, got a={self.a}, b={self.b}")

    @property
    def exponents(self) -> tuple[float, float] | None:
        """The per-capita exponents (alpha, beta) of a power law; None for Gompertz."""
        return GROWTH_LAWS[self.kind]


@dataclass(frozen=True)
class KuznetsovParams:
    """Rate constants of the two-population tumour-effector system.

    Units: a, p, d are per day; b and g are in cells (b as inverse capacity);
    m, n are per cell per day; s is cells per day.
    """

    a: float
    b: float
    g: float
    m: float
    n: float
    p: float
    d: float
    s: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "g", "m", "n", "p", "d", "s"):
            v = getattr(self, name)
            if not _finite(v) or v < 0:
                raise ModelDomainError(f"KuznetsovParams.{name} must be finite and >= 0, got {v!r}")
        if self.g <= 0:
            raise ModelDomainError(f"KuznetsovParams.g must be > 0 (it divides), got {self.g}")


# Constants shared by all four scenario presets.
_SCENARIO_SHARED = dict(a=1.636, g=20.19, m=0.00311, n=1.0, p=1.131)

# Per-scenario (b, d, s); scenario 4 applies no treatment (s = 0).
_SCENARIO_TABLE = {
    1: dict(b=0.002, d=0.1908, s=0.318),
    2: dict(b=0.004, d=2.0, s=0.318),
    3: dict(b=0.002, d=0.3743, s=0.1181),
    4: dict(b=0.002, d=0.3743, s=0.0),
}


@dataclass(frozen=True)
class PopulationState:
    """Population sizes: tumour cells T and, optionally, effector cells E.

    Continuous-valued for the deterministic engine; the stochastic engine
    additionally requires integer values.  Components are never negative.
    """

    T: float
    E: float | None = None

    def __post_init__(self) -> None:
        if not _finite(self.T) or self.T < 0:
            raise ModelDomainError(f"PopulationState.T must be finite and >= 0, got {self.T!r}")
        if self.E is not None and (not _finite(self.E) or self.E < 0):
            raise ModelDomainError(f"PopulationState.E must be finite and >= 0, got {self.E!r}")


def scenario_preset(scenario: int) -> KuznetsovParams:
    """One of the four classic tumour-effector parameter scenarios."""
    try:
        row = _SCENARIO_TABLE[scenario]
    except (KeyError, TypeError):
        known = sorted(_SCENARIO_TABLE)
        raise UnknownScenarioError(f"unknown scenario {scenario!r}; valid scenarios are {known}") from None
    return KuznetsovParams(**_SCENARIO_SHARED, **row)


def experiment_one_law(kind: str, c: float) -> GrowthLaw:
    """Growth law for the ratio sweep: a = 1 and b = 1/c, with c = a/b > 1.

    ``kind`` is a name in ``GROWTH_LAWS``.  The sweep uses c in
    {5, 2.5, 1.7, 1.25}, but any c > 1 is accepted.
    """
    if not _finite(c) or c <= 1.0:
        raise ModelDomainError(f"ratio c must be > 1 (b < a is needed for growth), got {c!r}")
    return GrowthLaw(kind, 1.0, 1.0 / c)
