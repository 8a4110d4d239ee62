"""Model definitions: parameters, presets and their validation.

Two model families are supported:

* one-equation tumour growth laws, dT/dt = T * (p(T) - d(T)), where the
  per-capita proliferation and death terms are power laws p(T) = a*T**alpha,
  d(T) = b*T**beta (logistic: alpha=0, beta=1; von Bertalanffy: alpha=1/3,
  beta=0) or the Gompertz pair p(T) = a, d(T) = b*ln(T);

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
model needs no kernel code: any table of the six rate laws runs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import ModelDomainError, UnknownScenarioError

__all__ = [
    "GrowthKind",
    "GrowthLaw",
    "KuznetsovParams",
    "PopulationState",
    "VON_BERTALANFFY_ALPHA",
    "scenario_preset",
    "experiment_one_law",
]

VON_BERTALANFFY_ALPHA = 1.0 / 3.0


class GrowthKind(enum.Enum):
    POWER_LAW = "power-law"
    GOMPERTZ = "gompertz"


@dataclass(frozen=True)
class GrowthLaw:
    """A one-equation tumour growth rule.

    For POWER_LAW the per-capita rates are p(T) = a*T**alpha and
    d(T) = b*T**beta.  For GOMPERTZ they are p(T) = a and d(T) = b*ln(T);
    alpha and beta are ignored.
    """

    kind: GrowthKind
    a: float
    b: float
    alpha: float = 0.0
    beta: float = 1.0

    def __post_init__(self) -> None:
        for name in ("a", "b", "alpha", "beta"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ModelDomainError(f"GrowthLaw.{name} must be finite, got {v!r}")
        if self.a <= 0 or self.b <= 0:
            raise ModelDomainError(f"GrowthLaw requires a > 0 and b > 0, got a={self.a}, b={self.b}")
        if self.kind is GrowthKind.POWER_LAW and (self.alpha < 0 or self.beta < 0):
            raise ModelDomainError("power-law exponents must be >= 0")

    @classmethod
    def logistic(cls, a: float, b: float) -> "GrowthLaw":
        """Logistic law: alpha=0, beta=1. Requires b < a so growth is possible."""
        _require_growth(a, b, "logistic")
        return cls(GrowthKind.POWER_LAW, a, b, alpha=0.0, beta=1.0)

    @classmethod
    def von_bertalanffy(cls, a: float, b: float) -> "GrowthLaw":
        """Von Bertalanffy law: alpha=1/3, beta=0. Requires b < a."""
        _require_growth(a, b, "von Bertalanffy")
        return cls(GrowthKind.POWER_LAW, a, b, alpha=VON_BERTALANFFY_ALPHA, beta=0.0)

    @classmethod
    def gompertz(cls, a: float, b: float) -> "GrowthLaw":
        """Gompertz law: p = a, d = b*ln(T). Only a, b > 0 is enforced."""
        return cls(GrowthKind.GOMPERTZ, a, b)


def _require_growth(a: float, b: float, label: str) -> None:
    if not (0 < b < a):
        raise ModelDomainError(f"{label} preset requires 0 < b < a, got a={a}, b={b}")


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
            if not math.isfinite(v) or v < 0:
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
        if not math.isfinite(self.T) or self.T < 0:
            raise ModelDomainError(f"PopulationState.T must be finite and >= 0, got {self.T!r}")
        if self.E is not None and (not math.isfinite(self.E) or self.E < 0):
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

    ``kind`` is one of "logistic", "bertalanffy", "gompertz".  The sweep uses
    c in {5, 2.5, 1.7, 1.25}, but any c > 1 is accepted.
    """
    if not math.isfinite(c) or c <= 1.0:
        raise ModelDomainError(f"ratio c must be > 1 (b < a is needed for growth), got {c!r}")
    a, b = 1.0, 1.0 / c
    if kind == "logistic":
        return GrowthLaw.logistic(a, b)
    if kind == "bertalanffy":
        return GrowthLaw.von_bertalanffy(a, b)
    if kind == "gompertz":
        return GrowthLaw.gompertz(a, b)
    raise ModelDomainError(f"unknown growth-law kind {kind!r}")
