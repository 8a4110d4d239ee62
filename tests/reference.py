"""Reference values the tests compare the package against: the analytic
solutions of the logistic and Gompertz laws, the ratios of the one-equation
sweep, and the linear birth-death process, whose mean is known in closed
form.  The package itself never evaluates these."""

import math

from dualsim.errors import ModelDomainError
from dualsim.kernels import R_POW_T
from dualsim.models import GrowthLaw
from dualsim.models import ChannelSet

# Ratios c = a/b used in the one-equation ratio sweep.
PAPER_RATIOS = (5.0, 2.5, 1.7, 1.25)


def linear_bd_channels(a=2.0, b=1.0):
    """Constant per-capita birth a and death b: total rates a*T and b*T, so
    the mean population is T0 * e^((a - b) t)."""
    return ChannelSet(table=((R_POW_T, a, 1.0, 0.0, 1, 0), (R_POW_T, b, 1.0, 0.0, -1, 0)), species=("tumour",))


def closed_form(law: GrowthLaw, T0: float, t: float) -> float:
    """Analytic solution of the logistic or Gompertz law, in linear scale.

    Logistic: T(t) = K*T0*e^(a t) / (K + T0*(e^(a t) - 1)) with carrying
    capacity K = a/b.  Gompertz: exp of ``closed_form_log``; returns ``inf``
    when the linear value overflows double range (use the log form for
    magnitude checks at that scale).  Von Bertalanffy has no closed form
    here and raises.
    """
    if law.kind == "gompertz":
        try:
            return math.exp(closed_form_log(law, T0, t))
        except OverflowError:
            return math.inf
    if law.kind == "logistic":
        if T0 < 0:
            raise ModelDomainError(f"T0 must be >= 0, got {T0}")
        K = law.a / law.b
        # exp(a t) can overflow; the limit is K whenever T0 > 0
        try:
            g = math.exp(law.a * t)
        except OverflowError:
            return K if T0 > 0 else 0.0
        return K * T0 * g / (K + T0 * (g - 1.0))
    raise ModelDomainError(f"no closed form for the {law.kind} law (only logistic and Gompertz)")


def closed_form_log(law: GrowthLaw, T0: float, t: float) -> float:
    """ln T(t) for the Gompertz law: ln T0 * e^(-b t) + (a/b)*(1 - e^(-b t)).

    Stays finite long after the linear value has overflowed (the asymptote
    is ln T = a/b).
    """
    if law.kind != "gompertz":
        raise ModelDomainError("log-scale closed form is for the Gompertz law")
    if T0 <= 0:
        raise ModelDomainError(f"Gompertz needs T0 > 0, got {T0}")
    decay = math.exp(-law.b * t)
    return math.log(T0) * decay + (law.a / law.b) * (1.0 - decay)
