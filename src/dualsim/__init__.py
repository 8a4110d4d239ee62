"""dualsim: one model family, two simulation paradigms, and the statistics
to decide whether they agree.

Tumour growth laws and the Kuznetsov tumour-effector system run both as
deterministic stock-and-flow ODE integrations and as stochastic discrete
birth-death processes (exact event simulation or tau-leaping).  Each
model's rates are defined once, by the channel table it builds (its
``channels``, a ``ChannelSet``): the stochastic kernels evaluate the table,
and the ODE is the table's drift, which the RK4 kernels hand-write per model
and tests tie to the table.  Grid-aligned comparisons
with a rank-sum test quantify paradigm agreement, including the
discrete-extinction divergence and the extinction-floor fixes that
reconcile it.
"""

from .errors import (
    ConfigError,
    DualsimError,
    EngineError,
    ModelDomainError,
    PopulationCapError,
    UnknownScenarioError,
)
from .kernels import BACKEND_NAME
from .models import (
    GROWTH_LAWS,
    ChannelSet,
    GrowthLaw,
    KuznetsovParams,
    PopulationState,
    experiment_one_law,
    scenario_preset,
)
from .sds import integrate
from .ssa import (
    POPULATION_CAP,
    Ensemble,
    EnsembleSpec,
    Floors,
    RatePolicy,
    run_ensemble,
    simulate_exact,
    simulate_tau_leap,
)
from .stats import (
    ComparisonReport,
    WilcoxonResult,
    compare,
    ensemble_mean,
    make_grid,
    sample_on_grid,
    wilcoxon_ranksum,
)
from .trajectory import Paradigm, Termination, Trajectory

__version__ = "0.1.0"
