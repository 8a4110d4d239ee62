"""Exception types shared across the engines and the CLI."""


class DualsimError(Exception):
    """Base class for all package-specific errors."""


class ModelDomainError(DualsimError, ValueError):
    """A model or rate-law parameter lies outside its mathematical domain."""


class UnknownScenarioError(DualsimError, ValueError):
    """Requested scenario preset does not exist."""


class ConfigError(DualsimError, ValueError):
    """Invalid run configuration (bad field, violated invariant, bad file)."""


class EngineError(DualsimError, RuntimeError):
    """A simulation engine failed (not a termination flag, an actual error)."""


class PopulationCapError(EngineError):
    """A discrete population exceeded the hard cap; the run is infeasible."""
