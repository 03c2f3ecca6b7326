"""Exception types shared across the package."""


class FairSubmaxError(Exception):
    """Base class for every error raised by this library."""


class ConfigError(FairSubmaxError, ValueError):
    """A solver setting is out of range."""


class InvalidInstance(FairSubmaxError):
    """Instance data violates a structural invariant."""


class ParseError(FairSubmaxError):
    """An instance or result file could not be parsed."""


class GroupStructureError(FairSubmaxError):
    """A solver's group-structure precondition (disjoint/covering) is not met."""


class EmptyPolytope(FairSubmaxError):
    """The fairness polytope contains no points."""


class InfeasibleRelaxation(FairSubmaxError):
    """The integer-relaxed fairness constraints admit no feasible set."""


class InfeasibleInstance(FairSubmaxError):
    """No distribution over feasible sets can satisfy the fairness constraints."""


class EnumerationBudgetExceeded(FairSubmaxError):
    """Exact subset enumeration would exceed the configured budget."""
