"""Fair submodular maximization under expected-count group constraints.

The library selects sets of bounded size that maximize a monotone
submodular objective while each group's number of selected items, in
expectation over the returned solution, stays inside a per-group window.
Deterministic solvers return one near-feasible set; the randomized solver
returns an explicit distribution over sets that meets every constraint
strictly.
"""

from .detsolve import (
    ContinuousGreedyConfig,
    DeterministicSolution,
    continuous_greedy,
    fast_greedy,
    matroid_independent,
    pipage_round,
    solve_deterministic,
)
from .errors import (
    ConfigError,
    EmptyPolytope,
    EnumerationBudgetExceeded,
    FairSubmaxError,
    GroupStructureError,
    InfeasibleInstance,
    InfeasibleRelaxation,
    InvalidInstance,
    ParseError,
)
from .instance import (
    DEFAULT_ENUMERATION_BUDGET,
    GroupSpec,
    Instance,
    enumerate_feasible_sets,
    group_counts,
    load_instance,
    save_instance,
    validate,
)
from .lp import (
    FairnessPolytope,
    LinearConstraint,
    LinearProgram,
    LpSolution,
    maximize_linear,
    membership,
    polytope_linear_program,
    solve_simplex,
)
from .objectives import (
    CoverageObjective,
    EstimationConfig,
    FacilityLocationObjective,
    ModularObjective,
    ObjectiveOracle,
    oracle_from_spec,
)
from .randsolve import (
    EllipsoidConfig,
    RandomizedReport,
    SelectionDistribution,
    solve_randomized,
)
from .verify import AuditReport, audit_distribution, brute_force_lp, sample

__all__ = [
    "AuditReport",
    "ConfigError",
    "ContinuousGreedyConfig",
    "CoverageObjective",
    "DEFAULT_ENUMERATION_BUDGET",
    "DeterministicSolution",
    "EllipsoidConfig",
    "EmptyPolytope",
    "EnumerationBudgetExceeded",
    "EstimationConfig",
    "FacilityLocationObjective",
    "FairSubmaxError",
    "FairnessPolytope",
    "GroupSpec",
    "GroupStructureError",
    "InfeasibleInstance",
    "InfeasibleRelaxation",
    "Instance",
    "InvalidInstance",
    "LinearConstraint",
    "LinearProgram",
    "LpSolution",
    "ModularObjective",
    "ObjectiveOracle",
    "ParseError",
    "RandomizedReport",
    "SelectionDistribution",
    "audit_distribution",
    "brute_force_lp",
    "continuous_greedy",
    "enumerate_feasible_sets",
    "fast_greedy",
    "group_counts",
    "load_instance",
    "matroid_independent",
    "maximize_linear",
    "membership",
    "oracle_from_spec",
    "pipage_round",
    "polytope_linear_program",
    "sample",
    "save_instance",
    "solve_deterministic",
    "solve_randomized",
    "solve_simplex",
    "validate",
]
