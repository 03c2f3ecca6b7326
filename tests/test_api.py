"""The public API: ``fairsubmax.__all__`` is pinned, so any growth is deliberate."""

from __future__ import annotations

import fairsubmax

PUBLIC = {
    "AuditReport",
    "ConfigError",
    "ContinuousGreedyConfig",
    "CoverageObjective",
    "DEFAULT_ENUMERATION_BUDGET",
    "DeterministicSolution",
    "EllipsoidConfig",
    "EmptyPolytope",
    "EnumerationBudgetExceeded",
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
}


def test_all_is_the_pinned_list():
    assert len(PUBLIC) == 45
    assert len(fairsubmax.__all__) == len(set(fairsubmax.__all__))
    assert set(fairsubmax.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in fairsubmax.__all__:
        assert getattr(fairsubmax, name) is not None
