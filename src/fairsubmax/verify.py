"""Ground-truth oracles and solution auditing.

``brute_force_lp`` enumerates every feasible set and solves the full
distribution LP exactly over the best set of each group-count vector, which
is tractable only at desk scale but serves as the reference optimum for
every solver.  ``audit_distribution`` checks a distribution against the
fairness constraints by exact linear accounting, and ``sample`` draws
selections reproducibly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import (
    DEFAULT_ENUMERATION_BUDGET,
    Instance,
    check_enumeration_budget,
)
from .lp import FairnessPolytope
from .objectives import ObjectiveOracle
from .randsolve import SelectionDistribution, _best_per_count_vector, solve_pooled_lp

#: a distribution is feasible when no constraint is violated by more than this
AUDIT_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class AuditReport:
    """Exact accounting of a distribution against an instance."""

    feasible: bool
    expected_counts: np.ndarray
    budget_ok: bool
    max_violation: float
    value: float
    total_probability: float

    def to_json_obj(self) -> dict:
        return {
            "feasible": self.feasible,
            "expected_group_counts": [float(c) for c in self.expected_counts],
            "budget_ok": self.budget_ok,
            "max_violation": self.max_violation,
            "value": self.value,
            "total_probability": self.total_probability,
        }


def brute_force_lp(
    instance: Instance,
    oracle: ObjectiveOracle,
    enumeration_budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> tuple[SelectionDistribution, float]:
    """Exact reference solution of the distribution problem.

    Enumerates the full feasible family and keeps one column per group-count
    vector: the LP sees a set only through f(S) and its counts, so the other
    sets of a count vector are dominated.  Columns stay in
    size-then-lexicographic order, so the returned basic optimum is
    reproducible.
    """
    check_enumeration_budget(instance.item_count, instance.budget, enumeration_budget)
    matrix = FairnessPolytope.from_instance(instance).matrix
    sets, _, _ = _best_per_count_vector(oracle, matrix, instance.budget)
    return solve_pooled_lp(instance, oracle, sets)


def audit_distribution(
    distribution: SelectionDistribution,
    instance: Instance,
    oracle: ObjectiveOracle,
) -> AuditReport:
    """Check expected counts, probability mass, and set sizes; never raises."""
    counts = distribution.expected_counts(instance)
    violation = 0.0
    for count, g in zip(counts, instance.groups):
        violation = max(violation, g.alpha - count, count - g.beta)
    support_mass = sum(p for _, p in distribution.support)
    violation = max(violation, support_mass - 1.0)
    violation = max(violation, abs(distribution.total_probability - 1.0))
    budget_ok = True
    for s, p in distribution.support:
        if p < 0.0:
            violation = max(violation, -p)
        if len(s) > instance.budget:
            budget_ok = False
            violation = max(violation, float(len(s) - instance.budget))
    if distribution.residual < 0.0:
        violation = max(violation, -distribution.residual)
    return AuditReport(
        feasible=bool(violation <= AUDIT_TOL),
        expected_counts=counts,
        budget_ok=budget_ok,
        max_violation=float(violation),
        value=distribution.expected_value(oracle),
        total_probability=float(distribution.total_probability),
    )


def sample(
    distribution: SelectionDistribution,
    seed: int,
    count: int,
) -> list[frozenset[int]]:
    """Draw ``count`` independent selections by inverse CDF over the support."""
    probabilities = np.array([p for _, p in distribution.support])
    cumulative = np.cumsum(probabilities)
    draws = np.random.default_rng(seed).random(count)
    indices = np.searchsorted(cumulative, draws, side="right")
    empty: frozenset[int] = frozenset()
    sets = [s for s, _ in distribution.support]
    return [sets[i] if i < len(sets) else empty for i in indices]
