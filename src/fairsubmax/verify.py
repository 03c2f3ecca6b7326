"""Ground-truth oracles and solution auditing.

``brute_force_lp`` enumerates every feasible set, keeps the best set of each
group-count vector and hands those columns to the randomized solver's master
LP, so it solves the full distribution LP exactly.  That is tractable only
at desk scale, but it serves as the reference optimum for every solver, and
it shares no pricing code with the randomized solver.
``audit_distribution`` checks a distribution against the fairness
constraints by exact linear accounting, and ``sample`` draws selections
reproducibly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleInstance
from .instance import (
    DEFAULT_ENUMERATION_BUDGET,
    Instance,
    check_enumeration_budget,
)
from .lp import FairnessPolytope
from .objectives import ObjectiveOracle
from .randsolve import SelectionDistribution, _pool_distribution, _pool_lp

#: a distribution is feasible when no constraint is violated by more than this
AUDIT_TOL = 1e-6

#: sets per chunk when gathering the group counts of many sets
_COUNT_CHUNK = 8192


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


def _row_counts(group_matrix: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Group counts of each row of a (sets, k) id array, gathered in chunks;
    sums of 0/1 entries are exact in any order."""
    counts = np.empty((ids.shape[0], group_matrix.shape[1]))
    for start in range(0, ids.shape[0], _COUNT_CHUNK):
        chunk = ids[start : start + _COUNT_CHUNK]
        counts[start : start + chunk.shape[0]] = group_matrix[chunk].sum(axis=1)
    return counts


def _best_rows(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Indices, ascending, of the best row of each distinct count row: the
    largest value, then the earliest row."""
    order = np.lexsort((np.arange(values.size), -values, *counts.T))
    ordered = counts[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return np.sort(order[first])


def _best_per_count_vector(
    oracle: ObjectiveOracle, group_matrix: np.ndarray, budget: int
) -> tuple[list[tuple[int, ...]], np.ndarray, np.ndarray]:
    """The best set of each group-count vector among all sets of at most
    ``budget`` items, as (sets, values, counts) in size-then-lexicographic
    order.

    A set enters the distribution LP only through f(S) and its counts, so
    no other set of the same count vector can be needed; ties go to the
    earliest set.  Each size is enumerated as one id array, scored with one
    batched oracle call and reduced before the next size is built.
    """
    n = group_matrix.shape[0]
    kept_ids, kept_values, kept_counts = [], [], []
    for k in range(min(budget, n) + 1):
        combos = itertools.combinations(range(n), k)
        ids = np.fromiter(itertools.chain.from_iterable(combos), dtype=np.intp)
        ids = ids.reshape(math.comb(n, k), k)
        values = oracle._evaluate_rows(ids)
        counts = _row_counts(group_matrix, ids)
        keep = _best_rows(values, counts)
        kept_ids.extend(tuple(row) for row in ids[keep].tolist())
        kept_values.append(values[keep])
        kept_counts.append(counts[keep])
    values = np.concatenate(kept_values)
    counts = np.concatenate(kept_counts)
    keep = _best_rows(values, counts)
    return [kept_ids[r] for r in keep], values[keep], counts[keep]


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
    polytope = FairnessPolytope.from_instance(instance)
    sets, values, counts = _best_per_count_vector(oracle, polytope.matrix, instance.budget)
    solution = _pool_lp(polytope, values, counts)
    if solution.status != "optimal":
        raise InfeasibleInstance("no distribution over the candidate sets is feasible")
    distribution = _pool_distribution(sets, solution)
    return distribution, distribution.expected_value(oracle)


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
