"""Deterministic near-feasible solvers.

Two routes produce a single set whose per-group counts land within the
integer-relaxed bounds ``[floor(alpha_t), ceil(beta_t)]``:

* continuous greedy over the fairness polytope followed by three-phase
  pipage rounding, yielding a ``(1 - 1/e)^2`` factor against the optimal
  distribution value, and
* a fast greedy over the matroid formed by the rounded group caps plus the
  budget-with-floors constraint, trading the factor down to
  ``(1 - 1/e)^2 / 2``.

Both routes require disjoint groups that cover the ground set.  When both
bounds are integral the relaxed window coincides with the original one, so
the output then satisfies the fairness constraints exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .errors import ConfigError, GroupStructureError, InfeasibleRelaxation
from .instance import Instance, group_counts
from .lp import FEAS_TOL, FairnessPolytope, allocate_linear, check_nonempty
from .objectives import ExtensionEstimate, ObjectiveOracle

#: coordinates this close to 0 or 1 are snapped to the exact bound
SNAP_TOL = 1e-9


@dataclass(frozen=True)
class ContinuousGreedyConfig:
    """Iteration count of continuous greedy.

    ``delta`` defaults to ``9 n^2``.  Each round steps ``1 / delta``, so the
    final point is an average of polytope vertices and therefore stays
    inside the polytope.
    """

    delta: int | None = None

    def __post_init__(self) -> None:
        if self.delta is not None and self.delta < 1:
            raise ConfigError("delta must be at least 1")


@dataclass(frozen=True)
class PipageSwap:
    """One recorded rounding move.

    Phases 1 and 2 shift ``theta`` mass between coordinates ``i`` and ``j``
    (``chose_first`` tells which of the two candidate endpoints won);
    phase 3 lifts the single leftover coordinate ``i`` to one.
    """

    phase: int
    i: int
    j: int | None
    theta: float
    chose_first: bool
    before: ExtensionEstimate
    after: ExtensionEstimate


@dataclass
class RoundingTrace:
    swaps: list[PipageSwap] = field(default_factory=list)


@dataclass(frozen=True, eq=False)
class DeterministicSolution:
    """A selected set, its value, and rounding diagnostics."""

    set: frozenset[int]
    value: float
    trace: RoundingTrace
    fractional_value: ExtensionEstimate | None = None

    def within_relaxed_bounds(self, instance: Instance) -> bool:
        """Check |A| <= b and floor/ceil group windows."""
        if len(self.set) > instance.budget:
            return False
        counts = group_counts(instance, self.set)
        for count, g in zip(counts, instance.groups):
            if count < math.floor(g.alpha) or count > math.ceil(g.beta):
                return False
        return True


def _require_disjoint_covering(polytope: FairnessPolytope) -> None:
    if not polytope.disjoint:
        raise GroupStructureError("this solver requires pairwise disjoint groups")
    if not polytope.covering:
        raise GroupStructureError("this solver requires groups that cover every item")


def continuous_greedy(
    instance: Instance,
    oracle: ObjectiveOracle,
    cfg: ContinuousGreedyConfig | None = None,
    on_iteration: Callable[[dict], None] | None = None,
) -> np.ndarray:
    """Grow a fractional point inside the fairness polytope.

    Each round estimates the extension marginal of every item at the
    current point, maximizes that linear objective over the polytope, and
    advances by ``1 / delta`` times the resulting vertex.  The returned
    point is a convex combination of vertices, hence a polytope member.
    """
    cfg = cfg or ContinuousGreedyConfig()
    n = instance.item_count
    delta = cfg.delta if cfg.delta is not None else 9 * n * n
    step = 1.0 / delta
    polytope = FairnessPolytope.from_instance(instance)
    _require_disjoint_covering(polytope)
    check_nonempty(polytope)

    y = np.zeros(n)
    for round_index in range(delta):
        z = allocate_linear(oracle.extension_gradient(y), polytope)
        y = y + step * z
        if on_iteration is not None:
            on_iteration(
                {
                    "iteration": round_index,
                    "support": [int(i) for i in np.flatnonzero(z > FEAS_TOL)],
                    "extension_estimate": oracle.extension(np.clip(y, 0.0, 1.0)).value,
                }
            )
    return np.clip(y, 0.0, 1.0)


def _snap(y: np.ndarray) -> np.ndarray:
    snapped = y.copy()
    snapped[np.abs(snapped) <= SNAP_TOL] = 0.0
    snapped[np.abs(snapped - 1.0) <= SNAP_TOL] = 1.0
    return snapped


def _fractional(y: np.ndarray) -> list[int]:
    return [int(i) for i in np.flatnonzero((y > 0.0) & (y < 1.0))]


def _endpoints(y: np.ndarray, i: int, j: int) -> tuple[np.ndarray, float, np.ndarray, float]:
    """The two extreme points reachable by trading mass between i and j."""
    theta_a = min(1.0 - y[i], y[j])
    first = y.copy()
    if 1.0 - y[i] <= y[j]:
        first[i] = 1.0
        first[j] = y[j] - theta_a
    else:
        first[j] = 0.0
        first[i] = y[i] + theta_a
    theta_b = min(y[i], 1.0 - y[j])
    second = y.copy()
    if y[i] <= 1.0 - y[j]:
        second[i] = 0.0
        second[j] = y[j] + theta_b
    else:
        second[j] = 1.0
        second[i] = y[i] - theta_b
    return _snap(first), theta_a, _snap(second), theta_b


def pipage_round(y, instance: Instance, oracle: ObjectiveOracle) -> DeterministicSolution:
    """Round a polytope point to a set without losing extension value.

    Phase 1 pairs fractional coordinates inside each group, phase 2 pairs
    the survivors across groups, phase 3 lifts the last fractional
    coordinate to one.  Pairs are taken lowest-index-first and value ties
    resolve toward the first candidate, so the procedure is deterministic.
    Each move evaluates the extension only at its new points: the value
    before it is the previous move's ``after``, or ``fractional_value``.
    """
    polytope = FairnessPolytope.from_instance(instance)
    if not polytope.disjoint:
        raise GroupStructureError("pipage rounding requires disjoint groups")
    y = np.asarray(y, dtype=float)
    if not polytope.contains(y):
        raise ValueError("starting point is outside the fairness polytope")
    y = _snap(y)

    fractional_value = oracle.extension(y)
    trace = RoundingTrace()

    def value_now() -> ExtensionEstimate:
        return trace.swaps[-1].after if trace.swaps else fractional_value

    def swap_pair(phase: int, i: int, j: int, current: np.ndarray) -> np.ndarray:
        before = value_now()
        first, theta_a, second, theta_b = _endpoints(current, i, j)
        value_first = oracle.extension(first)
        value_second = oracle.extension(second)
        chose_first = value_first.value >= value_second.value
        chosen = first if chose_first else second
        after = value_first if chose_first else value_second
        trace.swaps.append(
            PipageSwap(phase, i, j, theta_a if chose_first else theta_b, chose_first, before, after)
        )
        return chosen

    # phase 1: inside each group until at most one fractional coordinate
    for members in polytope.memberships:
        while True:
            frac = [i for i in members if 0.0 < y[i] < 1.0]
            if len(frac) < 2:
                break
            y = swap_pair(1, frac[0], frac[1], y)

    # phase 2: across the remaining fractional coordinates
    while True:
        frac = _fractional(y)
        if len(frac) < 2:
            break
        y = swap_pair(2, frac[0], frac[1], y)

    # phase 3: lift the last fractional coordinate, if any
    frac = _fractional(y)
    if frac:
        i = frac[0]
        theta = 1.0 - y[i]
        y = y.copy()
        y[i] = 1.0
        trace.swaps.append(PipageSwap(3, i, None, theta, True, value_now(), oracle.extension(y)))

    selected = frozenset(int(i) for i in np.flatnonzero(y == 1.0))
    return DeterministicSolution(
        set=selected,
        value=oracle.evaluate(selected),
        trace=trace,
        fractional_value=fractional_value,
    )


def solve_deterministic(
    instance: Instance,
    oracle: ObjectiveOracle,
    cfg: ContinuousGreedyConfig | None = None,
    on_iteration: Callable[[dict], None] | None = None,
) -> DeterministicSolution:
    """Continuous greedy followed by pipage rounding."""
    cfg = cfg or ContinuousGreedyConfig()
    fractional = continuous_greedy(instance, oracle, cfg, on_iteration)
    return pipage_round(fractional, instance, oracle)


def matroid_independent(items: Iterable[int], instance: Instance) -> bool:
    """Independence in the rounded-caps matroid.

    A set is independent when every group count stays within
    ``ceil(beta_t)`` and the floors-or-counts sum
    ``sum_t max(floor(alpha_t), |S intersect V_t|)`` fits the budget.
    """
    counts = group_counts(instance, items)
    total = 0
    for count, g in zip(counts, instance.groups):
        if count > math.ceil(g.beta):
            return False
        total += max(math.floor(g.alpha), int(count))
    return total <= instance.budget


def fast_greedy(instance: Instance, oracle: ObjectiveOracle) -> DeterministicSolution:
    """Greedily grow a maximal independent set by marginal gain.

    Items are added (ties toward lower ids) while any feasible addition
    exists, so every group reaches its floored lower bound by maximality.
    Group counts are kept incrementally, so each pick tests every candidate
    at once against the ``matroid_independent`` rule and makes one batched
    marginal call.
    """
    polytope = FairnessPolytope.from_instance(instance)
    _require_disjoint_covering(polytope)
    floors = np.array([math.floor(g.alpha) for g in instance.groups])
    caps = np.array([math.ceil(g.beta) for g in instance.groups])
    if floors.sum() > instance.budget or any(
        f > len(g.members) for f, g in zip(floors, instance.groups)
    ):
        raise InfeasibleRelaxation("rounded fairness constraints admit no feasible set")

    group_of = polytope.matrix.argmax(axis=1)  # each item's one group
    counts = np.zeros(len(floors), dtype=int)
    member = np.zeros(instance.item_count, dtype=bool)
    while True:
        # adding one item of group t changes only term t of the floors-or-counts sum
        before = np.maximum(floors, counts)
        fits = (counts + 1 <= caps) & (
            before.sum() - before + np.maximum(floors, counts + 1) <= instance.budget
        )
        candidate = fits[group_of] & ~member
        if not candidate.any():
            break
        gains = np.where(candidate, oracle._marginals_ids(np.flatnonzero(member)), -np.inf)
        best = int(np.argmax(gains))
        if not gains[best] > -1.0:
            break
        member[best] = True
        counts[group_of[best]] += 1

    selected = frozenset(int(i) for i in np.flatnonzero(member))
    return DeterministicSolution(
        set=selected,
        value=oracle.evaluate(selected),
        trace=RoundingTrace(),
        fractional_value=None,
    )
