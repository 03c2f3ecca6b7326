"""Randomized solver: an explicit distribution over feasible sets.

The distribution problem has one variable per feasible set, so it is solved
by column generation.  A master LP maximizes ``sum_S f(S) p_S`` over a small
pool of sets, subject to the group windows in expectation and ``sum p <= 1``
(leftover probability sits on the empty set).  Its duals price each group;
a set whose ``f(S) + sum_t |S intersect V_t| * price_t`` exceeds the dual of
the probability row by more than the tolerance joins the pool, and the loop
ends when pricing finds no such set.

Pricing is the same in every mode: a distorted greedy first, and when it
finds no improving set, a depth-first branch and bound that either finds
one or proves that none exists.  Exact mode runs the branch and bound
uncapped, so the final master is the full distribution LP's optimum up to
the tolerance; heuristic mode caps its nodes, and termination then rests on
the greedy's ``(1 - 1/e)`` guarantee.  The output is strictly feasible and
works for overlapping groups.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, EnumerationBudgetExceeded, InfeasibleInstance
from .instance import (
    DEFAULT_ENUMERATION_BUDGET,
    Instance,
    count_feasible_sets,
    group_counts,
)
from .lp import (
    FairnessPolytope,
    LinearConstraint,
    LinearProgram,
    LpSolution,
    feasible_point,
    solve_simplex,
    window_rows,
)
from .objectives import ObjectiveOracle

#: branch-and-bound node cap of each pricing search in heuristic mode
HEURISTIC_NODE_CAP = 2000

_MODES = ("exact", "heuristic", "auto")


@dataclass(frozen=True)
class EllipsoidConfig:
    """Precision and budget knobs for the randomized solver.

    ``epsilon_l`` is the reduced-cost tolerance of column generation
    (default ``1e-9 * max(1, f(V))``): a set joins the master only when it
    beats the master's dual bound by more than this.  ``max_iters`` caps the
    branch-and-bound nodes of each pricing search (default: uncapped in
    exact mode, ``HEURISTIC_NODE_CAP`` in heuristic mode).  ``oracle_mode``
    selects exact pricing, capped heuristic pricing, or automatic selection
    by the number of feasible sets; exact mode refuses instances with more
    than ``enumeration_budget`` feasible sets.  The name predates column
    generation and stays for existing callers.
    """

    epsilon_l: float | None = None
    max_iters: int | None = None
    oracle_mode: str = "auto"
    enumeration_budget: int = DEFAULT_ENUMERATION_BUDGET

    def __post_init__(self) -> None:
        if self.epsilon_l is not None and not 0 < self.epsilon_l < math.inf:
            raise ConfigError("epsilon_l must be finite and positive")
        if self.max_iters is not None and self.max_iters < 1:
            raise ConfigError("max_iters must be at least 1")
        if self.oracle_mode not in _MODES:
            raise ConfigError(f"oracle_mode must be one of {_MODES}")
        if self.enumeration_budget < 1:
            raise ConfigError("enumeration_budget must be at least 1")


@dataclass(frozen=True, eq=False)
class SelectionDistribution:
    """Sets with selection probabilities; leftover mass sits on the empty set."""

    support: tuple[tuple[frozenset[int], float], ...]
    residual: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "support",
            tuple((frozenset(s), float(p)) for s, p in self.support),
        )
        object.__setattr__(self, "residual", float(self.residual))

    @classmethod
    def from_support(cls, pairs: Iterable[tuple[Iterable[int], float]]) -> "SelectionDistribution":
        support = tuple((frozenset(s), float(p)) for s, p in pairs if p > 0.0)
        # rounding can push the support mass a few ulps past one; a mass
        # really above one still fails the audit's support-mass check
        residual = max(0.0, 1.0 - sum(p for _, p in support))
        return cls(support, residual)

    @classmethod
    def point(cls, items: Iterable[int]) -> "SelectionDistribution":
        s = frozenset(items)
        if not s:
            return cls((), 1.0)
        return cls(((s, 1.0),), 0.0)

    @property
    def total_probability(self) -> float:
        return sum(p for _, p in self.support) + self.residual

    def expected_counts(self, instance: Instance) -> np.ndarray:
        counts = np.zeros(instance.group_count)
        for s, p in self.support:
            counts += p * group_counts(instance, s)
        return counts

    def expected_value(self, oracle: ObjectiveOracle) -> float:
        value = sum(p * oracle.evaluate(s) for s, p in self.support)
        return float(value + self.residual * oracle.evaluate(()))

    def to_json_obj(self) -> dict:
        return {
            "distribution": [
                {"set": sorted(s), "prob": p} for s, p in self.support
            ],
            "residual": self.residual,
        }


@dataclass(frozen=True, eq=False)
class RandomizedReport:
    """Run diagnostics and the certified quality bound.

    ``l_star`` is the master LP's value at termination.  The counters are
    ``probes`` (master LP solves), ``iterations`` (branch-and-bound nodes),
    ``oracle_calls`` (pricing calls) and ``pool_size`` (master columns); the
    JSON keeps their historical names.
    """

    value: float
    l_star: float
    mode: str
    pool_size: int
    probes: int
    iterations: int
    oracle_calls: int
    epsilon: float
    certificate_type: str  # exact-lp | one-minus-inv-e

    def to_json_obj(self) -> dict:
        return {
            "L_star": self.l_star,
            "mode": self.mode,
            "certificate": {"type": self.certificate_type, "epsilon": self.epsilon},
            "stats": {
                "pool_size": self.pool_size,
                "probes": self.probes,
                "ellipsoid_iterations": self.iterations,
                "oracle_calls": self.oracle_calls,
            },
        }


# -- pricing ------------------------------------------------------------------


class _SeparationContext:
    """The pricing oracle of one solve: distorted greedy, then branch and bound.

    perfbench/tracer.py times ``__init__`` and ``best_set`` under these names.
    """

    def __init__(self, instance: Instance, oracle: ObjectiveOracle, cfg: EllipsoidConfig):
        self.instance = instance
        self.oracle = oracle
        self.group_matrix = FairnessPolytope.from_instance(instance).matrix
        self.value_full = oracle.evaluate(range(instance.item_count))
        self.oracle_calls = 0
        self.nodes = 0
        self.exhaustive = False  # the last call's branch and bound ran uncapped

        size = count_feasible_sets(instance.item_count, instance.budget)
        if cfg.oracle_mode == "exact" and size > cfg.enumeration_budget:
            raise EnumerationBudgetExceeded(
                f"{size} feasible sets exceed the enumeration budget of "
                f"{cfg.enumeration_budget}; consider oracle_mode='heuristic'"
            )
        self.mode = cfg.oracle_mode
        if self.mode == "auto":
            self.mode = "exact" if size <= cfg.enumeration_budget else "heuristic"
        self.node_cap = cfg.max_iters
        if self.node_cap is None and self.mode == "heuristic":
            self.node_cap = HEURISTIC_NODE_CAP

    def column(self, chosen: tuple[int, ...]) -> tuple[float, np.ndarray]:
        """f and the group counts of a sorted id tuple."""
        ids = np.array(chosen, dtype=np.intp)
        return self.oracle._evaluate_ids(ids), self.group_matrix[ids].sum(axis=0)

    def best_set(
        self, group_prices: np.ndarray, floor: float | None = None
    ) -> tuple[tuple[int, ...], float, float, np.ndarray]:
        """Maximize f(S) plus the group-priced count term over |S| <= b;
        returns (set, score, f(S), group counts).

        With a ``floor``, the greedy's set is returned when it scores above
        the floor, and otherwise the branch and bound looks for the best set
        above it, returning the greedy's set when it finds none.  Without
        one, the branch and bound maximizes from the greedy's score.
        """
        self.oracle_calls += 1
        self.exhaustive = False
        item_prices = self.group_matrix @ group_prices
        budget = min(self.instance.budget, self.instance.item_count)
        chosen = _distorted_greedy(self.oracle, item_prices, budget)
        fval, counts = self.column(chosen)
        score = fval + float(counts @ group_prices)
        if floor is not None and score > floor:
            return chosen, score, fval, counts
        found, nodes, capped = _branch_and_bound(
            self.oracle, item_prices, budget, score if floor is None else floor, self.node_cap
        )
        self.nodes += nodes
        self.exhaustive = not capped
        if found is None:
            return chosen, score, fval, counts
        fval, counts = self.column(found)
        return found, fval + float(counts @ group_prices), fval, counts


def _distorted_greedy(oracle: ObjectiveOracle, item_prices: np.ndarray, steps: int) -> tuple[int, ...]:
    """Distorted greedy for a submodular-plus-modular objective.

    Positive prices fold into the submodular part, negative prices stay
    modular; a candidate joins only when its distorted gain is positive,
    and ties go to the lowest id.  Each step makes one batched marginal call.
    """
    positive = np.maximum(item_prices, 0.0)
    negative = np.minimum(item_prices, 0.0)
    member = np.zeros(item_prices.size, dtype=bool)
    for step in range(steps):
        factor = (1.0 - 1.0 / steps) ** (steps - step - 1)
        gains = factor * (oracle._marginals_ids(np.flatnonzero(member)) + positive) + negative
        gains[member] = -np.inf
        best = int(np.argmax(gains))
        if gains[best] > 0.0:
            member[best] = True
    return tuple(int(i) for i in np.flatnonzero(member))


def _later_top_sums(gains: list[float], k: int) -> list[float]:
    """Entry j: the sum of the ``k`` largest of ``gains[j + 1:]``."""
    out = [0.0] * len(gains)
    heap: list[float] = []
    for j in range(len(gains) - 1, 0, -1):
        heapq.heappush(heap, gains[j])
        if len(heap) > k:
            heapq.heappop(heap)
        out[j - 1] = sum(heap)
    return out


def _branch_and_bound(
    oracle: ObjectiveOracle,
    item_prices: np.ndarray,
    budget: int,
    floor: float,
    node_cap: int | None,
) -> tuple[tuple[int, ...] | None, int, bool]:
    """Depth-first search for the set of at most ``budget`` items with the
    largest ``g(S) = f(S) + item_prices(S)`` above ``floor``.

    Returns (that set or None, nodes, capped).  A node is a set whose
    children add one id above its last; it makes one batched marginal call.
    By submodularity no superset of S scores above g(S) plus the top
    ``budget - |S|`` positive gains at S, so a node whose bound is at most
    the best score so far is pruned, and an item with a non-positive gain
    opens no child: every set through it scores no more without it.
    ``capped`` marks a search stopped at ``node_cap`` nodes, which proves
    nothing about the sets it did not reach.
    """
    best: tuple[int, ...] | None = None
    threshold = floor
    empty = float(oracle._evaluate_ids(np.empty(0, dtype=np.intp)))
    if empty > threshold:
        best, threshold = (), empty
    nodes = 0
    stack: list[tuple[tuple[int, ...], float, float]] = [((), empty, math.inf)]
    while stack:
        ids, score, bound = stack.pop()
        if bound <= threshold:
            continue
        if node_cap is not None and nodes >= node_cap:
            return best, nodes, True
        nodes += 1
        gains = oracle._marginals_ids(np.array(ids, dtype=np.intp)) + item_prices
        start = ids[-1] + 1 if ids else 0
        candidates = (np.flatnonzero(gains[start:] > 0.0) + start).tolist()
        positive = gains[candidates].tolist()
        room = budget - len(ids)
        if score + sum(heapq.nlargest(room, positive)) <= threshold:
            continue
        later = _later_top_sums(positive, room - 1)
        children = []
        for i, gain, rest in zip(candidates, positive, later):
            child = score + gain
            if child > threshold:
                best, threshold = ids + (i,), child
            if room > 1 and child + rest > threshold:
                children.append((ids + (i,), child, child + rest))
        stack.extend(reversed(children))  # lowest id first
    return best, nodes, False


# -- master LP ---------------------------------------------------------------


def _pool_lp(polytope: FairnessPolytope, values: np.ndarray, counts: np.ndarray) -> LpSolution:
    """max values . p  subject to the group windows on counts.T p and sum p <= 1."""
    rows = window_rows(counts, polytope.lowers, polytope.uppers)
    rows.append(LinearConstraint(np.ones(values.size), "<=", 1.0))
    return solve_simplex(LinearProgram(values, tuple(rows)))


def _pool_distribution(
    ordered: Sequence[tuple[int, ...]], solution: LpSolution
) -> SelectionDistribution:
    return SelectionDistribution.from_support(
        (ordered[k], float(p))
        for k, p in enumerate(solution.x)
        if p > 1e-12 and len(ordered[k]) > 0
    )


def _decompose_fractional(y: np.ndarray, budget: int) -> list[tuple[int, ...]]:
    """Sets of a mixture of <=budget indicators that averages to ``y``."""
    y = y.copy()
    mass = 1.0
    out: list[tuple[int, ...]] = []
    for _ in range(4 * y.size + 4):
        positive = np.flatnonzero(y > 1e-12)
        if positive.size == 0 or mass <= 1e-12:
            break
        order = positive[np.argsort(-y[positive], kind="stable")]
        selected = order[: min(budget, order.size)]
        rest = order[min(budget, order.size):]
        weight = float(y[selected].min())
        if rest.size:
            weight = min(weight, mass - float(y[rest].max()))
        weight = min(weight, mass)
        if weight <= 1e-12:
            break
        out.append(tuple(sorted(int(i) for i in selected)))
        y[selected] -= weight
        mass -= weight
    return out


def _master_loop(
    ctx: _SeparationContext,
    polytope: FairnessPolytope,
    pool: dict[tuple[int, ...], tuple[float, np.ndarray]],
    epsilon: float,
) -> tuple[list[tuple[int, ...]], LpSolution, int]:
    """Column generation over ``pool`` (set -> (f, counts)), which grows in
    place; returns the final columns, the final master solution and the
    number of master solves.

    Columns are ordered by size, then lexicographically, so that repeats
    give the same basis.  The loop ends when pricing finds no set above the
    probability row's dual plus ``epsilon``, or returns a pooled set, whose
    reduced cost can only be rounding in the master's duals.
    """
    m = polytope.group_count
    probes = 0
    while True:
        ordered = sorted(pool, key=lambda s: (len(s), s))
        values = np.array([pool[s][0] for s in ordered])
        counts = np.array([pool[s][1] for s in ordered])
        solution = _pool_lp(polytope, values, counts)
        probes += 1
        if solution.status != "optimal":
            raise InfeasibleInstance("no distribution over the candidate sets is feasible")
        duals = solution.duals
        group_prices = -(duals[0 : 2 * m : 2] + duals[1 : 2 * m : 2])
        floor = float(duals[-1]) + epsilon
        chosen, score, fval, set_counts = ctx.best_set(group_prices, floor)
        if score <= floor or chosen in pool:
            return ordered, solution, probes
        pool[chosen] = (fval, set_counts)


# perfbench/tracer.py times the master loop as randsolve.outer_search under
# this name; solve_randomized calls the loop through the module namespace
_ellipsoid_run = _master_loop


# -- end-to-end solver -------------------------------------------------------


def solve_randomized(
    instance: Instance,
    oracle: ObjectiveOracle,
    cfg: EllipsoidConfig | None = None,
) -> tuple[SelectionDistribution, RandomizedReport]:
    """Compute a strictly feasible distribution over feasible sets.

    The pool starts with the empty set, the greedy set at zero prices and a
    decomposition of one point of the fairness polytope, so the first master
    LP is feasible.  Column generation then grows it until pricing proves
    (exact mode) or the greedy fails to find (heuristic mode, or a capped
    search) an improving set.  The distribution is the final master's basic
    optimum, with leftover probability parked on the empty set.
    """
    cfg = cfg or EllipsoidConfig()
    polytope = FairnessPolytope.from_instance(instance)
    witness = feasible_point(polytope)
    if witness is None:
        raise InfeasibleInstance("no distribution can satisfy the fairness constraints")
    ctx = _SeparationContext(instance, oracle, cfg)
    epsilon = cfg.epsilon_l
    if epsilon is None:
        epsilon = 1e-9 * max(1.0, ctx.value_full)

    greedy, _, fval, counts = ctx.best_set(np.zeros(instance.group_count), -math.inf)
    pool = {(): ctx.column(()), greedy: (fval, counts)}
    for s in _decompose_fractional(witness, instance.budget):
        pool.setdefault(s, ctx.column(s))
    ordered, solution, probes = _master_loop(ctx, polytope, pool, epsilon)

    distribution = _pool_distribution(ordered, solution)
    exact = ctx.mode == "exact" and ctx.exhaustive
    report = RandomizedReport(
        value=distribution.expected_value(oracle),
        l_star=float(solution.value),
        mode=ctx.mode,
        pool_size=len(pool),
        probes=probes,
        iterations=ctx.nodes,
        oracle_calls=ctx.oracle_calls,
        epsilon=epsilon,
        certificate_type="exact-lp" if exact else "one-minus-inv-e",
    )
    return distribution, report
