"""Randomized solver: an explicit distribution over feasible sets.

The distribution problem has one variable per feasible set, so it is
attacked through its dual, which has ``2m + 1`` variables: a price pair
per group plus one price on the total selection probability.  A central
cut ellipsoid decides, for a candidate objective level, whether the dual
region capped at that level is empty; the separation oracle maximizes
``f(S) + sum_t |S intersect V_t| * (lower_t - upper_t)`` over sets of size
at most ``b``, either exactly or by a distorted greedy heuristic.  A set's
score depends only on ``f(S)`` and its group-count vector, so exact mode
enumerates the feasible sets once per solve (desk scale), keeps the best
set of each count vector, and prices only those.  A binary search finds
the smallest non-empty level, the violated-constraint witnesses collected
along the way form a polynomial pool of candidate sets, and one small LP
over that pool yields the final distribution.  The output is strictly
feasible and works for overlapping groups; with exact separation its value
matches the full distribution LP up to the search precision.
"""

from __future__ import annotations

import itertools
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
    feasible_point,
    solve_simplex,
    window_rows,
)
from .objectives import ObjectiveOracle

#: approximation factor carried by the heuristic separation oracle
HEURISTIC_FACTOR = 1.0 - 1.0 / math.e

_MODES = ("exact", "heuristic", "auto")

#: sets per chunk when gathering the group counts of many sets
_COUNT_CHUNK = 8192

#: a dual point violates a row when it exceeds the row by more than this
CUT_TOL = 1e-7


@dataclass(frozen=True, eq=False)
class DualPoint:
    """Dual prices: one pair per group plus the budget price."""

    lower_prices: np.ndarray
    upper_prices: np.ndarray
    budget_price: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "lower_prices", np.asarray(self.lower_prices, dtype=float))
        object.__setattr__(self, "upper_prices", np.asarray(self.upper_prices, dtype=float))
        object.__setattr__(self, "budget_price", float(self.budget_price))

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.lower_prices, self.upper_prices, [self.budget_price]])

    @classmethod
    def from_vector(cls, vec: np.ndarray) -> "DualPoint":
        m = (vec.size - 1) // 2
        return cls(vec[:m].copy(), vec[m : 2 * m].copy(), float(vec[-1]))


@dataclass(frozen=True, eq=False)
class CutRow:
    """A violated inequality ``normal . v <= rhs`` over the dual vector."""

    normal: np.ndarray
    rhs: float


@dataclass(frozen=True, eq=False)
class SeparationOutcome:
    """Either the point is inside, or a cut (with its witness set) is returned."""

    verdict: str  # inside | cut
    cut_row: CutRow | None = None
    witness: frozenset[int] | None = None


@dataclass(frozen=True)
class EllipsoidConfig:
    """Precision and budget knobs for the randomized solver.

    ``epsilon_l`` is the binary-search precision on the objective level
    (default ``1e-4 * f(V)``), ``max_iters`` the per-run iteration cap
    (default ``ceil(2 d (d+1) ln(R / CUT_TOL))``), and ``oracle_mode``
    selects exact enumeration, the greedy heuristic, or automatic selection
    by enumeration size.
    """

    epsilon_l: float | None = None
    max_iters: int | None = None
    oracle_mode: str = "auto"
    enumeration_budget: int = DEFAULT_ENUMERATION_BUDGET

    def __post_init__(self) -> None:
        if self.epsilon_l is not None and self.epsilon_l <= 0:
            raise ConfigError("epsilon_l must be positive")
        if self.max_iters is not None and self.max_iters < 1:
            raise ConfigError("max_iters must be at least 1")
        if self.oracle_mode not in _MODES:
            raise ConfigError(f"oracle_mode must be one of {_MODES}")
        if self.enumeration_budget < 1:
            raise ConfigError("enumeration_budget must be at least 1")


@dataclass(frozen=True, eq=False)
class EmptinessResult:
    """Outcome of one ellipsoid run at a fixed objective level.

    ``capped`` marks a run that stopped at its iteration cap, or after its
    one restart failed, with no cut deciding emptiness; such a run reports
    ``empty`` without proof.
    """

    empty: bool
    point: DualPoint | None
    violated: list[frozenset[int]]
    iterations: int
    capped: bool = False


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
        residual = 1.0 - sum(p for _, p in support)
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
    """Run diagnostics and the certified quality bound."""

    value: float
    l_star: float
    mode: str
    pool_size: int
    probes: int
    iterations: int
    oracle_calls: int
    epsilon: float
    certificate_type: str  # exact-lp | one-minus-inv-e | none (a probe hit its cap)
    expected_counts: np.ndarray
    dual_point: DualPoint
    scaled_dual_max_violation: float

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
                "scaled_dual_max_violation": self.scaled_dual_max_violation,
            },
        }


# -- separation machinery ---------------------------------------------------


class _SeparationContext:
    """Precomputed arrays shared by every separation call of one solve."""

    def __init__(self, instance: Instance, oracle: ObjectiveOracle, cfg: EllipsoidConfig):
        self.instance = instance
        self.oracle = oracle
        self.cfg = cfg
        n = instance.item_count
        m = instance.group_count
        self.dim = 2 * m + 1
        self.group_matrix = FairnessPolytope.from_instance(instance).matrix
        self.value_full = oracle.evaluate(range(n))
        # the dual search box: group prices up to f(V) + 1, and a budget
        # price that covers f(V) plus every group price on b items
        price_cap = self.value_full + 1.0
        self.caps = np.concatenate(
            [np.full(2 * m, price_cap), [self.value_full + instance.budget * m * price_cap]]
        )
        self.objective_row = np.concatenate(
            [-instance.alphas, instance.betas, [1.0]]
        )
        self.oracle_calls = 0

        size = count_feasible_sets(n, instance.budget)
        if cfg.oracle_mode == "exact" and size > cfg.enumeration_budget:
            raise EnumerationBudgetExceeded(
                f"{size} feasible sets exceed the enumeration budget of "
                f"{cfg.enumeration_budget}; consider oracle_mode='heuristic'"
            )
        self.mode = cfg.oracle_mode
        if self.mode == "auto":
            self.mode = "exact" if size <= cfg.enumeration_budget else "heuristic"
        if self.mode == "exact":
            self.sets, self.set_values, self.set_counts = _best_per_count_vector(
                oracle, self.group_matrix, instance.budget
            )
        else:
            self.sets = None
            self.set_values = None
            self.set_counts = None

    def best_set(self, group_prices: np.ndarray) -> tuple[tuple[int, ...], float, float, np.ndarray]:
        """Maximize f(S) plus the group-priced count term; returns
        (set, score, f(S), group counts)."""
        self.oracle_calls += 1
        if self.mode == "exact":
            scores = self.set_values + self.set_counts @ group_prices
            k = int(np.argmax(scores))  # first max: smallest size, then lexicographic
            return self.sets[k], float(scores[k]), float(self.set_values[k]), self.set_counts[k]
        item_prices = self.group_matrix @ group_prices
        chosen = _distorted_greedy(
            self.oracle, item_prices, min(self.instance.budget, self.instance.item_count)
        )
        fval = self.oracle.evaluate(chosen)
        if chosen:
            counts = self.group_matrix[list(chosen)].sum(axis=0)
            score = fval + float(item_prices[list(chosen)].sum())
        else:
            counts = np.zeros(self.instance.group_count)
            score = fval
        return chosen, score, fval, counts

    def check_point(self, vec: np.ndarray, level: float):
        """Return None when inside, else (normal, rhs, witness or None)."""
        low = np.flatnonzero(vec < -CUT_TOL)
        if low.size:
            normal = np.zeros(self.dim)
            normal[low[0]] = -1.0
            return normal, 0.0, None
        high = np.flatnonzero(vec > self.caps + CUT_TOL)
        if high.size:
            normal = np.zeros(self.dim)
            normal[high[0]] = 1.0
            return normal, float(self.caps[high[0]]), None
        if float(self.objective_row @ vec) > level + CUT_TOL:
            return self.objective_row, float(level), None
        m = self.instance.group_count
        group_prices = vec[:m] - vec[m : 2 * m]
        witness, score, fval, counts = self.best_set(group_prices)
        if score > vec[-1] + CUT_TOL:
            normal = np.concatenate([counts, -counts, [-1.0]])
            return normal, -fval, tuple(witness)
        return None


def _set_counts(
    group_matrix: np.ndarray, sets: Sequence[tuple[int, ...]], width: int
) -> np.ndarray:
    """Group counts of every set of at most ``width`` items, gathered from a
    zero-padded group matrix."""
    n, m = group_matrix.shape
    padded = np.vstack([group_matrix, np.zeros((1, m))])
    ids = np.array([s + (n,) * (width - len(s)) for s in sets], dtype=np.intp)
    return _row_counts(padded, ids.reshape(len(sets), width))


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

    A set enters both the priced argmax and the distribution LP only
    through f(S) and its counts, so no other set of the same count vector
    can win; ties go to the earliest set, the one a full first-max argmax
    would pick.  Each size is enumerated as one id array, scored with one
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


def best_augmented_set(
    oracle: ObjectiveOracle,
    instance: Instance,
    lower_prices,
    upper_prices,
    mode: str = "exact",
    enumeration_budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> tuple[frozenset[int], float]:
    """Maximize ``f(S) + sum_t |S intersect V_t| (lower_t - upper_t)``, |S| <= b.

    Items in several groups accumulate every containing group's price.
    Exact mode enumerates all feasible sets, keeps the best set of each
    group-count vector and returns the first of those with the top score;
    heuristic mode runs the distorted greedy and still reports the exact
    score of whatever it returns.
    """
    lower_prices = np.asarray(lower_prices, dtype=float)
    upper_prices = np.asarray(upper_prices, dtype=float)
    if lower_prices.size != instance.group_count or upper_prices.size != instance.group_count:
        raise ValueError("one price pair per group required")
    cfg = EllipsoidConfig(oracle_mode=mode, enumeration_budget=enumeration_budget)
    ctx = _SeparationContext(instance, oracle, cfg)
    chosen, score, _, _ = ctx.best_set(lower_prices - upper_prices)
    return frozenset(chosen), score


def separate(
    point: DualPoint,
    level: float,
    instance: Instance,
    oracle: ObjectiveOracle,
    cfg: EllipsoidConfig | None = None,
) -> SeparationOutcome:
    """Test a dual point against the level-capped dual region.

    Checks run in order: non-negativity and box rows, the objective-level
    row, then the set-generation oracle.  The first violation (beyond the
    cut tolerance) is returned as a cut.
    """
    cfg = cfg or EllipsoidConfig()
    ctx = _SeparationContext(instance, oracle, cfg)
    return _separate_with_context(ctx, point, level)


def _separate_with_context(
    ctx: _SeparationContext, point: DualPoint, level: float
) -> SeparationOutcome:
    result = ctx.check_point(point.as_vector(), level)
    if result is None:
        return SeparationOutcome("inside")
    normal, rhs, witness = result
    return SeparationOutcome(
        "cut",
        CutRow(normal, rhs),
        frozenset(witness) if witness is not None else None,
    )


# -- ellipsoid --------------------------------------------------------------


def ellipsoid_emptiness(
    level: float,
    instance: Instance,
    oracle: ObjectiveOracle,
    cfg: EllipsoidConfig | None = None,
) -> EmptinessResult:
    """Decide emptiness of the level-capped dual region inside the search box."""
    cfg = cfg or EllipsoidConfig()
    ctx = _SeparationContext(instance, oracle, cfg)
    return _ellipsoid_run(ctx, level)


def _ellipsoid_run(ctx: _SeparationContext, level: float) -> EmptinessResult:
    d = ctx.dim
    cfg = ctx.cfg
    center0 = ctx.caps / 2.0
    radius = float(np.linalg.norm(ctx.caps) / 2.0) or 1.0
    max_iters = cfg.max_iters
    if max_iters is None:
        span = max(radius / CUT_TOL, math.e)
        max_iters = math.ceil(2 * d * (d + 1) * math.log(span))

    center = center0.copy()
    shape = np.eye(d) * radius * radius
    witnesses: dict[tuple[int, ...], None] = {}
    reinitialized = False
    growth = d * d / (d * d - 1.0)

    iteration = 0
    while iteration < max_iters:
        iteration += 1
        result = ctx.check_point(center, level)
        if result is None:
            return EmptinessResult(
                False,
                DualPoint.from_vector(center),
                [frozenset(w) for w in witnesses],
                iteration,
            )
        normal, rhs, witness = result
        if witness is not None:
            witnesses.setdefault(witness)
        shaped = shape @ normal
        spread2 = float(normal @ shaped)
        if not math.isfinite(spread2) or spread2 <= 0.0:
            # shape matrix lost positive definiteness: restart once
            if reinitialized:
                break
            reinitialized = True
            center = center0.copy()
            shape = np.eye(d) * radius * radius
            continue
        spread = math.sqrt(spread2)
        depth = float(normal @ center) - rhs
        if depth > spread:
            # the cut excludes the whole ellipsoid: the region is empty
            return EmptinessResult(True, None, [frozenset(w) for w in witnesses], iteration)
        step = shaped / spread
        center = center - step / (d + 1.0)
        shape = growth * (shape - (2.0 / (d + 1.0)) * np.outer(step, step))
        shape = 0.5 * (shape + shape.T)
    return EmptinessResult(True, None, [frozenset(w) for w in witnesses], iteration, capped=True)


# -- pooled primal ----------------------------------------------------------


def solve_pooled_lp(
    instance: Instance,
    oracle: ObjectiveOracle,
    sets: Sequence[tuple[int, ...]],
) -> tuple[SelectionDistribution, float]:
    """Solve the distribution LP restricted to a pool of candidate sets."""
    ordered = sorted({tuple(sorted(s)) for s in sets}, key=lambda s: (len(s), s))
    values = np.array([oracle.evaluate(s) for s in ordered])
    polytope = FairnessPolytope.from_instance(instance)
    width = len(ordered[-1]) if ordered else 0
    counts = _set_counts(polytope.matrix, ordered, width)
    rows = window_rows(counts, polytope.lowers, polytope.uppers)
    rows.append(LinearConstraint(np.ones(len(ordered)), "<=", 1.0))
    solution = solve_simplex(LinearProgram(values, tuple(rows)))
    if solution.status != "optimal":
        raise InfeasibleInstance("no distribution over the candidate sets is feasible")
    pairs = [
        (ordered[k], float(p))
        for k, p in enumerate(solution.x)
        if p > 1e-12 and len(ordered[k]) > 0
    ]
    distribution = SelectionDistribution.from_support(pairs)
    return distribution, distribution.expected_value(oracle)


def dual_scaling_violations(
    point: DualPoint,
    sets: Sequence[tuple[int, ...]],
    instance: Instance,
    oracle: ObjectiveOracle,
    factor: float = HEURISTIC_FACTOR,
) -> np.ndarray:
    """Constraint violations of the factor-scaled dual point on a set pool.

    Scaling every price by ``1 / factor`` must keep each pooled row
    ``budget_price >= f(S) + modular term`` satisfied; the returned array
    holds the positive part of each row's violation.
    """
    price = point.lower_prices - point.upper_prices
    out = np.zeros(len(sets))
    for k, s in enumerate(sets):
        counts = group_counts(instance, s)
        lhs = factor * oracle.evaluate(s) + float(counts @ price)
        out[k] = max(0.0, lhs - point.budget_price)
    return out


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


# -- end-to-end solver -------------------------------------------------------


def solve_randomized(
    instance: Instance,
    oracle: ObjectiveOracle,
    cfg: EllipsoidConfig | None = None,
) -> tuple[SelectionDistribution, RandomizedReport]:
    """Compute a strictly feasible distribution over feasible sets.

    Binary search on the dual objective level drives repeated ellipsoid
    emptiness tests; every witness of a violated constraint joins the
    candidate pool, and the final distribution is the optimal basic
    solution of the pooled LP with leftover probability parked on the
    empty set.
    """
    cfg = cfg or EllipsoidConfig()
    witness = feasible_point(FairnessPolytope.from_instance(instance))
    if witness is None:
        raise InfeasibleInstance("no distribution can satisfy the fairness constraints")
    ctx = _SeparationContext(instance, oracle, cfg)

    epsilon = cfg.epsilon_l
    if epsilon is None:
        epsilon = max(1e-4 * ctx.value_full, 1e-12)

    m = instance.group_count
    pool: dict[tuple[int, ...], None] = {(): None}
    base_set, base_score, _, _ = ctx.best_set(np.zeros(m))
    pool.setdefault(tuple(base_set))
    for t in range(m):
        # favor each group once so its sets reach the pool early
        probe = np.zeros(m)
        probe[t] = ctx.caps[t]
        probed, _, _, _ = ctx.best_set(probe)
        pool.setdefault(tuple(probed))

    # the all-zero price point with the best unpriced score is feasible at
    # the top of the search range, so the range starts certified non-empty
    low = 0.0
    high = float(base_score)
    best_point = DualPoint(np.zeros(m), np.zeros(m), float(base_score))
    probes = 0
    iterations = 0
    capped = False
    while high - low > epsilon:
        mid = 0.5 * (low + high)
        run = _ellipsoid_run(ctx, mid)
        probes += 1
        iterations += run.iterations
        capped = capped or run.capped
        for witness in run.violated:
            pool.setdefault(tuple(sorted(witness)))
        if run.empty:
            low = mid
        else:
            high = mid
            best_point = run.point

    distribution, value = _solve_pool_with_fallback(instance, oracle, list(pool), witness)
    violations = dual_scaling_violations(best_point, list(pool), instance, oracle)
    if capped:  # an unproven "empty" may have raised low past the optimum
        certificate = "none"
    elif ctx.mode == "exact":
        certificate = "exact-lp"
    else:
        certificate = "one-minus-inv-e"
    report = RandomizedReport(
        value=value,
        l_star=high,
        mode=ctx.mode,
        pool_size=len(pool),
        probes=probes,
        iterations=iterations,
        oracle_calls=ctx.oracle_calls,
        epsilon=epsilon,
        certificate_type=certificate,
        expected_counts=distribution.expected_counts(instance),
        dual_point=best_point,
        scaled_dual_max_violation=float(violations.max(initial=0.0)),
    )
    return distribution, report


def _solve_pool_with_fallback(
    instance: Instance,
    oracle: ObjectiveOracle,
    pool: list[tuple[int, ...]],
    witness: np.ndarray,
) -> tuple[SelectionDistribution, float]:
    try:
        return solve_pooled_lp(instance, oracle, pool)
    except InfeasibleInstance:
        # the cut pool can miss sets a feasible mixture needs; decompose the
        # fractional feasibility witness into sets and retry with them added
        extra = _decompose_fractional(witness, instance.budget)
        if not extra:
            raise
        return solve_pooled_lp(instance, oracle, pool + extra)
