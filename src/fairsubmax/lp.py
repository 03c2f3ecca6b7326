"""Linear-programming kernel.

Two solvers live here: a dense two-phase tableau simplex with Bland's rule
for small general LPs, and a direct greedy allocation that maximizes a
non-negative linear objective over the fairness polytope when the groups
are disjoint and cover the ground set.  The greedy is the hot path of the
continuous greedy solver; its optimality is cross-checked against the
simplex by the test suite.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import EmptyPolytope, GroupStructureError

if TYPE_CHECKING:  # pragma: no cover
    from .instance import Instance

logger = logging.getLogger(__name__)

#: feasibility tolerance used throughout the kernel
FEAS_TOL = 1e-9

_SENSES = ("<=", ">=", "==")


@dataclass(frozen=True, eq=False)
class LinearConstraint:
    """One row ``coeffs . x  <sense>  rhs`` of a linear program."""

    coeffs: np.ndarray
    sense: str
    rhs: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))
        object.__setattr__(self, "rhs", float(self.rhs))
        if self.sense not in _SENSES:
            raise ValueError(f"unknown constraint sense {self.sense!r}")
        if not np.all(np.isfinite(self.coeffs)) or not math.isfinite(self.rhs):
            raise ValueError("constraint coefficients must be finite")


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """Maximize ``objective . x`` subject to rows and ``x >= 0``.

    Variable caps such as ``x_j <= 1`` are ordinary rows.
    """

    objective: np.ndarray
    constraints: tuple[LinearConstraint, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "objective", np.asarray(self.objective, dtype=float))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        n = self.objective.size
        for k, row in enumerate(self.constraints):
            if row.coeffs.size != n:
                raise ValueError(f"constraint {k} has {row.coeffs.size} coefficients, expected {n}")


@dataclass(frozen=True, eq=False)
class LpSolution:
    """Solver outcome; ``x``/``value``/``duals`` are None unless optimal."""

    status: str  # optimal | infeasible | unbounded
    x: np.ndarray | None = None
    value: float | None = None
    duals: np.ndarray | None = None


def solve_simplex(lp: LinearProgram) -> LpSolution:
    """Solve a small dense LP exactly (two-phase tableau, Bland's rule).

    Returns primal values, objective value and one dual multiplier per
    constraint row.  Duals follow the max-LP convention: ``>= 0``
    for ``<=`` rows, ``<= 0`` for ``>=`` rows, free for equalities.
    """
    c = np.asarray(lp.objective, dtype=float)
    nvar = c.size
    rows = lp.constraints
    m = len(rows)
    A = np.array([row.coeffs for row in rows], dtype=float).reshape(m, nvar)
    rhs = np.array([row.rhs for row in rows], dtype=float)
    senses = [row.sense for row in rows]

    flipped = rhs < 0
    for i in np.flatnonzero(flipped):
        A[i] = -A[i]
        rhs[i] = -rhs[i]
        if senses[i] == "<=":
            senses[i] = ">="
        elif senses[i] == ">=":
            senses[i] = "<="

    n_slack = sum(1 for s in senses if s != "==")
    n_art = sum(1 for s in senses if s != "<=")
    ncols = nvar + n_slack + n_art
    T = np.zeros((m, ncols + 1))
    T[:, :nvar] = A
    T[:, -1] = rhs

    basis = np.full(m, -1, dtype=int)
    col = nvar
    for i, sense in enumerate(senses):
        if sense == "<=":
            T[i, col] = 1.0
            basis[i] = col
            col += 1
        elif sense == ">=":
            T[i, col] = -1.0
            col += 1
    art_cols = []
    for i, sense in enumerate(senses):
        if sense != "<=":
            T[i, col] = 1.0
            basis[i] = col
            art_cols.append(col)
            col += 1
    art_mask = np.zeros(ncols, dtype=bool)
    art_mask[art_cols] = True
    columns_snapshot = T[:, :-1].copy()  # pre-pivot columns, used for duals

    if art_cols:
        phase1 = np.zeros(ncols)
        phase1[art_cols] = -1.0
        _pivot_loop(T, basis, phase1, allowed=np.ones(ncols, dtype=bool))
        infeas = -float(phase1[basis] @ T[:, -1])
        if infeas > 1e-8 * max(1.0, float(np.abs(rhs).max(initial=0.0))):
            return LpSolution("infeasible")
        # drive artificials out of the basis; all-zero rows are redundant
        for i in range(m):
            if art_mask[basis[i]]:
                candidates = np.flatnonzero(~art_mask & (np.abs(T[i, :-1]) > FEAS_TOL))
                if candidates.size:
                    _pivot(T, basis, i, int(candidates[0]))

    objective = np.zeros(ncols)
    objective[:nvar] = c
    status = _pivot_loop(T, basis, objective, allowed=~art_mask)
    if status == "unbounded":
        return LpSolution("unbounded")

    full = np.zeros(ncols)
    full[basis] = np.maximum(T[:, -1], 0.0)
    x = full[:nvar]
    value = float(c @ x)

    basis_matrix = columns_snapshot[:, basis]
    try:
        duals = np.linalg.solve(basis_matrix.T, objective[basis])
    except np.linalg.LinAlgError:
        duals = np.linalg.lstsq(basis_matrix.T, objective[basis], rcond=None)[0]
    duals[flipped] = -duals[flipped]
    return LpSolution("optimal", x, value, duals)


def _pivot_loop(T: np.ndarray, basis: np.ndarray, objective: np.ndarray, allowed: np.ndarray) -> str:
    m = basis.size
    while True:
        reduced = objective[basis] @ T[:, :-1] - objective
        entering = np.flatnonzero(allowed & (reduced < -FEAS_TOL))
        if entering.size == 0:
            return "optimal"
        j = int(entering[0])  # Bland: lowest eligible index
        column = T[:, j]
        positive = column > FEAS_TOL
        if not positive.any():
            return "unbounded"
        ratios = np.full(m, np.inf)
        ratios[positive] = T[positive, -1] / column[positive]
        best = float(ratios.min())
        ties = np.flatnonzero(ratios <= best + FEAS_TOL * (1.0 + abs(best)))
        leave = int(ties[np.argmin(basis[ties])])  # Bland: lowest basis index
        _pivot(T, basis, leave, j)


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


@dataclass(eq=False)
class FairnessPolytope:
    """Fractional points respecting group bounds and the shared budget.

    The defining constraints are ``alpha_t <= sum_{i in V_t} y_i <= beta_t``
    per group, the budget row ``sum_i y_i <= b`` (each item counts once,
    whatever groups it is in), and the box ``0 <= y <= 1``.  ``matrix`` is
    the (items x groups) 0/1 membership matrix every group count is read
    from.
    """

    item_count: int
    memberships: tuple[tuple[int, ...], ...]
    lowers: np.ndarray
    uppers: np.ndarray
    budget: int

    def __post_init__(self) -> None:
        self.memberships = tuple(tuple(sorted(g)) for g in self.memberships)
        self.lowers = np.asarray(self.lowers, dtype=float)
        self.uppers = np.asarray(self.uppers, dtype=float)
        self.matrix = np.zeros((self.item_count, len(self.memberships)))
        for t, members in enumerate(self.memberships):
            self.matrix[list(members), t] = 1.0
        groups_per_item = self.matrix.sum(axis=1)
        self.disjoint = bool(np.all(groups_per_item <= 1.0))
        self.covering = bool(np.all(groups_per_item >= 1.0))

    @classmethod
    def from_instance(cls, instance: "Instance") -> "FairnessPolytope":
        return cls(
            item_count=instance.item_count,
            memberships=tuple(tuple(sorted(g.members)) for g in instance.groups),
            lowers=instance.alphas,
            uppers=instance.betas,
            budget=instance.budget,
        )

    @property
    def group_count(self) -> int:
        return len(self.memberships)

    def group_sums(self, y: np.ndarray) -> np.ndarray:
        return np.asarray(y, dtype=float) @ self.matrix

    def contains(self, y, tol: float = FEAS_TOL) -> bool:
        """Membership test for the polytope, within ``tol`` per constraint."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.item_count,):
            return False
        if np.any(y < -tol) or np.any(y > 1.0 + tol):
            return False
        sums = self.group_sums(y)
        if np.any(sums < self.lowers - tol) or np.any(sums > self.uppers + tol):
            return False
        return float(y.sum()) <= self.budget + tol


def membership(y, polytope: FairnessPolytope, tol: float = FEAS_TOL) -> bool:
    """Return True iff ``y`` satisfies every polytope constraint within ``tol``."""
    return polytope.contains(y, tol)


def check_nonempty(polytope: FairnessPolytope) -> None:
    """Raise EmptyPolytope when disjoint-group nonemptiness conditions fail."""
    sizes = np.array([len(g) for g in polytope.memberships], dtype=float)
    if np.any(polytope.lowers > np.minimum(polytope.uppers, sizes) + FEAS_TOL):
        raise EmptyPolytope("a group lower bound exceeds its upper bound or group size")
    if float(polytope.lowers.sum()) > polytope.budget + FEAS_TOL:
        raise EmptyPolytope("group lower bounds add up to more than the budget")


def maximize_linear(weights, polytope: FairnessPolytope) -> np.ndarray:
    """Exactly maximize ``weights . y`` over the polytope by greedy allocation.

    Requires disjoint covering groups.  Negative weights (possible from
    noisy marginal estimates) are clamped to zero.  Mass is first assigned
    to each group's mandatory lower bound on its best-weighted items, then
    the leftover budget flows one fractional unit at a time to the globally
    best item whose group still has slack; ties break toward lower ids.
    The result is a vertex with at most one fractional coordinate per group
    plus at most one extra fractional coordinate overall.
    """
    if not polytope.disjoint or not polytope.covering:
        raise GroupStructureError("greedy allocation needs disjoint covering groups")
    check_nonempty(polytope)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (polytope.item_count,):
        raise ValueError("one weight per item required")
    return allocate_linear(weights, polytope)


def allocate_linear(weights: np.ndarray, polytope: FairnessPolytope) -> np.ndarray:
    """The greedy allocation of ``maximize_linear`` without its checks.

    The caller guarantees disjoint covering groups, a non-empty polytope and
    one float weight per item.
    """
    if np.any(weights < 0):
        logger.debug(
            "clamping %d negative weights (min %.3e) to zero",
            int((weights < 0).sum()),
            float(weights.min()),
        )
        weights = np.maximum(weights, 0.0)

    y = np.zeros(polytope.item_count)
    orders = [
        sorted(members, key=lambda i: (-weights[i], i)) for members in polytope.memberships
    ]
    group_mass = np.zeros(polytope.group_count)

    for t, order in enumerate(orders):
        remaining = float(polytope.lowers[t])
        for i in order:
            if remaining <= 0.0:
                break
            take = min(1.0, remaining)
            y[i] = take
            remaining -= take
        group_mass[t] = float(polytope.lowers[t])

    budget_left = float(polytope.budget) - float(polytope.lowers.sum())
    caps = np.minimum(polytope.uppers, [len(g) for g in polytope.memberships])
    pointers = [0] * polytope.group_count
    while budget_left > FEAS_TOL:
        best_item = -1
        best_group = -1
        for t, order in enumerate(orders):
            if caps[t] - group_mass[t] <= FEAS_TOL:
                continue
            while pointers[t] < len(order) and y[order[pointers[t]]] >= 1.0 - FEAS_TOL:
                pointers[t] += 1
            if pointers[t] >= len(order):
                continue
            i = order[pointers[t]]
            if weights[i] <= 0.0:
                continue  # spending budget on zero weight gains nothing
            if best_item < 0 or weights[i] > weights[best_item] or (
                weights[i] == weights[best_item] and i < best_item
            ):
                best_item = i
                best_group = t
        if best_item < 0:
            break
        take = min(1.0 - y[best_item], caps[best_group] - group_mass[best_group], budget_left)
        if take <= FEAS_TOL:
            break
        y[best_item] += take
        group_mass[best_group] += take
        budget_left -= take
    return y


def window_rows(counts, lowers, uppers) -> list[LinearConstraint]:
    """The rows ``lowers_t <= counts[:, t] . x <= uppers_t``, two per group.

    ``counts`` holds one row per LP column and one column per group.
    """
    rows: list[LinearConstraint] = []
    for t in range(counts.shape[1]):
        rows.append(LinearConstraint(counts[:, t], ">=", float(lowers[t])))
        rows.append(LinearConstraint(counts[:, t], "<=", float(uppers[t])))
    return rows


def polytope_linear_program(polytope: FairnessPolytope, weights) -> LinearProgram:
    """Express linear maximization over the polytope as a LinearProgram.

    The rows are the group windows, the budget row and one ``y_i <= 1`` row
    per item, in that order.
    """
    n = polytope.item_count
    rows = window_rows(polytope.matrix, polytope.lowers, polytope.uppers)
    rows.append(LinearConstraint(np.ones(n), "<=", float(polytope.budget)))
    rows.extend(LinearConstraint(unit, "<=", 1.0) for unit in np.eye(n))
    return LinearProgram(weights, tuple(rows))


def feasible_point(polytope: FairnessPolytope) -> np.ndarray | None:
    """A point of the polytope found by the simplex, or None when it is empty."""
    solution = solve_simplex(polytope_linear_program(polytope, np.zeros(polytope.item_count)))
    return solution.x if solution.status == "optimal" else None
