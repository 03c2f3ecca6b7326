"""Problem instances, structural validation, and the JSON file format.

An :class:`Instance` is a ground set of ``n`` items (dense ids ``0..n-1``),
a list of groups with expected-count bounds ``[alpha, beta]``, and a hard
cardinality budget ``b``.  Groups may overlap and items may belong to no
group; individual solvers declare their own structural preconditions.
Feasibility of the underlying distribution problem is decided by an exact
LP feasibility solve over fractional selection probabilities, which is
valid even for overlapping groups because every fractional point of the
budgeted cube is a mixture of indicator vectors of sets of size at most
``b``.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import EnumerationBudgetExceeded, InvalidInstance, ParseError
from .lp import FairnessPolytope, feasible_point
from .objectives import ObjectiveOracle, oracle_from_spec

#: default cap on the number of subsets any exhaustive enumeration may touch
DEFAULT_ENUMERATION_BUDGET = 10**6


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class GroupSpec:
    """One group: a named member set with expected-count bounds."""

    name: str
    members: frozenset[int]
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", frozenset(int(i) for i in self.members))
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", float(self.beta))


@dataclass(frozen=True)
class Instance:
    """Ground set size, groups, and the cardinality budget.

    Construction validates all structural invariants and raises
    :class:`InvalidInstance` on violation.  Instances are immutable and safe
    to share across threads.
    """

    item_count: int
    groups: tuple[GroupSpec, ...]
    budget: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "groups", tuple(self.groups))
        if not _is_int(self.item_count) or self.item_count < 1:
            raise InvalidInstance("item_count must be a positive integer")
        if not _is_int(self.budget) or self.budget < 1:
            raise InvalidInstance("budget must be a positive integer")
        object.__setattr__(self, "item_count", int(self.item_count))
        object.__setattr__(self, "budget", int(self.budget))
        if not self.groups:
            raise InvalidInstance("at least one group is required")
        names = [g.name for g in self.groups]
        if len(set(names)) != len(names):
            raise InvalidInstance("group names must be unique")
        for g in self.groups:
            for i in g.members:
                if not 0 <= i < self.item_count:
                    raise InvalidInstance(
                        f"group {g.name!r} references item {i} outside 0..{self.item_count - 1}"
                    )
            if not (math.isfinite(g.alpha) and math.isfinite(g.beta)):
                raise InvalidInstance(f"group {g.name!r} has a non-finite bound")
            if g.alpha < 0 or g.beta < 0:
                raise InvalidInstance(f"group {g.name!r} has a negative bound")
            if g.alpha > g.beta:
                raise InvalidInstance(f"group {g.name!r} has alpha > beta")
            if g.alpha > len(g.members):
                raise InvalidInstance(
                    f"group {g.name!r} cannot reach its lower bound with {len(g.members)} members"
                )

    @property
    def group_count(self) -> int:
        return len(self.groups)

    @property
    def alphas(self) -> np.ndarray:
        return np.array([g.alpha for g in self.groups])

    @property
    def betas(self) -> np.ndarray:
        return np.array([g.beta for g in self.groups])


@dataclass(frozen=True)
class StructureReport:
    """Structural facts about an instance that solvers condition on."""

    disjoint: bool
    covering: bool
    lp_feasible: bool
    integral_bounds: bool


def group_counts(instance: Instance, items: Iterable[int]) -> np.ndarray:
    """Count |S intersect V_t| for every group."""
    s = set(items)
    return np.array([len(s & g.members) for g in instance.groups], dtype=int)


def validate(instance: Instance) -> StructureReport:
    """Report disjointness, coverage, LP feasibility, and bound integrality.

    Overlapping groups are legal and merely recorded; only structurally
    broken data (checked at construction) raises.
    """
    polytope = FairnessPolytope.from_instance(instance)
    integral = all(g.alpha.is_integer() and g.beta.is_integer() for g in instance.groups)
    return StructureReport(
        polytope.disjoint, polytope.covering, feasible_point(polytope) is not None, integral
    )


def count_feasible_sets(item_count: int, budget: int) -> int:
    """Number of subsets of size at most ``budget``."""
    top = min(budget, item_count)
    return sum(math.comb(item_count, k) for k in range(top + 1))


def check_enumeration_budget(item_count: int, budget: int, limit: int) -> None:
    """Raise EnumerationBudgetExceeded when more than ``limit`` sets are feasible."""
    total = count_feasible_sets(item_count, budget)
    if total > limit:
        raise EnumerationBudgetExceeded(
            f"{total} feasible sets exceed the enumeration budget of {limit}"
        )


def enumerate_feasible_sets(
    item_count: int,
    budget: int,
    limit: int = DEFAULT_ENUMERATION_BUDGET,
) -> list[tuple[int, ...]]:
    """All subsets of size <= budget in size-then-lexicographic order."""
    check_enumeration_budget(item_count, budget, limit)
    top = min(budget, item_count)
    return [
        combo
        for k in range(top + 1)
        for combo in itertools.combinations(range(item_count), k)
    ]


# -- file format ----------------------------------------------------------


def load_instance(path) -> tuple[Instance, ObjectiveOracle | None]:
    """Load an instance file, returning the instance and its objective.

    The objective entry is optional for library use; the CLI requires it.
    Raises :class:`ParseError` with a field path on malformed input and
    :class:`InvalidInstance` when the parsed data violates an invariant.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(doc, Mapping):
        raise ParseError(f"{path}: expected a JSON object at the top level")

    items = doc.get("items")
    item_names: list[str] | None = None
    if isinstance(items, list):
        if not items or not all(isinstance(s, str) for s in items):
            raise ParseError("items: expected a positive count or a list of names")
        if len(set(items)) != len(items):
            raise ParseError("items: names must be unique")
        item_names = list(items)
        n = len(items)
    elif isinstance(items, int) and not isinstance(items, bool):
        n = items
        if n < 1:
            raise ParseError("items: expected a positive count")
    else:
        raise ParseError("items: expected a positive count or a list of names")

    budget = doc.get("budget")
    if not isinstance(budget, int) or isinstance(budget, bool):
        raise ParseError("budget: expected an integer")

    raw_groups = doc.get("groups")
    if not isinstance(raw_groups, list) or not raw_groups:
        raise ParseError("groups: expected a non-empty list")
    groups = []
    for k, raw in enumerate(raw_groups):
        if not isinstance(raw, Mapping):
            raise ParseError(f"groups[{k}]: expected an object")
        name = raw.get("name")
        if not isinstance(name, str) or not name:
            raise ParseError(f"groups[{k}].name: expected a non-empty string")
        members_raw = raw.get("members")
        if not isinstance(members_raw, list):
            raise ParseError(f"groups[{k}].members: expected a list")
        members = set()
        for entry in members_raw:
            members.add(_resolve_member(entry, n, item_names, f"groups[{k}].members"))
        alpha = _number(raw.get("alpha"), f"groups[{k}].alpha")
        beta = _number(raw.get("beta"), f"groups[{k}].beta")
        groups.append(GroupSpec(name, frozenset(members), alpha, beta))

    instance = Instance(n, tuple(groups), budget)
    oracle = None
    if "objective" in doc:
        oracle = oracle_from_spec(doc["objective"], n, item_names)
    return instance, oracle


def save_instance(instance: Instance, path, objective: ObjectiveOracle | None = None) -> None:
    """Write the canonical JSON form; reloading reproduces the instance exactly.

    Fields appear in a fixed order and members are sorted; floats use the
    shortest decimal that round-trips.  Item names are a file-level
    convenience only, so saved files always use integer ids.
    """
    doc: dict = {
        "items": instance.item_count,
        "budget": instance.budget,
        "groups": [
            {
                "name": g.name,
                "members": sorted(g.members),
                "alpha": g.alpha,
                "beta": g.beta,
            }
            for g in instance.groups
        ],
    }
    if objective is not None:
        doc["objective"] = objective.to_spec()
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _resolve_member(entry, n: int, item_names: Sequence[str] | None, where: str) -> int:
    if isinstance(entry, str):
        if item_names is None or entry not in item_names:
            raise ParseError(f"{where}: unknown item name {entry!r}")
        return item_names.index(entry)
    if isinstance(entry, int) and not isinstance(entry, bool):
        return entry
    raise ParseError(f"{where}: expected an item id or name, got {entry!r}")


def _number(value, where: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ParseError(f"{where}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ParseError(f"{where}: expected a finite number, got {value!r}")
    return number
