"""Reference optima and output checks, written apart from the library.

Nothing here imports ``fairsubmax``: set functions are evaluated from the
objective data in the instance document, vectorized over all sets of one
size, and the distribution optimum is the LP over every set of size at most
``b`` solved by ``scipy.optimize.linprog`` (HiGHS).  For the large greedy
tier, where enumeration is out of reach, the reference is the coverage LP
relaxation, an upper bound on the optimal distribution value.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix, hstack, identity, vstack

#: relative tolerance on a reported value against its recomputation
VALUE_RTOL = 1e-9
#: slack on a group window or the probability mass before it counts as violated
WINDOW_TOL = 1e-6

FACTORS = {
    "rand-heuristic": 1.0 - 1.0 / math.e,
    "det-continuous": (1.0 - 1.0 / math.e) ** 2,
    "greedy-large": (1.0 - 1.0 / math.e) ** 2 / 2.0,
}


class SetFunction:
    """f(S) for one instance document, evaluated on (sets, size) id arrays."""

    def __init__(self, doc: dict):
        n = doc["items"]
        spec = doc["objective"]
        self.kind = spec["type"]
        if self.kind == "modular":
            self.weights = np.asarray(spec["weights"], dtype=float)
        elif self.kind == "facility_location":
            self.similarity = np.asarray(spec["similarity"], dtype=float)
        else:
            names = sorted(spec["elements"])
            index = {name: u for u, name in enumerate(names)}
            self.weights = np.array([spec["elements"][name] for name in names], dtype=float)
            self.incidence = np.zeros((len(names), n), dtype=bool)
            for item, covered in spec["covers"].items():
                self.incidence[[index[name] for name in covered], int(item)] = True

    def values(self, sets: np.ndarray) -> np.ndarray:
        """f on each row of an integer (count, size) array of item ids."""
        if sets.shape[1] == 0:
            return np.zeros(sets.shape[0])
        if self.kind == "modular":
            return self.weights[sets].sum(axis=1)
        if self.kind == "facility_location":
            return self.similarity[:, sets].max(axis=2).sum(axis=0)
        return self.weights @ self.incidence[:, sets].any(axis=2)

    def value(self, items) -> float:
        return float(self.values(np.asarray([sorted(items)], dtype=int).reshape(1, -1))[0])


def membership(doc: dict) -> np.ndarray:
    """The (items, groups) 0/1 membership matrix."""
    matrix = np.zeros((doc["items"], len(doc["groups"])))
    for t, group in enumerate(doc["groups"]):
        matrix[group["members"], t] = 1.0
    return matrix


def _bounds(doc: dict) -> tuple[np.ndarray, np.ndarray]:
    alphas = np.array([g["alpha"] for g in doc["groups"]], dtype=float)
    betas = np.array([g["beta"] for g in doc["groups"]], dtype=float)
    return alphas, betas


def _optimum(result) -> float:
    if result.status != 0:
        raise RuntimeError(f"reference LP failed: {result.message}")
    return -float(result.fun)


def distribution_optimum(doc: dict) -> float:
    """Exact optimum of the distribution LP over all sets of size <= b."""
    n, b = doc["items"], doc["budget"]
    f = SetFunction(doc)
    groups = membership(doc)
    values, counts = [], []
    for k in range(1, min(b, n) + 1):
        sets = np.fromiter(
            itertools.chain.from_iterable(itertools.combinations(range(n), k)), dtype=int
        ).reshape(-1, k)
        values.append(f.values(sets))
        counts.append(groups[sets].sum(axis=1))
    # the LP sees a set only through its count vector and value, so per
    # count vector only the best set matters; the rest are dominated columns
    counts = np.concatenate(counts)
    keys = counts @ float(b + 1) ** np.arange(counts.shape[1])
    _, first, column = np.unique(keys, return_index=True, return_inverse=True)
    values_best = np.full(first.size, -np.inf)
    np.maximum.at(values_best, column, np.concatenate(values))
    counts, values = counts[first], values_best
    alphas, betas = _bounds(doc)
    # max v.p  s.t.  sum p <= 1,  alpha <= counts.T p <= beta,  p >= 0
    a_ub = np.vstack([np.ones((1, values.size)), -counts.T, counts.T])
    b_ub = np.concatenate([[1.0], -alphas, betas])
    return _optimum(linprog(-values, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs"))


def coverage_lp_bound(doc: dict) -> float:
    """Upper bound on the distribution optimum of a coverage instance.

    Variables are item marginals ``x`` and element coverage ``z``:
    maximize ``w.z`` with ``z_u <= sum of x over items covering u``, the
    group windows and budget on ``x``, and ``0 <= x, z <= 1``.
    """
    f = SetFunction(doc)
    n = doc["items"]
    universe = f.weights.size
    groups = csr_matrix(membership(doc).T)
    alphas, betas = _bounds(doc)
    no_z = csr_matrix((groups.shape[0], universe))
    a_ub = vstack(
        [
            hstack([-csr_matrix(f.incidence.astype(float)), identity(universe)]),
            hstack([-groups, no_z]),
            hstack([groups, no_z]),
            hstack([csr_matrix(np.ones((1, n))), csr_matrix((1, universe))]),
        ]
    ).tocsr()
    b_ub = np.concatenate([np.zeros(universe), -alphas, betas, [doc["budget"]]])
    cost = np.concatenate([np.zeros(n), -f.weights])
    return _optimum(linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=(0, 1), method="highs"))


def reference_value(workload: str, doc: dict) -> float:
    if workload == "greedy-large":
        return coverage_lp_bound(doc)
    return distribution_optimum(doc)


# -- output checks ------------------------------------------------------------


def _close(reported: float, exact: float) -> bool:
    return abs(reported - exact) <= VALUE_RTOL * max(1.0, abs(exact))


def _valid_set(items, doc: dict) -> bool:
    return (
        all(isinstance(i, int) and 0 <= i < doc["items"] for i in items)
        and len(set(items)) == len(items)
        and len(items) <= doc["budget"]
    )


def _window_violation(counts: np.ndarray, doc: dict) -> float:
    alphas, betas = _bounds(doc)
    return float(np.max(np.concatenate([alphas - counts, counts - betas]), initial=0.0))


def check_distribution(workload: str, doc: dict, out: dict, reference: float) -> tuple[float, list[str]]:
    """Audit a ``solve-rand`` output; returns (recomputed value, problems)."""
    f = SetFunction(doc)
    groups = membership(doc)
    problems = []
    sets = [entry["set"] for entry in out["distribution"]]
    probs = np.array([entry["prob"] for entry in out["distribution"]], dtype=float)
    if not all(_valid_set(s, doc) for s in sets):
        problems.append("a support set is malformed or exceeds the budget")
        return float("nan"), problems
    if np.any(probs < 0.0) or probs.sum() > 1.0 + WINDOW_TOL:
        problems.append("probabilities are negative or exceed one")
    if abs(probs.sum() + out["residual"] - 1.0) > WINDOW_TOL:
        problems.append("support and residual mass do not sum to one")
    value = float(sum(p * f.value(s) for s, p in zip(sets, probs)))
    counts = np.zeros(groups.shape[1])
    for s, p in zip(sets, probs):
        counts += p * groups[s].sum(axis=0)
    if not _close(out["value"], value):
        problems.append(f"reported value {out['value']!r} != recomputed {value!r}")
    if not np.allclose(out["expected_group_counts"], counts, rtol=VALUE_RTOL, atol=VALUE_RTOL):
        problems.append("reported expected group counts differ from the recomputation")
    if _window_violation(counts, doc) > WINDOW_TOL:
        problems.append("a group window is violated in expectation")
    if out["feasibility"] != "strict":
        problems.append(f"reported feasibility {out['feasibility']!r}")
    if value > reference + VALUE_RTOL * max(1.0, reference):
        problems.append(f"value {value!r} exceeds the optimum {reference!r}")
    if workload == "rand-exact":
        floor = reference - 2.0 * out["certificate"]["epsilon"]
    else:
        floor = FACTORS[workload] * reference
    if value < floor - VALUE_RTOL * max(1.0, reference):
        problems.append(f"value {value!r} is below the guaranteed {floor!r}")
    return value, problems


def _independent(counts: np.ndarray, doc: dict) -> bool:
    # the rounded-caps matroid: counts <= ceil(beta) and the floors-or-counts
    # sum within the budget
    alphas, betas = _bounds(doc)
    if np.any(counts > np.ceil(betas)):
        return False
    return float(np.maximum(np.floor(alphas), counts).sum()) <= doc["budget"]


def check_set(workload: str, doc: dict, out: dict, reference: float) -> tuple[float, list[str]]:
    """Audit a ``solve-det`` or ``solve-greedy`` output."""
    f = SetFunction(doc)
    groups = membership(doc)
    problems = []
    items = out["set"]
    if not _valid_set(items, doc):
        problems.append("the set is malformed or exceeds the budget")
        return float("nan"), problems
    value = f.value(items)
    counts = groups[items].sum(axis=0)
    if not _close(out["value"], value):
        problems.append(f"reported value {out['value']!r} != recomputed {value!r}")
    if list(out["group_counts"]) != [int(c) for c in counts]:
        problems.append("reported group counts differ from the recomputation")
    if _window_violation(counts, doc) > WINDOW_TOL:
        problems.append("a group window is violated")
    if out["feasibility"] != "strict":
        problems.append(f"reported feasibility {out['feasibility']!r}")
    if value > reference + VALUE_RTOL * max(1.0, reference):
        problems.append(f"value {value!r} exceeds the reference {reference!r}")
    floor = FACTORS[workload] * reference
    if value < floor - VALUE_RTOL * max(1.0, reference):
        problems.append(f"value {value!r} is below the guaranteed {floor!r}")
    if workload == "greedy-large":
        chosen = set(items)
        for i in range(doc["items"]):
            if i not in chosen and _independent(counts + groups[i], doc):
                problems.append(f"not maximal: item {i} can still be added")
                break
    return value, problems


def check_output(workload: str, doc: dict, out: dict, reference: float) -> tuple[float, list[str]]:
    if workload.startswith("rand-"):
        return check_distribution(workload, doc, out, reference)
    return check_set(workload, doc, out, reference)
