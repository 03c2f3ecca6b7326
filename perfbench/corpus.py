"""Seeded instance corpora for the four benchmark workloads.

Every instance is a plain JSON document in the library's instance-file
format, built from a numpy generator seeded by ``(seed, workload, index)``.
The size mix of each corpus is fixed; only the random content depends on
the seed, so run time is governed by sizes and stays comparable across
seeds.  Groups are built around a witness point (fractional for the
randomized workloads, a set for the deterministic ones) so that every
instance is feasible and no operation is expected to fail.
"""

from __future__ import annotations

import numpy as np

#: subcommand and fixed flags of each workload
COMMANDS = {
    "rand-exact": ["solve-rand", "--oracle-mode", "exact"],
    "rand-heuristic": ["solve-rand", "--oracle-mode", "heuristic"],
    "det-continuous": ["solve-det"],
    "greedy-large": ["solve-greedy"],
}

WORKLOADS = tuple(COMMANDS)

# (items, groups, budget, group layout, objective); the layout is
# "disjoint" (a covering partition) or "overlap" (overlapping, possibly
# not covering).  Feasible families run from 466 to 102091 sets; the largest
# is about half the time of a pass, split between enumeration and ellipsoid.
_RAND_EXACT = (
    (30, 2, 2, "disjoint", "coverage"),
    (20, 5, 3, "overlap", "modular"),
    (25, 4, 3, "disjoint", "modular"),
    (26, 3, 3, "disjoint", "coverage"),
    (28, 3, 3, "overlap", "modular"),
    (30, 3, 3, "overlap", "coverage"),
    (22, 2, 4, "overlap", "coverage"),
    (40, 3, 4, "disjoint", "modular"),
)
# The time of one instance follows the ellipsoid's iteration count, which
# varies from instance to instance by about a fifth even at a fixed shape,
# so the corpus holds a dozen mid-sized instances rather than a few large
# ones.  Two groups keep each instance near two seconds.  Most instances are
# coverage, so the median operation falls inside one cluster of similar
# cost.  Disjoint coverage is left out: at two groups its iteration count
# varies by a factor of two.
_RAND_HEURISTIC = (
    (30, 2, 3, "overlap", "coverage"),
    (31, 2, 3, "overlap", "coverage"),
    (32, 2, 3, "overlap", "coverage"),
    (33, 3, 3, "disjoint", "modular"),
    (34, 2, 3, "overlap", "coverage"),
    (35, 2, 3, "overlap", "coverage"),
    (36, 2, 3, "overlap", "coverage"),
    (37, 2, 3, "overlap", "modular"),
    (38, 2, 3, "overlap", "coverage"),
    (39, 2, 3, "overlap", "coverage"),
    (40, 2, 3, "overlap", "coverage"),
)
# About two thirds coverage; facility location only at n <= 12, where the
# library's extension falls back to full enumeration.  The work is fixed by
# n, and the odd count puts the median operation on one instance (facility
# location at n = 10) rather than between two.
_DET_CONTINUOUS = (
    (10, 2, 3, "disjoint", "coverage"),
    (12, 3, 4, "disjoint", "facility_location"),
    (13, 3, 4, "disjoint", "coverage"),
    (10, 2, 3, "disjoint", "facility_location"),
    (16, 4, 5, "disjoint", "coverage"),
    (14, 3, 4, "disjoint", "coverage"),
    (11, 2, 3, "disjoint", "coverage"),
)
_GREEDY_LARGE = ((300, 10, 20, "disjoint", "sparse_coverage"),) * 16

SHAPES = {
    "rand-exact": _RAND_EXACT,
    "rand-heuristic": _RAND_HEURISTIC,
    "det-continuous": _DET_CONTINUOUS,
    "greedy-large": _GREEDY_LARGE,
}

#: a small instance of the workload's kind, solved once before timing; one
#: group keeps the randomized solver's warm-up short and steady
WARMUP_SHAPES = {
    "rand-exact": (6, 1, 2, "disjoint", "modular"),
    "rand-heuristic": (6, 1, 2, "disjoint", "modular"),
    "det-continuous": (6, 2, 2, "disjoint", "facility_location"),
    "greedy-large": (30, 3, 4, "disjoint", "sparse_coverage"),
}

# the deterministic solvers need integral bounds and disjoint covering groups
_INTEGRAL = {"det-continuous", "greedy-large"}


def _generator(seed: int, workload: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), index])


def _objective(rng: np.random.Generator, n: int, kind: str) -> dict:
    if kind == "modular":
        return {"type": "modular", "weights": rng.uniform(0.25, 3.0, size=n).tolist()}
    if kind == "facility_location":
        rows = rng.uniform(0.0, 1.0, size=(n + 4, n))
        return {"type": "facility_location", "similarity": rows.tolist()}
    if kind == "coverage":
        universe, density = n + 6, 0.2
    else:  # sparse_coverage: a few elements per item out of a large universe
        universe, density = 2 * n, 4.0 / (2 * n)
    incidence = rng.random((universe, n)) < density
    for i in range(n):  # every item covers something, so no marginal is trivially zero
        if not incidence[:, i].any():
            incidence[int(rng.integers(universe)), i] = True
    weights = rng.uniform(0.5, 2.0, size=universe)
    names = [f"e{u:04d}" for u in range(universe)]
    return {
        "type": "coverage",
        "elements": {name: float(w) for name, w in zip(names, weights)},
        "covers": {
            str(i): [names[u] for u in np.flatnonzero(incidence[:, i])] for i in range(n)
        },
    }


def _member_sets(rng: np.random.Generator, n: int, m: int, layout: str) -> list[list[int]]:
    if layout == "disjoint":
        return [sorted(int(i) for i in part) for part in np.array_split(rng.permutation(n), m)]
    sets = [
        set(int(i) for i in rng.choice(n, size=int(rng.integers(n // 4, n // 2 + 1)), replace=False))
        for _ in range(m)
    ]
    if all(not (sets[0] & s) for s in sets[1:]):
        sets[1].add(min(sets[0]))
    return [sorted(s) for s in sets]


def _fractional_bounds(rng, n, b, members) -> list[tuple[float, float]]:
    # bracket the group sums of a fractional point of mass <= b, which a
    # mixture of sets of size <= b realizes exactly
    point = rng.random(n)
    point *= rng.uniform(0.5, 1.0) * b / max(point.sum(), b)
    bounds = []
    for group in members:
        mass = float(point[group].sum())
        alpha = max(0.0, mass - float(rng.uniform(0.0, 0.8)))
        beta = min(float(len(group)), mass + float(rng.uniform(0.0, 0.8)))
        bounds.append((alpha, beta))
    return bounds


def _integral_bounds(rng, n, b, members) -> list[tuple[float, float]]:
    # integral windows around the counts of a witness set of size <= b
    witness = set(int(i) for i in rng.choice(n, size=b, replace=False))
    bounds = []
    for group in members:
        count = len(witness.intersection(group))
        alpha = max(0, count - int(rng.integers(0, 2)))
        beta = min(len(group), count + int(rng.integers(0, 3)))
        bounds.append((float(alpha), float(beta)))
    return bounds


def make_instance(workload: str, shape: tuple, rng: np.random.Generator) -> dict:
    """One instance document of the given shape."""
    n, m, b, layout, objective = shape
    members = _member_sets(rng, n, m, layout)
    bounder = _integral_bounds if workload in _INTEGRAL else _fractional_bounds
    bounds = bounder(rng, n, b, members)
    return {
        "items": n,
        "budget": b,
        "groups": [
            {"name": f"g{t}", "members": group, "alpha": alpha, "beta": beta}
            for t, (group, (alpha, beta)) in enumerate(zip(members, bounds))
        ],
        "objective": _objective(rng, n, objective),
    }


def make_corpus(workload: str, seed: int) -> tuple[dict, list[dict]]:
    """The warm-up instance and the timed corpus of one workload."""
    shapes = SHAPES[workload]
    warmup = make_instance(workload, WARMUP_SHAPES[workload], _generator(seed, workload, len(shapes)))
    corpus = [
        make_instance(workload, shape, _generator(seed, workload, k))
        for k, shape in enumerate(shapes)
    ]
    return warmup, corpus
