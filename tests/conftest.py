"""Shared fixtures and seeded instance generators."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from fairsubmax import (
    CoverageObjective,
    GroupSpec,
    Instance,
    ModularObjective,
    load_instance,
)

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def rand2():
    return load_instance(FIXTURES / "rand2.json")


@pytest.fixture
def toy3():
    return load_instance(FIXTURES / "toy3.json")


def toy3_oracle() -> CoverageObjective:
    incidence = np.array([[1, 0, 0], [1, 1, 0], [0, 1, 1]], dtype=bool)
    return CoverageObjective(3, [1.0, 1.0, 1.0], incidence)


def random_coverage(rng: np.random.Generator, n: int) -> CoverageObjective:
    universe = int(rng.integers(n, n + 4))
    weights = rng.uniform(0.5, 2.0, size=universe)
    incidence = rng.random((universe, n)) < 0.45
    for i in range(n):  # every item covers something so marginals stay informative
        if not incidence[:, i].any():
            incidence[int(rng.integers(universe)), i] = True
    return CoverageObjective(n, weights, incidence)


class NoClosedFormCoverage(CoverageObjective):
    """Coverage with its closed forms hidden: a family without one, so its
    extension is enumerated up to 16 items and sampled above."""

    def _closed_form_extension(self, y):
        return None

    def _closed_form_gradient(self, y):
        return None


def no_closed_form_coverage(rng: np.random.Generator, n: int) -> NoClosedFormCoverage:
    base = random_coverage(rng, n)
    return NoClosedFormCoverage(n, base._weights, base._incidence)


def random_modular(rng: np.random.Generator, n: int) -> ModularObjective:
    return ModularObjective(rng.uniform(0.25, 3.0, size=n))


def random_disjoint_instance(
    rng: np.random.Generator,
    n_max: int = 8,
    m_max: int = 3,
    b_max: int = 4,
    integral: bool = True,
) -> Instance:
    """Disjoint covering groups with bounds built around a feasible witness set."""
    n = int(rng.integers(3, n_max + 1))
    m = int(rng.integers(1, min(m_max, n) + 1))
    items = rng.permutation(n)
    parts = np.array_split(items, m)
    budget = int(rng.integers(1, min(b_max, n) + 1))
    witness = set(rng.choice(n, size=int(rng.integers(0, budget + 1)), replace=False).tolist())
    groups = []
    for t, part in enumerate(parts):
        members = frozenset(int(i) for i in part)
        count = len(witness & members)
        if integral:
            alpha = float(max(0, count - int(rng.integers(0, 2))))
            beta = float(min(len(members), count + int(rng.integers(0, 2))))
        else:
            alpha = max(0.0, count - float(rng.uniform(0.0, 1.5)))
            beta = count + float(rng.uniform(0.0, 1.5))
        groups.append(GroupSpec(f"g{t}", members, alpha, beta))
    return Instance(n, tuple(groups), budget)


def random_overlapping_instance(
    rng: np.random.Generator,
    n_max: int = 8,
    m_max: int = 3,
    b_max: int = 3,
) -> Instance:
    """Possibly overlapping, possibly non-covering groups; feasible by construction.

    Bounds bracket the group sums of a random fractional point with mass at
    most ``b``, so an LP-feasible witness always exists.
    """
    n = int(rng.integers(3, n_max + 1))
    m = int(rng.integers(2, m_max + 1)) if m_max >= 2 else 1
    budget = int(rng.integers(1, b_max + 1))
    point = rng.random(n)
    total = point.sum()
    if total > budget:
        point *= rng.uniform(0.4, 1.0) * budget / total
    member_sets = [
        set(int(i) for i in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        for _ in range(m)
    ]
    if m >= 2 and all(not (member_sets[0] & s) for s in member_sets[1:]):
        member_sets[1].add(int(rng.choice(sorted(member_sets[0]))))
    groups = []
    for t, members in enumerate(member_sets):
        mass = float(point[sorted(members)].sum())
        alpha = max(0.0, mass - float(rng.uniform(0.0, 0.8)))
        beta = min(float(len(members)), mass + float(rng.uniform(0.0, 0.8)))
        groups.append(GroupSpec(f"g{t}", frozenset(members), alpha, beta))
    return Instance(n, tuple(groups), budget)
