"""Batched oracle calls and the loops built on them.

Each property compares the batched code (marginal gains, row evaluation,
the greedy loops, branch-and-bound pricing and the reference LP's one set
per group-count vector) with per-item or per-set loops written out here as
references.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairsubmax import (
    CoverageObjective,
    EllipsoidConfig,
    FacilityLocationObjective,
    ModularObjective,
    enumerate_feasible_sets,
    fast_greedy,
    group_counts,
    matroid_independent,
)
from fairsubmax.lp import FairnessPolytope
from fairsubmax.objectives import ObjectiveOracle
from fairsubmax.randsolve import _branch_and_bound, _distorted_greedy, _SeparationContext
from fairsubmax.verify import _best_per_count_vector

from conftest import random_disjoint_instance, random_overlapping_instance

FAMILIES = ("coverage", "modular", "facility_location")

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None)


def make_oracle(n: int, family: str, seed: int, integral: bool) -> ObjectiveOracle:
    """A seeded oracle; small integer values make exact ties common."""
    rng = np.random.default_rng(seed)

    def values(shape):
        if integral:
            return rng.integers(0, 4, size=shape).astype(float)
        return rng.uniform(0.0, 3.0, size=shape)

    if family == "coverage":
        universe = int(rng.integers(1, 2 * n + 2))
        return CoverageObjective(n, values(universe), rng.random((universe, n)) < 0.3)
    if family == "modular":
        return ModularObjective(values(n))
    return FacilityLocationObjective(values((int(rng.integers(1, 12)), n)))


@st.composite
def oracle_and_base(draw):
    n = draw(st.integers(1, 40))
    oracle = make_oracle(
        n,
        draw(st.sampled_from(FAMILIES)),
        draw(st.integers(0, 2**32 - 1)),
        draw(st.booleans()),
    )
    base = draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
    return oracle, base


@st.composite
def instance_and_oracle(draw, disjoint: bool):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if disjoint:
        instance = random_disjoint_instance(
            rng, n_max=40, m_max=5, b_max=10, integral=draw(st.booleans())
        )
    else:
        instance = random_overlapping_instance(rng, n_max=40, m_max=4, b_max=6)
    oracle = make_oracle(
        instance.item_count,
        draw(st.sampled_from(FAMILIES)),
        draw(st.integers(0, 2**32 - 1)),
        draw(st.booleans()),
    )
    return instance, oracle


def per_item_marginals(oracle: ObjectiveOracle, base) -> np.ndarray:
    """The gains as f(S + i) - f(S), one evaluation pair per item."""
    members = set(base)
    return np.array(
        [
            0.0 if i in members else oracle.evaluate(members | {i}) - oracle.evaluate(members)
            for i in range(oracle.item_count)
        ]
    )


class SquareRootOfWeight(ObjectiveOracle):
    """sqrt of a modular weight: submodular, and with no batched hook."""

    kind = "sqrt_modular"

    def __init__(self, weights):
        self._w = np.asarray(weights, dtype=float)
        super().__init__(self._w.size)

    def _evaluate_ids(self, ids: np.ndarray) -> float:
        return math.sqrt(float(self._w[ids].sum()))

    def to_spec(self) -> dict:
        return {"type": self.kind, "weights": self._w.tolist()}


class TestMarginals:
    @PROPERTY
    @given(oracle_and_base())
    def test_matches_per_item_marginals(self, case):
        oracle, base = case
        gains = oracle.marginals(base)
        assert gains.shape == (oracle.item_count,)
        np.testing.assert_allclose(gains, per_item_marginals(oracle, base), rtol=0, atol=1e-12)
        assert np.all(gains[base] == 0.0)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("bad", [[5], [-1], [0, 9], [1.5], [True]])
    def test_bad_ids_raise(self, family, bad):
        oracle = make_oracle(5, family, seed=3, integral=False)
        with pytest.raises(ValueError):
            oracle.marginals(bad)

    @PROPERTY
    @given(
        st.lists(st.floats(0.0, 5.0), min_size=1, max_size=40),
        st.data(),
    )
    def test_default_hook_is_the_per_item_loop_bit_for_bit(self, weights, data):
        oracle = SquareRootOfWeight(weights)
        base = data.draw(st.lists(st.integers(0, len(weights) - 1), unique=True))
        assert np.array_equal(oracle.marginals(base), per_item_marginals(oracle, base))

    def test_duplicates_and_order_do_not_matter(self):
        oracle = make_oracle(12, "coverage", seed=7, integral=False)
        assert np.array_equal(oracle.marginals([4, 1, 4]), oracle.marginals([1, 4]))


def reference_distorted_greedy(oracle, item_prices, steps):
    positive = np.maximum(item_prices, 0.0)
    negative = np.minimum(item_prices, 0.0)
    chosen: list[int] = []
    for step in range(steps):
        factor = (1.0 - 1.0 / steps) ** (steps - step - 1)
        best, best_gain = -1, 0.0
        for e in range(item_prices.size):
            if e in chosen:
                continue
            gain = factor * (oracle.marginal(e, chosen) + positive[e]) + negative[e]
            if gain > best_gain:
                best, best_gain = e, gain
        if best >= 0:
            chosen.append(best)
    return tuple(sorted(chosen))


class TestDistortedGreedy:
    @PROPERTY
    @given(st.booleans().flatmap(instance_and_oracle), st.data())
    def test_matches_per_item_loop(self, case, data):
        instance, oracle = case
        membership = np.zeros((instance.item_count, instance.group_count))
        for t, g in enumerate(instance.groups):
            membership[sorted(g.members), t] = 1.0
        prices = np.array(
            data.draw(
                st.lists(
                    st.floats(-4.0, 4.0),
                    min_size=instance.group_count,
                    max_size=instance.group_count,
                )
            )
        )
        item_prices = membership @ prices
        steps = min(instance.budget, instance.item_count)
        assert _distorted_greedy(oracle, item_prices, steps) == reference_distorted_greedy(
            oracle, item_prices, steps
        )


def reference_fast_greedy(instance, oracle) -> frozenset[int]:
    chosen: set[int] = set()
    while True:
        best_item, best_gain = -1, -1.0
        for i in range(instance.item_count):
            if i in chosen or not matroid_independent(chosen | {i}, instance):
                continue
            gain = oracle.marginal(i, chosen)
            if gain > best_gain:
                best_item, best_gain = i, gain
        if best_item < 0:
            return frozenset(chosen)
        chosen.add(best_item)


class TestFastGreedy:
    @PROPERTY
    @given(instance_and_oracle(disjoint=True))
    def test_matches_per_item_loop_and_is_maximal(self, case):
        instance, oracle = case
        selected = fast_greedy(instance, oracle).set
        assert selected == reference_fast_greedy(instance, oracle)
        assert matroid_independent(selected, instance)
        for i in set(range(instance.item_count)) - selected:
            assert not matroid_independent(selected | {i}, instance)


@st.composite
def id_rows(draw):
    """An oracle and a (sets, k) array of sorted, distinct ids."""
    n = draw(st.integers(1, 30))
    family = draw(st.sampled_from(FAMILIES + ("no_hook",)))
    seed = draw(st.integers(0, 2**32 - 1))
    if family == "no_hook":
        oracle = SquareRootOfWeight(np.random.default_rng(seed).uniform(0.0, 5.0, size=n))
    else:
        oracle = make_oracle(n, family, seed, draw(st.booleans()))
    k = draw(st.integers(0, n))
    draws = np.random.default_rng(seed).random((draw(st.integers(0, 50)), n))
    return oracle, np.sort(np.argsort(draws, axis=1)[:, :k], axis=1)


class TestEvaluateRows:
    @PROPERTY
    @given(id_rows())
    def test_matches_per_row_evaluate_ids_bit_for_bit(self, case):
        oracle, ids = case
        values = oracle._evaluate_rows(ids)
        assert values.shape == (ids.shape[0],)
        assert all(v == oracle._evaluate_ids(row) for v, row in zip(values.tolist(), ids))


def full_enumeration_best_set(instance, oracle, group_prices):
    """The priced argmax over every feasible set, first max winning."""
    sets = enumerate_feasible_sets(instance.item_count, instance.budget)
    values = np.array([oracle.evaluate(s) for s in sets])
    counts = np.array([group_counts(instance, s) for s in sets], dtype=float)
    scores = values + counts @ group_prices
    k = int(np.argmax(scores))
    return sets[k], float(scores[k]), float(values[k]), counts[k]


@st.composite
def small_instance_and_oracle(draw):
    """Desk-scale instances: overlapping groups with items in no group, or
    disjoint covering ones."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        instance = random_overlapping_instance(rng, n_max=12, m_max=4, b_max=4)
    else:
        instance = random_disjoint_instance(rng, n_max=12, m_max=4, b_max=4)
    oracle = make_oracle(
        instance.item_count,
        draw(st.sampled_from(FAMILIES)),
        draw(st.integers(0, 2**32 - 1)),
        draw(st.booleans()),
    )
    return instance, oracle


def assert_priced_column(instance, oracle, group_prices, chosen, score, fval, counts):
    """The returned set, f and counts agree when recomputed."""
    assert list(chosen) == sorted(set(chosen)) and len(chosen) <= instance.budget
    assert fval == oracle.evaluate(chosen)
    assert np.array_equal(counts, group_counts(instance, chosen))
    assert score == pytest.approx(fval + float(counts @ group_prices), rel=1e-12, abs=1e-12)


prices_of_both_signs = st.one_of(st.just(0.0), st.floats(-4.0, 4.0))


class TestBranchAndBound:
    @PROPERTY
    @given(small_instance_and_oracle(), st.data())
    def test_maximum_matches_full_enumeration(self, case, data):
        instance, oracle = case
        ctx = _SeparationContext(instance, oracle, EllipsoidConfig(oracle_mode="exact"))
        m = instance.group_count
        prices = data.draw(st.lists(prices_of_both_signs, min_size=m, max_size=m))
        for group_prices in (np.zeros(m), np.array(prices)):
            chosen, score, fval, counts = ctx.best_set(group_prices)
            _, ref_score, _, _ = full_enumeration_best_set(instance, oracle, group_prices)
            assert abs(score - ref_score) <= 1e-12 * max(1.0, abs(ref_score))
            assert_priced_column(instance, oracle, group_prices, chosen, score, fval, counts)
        assert ctx.exhaustive

    @PROPERTY
    @given(small_instance_and_oracle(), st.data())
    def test_floor_finds_a_better_set_or_proves_none_exists(self, case, data):
        instance, oracle = case
        m = instance.group_count
        group_prices = np.array(data.draw(st.lists(prices_of_both_signs, min_size=m, max_size=m)))
        _, ref_score, _, _ = full_enumeration_best_set(instance, oracle, group_prices)
        item_prices = FairnessPolytope.from_instance(instance).matrix @ group_prices
        budget = min(instance.budget, instance.item_count)
        tol = 1e-12 * max(1.0, abs(ref_score))
        found, _, capped = _branch_and_bound(oracle, item_prices, budget, ref_score + tol, None)
        assert found is None and not capped
        found, _, capped = _branch_and_bound(oracle, item_prices, budget, ref_score - 0.5, None)
        assert found is not None and not capped
        found_score = oracle.evaluate(found) + float(item_prices[list(found)].sum())
        assert abs(found_score - ref_score) <= tol


    def test_a_tie_with_the_best_set_opens_no_node(self):
        # {0, 1} reaches 2 at the second node; {1, ...} and {2, ...} can only
        # tie it, so they are pruned before their marginal calls
        oracle = ModularObjective([1.0, 1.0, 1.0, 1.0])
        assert _branch_and_bound(oracle, np.zeros(4), 2, 1.5, None) == ((0, 1), 2, False)
        assert _branch_and_bound(oracle, np.zeros(4), 2, 2.0, None) == (None, 1, False)
        assert _branch_and_bound(oracle, np.zeros(4), 2, 1.5, 1) == (None, 1, True)


class TestBestPerCountVector:
    @PROPERTY
    @given(small_instance_and_oracle())
    def test_keeps_the_first_best_set_of_each_count_vector_in_order(self, case):
        instance, oracle = case
        matrix = FairnessPolytope.from_instance(instance).matrix
        sets, values, counts = _best_per_count_vector(oracle, matrix, instance.budget)
        assert sets == sorted(sets, key=lambda s: (len(s), s))
        assert len({tuple(c) for c in counts}) == len(sets)
        best = {}
        for s in enumerate_feasible_sets(instance.item_count, instance.budget):
            key = tuple(group_counts(instance, s))
            if key not in best or oracle.evaluate(s) > oracle.evaluate(best[key]):
                best[key] = s
        assert sets == sorted(best.values(), key=lambda s: (len(s), s))
        assert values.tolist() == [oracle.evaluate(s) for s in sets]
        assert np.array_equal(counts, [group_counts(instance, s) for s in sets])
