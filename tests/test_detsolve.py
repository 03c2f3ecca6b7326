"""Continuous greedy, pipage rounding, and the fast matroid greedy."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from fairsubmax import (
    ContinuousGreedyConfig,
    EmptyPolytope,
    FairnessPolytope,
    GroupSpec,
    GroupStructureError,
    InfeasibleRelaxation,
    Instance,
    ModularObjective,
    brute_force_lp,
    continuous_greedy,
    fast_greedy,
    group_counts,
    matroid_independent,
    maximize_linear,
    membership,
    objectives,
    pipage_round,
    solve_deterministic,
)

from conftest import (
    no_closed_form_coverage,
    random_coverage,
    random_disjoint_instance,
    toy3_oracle,
)


def make_instance(n, groups, b):
    return Instance(
        n,
        tuple(GroupSpec(f"g{k}", frozenset(m), a, bb) for k, (m, a, bb) in enumerate(groups)),
        b,
    )


LP_EXAMPLE = make_instance(3, [({0, 1}, 1, 2), ({2}, 0, 1)], 2)
TOY3 = make_instance(3, [({0, 1}, 1, 1), ({2}, 1, 1)], 2)
RAND2 = make_instance(2, [({0}, 0.5, 0.5), ({1}, 0.5, 0.5)], 1)


class TestContinuousGreedy:
    def test_modular_single_step_reaches_vertex(self):
        oracle = ModularObjective([3, 2, 5])
        y = continuous_greedy(LP_EXAMPLE, oracle, ContinuousGreedyConfig(delta=1))
        assert np.allclose(y, [1, 0, 1])
        assert oracle.extension(y).value == pytest.approx(8.0)

    def test_single_point_polytope(self):
        oracle = toy3_oracle()
        inst = make_instance(3, [({0, 1}, 2, 2), ({2}, 1, 1)], 3)
        y = continuous_greedy(inst, oracle, ContinuousGreedyConfig(delta=13))
        assert np.allclose(y, [1, 1, 1])
        assert oracle.extension(y).value == pytest.approx(oracle.evaluate([0, 1, 2]))

    def test_toy3_structure_and_value_bound(self):
        oracle = toy3_oracle()
        y = continuous_greedy(TOY3, oracle, ContinuousGreedyConfig(delta=90))
        assert y[2] == pytest.approx(1.0, abs=1e-9)
        assert y[0] + y[1] == pytest.approx(1.0, abs=1e-9)
        # fractional optimum (1,0,1) has extension 3
        assert oracle.extension(y).value >= (1 - 1 / math.e) * 3.0

    def test_output_in_polytope(self):
        rng = np.random.default_rng(50)
        for _ in range(25):
            inst = random_disjoint_instance(rng, integral=bool(rng.integers(2)))
            oracle = random_coverage(rng, inst.item_count)
            y = continuous_greedy(inst, oracle, ContinuousGreedyConfig(delta=40))
            assert membership(y, FairnessPolytope.from_instance(inst))

    def test_rejects_overlapping_groups(self):
        inst = make_instance(3, [({0, 1}, 0, 2), ({1, 2}, 0, 2)], 2)
        with pytest.raises(GroupStructureError):
            continuous_greedy(inst, ModularObjective([1, 1, 1]))

    def test_empty_polytope(self):
        inst = make_instance(2, [({0}, 1, 1), ({1}, 1, 1)], 1)
        with pytest.raises(EmptyPolytope):
            continuous_greedy(inst, ModularObjective([1, 1]))

    def test_fallback_point_is_the_extension_marginal_loop_bit_for_bit(self):
        rng = np.random.default_rng(61)
        for _ in range(3):
            inst = random_disjoint_instance(rng, integral=False)
            oracle = no_closed_form_coverage(rng, inst.item_count)
            polytope = FairnessPolytope.from_instance(inst)
            delta = 12
            step = 1.0 / delta
            y = np.zeros(inst.item_count)
            for _ in range(delta):
                gradient = [oracle.extension_marginal(i, y).value for i in range(inst.item_count)]
                y = y + step * maximize_linear(gradient, polytope)
            point = continuous_greedy(inst, oracle, ContinuousGreedyConfig(delta=delta))
            assert np.array_equal(point, np.clip(y, 0.0, 1.0))

    def test_iteration_hook(self):
        records = []
        continuous_greedy(
            LP_EXAMPLE,
            ModularObjective([3, 2, 5]),
            ContinuousGreedyConfig(delta=4),
            on_iteration=records.append,
        )
        assert len(records) == 4
        assert records[0]["support"] == [0, 2]


class TestPipage:
    def test_two_coordinate_swap_prefers_heavier_item(self):
        inst = make_instance(2, [({0, 1}, 1, 1)], 1)
        oracle = ModularObjective([1, 2])
        solution = pipage_round(np.array([0.5, 0.5]), inst, oracle)
        assert solution.set == frozenset({1})
        assert solution.value == 2.0
        assert len(solution.trace.swaps) == 1
        swap = solution.trace.swaps[0]
        assert swap.phase == 1 and not swap.chose_first

    def test_integral_input_unchanged(self):
        solution = pipage_round(np.array([1.0, 0.0, 1.0]), LP_EXAMPLE, toy3_oracle())
        assert solution.set == frozenset({0, 2})
        assert solution.trace.swaps == []

    def test_cross_group_phase_two(self):
        inst = make_instance(3, [({0, 1}, 0, 1), ({2}, 0, 1)], 2)
        solution = pipage_round(np.array([0.5, 0.0, 0.5]), inst, toy3_oracle())
        assert solution.set == frozenset({0})
        assert solution.value == 2.0
        phases = [s.phase for s in solution.trace.swaps]
        assert phases == [2]

    def test_rejects_point_outside_polytope(self):
        with pytest.raises(ValueError):
            pipage_round(np.array([1.0, 1.0, 1.0]), LP_EXAMPLE, toy3_oracle())

    def test_rejects_point_over_budget_outside_the_groups(self):
        # items 1 and 2 are in no group, so only sum(y) <= b bounds them
        inst = Instance(3, (GroupSpec("g", {0}, 0, 1),), 1)
        with pytest.raises(ValueError, match="outside the fairness polytope"):
            pipage_round(np.ones(3), inst, ModularObjective([1, 1, 1]))

    def test_phase_three_rounds_up(self):
        inst = make_instance(2, [({0, 1}, 0, 2)], 2)
        oracle = ModularObjective([2, 1])
        solution = pipage_round(np.array([1.0, 0.5]), inst, oracle)
        assert solution.set == frozenset({0, 1})
        assert solution.trace.swaps[-1].phase == 3

    def test_swaps_never_lose_extension_value(self):
        rng = np.random.default_rng(60)
        for _ in range(40):
            inst = random_disjoint_instance(rng, integral=bool(rng.integers(2)))
            oracle = random_coverage(rng, inst.item_count)
            y = continuous_greedy(inst, oracle, ContinuousGreedyConfig(delta=30))
            solution = pipage_round(y, inst, oracle)
            for swap in solution.trace.swaps:
                assert swap.after.value >= swap.before.value
            assert solution.value >= solution.fractional_value.value - 1e-9
            assert solution.within_relaxed_bounds(inst)

    def test_each_move_evaluates_the_extension_only_at_its_new_points(self, monkeypatch):
        rng = np.random.default_rng(62)
        phases = set()
        for _ in range(20):
            inst = random_disjoint_instance(rng, integral=bool(rng.integers(2)))
            oracle = random_coverage(rng, inst.item_count)
            y = continuous_greedy(inst, oracle, ContinuousGreedyConfig(delta=30))
            calls = []
            extension = oracle.extension
            monkeypatch.setattr(oracle, "extension", lambda point: calls.append(1) or extension(point))
            solution = pipage_round(y, inst, oracle)
            swaps = solution.trace.swaps
            # one call at the start, two candidate endpoints per swap, one lift
            assert len(calls) == 1 + sum(2 if s.phase < 3 else 1 for s in swaps)
            chained = [solution.fractional_value] + [s.after for s in swaps]
            assert [s.before for s in swaps] == chained[: len(swaps)]
            phases.update(s.phase for s in swaps)
        assert phases == {1, 2, 3}

    def test_monte_carlo_rounding_stays_within_noise(self, monkeypatch):
        # above 16 items a family without a closed form is sampled
        monkeypatch.setattr(objectives, "_MONTE_CARLO_SAMPLES", 1000)
        oracle = no_closed_form_coverage(np.random.default_rng(61), 17)
        inst = make_instance(17, [(set(range(9)), 1, 4), (set(range(9, 17)), 0, 4)], 6)
        y = np.linspace(0.1, 0.5, 17)
        solution = pipage_round(y, inst, oracle)
        assert solution.within_relaxed_bounds(inst)
        for swap in solution.trace.swaps:
            assert not swap.after.exact
            slack = 3 * (swap.before.stderr + swap.after.stderr)
            assert swap.after.value >= swap.before.value - slack
        accumulated = 3 * sum(
            s.before.stderr + s.after.stderr for s in solution.trace.swaps
        )
        assert solution.value >= solution.fractional_value.value - accumulated - 1e-9


class TestSolveDeterministic:
    def test_toy3_unique_optimum(self):
        solution = solve_deterministic(TOY3, toy3_oracle(), ContinuousGreedyConfig(delta=90))
        assert solution.set == frozenset({0, 2})
        assert solution.value == 3.0

    def test_motivating_instance_near_feasible(self):
        oracle = ModularObjective([1, 1])
        solution = solve_deterministic(RAND2, oracle, ContinuousGreedyConfig(delta=8))
        assert len(solution.set) == 1
        assert solution.value == 1.0
        counts = group_counts(RAND2, solution.set)
        assert all(0 <= c <= 1 for c in counts)

    def test_unconstrained_is_top_budget_items(self):
        inst = make_instance(4, [({0, 1, 2, 3}, 0, 4)], 2)
        oracle = ModularObjective([1, 7, 3, 5])
        solution = solve_deterministic(inst, oracle, ContinuousGreedyConfig(delta=48))
        assert solution.set == frozenset({1, 3})


class TestMatroid:
    def test_budget_with_floors_blocks(self):
        assert not matroid_independent({0, 1, 2}, LP_EXAMPLE)

    def test_empty_set(self):
        assert matroid_independent(set(), LP_EXAMPLE)

    def test_two_item_set(self):
        assert matroid_independent({0, 2}, LP_EXAMPLE)

    def test_exchange_and_heredity_exhaustive(self):
        rng = np.random.default_rng(70)
        for _ in range(20):
            inst = random_disjoint_instance(rng, n_max=6, integral=True)
            n = inst.item_count
            independents = [
                frozenset(s)
                for k in range(n + 1)
                for s in itertools.combinations(range(n), k)
                if matroid_independent(s, inst)
            ]
            family = set(independents)
            assert frozenset() in family
            for s in independents:
                for e in s:
                    assert s - {e} in family  # heredity
            for small in independents:
                for big in independents:
                    if len(small) >= len(big):
                        continue
                    assert any(small | {e} in family for e in big - small)  # exchange


class TestFastGreedy:
    def test_modular_hand_simulation(self):
        solution = fast_greedy(LP_EXAMPLE, ModularObjective([3, 2, 5]))
        assert solution.set == frozenset({0, 2})
        assert solution.value == 8.0

    def test_toy3_tie_broken_by_id(self):
        solution = fast_greedy(TOY3, toy3_oracle())
        assert solution.set == frozenset({0, 2})
        assert solution.value == 3.0

    def test_unconstrained_top_budget(self):
        inst = make_instance(4, [({0, 1, 2, 3}, 0, 4)], 2)
        solution = fast_greedy(inst, ModularObjective([1, 7, 3, 5]))
        assert solution.set == frozenset({1, 3})

    def test_infeasible_relaxation(self):
        inst = make_instance(2, [({0}, 1, 1), ({1}, 1, 1)], 1)
        with pytest.raises(InfeasibleRelaxation):
            fast_greedy(inst, ModularObjective([1, 1]))

    def test_fractional_bounds_relax_before_greedy(self):
        # floors of (0.5, 0.5) are zero, so budget 1 becomes feasible
        solution = fast_greedy(RAND2, ModularObjective([1, 2]))
        assert solution.set == frozenset({1})

    def test_output_near_feasible_and_maximal(self):
        rng = np.random.default_rng(80)
        for _ in range(40):
            inst = random_disjoint_instance(rng, integral=bool(rng.integers(2)))
            oracle = random_coverage(rng, inst.item_count)
            solution = fast_greedy(inst, oracle)
            assert solution.within_relaxed_bounds(inst)
            for e in range(inst.item_count):
                if e not in solution.set:
                    assert not matroid_independent(solution.set | {e}, inst)

    def test_lower_bounds_met_by_maximality(self):
        rng = np.random.default_rng(81)
        for _ in range(40):
            inst = random_disjoint_instance(rng, integral=True)
            oracle = random_coverage(rng, inst.item_count)
            counts = group_counts(inst, fast_greedy(inst, oracle).set)
            for c, g in zip(counts, inst.groups):
                assert c >= math.floor(g.alpha)


class TestGuarantees:
    def test_both_solvers_beat_their_floors_on_small_corpus(self):
        rng = np.random.default_rng(90)
        mu = 1 - 1 / math.e
        for _ in range(15):
            inst = random_disjoint_instance(rng, integral=True)
            oracle = random_coverage(rng, inst.item_count)
            _, opt = brute_force_lp(inst, oracle)
            det = solve_deterministic(inst, oracle, ContinuousGreedyConfig(delta=30 * inst.item_count))
            greedy = fast_greedy(inst, oracle)
            if opt > 0:
                assert det.value / opt >= mu * mu - 1e-6
                assert greedy.value / opt >= mu * mu / 2 - 1e-6
