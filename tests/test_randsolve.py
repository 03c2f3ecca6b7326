"""Priced best sets, column generation, and the end-to-end randomized solver."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from fairsubmax import (
    ConfigError,
    DEFAULT_ENUMERATION_BUDGET,
    EllipsoidConfig,
    EnumerationBudgetExceeded,
    FacilityLocationObjective,
    GroupSpec,
    InfeasibleInstance,
    Instance,
    ModularObjective,
    SelectionDistribution,
    audit_distribution,
    brute_force_lp,
    group_counts,
    load_instance,
    solve_randomized,
)
from fairsubmax import randsolve
from fairsubmax.lp import FairnessPolytope
from fairsubmax.randsolve import _SeparationContext
from fairsubmax.verify import _row_counts

from conftest import (
    FIXTURES,
    random_coverage,
    random_disjoint_instance,
    random_modular,
    random_overlapping_instance,
    toy3_oracle,
)


def make_instance(n, groups, b):
    return Instance(
        n,
        tuple(GroupSpec(f"g{k}", frozenset(m), a, bb) for k, (m, a, bb) in enumerate(groups)),
        b,
    )


RAND2 = make_instance(2, [({0}, 0.5, 0.5), ({1}, 0.5, 0.5)], 1)
TOY3 = make_instance(3, [({0, 1}, 1, 1), ({2}, 1, 1)], 2)


def rand2_oracle():
    return __import__("fairsubmax").CoverageObjective(2, [1.0], np.array([[True, True]]))


def best_set(oracle, inst, lower, upper, mode="exact", enumeration_budget=DEFAULT_ENUMERATION_BUDGET):
    """The pricing oracle's best set and its score at group prices ``lower - upper``."""
    cfg = EllipsoidConfig(oracle_mode=mode, enumeration_budget=enumeration_budget)
    ctx = _SeparationContext(inst, oracle, cfg)
    chosen, score, _, _ = ctx.best_set(np.asarray(lower, dtype=float) - np.asarray(upper, dtype=float))
    return frozenset(chosen), score


class TestBestSet:
    def test_toy3_with_prices(self):
        inst = make_instance(3, [({0, 1}, 0, 2), ({2}, 0, 1)], 2)
        chosen, score = best_set(toy3_oracle(), inst, [1.0, 0.0], [0.0, 0.5])
        assert chosen == frozenset({0, 1})
        assert score == pytest.approx(5.0)

    def test_zero_prices_is_plain_cardinality_maximization(self):
        inst = make_instance(3, [({0, 1, 2}, 0, 3)], 2)
        chosen, score = best_set(ModularObjective([3, 2, 5]), inst, [0.0], [0.0])
        assert chosen == frozenset({0, 2})
        assert score == pytest.approx(8.0)

    def test_heavily_penalized_prices_return_empty_set(self):
        chosen, score = best_set(ModularObjective([1, 1]), RAND2, [0, 0], [5, 5])
        assert chosen == frozenset()
        assert score == 0.0

    def test_overlapping_items_accumulate_prices(self):
        inst = make_instance(2, [({0, 1}, 0, 2), ({0}, 0, 1)], 1)
        chosen, score = best_set(ModularObjective([1.0, 1.4]), inst, [0.3, 0.5], [0, 0])
        # item 0 carries both group prices: 1.0 + 0.8 > 1.4 + 0.3
        assert chosen == frozenset({0})
        assert score == pytest.approx(1.8)

    def test_enumeration_budget(self):
        inst = make_instance(30, [(set(range(30)), 0, 30)], 10)
        with pytest.raises(EnumerationBudgetExceeded):
            best_set(
                ModularObjective(np.ones(30)), inst, [0.0], [0.0],
                mode="exact", enumeration_budget=100,
            )

    def test_heuristic_matches_exact_on_small_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            inst = random_overlapping_instance(rng)
            oracle = random_coverage(rng, inst.item_count)
            lower = rng.uniform(0, 2, size=inst.group_count)
            upper = rng.uniform(0, 2, size=inst.group_count)
            _, exact_score = best_set(oracle, inst, lower, upper, mode="exact")
            h_set, h_score = best_set(oracle, inst, lower, upper, mode="heuristic")
            mu = 1 - 1 / math.e
            assert h_score <= exact_score + 1e-9
            assert h_score >= mu * exact_score - 1e-9 or len(h_set) <= inst.budget


class TestEnumeration:
    def test_row_counts_match_per_set_counts_across_chunks(self):
        # C(40, 3) = 9880 rows span two 8192-row count chunks
        rng = np.random.default_rng(11)
        groups = [(set(rng.choice(40, size=15, replace=False).tolist()), 0, 3) for _ in range(3)]
        inst = make_instance(40, groups, 3)
        ids = np.array(list(itertools.combinations(range(40), 3)), dtype=np.intp)
        assert ids.shape == (9880, 3)
        counts = _row_counts(FairnessPolytope.from_instance(inst).matrix, ids)
        expected = np.array([group_counts(inst, s) for s in ids.tolist()], dtype=float)
        assert np.array_equal(counts, expected)

    @pytest.mark.parametrize("budget", [0, -5])
    def test_enumeration_budget_below_one_is_a_config_error(self, budget):
        with pytest.raises(ConfigError):
            EllipsoidConfig(enumeration_budget=budget)


class TestSolveRandomized:
    def test_motivating_instance(self):
        distribution, report = solve_randomized(RAND2, rand2_oracle())
        support = {s: p for s, p in distribution.support}
        assert support[frozenset({0})] == pytest.approx(0.5, abs=1e-6)
        assert support[frozenset({1})] == pytest.approx(0.5, abs=1e-6)
        assert report.value == pytest.approx(1.0, abs=1e-4)
        counts = distribution.expected_counts(RAND2)
        assert np.allclose(counts, [0.5, 0.5], atol=1e-6)
        assert report.certificate_type == "exact-lp"

    def test_toy3_concentrates_on_unique_optimum(self):
        distribution, report = solve_randomized(TOY3, toy3_oracle())
        assert report.value == pytest.approx(3.0, abs=1e-4)
        top = max(distribution.support, key=lambda e: e[1])
        assert top[0] == frozenset({0, 2})

    def test_unconstrained_selects_everything(self):
        inst = make_instance(4, [({0, 1, 2, 3}, 0, 4)], 4)
        oracle = ModularObjective([1, 2, 3, 4])
        distribution, report = solve_randomized(inst, oracle)
        assert report.value == pytest.approx(10.0, abs=1e-3)
        assert distribution.support[0][0] == frozenset({0, 1, 2, 3})

    def test_infeasible_instance_raises(self):
        inst = make_instance(2, [({0}, 1, 1), ({1}, 1, 1)], 1)
        with pytest.raises(InfeasibleInstance):
            solve_randomized(inst, ModularObjective([1, 1]))

    def test_overlapping_groups_supported(self):
        inst = make_instance(3, [({0, 1}, 0.5, 1.5), ({1, 2}, 0.5, 1.5)], 2)
        oracle = ModularObjective([1.0, 3.0, 2.0])
        distribution, report = solve_randomized(inst, oracle)
        report_audit = audit_distribution(distribution, inst, oracle)
        assert report_audit.feasible
        _, opt = brute_force_lp(inst, oracle)
        assert abs(report.value - opt) <= 2 * report.epsilon

    def test_support_is_small(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            inst = random_overlapping_instance(rng)
            oracle = random_modular(rng, inst.item_count)
            distribution, _ = solve_randomized(inst, oracle)
            assert len(distribution.support) <= 2 * inst.group_count + 2

    def test_heuristic_mode_end_to_end(self):
        cfg = EllipsoidConfig(oracle_mode="heuristic")
        distribution, report = solve_randomized(TOY3, toy3_oracle(), cfg)
        assert report.mode == "heuristic"
        assert report.certificate_type == "one-minus-inv-e"
        audit = audit_distribution(distribution, TOY3, toy3_oracle())
        assert audit.feasible
        _, opt = brute_force_lp(TOY3, toy3_oracle())
        assert report.value >= (1 - 1 / math.e) * opt - report.epsilon

    def test_auto_mode_picks_heuristic_when_enumeration_too_big(self):
        rng = np.random.default_rng(4)
        n = 12
        oracle = random_modular(rng, n)
        inst = make_instance(n, [(set(range(6)), 1, 3), (set(range(6, 12)), 1, 3)], 4)
        cfg = EllipsoidConfig(oracle_mode="auto", enumeration_budget=20)
        distribution, report = solve_randomized(inst, oracle, cfg)
        assert report.mode == "heuristic"
        assert audit_distribution(distribution, inst, oracle).feasible

    @pytest.mark.parametrize("mode", ["exact", "heuristic"])
    def test_capped_search_claims_only_the_greedy_bound(self, mode):
        # three branch-and-bound nodes cannot prove cover22's pricing, so the
        # run falls back on the distorted greedy's (1 - 1/e) guarantee
        instance, oracle = load_instance(FIXTURES / "cover22.json")
        cfg = EllipsoidConfig(oracle_mode=mode, max_iters=3)
        _, report = solve_randomized(instance, oracle, cfg)
        _, optimum = brute_force_lp(instance, oracle)
        assert report.certificate_type == "one-minus-inv-e"
        assert report.value >= (1 - 1 / math.e) * optimum - report.epsilon

    def test_node_cap_defaults_and_override(self):
        instance, oracle = load_instance(FIXTURES / "cover22.json")

        def cap(**kwargs):
            return randsolve._SeparationContext(instance, oracle, EllipsoidConfig(**kwargs)).node_cap

        assert cap(oracle_mode="exact") is None
        assert cap(oracle_mode="heuristic") == randsolve.HEURISTIC_NODE_CAP
        assert cap(oracle_mode="exact", max_iters=7) == cap(oracle_mode="heuristic", max_iters=7) == 7

    def test_every_search_stops_at_the_node_cap(self):
        instance, oracle = load_instance(FIXTURES / "cover22.json")
        _, report = solve_randomized(instance, oracle, EllipsoidConfig(max_iters=3))
        assert 0 < report.iterations <= 3 * report.oracle_calls

    def test_epsilon_is_the_reported_reduced_cost_tolerance(self):
        _, default = solve_randomized(TOY3, toy3_oracle())
        assert default.epsilon == 1e-9 * toy3_oracle().evaluate(range(3))
        _, loose = solve_randomized(TOY3, toy3_oracle(), EllipsoidConfig(epsilon_l=0.5))
        assert loose.epsilon == 0.5
        assert loose.value >= default.value - 2 * loose.epsilon

    def test_stats_count_master_solves_nodes_pricing_calls_and_columns(self, monkeypatch):
        counted = {"solves": 0, "nodes": 0, "pricing": 0}
        pool_lp, branch_and_bound = randsolve._pool_lp, randsolve._branch_and_bound
        best_set = randsolve._SeparationContext.best_set

        def counting_pool_lp(polytope, values, counts):
            counted["solves"] += 1
            counted["columns"] = len(values)
            return pool_lp(polytope, values, counts)

        def counting_branch_and_bound(*args):
            result = branch_and_bound(*args)
            counted["nodes"] += result[1]
            return result

        def counting_best_set(self, *args):
            counted["pricing"] += 1
            return best_set(self, *args)

        monkeypatch.setattr(randsolve, "_pool_lp", counting_pool_lp)
        monkeypatch.setattr(randsolve, "_branch_and_bound", counting_branch_and_bound)
        monkeypatch.setattr(randsolve._SeparationContext, "best_set", counting_best_set)
        instance, oracle = load_instance(FIXTURES / "cover22.json")
        distribution, report = solve_randomized(instance, oracle)
        stats = report.to_json_obj()["stats"]
        assert all(type(v) is int for v in stats.values())
        assert stats["probes"] == counted["solves"] > 1
        assert stats["ellipsoid_iterations"] == counted["nodes"] > 0
        # one unpriced greedy for the seed pool, then one pricing per master
        assert stats["oracle_calls"] == counted["pricing"] == counted["solves"] + 1
        assert stats["pool_size"] == counted["columns"] >= len(distribution.support)

    def test_l_star_is_the_final_master_value(self, monkeypatch):
        values = []
        pool_lp = randsolve._pool_lp

        def recording_pool_lp(*args):
            solution = pool_lp(*args)
            values.append(float(solution.value))
            return solution

        monkeypatch.setattr(randsolve, "_pool_lp", recording_pool_lp)
        instance, oracle = load_instance(FIXTURES / "cover22.json")
        _, report = solve_randomized(instance, oracle)
        assert report.l_star == values[-1]
        assert report.to_json_obj()["L_star"] == values[-1]
        # an added column never lowers the master's value
        assert all(b >= a - 1e-12 * max(1.0, abs(a)) for a, b in zip(values, values[1:]))
        assert report.value == pytest.approx(report.l_star, abs=1e-9 * max(1.0, report.l_star))

    def test_deterministic_given_same_inputs(self):
        d1, r1 = solve_randomized(TOY3, toy3_oracle())
        d2, r2 = solve_randomized(TOY3, toy3_oracle())
        assert d1.support == d2.support
        assert r1.value == r2.value and r1.iterations == r2.iterations
        assert r1.to_json_obj() == r2.to_json_obj()


class TestDistribution:
    def test_probability_accounting(self):
        d = SelectionDistribution.from_support([({0}, 0.25), ({1}, 0.25)])
        assert d.residual == pytest.approx(0.5)
        assert d.total_probability == pytest.approx(1.0)

    def test_point_distribution(self):
        d = SelectionDistribution.point({1, 2})
        assert d.support == ((frozenset({1, 2}), 1.0),)
        assert d.residual == 0.0

    def test_residual_is_clamped_at_zero(self):
        over = math.nextafter(1.0, 2.0)
        d = SelectionDistribution.from_support([({0}, over)])
        assert d.residual == 0.0
        assert d.total_probability == over

    def test_json_shape(self):
        d = SelectionDistribution.from_support([({1, 0}, 0.5)])
        obj = d.to_json_obj()
        assert obj == {"distribution": [{"set": [0, 1], "prob": 0.5}], "residual": 0.5}


def master_lp(inst, oracle, sets):
    """The master LP over the columns ``sets``."""
    values = np.array([oracle.evaluate(s) for s in sets])
    counts = np.array([group_counts(inst, s) for s in sets], dtype=float)
    return randsolve._pool_lp(FairnessPolytope.from_instance(inst), values, counts)


class TestPoolProperties:
    def test_pool_growth_never_decreases_value(self):
        oracle = toy3_oracle()
        small_pool = [(), (1, 2)]
        small = master_lp(TOY3, oracle, small_pool)
        grown = master_lp(TOY3, oracle, small_pool + [(0, 2)])
        assert small.status == grown.status == "optimal"
        assert grown.value >= small.value - 1e-12
        assert small.value == pytest.approx(2.0, abs=1e-9)
        _, opt = brute_force_lp(TOY3, oracle)
        assert grown.value == pytest.approx(opt, abs=1e-9)

    def test_seeded_first_master_is_feasible(self, monkeypatch):
        # the empty set alone gives neither group its 0.5; the seed pool adds
        # the decomposed feasible point, {0} and {1}, before the first solve
        assert master_lp(RAND2, rand2_oracle(), [()]).status == "infeasible"
        statuses = []

        def recording_pool_lp(*args):
            solution = pool_lp(*args)
            statuses.append(solution.status)
            return solution

        pool_lp = randsolve._pool_lp
        monkeypatch.setattr(randsolve, "_pool_lp", recording_pool_lp)
        distribution, report = solve_randomized(RAND2, rand2_oracle())
        assert statuses[0] == "optimal" and len(statuses) == report.probes
        assert audit_distribution(distribution, RAND2, rand2_oracle()).feasible
        assert report.value == pytest.approx(1.0, abs=1e-12)

    def test_pooled_value_never_exceeds_brute_force(self):
        rng = np.random.default_rng(32)
        for _ in range(15):
            inst = random_overlapping_instance(rng)
            oracle = random_coverage(rng, inst.item_count)
            distribution, report = solve_randomized(inst, oracle)
            _, opt = brute_force_lp(inst, oracle)
            assert report.value <= opt + 1e-9


def linprog_optimum(instance, oracle) -> float:
    """The distribution optimum from scipy's HiGHS over every set of at most
    ``b`` items: max sum_S p_S f(S) subject to the group windows on the
    expected counts and sum_S p_S <= 1."""
    n, budget = instance.item_count, instance.budget
    sets = [s for k in range(min(budget, n) + 1) for s in itertools.combinations(range(n), k)]
    values = np.array([oracle.evaluate(s) for s in sets])
    counts = np.array([[len(g.members.intersection(s)) for s in sets] for g in instance.groups])
    result = linprog(
        -values,
        A_ub=np.vstack([counts, -counts, np.ones((1, len(sets)))]),
        b_ub=np.concatenate([instance.betas, -instance.alphas, [1.0]]),
        bounds=(0, None),
        method="highs",
    )
    assert result.status == 0
    return -result.fun


@st.composite
def fuzz_case(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        instance = random_disjoint_instance(rng, n_max=6, b_max=4, integral=draw(st.booleans()))
    else:
        instance = random_overlapping_instance(rng, n_max=6, b_max=4)
    n = instance.item_count
    family = draw(st.sampled_from(("coverage", "modular", "facility_location")))
    if family == "coverage":
        oracle = random_coverage(rng, n)
    elif family == "modular":
        oracle = random_modular(rng, n)
    else:
        oracle = FacilityLocationObjective(rng.uniform(0, 2, size=(int(rng.integers(1, n + 2)), n)))
    return instance, oracle


class TestAgainstLinprog:
    """solve_randomized against a reference LP that shares no code with it."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(fuzz_case())
    def test_exact_is_optimal_and_heuristic_within_the_greedy_bound(self, case):
        instance, oracle = case
        opt = linprog_optimum(instance, oracle)
        tol = 1e-7 * max(1.0, opt)
        for mode in ("exact", "heuristic"):
            distribution, report = solve_randomized(
                instance, oracle, EllipsoidConfig(oracle_mode=mode)
            )
            audit = audit_distribution(distribution, instance, oracle)
            assert audit.feasible and audit.budget_ok
            if mode == "exact":
                assert abs(report.value - opt) <= tol
            else:
                assert (1 - 1 / math.e) * opt - tol <= report.value <= opt + tol
