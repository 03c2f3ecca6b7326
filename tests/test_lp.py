"""LP kernel: greedy allocation over the polytope and the simplex."""

from __future__ import annotations

import numpy as np
import pytest

from fairsubmax import (
    EmptyPolytope,
    FairnessPolytope,
    GroupStructureError,
    LinearConstraint,
    LinearProgram,
    maximize_linear,
    membership,
    polytope_linear_program,
    solve_simplex,
)


def make_polytope(n, memberships, lowers, uppers, budget):
    return FairnessPolytope(
        item_count=n,
        memberships=tuple(tuple(g) for g in memberships),
        lowers=np.asarray(lowers, float),
        uppers=np.asarray(uppers, float),
        budget=budget,
    )


def random_laminar_polytope(rng: np.random.Generator, n_max=10, m_max=4):
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(1, min(m_max, n) + 1))
    parts = np.array_split(rng.permutation(n), m)
    sizes = np.array([p.size for p in parts], float)
    lowers = np.array([rng.uniform(0, s) for s in sizes])
    lowers = np.minimum(lowers, sizes)
    uppers = lowers + rng.uniform(0, 2, size=m)
    budget = int(np.ceil(lowers.sum())) + int(rng.integers(0, n + 1))
    budget = max(budget, 1)
    return make_polytope(n, [tuple(int(i) for i in p) for p in parts], lowers, uppers, budget)


class TestMaximizeLinear:
    def test_two_group_allocation(self):
        poly = make_polytope(3, [(0, 1), (2,)], [1, 0], [2, 1], 2)
        y = maximize_linear([3, 2, 5], poly)
        assert np.allclose(y, [1, 0, 1])
        assert np.dot([3, 2, 5], y) == pytest.approx(8.0)

    def test_zero_weights_return_lower_bound_allocation(self):
        poly = make_polytope(3, [(0, 1), (2,)], [1, 0], [2, 1], 2)
        y = maximize_linear([0, 0, 0], poly)
        assert np.allclose(y, [1, 0, 0])

    def test_forced_group_equality_with_tie(self):
        poly = make_polytope(2, [(0, 1)], [0.5], [0.5], 1)
        y = maximize_linear([1, 1], poly)
        assert np.allclose(y, [0.5, 0.0])

    def test_empty_polytope_budget(self):
        poly = make_polytope(2, [(0,), (1,)], [1, 1], [1, 1], 1)
        with pytest.raises(EmptyPolytope):
            maximize_linear([1, 1], poly)

    def test_empty_polytope_group_size(self):
        poly = make_polytope(2, [(0,), (1,)], [2, 0], [3, 1], 4)
        with pytest.raises(EmptyPolytope):
            maximize_linear([1, 1], poly)

    def test_requires_disjoint_covering(self):
        overlapping = make_polytope(2, [(0, 1), (1,)], [0, 0], [1, 1], 1)
        with pytest.raises(GroupStructureError):
            maximize_linear([1, 1], overlapping)
        partial = make_polytope(3, [(0, 1)], [0], [1], 1)
        with pytest.raises(GroupStructureError):
            maximize_linear([1, 1, 1], partial)

    def test_negative_weights_clamped(self):
        poly = make_polytope(2, [(0,), (1,)], [0, 0], [1, 1], 2)
        y = maximize_linear([-0.5, 1.0], poly)
        assert np.allclose(y, [0, 1])

    def test_matches_simplex_on_random_laminar_lps(self):
        rng = np.random.default_rng(77)
        for _ in range(60):
            poly = random_laminar_polytope(rng)
            weights = rng.uniform(0, 3, size=poly.item_count)
            y = maximize_linear(weights, poly)
            assert membership(y, poly)
            solution = solve_simplex(polytope_linear_program(poly, weights))
            assert solution.status == "optimal"
            assert float(weights @ y) == pytest.approx(solution.value, abs=1e-9)


class TestMembership:
    def test_inside_vertex(self):
        poly = make_polytope(3, [(0, 1), (2,)], [1, 0], [2, 1], 2)
        assert membership([1, 0, 1], poly)

    def test_budget_violation(self):
        poly = make_polytope(3, [(0, 1), (2,)], [1, 0], [2, 1], 2)
        assert not membership([1, 1, 1], poly)

    def test_lower_bound_violation(self):
        poly = make_polytope(2, [(0,), (1,)], [1, 0], [1, 1], 2)
        assert not membership([0, 0], poly)

    def test_overlap_budget_counts_each_item_once(self):
        poly = make_polytope(2, [(0, 1), (0, 1)], [0, 0], [2, 2], 1)
        # the budget row is sum(y) <= b, whatever groups an item is in
        assert membership([0.6, 0.0], poly)
        assert not membership([0.6, 0.6], poly)


class TestSimplex:
    def test_simple_maximum(self):
        lp = LinearProgram(np.array([1.0, 1.0]),
                           (LinearConstraint(np.array([1.0, 1.0]), "<=", 1.0),))
        solution = solve_simplex(lp)
        assert solution.status == "optimal"
        assert solution.value == pytest.approx(1.0, abs=1e-12)

    def test_motivating_distribution_lp(self):
        # columns are the three feasible sets {}, {0}, {1} of the two-item instance
        lp = LinearProgram(
            np.array([0.0, 1.0, 1.0]),
            (
                LinearConstraint(np.array([0.0, 1.0, 0.0]), ">=", 0.5),
                LinearConstraint(np.array([0.0, 1.0, 0.0]), "<=", 0.5),
                LinearConstraint(np.array([0.0, 0.0, 1.0]), ">=", 0.5),
                LinearConstraint(np.array([0.0, 0.0, 1.0]), "<=", 0.5),
                LinearConstraint(np.array([1.0, 1.0, 1.0]), "<=", 1.0),
            ),
        )
        solution = solve_simplex(lp)
        assert solution.status == "optimal"
        assert solution.value == pytest.approx(1.0, abs=1e-9)
        assert solution.x[1] == pytest.approx(0.5, abs=1e-9)
        assert solution.x[2] == pytest.approx(0.5, abs=1e-9)

    def test_infeasible_system(self):
        lp = LinearProgram(np.array([1.0]),
                           (LinearConstraint(np.array([1.0]), "<=", -1.0),))
        assert solve_simplex(lp).status == "infeasible"

    def test_unbounded(self):
        lp = LinearProgram(np.array([1.0]),
                           (LinearConstraint(np.array([-1.0]), "<=", 1.0),))
        assert solve_simplex(lp).status == "unbounded"

    def test_equality_rows(self):
        lp = LinearProgram(
            np.array([2.0, 1.0]),
            (
                LinearConstraint(np.array([1.0, 1.0]), "==", 1.0),
                LinearConstraint(np.array([1.0, 0.0]), "<=", 0.25),
            ),
        )
        solution = solve_simplex(lp)
        assert solution.status == "optimal"
        assert solution.value == pytest.approx(1.25, abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            LinearProgram(np.array([1.0, 2.0]), (LinearConstraint(np.array([1.0]), "<=", 1.0),))


class TestSimplexProperties:
    def _random_lp(self, rng):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        c = rng.uniform(-1, 2, size=n)
        rows = []
        for _ in range(m):
            coeffs = rng.uniform(0, 2, size=n)
            rows.append(LinearConstraint(coeffs, "<=", float(rng.uniform(0.5, 4))))
        return LinearProgram(c, tuple(rows))

    def test_duality_and_complementary_slackness(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            lp = self._random_lp(rng)
            solution = solve_simplex(lp)
            assert solution.status == "optimal"
            rhs = np.array([r.rhs for r in lp.constraints])
            rows = np.array([r.coeffs for r in lp.constraints])
            # primal feasibility
            assert np.all(rows @ solution.x <= rhs + 1e-9)
            assert np.all(solution.x >= -1e-9)
            # strong duality
            assert solution.value == pytest.approx(float(solution.duals @ rhs), abs=1e-7)
            # complementary slackness
            slack = rhs - rows @ solution.x
            assert np.max(np.abs(solution.duals * slack)) <= 1e-7
            # dual feasibility for <= rows of a max problem
            assert np.all(solution.duals >= -1e-9)
            reduced = solution.duals @ rows - lp.objective
            assert np.all(reduced >= -1e-7)

    def test_basic_solutions_are_sparse(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            lp = self._random_lp(rng)
            solution = solve_simplex(lp)
            nonzeros = int(np.sum(solution.x > 1e-9))
            assert nonzeros <= len(lp.constraints)

    def test_duality_with_mixed_senses(self):
        rng = np.random.default_rng(44)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            c = rng.uniform(-1, 2, size=n)
            witness = rng.uniform(0, 2, size=n)
            rows = []
            for _ in range(m):
                coeffs = rng.uniform(-1, 2, size=n)
                anchor = float(coeffs @ witness)
                sense = ("<=", ">=", "==")[int(rng.integers(3))]
                shift = {"<=": 0.5, ">=": -0.5, "==": 0.0}[sense]
                rows.append(LinearConstraint(coeffs, sense, anchor + shift))
            rows.append(LinearConstraint(np.ones(n), "<=", float(witness.sum()) + 3.0))
            lp = LinearProgram(c, tuple(rows))
            solution = solve_simplex(lp)
            assert solution.status == "optimal"
            rhs = np.array([r.rhs for r in lp.constraints])
            coeff_rows = np.array([r.coeffs for r in lp.constraints])
            assert solution.value == pytest.approx(float(solution.duals @ rhs), abs=1e-7)
            slack = rhs - coeff_rows @ solution.x
            assert np.max(np.abs(solution.duals * slack)) <= 1e-7
            for dual, row in zip(solution.duals, lp.constraints):
                if row.sense == "<=":
                    assert dual >= -1e-7
                elif row.sense == ">=":
                    assert dual <= 1e-7
