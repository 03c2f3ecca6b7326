"""Objective oracles: set evaluation, marginals, and extensions."""

from __future__ import annotations

import numpy as np
import pytest

from fairsubmax import (
    ConfigError,
    CoverageObjective,
    EstimationConfig,
    FacilityLocationObjective,
    ModularObjective,
    oracle_from_spec,
)

from conftest import random_coverage, random_modular, toy3_oracle


class TestEvaluate:
    def test_toy3_pair(self):
        assert toy3_oracle().evaluate([0, 1]) == 3.0

    def test_empty_set_is_zero(self):
        assert toy3_oracle().evaluate([]) == 0.0
        assert ModularObjective([3, 2, 5]).evaluate([]) == 0.0
        assert FacilityLocationObjective(np.eye(3)).evaluate([]) == 0.0

    def test_modular_sum(self):
        assert ModularObjective([3, 2, 5]).evaluate([0, 2]) == 8.0

    def test_out_of_range_item(self):
        with pytest.raises(ValueError):
            toy3_oracle().evaluate([0, 7])


class TestMarginal:
    def test_toy3_overlap(self):
        assert toy3_oracle().marginal(1, [0]) == 1.0

    def test_modular_marginal_is_weight(self):
        assert ModularObjective([3, 2, 5]).marginal(2, [0]) == 5.0

    def test_toy3_already_covered(self):
        assert toy3_oracle().marginal(2, [1]) == 0.0

    def test_member_rejected(self):
        with pytest.raises(ValueError):
            toy3_oracle().marginal(1, [0, 1])

    @pytest.mark.parametrize("family", ["coverage", "modular", "facility"])
    def test_incremental_matches_difference(self, family):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            if family == "coverage":
                oracle = random_coverage(rng, n)
            elif family == "modular":
                oracle = random_modular(rng, n)
            else:
                oracle = FacilityLocationObjective(rng.uniform(0, 2, size=(n + 1, n)))
            base = set(int(i) for i in rng.choice(n, size=int(rng.integers(0, n)), replace=False))
            outside = [i for i in range(n) if i not in base]
            if not outside:
                continue
            e = int(rng.choice(outside))
            diff = oracle.evaluate(base | {e}) - oracle.evaluate(base)
            assert oracle.marginal(e, base) == pytest.approx(diff, abs=1e-12)


class TestExtension:
    def test_toy3_closed_form(self):
        est = toy3_oracle().extension([0.5, 0.5, 0.0])
        assert est.exact and est.stderr == 0.0
        assert est.value == pytest.approx(1.75, abs=1e-12)

    def test_integral_points_match_evaluation_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            for oracle in (random_coverage(rng, n), random_modular(rng, n),
                           FacilityLocationObjective(rng.uniform(0, 2, size=(n, n)))):
                y = (rng.random(n) < 0.5).astype(float)
                est = oracle.extension(y)
                assert est.exact
                assert est.value == oracle.evaluate(np.flatnonzero(y))

    def test_forced_monte_carlo_near_closed_form(self):
        cfg = EstimationConfig(samples=100_000, seed=7, force_monte_carlo=True)
        est = toy3_oracle().extension([0.5, 0.5, 0.0], cfg)
        assert not est.exact and est.stderr > 0
        assert abs(est.value - 1.75) <= 3 * est.stderr

    def test_out_of_range_coordinate(self):
        with pytest.raises(ValueError):
            toy3_oracle().extension([0.5, 1.2, 0.0])

    def test_closed_form_matches_enumeration(self):
        rng = np.random.default_rng(3)
        for n in (4, 8, 12):
            for oracle in (random_coverage(rng, n), random_modular(rng, n)):
                y = rng.random(n)
                closed = oracle.extension(y).value
                enumerated = oracle._enumeration_extension(y)
                assert closed == pytest.approx(enumerated, abs=1e-9)

    def test_facility_location_uses_closed_form(self):
        rng = np.random.default_rng(9)
        for n in (5, 30):
            oracle = FacilityLocationObjective(rng.uniform(0, 1, size=(4, n)))
            est = oracle.extension(rng.random(n))
            assert est.exact

    def test_facility_location_closed_form_matches_enumeration(self):
        rng = np.random.default_rng(41)
        for n in range(2, 13):
            rows = int(rng.integers(1, n + 2))
            # integer similarities put ties inside the descending row orders
            if n % 2:
                similarity = rng.integers(0, 3, size=(rows, n)).astype(float)
            else:
                similarity = rng.uniform(0, 2, size=(rows, n))
            oracle = FacilityLocationObjective(similarity)
            y = random_point(rng, n)
            enumerated = oracle._enumeration_extension(y)
            assert oracle.extension(y).value == pytest.approx(enumerated, abs=1e-12)

    def test_facility_location_above_threshold_uses_monte_carlo(self):
        rng = np.random.default_rng(9)
        oracle = FacilityLocationObjective(rng.uniform(0, 1, size=(4, 6)))
        cfg = EstimationConfig(samples=4000, seed=1, force_monte_carlo=True)
        est = oracle.extension(rng.random(6), cfg)
        assert not est.exact and est.stderr > 0

    def test_monte_carlo_agrees_with_enumeration(self):
        rng = np.random.default_rng(21)
        oracle = FacilityLocationObjective(rng.uniform(0, 1, size=(5, 6)))
        y = rng.random(6)
        cfg = EstimationConfig(samples=20_000, seed=3, force_monte_carlo=True)
        est = oracle.extension(y, cfg)
        exact = oracle._enumeration_extension(y)
        assert abs(est.value - exact) <= 4 * est.stderr


class TestExtensionMarginal:
    def test_toy3_closed_form(self):
        est = toy3_oracle().extension_marginal(0, [0.0, 0.5, 0.0])
        assert est.exact and est.value == pytest.approx(1.5, abs=1e-12)

    def test_saturated_coordinate_is_zero(self):
        est = toy3_oracle().extension_marginal(1, [0.3, 1.0, 0.2])
        assert est.value == 0.0

    def test_modular_linear_algebra(self):
        est = ModularObjective([3, 2, 5]).extension_marginal(2, [0.3, 0.3, 0.4])
        assert est.exact and est.value == pytest.approx(3.0, abs=1e-12)

    def test_monte_carlo_marginal_common_random_numbers(self):
        rng = np.random.default_rng(13)
        oracle = random_coverage(rng, 6)
        cfg = EstimationConfig(samples=5000, seed=17, force_monte_carlo=True)
        for i in range(6):
            y = rng.random(6)
            est = oracle.extension_marginal(i, y, cfg)
            assert est.value >= -3 * est.stderr

    def test_exact_marginals_nonnegative(self):
        rng = np.random.default_rng(14)
        oracle = random_coverage(rng, 7)
        for _ in range(20):
            y = rng.random(7)
            i = int(rng.integers(7))
            assert oracle.extension_marginal(i, y).value >= 0.0


class TestExtensionGradient:
    @pytest.mark.parametrize("family", ["coverage", "modular", "facility"])
    def test_matches_per_item_marginals(self, family):
        rng = np.random.default_rng(40)
        for n in range(2, 13):
            for _ in range(5):
                oracle = random_oracle(rng, family, n)
                y = random_point(rng, n)
                expected = [oracle.extension_marginal(i, y).value for i in range(n)]
                gradient = oracle.extension_gradient(y)
                np.testing.assert_allclose(gradient, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("family", ["coverage", "modular", "facility", "no-closed-form"])
    def test_sampled_or_enumerated_gradient_is_the_per_item_loop(self, family):
        rng = np.random.default_rng(42)
        for n in (2, 7, 12):
            oracle = random_oracle(rng, family, n)
            y = random_point(rng, n)
            cfgs = [EstimationConfig(samples=300, seed=n, force_monte_carlo=True)]
            if family == "no-closed-form":
                cfgs.append(EstimationConfig())  # n <= exact_threshold: enumeration
                cfgs.append(EstimationConfig(samples=300, seed=n, exact_threshold=1))
            for cfg in cfgs:
                loop = [oracle.extension_marginal(i, y, cfg).value for i in range(n)]
                assert np.array_equal(oracle.extension_gradient(y, cfg), loop)

    def test_out_of_range_coordinate(self):
        with pytest.raises(ValueError):
            toy3_oracle().extension_gradient([0.5, 1.2, 0.0])

    def test_monte_carlo_needs_two_samples(self):
        cfg = EstimationConfig(samples=1, force_monte_carlo=True)
        with pytest.raises(ConfigError):
            toy3_oracle().extension_gradient([0.5, 0.5, 0.0], cfg)
        # closed forms never sample, so the setting is not consulted
        gradient = toy3_oracle().extension_gradient([0.5, 0.5, 0.0], EstimationConfig(samples=1))
        assert gradient.size == 3


class _EnumeratedCoverage(CoverageObjective):
    """Coverage with its closed forms hidden: a family without one."""

    def _closed_form_extension(self, y):
        return None

    def _closed_form_gradient(self, y):
        return None


def random_oracle(rng, family, n):
    if family == "coverage":
        return random_coverage(rng, n)
    if family == "modular":
        return random_modular(rng, n)
    if family == "facility":
        return FacilityLocationObjective(rng.uniform(0, 2, size=(int(rng.integers(1, n + 2)), n)))
    base = random_coverage(rng, n)
    return _EnumeratedCoverage(n, base._weights, base._incidence)


def random_point(rng, n):
    """A point in [0, 1]^n with some coordinates at exactly 0 or 1."""
    y = rng.random(n)
    y[rng.random(n) < 0.2] = 0.0
    y[rng.random(n) < 0.2] = 1.0
    return y


class TestProperties:
    def test_monte_carlo_convergence_rate(self):
        # |estimate - exact| <= 4 stderr on at least 99% of seeded trials
        rng = np.random.default_rng(100)
        hits = 0
        trials = 200
        for trial in range(trials):
            oracle = random_coverage(rng, int(rng.integers(3, 8)))
            y = rng.random(oracle.item_count)
            exact = oracle.extension(y).value
            cfg = EstimationConfig(samples=2000, seed=trial, force_monte_carlo=True)
            est = oracle.extension(y, cfg)
            if abs(est.value - exact) <= 4 * est.stderr:
                hits += 1
        assert hits >= int(0.99 * trials)

    def test_submodularity_spot_check(self):
        rng = np.random.default_rng(200)
        checked = 0
        while checked < 1000:
            n = int(rng.integers(3, 9))
            oracle = random_coverage(rng, n) if rng.random() < 0.6 else (
                random_modular(rng, n) if rng.random() < 0.5
                else FacilityLocationObjective(rng.uniform(0, 2, size=(n, n)))
            )
            big = set(int(i) for i in rng.choice(n, size=int(rng.integers(1, n)), replace=False))
            small = set(i for i in big if rng.random() < 0.5)
            outside = [i for i in range(n) if i not in big]
            if not outside:
                continue
            e = int(rng.choice(outside))
            assert oracle.marginal(e, big) <= oracle.marginal(e, small) + 1e-12
            assert oracle.marginal(e, big) >= 0.0
            checked += 1

    def test_marginal_determinism(self):
        oracle = toy3_oracle()
        cfg = EstimationConfig(samples=1000, seed=5, force_monte_carlo=True)
        first = oracle.extension_marginal(0, [0.2, 0.4, 0.1], cfg)
        second = oracle.extension_marginal(0, [0.2, 0.4, 0.1], cfg)
        assert first == second


class TestSerialization:
    def test_round_trip_specs(self):
        rng = np.random.default_rng(30)
        for oracle in (toy3_oracle(), random_modular(rng, 4),
                       FacilityLocationObjective(rng.uniform(0, 1, size=(3, 4)))):
            spec = oracle.to_spec()
            rebuilt = oracle_from_spec(spec, oracle.item_count)
            assert rebuilt.to_spec() == spec
            s = [0, 2]
            assert rebuilt.evaluate(s) == pytest.approx(oracle.evaluate(s), abs=1e-12)
