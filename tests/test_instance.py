"""Instance data model, validation report, and file round trips."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from fairsubmax import (
    CoverageObjective,
    EnumerationBudgetExceeded,
    FacilityLocationObjective,
    GroupSpec,
    Instance,
    InvalidInstance,
    ModularObjective,
    ParseError,
    enumerate_feasible_sets,
    group_counts,
    load_instance,
    save_instance,
    validate,
)
from fairsubmax.instance import count_feasible_sets


def make_instance(n, groups, b):
    return Instance(n, tuple(GroupSpec(f"g{k}", frozenset(m), a, bb) for k, (m, a, bb) in enumerate(groups)), b)


class TestValidate:
    def test_motivating_two_group_instance(self):
        inst = make_instance(2, [({0}, 0.5, 0.5), ({1}, 0.5, 0.5)], 1)
        report = validate(inst)
        assert report.disjoint and report.covering
        assert report.lp_feasible
        assert not report.integral_bounds

    def test_unconstrained_single_group(self):
        inst = make_instance(3, [({0, 1, 2}, 0.0, 3.0)], 3)
        report = validate(inst)
        assert report.disjoint and report.covering and report.lp_feasible
        assert report.integral_bounds

    def test_lower_bounds_above_budget_are_lp_infeasible(self):
        inst = make_instance(2, [({0}, 1.0, 1.0), ({1}, 1.0, 1.0)], 1)
        assert not validate(inst).lp_feasible

    def test_overlapping_groups_only_flagged(self):
        inst = make_instance(3, [({0, 1}, 0.0, 2.0), ({1, 2}, 0.0, 2.0)], 2)
        report = validate(inst)
        assert not report.disjoint
        assert report.covering and report.lp_feasible

    def test_non_covering_groups_flagged(self):
        inst = make_instance(3, [({0}, 0.0, 1.0)], 1)
        assert not validate(inst).covering

    def test_pure(self):
        inst = make_instance(2, [({0}, 0.5, 0.5), ({1}, 0.5, 0.5)], 1)
        assert validate(inst) == validate(inst)

    def test_overlap_feasibility_needs_lp(self):
        # the naive sum(alpha) <= b test would reject this overlapping instance
        inst = make_instance(2, [({0, 1}, 1.0, 2.0), ({0, 1}, 1.0, 2.0)], 1)
        assert validate(inst).lp_feasible


class TestInvariants:
    def test_out_of_range_member(self):
        with pytest.raises(InvalidInstance):
            make_instance(3, [({0, 5}, 0.0, 1.0)], 1)

    def test_alpha_above_beta(self):
        with pytest.raises(InvalidInstance):
            make_instance(2, [({0, 1}, 2.0, 1.0)], 1)

    @pytest.mark.parametrize(
        "alpha, beta", [(math.nan, 1.0), (0.0, math.nan), (0.0, math.inf), (-math.inf, 1.0)]
    )
    def test_non_finite_bound(self, alpha, beta):
        with pytest.raises(InvalidInstance, match="non-finite"):
            make_instance(2, [({0, 1}, alpha, beta)], 1)

    def test_alpha_above_group_size(self):
        with pytest.raises(InvalidInstance):
            make_instance(2, [({0}, 2.0, 3.0)], 2)

    def test_empty_group_with_positive_alpha(self):
        with pytest.raises(InvalidInstance):
            make_instance(2, [(set(), 0.5, 1.0)], 1)

    def test_empty_group_with_zero_alpha_is_fine(self):
        inst = make_instance(2, [({0, 1}, 0.0, 1.0), (set(), 0.0, 1.0)], 1)
        assert validate(inst).disjoint

    def test_budget_must_be_positive_integer(self):
        with pytest.raises(InvalidInstance):
            make_instance(2, [({0, 1}, 0.0, 1.0)], 0)

    def test_budget_may_exceed_item_count(self):
        inst = make_instance(2, [({0, 1}, 0.0, 2.0)], 5)
        assert validate(inst).lp_feasible


class TestFiles:
    def test_load_rand2(self, rand2):
        inst, oracle = rand2
        assert inst.item_count == 2 and inst.group_count == 2 and inst.budget == 1
        assert oracle is not None and oracle.evaluate([0, 1]) == 1.0

    def test_round_trip_rand2(self, rand2, tmp_path):
        inst, oracle = rand2
        out = tmp_path / "copy.json"
        save_instance(inst, out, oracle)
        loaded, loaded_oracle = load_instance(out)
        assert loaded == inst
        assert loaded_oracle.to_spec() == oracle.to_spec()

    def test_round_trip_toy3(self, toy3, tmp_path):
        inst, oracle = toy3
        out = tmp_path / "copy.json"
        save_instance(inst, out, oracle)
        loaded, loaded_oracle = load_instance(out)
        assert loaded == inst
        assert loaded_oracle.to_spec() == oracle.to_spec()

    def test_save_twice_is_byte_identical(self, toy3, tmp_path):
        inst, oracle = toy3
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_instance(inst, a, oracle)
        save_instance(inst, b, oracle)
        assert a.read_bytes() == b.read_bytes()

    def test_member_out_of_range_in_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "items": 3, "budget": 1,
            "groups": [{"name": "g", "members": [5], "alpha": 0, "beta": 1}],
        }))
        with pytest.raises(InvalidInstance):
            load_instance(path)

    @pytest.mark.parametrize(
        "field, value",
        [("alpha", "x"), ("alpha", math.nan), ("beta", math.inf), ("alpha", -math.inf), ("beta", 10**400)],
    )
    def test_non_numeric_alpha(self, tmp_path, field, value):
        path = tmp_path / "bad.json"
        group = {"name": "g", "members": [0], "alpha": 0, "beta": 1, field: value}
        path.write_text(json.dumps({"items": 2, "budget": 1, "groups": [group]}))
        with pytest.raises(ParseError, match=rf"^groups\[0\]\.{field}: "):
            load_instance(path)

    def test_invalid_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        with pytest.raises(ParseError, match=r":\d+:\d+:"):
            load_instance(path)

    def test_named_items(self, tmp_path):
        path = tmp_path / "named.json"
        path.write_text(json.dumps({
            "items": ["apple", "pear"],
            "budget": 1,
            "groups": [{"name": "g", "members": ["pear"], "alpha": 0, "beta": 1}],
            "objective": {"type": "coverage", "elements": {"u": 2.0},
                          "covers": {"apple": ["u"], "pear": []}},
        }))
        inst, oracle = load_instance(path)
        assert inst.groups[0].members == frozenset({1})
        assert oracle.evaluate([0]) == 2.0 and oracle.evaluate([1]) == 0.0

    def test_missing_objective_is_none(self, tmp_path):
        path = tmp_path / "plain.json"
        path.write_text(json.dumps({
            "items": 2, "budget": 1,
            "groups": [{"name": "g", "members": [0, 1], "alpha": 0, "beta": 1}],
        }))
        _, oracle = load_instance(path)
        assert oracle is None

    def test_unwritable_path(self, toy3, tmp_path):
        inst, oracle = toy3
        with pytest.raises(OSError):
            save_instance(inst, tmp_path, oracle)  # a directory, not a file


class TestEnumeration:
    def test_counts(self):
        assert count_feasible_sets(3, 2) == 7
        assert count_feasible_sets(3, 9) == 8

    def test_order_is_size_then_lex(self):
        sets = enumerate_feasible_sets(3, 2)
        assert sets == [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]

    def test_budget_guard(self):
        with pytest.raises(EnumerationBudgetExceeded):
            enumerate_feasible_sets(40, 20, limit=1000)

    def test_group_counts(self):
        inst = make_instance(4, [({0, 1}, 0.0, 2.0), ({2, 3}, 0.0, 2.0)], 2)
        assert list(group_counts(inst, {0, 2, 3})) == [1, 2]


@pytest.mark.parametrize(
    "build",
    [
        lambda: ModularObjective([-1.0, 2.0]),
        lambda: ModularObjective([math.nan, 2.0]),
        lambda: ModularObjective([1.0, math.inf]),
        lambda: CoverageObjective(2, [math.nan], np.array([[True, False]])),
        lambda: FacilityLocationObjective(np.array([[1.0, math.inf]])),
    ],
)
def test_modular_weight_validation(build):
    with pytest.raises(InvalidInstance):
        build()


def test_save_uses_shortest_round_trip_floats(tmp_path):
    inst = make_instance(2, [({0, 1}, 0.1, 1.7)], 1)
    path = tmp_path / "x.json"
    save_instance(inst, path)
    loaded, _ = load_instance(path)
    assert loaded.groups[0].alpha == 0.1 and loaded.groups[0].beta == 1.7
    assert np.isclose(loaded.groups[0].alpha, inst.groups[0].alpha, rtol=0, atol=0)
