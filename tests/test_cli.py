"""Command-line interface behaviour and output determinism."""

from __future__ import annotations

import importlib
import json
import math
import shutil

import pytest

from fairsubmax.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolveCommands:
    def test_solve_rand_json(self, capsys, fixtures_dir):
        code, out, _ = run(
            capsys, "solve-rand", "--instance", str(fixtures_dir / "rand2.json"),
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["value"] - 1.0) <= 1e-4
        assert doc["feasibility"] == "strict"
        assert doc["certificate"]["type"] == "exact-lp"
        probs = {tuple(e["set"]): e["prob"] for e in doc["distribution"]}
        assert probs[(0,)] == pytest.approx(0.5, abs=1e-6)
        assert probs[(1,)] == pytest.approx(0.5, abs=1e-6)

    def test_solve_det_toy3(self, capsys, fixtures_dir):
        code, out, _ = run(
            capsys, "solve-det", "--instance", str(fixtures_dir / "toy3.json"),
            "--format", "json", "--delta", "60",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["set"] == [0, 2] and doc["value"] == 3.0
        assert doc["feasibility"] == "strict"

    def test_solve_greedy_toy3(self, capsys, fixtures_dir):
        code, out, _ = run(
            capsys, "solve-greedy", "--instance", str(fixtures_dir / "toy3.json"),
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["value"] == 3.0

    def test_oracle(self, capsys, fixtures_dir):
        code, out, _ = run(
            capsys, "oracle", "--instance", str(fixtures_dir / "rand2.json"),
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["optimum"] == pytest.approx(1.0, abs=1e-9)

    def test_infeasible_instance_exit_code(self, capsys, fixtures_dir):
        code, _, err = run(
            capsys, "solve-det", "--instance", str(fixtures_dir / "infeasible.json"),
        )
        assert code == 1
        assert "infeasible" in err.lower()

    def test_solve_rand_infeasible(self, capsys, fixtures_dir):
        code, _, err = run(
            capsys, "solve-rand", "--instance", str(fixtures_dir / "infeasible.json"),
        )
        assert code == 1

    def test_missing_file_exit_code(self, capsys, tmp_path):
        code, _, err = run(capsys, "solve-det", "--instance", str(tmp_path / "nope.json"))
        assert code == 2

    def test_malformed_file_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code, _, err = run(capsys, "solve-det", "--instance", str(bad))
        assert code == 2

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("solve-det", "--delta", "0"),
            ("solve-rand", "--epsilon-l", "0"),
            ("solve-rand", "--epsilon-l", "nan"),
            ("solve-rand", "--epsilon-l", "inf"),
            ("solve-rand", "--epsilon-l", "-inf"),
        ],
    )
    def test_bad_config_exits_2_with_one_error_line(self, capsys, fixtures_dir, command, flag, value):
        code, out, err = run(
            capsys, command, "--instance", str(fixtures_dir / "toy3.json"), f"{flag}={value}",
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["solve-rand", "solve-det", "solve-greedy", "oracle"])
    @pytest.mark.parametrize(
        "group, objective",
        [({"alpha": math.nan}, {}), ({"beta": math.inf}, {}), ({}, {"weights": [math.nan, 2.0, 3.0]})],
    )
    def test_non_finite_input_exits_2_with_one_error_line(self, capsys, tmp_path, command, group, objective):
        doc = {
            "items": 3, "budget": 2,
            "groups": [
                {"name": "a", "members": [0, 1], "alpha": 1, "beta": 1, **group},
                {"name": "b", "members": [2], "alpha": 1, "beta": 1},
            ],
            "objective": {"type": "modular", "weights": [1.0, 2.0, 3.0], **objective},
        }
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, "--instance", str(bad))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_trace_rejected_where_not_written(self, capsys, fixtures_dir, tmp_path):
        trace = tmp_path / "trace.ldjson"
        code, _, err = run(
            capsys, "solve-greedy", "--instance", str(fixtures_dir / "toy3.json"),
            "--trace", str(trace),
        )
        assert code == 2 and "--trace" in err
        assert not trace.exists()

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("solve-greedy", ["--delta", "0", "--epsilon-l", "-1", "--samples", "0"]),
            ("solve-greedy", ["--seed", "1"]),
            ("solve-det", ["--epsilon-l", "1"]),
            ("solve-det", ["--enum-budget", "10"]),
            ("solve-rand", ["--delta", "5"]),
            ("solve-rand", ["--samples", "5"]),
            ("oracle", ["--oracle-mode", "exact"]),
            ("check", ["--result", "x.json", "--seed", "1"]),
            ("solve-det", ["--samples", "0"]),
            ("solve-det", ["--seed", "9"]),
            ("bench", ["--samples", "7"]),
            ("bench", ["--seed", "9"]),
        ],
    )
    def test_flags_a_subcommand_does_not_read_exit_2(self, capsys, fixtures_dir, command, flags):
        code, out, err = run(
            capsys, command, "--instance", str(fixtures_dir / "toy3.json"), *flags,
        )
        assert code == 2 and out == ""
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("command", ["solve-rand", "oracle", "bench"])
    @pytest.mark.parametrize("budget", ["-5", "0"])
    def test_enum_budget_below_one_exits_2(self, capsys, fixtures_dir, command, budget):
        instance = fixtures_dir if command == "bench" else fixtures_dir / "toy3.json"
        code, out, err = run(
            capsys, command, "--instance", str(instance), "--enum-budget", budget,
        )
        assert code == 2 and out == ""
        assert err == "error: enumeration_budget must be at least 1\n"

    def test_bench_bad_delta_exits_2_before_any_instance(self, capsys, fixtures_dir):
        code, out, err = run(capsys, "bench", "--instance", str(fixtures_dir), "--delta", "0")
        assert code == 2 and out == ""
        assert err == "error: delta must be at least 1\n"

    def test_byte_identical_json_outputs(self, capsys, fixtures_dir):
        argv = ("solve-rand", "--instance", str(fixtures_dir / "rand2.json"), "--format", "json")
        first_code, first, _ = run(capsys, *argv)
        second_code, second, _ = run(capsys, *argv)
        assert first_code == second_code == 0
        assert first and first == second

    def test_out_file(self, capsys, fixtures_dir, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run(
            capsys, "solve-greedy", "--instance", str(fixtures_dir / "toy3.json"),
            "--format", "json", "--out", str(target),
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["value"] == 3.0

    def test_trace_file(self, capsys, fixtures_dir, tmp_path):
        trace = tmp_path / "trace.ldjson"
        code, _, _ = run(
            capsys, "solve-det", "--instance", str(fixtures_dir / "toy3.json"),
            "--format", "json", "--delta", "8", "--trace", str(trace),
        )
        assert code == 0
        lines = [json.loads(line) for line in trace.read_text().splitlines()]
        assert len(lines) >= 8
        assert {"iteration", "support", "extension_estimate"} <= set(lines[0])


class TestBenchmarkContract:
    """The argv shapes the benchmark harness runs, and the keys it reads back."""

    RAND_KEYS = {"distribution", "residual", "value", "expected_group_counts", "feasibility"}
    RAND_STATS = {"probes", "ellipsoid_iterations", "oracle_calls", "pool_size"}
    SET_KEYS = {"set", "value", "group_counts", "feasibility"}

    @pytest.mark.parametrize(
        "argv, fixture",
        [
            (["solve-rand", "--oracle-mode", "exact"], "rand2.json"),
            (["solve-rand", "--oracle-mode", "heuristic"], "rand2.json"),
            (["solve-det"], "toy3.json"),
            (["solve-greedy"], "toy3.json"),
        ],
    )
    def test_argv_shape_writes_the_keys_read_back(self, capsys, fixtures_dir, tmp_path, argv, fixture):
        out = tmp_path / "out.json"
        code, stdout, err = run(
            capsys, *argv, "--instance", str(fixtures_dir / fixture),
            "--format", "json", "--out", str(out),
        )
        assert code == 0 and stdout == "" and err == ""
        doc = json.loads(out.read_text())
        if argv[0] == "solve-rand":
            assert self.RAND_KEYS <= set(doc)
            assert isinstance(doc["certificate"]["epsilon"], float)
            assert self.RAND_STATS <= set(doc["stats"])
            assert all(isinstance(doc["stats"][k], int) for k in self.RAND_STATS)
        else:
            assert self.SET_KEYS <= set(doc)

    # (module, attribute path) of every span the benchmark's tracer wraps;
    # a missing name drops its metrics from the traced run
    TRACED = [
        ("fairsubmax.cli", "main"),
        ("fairsubmax.instance", "load_instance"),
        ("fairsubmax.instance", "validate"),
        ("fairsubmax.instance", "enumerate_feasible_sets"),
        ("fairsubmax.instance", "group_counts"),
        ("fairsubmax.lp", "solve_simplex"),
        ("fairsubmax.lp", "maximize_linear"),
        ("fairsubmax.lp", "_pivot"),
        ("fairsubmax.randsolve", "solve_randomized"),
        ("fairsubmax.randsolve", "_SeparationContext.best_set"),
        ("fairsubmax.randsolve", "_ellipsoid_run"),
        ("fairsubmax.randsolve", "_SeparationContext.__init__"),
        ("fairsubmax.detsolve", "continuous_greedy"),
        ("fairsubmax.detsolve", "pipage_round"),
        ("fairsubmax.detsolve", "fast_greedy"),
        ("fairsubmax.detsolve", "matroid_independent"),
        ("fairsubmax.verify", "audit_distribution"),
        ("fairsubmax.objectives", "ObjectiveOracle.evaluate"),
        ("fairsubmax.objectives", "ObjectiveOracle.marginal"),
        ("fairsubmax.objectives", "ObjectiveOracle.extension"),
        ("fairsubmax.objectives", "ObjectiveOracle.extension_marginal"),
    ]

    @pytest.mark.parametrize("module, path", TRACED)
    def test_traced_name_is_defined_where_the_tracer_looks(self, module, path):
        # the tracer reads each name from the namespace that defines it,
        # not through inheritance
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert callable(vars(owner).get(attr))


class TestCheck:
    def test_check_reports_infeasible_result_with_exit_zero(self, capsys, fixtures_dir, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"distribution": [{"set": [0], "prob": 1.0}], "residual": 0.0}))
        code, out, _ = run(
            capsys, "check", "--instance", str(fixtures_dir / "rand2.json"),
            "--result", str(bad), "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["feasible"] is False

    def test_check_reports_support_mass_above_one_infeasible(self, capsys, fixtures_dir, tmp_path):
        # the windows hold, but the support mass is 1.2; the residual clamps to 0
        over = tmp_path / "over.json"
        over.write_text(json.dumps({"distribution": [
            {"set": [0, 2], "prob": 1.0}, {"set": [], "prob": 0.2},
        ]}))
        code, out, _ = run(
            capsys, "check", "--instance", str(fixtures_dir / "toy3.json"),
            "--result", str(over), "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["feasible"] is False
        assert doc["expected_group_counts"] == [1.0, 1.0]
        assert doc["max_violation"] == pytest.approx(0.2)

    def test_check_set_result(self, capsys, fixtures_dir, tmp_path):
        res = tmp_path / "set.json"
        res.write_text(json.dumps({"set": [0, 2]}))
        code, out, _ = run(
            capsys, "check", "--instance", str(fixtures_dir / "toy3.json"),
            "--result", str(res), "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["feasible"] is True
        assert doc["expected_group_counts"] == [1.0, 1.0]

    @pytest.mark.parametrize(
        "result",
        [
            {"set": [0, 99]},
            {"set": ["x"]},
            {"set": [True]},
            {"set": 2},
            {"distribution": [{"set": [0], "prob": "half"}]},
            {"distribution": [{"set": [0, 2], "prob": 1.0}, {"set": [1], "prob": -0.2}]},
            {"distribution": [{"set": [99], "prob": 0.5}]},
            {"distribution": 3},
        ],
    )
    def test_bad_result_exits_2_with_one_error_line(self, capsys, fixtures_dir, tmp_path, result):
        path = tmp_path / "result.json"
        path.write_text(json.dumps(result))
        code, out, err = run(
            capsys, "check", "--instance", str(fixtures_dir / "toy3.json"), "--result", str(path),
        )
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1

    def test_check_good_distribution(self, capsys, fixtures_dir, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(json.dumps({
            "distribution": [{"set": [0], "prob": 0.5}, {"set": [1], "prob": 0.5}],
            "residual": 0.0,
        }))
        code, out, _ = run(
            capsys, "check", "--instance", str(fixtures_dir / "rand2.json"),
            "--result", str(good), "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["feasible"] is True


class TestBench:
    def test_bench_directory(self, capsys, fixtures_dir, tmp_path):
        bench_dir = tmp_path / "instances"
        bench_dir.mkdir()
        shutil.copy(fixtures_dir / "rand2.json", bench_dir / "rand2.json")
        shutil.copy(fixtures_dir / "toy3.json", bench_dir / "toy3.json")
        code, out, _ = run(
            capsys, "bench", "--instance", str(bench_dir), "--format", "json",
            "--delta", "60",
        )
        assert code == 0
        doc = json.loads(out)
        rows = doc["rows"]
        assert [r["instance"] for r in rows] == sorted(r["instance"] for r in rows)
        mu = 1 - 1 / math.e
        for row in rows:
            if row["ratio"] is None:
                continue
            if row["solver"] == "solve-det":
                assert row["ratio"] >= mu * mu - 1e-6
            elif row["solver"] == "solve-greedy":
                assert row["ratio"] >= mu * mu / 2 - 1e-6
            else:
                assert row["ratio"] >= 1 - 1e-3

    def test_bench_table_has_timings(self, capsys, fixtures_dir, tmp_path):
        bench_dir = tmp_path / "instances"
        bench_dir.mkdir()
        shutil.copy(fixtures_dir / "rand2.json", bench_dir / "rand2.json")
        code, out, _ = run(capsys, "bench", "--instance", str(bench_dir), "--delta", "20")
        assert code == 0
        assert "solve-rand" in out and "ms" in out

    def test_bench_needs_directory(self, capsys, fixtures_dir):
        code, _, _ = run(capsys, "bench", "--instance", str(fixtures_dir / "rand2.json"))
        assert code == 2

    def test_bench_survives_infeasible_instances(self, capsys, fixtures_dir, tmp_path):
        bench_dir = tmp_path / "instances"
        bench_dir.mkdir()
        shutil.copy(fixtures_dir / "infeasible.json", bench_dir / "infeasible.json")
        shutil.copy(fixtures_dir / "rand2.json", bench_dir / "rand2.json")
        code, out, _ = run(
            capsys, "bench", "--instance", str(bench_dir), "--format", "json",
            "--delta", "20",
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        infeasible_rows = [r for r in rows if r["instance"] == "infeasible"]
        assert len(infeasible_rows) == 3
        assert all(r["value"] is None for r in infeasible_rows)
        assert any(r["instance"] == "rand2" and r["value"] is not None for r in rows)
