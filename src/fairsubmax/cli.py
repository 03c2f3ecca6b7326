"""Command-line interface.

Subcommands: ``solve-det`` (continuous greedy plus pipage rounding),
``solve-greedy`` (fast matroid greedy), ``solve-rand`` (column-generation
distribution solver), ``oracle`` (brute-force reference LP), ``check``
(audit a result file against an instance), and ``bench`` (run every solver
over a directory of instances and print a comparison table).

Exit codes: 0 on success, 1 when the instance is infeasible for the chosen
solver, 2 on input and configuration errors.  With ``--format json`` the
output is byte identical across runs with the same arguments and files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

from .detsolve import ContinuousGreedyConfig, DeterministicSolution, fast_greedy, solve_deterministic
from .errors import (
    EmptyPolytope,
    EnumerationBudgetExceeded,
    FairSubmaxError,
    InfeasibleInstance,
    InfeasibleRelaxation,
    ParseError,
)
from .instance import DEFAULT_ENUMERATION_BUDGET, Instance, group_counts, load_instance
from .objectives import ObjectiveOracle
from .randsolve import EllipsoidConfig, SelectionDistribution, solve_randomized
from .verify import audit_distribution, brute_force_lp

_INFEASIBLE_ERRORS = (InfeasibleInstance, EmptyPolytope, InfeasibleRelaxation)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.handler(args)
    except _INFEASIBLE_ERRORS as exc:
        print(f"error: instance is infeasible: {exc}", file=sys.stderr)
        return 1
    except (FairSubmaxError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


#: every flag a subcommand may take beyond --instance, --out and --format
_FLAGS = {
    "--delta": dict(type=int, default=None, help="continuous greedy iteration count"),
    "--epsilon-l": dict(type=float, default=None, help="reduced-cost tolerance of column generation"),
    "--oracle-mode": dict(choices=("exact", "heuristic", "auto"), default="auto"),
    "--enum-budget": dict(type=int, default=DEFAULT_ENUMERATION_BUDGET, help="enumeration budget, at least 1"),
    "--trace": dict(default=None, help="write a line-delimited JSON run trace"),
    "--result": dict(required=True, help="result file to audit"),
}

_DET_FLAGS = ("--delta",)
_RAND_FLAGS = ("--epsilon-l", "--oracle-mode", "--enum-budget")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairsubmax",
        description="Solvers for fair submodular maximization with group fairness windows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, flags in (
        ("solve-det", _cmd_solve_det, "continuous greedy + pipage rounding", _DET_FLAGS + ("--trace",)),
        ("solve-greedy", _cmd_solve_greedy, "fast matroid greedy", ()),
        ("solve-rand", _cmd_solve_rand, "randomized distribution solver", _RAND_FLAGS),
        ("oracle", _cmd_oracle, "brute-force reference LP", ("--enum-budget",)),
        ("check", _cmd_check, "audit a result file against an instance", ("--result",)),
        ("bench", _cmd_bench, "run all solvers on an instance directory", _DET_FLAGS + _RAND_FLAGS),
    ):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--instance", required=True, help="instance file (directory for bench)")
        p.add_argument("--out", default=None, help="write output to this path instead of stdout")
        p.add_argument("--format", choices=("table", "json"), default="table")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def _ellipsoid_config(args) -> EllipsoidConfig:
    return EllipsoidConfig(
        epsilon_l=args.epsilon_l,
        oracle_mode=args.oracle_mode,
        enumeration_budget=args.enum_budget,
    )


def _load(path) -> tuple[Instance, ObjectiveOracle]:
    instance, oracle = load_instance(path)
    if oracle is None:
        raise ParseError(f"{path}: instance file declares no objective")
    return instance, oracle


def _emit(args, payload: dict, table: str) -> None:
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = table if table.endswith("\n") else table + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _classify_set(solution: DeterministicSolution, instance: Instance) -> str:
    counts = group_counts(instance, solution.set)
    if len(solution.set) <= instance.budget and all(
        g.alpha - 1e-9 <= c <= g.beta + 1e-9 for c, g in zip(counts, instance.groups)
    ):
        return "strict"
    if solution.within_relaxed_bounds(instance):
        return "near"
    return "infeasible"


def _set_payload(solution: DeterministicSolution, instance: Instance) -> dict:
    payload = {
        "value": solution.value,
        "set": sorted(solution.set),
        "group_counts": [int(c) for c in group_counts(instance, solution.set)],
        "feasibility": _classify_set(solution, instance),
    }
    if solution.fractional_value is not None:
        payload["fractional_value"] = solution.fractional_value.value
    return payload


def _set_table(payload: dict) -> str:
    lines = [
        f"value        {payload['value']:.6f}",
        f"set          {payload['set']}",
        f"group counts {payload['group_counts']}",
        f"feasibility  {payload['feasibility']}",
    ]
    if "fractional_value" in payload:
        lines.insert(1, f"fractional   {payload['fractional_value']:.6f}")
    return "\n".join(lines)


def _cmd_solve_det(args) -> int:
    instance, oracle = _load(args.instance)
    cfg = ContinuousGreedyConfig(delta=args.delta)
    trace_records: list[dict] = []
    hook = trace_records.append if args.trace else None
    solution = solve_deterministic(instance, oracle, cfg, on_iteration=hook)
    if args.trace:
        for swap in solution.trace.swaps:
            trace_records.append(
                {
                    "phase": swap.phase,
                    "coords": [swap.i] if swap.j is None else [swap.i, swap.j],
                    "theta": swap.theta,
                    "extension_before": swap.before.value,
                    "extension_after": swap.after.value,
                }
            )
        Path(args.trace).write_text(
            "".join(json.dumps(r, sort_keys=True) + "\n" for r in trace_records),
            encoding="utf-8",
        )
    payload = _set_payload(solution, instance)
    _emit(args, payload, _set_table(payload))
    return 0


def _cmd_solve_greedy(args) -> int:
    instance, oracle = _load(args.instance)
    solution = fast_greedy(instance, oracle)
    payload = _set_payload(solution, instance)
    _emit(args, payload, _set_table(payload))
    return 0


def _distribution_payload(
    distribution: SelectionDistribution, instance: Instance, oracle: ObjectiveOracle
) -> dict:
    report = audit_distribution(distribution, instance, oracle)
    payload = distribution.to_json_obj()
    payload["value"] = report.value
    payload["expected_group_counts"] = [float(c) for c in report.expected_counts]
    payload["feasibility"] = "strict" if report.feasible else "infeasible"
    return payload


def _distribution_table(payload: dict) -> str:
    lines = [f"value        {payload['value']:.6f}"]
    for entry in payload["distribution"]:
        lines.append(f"  p={entry['prob']:.6f}  set={entry['set']}")
    if payload["residual"] > 1e-12:
        lines.append(f"  p={payload['residual']:.6f}  set=[] (residual)")
    lines.append(f"counts       {payload['expected_group_counts']}")
    lines.append(f"feasibility  {payload['feasibility']}")
    return "\n".join(lines)


def _cmd_solve_rand(args) -> int:
    instance, oracle = _load(args.instance)
    distribution, report = solve_randomized(instance, oracle, _ellipsoid_config(args))
    payload = _distribution_payload(distribution, instance, oracle)
    payload.update(report.to_json_obj())
    _emit(args, payload, _distribution_table(payload))
    return 0


def _cmd_oracle(args) -> int:
    budget = EllipsoidConfig(enumeration_budget=args.enum_budget).enumeration_budget  # range check
    instance, oracle = _load(args.instance)
    distribution, optimum = brute_force_lp(instance, oracle, budget)
    payload = _distribution_payload(distribution, instance, oracle)
    payload["optimum"] = optimum
    _emit(args, payload, _distribution_table(payload))
    return 0


def _cmd_check(args) -> int:
    instance, oracle = _load(args.instance)
    distribution = _read_result(args.result, instance.item_count)
    report = audit_distribution(distribution, instance, oracle)
    payload = report.to_json_obj()
    table = "\n".join(
        [
            f"feasible      {str(report.feasible).lower()}",
            f"counts        {[float(c) for c in report.expected_counts]}",
            f"max violation {report.max_violation:.3e}",
            f"value         {report.value:.6f}",
        ]
    )
    _emit(args, payload, table)
    return 0


def _read_result(path, item_count: int) -> SelectionDistribution:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    if isinstance(doc, dict) and "distribution" in doc:
        if not isinstance(doc["distribution"], list):
            raise ParseError(f"{path}: distribution: expected a list")
        pairs = []
        for k, entry in enumerate(doc["distribution"]):
            if not isinstance(entry, dict) or "set" not in entry or "prob" not in entry:
                raise ParseError(f"{path}: distribution[{k}] needs 'set' and 'prob'")
            prob = entry["prob"]
            # from_support drops entries with prob <= 0, so the audit would never see a negative one
            number = isinstance(prob, (int, float)) and not isinstance(prob, bool)
            if not number or not 0 <= prob < math.inf:
                raise ParseError(
                    f"{path}: distribution[{k}].prob: expected a non-negative number, got {prob!r}"
                )
            items = _result_items(entry["set"], item_count, f"{path}: distribution[{k}].set")
            pairs.append((items, float(prob)))
        return SelectionDistribution.from_support(pairs)
    if isinstance(doc, dict) and "set" in doc:
        return SelectionDistribution.point(_result_items(doc["set"], item_count, f"{path}: set"))
    raise ParseError(f"{path}: expected a result with a 'distribution' or 'set' field")


def _result_items(value, item_count: int, where: str) -> list[int]:
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected a list of item ids")
    for i in value:
        if isinstance(i, bool) or not isinstance(i, int) or not 0 <= i < item_count:
            raise ParseError(f"{where}: expected item ids in 0..{item_count - 1}, got {i!r}")
    return value


def _cmd_bench(args) -> int:
    directory = Path(args.instance)
    if not directory.is_dir():
        raise ParseError(f"{directory}: bench expects a directory of instance files")
    paths = sorted(directory.glob("*.json"))
    if not paths:
        raise ParseError(f"{directory}: no instance files found")
    # a bad setting exits 2 here, not as an error row per instance
    ContinuousGreedyConfig(delta=args.delta)
    _ellipsoid_config(args)
    rows = []
    for path in paths:
        instance, oracle = _load(path)
        optimum = None
        try:
            _, optimum = brute_force_lp(instance, oracle, args.enum_budget)
        except (EnumerationBudgetExceeded, InfeasibleInstance):
            pass
        rows.extend(_bench_rows(args, path.stem, instance, oracle, optimum))
    payload = {
        "rows": [
            {k: row[k] for k in ("instance", "solver", "value", "optimum", "ratio", "feasibility")}
            for row in rows
        ]
    }
    header = f"{'instance':<16} {'solver':<12} {'value':>10} {'optimum':>10} {'ratio':>7} {'class':<10} {'ms':>8}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['instance']:<16} {row['solver']:<12} "
            f"{_fmt(row['value'])} {_fmt(row['optimum'])} "
            f"{_fmt(row['ratio'], 7, 3)} {row['feasibility']:<10} {row['ms']:>8.1f}"
        )
    _emit(args, payload, "\n".join(lines))
    return 0


def _fmt(value, width: int = 10, digits: int = 4) -> str:
    if value is None:
        return " " * (width - 3) + "n/a"
    return f"{value:>{width}.{digits}f}"


def _bench_rows(args, name, instance, oracle, optimum) -> list[dict]:
    rows = []
    for solver, runner in (
        ("solve-det", lambda: _run_det(args, instance, oracle)),
        ("solve-greedy", lambda: fast_greedy(instance, oracle)),
        ("solve-rand", lambda: _run_rand(args, instance, oracle)),
    ):
        start = time.perf_counter()
        try:
            outcome = runner()
        except FairSubmaxError as exc:
            rows.append(
                {
                    "instance": name,
                    "solver": solver,
                    "value": None,
                    "optimum": optimum,
                    "ratio": None,
                    "feasibility": f"error: {type(exc).__name__}",
                    "ms": (time.perf_counter() - start) * 1e3,
                }
            )
            continue
        elapsed = (time.perf_counter() - start) * 1e3
        if isinstance(outcome, DeterministicSolution):
            value = outcome.value
            feasibility = _classify_set(outcome, instance)
        else:
            distribution = outcome
            report = audit_distribution(distribution, instance, oracle)
            value = report.value
            feasibility = "strict" if report.feasible else "infeasible"
        ratio = None
        if optimum is not None and optimum > 0:
            ratio = value / optimum
        rows.append(
            {
                "instance": name,
                "solver": solver,
                "value": value,
                "optimum": optimum,
                "ratio": ratio,
                "feasibility": feasibility,
                "ms": elapsed,
            }
        )
    return rows


def _run_det(args, instance, oracle) -> DeterministicSolution:
    return solve_deterministic(instance, oracle, ContinuousGreedyConfig(delta=args.delta))


def _run_rand(args, instance, oracle) -> SelectionDistribution:
    distribution, _ = solve_randomized(instance, oracle, _ellipsoid_config(args))
    return distribution


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
