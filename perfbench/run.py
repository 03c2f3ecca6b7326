"""Benchmark of the fairsubmax command line on four seeded workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (``corpus.py`` holds their instance shapes):

* ``rand-exact``      ``solve-rand --oracle-mode exact``: enumeration build,
  priced argmax over every feasible set, ellipsoid outer search.
* ``rand-heuristic``  ``solve-rand --oracle-mode heuristic``: distorted greedy
  pricing, so objective marginals dominate and nothing is enumerated.
* ``det-continuous``  ``solve-det`` at the default delta: extension marginals
  and the greedy polytope LP, no simplex and no enumeration.
* ``greedy-large``    ``solve-greedy`` at n = 300: fast greedy, marginals and
  the matroid independence test.

The ``oracle``, ``check`` and ``bench`` subcommands are not measured.

Set-up generates the corpus from the seed, writes the instance files and
computes a reference for every instance with ``reference.py``, which shares
no code with the library.  A fresh worker process (``worker.py``) then runs
the operations: a closed loop with one caller, each operation one in-process
``fairsubmax.cli.main`` call on one instance file, timed until its JSON is
written.  Every output is audited against its reference and compared byte
for byte with the same operation's other runs.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the corpus
untraced and then traced (``tracer.py``) in two fresh workers, for the same
number of passes, and prints per-layer metrics per corpus pass.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# numpy links a multithreaded BLAS on a two-core host: pin it to one thread
# before numpy loads, here and in the workers, which inherit the environment
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import corpus  # noqa: E402
import reference  # noqa: E402
import scipy  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: set-up (corpus, files, references, a worker that starts and warms up)
#: runs this many times per untraced run; its median is reported
SETUP_REPEATS = 3

# span metrics reported as <span>.calls and <span>.self_s, and as <span>.self_s only
CALLS_AND_SELF = (
    "objectives.evaluate",
    "objectives.marginal",
    "objectives.extension",
    "objectives.extension_marginal",
    "lp.solve_simplex",
    "lp.maximize_linear",
    "instance.load_instance",
    "instance.validate",
    "instance.enumerate_feasible_sets",
    "instance.group_counts",
    "randsolve.separation",
    "detsolve.pipage_round",
    "detsolve.matroid_independent",
    "verify.audit_distribution",
)
SELF_ONLY = (
    "randsolve.solve_randomized",
    "randsolve.outer_search",
    "detsolve.continuous_greedy",
    "detsolve.fast_greedy",
    "cli.main",
)
#: counters read from the ``stats`` field of ``solve-rand`` output
RAND_STATS = ("probes", "ellipsoid_iterations", "oracle_calls", "pool_size")

# what the traced run should show on each workload: layers never called,
# and the layer with the largest self time
PREDICTIONS = {
    "rand-exact": (("objectives.marginal",), "randsolve.outer_search"),
    "rand-heuristic": (
        ("instance.enumerate_feasible_sets", "objectives.extension_marginal"),
        "objectives.marginal",
    ),
    "det-continuous": (
        ("objectives.marginal", "lp.solve_simplex"),
        "objectives.extension_marginal",
    ),
    "greedy-large": (("lp.solve_simplex",), "objectives.marginal"),
}


class BenchmarkError(Exception):
    """Set-up or a worker failed; the run has no result."""


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _git_sha() -> str | None:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _prepare(workload: str, seed: int, work: Path) -> dict:
    """Generate the corpus, write its files and compute the references."""
    warmup, docs = corpus.make_corpus(workload, seed)
    command = corpus.COMMANDS[workload]

    def op(path: Path) -> dict:
        out = path.with_suffix(".out.json")
        return {"argv": command + ["--instance", str(path), "--format", "json", "--out", str(out)], "out": str(out)}

    warm_path = work / "warmup.json"
    warm_path.write_text(json.dumps(warmup), encoding="utf-8")
    ops = []
    for k, doc in enumerate(docs):
        path = work / f"instance{k:02d}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        ops.append(op(path))
    references = [reference.reference_value(workload, doc) for doc in docs]
    return {"warmup": op(warm_path), "ops": ops, "docs": docs, "references": references}


def _run_worker(work: Path, tag: str, setup: dict, trace: bool, seconds: float, passes: int | None) -> dict:
    manifest = {
        "src": str(SRC),
        "warmup": setup["warmup"],
        "ops": setup["ops"],
        "trace": trace,
        "seconds": seconds,
        "passes": passes,
    }
    manifest_path = work / f"{tag}.manifest.json"
    result_path = work / f"{tag}.result.json"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(manifest_path), str(result_path)],
            timeout=3 * seconds + 60,
            check=False,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{tag} worker timed out") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"{tag} worker exited with code {proc.returncode}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["wall_s"] = sum(sum(record["seconds"]) for record in result["ops"])
    return result


def _audit(workload: str, setup: dict, records: list) -> tuple[list, list, list, list[str]]:
    """Check each instance's first output; returns (outputs, ratios, ok flags, problems)."""
    outputs, ratios, good, problems = [], [], [], []
    for k, (doc, ref, record) in enumerate(zip(setup["docs"], setup["references"], records)):
        out, value, found = None, 0.0, [f"exit {record['codes'][0]!r}"]
        if record["output"] is not None:
            try:
                out = json.loads(record["output"])
                value, found = reference.check_output(workload, doc, out, ref)
            except (ValueError, KeyError, TypeError) as exc:
                out, found = None, [f"malformed output: {exc!r}"]
        outputs.append(out)
        good.append(not found)
        ratios.append(value / ref if not found else 0.0)
        problems.extend(f"instance {k}: {p}" for p in found)
    return outputs, ratios, good, problems


def _tally(records: list, good: list[bool], expected: list) -> tuple[int, int]:
    """(attempted, failed) executions; a bad or changed output fails."""
    attempted = failed = 0
    for record, ok, text in zip(records, good, expected):
        runs = len(record["codes"])
        attempted += runs
        failed += runs if not ok or record["output"] != text else record["mismatches"]
    return attempted, failed


def _end_to_end(setup_s: float, result: dict, ratios: list[float], attempted: int, failed: int) -> dict:
    seconds = [s for record in result["ops"] for s in record["seconds"]]
    return {
        "ops_per_s": _metric(len(seconds) / sum(seconds), "ops/s"),
        "op_s_p50": _metric(statistics.median(seconds), "s"),
        "value_ratio_mean": _metric(statistics.fmean(ratios), "ratio"),
        "value_ratio_min": _metric(min(ratios), "ratio"),
        "pass_rate": _metric(1.0 - failed / attempted, "fraction"),
        "peak_rss_mb": _metric(result["peak_rss_mb"], "MB"),
        "setup_s": _metric(setup_s, "s"),
    }


def _per_layer(plain: dict, traced: dict, outputs: list) -> tuple[dict, list[str]]:
    trace = traced["trace"]
    passes = traced["passes"]
    stats = trace["stats"]
    absent = set(trace["absent"])
    metrics = {}
    for span in CALLS_AND_SELF + SELF_ONLY:
        if span in absent:
            continue
        calls_n, self_s, _ = stats.get(span, [0, 0.0, 0.0])
        if span in CALLS_AND_SELF:
            metrics[f"{span}.calls"] = _metric(calls_n / passes, "count")
        metrics[f"{span}.self_s"] = _metric(self_s / passes, "s")
    if "lp.pivots" not in absent:
        metrics["lp.pivots"] = _metric(stats.get("lp.pivots", [0])[0] / passes, "count")
    if "randsolve.enumeration_build" not in absent:
        build = stats.get("randsolve.enumeration_build", [0, 0.0, 0.0])[2]
        metrics["randsolve.enumeration_build_s"] = _metric(build / passes, "s")

    rand = [out["stats"] for out in outputs if out is not None and "stats" in out]
    totals = {key: sum(s[key] for s in rand) for key in RAND_STATS}
    for key in RAND_STATS:
        metrics[f"randsolve.{key}"] = _metric(totals[key], "count")
    yield_ = totals["pool_size"] / totals["oracle_calls"] if totals["oracle_calls"] else 0.0
    metrics["randsolve.pool_yield"] = _metric(yield_, "ratio")

    picks = sum(len(out["set"]) for out in outputs if out is not None and "set" in out)
    greedy_marginals = sum(
        n for parent, child, n in trace["edges"]
        if parent == "detsolve.fast_greedy" and child == "objectives.marginal"
    )
    per_pick = greedy_marginals / passes / picks if picks else 0.0
    metrics["detsolve.fast_greedy.marginals_per_pick"] = _metric(per_pick, "ratio")
    metrics["trace.overhead_frac"] = _metric(traced["wall_s"] / plain["wall_s"] - 1.0, "ratio")
    return metrics, sorted(absent)


def _layer_table(workload: str, traced: dict) -> list[str]:
    stats = traced["trace"]["stats"]
    total = stats.get("cli.main", [0, 0.0, 1.0])[2]
    shares = sorted(((v[1] / total, k) for k, v in stats.items()), reverse=True)
    lines = ["layer self-time shares of traced wall time:"]
    lines += [f"  {share:7.1%}  {name}  ({stats[name][0]} calls)" for share, name in shares]
    unused, dominant = PREDICTIONS[workload]
    for span in unused:
        verdict = "holds" if stats.get(span, [0])[0] == 0 else "FAILS"
        lines.append(f"prediction {span}.calls == 0: {verdict}")
    top = shares[0][1] if shares else None
    lines.append(f"prediction largest self time is {dominant}: {'holds' if top == dominant else f'FAILS ({top})'}")
    return lines


def run(args) -> dict:
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            start = time.perf_counter()
            setup = _prepare(args.workload, args.seed, work)
            _run_worker(work, "warmup", setup, False, args.seconds, 0)
            setup_times.append(time.perf_counter() - start)
        budget = args.seconds / 2 if args.trace else args.seconds
        plain = _run_worker(work, "plain", setup, False, budget, None)
        outputs, ratios, good, problems = _audit(args.workload, setup, plain["ops"])
        first = [record["output"] for record in plain["ops"]]
        attempted, failed = _tally(plain["ops"], good, first)
        lines = []
        if args.trace:
            traced = _run_worker(work, "traced", setup, True, budget, plain["passes"])
            more, bad = _tally(traced["ops"], good, first)
            attempted, failed = attempted + more, failed + bad
            metrics, absent = _per_layer(plain, traced, outputs)
            lines += _layer_table(args.workload, traced)
            if absent:
                lines.append(f"absent spans (metrics omitted): {', '.join(absent)}")
        else:
            metrics = _end_to_end(statistics.median(setup_times), plain, ratios, attempted, failed)
        env = {
            "workload": args.workload,
            "seed": args.seed,
            "passes": plain["passes"],
            "pass_s": [round(sum(r["seconds"][i] for r in plain["ops"]), 3) for i in range(plain["passes"])],
            "operations_per_pass": len(setup["ops"]),
            "setup_s": [round(t, 3) for t in setup_times],
            "git_sha": _git_sha(),
            "python": platform.python_version(),
            "numpy": plain["numpy"],
            "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
        }
        lines.append("env " + json.dumps(env, sort_keys=True))
        lines += [f"problem: {p}" for p in problems]
        lines += [f"{name:48s} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
        print("\n".join(lines))
        return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fairsubmax" / "cli.py").is_file():
        print(f"error: library source not found under {SRC}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
