"""Runs one workload's operations in a fresh process and records what happened.

Usage: ``python3 worker.py MANIFEST RESULT``.  The manifest (written by
``run.py``) names the library source directory, a warm-up command and the
corpus commands.  Each operation is one in-process call of the CLI entry
point, timed from the call until its JSON file is written.  Passes over the
whole corpus repeat until the time budget is spent or, when the manifest
fixes it, for a given number of passes.  Zero passes only start up and
warm up, which is how set-up time is measured.  With tracing on, the
outside-in tracer is installed after the warm-up.  The BLAS thread pins
come from the environment ``run.py`` sets and the worker inherits.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _run_op(cli, argv: list[str], out: Path) -> tuple[float, object, str | None]:
    """One operation: (seconds, exit code or error text, output text)."""
    out.unlink(missing_ok=True)
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception:  # a crash is a failed operation, not a failed benchmark
        seconds = time.perf_counter() - start
        return seconds, traceback.format_exc(limit=3), None
    seconds = time.perf_counter() - start
    text = out.read_text(encoding="utf-8") if code == 0 and out.is_file() else None
    return seconds, code, text


def _finished(manifest: dict, passes: int, elapsed: float) -> bool:
    if manifest["passes"] is not None:
        return passes >= manifest["passes"]
    # stop when another pass would end farther from the budget than stopping now
    return passes > 0 and elapsed + 0.5 * elapsed / passes >= manifest["seconds"]


def main(manifest_path: str, result_path: str) -> int:
    manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    src = Path(manifest["src"])
    sys.path.insert(0, str(src))
    import numpy
    from fairsubmax import cli

    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        print(f"error: fairsubmax imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    warm_code = _run_op(cli, manifest["warmup"]["argv"], Path(manifest["warmup"]["out"]))[1]
    if warm_code != 0:
        print(f"error: warm-up operation failed: {warm_code}", file=sys.stderr)
        return 2

    tracer = None
    if manifest["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ops = manifest["ops"]
    records = [{"seconds": [], "codes": [], "output": None, "mismatches": 0} for _ in ops]
    passes = 0
    elapsed = 0.0
    while not _finished(manifest, passes, elapsed):
        for record, op in zip(records, ops):
            seconds, code, text = _run_op(cli, op["argv"], Path(op["out"]))
            elapsed += seconds
            record["seconds"].append(seconds)
            record["codes"].append(code)
            if passes == 0:
                record["output"] = text
            elif text != record["output"]:
                record["mismatches"] += 1
        passes += 1

    result = {
        "passes": passes,
        "ops": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
        "trace": tracer.report() if tracer is not None else None,
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
