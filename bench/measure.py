"""Measured process: run a workload's ops through ``cli.main`` pass after pass.

Usage: ``python3 bench/measure.py SPEC.json``.  The spec names the checkout
root, the ops (argv with output placeholders), the time budget, the
minimum number of passes, whether to trace, and the output directory.
This process does the program's work and nothing else, so its rusage is
the program's; the caller checks the outputs afterwards.  Results go to
``<outdir>/measure.json``.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from workloads import Op

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

CALIBRATION_N = 300_000


def calibration_s() -> float:
    """Time of a fixed pure-Python loop: a gauge of how fast the host is right now."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_N):
        total += i * i % 7
    return time.perf_counter() - start


def import_cli(root: Path):
    """Import ``unruh_steering.cli`` from the checkout's ``src`` and nowhere else."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import unruh_steering
    import unruh_steering.cli

    origin = Path(unruh_steering.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise RuntimeError(f"unruh_steering imported from {origin}, not from {src}")
    return unruh_steering.cli


def _cpu() -> float:
    """User+system CPU seconds of this process and its reaped children (pool workers)."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def run_pass(cli, ops, outdir: Path, index: int, tracer) -> dict:
    results = []
    for k, op in enumerate(ops):
        out = str(outdir / f"pass{index}_op{k}{op.suffix}")
        if tracer is not None:
            tracer.run_id = (index, k)
        buf = io.StringIO()
        error = None
        code = None
        cpu0 = _cpu()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(op.resolve(out))
        except Exception:  # any exception is a failed op, not a crashed benchmark
            error = traceback.format_exc(limit=3)
        wall = time.perf_counter() - start
        cpu = _cpu() - cpu0
        if tracer is not None:
            tracer.merge_spills()
        results.append({"wall": wall, "cpu": cpu, "code": code, "error": error,
                        "stdout": buf.getvalue(), "out": out if op.suffix else None})
    return {"wall": sum(r["wall"] for r in results), "cpu": sum(r["cpu"] for r in results),
            "ops": results}


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    for var in THREAD_VARS:
        os.environ[var] = "1"
    root = Path(spec["root"])
    outdir = Path(spec["outdir"])
    cli = import_cli(root)

    tracer = None
    if spec["trace"]:
        from tracer import Tracer, install

        tracer = Tracer(outdir)
        install(tracer)

    ops = [Op(tuple(op["argv"]), op["suffix"]) for op in spec["ops"]]
    calibration = [calibration_s()]
    passes = []
    budget_start = time.perf_counter()
    while True:
        passes.append(run_pass(cli, ops, outdir, len(passes), tracer))
        elapsed = time.perf_counter() - budget_start
        typical = statistics.median(p["wall"] for p in passes)
        if len(passes) >= spec["min_passes"] and elapsed + typical > spec["seconds"]:
            break
    calibration.append(calibration_s())

    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = {
        "passes": passes,
        "maxrss_kb": max(me.ru_maxrss, kids.ru_maxrss),
        "calibration_s": calibration,
    }
    if tracer is not None:
        spans_path = outdir / "spans.json.gz"
        with gzip.open(spans_path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(tracer.spans, fh, separators=(",", ":"))
        result["spans"] = str(spans_path)
    (outdir / "measure.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
