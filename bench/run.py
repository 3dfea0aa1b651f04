"""Benchmark of the unruh-steering CLI, end to end and per layer.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (``bench/workloads.py``): ``presets``, ``dense-both``,
``dense-both-w2`` and ``verify``.  Each op is one in-process
``unruh_steering.cli.main(argv)`` call in a separate measured process
(``bench/measure.py``) that runs the workload pass after pass for the time
budget.  Every op's output is then checked (``bench/checks.py``); a failed
check counts the op as failed.

``--trace 0`` reports the end-to-end metrics: medians over passes of wall
and CPU time, points per second, peak RSS, and the median of several cold
starts for set-up time.  ``--trace 1`` splits the budget between untraced
passes and passes traced with ``bench/tracer.py``, and reports the
per-layer metrics.  Earlier lines of standard output record the
environment, the sample counts and a calibration-loop time; the last line
is the JSON result.  A record of each run, and the spans of a traced run,
are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads
from measure import THREAD_VARS
from tracer import summarize

BENCH_DIR = Path(__file__).resolve().parent
SETUP_STARTS = 9
SETUP_STARTS_TRACED = 3
MIN_PASSES = 3
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "wall_s": "s",
    "points_per_s": "1/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Layer figures reported on every workload; 0 where a layer is not called.
PER_LAYER = {
    "measures.joint_distribution.calls": "count",
    "measures.joint_distribution.self_us_per_call": "us",
    "measures.joint_distribution.useful_ratio": "ratio",
    "measures.steering_sum_oracle.calls": "count",
    "measures.steering_sum_oracle.self_us_per_call": "us",
    "measures.steering_closed.calls": "count",
    "measures.steering_closed.self_us_per_call": "us",
    "measures.steering_report.calls": "count",
    "measures.conditional_entropy.calls": "count",
    "measures.conditional_entropy.self_us_per_call": "us",
    "measures.lqu.calls": "count",
    "measures.lqu.self_us_per_call": "us",
    "linalg.psd_sqrt.calls": "count",
    "linalg.psd_sqrt.self_us_per_call": "us",
    "linalg.hermitian_eig.calls": "count",
    "linalg.hermitian_eig.self_us_per_call": "us",
    "measures.decoherence_triple.calls": "count",
    "measures.decoherence_triple.self_us_per_call": "us",
    "linalg.partial_trace.calls": "count",
    "linalg.partial_trace.self_us_per_call": "us",
    "model.accelerate_closed.calls": "count",
    "model.accelerate_closed.self_us_per_call": "us",
    "model.RegionIState.calls": "count",
    "model.RegionIState.self_us_per_call": "us",
    "model.accelerate_oracle.calls": "count",
    "model.accelerate_oracle.self_us_per_call": "us",
    "sweep.write_output.ms": "ms",
    "sweep.write_output.bytes": "B",
    "sweep.write_output.records_per_s": "1/s",
    "sweep.format_value.calls": "count",
    "sweep.run_sweep.self_ms": "ms",
    "sweep.pool.child_cpu_s": "s",
    "sweep.pool.busy_ratio": "ratio",
    "cli.main.self_ms": "ms",
    "verify.run_verify.self_ms": "ms",
    "setup.numpy_import_s": "s",
    "setup.package_import_s": "s",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    return env


def run_child(script: str, arg: str) -> str:
    """Run a bench script in its own process group; return its stdout.

    On timeout the whole group, pool workers included, is killed and reaped.
    """
    with subprocess.Popen(
        [sys.executable, str(BENCH_DIR / script), arg], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, env=child_env(), start_new_session=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"{script} failed:\n{err}")
    return out


def cold_starts(root: Path, count: int) -> list[dict]:
    return [json.loads(run_child("setup_probe.py", str(root)).splitlines()[-1]) for _ in range(count)]


def measure(root: Path, outdir: Path, workload, seconds: float, min_passes: int, trace: bool) -> dict:
    rundir = outdir / ("traced" if trace else "plain")
    rundir.mkdir(parents=True)
    spec = {
        "root": str(root),
        "outdir": str(rundir),
        "ops": [{"argv": list(op.argv), "suffix": op.suffix} for op in workload.ops],
        "seconds": seconds,
        "min_passes": min_passes,
        "trace": trace,
    }
    spec_path = rundir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    run_child("measure.py", str(spec_path))
    return json.loads((rundir / "measure.json").read_text())


def needs_joint_tables(argv) -> bool:
    """Whether the op's requested quantities need the measured joint tables."""
    from unruh_steering import preset_config

    if argv[0] == "verify":
        return True
    if argv[0] == "preset":
        quantities = preset_config(argv[1]).quantities
    else:
        quantities = argv[argv.index("--quantities") + 1].split(",")
    return bool(workloads.JOINT_QUANTITIES & set(quantities))


def gate(workload, runs, seed: int) -> tuple[int, int, list[str]]:
    """Check every op of every pass; return attempted, failed and the reasons."""
    reference = checks.load_reference() if workload.name == "presets" else None
    attempted, reasons = 0, []
    for tag, run in runs.items():
        for index, record in enumerate(run["passes"]):
            for op, result in zip(workload.ops, record["ops"]):
                attempted += 1
                reason = checks.check_op(
                    workload.name, op.argv, result, f"{seed}:{tag}:{index}", reference
                )
                if reason:
                    reasons.append(f"{tag} pass {index} {' '.join(op.argv[:2])}: {reason}")
    return attempted, len(reasons), reasons


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def end_to_end(workload, plain: dict, starts: list[dict]) -> dict[str, float]:
    wall = statistics.median(p["wall"] for p in plain["passes"])
    return {
        "wall_s": wall,
        "points_per_s": workload.points / wall,
        "cpu_s": statistics.median(p["cpu"] for p in plain["passes"]),
        "setup_s": statistics.median(s["setup_s"] for s in starts),
        "peak_rss_mb": plain["maxrss_kb"] / 1024,
    }


def per_layer(workload, plain: dict, traced: dict, starts: list[dict]) -> tuple[dict, bool]:
    with gzip.open(traced["spans"], "rt", encoding="utf-8") as fh:
        spans = [tuple(span) for span in json.load(fh)]
    needed = {k: needs_joint_tables(op.argv) for k, op in enumerate(workload.ops)}
    figures, repeated = summarize(spans, needed)
    plain_wall = statistics.median(p["wall"] for p in plain["passes"])
    traced_wall = statistics.median(p["wall"] for p in traced["passes"])
    figures["trace.overhead_ratio"] = traced_wall / plain_wall - 1.0
    figures["setup.numpy_import_s"] = statistics.median(s["numpy_import_s"] for s in starts)
    figures["setup.package_import_s"] = statistics.median(s["package_import_s"] for s in starts)
    return {name: figures.get(name, 0) for name in PER_LAYER}, repeated


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd().resolve()
    if not (root / "src" / "unruh_steering" / "__init__.py").is_file():
        print("bench: src/unruh_steering not found; run from the repository root", file=sys.stderr)
        return 2
    os.environ.update({var: "1" for var in THREAD_VARS})
    sys.path.insert(0, str(root / "src"))
    workload = workloads.build(args.workload, args.seed)
    outdir = root / ".bench_out" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    started = time.time()
    try:
        if args.trace:
            starts = cold_starts(root, SETUP_STARTS_TRACED)
            runs = {
                "plain": measure(root, outdir, workload, args.seconds / 2, 1, False),
                "traced": measure(root, outdir, workload, args.seconds / 2, 2, True),
            }
            values, repeated = per_layer(workload, runs["plain"], runs["traced"], starts)
            units = PER_LAYER
        else:
            starts = cold_starts(root, SETUP_STARTS)
            runs = {"plain": measure(root, outdir, workload, args.seconds, MIN_PASSES, False)}
            values, repeated = end_to_end(workload, runs["plain"], starts), None
            units = END_TO_END
        attempted, failed, reasons = gate(workload, runs, args.seed)
    finally:
        for tag in ("plain", "traced"):
            for path in (outdir / tag).glob("pass*"):
                path.unlink()

    import numpy

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "points_per_pass": workload.points,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "commit": git_commit(root),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "samples": {tag: len(run["passes"]) for tag, run in runs.items()} | {"setup": len(starts)},
        "pass_wall_s": {tag: [p["wall"] for p in run["passes"]] for tag, run in runs.items()},
        "calibration_s": {tag: run["calibration_s"] for tag, run in runs.items()},
        "counts_repeat_exactly": repeated,
        "failures": reasons,
        "elapsed_s": time.time() - started,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    (outdir / "record.json").write_text(json.dumps(record | {"result": result}, indent=1))
    print("# env " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
