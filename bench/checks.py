"""Correctness gate: every op's output is checked, and a failed check fails the op.

* presets: each CSV must equal the reference written at the benchmark's
  seed commit byte for byte, or else carry the same records with every
  number within ``ATOL``.
* dense sweeps: the JSON must hold exactly the requested grid in sorted
  order, and a seeded sample of points is recomputed with the per-point
  public functions and compared to ``ATOL``.
* verify: exit code 0 and ``verification passed (16 checks)`` with every
  check line passing.

``python3 bench/checks.py --write-reference`` (run from the checkout root)
rewrites the preset references from the checkout's program.
"""

from __future__ import annotations

import gzip
import json
import math
import random
import sys
from pathlib import Path

import workloads

ATOL = 1e-12
SAMPLE_POINTS = 24
REFERENCE = Path(__file__).resolve().parent / "reference" / "presets.json.gz"
CSV_HEADER = "scenario,p,r_q,r_t,phi,quantity,value"
RECORD_KEYS = ("scenario", "p", "r_q", "r_t", "phi", "quantity", "value")


class CheckFailed(Exception):
    """An op's output is wrong; the message says how."""


def load_reference() -> dict[str, str]:
    with gzip.open(REFERENCE, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def compare_csv(text: str, reference: str) -> None:
    if text == reference:
        return
    got, want = text.splitlines(), reference.splitlines()
    if len(got) != len(want) or not got or got[0] != CSV_HEADER:
        raise CheckFailed(f"{len(got)} lines against {len(want)} in the reference, or a bad header")
    for lineno, (line, ref) in enumerate(zip(got[1:], want[1:]), start=2):
        fields, ref_fields = line.split(","), ref.split(",")
        if len(fields) != 7 or (fields[0], fields[5]) != (ref_fields[0], ref_fields[5]):
            raise CheckFailed(f"line {lineno}: {line!r} against {ref!r}")
        for k in (1, 2, 3, 4, 6):
            if not abs(float(fields[k]) - float(ref_fields[k])) <= ATOL:
                raise CheckFailed(f"line {lineno}: {line!r} against {ref!r}")


def expected_point(p: float, r: float) -> dict[str, float]:
    """All 11 quantities of one ``both`` point from the per-point public functions."""
    from unruh_steering import (
        ModelParams, Scenario, accelerate_closed, decoherence_triple, lqu, steering_report,
    )
    from unruh_steering.measures import Convention

    state = accelerate_closed(ModelParams(p=p, r_q=r, r_t=r, phi=0.0, scenario=Scenario.BOTH))
    triple = decoherence_triple(state)
    report = steering_report(state, Convention.AS_PRINTED)
    return {
        "d_total": triple.d_total,
        "d_qubit": triple.d_qubit,
        "d_qutrit": triple.d_qutrit,
        "lqu": lqu(state).value,
        "s_ab_oracle": report.s_ab_oracle,
        "s_ba_oracle": report.s_ba_oracle,
        "i_ab_closed": report.i_ab_closed,
        "i_ba_closed": report.i_ba_closed,
        "steer_ab": report.steer_ab,
        "steer_ba": report.steer_ba,
        "steer_diff": abs(report.steer_ab - report.steer_ba),
    }


def _flag(argv, flag: str) -> str:
    return argv[list(argv).index(flag) + 1]


def check_sweep_json(text: str, argv, sample_seed: str) -> None:
    """Check a ``sweep --scenario both --format json`` output against its argv."""
    import numpy as np

    if _flag(argv, "--scenario") != "both" or _flag(argv, "--convention") != "as-printed":
        raise ValueError("only as-printed 'both' sweeps can be checked")
    p_values = tuple(float(p) for p in _flag(argv, "--p").split(","))
    start, end, steps = _flag(argv, "--r").split(":")
    r_values = tuple(float(r) for r in np.linspace(float(start), float(end), int(steps)))
    quantities = sorted(_flag(argv, "--quantities").split(","))
    try:
        records = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from None
    keys = [(p, r, q) for p in p_values for r in r_values for q in quantities]
    if not isinstance(records, list) or len(records) != len(keys):
        raise CheckFailed(f"expected {len(keys)} records")
    values = {}
    for rec, (p, r, q) in zip(records, keys):
        if not isinstance(rec, dict) or tuple(rec) != RECORD_KEYS:
            raise CheckFailed(f"malformed record {rec!r}")
        got_key = (rec["scenario"], rec["p"], rec["r_q"], rec["r_t"], rec["phi"], rec["quantity"])
        if got_key != ("both", p, r, r, 0.0, q):
            raise CheckFailed(f"record {got_key} where ('both', {p}, {r}, {r}, 0.0, {q!r}) belongs")
        value = rec["value"]
        if not isinstance(value, float) or not math.isfinite(value):
            raise CheckFailed(f"non-finite or non-float value in {rec!r}")
        values[(p, r, q)] = value
    points = [(p, r) for p in p_values for r in r_values]
    rng = random.Random(sample_seed)
    for p, r in rng.sample(points, min(SAMPLE_POINTS, len(points))):
        for q, want in expected_point(p, r).items():
            if q in quantities and not abs(values[(p, r, q)] - want) <= ATOL:
                raise CheckFailed(f"{q} at p={p}, r={r}: {values[(p, r, q)]!r} against {want!r}")


def check_verify(stdout: str) -> None:
    lines = stdout.splitlines()
    summary = f"verification passed ({workloads.VERIFY_CHECKS} checks)"
    if not lines or lines[-1] != summary:
        raise CheckFailed(f"last line {lines[-1] if lines else ''!r}, expected {summary!r}")
    check_lines = lines[:-1]
    passing = [line for line in check_lines if line.startswith("[PASS] ")]
    if len(check_lines) != workloads.VERIFY_CHECKS or len(passing) != len(check_lines):
        raise CheckFailed(f"{len(passing)} of {len(check_lines)} check lines pass")


def check_op(workload: str, argv, result: dict, sample_seed: str, reference) -> str | None:
    """None when the op succeeded with correct output, else the reason it failed."""
    if result["error"]:
        return f"exception: {result['error'].strip().splitlines()[-1]}"
    if result["code"] != 0:
        return f"exit code {result['code']}"
    try:
        if workload == "verify":
            check_verify(result["stdout"])
            return None
        text = Path(result["out"]).read_text(encoding="utf-8")
        if workload == "presets":
            compare_csv(text, reference[argv[1]])
        else:
            check_sweep_json(text, argv, sample_seed)
    except (CheckFailed, OSError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def write_reference(root: Path) -> None:
    """Run every preset through the checkout's CLI and store the CSVs."""
    import contextlib
    import io
    import tempfile

    sys.path.insert(0, str(root / "src"))
    from unruh_steering.cli import main

    texts = {}
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        for name in workloads.PRESET_NAMES:
            out = Path(tmp) / f"{name}.csv"
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(["preset", name, "--out", str(out)])
            if code != 0:
                raise SystemExit(f"preset {name} failed")
            texts[name] = out.read_text(encoding="utf-8")
    REFERENCE.parent.mkdir(exist_ok=True)
    with gzip.GzipFile(REFERENCE, "wb", mtime=0) as fh:
        fh.write(json.dumps(texts, sort_keys=True).encode())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-reference"]:
        raise SystemExit("usage: python3 bench/checks.py --write-reference")
    write_reference(Path.cwd())
