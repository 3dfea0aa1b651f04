"""Tests of the benchmark itself, at a tiny size."""

import io
import json
import math
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from unruh_steering.cli import main as cli_main  # noqa: E402


def tiny_dense(workers: int = 1) -> workloads.Op:
    """The dense-both op cut down to 2 p values x 3 r values."""
    argv = list(workloads.build("dense-both-w2" if workers == 2 else "dense-both", 5).ops[0].argv)
    argv[argv.index("--p") + 1] = "0.0625,0.3"
    argv[argv.index("--r") + 1] = f"0:{math.pi / 4!r}:3"
    return workloads.Op(tuple(argv), ".json")


def run_op(op: workloads.Op, tmp_path: Path, name: str) -> dict:
    out = tmp_path / f"{name}{op.suffix}"
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(op.resolve(str(out)))
    return {"code": code, "error": None, "stdout": buf.getvalue(), "out": str(out)}


@pytest.fixture
def tiny_bench(monkeypatch):
    """run.main on a one-op, 6-point dense-both workload, one pass per run."""
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    monkeypatch.setattr(run, "SETUP_STARTS", 1)
    monkeypatch.setattr(run, "SETUP_STARTS_TRACED", 1)
    tiny = workloads.Workload("dense-both", (tiny_dense(),), 6)
    monkeypatch.setattr(run.workloads, "build", lambda name, seed: tiny)

    def bench(trace: int) -> tuple[dict, dict]:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = run.main(["--workload", "dense-both", "--seed", "7", "--seconds", "0",
                             "--trace", str(trace)])
        assert code == 0
        lines = buf.getvalue().splitlines()
        return json.loads(lines[-1]), json.loads(lines[-2].removeprefix("# env "))

    return bench


def declared_metrics(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def test_benchmark_json_declares_the_reported_metrics():
    assert declared_metrics("end_to_end") == run.END_TO_END
    assert declared_metrics("per_layer") == run.PER_LAYER


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_reported_with_its_unit(tiny_bench, trace, kind):
    result, env = tiny_bench(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == declared_metrics(kind)
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        assert env["counts_repeat_exactly"] is True
        metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
        assert metrics["model.accelerate_oracle.calls"] == 0
        assert metrics["model.accelerate_closed.calls"] == 6
        assert metrics["measures.joint_distribution.calls"] == 6 * 6
        assert metrics["measures.joint_distribution.useful_ratio"] == 0.5


def test_traced_counts_repeat_between_runs(tiny_bench):
    first, _ = tiny_bench(1)
    second, _ = tiny_bench(1)
    for name, metric in first["metrics"].items():
        if name.endswith((".calls", ".useful_ratio", ".bytes")):
            assert second["metrics"][name]["value"] == metric["value"], name


def test_correct_dense_output_passes_and_perturbed_value_fails(tmp_path, monkeypatch):
    op = tiny_dense()
    result = run_op(op, tmp_path, "dense")
    assert checks.check_op("dense-both", op.argv, result, "s", None) is None

    records = json.loads(Path(result["out"]).read_text())
    records[5]["value"] += 1e-9
    Path(result["out"]).write_text(json.dumps(records, indent=2))
    monkeypatch.setattr(checks, "SAMPLE_POINTS", 6)  # sample every point, the perturbed one too
    assert "CheckFailed" in checks.check_op("dense-both", op.argv, result, "s", None)


def test_dense_output_with_a_missing_record_fails(tmp_path):
    op = tiny_dense()
    result = run_op(op, tmp_path, "dense")
    records = json.loads(Path(result["out"]).read_text())
    Path(result["out"]).write_text(json.dumps(records[:-1]))
    assert "expected 66 records" in checks.check_op("dense-both", op.argv, result, "s", None)


def test_preset_check_allows_1e12_and_rejects_more():
    reference = checks.load_reference()["fig2a"]
    lines = reference.splitlines()
    # A value in [0.01, 0.1) carries 13 decimals, so its last digit is worth 1e-13.
    row = next(k for k, line in enumerate(lines[1:], 1) if 0.01 <= float(line.split(",")[6]) < 0.1)
    fields = lines[row].split(",")

    def with_value(value: str) -> str:
        return "\n".join(lines[:row] + [",".join(fields[:6] + [value])] + lines[row + 1:]) + "\n"

    checks.compare_csv(reference, reference)
    nudged = fields[6][:-1] + str((int(fields[6][-1]) + 1) % 10)
    checks.compare_csv(with_value(nudged), reference)
    with pytest.raises(checks.CheckFailed):
        checks.compare_csv(with_value(f"{float(fields[6]) + 1e-9:.13f}"), reference)
    with pytest.raises(checks.CheckFailed):
        checks.compare_csv("\n".join(lines[:-1]) + "\n", reference)


def test_failed_op_counts_as_failed():
    failed = {"code": 3, "error": None, "stdout": "", "out": None}
    assert checks.check_op("presets", ("preset", "fig1a"), failed, "s", {}) == "exit code 3"
    crashed = {"code": None, "error": "Traceback\nValueError: boom\n", "stdout": "", "out": None}
    assert "ValueError: boom" in checks.check_op("verify", ("verify",), crashed, "s", None)


def test_verify_check_needs_all_16_passing_checks():
    good = "\n".join([f"[PASS] check {k}: max deviation 0.000e+00" for k in range(16)]
                     + ["verification passed (16 checks)"])
    ok = {"code": 0, "error": None, "stdout": good, "out": None}
    assert checks.check_op("verify", ("verify",), ok, "s", None) is None

    lines = good.splitlines()
    missing = "\n".join(lines[1:-1] + ["verification passed (15 checks)"])
    failing = "\n".join(["[FAIL] check 0: max deviation 1.000e+00"] + lines[1:])
    for stdout in (missing, failing):
        result = {"code": 0, "error": None, "stdout": stdout, "out": None}
        assert "CheckFailed" in checks.check_op("verify", ("verify",), result, "s", None)


def test_seed_fixes_the_argv():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 11) == workloads.build(name, 11)
    p1, p2 = workloads.dense_p_values(11), workloads.dense_p_values(12)
    assert p1 != p2
    for p_values in (p1, p2):
        assert len(set(p_values)) == workloads.DENSE_P_COUNT
        assert all(0.0 < p < 0.5 for p in p_values)
    assert workloads.build("dense-both", 11) != workloads.build("dense-both", 12)


def test_w2_differs_from_dense_only_in_workers_and_writes_the_same_bytes(tmp_path):
    one = list(workloads.build("dense-both", 3).ops[0].argv)
    two = list(workloads.build("dense-both-w2", 3).ops[0].argv)
    k = one.index("--workers") + 1
    assert (one[k], two[k]) == ("1", "2")
    assert one[:k] + one[k + 1:] == two[:k] + two[k + 1:]

    out1 = run_op(tiny_dense(1), tmp_path, "w1")["out"]
    out2 = run_op(tiny_dense(2), tmp_path, "w2")["out"]
    assert Path(out1).read_bytes() == Path(out2).read_bytes()
