import collections
import concurrent.futures
import gc
import json
import math
import os
import stat
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unruh_steering
from unruh_steering import measures, sweep
from unruh_steering.cli import main
from unruh_steering.measures import Convention, decoherence_triple, lqu, steering_report
from unruh_steering.model import ModelParams, R_MAX, Scenario, accelerate_closed
from unruh_steering.sweep import (
    CSV_HEADER,
    ConfigError,
    PRESET_NAMES,
    QUANTITIES,
    SweepConfig,
    SweepRecord,
    format_value,
    preset_config,
    run_sweep,
    write_output,
)


class TestConfigValidation:
    def test_p_out_of_range(self):
        config = SweepConfig(Scenario.NONE, p_values=(0.7,), quantities=("d_total",))
        with pytest.raises(ConfigError, match="outside"):
            config.validate()

    def test_r_out_of_range(self):
        config = SweepConfig(Scenario.QUBIT, p_values=(0.1,), r_values=(1.0,), quantities=("d_total",))
        with pytest.raises(ConfigError, match="outside"):
            config.validate()

    def test_empty_quantities(self):
        config = SweepConfig(Scenario.NONE, p_values=(0.1,), quantities=())
        with pytest.raises(ConfigError, match="no quantities"):
            config.validate()

    def test_unknown_quantity(self):
        config = SweepConfig(Scenario.NONE, p_values=(0.1,), quantities=("entropy",))
        with pytest.raises(ConfigError, match="unknown quantities"):
            config.validate()

    def test_bad_workers(self):
        config = SweepConfig(Scenario.NONE, p_values=(0.1,), quantities=("d_total",), workers=0)
        with pytest.raises(ConfigError, match="workers"):
            config.validate()

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    def test_non_finite_phi(self, phi):
        config = SweepConfig(Scenario.QUTRIT, p_values=(0.1,), phi=phi, quantities=("d_total",))
        with pytest.raises(ConfigError, match="not finite"):
            config.validate()

    def test_grid_above_the_cap_is_rejected_before_computation(self, monkeypatch):
        def no_evaluation(task):
            raise AssertionError("grid point evaluated")

        monkeypatch.setattr(sweep, "_evaluate_chunk", no_evaluation)
        r_values = tuple(np.linspace(0.0, R_MAX, sweep.GRID_POINTS_MAX // 2 + 1))
        config = SweepConfig(Scenario.QUBIT, p_values=(0.1, 0.2), r_values=r_values, quantities=("d_total",))
        with pytest.raises(ConfigError, match="exceeds the cap"):
            run_sweep(config)

    def test_grid_at_the_cap_is_accepted(self):
        r_values = tuple(np.linspace(0.0, R_MAX, sweep.GRID_POINTS_MAX // 2))
        SweepConfig(Scenario.QUBIT, p_values=(0.1, 0.2), r_values=r_values, quantities=("d_total",)).validate()

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"quantities": ("lqu", "d_total", "lqu")}, "repeated quantity 'lqu'"),
            ({"p_values": (0.1, 0.2, 0.1)}, "repeated p 0.1"),
            ({"r_values": (0.0, 0.3, 0.3)}, "repeated r 0.3"),
        ],
        ids=["quantity", "p", "r"],
    )
    def test_repeated_key_component_is_rejected(self, changes, message):
        settings = {"p_values": (0.1, 0.2), "r_values": (0.0, 0.3), "quantities": ("lqu", "d_total")}
        config = SweepConfig(Scenario.QUBIT, **{**settings, **changes})
        with pytest.raises(ConfigError, match=message):
            config.validate()

    def test_scenario_none_takes_a_single_r_value(self):
        config = SweepConfig(Scenario.NONE, p_values=(0.1,), r_values=(0.0, 0.35, 0.7))
        with pytest.raises(ConfigError, match="single r value, got 3"):
            config.validate()
        SweepConfig(Scenario.NONE, p_values=(0.1,), r_values=(0.7,)).validate()

    def test_validation_happens_before_computation(self):
        config = SweepConfig(Scenario.NONE, p_values=(0.9,), quantities=("d_total",))
        with pytest.raises(ConfigError):
            run_sweep(config)


class TestRunSweep:
    def test_single_pure_state_record(self):
        config = SweepConfig(Scenario.NONE, p_values=(0.0,), quantities=("d_total",))
        [record] = run_sweep(config)
        assert record.scenario == "none"
        assert record.r_q == record.r_t == 0.0
        assert record.value == pytest.approx(0.0, abs=1e-12)

    def test_flat_qubit_curve_over_p(self):
        config = preset_config("fig1a")
        records = run_sweep(config)
        qubit_values = [rec.value for rec in records if rec.quantity == "d_qubit"]
        assert len(qubit_values) == 101
        assert all(v == pytest.approx(0.5, abs=1e-12) for v in qubit_values)

    def test_records_sorted_deterministically(self):
        config = SweepConfig(
            Scenario.QUBIT,
            p_values=(0.3, 0.0),
            r_values=(0.5, 0.0),
            quantities=("lqu", "d_total"),
        )
        keys = [(rec.scenario, rec.p, rec.r_q, rec.r_t, rec.phi, rec.quantity) for rec in run_sweep(config)]
        assert len(keys) == 8
        assert keys == sorted(keys)

    def test_worker_counts_agree(self, tmp_path):
        config = SweepConfig(
            Scenario.QUTRIT,
            p_values=(0.0, 0.2),
            r_values=tuple(np.linspace(0.0, R_MAX, 5)),
            quantities=("d_total", "steer_ab"),
        )
        serial = list(run_sweep(config))
        parallel = list(run_sweep(
            SweepConfig(
                Scenario.QUTRIT,
                p_values=(0.0, 0.2),
                r_values=tuple(np.linspace(0.0, R_MAX, 5)),
                quantities=("d_total", "steer_ab"),
                workers=2,
            )
        ))
        assert serial == parallel
        path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_output(serial, path_a)
        write_output(parallel, path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_pool_size_is_capped_by_cpus_and_tasks(self, monkeypatch):
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 2)
        assert sweep._pool_size(1, 100) == 1
        assert sweep._pool_size(2, 100) == 2
        assert sweep._pool_size(10**6, 100) == 2
        assert sweep._pool_size(10**6, 1) == 1
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: None)
        assert sweep._pool_size(4, 100) == 1

    def test_single_task_never_starts_a_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        config = SweepConfig(Scenario.QUBIT, p_values=(0.1,), quantities=("d_total",), workers=10**6)
        assert len(list(run_sweep(config))) == 1

    def test_importing_the_package_imports_no_pool(self):
        code = ("import sys, unruh_steering, unruh_steering.cli; "
                "print([name for name in ('concurrent.futures', 'multiprocessing') if name in sys.modules])")
        src = os.path.dirname(os.path.dirname(unruh_steering.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert (result.returncode, result.stdout) == (0, "[]\n"), result.stderr

    def test_scenario_maps_r_to_the_accelerated_subsystem(self):
        config = SweepConfig(Scenario.QUTRIT, p_values=(0.1,), r_values=(0.4,), quantities=("d_total",))
        [record] = run_sweep(config)
        assert record.r_q == 0.0
        assert record.r_t == pytest.approx(0.4)


class TestFormatValue:
    def test_pinned_example(self):
        assert format_value(0.5) == "0.500000000000"

    def test_zero(self):
        assert format_value(0.0) == "0.000000000000"
        assert format_value(-0.0) == "0.000000000000"

    def test_twelve_significant_digits(self):
        assert format_value(0.19634954084936207) == "0.196349540849"
        assert format_value(4.0) == "4.00000000000"

    @pytest.mark.parametrize(
        "value, text",
        [
            (9.9999999999999, "10.0000000000"),
            (0.99999999999999, "1.00000000000"),
            (-0.099999999999999, "-0.100000000000"),
            (9.99999999999, "9.99999999999"),
        ],
    )
    def test_rounding_up_to_a_power_of_ten_keeps_twelve_digits(self, value, text):
        assert format_value(value) == text

    @pytest.mark.parametrize(
        "value, text",
        [
            (123456789012.4, "123456789012"),
            (1000000000001.0, "1000000000000"),
            (-1.2345678901234567e20, "-123456789012000000000"),
        ],
    )
    def test_integer_digits_past_the_twelfth_are_zeros(self, value, text):
        assert format_value(value) == text


class TestWriteOutput:
    def test_empty_records_give_header_only_csv(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_output([], path, "csv")
        assert path.read_text() == CSV_HEADER + "\n"

    def test_single_record_rendering(self, tmp_path):
        record = SweepRecord("none", 0.0, 0.0, 0.0, 0.0, "d_qubit", 0.5)
        path = tmp_path / "one.csv"
        write_output([record], path, "csv")
        lines = path.read_text().splitlines()
        assert lines == [
            CSV_HEADER,
            "none,0.000000000000,0.000000000000,0.000000000000,0.000000000000,d_qubit,0.500000000000",
        ]

    def test_json_round_trip(self, tmp_path):
        config = SweepConfig(
            Scenario.QUBIT, p_values=(0.1,), r_values=(0.0, 0.3), quantities=("d_total", "lqu")
        )
        records = list(run_sweep(config))
        path = tmp_path / "records.json"
        write_output(records, path, "json")
        loaded = [SweepRecord(**obj) for obj in json.loads(path.read_text())]
        assert loaded == records

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="format"):
            write_output([], tmp_path / "x.bin", "parquet")

    def test_io_error_reports_path(self, tmp_path):
        with pytest.raises(OSError, match="missing"):
            write_output([], tmp_path / "missing" / "x.csv", "csv")

    def test_failed_render_leaves_the_target_untouched(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("previous\n")
        good = SweepRecord("none", 0.0, 0.0, 0.0, 0.0, "d_qubit", 0.5)
        bad = SweepRecord("none", 0.1, 0.0, 0.0, 0.0, "d_qubit", math.nan)
        with pytest.raises(ValueError):
            write_output([good, bad], path, "csv")
        assert path.read_text() == "previous\n"
        assert [entry.name for entry in tmp_path.iterdir()] == ["out.csv"]

    @pytest.mark.parametrize(
        "count, value",
        [(0, None), (1, None), (50, None), (1, np.float64(0.1) / 3), (1, -0.0), (1, 1e-300)],
        ids=["none", "one", "many", "np-float64", "negative-zero", "tiny"],
    )
    def test_json_bytes_equal_json_dump(self, tmp_path, count, value):
        records = [
            SweepRecord(
                "both", np.float64(k / 7), 0.01 * k, R_MAX, -1.5, QUANTITIES[k % len(QUANTITIES)],
                k / 3 if value is None else value,
            )
            for k in range(count)
        ]
        path = tmp_path / "records.json"
        write_output(records, path, "json")
        expected = json.dumps([dict(vars(r)) for r in records], indent=2) + "\n"
        assert path.read_bytes() == expected.encode()

    def test_json_escapes_strings_as_json_dump(self, tmp_path):
        records = [
            SweepRecord('qu"bit', 0.1, 0.2, 0.0, 0.0, "d_total", 0.5),
            SweepRecord("both\\", 0.1, 0.2, 0.2, 0.0, "l\u00e9qu\u2192\U0001d70c", 0.25),
        ]
        path = tmp_path / "records.json"
        write_output(records, path, "json")
        expected = json.dumps([asdict(r) for r in records], indent=2) + "\n"
        assert path.read_bytes() == expected.encode()

    def test_symlink_target_is_written_through(self, tmp_path):
        real = tmp_path / "real.csv"
        real.write_text("previous\n")
        link = tmp_path / "link.csv"
        link.symlink_to(real)
        write_output([], link, "csv")
        assert link.is_symlink()
        assert real.read_text() == CSV_HEADER + "\n"
        assert sorted(entry.name for entry in tmp_path.iterdir()) == ["link.csv", "real.csv"]

    def test_dangling_symlink_creates_its_target(self, tmp_path):
        link = tmp_path / "link.csv"
        link.symlink_to(tmp_path / "new.csv")
        write_output([], link, "csv")
        assert link.is_symlink()
        assert (tmp_path / "new.csv").read_text() == CSV_HEADER + "\n"

    @pytest.mark.parametrize("via_link", [False, True])
    def test_fifo_target_is_rejected_untouched(self, tmp_path, via_link):
        fifo = tmp_path / "pipe.csv"
        os.mkfifo(fifo)
        target = fifo
        if via_link:
            target = tmp_path / "link.csv"
            target.symlink_to(fifo)
        with pytest.raises(ConfigError, match="not a regular file"):
            write_output([], target, "csv")
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert len(list(tmp_path.iterdir())) == (2 if via_link else 1)

    def test_directory_target_is_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not a regular file"):
            write_output([], tmp_path, "json")
        assert list(tmp_path.iterdir()) == []


class TestPresets:
    def test_all_presets_enumerate_and_validate(self):
        assert len(PRESET_NAMES) == 19
        for name in PRESET_NAMES:
            preset_config(name).validate()

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            preset_config("fig9z")

    def test_caption_pinned_parameters(self):
        assert preset_config("fig1b").p_values == (0.1,)
        assert preset_config("fig1b").scenario is Scenario.QUBIT
        assert preset_config("fig1c").scenario is Scenario.QUTRIT
        assert preset_config("fig4a").p_values == (0.0,)
        assert preset_config("fig4b").p_values == (0.01,)
        assert preset_config("fig4c").p_values == (0.05,)
        assert preset_config("fig5b").scenario is Scenario.QUTRIT
        assert preset_config("fig1a").scenario is Scenario.NONE
        assert len(preset_config("fig1a").p_values) == 101

    def test_r_grid_resolution(self):
        config = preset_config("fig2a")
        assert len(config.r_values) == 101
        assert config.r_values[0] == 0.0
        assert config.r_values[-1] == pytest.approx(math.pi / 4)

    def test_workers_override(self):
        assert preset_config("fig1a", workers=4).workers == 4


def _reference_values(scenario, p, r, phi, convention):
    """Every quantity of one point from the per-point public functions."""
    state = accelerate_closed(ModelParams.for_scenario(scenario, p, r, phi))
    triple = decoherence_triple(state)
    report = steering_report(state, convention)
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


class TestQuantityTable:
    @settings(max_examples=60, deadline=None)
    @given(
        scenario=st.sampled_from(list(Scenario)),
        p=st.floats(0.0, 0.5),
        r=st.floats(0.0, R_MAX),
        phi=st.floats(-10.0, 10.0),
        convention=st.sampled_from(list(Convention)),
    )
    def test_every_quantity_equals_the_per_point_reference(self, scenario, p, r, phi, convention):
        config = SweepConfig(scenario, p_values=(p,), r_values=(r,), phi=phi, convention=convention)
        records = list(run_sweep(config))
        assert sorted(rec.quantity for rec in records) == sorted(QUANTITIES)
        expected = _reference_values(scenario, p, r, phi, convention)
        assert {rec.quantity: rec.value for rec in records} == expected

    @pytest.mark.parametrize("name", ["fig3a", "fig3b", "fig4a"])
    def test_closed_form_presets_build_no_joint_tables(self, name, monkeypatch):
        def no_joint_tables(*args, **kwargs):
            raise AssertionError("joint table built for a closed-form quantity")

        monkeypatch.setattr(measures, "joint_distribution", no_joint_tables)
        assert len(list(run_sweep(preset_config(name)))) == 101 * len(preset_config(name).quantities)

    @pytest.mark.parametrize("convention", list(Convention))
    def test_every_steering_value_is_computed_once_per_point(self, convention, monkeypatch):
        calls = collections.Counter()
        for name in ("steering_sum_oracle", "steering_closed"):
            def counted(*args, _name=name, _function=getattr(measures, name)):
                calls[_name] += 1
                return _function(*args)

            monkeypatch.setattr(measures, name, counted)
        state = accelerate_closed(ModelParams.for_scenario(Scenario.BOTH, 0.1, 0.4))
        chunk = sweep._Chunk([state], convention)
        for _ in range(2):
            for read in sweep._QUANTITY_TABLE.values():
                read(chunk)
        assert calls == {"steering_sum_oracle": 2, "steering_closed": 2}

    def test_decoherence_and_lqu_build_no_steering_report(self, monkeypatch):
        def no_report(*args, **kwargs):
            raise AssertionError("steering report built for a non-steering quantity")

        monkeypatch.setattr(sweep, "steering_report", no_report)
        quantities = ("d_total", "d_qubit", "d_qutrit", "lqu")
        config = SweepConfig(Scenario.BOTH, p_values=(0.1,), r_values=(0.0, 0.4), quantities=quantities)
        assert len(list(run_sweep(config))) == 2 * len(quantities)


class TestChunkedSweep:
    CHUNK = 3

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(sweep, "CHUNK", self.CHUNK)

    @pytest.mark.parametrize("convention", list(Convention))
    @pytest.mark.parametrize(
        "p_values, r_count",
        [((0.2,), 1), ((0.0, 0.3), 1), ((0.3,), CHUNK), ((0.1, 0.4), 2)],
        ids=["1", "CHUNK-1", "CHUNK", "CHUNK+1"],
    )
    def test_records_equal_the_per_point_values(self, p_values, r_count, convention):
        r_values = tuple(float(r) for r in np.linspace(0.1, R_MAX, r_count))
        config = SweepConfig(Scenario.BOTH, p_values=p_values, r_values=r_values, phi=0.7,
                             convention=convention)
        records = list(run_sweep(config))
        assert len(records) == len(p_values) * r_count * len(QUANTITIES)
        expected = {
            (p, r): _reference_values(Scenario.BOTH, p, r, 0.7, convention)
            for p in p_values
            for r in r_values
        }
        assert {(rec.p, rec.r_q, rec.quantity): rec.value for rec in records} == {
            (p, r, name): value for (p, r), values in expected.items() for name, value in values.items()
        }

    def test_worker_counts_write_identical_bytes(self, tmp_path):
        outputs = []
        for workers in (1, 2):
            out = tmp_path / f"workers{workers}.json"
            argv = ["sweep", "--scenario", "qutrit", "--p", "0.0,0.2", "--r", "0:0.7:5",
                    "--format", "json", "--workers", str(workers), "--out", str(out)]
            assert main(argv) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_lqu_and_decoherence_use_only_the_stacked_kernels(self, monkeypatch):
        quantities = ("d_total", "d_qubit", "d_qutrit", "lqu")
        config = SweepConfig(
            Scenario.QUBIT, p_values=(0.1, 0.3), r_values=(0.0, 0.4, 0.7), quantities=quantities
        )
        expected = {(p, r): _reference_values(Scenario.QUBIT, p, r, 0.0, Convention.AS_PRINTED)
                    for p in config.p_values for r in config.r_values}

        def per_state(*args):
            raise AssertionError("per-state kernel called by a sweep")

        for module in (measures, sweep):
            monkeypatch.setattr(module, "lqu", per_state, raising=False)
            monkeypatch.setattr(module, "decoherence_triple", per_state, raising=False)
        records = list(run_sweep(config))
        assert len(records) == 6 * len(quantities)
        for rec in records:
            assert rec.value == expected[(rec.p, rec.r_q)][rec.quantity]

    def test_steering_only_sweep_builds_no_stack(self, monkeypatch):
        def no_stack(*args):
            raise AssertionError("stacked kernel called for steering quantities")

        monkeypatch.setattr(sweep, "lqu_stack", no_stack)
        monkeypatch.setattr(sweep, "decoherence_stack", no_stack)
        config = SweepConfig(Scenario.BOTH, p_values=(0.1,), r_values=(0.0, 0.3, 0.5, 0.7),
                             quantities=("steer_ab", "i_ba_closed", "s_ab_oracle"))
        assert len(list(run_sweep(config))) == 4 * 3


class TestStreamedSweep:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_permuted_grids_write_the_bytes_of_ascending_ones(self, tmp_path, monkeypatch, fmt, workers):
        monkeypatch.setattr(sweep, "CHUNK", 3)
        ascending = SweepConfig(
            Scenario.BOTH,
            p_values=(0.0, 0.2, 0.45),
            r_values=(0.0, 0.1, 0.4, 0.7),
            quantities=("d_total", "lqu", "steer_ab"),
            workers=workers,
        )
        permuted = replace(
            ascending,
            p_values=(0.45, -0.0, 0.2),
            r_values=(0.4, 0.7, 0.0, 0.1),
            quantities=("steer_ab", "d_total", "lqu"),
        )
        outputs = []
        for name, config in (("ascending", ascending), ("permuted", permuted)):
            path = tmp_path / f"{name}.{fmt}"
            write_output(run_sweep(config), path, fmt)
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_memory_of_a_written_sweep_does_not_grow_with_the_grid(self, tmp_path, workers):
        def peak_bytes(r_count):
            r_values = tuple(float(r) for r in np.linspace(0.0, R_MAX, r_count))
            config = SweepConfig(Scenario.BOTH, p_values=(0.1, 0.3), r_values=r_values,
                                 quantities=("d_total",), workers=workers)
            gc.collect()
            tracemalloc.start()
            try:
                write_output(run_sweep(config), tmp_path / "out.csv")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak_bytes(40)  # first-call caches; two chunks, so a pool's first start too
        # Holding the records of the 3 600 extra points would take over 1 MB.
        assert peak_bytes(2000) - peak_bytes(200) < 300_000

    def test_non_finite_value_in_a_later_chunk_leaves_the_target_untouched(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sweep, "CHUNK", 2)
        chunks = []

        def nan_in_second_chunk(matrices):
            chunks.append(len(matrices))
            value = measures.lqu_stack(matrices).value
            return SimpleNamespace(value=np.full_like(value, np.nan) if len(chunks) == 2 else value)

        monkeypatch.setattr(sweep, "lqu_stack", nan_in_second_chunk)
        path = tmp_path / "out.csv"
        path.write_text("previous\n")
        config = SweepConfig(Scenario.QUBIT, p_values=(0.1, 0.2, 0.3), r_values=(0.0, 0.5),
                             quantities=("lqu",))
        with pytest.raises(ValueError, match="non-finite"):
            write_output(run_sweep(config), path)
        assert chunks == [2, 2]
        assert path.read_text() == "previous\n"
        assert [entry.name for entry in tmp_path.iterdir()] == ["out.csv"]
