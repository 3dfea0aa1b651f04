"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time

import numpy as np
import pytest

from unruh_steering.measures import (
    Convention,
    conditional_entropy,
    joint_distribution,
    lqu,
    standard_observables,
    steering_report,
)
from unruh_steering.model import (
    ModelParams,
    R_MAX,
    RegionIState,
    Scenario,
    accelerate_closed,
    accelerate_oracle,
    as_printed_both_matrix,
    initial_state,
    reduce_qubit,
)
from unruh_steering.sweep import (
    CSV_HEADER,
    PRESET_NAMES,
    SweepConfig,
    preset_config,
    run_sweep,
    write_output,
)
from unruh_steering.verify import run_verify

GRID_P = (0.0, 0.1, 0.25, 0.4, 0.5)
GRID_R = tuple(float(r) for r in np.linspace(0.0, R_MAX, 9))
GRID_PHI = (0.0, 0.7, 2.1)


def report(criterion, ok, detail):
    print(f"criterion {criterion:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def params_for(scenario, p, r, phi=0.0):
    return ModelParams(
        p=p,
        r_q=r if scenario in (Scenario.QUBIT, Scenario.BOTH) else 0.0,
        r_t=r if scenario in (Scenario.QUTRIT, Scenario.BOTH) else 0.0,
        phi=phi,
        scenario=scenario,
    )


def grid_states(include_oracle=False):
    for p in GRID_P:
        yield initial_state(p)
    for scenario in (Scenario.QUBIT, Scenario.QUTRIT, Scenario.BOTH):
        for p in GRID_P:
            for r in GRID_R:
                params = params_for(scenario, p, r, phi=0.7)
                yield accelerate_closed(params)
                if include_oracle:
                    yield accelerate_oracle(params)


def test_criterion_1_oracle_equivalence():
    started = time.perf_counter()
    worst_single = 0.0
    for scenario in (Scenario.QUBIT, Scenario.QUTRIT):
        for p in GRID_P:
            for r in GRID_R:
                for phi in GRID_PHI:
                    params = params_for(scenario, p, r, phi)
                    dev = np.abs(
                        accelerate_closed(params).matrix - accelerate_oracle(params).matrix
                    ).max()
                    worst_single = max(worst_single, float(dev))
    elapsed = time.perf_counter() - started

    worst_both = 0.0
    for p in GRID_P:
        for r in GRID_R:
            params = ModelParams(p=p, r_q=r, r_t=r, phi=0.7, scenario=Scenario.BOTH)
            dev = np.abs(accelerate_closed(params).matrix - accelerate_oracle(params).matrix).max()
            worst_both = max(worst_both, float(dev))

    # the as-printed element table must deviate exactly at the (4,4) slot,
    # where the printed formula substitutes the (5,5) population
    params = ModelParams(p=0.1, r_q=0.5, r_t=0.5, scenario=Scenario.BOTH)
    diff = np.abs(as_printed_both_matrix(params) - accelerate_oracle(params).matrix)
    detected = diff[3, 3] > 1e-3
    off = diff.copy()
    off[3, 3] = 0.0
    localized = off.max() < 1e-12

    ok = worst_single < 1e-12 and elapsed < 1.0 and worst_both < 1e-12 and detected and localized
    report(
        1,
        ok,
        f"single-subsystem max dev {worst_single:.2e} in {elapsed:.2f}s, both-composition "
        f"max dev {worst_both:.2e}, as-printed (4,4)/(5,5) discrepancy {diff[3, 3]:.3e} detected",
    )


def test_criterion_2_physicality():
    worst_trace = worst_herm = 0.0
    lowest = 0.0
    count = 0
    for state in grid_states(include_oracle=True):
        m = state.matrix
        worst_trace = max(worst_trace, abs(float(m.trace().real) - 1.0))
        worst_herm = max(worst_herm, float(np.abs(m - m.conj().T).max()))
        lowest = min(lowest, float(np.linalg.eigvalsh(m).min()))
        count += 1
    ok = worst_trace < 1e-12 and worst_herm < 1e-12 and lowest > -1e-10
    report(
        2,
        ok,
        f"{count} states: trace dev {worst_trace:.2e}, hermiticity {worst_herm:.2e}, "
        f"min eigenvalue {lowest:.2e}",
    )


def test_criterion_3_r_zero_reduction():
    worst = 0.0
    for scenario in (Scenario.QUBIT, Scenario.QUTRIT, Scenario.BOTH):
        for p in GRID_P:
            inertial = initial_state(p).matrix
            for phi in GRID_PHI:
                params = params_for(scenario, p, 0.0, phi)
                for route in (accelerate_closed, accelerate_oracle):
                    worst = max(worst, float(np.abs(route(params).matrix - inertial).max()))
    report(3, worst < 1e-14, f"max deviation from the inertial state {worst:.2e}")


def test_criterion_4_phi_independence():
    worst = 0.0
    for scenario in (Scenario.QUTRIT, Scenario.BOTH):
        for p in GRID_P:
            for r in GRID_R:
                base = accelerate_oracle(params_for(scenario, p, r, GRID_PHI[0])).matrix
                for phi in GRID_PHI[1:]:
                    other = accelerate_oracle(params_for(scenario, p, r, phi)).matrix
                    worst = max(worst, float(np.abs(base - other).max()))
    report(4, worst < 1e-14, f"max variation across phi grid {worst:.2e}")


def test_criterion_5_decoherence_anchors():
    worst_qubit = worst_total = 0.0
    for p in np.linspace(0.0, 0.5, 11):
        state = initial_state(float(p))
        m = np.asarray(state.matrix)
        brute_force = 1.0 - float(np.trace(m @ m).real)
        closed_form = 1.0 - 1.5 * p * p - (1.0 - 2.0 * p) ** 2
        from unruh_steering.measures import linear_entropy

        worst_total = max(
            worst_total,
            abs(linear_entropy(state.matrix) - closed_form),
            abs(brute_force - closed_form),
        )
        worst_qubit = max(worst_qubit, abs(linear_entropy(reduce_qubit(state.matrix)) - 0.5))
    pure_defect = 1.0 - float(
        np.trace(np.asarray(initial_state(0.0).matrix) @ np.asarray(initial_state(0.0).matrix)).real
    )
    ok = worst_qubit < 1e-12 and worst_total < 1e-12 and abs(pure_defect) < 1e-12
    report(
        5,
        ok,
        f"d_qubit dev {worst_qubit:.2e}, d_total vs closed form {worst_total:.2e}, "
        f"p=0 purity defect {abs(pure_defect):.2e}",
    )


def test_criterion_6_lqu_anchors():
    mixed = abs(lqu(RegionIState(np.diag([1.0] * 6 + [0.0] * 2) / 6)).value)
    pure = abs(lqu(initial_state(0.0)).value - 1.0)
    out_of_range = 0.0
    for state in grid_states():
        value = lqu(state).value
        out_of_range = max(out_of_range, -value, value - 1.0)
    ok = mixed < 1e-10 and pure < 1e-10 and out_of_range < 1e-10
    report(
        6,
        ok,
        f"lqu(I/6) {mixed:.2e}, lqu(pure)-1 {pure:.2e}, range excess {max(out_of_range, 0.0):.2e}",
    )


def test_criterion_7_steering_anchors():
    joint = joint_distribution(
        initial_state(0.0), standard_observables("qubit")[2], standard_observables("extended_qutrit")[2]
    )
    entropy_dev = abs(conditional_entropy(joint) - 0.5)

    worst_norm = 0.0
    combos = 0
    for state in grid_states():
        for obs_a, obs_b in zip(standard_observables("qubit"), standard_observables("extended_qutrit")):
            table = joint_distribution(state, obs_a, obs_b)
            worst_norm = max(worst_norm, abs(float(table.probs.sum()) - 1.0))
            combos += 1

    range_excess = 0.0
    for state in grid_states():
        for convention in Convention:
            rep = steering_report(state, convention)
            for degree in (rep.steer_ab, rep.steer_ba):
                range_excess = max(range_excess, -degree, degree - 1.0)

    ok = entropy_dev < 1e-12 and worst_norm < 1e-12 and range_excess <= 0.0
    report(
        7,
        ok,
        f"H(Sz_B|Sz_A) dev {entropy_dev:.2e}, normalization dev {worst_norm:.2e} "
        f"({combos} tables), steerability range excess {max(range_excess, 0.0):.2e}",
    )


def test_criterion_8_figure_trends():
    # the harness must identify a unique figure-matching assignment and
    # record the closed-form direction-label discrepancy
    verification = run_verify()
    ident = next(c for c in verification.checks if c.name == "figure_matching_identification")
    assert ident.passed, ident.detail
    assert "as-printed-swapped" in ident.detail
    assert "known discrepancy" in ident.detail

    r_values = tuple(float(r) for r in np.linspace(0.0, R_MAX, 101))
    ordering_ok = True
    p_monotone_ok = True
    zero_crossings = {}
    for scenario in (Scenario.QUBIT, Scenario.QUTRIT):
        curves = {}
        for p in (0.0, 0.01, 0.05):
            pairs = []
            for r in r_values:
                rep = steering_report(accelerate_closed(params_for(scenario, p, r)))
                pairs.append((rep.steer_ab, rep.steer_ba))
                if rep.steer_ab < rep.steer_ba - 1e-12:
                    ordering_ok = False
            curves[p] = pairs
        for p_low, p_high in ((0.0, 0.01), (0.01, 0.05)):
            for (ab_low, ba_low), (ab_high, ba_high) in zip(curves[p_low], curves[p_high]):
                if ab_high > ab_low + 1e-12 or ba_high > ba_low + 1e-12:
                    p_monotone_ok = False
        if scenario is Scenario.QUTRIT:
            for p, pairs in curves.items():
                ab_zero = next((r for r, (ab, _) in zip(r_values, pairs) if ab <= 0.0), None)
                ba_zero = next((r for r, (_, ba) in zip(r_values, pairs) if ba <= 0.0), None)
                zero_crossings[p] = (ba_zero, ab_zero)

    sudden_ok = all(
        ba is not None and ab is not None and ba < ab for ba, ab in zero_crossings.values()
    )
    ok = ordering_ok and p_monotone_ok and sudden_ok
    crossings = ", ".join(
        f"p={p}: ba 0 at r={ba:.3f} < ab 0 at r={ab:.3f}" for p, (ba, ab) in zero_crossings.items()
    )
    report(
        8,
        ok,
        f"identified convention as-printed-swapped; steer_ab >= steer_ba {ordering_ok}, "
        f"non-increasing in p {p_monotone_ok}, qutrit sudden decay [{crossings}]",
    )


def test_criterion_9_worker_determinism(tmp_path):
    outputs = []
    for workers in (1, 4, 8):
        config = SweepConfig(
            Scenario.BOTH,
            p_values=(0.0, 0.1),
            r_values=tuple(float(r) for r in np.linspace(0.0, R_MAX, 7)),
            quantities=("d_total", "lqu", "steer_ab", "steer_ba"),
            workers=workers,
        )
        path = tmp_path / f"workers{workers}.csv"
        write_output(run_sweep(config), path)
        outputs.append(path.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    report(9, ok, f"byte-identical output across workers (1, 4, 8): {len(outputs[0])} bytes")


def test_criterion_10_presets_end_to_end(tmp_path):
    started = time.perf_counter()
    total_rows = 0
    schema_ok = True
    for name in PRESET_NAMES:
        config = preset_config(name)
        records = run_sweep(config)
        path = tmp_path / f"{name}.csv"
        write_output(records, path)
        lines = path.read_text().splitlines()
        if lines[0] != CSV_HEADER:
            schema_ok = False
        expected_rows = len(config.p_values) * len(config.r_values) * len(config.quantities)
        if len(lines) != 1 + expected_rows:
            schema_ok = False
        for line in lines[1:]:
            fields = line.split(",")
            if len(fields) != 7 or not math.isfinite(float(fields[6])):
                schema_ok = False
                break
        total_rows += len(lines) - 1
    elapsed = time.perf_counter() - started
    ok = schema_ok and elapsed < 60.0 and len(PRESET_NAMES) == 19
    report(
        10,
        ok,
        f"{len(PRESET_NAMES)} presets, {total_rows} rows, schema valid, {elapsed:.1f}s total",
    )
