"""Verification harness: closed-form vs oracle grids, physicality checks
and the empirical steering-convention record.

Every check prints one line with its maximum observed deviation.  Known
model discrepancies (the printed doubly-accelerated element table and
the direction labels of the closed-form steering inequalities) are
detected, localized and reported rather than silently corrected.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .measures import (
    Convention,
    decoherence_triple,
    joint_distribution,
    linear_entropy,
    lqu,
    standard_observables,
    steering_report,
)
from .model import (
    FACTOR_DIMS,
    ModelParams,
    R_MAX,
    RegionIState,
    Scenario,
    accelerate_closed,
    accelerate_oracle,
    as_printed_both_matrix,
    initial_state,
    label_text,
    reduce_qubit,
    reduce_qutrit,
)

GRID_P = (0.0, 0.1, 0.25, 0.4, 0.5)
GRID_R = tuple(float(r) for r in np.linspace(0.0, R_MAX, 9))
GRID_PHI = (0.0, 0.7, 2.1)
TREND_P = (0.0, 0.01, 0.05)


@dataclass
class CheckResult:
    name: str
    passed: bool
    max_deviation: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = f"[{status}] {self.name}: max deviation {self.max_deviation:.3e}"
        if self.detail:
            text += f" ({self.detail})"
        return text


@dataclass
class VerificationReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(check.passed for check in self.checks)

    def lines(self) -> list[str]:
        out = [check.line() for check in self.checks]
        out.append(f"verification {'passed' if self.ok else 'FAILED'} ({len(self.checks)} checks)")
        return out


def _grid_states(include_oracle: bool = False):
    """All states of the verify grid (closed route, optionally oracle too)."""
    for p in GRID_P:
        yield initial_state(p)
    for scenario in (Scenario.QUBIT, Scenario.QUTRIT, Scenario.BOTH):
        for p in GRID_P:
            for r in GRID_R:
                params = ModelParams.for_scenario(scenario, p, r)
                yield accelerate_closed(params)
                if include_oracle:
                    yield accelerate_oracle(params)


def _check_closed_vs_oracle(scenario: Scenario) -> CheckResult:
    started = time.perf_counter()
    worst = 0.0
    for p in GRID_P:
        for r in GRID_R:
            for phi in GRID_PHI:
                params = ModelParams.for_scenario(scenario, p, r, phi)
                dev = float(np.abs(accelerate_closed(params).matrix - accelerate_oracle(params).matrix).max())
                worst = max(worst, dev)
    elapsed = time.perf_counter() - started
    name = f"closed_vs_oracle[{scenario.value}]"
    detail = f"{len(GRID_P) * len(GRID_R) * len(GRID_PHI)} grid points in {elapsed:.3f}s"
    return CheckResult(name, worst < 1e-12, worst, detail)


def _check_as_printed() -> CheckResult:
    """The printed doubly-accelerated table must differ from the oracle
    only in the |1 0> population (and hence the trace)."""
    worst = 0.0
    worst_off_slot = 0.0
    worst_trace = 0.0
    slot = 3  # labeled position of |1 0>
    for p in GRID_P:
        for r_q in GRID_R:
            for r_t in GRID_R[::2]:
                params = ModelParams(p=p, r_q=r_q, r_t=r_t, scenario=Scenario.BOTH)
                printed = as_printed_both_matrix(params)
                oracle = accelerate_oracle(params).matrix
                diff = np.abs(printed - oracle)
                worst = max(worst, float(diff.max()))
                masked = diff.copy()
                masked[slot, slot] = 0.0
                worst_off_slot = max(worst_off_slot, float(masked.max()))
                worst_trace = max(worst_trace, abs(float(printed.trace().real) - 1.0))
    detected = worst > 1e-6 and worst_off_slot < 1e-12
    detail = (
        f"known discrepancy localized at {label_text((1, 0))}{label_text((1, 0))}, "
        f"trace deviates by up to {worst_trace:.3e}, all other elements within {worst_off_slot:.3e}"
    )
    return CheckResult("as_printed_both_discrepancy", detected, worst, detail)


def _check_physicality() -> tuple[CheckResult, CheckResult, CheckResult]:
    worst_trace = worst_herm = 0.0
    lowest_eig = 0.0
    for state in _grid_states(include_oracle=True):
        m = state.matrix
        worst_trace = max(worst_trace, abs(float(m.trace().real) - 1.0))
        worst_herm = max(worst_herm, float(np.abs(m - m.conj().T).max()))
        lowest_eig = min(lowest_eig, float(np.linalg.eigvalsh(m).min()))
    return (
        CheckResult("physicality[trace]", worst_trace < 1e-12, worst_trace),
        CheckResult("physicality[hermiticity]", worst_herm < 1e-12, worst_herm),
        CheckResult(
            "physicality[eigenvalue-floor]",
            lowest_eig > -1e-10,
            abs(min(lowest_eig, 0.0)),
            "magnitude of most negative eigenvalue",
        ),
    )


def _check_r_zero() -> CheckResult:
    worst = 0.0
    for scenario in (Scenario.QUBIT, Scenario.QUTRIT, Scenario.BOTH):
        for p in GRID_P:
            params = ModelParams.for_scenario(scenario, p, 0.0, phi=0.7)
            inertial = initial_state(p).matrix
            for route in (accelerate_closed, accelerate_oracle):
                worst = max(worst, float(np.abs(route(params).matrix - inertial).max()))
    return CheckResult("r_zero_reduction", worst < 1e-14, worst)


def _check_phi_independence() -> CheckResult:
    worst = 0.0
    for scenario in (Scenario.QUTRIT, Scenario.BOTH):
        for p in GRID_P:
            for r in GRID_R[1:]:
                base = accelerate_oracle(ModelParams.for_scenario(scenario, p, r, GRID_PHI[0])).matrix
                for phi in GRID_PHI[1:]:
                    other = accelerate_oracle(ModelParams.for_scenario(scenario, p, r, phi)).matrix
                    worst = max(worst, float(np.abs(base - other).max()))
    return CheckResult("phi_independence", worst < 1e-14, worst)


def _check_decoherence() -> CheckResult:
    worst = 0.0
    for p in np.linspace(0.0, 0.5, 11):
        state = initial_state(float(p))
        closed_forms = (
            (state.matrix, 1.0 - 1.5 * p * p - (1.0 - 2.0 * p) ** 2),
            (reduce_qubit(state), 0.5),
            (reduce_qutrit(state), 1.0 - (1.0 - p) ** 2 / 2.0 - p * p),
        )
        for m, closed_form in closed_forms:
            worst = max(worst, abs(linear_entropy(m) - closed_form))
    purity_defect = linear_entropy(initial_state(0.0).matrix)
    worst = max(worst, purity_defect)

    range_excess = 0.0  # each entry bounded by 1 - 1/dim of its space
    dims = (8, *FACTOR_DIMS)  # total, qubit, extended qutrit
    for state in _grid_states():
        triple = decoherence_triple(state)
        for value, dim in zip((triple.d_total, triple.d_qubit, triple.d_qutrit), dims):
            range_excess = max(range_excess, -value, value - (1.0 - 1.0 / dim) - 1e-12)
    worst = max(worst, max(0.0, range_excess))
    return CheckResult(
        "decoherence_closed_form", worst < 1e-12, worst,
        "11 p values, three closed forms; p=0 purity; grid range bounds",
    )


def _check_lqu() -> CheckResult:
    mixed = np.diag([1.0] * 6 + [0.0] * 2) / 6.0  # maximally mixed over the six inertial levels
    worst = abs(lqu(RegionIState(mixed)).value)
    worst = max(worst, abs(lqu(initial_state(0.0)).value - 1.0))
    out_of_range = 0.0
    for state in _grid_states():
        value = lqu(state).value
        out_of_range = max(out_of_range, max(0.0, -value), max(0.0, value - 1.0))
    passed = worst < 1e-10 and out_of_range < 1e-10
    return CheckResult("lqu_anchors", passed, max(worst, out_of_range), "anchors and [0, 1] range")


def _check_joint_normalization() -> CheckResult:
    worst = 0.0
    for state in _grid_states():
        for obs_a, obs_b in zip(standard_observables("qubit"), standard_observables("extended_qutrit")):
            joint = joint_distribution(state, obs_a, obs_b)
            worst = max(worst, abs(float(joint.probs.sum()) - 1.0))
    return CheckResult("joint_normalization", worst < 1e-12, worst, "3 settings x 4 scenarios")


def _check_steerability_range() -> CheckResult:
    worst = 0.0
    for state in _grid_states():
        for convention in Convention:
            report = steering_report(state, convention)
            for degree in (report.steer_ab, report.steer_ba):
                worst = max(worst, max(0.0, -degree), max(0.0, degree - 1.0))
    return CheckResult("steerability_range", worst <= 0.0, worst, "both conventions")


def _closed_anchor_relation() -> CheckResult:
    """On the inertial line, at the symmetric points p = 0 and p = 0.5, the
    closed forms equal 6 - S_AB and 4 - S_BA; in between the two directions
    share a p-dependent offset."""
    worst_anchor = 0.0
    for p in (0.0, 0.5):
        report = steering_report(initial_state(p))
        worst_anchor = max(
            worst_anchor,
            abs(report.i_ab_closed + report.s_ab_oracle - 6.0),
            abs(report.i_ba_closed + report.s_ba_oracle - 4.0),
        )
    offset = 0.0
    for p in np.linspace(0.0, 0.5, 11):
        report = steering_report(initial_state(float(p)))
        d_ab = report.i_ab_closed + report.s_ab_oracle - 6.0
        d_ba = report.i_ba_closed + report.s_ba_oracle - 4.0
        offset = max(offset, abs(d_ab), abs(d_ba))
    detail = (
        f"exact at p in {{0, 0.5}}; known closed-form offset up to {offset:.3f} at intermediate p, "
        "shared by both directions on the inertial line"
    )
    return CheckResult("closed_form_anchor_relation", worst_anchor < 1e-9, worst_anchor, detail)


def _trend_degrees(scenario: Scenario, p: float, r_values) -> dict[str, list[tuple[float, float]]]:
    """(steer_ab, steer_ba) curves under every candidate (convention, assignment)."""
    curves: dict[str, list[tuple[float, float]]] = {
        "as-printed": [],
        "as-printed-swapped": [],
        "deficit": [],
        "deficit-swapped": [],
    }
    for r in r_values:
        state = accelerate_closed(ModelParams.for_scenario(scenario, p, r))
        printed = steering_report(state, Convention.AS_PRINTED).degrees
        deficit = steering_report(state, Convention.DEFICIT_NORMALIZED).degrees
        curves["as-printed"].append(printed[::-1])
        curves["as-printed-swapped"].append(printed)
        curves["deficit"].append(deficit)
        curves["deficit-swapped"].append(deficit[::-1])
    return curves


def _figure_predicates(curve_table, assignment: str, r_values) -> dict[str, bool]:
    """The qualitative figure claims, tested for one candidate mapping."""
    ab_ge_ba = True
    monotone_r = True
    monotone_p = True
    ba_zero_first = True
    unit_at_pure = True
    for scenario in (Scenario.QUBIT, Scenario.QUTRIT):
        previous_p: list[tuple[float, float]] | None = None
        for p in TREND_P:
            pairs = curve_table[(scenario, p)][assignment]
            for (ab, ba) in pairs:
                if ab < ba - 1e-12:
                    ab_ge_ba = False
            for (ab0, ba0), (ab1, ba1) in zip(pairs, pairs[1:]):
                if ab1 > ab0 + 1e-12 or ba1 > ba0 + 1e-12:
                    monotone_r = False
            if previous_p is not None:
                for (ab, ba), (pab, pba) in zip(pairs, previous_p):
                    if ab > pab + 1e-12 or ba > pba + 1e-12:
                        monotone_p = False
            previous_p = pairs
            if scenario is Scenario.QUTRIT:
                ab_zero = next((r for r, (ab, _) in zip(r_values, pairs) if ab <= 0.0), None)
                ba_zero = next((r for r, (_, ba) in zip(r_values, pairs) if ba <= 0.0), None)
                if ba_zero is None or (ab_zero is not None and ba_zero >= ab_zero):
                    ba_zero_first = False
            if p == 0.0 and abs(pairs[0][0] - 1.0) + abs(pairs[0][1] - 1.0) > 1e-12:
                unit_at_pure = False
    return {
        "steer_ab >= steer_ba": ab_ge_ba,
        "non-increasing in r": monotone_r,
        "non-increasing in p": monotone_p,
        "steer_ba vanishes first (qutrit)": ba_zero_first,
        "degree 1 at p=0, r=0": unit_at_pure,
    }


def _check_figure_trends() -> tuple[CheckResult, CheckResult]:
    r_values = tuple(float(r) for r in np.linspace(0.0, R_MAX, 41))
    curve_table = {
        (scenario, p): _trend_degrees(scenario, p, r_values)
        for scenario in (Scenario.QUBIT, Scenario.QUTRIT)
        for p in TREND_P
    }
    results = {name: _figure_predicates(curve_table, name, r_values) for name in
               ("as-printed", "as-printed-swapped", "deficit", "deficit-swapped")}
    matching = [name for name, preds in results.items() if all(preds.values())]
    identified = matching[0] if len(matching) == 1 else None

    summary = "; ".join(
        f"{name}: {'all' if all(p.values()) else 'failed ' + ', '.join(k for k, v in p.items() if not v)}"
        for name, p in results.items()
    )
    identification = CheckResult(
        "figure_matching_identification",
        identified == "as-printed-swapped",
        0.0,
        f"identified {identified!r}; known discrepancy: the printed closed-form direction "
        f"subscripts reverse the figure curve ordering, so the figure-matching degrees "
        f"exchange the two forms ({summary})",
    )
    trends = results["as-printed-swapped"]
    trend_check = CheckResult(
        "figure_trends[as-printed]",
        all(trends.values()),
        0.0,
        "figure trends under the identified assignment: "
        + ", ".join(f"{k}={'ok' if v else 'VIOLATED'}" for k, v in trends.items()),
    )
    return identification, trend_check


def run_verify() -> VerificationReport:
    """Run the full verification suite and collect one result per check."""
    report = VerificationReport()
    report.checks.append(_check_closed_vs_oracle(Scenario.QUBIT))
    report.checks.append(_check_closed_vs_oracle(Scenario.QUTRIT))
    report.checks.append(_check_closed_vs_oracle(Scenario.BOTH))
    report.checks.append(_check_as_printed())
    report.checks.extend(_check_physicality())
    report.checks.append(_check_r_zero())
    report.checks.append(_check_phi_independence())
    report.checks.append(_check_decoherence())
    report.checks.append(_check_lqu())
    report.checks.append(_check_joint_normalization())
    report.checks.append(_check_steerability_range())
    report.checks.append(_closed_anchor_relation())
    report.checks.extend(_check_figure_trends())
    return report
