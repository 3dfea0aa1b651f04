"""Verification harness: closed-form vs oracle grids, physicality checks
and the empirical steering-convention record.

Every check prints one line with its maximum observed deviation.  Each
route grid state is built once, one scenario at a time, and every range,
anchor and trend check reads its values from ``run_sweep``, so the checks
cover the stacked kernels the sweep runs.  Known model discrepancies (the
printed doubly-accelerated element table and the direction labels of the
closed-form steering inequalities) are detected, localized and reported
rather than silently corrected.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .linalg import HERMITICITY_ATOL, PSD_EIGENVALUE_FLOOR
from .measures import LQU_ATOL, PROB_ATOL, Convention, joint_distribution, lqu, standard_observables
from .model import (
    BASIS_8,
    FACTOR_DIMS,
    ModelParams,
    PAIR,
    R_MAX,
    RegionIState,
    Scenario,
    TRACE_ATOL,
    accelerate_closed,
    accelerate_oracle,
    as_printed_both_matrix,
    initial_state,
)
from .sweep import SweepConfig, run_sweep

GRID_P = (0.0, 0.1, 0.25, 0.4, 0.5)
GRID_R = tuple(float(r) for r in np.linspace(0.0, R_MAX, 9))
GRID_PHI = (0.0, 0.7, 2.1)
LINE_P = tuple(float(p) for p in np.linspace(0.0, 0.5, 11))  # the inertial line, p = 0 first
TREND_P = (0.0, 0.01, 0.05)
TREND_R = tuple(float(r) for r in np.linspace(0.0, R_MAX, 41))
ACCELERATED = (Scenario.QUBIT, Scenario.QUTRIT, Scenario.BOTH)
DECOHERENCE = ("d_total", "d_qubit", "d_qutrit")
DEGREES = ("steer_ab", "steer_ba")


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


def _sweep(scenario: Scenario, p_values, r_values, quantities, convention=Convention.AS_PRINTED):
    """The sweep's values of each quantity as a ``(p, r)`` array, read from its column
    chunks: they walk ascending p and r, so ascending grids reshape in place."""
    sweep = run_sweep(SweepConfig(scenario, p_values, r_values, quantities=quantities, convention=convention))
    values = np.concatenate([np.array(columns) for _, columns in sweep.chunks()], axis=1)
    return dict(zip(sweep.quantities, values.reshape(-1, len(p_values), len(r_values))))


def _excess(values, high: float) -> float:
    """How far any value leaves [0, high]; 0 when all lie inside."""
    return float(max(0.0, -values.min(), values.max() - high))


def _physicality(matrices: np.ndarray) -> dict[str, float]:
    """Worst trace and hermiticity defects and most negative eigenvalue
    magnitude over a stack of 8x8 state matrices."""
    m = matrices.reshape(-1, 8, 8)
    return {
        "trace": float(np.abs(np.trace(m, axis1=1, axis2=2).real - 1.0).max()),
        "hermiticity": float(np.abs(m - m.conj().swapaxes(1, 2)).max()),
        "eigenvalue": max(0.0, -float(np.linalg.eigvalsh(m).min())),
    }


def _joint_defect(states) -> float:
    """Worst normalization defect of the three standard joint tables."""
    settings = tuple(zip(standard_observables("qubit"), standard_observables("extended_qutrit")))
    return max(
        abs(float(joint_distribution(state, obs_a, obs_b).probs.sum()) - 1.0)
        for state in states
        for obs_a, obs_b in settings
    )


def _route_figures(scenario: Scenario, inertial: np.ndarray) -> dict[str, float]:
    """Build one scenario's route grid, a closed state per (p, r) (the
    closed forms ignore phi) and an oracle state per (p, r, phi), and
    return the worst figure of every check that reads it."""
    started = time.perf_counter()
    shape = (len(GRID_P), len(GRID_R), -1, 8, 8)
    closed = [accelerate_closed(ModelParams.for_scenario(scenario, p, r)) for p in GRID_P for r in GRID_R]
    oracle = np.array([
        accelerate_oracle(ModelParams.for_scenario(scenario, p, r, phi)).matrix
        for p in GRID_P for r in GRID_R for phi in GRID_PHI
    ]).reshape(shape)
    routes = np.concatenate((np.array([state.matrix for state in closed]).reshape(shape), oracle), axis=2)
    return {
        "closed_vs_oracle": float(np.abs(oracle - routes[:, :, :1]).max()),
        "seconds": time.perf_counter() - started,
        **_physicality(routes),
        "r_zero": float(np.abs(routes[:, 0] - inertial[:, None]).max()),
        "phi": float(np.abs(oracle - oracle[:, :, :1]).max()),
        "joint": _joint_defect(closed),
    }


def _range_figures(scenario: Scenario) -> dict[str, float]:
    """How far the sweep's decoherence, LQU and steering degrees leave
    their ranges on the scenario's (p, r) grid."""
    r_values = (0.0,) if scenario is Scenario.NONE else GRID_R
    printed = _sweep(scenario, GRID_P, r_values, (*DECOHERENCE, "lqu", *DEGREES))
    deficit = _sweep(scenario, GRID_P, r_values, DEGREES, Convention.DEFICIT_NORMALIZED)
    # each decoherence entry is bounded by 1 - 1/dim of its space
    dims = (8, *FACTOR_DIMS)  # total, qubit, extended qutrit
    return {
        "decoherence": max(
            _excess(printed[name], 1.0 - 1.0 / dim + 1e-12) for name, dim in zip(DECOHERENCE, dims)
        ),
        "lqu": _excess(printed["lqu"], 1.0),
        "steering": max(_excess(values[name], 1.0) for values in (printed, deficit) for name in DEGREES),
    }


def _check_as_printed() -> CheckResult:
    """The printed doubly-accelerated table must differ from the oracle
    only in the |1 0> population (and hence the trace)."""
    worst = 0.0
    worst_off_slot = 0.0
    worst_trace = 0.0
    slot = BASIS_8.index((1, 0))
    for p in GRID_P:
        for r_q in GRID_R:
            for r_t in GRID_R[::2]:
                params = ModelParams(p=p, r_q=r_q, r_t=r_t, scenario=Scenario.BOTH)
                printed = as_printed_both_matrix(params)
                oracle = accelerate_oracle(params).matrix
                diff = np.abs(printed - oracle)
                worst = max(worst, float(diff.max()))
                diff[slot, slot] = 0.0
                worst_off_slot = max(worst_off_slot, float(diff.max()))
                worst_trace = max(worst_trace, abs(float(printed.trace().real) - 1.0))
    detected = worst > 1e-6 and worst_off_slot < 1e-12
    detail = (
        "known discrepancy localized at |1 0>|1 0>, "
        f"trace deviates by up to {worst_trace:.3e}, all other elements within {worst_off_slot:.3e}"
    )
    return CheckResult("as_printed_both_discrepancy", detected, worst, detail)


def _line_figures() -> dict[str, float]:
    """The anchor figures.  From the sweep's inertial line: the three
    decoherence closed forms, the p = 0 purity, the pure LQU anchor and
    the closed-form anchor relation.  Per state: the maximally mixed LQU
    anchor."""
    line = {name: values[:, 0] for name, values in _sweep(
        Scenario.NONE, LINE_P, (0.0,),
        (*DECOHERENCE, "lqu", "i_ab_closed", "i_ba_closed", "s_ab_oracle", "s_ba_oracle"),
    ).items()}
    p = np.array(LINE_P)
    closed_forms = (1.0 - 1.5 * p * p - (1.0 - 2.0 * p) ** 2, 0.5, 1.0 - (1.0 - p) ** 2 / 2.0 - p * p)
    decoherence = max(float(np.abs(line[name] - form).max()) for name, form in zip(DECOHERENCE, closed_forms))
    mixed = np.diag([float(t != PAIR) for _, t in BASIS_8]) / 6.0  # uniform over the six inertial levels
    # At the symmetric points p = 0 and p = 0.5 the closed forms equal
    # 6 - S_AB and 4 - S_BA; in between the two directions share a
    # p-dependent offset.
    d_ab = line["i_ab_closed"] + line["s_ab_oracle"] - 6.0
    d_ba = line["i_ba_closed"] + line["s_ba_oracle"] - 4.0
    return {
        "decoherence": max(decoherence, float(line["d_total"][0])),  # p = 0 is pure
        "lqu": max(abs(lqu(RegionIState(mixed)).value), abs(float(line["lqu"][0]) - 1.0)),
        "anchor": float(max(np.abs(d_ab[[0, -1]]).max(), np.abs(d_ba[[0, -1]]).max())),
        "offset": float(max(np.abs(d_ab).max(), np.abs(d_ba).max())),
    }


def _trend_degrees(convention: Convention) -> tuple[np.ndarray, np.ndarray]:
    """(steer_ab, steer_ba) as (scenario, p, r) arrays, qubit then qutrit."""
    scenarios = (Scenario.QUBIT, Scenario.QUTRIT)
    sweeps = [_sweep(scenario, TREND_P, TREND_R, DEGREES, convention) for scenario in scenarios]
    return tuple(np.stack([sweep[name] for sweep in sweeps]) for name in DEGREES)


def _first_zero(degrees: np.ndarray) -> np.ndarray:
    """Index of the first r at which each curve reaches 0; the curve length if none."""
    hits = degrees <= 0.0
    return np.where(hits.any(axis=-1), hits.argmax(axis=-1), hits.shape[-1])


def _figure_predicates(ab: np.ndarray, ba: np.ndarray) -> dict[str, bool]:
    """The qualitative figure claims, tested for one candidate mapping."""
    return {
        "steer_ab >= steer_ba": bool((ab >= ba - 1e-12).all()),
        "non-increasing in r": all(bool((d[..., 1:] <= d[..., :-1] + 1e-12).all()) for d in (ab, ba)),
        "non-increasing in p": all(bool((d[:, 1:] <= d[:, :-1] + 1e-12).all()) for d in (ab, ba)),
        "steer_ba vanishes first (qutrit)": bool((_first_zero(ba[1]) < _first_zero(ab[1])).all()),
        "degree 1 at p=0, r=0": bool((np.abs(ab[:, 0, 0] - 1.0) + np.abs(ba[:, 0, 0] - 1.0) <= 1e-12).all()),
    }


def _check_figure_trends() -> tuple[CheckResult, CheckResult]:
    printed_ab, printed_ba = _trend_degrees(Convention.AS_PRINTED)
    deficit_ab, deficit_ba = _trend_degrees(Convention.DEFICIT_NORMALIZED)
    candidates = {
        "as-printed": (printed_ba, printed_ab),
        "as-printed-swapped": (printed_ab, printed_ba),
        "deficit": (deficit_ab, deficit_ba),
        "deficit-swapped": (deficit_ba, deficit_ab),
    }
    results = {name: _figure_predicates(ab, ba) for name, (ab, ba) in candidates.items()}
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
    inertial_states = [initial_state(p) for p in GRID_P]
    inertial = np.array([state.matrix for state in inertial_states])
    # One scenario's grid at a time; only its worst figures are kept.
    routes = {scenario: _route_figures(scenario, inertial) for scenario in ACCELERATED}
    figures = [
        {**_physicality(inertial), "joint": _joint_defect(inertial_states)},
        *routes.values(),
        *map(_range_figures, Scenario),
        _line_figures(),
    ]
    worst: dict[str, float] = {}
    for figure in figures:
        for key, value in figure.items():
            worst[key] = max(worst.get(key, 0.0), value)
    grid_size = len(GRID_P) * len(GRID_R) * len(GRID_PHI)

    report = VerificationReport()
    for scenario, figure in routes.items():
        deviation = figure["closed_vs_oracle"]
        report.checks.append(CheckResult(
            f"closed_vs_oracle[{scenario.value}]", deviation < 1e-12, deviation,
            f"{grid_size} grid points in {figure['seconds']:.3f}s",
        ))
    report.checks += [
        _check_as_printed(),
        CheckResult("physicality[trace]", worst["trace"] < TRACE_ATOL, worst["trace"]),
        CheckResult(
            "physicality[hermiticity]", worst["hermiticity"] < HERMITICITY_ATOL, worst["hermiticity"]
        ),
        CheckResult(
            "physicality[eigenvalue-floor]", worst["eigenvalue"] < -PSD_EIGENVALUE_FLOOR, worst["eigenvalue"],
            "magnitude of most negative eigenvalue",
        ),
        CheckResult("r_zero_reduction", worst["r_zero"] < 1e-14, worst["r_zero"]),
        CheckResult("phi_independence", worst["phi"] < 1e-14, worst["phi"]),
        CheckResult(
            "decoherence_closed_form", worst["decoherence"] < 1e-12, worst["decoherence"],
            "11 p values, three closed forms; p=0 purity; grid range bounds",
        ),
        CheckResult("lqu_anchors", worst["lqu"] < LQU_ATOL, worst["lqu"], "anchors and [0, 1] range"),
        CheckResult(
            "joint_normalization", worst["joint"] < PROB_ATOL, worst["joint"], "3 settings x 4 scenarios"
        ),
        CheckResult(
            "steerability_range", worst["steering"] <= 0.0, worst["steering"], "both conventions"
        ),
        CheckResult(
            "closed_form_anchor_relation", worst["anchor"] < 1e-9, worst["anchor"],
            f"exact at p in {{0, 0.5}}; known closed-form offset up to {worst['offset']:.3f} "
            "at intermediate p, shared by both directions on the inertial line",
        ),
        *_check_figure_trends(),
    ]
    return report
