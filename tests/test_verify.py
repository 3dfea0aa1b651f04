import dataclasses

import pytest

from unruh_steering import sweep, verify
from unruh_steering.verify import run_verify

CHECK_NAMES = [
    "closed_vs_oracle[qubit]",
    "closed_vs_oracle[qutrit]",
    "closed_vs_oracle[both]",
    "as_printed_both_discrepancy",
    "physicality[trace]",
    "physicality[hermiticity]",
    "physicality[eigenvalue-floor]",
    "r_zero_reduction",
    "phi_independence",
    "decoherence_closed_form",
    "lqu_anchors",
    "joint_normalization",
    "steerability_range",
    "closed_form_anchor_relation",
    "figure_matching_identification",
    "figure_trends[as-printed]",
]


def test_the_sixteen_checks_in_order_all_pass():
    report = run_verify()
    assert [check.name for check in report.checks] == CHECK_NAMES
    assert [check.name for check in report.checks if not check.passed] == []
    assert report.lines()[-1] == "verification passed (16 checks)"


def _reversed_field(kernel, name):
    """``kernel`` with the members of one output field in reverse order."""
    def mutated(matrices):
        report = kernel(matrices)
        return dataclasses.replace(report, **{name: getattr(report, name)[::-1]})
    return mutated


@pytest.mark.parametrize(
    ("kernel", "field", "check"),
    [
        ("lqu_stack", "value", "lqu_anchors"),
        ("decoherence_stack", "d_qutrit", "decoherence_closed_form"),
    ],
)
def test_a_stacked_kernel_that_misorders_its_members_fails_verify(monkeypatch, kernel, field, check):
    monkeypatch.setattr(sweep, kernel, _reversed_field(getattr(sweep, kernel), field))
    report = run_verify()
    assert not report.ok
    assert not next(result for result in report.checks if result.name == check).passed


def test_each_route_state_is_built_once(monkeypatch):
    calls = {"accelerate_oracle": 0, "accelerate_closed": 0}

    def counting(name):
        route = getattr(verify, name)

        def wrapper(params):
            calls[name] += 1
            return route(params)
        return wrapper

    for name in calls:
        monkeypatch.setattr(verify, name, counting(name))
    assert run_verify().ok
    # 3 scenarios x 5 p x 9 r x 3 phi oracle states plus the 225 of the
    # as-printed table check; one closed state per scenario and (p, r).
    assert calls == {"accelerate_oracle": 630, "accelerate_closed": 135}
