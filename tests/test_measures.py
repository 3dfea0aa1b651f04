import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unruh_steering import measures
from unruh_steering.linalg import psd_sqrt
from unruh_steering.measures import (
    Convention,
    Direction,
    JointDistribution,
    LquReport,
    Observable,
    _entropy_bits,
    conditional_entropy,
    decoherence_triple,
    joint_distribution,
    linear_entropy,
    lqu,
    standard_observables,
    steering_closed,
    steering_degrees,
    steering_report,
    steering_sum_oracle,
)
from unruh_steering.model import (
    ModelParams,
    PAIR,
    R_MAX,
    RegionIState,
    Scenario,
    _NATURAL_OF_SLOT,
    _SLOT_OF_NATURAL,
    accelerate_closed,
    initial_state,
    tensor_order,
)


def maximally_mixed_6():
    """Maximally mixed over the six inertial levels, pair levels empty."""
    return RegionIState(np.diag([1.0] * 6 + [0.0] * 2) / 6)


def scenario_state(scenario, p, r, phi=0.0):
    """The closed-route state of one point; the inertial state for ``none``."""
    return accelerate_closed(ModelParams.for_scenario(scenario, p, r, phi))


def grid_states():
    yield initial_state(0.0)
    yield initial_state(0.3)
    for scenario in (Scenario.QUBIT, Scenario.QUTRIT, Scenario.BOTH):
        for p in (0.0, 0.1, 0.4):
            for r in (0.2, R_MAX):
                yield accelerate_closed(
                    ModelParams(
                        p=p,
                        r_q=r if scenario is not Scenario.QUTRIT else 0.0,
                        r_t=r if scenario is not Scenario.QUBIT else 0.0,
                        scenario=scenario,
                    )
                )


class TestLinearEntropy:
    def test_pure_state_is_zero(self):
        v = np.array([1.0, 1j]) / np.sqrt(2)
        assert linear_entropy(np.outer(v, v.conj())) == pytest.approx(0.0, abs=1e-15)

    def test_maximally_mixed_qubit(self):
        assert linear_entropy(np.eye(2) / 2) == pytest.approx(0.5, abs=1e-15)

    def test_initial_state_closed_form(self):
        state = initial_state(0.1)
        assert linear_entropy(state.matrix) == pytest.approx(0.345, abs=1e-12)
        # brute-force purity as the independent oracle
        purity = np.trace(np.asarray(state.matrix) @ np.asarray(state.matrix)).real
        assert linear_entropy(state.matrix) == pytest.approx(1 - purity, abs=1e-15)

    def test_rejects_unnormalized_input(self):
        with pytest.raises(ValueError, match="trace"):
            linear_entropy(np.eye(2))

    @pytest.mark.parametrize("cell", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
    def test_rejects_nan(self, cell):
        m = np.eye(2, dtype=complex) / 2
        m[cell] = math.nan
        with pytest.raises(ValueError, match="non-finite"):
            linear_entropy(m)


class TestDecoherenceTriple:
    def test_pure_initial_state(self):
        report = decoherence_triple(initial_state(0.0))
        assert report.d_total == pytest.approx(0.0, abs=1e-12)
        assert report.d_qubit == pytest.approx(0.5, abs=1e-12)
        assert report.d_qutrit == pytest.approx(0.5, abs=1e-12)

    def test_qutrit_marginal_value(self):
        report = decoherence_triple(initial_state(0.1))
        assert report.d_qutrit == pytest.approx(0.585, abs=1e-12)

    def test_qubit_marginal_flat_in_p(self):
        for p in np.linspace(0.0, 0.5, 11):
            assert decoherence_triple(initial_state(float(p))).d_qubit == pytest.approx(0.5, abs=1e-12)

    def test_total_closed_form_in_p(self):
        for p in np.linspace(0.0, 0.5, 11):
            expected = 1.0 - 1.5 * p * p - (1 - 2 * p) ** 2
            assert decoherence_triple(initial_state(float(p))).d_total == pytest.approx(expected, abs=1e-12)


class TestLqu:
    def test_maximally_mixed_is_uncorrelated(self):
        report = lqu(maximally_mixed_6())
        assert np.allclose(report.xi, np.eye(3), atol=1e-12)
        assert report.value == pytest.approx(0.0, abs=1e-10)

    def test_maximally_entangled_initial_state(self):
        assert lqu(initial_state(0.0)).value == pytest.approx(1.0, abs=1e-10)

    def test_product_state_with_pure_qubit(self):
        # |0><0| x diag(0.5, 0.3, 0.2, 0) in the labeled order
        rho = np.diag([0.5, 0.3, 0.2, 0.0, 0.0, 0.0, 0.0, 0.0])
        assert lqu(RegionIState(rho)).value == pytest.approx(0.0, abs=1e-10)

    def test_xi_symmetric_and_value_in_range(self):
        for state in grid_states():
            report = lqu(state)
            assert np.abs(report.xi - report.xi.T).max() < 1e-10
            assert -1e-10 <= report.value <= 1.0 + 1e-10
            assert report.gammas[0] >= report.gammas[1] >= report.gammas[2]

    def test_invariant_under_qutrit_local_unitary(self):
        rng = np.random.default_rng(31)
        state = accelerate_closed(ModelParams(p=0.1, r_t=0.5, scenario=Scenario.QUTRIT))
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = (h + h.conj().T) / 2
        w, v = np.linalg.eigh(h)
        u = v @ np.diag(np.exp(1j * w)) @ v.conj().T
        rotated = np.kron(np.eye(2), u) @ state.tensor_matrix() @ np.kron(np.eye(2), u).conj().T
        base = lqu(state).value
        # rotate in the natural order, then undo the label permutation for construction
        idx = np.asarray(_NATURAL_OF_SLOT)
        rotated_state = RegionIState(rotated[np.ix_(idx, idx)])
        assert lqu(rotated_state).value == pytest.approx(base, abs=1e-10)


class TestStandardObservables:
    def test_qubit_x_eigenvectors(self):
        sx = standard_observables("qubit")[0]
        assert sx.outcomes == (1.0, -1.0)
        plus = np.array([1, 1]) / np.sqrt(2)
        assert np.allclose(sx.projectors[0] @ plus, plus, atol=1e-14)
        assert np.allclose(sx.matrix @ plus, plus, atol=1e-14)

    def test_qutrit_x_spectrum(self):
        sx = standard_observables("qutrit")[0]
        assert sx.outcomes == (1.0, 0.0, -1.0)
        w_plus = np.array([0, 1, 1j]) / np.sqrt(2)
        assert np.allclose(sx.matrix @ w_plus, w_plus, atol=1e-14)
        zero_vec = np.array([1, 0, 0], dtype=complex)
        assert np.allclose(sx.projectors[1] @ zero_vec, zero_vec, atol=1e-14)

    def test_extended_z_zero_projector_contains_pair(self):
        sz = standard_observables("extended_qutrit")[2]
        expected = np.zeros((4, 4), dtype=complex)
        expected[2, 2] = expected[PAIR, PAIR] = 1.0
        assert np.allclose(sz.projectors[1], expected, atol=1e-14)

    @pytest.mark.parametrize("space", ["qubit", "qutrit", "extended_qutrit"])
    def test_spectral_reconstruction(self, space):
        for obs in standard_observables(space):
            recon = sum(out * proj for out, proj in obs.spectrum)
            assert np.abs(recon - obs.matrix).max() < 1e-14
            complete = sum(obs.projectors)
            assert np.allclose(complete, np.eye(obs.dim), atol=1e-14)

    def test_unknown_space_rejected(self):
        with pytest.raises(ValueError, match="unknown observable space"):
            standard_observables("ququart")

    def test_observable_validation_rejects_bad_projectors(self):
        with pytest.raises(ValueError, match="idempotent"):
            Observable("bad", np.eye(2), ((1.0, np.full((2, 2), 0.7)), (0.0, np.zeros((2, 2)))))


class TestJointDistribution:
    def test_hand_computed_sz_table(self):
        state = initial_state(0.0)
        obs_a = standard_observables("qubit")[2]
        obs_b = standard_observables("extended_qutrit")[2]
        joint = joint_distribution(state, obs_a, obs_b)
        expected = np.array([[0.0, 0.5, 0.0], [0.25, 0.0, 0.25]])
        assert np.abs(joint.probs - expected).max() < 1e-14

    def test_maximally_mixed_weights_by_rank(self):
        state = maximally_mixed_6()
        for obs_a in standard_observables("qubit"):
            for obs_b in standard_observables("extended_qutrit"):
                joint = joint_distribution(state, obs_a, obs_b)
                # the pair level is empty, so only the qutrit block of P_b carries weight
                expected = np.array(
                    [
                        [np.trace(pa).real * np.trace(pb[:3, :3]).real / 6 for pb in obs_b.projectors]
                        for pa in obs_a.projectors
                    ]
                )
                assert np.abs(joint.probs - expected).max() < 1e-14

    def test_normalization_and_marginal_consistency(self):
        for state in grid_states():
            for obs_a, obs_b in zip(standard_observables("qubit"), standard_observables("extended_qutrit")):
                joint = joint_distribution(state, obs_a, obs_b)
                assert joint.probs.sum() == pytest.approx(1.0, abs=1e-12)
                rho = state.tensor_matrix()
                eye_b = np.eye(obs_b.dim)
                for i, pa in enumerate(obs_a.projectors):
                    independent = np.trace(rho @ np.kron(pa, eye_b)).real
                    assert joint.probs.sum(axis=1)[i] == pytest.approx(independent, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        state = initial_state(0.2)
        obs_a = standard_observables("qubit")[0]
        obs_b = standard_observables("qutrit")[0]  # 3-dim, the state's qutrit factor has 4
        with pytest.raises(ValueError, match="do not match"):
            joint_distribution(state, obs_a, obs_b)

    def test_distribution_invariants(self):
        with pytest.raises(ValueError, match="sum"):
            JointDistribution((1.0, -1.0), (1.0, -1.0), np.full((2, 2), 0.3))
        with pytest.raises(ValueError, match="negative"):
            JointDistribution((1.0, -1.0), (1.0, -1.0), np.array([[0.6, 0.5], [-0.1, 0.0]]))

    def test_nan_cell_rejected(self):
        with pytest.raises(ValueError, match="probabilities sum to"):
            JointDistribution((1.0, -1.0), (1.0, 0.0, -1.0), [[0.5, 0.5, 0.0], [0.0, 0.0, math.nan]])


class TestConditionalEntropy:
    def test_hand_derived_half_bit(self):
        state = initial_state(0.0)
        joint = joint_distribution(
            state, standard_observables("qubit")[2], standard_observables("extended_qutrit")[2]
        )
        assert conditional_entropy(joint) == pytest.approx(0.5, abs=1e-12)

    def test_perfect_correlation_is_zero(self):
        joint = JointDistribution((1.0, -1.0), (1.0, -1.0), np.diag([0.5, 0.5]))
        assert conditional_entropy(joint) == pytest.approx(0.0, abs=1e-15)

    def test_independent_uniform_is_one_bit(self):
        joint = JointDistribution((1.0, -1.0), (1.0, -1.0), np.full((2, 2), 0.25))
        assert conditional_entropy(joint) == pytest.approx(1.0, abs=1e-15)

    def test_b_to_a_conditions_on_b(self):
        # A is a deterministic function of B, not the other way round
        joint = JointDistribution((1.0, -1.0), (1.0, 0.0, -1.0), [[0.25, 0.25, 0.0], [0.0, 0.0, 0.5]])
        assert conditional_entropy(joint, Direction.A_TO_B) == pytest.approx(0.5, abs=1e-15)
        assert conditional_entropy(joint, Direction.B_TO_A) == pytest.approx(0.0, abs=1e-15)


class TestSteeringSums:
    def test_maximally_mixed_reduces_to_marginal_entropies(self):
        state = maximally_mixed_6()
        total = steering_sum_oracle(state, Direction.A_TO_B)
        marginal_sum = 0.0
        for obs_b in standard_observables("extended_qutrit"):
            joint = joint_distribution(state, standard_observables("qubit")[0], obs_b)
            marginal_sum += _entropy_bits(joint.probs.sum(axis=0))
        assert total == pytest.approx(marginal_sum, abs=1e-12)
        assert total == pytest.approx(3 * math.log2(3), abs=1e-12)

    def test_directions_differ_by_marginal_entropies(self):
        # H(B|A) - H(A|B) = H(B) - H(A) for each of the three settings
        accelerated = accelerate_closed(ModelParams.for_scenario(Scenario.BOTH, 0.2, 0.5))
        for state in (initial_state(0.2), accelerated):
            marginal_gap = 0.0
            for obs_a, obs_b in zip(standard_observables("qubit"), standard_observables("extended_qutrit")):
                joint = joint_distribution(state, obs_a, obs_b)
                marginal_gap += _entropy_bits(joint.probs.sum(axis=0)) - _entropy_bits(joint.probs.sum(axis=1))
            forward = steering_sum_oracle(state, Direction.A_TO_B)
            backward = steering_sum_oracle(state, Direction.B_TO_A)
            assert forward - backward == pytest.approx(marginal_gap, abs=1e-12)

    def test_pure_state_anchors(self):
        state = initial_state(0.0)
        assert steering_sum_oracle(state, Direction.A_TO_B) == pytest.approx(2.0, abs=1e-12)
        assert steering_sum_oracle(state, Direction.B_TO_A) == pytest.approx(1.0, abs=1e-12)

    def test_non_negative_on_grid(self):
        for state in grid_states():
            for direction in Direction:
                assert steering_sum_oracle(state, direction) >= -1e-12

    def test_inertial_state_is_the_r_zero_limit(self):
        for scenario in (Scenario.QUBIT, Scenario.QUTRIT, Scenario.BOTH):
            for p in (0.0, 0.2, 0.5):
                inertial = initial_state(p)
                at_rest = scenario_state(scenario, p, 0.0)
                for direction in Direction:
                    assert steering_sum_oracle(inertial, direction) == steering_sum_oracle(at_rest, direction)


class TestSteeringClosed:
    def test_pure_state_anchors(self):
        state = initial_state(0.0)
        assert steering_closed(state, Direction.A_TO_B) == pytest.approx(4.0, abs=1e-12)
        assert steering_closed(state, Direction.B_TO_A) == pytest.approx(3.0, abs=1e-12)

    def test_symmetric_points_match_oracle_complement(self):
        # the closed forms equal 6 - S_AB and 4 - S_BA exactly at p = 0 and p = 0.5
        for p in (0.0, 0.5):
            state = initial_state(p)
            assert steering_closed(state, Direction.A_TO_B) + steering_sum_oracle(
                state, Direction.A_TO_B
            ) == pytest.approx(6.0, abs=1e-9)
            assert steering_closed(state, Direction.B_TO_A) + steering_sum_oracle(
                state, Direction.B_TO_A
            ) == pytest.approx(4.0, abs=1e-9)

    def test_zero_coherence_merges_c_terms(self):
        # diagonal state: c+ = c- = 1 - b, their halves merge into one term
        diag = np.diag([0.2, 0.1, 0.2, 0.2, 0.1, 0.2, 0.0, 0.0]).astype(complex)
        state = RegionIState(diag)
        value = steering_closed(state, Direction.A_TO_B)

        def xlog(x, scale=1.0):
            return 0.0 if x <= 0 else x * math.log2(scale * x)

        merged = (
            xlog(0.6) + xlog(0.4) + xlog(0.2)
            + xlog(0.8)  # the two c-branches collapse to a single x log2 x
            + xlog(0.3, 32) + xlog(0.2, 32) + xlog(0.2, 32) + xlog(0.3, 32)
        )
        assert value == pytest.approx(merged, abs=1e-12)

    def test_all_diagonal_mixed_state_is_finite(self):
        state = RegionIState(np.eye(8).astype(complex) / 8)
        for direction in Direction:
            assert math.isfinite(steering_closed(state, direction))

    def test_inertial_state_is_the_r_zero_limit(self):
        for scenario in (Scenario.QUBIT, Scenario.QUTRIT, Scenario.BOTH):
            for p in (0.0, 0.15, 0.5):
                inertial = initial_state(p)
                at_rest = scenario_state(scenario, p, 0.0)
                for direction in Direction:
                    assert steering_closed(inertial, direction) == steering_closed(at_rest, direction)


class TestSteerability:
    def test_as_printed_arithmetic(self):
        # the closed forms feed the exchanged labels: steer_ab from i_ba, steer_ba from i_ab
        assert steering_degrees(3.5, 2.5, Convention.AS_PRINTED) == pytest.approx((0.5, 0.5))
        assert steering_degrees(2.9, 1.9, Convention.AS_PRINTED) == (0.0, 0.0)
        assert steering_degrees(5.0, 2.25, Convention.AS_PRINTED) == (0.25, 1.0)

    def test_deficit_arithmetic(self):
        assert steering_degrees(1.5, 0.0, Convention.DEFICIT_NORMALIZED) == pytest.approx((0.5, 1.0))
        assert steering_degrees(3.5, 2.5, Convention.DEFICIT_NORMALIZED) == (0.0, 0.0)

    def test_bounds_constants(self):
        # degree 0 at the classical bounds (3 for A -> B, 2 for B -> A) under both
        # conventions, and degree 1 at the printed maxima 4 and 3
        for convention in Convention:
            assert steering_degrees(3.0, 2.0, convention) == (0.0, 0.0)
        assert steering_degrees(4.0, 3.0, Convention.AS_PRINTED) == (1.0, 1.0)
        assert steering_degrees(0.0, 0.0, Convention.DEFICIT_NORMALIZED) == (1.0, 1.0)

    def test_range_on_grid_both_conventions(self):
        for state in grid_states():
            for convention in Convention:
                report = steering_report(state, convention)
                assert 0.0 <= report.steer_ab <= 1.0
                assert 0.0 <= report.steer_ba <= 1.0


class TestSteeringReport:
    def test_as_printed_uses_figure_matching_assignment(self):
        state = accelerate_closed(ModelParams(p=0.05, r_q=0.3, scenario=Scenario.QUBIT))
        report = steering_report(state)
        assert report.steer_ab == min(1.0, max(0.0, report.i_ba_closed - 2.0))
        assert report.steer_ba == min(1.0, max(0.0, report.i_ab_closed - 3.0))

    def test_deficit_uses_oracle_sums(self):
        state = initial_state(0.0)
        report = steering_report(state, Convention.DEFICIT_NORMALIZED)
        assert report.steer_ab == pytest.approx((3.0 - report.s_ab_oracle) / 3.0)
        assert report.steer_ba == pytest.approx((2.0 - report.s_ba_oracle) / 2.0)

    def test_degrees_exchange_labels_only_as_printed(self):
        assert steering_degrees(3.5, 2.25, Convention.AS_PRINTED) == (0.25, 0.5)
        assert steering_degrees(1.5, 0.5, Convention.DEFICIT_NORMALIZED) == (0.5, 0.75)

    def test_as_printed_report_builds_no_joint_tables(self, monkeypatch):
        def no_joint_tables(*args, **kwargs):
            raise AssertionError("joint table built for an as-printed value")

        state = accelerate_closed(ModelParams(p=0.05, r_t=0.3, scenario=Scenario.QUTRIT))
        monkeypatch.setattr(measures, "joint_distribution", no_joint_tables)
        report = steering_report(state, Convention.AS_PRINTED)
        assert (report.steer_ab, report.steer_ba) == steering_degrees(
            report.i_ab_closed, report.i_ba_closed, Convention.AS_PRINTED
        )
        assert report.i_ab_closed == steering_closed(state, Direction.A_TO_B)
        assert report.i_ba_closed == steering_closed(state, Direction.B_TO_A)

    def test_pure_state_saturates_as_printed_degrees(self):
        report = steering_report(initial_state(0.0))
        assert report.steer_ab == pytest.approx(1.0, abs=1e-12)
        assert report.steer_ba == pytest.approx(1.0, abs=1e-12)


# The per-cell np.kron loops that joint_distribution and lqu ran before they
# read precomputed operator stacks; kept as references for the bits.


def _reordered(state):
    idx = np.asarray(_SLOT_OF_NATURAL)
    return state.matrix[np.ix_(idx, idx)]


def _joint_reference(state, obs_a, obs_b):
    rho = _reordered(state)
    table = np.empty((len(obs_a.spectrum), len(obs_b.spectrum)), dtype=float)
    for i, (_, pa) in enumerate(obs_a.spectrum):
        for j, (_, pb) in enumerate(obs_b.spectrum):
            table[i, j] = np.trace(rho @ np.kron(pa, pb)).real
    return JointDistribution(obs_a.outcomes, obs_b.outcomes, table)


def _entropy_reference(probs):
    p = np.asarray(probs, dtype=float).ravel()
    p = p[p > measures.PROB_EPS]
    return float(-(p * np.log2(p)).sum())


def _steering_sum_reference(state, direction):
    """The measured sum from the kron-loop tables and numpy log2 entropies."""
    total = 0.0
    for obs_a, obs_b in zip(standard_observables("qubit"), standard_observables("extended_qutrit")):
        probs = _joint_reference(state, obs_a, obs_b).probs
        if direction is Direction.B_TO_A:
            probs = probs.T
        total += _entropy_reference(probs) - _entropy_reference(probs.sum(axis=1))
    return total


def _lqu_reference(state):
    root = psd_sqrt(_reordered(state))
    eye_n = np.eye(4, dtype=complex)
    paulis = (
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    )
    rotated = [root @ np.kron(sigma, eye_n) for sigma in paulis]
    xi = np.empty((3, 3), dtype=float)
    for i in range(3):
        for j in range(3):
            xi[i, j] = np.trace(rotated[i] @ rotated[j]).real
    xi = (xi + xi.T) / 2
    gammas = np.linalg.eigvalsh(xi)[::-1]
    value = max(0.0, float(1.0 - gammas[0]))
    return LquReport(xi=xi, gammas=tuple(float(g) for g in gammas), value=value)


def _qubit_rotated(state, theta, alpha, beta):
    """``state`` under the qubit unitary of angles (theta, alpha, beta):
    a state with coherences off the X shape."""
    c, s = math.cos(theta), math.sin(theta)
    u = np.array(
        [[c, -np.exp(1j * beta) * s], [np.exp(1j * alpha) * s, np.exp(1j * (alpha + beta)) * c]]
    )
    local = np.kron(u, np.eye(4))
    rotated = local @ state.tensor_matrix() @ local.conj().T
    idx = np.asarray(_NATURAL_OF_SLOT)
    return RegionIState(rotated[np.ix_(idx, idx)])


class TestKernelBitIdentity:
    angles = st.floats(0.0, 2 * math.pi)

    @settings(max_examples=60, deadline=None)
    @given(
        scenario=st.sampled_from(list(Scenario)),
        p=st.floats(0.0, 0.5),
        r=st.floats(0.0, R_MAX),
        phi=st.floats(-10.0, 10.0),
        rotation=st.none() | st.tuples(angles, angles, angles),
    )
    def test_joint_tables_and_lqu_equal_the_kron_loops(self, scenario, p, r, phi, rotation):
        state = scenario_state(scenario, p, r, phi)
        if rotation is not None:
            state = _qubit_rotated(state, *rotation)
        for obs_a, obs_b in zip(standard_observables("qubit"), standard_observables("extended_qutrit")):
            got = joint_distribution(state, obs_a, obs_b)
            # one matvec sums the 64 products in another order than the trace
            # of the kron loop, so the tables agree to rounding, not in bits
            assert np.abs(got.probs - _joint_reference(state, obs_a, obs_b).probs).max() <= 1e-15
        got, expected = lqu(state), _lqu_reference(state)
        assert np.array_equal(got.xi, expected.xi)
        assert got.gammas == expected.gammas
        assert got.value == expected.value

    def test_functional_rows_are_the_labeled_kron_entries(self):
        idx = np.asarray(_NATURAL_OF_SLOT)
        for obs_a in standard_observables("qubit"):
            for obs_b in standard_observables("extended_qutrit"):
                rows = measures._product_projectors(obs_a, obs_b)
                expected = [
                    np.kron(pa, pb)[np.ix_(idx, idx)].T.ravel() for pa in obs_a.projectors for pb in obs_b.projectors
                ]
                assert np.array_equal(rows, expected)


class TestMeasuredSums:
    angles = st.floats(0.0, 2 * math.pi)

    @settings(max_examples=80, deadline=None)
    @given(
        scenario=st.sampled_from(list(Scenario)),
        p=st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.5),
        r=st.floats(0.0, R_MAX),
        phi=st.floats(-10.0, 10.0),
        rotation=st.none() | st.tuples(angles, angles, angles),
    )
    def test_sums_equal_the_kron_loop_reference(self, scenario, p, r, phi, rotation):
        state = scenario_state(scenario, p, r, phi)
        if rotation is not None:
            state = _qubit_rotated(state, *rotation)
        for direction in Direction:
            assert abs(steering_sum_oracle(state, direction) - _steering_sum_reference(state, direction)) <= 1e-12
        three_dim = Observable("I_3", np.eye(3), ((1.0, np.eye(3)),))
        with pytest.raises(ValueError, match="do not match"):
            joint_distribution(state, standard_observables("qubit")[0], three_dim)


def _unvalidated(matrix):
    """A ``RegionIState`` over ``matrix`` that skips construction's checks."""
    state = object.__new__(RegionIState)
    object.__setattr__(state, "matrix", matrix)
    return state


class TestStackedKernels:
    angles = st.floats(0.0, 2 * math.pi)
    points = st.tuples(st.sampled_from(list(Scenario)), st.floats(0.0, 0.5), st.floats(0.0, R_MAX),
                       st.floats(-10.0, 10.0))

    @settings(max_examples=40, deadline=None)
    @given(
        points=st.lists(points, min_size=1, max_size=9),
        rotation=st.tuples(angles, angles, angles),
        at=st.integers(0, 12),
    )
    def test_stacked_values_equal_the_per_state_calls(self, points, rotation, at):
        _, p, r, phi = points[0]
        states = [scenario_state(scenario, p, r, phi) for scenario in Scenario]
        states += [scenario_state(*point) for point in points]
        states.insert(at % (len(states) + 1), _qubit_rotated(states[-1], *rotation))  # not an X state
        matrices = np.stack([state.matrix for state in states])
        stacked_lqu = measures.lqu_stack(matrices)
        stacked_triple = measures.decoherence_stack(matrices)
        for k, state in enumerate(states):
            one, triple = lqu(state), decoherence_triple(state)
            assert np.array_equal(stacked_lqu.xi[k], one.xi)
            assert np.array_equal(stacked_lqu.gammas[k], one.gammas)
            assert stacked_lqu.value[k] == one.value
            assert stacked_triple.d_total[k] == triple.d_total
            assert stacked_triple.d_qubit[k] == triple.d_qubit
            assert stacked_triple.d_qutrit[k] == triple.d_qutrit

    @pytest.mark.parametrize("at", [0, 2, 4])
    @pytest.mark.parametrize("defect", ["not-hermitian", "negative-eigenvalue"])
    def test_one_invalid_member_raises_the_per_state_error(self, defect, at):
        states = [scenario_state(scenario, 0.1, 0.4, 0.3) for scenario in Scenario]
        bad = states[1].matrix.copy()  # qubit scenario: the |0 pair> level is empty
        if defect == "not-hermitian":
            bad[0, 1] += 1e-6
        else:
            bad[0, 0] += 1e-6
            bad[6, 6] -= 1e-6
        matrices = np.insert(np.stack([state.matrix for state in states]), at, bad, axis=0)
        for per_state, stacked in (
            (lambda: lqu(_unvalidated(bad)), lambda: measures.lqu_stack(matrices)),
            (lambda: psd_sqrt(tensor_order(bad)), lambda: psd_sqrt(tensor_order(matrices))),
        ):
            with pytest.raises(ValueError) as expected:
                per_state()
            with pytest.raises(ValueError) as got:
                stacked()
            assert str(got.value) == str(expected.value)
            reason = "not Hermitian" if defect == "not-hermitian" else "not positive semidefinite"
            assert reason in str(got.value)

    @pytest.mark.parametrize("cell", [(1, 1), (0, 5)], ids=["diagonal", "off-diagonal"])
    def test_nan_member_raises(self, cell):
        matrices = np.stack([scenario_state(scenario, 0.2, 0.5).matrix for scenario in Scenario])
        matrices[2][cell] = math.nan
        with pytest.raises(ValueError, match="non-finite"):
            measures.decoherence_stack(matrices)

    def test_member_with_a_trace_defect_raises_the_per_state_error(self):
        states = [scenario_state(scenario, 0.2, 0.5) for scenario in Scenario]
        bad = states[3].matrix * (1.0 + 1e-6)
        matrices = np.insert(np.stack([state.matrix for state in states]), 2, bad, axis=0)
        with pytest.raises(ValueError, match="trace deviates") as expected:
            decoherence_triple(_unvalidated(bad))
        with pytest.raises(ValueError) as got:
            measures.decoherence_stack(matrices)
        assert str(got.value) == str(expected.value)
