import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unruh_steering.model import (
    BASIS_8,
    ModelParams,
    PAIR,
    R_MAX,
    RegionIState,
    Scenario,
    accelerate_closed,
    accelerate_oracle,
    as_printed_both_matrix,
    initial_state,
    reduce_qubit,
    reduce_qutrit,
)

GRID_P = (0.0, 0.1, 0.25, 0.4, 0.5)
GRID_R = tuple(np.linspace(0.0, R_MAX, 9))
GRID_PHI = (0.0, 0.7, 2.1)


def assert_none_gives_initial_state(route):
    """Scenario ``none`` ignores r_q, r_t and phi and gives the inertial state exactly."""
    points = ((0.0, 0.0, 0.0, 0.0), (0.1, 0.3, 0.7, 2.1), (0.37, R_MAX, 0.05, -40.0), (0.5, 0.6, R_MAX, 1e6))
    for p, r_q, r_t, phi in points:
        state = route(ModelParams(p, r_q, r_t, phi, Scenario.NONE))
        assert np.array_equal(state.matrix, initial_state(p).matrix)


def params_for(scenario, p, r, phi=0.0):
    return ModelParams(
        p=p,
        r_q=r if scenario in (Scenario.QUBIT, Scenario.BOTH) else 0.0,
        r_t=r if scenario in (Scenario.QUTRIT, Scenario.BOTH) else 0.0,
        phi=phi,
        scenario=scenario,
    )


def printed_qubit_table(p, r):
    """The printed element table of the singly accelerated qubit, as a
    labeled-order matrix: the reference for the closed route, which builds
    this state as the qubit channel applied to the inertial elements."""
    c, s = math.cos(r), math.sin(r)
    hp = p / 2.0
    hr = (1.0 - 2.0 * p) / 2.0
    m = np.zeros((8, 8), dtype=complex)
    m[np.arange(8), np.arange(8)] = [
        hp * c * c,
        hp * c * c,
        hr * c * c,
        hp * s * s + hr,
        hp * (s * s + 1.0),
        hr * s * s + hp,
        0.0,
        0.0,
    ]
    m[0, 5] = m[5, 0] = hp * c
    m[2, 3] = m[3, 2] = hr * c
    return m


class TestModelParams:
    @pytest.mark.parametrize("p", [-0.01, 0.51, 1.0])
    def test_p_out_of_range(self, p):
        with pytest.raises(ValueError, match="outside"):
            ModelParams(p=p)

    @pytest.mark.parametrize("kwargs", [{"r_q": -0.1}, {"r_t": R_MAX + 0.01}])
    def test_r_out_of_range(self, kwargs):
        with pytest.raises(ValueError, match="outside"):
            ModelParams(p=0.1, **kwargs)

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_non_finite_phi(self, scenario, phi):
        with pytest.raises(ValueError, match="is not finite"):
            ModelParams(p=0.1, r_q=0.4, r_t=0.4, phi=phi, scenario=scenario)

    def test_defaults(self):
        params = ModelParams(p=0.2)
        assert params.scenario is Scenario.NONE
        assert params.phi == 0.0

    @pytest.mark.parametrize(
        "scenario, r_q, r_t",
        [
            (Scenario.NONE, 0.0, 0.0),
            (Scenario.QUBIT, 0.4, 0.0),
            (Scenario.QUTRIT, 0.0, 0.4),
            (Scenario.BOTH, 0.4, 0.4),
        ],
    )
    def test_for_scenario_places_r(self, scenario, r_q, r_t):
        assert ModelParams.for_scenario(scenario, 0.1, 0.4, phi=0.7) == ModelParams(
            p=0.1, r_q=r_q, r_t=r_t, phi=0.7, scenario=scenario
        )


class TestInitialState:
    def test_p_zero_is_the_bell_like_pure_state(self):
        state = initial_state(0.0)
        psi = np.zeros(8, dtype=complex)
        psi[2] = psi[3] = 1 / np.sqrt(2)  # (|02> + |10>)/sqrt(2)
        assert np.abs(state.matrix - np.outer(psi, psi.conj())).max() < 1e-15
        purity = np.trace(state.matrix @ state.matrix).real
        assert purity == pytest.approx(1.0, abs=1e-12)

    def test_p_half_structure(self):
        m = initial_state(0.5).matrix
        assert np.allclose(m.diagonal(), [0.25, 0.25, 0, 0, 0.25, 0.25, 0, 0])
        assert m[0, 5] == pytest.approx(0.25)
        assert m[2, 3] == pytest.approx(0.0)

    def test_p_tenth_explicit_entries(self):
        m = initial_state(0.1).matrix
        assert np.allclose(m.diagonal().real, [0.05, 0.05, 0.4, 0.4, 0.05, 0.05, 0, 0])
        assert m[0, 5] == pytest.approx(0.05)
        assert m[2, 3] == pytest.approx(0.4)
        nonzero = np.count_nonzero(np.abs(m) > 1e-15)
        assert nonzero == 10  # six populations plus two symmetric coherences
        assert m.trace() == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("p", [-0.2, 0.6])
    def test_rejects_out_of_range_p(self, p):
        with pytest.raises(ValueError, match="outside"):
            initial_state(p)


class TestRegionIState:
    def test_element_by_label(self):
        state = initial_state(0.1)
        assert state.matrix[BASIS_8.index((0, 2)), BASIS_8.index((1, 0))] == pytest.approx(0.4)
        assert state.matrix[BASIS_8.index((0, 0)), BASIS_8.index((1, 2))] == pytest.approx(0.05)

    def test_pair_labels_read_zero_on_inertial_state(self):
        state = initial_state(0.1)
        assert state.matrix[BASIS_8.index((0, PAIR)), BASIS_8.index((0, PAIR))] == 0j
        assert state.matrix[BASIS_8.index((1, 1)), BASIS_8.index((0, PAIR))] == 0j

    def test_tensor_matrix_matches_labeled_entries(self):
        params = ModelParams(p=0.2, r_t=0.5, scenario=Scenario.QUTRIT)
        state = accelerate_closed(params)
        nat = state.tensor_matrix()
        # |1 pair><0 1| sits at natural (1*4+3, 0*4+1)
        assert nat[7, 1] == pytest.approx(state.matrix[BASIS_8.index((1, PAIR)), BASIS_8.index((0, 1))])
        # |0 2><1 0| sits at natural (2, 4)
        assert nat[2, 4] == pytest.approx(state.matrix[BASIS_8.index((0, 2)), BASIS_8.index((1, 0))])
        assert nat.trace() == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize(
        "make_state",
        [
            lambda: initial_state(0.2),
            lambda: accelerate_closed(ModelParams(p=0.2, r_t=0.5, scenario=Scenario.QUTRIT)),
        ],
        ids=["inertial", "accelerated"],
    )
    def test_tensor_matrix_is_read_only_and_built_once(self, make_state):
        state = make_state()
        nat = state.tensor_matrix()
        assert nat is state.tensor_matrix()
        assert not nat.flags.writeable
        with pytest.raises(ValueError):
            nat[0, 0] = 1.0

    def test_inertial_state_has_empty_pair_levels(self):
        m = initial_state(0.3).matrix
        assert m.shape == (8, 8)
        assert np.abs(m[6:, :]).max() == 0.0
        assert np.abs(m[:, 6:]).max() == 0.0

    def test_rejects_unnormalized_matrix(self):
        with pytest.raises(ValueError, match="trace"):
            RegionIState(np.eye(8))

    def test_rejects_non_hermitian(self):
        m = np.diag([1.0, 0, 0, 0, 0, 0, 0, 0]).astype(complex)
        m[0, 1] = 0.1
        with pytest.raises(ValueError, match="Hermitian"):
            RegionIState(m)

    @pytest.mark.parametrize("cell", [(1, 1), (0, 5), (5, 0)])
    def test_rejects_nan(self, cell):
        m = initial_state(0.1).matrix.copy()
        m[cell] = math.nan
        with pytest.raises(ValueError, match="Hermitian"):
            RegionIState(m)

    def test_rejects_negative_state(self):
        m = np.diag([1.5, -0.5, 0, 0, 0, 0, 0, 0]).astype(complex)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            RegionIState(m)

    def test_rejects_mismatched_basis(self):
        with pytest.raises(ValueError, match="basis"):
            RegionIState(np.eye(6) / 6)


class TestAccelerateClosed:
    def test_qubit_only_p0_at_max_acceleration(self):
        state = accelerate_closed(ModelParams(p=0.0, r_q=R_MAX, scenario=Scenario.QUBIT))
        assert np.allclose(state.matrix.diagonal().real, [0, 0, 0.25, 0.5, 0, 0.25, 0, 0], atol=1e-15)
        assert state.matrix[2, 3] == pytest.approx(math.sqrt(2) / 4, abs=1e-15)

    @pytest.mark.parametrize("scenario", [Scenario.QUBIT, Scenario.QUTRIT, Scenario.BOTH])
    def test_r_zero_embeds_initial_state(self, scenario):
        for p in GRID_P:
            state = accelerate_closed(params_for(scenario, p, 0.0))
            expected = initial_state(p).matrix
            assert np.abs(state.matrix - expected).max() < 1e-14

    def test_qutrit_only_pair_population(self):
        state = accelerate_closed(ModelParams(p=0.1, r_t=R_MAX, scenario=Scenario.QUTRIT))
        assert state.matrix[6, 6].real == pytest.approx(0.2375, abs=1e-12)

    def test_qubit_only_pair_rows_zero(self):
        state = accelerate_closed(ModelParams(p=0.3, r_q=0.6, scenario=Scenario.QUBIT))
        assert np.abs(state.matrix[6:, :]).max() == 0.0
        assert np.abs(state.matrix[:, 6:]).max() == 0.0

    def test_scenario_none_is_the_identity_channel(self):
        assert_none_gives_initial_state(accelerate_closed)

    @settings(max_examples=200, deadline=None)
    @given(p=st.floats(0.0, 0.5), r=st.floats(0.0, R_MAX))
    def test_qubit_state_matches_the_printed_table(self, p, r):
        state = accelerate_closed(ModelParams.for_scenario(Scenario.QUBIT, p, r))
        assert np.abs(state.matrix - printed_qubit_table(p, r)).max() <= 1e-15

    @settings(max_examples=100, deadline=None)
    @given(p=st.floats(0.0, 0.5))
    def test_qubit_state_is_the_printed_table_at_r_zero(self, p):
        state = accelerate_closed(ModelParams.for_scenario(Scenario.QUBIT, p, 0.0))
        assert np.array_equal(state.matrix, printed_qubit_table(p, 0.0))


class TestAccelerateOracle:
    @pytest.mark.parametrize("scenario", [Scenario.QUBIT, Scenario.QUTRIT, Scenario.BOTH])
    def test_r_zero_is_identity_channel(self, scenario):
        for p in GRID_P:
            state = accelerate_oracle(params_for(scenario, p, 0.0, phi=1.3))
            expected = initial_state(p).matrix
            assert np.abs(state.matrix - expected).max() < 1e-14

    @pytest.mark.parametrize("scenario", [Scenario.QUTRIT, Scenario.BOTH])
    def test_phi_independence(self, scenario):
        base = accelerate_oracle(params_for(scenario, 0.1, 0.5, phi=0.0)).matrix
        for phi in (0.7, 2.1):
            other = accelerate_oracle(params_for(scenario, 0.1, 0.5, phi=phi)).matrix
            assert np.abs(base - other).max() < 1e-14

    @pytest.mark.parametrize("scenario", [Scenario.QUBIT, Scenario.QUTRIT])
    def test_matches_closed_form_on_grid(self, scenario):
        worst = 0.0
        for p in GRID_P:
            for r in GRID_R:
                for phi in GRID_PHI:
                    params = params_for(scenario, p, r, phi)
                    dev = np.abs(accelerate_closed(params).matrix - accelerate_oracle(params).matrix).max()
                    worst = max(worst, dev)
        assert worst < 1e-12

    def test_both_matches_sequential_composition(self):
        params = ModelParams(p=0.25, r_q=0.6, r_t=0.6, scenario=Scenario.BOTH)
        assert np.abs(accelerate_closed(params).matrix - accelerate_oracle(params).matrix).max() < 1e-12

    def test_both_with_independent_accelerations(self):
        params = ModelParams(p=0.2, r_q=0.3, r_t=0.7, scenario=Scenario.BOTH)
        assert np.abs(accelerate_closed(params).matrix - accelerate_oracle(params).matrix).max() < 1e-12

    def test_scenario_none_is_the_identity_channel(self):
        assert_none_gives_initial_state(accelerate_oracle)

    def test_distinct_phases_hold_no_memory(self):
        accelerate_oracle(ModelParams(p=0.1, r_q=0.3, r_t=0.4, scenario=Scenario.BOTH))
        tracemalloc.start()
        try:
            gc.collect()  # a full collection also empties the interpreter's free lists
            before = tracemalloc.get_traced_memory()[0]
            for k in range(2000):
                accelerate_oracle(ModelParams(p=0.1, r_q=0.3, r_t=0.4, phi=1e-3 * k, scenario=Scenario.BOTH))
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 200_000

    @pytest.mark.parametrize("scenario", [Scenario.QUBIT, Scenario.QUTRIT, Scenario.BOTH])
    def test_physicality_on_grid(self, scenario):
        for p in GRID_P:
            for r in GRID_R:
                state = accelerate_oracle(params_for(scenario, p, r, phi=0.7))
                m = state.matrix
                assert abs(m.trace() - 1.0) < 1e-12
                assert np.abs(m - m.conj().T).max() < 1e-12
                assert np.linalg.eigvalsh(m).min() > -1e-10


class TestAsPrintedBoth:
    def test_discrepancy_localized_to_10_population(self):
        params = ModelParams(p=0.1, r_q=0.5, r_t=0.5, scenario=Scenario.BOTH)
        printed = as_printed_both_matrix(params)
        oracle = accelerate_oracle(params).matrix
        diff = np.abs(printed - oracle)
        assert diff[3, 3] > 1e-3  # the misplaced |11> population
        off = diff.copy()
        off[3, 3] = 0.0
        assert off.max() < 1e-12
        assert abs(printed.trace().real - 1.0) == pytest.approx(diff[3, 3], abs=1e-12)

    def test_only_defined_for_both(self):
        with pytest.raises(ValueError, match="doubly accelerated"):
            as_printed_both_matrix(ModelParams(p=0.1, r_q=0.5, scenario=Scenario.QUBIT))


class TestReductions:
    def test_initial_qubit_marginal_is_maximally_mixed(self):
        for p in GRID_P:
            assert np.allclose(reduce_qubit(initial_state(p)), np.eye(2) / 2, atol=1e-14)

    def test_initial_qutrit_marginal(self):
        p = 0.2
        expected = np.diag([(1 - p) / 2, p, (1 - p) / 2, 0.0])
        assert np.allclose(reduce_qutrit(initial_state(p)), expected, atol=1e-14)
        assert np.allclose(reduce_qutrit(initial_state(0.0)), np.diag([0.5, 0.0, 0.5, 0.0]), atol=1e-14)

    def test_accelerated_qubit_marginal(self):
        state = accelerate_closed(ModelParams(p=0.0, r_q=R_MAX, scenario=Scenario.QUBIT))
        assert np.allclose(reduce_qubit(state), np.diag([0.25, 0.75]), atol=1e-14)

    def test_marginals_have_unit_trace(self):
        state = accelerate_closed(ModelParams(p=0.3, r_q=0.4, r_t=0.2, scenario=Scenario.BOTH))
        assert reduce_qubit(state).trace() == pytest.approx(1.0, abs=1e-13)
        assert reduce_qutrit(state).trace() == pytest.approx(1.0, abs=1e-13)
        assert reduce_qutrit(state).shape == (4, 4)
