"""Scalar quantities of the accelerated qubit-qutrit model.

Linear-entropy decoherence, local quantum uncertainty, joint measurement
statistics with their conditional entropies, entropic steering sums (both
the measurement-based route and the printed closed forms) and the
normalized steerability degrees.  All entropies are in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from .linalg import psd_sqrt
from .model import (
    BASIS_8, FACTOR_DIMS, PAIR, RegionIState, _labeled_order, reduce_qubit, reduce_qutrit, tensor_order,
)

PROB_EPS = 1e-15  # probabilities at or below this are treated as exact zeros
PROB_ATOL = 1e-12  # largest negative cell and normalization defect of a joint table
LQU_ATOL = 1e-10  # largest Xi asymmetry, and overshoot of its top eigenvalue past 1


class Direction(Enum):
    """Steering direction: A is the qubit, B the qutrit."""

    A_TO_B = "AtoB"
    B_TO_A = "BtoA"


class Convention(Enum):
    """How a steering value is normalized into a steerability degree.

    AS_PRINTED follows the printed formulas, which grow above the
    classical bound and are fed by the closed-form inequality values;
    DEFICIT_NORMALIZED measures how far the conditional-entropy sum drops
    below its bound.
    """

    AS_PRINTED = "as-printed"
    DEFICIT_NORMALIZED = "deficit"


@dataclass(frozen=True, eq=False)
class Observable:
    """Hermitian operator with explicit spectral projectors.

    ``spectrum`` pairs each real outcome with its projector; projectors
    must be orthogonal, idempotent and complete, and must reconstruct the
    matrix as sum(outcome * projector).  Instances compare and hash by
    identity, so operator stacks built from them can be cached.
    """

    name: str
    matrix: np.ndarray
    spectrum: tuple[tuple[float, np.ndarray], ...]

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        frozen = []
        for outcome, proj in self.spectrum:
            proj = np.array(proj, dtype=complex)
            proj.setflags(write=False)
            frozen.append((float(outcome), proj))
        object.__setattr__(self, "spectrum", tuple(frozen))

        d = m.shape[0]
        total = np.zeros((d, d), dtype=complex)
        recon = np.zeros((d, d), dtype=complex)
        for i, (outcome, proj) in enumerate(self.spectrum):
            if np.abs(proj @ proj - proj).max() > 1e-12:
                raise ValueError(f"{self.name}: projector {i} is not idempotent")
            for _, other in self.spectrum[i + 1:]:
                if np.abs(proj @ other).max() > 1e-12:
                    raise ValueError(f"{self.name}: projectors are not orthogonal")
            total += proj
            recon += outcome * proj
        if np.abs(total - np.eye(d)).max() > 1e-12:
            raise ValueError(f"{self.name}: projectors do not sum to identity")
        if np.abs(recon - m).max() > 1e-12:
            raise ValueError(f"{self.name}: spectrum does not reconstruct the matrix")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def projectors(self) -> tuple[np.ndarray, ...]:
        return tuple(proj for _, proj in self.spectrum)


def _proj(vec) -> np.ndarray:
    v = np.asarray(vec, dtype=complex)
    return np.outer(v, v.conj())


def _embed4(m3: np.ndarray) -> np.ndarray:
    m = np.zeros((4, 4), dtype=complex)
    m[:3, :3] = m3
    return m


@lru_cache(maxsize=None)
def standard_observables(space: str) -> tuple[Observable, Observable, Observable]:
    """The printed spin triple (S_x, S_y, S_z) for one side.

    ``space`` is ``"qubit"`` (outcomes +,-1), ``"qutrit"`` (outcomes
    +1, 0, -1) or ``"extended_qutrit"`` (the qutrit operators padded with
    a zero row/column so the pair state joins the outcome-0 eigenspace).
    """
    s2 = 1.0 / math.sqrt(2.0)
    if space == "qubit":
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
        sz = np.array([[1, 0], [0, -1]], dtype=complex)
        return (
            Observable("S_x", sx, ((1.0, _proj([s2, s2])), (-1.0, _proj([s2, -s2])))),
            Observable("S_y", sy, ((1.0, _proj([s2, 1j * s2])), (-1.0, _proj([s2, -1j * s2])))),
            Observable("S_z", sz, ((1.0, _proj([1, 0])), (-1.0, _proj([0, 1])))),
        )

    # qutrit operators as printed: antisymmetric generators with spectrum {+1, 0, -1}
    sx = np.zeros((3, 3), dtype=complex)
    sx[1, 2], sx[2, 1] = -1j, 1j
    sy = np.zeros((3, 3), dtype=complex)
    sy[0, 2], sy[2, 0] = 1j, -1j
    sz = np.zeros((3, 3), dtype=complex)
    sz[0, 1], sz[1, 0] = -1j, 1j
    eig = {
        "S_x": ((1.0, [0, s2, 1j * s2]), (0.0, [1, 0, 0]), (-1.0, [0, s2, -1j * s2])),
        "S_y": ((1.0, [s2, 0, -1j * s2]), (0.0, [0, 1, 0]), (-1.0, [s2, 0, 1j * s2])),
        "S_z": ((1.0, [s2, 1j * s2, 0]), (0.0, [0, 0, 1]), (-1.0, [s2, -1j * s2, 0])),
    }
    if space == "qutrit":
        return tuple(
            Observable(name, mat, tuple((out, _proj(vec)) for out, vec in eig[name]))
            for name, mat in (("S_x", sx), ("S_y", sy), ("S_z", sz))
        )
    if space == "extended_qutrit":
        pair_proj = np.zeros((4, 4), dtype=complex)
        pair_proj[PAIR, PAIR] = 1.0
        observables = []
        for name, mat in (("S_x", sx), ("S_y", sy), ("S_z", sz)):
            spectrum = []
            for out, vec in eig[name]:
                proj = _embed4(_proj(vec))
                if out == 0.0:
                    proj = proj + pair_proj
                spectrum.append((out, proj))
            observables.append(Observable(name, _embed4(mat), tuple(spectrum)))
        return tuple(observables)
    raise ValueError(f"unknown observable space {space!r}")


@dataclass(frozen=True)
class JointDistribution:
    """Probability table p(a, b): a row per outcome of A, a column per outcome of B."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        table = np.array(self.probs, dtype=float)
        if table.ndim != 2:
            raise ValueError(f"probability table shape {table.shape} is not two-dimensional")
        if table.min() < -PROB_ATOL:
            raise ValueError(f"negative probability {table.min():.3e}")
        table = np.maximum(table, 0.0)
        total = table.sum()
        if not abs(total - 1.0) <= PROB_ATOL:  # a NaN cell makes the total NaN
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        table.setflags(write=False)
        object.__setattr__(self, "probs", table)


def _entropy_bits(probs: list[float]) -> float:
    """Shannon entropy in bits of a flat list of probabilities; those at or
    below PROB_EPS count as exact zeros."""
    total = 0.0
    for x in probs:
        if x > PROB_EPS:
            total -= x * math.log2(x)
    return total


def _xlog2(x: float, scale: float = 1.0) -> float:
    """x * log2(scale * x) with the 0 log 0 = 0 convention."""
    if x <= PROB_EPS:
        return 0.0
    return x * math.log2(scale * x)


def linear_entropy(m):
    """1 - Tr(m^2) of a density matrix, clamped to [0, 1]; for an
    ``(N, d, d)`` stack, the ``(N,)`` array of its members' values."""
    a = np.asarray(m, dtype=complex)
    if not np.isfinite(a).all():
        raise ValueError("density matrix has a non-finite element")
    trace_defect = np.abs(a.trace(axis1=-2, axis2=-1) - 1.0).max()
    if trace_defect > 1e-9:
        raise ValueError(f"trace deviates from 1 by {trace_defect:.3e}")
    purity = (a @ a).trace(axis1=-2, axis2=-1).real
    # fmax/fmin pick as Python's max/min do for every value 1 - purity can take
    value = np.fmin(np.fmax(1.0 - purity, 0.0), 1.0)
    return value if a.ndim == 3 else float(value)


@dataclass(frozen=True)
class DecoherenceReport:
    """Linear-entropy decoherence of the total state and both marginals;
    ``(N,)`` arrays for a stack of states."""

    d_total: float
    d_qubit: float
    d_qutrit: float


def decoherence_stack(matrices: np.ndarray) -> DecoherenceReport:
    """The decoherence triple of each state of a labeled-order ``(N, 8, 8)``
    stack of region-I state matrices, one ``(N,)`` array per field."""
    return DecoherenceReport(
        d_total=linear_entropy(matrices),
        d_qubit=linear_entropy(reduce_qubit(matrices)),
        d_qutrit=linear_entropy(reduce_qutrit(matrices)),
    )


def decoherence_triple(state: RegionIState) -> DecoherenceReport:
    """Decoherence of the full state, the qubit marginal and the qutrit marginal."""
    stacked = decoherence_stack(state.matrix[None])
    return DecoherenceReport(
        d_total=float(stacked.d_total[0]),
        d_qubit=float(stacked.d_qubit[0]),
        d_qutrit=float(stacked.d_qutrit[0]),
    )


_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


@dataclass(frozen=True)
class LquReport:
    """Local quantum uncertainty: the correlation matrix, its eigenvalues
    (descending) and the value 1 - max eigenvalue.  A stack's report
    carries a leading stack axis on every field."""

    xi: np.ndarray
    gammas: tuple[float, float, float]
    value: float


@lru_cache(maxsize=None)
def _local_paulis() -> np.ndarray:
    """The natural-order (3, 8, 8) stack of S_i x I over the qubit Paulis."""
    eye = np.eye(FACTOR_DIMS[1], dtype=complex)
    stack = np.array([np.kron(sigma, eye) for sigma in _PAULI])
    stack.setflags(write=False)
    return stack


def lqu_stack(matrices: np.ndarray) -> LquReport:
    """Local quantum uncertainty of each state of a labeled-order
    ``(N, 8, 8)`` stack of region-I state matrices: ``xi`` is
    ``(N, 3, 3)``, ``gammas`` ``(N, 3)`` and ``value`` ``(N,)``.

    Builds the 3x3 matrix Xi with entries
    Tr[sqrt(rho) (S_i x I) sqrt(rho) (S_j x I)] over the qubit Paulis and
    takes 1 minus its largest eigenvalue.
    """
    root = psd_sqrt(tensor_order(matrices))
    # Batched matmuls and traces give the bits of the per-entry loop; an
    # einsum contraction sums in another order and does not.
    rotated = root[:, None] @ _local_paulis()
    xi = np.trace(rotated[:, :, None] @ rotated[:, None], axis1=3, axis2=4).real
    xi_t = xi.swapaxes(1, 2)
    asymmetry = float(np.abs(xi - xi_t).max())
    if asymmetry > LQU_ATOL:
        raise ValueError(f"correlation matrix asymmetry {asymmetry:.3e} exceeds tolerance")
    xi = (xi + xi_t) / 2
    gammas = np.linalg.eigvalsh(xi)[:, ::-1]
    value = 1.0 - gammas[:, 0]
    worst = int(value.argmin())
    if value[worst] < -LQU_ATOL:
        raise ValueError(f"largest eigenvalue {gammas[worst, 0]!r} exceeds 1 beyond tolerance")
    # fmax picks as Python's max(0, v) does for every value 1 - gamma can take
    return LquReport(xi=xi, gammas=gammas, value=np.fmax(value, 0.0))


def lqu(state: RegionIState) -> LquReport:
    """Local quantum uncertainty optimized over the qubit spin operators:
    the one-state case of :func:`lqu_stack`."""
    stacked = lqu_stack(state.matrix[None])
    return LquReport(
        xi=stacked.xi[0],
        gammas=tuple(float(g) for g in stacked.gammas[0]),
        value=float(stacked.value[0]),
    )


@lru_cache(maxsize=32)
def _product_projectors(obs_a: Observable, obs_b: Observable) -> np.ndarray:
    """The (n_a * n_b, 64) functionals p(a, b) on a flattened labeled-order
    state, outcome pairs in row-major order: each row is the transpose of
    P_a x P_b with its rows and columns permuted into the labeled order, so
    that Tr[rho (P_a x P_b)] is the row's dot product with the state."""
    kron = [np.kron(pa, pb).T for pa in obs_a.projectors for pb in obs_b.projectors]
    rows = _labeled_order(kron).reshape(len(kron), -1)
    rows.setflags(write=False)
    return rows


def joint_distribution(state: RegionIState, obs_a: Observable, obs_b: Observable) -> JointDistribution:
    """Outcome statistics p(a, b) = Tr[rho (P_a x P_b)] of a local pair."""
    dq, dt = FACTOR_DIMS
    if obs_a.dim != dq or obs_b.dim != dt:
        raise ValueError(
            f"observable dimensions ({obs_a.dim}, {obs_b.dim}) do not match state factors ({dq}, {dt})"
        )
    probs = (_product_projectors(obs_a, obs_b) @ state.matrix.ravel()).real
    return JointDistribution(probs.reshape(len(obs_a.spectrum), len(obs_b.spectrum)))


def conditional_entropy(joint: JointDistribution, direction: Direction = Direction.A_TO_B) -> float:
    """H(B|A) = H(joint) - H(A) in bits; H(A|B) for ``Direction.B_TO_A``."""
    rows = (joint.probs if direction is Direction.A_TO_B else joint.probs.T).tolist()
    return _entropy_bits([x for row in rows for x in row]) - _entropy_bits([sum(row) for row in rows])


def steering_sum_oracle(state: RegionIState, direction: Direction) -> float:
    """Sum of the three conditional entropies from measured joint statistics."""
    total = 0.0
    for obs_a, obs_b in zip(standard_observables("qubit"), standard_observables("extended_qutrit")):
        total += conditional_entropy(joint_distribution(state, obs_a, obs_b), direction)
    return total


# The labeled elements r11, r22, r33, r44, r55, r66, r16 and r34 of the
# closed forms, as (rows, cols) slot lists into the labeled matrix.
_CLOSED_FORM_LABELS = (
    ((0, 0), (0, 0)), ((0, 1), (0, 1)), ((0, 2), (0, 2)), ((1, 0), (1, 0)),
    ((1, 1), (1, 1)), ((1, 2), (1, 2)), ((0, 0), (1, 2)), ((0, 2), (1, 0)),
)
_CLOSED_FORM_SLOTS = (
    np.array([BASIS_8.index(row) for row, _ in _CLOSED_FORM_LABELS]),
    np.array([BASIS_8.index(col) for _, col in _CLOSED_FORM_LABELS]),
)


def steering_closed(state: RegionIState, direction: Direction) -> float:
    """The printed closed-form steering inequality value.

    Consumes the six non-pair populations and the two coherences, read at
    the slots of their basis labels.  Both expressions use the
    0 log 0 = 0 convention throughout.
    """
    r11, r22, r33, r44, r55, r66, r16, r34 = state.matrix.real[_CLOSED_FORM_SLOTS].tolist()

    b = r22 + r55
    coh = 2.0 * (r16 + r34)
    c_plus, c_minus = 1.0 - b + coh, 1.0 - b - coh

    if direction is Direction.A_TO_B:
        a = r11 + r44
        asym = r11 + r22 + r33 - r44 - r55 - r66
        d_plus, d_minus = 1.0 + asym, 1.0 - asym
        return (
            _xlog2(1.0 - a)
            + _xlog2(a)
            + _xlog2(b)
            + 0.5 * _xlog2(c_plus)
            + 0.5 * _xlog2(c_minus)
            + _xlog2(r11 + r22, 32.0)
            + _xlog2(r33, 32.0)
            + _xlog2(r66, 32.0)
            + _xlog2(r44 + r55, 32.0)
            - 0.5 * _xlog2(d_minus)
            - 0.5 * _xlog2(d_plus)
        )
    g = r33 + r66
    return (
        0.5 * _xlog2(c_plus)
        + 0.5 * _xlog2(c_minus)
        + _xlog2(r11 + r22, 4.0)
        + _xlog2(r33, 4.0)
        + _xlog2(r66, 4.0)
        + _xlog2(r44 + r55, 4.0)
        - _xlog2(1.0 - b)
        - _xlog2(1.0 - g)
        - _xlog2(g)
    )


def steering_degrees(
    value_ab: float, value_ba: float, convention: Convention
) -> tuple[float, float]:
    """The degrees ``(steer_ab, steer_ba)`` from the two steering values
    that feed ``convention``.

    AS_PRINTED takes the closed forms ``(i_ab, i_ba)``, normalizes each by
    its own bound and assigns the results to the opposite direction
    labels.  That assignment is the one the verification harness
    identifies as reproducing the reference figure curves: the closed
    forms' printed direction subscripts are internally inconsistent with
    the figures (with the printed labels the two degrees come out in
    reversed order), and only the exchanged assignment yields degree 1 for
    the maximally entangled state together with the figure decay ordering.

    DEFICIT_NORMALIZED takes the conditional-entropy sums ``(s_ab, s_ba)``
    and measures how far they drop below their bounds, with the printed
    direction labels.

    The classical bounds are 3 for A -> B and 2 for B -> A.  Under
    AS_PRINTED each closed form's printed maximum (4 and 3) lies one unit
    above its bound, so a degree is the value less its bound, clamped to
    [0, 1]; under DEFICIT_NORMALIZED it is ``max(0, (bound - s) / bound)``.
    """
    if convention is Convention.AS_PRINTED:
        return min(1.0, max(0.0, value_ba - 2.0)), min(1.0, max(0.0, value_ab - 3.0))
    return max(0.0, (3.0 - value_ab) / 3.0), max(0.0, (2.0 - value_ba) / 2.0)


@dataclass(frozen=True, eq=False)
class SteeringReport:
    """All steering quantities of one state under one convention.

    Each value is computed on first read and at most once, so a report
    costs only what is read from it: the ``as-printed`` degrees read the
    closed forms and build no joint tables.  Reports compare by identity.
    """

    state: RegionIState
    convention: Convention

    @cached_property
    def s_ab_oracle(self) -> float:
        return steering_sum_oracle(self.state, Direction.A_TO_B)

    @cached_property
    def s_ba_oracle(self) -> float:
        return steering_sum_oracle(self.state, Direction.B_TO_A)

    @cached_property
    def i_ab_closed(self) -> float:
        return steering_closed(self.state, Direction.A_TO_B)

    @cached_property
    def i_ba_closed(self) -> float:
        return steering_closed(self.state, Direction.B_TO_A)

    @cached_property
    def degrees(self) -> tuple[float, float]:
        """``(steer_ab, steer_ba)`` from the two values that feed the
        convention, as :func:`steering_degrees` assigns them; the closed
        forms stay unswapped in ``i_ab_closed``/``i_ba_closed``."""
        if self.convention is Convention.AS_PRINTED:
            return steering_degrees(self.i_ab_closed, self.i_ba_closed, self.convention)
        return steering_degrees(self.s_ab_oracle, self.s_ba_oracle, self.convention)

    @property
    def steer_ab(self) -> float:
        return self.degrees[0]

    @property
    def steer_ba(self) -> float:
        return self.degrees[1]


def steering_report(state: RegionIState, convention: Convention = Convention.AS_PRINTED) -> SteeringReport:
    """The steering quantities of ``state`` under ``convention``, each
    computed when it is first read."""
    return SteeringReport(state, convention)
