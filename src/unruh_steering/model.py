"""One-parameter qubit-qutrit state and its accelerated region-I output.

The inertial state lives on the six levels |00>, |01>, |02>, |10>, |11>,
|12> (qubit level first).  Under uniform acceleration the qutrit factor
gains a fourth level, the doubly occupied pair state.  Every region-I
state, the inertial one included (with empty pair levels), is stored in
the labeled order

    |00>, |01>, |02>, |10>, |11>, |12>, |0 pair>, |1 pair>

so that element (i, j) of the matrix corresponds directly to the labeled
populations/coherences used by the closed-form channel element tables.
This order differs from the natural qubit (x) extended-qutrit Kronecker
order; :meth:`RegionIState.tensor_matrix` converts when tensor-structured
operations (partial traces, local observables) are needed.

Two independent routes produce the accelerated state:

* ``accelerate_closed`` evaluates the per-element closed forms on one
  path for every scenario: it starts from the qutrit channel's element
  table when the qutrit accelerates and from the inertial elements
  otherwise, then applies the qubit channel when the qubit accelerates.
* ``accelerate_oracle`` substitutes the accelerated computational bases
  into the inertial state, builds the full density matrix with the
  region-II factors trailing, and traces region II out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import HERMITICITY_ATOL, hermiticity_defect, partial_trace

try:  # pragma: no cover - version shim
    from enum import StrEnum
except ImportError:  # Python < 3.11
    from enum import Enum

    class StrEnum(str, Enum):
        pass


R_MAX = math.pi / 4
PAIR = 3  # extended-qutrit level index of the pair state

BasisLabel = tuple[int, int]  # (qubit level, qutrit level); qutrit level PAIR is the pair state

BASIS_8: tuple[BasisLabel, ...] = ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (0, PAIR), (1, PAIR))
FACTOR_DIMS = (2, 4)  # (qubit, extended qutrit) factors of the natural Kronecker order

# labeled slot k of the 8-dim basis sits at row q*4 + t of the natural Kronecker order
_NATURAL_OF_SLOT = tuple(q * 4 + t for q, t in BASIS_8)             # (0,1,2,4,5,6,3,7)
_SLOT_OF_NATURAL = tuple(int(i) for i in np.argsort(_NATURAL_OF_SLOT))
_SLOTS_IN_NATURAL_ORDER = np.array(_SLOT_OF_NATURAL)


class Scenario(StrEnum):
    """Which subsystem undergoes uniform acceleration."""

    NONE = "none"
    QUBIT = "qubit"
    QUTRIT = "qutrit"
    BOTH = "both"


@dataclass(frozen=True)
class ModelParams:
    """Input parameters of the accelerated qubit-qutrit model.

    ``p`` is the mixing parameter of the initial state, ``r_q``/``r_t``
    the acceleration parameters of qubit and qutrit (radians, in
    [0, pi/4]) and ``phi`` the free phase of the accelerated qutrit basis.
    A scenario that leaves a subsystem inertial ignores its ``r``.
    """

    p: float
    r_q: float = 0.0
    r_t: float = 0.0
    phi: float = 0.0
    scenario: Scenario = Scenario.NONE

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 0.5:
            raise ValueError(f"mixing parameter p={self.p} outside [0, 0.5]")
        for name, r in (("r_q", self.r_q), ("r_t", self.r_t)):
            if not 0.0 <= r <= R_MAX:
                raise ValueError(f"acceleration parameter {name}={r} outside [0, pi/4]")
        if not math.isfinite(self.phi):
            raise ValueError(f"phi={self.phi} is not finite")

    @classmethod
    def for_scenario(cls, scenario: Scenario, p: float, r: float, phi: float = 0.0) -> "ModelParams":
        """Parameters with ``r`` on the subsystem(s) ``scenario`` accelerates."""
        r_q = r if scenario in (Scenario.QUBIT, Scenario.BOTH) else 0.0
        r_t = r if scenario in (Scenario.QUTRIT, Scenario.BOTH) else 0.0
        return cls(p=p, r_q=r_q, r_t=r_t, phi=phi, scenario=scenario)


@dataclass(frozen=True)
class RegionIState:
    """8x8 density matrix over region I in the labeled basis order
    ``BASIS_8`` (2x4, the two pair labels last).  Construction enforces
    unit trace, Hermiticity and positive semidefiniteness up to
    floating-point noise.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        if m.shape != (8, 8):
            raise ValueError(f"matrix shape {m.shape} does not match the 8-dim labeled basis")
        trace_defect = abs(m.trace() - 1.0)
        if trace_defect > 1e-12:
            raise ValueError(f"state trace deviates from 1 by {trace_defect:.3e}")
        herm = hermiticity_defect(m)
        if not herm <= HERMITICITY_ATOL:  # a NaN anywhere makes the defect NaN
            raise ValueError(f"state is not Hermitian (defect {herm:.3e})")
        lowest = float(np.linalg.eigvalsh(m).min())
        if lowest < -1e-10:
            raise ValueError(f"state has negative eigenvalue {lowest:.3e}")

    def tensor_matrix(self) -> np.ndarray:
        """The state in natural row-major Kronecker order (2x4).

        Read-only; reordered on the first call, and every call returns the
        same array.
        """
        return self._tensor

    @cached_property
    def _tensor(self) -> np.ndarray:
        tensor = tensor_order(self.matrix)
        tensor.setflags(write=False)
        return tensor


def tensor_order(matrices: np.ndarray) -> np.ndarray:
    """Labeled-order matrices, one ``(8, 8)`` or a stack ``(N, 8, 8)``,
    reordered into the natural row-major Kronecker order (2x4)."""
    rows = np.asarray(matrices).take(_SLOTS_IN_NATURAL_ORDER, axis=-2)
    return rows.take(_SLOTS_IN_NATURAL_ORDER, axis=-1)


def initial_state(p: float) -> RegionIState:
    """Inertial qubit-qutrit state of the one-parameter family.

    Populations p/2 on |00>, |01>, |11>, |12> and (1-2p)/2 on |02>, |10>,
    with coherences p/2 between |00> and |12> and (1-2p)/2 between |02>
    and |10>; the pair levels are empty.  p = 0 gives the pure state
    (|02> + |10>)/sqrt(2).
    """
    if not 0.0 <= p <= 0.5:
        raise ValueError(f"mixing parameter p={p} outside [0, 0.5]")
    return RegionIState(_inertial_matrix(p))


def _inertial_elements(p: float):
    """Labeled elements of the inertial state: populations and the two
    coherences, the pair levels empty."""
    hp = p / 2.0
    hr = (1.0 - 2.0 * p) / 2.0
    diag = [hp, hp, hr, hr, hp, hp, 0.0, 0.0]
    upper = {(0, 5): hp, (2, 3): hr}
    return diag, upper


def _inertial_matrix(p: float) -> np.ndarray:
    """The labeled-order matrix of :func:`initial_state`, unvalidated."""
    return _labeled_matrix(*_inertial_elements(p))


def _labeled_matrix(diag, upper) -> np.ndarray:
    m = np.zeros((8, 8), dtype=complex)
    m[np.arange(8), np.arange(8)] = diag
    for (i, j), value in upper.items():
        m[i, j] = value
        m[j, i] = np.conj(value)
    return m


def _qutrit_accelerated_elements(p: float, r: float):
    """Channel output elements when only the qutrit accelerates."""
    c, s = math.cos(r), math.sin(r)
    c2, s2 = c * c, s * s
    hp = p / 2.0
    hr = (1.0 - 2.0 * p) / 2.0
    diag = [
        hp * c2 * c2,
        hp * c2 * (s2 + 1.0),
        (c2 / 2.0) * (p * s2 - 2.0 * p + 1.0),
        hr * c2 * c2,
        (c2 / 2.0) * ((1.0 - 2.0 * p) * s2 + p),
        (c2 / 2.0) * ((1.0 - 2.0 * p) * s2 + p),
        (s2 / 2.0) * (p * s2 - p + 1.0),
        s2 * (hr * s2 + p),
    ]
    upper = {
        (0, 5): hp * c2 * c,
        (1, 7): -hp * c * s2,
        (2, 3): hr * c2 * c,
        (4, 6): -hr * c * s2,
    }
    return diag, upper


def _compose_qubit_channel(diag, upper, r: float):
    """Apply the qubit acceleration channel to labeled elements: the
    inertial ones, or the qutrit channel's output when both subsystems
    accelerate."""
    c, s = math.cos(r), math.sin(r)
    c2, s2 = c * c, s * s
    out_diag = [
        c2 * diag[0],
        c2 * diag[1],
        c2 * diag[2],
        diag[3] + s2 * diag[0],
        diag[4] + s2 * diag[1],
        diag[5] + s2 * diag[2],
        c2 * diag[6],
        diag[7] + s2 * diag[6],
    ]
    out_upper = {key: c * value for key, value in upper.items()}
    return out_diag, out_upper


def accelerate_closed(params: ModelParams) -> RegionIState:
    """Region-I state from the closed-form channel element tables.

    One path for every scenario: the qutrit channel's table when the
    scenario accelerates the qutrit, the inertial elements otherwise, then
    the qubit channel on top when it accelerates the qubit.  Scenario
    ``none`` applies neither channel and gives the inertial state.
    """
    if params.scenario in (Scenario.QUTRIT, Scenario.BOTH):
        diag, upper = _qutrit_accelerated_elements(params.p, params.r_t)
    else:
        diag, upper = _inertial_elements(params.p)
    if params.scenario in (Scenario.QUBIT, Scenario.BOTH):
        diag, upper = _compose_qubit_channel(diag, upper, params.r_q)
    return RegionIState(_labeled_matrix(diag, upper))


def as_printed_both_matrix(params: ModelParams) -> np.ndarray:
    """Verbatim printed element table for the doubly accelerated state: the
    qubit channel fed the |11> qutrit-channel population in place of the
    |10> one.  Returned as a raw labeled-order matrix because its trace
    deviates from one whenever those populations differ; the verification
    harness reports that deviation against the oracle.
    """
    if params.scenario is not Scenario.BOTH:
        raise ValueError("the as-printed table only exists for the doubly accelerated scenario")
    diag, upper = _qutrit_accelerated_elements(params.p, params.r_t)
    diag[3] = diag[4]
    diag, upper = _compose_qubit_channel(diag, upper, params.r_q)
    return _labeled_matrix(diag, upper)


def _qubit_substitution(r: float) -> np.ndarray:
    """Isometry C^2 -> C^2 (x) C^2 mapping the inertial qubit basis into
    (region I, region II) Rindler modes."""
    c, s = math.cos(r), math.sin(r)
    v = np.zeros((4, 2), dtype=complex)
    v[0, 0] = c   # |0> -> cos r |0_I 0_II>
    v[3, 0] = s   #        + sin r |1_I 1_II>
    v[2, 1] = 1.0  # |1> -> |1_I 0_II>
    return v


def _qutrit_substitution(r: float, phi: float) -> np.ndarray:
    """Isometry C^3 -> C^4 (x) C^4 for the accelerated qutrit basis,
    including the pair level and the free phase ``phi``."""
    c, s = math.cos(r), math.sin(r)
    ph = np.exp(1j * phi)
    v = np.zeros((16, 3), dtype=complex)
    v[0, 0] = c * c            # |0> -> cos^2 r |0_I 0_II>
    v[1 * 4 + 2, 0] = ph * c * s   # + e^{i phi} cos r sin r |1_I 2_II>
    v[2 * 4 + 1, 0] = ph * c * s   # + e^{i phi} cos r sin r |2_I 1_II>
    v[PAIR * 4 + PAIR, 0] = ph * ph * s * s  # + e^{2 i phi} sin^2 r |pair_I pair_II>
    v[1 * 4 + 0, 1] = c        # |1> -> cos r |1_I 0_II>
    v[PAIR * 4 + 1, 1] = ph * s    # + e^{i phi} sin r |pair_I 1_II>
    v[2 * 4 + 0, 2] = c        # |2> -> cos r |2_I 0_II>
    v[PAIR * 4 + 2, 2] = -ph * s   # - e^{i phi} sin r |pair_I 2_II>
    return v


def accelerate_oracle(params: ModelParams) -> RegionIState:
    """Region-I state via basis substitution and a region-II partial trace.

    Independent of the closed forms: substitutes the accelerated bases
    into the inertial state, orders the full space as (qubit_I, qutrit_I,
    qubit_II, qutrit_II) with singleton region-II factors for inertial
    subsystems (an inertial qutrit is embedded with an empty pair level),
    traces out the trailing region-II factors, and reorders the result
    into the labeled 8-dim basis.  Scenario ``none`` substitutes nothing
    and gives the inertial state.
    """
    qubit_on = params.scenario in (Scenario.QUBIT, Scenario.BOTH)
    qutrit_on = params.scenario in (Scenario.QUTRIT, Scenario.BOTH)

    v_q = _qubit_substitution(params.r_q) if qubit_on else np.eye(2, dtype=complex)
    v_t = _qutrit_substitution(params.r_t, params.phi) if qutrit_on else np.eye(4, 3, dtype=complex)
    dq1, dq2 = (2, 2) if qubit_on else (2, 1)
    dt1, dt2 = (4, 4) if qutrit_on else (4, 1)

    # kron gives rows ordered (q_I, q_II, t_I, t_II); move region II to the back
    iso = np.kron(v_q, v_t)
    iso = iso.reshape(dq1, dq2, dt1, dt2, 6).transpose(0, 2, 1, 3, 4).reshape(-1, 6)

    rho6 = _inertial_matrix(params.p)[:6, :6]
    big = iso @ rho6 @ iso.conj().T
    region1 = partial_trace(big, (dq1, dt1, dq2, dt2), keep=(0, 1))
    idx = np.asarray(_NATURAL_OF_SLOT)
    return RegionIState(region1[np.ix_(idx, idx)])


def _natural(states) -> np.ndarray:
    return states.tensor_matrix() if isinstance(states, RegionIState) else states


def reduce_qubit(states) -> np.ndarray:
    """Qubit marginal (2x2) of a region-I state; the ``(N, 2, 2)``
    marginals of an ``(N, 8, 8)`` stack of natural-order state matrices."""
    return partial_trace(_natural(states), FACTOR_DIMS, keep=(0,))


def reduce_qutrit(states) -> np.ndarray:
    """Extended-qutrit marginal (4x4, pair level last) of a region-I state;
    the ``(N, 4, 4)`` marginals of an ``(N, 8, 8)`` natural-order stack."""
    return partial_trace(_natural(states), FACTOR_DIMS, keep=(1,))
