"""Dense complex linear algebra for small tensor-product spaces.

All functions operate on plain numpy arrays of complex dtype and are pure
functions of their inputs, so values can be shared freely across threads
or worker processes.  Each takes one square matrix ``(n, n)`` or a stack
of them ``(N, n, n)``; a stack is handled as a whole, and every member
gets the bits it gets alone.
"""

from __future__ import annotations

from math import prod
from typing import Iterable

import numpy as np

HERMITICITY_ATOL = 1e-12
PSD_EIGENVALUE_FLOOR = -1e-10


def as_matrix(m) -> np.ndarray:
    """Coerce input to a square complex matrix or a stack of them."""
    a = np.asarray(m, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    return a


def _adjoint(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def hermiticity_defect(m) -> float:
    """Largest absolute deviation of ``m`` from its conjugate transpose,
    over the whole stack."""
    a = as_matrix(m)
    return float(np.abs(a - _adjoint(a)).max())


def partial_trace(m, dims: Iterable[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out all tensor factors of ``m`` not listed in ``keep``.

    ``dims`` gives the dimension of each factor in row-major Kronecker
    order; ``keep`` is a non-empty proper subset of factor indices.  The
    kept factors retain their relative order.
    """
    a = as_matrix(m)
    dims = tuple(int(d) for d in dims)
    if any(d <= 0 for d in dims):
        raise ValueError(f"factor dimensions must be positive, got {dims}")
    total = prod(dims)
    if a.shape[-2:] != (total, total):
        raise ValueError(f"shape {a.shape} does not match factors {dims}")
    n = len(dims)
    keep = tuple(sorted(set(int(k) for k in keep)))
    if not keep or len(keep) >= n or keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"keep={keep} must be a non-empty proper subset of factors 0..{n - 1}")

    t = a.reshape(a.shape[:-2] + dims + dims)
    row_axes = list(range(n))
    col_axes = [n + i if i in keep else i for i in range(n)]
    out_axes = [i for i in keep] + [n + i for i in keep]
    reduced = np.einsum(t, [..., *row_axes, *col_axes], [..., *out_axes])
    d_keep = prod(dims[i] for i in keep)
    return reduced.reshape(a.shape[:-2] + (d_keep, d_keep))


def psd_sqrt(m) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues in ``[PSD_EIGENVALUE_FLOOR, 0)`` are clamped to zero as
    floating-point noise; anything below the floor raises.  A stack raises
    if any member does, with the worst member's figure in the message.
    """
    a = as_matrix(m)
    defect = hermiticity_defect(a)
    if defect > HERMITICITY_ATOL:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e} > {HERMITICITY_ATOL})")
    w, v = np.linalg.eigh(a)
    # Descending eigen-order: the summation order of the root, and so its
    # last bits, depend on it.
    w, v = w[..., ::-1].copy(), v[..., ::-1].copy()
    lowest = float(w.min())
    if lowest < PSD_EIGENVALUE_FLOOR:
        raise ValueError(
            f"matrix is not positive semidefinite (eigenvalue {lowest:.3e} "
            f"below {PSD_EIGENVALUE_FLOOR})"
        )
    root = (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ _adjoint(v)
    return (root + _adjoint(root)) / 2
