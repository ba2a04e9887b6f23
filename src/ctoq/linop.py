"""Dense complex linear algebra on dimension-tagged operators.

:class:`Operator` is a dense complex matrix together with the subsystem
dimensions of its row and column spaces; states whose tensor structure
matters are carried in it.  The functions here take trace distances: between
two density operators, and from a pure state given by its ket to a density
matrix.  They are not the only spectral code: :mod:`ctoq.qcore`,
:mod:`ctoq.ppgm` and :mod:`ctoq.sampling` call ``numpy.linalg`` directly on
the arrays they hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLS

__all__ = [
    "Operator",
    "trace_distance",
    "pure_state_distance",
]


@dataclass(frozen=True, eq=False)
class Operator:
    """Dense complex matrix tagged with subsystem dimensions.

    ``row_dims`` / ``col_dims`` are the tensor-factor dimensions of the row
    and column spaces; their products must match the matrix shape.  The
    left-most factor owns the most significant index (numpy ``kron``
    convention).  Instances are immutable and safe to share.
    """

    data: np.ndarray
    row_dims: tuple[int, ...]
    col_dims: tuple[int, ...]

    def __post_init__(self) -> None:
        data = np.ascontiguousarray(self.data, dtype=np.complex128)
        row_dims = tuple(int(d) for d in self.row_dims)
        col_dims = tuple(int(d) for d in self.col_dims)
        if not row_dims or not col_dims:
            raise ValueError("dimension lists must be non-empty")
        if any(d < 1 for d in row_dims + col_dims):
            raise ValueError("subsystem dimensions must be >= 1")
        if data.ndim != 2:
            raise ValueError(f"expected a matrix, got ndim={data.ndim}")
        if data.shape != (math.prod(row_dims), math.prod(col_dims)):
            raise ValueError(
                f"shape {data.shape} does not match dims "
                f"{row_dims} x {col_dims}"
            )
        data.setflags(write=False)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "row_dims", row_dims)
        object.__setattr__(self, "col_dims", col_dims)

    @property
    def is_square(self) -> bool:
        return self.row_dims == self.col_dims

    def trace(self) -> complex:
        return complex(np.trace(self.data))


def _hermitian_part(data: np.ndarray, what: str = "operator") -> np.ndarray:
    """``(data + data^dag) / 2`` of a matrix Hermitian within
    ``DEFAULT_TOLS.hermiticity``, checked over blocks of rows so that the
    result is the one full-size array made."""
    herm = np.conjugate(data, dtype=np.result_type(data, 0.5)).T
    step = max(1, 2**16 // max(len(data), 1))
    asym = 0.0
    for i in range(0, len(data), step):
        asym = np.maximum(asym, np.abs(data[i : i + step] - herm[i : i + step]).max())
    if not asym <= DEFAULT_TOLS.hermiticity:
        raise ValueError(f"{what} is not Hermitian (asymmetry {asym:.3e})")
    herm += data
    herm /= 2.0
    return herm


def _check_density(rho: Operator, name: str) -> None:
    if not rho.is_square:
        raise ValueError(f"{name} must be square")
    if abs(rho.trace() - 1.0) > DEFAULT_TOLS.state_trace:
        raise ValueError(f"{name} has trace {rho.trace():.6g}, expected 1")


def trace_distance(rho: Operator, sigma: Operator) -> float:
    """Half the trace norm of the difference of two density operators.

    Computed from the eigenvalues of the Hermitian difference, which equals
    the singular-value form for Hermitian arguments.
    """
    if rho.row_dims != sigma.row_dims or rho.col_dims != sigma.col_dims:
        raise ValueError(
            f"dimension mismatch: {rho.row_dims} vs {sigma.row_dims}"
        )
    _check_density(sigma, "sigma")
    _check_density(rho, "rho")
    diff = _hermitian_part(rho.data - sigma.data, "difference")
    w = np.linalg.eigvalsh(diff)
    return float(0.5 * np.sum(np.abs(w)))


def pure_state_distance(psi: np.ndarray, rho: np.ndarray) -> float:
    """Half the trace norm of ``|psi><psi| - rho`` for a unit vector ``psi``
    and a unit-trace matrix ``rho`` on the same space: :func:`trace_distance`
    of the dense projector ``|psi><psi|``, bit for bit, with no
    :class:`Operator` built."""
    if abs(np.vdot(psi, psi) - 1.0) > DEFAULT_TOLS.state_trace:
        raise ValueError(f"psi has norm {np.linalg.norm(psi):.6g}, expected 1")
    if abs(np.trace(rho) - 1.0) > DEFAULT_TOLS.state_trace:
        raise ValueError(f"rho has trace {np.trace(rho):.6g}, expected 1")
    diff = np.outer(psi, psi.conj())
    diff -= rho
    diff = _hermitian_part(diff, "difference")
    w = np.linalg.eigvalsh(diff)
    return float(0.5 * np.sum(np.abs(w)))
