"""Dense complex linear algebra on dimension-tagged operators.

:class:`Operator` is a dense complex matrix together with the subsystem
dimensions of its row and column spaces; states whose tensor structure
matters are carried in it.  The functions here reorder subsystems, take
trace distances and decompose PSD matrices with their numerical support
marked.  They are not the only spectral code: :mod:`ctoq.qcore`,
:mod:`ctoq.ppgm` and :mod:`ctoq.sampling` call ``numpy.linalg`` directly on
the arrays they hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import DEFAULT_TOLS, Tolerances

__all__ = [
    "Operator",
    "permute",
    "trace_distance",
    "support_eigh",
    "sqrtm_psd",
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
    def dim_row(self) -> int:
        return self.data.shape[0]

    @property
    def is_square(self) -> bool:
        return self.row_dims == self.col_dims

    def trace(self) -> complex:
        return complex(np.trace(self.data))


def permute(a: Operator, order: Sequence[int]) -> Operator:
    """Reorder the subsystems of a square operator."""
    if not a.is_square:
        raise ValueError("permute needs matching row and column dims")
    dims = a.row_dims
    n = len(dims)
    order = [int(i) for i in order]
    if sorted(order) != list(range(n)):
        raise ValueError(f"order {order} is not a permutation of 0..{n - 1}")
    tensor = a.data.reshape(dims + dims)
    tensor = tensor.transpose(order + [n + i for i in order])
    new_dims = tuple(dims[i] for i in order)
    d = math.prod(new_dims)
    return Operator(tensor.reshape(d, d), new_dims, new_dims)


def _hermitian_part(
    data: np.ndarray, tols: Tolerances, what: str = "operator"
) -> np.ndarray:
    asym = np.max(np.abs(data - data.conj().T)) if data.size else 0.0
    if asym > tols.hermiticity:
        raise ValueError(f"{what} is not Hermitian (asymmetry {asym:.3e})")
    return (data + data.conj().T) / 2.0


def _check_density(rho: Operator, tols: Tolerances, name: str) -> None:
    if not rho.is_square:
        raise ValueError(f"{name} must be square")
    if abs(rho.trace() - 1.0) > tols.state_trace:
        raise ValueError(f"{name} has trace {rho.trace():.6g}, expected 1")


def trace_distance(
    rho: Operator, sigma: Operator, tols: Tolerances = DEFAULT_TOLS
) -> float:
    """Half the trace norm of the difference of two density operators.

    Computed from the eigenvalues of the Hermitian difference, which equals
    the singular-value form for Hermitian arguments.
    """
    if rho.row_dims != sigma.row_dims or rho.col_dims != sigma.col_dims:
        raise ValueError(
            f"dimension mismatch: {rho.row_dims} vs {sigma.row_dims}"
        )
    _check_density(rho, tols, "rho")
    _check_density(sigma, tols, "sigma")
    diff = _hermitian_part(rho.data - sigma.data, tols, "difference")
    w = np.linalg.eigvalsh(diff)
    return float(0.5 * np.sum(np.abs(w)))


def _psd_eigh(
    data: np.ndarray, tols: Tolerances, name: str
) -> tuple[np.ndarray, np.ndarray]:
    herm = _hermitian_part(data, tols, name)
    w, v = np.linalg.eigh(herm)
    floor = -tols.psd * max(1.0, float(w[-1]) if w.size else 1.0)
    if w.size and w[0] < floor:
        raise ValueError(f"{name} is not PSD (min eigenvalue {w[0]:.3e})")
    return np.clip(w, 0.0, None), v


def sqrtm_psd(data: np.ndarray, tols: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Principal square root of a PSD matrix via eigendecomposition.

    Eigenvalues below the numerical-rank cutoff are zeroed first; the square
    root would otherwise amplify O(eps) noise to O(sqrt(eps)).
    """
    w, v = _psd_eigh(data, tols, "matrix")
    cut = tols.rank_tol(data.shape[0]) * (float(w[-1]) if w.size else 0.0)
    w[w <= cut] = 0.0
    return (v * np.sqrt(w)) @ v.conj().T


def support_eigh(
    a: np.ndarray,
    rank_tol: float | None = None,
    tols: Tolerances = DEFAULT_TOLS,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigendecomposition of a PSD matrix with its numerical support marked.

    Returns ``(w, v, on)``: ascending eigenvalues, eigenvectors as columns,
    and the mask of eigenvalues strictly above ``rank_tol * lambda_max``.
    ``rank_tol`` defaults to the numerical-rank convention
    ``dim * machine_eps``.  A negative eigenvalue below
    ``-10 * rank_tol * lambda_max`` is an error.
    """
    if a.shape[0] != a.shape[1]:
        raise ValueError("support_eigh needs a square matrix")
    if rank_tol is None:
        rank_tol = tols.rank_tol(a.shape[0])
    w, v = np.linalg.eigh(_hermitian_part(a, tols))
    lam_max = max(float(w[-1]), 0.0)
    if w[0] < -10.0 * rank_tol * lam_max:
        raise ValueError(
            f"input not PSD within tolerance (min eigenvalue {w[0]:.3e})"
        )
    return w, v, w > rank_tol * lam_max
