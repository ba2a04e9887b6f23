"""Quantum objects: states, channels, measurements, bases.

Channels are kept in Kraus form throughout; isometries are converted to
Kraus operators by slicing an environment basis.  All types validate their
defining invariants on construction and are immutable afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, reduce
from typing import Sequence

import numpy as np

from .config import DEFAULT_TOLS

__all__ = [
    "Channel",
    "Povm",
    "outcome_weights",
    "off_diagonal_sum",
    "OrthoBasis",
    "output_span_channel",
    "cross_overlap",
    "pauli_basis",
    "fourier_basis",
    "computational_basis",
    "dephasing_channel",
    "is_mub",
]


@dataclass(frozen=True, eq=False)
class OrthoBasis:
    """Ordered orthonormal basis: the columns of a d x d unitary."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.ascontiguousarray(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("basis matrix must be square")
        gram = m.conj().T @ m
        err = np.max(np.abs(gram - np.eye(m.shape[0])))
        if not err <= DEFAULT_TOLS.spectral:
            raise ValueError(f"basis is not orthonormal (Gram error {err:.3e})")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class Channel:
    """Completely positive trace-preserving map in Kraus form.

    ``kraus`` holds every Kraus operator in one read-only
    ``(n, dim_out, dim_in)`` array.
    """

    kraus: np.ndarray
    in_dims: tuple[int, ...]
    out_dims: tuple[int, ...]

    def __post_init__(self) -> None:
        ks = np.ascontiguousarray(self.kraus, dtype=np.complex128)
        in_dims = tuple(int(d) for d in self.in_dims)
        out_dims = tuple(int(d) for d in self.out_dims)
        if ks.ndim != 3 or not len(ks):
            raise ValueError("a channel needs a nonempty stack of Kraus matrices")
        if ks.shape[1:] != (math.prod(out_dims), math.prod(in_dims)):
            raise ValueError(
                f"Kraus shape {ks.shape[1:]} does not match "
                f"channel dims {out_dims}x{in_dims}"
            )
        ks.setflags(write=False)
        object.__setattr__(self, "kraus", ks)
        object.__setattr__(self, "in_dims", in_dims)
        object.__setattr__(self, "out_dims", out_dims)

    @property
    def dim_in(self) -> int:
        return math.prod(self.in_dims)

    @property
    def dim_out(self) -> int:
        return math.prod(self.out_dims)


def channel(
    kraus: Sequence[np.ndarray] | np.ndarray,
    in_dims: Sequence[int],
    out_dims: Sequence[int],
) -> Channel:
    """Build a Channel from Kraus matrices, checking trace preservation at
    ``DEFAULT_TOLS.channel_tp``.

    A contiguous complex stack is taken over without a copy.
    """
    ch = Channel(kraus, in_dims, out_dims)
    flat = ch.kraus.reshape(-1, ch.dim_in)
    err = np.max(np.abs(flat.conj().T @ flat - np.eye(ch.dim_in)))
    if not err <= DEFAULT_TOLS.channel_tp:
        raise ValueError(f"Kraus set is not trace preserving (error {err:.3e})")
    return ch


def output_span_channel(ch: Channel) -> tuple[Channel, np.ndarray]:
    """The channel compressed onto the span of its outputs, plus ``|0>``.

    Returns ``(ch', W)``.  ``W`` is a ``dim_out x r`` isometry: its first
    column is ``|0>`` of C, the rest are the left singular vectors of the
    branch matrix ``B = [K_n|a>]`` with row 0 zeroed, kept where
    ``s^2 > rank_tol(dim_out) s_max^2``.  ``ch'`` has the Kraus operators
    ``W^dag K_n`` on the single output factor ``(r,)``; its trace
    preservation is checked by :func:`channel`.

    Every output lies in ``span W``, so the support-projector measurements
    built on ``ch'`` are those built on C compressed by ``W``, and so are
    their errors and bounds.  ``|0>`` is pinned as index 0 because the
    decoder of :func:`ctoq.decoder.ctoq_delta_q` puts the part of its
    dilation outside the dilation's range on ``e0' = |0>`` and reads
    ``<0|M_F,l|0>``; that weight includes the part of ``|0>`` outside the
    output span, which a compression that dropped it would lose.
    """
    ks = ch.kraus
    n_kraus, dc, d_in = ks.shape
    b = np.array(ks.transpose(1, 0, 2).reshape(dc, n_kraus * d_in))
    b[0] = 0.0
    u, s, _ = np.linalg.svd(b, full_matrices=False)
    keep = s**2 > DEFAULT_TOLS.rank_tol(dc) * s[0] ** 2
    w = np.zeros((dc, 1 + int(keep.sum())), dtype=np.complex128)
    w[0, 0] = 1.0
    w[1:, 1:] = u[1:, keep]
    out = channel(w.conj().T @ ks, ch.in_dims, (w.shape[1],))
    w.setflags(write=False)
    return out, w


@dataclass(frozen=True, eq=False)
class Povm:
    """Ordered positive operators summing to the identity, held as factors.

    ``factors`` is one read-only ``(n, dim, w)`` complex array ``A``, zero-
    padded to a common width ``w``; element ``l`` is ``M_l = A_l A_l^dag``,
    positive by construction.  The entries must be finite and ``sum_l A_l
    A_l^dag = I`` hold within ``DEFAULT_TOLS.povm``, checked by one product.
    A contiguous complex stack is taken over without a copy.
    """

    factors: np.ndarray

    def __post_init__(self) -> None:
        a = np.ascontiguousarray(self.factors, dtype=np.complex128)
        if a.ndim != 3 or not a.size:
            raise ValueError("a POVM needs a nonempty (n, dim, w) stack of factors")
        if not np.isfinite(a).all():
            raise ValueError("POVM factors must be finite")
        flat = a.transpose(1, 0, 2).reshape(a.shape[1], -1)
        err = np.max(np.abs(flat @ flat.conj().T - np.eye(a.shape[1])))
        if not err <= DEFAULT_TOLS.povm:
            raise ValueError(f"POVM does not sum to identity (error {err:.3e})")
        a.setflags(write=False)
        object.__setattr__(self, "factors", a)

    @property
    def n_outcomes(self) -> int:
        return self.factors.shape[0]

    @property
    def dim(self) -> int:
        return self.factors.shape[1]


def outcome_weights(factors: np.ndarray, branches: np.ndarray) -> np.ndarray:
    """``[j, i] = ||A_j^dag B_i||_F^2 = tr(A_j A_j^dag tau_i)`` for a factor
    stack ``A`` and the branch product ``K U`` of a Kraus stack and a basis,
    ``branches[n, :, i] = K_n|i>``, from one Gram product.  No output ``tau_i
    = B_i B_i^dag`` is formed."""
    m, dc, w = factors.shape
    a = factors.swapaxes(0, 1).reshape(dc, m * w).conj().T
    # b[c, (n, i)] = <c|K_n|i>
    weights = np.abs(a @ branches.swapaxes(0, 1).reshape(dc, -1))
    weights *= weights
    return weights.reshape(m, w, -1, branches.shape[-1]).sum(axis=(1, 2))


def off_diagonal_sum(a: np.ndarray) -> float:
    """Sum of a square array's off-diagonal entries, under a mask rather than
    as total minus trace, so a small result keeps its full precision."""
    return float(a[~np.eye(len(a), dtype=bool)].sum())


# ---------------------------------------------------------------------------
# states


def max_entangled_vector(d: int) -> np.ndarray:
    vec = np.zeros(d * d, dtype=np.complex128)
    vec[:: d + 1] = 1.0 / math.sqrt(d)
    return vec


# ---------------------------------------------------------------------------
# output and basis overlaps


def cross_overlap(a: np.ndarray, b: np.ndarray) -> float:
    """``sum_{i != j} tr[a_i b_j]`` over two equally long matrix stacks,
    summed by :func:`off_diagonal_sum`."""
    return off_diagonal_sum(np.einsum("iab,jba->ij", a, b).real)


def is_mub(e: OrthoBasis, f: OrthoBasis) -> bool:
    """True when every overlap |<j_e|l_f>|^2 equals 1/d within
    ``DEFAULT_TOLS.spectral``."""
    d = e.dim
    overlaps = np.abs(e.matrix.conj().T @ f.matrix) ** 2
    return bool(np.max(np.abs(overlaps - 1.0 / d)) <= DEFAULT_TOLS.spectral)


# ---------------------------------------------------------------------------
# standard bases


def computational_basis(d: int) -> OrthoBasis:
    return OrthoBasis(np.eye(d))


def fourier_basis(d: int) -> OrthoBasis:
    """Discrete Fourier basis F[j, k] = exp(2 pi i jk / d) / sqrt(d)."""
    j = np.arange(d)
    return OrthoBasis(np.exp(2j * np.pi * np.outer(j, j) / d) / math.sqrt(d))


_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


@cache
def pauli_basis(n_qubits: int, which: str) -> OrthoBasis:
    """Multi-qubit Pauli basis: Z is computational, X is the n-fold
    tensor product of (|0> +/- |1>)/sqrt(2); built once per argument pair,
    the basis being immutable."""
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    w = which.lower()
    if w == "z":
        return computational_basis(2**n_qubits)
    if w == "x":
        m = reduce(np.kron, [_HADAMARD] * n_qubits)
        return OrthoBasis(m)
    raise ValueError(f"unknown Pauli basis {which!r}, expected 'x' or 'z'")


# ---------------------------------------------------------------------------
# channel constructors


def dephasing_channel(basis: OrthoBasis) -> Channel:
    """Complete dephasing in the given basis."""
    u = basis.matrix
    return channel(u.T[:, :, None] * u.T.conj()[:, None, :], (basis.dim,), (basis.dim,))

