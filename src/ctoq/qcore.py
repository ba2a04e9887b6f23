"""Quantum objects: states, channels, measurements, bases, entropies.

Channels are kept in Kraus form throughout; isometries are converted to
Kraus operators by slicing an environment basis.  All types validate their
defining invariants on construction and are immutable afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .linop import Operator, permute, sqrtm_psd

__all__ = [
    "Channel",
    "Povm",
    "OrthoBasis",
    "ProbDist",
    "max_entangled",
    "max_correlated_classical",
    "apply_channel",
    "basis_outputs",
    "output_span_channel",
    "cross_overlap",
    "bhattacharyya",
    "collision_entropy",
    "overlap_distribution",
    "pauli_basis",
    "fourier_basis",
    "computational_basis",
    "dephasing_channel",
    "povm_channel",
    "measure_prepare_channel",
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
        if err > DEFAULT_TOLS.spectral:
            raise ValueError(f"basis is not orthonormal (Gram error {err:.3e})")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def column(self, j: int) -> np.ndarray:
        return self.matrix[:, j]


@dataclass(frozen=True, eq=False)
class ProbDist:
    """Probability vector; tiny normalization drift is silently repaired."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64).copy()
        if w.ndim != 1:
            raise ValueError("weights must be a vector")
        if w.size and w.min() < -DEFAULT_TOLS.prob_norm:
            raise ValueError(f"negative weight {w.min():.3e}")
        w = np.clip(w, 0.0, None)
        total = float(w.sum())
        if abs(total - 1.0) > DEFAULT_TOLS.prob_norm:
            raise ValueError(f"weights sum to {total:.12g}, expected 1")
        w /= total
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return self.weights.size


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
    tp_tol: float | None = None,
    tols: Tolerances = DEFAULT_TOLS,
) -> Channel:
    """Build a Channel from Kraus matrices, checking trace preservation.

    A contiguous complex stack is taken over without a copy.
    """
    ch = Channel(kraus, in_dims, out_dims)
    if tp_tol is None:
        tp_tol = tols.channel_tp
    flat = ch.kraus.reshape(-1, ch.dim_in)
    err = np.max(np.abs(flat.conj().T @ flat - np.eye(ch.dim_in)))
    if err > tp_tol:
        raise ValueError(f"Kraus set is not trace preserving (error {err:.3e})")
    return ch


def output_span_channel(
    ch: Channel, tols: Tolerances = DEFAULT_TOLS
) -> tuple[Channel, np.ndarray]:
    """The channel compressed onto the span of its outputs, plus ``|0>``.

    Returns ``(ch', W)``.  ``W`` is a ``dim_out x r`` isometry: its first
    column is ``|0>`` of C, the rest are the left singular vectors of the
    branch matrix ``B = [K_n|a>]`` with row 0 zeroed, kept where
    ``s^2 > rank_tol(dim_out) s_max^2``.  ``ch'`` has the Kraus operators
    ``W^dag K_n`` on the single output factor ``(r,)``; its trace
    preservation is checked at ``tols.channel_tp``.

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
    keep = s**2 > tols.rank_tol(dc) * s[0] ** 2
    w = np.zeros((dc, 1 + int(keep.sum())), dtype=np.complex128)
    w[0, 0] = 1.0
    w[1:, 1:] = u[1:, keep]
    out = channel(
        w.conj().T @ ks, ch.in_dims, (w.shape[1],), tp_tol=tols.channel_tp, tols=tols
    )
    w.setflags(write=False)
    return out, w


@dataclass(frozen=True, eq=False)
class Povm:
    """Ordered positive operators summing to the identity.

    ``elements`` holds every element in one read-only ``(n, dim, dim)``
    complex array; a contiguous complex stack is taken over without a copy.
    """

    elements: np.ndarray

    def __post_init__(self) -> None:
        stack = np.ascontiguousarray(self.elements, dtype=np.complex128)
        if stack.ndim != 3 or not len(stack) or stack.shape[1] != stack.shape[2]:
            raise ValueError("a POVM needs a nonempty stack of square elements")
        herm = (stack + stack.conj().transpose(0, 2, 1)) / 2
        low = float(np.linalg.eigvalsh(herm)[:, 0].min())
        if low < -DEFAULT_TOLS.povm:
            raise ValueError(f"POVM element not PSD (min eig {low:.3e})")
        err = np.max(np.abs(stack.sum(axis=0) - np.eye(stack.shape[1])))
        if err > DEFAULT_TOLS.povm:
            raise ValueError(f"POVM does not sum to identity (error {err:.3e})")
        stack.setflags(write=False)
        object.__setattr__(self, "elements", stack)

    @property
    def n_outcomes(self) -> int:
        return self.elements.shape[0]

    @property
    def dim(self) -> int:
        return self.elements.shape[1]


# ---------------------------------------------------------------------------
# states


def max_entangled_vector(d: int) -> np.ndarray:
    vec = np.zeros(d * d, dtype=np.complex128)
    vec[:: d + 1] = 1.0 / math.sqrt(d)
    return vec


def max_entangled(d: int) -> Operator:
    """Maximally entangled state d^{-1/2} sum_j |jj> as a density operator."""
    if d < 1:
        raise ValueError("d must be >= 1")
    vec = max_entangled_vector(d)
    return Operator(np.outer(vec, vec.conj()), (d, d), (d, d))


def max_correlated_classical(
    basis: OrthoBasis, conjugate_second: bool = False
) -> Operator:
    """Maximally correlated classical state d^{-1} sum_j |jj><jj| in a basis.

    With ``conjugate_second`` the second factor uses the conjugate basis
    {|j*>}, the convention under which the state is the dephased half of the
    maximally entangled state.
    """
    d = basis.dim
    first = basis.matrix
    second = basis.matrix.conj() if conjugate_second else basis.matrix
    out = np.zeros((d * d, d * d), dtype=np.complex128)
    for j in range(d):
        pa = np.outer(first[:, j], first[:, j].conj())
        pb = np.outer(second[:, j], second[:, j].conj())
        out += np.kron(pa, pb)
    return Operator(out / d, (d, d), (d, d))


# ---------------------------------------------------------------------------
# channel application


def _resolve_targets(
    state: Operator, ch: Channel, targets: Sequence[int] | None
) -> list[int]:
    dims = state.row_dims
    if targets is None:
        targets = tuple(range(len(ch.in_dims)))
    targets = [int(t) for t in targets]
    if sorted(set(targets)) != targets:
        raise ValueError("targets must be strictly ascending")
    if any(t < 0 or t >= len(dims) for t in targets):
        raise IndexError(f"targets {targets} out of range")
    tdims = tuple(dims[t] for t in targets)
    if tdims != ch.in_dims:
        raise ValueError(
            f"target dims {tdims} do not match channel input {ch.in_dims}"
        )
    return targets


def apply_channel(
    ch: Channel,
    state: Operator,
    targets: Sequence[int] | None = None,
) -> Operator:
    """Kraus sum on the target subsystems, identity on the rest.

    The channel's output subsystems take the position of the first target;
    untouched subsystems keep their relative order.
    """
    if not state.is_square:
        raise ValueError("apply_channel needs a square state")
    dims = state.row_dims
    n = len(dims)
    targets = _resolve_targets(state, ch, targets)
    ks = ch.kraus

    if len(targets) == n:
        out = np.einsum(
            "nij,jk,nlk->il", ks, state.data, ks.conj(), optimize=True
        )
        return Operator(out, ch.out_dims, ch.out_dims)

    rest = [i for i in range(n) if i not in targets]
    dt = math.prod(ch.in_dims)
    dr = math.prod(dims[i] for i in rest)
    tensor = state.data.reshape(dims + dims)
    axes = targets + rest
    tensor = tensor.transpose(axes + [n + i for i in axes])
    st4 = tensor.reshape(dt, dr, dt, dr)
    out4 = np.einsum("not,tasb,nps->oapb", ks, st4, ks.conj(), optimize=True)

    do = math.prod(ch.out_dims)
    out_dims = ch.out_dims + tuple(dims[i] for i in rest)
    result = Operator(out4.reshape(do * dr, do * dr), out_dims, out_dims)

    # current order is [out block, rest...]; move the out block to where the
    # first target subsystem was
    n_out = len(ch.out_dims)
    cur = [("out", j) for j in range(n_out)] + [("rest", i) for i in rest]
    final: list[tuple[str, int]] = []
    for i in range(n):
        if i == targets[0]:
            final.extend(("out", j) for j in range(n_out))
        elif i in targets:
            continue
        else:
            final.append(("rest", i))
    order = [cur.index(x) for x in final]
    if order != list(range(len(cur))):
        result = permute(result, order)
    return result


def basis_outputs(ch: Channel, basis: OrthoBasis) -> np.ndarray:
    """Outputs ``tau_j = T(|j><j|)`` for every basis vector ``|j>``.

    Returns one read-only ``(d, dim_out, dim_out)`` array of Hermitian
    matrices; every reader of the basis outputs goes through here.
    """
    if ch.dim_in != basis.dim:
        raise ValueError(f"channel input dim {ch.dim_in} != basis dim {basis.dim}")
    # cols[j, :, n] = K_n |j>
    cols = (ch.kraus @ basis.matrix).transpose(2, 1, 0)
    taus = cols @ cols.conj().transpose(0, 2, 1)
    taus += taus.conj().transpose(0, 2, 1)  # in place: outputs can be large
    taus /= 2
    taus.setflags(write=False)
    return taus


def cross_overlap(a: np.ndarray, b: np.ndarray) -> float:
    """``sum_{i != j} tr[a_i b_j]`` over two equally long matrix stacks.

    The off-diagonal terms are summed under a mask rather than as total
    minus trace, so a small result keeps its full precision.
    """
    gram = np.einsum("iab,jba->ij", a, b).real
    return float(gram[~np.eye(len(gram), dtype=bool)].sum())


# ---------------------------------------------------------------------------
# classical helpers


def bhattacharyya(p: ProbDist, q: ProbDist) -> float:
    """Classical fidelity (sum_j sqrt(p_j q_j))^2 between distributions."""
    if len(p) != len(q):
        raise ValueError(f"length mismatch: {len(p)} vs {len(q)}")
    return float(np.sum(np.sqrt(p.weights * q.weights)) ** 2)


def collision_entropy(rho: Operator) -> float:
    """Renyi-2 entropy -log2 tr(rho^2)."""
    purity = float(np.einsum("ij,ji->", rho.data, rho.data).real)
    return -math.log2(purity)


def overlap_distribution(e: OrthoBasis, f: OrthoBasis, l: int) -> ProbDist:
    """Distribution p_l(j) = |<j_e|l_f>|^2 of one f-vector over the e-basis."""
    if e.dim != f.dim:
        raise ValueError(f"dimension mismatch: {e.dim} vs {f.dim}")
    if not 0 <= l < f.dim:
        raise IndexError(f"outcome {l} out of range for dim {f.dim}")
    amps = e.matrix.conj().T @ f.column(l)
    return ProbDist(np.abs(amps) ** 2)


def is_mub(e: OrthoBasis, f: OrthoBasis, tol: float = 1e-10) -> bool:
    """True when every overlap |<j_e|l_f>|^2 equals 1/d within ``tol``."""
    d = e.dim
    overlaps = np.abs(e.matrix.conj().T @ f.matrix) ** 2
    return bool(np.max(np.abs(overlaps - 1.0 / d)) <= tol)


# ---------------------------------------------------------------------------
# standard bases


def computational_basis(d: int) -> OrthoBasis:
    return OrthoBasis(np.eye(d))


def fourier_basis(d: int) -> OrthoBasis:
    """Discrete Fourier basis F[j, k] = exp(2 pi i jk / d) / sqrt(d)."""
    j = np.arange(d)
    return OrthoBasis(np.exp(2j * np.pi * np.outer(j, j) / d) / math.sqrt(d))


_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


def pauli_basis(n_qubits: int, which: str) -> OrthoBasis:
    """Multi-qubit Pauli basis: Z is computational, X is the n-fold
    tensor product of (|0> +/- |1>)/sqrt(2)."""
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
    d = basis.dim
    ks = [
        np.outer(basis.column(j), basis.column(j).conj()) for j in range(d)
    ]
    return channel(ks, (d,), (d,))


def measure_prepare_channel(
    povm: Povm,
    outputs: Sequence[Operator],
    tols: Tolerances = DEFAULT_TOLS,
) -> Channel:
    """Channel rho -> sum_j tr[rho M_j] sigma_j.

    One Kraus operator per (outcome, output eigenvector, input basis vector);
    the outputs must be density operators on a common space.
    """
    if len(outputs) != povm.n_outcomes:
        raise ValueError("need one output state per POVM outcome")
    din = povm.dim
    dout = outputs[0].dim_row
    out_dims = outputs[0].row_dims
    ks = []
    for m, sigma in zip(povm.elements, outputs):
        root = sqrtm_psd(m, tols)
        w, v = np.linalg.eigh((sigma.data + sigma.data.conj().T) / 2)
        for a in range(dout):
            if w[a] <= tols.rank_tol(dout) * max(float(w[-1]), 0.0):
                continue
            amp = math.sqrt(float(w[a]))
            for b in range(din):
                ks.append(amp * np.outer(v[:, a], root[b, :]))
    return channel(ks, (din,), out_dims, tols=tols)


def povm_channel(
    povm: Povm, basis: OrthoBasis, tols: Tolerances = DEFAULT_TOLS
) -> Channel:
    """Measure-and-prepare map rho -> sum_j tr[rho M_j] |j_W><j_W|."""
    if povm.n_outcomes != basis.dim:
        raise ValueError("need one POVM outcome per basis vector")
    d = basis.dim
    outputs = [
        Operator(np.outer(basis.column(j), basis.column(j).conj()), (d,), (d,))
        for j in range(d)
    ]
    return measure_prepare_channel(povm, outputs, tols)
