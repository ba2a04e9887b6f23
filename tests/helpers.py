"""Constructors the tests build inputs and references with.

No command of the library needs them, so they live here rather than in
``src/ctoq``; each is the library function of the same name as it was
before it left the library, unchanged.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from ctoq.linop import Operator, support_eigh
from ctoq.qcore import Channel, channel
from ctoq.sampling import ginibre, haar_isometry


def operator(data: np.ndarray, dims: Sequence[int] | int) -> Operator:
    """Wrap a square matrix with identical row and column dims."""
    if isinstance(dims, int):
        dims = (dims,)
    return Operator(np.asarray(data), tuple(dims), tuple(dims))


def identity(dims: Sequence[int] | int) -> Operator:
    if isinstance(dims, int):
        dims = (dims,)
    d = math.prod(dims)
    return Operator(np.eye(d), tuple(dims), tuple(dims))


def kron(a: Operator, b: Operator) -> Operator:
    """Tensor product; dims lists concatenate, left factor most significant."""
    return Operator(
        np.kron(a.data, b.data),
        a.row_dims + b.row_dims,
        a.col_dims + b.col_dims,
    )


def partial_trace(a: Operator, keep: Iterable[int]) -> Operator:
    """Trace out every subsystem not listed in ``keep``.

    Requires matching row/col dims.  The result carries the kept subsystems
    in their original order; the full trace is preserved.
    """
    if not a.is_square:
        raise ValueError("partial trace needs matching row and column dims")
    dims = a.row_dims
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= n for k in keep):
        raise IndexError(f"keep={keep} out of range for {n} subsystems")
    if keep == list(range(n)):
        return a
    tensor = a.data.reshape(dims + dims)
    row_labels = list(range(n))
    col_labels = [i if i not in keep else n + i for i in range(n)]
    out_labels = [i for i in keep] + [n + i for i in keep]
    out = np.einsum(tensor, row_labels + col_labels, out_labels)
    kept_dims = tuple(dims[i] for i in keep) or (1,)
    d = math.prod(kept_dims)
    return Operator(out.reshape(d, d), kept_dims, kept_dims)


def func_on_support(
    a: Operator,
    f: Callable[[np.ndarray], np.ndarray],
    rank_tol: float | None = None,
) -> Operator:
    """Apply a real function to the spectrum of a PSD operator, on support only.

    Eigenvalues on the support found by :func:`support_eigh` are mapped
    through ``f``; the rest map to zero.
    """
    w, v, on = support_eigh(a.data, rank_tol)
    fw = np.zeros_like(w)
    if np.any(on):
        fw[on] = f(w[on])
    return Operator((v * fw) @ v.conj().T, a.row_dims, a.col_dims)


def identity_channel(dims: Sequence[int] | int) -> Channel:
    if isinstance(dims, int):
        dims = (dims,)
    return channel([np.eye(math.prod(dims))], dims, dims)


def unitary_channel(u: Operator) -> Channel:
    return channel([u.data], u.col_dims, u.row_dims)


def depolarizing_channel(d: int) -> Channel:
    """Fully depolarizing channel rho -> tr(rho) I/d."""
    ks = []
    for i in range(d):
        for j in range(d):
            k = np.zeros((d, d), dtype=np.complex128)
            k[i, j] = 1.0 / math.sqrt(d)
            ks.append(k)
    return channel(ks, (d,), (d,))


def random_density(
    rng: np.random.Generator, dim: int, rank: int | None = None
) -> Operator:
    """Normalized Wishart state GG^dag / tr, full rank by default."""
    g = ginibre(rng, dim, rank or dim)
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return Operator(rho, (dim,), (dim,))


def haar_unitary(d: int, rng: np.random.Generator) -> Operator:
    """Haar-distributed unitary: the square case of :func:`haar_isometry`."""
    return Operator(haar_isometry(d, d, rng), (d,), (d,))
