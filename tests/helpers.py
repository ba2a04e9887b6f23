"""Constructors the tests build inputs and references with.

No command of the library needs them, so they live here rather than in
``src/ctoq``; each is the library function of the same name as it was
before it left the library, unchanged.  The dense pPGM is the exception to
the naming: ``dense_build_ppgm`` and ``dense_support_bound`` are
``ctoq.ppgm.build_ppgm`` and ``ctoq.ppgm.support_bound`` as they were
before the Gram form replaced them, with one eigendecomposition per output
and a ``(d, dC, dC)`` stack of support projectors, and they return and read
a ``DensePpgmBundle``, the bundle of that time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from ctoq.config import DEFAULT_TOLS
from ctoq.linop import Operator, support_eigh
from ctoq.qcore import (
    Channel,
    OrthoBasis,
    Povm,
    basis_outputs,
    channel,
    cross_overlap,
)
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


@dataclass(frozen=True, eq=False)
class DensePpgmBundle:
    """A built measurement together with everything its bounds read.

    ``povm`` holds the measurement's elements as one ``(d, dC, dC)``
    stack; ``tau_states`` and ``projectors`` are read-only ``(d, dC, dC)``
    stacks of the outputs and their support projectors, and ``tau_avg`` is
    the outputs' mean.  ``lambda_min`` is the smallest nonzero eigenvalue
    over all outputs; instances where it sits within a decade of the
    support-detection cutoff are flagged ``ill_conditioned`` because the
    overlap bounds blow up there.
    """

    povm: Povm
    projectors: np.ndarray
    tau_states: np.ndarray
    tau_avg: Operator
    lambda_min: float
    ill_conditioned: bool


def dense_build_ppgm(
    chan: Channel, basis: OrthoBasis, rank_tol: float | None = None
) -> DensePpgmBundle:
    """Build the measurement for discriminating the channel's basis outputs.

    One eigendecomposition per output gives its support projector and its
    rank; the singular values of its branch matrix ``[K_n|j>]_n``, whose
    squares are its spectrum, give its smallest nonzero eigenvalue to
    ``eps sqrt(lambda_max / lambda_min)`` relative, where the eigenvalues
    of the output fix it only to ``eps lambda_max / lambda_min``.  One more
    eigendecomposition, of ``Pi``, gives both
    ``Pi^{-1/2}`` and ``supp(Pi)``.  The deficiency projector
    ``I - supp(Pi)``, on which no output state has weight, is merged into
    outcome 0 so the POVM has exactly one outcome per basis vector.  On a
    channel compressed by :func:`ctoq.qcore.output_span_channel`, as in the
    Hayden-Preskill trials, ``supp(Pi)`` is the output span, so the
    deficiency is at most the one pinned ``|0>`` direction.
    """
    dc = chan.dim_out
    cdims = chan.out_dims
    if rank_tol is None:
        rank_tol = DEFAULT_TOLS.rank_tol(dc)

    taus = basis_outputs(chan, basis)
    sv = np.linalg.svd(
        (chan.kraus @ basis.matrix).transpose(2, 1, 0), compute_uv=False
    )
    projectors = np.empty_like(taus)
    lam_min = math.inf
    ill = False
    for j, tau in enumerate(taus):
        w, v, on = support_eigh(tau, rank_tol)
        if not on.any():
            raise ValueError(f"output state {j} is numerically zero")
        projectors[j] = (v * on) @ v.conj().T
        lam_j = float(sv[j, on.sum() - 1]) ** 2
        lam_min = min(lam_min, lam_j)
        ill = ill or lam_j < 10.0 * (rank_tol * float(w[-1]))
    projectors.setflags(write=False)

    w, v, on = support_eigh(projectors.sum(axis=0), rank_tol)
    root_w = np.zeros_like(w)
    root_w[on] = w[on] ** -0.5
    inv_root = (v * root_w) @ v.conj().T
    elements = inv_root @ projectors @ inv_root
    elements = (elements + elements.conj().transpose(0, 2, 1)) / 2
    # deficiency of supp(Pi): outputs never land there, fold into outcome 0
    elements[0] += np.eye(dc) - (v * on) @ v.conj().T

    return DensePpgmBundle(
        povm=Povm(elements),
        projectors=projectors,
        tau_states=taus,
        tau_avg=Operator(taus.mean(axis=0), cdims, cdims),
        lambda_min=lam_min,
        ill_conditioned=ill,
    )


def dense_support_bound(bundle: DensePpgmBundle) -> float:
    """Support-overlap bound ``(1/d) sum_{i != j} tr[Pi_i tau_j]``.

    Sits between the decoding error and the pairwise bound: projectors
    dominate the error analysis, and ``lambda_min Pi_i <= tau_i`` turns each
    projector into a state overlap.
    """
    taus = bundle.tau_states
    return cross_overlap(bundle.projectors, taus) / len(taus)
