"""Randomized problem instances: Haar isometries for the experiment's
scrambling dynamics, and channels, POVMs and bases for the property suites
and tests.

Everything takes an explicit ``numpy.random.Generator`` so suites are
reproducible from a single seed.
"""

from __future__ import annotations

import math

import numpy as np

from .qcore import (
    Channel,
    OrthoBasis,
    Povm,
    channel,
    computational_basis,
    fourier_basis,
    pauli_basis,
)

__all__ = [
    "ginibre",
    "haar_isometry",
    "random_povm",
    "random_channel",
    "random_basis",
    "mub_pair",
    "random_block_channel",
]


def ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return (
        rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    ) / math.sqrt(2.0)


def haar_isometry(d: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed isometry ``C^m -> C^d``, as a ``d x m`` matrix.

    QR of a complex ``d x m`` Ginibre matrix with the R-diagonal phase
    correction (Mezzadri, Notices AMS 54, 592 (2007)).  It has the law of the
    first ``m`` columns of a Haar unitary, and for ``m = d`` it is one.
    """
    if not 1 <= m <= d:
        raise ValueError(f"need 1 <= m <= d, got m={m}, d={d}")
    q, r = np.linalg.qr(ginibre(rng, d, m))
    diag = np.diagonal(r).copy()
    diag[diag == 0] = 1.0
    return q * (diag / np.abs(diag))


def random_povm(rng: np.random.Generator, dim: int, n_outcomes: int) -> Povm:
    """Normalized random POVM ``M_j = S^{-1/2} g_j g_j^dag S^{-1/2}`` for
    Ginibre ``g_j`` and ``S = sum_j g_j g_j^dag``, held as the factors
    ``S^{-1/2} g_j``."""
    raws = np.stack([ginibre(rng, dim, dim) for _ in range(n_outcomes)])
    w, v = np.linalg.eigh(np.sum(raws @ raws.conj().transpose(0, 2, 1), axis=0))
    inv_root = (v / np.sqrt(w)) @ v.conj().T
    return Povm(inv_root @ raws)


def random_channel(
    rng: np.random.Generator, dim_in: int, dim_out: int, n_kraus: int
) -> Channel:
    """Random CPTP map: Kraus slices of a Haar-ish isometry into
    output (x) environment.

    Trace preservation forces ``n_kraus * dim_out >= dim_in``; smaller
    requests are bumped to the minimum.
    """
    n_kraus = max(n_kraus, -(-dim_in // dim_out))
    g = ginibre(rng, dim_out * n_kraus, dim_in)
    q = np.linalg.qr(g)[0]
    ks = [q[m * dim_out : (m + 1) * dim_out, :] for m in range(n_kraus)]
    return channel(ks, (dim_in,), (dim_out,))


def random_basis(rng: np.random.Generator, dim: int) -> OrthoBasis:
    return OrthoBasis(haar_isometry(dim, dim, rng))


def mub_pair(d: int) -> tuple[OrthoBasis, OrthoBasis]:
    """A mutually unbiased pair: Pauli Z/X on qubit registers, otherwise
    computational/Fourier."""
    n = d.bit_length() - 1
    if d == 2**n:
        return pauli_basis(n, "z"), pauli_basis(n, "x")
    return computational_basis(d), fourier_basis(d)


def random_isometry_channel(
    rng: np.random.Generator,
    e_basis: OrthoBasis,
    dim_out: int,
) -> tuple[Channel, Povm]:
    """Coherence-preserving channel with perfect label decoding.

    A Haar-random isometry sends the e-basis vectors to orthonormal images;
    the matching POVM projects onto each image, with the leftover subspace
    spread uniformly so the elements sum to the identity.
    """
    d = e_basis.dim
    if dim_out < d:
        raise ValueError("need dim_out >= basis dim")
    v = np.linalg.qr(ginibre(rng, dim_out, d))[0]
    ch = channel([v], (d,), (dim_out,))
    factors = np.zeros((d, dim_out, 1 + dim_out - d), dtype=np.complex128)
    factors[:, :, 0] = (v @ e_basis.matrix).T
    factors[:, :, 1:] = np.linalg.qr(v, mode="complete")[0][:, d:] / math.sqrt(d)
    return ch, Povm(factors)


def random_block_channel(
    rng: np.random.Generator,
    e_basis: OrthoBasis,
    block_size: int = 1,
) -> tuple[Channel, Povm]:
    """Channel that reads the e-basis label and prepares a state in a
    matching orthogonal block, plus the projective POVM that decodes the
    label perfectly.

    The block structure is hidden behind a Haar rotation of the output
    space so nothing is axis-aligned.  Label ``j`` prepares ``sigma_j = c_j
    c_j^dag`` with ``c_j = R_j g_j / ||g_j||_F`` for the rotated block
    ``R_j`` and a Ginibre ``g_j``; the Kraus operators are ``c_j[:, r]
    <j_E|``, one per column ``r``.
    """
    d = e_basis.dim
    dc = d * block_size
    rot = haar_isometry(dc, dc, rng)

    # block j of the rotated output space is spanned by these columns
    blocks = rot.reshape(dc, d, block_size).transpose(1, 0, 2)
    bras = e_basis.matrix.T.conj()  # row j is <j_E|
    ks = np.empty((d, block_size, dc, d), dtype=np.complex128)
    for j in range(d):
        g = ginibre(rng, block_size, block_size)
        c = blocks[j] @ g / np.linalg.norm(g)
        ks[j] = c.T[:, :, None] * bras[j]
    return channel(ks.reshape(-1, dc, d), (d,), (dc,)), Povm(blocks)
