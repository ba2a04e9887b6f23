"""Randomized problem instances: Haar isometries for the experiment's
scrambling dynamics, and channels, POVMs and bases for the property suites
and tests.

Everything takes an explicit ``numpy.random.Generator`` so suites are
reproducible from a single seed.
"""

from __future__ import annotations

import math

import numpy as np

from .linop import Operator
from .qcore import (
    Channel,
    OrthoBasis,
    Povm,
    channel,
    computational_basis,
    fourier_basis,
    measure_prepare_channel,
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
    """Normalized random PSD set: S^{-1/2} A_j S^{-1/2} with A_j Wishart."""
    raws = [ginibre(rng, dim, dim) for _ in range(n_outcomes)]
    psd = [g @ g.conj().T for g in raws]
    total = sum(psd)
    w, v = np.linalg.eigh(total)
    inv_root = (v / np.sqrt(w)) @ v.conj().T
    els = []
    for a in psd:
        m = inv_root @ a @ inv_root
        els.append((m + m.conj().T) / 2)
    return Povm(els)


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
    g = ginibre(rng, dim_out, d)
    v = np.linalg.qr(g)[0]
    ch = channel([v], (d,), (dim_out,))
    images = v @ e_basis.matrix  # images of the basis vectors
    leftover = (np.eye(dim_out) - v @ v.conj().T) / d
    els = []
    for j in range(d):
        m = np.outer(images[:, j], images[:, j].conj()) + leftover
        els.append((m + m.conj().T) / 2)
    return ch, Povm(els)


def random_block_channel(
    rng: np.random.Generator,
    e_basis: OrthoBasis,
    block_size: int = 1,
) -> tuple[Channel, Povm]:
    """Channel that reads the e-basis label and prepares a state in a
    matching orthogonal block, plus the projective POVM that decodes the
    label perfectly.

    The block structure is hidden behind a Haar rotation of the output
    space so nothing is axis-aligned.
    """
    d = e_basis.dim
    dc = d * block_size
    rot = haar_isometry(dc, dc, rng)

    outputs = []
    projectors = []
    for j in range(d):
        g = ginibre(rng, block_size, block_size)
        blk = g @ g.conj().T
        blk /= np.trace(blk).real
        full = np.zeros((dc, dc), dtype=np.complex128)
        sl = slice(j * block_size, (j + 1) * block_size)
        full[sl, sl] = blk
        outputs.append(Operator(rot @ full @ rot.conj().T, (dc,), (dc,)))
        proj = np.zeros((dc, dc), dtype=np.complex128)
        proj[sl, sl] = np.eye(block_size)
        projectors.append(rot @ proj @ rot.conj().T)

    els = [np.outer(e_basis.column(j), e_basis.column(j).conj()) for j in range(d)]
    ch = measure_prepare_channel(Povm(els), outputs)
    return ch, Povm(projectors)
