"""Projection-based pretty-good measurements and their error bounds.

The measurement discriminates the channel outputs ``tau_j = T(|j><j|)`` using
the *support projectors* ``Pi_j`` of the outputs rather than the outputs
themselves: ``M_j = Pi^{-1/2} Pi_j Pi^{-1/2}`` with ``Pi = sum_j Pi_j``.  It
is the square-root measurement of the projectors (Hausladen, Jozsa,
Schumacher, Westmoreland and Wootters, PRA 54, 1869 (1996); Eldar and
Forney, IEEE TIT 47, 858 (2001)), built on the span of the outputs from the
orthonormal factors ``U_j`` of the supports, the column spaces of the branch
matrices ``B_j = [K_n|j>]_n``, and one eigendecomposition of ``Pi``.  Its
decoding error is bounded by pairwise support/state overlaps, which in turn
are fixed by collision entropies and the smallest nonzero output
eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLS
from .linop import support_eigh
from .qcore import (
    Channel,
    OrthoBasis,
    Povm,
    basis_outputs,
    cross_overlap,
    off_diagonal_sum,
    outcome_weights,
)

__all__ = [
    "PpgmBundle",
    "build_ppgm",
    "pairwise_bound",
    "support_bound",
]


@dataclass(frozen=True, eq=False)
class PpgmBundle:
    """A built measurement together with everything its bounds read.

    ``povm`` holds the measurement's ``(d, dC, w)`` factor stack (see
    :func:`build_ppgm`).  ``supports`` is the read-only ``(d, dC, m)`` stack of the
    support factors ``U_j``, orthonormal columns with
    ``U_j U_j^dag = Pi_j``, zero-padded to a common width ``m``.
    ``channel`` and ``basis`` are what the measurement discriminates; the
    bounds read their branch matrices ``B_j = [K_n|j>]_n`` from them rather
    than holding a copy.  Of the outputs ``tau_j = B_j B_j^dag`` it keeps
    only what the pairwise bound reads: ``pairwise_overlap``, ``sum_{i !=
    j} tr[tau_i tau_j]``; ``purities``, the read-only ``(d,)`` vector of
    ``tr[tau_j^2]``; and ``collision_entropy_avg``, ``H2`` of their mean.
    ``lambda_min`` is the smallest nonzero eigenvalue over all outputs;
    instances where it sits within a decade of the support-detection cutoff
    are flagged ``ill_conditioned`` because the overlap bounds blow up
    there.
    """

    povm: Povm
    supports: np.ndarray
    channel: Channel
    basis: OrthoBasis
    pairwise_overlap: float
    purities: np.ndarray
    collision_entropy_avg: float
    lambda_min: float
    ill_conditioned: bool


def build_ppgm(
    chan: Channel, basis: OrthoBasis, rank_tol: float | None = None
) -> PpgmBundle:
    """Build the measurement for discriminating the channel's basis outputs.

    The square-root measurement of the support projectors, from the branch
    matrices ``B_j = [K_n|j>]_n``.  One batched thin SVD gives each output's
    support factor ``U_j``, the left singular vectors at ``s^2 > rank_tol
    s_max^2`` (the singular values squared are the spectrum of ``tau_j = B_j
    B_j^dag``).  The singular values alone, from their own SVD, give the
    smallest nonzero eigenvalue of each output, to
    ``eps sqrt(lambda_max / lambda_min)`` relative where the eigenvalues of
    the output fix it only to ``eps lambda_max / lambda_min``.  With
    ``Q = [U_1 ... U_d]``, one eigendecomposition of ``Pi = Q Q^dag`` gives
    ``F = Pi^{-1/2} Q`` on ``supp Pi``, and its column blocks ``F_j`` are the
    POVM's factors: ``F_j F_j^dag = Pi^{-1/2} Pi_j Pi^{-1/2}``.  The null
    eigenvectors of ``Pi`` span the deficiency ``I - F F^dag``, on which no
    output has weight; they go to outcome 0, appended to its factor
    (``dC - rank Pi`` columns).  On a channel compressed by
    :func:`ctoq.qcore.output_span_channel`, as in the Hayden-Preskill
    trials, ``Pi`` is ``s x s`` for an output span of dimension ``s``, and
    the deficiency is at most the pinned ``|0>``.
    """
    dc = chan.dim_out
    if rank_tol is None:
        rank_tol = DEFAULT_TOLS.rank_tol(dc)

    # what the pairwise bound reads of the outputs; the stack goes before the SVDs
    taus = basis_outputs(chan, basis)
    pairwise = cross_overlap(taus, taus)
    purities = np.einsum("jab,jba->j", taus, taus).real
    purities.setflags(write=False)
    avg = taus.mean(axis=0)
    h2_avg = -math.log2(float(np.einsum("ij,ji->", avg, avg).real))
    del taus, avg
    branches = (chan.kraus @ basis.matrix).transpose(2, 1, 0)
    # singular values without vectors, as the dense construction kept in
    # the tests reads them, so lambda_min equals its value bit for bit; an
    # SVD with vectors rounds them differently in the last bits
    sv = np.linalg.svd(branches, compute_uv=False)
    ranks = np.count_nonzero(sv**2 > rank_tol * sv[:, :1] ** 2, axis=1)
    if not ranks.all():
        raise ValueError(
            f"output state {int(np.argmin(ranks))} is numerically zero"
        )
    lam = [float(s[r - 1]) ** 2 for s, r in zip(sv, ranks)]
    lam_min = min(lam)
    ill = any(
        lam_j < 10.0 * (rank_tol * float(s[0]) ** 2) for lam_j, s in zip(lam, sv)
    )

    d, m = sv.shape
    u = np.linalg.svd(branches, full_matrices=False)[0]
    u *= np.arange(m) < ranks[:, None, None]  # drop the columns off the support
    q = u.transpose(1, 0, 2).reshape(dc, d * m)
    w, v, on = support_eigh(q @ q.conj().T, rank_tol)
    # Pi has rank at most sum_j r_j: rounding can lift one of its null
    # eigenvalues above the cutoff, and F F^dag would then miss being a projector
    on[: max(len(w) - int(ranks.sum()), 0)] = False
    null = len(w) - int(on.sum())  # the eigenvalues ascend: the null ones lead
    f = v[:, null:].conj().T @ q
    f *= w[null:, None] ** -0.5
    factors = np.zeros((d, dc, m + null), dtype=np.complex128)
    factors[:, :, :m] = (v[:, null:] @ f).reshape(dc, d, m).transpose(1, 0, 2)
    # null space of Pi: outputs never land there, fold into outcome 0
    factors[0, :, m:] = v[:, :null]
    u.setflags(write=False)

    return PpgmBundle(
        povm=Povm(factors),
        supports=u,
        channel=chan,
        basis=basis,
        pairwise_overlap=pairwise,
        purities=purities,
        collision_entropy_avg=h2_avg,
        lambda_min=lam_min,
        ill_conditioned=ill,
    )


def pairwise_bound(bundle: PpgmBundle) -> tuple[float, float, float]:
    """Pairwise-overlap bound on the decoding error, in two algebraic forms.

    Returns ``(sum_form, entropy_form, lambda_min)`` where::

        sum_form     = (1 / (d lambda_min)) sum_{i != j} tr[tau_i tau_j]
        entropy_form = (1 / lambda_min) (d 2^{-H2(tau_avg)}
                                         - (1/d) sum_j 2^{-H2(tau_j)})

    The two agree identically because ``tau_avg`` is the mean of the
    ``tau_j``.  Values above 1 are vacuous; they occur when ``lambda_min``
    is small (the flagged ill-conditioned instances).
    """
    d = bundle.basis.dim
    lam = bundle.lambda_min
    sum_form = bundle.pairwise_overlap / (d * lam)
    # 2^{-H2(rho)} is the purity tr[rho^2]
    entropy_form = (
        d * 2.0 ** -bundle.collision_entropy_avg - bundle.purities.sum() / d
    ) / lam
    return sum_form, entropy_form, lam


def support_bound(bundle: PpgmBundle) -> float:
    """Support-overlap bound ``(1/d) sum_{i != j} tr[Pi_i tau_j]``.

    Sits between the decoding error and the pairwise bound: projectors
    dominate the error analysis, and ``lambda_min Pi_i <= tau_i`` turns each
    projector into a state overlap.  Each term is the Gram block
    ``||U_i^dag B_j||_F^2`` of the support factors and the branch matrices,
    all of them from one product.
    """
    d = bundle.basis.dim
    gram = outcome_weights(bundle.supports, bundle.channel, bundle.basis)
    return off_diagonal_sum(gram) / d
