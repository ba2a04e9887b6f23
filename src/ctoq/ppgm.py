"""Projection-based pretty-good measurements and their error bounds.

The measurement discriminates the channel outputs ``tau_j = T(|j><j|)`` using
the *support projectors* ``Pi_j`` of the outputs rather than the outputs
themselves: ``M_j = Pi^{-1/2} Pi_j Pi^{-1/2}`` with ``Pi = sum_j Pi_j``.  It
is the square-root measurement of the projectors (Hausladen, Jozsa,
Schumacher, Westmoreland and Wootters, PRA 54, 1869 (1996); Eldar and
Forney, IEEE TIT 47, 858 (2001)), built on the span of the outputs from the
orthonormal factors ``U_j`` of the supports, the column spaces of the branch
matrices ``B_j = [K_n|j>]_n``, and one eigendecomposition of ``Pi``.  Its
decoding error is bounded by the support overlaps ``tr[Pi_i tau_j]``, and
those, through ``lambda_min Pi_i <= tau_i`` for the smallest nonzero output
eigenvalue, by the state overlaps ``tr[tau_i tau_j]``, which collision
entropies fix; :func:`build_ppgm` returns the chain with the measurement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLS
from .decoder import delta_cl
from .linop import _hermitian_part
from .qcore import (
    Channel,
    OrthoBasis,
    Povm,
    basis_outputs,
    cross_overlap,
    off_diagonal_sum,
    outcome_weights,
)

__all__ = ["PpgmBundle", "build_ppgm"]


@dataclass(frozen=True, eq=False)
class PpgmBundle:
    """A built measurement with its classical error and bound chain.

    ``povm`` holds the measurement's ``(d, dC, w)`` factor stack (see
    :func:`build_ppgm`), ``delta_cl`` its decoding error on the channel and
    basis it was built for.  ``support_overlap`` is ``(1/d) sum_{i != j}
    tr[Pi_i tau_j]``, which sits between that error and the pairwise bound:
    projectors dominate the error analysis, and ``lambda_min Pi_i <= tau_i``
    turns each projector into a state overlap.  The pairwise bound comes in
    two algebraic forms::

        pairwise_sum     = (1 / (d lambda_min)) sum_{i != j} tr[tau_i tau_j]
        pairwise_entropy = (1 / lambda_min) (d 2^{-H2(tau_avg)}
                                             - (1/d) sum_j 2^{-H2(tau_j)})

    which agree identically because ``tau_avg`` is the mean of the
    ``tau_j``.  Values above 1 are vacuous; they occur when ``lambda_min``
    is small.  Of the outputs it keeps what the forms read:
    ``pairwise_overlap``, ``sum_{i != j} tr[tau_i tau_j]``; ``purities``,
    the read-only ``(d,)`` vector of ``tr[tau_j^2]``; and
    ``collision_entropy_avg``, ``H2`` of their mean.  ``lambda_min`` is the
    smallest nonzero eigenvalue over all outputs; instances where it sits
    within a decade of the support-detection cutoff are flagged
    ``ill_conditioned`` because the overlap bounds blow up there.
    """

    povm: Povm
    delta_cl: float
    support_overlap: float
    pairwise_sum: float
    pairwise_entropy: float
    lambda_min: float
    ill_conditioned: bool
    pairwise_overlap: float
    purities: np.ndarray
    collision_entropy_avg: float


def build_ppgm(
    chan: Channel, basis: OrthoBasis, rank_tol: float | None = None
) -> PpgmBundle:
    """The measurement discriminating the channel's basis outputs, with its
    error and bound chain.

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
    (``dC - rank Pi`` columns, ``rank Pi`` the number of eigenvalues above
    ``rank_tol lambda_max``, at most ``sum_j r_j``; an eigenvalue below
    ``-10 rank_tol lambda_max`` is an error).  On a channel compressed by
    :func:`ctoq.qcore.output_span_channel`, as in the Hayden-Preskill
    trials, ``Pi`` is ``s x s`` for an output span of dimension ``s``, and
    the deficiency is at most the pinned ``|0>``.

    The support overlaps ``tr[Pi_i tau_j] = ||U_i^dag B_j||_F^2`` come from
    one product, as :func:`ctoq.decoder.delta_cl` reads the error.
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
    support = off_diagonal_sum(outcome_weights(u, chan, basis)) / d
    q = u.transpose(1, 0, 2).reshape(dc, d * m)
    w, v = np.linalg.eigh(_hermitian_part(q @ q.conj().T))
    lam_max = max(float(w[-1]), 0.0)
    if w[0] < -10.0 * rank_tol * lam_max:
        raise ValueError(f"Pi not PSD within tolerance (min eigenvalue {w[0]:.3e})")
    # the null eigenvalues lead; Pi has rank at most sum_j r_j, and rounding can lift
    # one above the cutoff, where F F^dag would then miss being a projector
    null = int(max(np.count_nonzero(w <= rank_tol * lam_max), len(w) - ranks.sum()))
    f = v[:, null:].conj().T @ q
    f *= w[null:, None] ** -0.5
    factors = np.zeros((d, dc, m + null), dtype=np.complex128)
    factors[:, :, :m] = (v[:, null:] @ f).reshape(dc, d, m).transpose(1, 0, 2)
    # null space of Pi: outputs never land there, fold into outcome 0
    factors[0, :, m:] = v[:, :null]
    povm = Povm(factors)

    return PpgmBundle(
        povm=povm,
        delta_cl=delta_cl(povm, chan, basis),
        support_overlap=support,
        pairwise_sum=pairwise / (d * lam_min),
        # 2^{-H2(rho)} is the purity tr[rho^2]
        pairwise_entropy=(d * 2.0 ** -h2_avg - purities.sum() / d) / lam_min,
        lambda_min=lam_min,
        ill_conditioned=ill,
        pairwise_overlap=pairwise,
        purities=purities,
        collision_entropy_avg=h2_avg,
    )
