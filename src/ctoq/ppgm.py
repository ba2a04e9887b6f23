"""Projection-based pretty-good measurements and their error bounds.

The measurement discriminates the channel outputs ``tau_j = T(|j><j|)`` using
the *support projectors* ``Pi_j`` of the outputs rather than the outputs
themselves: ``M_j = Pi^{-1/2} Pi_j Pi^{-1/2}`` with ``Pi = sum_j Pi_j``.  It
is the square-root measurement of the projectors (Hausladen, Jozsa,
Schumacher, Westmoreland and Wootters, PRA 54, 1869 (1996); Eldar and
Forney, IEEE TIT 47, 858 (2001)), built on the span of the outputs from the
orthonormal factors ``U_j`` of the supports, the column spaces of the branch
matrices ``B_j = [K_n|j>]_n``: its factors are the blocks of the polar factor
of ``Q = [U_1 ... U_d]``, the isometry closest to ``Q``, and ``Pi`` is never
formed.  Its decoding error is bounded by the support overlaps ``tr[Pi_i
tau_j]``, and those, through ``lambda_min Pi_i <= tau_i`` for the smallest
nonzero output eigenvalue, by the state overlaps ``tr[tau_i tau_j]``, which
collision entropies fix; :func:`build_ppgm` returns the chain with the
measurement, for each of several bases in one batched pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import DEFAULT_TOLS
from .qcore import (
    Channel,
    OrthoBasis,
    Povm,
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
    chan: Channel, bases: Sequence[OrthoBasis], rank_tol: float | None = None
) -> list[PpgmBundle]:
    """The measurements discriminating the channel's outputs in each basis,
    each with its error and bound chain, one bundle per basis.

    The square-root measurement of the support projectors, from the branch
    matrices ``B_j = [K_n|j>]_n`` of one product ``K U`` per basis.  One
    batched thin SVD, over the bases too, gives each support factor ``U_j``, the
    left singular vectors at ``s^2 > rank_tol s_max^2`` (the singular values
    squared are the spectrum of ``tau_j = B_j B_j^dag``).  The same singular
    values give the smallest nonzero eigenvalue of each output, to ``eps
    sqrt(lambda_max / lambda_min)`` relative where the eigenvalues of the
    output fix it only to ``eps lambda_max / lambda_min``.  One more SVD,
    ``Q = X S Y^dag`` of ``Q = [U_1 ... U_d]`` for each basis in one call,
    gives the polar factor ``F = X_r Y_r^dag``, which is ``Pi^{-1/2} Q`` on
    ``supp Pi`` for ``Pi = Q Q^dag``, with ``r = rank Pi`` the count of ``s^2
    > rank_tol s_max^2``, at most ``sum_j r_j``.
    Its column blocks ``F_j`` are the POVM's factors: ``F_j F_j^dag =
    Pi^{-1/2} Pi_j Pi^{-1/2}``.  No ``Pi`` is formed, so the rounding follows
    the condition number of ``Q``, not its square.  The columns of ``X`` past
    ``r`` span the deficiency ``I - F F^dag``, on which no output has weight;
    they go to outcome 0, appended to its factor.  Where ``Q`` has more rows
    than columns, ``dC > d m``, as the pinned ``|0>`` can make it, only the
    full ``dC x dC`` factor ``X`` holds them all.  On a channel compressed by
    :func:`ctoq.qcore.output_span_channel`, as in the Hayden-Preskill
    trials, ``Q`` has ``s`` rows for an output span of dimension ``s``, and
    the deficiency is at most the pinned ``|0>``.

    The support overlaps ``tr[Pi_i tau_j] = ||U_i^dag B_j||_F^2`` and the
    error, as :func:`ctoq.decoder.delta_cl` reads it, come from one product
    per basis, made like the outputs a basis at a time; each basis's bundle
    is bit for bit that of a call for it alone.
    """
    dc = chan.dim_out
    if rank_tol is None:
        rank_tol = DEFAULT_TOLS.rank_tol(dc)

    # kb[b, n, :, j] = K_n|j> in basis b
    kb = np.stack([chan.kraus @ basis.matrix for basis in bases])
    stats = []  # what the pairwise bound reads of the outputs
    for cols in kb.transpose(0, 3, 2, 1):  # cols[j] = B_j
        taus = cols @ cols.conj().transpose(0, 2, 1)
        taus += taus.conj().transpose(0, 2, 1)  # in place: outputs can be large
        taus /= 2
        purities = np.einsum("jab,jba->j", taus, taus).real
        purities.setflags(write=False)
        avg = taus.mean(axis=0)
        h2_avg = -math.log2(float(np.einsum("ij,ji->", avg, avg).real))
        stats.append((cross_overlap(taus, taus), purities, h2_avg))
        del taus, avg  # one basis's stack at a time, gone before the SVDs
    u, sv = np.linalg.svd(kb.transpose(0, 3, 2, 1), full_matrices=False)[:2]
    ranks = np.count_nonzero(sv**2 > rank_tol * sv[..., :1] ** 2, axis=-1)
    nb, d, m = sv.shape
    if not ranks.all():
        raise ValueError(f"output state {int(np.argmin(ranks)) % d} is numerically zero")
    u *= np.arange(m) < ranks[..., None, None]  # drop the columns off the support
    q = u.transpose(0, 2, 1, 3).reshape(nb, dc, d * m)
    x, sq, yh = np.linalg.svd(q, full_matrices=dc > d * m)  # X holds the null vectors
    del q
    # Q has rank at most sum_j r_j, and rounding can lift one singular value
    # above the cutoff, where F F^dag would then miss being a projector
    r_pi = np.count_nonzero(sq**2 > rank_tol * sq[:, :1] ** 2, axis=1)
    r_pi = np.minimum(r_pi, ranks.sum(axis=1))

    bundles = []
    for b, (pairwise, purities, h2_avg) in enumerate(stats):
        rank = r_pi[b]  # the polar factor X_r Y_r^dag, then the null space of Pi
        factors = np.zeros((d, dc, m + dc - rank), dtype=np.complex128)
        factors[:, :, :m] = (x[b, :, :rank] @ yh[b, :rank]).reshape(dc, d, m).swapaxes(0, 1)
        factors[0, :, m:] = x[b, :, rank:]  # outputs never land there
        lam = [float(s[r - 1]) ** 2 for s, r in zip(sv[b], ranks[b])]
        lam_min = min(lam)
        ill = any(lj < 10.0 * (rank_tol * float(s[0]) ** 2) for lj, s in zip(lam, sv[b]))
        bundles.append(PpgmBundle(
            povm=Povm(factors),
            delta_cl=off_diagonal_sum(outcome_weights(factors, kb[b])) / d,
            support_overlap=off_diagonal_sum(outcome_weights(u[b], kb[b])) / d,
            pairwise_sum=pairwise / (d * lam_min),
            # 2^{-H2(rho)} is the purity tr[rho^2]
            pairwise_entropy=(d * 2.0 ** -h2_avg - purities.sum() / d) / lam_min,
            lambda_min=lam_min,
            ill_conditioned=ill,
            pairwise_overlap=pairwise,
            purities=purities,
            collision_entropy_avg=h2_avg,
        ))
    return bundles
