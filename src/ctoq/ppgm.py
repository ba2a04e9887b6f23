"""Projection-based pretty-good measurements and their error bounds.

The measurement discriminates the channel outputs ``tau_j = T(|j><j|)`` using
the *support projectors* of the outputs rather than the outputs themselves:
``M_j = Pi^{-1/2} Pi_j Pi^{-1/2}`` with ``Pi = sum_j Pi_j``.  Its decoding
error is bounded by pairwise support/state overlaps, which in turn are fixed
by collision entropies and the smallest nonzero output eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLS
from .linop import Operator, support_eigh
from .qcore import (
    Channel,
    OrthoBasis,
    Povm,
    basis_outputs,
    collision_entropy,
    cross_overlap,
)

__all__ = [
    "PpgmBundle",
    "build_ppgm",
    "ppgm_error",
    "pairwise_bound",
    "support_bound",
]


@dataclass(frozen=True, eq=False)
class PpgmBundle:
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


def build_ppgm(
    chan: Channel, basis: OrthoBasis, rank_tol: float | None = None
) -> PpgmBundle:
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

    return PpgmBundle(
        povm=Povm(elements),
        projectors=projectors,
        tau_states=taus,
        tau_avg=Operator(taus.mean(axis=0), cdims, cdims),
        lambda_min=lam_min,
        ill_conditioned=ill,
    )


def ppgm_error(bundle: PpgmBundle) -> float:
    """Classical decoding error of the measurement on its own channel.

    Reads the cached output states, so every bound below is evaluated on
    exactly the same data.
    """
    taus = bundle.tau_states
    return cross_overlap(taus, bundle.povm.elements) / len(taus)


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
    taus = bundle.tau_states
    d = len(taus)
    lam = bundle.lambda_min
    sum_form = cross_overlap(taus, taus) / (d * lam)
    # 2^{-H2(rho)} is the purity tr[rho^2]
    purities = np.einsum("jab,jba->j", taus, taus).real
    entropy_form = (
        d * 2.0 ** -collision_entropy(bundle.tau_avg) - purities.sum() / d
    ) / lam
    return sum_form, entropy_form, lam


def support_bound(bundle: PpgmBundle) -> float:
    """Support-overlap bound ``(1/d) sum_{i != j} tr[Pi_i tau_j]``.

    Sits between the decoding error and the pairwise bound: projectors
    dominate the error analysis, and ``lambda_min Pi_i <= tau_i`` turns each
    projector into a state overlap.
    """
    taus = bundle.tau_states
    return cross_overlap(bundle.projectors, taus) / len(taus)
