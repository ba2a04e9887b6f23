"""Numerical tolerances, collected in one place.

Every validation threshold used across the library lives in a single
:class:`Tolerances` record so that a run is characterized by one set of
numbers.  Functions accept an optional ``tols`` argument and fall back to
:data:`DEFAULT_TOLS`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class Tolerances:
    """Validation thresholds.

    hermiticity:    max accepted asymmetry ||A - A^dag||_inf before an
                    eigendecomposition refuses the input
    spectral:       eigendecomposition round-trip and unitarity checks
    psd:            relative negative-eigenvalue slack for PSD inputs
    povm:           PSD / completeness slack for measurement elements
    channel_tp:     Kraus completeness slack for freshly built channels
    compose_tp:     looser completeness slack after channel composition
    prob_norm:      probability vector normalization drift; above this is
                    an error, below it the vector is silently renormalized
    state_trace:    unit-trace slack for density operators
    """

    hermiticity: float = 1e-8
    spectral: float = 1e-10
    psd: float = 1e-9
    povm: float = 1e-9
    channel_tp: float = 1e-9
    compose_tp: float = 1e-8
    prob_norm: float = 1e-10
    state_trace: float = 1e-9

    def rank_tol(self, dim: int) -> float:
        """Relative numerical-rank cutoff: eigenvalues below
        ``rank_tol * lambda_max`` count as zero."""
        return dim * EPS


DEFAULT_TOLS = Tolerances()
