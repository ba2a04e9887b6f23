"""Numerical tolerances, collected in one place.

Every validation threshold used across the library lives in a single
:class:`Tolerances` record, and every check reads its one instance
:data:`DEFAULT_TOLS`, so a run is characterized by one set of numbers.  A
caller may pass only a numerical-rank cutoff, ``rank_tol``, to two functions.
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
    povm:           completeness slack for measurement factors
    channel_tp:     Kraus completeness slack for freshly built channels
    compose_tp:     looser completeness slack after channel composition
    state_trace:    unit-trace slack for density operators
    """

    hermiticity: float = 1e-8
    spectral: float = 1e-10
    povm: float = 1e-9
    channel_tp: float = 1e-9
    compose_tp: float = 1e-8
    state_trace: float = 1e-9

    def rank_tol(self, dim: int) -> float:
        """Relative numerical-rank cutoff: eigenvalues below
        ``rank_tol * lambda_max`` count as zero."""
        return dim * EPS


DEFAULT_TOLS = Tolerances()
