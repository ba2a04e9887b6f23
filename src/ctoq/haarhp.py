"""Desk-scale Hayden-Preskill experiment with Haar-random dynamics.

A k-qubit message, maximally entangled with a reference, is absorbed by an
N-qubit system whose state is purified by a "past radiation" register.  A
Haar-random unitary scrambles message + system, after which ``ell`` qubits
are radiated.  The retrieval channel maps the message space to past + new
radiation; decoding uses projection-based pretty-good measurements for the
Pauli-X and -Z classical records and the decoder built from them, whose
quantum error is evaluated in closed form.  A trial works on the span of the
channel outputs, whose dimension is at most ``2^k`` times the Kraus count
and usually far below that of past + new radiation.

Besides the Monte-Carlo experiment itself, this module evaluates the exact
Haar average of the pairwise output overlaps (a two-design moment with a
closed form) and the analytic average-error bound with its concentration
correction term, which is vacuous at desk scale and reported as such.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .decoder import ctoq_delta_q
from .linop import Operator, support_eigh
from .ppgm import support_bound, build_ppgm, ppgm_error, pairwise_bound
from .qcore import (
    Channel,
    basis_outputs,
    channel,
    collision_entropy,
    computational_basis,
    cross_overlap,
    output_span_channel,
    pauli_basis,
    purify_vector,
)

__all__ = [
    "HpConfig",
    "HpDerived",
    "TrialResult",
    "AverageErrorBound",
    "haar_unitary",
    "hp_channel",
    "derived_quantities",
    "haar_mean_pairwise_overlap",
    "average_error_bound",
    "run_experiment",
    "pure_state",
    "maximally_mixed_state",
    "state_from_spectrum",
]

LOG2_E = math.log2(math.e)


@dataclass(frozen=True, eq=False)
class HpConfig:
    """Parameters of one experiment: system sizes, initial state, seeding.

    ``n_bh`` (N) counts the absorbing system's qubits, ``n_msg`` (k) the
    message qubits, ``n_rad`` (ell) the radiated qubits out of the N + k
    scrambled ones.
    """

    n_bh: int
    n_msg: int
    n_rad: int
    initial_state: Operator
    seed: int = 0
    trials: int = 1

    def __post_init__(self) -> None:
        if self.n_bh < 1 or self.n_msg < 1:
            raise ValueError("need at least one system and one message qubit")
        if not 0 <= self.n_rad <= self.n_bh + self.n_msg:
            raise ValueError(
                f"n_rad must lie in [0, {self.n_bh + self.n_msg}]"
            )
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        xi = self.initial_state
        if xi.dim_row != 2**self.n_bh or not xi.is_square:
            raise ValueError(
                f"initial state must be a density operator on {2**self.n_bh} dims"
            )
        if abs(xi.trace() - 1.0) > DEFAULT_TOLS.state_trace:
            raise ValueError("initial state must have unit trace")

    @property
    def dim_scrambled(self) -> int:
        return 2 ** (self.n_bh + self.n_msg)

    @property
    def dim_msg(self) -> int:
        return 2**self.n_msg


@dataclass(frozen=True)
class HpDerived:
    """Threshold radiation count, spectral flatness, collision entropy."""

    ell_th: float
    lambda_xi: float
    h2_bin: float


@dataclass(frozen=True)
class AverageErrorBound:
    """Analytic average-error bound and its correction term.

    ``cl_bound = leading_term + delta_term``; ``vacuous`` is set when the
    classical bound is >= 1, the typical desk-scale outcome because the
    concentration correction ``delta_term`` is enormous unless the radiated
    register or the initial entropy is large.
    """

    cl_bound: float
    q_bound: float
    leading_term: float
    delta_term: float
    log2_delta: float
    vacuous: bool


@dataclass(frozen=True)
class TrialResult:
    """Measured errors and bound ingredients of one Monte-Carlo trial."""

    trial: int
    seed_stream: int
    delta_cl_x: float = math.nan
    delta_cl_z: float = math.nan
    delta_q_ctoq: float = math.nan
    lambda_min_x: float = math.nan
    lambda_min_z: float = math.nan
    pairwise_sum_x: float = math.nan
    pairwise_sum_z: float = math.nan
    pairwise_entropy_x: float = math.nan
    pairwise_entropy_z: float = math.nan
    support_overlap_x: float = math.nan
    support_overlap_z: float = math.nan
    bound_two_term: float = math.nan
    pairwise_overlap: float = math.nan
    collision_entropy_avg: float = math.nan
    collision_entropies: tuple[float, ...] = ()
    ill_conditioned: bool = False
    error: str | None = None


def pure_state(n_qubits: int) -> Operator:
    """|0...0><0...0| on n qubits."""
    d = 2**n_qubits
    m = np.zeros((d, d), dtype=np.complex128)
    m[0, 0] = 1.0
    return Operator(m, (d,), (d,))


def maximally_mixed_state(n_qubits: int) -> Operator:
    d = 2**n_qubits
    return Operator(np.eye(d) / d, (d,), (d,))


def state_from_spectrum(n_qubits: int, spectrum) -> Operator:
    """Diagonal density operator with the given eigenvalues, zero padded."""
    d = 2**n_qubits
    spec = np.asarray(list(spectrum), dtype=np.float64)
    if spec.size > d or spec.min() < 0:
        raise ValueError(f"spectrum must be nonnegative with at most {d} entries")
    if abs(spec.sum() - 1.0) > DEFAULT_TOLS.prob_norm * 10:
        raise ValueError(f"spectrum sums to {spec.sum():.12g}, expected 1")
    w = np.zeros(d)
    w[: spec.size] = spec / spec.sum()
    return Operator(np.diag(w), (d,), (d,))


# ---------------------------------------------------------------------------
# sampling and the retrieval channel


def haar_unitary(d: int, rng: np.random.Generator) -> Operator:
    """Haar-distributed unitary: QR of a complex Ginibre matrix with the
    R-diagonal phase correction."""
    if d < 1:
        raise ValueError("d must be >= 1")
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r).copy()
    diag[diag == 0] = 1.0
    q = q * (diag / np.abs(diag))
    return Operator(q, (d,), (d,))


def hp_channel(
    u: Operator,
    xi: Operator,
    cfg: HpConfig,
    tols: Tolerances = DEFAULT_TOLS,
) -> Channel:
    """Retrieval channel: message -> past radiation (x) new radiation.

    ``rho -> tr_kept[ U (rho (x) purification(xi)) U^dag ]`` where the
    scrambled register splits into kept and radiated qubits; the radiated
    ones are the last ``n_rad`` tensor factors.  Output dims are
    ``(2^N, 2^ell)`` in the order (past, new).
    """
    n, k, ell = cfg.n_bh, cfg.n_msg, cfg.n_rad
    da, dbh = 2**k, 2**n
    ds = da * dbh
    if u.dim_row != ds or u.dim_col != ds:
        raise ValueError(f"unitary must act on {ds} dims")
    if xi.dim_row != dbh:
        raise ValueError(f"initial state must live on {dbh} dims")
    d_kept = 2 ** (n + k - ell)
    d_new = 2**ell

    vec, _ = purify_vector(xi, tols)  # on (system, past), past least significant
    # |a> -> (U (x) I)(|a> (x) |xi>); U's rows split into (kept, new), its
    # columns into (message, system).  Kraus operator m is the kept row m,
    # with output (past, new).
    ks = np.einsum(
        "mnab,bp->mpna",
        u.data.reshape(d_kept, d_new, da, dbh),
        vec.reshape(dbh, dbh),
        optimize=True,
    ).reshape(d_kept, dbh * d_new, da)
    return channel(ks, (da,), (dbh, d_new), tp_tol=tols.channel_tp, tols=tols)


# ---------------------------------------------------------------------------
# derived quantities and analytic formulas


def derived_quantities(
    cfg: HpConfig, tols: Tolerances = DEFAULT_TOLS
) -> HpDerived:
    """Threshold ``ell_th = k + (N - H2)/2`` and flatness
    ``Lambda = rank * min nonzero eigenvalue`` of the initial state."""
    xi = cfg.initial_state
    h2 = collision_entropy(xi)
    ell_th = cfg.n_msg + (cfg.n_bh - h2) / 2.0
    w, _, on = support_eigh(xi.data, tols=tols)
    lam = float(w[on][0]) * int(on.sum())
    return HpDerived(ell_th=ell_th, lambda_xi=lam, h2_bin=h2)


def haar_mean_pairwise_overlap(cfg: HpConfig) -> float:
    """Exact Haar average of ``sum_{i != j} tr[xi_i xi_j]`` over the
    scrambling unitary.

    Closed form from the second moment of the Haar measure:
    ``2^k (2^k - 1) (2^{2(N+k) - ell} - 2^ell) / (2^{2(N+k)} - 1) * 2^{-H2}``.
    The purity factor equals the initial state's because its purification is
    pure.
    """
    n, k, ell = cfg.n_bh, cfg.n_msg, cfg.n_rad
    dk = float(2**k)
    h2 = collision_entropy(cfg.initial_state)
    num = 2.0 ** (2 * (n + k) - ell) - 2.0**ell
    den = 2.0 ** (2 * (n + k)) - 1.0
    return dk * (dk - 1.0) * num / den * 2.0**-h2


def average_error_bound(cfg: HpConfig, epsilon: float) -> AverageErrorBound:
    """Analytic bound on the Haar-average decoding errors.

    Requires ``Lambda > 1/2`` and ``epsilon`` in ``(2 (1 - Lambda), 1]``.
    The correction term ``delta`` has
    ``log2 delta = k + 2^{N+k-ell+1} (N+k-ell + log2(5/epsilon))
    - (c^2 log2(e) / 6) 2^{ell + H2}`` with
    ``c = 1 - (1 - epsilon/2) / Lambda``; it is astronomically large for
    small N, so the ``vacuous`` flag is the expected outcome at desk scale.
    """
    derived = derived_quantities(cfg)
    lam = derived.lambda_xi
    if lam <= 0.5:
        raise ValueError(
            f"bound needs rank * lambda_min > 1/2, got {lam:.6g}"
        )
    lo = 2.0 * (1.0 - lam)
    if not lo < epsilon <= 1.0:
        raise ValueError(
            f"epsilon must lie in ({lo:.6g}, 1], got {epsilon}"
        )
    n, k, ell = cfg.n_bh, cfg.n_msg, cfg.n_rad
    c = 1.0 - (1.0 - epsilon / 2.0) / lam
    log2_delta = (
        k
        + 2.0 ** (n + k - ell + 1) * (n + k - ell + math.log2(5.0 / epsilon))
        - (c**2 * LOG2_E / 6.0) * 2.0 ** (ell + derived.h2_bin)
    )
    delta = 2.0**log2_delta if log2_delta < 1000.0 else math.inf
    if epsilon < 1.0:
        leading = 4.0 ** (derived.ell_th - ell) / (1.0 - epsilon)
    else:
        leading = math.inf
    cl_bound = leading + delta
    q_bound = (1.0 + math.sqrt(2.0)) * math.sqrt(cl_bound)
    return AverageErrorBound(
        cl_bound=cl_bound,
        q_bound=q_bound,
        leading_term=leading,
        delta_term=delta,
        log2_delta=log2_delta,
        vacuous=not cl_bound < 1.0,
    )


# ---------------------------------------------------------------------------
# the Monte-Carlo experiment


def _trial_rng(cfg: HpConfig, trial: int) -> np.random.Generator:
    """Independent per-trial stream, reproducible in isolation.

    Keyed on (radiated qubits, trial) so sweep points do not share samples.
    """
    return np.random.default_rng(
        np.random.SeedSequence(cfg.seed, spawn_key=(cfg.n_rad, trial))
    )


def run_trial(cfg: HpConfig, trial: int) -> TrialResult:
    """One trial: sample U, build the channel and both measurements, and
    evaluate every error functional, the decoder's in closed form.

    The channel is compressed onto the span of its outputs plus ``|0>``
    (:func:`output_span_channel`) before anything else is built, and the
    measurements keep the support cutoff of the full output space, so every
    value is the one the full space gives, at the cost of the span.

    Numerical failures (``LinAlgError``, ``ValueError``) are recorded on
    the result rather than raised; anything else, such as ``MemoryError``,
    propagates.
    """
    rng = _trial_rng(cfg, trial)
    try:
        u = haar_unitary(cfg.dim_scrambled, rng)
        full = hp_channel(u, cfg.initial_state, cfg)
        ch, _ = output_span_channel(full)
        rank_tol = DEFAULT_TOLS.rank_tol(full.dim_out)
        basis_z = pauli_basis(cfg.n_msg, "z")
        basis_x = pauli_basis(cfg.n_msg, "x")
        bundle_z = build_ppgm(ch, basis_z, rank_tol=rank_tol)
        taus_z = bundle_z.tau_states
        purities_z = np.einsum("jab,jba->j", taus_z, taus_z).real
        bundle_x = build_ppgm(ch, basis_x, rank_tol=rank_tol)
        dcl_z = ppgm_error(bundle_z)
        dcl_x = ppgm_error(bundle_x)
        sum_z, ent_z, lam_z = pairwise_bound(bundle_z)
        sum_x, ent_x, lam_x = pairwise_bound(bundle_x)

        dq = ctoq_delta_q(ch, bundle_z.povm, bundle_x.povm, basis_z, basis_x)
        bound = math.sqrt(max(dcl_z * (2.0 - dcl_z), 0.0)) + math.sqrt(max(dcl_x, 0.0))

        return TrialResult(
            trial=trial,
            seed_stream=trial,
            delta_cl_x=dcl_x,
            delta_cl_z=dcl_z,
            delta_q_ctoq=dq,
            lambda_min_x=lam_x,
            lambda_min_z=lam_z,
            pairwise_sum_x=sum_x,
            pairwise_sum_z=sum_z,
            pairwise_entropy_x=ent_x,
            pairwise_entropy_z=ent_z,
            support_overlap_x=support_bound(bundle_x),
            support_overlap_z=support_bound(bundle_z),
            bound_two_term=bound,
            pairwise_overlap=cross_overlap(taus_z, taus_z),
            collision_entropy_avg=collision_entropy(bundle_z.tau_avg),
            collision_entropies=tuple(-math.log2(p) for p in purities_z),
            ill_conditioned=bundle_z.ill_conditioned or bundle_x.ill_conditioned,
        )
    except (np.linalg.LinAlgError, ValueError) as exc:  # recorded, not fatal
        return TrialResult(trial=trial, seed_stream=trial, error=str(exc))


def run_experiment(cfg: HpConfig, n_jobs: int = 1) -> list[TrialResult]:
    """All trials of a config, in trial order; deterministic given the seed.

    Trials are independent; with ``n_jobs > 1`` they fan out over a process
    pool without changing the results.
    """
    trials = range(cfg.trials)
    if n_jobs <= 1:
        return [run_trial(cfg, t) for t in trials]
    with ProcessPoolExecutor(max_workers=n_jobs) as pool:
        futures = [pool.submit(run_trial, cfg, t) for t in trials]
        return [f.result() for f in futures]


def pairwise_overlap_samples(cfg: HpConfig) -> np.ndarray:
    """Per-trial values of ``sum_{i != j} tr[xi_i xi_j]``.

    The Monte-Carlo counterpart of :func:`haar_mean_pairwise_overlap`; no
    measurements or decoders are built, and the outputs are read on the
    channel compressed onto their span, so large sample counts stay cheap.
    The value is basis independent in distribution; the computational basis
    is used.
    """
    basis = computational_basis(cfg.dim_msg)
    out = np.empty(cfg.trials)
    for t in range(cfg.trials):
        u = haar_unitary(cfg.dim_scrambled, _trial_rng(cfg, t))
        ch, _ = output_span_channel(hp_channel(u, cfg.initial_state, cfg))
        taus = basis_outputs(ch, basis)
        out[t] = cross_overlap(taus, taus)
    return out
