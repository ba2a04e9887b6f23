"""Desk-scale Hayden-Preskill experiment with Haar-random dynamics.

A k-qubit message, maximally entangled with a reference, is absorbed by an
N-qubit system whose state xi is purified by a "past radiation" register.  A
Haar-random unitary scrambles message + system, after which ``ell`` qubits
are radiated.  The retrieval channel maps the message space to past + new
radiation; decoding uses projection-based pretty-good measurements for the
Pauli-X and -Z classical records and the decoder built from them, whose
quantum error is evaluated in closed form.

xi is held as its spectrum ``p``, the eigenvalues on its support.  The
channel reads only the columns of the scrambling unitary for message (x)
supp xi, so a trial samples just those ``2^k rank(xi)`` columns, a Haar
isometry.  The past register is supp xi, plus, when xi is not full rank,
one label outside it, so that ``|0>`` of the output space is orthogonal to
every output as it is on the full ``2^N``-dimensional register.  The trial
then works on the span of the channel outputs, whose dimension is at most
``2^k`` times the Kraus count and usually far below that of past + new
radiation.

Besides the Monte-Carlo experiment itself, this module evaluates the exact
Haar average of the pairwise output overlaps (a two-design moment with a
closed form) and the analytic average-error bound with its concentration
correction term, which is vacuous at desk scale and reported as such.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import DEFAULT_TOLS
from .decoder import ctoq_delta_q
from .ppgm import build_ppgm
from .qcore import (
    Channel,
    channel,
    cross_overlap,
    off_diagonal_sum,
    output_span_channel,
    pauli_basis,
)
from .sampling import haar_isometry

__all__ = [
    "HpConfig",
    "HpDerived",
    "TrialResult",
    "AverageErrorBound",
    "hp_channel",
    "derived_quantities",
    "haar_mean_pairwise_overlap",
    "average_error_bound",
    "run_sweep",
    "trial_peak_bytes",
    "sample_peak_bytes",
]

LOG2_E = math.log2(math.e)


@dataclass(frozen=True, eq=False)
class HpConfig:
    """Parameters of one experiment: system sizes, initial state, seeding.

    ``n_bh`` (N) counts the absorbing system's qubits, ``n_msg`` (k) the
    message qubits, ``n_rad`` (ell) the radiated qubits out of the N + k
    scrambled ones.  ``xi_spectrum`` is the initial state's spectrum, any
    sequence of at most ``2^N`` finite nonnegative numbers summing to 1; it
    is stored as a read-only float64 vector of the nonzero ones, in the
    order given and normalized.  Entry ``i`` is the weight of the ``i``-th
    support vector, which the purification pairs with a past label: label
    ``i`` when xi has full rank, label ``i + 1`` otherwise, where past label
    0 stands for the kernel of xi.
    """

    n_bh: int
    n_msg: int
    n_rad: int
    xi_spectrum: np.ndarray
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
        spec = np.asarray(self.xi_spectrum, dtype=np.float64)
        d = 2**self.n_bh
        if (
            spec.ndim != 1
            or not 1 <= spec.size <= d
            or not np.all(np.isfinite(spec))
            or spec.min() < 0
        ):
            raise ValueError(
                f"spectrum must be 1 to {d} finite nonnegative numbers"
            )
        spec = spec[spec > 0]
        total = spec.sum()
        if abs(total - 1.0) > DEFAULT_TOLS.state_trace:
            raise ValueError(f"spectrum sums to {total:.12g}, expected 1")
        spec /= total
        spec.setflags(write=False)
        object.__setattr__(self, "xi_spectrum", spec)

    @property
    def rank(self) -> int:
        """Rank of the initial state: the number of sampled support columns
        per message vector."""
        return self.xi_spectrum.size

    @property
    def dim_past(self) -> int:
        """Past labels the channel writes: supp xi, plus one kernel label
        below it unless xi has full rank."""
        return self.rank + (self.rank < 2**self.n_bh)

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
    error_type: str | None = None
    stage: str | None = None


# ---------------------------------------------------------------------------
# the retrieval channel


def hp_channel(v: np.ndarray, cfg: HpConfig) -> Channel:
    """Retrieval channel: message -> past radiation (x) new radiation.

    ``v`` is the scrambling unitary restricted to message (x) supp xi, a
    ``2^(N+k) x (2^k r)`` isometry with ``r = cfg.rank``; its rows split
    into (kept, new), the radiated qubits being the last ``n_rad`` factors,
    and its columns into (message, support).  Kraus operator ``m`` is

        ``K_m|a> = sum_i sqrt(p_i) V[(m, new), (a, i)] |i + o>_past |new>``,

    the kept row ``m`` of ``(V (x) I)(|a> (x) sum_i sqrt(p_i) |i>|i + o>)``.
    Output dims are ``(cfg.dim_past, 2^ell)`` in the order (past, new).
    The offset ``o`` is 0 when xi has full rank and 1 otherwise: past label
    0 then stands for the kernel of xi, and ``|0>`` of the output, on which
    the decoder puts what its dilation leaves out, is orthogonal to every
    output, as on the full ``2^N``-dimensional past register with the
    kernel first.
    """
    n, k, ell = cfg.n_bh, cfg.n_msg, cfg.n_rad
    da, r, dp = 2**k, cfg.rank, cfg.dim_past
    if v.shape != (cfg.dim_scrambled, da * r):
        raise ValueError(f"isometry must be {cfg.dim_scrambled} x {da * r}")
    d_kept = 2 ** (n + k - ell)
    d_new = 2**ell
    ks = np.zeros((d_kept, dp, d_new, da), dtype=np.complex128)
    ks[:, dp - r :] = (
        v.reshape(d_kept, d_new, da, r) * np.sqrt(cfg.xi_spectrum)
    ).transpose(0, 3, 1, 2)
    return channel(ks.reshape(d_kept, dp * d_new, da), (da,), (dp, d_new))


# ---------------------------------------------------------------------------
# derived quantities and analytic formulas


def derived_quantities(cfg: HpConfig) -> HpDerived:
    """Threshold ``ell_th = k + (N - H2)/2`` and flatness
    ``Lambda = rank * min nonzero eigenvalue`` of the initial state, with
    ``H2 = -log2 sum_i p_i^2`` from its spectrum."""
    p = cfg.xi_spectrum
    h2 = -math.log2(float(p @ p))
    ell_th = cfg.n_msg + (cfg.n_bh - h2) / 2.0
    return HpDerived(ell_th=ell_th, lambda_xi=float(p.min()) * p.size, h2_bin=h2)


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
    h2 = derived_quantities(cfg).h2_bin
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


def _trial_isometry(cfg: HpConfig, trial: int) -> np.ndarray:
    """The trial's draw: the ``2^k rank(xi)`` columns of its Haar unitary
    that the retrieval channel reads."""
    return haar_isometry(
        cfg.dim_scrambled, cfg.dim_msg * cfg.rank, _trial_rng(cfg, trial)
    )


def run_trial(cfg: HpConfig, trial: int) -> TrialResult:
    """One trial: sample the scrambling isometry, build the channel and both
    measurements, and evaluate every error functional, the decoder's in
    closed form.

    The channel is compressed onto the span of its outputs plus ``|0>``
    before anything else is built, and the measurements keep the support
    cutoff of the physical output space, past (x) new of ``2^N 2^ell``
    dimensions, so every value is the one that space gives, at the cost of
    the span.

    Each measurement comes with its error and bound chain (see
    :func:`ctoq.ppgm.build_ppgm`); only the two-term bound, which combines
    both bases, is formed here.  Numerical failures (``LinAlgError``,
    ``ValueError``) are recorded on the result, with the exception's type
    and the stage that raised it (``sample``, ``channel``, ``compress``,
    ``ppgm_z``, ``ppgm_x`` or ``delta_q``), rather than raised; anything
    else, such as ``MemoryError``, propagates.
    """
    stage = "sample"
    try:
        v = _trial_isometry(cfg, trial)
        stage = "channel"
        full = hp_channel(v, cfg)
        stage = "compress"
        ch = output_span_channel(full)[0]
        del v, full  # the full-space arrays go before the pPGMs are built
        rank_tol = DEFAULT_TOLS.rank_tol(2**cfg.n_bh * 2**cfg.n_rad)
        basis_z = pauli_basis(cfg.n_msg, "z")
        basis_x = pauli_basis(cfg.n_msg, "x")
        stage = "ppgm_z"
        z = build_ppgm(ch, basis_z, rank_tol=rank_tol)
        stage = "ppgm_x"
        x = build_ppgm(ch, basis_x, rank_tol=rank_tol)
        stage = "delta_q"
        dq = ctoq_delta_q(ch, z.povm, x.povm, basis_z, basis_x)

        return TrialResult(
            trial=trial,
            delta_cl_x=x.delta_cl,
            delta_cl_z=z.delta_cl,
            delta_q_ctoq=dq,
            lambda_min_x=x.lambda_min,
            lambda_min_z=z.lambda_min,
            pairwise_sum_x=x.pairwise_sum,
            pairwise_sum_z=z.pairwise_sum,
            pairwise_entropy_x=x.pairwise_entropy,
            pairwise_entropy_z=z.pairwise_entropy,
            support_overlap_x=x.support_overlap,
            support_overlap_z=z.support_overlap,
            bound_two_term=math.sqrt(max(z.delta_cl * (2.0 - z.delta_cl), 0.0))
            + math.sqrt(max(x.delta_cl, 0.0)),
            pairwise_overlap=z.pairwise_overlap,
            collision_entropy_avg=z.collision_entropy_avg,
            collision_entropies=tuple(-math.log2(p) for p in z.purities),
            ill_conditioned=z.ill_conditioned or x.ill_conditioned,
        )
    except (np.linalg.LinAlgError, ValueError) as exc:  # recorded, not fatal
        return TrialResult(
            trial=trial,
            error=str(exc),
            error_type=type(exc).__name__,
            stage=stage,
        )


def _sizes(cfg: HpConfig) -> tuple[int, int, int, int, int]:
    """``(d, n, iso, kraus, dC)``: ``2^k``, the Kraus count, the entries of
    the isometry and the Kraus stack, and the uncompressed output dim."""
    d, n = cfg.dim_msg, 2 ** (cfg.n_bh + cfg.n_msg - cfg.n_rad)
    kraus = cfg.dim_scrambled * cfg.dim_past * d
    return d, n, cfg.dim_scrambled * d * cfg.rank, kraus, kraus // (n * d)


def _stage_entries(cfg: HpConfig) -> tuple[int, ...]:
    """Complex entries alive at the peak of each stage of a trial, with
    ``d = 2^k``, ``n`` Kraus operators and ``s`` compressed output dimensions,
    at most ``min(rank(xi) 2^ell, n d) + 1``: the isometry with its Ginibre and
    QR copies; the Kraus stack, its copy and their thin SVD; one basis's
    outputs, alive only in :func:`ctoq.ppgm.build_ppgm`; both bases' pPGMs
    (temporaries, ``(d, s, m)`` factors with ``m = min(s, n)``, and the
    ``s x s`` support sum ``Pi`` with its Hermitian part, its eigenvectors and
    the eigensolver's work space); and the decoder (both POVMs' ``(d, s, m +
    1)`` factors with a copy, the branches in the E factors' coordinates and
    one E outcome's block, ``d^2 n (m + 1)`` each, three ``d (m + 1)``-square
    matrices, and three ``d^2 x d^2`` arrays: the state, left in the E frame,
    with its difference to ``Phi`` and that one's Hermitian part, or that
    part's eigenvalue copy in place of the difference)."""
    d, n, iso, kraus, dc = _sizes(cfg)
    m = min(dc, n * d)
    s = min(min(cfg.rank * 2**cfg.n_rad, m) + 1, dc)
    w = min(s, n) + 1
    dm = d * min(s, n)
    return (
        4 * iso,
        iso + 3 * kraus + (dc + n * d) * m + 3 * dc * s + 2 * n * s * d,
        2 * d * s * s + 2 * n * s * d,
        (5 * dm + 6 * s) * s + 3 * n * s * d,
        2 * s * s + n * s * d + 4 * d * s * w
        + 2 * d * d * n * w + 3 * (d * w) ** 2 + 3 * d**4,
    )


def _peak_bytes(entries: tuple[int, ...]) -> int:
    """16 bytes per complex entry at the largest stage, a quarter more for
    LAPACK work space and allocator slack, and 4 MiB for the small arrays:
    measured trials above 64 MiB peak at 0.4 to 0.8 of it."""
    return 20 * max(entries) + 2**22


def trial_peak_bytes(cfg: HpConfig) -> int:
    """Upper estimate of the bytes one :func:`run_trial` of ``cfg`` holds at
    its peak, over every stage of the trial."""
    return _peak_bytes(_stage_entries(cfg))


def sample_peak_bytes(cfg: HpConfig) -> int:
    """Upper estimate of the bytes one sample of
    :func:`pairwise_overlap_samples` holds at its peak: the isometry with
    its Ginibre and QR copies; two of each of it and the Kraus stack while
    the channel is built; the stack with two copies and the ``(n d)^2`` Gram
    matrix and its moduli or the ``d dC^2`` outputs, by side."""
    d, n, iso, kraus, dc = _sizes(cfg)
    side = 3 * (n * d) ** 2 // 2 if _gram_side(n, dc, d) else d * dc * dc
    return _peak_bytes((4 * iso, 2 * iso + 2 * kraus, 3 * kraus + side))


def run_sweep(
    cfgs: list[HpConfig], n_jobs: int = 1, done: Callable = lambda i, rs: None
) -> list[list[TrialResult]]:
    """Each config's trials in trial order, the same for any ``n_jobs``:
    above 1, one pool of at most one process per trial runs the whole sweep
    in chunks.  ``done(i, results)`` gets config ``i``'s trials on arrival."""
    tasks = [(cfg, t) for cfg in cfgs for t in range(cfg.trials)]
    workers = min(n_jobs, len(tasks))
    with contextlib.ExitStack() as stack:
        results = map(run_trial, *zip(*tasks))
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            chunk = math.ceil(len(tasks) / (4 * workers))
            results = pool.map(run_trial, *zip(*tasks), chunksize=chunk)
        out = []
        for i, cfg in enumerate(cfgs):
            out.append([next(results) for _ in range(cfg.trials)])
            done(i, out[-1])
        return out


def _gram_side(n: int, dc: int, d: int) -> bool:
    """Whether :func:`_pairwise_overlap` of ``n`` Kraus operators
    ``dC x d`` costs fewer multiply-adds on the Gram side, about
    ``d^2 n^2 dC``, than on the output side, about ``d dC^2 (n + d)``."""
    return d * n * n < dc * (n + d)


def _pairwise_overlap(ks: np.ndarray) -> float:
    """``sum_{i != j} tr[tau_i tau_j]`` for the branch matrices ``B_i =
    [K_n|i>]_n`` of an ``(n, dC, d)`` Kraus stack, on the side
    :func:`_gram_side` picks."""
    n, dc, d = ks.shape
    if _gram_side(n, dc, d):
        b = ks.transpose(1, 0, 2).reshape(dc, n * d)  # column (n, i) is K_n|i>
        g = np.abs(b.conj().T @ b)
        g *= g
        return off_diagonal_sum(g.reshape(n, d, n, d).sum(axis=(0, 2)))
    b = np.ascontiguousarray(ks.transpose(2, 1, 0))  # b[i] = B_i
    taus = b @ b.conj().transpose(0, 2, 1)
    return cross_overlap(taus, taus)


def pairwise_overlap_samples(cfg: HpConfig) -> np.ndarray:
    """Per-trial values of ``sum_{i != j} tr[xi_i xi_j]``.

    The Monte-Carlo counterpart of :func:`haar_mean_pairwise_overlap`, on
    the draws of :func:`run_trial` with no measurement or decoder.  The
    value is basis independent in distribution; in the computational basis
    the branch matrices ``B_i = [K_n|i>]_n`` are slices of the Kraus stack.
    It is read on the side with fewer multiply-adds: the ``(d, dC, dC)``
    outputs ``B_i B_i^dag`` and their contraction, about ``d dC^2 (n +
    d)``, or the ``n x n`` blocks, ``tr[tau_i tau_j] = ||B_i^dag
    B_j||_F^2``, about ``d^2 n^2 dC``.  Neither needs the compression that
    :func:`run_trial` makes for its measurements: an isometry onto a space
    holding every output leaves each ``tr[tau_i tau_j]`` as it is.
    """
    out = np.empty(cfg.trials)
    for t in range(cfg.trials):
        out[t] = _pairwise_overlap(hp_channel(_trial_isometry(cfg, t), cfg).kraus)
    return out
