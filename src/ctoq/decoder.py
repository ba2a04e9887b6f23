"""Building quantum decoders out of two classical decoders.

Given a channel ``T: A -> C`` and two POVMs that decode classical
information from ``C`` in bases ``E`` and ``F`` of ``A``, the construction
assembles a channel ``C -> A`` that decodes quantum information:

* a *coherent measurement* dilates the E-POVM to a projective measurement,
  writes the outcome into a fresh register in the E basis, and undoes the
  dilation isometry as far as possible so the measured system is barely
  disturbed;
* a *quantum eraser* measures the system with the F-POVM and applies an
  outcome-dependent diagonal phase to the register, deleting the record of
  which E outcome occurred.

The two stages fuse into a decoder fixed in closed form by products of
the two POVMs' elements.  :func:`ctoq_delta_q` evaluates its quantum
decoding error from that form, on the ``d^2 x d^2`` image of a maximally
entangled state under channel and decoder, without assembling a Kraus set.
:func:`coherent_state` evaluates the coherent measurement alone in the same
closed form, for the three-party diagnostic; no dilation is built for
either.  The decoding error is controlled by the two classical errors
plus a complementarity defect of the basis pair, evaluated here along with
its computable upper bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .linop import Operator, trace_distance
from .qcore import (
    Channel,
    OrthoBasis,
    Povm,
    apply_channel,
    basis_outputs,
    bhattacharyya,
    cross_overlap,
    max_correlated_classical,
    max_entangled,
    max_entangled_vector,
    overlap_distribution,
    povm_channel,
    ProbDist,
)

__all__ = [
    "ErrorReport",
    "delta_q",
    "delta_cl",
    "delta_cl_tracenorm",
    "coherent_state",
    "ctoq_delta_q",
    "xi_ef",
    "xi_bounds",
    "error_report",
    "povm_from_decoder",
    "noisy_ghz_state",
]


@dataclass(frozen=True)
class ErrorReport:
    """Decoding errors of one constructed decoder and their upper bounds.

    ``delta_q_bound`` is the three-term bound
    ``sqrt(de (2 - de)) + sqrt(df) + sqrt(xi)``; ``xi_bound_min`` and
    ``xi_bound_avg`` bound the complementarity defect ``xi_ef`` using,
    respectively, the worst-case and the average basis overlap fidelity.
    """

    delta_q: float
    delta_cl_e: float
    delta_cl_f: float
    xi_ef: float
    delta_q_bound: float
    xi_bound_min: float
    xi_bound_avg: float


# ---------------------------------------------------------------------------
# error functionals


def delta_q(decoder: Channel, chan: Channel) -> float:
    """Decoding error for quantum information.

    Half the trace distance between the maximally entangled state on A (x) R
    and its image under encode-then-decode, evaluated by propagating the
    pure-state branches through both Kraus sets.
    """
    d = chan.dim_in
    if decoder.dim_out != d:
        raise ValueError(
            f"decoder output dim {decoder.dim_out} != channel input dim {d}"
        )
    if decoder.dim_in != chan.dim_out:
        raise ValueError(
            f"decoder input dim {decoder.dim_in} != channel output dim "
            f"{chan.dim_out}"
        )
    kx = chan.kraus @ max_entangled_vector(d).reshape(d, d)
    # branch (k, h) is H_h K_k phi, all of them in one contraction
    y = np.einsum(
        "hac,kcb->khab", decoder.kraus, kx, optimize=True
    ).reshape(-1, d * d)
    out = Operator(y.T @ y.conj(), (d, d), (d, d))
    return trace_distance(max_entangled(d), out)


def delta_cl(povm: Povm, chan: Channel, basis: OrthoBasis) -> float:
    """Decoding error for classical information in a basis.

    Average probability, over uniformly chosen basis labels, that measuring
    ``T(|i><i|)`` with the POVM reports a different label.
    """
    d = basis.dim
    if povm.n_outcomes != d:
        raise ValueError(
            f"POVM has {povm.n_outcomes} outcomes, basis has {d} vectors"
        )
    return cross_overlap(basis_outputs(chan, basis), povm.elements) / d


def delta_cl_tracenorm(povm: Povm, chan: Channel, basis: OrthoBasis) -> float:
    """Trace-norm form of the classical decoding error.

    Half the trace distance between the maximally correlated state (conjugate
    basis on the reference factor) and its image under the channel followed
    by the measure-and-prepare map of the POVM.
    """
    omega = max_correlated_classical(basis, conjugate_second=True)
    after = apply_channel(chan, omega, targets=[0])
    # the readout measures C as one factor
    dims = (chan.dim_out, basis.dim)
    after = Operator(after.data, dims, dims)
    back = apply_channel(povm_channel(povm, basis), after, targets=[0])
    return trace_distance(omega, back)


# ---------------------------------------------------------------------------
# construction


def _dilation_terms(
    ks: np.ndarray, m_e: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The E-POVM's dilation on the branch matrix ``B = [K_n|a>]``.

    Returns ``Y_j = M_E,j B`` as ``y[j, c, n, a]`` and the traced-out term
    ``q[j, a, k, b] = delta_jk tr(M_E,j X) - tr(M_E,k M_E,j X)`` for
    ``X = sum_n K_n|a><b|K_n^dag``.  That term is what undoing the dilation
    leaves outside its range, ``tr(V^dag P_k (I - V V^dag) P_j V X)``,
    written with ``V^dag P_k P_j V = delta_jk M_E,j``.
    """
    n_kraus, dc, d_in = ks.shape
    d = m_e.shape[0]
    b = ks.transpose(1, 0, 2).reshape(dc, n_kraus * d_in)
    y = (m_e @ b).reshape(d, dc, n_kraus, d_in)
    q = -np.einsum("jcna,kcnb->jakb", y, y.conj(), optimize=True)
    diag = np.einsum("jcna,ncb->jab", y, ks.conj(), optimize=True)
    q[np.arange(d), :, np.arange(d), :] += diag
    return y, q


def _check_povms(d: int, dc: int, *povms: Povm) -> None:
    """Each POVM needs one outcome per basis vector, on the channel output."""
    for povm in povms:
        if povm.n_outcomes != d or povm.dim != dc:
            raise ValueError(
                f"POVM has {povm.n_outcomes} outcomes on dim {povm.dim}; need "
                f"{d} outcomes on the channel's output dim {dc}"
            )


def _check_r_marginal(rho: np.ndarray, what: str, tols: Tolerances) -> None:
    """``rho[x, a, z, b]`` on (output, R) must have R-marginal ``I / dim R``
    within ``tols.compose_tp``: ``what`` preserves the trace of the channel
    outputs."""
    d_in = rho.shape[1]
    err = np.max(np.abs(np.einsum("xaxb->ab", rho) - np.eye(d_in) / d_in))
    if err > tols.compose_tp:
        raise ValueError(
            f"{what} does not preserve the trace of the channel outputs "
            f"(error {err:.3e})"
        )


def coherent_state(
    chan: Channel,
    povm_e: Povm,
    e_basis: OrthoBasis,
    tols: Tolerances = DEFAULT_TOLS,
) -> Operator:
    """``(C o T (x) id_R)(Phi)`` on ``(C, A, R)`` for the coherent
    measurement ``C`` of ``povm_e`` that stores its outcome in ``e_basis``.

    Undoing the dilation as far as possible, with ``e0' = |0>`` of C,
    leaves ``C: C -> C (x) A`` in closed form:

        ``C(X) = sum_jj' M_j X M_j' (x) |j_E><j'_E|
        + |0><0| (x) sum_jj' [delta_jj' tr(M_j X) - tr(M_j' M_j X)]
        |j_E><j'_E|``.

    The first term is the measured branch, one Gram matrix of the rotated
    ``Y_j = M_E,j B``; the second is the traced-out term of
    :func:`ctoq_delta_q`, put on ``|0>``.  No dilation is built.
    """
    d, dc = e_basis.dim, chan.dim_out
    _check_povms(d, dc, povm_e)
    ks = chan.kraus
    n_kraus, _, d_in = ks.shape
    y, q = _dilation_terms(ks, povm_e.elements)
    u = e_basis.matrix
    # w[(c, x, a), n] = <c| sum_j u[x, j] M_E,j K_n |a>
    w = np.einsum("xj,jcna->cxan", u, y, optimize=True).reshape(-1, n_kraus)
    rho = (w @ w.conj().T).reshape(dc, d, d_in, dc, d, d_in)
    rho[0, :, :, 0] += np.einsum(
        "xj,jakb,zk->xazb", u, q, u.conj(), optimize=True
    )
    rho = rho.reshape(dc * d, d_in, dc * d, d_in) / d_in
    _check_r_marginal(rho, "coherent measurement", tols)
    dims = chan.out_dims + (d,) + chan.in_dims
    return Operator(rho.reshape(dc * d * d_in, -1), dims, dims)


def _ctoq_state(
    chan: Channel,
    povm_e: Povm,
    povm_f: Povm,
    e_basis: OrthoBasis,
    f_basis: OrthoBasis,
    tols: Tolerances = DEFAULT_TOLS,
) -> np.ndarray:
    """``(D o T (x) id_R)(Phi)`` for the decoder ``D`` of :func:`ctoq_delta_q`.

    ``Phi`` is maximally entangled on two copies of the channel's input
    space R; the result is a ``(d dim R) x (d dim R)`` matrix on
    ``A (x) R``.  With ``T`` the identity on C it is the Choi matrix of
    ``D`` over ``dim C``, which fixes ``D`` on all of C.  The R-marginal must
    be ``I / dim R`` within ``tols.compose_tp``: the decoder preserves the
    trace of the channel's outputs.
    """
    d = e_basis.dim
    if f_basis.dim != d:
        raise ValueError("bases must share a dimension")
    dc = chan.dim_out
    _check_povms(d, dc, povm_e, povm_f)
    d_in = chan.dim_in
    m_f = povm_f.elements
    y, q = _dilation_terms(chan.kraus, povm_e.elements)
    # Z_lj = M_F,l Y_j; traces against X = sum_n K_n|a><b|K_n^dag,
    # contracted over (C, n): p[l, j, a, k, b] = tr(M_F,l M_E,j X M_E,k)
    z = (m_f[:, None] @ y.reshape(1, d, dc, -1)).reshape((d,) + y.shape)
    p = np.einsum("ljcna,kcnb->ljakb", z, y.conj(), optimize=True)
    c = m_f[:, 0, 0].real
    g = p + c[:, None, None, None, None] * q

    u = e_basis.matrix
    phases = np.exp(1j * np.angle(u.conj().T @ f_basis.matrix))  # [j, l]
    h = np.einsum("jl,ljayb,yl->jayb", phases, g, phases.conj())
    rho = np.einsum("xj,jayb,zy->xazb", u, h, u.conj(), optimize=True) / d_in
    _check_r_marginal(rho, "decoder", tols)
    return rho.reshape(d * d_in, d * d_in)


def ctoq_delta_q(
    chan: Channel,
    povm_e: Povm,
    povm_f: Povm,
    e_basis: OrthoBasis,
    f_basis: OrthoBasis,
    tols: Tolerances = DEFAULT_TOLS,
) -> float:
    """Quantum decoding error of the decoder built from two POVMs.

    The decoder ``D`` is the coherent measurement of ``povm_e`` in
    ``e_basis`` followed by the eraser of ``povm_f``, whose phase correction
    ``Theta_l`` is diagonal in the E basis with the phases of
    ``<j_E|l_F>``.  It is never assembled as a Kraus set.  With
    ``A_l = Theta_l U_E`` and ``c_l = <0|M_F,l|0>`` it acts as

        ``D(X) = sum_l A_l ( [tr(M_F,l M_E,j X M_E,j')]_{jj'}
        + c_l [delta_jj' tr(M_E,j X) - tr(M_E,j' M_E,j X)]_{jj'} ) A_l^dag``.

    The first term is the measured branch.  The second is the part that
    undoing the dilation leaves outside its range, as in
    :func:`coherent_state`.  It sits on the dilation's fixed vector
    ``e0' = |0>`` of C, and the eraser then measures ``e0'``, so ``c_l``
    reads the ``(0, 0)`` entry of ``M_F,l``.
    A compression of C onto the span of the channel outputs has to keep
    ``e0'`` as its index 0, or ``c_l`` changes; the one the Hayden-Preskill
    trials use, :func:`ctoq.qcore.output_span_channel`, does.
    ``A_l = U_E diag(phase(U_E^dag f_l))`` needs no ``d x d`` product.

    Every ``X = K_n|a><a'|K_n^dag`` enters through the branch matrix
    ``B = [K_n|a>]``: two batched products ``Y_j = M_E,j B`` and
    ``M_F,l Y_j`` and three contractions over ``(C, n)`` give all three
    traces on the ``d^2 x d^2`` state ``(D o T (x) id)(Phi)``.  The error is
    its trace distance to the maximally entangled state ``Phi``.
    """
    d = e_basis.dim
    if chan.dim_in != d:
        raise ValueError(f"basis dim {d} != channel input dim {chan.dim_in}")
    rho = _ctoq_state(chan, povm_e, povm_f, e_basis, f_basis, tols)
    return trace_distance(max_entangled(d), Operator(rho, (d, d), (d, d)))


# ---------------------------------------------------------------------------
# complementarity defect and bounds


def _overlap_fidelities(e_basis: OrthoBasis, f_basis: OrthoBasis) -> np.ndarray:
    d = e_basis.dim
    unif = ProbDist(np.full(d, 1.0 / d))
    return np.array(
        [
            bhattacharyya(unif, overlap_distribution(e_basis, f_basis, l))
            for l in range(d)
        ]
    )


def xi_ef(
    chan: Channel,
    povm_f: Povm,
    e_basis: OrthoBasis,
    f_basis: OrthoBasis,
) -> float:
    """Complementarity defect of the basis pair, weighted by the channel.

    ``1 - sum_l tr[T(pi) M_l] F_BC(unif, p_l)`` where ``p_l`` is the overlap
    distribution of the l-th f-vector over the e-basis.  Zero exactly when
    the bases are mutually unbiased.
    """
    d = e_basis.dim
    pi = Operator(np.eye(d) / d, (d,), (d,))
    tau_pi = apply_channel(chan, pi)
    fids = _overlap_fidelities(e_basis, f_basis)
    q = np.array(
        [
            float(np.einsum("ij,ji->", tau_pi.data, m).real)
            for m in povm_f.elements
        ]
    )
    return float(1.0 - np.dot(q, fids))


def xi_bounds(
    chan: Channel,
    povm_f: Povm,
    e_basis: OrthoBasis,
    f_basis: OrthoBasis,
) -> tuple[float, float]:
    """Computable upper bounds on the complementarity defect.

    Returns ``(1 - min_l F_l, 1 - mean_l F_l + delta_cl_f (max F - min F))``;
    the second is tighter when the eraser POVM errs rarely.
    """
    fids = _overlap_fidelities(e_basis, f_basis)
    bound_min = float(1.0 - fids.min())
    d_f = delta_cl(povm_f, chan, f_basis)
    bound_avg = float(1.0 - fids.mean() + d_f * (fids.max() - fids.min()))
    return bound_min, bound_avg


def error_report(
    chan: Channel,
    povm_e: Povm,
    povm_f: Povm,
    e_basis: OrthoBasis,
    f_basis: OrthoBasis,
    tols: Tolerances = DEFAULT_TOLS,
) -> ErrorReport:
    """Evaluate the decoder's error against the three-term bound.

    The bound is ``sqrt(de (2 - de)) + sqrt(df) + sqrt(xi)`` with ``de``,
    ``df`` the classical errors of the two POVMs and ``xi`` the
    complementarity defect.  Swapping the roles of (E, F) generally changes
    both the decoder and the bound.
    """
    dq = ctoq_delta_q(chan, povm_e, povm_f, e_basis, f_basis, tols)
    de = delta_cl(povm_e, chan, e_basis)
    df = delta_cl(povm_f, chan, f_basis)
    xi = xi_ef(chan, povm_f, e_basis, f_basis)
    bound = (
        math.sqrt(max(de * (2.0 - de), 0.0))
        + math.sqrt(max(df, 0.0))
        + math.sqrt(max(xi, 0.0))
    )
    b_min, b_avg = xi_bounds(chan, povm_f, e_basis, f_basis)
    return ErrorReport(dq, de, df, xi, bound, b_min, b_avg)


# ---------------------------------------------------------------------------
# decoder-derived POVMs and the noisy GHZ diagnostic


def povm_from_decoder(decoder: Channel, basis: OrthoBasis) -> Povm:
    """POVM obtained by decoding and then measuring in a basis.

    ``M_j`` is the adjoint image of ``|j_W><j_W|`` under the decoder; its
    classical error never exceeds the decoder's quantum error.
    """
    d = basis.dim
    if decoder.dim_out != d:
        raise ValueError("decoder output dim must match the basis dim")
    ks = decoder.kraus
    elements = []
    for j in range(d):
        x = np.einsum("noi,o->ni", ks.conj(), basis.column(j))
        m = x.T @ x.conj()
        elements.append((m + m.conj().T) / 2)
    return Povm(elements)


def noisy_ghz_state(chan: Channel, e_basis: OrthoBasis) -> Operator:
    """Three-party reference state for the coherent-measurement diagnostic.

    ``d^{-1} sum_{j,i} |j*><i*|_R (x) T(|j><i|)_C (x) |j><i|_A`` in the given
    basis; when the basis information survives the channel perfectly this is
    exactly the coherent measurement's output on half of a maximally
    entangled state (with subsystems reordered to (C, A, R))."""
    d = e_basis.dim
    ks = chan.kraus
    u = e_basis.matrix
    ys = np.einsum("noi,ij->njo", ks, u)  # ys[n, j] = K_n |j_E>
    dc = chan.dim_out
    dim = d * dc * d
    out = np.zeros((dim, dim), dtype=np.complex128)
    for j in range(d):
        for i in range(d):
            t_ji = np.einsum("no,np->op", ys[:, j], ys[:, i].conj())
            r_part = np.outer(u[:, j].conj(), u[:, i])
            a_part = np.outer(u[:, j], u[:, i].conj())
            out += np.kron(np.kron(r_part, t_ji), a_part)
    dims = (d,) + chan.out_dims + (d,)
    return Operator(out / d, dims, dims)
