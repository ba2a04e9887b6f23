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
The coherent measurement itself is built as a channel for the three-party
diagnostic.  The decoding error is controlled by the two classical errors
plus a complementarity defect of the basis pair, evaluated here along with
its computable upper bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .linop import Operator, sqrtm_psd, trace_distance
from .qcore import (
    Channel,
    OrthoBasis,
    Povm,
    apply_channel,
    basis_outputs,
    bhattacharyya,
    channel,
    cross_overlap,
    max_correlated_classical,
    max_entangled,
    max_entangled_vector,
    overlap_distribution,
    povm_channel,
    ProbDist,
)

__all__ = [
    "NaimarkExtension",
    "ErrorReport",
    "delta_q",
    "delta_cl",
    "delta_cl_tracenorm",
    "naimark_extend",
    "build_coherent_measurement",
    "ctoq_delta_q",
    "xi_ef",
    "xi_bounds",
    "error_report",
    "povm_from_decoder",
    "noisy_ghz_state",
]


@dataclass(frozen=True, eq=False)
class NaimarkExtension:
    """Dilation of a POVM to a projective measurement on a larger space.

    ``isometry`` maps the measured space C into the dilation space
    C' = C (x) (outcome register), whose last factor holds the outcome.  The
    projective measurement is ``P_j = I (x) |j><j|``, so ``P_j V`` is the
    row slice ``V[j::n_outcomes]``; it pulls back through the isometry to
    the source POVM element ``M_j``.
    """

    isometry: Operator

    def __post_init__(self) -> None:
        v = self.isometry.data
        err = np.max(np.abs(v.conj().T @ v - np.eye(v.shape[1])))
        if err > DEFAULT_TOLS.isometry:
            raise ValueError(f"dilation map is not an isometry (error {err:.3e})")

    @property
    def n_outcomes(self) -> int:
        return self.isometry.row_dims[-1]


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
    return cross_overlap(basis_outputs(chan, basis), povm.element_stack()) / d


def delta_cl_tracenorm(povm: Povm, chan: Channel, basis: OrthoBasis) -> float:
    """Trace-norm form of the classical decoding error.

    Half the trace distance between the maximally correlated state (conjugate
    basis on the reference factor) and its image under the channel followed
    by the measure-and-prepare map of the POVM.
    """
    omega = max_correlated_classical(basis, conjugate_second=True)
    after = apply_channel(chan, omega, targets=[0])
    readout = povm_channel(povm, basis)
    back = apply_channel(readout, after, targets=list(range(len(chan.out_dims))))
    return trace_distance(omega, back)


# ---------------------------------------------------------------------------
# construction


def naimark_extend(povm: Povm, tols: Tolerances = DEFAULT_TOLS) -> NaimarkExtension:
    """Canonical dilation ``V = sum_j sqrt(M_j) (x) |j>`` of a POVM.

    The dilation space is C (x) (outcome register); the projections are
    ``I (x) |j><j|``, and ``V^dag P_j V`` must give back ``M_j``.
    """
    m = povm.n_outcomes
    dc = povm.dim
    cdims = povm.elements[0].row_dims
    v = np.zeros((dc * m, dc), dtype=np.complex128)
    for j, el in enumerate(povm):
        v[j::m, :] = sqrtm_psd(el.data, tols)
    ext = NaimarkExtension(Operator(v, cdims + (m,), cdims))
    for j, el in enumerate(povm):
        rec = v[j::m].conj().T @ v[j::m]
        err = np.max(np.abs(rec - el.data))
        if err > tols.naimark:
            raise ValueError(f"dilation does not reproduce element {j} ({err:.3e})")
    return ext


def _range_complement(v: np.ndarray) -> np.ndarray:
    """Orthonormal basis of range(v)^perp for an isometry v, via full QR."""
    q = np.linalg.qr(v, mode="complete")[0]
    return q[:, v.shape[1] :]


def build_coherent_measurement(
    ext: NaimarkExtension,
    e_basis: OrthoBasis,
    tols: Tolerances = DEFAULT_TOLS,
) -> Channel:
    """Channel C -> C (x) A that coherently measures C and stores the
    outcome in A in the given basis.

    The dilation is undone by ``V^dag (x) |e0> + |e0'> (x) (I - V V^dag)``
    with ``e0`` in the range of ``V`` and ``e0' = |0>``.  Tracing out C' in
    the orthonormal basis {e0} + basis(range(V)^perp) (the remaining
    directions contribute zero) yields one Kraus operator
    ``sum_j M_j (x) |j_E>`` plus, for each direction ``b`` orthogonal to the
    isometry's range, a rank-one-in-C operator ``|e0'> (x) w_b`` with
    ``w_b = sum_j |j_E><b| P_j V``.  Any in-range ``e0`` traces out
    identically.
    """
    v = ext.isometry.data
    dc = v.shape[1]
    d = ext.n_outcomes
    if e_basis.dim != d:
        raise ValueError(
            f"basis dim {e_basis.dim} != number of outcomes {d}"
        )
    u = e_basis.matrix
    roots = [v[j::d] for j in range(d)]  # nonzero rows of P_j V
    comp = _range_complement(v)  # orthonormal basis of range(V)^perp
    nb = comp.shape[1]
    ks = np.zeros((1 + nb, dc, d, dc), dtype=np.complex128)
    # main operator: ks[0][c, a, c'] = sum_j M_j[c, c'] u[a, j]
    ms = np.stack([r.conj().T @ r for r in roots])
    ks[0] = np.einsum("jcp,aj->cap", ms, u)
    # rank-one family |e0'> (x) w_b
    t = np.stack([comp[j::d].conj().T @ r for j, r in enumerate(roots)])
    ks[1:, 0] = np.einsum("aj,jbc->bac", u, t)
    cdims = ext.isometry.col_dims
    ks = ks.reshape(1 + nb, dc * d, dc)
    return channel(ks, cdims, cdims + (d,), tp_tol=tols.channel_tp, tols=tols)


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
    if povm_e.n_outcomes != d or povm_f.n_outcomes != d:
        raise ValueError("both POVMs need one outcome per basis vector")
    dc = chan.dim_out
    if povm_e.dim != dc or povm_f.dim != dc:
        raise ValueError(
            f"POVMs act on dim {povm_e.dim}/{povm_f.dim}, channel outputs "
            f"dim {dc}"
        )
    ks = chan.kraus
    n_kraus, _, d_in = ks.shape
    m_e = povm_e.element_stack()
    m_f = povm_f.element_stack()
    # B = [K_n|a>] with columns (n, a); Y_j = M_E,j B; Z_lj = M_F,l Y_j
    b = ks.transpose(1, 0, 2).reshape(dc, n_kraus * d_in)
    y = (m_e @ b).reshape(d, dc, n_kraus, d_in)
    z = (m_f[:, None] @ y.reshape(1, d, dc, -1)).reshape((d,) + y.shape)
    # traces against X = sum_n K_n|a><b|K_n^dag, contracted over (C, n):
    # p[l, j, a, k, b] = tr(M_F,l M_E,j X M_E,k) and
    # q[j, a, k, b] = delta_jk tr(M_E,j X) - tr(M_E,k M_E,j X)
    p = np.einsum("ljcna,kcnb->ljakb", z, y.conj(), optimize=True)
    q = -np.einsum("jcna,kcnb->jakb", y, y.conj(), optimize=True)
    diag = np.einsum("jcna,ncb->jab", y, ks.conj(), optimize=True)
    q[np.arange(d), :, np.arange(d), :] += diag
    c = m_f[:, 0, 0].real
    g = p + c[:, None, None, None, None] * q

    u = e_basis.matrix
    phases = np.exp(1j * np.angle(u.conj().T @ f_basis.matrix))  # [j, l]
    h = np.einsum("jl,ljayb,yl->jayb", phases, g, phases.conj())
    rho = np.einsum("xj,jayb,zy->xazb", u, h, u.conj(), optimize=True) / d_in
    marginal = np.einsum("xaxb->ab", rho)
    err = np.max(np.abs(marginal - np.eye(d_in) / d_in))
    if err > tols.compose_tp:
        raise ValueError(
            f"decoder does not preserve the trace of the channel outputs "
            f"(error {err:.3e})"
        )
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
    undoing the dilation leaves outside its range, ``I - V V^dag``, written
    with ``V^dag P_j' P_j V = delta_jj' M_E,j``.  That part is put on the
    dilation's fixed vector ``e0' = |0>`` of C, and the eraser then
    measures ``e0'``, so ``c_l`` reads the ``(0, 0)`` entry of ``M_F,l``.
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
            float(np.einsum("ij,ji->", tau_pi.data, m.data).real)
            for m in povm_f
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
    cdims = decoder.in_dims
    for j in range(d):
        x = np.einsum("noi,o->ni", ks.conj(), basis.column(j))
        m = x.T @ x.conj()
        elements.append(Operator((m + m.conj().T) / 2, cdims, cdims))
    return Povm(tuple(elements))


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
