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

The resulting decoding error for quantum information is controlled by the
two classical errors plus a complementarity defect of the basis pair,
evaluated here along with its computable upper bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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
    "CtoQDecoder",
    "ErrorReport",
    "delta_q",
    "delta_cl",
    "delta_cl_tracenorm",
    "naimark_extend",
    "build_coherent_measurement",
    "build_theta",
    "build_eraser",
    "build_ctoq",
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


@dataclass(frozen=True, eq=False)
class CtoQDecoder:
    """Assembled decoder: the composite channel C -> A and the eraser's
    phase corrections ``Theta_l``.

    ``total`` acts as the eraser after the coherent measurement but carries
    a directly assembled, smaller Kraus set; the two stage channels are
    never built.
    """

    total: Channel
    thetas: tuple[Operator, ...]


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


def _coherent_kraus(
    ext: NaimarkExtension, e_basis: OrthoBasis
) -> tuple[list[np.ndarray], np.ndarray]:
    """Kraus data of the coherent measurement, environment sliced smartly.

    The dilation is undone by ``V^dag (x) |e0> + |e0'> (x) (I - V V^dag)``
    with ``e0`` in the range of ``V`` and ``e0' = |0>``.  Tracing out C' in
    the orthonormal basis {e0} + basis(range(V)^perp) (the remaining
    directions contribute zero) yields one Kraus operator
    ``sum_j M_j (x) |j_E>`` plus, for each direction ``b`` orthogonal to the
    isometry's range, a rank-one-in-C operator ``|e0'> (x) w_b`` with
    ``w_b = sum_j |j_E><b| P_j V``.  Any in-range ``e0`` traces out
    identically.  Returns the POVM elements ``M_j = V^dag P_j V`` and the
    stacked ``w_b`` (nb, d, dC).
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
    ms = [r.conj().T @ r for r in roots]

    comp = _range_complement(v)  # orthonormal basis of range(V)^perp
    if comp.shape[1]:
        t = np.stack([comp[j::d].conj().T @ r for j, r in enumerate(roots)])
        w = np.einsum("aj,jbc->bac", u, t)  # (nb, d, dc)
    else:
        w = np.zeros((0, d, dc), dtype=np.complex128)
    return ms, w


def build_coherent_measurement(
    ext: NaimarkExtension,
    e_basis: OrthoBasis,
    tols: Tolerances = DEFAULT_TOLS,
) -> Channel:
    """Channel C -> C (x) A that coherently measures C and stores the
    outcome in A in the given basis, undoing the dilation with
    ``e0' = |0>`` (see :func:`_coherent_kraus`)."""
    ms, w = _coherent_kraus(ext, e_basis)
    nb, d, dc = w.shape
    ks = np.zeros((1 + nb, dc, d, dc), dtype=np.complex128)
    # main operator: ks[0][c, a, c'] = sum_j ms[j][c, c'] u[a, j]
    ks[0] = np.einsum("jcp,aj->cap", np.stack(ms), e_basis.matrix)
    ks[1:, 0] = w  # rank-one family |e0'> (x) w_b
    cdims = ext.isometry.col_dims
    ks = ks.reshape(1 + nb, dc * d, dc)
    return channel(ks, cdims, cdims + (d,), tp_tol=tols.channel_tp, tols=tols)


def build_theta(e_basis: OrthoBasis, f_basis: OrthoBasis, l: int) -> Operator:
    """Eraser phase correction: diagonal in the e-basis, with the phase of
    each overlap ``<j_e|l_f>`` (zero overlaps contribute phase 0)."""
    if e_basis.dim != f_basis.dim:
        raise ValueError("bases must share a dimension")
    amps = e_basis.matrix.conj().T @ f_basis.column(l)
    phases = np.exp(1j * np.angle(amps))
    u = e_basis.matrix
    return Operator(
        (u * phases) @ u.conj().T, (e_basis.dim,), (e_basis.dim,)
    )


def build_eraser(
    povm_f: Povm,
    thetas: Sequence[Operator],
    tols: Tolerances = DEFAULT_TOLS,
) -> Channel:
    """Channel C (x) A -> A: measure C with the POVM, apply the matching
    phase correction to A, discard C."""
    if len(thetas) != povm_f.n_outcomes:
        raise ValueError("need one phase correction per POVM outcome")
    d = thetas[0].dim_row
    dc = povm_f.dim
    cdims = povm_f.elements[0].row_dims
    ks = []
    for m_el, th in zip(povm_f, thetas):
        root = sqrtm_psd(m_el.data, tols)
        # K_{l,m}[a, (c, b)] = Theta_l[a, b] root[m, c]
        block = np.einsum("mc,ab->macb", root, th.data)
        ks.extend(block.reshape(dc, d, dc * d))
    return channel(ks, cdims + (d,), (d,), tp_tol=tols.channel_tp, tols=tols)


def build_ctoq(
    povm_e: Povm,
    povm_f: Povm,
    e_basis: OrthoBasis,
    f_basis: OrthoBasis,
    tols: Tolerances = DEFAULT_TOLS,
) -> CtoQDecoder:
    """Assemble the full decoder from the two POVMs and their bases.

    The composite of the coherent measurement and the eraser is built
    directly by fusing the eraser with the coherent measurement's Kraus
    structure: the rank-one-in-C Kraus family collapses under the eraser's
    partial trace, which keeps the composite Kraus set at ``d * (dC + nb)``
    operators instead of the naive pairwise product.
    """
    d = e_basis.dim
    if f_basis.dim != d:
        raise ValueError("bases must share a dimension")
    if povm_e.n_outcomes != d or povm_f.n_outcomes != d:
        raise ValueError("both POVMs need one outcome per basis vector")

    ext = naimark_extend(povm_e, tols)
    ms_e, w = _coherent_kraus(ext, e_basis)
    nb, _, dc = w.shape
    thetas = tuple(build_theta(e_basis, f_basis, l) for l in range(d))

    u = e_basis.matrix
    ks = np.empty((d, dc + nb, d, dc), dtype=np.complex128)
    for l in range(d):
        m_f = povm_f.elements[l].data
        root_f = sqrtm_psd(m_f, tols)
        wu = thetas[l].data @ u
        # main family: Theta_l U_E stack_j(<m| sqrt(M_F,l) M_E,j)
        z = np.stack([root_f @ mj for mj in ms_e])  # (d, dC_m, dC)
        ks[l, :dc] = np.einsum("ab,bmc->mac", wu, z)
        # rank-one family: the eraser's C-trace collapses every slice of
        # |e0'> = |0> to the single weight <0| M_F,l |0>
        amp = math.sqrt(max(float(m_f[0, 0].real), 0.0))
        ks[l, dc:] = amp * np.einsum("ab,nbc->nac", thetas[l].data, w)
    ks = ks.reshape(d * (dc + nb), d, dc)
    cdims = ext.isometry.col_dims
    total = channel(ks, cdims, (d,), tp_tol=tols.compose_tp, tols=tols)
    return CtoQDecoder(total, thetas)


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
    """Build the decoder and evaluate its error against the three-term bound.

    The bound is ``sqrt(de (2 - de)) + sqrt(df) + sqrt(xi)`` with ``de``,
    ``df`` the classical errors of the two POVMs and ``xi`` the
    complementarity defect.  Swapping the roles of (E, F) generally changes
    both the decoder and the bound.
    """
    dec = build_ctoq(povm_e, povm_f, e_basis, f_basis, tols)
    dq = delta_q(dec.total, chan)
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
