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
    "build_v_inv",
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


class CtoQDecoder:
    """Assembled decoder with its two stages and working parts.

    ``total`` acts identically to ``compose(eraser, coherent)`` but carries a
    directly assembled, smaller Kraus set.  The stage channels ``coherent``
    and ``eraser`` are built on first access; evaluating the composite never
    materializes them.
    """

    def __init__(
        self,
        total: Channel,
        e_basis: OrthoBasis,
        f_basis: OrthoBasis,
        thetas: tuple[Operator, ...],
        extension: NaimarkExtension,
        povm_f: Povm,
        tols: Tolerances = DEFAULT_TOLS,
    ) -> None:
        self.total = total
        self.e_basis = e_basis
        self.f_basis = f_basis
        self.thetas = thetas
        self.extension = extension
        self._povm_f = povm_f
        self._tols = tols
        self._coherent: Channel | None = None
        self._eraser: Channel | None = None

    @property
    def coherent(self) -> Channel:
        """Stage one: C -> C (x) A coherent measurement channel."""
        if self._coherent is None:
            self._coherent = build_coherent_measurement(
                self.extension, self.e_basis, tols=self._tols
            )
        return self._coherent

    @property
    def eraser(self) -> Channel:
        """Stage two: C (x) A -> A measure-and-phase-correct channel."""
        if self._eraser is None:
            self._eraser = build_eraser(self._povm_f, self.thetas, self._tols)
        return self._eraser


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
    kx = chan.kraus_stack() @ max_entangled_vector(d).reshape(d, d)
    # branch (k, h) is H_h K_k phi, all of them in one contraction
    y = np.einsum(
        "hac,kcb->khab", decoder.kraus_stack(), kx, optimize=True
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


def build_v_inv(
    ext: NaimarkExtension,
    e0: np.ndarray,
    e0p: np.ndarray,
    tols: Tolerances = DEFAULT_TOLS,
) -> Operator:
    """Isometry that undoes the dilation as far as possible.

    ``V_inv = V^dag (x) |e0> + |e0'> (x) (I - V V^dag)`` maps C' into
    C (x) C'.  ``e0`` must be a unit vector in the range of the dilation
    isometry; ``e0p`` is any unit vector in C.
    """
    v = ext.isometry.data
    dcp, dc = v.shape
    e0 = np.asarray(e0, dtype=np.complex128).reshape(dcp)
    e0p = np.asarray(e0p, dtype=np.complex128).reshape(dc)
    for name, vec in (("e0", e0), ("e0p", e0p)):
        if abs(np.linalg.norm(vec) - 1.0) > tols.isometry:
            raise ValueError(f"{name} is not a unit vector")
    proj = v @ v.conj().T
    if np.linalg.norm(e0 - proj @ e0) > tols.isometry:
        raise ValueError("e0 is not in the range of the dilation isometry")
    vinv = np.kron(v.conj().T, e0.reshape(-1, 1)) + np.kron(
        e0p.reshape(-1, 1), np.eye(dcp) - proj
    )
    out = Operator(
        vinv, ext.isometry.col_dims + ext.isometry.row_dims, ext.isometry.row_dims
    )
    err = np.max(np.abs(vinv.conj().T @ vinv - np.eye(dcp)))
    if err > tols.isometry:
        raise ValueError(f"inverse map is not an isometry (error {err:.3e})")
    return out


def _range_complement(v: np.ndarray) -> np.ndarray:
    """Orthonormal basis of range(v)^perp for an isometry v, via full QR."""
    q = np.linalg.qr(v, mode="complete")[0]
    return q[:, v.shape[1] :]


def _coherent_kraus(
    ext: NaimarkExtension,
    e_basis: OrthoBasis,
    e0: np.ndarray | None,
    e0p: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[np.ndarray]]:
    """Kraus data of the coherent measurement, environment sliced smartly.

    Tracing out C' in the orthonormal basis {e0} + basis(range(V)^perp)
    (the remaining directions contribute zero) yields one Kraus operator
    ``sum_j M_j (x) |j_E>`` plus, for each direction ``b`` orthogonal to the
    isometry's range, a rank-one-in-C operator ``|e0'> (x) w_b`` with
    ``w_b = sum_j |j_E><b| P_j V``.  Returns the main Kraus operator, the
    stacked ``w_b`` (nb, d, dC), the vector e0p, and the POVM elements.
    """
    v = ext.isometry.data
    dcp, dc = v.shape
    d = ext.n_outcomes
    if e_basis.dim != d:
        raise ValueError(
            f"basis dim {e_basis.dim} != number of outcomes {d}"
        )
    if e0 is None:
        e0 = v[:, 0]
    else:
        e0 = np.asarray(e0, dtype=np.complex128).reshape(dcp)
        proj = v @ v.conj().T
        if np.linalg.norm(e0 - proj @ e0) > DEFAULT_TOLS.isometry:
            raise ValueError("e0 is not in the range of the dilation isometry")
    if e0p is None:
        e0p = np.zeros(dc, dtype=np.complex128)
        e0p[0] = 1.0
    else:
        e0p = np.asarray(e0p, dtype=np.complex128).reshape(dc)

    u = e_basis.matrix
    roots = [v[j::d] for j in range(d)]  # nonzero rows of P_j V
    ms = [r.conj().T @ r for r in roots]  # POVM elements V^dag P_j V
    # k_main[(c, a), c'] = sum_j ms[j][c, c'] u[a, j]
    k_main = np.einsum("jcp,aj->cap", np.stack(ms), u).reshape(dc * d, dc)

    comp = _range_complement(v)  # orthonormal basis of range(V)^perp
    if comp.shape[1]:
        t = np.stack([comp[j::d].conj().T @ r for j, r in enumerate(roots)])
        w = np.einsum("aj,jbc->bac", u, t)  # (nb, d, dc)
    else:
        w = np.zeros((0, d, dc), dtype=np.complex128)
    return k_main, w, e0p, ms


def _rank_one_kraus(e0p: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Stacked operators ``|e0'> (x) w_b``: (nb, dC*d, dC)."""
    nb, d, dc = w.shape
    out = e0p[None, :, None, None] * w[:, None, :, :]
    return out.reshape(nb, dc * d, dc)


def build_coherent_measurement(
    ext: NaimarkExtension,
    e_basis: OrthoBasis,
    e0: np.ndarray | None = None,
    e0p: np.ndarray | None = None,
    tols: Tolerances = DEFAULT_TOLS,
) -> Channel:
    """Channel C -> C (x) A that coherently measures C and stores the
    outcome in A in the given basis.

    Defaults fix ``e0`` to the image of the first computational vector of C
    under the dilation isometry and ``e0p`` to the first computational
    vector of C, making runs reproducible.  The channel itself depends only
    on ``e0p``: the undo isometry routes the in-range and out-of-range parts
    of the dilation space to orthogonal environment sectors, so any in-range
    ``e0`` traces out identically.
    """
    k_main, w, e0p_vec, _ = _coherent_kraus(ext, e_basis, e0, e0p)
    d = ext.n_outcomes
    cdims = ext.isometry.col_dims
    ks = [k_main, *_rank_one_kraus(e0p_vec, w)]
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

    Besides the two stage channels, the composite is built directly by
    fusing the eraser with the coherent measurement's Kraus structure: the
    rank-one-in-C Kraus family collapses under the eraser's partial trace,
    which keeps the composite Kraus set at ``d * (dC + nb)`` operators
    instead of the naive pairwise product.
    """
    d = e_basis.dim
    if f_basis.dim != d:
        raise ValueError("bases must share a dimension")
    if povm_e.n_outcomes != d or povm_f.n_outcomes != d:
        raise ValueError("both POVMs need one outcome per basis vector")

    ext = naimark_extend(povm_e, tols)
    k_main, w, e0p_vec, ms_e = _coherent_kraus(ext, e_basis, None, None)
    cdims = ext.isometry.col_dims

    thetas = tuple(build_theta(e_basis, f_basis, l) for l in range(d))

    u = e_basis.matrix
    total_ks = []
    for l in range(d):
        root_f = sqrtm_psd(povm_f.elements[l].data, tols)
        wu = thetas[l].data @ u
        # main family: Theta_l U_E stack_j(<m| sqrt(M_F,l) M_E,j)
        z = np.stack([root_f @ mj for mj in ms_e])  # (d, dC_m, dC)
        total_ks.extend(np.einsum("ab,bmc->mac", wu, z))
        if w.shape[0]:
            # rank-one family: the eraser's C-trace collapses every slice of
            # |e0'> to the single weight <e0'| M_F,l |e0'>
            c_l = float(
                (e0p_vec.conj() @ (povm_f.elements[l].data @ e0p_vec)).real
            )
            amp = math.sqrt(max(c_l, 0.0))
            total_ks.extend(amp * np.einsum("ab,nbc->nac", thetas[l].data, w))
    total = channel(total_ks, cdims, (d,), tp_tol=tols.compose_tp, tols=tols)

    return CtoQDecoder(total, e_basis, f_basis, thetas, ext, povm_f, tols)


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
    ks = decoder.kraus_stack()
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
    ks = chan.kraus_stack()
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
