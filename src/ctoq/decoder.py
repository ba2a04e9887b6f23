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
the two POVMs' factors.  :func:`ctoq_delta_q` evaluates its quantum
decoding error on the ``d^2 x d^2`` image of a maximally entangled state,
one bilinear form in the channel's branches written in the E-POVM's
factors, without assembling a Kraus set.  :func:`coherent_state` evaluates
the coherent measurement alone in the same coordinates, for the three-party
diagnostic; no dilation is built for either.  The decoding error is
controlled by the two classical errors plus a complementarity defect of the
basis pair, evaluated here along with its computable upper bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLS
from .linop import Operator, pure_state_distance
from .qcore import (
    Channel,
    OrthoBasis,
    Povm,
    max_entangled_vector,
    off_diagonal_sum,
    outcome_weights,
)

__all__ = [
    "ErrorReport",
    "delta_q",
    "delta_cl",
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
    phi = max_entangled_vector(d)
    kx = chan.kraus @ phi.reshape(d, d)
    # branch (k, h) is H_h K_k phi, all of them in one contraction
    y = np.einsum(
        "hac,kcb->khab", decoder.kraus, kx, optimize=True
    ).reshape(-1, d * d)
    return pure_state_distance(phi, y.T @ y.conj())


def delta_cl(povm: Povm, chan: Channel, basis: OrthoBasis) -> float:
    """Decoding error for classical information in a basis.

    Average probability, over uniformly chosen basis labels, that measuring
    ``T(|i><i|)`` with the POVM reports a different label; each
    ``tr[M_j T(|i><i|)]`` is ``||A_j^dag B_i||_F^2`` for the POVM's factors.
    """
    d = basis.dim
    if povm.n_outcomes != d:
        raise ValueError(
            f"POVM has {povm.n_outcomes} outcomes, basis has {d} vectors"
        )
    return off_diagonal_sum(outcome_weights(povm.factors, chan, basis)) / d


# ---------------------------------------------------------------------------
# construction


def _factor_coords(a_e: np.ndarray, *stacks: np.ndarray) -> list[np.ndarray]:
    """Each ``(n, dim C, m)`` stack ``S`` in the E-POVM's factor coordinates,
    ``[j, r, n, a] = (A_E,j^dag S_n)[r, a]``, by one product with the stacked
    ``A_E^dag``: ``z_j = A_E,j^dag B`` for Kraus operators, ``B = [K_n|a>]``;
    the blocks ``A_E,j^dag A_l`` for POVM factors."""
    d, dc, w = a_e.shape
    a_h = a_e.transpose(1, 0, 2).reshape(dc, -1).conj().T
    return [
        (a_h @ s.transpose(1, 0, 2).reshape(dc, -1)).reshape(d, w, *s.shape[::2])
        for s in stacks
    ]


def _bilinear_form(z: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``h[j, a, k, b] = sum_n z_k[:, (n, b)]^dag g_kj z_j[:, (n, a)]`` for a
    kernel ``g`` on rows ``(k, r)`` and columns ``(j, r')``, one E outcome
    ``k`` at a time, so that one ``d^2 n w`` block ``g_k^T z_k^*`` is held."""
    d, w, n_kraus, d_in = z.shape
    zt = z.reshape(d, w * n_kraus, d_in).transpose(0, 2, 1)
    h = np.empty((d, d_in, d, d_in), dtype=np.complex128)
    u = np.empty((d * w, n_kraus * d_in), dtype=np.complex128)
    for k in range(d):
        # u[(j, r'), (n, b)] = sum_r g[(k, r), (j, r')] z[k, r, n, b]^*
        np.matmul(g[k * w : (k + 1) * w].T, z[k].reshape(w, -1).conj(), out=u)
        h[:, :, k] = zt @ u.reshape(d, w * n_kraus, d_in)
    return h


def _check_povms(d: int, dc: int, *povms: Povm) -> None:
    """Each POVM needs one outcome per basis vector, on the channel output."""
    for povm in povms:
        if povm.n_outcomes != d or povm.dim != dc:
            raise ValueError(
                f"POVM has {povm.n_outcomes} outcomes on dim {povm.dim}; need "
                f"{d} outcomes on the channel's output dim {dc}"
            )


def _check_r_marginal(rho: np.ndarray, what: str) -> None:
    """``rho[x, a, z, b]`` on (output, R) must have R-marginal ``I / dim R``
    within ``DEFAULT_TOLS.compose_tp``: ``what`` preserves the trace of the
    channel outputs."""
    d_in = rho.shape[1]
    err = np.max(np.abs(np.einsum("xaxb->ab", rho) - np.eye(d_in) / d_in))
    if not err <= DEFAULT_TOLS.compose_tp:
        raise ValueError(
            f"{what} does not preserve the trace of the channel outputs "
            f"(error {err:.3e})"
        )


def coherent_state(chan: Channel, povm_e: Povm, e_basis: OrthoBasis) -> Operator:
    """``(C o T (x) id_R)(Phi)`` on ``(C, A, R)`` for the coherent
    measurement ``C`` of ``povm_e`` that stores its outcome in ``e_basis``.

    Undoing the dilation as far as possible, with ``e0' = |0>`` of C,
    leaves ``C: C -> C (x) A`` in closed form:

        ``C(X) = sum_jj' M_j X M_j' (x) |j_E><j'_E|
        + |0><0| (x) sum_jj' [delta_jj' tr(M_j X) - tr(M_j' M_j X)]
        |j_E><j'_E|``.

    The first term is the measured branch, one Gram matrix of the rotated
    ``Y_j = M_E,j B = A_E,j z_j``; the second is the form ``z^dag T z`` of
    :func:`ctoq_delta_q`, put on ``|0>``.  No dilation is built.
    """
    d, dc = e_basis.dim, chan.dim_out
    _check_povms(d, dc, povm_e)
    a_e = povm_e.factors
    n_kraus, _, d_in = chan.kraus.shape
    dw = d * a_e.shape[2]
    z, ee = _factor_coords(a_e, chan.kraus, a_e)
    q = _bilinear_form(z, np.eye(dw) - ee.reshape(dw, dw))
    u = e_basis.matrix
    # w[(c, x, a), n] = <c| sum_j u[x, j] A_E,j z_j |(n, a)>
    y = a_e @ z.reshape(*z.shape[:2], -1)
    w = (u @ y.reshape(d, -1)).reshape(d, dc, n_kraus, d_in)
    del y, z
    w = w.transpose(1, 0, 3, 2).reshape(-1, n_kraus)
    rho = (w @ w.conj().T).reshape(dc, d, d_in, dc, d, d_in)
    rho[0, :, :, 0] += np.einsum(
        "xj,jakb,zk->xazb", u, q, u.conj(), optimize=True
    )
    rho = rho.reshape(dc * d, d_in, dc * d, d_in) / d_in
    _check_r_marginal(rho, "coherent measurement")
    dims = chan.out_dims + (d,) + chan.in_dims
    return Operator(rho.reshape(dc * d * d_in, -1), dims, dims)


def _ctoq_state(
    chan: Channel, povm_e: Povm, povm_f: Povm, e_basis: OrthoBasis, f_basis: OrthoBasis
) -> np.ndarray:
    """``(D o T (x) id_R)(Phi)`` for the decoder ``D`` of :func:`ctoq_delta_q`
    in the E frame, ``h / dim R``, a ``(d dim R) x (d dim R)`` matrix on ``A
    (x) R`` for ``Phi`` maximally entangled on two copies of the channel's
    input space R.  Rotated by ``U_E (x) I`` into the lab frame, and with
    ``T`` the identity on C, it is the Choi matrix of ``D``.  Its R-marginal
    must be ``I / dim R`` within ``DEFAULT_TOLS.compose_tp``: ``D``
    preserves the trace of the channel's outputs."""
    d = e_basis.dim
    if f_basis.dim != d:
        raise ValueError("bases must share a dimension")
    dc = chan.dim_out
    _check_povms(d, dc, povm_e, povm_f)
    d_in = chan.dim_in
    a_e, a_f = povm_e.factors, povm_f.factors
    w = a_e.shape[2]
    phases = np.exp(1j * np.angle(e_basis.matrix.conj().T @ f_basis.matrix))
    z, ee, ef = _factor_coords(a_e, chan.kraus, a_e, a_f)
    # the kernel G = R R^dag + (gamma^T (x) 1) o T of ctoq_delta_q
    c = np.sum(np.abs(a_f[:, 0, :]) ** 2, axis=1)
    gamma = (phases * c) @ phases.conj().T
    g = (np.eye(d * w) - ee.reshape(d * w, -1)).reshape(d, w, d, w)
    g *= gamma.T[:, None, :, None]
    r = (ef * phases.conj()[:, None, :, None]).reshape(d * w, -1)
    g = g.reshape(d * w, -1)
    g += r @ r.conj().T
    del ee, ef, r
    h = _bilinear_form(z, g)
    del z, g
    h /= d_in
    _check_r_marginal(h, "decoder")
    return h.reshape(d * d_in, d * d_in)


def ctoq_delta_q(
    chan: Channel, povm_e: Povm, povm_f: Povm, e_basis: OrthoBasis, f_basis: OrthoBasis
) -> float:
    """Quantum decoding error of the decoder built from two POVMs.

    The decoder ``D`` is the coherent measurement of ``povm_e`` in
    ``e_basis`` followed by the eraser of ``povm_f``, whose phase correction
    ``Theta_l`` is diagonal in the E basis with the phases
    ``phi_jl = phase(<j_E|l_F>)``.  It is never assembled as a Kraus set.
    With ``c_l = <0|M_F,l|0>`` it acts as

        ``D(X) = sum_l Theta_l U_E ( [tr(M_F,l M_E,j X M_E,j')]_{jj'}
        + c_l [delta_jj' tr(M_E,j X) - tr(M_E,j' M_E,j X)]_{jj'} )
        U_E^dag Theta_l^dag``.

    The first term is the measured branch.  The second is the part that
    undoing the dilation leaves outside its range, as in
    :func:`coherent_state`, on the dilation's fixed vector ``e0' = |0>`` of
    C, which the eraser then measures.  A compression of C onto the span of
    the channel outputs has to keep ``e0'`` as its index 0, as
    :func:`ctoq.qcore.output_span_channel` does, or ``c_l`` changes.

    ``X = K_n|a><a'|K_n^dag`` enters through the branch matrix ``B =
    [K_n|a>]`` and each element through its factor, ``M_l = A_l A_l^dag``.
    With ``z_j = A^E_j^dag B`` the state ``(D o T (x) id)(Phi)`` is ``(U_E
    (x) I) h (U_E (x) I)^dag / dim R`` for the bilinear form

        ``h[(j, a), (k, b)] = sum_n z_k[:, (n, b)]^dag G_kj z_j[:, (n, a)]``

    with ``G = R R^dag + (gamma^T (x) 1) o T``.  The measured branch is ``R =
    A_E^dag A_F`` with block ``(k, l)`` scaled by ``phi_kl^*``; the
    traced-out kernel ``T = I - A_E^dag A_E``, blocks ``delta_kj I -
    A^E_k^dag A^E_j``, is weighted by ``gamma_jk = sum_l c_l phi_jl
    phi_kl^*`` with ``c_l = ||A^F_l[0, :]||^2``.  No product of two elements
    is formed.  The error is the state's trace distance to ``Phi``, taken in
    the E frame, where :func:`_ctoq_state` returns ``h / dim R``: ``Phi`` is
    rotated to ``(U_E^dag (x) I) Phi`` in place of the state.
    """
    d = e_basis.dim
    if chan.dim_in != d:
        raise ValueError(f"basis dim {d} != channel input dim {chan.dim_in}")
    rho = _ctoq_state(chan, povm_e, povm_f, e_basis, f_basis)
    phi = e_basis.matrix.conj().T @ max_entangled_vector(d).reshape(d, d)
    return pure_state_distance(phi.reshape(-1), rho)


# ---------------------------------------------------------------------------
# complementarity defect and bounds


def _overlap_fidelities(e_basis: OrthoBasis, f_basis: OrthoBasis) -> np.ndarray:
    """Classical fidelities ``F_l = (sum_j sqrt(p_l(j) / d))^2`` of the
    uniform distribution with the overlap distributions ``p_l(j) =
    |<j_E|l_F>|^2``, that is ``(sum_j |<j_E|l_F>|)^2 / d``, from one product
    of the two basis matrices."""
    amps = np.abs(e_basis.matrix.conj().T @ f_basis.matrix)
    return amps.sum(axis=0) ** 2 / e_basis.dim


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
    fids = _overlap_fidelities(e_basis, f_basis)
    # tr[T(pi) M_l] is the mean over any basis of tr[T(|i><i|) M_l]
    q = outcome_weights(povm_f.factors, chan, e_basis).mean(axis=1)
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
    chan: Channel, povm_e: Povm, povm_f: Povm, e_basis: OrthoBasis, f_basis: OrthoBasis
) -> ErrorReport:
    """Evaluate the decoder's error against the three-term bound.

    The bound is ``sqrt(de (2 - de)) + sqrt(df) + sqrt(xi)`` with ``de``,
    ``df`` the classical errors of the two POVMs and ``xi`` the
    complementarity defect.  Swapping the roles of (E, F) generally changes
    both the decoder and the bound.
    """
    dq = ctoq_delta_q(chan, povm_e, povm_f, e_basis, f_basis)
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
    # column n of the factor A_j is H_n^dag |j_W>
    return Povm(np.einsum("noi,oj->jin", decoder.kraus.conj(), basis.matrix))


def noisy_ghz_state(chan: Channel, e_basis: OrthoBasis) -> Operator:
    """Three-party reference state for the coherent-measurement diagnostic.

    ``d^{-1} sum_{j,i} T(|j><i|)_C (x) |j><i|_A (x) |j*><i*|_R`` in the given
    basis, on ``(C, A, R)`` in that order, as :func:`coherent_state`
    returns its output; when the basis information survives the channel
    perfectly the two are the same state."""
    d = e_basis.dim
    u = e_basis.matrix
    ys = np.einsum("noi,ij->njo", chan.kraus, u)  # ys[n, j] = K_n |j_E>
    # one pure branch per Kraus operator: d^{-1/2} sum_j K_n|j> |j> |j*>
    psi = np.einsum("xj,njo,zj->nozx", u.conj(), ys, u).reshape(len(ys), -1)
    dims = chan.out_dims + (d, d)
    return Operator(psi.T @ psi.conj() / d, dims, dims)
