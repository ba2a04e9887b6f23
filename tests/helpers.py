"""Constructors the tests build inputs and references with.

No command of the library needs them, so they live here rather than in
``src/ctoq``; each is the library function of the same name as it was
before it left the library, unchanged.  The dense forms are the exception
to the naming:

* ``dense_build_ppgm``, ``dense_support_bound`` and ``dense_ppgm_error``
  are ``ctoq.ppgm.build_ppgm``, ``support_bound`` and ``ppgm_error`` as
  they were before the support factors replaced them, with one
  eigendecomposition per output and a ``(d, dC, dC)`` stack of support
  projectors, and they return and read a ``DensePpgmBundle``, the bundle of
  that time.  The library builds the same measurement from the orthonormal
  factors ``U_j`` of the supports, as the blocks of ``Pi^{-1/2} [U_1 ...
  U_d]``, with ``Pi`` and its null space from one eigendecomposition of
  ``Pi = sum_j U_j U_j^dag``.
  ``dense_pairwise_bound`` is ``ctoq.ppgm.pairwise_bound`` as it was before
  the bundle kept the statistics of its outputs in place of the outputs: it
  reads the ``(d, dC, dC)`` stack and its mean.  The library's bundle now
  carries the chain as fields, and these are their oracles:
  ``dense_ppgm_error`` of ``delta_cl``, ``dense_support_bound`` of
  ``support_overlap``, and ``dense_pairwise_bound`` of ``(pairwise_sum,
  pairwise_entropy, lambda_min)``.
* ``dense_povm`` is the element-based ``ctoq.qcore.Povm`` check, completeness
  and positivity of a ``(n, dim, dim)`` stack, before POVMs were held as
  factors; it returns the factored :class:`ctoq.qcore.Povm` of the checked
  elements.  ``elements`` multiplies a POVM's factors back out.
* ``permute`` and ``support_eigh`` are ``ctoq.linop.permute`` and
  ``support_eigh`` as they were before they left the library, unchanged.
  The dense oracles reorder subsystems and mark supports with them; the
  noisy GHZ state is built in the coherent measurement's (C, A, R) order,
  and ``ctoq.ppgm.build_ppgm`` cuts the support of ``Pi`` itself.
* ``lab_ctoq_state`` is ``ctoq.decoder._ctoq_state`` rotated back by ``U_E
  (x) I`` from the E frame it is returned in to the lab frame of the
  oracles below, as ``_ctoq_state`` itself did before ``ctoq_delta_q``
  rotated ``Phi`` in its place.
* ``dense_ctoq_state`` is ``ctoq.decoder._ctoq_state`` as it was before the
  factored form: the ``d^2`` products ``M_F,l M_E,j B`` of the elements and
  the ``d^5`` tensor of their traces.
* ``loop_ctoq_state`` is ``ctoq.decoder._ctoq_state`` as it was before the
  bilinear form in the E factors' coordinates: the ``d^2 n dim S`` stack
  ``Y_j = M_E,j B``, one Gram product of its projections onto ``A_F,l`` per
  F outcome ``l``, and the traced-out term built from ``Y`` apart.
* ``max_entangled``, ``max_correlated_classical``, ``povm_channel`` and
  ``delta_cl_tracenorm`` are the dense states and the trace-norm form of
  the classical error that criterion 03 compares ``delta_cl`` with; no
  command ran them, and the decoder takes ``Phi`` as a ket.
  ``apply_channel``, the Kraus sum on chosen subsystems of a dense state,
  is the one they and the tests apply channels with.
* ``naimark_extend``, ``build_coherent_measurement``, ``build_theta`` and
  ``build_eraser`` are the Kraus forms of the coherent measurement (through
  the canonical dilation of a POVM) and of the eraser that the decoder's
  closed form replaced; ``compose`` is the composition of two channels by
  all pairwise Kraus products, and ``projective_povm`` the measurement in a
  basis.  They live here so that every test module reaches them without
  importing another test module.
* ``measure_prepare_channel`` is the channel ``rho -> sum_j tr[rho M_j]
  sigma_j`` from dense outputs ``sigma_j``, which
  ``ctoq.sampling.random_block_channel`` was built with before it took its
  Kraus operators from the factors of the outputs; it reads the output
  dimension off the dims, as ``Operator.dim_row`` did.
* ``compressed_pairwise_overlap_samples`` is
  ``ctoq.haarhp.pairwise_overlap_samples`` as it was before it read the
  overlap off the uncompressed branch matrices: each sample's channel
  compressed by ``_trial_channel``, its ``(d, s, s)`` outputs and their
  ``cross_overlap``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from ctoq.config import DEFAULT_TOLS
from ctoq.decoder import _check_povms, _check_r_marginal, _ctoq_state
from ctoq.haarhp import HpConfig, _trial_isometry, hp_channel
from ctoq.linop import Operator, _hermitian_part, trace_distance
from ctoq.qcore import (
    Channel,
    OrthoBasis,
    Povm,
    basis_outputs,
    channel,
    computational_basis,
    cross_overlap,
    max_entangled_vector,
    output_span_channel,
)
from ctoq.sampling import ginibre, haar_isometry


def operator(data: np.ndarray, dims: Sequence[int] | int) -> Operator:
    """Wrap a square matrix with identical row and column dims."""
    if isinstance(dims, int):
        dims = (dims,)
    return Operator(np.asarray(data), tuple(dims), tuple(dims))


def permute(a: Operator, order: Sequence[int]) -> Operator:
    """Reorder the subsystems of a square operator."""
    if not a.is_square:
        raise ValueError("permute needs matching row and column dims")
    dims = a.row_dims
    n = len(dims)
    order = [int(i) for i in order]
    if sorted(order) != list(range(n)):
        raise ValueError(f"order {order} is not a permutation of 0..{n - 1}")
    tensor = a.data.reshape(dims + dims)
    tensor = tensor.transpose(order + [n + i for i in order])
    new_dims = tuple(dims[i] for i in order)
    d = math.prod(new_dims)
    return Operator(tensor.reshape(d, d), new_dims, new_dims)


def support_eigh(
    a: np.ndarray, rank_tol: float | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigendecomposition of a PSD matrix with its numerical support marked.

    Returns ``(w, v, on)``: ascending eigenvalues, eigenvectors as columns,
    and the mask of eigenvalues strictly above ``rank_tol * lambda_max``.
    ``rank_tol`` defaults to the numerical-rank convention
    ``dim * machine_eps``.  A negative eigenvalue below
    ``-10 * rank_tol * lambda_max`` is an error.
    """
    if a.shape[0] != a.shape[1]:
        raise ValueError("support_eigh needs a square matrix")
    if rank_tol is None:
        rank_tol = DEFAULT_TOLS.rank_tol(a.shape[0])
    w, v = np.linalg.eigh(_hermitian_part(a))
    lam_max = max(float(w[-1]), 0.0)
    if w[0] < -10.0 * rank_tol * lam_max:
        raise ValueError(
            f"input not PSD within tolerance (min eigenvalue {w[0]:.3e})"
        )
    return w, v, w > rank_tol * lam_max


def identity(dims: Sequence[int] | int) -> Operator:
    if isinstance(dims, int):
        dims = (dims,)
    d = math.prod(dims)
    return Operator(np.eye(d), tuple(dims), tuple(dims))


def kron(a: Operator, b: Operator) -> Operator:
    """Tensor product; dims lists concatenate, left factor most significant."""
    return Operator(
        np.kron(a.data, b.data),
        a.row_dims + b.row_dims,
        a.col_dims + b.col_dims,
    )


def partial_trace(a: Operator, keep: Iterable[int]) -> Operator:
    """Trace out every subsystem not listed in ``keep``.

    Requires matching row/col dims.  The result carries the kept subsystems
    in their original order; the full trace is preserved.
    """
    if not a.is_square:
        raise ValueError("partial trace needs matching row and column dims")
    dims = a.row_dims
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= n for k in keep):
        raise IndexError(f"keep={keep} out of range for {n} subsystems")
    if keep == list(range(n)):
        return a
    tensor = a.data.reshape(dims + dims)
    row_labels = list(range(n))
    col_labels = [i if i not in keep else n + i for i in range(n)]
    out_labels = [i for i in keep] + [n + i for i in keep]
    out = np.einsum(tensor, row_labels + col_labels, out_labels)
    kept_dims = tuple(dims[i] for i in keep) or (1,)
    d = math.prod(kept_dims)
    return Operator(out.reshape(d, d), kept_dims, kept_dims)


def func_on_support(
    a: Operator,
    f: Callable[[np.ndarray], np.ndarray],
    rank_tol: float | None = None,
) -> Operator:
    """Apply a real function to the spectrum of a PSD operator, on support only.

    Eigenvalues on the support found by :func:`support_eigh` are mapped
    through ``f``; the rest map to zero.
    """
    w, v, on = support_eigh(a.data, rank_tol)
    fw = np.zeros_like(w)
    if np.any(on):
        fw[on] = f(w[on])
    return Operator((v * fw) @ v.conj().T, a.row_dims, a.col_dims)


def collision_entropy(rho: Operator) -> float:
    """Renyi-2 entropy -log2 tr(rho^2)."""
    purity = float(np.einsum("ij,ji->", rho.data, rho.data).real)
    return -math.log2(purity)


def identity_channel(dims: Sequence[int] | int) -> Channel:
    if isinstance(dims, int):
        dims = (dims,)
    return channel([np.eye(math.prod(dims))], dims, dims)


def unitary_channel(u: Operator) -> Channel:
    return channel([u.data], u.col_dims, u.row_dims)


def depolarizing_channel(d: int) -> Channel:
    """Fully depolarizing channel rho -> tr(rho) I/d."""
    ks = []
    for i in range(d):
        for j in range(d):
            k = np.zeros((d, d), dtype=np.complex128)
            k[i, j] = 1.0 / math.sqrt(d)
            ks.append(k)
    return channel(ks, (d,), (d,))


def random_density(
    rng: np.random.Generator, dim: int, rank: int | None = None
) -> Operator:
    """Normalized Wishart state GG^dag / tr, full rank by default."""
    g = ginibre(rng, dim, rank or dim)
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return Operator(rho, (dim,), (dim,))


def haar_unitary(d: int, rng: np.random.Generator) -> Operator:
    """Haar-distributed unitary: the square case of :func:`haar_isometry`."""
    return Operator(haar_isometry(d, d, rng), (d,), (d,))


@dataclass(frozen=True, eq=False)
class DensePpgmBundle:
    """A built measurement together with everything its bounds read.

    ``elements`` is the measurement's ``(d, dC, dC)`` element stack and
    ``povm`` the checked POVM built from it; ``tau_states`` and ``projectors`` are read-only ``(d, dC, dC)``
    stacks of the outputs and their support projectors, and ``tau_avg`` is
    the outputs' mean.  ``lambda_min`` is the smallest nonzero eigenvalue
    over all outputs; instances where it sits within a decade of the
    support-detection cutoff are flagged ``ill_conditioned`` because the
    overlap bounds blow up there.
    """

    povm: Povm
    elements: np.ndarray
    projectors: np.ndarray
    tau_states: np.ndarray
    tau_avg: Operator
    lambda_min: float
    ill_conditioned: bool


def dense_build_ppgm(
    chan: Channel, basis: OrthoBasis, rank_tol: float | None = None
) -> DensePpgmBundle:
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

    return DensePpgmBundle(
        povm=dense_povm(elements),
        elements=elements,
        projectors=projectors,
        tau_states=taus,
        tau_avg=Operator(taus.mean(axis=0), cdims, cdims),
        lambda_min=lam_min,
        ill_conditioned=ill,
    )


def dense_support_bound(bundle: DensePpgmBundle) -> float:
    """Support-overlap bound ``(1/d) sum_{i != j} tr[Pi_i tau_j]``.

    Sits between the decoding error and the pairwise bound: projectors
    dominate the error analysis, and ``lambda_min Pi_i <= tau_i`` turns each
    projector into a state overlap.
    """
    taus = bundle.tau_states
    return cross_overlap(bundle.projectors, taus) / len(taus)


def dense_pairwise_bound(bundle: DensePpgmBundle) -> tuple[float, float, float]:
    """Pairwise-overlap bound on the decoding error, in two algebraic forms.

    Returns ``(sum_form, entropy_form, lambda_min)`` where::

        sum_form     = (1 / (d lambda_min)) sum_{i != j} tr[tau_i tau_j]
        entropy_form = (1 / lambda_min) (d 2^{-H2(tau_avg)}
                                         - (1/d) sum_j 2^{-H2(tau_j)})

    The two agree identically because ``tau_avg`` is the mean of the
    ``tau_j``.
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


def dense_ppgm_error(bundle: DensePpgmBundle) -> float:
    """Classical decoding error of the measurement on its own channel.

    Reads the cached output states, so every bound below is evaluated on
    exactly the same data.
    """
    taus = bundle.tau_states
    return cross_overlap(taus, bundle.elements) / len(taus)


# ---------------------------------------------------------------------------
# POVMs as element stacks


PSD_TOL = 1e-9  # relative negative-eigenvalue slack for PSD inputs


def _psd_eigh(data: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    herm = _hermitian_part(data, name)
    w, v = np.linalg.eigh(herm)
    floor = -PSD_TOL * max(1.0, float(w[-1]) if w.size else 1.0)
    if w.size and w[0] < floor:
        raise ValueError(f"{name} is not PSD (min eigenvalue {w[0]:.3e})")
    return np.clip(w, 0.0, None), v


def sqrtm_psd(data: np.ndarray) -> np.ndarray:
    """Principal square root of a PSD matrix via eigendecomposition.

    Eigenvalues below the numerical-rank cutoff are zeroed first; the square
    root would otherwise amplify O(eps) noise to O(sqrt(eps)).
    """
    w, v = _psd_eigh(data, "matrix")
    cut = DEFAULT_TOLS.rank_tol(data.shape[0]) * (float(w[-1]) if w.size else 0.0)
    w[w <= cut] = 0.0
    return (v * np.sqrt(w)) @ v.conj().T


def elements(povm: Povm) -> np.ndarray:
    """The ``(n, dim, dim)`` element stack ``A_l A_l^dag`` of a POVM."""
    a = povm.factors
    return a @ a.conj().transpose(0, 2, 1)


def dense_povm(stack: Sequence[np.ndarray] | np.ndarray) -> Povm:
    """Check an element stack as ``Povm`` did before it held factors, then
    factor it: ``A_l = V_l sqrt(w_l)`` from ``M_l = V_l w_l V_l^dag``, with
    the eigenvalues the check allows below zero clipped to zero."""
    stack = np.ascontiguousarray(stack, dtype=np.complex128)
    if stack.ndim != 3 or not len(stack) or stack.shape[1] != stack.shape[2]:
        raise ValueError("a POVM needs a nonempty stack of square elements")
    # a non-finite entry makes the sum, and so its error, non-finite
    err = np.max(np.abs(stack.sum(axis=0) - np.eye(stack.shape[1])))
    if not err <= DEFAULT_TOLS.povm:
        raise ValueError(f"POVM does not sum to identity (error {err:.3e})")
    # 2 (M + povm I) has a Cholesky factor exactly when M > -povm I;
    # only a failure pays for the eigenvalues that name the offender
    shifted = stack + stack.conj().transpose(0, 2, 1)
    shifted += (2 * DEFAULT_TOLS.povm) * np.eye(stack.shape[1])
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        low = float(np.linalg.eigvalsh(shifted)[:, 0].min()) / 2
        low -= DEFAULT_TOLS.povm
        if low < -DEFAULT_TOLS.povm:
            raise ValueError(f"POVM element not PSD (min eig {low:.3e})") from None
    w, v = np.linalg.eigh((stack + stack.conj().transpose(0, 2, 1)) / 2)
    return Povm(v * np.sqrt(np.clip(w, 0.0, None))[:, None, :])


# ---------------------------------------------------------------------------
# the coherent measurement, the eraser and composition in Kraus form


def naimark_extend(povm: Povm) -> Operator:
    """Canonical dilation ``V = sum_j sqrt(M_j) (x) |j>`` of a POVM.

    ``V`` maps the measured space C into C (x) (outcome register), whose
    last factor holds the outcome.  The projective measurement is
    ``P_j = I (x) |j><j|``, so ``P_j V`` is the row slice ``V[j::m]``;
    ``V^dag V = I`` and ``V^dag P_j V = M_j`` are checked.
    """
    m = povm.n_outcomes
    dc = povm.dim
    v = np.zeros((dc * m, dc), dtype=np.complex128)
    for j, el in enumerate(elements(povm)):
        v[j::m, :] = sqrtm_psd(el)
    err = np.max(np.abs(v.conj().T @ v - np.eye(dc)))
    if err > 1e-9:
        raise ValueError(f"dilation map is not an isometry (error {err:.3e})")
    for j, el in enumerate(elements(povm)):
        err = np.max(np.abs(v[j::m].conj().T @ v[j::m] - el))
        if err > 1e-8:
            raise ValueError(f"dilation does not reproduce element {j} ({err:.3e})")
    return Operator(v, (dc, m), (dc,))


def build_coherent_measurement(v: Operator, e_basis: OrthoBasis) -> Channel:
    """Channel C -> C (x) A that coherently measures C through the dilation
    ``v`` and stores the outcome in A in the given basis.

    The dilation is undone by ``V^dag (x) |e0> + |e0'> (x) (I - V V^dag)``
    with ``e0`` in the range of ``V`` and ``e0' = |0>``.  Tracing out C' in
    the orthonormal basis {e0} + basis(range(V)^perp) (the remaining
    directions contribute zero) yields one Kraus operator
    ``sum_j M_j (x) |j_E>`` plus, for each direction ``b`` orthogonal to the
    isometry's range, a rank-one-in-C operator ``|e0'> (x) w_b`` with
    ``w_b = sum_j |j_E><b| P_j V``.
    """
    vd = v.data
    dc = vd.shape[1]
    d = v.row_dims[-1]
    if e_basis.dim != d:
        raise ValueError(f"basis dim {e_basis.dim} != number of outcomes {d}")
    u = e_basis.matrix
    roots = [vd[j::d] for j in range(d)]  # nonzero rows of P_j V
    comp = np.linalg.qr(vd, mode="complete")[0][:, dc:]  # range(V)^perp
    nb = comp.shape[1]
    ks = np.zeros((1 + nb, dc, d, dc), dtype=np.complex128)
    # main operator: ks[0][c, a, c'] = sum_j M_j[c, c'] u[a, j]
    ms = np.stack([r.conj().T @ r for r in roots])
    ks[0] = np.einsum("jcp,aj->cap", ms, u)
    # rank-one family |e0'> (x) w_b
    t = np.stack([comp[j::d].conj().T @ r for j, r in enumerate(roots)])
    ks[1:, 0] = np.einsum("aj,jbc->bac", u, t)
    cdims = v.col_dims
    return channel(ks.reshape(1 + nb, dc * d, dc), cdims, cdims + (d,))


def build_theta(e_basis: OrthoBasis, f_basis: OrthoBasis, l: int) -> Operator:
    """Eraser phase correction: diagonal in the e-basis, with the phase of
    each overlap ``<j_e|l_f>`` (zero overlaps contribute phase 0)."""
    if e_basis.dim != f_basis.dim:
        raise ValueError("bases must share a dimension")
    amps = e_basis.matrix.conj().T @ f_basis.matrix[:, l]
    phases = np.exp(1j * np.angle(amps))
    u = e_basis.matrix
    return Operator(
        (u * phases) @ u.conj().T, (e_basis.dim,), (e_basis.dim,)
    )


def build_eraser(povm_f: Povm, thetas) -> Channel:
    """Channel C (x) A -> A: measure C with the POVM, apply the matching
    phase correction to A, discard C."""
    if len(thetas) != povm_f.n_outcomes:
        raise ValueError("need one phase correction per POVM outcome")
    d = len(thetas[0].data)
    dc = povm_f.dim
    ks = []
    for m_el, th in zip(elements(povm_f), thetas):
        root = sqrtm_psd(m_el)
        # K_{l,m}[a, (c, b)] = Theta_l[a, b] root[m, c]
        block = np.einsum("mc,ab->macb", root, th.data)
        ks.extend(block.reshape(dc, d, dc * d))
    return channel(ks, (dc, d), (d,))


def compose(later: Channel, earlier: Channel) -> Channel:
    """Oracle: ``later(earlier(.))`` with all pairwise Kraus products, trace
    preserving within ``DEFAULT_TOLS.compose_tp``."""
    if earlier.out_dims != later.in_dims:
        raise ValueError(
            f"cannot compose: earlier outputs {earlier.out_dims}, "
            f"later expects {later.in_dims}"
        )
    products = np.array([b @ a for b in later.kraus for a in earlier.kraus])
    flat = products.reshape(-1, earlier.dim_in)
    err = np.max(np.abs(flat.conj().T @ flat - np.eye(earlier.dim_in)))
    if err > DEFAULT_TOLS.compose_tp:
        raise ValueError(f"Kraus set is not trace preserving (error {err:.3e})")
    return Channel(products, earlier.in_dims, later.out_dims)


def projective_povm(basis: OrthoBasis) -> Povm:
    return Povm(basis.matrix.T[:, :, None])


# ---------------------------------------------------------------------------
# the decoder state from element products


def _dense_dilation_terms(
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


def lab_ctoq_state(
    chan: Channel, povm_e: Povm, povm_f: Povm, e_basis: OrthoBasis, f_basis: OrthoBasis
) -> np.ndarray:
    """``ctoq.decoder._ctoq_state`` rotated by ``U_E (x) I`` into the lab
    frame."""
    rot = np.kron(e_basis.matrix, np.eye(chan.dim_in))
    return rot @ _ctoq_state(chan, povm_e, povm_f, e_basis, f_basis) @ rot.conj().T


def dense_ctoq_state(
    chan: Channel, povm_e: Povm, povm_f: Povm, e_basis: OrthoBasis, f_basis: OrthoBasis
) -> np.ndarray:
    """``(D o T (x) id_R)(Phi)`` for the decoder ``D`` of
    :func:`ctoq.decoder.ctoq_delta_q`.

    ``Phi`` is maximally entangled on two copies of the channel's input
    space R; the result is a ``(d dim R) x (d dim R)`` matrix on
    ``A (x) R``.  With ``T`` the identity on C it is the Choi matrix of
    ``D`` over ``dim C``, which fixes ``D`` on all of C.  The R-marginal must
    be ``I / dim R`` within ``DEFAULT_TOLS.compose_tp``: the decoder
    preserves the trace of the channel's outputs.
    """
    d = e_basis.dim
    if f_basis.dim != d:
        raise ValueError("bases must share a dimension")
    dc = chan.dim_out
    _check_povms(d, dc, povm_e, povm_f)
    d_in = chan.dim_in
    m_f = elements(povm_f)
    y, q = _dense_dilation_terms(chan.kraus, elements(povm_e))
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
    _check_r_marginal(rho, "decoder")
    return rho.reshape(d * d_in, d * d_in)


def _loop_dilation_terms(ks: np.ndarray, a_e: np.ndarray) -> np.ndarray:
    """The E-POVM's dilation on the branch matrix ``B = [K_n|a>]``, from the
    POVM's factors ``A_j``: ``Y_j = M_E,j B = A_j (A_j^dag B)`` as
    ``y[j, a, n, c]``."""
    n_kraus, dc, d_in = ks.shape
    # rows (a, n), columns c: the transpose of B
    bt = ks.transpose(2, 0, 1).reshape(d_in * n_kraus, dc)
    y = (bt @ a_e.conj()) @ a_e.transpose(0, 2, 1)
    return y.reshape(len(a_e), d_in, n_kraus, dc)


def _loop_traced_out_term(y: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """``q[j, a, k, b] = delta_jk tr(M_E,j X) - tr(M_E,k M_E,j X)`` for ``X
    = sum_n K_n|a><b|K_n^dag``, from the Gram products over ``(n, c)`` of
    ``y`` of :func:`_loop_dilation_terms`."""
    d, d_in = y.shape[:2]
    rows = y.reshape(d * d_in, -1)
    q = rows @ rows.conj().T
    q = np.negative(q, out=q).reshape(d, d_in, d, d_in)
    diag = rows.reshape(d, d_in, -1) @ ks.reshape(-1, d_in).conj()
    q[np.arange(d), :, np.arange(d), :] += diag
    return q


def loop_ctoq_state(
    chan: Channel, povm_e: Povm, povm_f: Povm, e_basis: OrthoBasis, f_basis: OrthoBasis
) -> np.ndarray:
    """``(D o T (x) id_R)(Phi)`` for the decoder ``D`` of
    :func:`ctoq.decoder.ctoq_delta_q`, from ``W_lj = A^F_l^dag Y_j``: one Gram
    product ``V_l V_l^dag`` per F outcome ``l``, with ``V_l[(j, a), (n, r)] =
    phi_jl W_lj[r, (n, a)]``, plus the traced-out term ``q`` weighted by
    ``sum_l c_l phi_jl phi_kl^*``."""
    d = e_basis.dim
    if f_basis.dim != d:
        raise ValueError("bases must share a dimension")
    dc = chan.dim_out
    _check_povms(d, dc, povm_e, povm_f)
    d_in = chan.dim_in
    a_f = povm_f.factors
    y = _loop_dilation_terms(chan.kraus, povm_e.factors)
    u = e_basis.matrix
    phases = np.exp(1j * np.angle(u.conj().T @ f_basis.matrix))  # [j, l]
    h = np.zeros((d * d_in, d * d_in), dtype=np.complex128)
    for l in range(d):
        v = (y.reshape(-1, dc) @ a_f[l].conj()).reshape(d, -1)
        v *= phases[:, l, None]
        v = v.reshape(d * d_in, -1)
        h += v @ v.conj().T
    h = h.reshape(d, d_in, d, d_in)
    c = np.sum(np.abs(a_f[:, 0, :]) ** 2, axis=1)
    q = _loop_traced_out_term(y, chan.kraus)
    q *= ((phases * c) @ phases.conj().T)[:, None, :, None]
    h += q
    rho = (u @ h.reshape(d, -1)).reshape(d * d_in, d, d_in)
    rho = rho.transpose(0, 2, 1) @ u.conj().T
    rho /= d_in
    rho = np.ascontiguousarray(rho.transpose(0, 2, 1)).reshape(d, d_in, d, d_in)
    _check_r_marginal(rho, "decoder")
    return rho.reshape(d * d_in, d * d_in)


# ---------------------------------------------------------------------------
# Haar samples through the compressed channel


def _trial_channel(cfg: HpConfig, trial: int) -> Channel:
    """The trial's retrieval channel, compressed onto the span of its
    outputs plus ``|0>`` (:func:`output_span_channel`)."""
    ch, _ = output_span_channel(hp_channel(_trial_isometry(cfg, trial), cfg))
    return ch


def compressed_pairwise_overlap_samples(cfg: HpConfig) -> np.ndarray:
    """Per-trial values of ``sum_{i != j} tr[xi_i xi_j]``, read off the
    outputs of each trial's compressed channel in the computational basis."""
    basis = computational_basis(cfg.dim_msg)
    out = np.empty(cfg.trials)
    for t in range(cfg.trials):
        taus = basis_outputs(_trial_channel(cfg, t), basis)
        out[t] = cross_overlap(taus, taus)
    return out


# ---------------------------------------------------------------------------
# channel application


def _resolve_targets(
    state: Operator, ch: Channel, targets: Sequence[int] | None
) -> list[int]:
    dims = state.row_dims
    if targets is None:
        targets = tuple(range(len(ch.in_dims)))
    targets = [int(t) for t in targets]
    if sorted(set(targets)) != targets:
        raise ValueError("targets must be strictly ascending")
    if any(t < 0 or t >= len(dims) for t in targets):
        raise IndexError(f"targets {targets} out of range")
    tdims = tuple(dims[t] for t in targets)
    if tdims != ch.in_dims:
        raise ValueError(
            f"target dims {tdims} do not match channel input {ch.in_dims}"
        )
    return targets


def apply_channel(
    ch: Channel,
    state: Operator,
    targets: Sequence[int] | None = None,
) -> Operator:
    """Kraus sum on the target subsystems, identity on the rest.

    The channel's output subsystems take the position of the first target;
    untouched subsystems keep their relative order.
    """
    if not state.is_square:
        raise ValueError("apply_channel needs a square state")
    dims = state.row_dims
    n = len(dims)
    targets = _resolve_targets(state, ch, targets)
    ks = ch.kraus

    if len(targets) == n:
        out = np.einsum(
            "nij,jk,nlk->il", ks, state.data, ks.conj(), optimize=True
        )
        return Operator(out, ch.out_dims, ch.out_dims)

    rest = [i for i in range(n) if i not in targets]
    dt = math.prod(ch.in_dims)
    dr = math.prod(dims[i] for i in rest)
    tensor = state.data.reshape(dims + dims)
    axes = targets + rest
    tensor = tensor.transpose(axes + [n + i for i in axes])
    st4 = tensor.reshape(dt, dr, dt, dr)
    out4 = np.einsum("not,tasb,nps->oapb", ks, st4, ks.conj(), optimize=True)

    do = math.prod(ch.out_dims)
    out_dims = ch.out_dims + tuple(dims[i] for i in rest)
    result = Operator(out4.reshape(do * dr, do * dr), out_dims, out_dims)

    # current order is [out block, rest...]; move the out block to where the
    # first target subsystem was
    n_out = len(ch.out_dims)
    cur = [("out", j) for j in range(n_out)] + [("rest", i) for i in rest]
    final: list[tuple[str, int]] = []
    for i in range(n):
        if i == targets[0]:
            final.extend(("out", j) for j in range(n_out))
        elif i in targets:
            continue
        else:
            final.append(("rest", i))
    order = [cur.index(x) for x in final]
    if order != list(range(len(cur))):
        result = permute(result, order)
    return result


def measure_prepare_channel(povm: Povm, outputs: Sequence[Operator]) -> Channel:
    """Channel rho -> sum_j tr[rho M_j] sigma_j.

    One Kraus operator ``sqrt(w_a) |v_a><A_j[:, r]|`` per (outcome, output
    eigenvector ``v_a`` of weight ``w_a``, nonzero factor column ``r``); the
    outputs must be density operators on a common space.
    """
    if len(outputs) != povm.n_outcomes:
        raise ValueError("need one output state per POVM outcome")
    out_dims = outputs[0].row_dims
    dout = math.prod(out_dims)
    ks = []
    for a, sigma in zip(povm.factors, outputs):
        cols = a[:, np.any(a != 0, axis=0)].conj().T
        w, v = np.linalg.eigh((sigma.data + sigma.data.conj().T) / 2)
        for j in range(dout):
            if w[j] <= DEFAULT_TOLS.rank_tol(dout) * max(float(w[-1]), 0.0):
                continue
            ks.extend(math.sqrt(float(w[j])) * v[:, j, None] * cols[:, None, :])
    return channel(ks, (povm.dim,), out_dims)


# ---------------------------------------------------------------------------
# dense states and the trace-norm classical error


def max_entangled(d: int) -> Operator:
    """Maximally entangled state d^{-1/2} sum_j |jj> as a density operator."""
    if d < 1:
        raise ValueError("d must be >= 1")
    vec = max_entangled_vector(d)
    return Operator(np.outer(vec, vec.conj()), (d, d), (d, d))


def max_correlated_classical(basis: OrthoBasis) -> Operator:
    """Maximally correlated classical state d^{-1} sum_j |j j*><j j*| in a
    basis.

    The second factor uses the conjugate basis {|j*>}, the convention under
    which the state is the dephased half of the maximally entangled state.
    """
    d = basis.dim
    u = basis.matrix
    v = (u[:, None, :] * u.conj()[None, :, :]).reshape(d * d, d)  # |j j*>
    return Operator(v @ v.conj().T / d, (d, d), (d, d))


def povm_channel(povm: Povm, basis: OrthoBasis) -> Channel:
    """Measure-and-prepare map rho -> sum_j tr[rho M_j] |j_W><j_W|."""
    if povm.n_outcomes != basis.dim:
        raise ValueError("need one POVM outcome per basis vector")
    d = basis.dim
    outputs = [
        Operator(np.outer(basis.matrix[:, j], basis.matrix[:, j].conj()), (d,), (d,))
        for j in range(d)
    ]
    return measure_prepare_channel(povm, outputs)


def delta_cl_tracenorm(povm: Povm, chan: Channel, basis: OrthoBasis) -> float:
    """Trace-norm form of the classical decoding error.

    Half the trace distance between the maximally correlated state (conjugate
    basis on the reference factor) and its image under the channel followed
    by the measure-and-prepare map of the POVM.
    """
    omega = max_correlated_classical(basis)
    after = apply_channel(chan, omega, targets=[0])
    # the readout measures C as one factor
    dims = (chan.dim_out, basis.dim)
    after = Operator(after.data, dims, dims)
    back = apply_channel(povm_channel(povm, basis), after, targets=[0])
    return trace_distance(omega, back)
