"""The library's fast paths against the loops and assemblies they replaced.

The oracles below are the earlier implementations, kept verbatim in spirit:
one ``tau_j`` per basis vector from the Kraus stack, the retrieval isometry
through ``np.kron(U, I)``, the pretty-good measurement with one
``eigvalsh`` per output and separate decompositions for every support
function, the error functionals as double loops, the overlap sums as
``total - trace``, and the composite decoder's Kraus set assembled one
operator at a time, with the eraser and its phase corrections as channels.
Every quantity the library reports must agree with them to 1e-12 (relative
where it is divided by ``lambda_min``); the closed-form decoder state must
agree with the state propagated through the assembled Kraus set to 1e-12.
"""

import math

import numpy as np
import pytest

from ctoq.config import DEFAULT_TOLS, Tolerances
from ctoq.decoder import _ctoq_state, ctoq_delta_q, delta_cl, naimark_extend
from ctoq.haarhp import (
    HpConfig,
    _trial_rng,
    haar_unitary,
    hp_channel,
    maximally_mixed_state,
    pure_state,
)
from ctoq.linop import Operator, sqrtm_psd, trace_distance
from ctoq.ppgm import build_ppgm, pairwise_bound, ppgm_error, support_bound
from ctoq.qcore import (
    Channel,
    OrthoBasis,
    Povm,
    basis_outputs,
    channel,
    max_entangled,
    max_entangled_vector,
    pauli_basis,
    purify_vector,
)
from ctoq.sampling import random_basis, random_channel

TOL = 1e-12


# ---------------------------------------------------------------------------
# oracles


def oracle_taus(ch, basis):
    ks = ch.kraus
    taus = []
    for j in range(basis.dim):
        cols = ks @ basis.column(j)
        tau = cols.T @ cols.conj()
        taus.append((tau + tau.conj().T) / 2)
    return taus


def oracle_hp_kraus(u, xi, cfg):
    n, k, ell = cfg.n_bh, cfg.n_msg, cfg.n_rad
    da, dbh = 2**k, 2**n
    d_kept, d_new = 2 ** (n + k - ell), 2**ell
    vec, _ = purify_vector(xi)
    emb = np.kron(np.eye(da, dtype=np.complex128), vec.reshape(-1, 1))
    full = np.kron(u.data, np.eye(dbh)) @ emb
    arr = full.reshape(d_kept, d_new, dbh, da)
    return [
        arr[m].transpose(1, 0, 2).reshape(dbh * d_new, da)
        for m in range(d_kept)
    ]


def _on_support(a, f, rank_tol):
    w, v = np.linalg.eigh((a + a.conj().T) / 2)
    on = w > rank_tol * max(float(w[-1]), 0.0)
    fw = np.zeros_like(w)
    fw[on] = f(w[on])
    return (v * fw) @ v.conj().T


def oracle_ppgm(ch, basis):
    dc = ch.dim_out
    rank_tol = DEFAULT_TOLS.rank_tol(dc)
    taus = oracle_taus(ch, basis)
    lam_min, ill = math.inf, False
    for tau in taus:
        w = np.linalg.eigvalsh(tau)
        cut = rank_tol * max(float(w[-1]), 0.0)
        lam_j = float(w[w > cut][0])
        lam_min = min(lam_min, lam_j)
        ill = ill or lam_j < 10.0 * cut
    projectors = [_on_support(t, np.ones_like, rank_tol) for t in taus]
    pi_sum = sum(projectors)
    inv_root = _on_support(pi_sum, lambda x: x**-0.5, rank_tol)
    elements = []
    for p in projectors:
        m = inv_root @ p @ inv_root
        elements.append((m + m.conj().T) / 2)
    elements[0] = elements[0] + np.eye(dc) - _on_support(
        pi_sum, np.ones_like, rank_tol
    )
    return taus, projectors, elements, lam_min, ill


def _off_diagonal_sum(a, b):
    gram = np.einsum("iab,jba->ij", np.stack(a), np.stack(b)).real
    return float(gram.sum() - np.trace(gram))


def oracle_delta_cl(elements, taus):
    d = len(taus)
    total = 0.0
    for i, tau in enumerate(taus):
        for j, m in enumerate(elements):
            if j != i:
                total += float(np.einsum("ij,ji->", tau, m).real)
    return total / d


def oracle_bounds(taus, projectors, lam):
    d = len(taus)
    sum_form = _off_diagonal_sum(taus, taus) / (d * lam)
    avg = sum(taus) / d
    purity = lambda r: float(np.einsum("ij,ji->", r, r).real)  # noqa: E731
    entropy_form = (d * purity(avg) - sum(purity(t) for t in taus) / d) / lam
    support = _off_diagonal_sum(projectors, taus) / d
    return sum_form, entropy_form, support


def oracle_ctoq_branch_state(decoder_kraus, chan_kraus, d):
    """``(D o T (x) id)(Phi)`` propagated branch by branch: one pure branch
    ``H_h K_k Phi`` per pair of Kraus operators."""
    phi_mat = max_entangled_vector(d).reshape(d, d)
    branches = []
    for k in chan_kraus:
        x = k @ phi_mat
        for h in decoder_kraus:
            branches.append((h @ x).reshape(-1))
    y = np.stack(branches)
    return y.T @ y.conj()


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
    thetas,
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


def oracle_ctoq_kraus(povm_e, povm_f, e_basis, f_basis):
    """The composite decoder's Kraus set, assembled one operator at a time.

    Coherent measurement with ``e0' = |0>`` and the range complement of the
    dilation from a full QR, fused with the eraser outcome by outcome.  The
    rank-one family collapses under the eraser's trace over C to the single
    weight ``<0| M_F,l |0>``.
    """
    d = e_basis.dim
    v = naimark_extend(povm_e).isometry.data
    dc = v.shape[1]
    e0p = np.zeros(dc, dtype=np.complex128)
    e0p[0] = 1.0
    u = e_basis.matrix
    roots = [v[j::d] for j in range(d)]
    ms = [r.conj().T @ r for r in roots]
    comp = np.linalg.qr(v, mode="complete")[0][:, dc:]
    if comp.shape[1]:
        t = np.stack([comp[j::d].conj().T @ r for j, r in enumerate(roots)])
        w = np.einsum("aj,jbc->bac", u, t)
    else:
        w = np.zeros((0, d, dc), dtype=np.complex128)
    total_ks = []
    for l in range(d):
        theta = build_theta(e_basis, f_basis, l).data
        m_f = povm_f.elements[l].data
        root_f = sqrtm_psd(m_f)
        z = np.stack([root_f @ mj for mj in ms])
        total_ks.extend(np.einsum("ab,bmc->mac", theta @ u, z))
        if w.shape[0]:
            c_l = float((e0p.conj() @ (m_f @ e0p)).real)
            amp = math.sqrt(max(c_l, 0.0))
            total_ks.extend(amp * np.einsum("ab,nbc->nac", theta, w))
    return total_ks


# ---------------------------------------------------------------------------
# comparison


def assert_close(got, want, what, rel_to=None):
    scale = 1.0 if rel_to is None else abs(rel_to)
    assert abs(got - want) <= TOL * scale, f"{what}: {got!r} vs {want!r}"


def check_basis(ch, oracle_ch, basis):
    """Every reported quantity of one basis against the oracles."""
    taus_o, projectors_o, elements_o, lam_o, ill_o = oracle_ppgm(oracle_ch, basis)
    bundle = build_ppgm(ch, basis)
    np.testing.assert_allclose(basis_outputs(ch, basis), taus_o, rtol=0, atol=TOL)
    np.testing.assert_allclose(bundle.tau_states, taus_o, rtol=0, atol=TOL)
    np.testing.assert_allclose(bundle.projectors, projectors_o, rtol=0, atol=TOL)
    got_elements = bundle.povm.element_stack()
    np.testing.assert_allclose(got_elements, elements_o, rtol=0, atol=TOL)
    assert_close(bundle.lambda_min, lam_o, "lambda_min", rel_to=lam_o)
    assert bundle.ill_conditioned == ill_o

    dcl_o = oracle_delta_cl(elements_o, taus_o)
    assert_close(ppgm_error(bundle), dcl_o, "ppgm_error")
    assert_close(delta_cl(bundle.povm, ch, basis), dcl_o, "delta_cl")
    sum_o, ent_o, sup_o = oracle_bounds(taus_o, projectors_o, lam_o)
    sum_form, entropy_form, lam = pairwise_bound(bundle)
    assert lam == bundle.lambda_min
    assert_close(sum_form, sum_o, "pairwise sum form", rel_to=max(sum_o, 1.0))
    assert_close(
        entropy_form, ent_o, "pairwise entropy form", rel_to=max(ent_o, 1.0)
    )
    assert_close(support_bound(bundle), sup_o, "support bound")
    return bundle, elements_o


def check_decoder(ch, oracle_kraus, bundle_e, bundle_f, e_basis, f_basis):
    """The closed-form decoder state and its ``delta_q`` against the state
    propagated through the assembled Kraus set."""
    d = e_basis.dim
    args = (bundle_e.povm, bundle_f.povm, e_basis, f_basis)
    want = oracle_ctoq_branch_state(oracle_ctoq_kraus(*args), oracle_kraus, d)
    np.testing.assert_allclose(_ctoq_state(ch, *args), want, rtol=0, atol=TOL)
    dq = trace_distance(max_entangled(d), Operator(want, (d, d), (d, d)))
    assert_close(ctoq_delta_q(ch, *args), dq, "delta_q")


@pytest.mark.parametrize("seed", range(6))
def test_suite_sized_channels_match_the_oracles(seed):
    rng = np.random.default_rng(900 + seed)
    d = (2, 3, 4)[seed % 3]
    ch = random_channel(rng, d, d + seed % 3, 1 + int(rng.integers(4)))
    e_basis, f_basis = random_basis(rng, d), random_basis(rng, d)
    bundle_e, _ = check_basis(ch, ch, e_basis)
    bundle_f, _ = check_basis(ch, ch, f_basis)
    check_decoder(ch, ch.kraus, bundle_e, bundle_f, e_basis, f_basis)


HP_SHAPES = [(2, 1, 1), (3, 1, 2), (3, 1, 4), (4, 2, 3), (5, 2, 3)]


@pytest.mark.parametrize("mixed", [False, True], ids=["pure", "mixed"])
@pytest.mark.parametrize("shape", HP_SHAPES, ids=lambda s: "-".join(map(str, s)))
def test_hp_trials_match_the_oracles(shape, mixed):
    n, k, ell = shape
    xi = maximally_mixed_state(n) if mixed else pure_state(n)
    cfg = HpConfig(n, k, ell, xi, seed=77)
    u = haar_unitary(cfg.dim_scrambled, _trial_rng(cfg, 0))
    ch = hp_channel(u, xi, cfg)
    oracle_kraus = oracle_hp_kraus(u, xi, cfg)
    np.testing.assert_allclose(ch.kraus, oracle_kraus, rtol=0, atol=TOL)
    oracle_ch = channel(oracle_kraus, (2**k,), (2**n, 2**ell))
    z, x = pauli_basis(k, "z"), pauli_basis(k, "x")
    bundle_z, _ = check_basis(ch, oracle_ch, z)
    bundle_x, _ = check_basis(ch, oracle_ch, x)
    check_decoder(ch, oracle_kraus, bundle_z, bundle_x, z, x)

