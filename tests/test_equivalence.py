"""The library's fast paths against the loops and assemblies they replaced.

The oracles below are the earlier implementations, kept verbatim in spirit:
one ``tau_j`` per basis vector from the Kraus stack, the retrieval isometry
through ``np.kron(V, I)`` on the sampled columns ``V`` of the scrambling
unitary, the pretty-good measurement with one
``eigvalsh`` per output and separate decompositions for every support
function, the error functionals as double loops, the overlap sums as
``total - trace``, the Naimark dilation and the coherent measurement as a
Kraus stack over a full-QR range complement, and the composite decoder's
Kraus set assembled one operator at a time, with the eraser and its phase
corrections as channels, and the Haar samples' pairwise overlap from the
outputs of the compressed channel.  Every quantity the library reports must agree
with them to 1e-12 (relative where it is divided by ``lambda_min``); the
closed-form decoder and coherent-measurement states must agree with the
states propagated through the assembled Kraus sets to 1e-12, and the
eraser after the coherent measurement's state must give the decoder's.
A Hayden-Preskill trial, which runs on the channel compressed onto the span
of its outputs, must agree field by field with the same trial run on the
full output space, past (x) new radiation of ``2^N 2^ell`` dimensions, with
the support of the initial state embedded at the same past labels.
"""

import dataclasses
import math

import numpy as np
import pytest

from ctoq.config import DEFAULT_TOLS
from ctoq.decoder import (
    _overlap_fidelities,
    coherent_state,
    ctoq_delta_q,
    delta_cl,
    error_report,
)
from ctoq.haarhp import (
    HpConfig,
    TrialResult,
    _trial_rng,
    hp_channel,
    pairwise_overlap_samples,
    run_trial,
)
from ctoq.linop import Operator, trace_distance
from ctoq.ppgm import build_ppgm
from ctoq.qcore import (
    Channel,
    Povm,
    basis_outputs,
    channel,
    cross_overlap,
    max_entangled_vector,
    output_span_channel,
    pauli_basis,
)
from ctoq.sampling import (
    ginibre,
    haar_isometry,
    mub_pair,
    random_basis,
    random_block_channel,
    random_channel,
    random_isometry_channel,
    random_povm,
)
import ctoq.haarhp as haarhp
import ctoq.verify as verify
from ctoq.verify import SLACK_TOL
from tests.helpers import (
    apply_channel,
    build_coherent_measurement,
    build_eraser,
    build_theta,
    collision_entropy,
    compressed_pairwise_overlap_samples,
    dense_build_ppgm,
    dense_ctoq_state,
    dense_pairwise_bound,
    dense_ppgm_error,
    dense_support_bound,
    elements,
    lab_ctoq_state,
    loop_ctoq_state,
    max_entangled,
    measure_prepare_channel,
    naimark_extend,
    sqrtm_psd,
    _trial_channel,
)

TOL = 1e-12
# classical errors below this are rounding noise around an exact zero
NOISE = 1e-14


# ---------------------------------------------------------------------------
# oracles


def oracle_taus(ch, basis):
    ks = ch.kraus
    taus = []
    for j in range(basis.dim):
        cols = ks @ basis.matrix[:, j]
        tau = cols.T @ cols.conj()
        taus.append((tau + tau.conj().T) / 2)
    return taus


def sample_isometry(cfg, trial):
    """The trial's draw: the columns of its Haar unitary for message (x)
    supp xi."""
    return haar_isometry(
        cfg.dim_scrambled, cfg.dim_msg * cfg.rank, _trial_rng(cfg, trial)
    )


def oracle_hp_kraus(v, cfg, dim_past):
    """Kraus operators of ``|a> -> (V (x) I)(|a> (x) |xi>)`` traced over the
    kept qubits, through ``np.kron``.  ``|xi> = sum_i sqrt(p_i) |i>|i + o>``
    pairs support vector ``i`` with past label ``i + o`` of a past register
    of ``dim_past`` dimensions, where ``o = 1`` unless xi has full rank, so
    past ``|0>`` lies in the kernel of xi."""
    n, k, ell = cfg.n_bh, cfg.n_msg, cfg.n_rad
    da, r = 2**k, cfg.rank
    o = int(r < 2**n)
    d_kept, d_new = 2 ** (n + k - ell), 2**ell
    vec = np.zeros((r, dim_past))
    vec[np.arange(r), np.arange(r) + o] = np.sqrt(cfg.xi_spectrum)
    emb = np.kron(np.eye(da, dtype=np.complex128), vec.reshape(-1, 1))
    full = np.kron(v, np.eye(dim_past)) @ emb
    arr = full.reshape(d_kept, d_new, dim_past, da)
    return [
        arr[m].transpose(1, 0, 2).reshape(dim_past * d_new, da)
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
    for j, tau in enumerate(taus):
        w = np.linalg.eigvalsh(tau)
        cut = rank_tol * max(float(w[-1]), 0.0)
        # the smallest nonzero eigenvalue as a squared singular value of
        # [K_n|j>]_n, which eigvalsh of tau fixes only to eps lambda_max
        s = np.linalg.svd(ch.kraus @ basis.matrix[:, j], compute_uv=False)
        lam_j = float(s[np.count_nonzero(w > cut) - 1]) ** 2
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


def oracle_coherent_state(chan, povm_e, e_basis):
    """``(C o T (x) id)(Phi)`` on (C, A, R) through the Kraus-form coherent
    measurement ``C``."""
    coh = build_coherent_measurement(naimark_extend(povm_e), e_basis)
    # the same Kraus operators, on C with its factors
    coh = Channel(coh.kraus, chan.out_dims, chan.out_dims + (e_basis.dim,))
    after = apply_channel(chan, max_entangled(chan.dim_in), targets=[0])
    return apply_channel(coh, after, targets=list(range(len(chan.out_dims))))


def oracle_ctoq_kraus(povm_e, povm_f, e_basis, f_basis):
    """The composite decoder's Kraus set, assembled one operator at a time.

    Coherent measurement with ``e0' = |0>`` and the range complement of the
    dilation from a full QR, fused with the eraser outcome by outcome.  The
    rank-one family collapses under the eraser's trace over C to the single
    weight ``<0| M_F,l |0>``.
    """
    d = e_basis.dim
    v = naimark_extend(povm_e).data
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
        m_f = elements(povm_f)[l]
        root_f = sqrtm_psd(m_f)
        z = np.stack([root_f @ mj for mj in ms])
        total_ks.extend(np.einsum("ab,bmc->mac", theta @ u, z))
        if w.shape[0]:
            c_l = float((e0p.conj() @ (m_f @ e0p)).real)
            amp = math.sqrt(max(c_l, 0.0))
            total_ks.extend(amp * np.einsum("ab,nbc->nac", theta, w))
    return total_ks


def oracle_run_trial(cfg, trial):
    """One Hayden-Preskill trial on the full output space: the channel from
    the trial's isometry onto all ``2^N`` past labels, with no compression
    onto its output span."""
    n, k, ell = cfg.n_bh, cfg.n_msg, cfg.n_rad
    try:
        kraus = oracle_hp_kraus(sample_isometry(cfg, trial), cfg, 2**n)
        ch = channel(kraus, (2**k,), (2**n, 2**ell))
        basis_z = pauli_basis(cfg.n_msg, "z")
        basis_x = pauli_basis(cfg.n_msg, "x")
        bundle_z = build_ppgm(ch, basis_z)
        taus_z = basis_outputs(ch, basis_z)
        purities_z = np.einsum("jab,jba->j", taus_z, taus_z).real
        bundle_x = build_ppgm(ch, basis_x)
        dcl_z, dcl_x = bundle_z.delta_cl, bundle_x.delta_cl
        dq = ctoq_delta_q(ch, bundle_z.povm, bundle_x.povm, basis_z, basis_x)
        bound = math.sqrt(max(dcl_z * (2.0 - dcl_z), 0.0)) + math.sqrt(
            max(dcl_x, 0.0)
        )
        return TrialResult(
            trial=trial,
            delta_cl_x=dcl_x,
            delta_cl_z=dcl_z,
            delta_q_ctoq=dq,
            lambda_min_x=bundle_x.lambda_min,
            lambda_min_z=bundle_z.lambda_min,
            pairwise_sum_x=bundle_x.pairwise_sum,
            pairwise_sum_z=bundle_z.pairwise_sum,
            pairwise_entropy_x=bundle_x.pairwise_entropy,
            pairwise_entropy_z=bundle_z.pairwise_entropy,
            support_overlap_x=bundle_x.support_overlap,
            support_overlap_z=bundle_z.support_overlap,
            bound_two_term=bound,
            pairwise_overlap=cross_overlap(taus_z, taus_z),
            collision_entropy_avg=collision_entropy(
                Operator(taus_z.mean(axis=0), ch.out_dims, ch.out_dims)
            ),
            collision_entropies=tuple(-math.log2(p) for p in purities_z),
            ill_conditioned=bundle_z.ill_conditioned or bundle_x.ill_conditioned,
        )
    except (np.linalg.LinAlgError, ValueError) as exc:
        return TrialResult(trial=trial, error=str(exc))


# ---------------------------------------------------------------------------
# comparison


def assert_close(got, want, what, rel_to=None):
    scale = 1.0 if rel_to is None else abs(rel_to)
    assert abs(got - want) <= TOL * scale, f"{what}: {got!r} vs {want!r}"


def check_statistics(bundle, taus, exact=False):
    """The output statistics the bundle kept against those of an output
    stack: bit for bit with ``exact``, the expressions being those that
    read the stack before the bundle dropped it; else to 1e-12."""
    overlap = cross_overlap(taus, taus)
    purities = np.einsum("jab,jba->j", taus, taus).real
    avg = taus.mean(axis=0)
    h2_avg = collision_entropy(Operator(avg, (len(avg),), (len(avg),)))
    if exact:
        assert bundle.pairwise_overlap == overlap
        assert np.array_equal(bundle.purities, purities)
        assert bundle.collision_entropy_avg == h2_avg
    else:
        assert_close(bundle.pairwise_overlap, overlap, "overlap", rel_to=max(overlap, 1.0))
        np.testing.assert_allclose(bundle.purities, purities, rtol=0, atol=TOL)
        assert_close(bundle.collision_entropy_avg, h2_avg, "H2 of the mean")
    assert not bundle.purities.flags.writeable


def check_basis(ch, oracle_ch, basis):
    """Every reported quantity of one basis against the oracles."""
    taus_o, projectors_o, elements_o, lam_o, ill_o = oracle_ppgm(oracle_ch, basis)
    bundle = build_ppgm(ch, basis)
    np.testing.assert_allclose(basis_outputs(ch, basis), taus_o, rtol=0, atol=TOL)
    check_statistics(bundle, np.stack(taus_o))
    got_elements = elements(bundle.povm)
    np.testing.assert_allclose(got_elements, elements_o, rtol=0, atol=TOL)
    assert_close(bundle.lambda_min, lam_o, "lambda_min", rel_to=lam_o)
    assert bundle.ill_conditioned == ill_o

    dcl_o = oracle_delta_cl(elements_o, taus_o)
    assert_close(bundle.delta_cl, dcl_o, "delta_cl")
    assert_close(delta_cl(bundle.povm, ch, basis), dcl_o, "delta_cl")
    sum_o, ent_o, sup_o = oracle_bounds(taus_o, projectors_o, lam_o)
    assert_close(
        bundle.pairwise_sum, sum_o, "pairwise sum form", rel_to=max(sum_o, 1.0)
    )
    assert_close(
        bundle.pairwise_entropy, ent_o, "pairwise entropy form", rel_to=max(ent_o, 1.0)
    )
    assert_close(bundle.support_overlap, sup_o, "support bound")
    return bundle, elements_o


def check_decoder(ch, oracle_kraus, bundle_e, bundle_f, e_basis, f_basis):
    """The closed-form decoder state and its ``delta_q`` against the state
    propagated through the assembled Kraus set."""
    d = e_basis.dim
    args = (bundle_e.povm, bundle_f.povm, e_basis, f_basis)
    want = oracle_ctoq_branch_state(oracle_ctoq_kraus(*args), oracle_kraus, d)
    np.testing.assert_allclose(lab_ctoq_state(ch, *args), want, rtol=0, atol=TOL)
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
# initial states by spectrum: pure, maximally mixed, and two mixed states
# of rank 2 and 3 whose unequal weights tell the past labels apart
HP_XI = {
    "pure": lambda n: [1.0],
    "mixed": lambda n: [2.0**-n] * 2**n,
    "rank2": lambda n: [0.7, 0.3],
    "rank3": lambda n: [0.0, 0.5, 0.3, 0.2],
}


def hp_cfg(shape, xi):
    n, k, ell = shape
    return HpConfig(n, k, ell, HP_XI[xi](n), seed=77, trials=2)


@pytest.mark.parametrize("xi", list(HP_XI))
@pytest.mark.parametrize("shape", HP_SHAPES, ids=lambda s: "-".join(map(str, s)))
def test_hp_trials_match_the_oracles(shape, xi):
    cfg = hp_cfg(shape, xi)
    k = cfg.n_msg
    v = sample_isometry(cfg, 0)
    ch = hp_channel(v, cfg)
    oracle_kraus = oracle_hp_kraus(v, cfg, cfg.dim_past)
    np.testing.assert_allclose(ch.kraus, oracle_kraus, rtol=0, atol=TOL)
    oracle_ch = channel(oracle_kraus, (2**k,), (cfg.dim_past, 2**cfg.n_rad))
    z, x = pauli_basis(k, "z"), pauli_basis(k, "x")
    bundle_z, _ = check_basis(ch, oracle_ch, z)
    bundle_x, _ = check_basis(ch, oracle_ch, x)
    check_decoder(ch, oracle_kraus, bundle_z, bundle_x, z, x)


@pytest.mark.parametrize("xi", list(HP_XI))
@pytest.mark.parametrize("shape", HP_SHAPES, ids=lambda s: "-".join(map(str, s)))
def test_run_trial_matches_the_full_space_trial(shape, xi):
    cfg = hp_cfg(shape, xi)
    for t in range(cfg.trials):
        got, want = run_trial(cfg, t), oracle_run_trial(cfg, t)
        assert got.error == want.error
        assert got.ill_conditioned == want.ill_conditioned
        assert len(got.collision_entropies) == len(want.collision_entropies)
        pairs = [
            (f.name, getattr(got, f.name), getattr(want, f.name))
            for f in dataclasses.fields(TrialResult)
            if f.type == "float"
        ] + [
            (f"collision_entropies[{j}]", g, w)
            for j, (g, w) in enumerate(
                zip(got.collision_entropies, want.collision_entropies)
            )
        ]
        noise = min(want.delta_cl_z, want.delta_cl_x) < NOISE
        for name, g, w in pairs:
            if name == "bound_two_term" and noise:
                continue
            assert abs(g - w) <= TOL * max(1.0, abs(w)), f"{name}: {g!r} vs {w!r}"
        # the two-term bound takes square roots of the classical errors, so
        # where one of them is rounding noise it moves by the root of that
        # noise; it must still be the bound of the trial's own errors
        dz, dx = got.delta_cl_z, got.delta_cl_x
        own = math.sqrt(max(dz * (2.0 - dz), 0.0)) + math.sqrt(max(dx, 0.0))
        assert got.bound_two_term == own
        if noise:
            assert abs(got.bound_two_term - want.bound_two_term) <= 2 * math.sqrt(
                2 * NOISE
            )


def overlap_samples_and_sides(cfg, monkeypatch):
    """``pairwise_overlap_samples(cfg)`` and, per sample, the side that
    summed it: the Gram side sums its blocks with ``off_diagonal_sum``, the
    output side with ``cross_overlap``."""
    sides = []
    for name, side in (("off_diagonal_sum", "gram"), ("cross_overlap", "outputs")):
        def spy(*args, real=getattr(haarhp, name), side=side):
            sides.append(side)
            return real(*args)
        monkeypatch.setattr(haarhp, name, spy)
    return pairwise_overlap_samples(cfg), sides


def cheaper_side(cfg):
    """The side of fewer multiply-adds, counted from the shapes: ``d dC^2
    (n + d)`` for the outputs, ``d^2 n^2 dC`` for the Gram blocks."""
    d, n = cfg.dim_msg, 2 ** (cfg.n_bh + cfg.n_msg - cfg.n_rad)
    dc = cfg.dim_past * 2**cfg.n_rad
    return "gram" if d * d * n * n * dc < d * dc * dc * (n + d) else "outputs"


def check_overlap_samples(cfg, monkeypatch):
    """The samples against the compressed channel's outputs on the same
    draws, to 1e-12 relative, or absolute where the overlap is below
    1e-12; returns the side every sample was read on."""
    got, sides = overlap_samples_and_sides(cfg, monkeypatch)
    want = compressed_pairwise_overlap_samples(cfg)
    for g, w in zip(got, want):
        assert abs(g - w) <= TOL * (abs(w) if abs(w) >= TOL else 1.0), (g, w)
    assert sides == [cheaper_side(cfg)] * cfg.trials
    return sides[0]


@pytest.mark.parametrize("xi", list(HP_XI))
@pytest.mark.parametrize("shape", HP_SHAPES, ids=lambda s: "-".join(map(str, s)))
def test_overlap_samples_match_the_compressed_outputs_on_hp_channels(
    shape, xi, monkeypatch
):
    check_overlap_samples(hp_cfg(shape, xi), monkeypatch)


@pytest.mark.parametrize("xi", ["pure", "mixed"])
def test_overlap_samples_match_the_compressed_outputs_on_the_bench_sweep(
    xi, monkeypatch
):
    sides = [
        check_overlap_samples(hp_cfg((5, 2, ell), xi), monkeypatch)
        for ell in range(2, 6)
    ]
    if xi == "pure":  # one sweep covers both sides
        assert sides == ["outputs", "outputs", "gram", "gram"]


@pytest.mark.parametrize("shape", [(2, 6, 4), (6, 2, 4)], ids=["2-6-4", "6-2-4"])
def test_overlap_samples_match_the_compressed_outputs_at_wide_shapes(
    shape, monkeypatch
):
    check_overlap_samples(hp_cfg(shape, "pure"), monkeypatch)


# ---------------------------------------------------------------------------
# the pPGM from its support factors: the blocks of F = Pi^{-1/2} Q, with
# Q = [U_1 ... U_d] and Pi = Q Q^dag on the output span


def check_support_sum_ppgm(ch, basis, rank_tol=None):
    """The pPGM built from the support factors against the dense
    construction it replaced: every input of the pairwise bound, and so the
    bound, bit for bit; the elements, the support projectors and the other
    bounds to 1e-12."""
    got = build_ppgm(ch, basis, rank_tol)
    want = dense_build_ppgm(ch, basis, rank_tol)
    check_statistics(got, want.tau_states, exact=True)
    assert got.lambda_min == want.lambda_min
    assert got.ill_conditioned == want.ill_conditioned
    forms = (got.pairwise_sum, got.pairwise_entropy, got.lambda_min)
    assert forms == dense_pairwise_bound(want)
    np.testing.assert_allclose(
        elements(got.povm), want.elements, rtol=0, atol=TOL
    )
    assert_close(got.delta_cl, dense_ppgm_error(want), "delta_cl")
    assert_close(got.support_overlap, dense_support_bound(want), "support_bound")
    return got


def hp_rank_tol(cfg):
    """The support cutoff :func:`run_trial` gives the pPGMs: that of the
    physical output space."""
    return DEFAULT_TOLS.rank_tol(2**cfg.n_bh * 2**cfg.n_rad)


@pytest.mark.parametrize("xi", list(HP_XI))
@pytest.mark.parametrize("shape", HP_SHAPES, ids=lambda s: "-".join(map(str, s)))
def test_gram_form_ppgm_matches_the_dense_one_on_hp_channels(shape, xi):
    cfg = hp_cfg(shape, xi)
    for t in range(cfg.trials):
        ch = _trial_channel(cfg, t)
        for which in "zx":
            check_support_sum_ppgm(ch, pauli_basis(cfg.n_msg, which), hp_rank_tol(cfg))


@pytest.mark.parametrize("shape", [(2, 5, 3), (3, 5, 4)], ids=["2-5-3", "3-5-4"])
def test_ppgm_matches_the_dense_one_at_five_message_qubits(shape):
    # d = 32 inputs on an output span of 9 or 17 dimensions: Pi is over ten
    # times smaller on a side than the Gram matrix of the support factors
    cfg = hp_cfg(shape, "pure")
    ch = _trial_channel(cfg, 0)
    for which in "zx":
        bundle = check_support_sum_ppgm(ch, pauli_basis(5, which), hp_rank_tol(cfg))
        # the support factors U_j are dC x min(dC, #Kraus)
        assert 10 * ch.dim_out < 32 * min(ch.dim_out, len(ch.kraus))


@pytest.mark.parametrize("xi", ["pure", "rank2", "rank3"])
@pytest.mark.parametrize("shape", HP_SHAPES, ids=lambda s: "-".join(map(str, s)))
def test_pinned_zero_falls_to_outcome_0_on_hp_channels(shape, xi):
    # with a rank-deficient initial state the outputs miss the pinned |0>,
    # so <0|M_l|0>, the weight the decoder reads off it, is 1 at l = 0 only
    cfg = hp_cfg(shape, xi)
    for t in range(cfg.trials):
        ch = _trial_channel(cfg, t)
        for which in "zx":
            bundle = build_ppgm(ch, pauli_basis(cfg.n_msg, which), hp_rank_tol(cfg))
            row0 = bundle.povm.factors[:, 0, :]
            weights = np.einsum("lw,lw->l", row0, row0.conj()).real
            want = np.eye(len(weights))[0]
            np.testing.assert_allclose(weights, want, rtol=0, atol=TOL)


@pytest.mark.parametrize("seed", range(6))
def test_gram_form_ppgm_matches_the_dense_one_on_suite_sized_channels(seed):
    rng = np.random.default_rng(900 + seed)
    d = (2, 3, 4)[seed % 3]
    ch = random_channel(rng, d, d + seed % 3, 1 + int(rng.integers(4)))
    for basis in (random_basis(rng, d), random_basis(rng, d)):
        check_support_sum_ppgm(ch, basis)


@pytest.mark.parametrize("seed, trial", [(5017, 9), (3078, 1)])
def test_ppgm_keeps_the_pairwise_forms_where_lambda_min_is_small(seed, trial):
    # (3,1,2) pure trials whose X-basis lambda_min is below 1e-7, so the two
    # pairwise forms are of order 1e6 and differ by a few of their ulps; at
    # seed 3078 by 2.8e-9, more than an absolute 1e-9.  Their numerators,
    # which verify prop2 compares, agree to rounding
    cfg = HpConfig(3, 1, 2, [1.0], seed=seed, trials=trial + 1)
    ch = _trial_channel(cfg, trial)
    check_support_sum_ppgm(ch, pauli_basis(1, "z"), hp_rank_tol(cfg))
    bundle_x = check_support_sum_ppgm(ch, pauli_basis(1, "x"), hp_rank_tol(cfg))
    assert bundle_x.lambda_min < 1e-7 and not bundle_x.ill_conditioned
    gap = abs(bundle_x.pairwise_sum - bundle_x.pairwise_entropy)
    assert bundle_x.lambda_min * gap <= 1e-10


@pytest.mark.parametrize("d", [8, 16])
def test_ppgm_and_its_bounds_at_larger_input_dimensions(d):
    # the suites draw d <= 4; here the pPGMs of two random bases, their
    # bound chain (appx_b) and the decoder built from them (thm1)
    rng = np.random.default_rng(960 + d)
    for i in range(9):
        ch = random_channel(rng, d, d + i % 3, 1 + int(rng.integers(4)))
        e_basis, f_basis = random_basis(rng, d), random_basis(rng, d)
        bundles = [check_support_sum_ppgm(ch, b) for b in (e_basis, f_basis)]
        for bundle in bundles:
            if bundle.ill_conditioned:
                continue
            err, mid, top = bundle.delta_cl, bundle.support_overlap, bundle.pairwise_sum
            assert err <= mid + SLACK_TOL and mid <= top + SLACK_TOL
            assert err <= 4 * mid + SLACK_TOL
        rep = error_report(ch, bundles[0].povm, bundles[1].povm, e_basis, f_basis)
        assert rep.delta_q <= rep.delta_q_bound + SLACK_TOL


# ---------------------------------------------------------------------------
# the decoder state from the POVMs' factors


def check_factored_decoder(ch, povm_e, povm_f, e_basis, f_basis):
    """The factored decoder state against the one built from the element
    products and the ``d^5`` tensor it replaced, and its ``delta_q``."""
    d = e_basis.dim
    args = (povm_e, povm_f, e_basis, f_basis)
    want = dense_ctoq_state(ch, *args)
    np.testing.assert_allclose(lab_ctoq_state(ch, *args), want, rtol=0, atol=TOL)
    dq = trace_distance(max_entangled(d), Operator(want, (d, d), (d, d)))
    assert_close(ctoq_delta_q(ch, *args), dq, "delta_q")


@pytest.mark.parametrize("xi", list(HP_XI))
@pytest.mark.parametrize("shape", HP_SHAPES, ids=lambda s: "-".join(map(str, s)))
def test_factored_decoder_matches_the_dense_one_on_hp_channels(shape, xi):
    cfg = hp_cfg(shape, xi)
    z, x = pauli_basis(cfg.n_msg, "z"), pauli_basis(cfg.n_msg, "x")
    for t in range(cfg.trials):
        ch = _trial_channel(cfg, t)
        pz = build_ppgm(ch, z, hp_rank_tol(cfg)).povm
        px = build_ppgm(ch, x, hp_rank_tol(cfg)).povm
        check_factored_decoder(ch, pz, px, z, x)


@pytest.mark.parametrize("shape", [(2, 5, 3), (3, 5, 6)], ids=["2-5-3", "3-5-6"])
def test_factored_decoder_matches_the_loop_at_five_message_qubits(shape):
    # d = 32, where the dense oracle's d^5 tensor would take 537 MiB: the
    # per-F-outcome loop the bilinear form replaced is the reference
    cfg = hp_cfg(shape, "pure")
    z, x = pauli_basis(5, "z"), pauli_basis(5, "x")
    ch = _trial_channel(cfg, 0)
    pz = build_ppgm(ch, z, hp_rank_tol(cfg)).povm
    px = build_ppgm(ch, x, hp_rank_tol(cfg)).povm
    for args in ((pz, px, z, x), (px, pz, x, z)):
        want = loop_ctoq_state(ch, *args)
        np.testing.assert_allclose(lab_ctoq_state(ch, *args), want, rtol=0, atol=TOL)


@pytest.mark.parametrize("seed", range(6))
def test_factored_decoder_matches_the_dense_one_on_suite_sized_channels(seed):
    # the pPGMs of two random bases, and two random POVMs
    rng = np.random.default_rng(900 + seed)
    d = (2, 3, 4)[seed % 3]
    ch = random_channel(rng, d, d + seed % 3, 1 + int(rng.integers(4)))
    e_basis, f_basis = random_basis(rng, d), random_basis(rng, d)
    povms = [build_ppgm(ch, b).povm for b in (e_basis, f_basis)]
    check_factored_decoder(ch, *povms, e_basis, f_basis)
    povms = [random_povm(rng, ch.dim_out, d) for _ in range(2)]
    check_factored_decoder(ch, *povms, e_basis, f_basis)


@pytest.mark.parametrize("d", [8, 16])
def test_factored_decoder_matches_the_dense_one_at_larger_input_dimensions(
    monkeypatch, d
):
    # instances as thm1 draws them, at d beyond the suites' 2, 3, 4
    monkeypatch.setattr(verify, "_DIMS", (d,))
    rng = np.random.default_rng(970 + d)
    for i in range(4):
        _, ch, pe, pf, e_basis, f_basis = verify._instance(rng, i)
        check_factored_decoder(ch, pe, pf, e_basis, f_basis)


@pytest.mark.parametrize(
    "suite, d",
    [("thm1", 8), ("thm1", 16), ("cor1", 8), ("cor1", 16), ("appx_a", 8),
     ("appx_a", 16), ("eq18", 8), ("eq18", 16),
     # ghz at d = 16 would hold (d^2 dC)^2 = 4096^2 states
     ("ghz", 8)],
)
def test_random_povm_suites_at_larger_input_dimensions(monkeypatch, suite, d):
    # the suites that draw random POVMs, at d beyond their 2, 3, 4
    monkeypatch.setattr(verify, "_DIMS", (d,))
    result = verify.run_suite(suite, 6, 980 + d)
    assert result.passed, result.notes
    assert result.instances == 6


def _branches(ch):
    """``B = [K_n|a>]`` as a ``dim_out x (#Kraus d)`` matrix."""
    ks = ch.kraus
    return ks.transpose(1, 0, 2).reshape(ks.shape[1], -1)


def _check_span(ch):
    small, w = output_span_channel(ch)
    dc = ch.dim_out
    np.testing.assert_allclose(w.conj().T @ w, np.eye(w.shape[1]), rtol=0, atol=TOL)
    e0 = np.zeros(dc)
    e0[0] = 1.0
    assert np.array_equal(w[:, 0], e0)
    b = _branches(ch)
    np.testing.assert_allclose(w @ (w.conj().T @ b), b, rtol=0, atol=TOL)
    flat = small.kraus.reshape(-1, small.dim_in)
    np.testing.assert_allclose(
        flat.conj().T @ flat, np.eye(small.dim_in), rtol=0, atol=TOL
    )
    assert small.in_dims == ch.in_dims and small.out_dims == (w.shape[1],)
    np.testing.assert_allclose(small.kraus, w.conj().T @ ch.kraus, rtol=0, atol=0)
    return w, np.linalg.matrix_rank(b)


@pytest.mark.parametrize("xi", list(HP_XI))
@pytest.mark.parametrize("shape", HP_SHAPES, ids=lambda s: "-".join(map(str, s)))
def test_output_span_holds_every_hp_output_and_pins_zero(shape, xi):
    cfg = hp_cfg(shape, xi)
    ch = hp_channel(sample_isometry(cfg, 0), cfg)
    w, rank = _check_span(ch)
    # |0> of past (x) new lies outside the span of a Haar channel's outputs,
    # unless that span is all of C
    assert w.shape[1] == min(rank + 1, ch.dim_out)


@pytest.mark.parametrize("seed", range(4))
def test_output_span_of_outputs_holding_zero_is_the_span(seed):
    # Kraus operators that map into a random span S = range(Q) containing
    # |0>: the compression has exactly dim S columns
    rng = np.random.default_rng(950 + seed)
    d, dc, dim_s = 2 + seed % 3, 12, 5 + seed % 3
    inner = random_channel(rng, d, dim_s, 3)
    g = rng.standard_normal((dc - 1, dim_s - 1)) + 1j * rng.standard_normal(
        (dc - 1, dim_s - 1)
    )
    q = np.zeros((dc, dim_s), dtype=np.complex128)
    q[0, 0] = 1.0
    q[1:, 1:] = np.linalg.qr(g)[0]
    ch = channel(q @ inner.kraus, (d,), (dc,))
    w, rank = _check_span(ch)
    assert rank == dim_s
    assert w.shape[1] == dim_s
    # the same channel moved off |0>: one more column, the pinned |0>
    ch_off = channel(np.roll(q, 1, axis=0) @ inner.kraus, (d,), (dc,))
    w_off, rank_off = _check_span(ch_off)
    assert w_off.shape[1] == rank_off + 1 == dim_s + 1


# ---------------------------------------------------------------------------
# the coherent measurement


def check_coherent_state(ch, povm_e, e_basis):
    want = oracle_coherent_state(ch, povm_e, e_basis)
    got = coherent_state(ch, povm_e, e_basis)
    assert got.row_dims == want.row_dims == ch.out_dims + (e_basis.dim,) + ch.in_dims
    np.testing.assert_allclose(got.data, want.data, rtol=0, atol=TOL)


def check_eraser_after_coherent_state(ch, povm_e, povm_f, e_basis, f_basis):
    """The eraser oracle applied to the coherent measurement's closed-form
    state reproduces the decoder's closed-form state."""
    thetas = [build_theta(e_basis, f_basis, l) for l in range(e_basis.dim)]
    coh = coherent_state(ch, povm_e, e_basis)
    # the eraser measures C as one factor
    dims = (ch.dim_out, e_basis.dim) + ch.in_dims
    coh = Operator(coh.data, dims, dims)
    got = apply_channel(build_eraser(povm_f, thetas), coh, targets=[0, 1])
    want = lab_ctoq_state(ch, povm_e, povm_f, e_basis, f_basis)
    np.testing.assert_allclose(got.data, want, rtol=0, atol=TOL)


def test_coherent_state_matches_the_kraus_form_on_ghz_suite_instances():
    # drawn as the ghz suite draws them: block and isometry channels whose
    # E label survives
    rng = np.random.default_rng(20240824)
    for i in range(12):
        d = (2, 3, 4)[i % 3]
        e_basis = random_basis(rng, d)
        if i % 2:
            ch, povm_e = random_isometry_channel(rng, e_basis, d + 1 + i % 3)
        else:
            ch, povm_e = random_block_channel(rng, e_basis, 1 + i % 2)
        assert delta_cl(povm_e, ch, e_basis) < 1e-12
        check_coherent_state(ch, povm_e, e_basis)


@pytest.mark.parametrize("seed", range(6))
def test_coherent_state_matches_the_kraus_form_on_random_povms(seed):
    rng = np.random.default_rng(930 + seed)
    d = (2, 3, 4)[seed % 3]
    ch = random_channel(rng, d, d + seed % 3, 1 + int(rng.integers(4)))
    povm_e = random_povm(rng, ch.dim_out, d)
    e_basis = random_basis(rng, d)
    assert delta_cl(povm_e, ch, e_basis) > 0.1  # the label does not survive
    check_coherent_state(ch, povm_e, e_basis)


def two_factor_instance(seed):
    """A channel into C = (2, 2), as in the scrambling setup, and two random
    POVMs on C."""
    rng = np.random.default_rng(seed)
    ch = Channel(random_channel(rng, 2, 4, 2).kraus, (2,), (2, 2))
    povm_e, povm_f = (random_povm(rng, 4, 2) for _ in range(2))
    return ch, povm_e, povm_f, random_basis(rng, 2), random_basis(rng, 2)


def test_coherent_state_matches_the_kraus_form_on_two_factor_output():
    ch, povm_e, _, e_basis, _ = two_factor_instance(940)
    check_coherent_state(ch, povm_e, e_basis)


@pytest.mark.parametrize("seed", range(6))
def test_eraser_after_coherent_state_is_the_decoder_state(seed):
    rng = np.random.default_rng(900 + seed)
    d = (2, 3, 4)[seed % 3]
    ch = random_channel(rng, d, d + seed % 3, 1 + int(rng.integers(4)))
    e_basis, f_basis = random_basis(rng, d), random_basis(rng, d)
    povm_e = build_ppgm(ch, e_basis).povm
    povm_f = build_ppgm(ch, f_basis).povm
    check_eraser_after_coherent_state(ch, povm_e, povm_f, e_basis, f_basis)


def test_eraser_after_coherent_state_on_two_factor_output():
    check_eraser_after_coherent_state(*two_factor_instance(941))


# ---------------------------------------------------------------------------
# the defect's fidelities and the block channel


def oracle_overlap_fidelities(e_basis, f_basis):
    """``F_l = (sum_j sqrt(p_l(j) / d))^2`` with ``p_l(j) = |<j_E|l_F>|^2``,
    one overlap distribution at a time."""
    d = e_basis.dim
    fids = []
    for l in range(d):
        f_l = f_basis.matrix[:, l]
        p = [abs(np.vdot(e_basis.matrix[:, j], f_l)) ** 2 for j in range(d)]
        fids.append(np.sum(np.sqrt(np.array(p) / d)) ** 2)
    return np.array(fids)


@pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
def test_overlap_fidelities_match_the_distribution_form(d):
    rng = np.random.default_rng(1900 + d)
    for _ in range(4):
        e_basis, f_basis = random_basis(rng, d), random_basis(rng, d)
        np.testing.assert_allclose(
            _overlap_fidelities(e_basis, f_basis),
            oracle_overlap_fidelities(e_basis, f_basis),
            rtol=0,
            atol=1e-14,
        )


@pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
def test_overlap_fidelities_are_one_on_mubs_and_one_over_d_on_one_basis(d):
    np.testing.assert_allclose(
        _overlap_fidelities(*mub_pair(d)), 1.0, rtol=0, atol=1e-14
    )
    e_basis = random_basis(np.random.default_rng(1950 + d), d)
    np.testing.assert_allclose(
        _overlap_fidelities(e_basis, e_basis), 1.0 / d, rtol=0, atol=1e-14
    )


def oracle_block_channel(rng, e_basis, block_size):
    """``random_block_channel`` as it was built before: each dense output
    ``sigma_j`` eigendecomposed back into Kraus operators by
    ``measure_prepare_channel``, from the same draws."""
    d = e_basis.dim
    dc = d * block_size
    rot = haar_isometry(dc, dc, rng)
    blocks = rot.reshape(dc, d, block_size).transpose(1, 0, 2)
    outputs = []
    for j in range(d):
        g = ginibre(rng, block_size, block_size)
        blk = g @ g.conj().T
        blk /= np.trace(blk).real
        outputs.append(Operator(blocks[j] @ blk @ blocks[j].conj().T, (dc,), (dc,)))
    readout = Povm(e_basis.matrix.T[:, :, None])  # |j_E><j_E|
    return measure_prepare_channel(readout, outputs), Povm(blocks)


def choi(ch):
    """``sum_n vec(K_n) vec(K_n)^dag``, the same for every Kraus set of the
    channel."""
    flat = ch.kraus.reshape(len(ch.kraus), -1)
    return flat.T @ flat.conj()


@pytest.mark.parametrize("seed", range(6))
def test_block_channel_matches_the_measure_prepare_build(seed):
    d, block_size = (2, 3, 4)[seed % 3], 1 + seed % 3
    e_basis = random_basis(np.random.default_rng(1960 + seed), d)
    ch, povm_e = random_block_channel(np.random.default_rng(seed), e_basis, block_size)
    want, want_povm = oracle_block_channel(
        np.random.default_rng(seed), e_basis, block_size
    )
    assert (ch.in_dims, ch.out_dims) == (want.in_dims, want.out_dims)
    np.testing.assert_array_equal(povm_e.factors, want_povm.factors)
    np.testing.assert_allclose(choi(ch), choi(want), rtol=0, atol=1e-12)
    assert delta_cl(povm_e, ch, e_basis) < 1e-12
