import numpy as np
import pytest

from ctoq.ppgm import build_ppgm
from ctoq.qcore import Povm, computational_basis, pauli_basis
from ctoq.sampling import ginibre, random_basis, random_block_channel, random_channel
from tests.helpers import (
    basis_outputs,
    depolarizing_channel,
    elements,
    func_on_support,
    measure_prepare_channel,
    operator,
)


def support_projection(rho):
    """Projector onto the numerical support of a PSD operator."""
    return func_on_support(rho, np.ones_like)


def test_support_projection_pure_and_mixed():
    rng = np.random.default_rng(0)
    psi = ginibre(rng, 4, 1)[:, 0]
    psi /= np.linalg.norm(psi)
    pure = operator(np.outer(psi, psi.conj()), 4)
    np.testing.assert_allclose(
        support_projection(pure).data, pure.data, atol=1e-12
    )
    np.testing.assert_allclose(
        support_projection(operator(np.eye(3) / 3, 3)).data, np.eye(3), atol=1e-12
    )


def test_support_projection_rank_two():
    eps = 0.1
    rho = operator(np.diag([1 - eps, eps, 0.0]), 3)
    proj = support_projection(rho).data
    np.testing.assert_allclose(proj, np.diag([1.0, 1.0, 0.0]), atol=1e-12)


def test_ppgm_orthogonal_supports_decodes_perfectly():
    rng = np.random.default_rng(1)
    basis = random_basis(rng, 3)
    chan, _ = random_block_channel(rng, basis, block_size=2)
    bundle = build_ppgm(chan, [basis])[0]
    assert bundle.delta_cl < 1e-10
    assert bundle.support_overlap < 1e-10
    assert bundle.pairwise_sum < 1e-9 and bundle.pairwise_entropy < 1e-9


def test_ppgm_depolarizing_qubit():
    z = pauli_basis(1, "z")
    bundle = build_ppgm(depolarizing_channel(2), [z])[0]
    for el in elements(bundle.povm):
        np.testing.assert_allclose(el, np.eye(2) / 2, atol=1e-12)
    assert bundle.delta_cl == pytest.approx(0.5, abs=1e-12)
    assert bundle.lambda_min == pytest.approx(0.5, abs=1e-12)
    assert bundle.pairwise_sum == pytest.approx(1.0, abs=1e-10)
    assert bundle.pairwise_entropy == pytest.approx(1.0, abs=1e-10)
    assert bundle.support_overlap == pytest.approx(1.0, abs=1e-10)


def test_ppgm_povm_complete_randomized():
    rng = np.random.default_rng(2)
    for i in range(10):
        d = (2, 3)[i % 2]
        chan = random_channel(rng, d, d + 1 + i % 2, int(rng.integers(1, 4)))
        bundle = build_ppgm(chan, [random_basis(rng, d)])[0]  # Povm validates
        total = elements(bundle.povm).sum(axis=0)
        assert np.max(np.abs(total - np.eye(chan.dim_out))) < 1e-9


def support_width(chan):
    """Width ``m`` of the support factors ``U_j``: the branch matrices
    ``[K_n|j>]_n`` are ``dC x #Kraus``."""
    return min(chan.dim_out, len(chan.kraus))


def test_residual_never_fires_on_outputs():
    rng = np.random.default_rng(3)
    chan = random_channel(rng, 2, 4, 1)  # rank-1 outputs, real deficiency
    basis = random_basis(rng, 2)
    bundle = build_ppgm(chan, [basis])[0]
    extra = bundle.povm.factors[0, :, support_width(chan):]
    residual = extra @ extra.conj().T  # I - supp(Pi), folded into outcome 0
    for tau in basis_outputs(chan, basis):
        fire = float(np.einsum("ij,ji->", residual, tau).real)
        assert fire <= 1e-9


def test_deficiency_of_pi_goes_to_outcome_0():
    rng = np.random.default_rng(3)
    chan = random_channel(rng, 2, 4, 1)  # rank-1 outputs, Pi of rank 2
    basis = random_basis(rng, 2)
    bundle = build_ppgm(chan, [basis])[0]
    m = support_width(chan)
    taus = basis_outputs(chan, basis)
    projectors = [support_projection(operator(tau, 4)).data for tau in taus]
    pi_rank = np.linalg.matrix_rank(sum(projectors), hermitian=True)
    extra = bundle.povm.factors[0, :, m:]
    assert extra.shape[1] == 4 - pi_rank == 2
    np.testing.assert_allclose(extra.conj().T @ extra, np.eye(2), atol=1e-12)
    for proj in projectors:
        assert np.max(np.abs(proj @ extra)) < 1e-12
    assert not bundle.povm.factors[1:, :, m:].any()


def test_pairwise_bound_forms_agree_randomized():
    rng = np.random.default_rng(4)
    for i in range(20):
        d = (2, 3, 4)[i % 3]
        chan = random_channel(rng, d, d + i % 3, int(rng.integers(1, 4)))
        bundle = build_ppgm(chan, [random_basis(rng, d)])[0]
        if bundle.ill_conditioned:
            continue
        assert bundle.pairwise_sum == pytest.approx(bundle.pairwise_entropy, abs=1e-10)


def test_error_chain_randomized():
    rng = np.random.default_rng(5)
    for i in range(20):
        d = (2, 3)[i % 2]
        chan = random_channel(rng, d, d + 1, int(rng.integers(1, 4)))
        bundle = build_ppgm(chan, [random_basis(rng, d)])[0]
        if bundle.ill_conditioned:
            continue
        err, mid, top = bundle.delta_cl, bundle.support_overlap, bundle.pairwise_sum
        assert err <= mid + 1e-9
        assert mid <= top + 1e-9
        assert err <= 4 * mid + 1e-9


def test_ill_conditioned_flag():
    # one output eigenvalue sits just above the support cutoff
    tiny = 1e-15
    z = computational_basis(2)
    povm = Povm(np.eye(2)[:, :, None])  # |0><0|, |1><1|
    outputs = [
        operator(np.diag([1.0 - tiny, tiny]), 2),
        operator(np.diag([0.5, 0.5]), 2),
    ]
    chan = measure_prepare_channel(povm, outputs)
    bundle = build_ppgm(chan, [z])[0]
    assert bundle.ill_conditioned
    assert bundle.lambda_min == pytest.approx(tiny, rel=0.5)
    # vacuous bound is reported raw, not clamped
    assert bundle.pairwise_sum > 1.0


def test_ppgm_decomposes_each_branch_stack_once(monkeypatch):
    # one batched SVD of both bases' branch matrices gives the support
    # factors and lambda_min, and one more of Q the polar factors
    calls = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    rng = np.random.default_rng(6)
    chan = random_channel(rng, 3, 4, 2)
    build_ppgm(chan, [random_basis(rng, 3), random_basis(rng, 3)])
    # the (bases, inputs, dC, Kraus) branch stack, then the (bases, dC, d m) Q
    assert calls == [(2, 3, 4, 2), (2, 4, 6)]
