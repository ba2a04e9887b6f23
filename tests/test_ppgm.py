import numpy as np
import pytest

from ctoq.decoder import delta_cl
from ctoq.linop import Operator
from ctoq.ppgm import (
    support_bound,
    build_ppgm,
    pairwise_bound,
)
from ctoq.qcore import Povm, basis_outputs, computational_basis, pauli_basis
from ctoq.sampling import ginibre, random_basis, random_block_channel, random_channel
from tests.helpers import (
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
    bundle = build_ppgm(chan, basis)
    assert delta_cl(bundle.povm, bundle.channel, bundle.basis) < 1e-10
    assert support_bound(bundle) < 1e-10
    sum_form, entropy_form, _ = pairwise_bound(bundle)
    assert sum_form < 1e-9 and entropy_form < 1e-9


def test_ppgm_depolarizing_qubit():
    z = pauli_basis(1, "z")
    bundle = build_ppgm(depolarizing_channel(2), z)
    for el in elements(bundle.povm):
        np.testing.assert_allclose(el, np.eye(2) / 2, atol=1e-12)
    err = delta_cl(bundle.povm, bundle.channel, bundle.basis)
    assert err == pytest.approx(0.5, abs=1e-12)
    sum_form, entropy_form, lam = pairwise_bound(bundle)
    assert lam == pytest.approx(0.5, abs=1e-12)
    assert sum_form == pytest.approx(1.0, abs=1e-10)
    assert entropy_form == pytest.approx(1.0, abs=1e-10)
    assert support_bound(bundle) == pytest.approx(1.0, abs=1e-10)


def test_ppgm_povm_complete_randomized():
    rng = np.random.default_rng(2)
    for i in range(10):
        d = (2, 3)[i % 2]
        chan = random_channel(rng, d, d + 1 + i % 2, int(rng.integers(1, 4)))
        bundle = build_ppgm(chan, random_basis(rng, d))  # Povm validates
        total = elements(bundle.povm).sum(axis=0)
        assert np.max(np.abs(total - np.eye(chan.dim_out))) < 1e-9


def test_residual_never_fires_on_outputs():
    rng = np.random.default_rng(3)
    chan = random_channel(rng, 2, 4, 1)  # rank-1 outputs, real deficiency
    bundle = build_ppgm(chan, random_basis(rng, 2))
    u = bundle.supports
    pi_sum = Operator((u @ u.conj().transpose(0, 2, 1)).sum(axis=0), (4,), (4,))
    residual = np.eye(4) - support_projection(pi_sum).data
    for tau in basis_outputs(chan, bundle.basis):
        fire = float(np.einsum("ij,ji->", residual, tau).real)
        assert fire <= 1e-9


def test_pairwise_bound_forms_agree_randomized():
    rng = np.random.default_rng(4)
    for i in range(20):
        d = (2, 3, 4)[i % 3]
        chan = random_channel(rng, d, d + i % 3, int(rng.integers(1, 4)))
        bundle = build_ppgm(chan, random_basis(rng, d))
        if bundle.ill_conditioned:
            continue
        sum_form, entropy_form, _ = pairwise_bound(bundle)
        assert sum_form == pytest.approx(entropy_form, abs=1e-10)


def test_error_chain_randomized():
    rng = np.random.default_rng(5)
    for i in range(20):
        d = (2, 3)[i % 2]
        chan = random_channel(rng, d, d + 1, int(rng.integers(1, 4)))
        bundle = build_ppgm(chan, random_basis(rng, d))
        if bundle.ill_conditioned:
            continue
        err = delta_cl(bundle.povm, bundle.channel, bundle.basis)
        mid = support_bound(bundle)
        top = pairwise_bound(bundle)[0]
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
    bundle = build_ppgm(chan, z)
    assert bundle.ill_conditioned
    assert bundle.lambda_min == pytest.approx(tiny, rel=0.5)
    # vacuous bound is reported raw, not clamped
    assert pairwise_bound(bundle)[0] > 1.0
