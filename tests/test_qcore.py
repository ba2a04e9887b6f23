import math

import numpy as np
import pytest

from ctoq.config import DEFAULT_TOLS
from ctoq.linop import Operator
from ctoq.qcore import (
    Channel,
    OrthoBasis,
    Povm,
    channel,
    computational_basis,
    dephasing_channel,
    fourier_basis,
    is_mub,
    outcome_weights,
    pauli_basis,
)
from ctoq.sampling import ginibre, random_basis, random_channel, random_povm
from tests.helpers import (
    apply_channel,
    collision_entropy,
    compose,
    dense_povm,
    depolarizing_channel,
    elements,
    haar_unitary,
    identity_channel,
    max_correlated_classical,
    max_entangled,
    operator,
    partial_trace,
    povm_channel,
    random_density,
    unitary_channel,
)


# ---------------------------------------------------------------------------
# types


def test_orthobasis_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        OrthoBasis(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_povm_validation():
    root_half = np.eye(2) / math.sqrt(2)
    povm = Povm([root_half, root_half])
    assert povm.factors.shape == (2, 2, 2) and (povm.n_outcomes, povm.dim) == (2, 2)
    np.testing.assert_allclose(elements(povm), [np.eye(2) / 2] * 2, atol=1e-15)
    with pytest.raises(ValueError):
        povm.factors[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        Povm([root_half, np.eye(2)])  # sums to 1.5 I
    for bad in (np.zeros((0, 2, 2)), np.zeros((2, 2, 0)), np.eye(2), np.ones((1, 2, 3))):
        with pytest.raises(ValueError):
            Povm(bad)
    # factors of unequal widths, zero-padded: |0><0| and |1><1| + 0
    padded = Povm([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]])
    np.testing.assert_array_equal(elements(padded), [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])


def test_povm_completeness_check_keeps_its_threshold():
    # sum_l A_l A_l^dag off the identity by 0.99e-9 is accepted, by 1.01e-9
    # refused, on the diagonal and off it
    assert DEFAULT_TOLS.povm == 1e-9

    def on_diagonal(off):
        return Povm([np.diag([math.sqrt(1.0 + off), 1.0]), np.zeros((2, 2))])

    def off_diagonal(off):
        # a = sqrt(off) (1, 1) beside diag(1 - |a_i|^2): the sum is I + off X
        a = math.sqrt(off) * np.ones(2)
        return Povm([np.diag(np.sqrt(1.0 - a**2)), np.stack([a, np.zeros(2)], axis=1)])

    for make in (on_diagonal, off_diagonal):
        make(0.0)
        make(0.99e-9)
        with pytest.raises(ValueError, match=r"does not sum to identity \(error 1.010e-09\)"):
            make(1.01e-9)


def test_povm_psd_check_keeps_its_threshold():
    # the element-based check the factored Povm replaced, kept for dense
    # inputs: the Cholesky check of M + povm I accepts what the eigenvalue
    # check accepted and refuses with the smallest eigenvalue
    for low in (-0.99e-9, 0.0):
        povm = dense_povm([np.diag([low, 0.5]), np.diag([1.0 - low, 0.5])])
        np.testing.assert_allclose(elements(povm)[0], np.diag([0.0, 0.5]), atol=1e-15)
    with pytest.raises(ValueError, match=r"not PSD \(min eig -1.010e-09\)"):
        dense_povm([np.diag([-1.01e-9, 0.5]), np.diag([1.0 + 1.01e-9, 0.5])])
    rot = haar_unitary(3, np.random.default_rng(5)).data
    tilted = rot @ np.diag([-1.01e-9, 0.25, 0.5]) @ rot.conj().T
    with pytest.raises(ValueError, match="not PSD"):
        dense_povm([tilted, np.eye(3) - tilted])
    half = np.eye(2) / 2
    with pytest.raises(ValueError, match="does not sum to identity"):
        dense_povm([half, np.eye(2)])
    with pytest.raises(ValueError):
        dense_povm([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])])


def test_povm_rejects_non_finite_elements():
    for bad in (np.nan, np.inf):
        broken = np.eye(2) / math.sqrt(2)
        broken[0, 1] = bad
        with pytest.raises(ValueError, match="factors must be finite"):
            Povm([broken, np.eye(2) / math.sqrt(2)])
        half = np.eye(2) / 2
        dense = half.copy()
        dense[0, 0] = bad
        with pytest.raises(ValueError, match="does not sum to identity"):
            dense_povm([dense, half])


def test_channel_rejects_non_finite_kraus():
    ks = random_channel(np.random.default_rng(2), 2, 3, 2).kraus.copy()
    ks[1, 2, 0] = np.nan
    with pytest.raises(ValueError, match="not trace preserving"):
        channel(ks, (2,), (3,))


def test_orthobasis_rejects_non_finite():
    m = np.eye(2, dtype=complex)
    m[1, 1] = np.nan
    with pytest.raises(ValueError, match="not orthonormal"):
        OrthoBasis(m)


def test_channel_requires_trace_preservation():
    with pytest.raises(ValueError):
        channel([np.eye(2) * 0.5], (2,), (2,))


def test_channel_rejects_empty_and_misshapen_stacks():
    with pytest.raises(ValueError):
        Channel(np.zeros((0, 2, 2)), (2,), (2,))
    with pytest.raises(ValueError):
        channel([], (2,), (2,))
    with pytest.raises(ValueError):
        Channel(np.zeros((2, 3, 2)), (2,), (2,))
    with pytest.raises(ValueError):
        Channel(np.zeros((3, 2)), (2,), (2,))
    with pytest.raises(ValueError):
        channel(np.eye(2)[None], (2,), (2, 2))


def test_channel_kraus_is_read_only():
    ch = random_channel(np.random.default_rng(1), 2, 3, 2)
    assert ch.kraus.shape == (2, 3, 2)
    with pytest.raises(ValueError):
        ch.kraus[0, 0, 0] = 1.0


def test_channel_from_list_equals_channel_from_stack():
    ch = random_channel(np.random.default_rng(2), 3, 2, 4)
    ks = [np.array(k) for k in ch.kraus]
    from_list = channel(ks, (3,), (2,))
    from_stack = channel(np.stack(ks), (3,), (2,))
    assert from_list.kraus.dtype == from_stack.kraus.dtype == np.complex128
    np.testing.assert_array_equal(from_list.kraus, from_stack.kraus)
    np.testing.assert_array_equal(from_list.kraus, ch.kraus)
    assert from_list.in_dims == from_stack.in_dims == (3,)
    assert from_list.out_dims == from_stack.out_dims == (2,)


# ---------------------------------------------------------------------------
# states


def test_max_entangled_trivial_and_bell():
    assert max_entangled(1).data.shape == (1, 1)
    bell = max_entangled(2)
    vec = np.zeros(4)
    vec[0] = vec[3] = 1 / math.sqrt(2)
    np.testing.assert_allclose(bell.data, np.outer(vec, vec), atol=1e-15)


def test_max_entangled_marginals_are_mixed():
    phi = max_entangled(3)
    for keep in ([0], [1]):
        np.testing.assert_allclose(
            partial_trace(phi, keep).data, np.eye(3) / 3, atol=1e-14
        )


def test_max_correlated_computational():
    omega = max_correlated_classical(computational_basis(2))
    np.testing.assert_allclose(
        omega.data, np.diag([0.5, 0.0, 0.0, 0.5]), atol=1e-15
    )
    assert omega.trace() == pytest.approx(1.0)


def test_max_correlated_is_dephased_entangled_state():
    # dephasing the second factor of the maximally entangled state in basis W
    # yields the correlated state with conjugate basis on the first factor
    w = fourier_basis(3)
    phi = max_entangled(3)
    dephased = apply_channel(dephasing_channel(w), phi, targets=[1])
    expected = max_correlated_classical(OrthoBasis(w.matrix.conj()))
    np.testing.assert_allclose(dephased.data, expected.data, atol=1e-12)


# ---------------------------------------------------------------------------
# channel application


def test_apply_identity_channel():
    rng = np.random.default_rng(6)
    rho = random_density(rng, 4)
    out = apply_channel(identity_channel(4), rho)
    np.testing.assert_allclose(out.data, rho.data, atol=1e-14)


def test_apply_depolarizing_to_half_of_entangled_state():
    phi = max_entangled(2)
    out = apply_channel(depolarizing_channel(2), phi, targets=[0])
    np.testing.assert_allclose(out.data, np.eye(4) / 4, atol=1e-12)


def kraus_embed_oracle(ch: Channel, state: Operator, target: int) -> np.ndarray:
    """Reference: explicit kron-embedded Kraus sum for single-factor targets."""
    dims = state.row_dims
    out = 0.0
    for k in ch.kraus:
        factors_left = np.eye(math.prod(dims[:target])) if target else np.eye(1)
        factors_right = (
            np.eye(math.prod(dims[target + 1 :]))
            if target + 1 < len(dims)
            else np.eye(1)
        )
        big = np.kron(np.kron(factors_left, k), factors_right)
        out = out + big @ state.data @ big.conj().T
    return out


def test_apply_channel_matches_embedded_kraus_sum():
    rng = np.random.default_rng(8)
    for target, dims in ((0, (2, 3)), (1, (3, 2)), (1, (2, 2, 2))):
        ch = random_channel(rng, dims[target], dims[target], 3)
        rho = random_density(rng, math.prod(dims))
        state = Operator(rho.data, dims, dims)
        got = apply_channel(ch, state, targets=[target])
        want = kraus_embed_oracle(ch, state, target)
        np.testing.assert_allclose(got.data, want, atol=1e-12)
        assert got.trace() == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.eigvalsh(got.data).min() > -1e-10


def test_apply_channel_dim_changing_positions():
    rng = np.random.default_rng(9)
    ch = random_channel(rng, 2, 3, 2)  # qubit -> qutrit
    rho = random_density(rng, 4)
    state = Operator(rho.data, (2, 2), (2, 2))
    out = apply_channel(ch, state, targets=[1])
    assert out.row_dims == (2, 3)
    # reference: embed on the right
    want = 0.0
    for k in ch.kraus:
        big = np.kron(np.eye(2), k)
        want = want + big @ rho.data @ big.conj().T
    np.testing.assert_allclose(out.data, want, atol=1e-12)


def test_apply_channel_rejects_mismatch():
    rng = np.random.default_rng(10)
    ch = random_channel(rng, 3, 3, 2)
    with pytest.raises(ValueError):
        apply_channel(ch, random_density(rng, 4), targets=[0])


# ---------------------------------------------------------------------------
# composition


def spanning_states(d: int) -> list[Operator]:
    """Matrix units recombined into states spanning the operator space."""
    out = []
    for i in range(d):
        for j in range(d):
            m = np.zeros((d, d), dtype=complex)
            if i == j:
                m[i, i] = 1.0
            else:
                m[i, i] = m[j, j] = 0.5
                m[i, j] = m[j, i] = 0.5
            out.append(operator(m, d))
            if i != j:
                m = m.astype(complex).copy()
                m[i, j] = 0.5j
                m[j, i] = -0.5j
                out.append(operator(m, d))
    return out


def test_compose_identity_is_neutral():
    rng = np.random.default_rng(12)
    ch = random_channel(rng, 3, 3, 2)
    comp = compose(identity_channel(3), ch)
    for s in spanning_states(3):
        np.testing.assert_allclose(
            apply_channel(comp, s).data, apply_channel(ch, s).data, atol=1e-12
        )


def test_compose_unitaries_multiply():
    rng = np.random.default_rng(14)
    u = haar_unitary(3, rng)
    v = haar_unitary(3, rng)
    comp = compose(unitary_channel(u), unitary_channel(v))
    prod = unitary_channel(operator(u.data @ v.data, 3))
    for s in spanning_states(3)[:4]:
        np.testing.assert_allclose(
            apply_channel(comp, s).data, apply_channel(prod, s).data, atol=1e-12
        )


def test_compose_matches_sequential_application():
    rng = np.random.default_rng(15)
    first = random_channel(rng, 2, 3, 2)
    second = random_channel(rng, 3, 2, 3)
    comp = compose(second, first)
    for _ in range(10):
        rho = random_density(rng, 2)
        seq = apply_channel(second, apply_channel(first, rho))
        np.testing.assert_allclose(
            apply_channel(comp, rho).data, seq.data, atol=1e-10
        )


def test_compose_rejects_dim_mismatch():
    rng = np.random.default_rng(16)
    with pytest.raises(ValueError):
        compose(random_channel(rng, 3, 2, 2), random_channel(rng, 2, 2, 2))


# ---------------------------------------------------------------------------
# entropy and basis overlaps


def test_collision_entropy_cases():
    assert collision_entropy(operator(np.diag([1.0, 0.0]), 2)) == pytest.approx(
        0.0, abs=1e-12
    )
    assert collision_entropy(operator(np.eye(8) / 8, 8)) == pytest.approx(3.0)
    assert collision_entropy(
        operator(np.diag([0.75, 0.25]), 2)
    ) == pytest.approx(0.6780719051126377, abs=1e-12)


def test_outcome_weights_of_padded_stacked_factors_keep_their_bits():
    # build_ppgm zeroes the support factors' columns past each output's
    # rank: zero columns may not move a bit
    rng = np.random.default_rng(11)
    for m, dc, w, n in [(2, 5, 3, 4), (4, 17, 5, 16), (8, 33, 9, 2), (3, 9, 1, 40)]:
        a = ginibre(rng, m * dc, w).reshape(m, dc, w)
        kb = ginibre(rng, n * dc, m).reshape(n, dc, m)
        padded = np.zeros((m, dc, w + 2), dtype=np.complex128)
        padded[:, :, :w] = a
        assert np.array_equal(outcome_weights(padded, kb), outcome_weights(a, kb))


def test_pauli_basis_and_mub_predicate():
    z1 = pauli_basis(1, "z")
    np.testing.assert_allclose(z1.matrix, np.eye(2))
    x1 = pauli_basis(1, "x")
    np.testing.assert_allclose(
        x1.matrix, np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    )
    z2, x2 = pauli_basis(2, "z"), pauli_basis(2, "x")
    np.testing.assert_allclose(
        np.abs(z2.matrix.conj().T @ x2.matrix) ** 2, np.full((4, 4), 0.25), atol=1e-14
    )
    assert is_mub(z2, x2)
    assert is_mub(computational_basis(3), fourier_basis(3))
    assert not is_mub(z1, z1)
    with pytest.raises(ValueError):
        pauli_basis(1, "y")
    with pytest.raises(ValueError):
        pauli_basis(0, "z")


def test_povm_channel_statistics():
    rng = np.random.default_rng(21)
    basis = random_basis(rng, 3)
    povm = random_povm(rng, 3, 3)
    ch = povm_channel(povm, basis)
    rho = random_density(rng, 3)
    out = apply_channel(ch, rho)
    for j in range(3):
        prob = float(
            np.einsum("ij,ji->", rho.data, elements(povm)[j]).real
        )
        got = float(
            (basis.matrix[:, j].conj() @ out.data @ basis.matrix[:, j]).real
        )
        assert got == pytest.approx(prob, abs=1e-10)


def test_apply_channel_preserves_psd_and_trace_randomized():
    rng = np.random.default_rng(22)
    for _ in range(20):
        din = int(rng.integers(2, 5))
        dout = int(rng.integers(2, 5))
        ch = random_channel(rng, din, dout, int(rng.integers(1, 4)))
        rho = random_density(rng, din)
        out = apply_channel(ch, rho)
        assert out.trace() == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.eigvalsh(out.data).min() > -1e-10
