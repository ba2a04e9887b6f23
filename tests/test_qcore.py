import math

import numpy as np
import pytest

from ctoq.config import DEFAULT_TOLS
from ctoq.linop import Operator
from ctoq.qcore import (
    Channel,
    OrthoBasis,
    Povm,
    ProbDist,
    apply_channel,
    bhattacharyya,
    channel,
    collision_entropy,
    computational_basis,
    dephasing_channel,
    fourier_basis,
    is_mub,
    max_correlated_classical,
    max_entangled,
    overlap_distribution,
    pauli_basis,
    povm_channel,
)
from ctoq.sampling import random_basis, random_channel, random_povm
from tests.helpers import (
    depolarizing_channel,
    haar_unitary,
    identity_channel,
    operator,
    partial_trace,
    random_density,
    unitary_channel,
)


def projective_povm(basis: OrthoBasis) -> Povm:
    return Povm([np.outer(col, col.conj()) for col in basis.matrix.T])


# ---------------------------------------------------------------------------
# types


def test_orthobasis_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        OrthoBasis(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_probdist_renormalizes_small_drift():
    p = ProbDist(np.array([0.5, 0.5 + 1e-12]))
    assert p.weights.sum() == pytest.approx(1.0, abs=1e-15)


def test_probdist_rejects_large_drift_and_negatives():
    with pytest.raises(ValueError):
        ProbDist(np.array([0.6, 0.5]))
    with pytest.raises(ValueError):
        ProbDist(np.array([1.1, -0.1]))


def test_povm_validation():
    half = np.eye(2) / 2
    povm = Povm([half, half])
    assert povm.elements.shape == (2, 2, 2) and (povm.n_outcomes, povm.dim) == (2, 2)
    with pytest.raises(ValueError):
        povm.elements[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        Povm([half, np.eye(2)])  # sums to 1.5 I
    with pytest.raises(ValueError):
        Povm([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])])
    for bad in (np.zeros((0, 2, 2)), np.eye(2), np.ones((1, 2, 3))):
        with pytest.raises(ValueError):
            Povm(bad)


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
    expected = max_correlated_classical(
        OrthoBasis(w.matrix.conj()), conjugate_second=True
    )
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


def compose(later: Channel, earlier: Channel, tols=DEFAULT_TOLS) -> Channel:
    """Oracle: ``later(earlier(.))`` with all pairwise Kraus products."""
    if earlier.out_dims != later.in_dims:
        raise ValueError(
            f"cannot compose: earlier outputs {earlier.out_dims}, "
            f"later expects {later.in_dims}"
        )
    products = [b @ a for b in later.kraus for a in earlier.kraus]
    return channel(
        products, earlier.in_dims, later.out_dims, tp_tol=tols.compose_tp, tols=tols
    )


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
# classical helpers


def test_bhattacharyya_cases():
    p = ProbDist(np.array([0.5, 0.5]))
    q = ProbDist(np.array([1.0, 0.0]))
    r = ProbDist(np.array([0.0, 1.0]))
    assert bhattacharyya(p, p) == pytest.approx(1.0)
    assert bhattacharyya(p, q) == pytest.approx(0.5)
    assert bhattacharyya(q, r) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        bhattacharyya(p, ProbDist(np.array([1.0])))


def test_collision_entropy_cases():
    assert collision_entropy(operator(np.diag([1.0, 0.0]), 2)) == pytest.approx(
        0.0, abs=1e-12
    )
    assert collision_entropy(operator(np.eye(8) / 8, 8)) == pytest.approx(3.0)
    assert collision_entropy(
        operator(np.diag([0.75, 0.25]), 2)
    ) == pytest.approx(0.6780719051126377, abs=1e-12)


def test_overlap_distribution_point_mass_and_mub():
    z = computational_basis(2)
    x = pauli_basis(1, "x")
    p_same = overlap_distribution(z, z, 1)
    np.testing.assert_allclose(p_same.weights, [0.0, 1.0], atol=1e-15)
    for l in range(2):
        np.testing.assert_allclose(
            overlap_distribution(z, x, l).weights, [0.5, 0.5], atol=1e-15
        )
    f3 = fourier_basis(3)
    for l in range(3):
        np.testing.assert_allclose(
            overlap_distribution(computational_basis(3), f3, l).weights,
            np.full(3, 1 / 3),
            atol=1e-14,
        )
    with pytest.raises(IndexError):
        overlap_distribution(z, x, 2)


def test_overlap_distribution_symmetry():
    rng = np.random.default_rng(20)
    e = random_basis(rng, 4)
    f = random_basis(rng, 4)
    for l in range(4):
        p = overlap_distribution(e, f, l).weights
        for j in range(4):
            q = overlap_distribution(f, e, j).weights
            assert p[j] == pytest.approx(q[l], abs=1e-12)


def test_pauli_basis_and_mub_predicate():
    z1 = pauli_basis(1, "z")
    np.testing.assert_allclose(z1.matrix, np.eye(2))
    x1 = pauli_basis(1, "x")
    np.testing.assert_allclose(
        x1.matrix, np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    )
    z2, x2 = pauli_basis(2, "z"), pauli_basis(2, "x")
    for l in range(4):
        np.testing.assert_allclose(
            overlap_distribution(z2, x2, l).weights, np.full(4, 0.25), atol=1e-14
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
            np.einsum("ij,ji->", rho.data, povm.elements[j]).real
        )
        got = float(
            (basis.column(j).conj() @ out.data @ basis.column(j)).real
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
