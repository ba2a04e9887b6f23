import math

import numpy as np
import pytest

from ctoq.linop import Operator, pure_state_distance, trace_distance
from ctoq.sampling import ginibre
from tests.helpers import (
    func_on_support,
    identity,
    kron,
    operator,
    partial_trace,
    permute,
    random_density,
    sqrtm_psd,
    support_eigh,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


# ---------------------------------------------------------------------------
# Operator


def test_operator_validates_shape_against_dims():
    with pytest.raises(ValueError):
        Operator(np.eye(4), (2,), (2,))
    with pytest.raises(ValueError):
        Operator(np.eye(4), (), ())
    with pytest.raises(ValueError):
        Operator(np.eye(4), (2, 2), (0, 4))


def test_operator_is_immutable():
    a = identity(3)
    with pytest.raises(ValueError):
        a.data[0, 0] = 5.0


# ---------------------------------------------------------------------------
# kron and partial trace (tests/helpers.py, like func_on_support below: the
# other tests build states and reference values with them)


def test_kron_identities():
    np.testing.assert_allclose(
        kron(identity(2), identity(2)).data, np.eye(4)
    )


def test_kron_dim_bookkeeping():
    a = Operator(np.ones((2, 3)), (2,), (3,))
    b = Operator(np.ones((2, 1)), (2,), (1,))
    out = kron(a, b)
    assert out.row_dims == (2, 2) and out.col_dims == (3, 1)


def test_kron_pauli_entries():
    # direct entrywise expansion of X (x) Z
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 2] = 1
    expected[1, 3] = -1
    expected[2, 0] = 1
    expected[3, 1] = -1
    out = kron(operator(PAULI_X, 2), operator(PAULI_Z, 2))
    np.testing.assert_allclose(out.data, expected)


def test_kron_associative():
    rng = np.random.default_rng(3)
    a = operator(ginibre(rng, 2, 2), 2)
    b = operator(ginibre(rng, 3, 3), 3)
    c = operator(ginibre(rng, 2, 2), 2)
    left = kron(kron(a, b), c)
    right = kron(a, kron(b, c))
    np.testing.assert_allclose(left.data, right.data, atol=1e-14)


def brute_force_partial_trace(data, dims, keep):
    """Index-summation reference implementation."""
    n = len(dims)
    keep = sorted(keep)
    traced = [i for i in range(n) if i not in keep]
    kept_dims = [dims[i] for i in keep]
    dk = math.prod(kept_dims) if kept_dims else 1
    out = np.zeros((dk, dk), dtype=complex)
    tensor = data.reshape(tuple(dims) * 2)
    for row in np.ndindex(*kept_dims):
        for col in np.ndindex(*kept_dims):
            total = 0.0
            for tr in np.ndindex(*[dims[i] for i in traced]):
                ridx = [0] * n
                cidx = [0] * n
                for pos, i in enumerate(keep):
                    ridx[i] = row[pos]
                    cidx[i] = col[pos]
                for pos, i in enumerate(traced):
                    ridx[i] = tr[pos]
                    cidx[i] = tr[pos]
                total += tensor[tuple(ridx) + tuple(cidx)]
            out[
                np.ravel_multi_index(row, kept_dims) if kept_dims else 0,
                np.ravel_multi_index(col, kept_dims) if kept_dims else 0,
            ] = total
    return out


def test_partial_trace_product_state():
    rng = np.random.default_rng(0)
    rho = random_density(rng, 2)
    sigma = random_density(rng, 3)
    joint = kron(rho, sigma)
    np.testing.assert_allclose(
        partial_trace(joint, [0]).data, rho.data, atol=1e-12
    )
    np.testing.assert_allclose(
        partial_trace(joint, [1]).data, sigma.data, atol=1e-12
    )


def test_partial_trace_max_entangled_marginal():
    vec = np.zeros(4, dtype=complex)
    vec[0] = vec[3] = 1 / math.sqrt(2)
    phi = Operator(np.outer(vec, vec.conj()), (2, 2), (2, 2))
    np.testing.assert_allclose(
        partial_trace(phi, [0]).data, np.eye(2) / 2, atol=1e-14
    )


def test_partial_trace_matches_brute_force():
    rng = np.random.default_rng(1)
    dims = (2, 3, 2)
    g = ginibre(rng, 12, 12)
    rho = g @ g.conj().T
    rho /= np.trace(rho)
    a = Operator(rho, dims, dims)
    for keep in ([0], [1], [2], [0, 2], [1, 2], [0, 1]):
        got = partial_trace(a, keep)
        want = brute_force_partial_trace(rho, dims, keep)
        np.testing.assert_allclose(got.data, want, atol=1e-12)
        assert abs(got.trace() - a.trace()) < 1e-12


def test_partial_trace_preserves_psd():
    rng = np.random.default_rng(2)
    rho = random_density(rng, 4)
    a = Operator(rho.data, (2, 2), (2, 2))
    w = np.linalg.eigvalsh(partial_trace(a, [1]).data)
    assert w.min() > -1e-12


def test_partial_trace_rejects_bad_index():
    with pytest.raises(IndexError):
        partial_trace(identity((2, 2)), [2])


def test_permute_roundtrip():
    rng = np.random.default_rng(5)
    rho = random_density(rng, 8)
    a = Operator(rho.data, (2, 2, 2), (2, 2, 2))
    b = permute(permute(a, [2, 0, 1]), [1, 2, 0])
    np.testing.assert_allclose(a.data, b.data, atol=0)


# ---------------------------------------------------------------------------
# eigendecomposition


def test_support_eigh_diagonal():
    w, v, on = support_eigh(np.diag([3.0, 0.0]))
    np.testing.assert_allclose(w, [0.0, 3.0])
    np.testing.assert_allclose(np.abs(v), [[0.0, 1.0], [1.0, 0.0]])
    assert on.tolist() == [False, True]


def test_support_eigh_reconstruction():
    rng = np.random.default_rng(7)
    g = ginibre(rng, 6, 4)  # rank-4 PSD on 6 dims
    a = g @ g.conj().T
    w, v, on = support_eigh(a)
    recon = (v * w) @ v.conj().T
    assert np.max(np.abs(recon - a)) <= 1e-10 * np.linalg.norm(a, 2)
    assert np.max(np.abs(v.conj().T @ v - np.eye(6))) <= 1e-10
    assert int(on.sum()) == 4


def test_support_eigh_rejects_nonsquare_and_asymmetric():
    with pytest.raises(ValueError):
        support_eigh(np.ones((2, 3)))
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        support_eigh(bad)


def test_hermitian_inputs_reject_non_finite_entries():
    a = np.eye(2, dtype=complex)
    a[0, 0] = np.nan
    with pytest.raises(ValueError, match="not Hermitian"):
        support_eigh(a)
    with pytest.raises(ValueError, match="not Hermitian"):
        sqrtm_psd(a)


# ---------------------------------------------------------------------------
# distance, fidelity


def fidelity(rho: Operator, sigma: Operator) -> float:
    """Oracle: Uhlmann fidelity ``||sqrt(rho) sqrt(sigma)||_1^2``."""
    a = sqrtm_psd(rho.data) @ sqrtm_psd(sigma.data)
    return float(np.linalg.svd(a, compute_uv=False).sum() ** 2)


def test_trace_distance_basic():
    rng = np.random.default_rng(13)
    rho = random_density(rng, 3)
    assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-14)
    e0 = operator(np.diag([1.0, 0.0]), 2)
    e1 = operator(np.diag([0.0, 1.0]), 2)
    assert trace_distance(e0, e1) == pytest.approx(1.0)


def test_trace_distance_entangled_vs_product():
    # eigenvalues of the difference: 1 - 1/d^2 once, -1/d^2 with multiplicity
    # d^2 - 1, so the distance is (d^2 - 1)/d^2 = 3/4 for d = 2
    vec = np.zeros(4, dtype=complex)
    vec[0] = vec[3] = 1 / math.sqrt(2)
    phi = Operator(np.outer(vec, vec.conj()), (2, 2), (2, 2))
    prod = Operator(np.eye(4) / 4, (2, 2), (2, 2))
    assert trace_distance(phi, prod) == pytest.approx(0.75, abs=1e-12)


def test_trace_distance_eigen_vs_singular():
    rng = np.random.default_rng(17)
    for _ in range(50):
        rho = random_density(rng, 4)
        sigma = random_density(rng, 4)
        td = trace_distance(rho, sigma)
        s = np.linalg.svd(rho.data - sigma.data, compute_uv=False)
        assert td == pytest.approx(0.5 * s.sum(), abs=1e-10)


def test_pure_state_distance_matches_the_dense_projector():
    # the same distance, bit for bit, as trace_distance from the dense
    # projector, whether the ket has zero entries (the maximally entangled
    # one) or none: both give eigvalsh the same unsymmetrized difference.
    # The state is copied because pure_state_distance writes the difference
    # into it and Operator data is read-only
    rng = np.random.default_rng(31)
    phi = np.zeros(9, dtype=complex)
    phi[::4] = 1 / math.sqrt(3)
    psi = ginibre(rng, 9, 1)[:, 0]
    for vec in (phi, psi / np.linalg.norm(psi)):
        dense = Operator(np.outer(vec, vec.conj()), (3, 3), (3, 3))
        for sigma in (random_density(rng, 9), dense):
            sigma = Operator(sigma.data, (3, 3), (3, 3))
            assert pure_state_distance(vec, sigma.data.copy()) == trace_distance(dense, sigma)
    with pytest.raises(ValueError, match="norm"):
        pure_state_distance(2 * phi, dense.data)
    with pytest.raises(ValueError, match="trace"):
        pure_state_distance(phi, 2 * dense.data)


def test_trace_distance_rejects_mismatch():
    with pytest.raises(ValueError):
        trace_distance(identity(2), Operator(np.eye(4) / 4, (2, 2), (2, 2)))


def test_fidelity_basic():
    rng = np.random.default_rng(19)
    rho = random_density(rng, 3)
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)
    e0 = operator(np.diag([1.0, 0.0]), 2)
    e1 = operator(np.diag([0.0, 1.0]), 2)
    assert fidelity(e0, e1) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_pure_state_reduction():
    rng = np.random.default_rng(23)
    psi = ginibre(rng, 4, 1)[:, 0]
    psi /= np.linalg.norm(psi)
    pure = operator(np.outer(psi, psi.conj()), 4)
    rho = random_density(rng, 4)
    want = float((psi.conj() @ rho.data @ psi).real)
    assert fidelity(pure, rho) == pytest.approx(want, rel=1e-10)
    assert fidelity(rho, pure) == pytest.approx(want, rel=1e-10)


def test_fidelity_rejects_non_psd():
    bad = operator(np.diag([1.5, -0.5]), 2)
    rho = operator(np.eye(2) / 2, 2)
    with pytest.raises(ValueError):
        fidelity(bad, rho)


def test_fuchs_van_de_graaf():
    rng = np.random.default_rng(29)
    for i in range(500):
        d = (2, 3, 4)[i % 3]
        rho = random_density(rng, d)
        sigma = random_density(rng, d, rank=rng.integers(1, d + 1))
        td = trace_distance(rho, sigma)
        f = fidelity(rho, sigma)
        assert 1 - math.sqrt(f) <= td + 1e-9
        assert td <= math.sqrt(max(1 - f, 0.0)) + 1e-9


# ---------------------------------------------------------------------------
# functions on support


def test_func_on_support_identity():
    out = func_on_support(identity(3), lambda x: x**-0.5)
    np.testing.assert_allclose(out.data, np.eye(3), atol=1e-14)


def test_func_on_support_restricts_to_support():
    a = operator(np.diag([4.0, 0.0]), 2)
    out = func_on_support(a, lambda x: x**-0.5)
    np.testing.assert_allclose(out.data, np.diag([0.5, 0.0]), atol=1e-14)


def test_func_on_support_inverse_root_gives_support_projector():
    rng = np.random.default_rng(31)
    g = ginibre(rng, 5, 3)  # rank-3 PSD on 5 dims
    pi = operator(g @ g.conj().T, 5)
    inv_root = func_on_support(pi, lambda x: x**-0.5)
    sandwich = inv_root.data @ pi.data @ inv_root.data
    w, v = np.linalg.eigh(pi.data)
    keep = w > w[-1] * 5 * np.finfo(float).eps
    projector = (v[:, keep]) @ (v[:, keep]).conj().T
    assert np.max(np.abs(sandwich - projector)) < 1e-9


def test_func_on_support_rejects_negative():
    a = operator(np.diag([1.0, -0.1]), 2)
    with pytest.raises(ValueError):
        func_on_support(a, np.sqrt)
