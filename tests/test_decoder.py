import math

import numpy as np
import pytest

from ctoq.decoder import (
    _check_r_marginal,
    coherent_state,
    ctoq_delta_q,
    delta_cl,
    delta_q,
    noisy_ghz_state,
    povm_from_decoder,
    error_report,
    xi_bounds,
    xi_ef,
)
from ctoq.linop import Operator, trace_distance
from ctoq.ppgm import build_ppgm
from ctoq.qcore import (
    Channel,
    Povm,
    channel,
    computational_basis,
    dephasing_channel,
    pauli_basis,
)
from ctoq.sampling import (
    ginibre,
    mub_pair,
    random_basis,
    random_block_channel,
    random_channel,
    random_povm,
)
from tests.helpers import (
    apply_channel,
    build_coherent_measurement,
    build_eraser,
    build_theta,
    compose,
    delta_cl_tracenorm,
    dense_povm,
    depolarizing_channel,
    elements,
    haar_unitary,
    identity,
    identity_channel,
    lab_ctoq_state,
    max_entangled,
    naimark_extend,
    partial_trace,
    projective_povm,
    random_density,
    sqrtm_psd,
    unitary_channel,
)


# ---------------------------------------------------------------------------
# error functionals


def test_r_marginal_check_rejects_non_finite_states():
    # (x, a, z, b) with R-marginal I/2, then with one entry lost to NaN
    rho = np.eye(4, dtype=complex).reshape(2, 2, 2, 2) / 4
    _check_r_marginal(rho, "decoder")
    rho[1, 0, 1, 0] = np.nan
    with pytest.raises(ValueError, match="does not preserve the trace"):
        _check_r_marginal(rho, "decoder")


def test_delta_q_identity_is_zero():
    assert delta_q(identity_channel(2), identity_channel(2)) < 1e-12


def test_delta_q_depolarized_qubit():
    assert delta_q(identity_channel(2), depolarizing_channel(2)) == pytest.approx(
        0.75, abs=1e-12
    )


def test_delta_q_matches_state_propagation_oracle():
    rng = np.random.default_rng(0)
    for _ in range(10):
        chan = random_channel(rng, 3, 4, 2)
        dec = random_channel(rng, 4, 3, 2)
        got = delta_q(dec, chan)
        assert 0.0 <= got <= 1.0 + 1e-12
        phi = max_entangled(3)
        through = apply_channel(dec, apply_channel(chan, phi, [0]), [0])
        assert got == pytest.approx(trace_distance(phi, through), abs=1e-11)


def test_delta_q_best_of_unitaries_stays_bounded():
    rng = np.random.default_rng(1)
    chan = random_channel(rng, 2, 2, 2)
    candidates = [identity_channel(2)] + [
        unitary_channel(haar_unitary(2, rng)) for _ in range(3)
    ]
    best = min(delta_q(d, chan) for d in candidates)
    assert 0.0 <= best <= 1.0 + 1e-12


def test_delta_cl_perfect_and_uniform():
    z = computational_basis(3)
    assert delta_cl(projective_povm(z), identity_channel(3), z) < 1e-12
    assert delta_cl(
        projective_povm(z), depolarizing_channel(3), z
    ) == pytest.approx(2 / 3, abs=1e-12)


def test_delta_cl_sum_form_equals_tracenorm_form():
    rng = np.random.default_rng(2)
    for i in range(20):
        d = (2, 3, 4)[i % 3]
        dc = d + i % 2
        chan = random_channel(rng, d, dc, int(rng.integers(1, 4)))
        povm = random_povm(rng, dc, d)
        basis = random_basis(rng, d)
        a = delta_cl(povm, chan, basis)
        b = delta_cl_tracenorm(povm, chan, basis)
        assert a == pytest.approx(b, abs=1e-10)


# ---------------------------------------------------------------------------
# dilation


def outcome_projection(ext, j):
    """Dense projection ``I (x) |j><j|`` of the dilation space."""
    d = ext.row_dims[-1]
    p = np.zeros((d, d))
    p[j, j] = 1.0
    return np.kron(np.eye(ext.data.shape[1]), p)


def test_naimark_projective_exact():
    z = computational_basis(2)
    ext = naimark_extend(projective_povm(z))
    v = ext.data
    for j, el in enumerate(elements(projective_povm(z))):
        rec = v.conj().T @ outcome_projection(ext, j) @ v
        np.testing.assert_allclose(rec, el, atol=1e-14)


def test_naimark_trine_reconstruction():
    # three symmetric qubit states, elements (2/3) |psi_k><psi_k|
    els = []
    for k in range(3):
        ang = 2 * math.pi * k / 3
        psi = np.array([math.cos(ang / 2), math.sin(ang / 2)], dtype=complex)
        els.append(2 / 3 * np.outer(psi, psi.conj()))
    povm = dense_povm(els)
    ext = naimark_extend(povm)
    v = ext.data
    np.testing.assert_allclose(v.conj().T @ v, np.eye(2), atol=1e-12)
    for j, el in enumerate(elements(povm)):
        rec = v.conj().T @ outcome_projection(ext, j) @ v
        assert np.max(np.abs(rec - el)) < 1e-12


def test_naimark_random_povm_isometry():
    rng = np.random.default_rng(3)
    povm = random_povm(rng, 4, 3)
    ext = naimark_extend(povm)
    v = ext.data
    np.testing.assert_allclose(v.conj().T @ v, np.eye(4), atol=1e-12)


def build_v_inv(ext, e0, e0p) -> Operator:
    """Oracle: the isometry that undoes the dilation as far as possible.

    ``V_inv = V^dag (x) |e0> + |e0'> (x) (I - V V^dag)`` maps C' into
    C (x) C'.  ``e0`` must be a unit vector in the range of the dilation
    isometry; ``e0p`` is any unit vector in C.
    """
    v = ext.data
    dcp, dc = v.shape
    e0 = np.asarray(e0, dtype=np.complex128).reshape(dcp)
    e0p = np.asarray(e0p, dtype=np.complex128).reshape(dc)
    for name, vec in (("e0", e0), ("e0p", e0p)):
        if abs(np.linalg.norm(vec) - 1.0) > 1e-9:
            raise ValueError(f"{name} is not a unit vector")
    proj = v @ v.conj().T
    if np.linalg.norm(e0 - proj @ e0) > 1e-9:
        raise ValueError("e0 is not in the range of the dilation isometry")
    vinv = np.kron(v.conj().T, e0.reshape(-1, 1)) + np.kron(
        e0p.reshape(-1, 1), np.eye(dcp) - proj
    )
    err = np.max(np.abs(vinv.conj().T @ vinv - np.eye(dcp)))
    if err > 1e-9:
        raise ValueError(f"inverse map is not an isometry (error {err:.3e})")
    dims = ext.row_dims
    return Operator(vinv, ext.col_dims + dims, dims)


def test_build_v_inv_isometry_and_range_action():
    rng = np.random.default_rng(4)
    povm = random_povm(rng, 3, 3)
    ext = naimark_extend(povm)
    v = ext.data
    e0 = v[:, 0]
    e0p = np.zeros(3, dtype=complex)
    e0p[0] = 1.0
    vinv = build_v_inv(ext, e0, e0p).data
    np.testing.assert_allclose(
        vinv.conj().T @ vinv, np.eye(v.shape[0]), atol=1e-12
    )
    # on the range: V_inv V|c> = |c> (x) |e0>
    c = ginibre(rng, 3, 1)[:, 0]
    c /= np.linalg.norm(c)
    got = vinv @ (v @ c)
    np.testing.assert_allclose(got, np.kron(c, e0), atol=1e-12)


def test_build_v_inv_unitary_dilation_case():
    # projective POVM on 1 outcome: V is unitary, second term vanishes
    povm = Povm(np.eye(2)[None])
    ext = naimark_extend(povm)
    v = ext.data
    e0 = v[:, 0]
    e0p = np.array([1.0, 0.0], dtype=complex)
    vinv = build_v_inv(ext, e0, e0p).data
    rng = np.random.default_rng(5)
    x = ginibre(rng, 2, 1)[:, 0]
    np.testing.assert_allclose(vinv @ x, np.kron(v.conj().T @ x, e0), atol=1e-12)


def test_build_v_inv_rejects_vector_outside_range():
    z = computational_basis(2)
    ext = naimark_extend(projective_povm(z))
    v = ext.data
    comp = np.zeros(v.shape[0], dtype=complex)
    comp[1] = 1.0  # (c=0, outcome=1) is orthogonal to range for projective Z
    comp = comp - v @ (v.conj().T @ comp)
    comp /= np.linalg.norm(comp)
    with pytest.raises(ValueError):
        build_v_inv(ext, comp, np.array([1.0, 0.0]))


# ---------------------------------------------------------------------------
# coherent measurement


def explicit_coherent_channel(ext, e_basis, rho: Operator) -> Operator:
    """Reference path: dense dilation isometry, then trace out the dilation
    space in the computational basis."""
    v = ext.data
    d = ext.row_dims[-1]
    dc = v.shape[1]
    e0 = v[:, 0]
    e0p = np.zeros(dc, dtype=complex)
    e0p[0] = 1.0
    vinv = build_v_inv(ext, e0, e0p).data
    g = sum(
        np.kron(outcome_projection(ext, j), e_basis.matrix[:, j].reshape(-1, 1))
        for j in range(d)
    )
    r_full = np.kron(vinv, np.eye(d)) @ g @ v  # C -> (C, C', A)
    big = Operator(
        r_full @ rho.data @ r_full.conj().T,
        (dc, v.shape[0], d),
        (dc, v.shape[0], d),
    )
    return partial_trace(big, [0, 2])


def preparation(rho: Operator) -> Channel:
    """Channel from a one-dimensional input that prepares ``rho``; the
    coherent measurement's closed-form state of it is its output on ``rho``
    (with a trivial reference factor)."""
    w, v = np.linalg.eigh(rho.data)
    ks = (v * np.sqrt(np.clip(w, 0.0, None))).T[:, :, None]
    return channel(ks, (1,), rho.row_dims)


def test_coherent_measurement_matches_explicit_dilation():
    rng = np.random.default_rng(6)
    for d, dc in ((2, 2), (2, 3), (3, 4)):
        povm = random_povm(rng, dc, d)
        basis = random_basis(rng, d)
        ext = naimark_extend(povm)
        ch = build_coherent_measurement(ext, basis)
        for _ in range(3):
            rho = random_density(rng, dc)
            want = explicit_coherent_channel(ext, basis, rho)
            got = coherent_state(preparation(rho), povm, basis)
            np.testing.assert_allclose(got.data, want.data, atol=1e-10)
            kraus_form = apply_channel(ch, rho)
            np.testing.assert_allclose(kraus_form.data, want.data, atol=1e-10)


def test_coherent_measurement_trace_preserving():
    rng = np.random.default_rng(7)
    povm = random_povm(rng, 3, 2)
    basis = random_basis(rng, 2)
    rho = random_density(rng, 3)
    out = coherent_state(preparation(rho), povm, basis)
    assert out.trace() == pytest.approx(1.0, abs=1e-10)


def test_coherent_measurement_register_marginal_statistics():
    # the outcome register's marginal is diagonal in the storage basis with
    # the POVM's outcome probabilities
    rng = np.random.default_rng(8)
    povm = random_povm(rng, 3, 3)
    basis = random_basis(rng, 3)
    rho = random_density(rng, 3)
    out = coherent_state(preparation(rho), povm, basis)  # (C, register, 1)
    marg = partial_trace(out, [1]).data
    u = basis.matrix
    in_basis = u.conj().T @ marg @ u
    probs = [
        float(np.einsum("ij,ji->", rho.data, m).real) for m in elements(povm)
    ]
    np.testing.assert_allclose(in_basis, np.diag(probs), atol=1e-10)


# ---------------------------------------------------------------------------
# phase correction and eraser


def test_build_theta_same_basis_is_identity_like():
    rng = np.random.default_rng(9)
    b = random_basis(rng, 3)
    for l in range(3):
        th = build_theta(b, b, l).data
        # diagonal in the basis, unit-modulus entries
        diag = b.matrix.conj().T @ th @ b.matrix
        np.testing.assert_allclose(diag, np.diag(np.diagonal(diag)), atol=1e-12)
        np.testing.assert_allclose(np.abs(np.diagonal(diag)), 1.0, atol=1e-12)


def test_build_theta_qubit_z_x():
    z, x = pauli_basis(1, "z"), pauli_basis(1, "x")
    np.testing.assert_allclose(build_theta(z, x, 0).data, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(
        build_theta(z, x, 1).data, np.diag([1.0, -1.0]), atol=1e-14
    )


def test_build_theta_unitary_random():
    rng = np.random.default_rng(10)
    for _ in range(5):
        e = random_basis(rng, 4)
        f = random_basis(rng, 4)
        for l in range(4):
            th = build_theta(e, f, l).data
            assert np.max(np.abs(th.conj().T @ th - np.eye(4))) < 1e-12


def test_eraser_single_outcome_is_partial_trace():
    rng = np.random.default_rng(11)
    povm = Povm(np.eye(3)[None])
    ch = build_eraser(povm, [identity(2)])
    rho = random_density(rng, 6)
    state = Operator(rho.data, (3, 2), (3, 2))
    got = apply_channel(ch, state, targets=[0, 1])
    np.testing.assert_allclose(
        got.data, partial_trace(state, [1]).data, atol=1e-12
    )


def test_eraser_projective_outcome_applies_phase():
    rng = np.random.default_rng(12)
    f = random_basis(rng, 2)
    povm = projective_povm(f)
    thetas = [build_theta(random_basis(rng, 2), f, l) for l in range(2)]
    ch = build_eraser(povm, thetas)
    rho = random_density(rng, 2)
    for l in range(2):
        proj = np.outer(f.matrix[:, l], f.matrix[:, l].conj())
        state = Operator(np.kron(proj, rho.data), (2, 2), (2, 2))
        got = apply_channel(ch, state, targets=[0, 1])
        want = thetas[l].data @ rho.data @ thetas[l].data.conj().T
        np.testing.assert_allclose(got.data, want, atol=1e-12)


def test_eraser_invariant_under_slicing_basis():
    # the Kraus set traces out C in the computational basis; any orthonormal
    # slicing basis defines the same channel
    rng = np.random.default_rng(24)
    povm = random_povm(rng, 3, 2)
    e, f = random_basis(rng, 2), random_basis(rng, 2)
    thetas = [build_theta(e, f, l) for l in range(2)]
    ch = build_eraser(povm, thetas)
    q = haar_unitary(3, rng).data  # random slicing basis of C
    alt_ks = []
    for m_el, th in zip(elements(povm), thetas):
        root = sqrtm_psd(m_el)
        for m in range(3):
            row = q[:, m].conj() @ root
            alt_ks.append(th.data @ np.kron(row.reshape(1, -1), np.eye(2)))
    alt = channel(alt_ks, (3, 2), (2,))
    for _ in range(5):
        rho = random_density(rng, 6)
        state = Operator(rho.data, (3, 2), (3, 2))
        np.testing.assert_allclose(
            apply_channel(ch, state, targets=[0, 1]).data,
            apply_channel(alt, state, targets=[0, 1]).data,
            atol=1e-11,
        )


def test_eraser_trace_preserving():
    rng = np.random.default_rng(13)
    povm = random_povm(rng, 3, 2)
    thetas = [build_theta(random_basis(rng, 2), random_basis(rng, 2), l) for l in range(2)]
    ch = build_eraser(povm, thetas)
    rho = random_density(rng, 6)
    state = Operator(rho.data, (3, 2), (3, 2))
    assert apply_channel(ch, state, targets=[0, 1]).trace() == pytest.approx(
        1.0, abs=1e-10
    )


# ---------------------------------------------------------------------------
# the assembled decoder


def test_ctoq_perfect_case():
    z, x = pauli_basis(1, "z"), pauli_basis(1, "x")
    pz, px = projective_povm(z), projective_povm(x)
    assert ctoq_delta_q(identity_channel(2), pz, px, z, x) < 1e-9


def test_report_all_zero_for_perfect_mub_instance():
    z, x = pauli_basis(1, "z"), pauli_basis(1, "x")
    rep = error_report(
        identity_channel(2), projective_povm(z), projective_povm(x), z, x
    )
    assert rep.delta_cl_e < 1e-12 and rep.delta_cl_f < 1e-12
    assert abs(rep.xi_ef) < 1e-12
    assert rep.delta_q < 1e-9 and rep.delta_q_bound < 1e-6
    assert rep.xi_bound_min < 1e-12 and rep.xi_bound_avg < 1e-12


def test_ctoq_dephasing_case():
    z, x = pauli_basis(1, "z"), pauli_basis(1, "x")
    chan = dephasing_channel(z)
    rep = error_report(chan, projective_povm(z), projective_povm(x), z, x)
    assert rep.delta_cl_e == pytest.approx(0.0, abs=1e-12)
    assert rep.delta_cl_f == pytest.approx(0.5, abs=1e-12)
    assert rep.delta_q <= math.sqrt(0.5) + 1e-9
    assert rep.delta_q_bound == pytest.approx(math.sqrt(0.5), abs=1e-7)


def composite_choi_state(pe, pf, e, f, cdims):
    """``(D (x) id)(Phi_C)`` for the decoder composed from its two stages,
    the eraser after the coherent measurement, on (A, C)."""
    d = e.dim
    thetas = [build_theta(e, f, l) for l in range(d)]
    comp = compose(
        build_eraser(pf, thetas),
        build_coherent_measurement(naimark_extend(pe), e),
    )
    dc = pe.dim
    phi = Operator(max_entangled(dc).data, cdims + cdims, cdims + cdims)
    return apply_channel(comp, phi, targets=list(range(len(cdims)))).data


def test_ctoq_total_equals_composition():
    # with T the identity on C the state is the Choi matrix of the decoder,
    # which fixes it on all of C
    rng = np.random.default_rng(14)
    for d, dc in ((2, 2), (2, 3), (3, 3)):
        pe = random_povm(rng, dc, d)
        pf = random_povm(rng, dc, d)
        e, f = random_basis(rng, d), random_basis(rng, d)
        got = lab_ctoq_state(identity_channel(dc), pe, pf, e, f)
        want = composite_choi_state(pe, pf, e, f, (dc,))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_ctoq_handles_multi_factor_measured_space():
    # a measured space of two factors, as in the scrambling setup; the
    # POVMs act on it as one factor
    rng = np.random.default_rng(27)
    pe = random_povm(rng, 4, 2)
    pf = random_povm(rng, 4, 2)
    z, x = pauli_basis(1, "z"), pauli_basis(1, "x")
    coherent = coherent_state(identity_channel((2, 2)), pe, z)
    assert coherent.row_dims == (2, 2, 2, 2, 2)  # (C, A, R)
    got = lab_ctoq_state(identity_channel((2, 2)), pe, pf, z, x)
    want = composite_choi_state(pe, pf, z, x, (4,))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    chan = random_channel(rng, 2, 4, 2)
    chan = Channel(chan.kraus, (2,), (2, 2))
    assert 0.0 <= ctoq_delta_q(chan, pe, pf, z, x) <= 1.0 + 1e-9


def test_ctoq_thetas_diagonal_in_storage_basis():
    rng = np.random.default_rng(15)
    e = random_basis(rng, 3)
    f = random_basis(rng, 3)
    for th in (build_theta(e, f, l) for l in range(3)):
        diag = e.matrix.conj().T @ th.data @ e.matrix
        np.testing.assert_allclose(
            diag, np.diag(np.diagonal(diag)), atol=1e-12
        )
        assert np.max(np.abs(th.data @ th.data.conj().T - np.eye(3))) < 1e-12


def test_ctoq_with_ppgms_satisfies_bound():
    rng = np.random.default_rng(16)
    chan = random_channel(rng, 2, 3, 2)
    z, x = pauli_basis(1, "z"), pauli_basis(1, "x")
    pz = build_ppgm(chan, z).povm
    px = build_ppgm(chan, x).povm
    rep = error_report(chan, pz, px, z, x)
    assert rep.delta_q <= rep.delta_q_bound + 1e-9


# ---------------------------------------------------------------------------
# complementarity defect


def test_xi_zero_for_mub():
    rng = np.random.default_rng(17)
    for d in (2, 3, 4):
        e, f = mub_pair(d)
        chan = random_channel(rng, d, d, 2)
        povm = random_povm(rng, d, d)
        assert abs(xi_ef(chan, povm, e, f)) < 1e-12
        b_min, b_avg = xi_bounds(chan, povm, e, f)
        assert abs(b_min) < 1e-12 and abs(b_avg) < 1e-12


def test_xi_same_basis_projective():
    for d in (2, 3):
        z = computational_basis(d)
        chan = identity_channel(d)
        povm = projective_povm(z)
        assert xi_ef(chan, povm, z, z) == pytest.approx(1 - 1 / d, abs=1e-12)
        _, b_avg = xi_bounds(chan, povm, z, z)
        assert b_avg == pytest.approx(1 - 1 / d, abs=1e-12)


def test_xi_below_bounds_randomized():
    rng = np.random.default_rng(18)
    for i in range(20):
        d = (2, 3, 4)[i % 3]
        chan = random_channel(rng, d, d + 1, 2)
        povm = random_povm(rng, d + 1, d)
        e, f = random_basis(rng, d), random_basis(rng, d)
        xi = xi_ef(chan, povm, e, f)
        b_min, b_avg = xi_bounds(chan, povm, e, f)
        assert xi <= b_min + 1e-9
        assert xi <= b_avg + 1e-9


def test_report_exposes_basis_asymmetry():
    rng = np.random.default_rng(19)
    d = 3
    chan = random_channel(rng, d, d, 2)
    pe = random_povm(rng, d, d)
    pf = random_povm(rng, d, d)
    e, f = random_basis(rng, d), random_basis(rng, d)
    fwd = error_report(chan, pe, pf, e, f)
    rev = error_report(chan, pf, pe, f, e)
    assert fwd.delta_q <= fwd.delta_q_bound + 1e-9
    assert rev.delta_q <= rev.delta_q_bound + 1e-9
    assert fwd.delta_q_bound != pytest.approx(rev.delta_q_bound, abs=1e-6)


# ---------------------------------------------------------------------------
# decoder-derived POVMs and the three-party diagnostic


def test_povm_from_identity_decoder_is_projective():
    rng = np.random.default_rng(20)
    w = random_basis(rng, 3)
    povm = povm_from_decoder(identity_channel(3), w)
    for j, el in enumerate(elements(povm)):
        np.testing.assert_allclose(
            el,
            np.outer(w.matrix[:, j], w.matrix[:, j].conj()),
            atol=1e-12,
        )


def test_povm_from_decoder_complete_and_monotone():
    rng = np.random.default_rng(21)
    for _ in range(10):
        chan = random_channel(rng, 2, 3, 2)
        dec = random_channel(rng, 3, 2, 2)
        w = random_basis(rng, 2)
        povm = povm_from_decoder(dec, w)  # Povm validates completeness
        assert delta_cl(povm, chan, w) <= delta_q(dec, chan) + 1e-10


def test_noisy_ghz_identity_channel_is_ghz():
    z = computational_basis(2)
    state = noisy_ghz_state(identity_channel(2), z)
    vec = np.zeros(8)
    vec[0] = vec[7] = 1 / math.sqrt(2)
    np.testing.assert_allclose(state.data, np.outer(vec, vec), atol=1e-14)
    assert state.trace() == pytest.approx(1.0, abs=1e-12)


def test_noisy_ghz_matches_coherent_output_when_label_survives():
    rng = np.random.default_rng(22)
    e = random_basis(rng, 2)
    chan, povm_e = random_block_channel(rng, e, block_size=2)
    assert delta_cl(povm_e, chan, e) < 1e-12
    out = coherent_state(chan, povm_e, e)
    ref = noisy_ghz_state(chan, e)
    assert out.row_dims == ref.row_dims  # both (C, A, R)
    assert trace_distance(out, ref) < 1e-9
