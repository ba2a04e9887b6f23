import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from ctoq.decoder import ctoq_delta_q, delta_cl
from ctoq.haarhp import (
    HpConfig,
    _gram_side,
    _sizes,
    _trial_rng,
    derived_quantities,
    haar_mean_pairwise_overlap,
    hp_channel,
    pairwise_overlap_samples,
    run_sweep,
    run_trial,
    average_error_bound,
    sample_peak_bytes,
    trial_peak_bytes,
)
from ctoq.linop import Operator
from ctoq.ppgm import build_ppgm
from ctoq.qcore import basis_outputs, pauli_basis
from ctoq.sampling import haar_isometry
from tests.helpers import (
    apply_channel,
    haar_unitary,
    kron,
    max_entangled,
    partial_trace,
    permute,
    random_density,
    unitary_channel,
)

PURE = (1.0,)


def flat_spectrum(n):
    """Spectrum of the maximally mixed state on n qubits."""
    return np.full(2**n, 2.0**-n)


def purification(spectrum):
    """``sum_i sqrt(p_i) |i>|i>`` as a density operator on (system, past)."""
    r = len(spectrum)
    vec = np.diag(np.sqrt(np.asarray(spectrum, dtype=float))).reshape(-1)
    return Operator(np.outer(vec, vec.conj()), (r, r), (r, r))


def cfg_with(n=2, k=1, ell=1, xi=PURE, seed=0, trials=1):
    return HpConfig(
        n_bh=n,
        n_msg=k,
        n_rad=ell,
        xi_spectrum=xi,
        seed=seed,
        trials=trials,
    )


def sample_isometry(cfg, rng):
    """The columns of a Haar unitary that the channel of ``cfg`` reads."""
    return haar_isometry(cfg.dim_scrambled, cfg.dim_msg * cfg.rank, rng)


# ---------------------------------------------------------------------------
# Haar sampling


def test_haar_unitary_scalar_case():
    rng = np.random.default_rng(0)
    u = haar_unitary(1, rng)
    assert abs(abs(u.data[0, 0]) - 1.0) < 1e-12


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(1)
    u = haar_unitary(16, rng).data
    assert np.max(np.abs(u.conj().T @ u - np.eye(16))) < 1e-10


def test_haar_first_moment():
    # |U_00|^2 is Beta(1, d-1) under the Haar measure: mean 1/d,
    # variance (d-1)/(d^2 (d+1))
    d, n = 4, 5000
    rng = np.random.default_rng(2)
    vals = np.array(
        [abs(haar_unitary(d, rng).data[0, 0]) ** 2 for _ in range(n)]
    )
    se = math.sqrt((d - 1) / (d * d * (d + 1)) / n)
    assert abs(vals.mean() - 1 / d) <= 3 * se


def test_haar_isometry_square_case_is_haar_unitary():
    a, b = np.random.default_rng(44), np.random.default_rng(44)
    for d in (1, 2, 5, 16, 5):
        assert np.array_equal(haar_isometry(d, d, a), haar_unitary(d, b).data)


def test_haar_isometry_is_isometric():
    rng = np.random.default_rng(45)
    for d, m in ((64, 8), (16, 1), (9, 4)):
        v = haar_isometry(d, m, rng)
        assert v.shape == (d, m)
        assert np.max(np.abs(v.conj().T @ v - np.eye(m))) < 1e-12


def test_haar_isometry_first_moment():
    # the first m columns of a Haar unitary: |V_00|^2 is Beta(1, d-1) as
    # for the whole unitary
    d, m, n = 8, 2, 5000
    rng = np.random.default_rng(46)
    vals = np.array([abs(haar_isometry(d, m, rng)[0, 0]) ** 2 for _ in range(n)])
    se = math.sqrt((d - 1) / (d * d * (d + 1)) / n)
    assert abs(vals.mean() - 1 / d) <= 3 * se


# ---------------------------------------------------------------------------
# the retrieval channel


def test_hp_channel_isometric_when_nothing_kept():
    cfg = cfg_with(n=2, k=1, ell=3, xi=flat_spectrum(2))
    rng = np.random.default_rng(3)
    v = sample_isometry(cfg, rng)
    ch = hp_channel(v, cfg)
    assert len(ch.kraus) == 1
    bundle = build_ppgm(ch, pauli_basis(1, "z"))
    assert bundle.delta_cl < 1e-10


def test_hp_channel_ell_zero_is_constant():
    xi = np.linalg.eigvalsh(random_density(np.random.default_rng(5), 4).data)
    cfg = cfg_with(n=2, k=1, ell=0, xi=xi)
    rng = np.random.default_rng(4)
    v = sample_isometry(cfg, rng)
    ch = hp_channel(v, cfg)
    outs = basis_outputs(ch, pauli_basis(1, "z"))
    np.testing.assert_allclose(outs[0], outs[1], atol=1e-12)
    # the constant is the past-radiation marginal of the purification
    want = partial_trace(purification(cfg.xi_spectrum), [1])
    out0 = Operator(outs[0], ch.out_dims, ch.out_dims)
    np.testing.assert_allclose(
        partial_trace(out0, [0]).data, want.data, atol=1e-12
    )
    bundle = build_ppgm(ch, pauli_basis(1, "z"))
    assert bundle.delta_cl == pytest.approx(1 - 0.5, abs=1e-10)


def test_hp_channel_trace_preserving_randomized():
    rng = np.random.default_rng(6)
    cfg = cfg_with(n=2, k=1, ell=2, xi=flat_spectrum(2))
    v = sample_isometry(cfg, rng)
    ch = hp_channel(v, cfg)
    ks = ch.kraus
    flat = ks.reshape(-1, ks.shape[2])
    np.testing.assert_allclose(
        flat.conj().T @ flat, np.eye(2), atol=1e-12
    )
    rho = random_density(rng, 2)
    assert apply_channel(ch, rho).trace() == pytest.approx(1.0, abs=1e-10)


def test_hp_channel_matches_global_state_construction():
    # reference: build the full four-party state, scramble message+system,
    # regroup into kept/radiated, trace out the kept register
    n, k, ell = 2, 1, 1
    rng = np.random.default_rng(8)
    xi = np.linalg.eigvalsh(random_density(rng, 2**n).data)
    cfg = cfg_with(n=n, k=k, ell=ell, xi=xi)
    v = sample_isometry(cfg, rng)

    ch = hp_channel(v, cfg)
    got = apply_channel(ch, max_entangled(2**k), targets=[0])  # (past, new, R)

    big = kron(max_entangled(2**k), purification(xi))  # (A, R, system, past)
    big = permute(big, [0, 2, 3, 1])  # (A, system, past, R)
    u_op = Operator(v, (2**k, 2**n), (2**k, 2**n))
    big = apply_channel(unitary_channel(u_op), big, targets=[0, 1])
    d_kept, d_new = 2 ** (n + k - ell), 2**ell
    regrouped = Operator(
        big.data, (d_kept, d_new, 2**n, 2**k), (d_kept, d_new, 2**n, 2**k)
    )
    kept_out = partial_trace(regrouped, [1, 2, 3])  # (new, past, R)
    want = permute(kept_out, [1, 0, 2])  # (past, new, R)
    np.testing.assert_allclose(got.data, want.data, atol=1e-12)


def test_basis_outputs_linearity_and_basis_independence():
    rng = np.random.default_rng(7)
    cfg = cfg_with(n=2, k=1, ell=1, xi=flat_spectrum(2))
    v = sample_isometry(cfg, rng)
    ch = hp_channel(v, cfg)
    outs_z = basis_outputs(ch, pauli_basis(1, "z"))
    outs_x = basis_outputs(ch, pauli_basis(1, "x"))
    avg = apply_channel(ch, Operator(np.eye(2) / 2, (2,), (2,))).data
    np.testing.assert_allclose(outs_z.mean(axis=0), avg, atol=1e-10)
    np.testing.assert_allclose(outs_x.mean(axis=0), avg, atol=1e-10)
    for o in np.concatenate([outs_z, outs_x]):
        assert np.trace(o) == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(o).min() > -1e-10


# ---------------------------------------------------------------------------
# derived quantities and closed forms


def test_derived_quantities_pure_and_mixed():
    d = derived_quantities(cfg_with(n=4, k=1, ell=2, xi=PURE))
    assert (d.ell_th, d.lambda_xi) == (3.0, 1.0)
    assert d.h2_bin == pytest.approx(0.0, abs=1e-12)
    d = derived_quantities(cfg_with(n=4, k=1, ell=2, xi=flat_spectrum(4)))
    assert (d.ell_th, d.lambda_xi) == (1.0, 1.0)
    assert d.h2_bin == pytest.approx(4.0, abs=1e-12)


def test_derived_quantities_from_spectrum():
    xi = [0.5, 0.25, 0.125, 0.125]
    d = derived_quantities(cfg_with(n=3, k=1, ell=2, xi=xi))
    # purity 11/32 by direct arithmetic on the spectrum
    assert d.h2_bin == pytest.approx(1.5405683813627027, abs=1e-12)
    assert d.lambda_xi == pytest.approx(4 * 0.125, abs=1e-12)
    assert d.ell_th == pytest.approx(1 + (3 - 1.5405683813627027) / 2, abs=1e-12)


def test_closed_form_vanishing_cases():
    # everything radiated: outputs orthogonal and pure (a config without
    # message qubits, the other vanishing case, is refused by HpConfig)
    assert haar_mean_pairwise_overlap(
        cfg_with(n=2, k=1, ell=3)
    ) == pytest.approx(0.0, abs=1e-15)


def test_closed_form_anchor_value():
    cfg = cfg_with(n=2, k=1, ell=1, xi=flat_spectrum(2))
    assert haar_mean_pairwise_overlap(cfg) == pytest.approx(
        60 / 252, abs=1e-15
    )


def test_closed_form_matches_monte_carlo():
    cfg = cfg_with(n=2, k=1, ell=1, xi=flat_spectrum(2), seed=9, trials=400)
    samples = pairwise_overlap_samples(cfg)
    se = samples.std(ddof=1) / math.sqrt(len(samples))
    assert abs(samples.mean() - haar_mean_pairwise_overlap(cfg)) <= 3 * se


# ---------------------------------------------------------------------------
# the analytic bound


def test_average_bound_spot_value():
    # hand-computed: N=3, k=1, ell=3, pure state, eps=0.9 gives
    # log2(delta) = 1 + 4 (1 + log2(5/0.9)) - (0.45^2 log2(e)/6) 8
    bound = average_error_bound(cfg_with(n=3, k=1, ell=3), 0.9)
    assert bound.log2_delta == pytest.approx(14.506197092289629, abs=1e-12)
    assert bound.cl_bound == pytest.approx(23275.217781949486, rel=1e-12)
    assert bound.q_bound == pytest.approx(368.3176762723848, rel=1e-12)
    assert bound.vacuous


def test_average_bound_vacuity_where_correction_dominates():
    # whenever the positive exponent term is at least the subtracted
    # concentration term, log2(delta) >= k >= 0 forces a vacuous bound;
    # with little radiation and low initial entropy that is every case
    for n in range(2, 8):
        for ell in range(0, n + 2):
            for xi in (PURE, flat_spectrum(n)):
                cfg = cfg_with(n=n, k=1, ell=ell, xi=xi)
                bound = average_error_bound(cfg, 0.9)
                assert bound.vacuous == (bound.cl_bound >= 1.0)
                if bound.log2_delta >= 1:
                    assert bound.vacuous
    for ell in (2, 3, 4):
        assert average_error_bound(cfg_with(n=3, k=1, ell=ell), 0.9).vacuous


def test_average_bound_informative_only_with_heavy_radiation():
    # large entropy and radiation shrink both terms below 1: the bound is
    # genuinely informative there, so the flag must clear
    bound = average_error_bound(
        cfg_with(n=5, k=1, ell=5, xi=flat_spectrum(5)), 0.9
    )
    assert not bound.vacuous
    assert bound.cl_bound < 0.05


def test_average_bound_leading_term_decreases_with_radiation():
    lead = [
        average_error_bound(cfg_with(n=3, k=1, ell=ell), 0.9).leading_term
        for ell in (1, 2, 3, 4)
    ]
    assert all(a > b for a, b in zip(lead, lead[1:]))


def test_average_bound_epsilon_validation():
    cfg = cfg_with(n=2, k=1, ell=1)
    with pytest.raises(ValueError):
        average_error_bound(cfg, 1.5)
    with pytest.raises(ValueError):
        average_error_bound(cfg, 0.0)
    # flatness too small: rank 2, min eigenvalue 0.1
    skewed = [0.9, 0.1]
    with pytest.raises(ValueError):
        average_error_bound(cfg_with(n=2, k=1, ell=1, xi=skewed), 0.9)
    # c -> 0 at the admissibility edge
    near = [0.55, 0.45]  # Lambda = 0.9
    lo = 2 * (1 - 0.9)
    bound = average_error_bound(
        cfg_with(n=2, k=1, ell=1, xi=near), lo + 1e-9
    )
    assert bound.log2_delta == pytest.approx(
        1 + 2**3 * (2 + math.log2(5 / (lo + 1e-9))), abs=1e-6
    )


# ---------------------------------------------------------------------------
# the experiment


def test_run_sweep_perfect_retrieval_at_full_radiation():
    cfg = cfg_with(n=2, k=1, ell=3, seed=13, trials=5)
    for r in run_sweep([cfg])[0]:
        assert r.error is None
        assert r.delta_cl_x < 1e-8 and r.delta_cl_z < 1e-8
        assert r.delta_q_ctoq < 1e-6


def test_run_sweep_deterministic_and_parallel_consistent():
    cfg = cfg_with(n=2, k=1, ell=1, xi=flat_spectrum(2), seed=17, trials=6)
    a = run_sweep([cfg])[0]
    b = run_sweep([cfg])[0]
    assert a == b
    c = run_sweep([cfg], n_jobs=2)[0]
    assert a == c


def test_run_trial_reproducible_in_isolation():
    cfg = cfg_with(n=2, k=1, ell=2, seed=19, trials=4)
    full = run_sweep([cfg])[0]
    assert run_trial(cfg, 2) == full[2]


def test_run_sweep_per_trial_bounds():
    cfg = cfg_with(n=2, k=1, ell=2, xi=flat_spectrum(2), seed=23, trials=25)
    for r in run_sweep([cfg])[0]:
        assert r.error is None
        assert r.delta_cl_z <= r.pairwise_entropy_z + 1e-9
        assert r.delta_cl_x <= r.pairwise_entropy_x + 1e-9
        assert r.delta_q_ctoq <= r.bound_two_term + 1e-9


def test_run_trial_records_numerical_errors_only(monkeypatch):
    import ctoq.haarhp as haarhp

    def raise_(exc):
        def fake_channel(*args, **kwargs):
            raise exc

        return fake_channel

    cfg = cfg_with(n=2, k=1, ell=2, seed=41)
    assert run_trial(cfg, 0).stage is None
    monkeypatch.setattr(haarhp, "hp_channel", raise_(ValueError("bad input")))
    r = run_trial(cfg, 0)
    assert r.error == "bad input"
    assert r.error_type == "ValueError"
    assert r.stage == "channel"
    assert math.isnan(r.delta_q_ctoq)
    monkeypatch.setattr(haarhp, "hp_channel", raise_(MemoryError("no room")))
    with pytest.raises(MemoryError):
        run_trial(cfg, 0)
    monkeypatch.undo()

    # each later stage is named too: the X-basis pPGM and the decoder's error
    build = haarhp.build_ppgm

    def build_z_only(ch, basis, rank_tol=None):
        if basis.matrix[0, 0] != 1.0:  # not the computational basis
            raise np.linalg.LinAlgError("eigh did not converge")
        return build(ch, basis, rank_tol)

    monkeypatch.setattr(haarhp, "build_ppgm", build_z_only)
    r = run_trial(cfg, 0)
    assert (r.stage, r.error_type) == ("ppgm_x", "LinAlgError")
    monkeypatch.undo()
    monkeypatch.setattr(haarhp, "ctoq_delta_q", raise_(ValueError("decoder")))
    assert run_trial(cfg, 0).stage == "delta_q"


def test_hp_channel_memory_stays_small_at_six_two_four():
    import tracemalloc

    cfg = cfg_with(n=6, k=2, ell=4, xi=flat_spectrum(6))
    v = sample_isometry(cfg, np.random.default_rng(43))
    tracemalloc.start()
    try:
        ch = hp_channel(v, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ch.kraus.shape == (16, 64 * 16, 4)
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_run_trial_memory_stays_small_at_five_two_three_mixed():
    # the decoder's error needs arrays of at most d^3 dim C #Kraus entries
    # (4 MiB here); the composite decoder's Kraus stack alone is 64 MiB
    import tracemalloc

    cfg = cfg_with(n=5, k=2, ell=3, xi=flat_spectrum(5), seed=1)
    tracemalloc.start()
    try:
        r = run_trial(cfg, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.error is None
    assert peak < 96 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_run_trial_memory_stays_small_at_six_two_four_pure():
    # dim C = 1024, but the outputs span 16 dimensions; one (4, 1024, 1024)
    # stack of outputs or support projectors alone would be 64 MiB
    import tracemalloc

    cfg = cfg_with(n=6, k=2, ell=4, seed=1)
    tracemalloc.start()
    try:
        r = run_trial(cfg, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.error is None
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_reverse_basis_order_also_satisfies_bound():
    # the decoder with the X record as E and the Z record as F; run_trial
    # builds it the other way round
    cfg = cfg_with(n=2, k=1, ell=2, seed=29, trials=5)
    fwd = run_sweep([cfg])[0]
    z, x = pauli_basis(1, "z"), pauli_basis(1, "x")
    moved = False
    for t, r in enumerate(fwd):
        v = sample_isometry(cfg, _trial_rng(cfg, t))
        ch = hp_channel(v, cfg)
        bundle_z, bundle_x = build_ppgm(ch, z), build_ppgm(ch, x)
        de, df = delta_cl(bundle_x.povm, ch, x), delta_cl(bundle_z.povm, ch, z)
        dq = ctoq_delta_q(ch, bundle_x.povm, bundle_z.povm, x, z)
        assert dq <= math.sqrt(de * (2 - de)) + math.sqrt(df) + 1e-9
        moved = moved or abs(dq - r.delta_q_ctoq) > 1e-12
    assert moved


def test_config_validation():
    with pytest.raises(ValueError):
        cfg_with(n=2, k=1, ell=5)
    with pytest.raises(ValueError):
        HpConfig(2, 1, 1, flat_spectrum(3), 0, 1)
    with pytest.raises(ValueError):
        cfg_with(trials=0)
    with pytest.raises(ValueError, match="message qubit"):
        cfg_with(k=0, ell=1)


def test_xi_spectrum_drops_zeros_and_keeps_order():
    cfg = cfg_with(n=2, xi=[0.0, 0.6, 0.0, 0.4])
    assert cfg.xi_spectrum.tolist() == [0.6, 0.4]
    assert cfg.rank == 2
    assert cfg.dim_past == 3  # the support plus one kernel label
    assert cfg_with(n=2, xi=flat_spectrum(2)).dim_past == 4
    assert not cfg.xi_spectrum.flags.writeable
    too_long = [0.5, 0.5, 0.0, 0.0, 0.0]
    for bad in (too_long, [1.5, -0.5], [math.nan, 1.0], [0.5, 0.4], [0.0], []):
        with pytest.raises(ValueError):
            cfg_with(n=2, xi=bad)


def test_run_sweep_forks_one_pool_of_at_most_one_worker_per_trial(monkeypatch):
    # a stand-in executor that records its size and chunk size and runs
    # nothing in a child process; run_sweep imports the real one from
    # concurrent.futures only when it starts a pool
    import concurrent.futures

    pools = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            pools.append([max_workers])

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            pools[-1].append(chunksize)
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    cfg = cfg_with(n=2, k=1, ell=1, seed=47, trials=5)
    cfgs = [cfg, dataclasses.replace(cfg, n_rad=2)]
    serial = run_sweep(cfgs, n_jobs=1)
    assert [len(rs) for rs in serial] == [5, 5]
    assert pools == []
    assert run_sweep(cfgs, n_jobs=64) == serial
    assert pools == [[10, 1]]  # one pool for the sweep, one worker per trial
    assert run_sweep(cfgs, n_jobs=2) == serial
    assert pools[1:] == [[2, 2]]  # ten tasks in chunks of ceil(10 / 8)
    one = dataclasses.replace(cfg, trials=1)
    assert run_sweep([one], n_jobs=64) == [serial[0][:1]]
    assert len(pools) == 2  # one trial runs in process
    seen = []
    run_sweep(cfgs, n_jobs=1, done=lambda i, rs: seen.append((i, rs)))
    assert seen == list(enumerate(serial))


# ---------------------------------------------------------------------------
# the scale point where the analytic bound is first informative

SCALE_SEED = 20240826
SCALE_TRIALS = 40
SCALE_MARGIN_SE = 3.0  # the trial mean plus this many standard errors


def test_scale_point_errors_sit_below_the_analytic_bound():
    # (N, k) = (10, 2) with a pure initial state: the average bound is
    # non-vacuous from ell = 10 on, and each trial reads only 4 of the
    # 4096 columns of its unitary
    for ell in (10, 11, 12):
        cfg = cfg_with(n=10, k=2, ell=ell, seed=SCALE_SEED, trials=SCALE_TRIALS)
        bound = average_error_bound(cfg, 0.9)
        assert not bound.vacuous
        results = run_sweep([cfg])[0]
        assert all(r.error is None for r in results)
        for name, limit in (
            ("delta_cl_x", bound.cl_bound),
            ("delta_cl_z", bound.cl_bound),
            ("delta_q_ctoq", bound.q_bound),
        ):
            vals = np.array([getattr(r, name) for r in results])
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            top = vals.mean() + SCALE_MARGIN_SE * se
            assert top < limit, f"ell={ell} {name}: {top:.3g} >= {limit:.3g}"


def test_run_trial_memory_stays_small_at_ten_two_ten_pure():
    # the full unitary alone would be 4096^2 complex entries, 256 MiB
    import tracemalloc

    cfg = cfg_with(n=10, k=2, ell=10, seed=SCALE_SEED)
    tracemalloc.start()
    try:
        r = run_trial(cfg, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.error is None
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_run_trial_holds_no_output_stack_past_its_ppgm():
    # at (4,4,4) maximally mixed each basis's (d, s, s) outputs are 16 MiB
    # (d = 16, s = 257); read off in build_ppgm and dropped there, the
    # trial peaks at 39 MiB, where keeping both in the bundles took 73 MiB
    cfg = cfg_with(n=4, k=4, ell=4, xi=[2.0**-4] * 2**4, seed=1, trials=2)
    run_trial(cfg, 0)  # first-call allocations stay out of the count
    tracemalloc.start()
    try:
        r = run_trial(cfg, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.error is None
    assert peak < 55 * 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize(
    "n_bh, n_msg, ell, rank",
    [
        # traced peaks at seed 1, trial 0, and the stage that reaches them
        (3, 1, 2, 1),  # 1.0 MiB, the sample
        (5, 2, 3, 32),  # maximally mixed, 1.6 MiB, the compression
        (10, 2, 10, 1),  # 2.8 MiB, the compression
        (14, 2, 10, 1),  # 46.1 MiB, the compression
        (6, 2, 2, 64),  # maximally mixed, 12.1 MiB; the decoder peaks no higher
        (9, 1, 9, 512),  # maximally mixed, 104.0 MiB, the compression
        (14, 2, 4, 1),  # 44.9 MiB, the decoder's two d^2 n w blocks of 18 MiB
        (1, 5, 3, 1),  # d = 32: 49.7 MiB, three 16 MiB d^2 x d^2 arrays
        (13, 2, 7, 1),  # 32.8 MiB, the decoder; 20.3 MiB before it
        (4, 4, 4, 16),  # maximally mixed, 36.1 MiB in a pPGM; 12.0 in the decoder
    ],
)
def test_trial_peak_bytes_bounds_the_traced_peak(n_bh, n_msg, ell, rank):
    cfg = HpConfig(n_bh, n_msg, ell, [1.0 / rank] * rank, seed=1)
    tracemalloc.start()
    try:
        result = run_trial(cfg, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.error is None
    estimate = trial_peak_bytes(cfg)
    assert estimate >= peak
    if peak >= 64 * 2**20:
        assert estimate <= 4 * peak


@pytest.mark.parametrize(
    "n_bh, n_msg, ell, rank, gram",
    [
        (14, 2, 4, 1, False),  # 25 MiB, the isometry's QR copies
        (8, 2, 1, 256, False),  # maximally mixed, 65 MiB
        (10, 2, 10, 1, True),
        (7, 2, 6, 128, True),  # maximally mixed, 16 MiB
    ],
)
def test_sample_peak_bytes_bounds_the_traced_peak(n_bh, n_msg, ell, rank, gram):
    cfg = HpConfig(n_bh, n_msg, ell, [1.0 / rank] * rank, seed=1)
    d, n, _, _, dc = _sizes(cfg)
    assert _gram_side(n, dc, d) == gram
    tracemalloc.start()
    try:
        pairwise_overlap_samples(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    estimate = sample_peak_bytes(cfg)
    assert estimate >= peak
    if peak >= 16 * 2**20:
        assert estimate <= 4 * peak
