"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  Tolerances are pinned here; nothing defers to later calibration.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import ctoq
from ctoq.decoder import delta_cl
from ctoq.haarhp import (
    HpConfig,
    haar_mean_pairwise_overlap,
    pairwise_overlap_samples,
    run_sweep,
    average_error_bound,
)
from ctoq.sampling import random_basis, random_channel, random_povm
from ctoq.verify import (
    suite_defect_bounds,
    suite_support_chain,
    suite_mub_bound,
    suite_sandwich,
    suite_coherent_output,
    suite_pairwise_forms,
    suite_decoder_bound,
)
from tests.helpers import delta_cl_tracenorm

SEED = 20240817
PACKAGE_ROOT = Path(ctoq.__file__).resolve().parents[1]
N_JOBS = min(2, os.cpu_count() or 1)
# initial states by spectrum
PURE = (1.0,)


def flat_spectrum(n):
    """Spectrum of the maximally mixed state on n qubits."""
    return np.full(2**n, 2.0**-n)


def report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} {desc}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_decoder_bound_suite():
    t0 = time.monotonic()
    result = suite_decoder_bound(600, SEED)  # 200 instances per d in {2, 3, 4}
    elapsed = time.monotonic() - t0
    ok = result.passed and result.worst_slack >= -1e-9 and elapsed <= 120
    report(
        1,
        "decoder error within three-term bound on 600 random instances",
        ok,
        f"worst slack {result.worst_slack:.2e}, {elapsed:.0f}s",
    )


def test_criterion_02_mub_bound_suite():
    result = suite_mub_bound(600, SEED + 1)
    ok = result.passed and result.worst_slack >= -1e-9
    report(
        2,
        "two-term and worst-basis bounds on mutually unbiased pairs",
        ok,
        f"worst slack {result.worst_slack:.2e}",
    )


def test_criterion_03_classical_error_forms_agree():
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    for i in range(500):
        d = (2, 3, 4)[i % 3]
        dc = d + i % 2
        chan = random_channel(rng, d, dc, 1 + int(rng.integers(4)))
        povm = random_povm(rng, dc, d)
        basis = random_basis(rng, d)
        a = delta_cl(povm, chan, basis)
        b = delta_cl_tracenorm(povm, chan, basis)
        worst = max(worst, abs(a - b))
    ok = worst <= 1e-10
    report(
        3,
        "summation and trace-norm forms of the classical error agree",
        ok,
        f"worst |diff| {worst:.2e} over 500 instances",
    )


def test_criterion_04_defect_bounds():
    result = suite_defect_bounds(500, SEED + 3)
    ok = result.passed and result.worst_slack >= -1e-9
    report(
        4,
        "complementarity defect below both bounds; zero on unbiased pairs",
        ok,
        f"worst slack {result.worst_slack:.2e}",
    )


def test_criterion_05_measurement_error_chain():
    chain = suite_support_chain(500, SEED + 4)
    forms = suite_pairwise_forms(500, SEED + 5)
    ok = (
        chain.passed
        and forms.passed
        and chain.instances == 500
        and forms.instances == 500
    )
    report(
        5,
        "error <= support bound <= pairwise bound; both forms identical",
        ok,
        f"chain slack {chain.worst_slack:.2e}, identity slack "
        f"{forms.worst_slack:.2e}",
    )


def test_criterion_06_near_optimality_sandwich():
    result = suite_sandwich(100, SEED + 6)
    ok = result.passed
    report(
        6,
        "derived POVMs within the reference decoder's error; rebuilt decoder "
        "within its square root",
        ok,
        f"worst slack {result.worst_slack:.2e}",
    )


def test_criterion_07_coherent_output_diagnostic():
    result = suite_coherent_output(50, SEED + 7)
    ok = result.passed
    report(
        7,
        "coherent measurement reproduces the three-party reference state "
        "when the label survives",
        ok,
        f"worst slack {result.worst_slack:.2e}",
    )


def test_criterion_08_haar_average_closed_form():
    t0 = time.monotonic()
    anchor = haar_mean_pairwise_overlap(
        HpConfig(2, 1, 1, flat_spectrum(2), 0, 1)
    )
    ok = abs(anchor - 60 / 252) < 1e-15
    worst_z = 0.0
    details = []
    for n, k, ell in ((2, 1, 1), (2, 1, 2), (3, 1, 1), (3, 1, 2)):
        for label, xi in (("pure", PURE), ("mixed", flat_spectrum(n))):
            cfg = HpConfig(n, k, ell, xi, seed=SEED + 8, trials=2000)
            closed = haar_mean_pairwise_overlap(cfg)
            samples = pairwise_overlap_samples(cfg)
            se = samples.std(ddof=1) / math.sqrt(len(samples))
            z = (samples.mean() - closed) / se if se > 1e-12 else 0.0
            worst_z = max(worst_z, abs(z))
            details.append(f"({n},{k},{ell},{label}) z={z:+.2f}")
    elapsed = time.monotonic() - t0
    ok = ok and worst_z <= 3.0 and elapsed <= 300
    report(
        8,
        "Monte-Carlo pairwise overlap matches the exact Haar average",
        ok,
        f"worst |z| {worst_z:.2f} over 8 configs x 2000 samples, "
        f"{elapsed:.0f}s",
    )


def test_criterion_09_experiment_per_trial_bounds():
    means = {"x": [], "z": []}
    ses = {"x": [], "z": []}
    worst = math.inf
    failed = 0
    for ell in (2, 3, 4):
        cfg = HpConfig(3, 1, ell, PURE, seed=SEED + 9, trials=500)
        results = run_sweep([cfg], n_jobs=N_JOBS)[0]
        failed += sum(1 for r in results if r.error is not None)
        for r in results:
            if r.error is not None:
                continue
            worst = min(
                worst,
                r.pairwise_entropy_z - r.delta_cl_z,
                r.pairwise_entropy_x - r.delta_cl_x,
                r.bound_two_term - r.delta_q_ctoq,
            )
        for w in ("x", "z"):
            vals = np.array([getattr(r, f"delta_cl_{w}") for r in results])
            means[w].append(float(vals.mean()))
            ses[w].append(float(vals.std(ddof=1) / math.sqrt(len(vals))))
    monotone = all(
        means[w][i + 1]
        <= means[w][i] + 2 * math.hypot(ses[w][i], ses[w][i + 1])
        for w in ("x", "z")
        for i in range(2)
    )
    ok = failed == 0 and worst >= -1e-9 and monotone
    report(
        9,
        "every trial obeys the per-trial bounds; mean error non-increasing "
        "in radiated qubits",
        ok,
        f"1500 trials, worst slack {worst:.2e}, mean delta_cl_z "
        f"{[round(m, 4) for m in means['z']]}",
    )


def test_criterion_10_analytic_bound_evaluator():
    spot = average_error_bound(HpConfig(3, 1, 3, PURE, 0, 1), 0.9)
    formula_ok = (
        abs(spot.log2_delta - 14.506197092289629) < 1e-12
        and abs(spot.cl_bound - 23275.217781949486) < 1e-6
    )
    total = vacuous = dominated = dominated_vacuous = 0
    for n in range(2, 8):
        for ell in range(0, n + 2):
            for xi in (PURE, flat_spectrum(n)):
                b = average_error_bound(HpConfig(n, 1, ell, xi, 0, 1), 0.9)
                total += 1
                vacuous += b.vacuous
                if b.log2_delta >= 1:
                    dominated += 1
                    dominated_vacuous += b.vacuous
    sweep_ok = all(
        average_error_bound(HpConfig(3, 1, ell, PURE, 0, 1), 0.9).vacuous
        for ell in (2, 3, 4)
    )
    ok = formula_ok and sweep_ok and dominated == dominated_vacuous
    report(
        10,
        "correction-term formula reproduces the hand-computed value; "
        "vacuous wherever the correction dominates",
        ok,
        f"vacuous in {vacuous}/{total} desk-scale configs (informative only "
        "with heavy radiation or high initial entropy)",
    )


def _run_cli(args, tmp_path):
    # The command runs in tmp_path, where a relative PYTHONPATH entry such as
    # ``src`` points nowhere.  Put the directory holding the imported package
    # first, as an absolute path, so the subprocess runs the same code as this
    # process whether or not ctoq is installed.
    env = dict(os.environ)
    env.pop("CTOQ_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE_ROOT), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "ctoq", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
    )


def _exit_failure(label, proc):
    """Return code and last stderr line of a failed command, else None."""
    if proc.returncode == 0:
        return None
    stderr = proc.stderr.strip().splitlines()
    last = stderr[-1] if stderr else "no stderr"
    return f"{label} exit {proc.returncode}: {last}"


def test_criterion_11_byte_identical_reruns(tmp_path):
    cfg = tmp_path / "det.cfg"
    cfg.write_text(
        "n_bh = 2\nn_msg = 1\nell = 0..3\ntrials = 30\nseed = 12345\n"
        "xi = maximally_mixed\n"
    )
    a = _run_cli(
        ["hp-run", "--config", str(cfg), "--out", "runA", "--threads", "1", "--csv"],
        tmp_path,
    )
    b = _run_cli(
        ["hp-run", "--config", str(cfg), "--out", "runB", "--threads", "2", "--csv"],
        tmp_path,
    )
    problems = [
        msg
        for msg in (_exit_failure("hp-run --threads 1", a),
                    _exit_failure("hp-run --threads 2", b))
        if msg
    ]
    if not problems:
        for name in ("results.jsonl", "manifest.json", "results.csv"):
            if (tmp_path / "runA" / name).read_bytes() != (
                tmp_path / "runB" / name
            ).read_bytes():
                problems.append(f"{name} differs between --threads 1 and 2")
    v1 = _run_cli(["verify", "ghz", "--instances", "5", "--seed", "4"], tmp_path)
    v2 = _run_cli(["verify", "ghz", "--instances", "5", "--seed", "4"], tmp_path)
    hm = _run_cli(["haar-mean", "--config", str(cfg)], tmp_path)
    hm2 = _run_cli(["haar-mean", "--config", str(cfg)], tmp_path)
    for label, first, second in (("verify ghz", v1, v2), ("haar-mean", hm, hm2)):
        msg = _exit_failure(label, first)
        if msg:
            problems.append(msg)
        elif first.stdout != second.stdout:
            problems.append(f"{label} stdout differs between reruns")
    report(
        11,
        "identical seeds give byte-identical outputs across reruns and "
        "thread counts",
        not problems,
        "; ".join(problems),
    )
