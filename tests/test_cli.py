import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import ctoq.cli as cli
import ctoq.verify as verify
from ctoq.cli import (
    _THREE_SIGMA_TAIL,
    ConfigError,
    _t_critical,
    _z_score,
    load_config,
    main,
    parse_config,
)
from ctoq.haarhp import (
    HpConfig,
    haar_mean_pairwise_overlap,
    sample_peak_bytes,
    trial_peak_bytes,
)

CONFIG = """\
# comment line
n_bh = 2
n_msg = 1
ell = 0..2
trials = 5
seed = 7
xi = maximally_mixed
"""


def write_config(tmp_path, text=CONFIG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
# Prints whether importing the package loaded numpy and the two BLAS
# variables once the CLI module is imported, then runs ``ctoq verify``
# through one entry point, which ends the process with the command's status.
BLAS_PROBE = """\
import os, sys
import ctoq
print("numpy" in sys.modules)
import ctoq.cli
print(os.environ["OPENBLAS_NUM_THREADS"], os.environ["OMP_NUM_THREADS"])
sys.argv = ["ctoq", "verify", "thm1", "--instances", "1"]
{start}
"""
ENTRY_POINTS = {
    # what ``python -m ctoq`` runs
    "module": "import runpy; runpy.run_module('ctoq', run_name='__main__')",
    # what the console script made from pyproject's ``ctoq = "ctoq.cli:run"`` runs
    "script": "from ctoq.cli import run; sys.exit(run())",
}
# the CLI in a process that first caps its own address space at 1 GiB
LIMITED = (
    "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)); "
    "from ctoq.cli import main; sys.exit(main(sys.argv[1:]))"
)


def run_cli(*args, env=None, entry=("-m", "ctoq"), drop=()):
    full_env = dict(os.environ)
    for name in ("CTOQ_SEED", *drop):
        full_env.pop(name, None)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, *entry, *args],
        capture_output=True,
        text=True,
        env=full_env,
    )


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_rejects_malformed_line():
    with pytest.raises(ConfigError):
        parse_config("n_bh 2")


def test_load_config_rejects_unknown_and_missing_keys(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, "n_bh = 2\nn_msg = 1\nbogus = 3\n"))
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, "n_msg = 1\n"))


def test_load_config_rejects_zero_trials(tmp_path):
    with pytest.raises(ConfigError):
        load_config(
            write_config(tmp_path, "n_bh = 2\nn_msg = 1\ntrials = 0\n")
        )


def test_load_config_rejects_bad_xi_and_ell(tmp_path):
    with pytest.raises(ConfigError):
        load_config(
            write_config(tmp_path, "n_bh = 2\nn_msg = 1\nxi = thermal\n")
        )
    # 0,9 checks that a sweep point after the first is validated too
    for ell in ("9", "0,9", "a..b"):
        with pytest.raises(ConfigError):
            load_config(
                write_config(tmp_path, f"n_bh = 2\nn_msg = 1\nell = {ell}\n")
            )


@pytest.mark.parametrize("ell", ["2,2", "1,2,1"])
def test_load_config_rejects_repeated_ell(tmp_path, ell):
    # a repeat would rerun the same trials from the same seed streams
    with pytest.raises(ConfigError, match="repeats a value"):
        load_config(write_config(tmp_path, f"n_bh = 2\nn_msg = 1\nell = {ell}\n"))


# (1,7,4) pure needs about 10.4 GiB, mostly the decoder's d^2 x d^2 arrays
# at d = 128, while its samples stay small; (10,4,4) maximally mixed samples
# a 4 GiB isometry
TOO_BIG = {
    "hp-run": ((1, 7, 4, [1.0]), "", trial_peak_bytes),
    "haar-mean": (
        (10, 4, 4, [2.0**-10] * 2**10), "xi = maximally_mixed\n", sample_peak_bytes
    ),
}


@pytest.mark.parametrize("command", ["hp-run", "haar-mean"])
def test_run_that_cannot_fit_the_address_space_exits_two(tmp_path, command):
    (n_bh, n_msg, ell, xi), extra, peak_bytes = TOO_BIG[command]
    cfg = write_config(
        tmp_path, f"n_bh = {n_bh}\nn_msg = {n_msg}\nell = {ell}\ntrials = 2\n{extra}"
    )
    out = tmp_path / "o"
    args = [command, "--config", cfg] + (["--out", str(out)] if command == "hp-run" else [])
    proc = run_cli(*args, entry=("-c", LIMITED))
    assert proc.returncode == 2, proc.stderr
    need = peak_bytes(HpConfig(n_bh, n_msg, ell, xi)) // 2**20
    assert need > 1024
    assert proc.stderr.startswith(f"config error: a trial needs about {need} MiB")
    assert "address-space limit leaves" in proc.stderr
    assert proc.stdout == "" and not out.exists()


@pytest.mark.parametrize("command", ["hp-run", "haar-mean"])
def test_spectrum_that_cannot_be_allocated_exits_two(tmp_path, command):
    # the 2^27 maximally mixed spectrum is a 1 GiB list, built while the
    # config loads and before the size check, so it is the allocation that
    # fails; a trial would need far more
    cfg = write_config(
        tmp_path, "n_bh = 27\nn_msg = 1\nell = 1\ntrials = 2\nxi = maximally_mixed\n"
    )
    out = tmp_path / "o"
    args = [command, "--config", cfg] + (["--out", str(out)] if command == "hp-run" else [])
    proc = run_cli(*args, entry=("-c", LIMITED))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "config error: the run does not fit in memory\n"
    assert proc.stdout == "" and not out.exists()


def test_haar_mean_is_sized_by_its_samples(tmp_path):
    # hp-run refuses (1,7,4) pure under a 1 GiB limit, but haar-mean builds
    # no decoder and its samples peak at about 10 MiB
    assert trial_peak_bytes(HpConfig(1, 7, 4, [1.0])) > 2**30
    assert sample_peak_bytes(HpConfig(1, 7, 4, [1.0])) < 2**26
    cfg = write_config(tmp_path, "n_bh = 1\nn_msg = 7\nell = 4\ntrials = 20\nseed = 3\n")
    proc = run_cli("haar-mean", "--config", cfg, entry=("-c", LIMITED))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ell=4: closed_form=")


def test_large_pure_config_runs_without_a_flag(tmp_path):
    cfg = write_config(tmp_path, "n_bh = 10\nn_msg = 2\nell = 10\ntrials = 2\n")
    out = tmp_path / "o"
    assert main(["hp-run", "--config", cfg, "--out", str(out), "--threads", "1"]) == 0
    rows = [json.loads(ln) for ln in (out / "results.jsonl").read_text().splitlines()]
    assert [r["error"] for r in rows if r["kind"] == "trial"] == [None, None]


def test_load_config_spectrum_state(tmp_path):
    spec = load_config(
        write_config(
            tmp_path, "n_bh = 2\nn_msg = 1\nxi = mixed:0.5,0.25,0.25\n"
        )
    )
    cfg = spec.config_for(1)
    assert cfg.xi_spectrum[0] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# exit codes


def test_unknown_suite_is_usage_error():
    proc = run_cli("verify", "nonsense", "--instances", "1")
    assert proc.returncode == 2


def test_verify_suite_passes():
    proc = run_cli("verify", "cor1", "--instances", "6", "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout


@pytest.mark.parametrize(
    "suite", ["thm1", "cor1", "prop2", "appx_a", "appx_b", "eq18", "ghz"]
)
def test_every_suite_token_runs_clean(capsys, suite):
    assert main(["verify", suite, "--instances", "4", "--seed", "11"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"{suite}: PASS")
    assert "worst_slack" in out


def test_verify_names_the_check_with_the_smallest_slack(capsys):
    assert main(["verify", "ghz", "--instances", "6", "--seed", "7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("ghz: PASS instances=6 failures=0 worst_slack=")
    assert lines[1].startswith("  worst i=") and " distance=" in lines[1]
    rec = verify.SuiteResult("x")
    for slack, label in [(0.5, "a"), (-0.1, "b"), (0.2, "c"), (-0.1, "d")]:
        rec.check(slack, label)
    result = rec.done(4)
    assert (result.worst_slack, result.worst_label, result.failures) == (-0.1, "b", 2)


def test_non_integer_seed_exits_two():
    proc = run_cli("verify", "thm1", "--instances", "1", "--seed", "abc")
    assert proc.returncode == 2
    assert proc.stderr == "config error: seed='abc' is not an integer\n"


def test_bad_config_exits_two(tmp_path):
    # malformed and out-of-range values alike, none with a traceback; a
    # negative n_bh would size the maximally mixed spectrum by a fraction,
    # a non-finite epsilon would reach the summary rows, and 2^70 labels
    # cannot even be counted in a list
    for extra in (
        "trials = 0",
        "seed = abc",
        "epsilon = x",
        "epsilon = nan",
        "n_bh = -1\nxi = maximally_mixed",
        "n_bh = 70\nxi = maximally_mixed",
        "ell = 2",  # a second ell line, which ran alone
    ):
        n_bh = "" if extra.startswith("n_bh") else "n_bh = 2\n"
        path = write_config(tmp_path, f"{n_bh}n_msg = 1\nell = 1\n{extra}\n")
        proc = run_cli("hp-run", "--config", path, "--out", str(tmp_path / "o"))
        assert proc.returncode == 2, (extra, proc.stderr)
        assert proc.stderr.startswith("config error:"), (extra, proc.stderr)
        assert proc.stderr.count("\n") == 1, (extra, proc.stderr)


def test_zero_message_qubits_exit_two(tmp_path, capsys):
    cfg = write_config(tmp_path, "n_bh = 2\nn_msg = 0\nell = 1\ntrials = 2\n")
    out = tmp_path / "o"
    assert main(["hp-run", "--config", cfg, "--out", str(out)]) == 2
    assert not (out / "results.jsonl").exists()
    assert main(["haar-mean", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("config error") == 2


def test_non_finite_spectrum_is_a_config_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "n_bh = 2\nn_msg = 1\nell = 1\ntrials = 2\nxi = mixed:nan,0.5\n"
    )
    out = tmp_path / "o"
    assert main(["hp-run", "--config", cfg, "--out", str(out)]) == 2
    assert not (out / "results.jsonl").exists()
    assert main(["haar-mean", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("config error") == 2


@pytest.mark.parametrize("source", ["flag", "config", "env"])
def test_negative_seed_is_a_config_error(tmp_path, capsys, monkeypatch, source):
    # numpy seeds only from integers >= 0: refused before anything is written
    monkeypatch.setenv("CTOQ_SEED", "-5" if source == "env" else "0")
    seed = "seed = -5\n" if source == "config" else ""
    cfg = write_config(tmp_path, "n_bh = 2\nn_msg = 1\nell = 1\ntrials = 2\n" + seed)
    out = tmp_path / "o"
    args = ["hp-run", "--config", cfg, "--out", str(out)]
    if source == "flag":
        args = ["verify", "thm1", "--instances", "1", "--seed", "-5"]
    assert main(args) == 2
    assert not out.exists()  # so no results.jsonl either
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config error: seed must be >= 0")


@pytest.mark.parametrize("count", ["0", "-3"])
def test_verify_instance_count_below_one_is_usage_error(count):
    proc = run_cli("verify", "thm1", "--instances", count, "--seed", "1")
    assert proc.returncode == 2
    assert "PASS" not in proc.stdout
    assert "--instances" in proc.stderr


def test_out_naming_a_file_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "taken"
    out.write_text("keep")
    assert main(["hp-run", "--config", cfg, "--out", str(out)]) == 2
    assert out.read_text() == "keep"
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: cannot create output directory")


@pytest.mark.parametrize("user", [None, "3"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_blas_threads_default_to_one_unless_the_user_sets_them(entry, user):
    # importing the package loads no numpy, so the CLI module sets the
    # defaults before numpy and its BLAS load
    probe = BLAS_PROBE.format(start=ENTRY_POINTS[entry])
    env = dict.fromkeys(BLAS_VARS, user) if user else None
    proc = run_cli(entry=("-c", probe), env=env, drop=BLAS_VARS)
    lines = proc.stdout.splitlines()
    want = user or "1"
    assert lines[0] == "False", proc.stderr
    assert lines[1] == f"{want} {want}"
    assert lines[2].startswith("thm1: PASS")
    assert lines[3:] == ["  worst i=0 d=2"]
    assert proc.returncode == 0


def run_to_files(tmp_path, *args):
    """``python -m ctoq`` with ``PYTHONUNBUFFERED`` removed and both streams
    sent to files: stdout is then block-buffered (stderr line-buffered), so
    what the process does not flush before ``os._exit`` never arrives."""
    env = dict(os.environ)
    for name in ("CTOQ_SEED", "PYTHONUNBUFFERED"):
        env.pop(name, None)
    out, err = tmp_path / "stdout.txt", tmp_path / "stderr.txt"
    with out.open("w") as fout, err.open("w") as ferr:
        proc = subprocess.run(
            [sys.executable, "-m", "ctoq", *args], stdout=fout, stderr=ferr, env=env
        )
    return proc.returncode, out.read_text(), err.read_text()


def test_hp_run_output_is_complete_when_the_process_ends(tmp_path, capsys):
    cfg = write_config(tmp_path)
    ref, out = tmp_path / "ref", tmp_path / "out"
    assert main(["hp-run", "--config", cfg, "--out", str(ref), "--threads", "1"]) == 0
    capsys.readouterr()
    code, stdout, stderr = run_to_files(
        tmp_path, "hp-run", "--config", cfg, "--out", str(out), "--threads", "2"
    )
    assert code == 0, stderr
    for name in ("results.jsonl", "manifest.json"):
        assert (out / name).read_bytes() == (ref / name).read_bytes()
    assert stdout == f"wrote {out / 'results.jsonl'} (18 rows)\n"
    lines = stderr.splitlines()
    assert lines[:3] == [
        f"ell={ell}: 5 trials, 0 failed ({5 * (ell + 1)}/15)" for ell in range(3)
    ]
    assert len(lines) == 4 and lines[3].startswith("elapsed ")


@pytest.mark.parametrize(
    "args, code, stream, start",
    [
        (["verify", "thm1", "--instances", "2", "--seed", "1"], 0, "out", "thm1: PASS"),
        (["hp-run", "--config", "{bad}", "--out", "{out}"], 2, "err", "config error:"),
        (["hp-run", "--help"], 0, "out", "usage: ctoq hp-run"),
    ],
)
def test_each_exit_path_writes_its_output(tmp_path, args, code, stream, start):
    bad = write_config(tmp_path, "n_bh = 2\nn_msg = 1\nseed = abc\n")
    args = [a.format(bad=bad, out=tmp_path / "out") for a in args]
    got, stdout, stderr = run_to_files(tmp_path, *args)
    assert got == code, stderr
    assert {"out": stdout, "err": stderr}[stream].startswith(start)


def test_seed_env_fallback(tmp_path):
    cfg = write_config(tmp_path, "n_bh = 2\nn_msg = 1\nell = 1\ntrials = 3\n")
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    proc = run_cli(
        "hp-run", "--config", cfg, "--out", str(out_a), env={"CTOQ_SEED": "99"}
    )
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((out_a / "manifest.json").read_text())
    assert manifest["seed"] == 99
    cfg_b = write_config(
        tmp_path, "n_bh = 2\nn_msg = 1\nell = 1\ntrials = 3\nseed = 99\n", "b.cfg"
    )
    proc = run_cli("hp-run", "--config", cfg_b, "--out", str(out_b))
    assert proc.returncode == 0, proc.stderr
    assert (out_a / "results.jsonl").read_bytes() == (
        out_b / "results.jsonl"
    ).read_bytes()


# ---------------------------------------------------------------------------
# hp-run output contract


def test_hp_run_outputs(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["hp-run", "--config", cfg, "--out", str(out), "--csv"]) == 0

    rows = [
        json.loads(line)
        for line in (out / "results.jsonl").read_text().splitlines()
    ]
    trials = [r for r in rows if r["kind"] == "trial"]
    summaries = [r for r in rows if r["kind"] == "summary"]
    assert len(trials) == 15  # 3 sweep points x 5 trials
    assert len(summaries) == 3
    manifest_seed = json.loads((out / "manifest.json").read_text())["seed"]
    for r in rows:
        assert r["seed"] == manifest_seed
    for r in trials:
        assert r["error"] is None
        assert 0.0 <= r["delta_q"] <= 1.0 + 1e-9
        assert r["delta_q"] <= r["bounds"]["two_term"] + 1e-9
        assert r["seed_stream"] == r["trial"]
    for s in summaries:
        assert s["trials"] == 5
        assert "closed_form_overlap" in s and "analytic_bound" in s

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "hp-run"
    assert manifest["seed"] == 7
    assert manifest["counts"]["trials"] == 15

    csv_lines = (out / "results.csv").read_text().splitlines()
    assert csv_lines[0].startswith("ell,trial,")
    assert len(csv_lines) == 16


def test_hp_run_writes_no_negative_zero(tmp_path):
    # a pure xi has H2 = -log2(1) = -0.0, and so do outputs of purity 1
    cfg = write_config(tmp_path, CONFIG.replace("maximally_mixed", "pure"))
    out = tmp_path / "out"
    assert main(["hp-run", "--config", cfg, "--out", str(out), "--csv"]) == 0
    rows = [json.loads(line) for line in (out / "results.jsonl").read_text().splitlines()]
    assert all(math.copysign(1.0, r["h2_initial"]) == 1.0 for r in rows if r["kind"] == "summary")
    for name in ("results.jsonl", "results.csv"):
        assert "-0.0" not in (out / name).read_text()
    assert cli._num(-0.0) == 0.0 and math.copysign(1.0, cli._num(-0.0)) == 1.0


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_hp_run_thread_count_below_one_is_usage_error(tmp_path, capsys, threads):
    cfg = write_config(tmp_path)
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["hp-run", "--config", cfg, "--out", str(out), "--threads", threads])
    assert exc.value.code == 2
    assert not out.exists()
    assert "--threads" in capsys.readouterr().err


def test_hp_run_error_rows_name_the_exception_type(tmp_path, monkeypatch):
    import ctoq.haarhp as haarhp

    def broken_channel(*args, **kwargs):
        raise ValueError("bad input")

    monkeypatch.setattr(haarhp, "hp_channel", broken_channel)
    cfg = write_config(tmp_path, CONFIG.replace("ell = 0..2", "ell = 1"))
    out = tmp_path / "out"
    assert main(["hp-run", "--config", cfg, "--out", str(out), "--threads", "1"]) == 0
    lines = (out / "results.jsonl").read_text().splitlines()
    rows = [json.loads(line) for line in lines]
    trials = [r for r in rows if r["kind"] == "trial"]
    assert len(trials) == 5
    for r in trials:
        assert (r["error"], r["error_type"]) == ("bad input", "ValueError")
        assert r["stage"] == "channel"
    summary = [r for r in rows if r["kind"] == "summary"][0]
    assert "error_type" not in summary and summary["failed_trials"] == 5
    for name in ("delta_cl_x", "delta_cl_z", "delta_q", "pairwise_overlap"):
        assert summary[f"mean_{name}"] is None and summary[f"se_{name}"] is None
    assert summary["overlap_z_score"] is None
    closed = haar_mean_pairwise_overlap(load_config(cfg).config_for(1))
    assert summary["closed_form_overlap"] == closed


def test_hp_run_byte_identical_reruns(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    proc1 = run_cli("hp-run", "--config", cfg, "--out", str(out1), "--threads", "1")
    proc2 = run_cli("hp-run", "--config", cfg, "--out", str(out2), "--threads", "2")
    assert proc1.returncode == 0 and proc2.returncode == 0
    for name in ("results.jsonl", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_hp_run_sizes_memory_by_the_workers_of_the_whole_sweep(
    tmp_path, capsys, monkeypatch
):
    # one trial at each of two sweep points: at --threads 2 the sweep's one
    # pool runs both at once, so memory for one trial is not enough
    import ctoq.haarhp as haarhp

    cfg = write_config(tmp_path, "n_bh = 2\nn_msg = 1\nell = 1,2\ntrials = 1\n")
    need = max(trial_peak_bytes(HpConfig(2, 1, ell, [1.0])) for ell in (1, 2)) // 2**20
    fields = {"MemAvailable": need + need // 2, "VmSize": 0}
    monkeypatch.setattr(cli, "_proc_mib", lambda path, key: fields[key])
    out = tmp_path / "o"
    # so short a sweep of such small trials runs in process, a trial at a time
    assert main(["hp-run", "--config", cfg, "--out", str(out), "--threads", "2"]) == 0
    assert capsys.readouterr().err.endswith(" (in process)\n")
    shutil.rmtree(out)
    monkeypatch.setattr(haarhp, "POOL_MIN_TRIALS", 0)  # a pool for any sweep
    assert main(["hp-run", "--config", cfg, "--out", str(out), "--threads", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: 2 trial(s) at once need about {2 * need} MiB")
    assert not out.exists()
    assert main(["hp-run", "--config", cfg, "--out", str(out), "--threads", "1"]) == 0


def test_hp_run_pool_writes_the_bytes_of_a_run_in_process(tmp_path, capsys, monkeypatch):
    # criterion 11's sweep, which runs in process at any thread count, on a
    # pool of two workers
    import ctoq.haarhp as haarhp

    cfg = write_config(
        tmp_path,
        "n_bh = 2\nn_msg = 1\nell = 0..3\ntrials = 30\nseed = 12345\nxi = maximally_mixed\n",
    )
    one, two = tmp_path / "t1", tmp_path / "t2"
    assert main(["hp-run", "--config", cfg, "--out", str(one), "--threads", "1", "--csv"]) == 0
    assert capsys.readouterr().err.endswith(" (in process)\n")
    monkeypatch.setattr(haarhp, "POOL_MIN_TRIALS", 0)  # a pool for any sweep
    assert main(["hp-run", "--config", cfg, "--out", str(two), "--threads", "2", "--csv"]) == 0
    assert capsys.readouterr().err.endswith(" (2 workers)\n")
    for name in ("results.jsonl", "manifest.json", "results.csv"):
        assert (two / name).read_bytes() == (one / name).read_bytes()


# hp-run in a process that runs one small trial, so that numpy and LAPACK
# are loaded, and whose memory check first caps the address space at what
# is mapped plus the trial's estimate: the least room the check accepts
FITTED = """\
import resource, sys
import ctoq.cli as cli
from ctoq.haarhp import HpConfig, run_trial
run_trial(HpConfig(3, 1, 2, [1.0]), 0)
check = cli._check_memory

def fitted(spec, workers, peak_bytes):
    limit = cli._proc_mib("/proc/self/status", "VmSize") * 2**20
    limit += max(peak_bytes(spec.config_for(ell)) for ell in spec.ells)
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    check(spec, workers, peak_bytes)

cli._check_memory = fitted
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "n_bh, n_msg, ell, xi",
    [
        # d = 32: the decoder, whose eigvalsh copy tracemalloc does not see
        (1, 5, 3, "pure"),
        (13, 2, 7, "pure"),  # d = 4: the decoder's factor-coordinate arrays
        (6, 2, 2, "maximally_mixed"),  # the second pPGM's error weights
    ],
)
def test_hp_run_trial_fits_the_address_space_its_estimate_asks_for(
    tmp_path, n_bh, n_msg, ell, xi
):
    cfg = write_config(
        tmp_path, f"n_bh = {n_bh}\nn_msg = {n_msg}\nell = {ell}\ntrials = 1\nseed = 1\nxi = {xi}\n"
    )
    out = tmp_path / "o"
    proc = run_cli("hp-run", "--config", cfg, "--out", str(out), entry=("-c", FITTED))
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["counts"]["failed_trials"] == 0


def test_hp_run_reports_each_sweep_point_on_stderr(tmp_path, capsys, monkeypatch):
    import ctoq.haarhp as haarhp

    cfg = write_config(tmp_path)
    out = tmp_path / "o"
    assert main(["hp-run", "--config", cfg, "--out", str(out), "--threads", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines()[:3] == [
        "ell=0: 5 trials, 0 failed (5/15)",
        "ell=1: 5 trials, 0 failed (10/15)",
        "ell=2: 5 trials, 0 failed (15/15)",
    ]
    assert captured.out == f"wrote {out / 'results.jsonl'} (18 rows)\n"

    def broken_channel(*args, **kwargs):
        raise ValueError("bad input")

    monkeypatch.setattr(haarhp, "hp_channel", broken_channel)
    cfg = write_config(tmp_path, CONFIG.replace("ell = 0..2", "ell = 1"))
    assert main(["hp-run", "--config", cfg, "--out", str(out), "--threads", "1"]) == 0
    assert capsys.readouterr().err.startswith("ell=1: 5 trials, 5 failed (5/5)\n")


def test_importing_the_cli_loads_no_process_pool():
    # hp-run imports concurrent.futures, and with it multiprocessing, only
    # when it starts a pool, so no other command pays for the import
    probe = (
        "import sys, ctoq.cli; print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    proc = run_cli(entry=("-c", probe))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_hp_run_of_the_benchmark_sweep_loads_no_process_pool(tmp_path):
    # the benchmark's hp-pure-sweep at --threads 2: 60 trials of about 1 ms,
    # too few for a pool to repay its start-up, so none is imported
    cfg = write_config(tmp_path, "n_bh = 3\nn_msg = 1\nell = 2..4\ntrials = 20\nseed = 1\n")
    probe = (
        "import sys; from ctoq.cli import main; status = main(sys.argv[1:]); "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('multiprocessing', 'concurrent'))); sys.exit(status)"
    )
    out = tmp_path / "o"
    proc = run_cli(
        "hp-run", "--config", cfg, "--out", str(out), "--threads", "2", entry=("-c", probe)
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert proc.stderr.splitlines()[-1].endswith(" (in process)")


# ---------------------------------------------------------------------------
# haar-mean


def test_haar_mean_reports_and_passes(tmp_path):
    cfg = write_config(
        tmp_path,
        "n_bh = 2\nn_msg = 1\nell = 1,3\ntrials = 150\nseed = 5\n"
        "xi = maximally_mixed\n",
    )
    proc = run_cli("haar-mean", "--config", cfg)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 2
    assert "closed_form=0.238095238" in lines[0]
    # everything radiated: exact zero on both sides
    assert "closed_form=0" in lines[1] and "z=+0.00" in lines[1]


def test_haar_mean_single_trial_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "n_bh = 2\nn_msg = 1\nell = 1\ntrials = 1\n")
    assert main(["haar-mean", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error" in captured.err and "trials >= 2" in captured.err


def test_t_critical_is_the_three_sigma_quantile():
    # one degree of freedom is the Cauchy law: P(|T| > t) = 1 - 2 atan(t) / pi
    assert _THREE_SIGMA_TAIL == pytest.approx(0.0026997960632601866, rel=1e-12)
    cauchy = 1.0 / math.tan(math.pi * _THREE_SIGMA_TAIL / 2)
    assert _t_critical(1) == pytest.approx(cauchy, rel=1e-10)  # 235.8
    # scipy.stats.t.isf(tail / 2, dof), computed once
    for dof, want in ((2, 19.20674421150858), (19, 3.447233150603715), (10000, 3.000750172530191)):
        assert _t_critical(dof) == pytest.approx(want, rel=1e-10)


def fake_samples(z, trials):
    """``pairwise_overlap_samples`` whose mean sits ``z`` standard errors
    from the closed form."""

    def samples(cfg):
        spread = np.resize([1.0, -1.0], trials) * 1e-3
        se = spread.std(ddof=1) / math.sqrt(trials)
        return cli.haar_mean_pairwise_overlap(cfg) + spread - spread.mean() + z * se

    return samples


@pytest.mark.parametrize(
    "trials, z, status",
    [(2, 200.0, 0), (2, 300.0, 1), (20, 3.3, 0), (20, 3.6, 1)],
)
def test_haar_mean_gates_z_at_the_t_quantile(tmp_path, capsys, monkeypatch, trials, z, status):
    # the 3-sigma level of t with trials - 1 degrees of freedom: 235.8 at
    # 2 trials, 3.447 at 20
    monkeypatch.setattr(cli, "pairwise_overlap_samples", fake_samples(z, trials))
    cfg = write_config(tmp_path, f"n_bh = 3\nn_msg = 1\nell = 2\ntrials = {trials}\n")
    assert main(["haar-mean", "--config", cfg]) == status
    assert f"z={z:+.2f} trials={trials}" in capsys.readouterr().out


def test_haar_mean_passes_a_correct_two_trial_run(tmp_path, capsys):
    # a Student t with one degree of freedom: |z| > 3 one run in five
    cfg = write_config(tmp_path, "n_bh = 3\nn_msg = 5\nell = 4\ntrials = 2\nseed = 3\n")
    assert main(["haar-mean", "--config", cfg]) == 0
    assert "z=-11.81 trials=2" in capsys.readouterr().out


def test_prop2_compares_the_pairwise_numerators(capsys, monkeypatch):
    # seed 5006, instance 9: lambda_min 4.2e-8, both forms 2.04e7, and their
    # 3.6e-9 gap one ulp of them
    assert main(["verify", "prop2", "--instances", "200", "--seed", "5006"]) == 0
    assert capsys.readouterr().out.startswith("prop2: PASS instances=200 failures=0")
    build = verify.build_ppgm
    for shift, failures in ((1.0e-9, 0), (1.2e-9, 12)):
        # the entropy form's numerator moved by ``shift``: the check fails
        # beyond 1e-10 + SLACK_TOL = 1.1e-9
        def shifted(*args, shift=shift):
            return [
                dataclasses.replace(
                    bundle,
                    pairwise_entropy=bundle.pairwise_entropy + shift / bundle.lambda_min,
                )
                for bundle in build(*args)
            ]

        monkeypatch.setattr(verify, "build_ppgm", shifted)
        assert verify.run_suite("prop2", 12, 5006).failures == failures


def test_z_score_degenerate_sample_keeps_the_sign():
    assert _z_score(1.0, 1.0 + 1e-12, 0.0) == 0.0
    assert _z_score(2.0, 1.0, 0.0) == math.inf
    assert _z_score(0.0, 1.0, 0.0) == -math.inf
    assert _z_score(1.5, 1.0, 0.25) == pytest.approx(2.0)
