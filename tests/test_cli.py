import json
import math
import os
import subprocess
import sys

import pytest

from ctoq.cli import ConfigError, _z_score, load_config, main, parse_config

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


def run_cli(*args, env=None):
    full_env = dict(os.environ)
    full_env.pop("CTOQ_SEED", None)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "ctoq", *args],
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
    with pytest.raises(ConfigError):
        load_config(
            write_config(tmp_path, "n_bh = 2\nn_msg = 1\nell = 9\n")
        )


def test_load_config_enforces_dimension_cap(tmp_path):
    big = "n_bh = 8\nn_msg = 1\nell = 1\n"
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, big))
    spec = load_config(write_config(tmp_path, big), allow_large=True)
    assert spec.n_bh == 8


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


def test_non_integer_seed_exits_two():
    proc = run_cli("verify", "thm1", "--instances", "1", "--seed", "abc")
    assert proc.returncode == 2


def test_bad_config_exits_two(tmp_path):
    path = write_config(tmp_path, "n_bh = 2\nn_msg = 1\ntrials = 0\n")
    proc = run_cli("hp-run", "--config", path, "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert "config error" in proc.stderr


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
    summary = [r for r in rows if r["kind"] == "summary"][0]
    assert "error_type" not in summary and summary["failed_trials"] == 5


def test_hp_run_byte_identical_reruns(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    proc1 = run_cli("hp-run", "--config", cfg, "--out", str(out1), "--threads", "1")
    proc2 = run_cli("hp-run", "--config", cfg, "--out", str(out2), "--threads", "2")
    assert proc1.returncode == 0 and proc2.returncode == 0
    for name in ("results.jsonl", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


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


def test_z_score_degenerate_sample_keeps_the_sign():
    assert _z_score(1.0, 1.0 + 1e-12, 0.0) == 0.0
    assert _z_score(2.0, 1.0, 0.0) == math.inf
    assert _z_score(0.0, 1.0, 0.0) == -math.inf
    assert _z_score(1.5, 1.0, 0.25) == pytest.approx(2.0)
