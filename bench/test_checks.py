"""The benchmark's output checks reject corrupted results.

Run from the repository root:  python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from ctoq import cli  # noqa: E402

CFG = {"n_bh": 2, "n_msg": 1, "ells": [1, 2], "trials": 3, "xi": "pure"}
VERIFY_LINE = "thm1: PASS instances=5 failures=0 worst_slack=1.234e-02 (tolerance 1e-09)\n"


@pytest.fixture(scope="module")
def results(tmp_path_factory) -> Path:
    work = tmp_path_factory.mktemp("hp")
    path = run.write_config(work / "hp.cfg", CFG, seed=5)
    out = work / "out"
    rc = cli.main(["hp-run", "--config", str(path), "--out", str(out), "--threads", "1"])
    assert rc == 0
    return out


def corrupted(results: Path, tmp_path: Path, edit_row=None, edit_manifest=None) -> Path:
    out = tmp_path / "out"
    shutil.copytree(results, out)
    if edit_row is not None:
        rows = [json.loads(ln) for ln in (out / "results.jsonl").read_text().splitlines()]
        edit_row(next(r for r in rows if r["kind"] == "trial"))
        (out / "results.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    if edit_manifest is not None:
        manifest = json.loads((out / "manifest.json").read_text())
        edit_manifest(manifest)
        (out / "manifest.json").write_text(json.dumps(manifest))
    return out


def test_clean_results_pass(results):
    assert checks.check_hp_run(results, CFG) == []


def test_delta_q_above_two_term_bound_is_rejected(results, tmp_path):
    def raise_delta_q(row):
        row["delta_q"] = row["bounds"]["two_term"] + 1e-6

    problems = checks.check_hp_run(corrupted(results, tmp_path, edit_row=raise_delta_q), CFG)
    assert any("delta_q" in p for p in problems)


def test_trial_row_with_error_is_rejected(results, tmp_path):
    def add_error(row):
        row["error"] = "Unable to allocate 4.00 GiB"

    problems = checks.check_hp_run(corrupted(results, tmp_path, edit_row=add_error), CFG)
    assert any("Unable to allocate" in p for p in problems)


def test_manifest_trial_count_off_by_one_is_rejected(results, tmp_path):
    def off_by_one(manifest):
        manifest["counts"]["trials"] += 1

    problems = checks.check_hp_run(corrupted(results, tmp_path, edit_manifest=off_by_one), CFG)
    assert any("manifest trials" in p for p in problems)


def test_verify_line_with_a_failure_is_rejected():
    assert checks.check_verify(VERIFY_LINE, 0, "thm1", 5) == []
    bad = VERIFY_LINE.replace("failures=0", "failures=1")
    assert checks.check_verify(bad, 0, "thm1", 5)


def test_reproduction_mismatch_is_rejected(results):
    row = next(
        json.loads(ln)
        for ln in (results / "results.jsonl").read_text().splitlines()
        if json.loads(ln)["kind"] == "trial"
    )
    key = (row["ell"], row["trial"])
    same = (row["delta_q"], row["delta_cl_x"], row["delta_cl_z"])
    assert checks.check_reproduction(results, {key: same}) == []
    moved = (row["delta_q"] + 1e-9, row["delta_cl_x"], row["delta_cl_z"])
    assert checks.check_reproduction(results, {key: moved})


def test_haar_mean_closed_form_is_computed_apart():
    cfg = {"n_bh": 2, "n_msg": 1, "ells": [1], "trials": 30, "xi": "pure"}
    closed = checks.closed_form_overlap(2, 1, 1, "pure")
    line = f"ell=1: closed_form={closed:.9g} mc_mean=0.5 se=0.01 z=+0.50 trials=30\n"
    assert checks.check_haar_mean(line, 0, cfg) == []
    wrong = line.replace(f"{closed:.9g}", f"{closed * (1 + 1e-6):.9g}")
    assert checks.check_haar_mean(wrong, 0, cfg)
    assert checks.check_haar_mean(line.replace("+0.50", "+7.00"), 1, cfg)


def test_benchmark_json_names_the_metrics_the_benchmark_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        tracing.PER_LAYER
    )
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
