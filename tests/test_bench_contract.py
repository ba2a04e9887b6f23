"""The benchmark's calls into ``ctoq`` resolve and run.

``bench/run.py`` loads configs, runs trials, samples and suites in process,
and ``bench/tracing.py`` wraps the library's modules, ``linop.Operator``,
``qcore.Povm`` and ``verify.SUITES``.  A rename in ``src`` that breaks one
of those calls fails only the benchmark's own run, so these tests make the
same calls on the benchmark's warm-up inputs.
"""

import contextlib
import io
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import run  # noqa: E402
import tracing  # noqa: E402

from ctoq import cli, decoder, haarhp, linop, ppgm, qcore, sampling, verify  # noqa: E402

MODULES = {
    "linop": linop, "qcore": qcore, "decoder": decoder, "ppgm": ppgm,
    "haarhp": haarhp, "sampling": sampling, "verify": verify, "cli": cli,
}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_benchmark_warm_up_runs_in_process(tmp_path, name):
    # load_config(...).ells/.trials/.config_for, run_trial's fields,
    # replace(cfg, trials=1), pairwise_overlap_samples, run_suite's result
    wl = run.WORKLOADS[name]
    if wl.kind == "hp":
        wl = replace(wl, config=run.HP_WARMUP)
    run.commands(wl, tmp_path, 1, 1)
    run.in_process_units(wl, tmp_path, 1, None)


def test_benchmark_tracer_wraps_the_library():
    tracer = tracing.Tracer(MODULES)
    tracer.install()
    try:
        main = tracer.span("cli", cli.main)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            assert main(["verify", "thm1", "--instances", "2", "--seed", "1"]) == 0
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"cli", "verify.thm1", "decoder.error_report"} <= names
    assert verify.SUITES["thm1"] is verify.suite_decoder_bound  # uninstalled
    metrics = tracing.per_layer_metrics(tracer, 2, 0.0, 1.0)
    assert metrics["verify.thm1.self_s"] > 0


def test_benchmark_tracer_times_the_ppgm_stage(tmp_path):
    # ppgm.build_ppgm.self_s and .total_s are read off the spans of
    # build_ppgm: a trial that stopped calling it by that name would leave
    # both metrics at 0 on every tree
    wl = replace(run.WORKLOADS["hp-pure-sweep"], config=run.HP_WARMUP)
    (cmd,) = run.commands(wl, tmp_path, 1, 1)
    tracer = tracing.Tracer(MODULES)
    tracer.install()
    try:
        result = run.run_in_process(tracer.span("cli", cli.main), cmd.args)
    finally:
        tracer.uninstall()
    assert result.returncode == 0 and not cmd.check(result)
    names = [span[0] for span in tracer.spans]
    assert names.count("ppgm.build_ppgm") == cmd.units
    metrics = tracing.per_layer_metrics(tracer, cmd.units, 0.0, 1.0)
    assert metrics["ppgm.build_ppgm.self_s"] > 0
    assert metrics["ppgm.build_ppgm.total_s"] > 0
