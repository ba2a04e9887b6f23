#!/usr/bin/env python3
"""Benchmark of the ``ctoq`` CLI: four workloads, end-to-end metrics, and a
traced run that times the calls into each module.

Run from the repository root:

    python3 bench/run.py --workload hp-pure-sweep --seed 1 --seconds 25 --trace 0

``--trace 0`` runs the workload's CLI commands as subprocesses, reruns their
units of work in process, checks every output, and prints the end-to-end
metrics.  ``--trace 1`` runs one round the same way, then the same commands
in process through ``cli.main`` twice, untraced and traced, and prints the
per-layer metrics.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run record (and,
when traced, the spans) is written under ``bench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import checks

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

SETUP_REPEATS = 7
CLI_TIMEOUT_S = 150
# The (6,2) haar-mean point runs under this address-space limit (KiB, as
# for `ulimit -v`): below the 4 GiB that hp_channel's np.kron asks for, far
# above what every other command of the benchmark needs.
LIMIT_AS_KIB = 3_000_000
# prop2 is left out: its identity check fails on some seeds (see README.md).
SUITE_INSTANCES = {
    "thm1": 200, "cor1": 200, "appx_a": 200, "appx_b": 200, "eq18": 200, "ghz": 50,
}
# An in-process verify unit is one instance, averaged over SUITE_UNIT_INSTANCES
# instances (one cycle of the suites' dimension pattern) of every suite.
SUITE_UNIT_INSTANCES = 6
VERIFY_CYCLES = 3
# The (6,2) point fails today whatever its seed, so it gets a fixed one.
HAAR_LIMITED = {"n_bh": 6, "n_msg": 2, "ells": [4], "trials": 2, "xi": "pure"}
HAAR_LIMITED_SEED = 0
# An in-process haar unit is one sample at every ell of the sweep, timed
# together and reported per sample, so every unit has the same ell mix.
HAAR_SWEEPS = 3
# Untimed warm-up before the in-process hp trials: imports, BLAS start-up
# and first-call costs (0.6 s on the first (5,2,3) trial of a process).
HP_WARMUP = {"n_bh": 3, "n_msg": 1, "ells": [2], "trials": 1, "xi": "pure"}

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("cpu_s_per_item", "s"),
    ("trial_s_p50", "s"),
    ("peak_rss_mib", "MiB"),
)


@dataclass(frozen=True)
class Workload:
    kind: str  # "hp", "haar" or "verify"
    blas_threads: int
    cli_threads: int = 1  # hp-run --threads
    config: dict = field(default_factory=dict)


WORKLOADS = {
    "hp-pure-sweep": Workload(
        "hp", blas_threads=1, cli_threads=2,
        config={"n_bh": 3, "n_msg": 1, "ells": [2, 3, 4], "trials": 20, "xi": "pure"},
    ),
    "hp-mixed-large": Workload(
        "hp", blas_threads=2, cli_threads=1,
        config={"n_bh": 5, "n_msg": 2, "ells": [3], "trials": 1, "xi": "maximally_mixed"},
    ),
    "haar-mean": Workload(
        "haar", blas_threads=1,
        config={"n_bh": 5, "n_msg": 2, "ells": [2, 3, 4, 5], "trials": 20, "xi": "pure"},
    ),
    "verify-suites": Workload("verify", blas_threads=1),
}


# ---------------------------------------------------------------------------
# running the CLI


@dataclass
class CliRun:
    returncode: int
    stdout: str
    stderr: str
    wall: float = 0.0
    cpu: float = 0.0
    maxrss_kib: int = 0


@dataclass
class Command:
    """One CLI invocation, the units of work it does, and its output check."""

    name: str
    args: list[str]
    units: int
    check: Callable[[CliRun], list[str]]
    result: Callable[[CliRun], str]  # what must not change between passes
    limit_kib: int | None = None  # expected to fail today; see LIMIT_AS_KIB


LIMITED_MAIN = (
    "import resource, sys; lim = int(sys.argv[1]) * 1024; "
    "resource.setrlimit(resource.RLIMIT_AS, (lim, lim)); "
    "from ctoq.cli import main; sys.exit(main(sys.argv[2:]))"
)


def cli_env(wl: Workload) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(wl.blas_threads)
    return env


def run_cli(cmd_args: list[str], env: dict, cwd: Path, limit_kib: int | None = None) -> CliRun:
    """Run ``python -m ctoq`` and take wall time, CPU time and peak RSS.

    ``os.wait4`` reports the child's usage together with the processes it
    waited for, so pool workers count in CPU time and peak RSS.
    """
    if limit_kib is None:
        argv = [sys.executable, "-m", "ctoq", *cmd_args]
    else:
        argv = [sys.executable, "-c", LIMITED_MAIN, str(limit_kib), *cmd_args]
    out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
    with out_path.open("wb") as out, err_path.open("wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=cwd, env=env)
        watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CliRun(
        proc.returncode, out_path.read_text(), err_path.read_text(),
        wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
    )


def run_in_process(main, cmd_args: list[str]) -> CliRun:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(cmd_args)
    return CliRun(rc, out.getvalue(), err.getvalue())


def last_line(text: str) -> str:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    return lines[-1] if lines else ""


def write_config(path: Path, cfg: dict, seed: int) -> Path:
    path.write_text(
        f"n_bh = {cfg['n_bh']}\nn_msg = {cfg['n_msg']}\n"
        f"ell = {','.join(map(str, cfg['ells']))}\ntrials = {cfg['trials']}\n"
        f"seed = {seed}\nxi = {cfg['xi']}\n"
    )
    return path


# ---------------------------------------------------------------------------
# the commands of one round


def commands(wl: Workload, work: Path, seed: int, threads: int) -> list[Command]:
    """The CLI commands of one round, with their files under ``work``."""
    work.mkdir(parents=True, exist_ok=True)
    if wl.kind == "hp":
        cfg = wl.config
        path = write_config(work / "hp.cfg", cfg, seed)
        out = work / "hp-out"

        def check_hp(run: CliRun) -> list[str]:
            if run.returncode != 0:
                return [f"hp-run exit {run.returncode}: {last_line(run.stderr)}"]
            return checks.check_hp_run(out, cfg)

        def result_hp(run: CliRun) -> str:
            return (out / "results.jsonl").read_text() + (out / "manifest.json").read_text()

        args = ["hp-run", "--config", str(path), "--out", str(out), "--threads", str(threads)]
        return [Command("hp-run", args, cfg["trials"] * len(cfg["ells"]), check_hp, result_hp)]

    if wl.kind == "haar":
        # One call per ell, so each call has enough samples for the z bound
        # and a run has several calls to take medians over.
        points = [
            (f"haar-ell{ell}", {**wl.config, "ells": [ell]}, None)
            for ell in wl.config["ells"]
        ]
        cmds = []
        for name, cfg, limit in points + [("haar62", HAAR_LIMITED, LIMIT_AS_KIB)]:
            path = write_config(work / f"{name}.cfg", cfg, seed if limit is None else HAAR_LIMITED_SEED)
            cmds.append(Command(
                name,
                ["haar-mean", "--config", str(path)],
                cfg["trials"] * len(cfg["ells"]),
                lambda run, cfg=cfg: checks.check_haar_mean(run.stdout, run.returncode, cfg),
                lambda run: run.stdout,
                limit,
            ))
        return cmds

    return [
        Command(
            suite,
            ["verify", suite, "--instances", str(n), "--seed", str(seed)],
            n,
            lambda run, suite=suite, n=n: checks.check_verify(run.stdout, run.returncode, suite, n),
            lambda run: run.stdout,
        )
        for suite, n in SUITE_INSTANCES.items()
    ]


def failed_before_result(cmd: Command, run: CliRun) -> bool:
    """The limited haar-mean point fails when it prints no sweep-point line."""
    return cmd.limit_kib is not None and not checks.parse_haar_mean(run.stdout)


# ---------------------------------------------------------------------------
# one round: CLI subprocesses, then the same units of work in process


@dataclass
class Tally:
    # one entry per round, over the round's commands that passed their checks
    rates: list[float] = field(default_factory=list)  # units / wall s
    cpu_per_unit: list[float] = field(default_factory=list)  # CPU s / unit
    peaks_kib: list[int] = field(default_factory=list)  # largest peak RSS
    cli_wall: float = 0.0
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    unit_times: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def note(self, key: str, value) -> None:
        self.notes.setdefault(key, []).append(value)


def in_process_units(wl: Workload, work: Path, seed: int, tally: Tally | None) -> None:
    """Time the workload's units of work in process.

    hp: every trial of the round through ``haarhp.run_trial``, checked
    against the CLI's rows.  haar: ``HAAR_SWEEPS`` times a one-sample
    ``pairwise_overlap_samples`` call at each ell.  verify: ``VERIFY_CYCLES``
    times a ``SUITE_UNIT_INSTANCES``-instance ``run_suite`` call for every
    suite.  Each unit time is per trial, sample or instance.  With
    ``tally=None`` this is an untimed warm-up.
    """
    from ctoq import cli, haarhp, verify

    times: list[float] = []
    problems: list[str] = []
    if wl.kind == "hp":
        spec = cli.load_config(str(work / "hp.cfg"))
        values = {}
        for ell in spec.ells:
            hc = spec.config_for(ell)
            for t in range(spec.trials):
                t0 = time.perf_counter()
                r = haarhp.run_trial(hc, t)
                times.append(time.perf_counter() - t0)
                values[(ell, t)] = (r.delta_q_ctoq, r.delta_cl_x, r.delta_cl_z)
        if tally is not None:
            problems = checks.check_reproduction(work / "hp-out", values)
    elif wl.kind == "haar":
        ells = wl.config["ells"]
        cfgs = [
            replace(cli.load_config(str(work / f"haar-ell{ell}.cfg")).config_for(ell), trials=1)
            for ell in ells
        ]
        for _ in range(HAAR_SWEEPS if tally is not None else 1):
            t0 = time.perf_counter()
            for hc in cfgs:
                haarhp.pairwise_overlap_samples(hc)
            times.append((time.perf_counter() - t0) / len(ells))
    else:
        for _ in range(VERIFY_CYCLES if tally is not None else 1):
            t0 = time.perf_counter()
            results = [verify.run_suite(s, SUITE_UNIT_INSTANCES, seed) for s in SUITE_INSTANCES]
            times.append((time.perf_counter() - t0) / (SUITE_UNIT_INSTANCES * len(results)))
            problems += [f"{r.name} in process: {r.failures} failures" for r in results if not r.passed]
    if tally is not None:
        tally.unit_times += times
        tally.problems += problems


def run_round(wl: Workload, env: dict, work: Path, seed: int, tally: Tally) -> tuple[list[Command], list[CliRun]]:
    cmds = commands(wl, work, seed, wl.cli_threads)
    runs = []
    units = wall = cpu = peak = 0
    for cmd in cmds:
        run = run_cli(cmd.args, env, work, cmd.limit_kib)
        runs.append(run)
        tally.cli_wall += run.wall
        tally.attempted += cmd.units
        if failed_before_result(cmd, run):
            tally.failed += cmd.units
            tally.note("limited_point_error", f"exit {run.returncode}: {last_line(run.stderr)}")
            continue
        problems = cmd.check(run)
        tally.problems += problems
        if not problems:
            units += cmd.units
            wall += run.wall
            cpu += run.cpu
            peak = max(peak, run.maxrss_kib)
        if wl.kind == "haar" and run.returncode == 1:
            tally.note("cli_3sigma_exits", seed)
    if units:
        tally.rates.append(units / wall)
        tally.cpu_per_unit.append(cpu / units)
        tally.peaks_kib.append(peak)
    in_process_units(wl, work, seed, tally)
    tally.rounds += 1
    return cmds, runs


# ---------------------------------------------------------------------------
# the two modes


def measure_setup(wl: Workload, env: dict, work: Path) -> float:
    """Median wall time of the workload's subcommand with ``--help``: Python
    start, numpy and every ctoq module imported, arguments parsed."""
    sub = {"hp": "hp-run", "haar": "haar-mean", "verify": "verify"}[wl.kind]
    walls = []
    for _ in range(SETUP_REPEATS):
        run = run_cli([sub, "--help"], env, work)
        if run.returncode != 0:
            raise RuntimeError(f"{sub} --help exit {run.returncode}: {last_line(run.stderr)}")
        walls.append(run.wall)
    return statistics.median(walls)


def untraced(wl: Workload, env: dict, work: Path, seed: int, seconds: float, tally: Tally) -> dict | None:
    t_start = time.perf_counter()
    setup_s = measure_setup(wl, env, work)
    warmup = wl if wl.kind != "hp" else replace(wl, config=HP_WARMUP)
    commands(warmup, work / "warmup", 1000 * seed, 1)
    in_process_units(warmup, work / "warmup", 1000 * seed, None)
    durations: list[float] = []
    while not durations or time.perf_counter() - t_start + statistics.mean(durations) <= seconds:
        t0 = time.perf_counter()
        run_round(wl, env, work / f"round{tally.rounds}", 1000 * seed + tally.rounds, tally)
        durations.append(time.perf_counter() - t0)
    times = tally.unit_times
    if not tally.rates:
        return None  # no command passed its checks, so there is nothing to report
    metrics = {
        "setup_s": setup_s,
        "items_per_s": statistics.median(tally.rates),
        "cpu_s_per_item": statistics.median(tally.cpu_per_unit),
        "trial_s_p50": statistics.median(times),
        "peak_rss_mib": statistics.median(tally.peaks_kib) / 1024,
    }
    extra = {
        "rounds_measured": len(tally.rates),
        "unit_samples": len(times),
        "elapsed_s": time.perf_counter() - t_start,
        "round_s": statistics.mean(durations),
    }
    if len(times) >= 100:
        extra["trial_s_p90"] = statistics.quantiles(times, n=10)[-1]
    return {"metrics": metrics, "extra": extra}


def traced(wl: Workload, env: dict, work: Path, seed: int, tally: Tally, spans_path: Path) -> dict:
    """One ordinary round, then its commands in process: untraced, traced."""
    import tracing
    from ctoq import cli, decoder, haarhp, linop, ppgm, qcore, sampling, verify

    round_seed = 1000 * seed
    sub_cmds, sub_runs = run_round(wl, env, work / "round", round_seed, tally)
    pool_efficiency = 0.0
    if wl.kind == "hp":
        pool_efficiency = sum(tally.unit_times) / (tally.cli_wall * wl.cli_threads)
    reference = {
        cmd.name: cmd.result(run)
        for cmd, run in zip(sub_cmds, sub_runs)
        if not failed_before_result(cmd, run)
    }

    modules = {
        "linop": linop, "qcore": qcore, "decoder": decoder, "ppgm": ppgm,
        "haarhp": haarhp, "sampling": sampling, "verify": verify, "cli": cli,
    }
    tracer = tracing.Tracer(modules)
    walls = {}
    units = 0
    for label in ("untraced", "traced"):
        cmds = [c for c in commands(wl, work / label, round_seed, 1) if c.limit_kib is None]
        main = cli.main
        if label == "traced":
            tracer.install()
            main = tracer.span("cli", cli.main)
        t0 = time.perf_counter()
        try:
            runs = [run_in_process(main, c.args) for c in cmds]
        finally:
            walls[label] = time.perf_counter() - t0
            tracer.uninstall()
        units = sum(c.units for c in cmds)
        for cmd, run in zip(cmds, runs):
            problems = cmd.check(run)
            if not problems and cmd.result(run) != reference.get(cmd.name):
                problems = [f"{label} in-process {cmd.name}: output differs from the CLI's"]
            tally.problems += problems
    tracer.write(spans_path)
    overhead = walls["traced"] / walls["untraced"]
    metrics = tracing.per_layer_metrics(tracer, units, pool_efficiency, overhead)
    extra = {
        "traced_units": units,
        "untraced_wall_s": walls["untraced"],
        "traced_wall_s": walls["traced"],
        "spans": len(tracer.spans),
    }
    return {"metrics": metrics, "extra": extra}


def environment(wl: Workload) -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": deps.get("blas", {}).get("name"),
        "blas_version": deps.get("blas", {}).get("version"),
        "lapack": deps.get("lapack", {}).get("name"),
        "cpu_count": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "hp_run_threads": wl.cli_threads if wl.kind == "hp" else None,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    if not (SRC / "ctoq" / "cli.py").is_file():
        print(f"bench: no ctoq sources under {SRC}", file=sys.stderr)
        return 2
    # Before numpy is imported here, so the in-process units use the same
    # BLAS thread count as the CLI processes.
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = str(wl.blas_threads)
    sys.path.insert(0, str(SRC))

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"{stem}.{os.getpid()}.work"
    work.mkdir(parents=True, exist_ok=True)
    env = cli_env(wl)
    tally = Tally()
    try:
        if args.trace:
            res = traced(wl, env, work, args.seed, tally, OUT / f"{stem}.spans.jsonl")
            import tracing

            units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        else:
            res = untraced(wl, env, work, args.seed, args.seconds, tally)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(wl),
        "config": wl.config or {"suite_instances": SUITE_INSTANCES},
        "rounds": tally.rounds,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": res and res["metrics"],
        "extra": res and res["extra"],
        "notes": tally.notes,
        "problems": tally.problems,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    for problem in tally.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    if res is None:
        return 1

    print(f"workload {args.workload} seed {args.seed} rounds {tally.rounds} "
          f"attempted {tally.attempted} failed {tally.failed}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for name, value in res["metrics"].items():
        print(f"  {name:42s} {value:14.6g} {units[name]}")
    for name, value in res["extra"].items():
        print(f"  {name:42s} {value:14.6g}")
    for note in tally.notes.get("limited_point_error", [])[:1]:
        print(f"  (6,2) point under ulimit -v {LIMIT_AS_KIB}: {note}")
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in res["metrics"].items()
        },
    }))
    return 0 if not tally.problems else 1


if __name__ == "__main__":
    sys.exit(main())
