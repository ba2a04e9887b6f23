"""Output checks for the benchmark workloads.

Every check tests a property the method must have, or compares with a value
this file computes itself from the configuration; none compares with a
stored copy of an earlier run.  Each checker returns a list of problems,
empty when the output passes.  Only the standard library is used, so the
checks do not depend on the code they check.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

SLACK = 1e-9  # slack on the inequality chains and the pairwise identity
REPRO_TOL = 1e-12  # in-process rerun against the CLI's value for the same trial
REL_TOL = 1e-12  # closed-form overlap, relative
# The overlap z-scores are Student-t distributed.  A 3-sigma gate applied to
# every sweep point of every run fails on correct code a few times per
# thousand points; 6 sigma with at least 20 samples leaves a false alarm
# rate near 1e-5 per point.  Points with fewer samples are not gated.
Z_MAX = 6.0
Z_MIN_SAMPLES = 20
VERIFY_WORST_SLACK = -1e-9

_HAAR_LINE = re.compile(
    r"^ell=(?P<ell>\d+): closed_form=(?P<closed>\S+) mc_mean=(?P<mean>\S+) "
    r"se=(?P<se>\S+) z=(?P<z>\S+) trials=(?P<trials>\d+)$"
)
_VERIFY_LINE = re.compile(
    r"^(?P<suite>\w+): (?P<status>PASS|FAIL) instances=(?P<instances>\d+) "
    r"failures=(?P<failures>\d+) worst_slack=(?P<worst>\S+) "
)


def purity(xi: str, n_bh: int) -> float:
    """``tr xi^2`` of the initial states the benchmark uses."""
    if xi == "pure":
        return 1.0
    if xi == "maximally_mixed":
        return 2.0**-n_bh
    raise ValueError(f"no closed form for xi={xi!r}")


def closed_form_overlap(n_bh: int, n_msg: int, ell: int, xi: str) -> float:
    """Haar average of ``sum_{i != j} tr[xi_i xi_j]``:
    ``2^k (2^k - 1) (2^{2(N+k)-ell} - 2^ell) / (2^{2(N+k)} - 1) * 2^{-H2}``."""
    dk = 2.0**n_msg
    num = 2.0 ** (2 * (n_bh + n_msg) - ell) - 2.0**ell
    den = 2.0 ** (2 * (n_bh + n_msg)) - 1.0
    return dk * (dk - 1.0) * num / den * purity(xi, n_bh)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def two_term_bound(de: float, df: float) -> float:
    """``sqrt(de (2 - de)) + sqrt(df)``: the decoder bound for a mutually
    unbiased pair, here Pauli Z (first POVM) and Pauli X."""
    return math.sqrt(max(de * (2.0 - de), 0.0)) + math.sqrt(max(df, 0.0))


def _check_trial(row: dict, where: str) -> list[str]:
    if row.get("error") is not None:
        return [f"{where}: error {row['error']!r}"]
    try:
        dq = float(row["delta_q"])
        dcl = {"x": float(row["delta_cl_x"]), "z": float(row["delta_cl_z"])}
        b = row["bounds"]
        two_term = float(b["two_term"])
        ill = bool(row["flags"]["ill_conditioned"])
        chain = {
            basis: (
                float(b["support_overlap"][basis]),
                float(b["pairwise_sum"][basis]),
                float(b["pairwise_entropy"][basis]),
            )
            for basis in ("x", "z")
        }
    except (KeyError, TypeError, ValueError) as exc:
        return [f"{where}: missing or non-numeric field ({exc!r})"]
    problems = []
    if not 0.0 <= dq <= two_term + SLACK:
        problems.append(f"{where}: delta_q={dq!r} outside [0, two_term={two_term!r}]")
    expect = two_term_bound(dcl["z"], dcl["x"])
    if abs(two_term - expect) > REPRO_TOL:
        problems.append(f"{where}: two_term={two_term!r} but the errors give {expect!r}")
    if not ill:
        for basis, (support, pair_sum, pair_ent) in chain.items():
            if not (dcl[basis] <= support + SLACK and support <= pair_sum + SLACK):
                problems.append(
                    f"{where}: chain delta_cl_{basis}={dcl[basis]!r} <= "
                    f"support={support!r} <= pairwise_sum={pair_sum!r} broken"
                )
            if abs(pair_sum - pair_ent) > SLACK:
                problems.append(
                    f"{where}: pairwise_sum_{basis}={pair_sum!r} != "
                    f"pairwise_entropy_{basis}={pair_ent!r}"
                )
    return problems


def check_hp_run(out_dir: Path, cfg: dict) -> list[str]:
    """Check ``results.jsonl`` and ``manifest.json`` of one ``hp-run``.

    ``cfg`` holds ``n_bh``, ``n_msg``, ``ells`` (list), ``trials`` and ``xi``.
    """
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text())
        rows = [
            json.loads(line)
            for line in (out_dir / "results.jsonl").read_text().splitlines()
        ]
    except (OSError, ValueError) as exc:
        return [f"{out_dir.name}: unreadable results ({exc})"]
    trials = [r for r in rows if r.get("kind") == "trial"]
    summaries = {r.get("ell"): r for r in rows if r.get("kind") == "summary"}
    problems = []
    n_expected = cfg["trials"] * len(cfg["ells"])
    counts = manifest.get("counts", {})
    if counts.get("trials") != n_expected or len(trials) != n_expected:
        problems.append(
            f"manifest trials={counts.get('trials')}, rows={len(trials)}, "
            f"expected {n_expected}"
        )
    n_errors = sum(1 for r in trials if r.get("error") is not None)
    if counts.get("failed_trials") != n_errors:
        problems.append(
            f"manifest failed_trials={counts.get('failed_trials')} but "
            f"{n_errors} rows have an error"
        )
    if counts.get("sweep_points") != len(cfg["ells"]):
        problems.append(f"manifest sweep_points={counts.get('sweep_points')}")
    for r in trials:
        problems += _check_trial(r, f"ell={r.get('ell')} trial={r.get('trial')}")
    for ell in cfg["ells"]:
        s = summaries.get(ell)
        if s is None:
            problems.append(f"ell={ell}: no summary row")
            continue
        if s.get("trials") != cfg["trials"] or s.get("failed_trials") != 0:
            problems.append(
                f"ell={ell}: summary trials={s.get('trials')} "
                f"failed={s.get('failed_trials')}"
            )
        own = closed_form_overlap(cfg["n_bh"], cfg["n_msg"], ell, cfg["xi"])
        got = s.get("closed_form_overlap")
        if not isinstance(got, (int, float)) or not _close(got, own, REL_TOL):
            problems.append(f"ell={ell}: closed_form_overlap={got!r}, expected {own!r}")
        z = s.get("overlap_z_score")
        if cfg["trials"] >= Z_MIN_SAMPLES and not (
            isinstance(z, (int, float)) and abs(z) <= Z_MAX
        ):
            problems.append(f"ell={ell}: overlap z-score {z!r} beyond {Z_MAX}")
    return problems


def check_reproduction(out_dir: Path, inproc: dict) -> list[str]:
    """In-process results must equal the CLI's for the same (ell, trial).

    ``inproc`` maps ``(ell, trial)`` to ``(delta_q, delta_cl_x, delta_cl_z)``.
    """
    rows = {}
    for line in (out_dir / "results.jsonl").read_text().splitlines():
        r = json.loads(line)
        if r.get("kind") == "trial":
            rows[(r["ell"], r["trial"])] = r
    problems = []
    for key, values in inproc.items():
        r = rows.get(key)
        if r is None:
            problems.append(f"ell={key[0]} trial={key[1]}: no CLI row")
            continue
        for name, value in zip(("delta_q", "delta_cl_x", "delta_cl_z"), values):
            cli_value = r.get(name)
            if not (
                isinstance(cli_value, (int, float))
                and abs(cli_value - value) <= REPRO_TOL
            ):
                problems.append(
                    f"ell={key[0]} trial={key[1]}: {name} in process {value!r}, "
                    f"CLI {cli_value!r}"
                )
    return problems


def parse_haar_mean(stdout: str) -> dict[int, dict]:
    """Sweep-point lines of ``haar-mean`` keyed by ell."""
    points = {}
    for line in stdout.splitlines():
        m = _HAAR_LINE.match(line.strip())
        if m:
            points[int(m["ell"])] = m.groupdict()
    return points


def check_haar_mean(stdout: str, returncode: int, cfg: dict) -> list[str]:
    """Check one ``haar-mean`` run.

    The CLI prints the closed form with 9 significant digits, so it must
    equal this file's value printed the same way.  Exit status 1 is the
    CLI's own 3-sigma verdict; it is accepted when every point is printed
    and some |z| exceeds 3, because the z bound checked here is ``Z_MAX``.
    """
    points = parse_haar_mean(stdout)
    problems = []
    missing = [ell for ell in cfg["ells"] if ell not in points]
    if missing:
        return [f"exit {returncode}, no line for ell={missing}"]
    worst = 0.0
    for ell in cfg["ells"]:
        p = points[ell]
        own = f"{closed_form_overlap(cfg['n_bh'], cfg['n_msg'], ell, cfg['xi']):.9g}"
        if p["closed"] != own:
            problems.append(f"ell={ell}: closed_form={p['closed']}, expected {own}")
        if int(p["trials"]) != cfg["trials"]:
            problems.append(f"ell={ell}: trials={p['trials']}")
        z = float(p["z"])
        worst = max(worst, abs(z))
        if cfg["trials"] >= Z_MIN_SAMPLES and not abs(z) <= Z_MAX:
            problems.append(f"ell={ell}: z={p['z']} beyond {Z_MAX}")
    if returncode not in (0, 1) or (returncode == 1 and worst <= 3.0):
        problems.append(f"exit {returncode} with worst |z|={worst}")
    return problems


def parse_verify(stdout: str) -> dict | None:
    for line in stdout.splitlines():
        m = _VERIFY_LINE.match(line.strip())
        if m:
            return m.groupdict()
    return None


def check_verify(stdout: str, returncode: int, suite: str, instances: int) -> list[str]:
    """Check one ``verify`` run: PASS, no failures, worst slack above -1e-9."""
    p = parse_verify(stdout)
    if p is None:
        return [f"{suite}: exit {returncode}, no result line"]
    problems = []
    if returncode != 0 or p["status"] != "PASS" or int(p["failures"]) != 0:
        problems.append(
            f"{suite}: exit {returncode} {p['status']} failures={p['failures']}"
        )
    if p["suite"] != suite or int(p["instances"]) != instances:
        problems.append(f"{suite}: line reports {p['suite']} x{p['instances']}")
    if not float(p["worst"]) >= VERIFY_WORST_SLACK:
        problems.append(f"{suite}: worst_slack={p['worst']}")
    return problems
