"""Command-line harness: property suites, experiment runs, closed-form checks.

Commands::

    ctoq verify <suite> [--instances N] [--seed S]
    ctoq hp-run --config PATH --out DIR [--threads T] [--csv]
    ctoq haar-mean --config PATH

Exit status: 0 pass, 1 property violation, 2 usage or config error, or a
run whose trials would not fit in memory.  Output files are byte-identical
across reruns with the same seed; wall-clock timing goes to stderr only.
The env var ``CTOQ_SEED`` supplies the seed when neither the flag nor the
config file does.  ``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS`` default
to 1, set before numpy loads, so pool workers do not oversubscribe the
cores; a value the user sets wins.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import resource
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the BLAS defaults)

from . import __version__
from .haarhp import (
    HpConfig,
    TrialResult,
    derived_quantities,
    haar_mean_pairwise_overlap,
    pairwise_overlap_samples,
    run_sweep,
    average_error_bound,
    sample_peak_bytes,
    trial_peak_bytes,
)
from .verify import SLACK_TOL, SUITES, run_suite

__all__ = ["main", "RunManifest", "parse_config", "load_config"]


class ConfigError(ValueError):
    """Unusable run configuration; maps to exit status 2."""


@dataclass
class RunManifest:
    """Reproducibility record written next to the results.

    Wall-clock time is deliberately not part of the file so identical seeds
    produce identical bytes; it is reported on stderr instead.
    """

    command: str
    config: dict[str, Any]
    seed: int
    counts: dict[str, int]
    version: str = field(default=__version__, init=False)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# config files: flat "key = value" lines


def parse_config(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip().lower()] = value.strip()
    return out


def _parse_ell(spec: str, n_max: int) -> list[int]:
    spec = spec.strip()
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        values = list(range(int(lo), int(hi) + 1))
    else:
        values = [int(tok) for tok in spec.split(",") if tok.strip()]
    if not values:
        raise ConfigError("ell list is empty")
    if len(set(values)) < len(values):
        raise ConfigError(f"ell list {spec!r} repeats a value")
    for v in values:
        if not 0 <= v <= n_max:
            raise ConfigError(f"ell={v} outside [0, {n_max}]")
    return values


def _parse_xi(spec: str, n_bh: int) -> list[float]:
    """The spectrum of the initial state; :class:`HpConfig` validates it."""
    spec = spec.strip().lower()
    if spec == "pure":
        return [1.0]
    if spec == "maximally_mixed":
        return [2.0**-n_bh] * 2**n_bh
    if spec.startswith("mixed:"):
        try:
            return [float(tok) for tok in spec[len("mixed:") :].split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad spectrum in {spec!r}: {exc}") from None
    raise ConfigError(
        f"xi must be 'pure', 'maximally_mixed', or 'mixed:<csv>', got {spec!r}"
    )


def _resolve_seed(explicit: str | None) -> int:
    """The seed from the flag or config key, else ``CTOQ_SEED``, else 0; a
    negative one is a config error, since numpy seeds only from integers >= 0."""
    env = os.environ.get("CTOQ_SEED")
    seed = 0
    if explicit is not None:
        seed = int(explicit)
    elif env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise ConfigError(f"CTOQ_SEED={env!r} is not an integer") from None
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return seed


@dataclass
class RunSpec:
    """Parsed hp config: one HpConfig per sweep value of ell."""

    n_bh: int
    n_msg: int
    ells: list[int]
    trials: int
    seed: int
    xi_label: str
    epsilon: float | None

    def config_for(self, ell: int) -> HpConfig:
        return HpConfig(
            n_bh=self.n_bh,
            n_msg=self.n_msg,
            n_rad=ell,
            xi_spectrum=_parse_xi(self.xi_label, self.n_bh),
            seed=self.seed,
            trials=self.trials,
        )

    def snapshot(self) -> dict[str, Any]:
        return {
            "n_bh": self.n_bh,
            "n_msg": self.n_msg,
            "ell": self.ells,
            "trials": self.trials,
            "seed": self.seed,
            "xi": self.xi_label,
            "epsilon": self.epsilon,
        }


def load_config(path: str) -> RunSpec:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    kv = parse_config(text)
    known = {"n_bh", "n_msg", "ell", "trials", "seed", "xi", "epsilon"}
    unknown = set(kv) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    try:
        n_bh = int(kv["n_bh"])
        n_msg = int(kv["n_msg"])
        trials = int(kv.get("trials", "1"))
    except KeyError as exc:
        raise ConfigError(f"missing config key {exc}") from None
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if n_bh < 1 or n_msg < 1:
        raise ConfigError(f"n_bh and n_msg must be >= 1, got {n_bh} and {n_msg}")
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    ells = _parse_ell(kv.get("ell", "0"), n_bh + n_msg)
    seed = _resolve_seed(kv.get("seed"))
    epsilon = float(kv["epsilon"]) if "epsilon" in kv else None
    spec = RunSpec(
        n_bh=n_bh,
        n_msg=n_msg,
        ells=ells,
        trials=trials,
        seed=seed,
        xi_label=kv.get("xi", "pure"),
        epsilon=epsilon,
    )
    try:
        spec.config_for(ells[0])  # validate xi eagerly
    except ValueError as exc:
        raise ConfigError(f"bad xi {spec.xi_label!r}: {exc}") from None
    return spec


def _proc_mib(path: str, key: str) -> int | None:
    """The ``key: <n> kB`` field of a ``/proc`` file in MiB, if readable."""
    try:
        found = re.search(rf"^{key}:\s+(\d+) kB", Path(path).read_text(), re.M)
    except OSError:
        return None
    return int(found.group(1)) // 1024 if found else None


def _check_memory(
    spec: RunSpec, workers: int, peak_bytes: Callable[[HpConfig], int]
) -> None:
    """Refuse a run unless one trial at its largest sweep point, as sized by
    ``peak_bytes``, fits under ``RLIMIT_AS`` beside what the process has
    mapped, and ``workers`` of them fit in ``MemAvailable`` (where
    ``/proc/meminfo`` can be read)."""
    need = max(peak_bytes(spec.config_for(ell)) for ell in spec.ells) // 2**20
    limit = resource.getrlimit(resource.RLIMIT_AS)[0]
    if limit != resource.RLIM_INFINITY:
        room = limit // 2**20 - (_proc_mib("/proc/self/status", "VmSize") or 0)
        if need > room:
            raise ConfigError(
                f"a trial needs about {need} MiB; the address-space limit "
                f"leaves {room} MiB"
            )
    avail = _proc_mib("/proc/meminfo", "MemAvailable")
    if avail is not None and workers * need > avail:
        raise ConfigError(
            f"{workers} trial(s) at once need about {workers * need} MiB; "
            f"{avail} MiB of memory is available"
        )


# ---------------------------------------------------------------------------
# serialization


def _num(x: float) -> float | None:
    """JSON-safe float: non-finite values become null."""
    x = float(x)
    return x if math.isfinite(x) else None


def _trial_row(seed: int, ell: int, r: TrialResult) -> dict[str, Any]:
    if r.error is not None:
        return {
            "kind": "trial",
            "seed": seed,
            "ell": ell,
            "trial": r.trial,
            "seed_stream": r.trial,
            "error": r.error,
            "error_type": r.error_type,
            "stage": r.stage,
        }
    return {
        "kind": "trial",
        "seed": seed,
        "ell": ell,
        "trial": r.trial,
        "seed_stream": r.trial,
        "delta_cl_x": _num(r.delta_cl_x),
        "delta_cl_z": _num(r.delta_cl_z),
        "delta_q": _num(r.delta_q_ctoq),
        "lambda_min": {"x": _num(r.lambda_min_x), "z": _num(r.lambda_min_z)},
        "bounds": {
            "two_term": _num(r.bound_two_term),
            "pairwise_sum": {
                "x": _num(r.pairwise_sum_x),
                "z": _num(r.pairwise_sum_z),
            },
            "pairwise_entropy": {
                "x": _num(r.pairwise_entropy_x),
                "z": _num(r.pairwise_entropy_z),
            },
            "support_overlap": {
                "x": _num(r.support_overlap_x),
                "z": _num(r.support_overlap_z),
            },
        },
        "pairwise_overlap": _num(r.pairwise_overlap),
        "collision_entropy_avg": _num(r.collision_entropy_avg),
        "collision_entropies": [_num(h) for h in r.collision_entropies],
        "flags": {"ill_conditioned": r.ill_conditioned},
        "error": None,
    }


def _z_score(mean: float, reference: float, se: float) -> float:
    """Standardized deviation.  A degenerate sample is an exact match (0)
    or an infinite deviation carrying the sign of ``mean - reference``."""
    if se < 1e-12:
        diff = mean - reference
        return 0.0 if abs(diff) < 1e-9 else math.copysign(math.inf, diff)
    return (mean - reference) / se


_THREE_SIGMA_TAIL = math.erfc(3.0 / math.sqrt(2.0))  # P(|Z| > 3), Z normal


def _t_critical(dof: int) -> float:
    """The ``t`` with ``P(|T| > t) = P(|Z| > 3)`` for Student's t with
    ``dof`` degrees of freedom, by bisection on the finite series for
    ``P(|T| <= t)`` in ``theta = atan(t / sqrt(dof))`` (Abramowitz and
    Stegun 26.7.3 and 26.7.4)."""

    def inside(t: float) -> float:
        theta, odd = math.atan(t / math.sqrt(dof)), dof % 2
        term = total = math.cos(theta) if odd else 1.0
        for i in range(1, dof // 2):
            term *= math.cos(theta) ** 2 * (2 * i - 1 + odd) / (2 * i + odd)
            total += term
        inner = math.sin(theta) * total
        return 2.0 / math.pi * (theta + inner * (dof > 1)) if odd else inner

    lo, hi = 0.0, 1000.0  # 235.8 at one degree of freedom, less above
    for _ in range(100):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if 1.0 - inside(mid) > _THREE_SIGMA_TAIL else (lo, mid)
    return hi


def _mean_se(values: list[float] | np.ndarray) -> tuple[float | None, float | None]:
    if not len(values):
        return None, None
    arr = np.asarray(values)
    mean = float(arr.mean())
    se = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    return mean, se


def _summary_row(
    spec: RunSpec, ell: int, results: list[TrialResult]
) -> dict[str, Any]:
    cfg = spec.config_for(ell)
    good = [r for r in results if r.error is None]
    row: dict[str, Any] = {
        "kind": "summary",
        "seed": spec.seed,
        "ell": ell,
        "trials": len(results),
        "failed_trials": len(results) - len(good),
    }
    for name, attr in (
        ("delta_cl_x", "delta_cl_x"),
        ("delta_cl_z", "delta_cl_z"),
        ("delta_q", "delta_q_ctoq"),
        ("pairwise_overlap", "pairwise_overlap"),
    ):
        mean, se = _mean_se([getattr(r, attr) for r in good])
        row[f"mean_{name}"] = _num(mean) if mean is not None else None
        row[f"se_{name}"] = _num(se) if se is not None else None

    # the z-score reads the pairwise overlap's mean and se, the loop's last
    closed = haar_mean_pairwise_overlap(cfg)
    row["closed_form_overlap"] = _num(closed)
    if mean is None:
        row["overlap_z_score"] = None
    else:
        row["overlap_z_score"] = _num(_z_score(mean, closed, se or 0.0))

    derived = derived_quantities(cfg)
    row["ell_th"] = _num(derived.ell_th)
    row["lambda_xi"] = _num(derived.lambda_xi)
    row["h2_initial"] = _num(derived.h2_bin)

    epsilon = spec.epsilon if spec.epsilon is not None else 0.9
    try:
        bound = average_error_bound(cfg, epsilon)
        row["analytic_bound"] = {
            "epsilon": epsilon,
            "cl_bound": _num(bound.cl_bound),
            "q_bound": _num(bound.q_bound),
            "log2_delta": _num(bound.log2_delta),
            "vacuous": bound.vacuous,
        }
    except ValueError as exc:
        row["analytic_bound"] = {"epsilon": epsilon, "skipped": str(exc)}
    return row


def _dump_jsonl(rows: list[dict[str, Any]]) -> str:
    return "".join(
        json.dumps(row, sort_keys=True, allow_nan=False) + "\n" for row in rows
    )


_CSV_COLUMNS = [
    "ell",
    "trial",
    "delta_cl_x",
    "delta_cl_z",
    "delta_q",
    "lambda_min_x",
    "lambda_min_z",
    "bound_two_term",
    "pairwise_sum_x",
    "pairwise_sum_z",
    "pairwise_overlap",
    "error",
]


def _dump_csv(per_ell: list[tuple[int, list[TrialResult]]]) -> str:
    lines = [",".join(_CSV_COLUMNS)]
    for ell, results in per_ell:
        for r in results:
            vals = [
                ell,
                r.trial,
                r.delta_cl_x,
                r.delta_cl_z,
                r.delta_q_ctoq,
                r.lambda_min_x,
                r.lambda_min_z,
                r.bound_two_term,
                r.pairwise_sum_x,
                r.pairwise_sum_z,
                r.pairwise_overlap,
                r.error or "",
            ]
            lines.append(",".join(str(v) for v in vals))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands


def cmd_verify(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    t0 = time.monotonic()
    result = run_suite(args.suite, args.instances, seed)
    status = "PASS" if result.passed else "FAIL"
    print(
        f"{result.name}: {status} instances={result.instances} "
        f"failures={result.failures} worst_slack={result.worst_slack:.3e} "
        f"(tolerance {SLACK_TOL:g})"
    )
    if result.worst_label:
        print(f"  worst {result.worst_label}")
    for note in result.notes:
        print(f"  violation {note}")
    print(f"elapsed {time.monotonic() - t0:.1f}s", file=sys.stderr)
    return 0 if result.passed else 1


def cmd_hp_run(args: argparse.Namespace) -> int:
    spec = load_config(args.config)
    total = spec.trials * len(spec.ells)
    _check_memory(spec, min(args.threads, total), trial_peak_bytes)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory: {exc}") from None
    cfgs = [spec.config_for(ell) for ell in spec.ells]
    t0 = time.monotonic()

    def progress(i: int, results: list[TrialResult]) -> None:
        failed = sum(r.error is not None for r in results)
        line = f"ell={spec.ells[i]}: {len(results)} trials, {failed} failed"
        print(f"{line} ({(i + 1) * spec.trials}/{total})", file=sys.stderr)

    per_ell = list(zip(spec.ells, run_sweep(cfgs, args.threads, progress)))
    rows: list[dict[str, Any]] = []
    for ell, results in per_ell:
        rows.extend(_trial_row(spec.seed, ell, r) for r in results)
        rows.append(_summary_row(spec, ell, results))

    manifest = RunManifest(
        command="hp-run",
        config=spec.snapshot(),
        seed=spec.seed,
        counts={
            "trials": total,
            "failed_trials": sum(r.error is not None for _, rs in per_ell for r in rs),
            "sweep_points": len(spec.ells),
        },
    )
    (out_dir / "results.jsonl").write_text(_dump_jsonl(rows))
    (out_dir / "manifest.json").write_text(manifest.to_json())
    if args.csv:
        (out_dir / "results.csv").write_text(_dump_csv(per_ell))

    print(f"wrote {out_dir / 'results.jsonl'} ({len(rows)} rows)")
    print(f"elapsed {time.monotonic() - t0:.1f}s", file=sys.stderr)
    return 0


def cmd_haar_mean(args: argparse.Namespace) -> int:
    spec = load_config(args.config)
    if spec.trials < 2:
        raise ConfigError(
            f"haar-mean needs trials >= 2 for a standard error, got {spec.trials}"
        )
    _check_memory(spec, 1, sample_peak_bytes)
    t0 = time.monotonic()
    limit = _t_critical(spec.trials - 1)
    worst_z = 0.0
    for ell in spec.ells:
        cfg = spec.config_for(ell)
        closed = haar_mean_pairwise_overlap(cfg)
        mean, se = _mean_se(pairwise_overlap_samples(cfg))
        z = _z_score(mean, closed, se)
        worst_z = max(worst_z, abs(z))
        print(
            f"ell={ell}: closed_form={closed:.9g} mc_mean={mean:.9g} "
            f"se={se:.3g} z={z:+.2f} trials={cfg.trials}"
        )
    print(f"elapsed {time.monotonic() - t0:.1f}s", file=sys.stderr)
    return 0 if worst_z <= limit else 1


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctoq",
        description="Decoder-construction property suites and scrambling "
        "experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a randomized property suite")
    p_verify.add_argument("suite", choices=sorted(SUITES))
    p_verify.add_argument("--instances", type=_positive_int, default=100)
    p_verify.add_argument("--seed", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_run = sub.add_parser("hp-run", help="run the retrieval experiment sweep")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--threads", type=_positive_int, default=os.cpu_count() or 1)
    p_run.add_argument("--csv", action="store_true")
    p_run.set_defaults(func=cmd_hp_run)

    p_mean = sub.add_parser(
        "haar-mean", help="compare the exact Haar overlap average to Monte Carlo"
    )
    p_mean.add_argument("--config", required=True)
    p_mean.set_defaults(func=cmd_haar_mean)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # a spectrum too large to allocate is that of a trial too large to run
        print("config error: the run does not fit in memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
