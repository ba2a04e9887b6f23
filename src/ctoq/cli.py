"""Command-line harness: property suites, experiment runs, closed-form checks.

Commands::

    ctoq verify <suite> --instances N --seed S
    ctoq hp-run --config PATH --out DIR [--threads T] [--csv] [--allow-large]
    ctoq haar-mean --config PATH

Exit status: 0 pass, 1 property violation, 2 usage or config error.  Output
files are byte-identical across reruns with the same seed; wall-clock timing
goes to stderr only.  The env var ``CTOQ_SEED`` supplies the seed when
neither the flag nor the config file does.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .haarhp import (
    HpConfig,
    TrialResult,
    derived_quantities,
    haar_mean_pairwise_overlap,
    pairwise_overlap_samples,
    run_experiment,
    average_error_bound,
)
from .verify import SLACK_TOL, SUITES, run_suite

__all__ = ["main", "RunManifest", "parse_config", "load_config"]

DIM_CAP = 8  # max n_bh + n_msg without --allow-large


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
    version: str = __version__
    counts: dict[str, int] = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "config": self.config,
            "seed": self.seed,
            "version": self.version,
            "counts": self.counts,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


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


def load_config(path: str, allow_large: bool = False) -> RunSpec:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    kv = parse_config(text)
    known = {"n_bh", "n_msg", "ell", "trials", "seed", "xi", "epsilon", "allow_large"}
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
    allow_large = allow_large or kv.get("allow_large", "").lower() in (
        "1",
        "true",
        "yes",
    )
    if n_bh + n_msg > DIM_CAP and not allow_large:
        raise ConfigError(
            f"n_bh + n_msg = {n_bh + n_msg} exceeds the cap {DIM_CAP}; "
            "pass --allow-large to override"
        )
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
            "seed_stream": r.seed_stream,
            "error": r.error,
            "error_type": r.error_type,
        }
    return {
        "kind": "trial",
        "seed": seed,
        "ell": ell,
        "trial": r.trial,
        "seed_stream": r.seed_stream,
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


def _mean_se(values: list[float]) -> tuple[float | None, float | None]:
    if not values:
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

    closed = haar_mean_pairwise_overlap(cfg)
    row["closed_form_overlap"] = _num(closed)
    mean, se = _mean_se([r.pairwise_overlap for r in good])
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
    for note in result.notes:
        print(f"  violation {note}")
    print(f"elapsed {time.monotonic() - t0:.1f}s", file=sys.stderr)
    return 0 if result.passed else 1


def cmd_hp_run(args: argparse.Namespace) -> int:
    spec = load_config(args.config, allow_large=args.allow_large)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.monotonic()

    rows: list[dict[str, Any]] = []
    per_ell: list[tuple[int, list[TrialResult]]] = []
    failed = 0
    for ell in spec.ells:
        cfg = spec.config_for(ell)
        results = run_experiment(cfg, n_jobs=args.threads)
        per_ell.append((ell, results))
        failed += sum(1 for r in results if r.error is not None)
        rows.extend(_trial_row(spec.seed, ell, r) for r in results)
        rows.append(_summary_row(spec, ell, results))

    manifest = RunManifest(
        command="hp-run",
        config=spec.snapshot(),
        seed=spec.seed,
        counts={
            "trials": spec.trials * len(spec.ells),
            "failed_trials": failed,
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
    spec = load_config(args.config, allow_large=args.allow_large)
    if spec.trials < 2:
        raise ConfigError(
            f"haar-mean needs trials >= 2 for a standard error, got {spec.trials}"
        )
    t0 = time.monotonic()
    worst_z = 0.0
    for ell in spec.ells:
        cfg = spec.config_for(ell)
        closed = haar_mean_pairwise_overlap(cfg)
        samples = pairwise_overlap_samples(cfg)
        mean = float(samples.mean())
        se = float(samples.std(ddof=1) / math.sqrt(samples.size))
        z = _z_score(mean, closed, se)
        worst_z = max(worst_z, abs(z))
        print(
            f"ell={ell}: closed_form={closed:.9g} mc_mean={mean:.9g} "
            f"se={se:.3g} z={z:+.2f} trials={cfg.trials}"
        )
    print(f"elapsed {time.monotonic() - t0:.1f}s", file=sys.stderr)
    return 0 if worst_z <= 3.0 else 1


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
    p_run.add_argument("--allow-large", action="store_true")
    p_run.set_defaults(func=cmd_hp_run)

    p_mean = sub.add_parser(
        "haar-mean", help="compare the exact Haar overlap average to Monte Carlo"
    )
    p_mean.add_argument("--config", required=True)
    p_mean.add_argument("--allow-large", action="store_true")
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


if __name__ == "__main__":
    sys.exit(main())
