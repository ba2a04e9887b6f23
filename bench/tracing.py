"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of every ``ctoq`` module from the
outside: each wrapper replaces the function's name in every ``ctoq`` module
that holds it, so calls between modules are recorded too.  A span is
``(name, start, end, parent)``; spans stay in memory until the run ends.
A span's self time is its duration minus the time its child spans cover.

The numpy kernels under the library (``numpy.linalg.eigh`` and friends) are
counted, not made into spans: their time stays in the self time of the
library function that called them.
"""

from __future__ import annotations

import functools
import inspect
import json
import tracemalloc
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

LIBRARY_MODULES = ("linop", "qcore", "decoder", "ppgm", "haarhp", "sampling", "verify")
KERNELS = ("eigh", "eigvalsh", "qr", "svd")
ALLOC_SPANS = ("haarhp.hp_channel", "decoder.build_ctoq")
DIM_SPANS = ("linop.func_on_support", "linop.sqrtm_psd", "linop.trace_distance")


def _leading_dim(args: tuple) -> int:
    if not args:
        return 0
    a = args[0]
    data = a if isinstance(a, np.ndarray) else getattr(a, "data", None)
    shape = getattr(data, "shape", ())
    return int(max(shape[-2:])) if len(shape) >= 2 else 0


class Tracer:
    """Records spans and kernel counts while installed; restores on exit."""

    def __init__(self, modules: dict) -> None:
        self.modules = modules  # short name -> imported ctoq module
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.kernels: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0])
        self.max_dim: dict[str, int] = defaultdict(int)
        self.alloc_peak: dict[str, int] = defaultdict(int)
        self.kraus_counts: list[int] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def span(self, name: str, fn):
        """``fn`` wrapped to record a span named ``name`` on every call."""
        tracer = self
        alloc = name in ALLOC_SPANS
        dims = name in DIM_SPANS
        kraus = name == "decoder.build_ctoq"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(idx)
            if dims:
                tracer.max_dim[name] = max(tracer.max_dim[name], _leading_dim(args))
            mem = alloc and not tracemalloc.is_tracing()
            if mem:
                tracemalloc.start()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                if mem:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.alloc_peak[name] = max(tracer.alloc_peak[name], peak)
                tracer._stack.pop()
                tracer.spans[idx] = (name, t0, t1, parent)
            if kraus:
                tracer.kraus_counts.append(len(result.total.kraus))
            return result

        return wrapper

    def _kernel(self, name: str, fn):
        counts = self.kernels[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                counts[0] += 1
                counts[1] += perf_counter() - t0
                counts[2] = max(counts[2], _leading_dim(args))

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper) -> None:
        for mod in self.modules.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self) -> None:
        for short in LIBRARY_MODULES:
            mod = self.modules[short]
            for attr, fn in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                self._replace_everywhere(fn, self.span(f"{short}.{attr}", fn))
        linop, qcore, verify = (self.modules[m] for m in ("linop", "qcore", "verify"))
        for owner, name in ((linop.Operator, "linop.Operator.init"), (qcore.Povm, "qcore.Povm.init")):
            self._set(owner, "__post_init__", self.span(name, owner.__post_init__))
        for suite, fn in list(verify.SUITES.items()):
            self._undo.append((verify.SUITES, suite, fn))
            verify.SUITES[suite] = self.span(f"verify.{suite}", fn)
        for kernel in KERNELS:
            name = f"numpy.linalg.{kernel}"
            self._set(np.linalg, kernel, self._kernel(name, getattr(np.linalg, kernel)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # -- results ----------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Self seconds, inclusive seconds and calls per span name."""
        covered = defaultdict(float)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, t0, t1, _) in enumerate(self.spans):
            self_s[name] += (t1 - t0) - covered[i]
            total_s[name] += t1 - t0
            calls[name] += 1
        return self_s, total_s, calls

    def write(self, path: Path) -> None:
        """Spans as one JSON array per line: name, start, end, parent index."""
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


SUITE_NAMES = ("thm1", "cor1", "appx_a", "appx_b", "eq18", "ghz")
DECODER_SELF = (
    "build_ctoq", "naimark_extend", "delta_q", "error_report", "delta_cl",
    "xi_ef", "xi_bounds", "povm_from_decoder", "build_coherent_measurement",
    "noisy_ghz_state",
)

# (metric, unit, better) for every per-layer metric, in report order.
PER_LAYER = (
    [(f"haarhp.{f}.self_s", "s", "lower") for f in ("haar_unitary", "hp_channel", "pairwise_overlap_samples", "run_trial")]
    + [
        ("haarhp.hp_channel.alloc_peak_mib", "MiB", "lower"),
        ("haarhp.run_experiment.pool_efficiency", "ratio", "higher"),
    ]
    + [(f"ppgm.{f}.self_s", "s", "lower") for f in ("build_ppgm", "ppgm_error", "pairwise_bound", "support_bound")]
    + [(f"decoder.{f}.self_s", "s", "lower") for f in DECODER_SELF]
    # Inclusive time of the calls a trial blocks on; their self time leaves
    # out the public functions they call, which are spans of their own.
    + [
        (f"{f}.total_s", "s", "lower")
        for f in ("haarhp.run_trial", "ppgm.build_ppgm", "decoder.build_ctoq", "decoder.delta_q")
    ]
    + [
        ("decoder.build_ctoq.alloc_peak_mib", "MiB", "lower"),
        ("decoder.build_ctoq.kraus_count", "count", "lower"),
        ("qcore.channel.self_s", "s", "lower"),
        ("qcore.channel.calls", "count", "lower"),
        ("qcore.Povm.init_s", "s", "lower"),
        ("qcore.Povm.calls", "count", "lower"),
        ("qcore.apply_channel.self_s", "s", "lower"),
        ("qcore.collision_entropy.self_s", "s", "lower"),
        ("linop.Operator.init_s", "s", "lower"),
        ("linop.Operator.calls", "count", "lower"),
    ]
    + [
        (f"{span}.{what}", unit, "lower")
        for span in DIM_SPANS
        for what, unit in (("self_s", "s"), ("calls", "count"), ("max_dim", "dim"))
    ]
    + [
        (f"numpy.linalg.{k}.{what}", unit, "lower")
        for k in KERNELS
        for what, unit in (("calls", "count"), ("s", "s"), ("max_dim", "dim"))
    ]
    + [(f"verify.{s}.self_s", "s", "lower") for s in SUITE_NAMES]
    + [
        ("sampling.self_s", "s", "lower"),
        ("cli.self_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
)


def per_layer_metrics(
    tracer: Tracer, units: int, pool_efficiency: float, overhead_ratio: float
) -> dict[str, float]:
    """Every per-layer metric; times and call counts are per unit of work."""
    self_s, total_s, calls = tracer.totals()
    values: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        head, _, what = name.rpartition(".")
        if what == "self_s":
            if head == "sampling":
                total = sum(v for k, v in self_s.items() if k.startswith("sampling."))
            else:
                total = self_s.get(head, 0.0)
            values[name] = total / units
        elif what == "total_s":
            values[name] = total_s.get(head, 0.0) / units
        elif what == "init_s":
            values[name] = self_s.get(f"{head}.init", 0.0) / units
        elif what == "calls" and head.startswith("numpy."):
            values[name] = tracer.kernels[head][0] / units
        elif what == "calls":
            span = f"{head}.init" if head.endswith(("Operator", "Povm")) else head
            values[name] = calls.get(span, 0) / units
        elif what == "s":
            values[name] = tracer.kernels[head][1] / units
        elif what == "max_dim":
            values[name] = (
                tracer.kernels[head][2] if head.startswith("numpy.") else tracer.max_dim[head]
            )
        elif what == "alloc_peak_mib":
            values[name] = tracer.alloc_peak[head] / 2**20
        elif what == "kraus_count":
            counts = tracer.kraus_counts
            values[name] = sum(counts) / len(counts) if counts else 0.0
        elif what == "pool_efficiency":
            values[name] = pool_efficiency
        elif what == "overhead_ratio":
            values[name] = overhead_ratio
        else:
            raise KeyError(name)
    return values
