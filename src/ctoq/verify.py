"""Named randomized property suites behind the ``verify`` command.

Each suite draws seeded random instances, evaluates an inequality chain,
and records every slack (bound minus value; negative means violated) in
one :class:`SuiteResult`, which reports the worst.  The suite tokens are
part of the CLI contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .decoder import (
    coherent_state,
    ctoq_delta_q,
    delta_cl,
    delta_q,
    noisy_ghz_state,
    povm_from_decoder,
    error_report,
    two_term_bound,
    worst_basis_bound,
    xi_bounds,
    xi_ef,
)
from .linop import trace_distance
from .ppgm import build_ppgm
from .qcore import is_mub
from .sampling import (
    mub_pair,
    random_basis,
    random_block_channel,
    random_channel,
    random_isometry_channel,
    random_povm,
)

__all__ = ["SuiteResult", "SUITES", "run_suite"]

SLACK_TOL = 1e-9

_DIMS = (2, 3, 4)


@dataclass
class SuiteResult:
    """Outcome of one randomized suite, filled in as its checks run.

    ``check`` keeps the smallest slack and its label; a slack below
    ``-SLACK_TOL`` is a failure, noted for the first 20 of them.  ``done``
    sets the instance count and returns the result, with a worst slack of 0
    where no check ran.
    """

    name: str
    instances: int = 0
    failures: int = 0
    worst_slack: float = math.inf
    worst_label: str = ""
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def check(self, slack: float, label: str) -> None:
        if slack < self.worst_slack:
            self.worst_slack, self.worst_label = slack, label
        if slack < -SLACK_TOL:
            self.failures += 1
            if len(self.notes) < 20:
                self.notes.append(f"{label}: slack {slack:.3e}")

    def done(self, instances: int) -> SuiteResult:
        self.instances = instances
        if self.worst_slack == math.inf:
            self.worst_slack = 0.0
        return self


def _instance(rng: np.random.Generator, i: int):
    """Channel/POVM/basis-pair instance; cycles dimensions 2, 3, 4."""
    d = _DIMS[i % len(_DIMS)]
    dc = d + (i // len(_DIMS)) % 2
    n_kraus = 1 + int(rng.integers(4))
    chan = random_channel(rng, d, dc, n_kraus)
    pe = random_povm(rng, dc, d)
    pf = random_povm(rng, dc, d)
    eb = random_basis(rng, d)
    fb = random_basis(rng, d)
    return d, chan, pe, pf, eb, fb


def suite_decoder_bound(instances: int, seed: int) -> SuiteResult:
    """Quantum error of the built decoder against the three-term bound."""
    rng = np.random.default_rng(seed)
    rec = SuiteResult("thm1")
    for i in range(instances):
        d, chan, pe, pf, eb, fb = _instance(rng, i)
        rep = error_report(chan, pe, pf, eb, fb)
        rec.check(rep.delta_q_bound - rep.delta_q, f"i={i} d={d}")
    return rec.done(instances)


def suite_mub_bound(instances: int, seed: int) -> SuiteResult:
    """Two-term and worst-basis bounds for mutually unbiased pairs."""
    rng = np.random.default_rng(seed)
    rec = SuiteResult("cor1")
    for i in range(instances):
        d, chan, pe, pf, _, _ = _instance(rng, i)
        eb, fb = mub_pair(d)
        assert is_mub(eb, fb)
        dq = ctoq_delta_q(chan, pe, pf, eb, fb)
        de = delta_cl(pe, chan, eb)
        df = delta_cl(pf, chan, fb)
        rec.check(two_term_bound(de, df) - dq, f"i={i} d={d} two-term")
        rec.check(worst_basis_bound(max(de, df)) - dq, f"i={i} d={d} worst-basis")
    return rec.done(instances)


def _unflagged_bundles(rng: np.random.Generator, instances: int):
    """``(i, d, bundle)``: pPGMs of random channels and bases at d = 2, 3, 4 in
    turn, the ill-conditioned skipped, at most 20 draws per instance."""
    done = attempts = 0
    while done < instances and attempts < instances * 20:
        attempts += 1
        d = _DIMS[done % len(_DIMS)]
        chan = random_channel(rng, d, d + attempts % 3, 1 + int(rng.integers(4)))
        (bundle,) = build_ppgm(chan, [random_basis(rng, d)])
        if not bundle.ill_conditioned:
            done += 1
            yield done, d, bundle


def suite_pairwise_forms(instances: int, seed: int) -> SuiteResult:
    """Pairwise-overlap bound on the measurement error, both forms.

    The forms are compared through their numerators, the forms times
    ``lambda_min``: one ulp of a form can exceed any fixed tolerance."""
    rec = SuiteResult("prop2")
    done = 0
    for done, d, bundle in _unflagged_bundles(np.random.default_rng(seed), instances):
        rec.check(bundle.pairwise_sum - bundle.delta_cl, f"i={done} d={d} bound")
        gap = bundle.lambda_min * abs(bundle.pairwise_sum - bundle.pairwise_entropy)
        rec.check(1e-10 - gap, f"i={done} d={d} identity")
    return rec.done(done)


def suite_defect_bounds(instances: int, seed: int) -> SuiteResult:
    """Complementarity defect below both of its computable bounds; zero on
    mutually unbiased pairs."""
    rng = np.random.default_rng(seed)
    rec = SuiteResult("appx_a")
    for i in range(instances):
        d, chan, _, pf, eb, fb = _instance(rng, i)
        xi = xi_ef(chan, pf, eb, fb)
        b_min, b_avg = xi_bounds(eb, fb, delta_cl(pf, chan, fb))
        rec.check(b_min - xi, f"i={i} d={d} min-bound")
        rec.check(b_avg - xi, f"i={i} d={d} avg-bound")
        meb, mfb = mub_pair(d)
        xi0 = xi_ef(chan, pf, meb, mfb)
        rec.check(1e-12 - abs(xi0), f"i={i} d={d} mub-zero")
    return rec.done(instances)


def suite_support_chain(instances: int, seed: int) -> SuiteResult:
    """Error <= support-overlap bound <= pairwise bound, plus the looser
    factor-4 variant."""
    rec = SuiteResult("appx_b")
    done = 0
    for done, d, bundle in _unflagged_bundles(np.random.default_rng(seed), instances):
        err, mid, top = bundle.delta_cl, bundle.support_overlap, bundle.pairwise_sum
        rec.check(mid - err, f"i={done} d={d} error<=support")
        rec.check(top - mid, f"i={done} d={d} support<=pairwise")
        rec.check(4 * mid - err, f"i={done} d={d} factor-4")
    return rec.done(done)


def suite_sandwich(instances: int, seed: int) -> SuiteResult:
    """Sandwich via decoder-derived POVMs: the rebuilt decoder is at worst a
    square root away from the reference decoder's error."""
    rng = np.random.default_rng(seed)
    rec = SuiteResult("eq18")
    for i in range(instances):
        d = _DIMS[i % len(_DIMS)]
        dc = d + i % 2
        chan = random_channel(rng, d, dc, 1 + int(rng.integers(3)))
        ref = random_channel(rng, dc, d, 1 + int(rng.integers(3)))
        dq_ref = delta_q(ref, chan)
        eb, fb = mub_pair(d)
        pe = povm_from_decoder(ref, eb)
        pf = povm_from_decoder(ref, fb)
        rec.check(
            dq_ref + 1e-10 - delta_cl(pe, chan, eb), f"i={i} d={d} derived-e"
        )
        rec.check(
            dq_ref + 1e-10 - delta_cl(pf, chan, fb), f"i={i} d={d} derived-f"
        )
        dq = ctoq_delta_q(chan, pe, pf, eb, fb)
        bound = worst_basis_bound(dq_ref) + 1e-6
        rec.check(bound - dq, f"i={i} d={d} sandwich")
    return rec.done(instances)


def suite_coherent_output(instances: int, seed: int) -> SuiteResult:
    """Coherent-measurement output on half a maximally entangled state
    matches the three-party reference state when the basis label survives
    the channel perfectly.

    Alternates label-readout channels (block outputs, no coherence) with
    random isometries (full coherence between label sectors); the latter
    exercise the reference state's off-diagonal blocks and conjugations.
    """
    rng = np.random.default_rng(seed)
    rec = SuiteResult("ghz")
    for i in range(instances):
        d = _DIMS[i % len(_DIMS)]
        eb = random_basis(rng, d)
        if i % 2:
            chan, povm_e = random_isometry_channel(rng, eb, d + 1 + i % 3)
        else:
            chan, povm_e = random_block_channel(rng, eb, 1 + i % 2)
        assert delta_cl(povm_e, chan, eb) < 1e-12
        out = coherent_state(chan, povm_e, eb)  # both on (C, A, R)
        dist = trace_distance(out, noisy_ghz_state(chan, eb))
        rec.check(1e-9 - dist, f"i={i} d={d} distance={dist:.2e}")
    return rec.done(instances)


SUITES = {
    "thm1": suite_decoder_bound,
    "cor1": suite_mub_bound,
    "prop2": suite_pairwise_forms,
    "appx_a": suite_defect_bounds,
    "appx_b": suite_support_chain,
    "eq18": suite_sandwich,
    "ghz": suite_coherent_output,
}


def run_suite(name: str, instances: int, seed: int) -> SuiteResult:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](instances, seed)
