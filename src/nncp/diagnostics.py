"""
Degeneracy detection over fit traces, and the constrained-vs-unconstrained
contrast experiment.

The signature being detected: individual rank-1 summands growing without
bound while the fit error keeps improving and the sum stays put.  A finite
trace can never prove a best approximation fails to exist, so the detector
only ever reports the observed signature (DEGENERATE), certifies that every
iterate respected the coercivity cap that nonnegative fits must obey
(BOUNDED), or declines to call it (INCONCLUSIVE).
"""

import collections
import math
from collections.abc import Hashable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .kruskal import reconstruct
from .solvers import FitConfig, FitTrace, _fit_batch, coercivity_bound
from .tensor import _csv_text, _instance, _nonnegative, _real, _sequence, _write_text
from .tensor import add_scaled, norm

# The single-fit entry points stay importable from here: perfbench's sweep
# wraps these module attributes.
from .solvers import fit_cp_unconstrained, fit_nncp  # noqa: F401

_FAMILIES = ("nonneg", "unconstrained")


@dataclass(frozen=True)
class DegeneracyThresholds:
    """Experiment knobs: how much component blow-up counts as degenerate
    (relative to ||A||_F) and how much the residual must have dropped."""

    blowup_ratio: float = 10.0
    residual_factor: float = 2.0

    def __post_init__(self):
        for name in ("blowup_ratio", "residual_factor"):
            _real(getattr(self, name), name, above=0)


@dataclass(frozen=True)
class DegeneracyReport:
    verdict: str  # DEGENERATE | BOUNDED | INCONCLUSIVE
    evidence: tuple  # rows of (iter, residual_E, max_component_F, delta_l1)
    blowup_ratio: float
    residual_trend: float


def detect_degeneracy(trace, a_norms, thresholds=None):
    """Classify a fit trace (a FitTrace, read by its columns).

    DEGENERATE: the largest rank-1 summand ended above blowup_ratio times
    ||A||_F while the residual shrank by at least residual_factor.  BOUNDED:
    every row satisfied the coercivity cap delta_l1, max_component_F <=
    ||A||_E + residual_E, up to the slack of
    :func:`nncp.solvers.coercivity_bound` (so nothing blew up); a NaN in
    either column fails the cap.  Otherwise INCONCLUSIVE.  ``a_norms`` is
    (||A||_E, ||A||_F), two finite reals >= 0; ``thresholds`` is a
    DegeneracyThresholds or None (the defaults).
    """
    th = _instance(thresholds, "thresholds", DegeneracyThresholds, optional=True)
    th = th or DegeneracyThresholds()
    cols = _instance(trace, "trace", FitTrace).columns
    if not cols.iter:
        raise ValueError("trace is empty")
    norms = _sequence(a_norms, "a_norms")
    if len(norms) != 2:
        raise ValueError(f"a_norms must be the pair (||A||_E, ||A||_F), got {a_norms!r}")
    a_e, a_f = (_real(v, "a_norms", least=0) for v in norms)
    res, comp = cols.residual_E, cols.max_component_F
    evidence = tuple(zip(cols.iter, res, comp, cols.delta_l1))
    if comp[-1] == 0.0:
        blowup = 0.0  # every summand shrank to 0, whatever ||A||_F is
    elif a_f > 0:
        blowup = comp[-1] / a_f
    else:
        blowup = math.inf
    trend = res[-1] / res[0] if res[0] > 0 else 1.0
    if blowup > th.blowup_ratio and trend <= 1.0 / th.residual_factor:
        verdict = "DEGENERATE"
    else:
        capped = (np.maximum(cols.delta_l1, comp) <= coercivity_bound(a_e, np.asarray(res))).all()
        verdict = "BOUNDED" if capped else "INCONCLUSIVE"
    return DegeneracyReport(verdict, evidence, blowup, trend)


class ContrastRow(NamedTuple):  # one fit; every field but error is a CSV column
    seed: int
    family: str  # nonneg | unconstrained
    verdict: str
    final_residual_E: float
    final_residual_F: float
    blowup_ratio: float
    iters: int
    error: str = ""


SUMMARY_HEADER = ",".join(ContrastRow._fields[:-1])


@dataclass
class ContrastSummary:
    rows: list = field(default_factory=list)
    reports: dict = field(default_factory=dict)  # (seed, family) -> report

    def verdict_counts(self, family):
        return collections.Counter(r.verdict for r in self.rows if r.family == family)

    def to_csv(self):
        return _csv_text(SUMMARY_HEADER, (r[:-1] for r in self.rows))

    def write_csv(self, path):
        _write_text(path, self.to_csv())


def _contrast_row(a, a_norms, seed, family, result, thresholds):
    """Summary row and degeneracy report of one fit (a FitResult or the
    exception it raised); any error becomes an ERROR row."""
    error = result
    if not isinstance(result, Exception):
        try:
            report = detect_degeneracy(result.trace, a_norms, thresholds)
            diff = add_scaled(a, reconstruct(result.model), 1.0, -1.0)
            row = ContrastRow(seed, family, report.verdict, norm(diff, "E"), norm(diff, "F"),
                              report.blowup_ratio, report.evidence[-1][0])
            return row, report
        except Exception as exc:  # propagate per seed without killing the sweep
            error = exc
    return ContrastRow(seed, family, "ERROR", math.nan, math.nan, math.nan, 0, str(error)), None


def run_contrast_experiment(a, rank, seeds, max_iters=2000, thresholds=None):
    """Fit each seed with both families under identical budgets.

    Both families run the Frobenius loss for exactly ``max_iters`` iterations
    (tol = 0) and trace every iterate, so a BOUNDED verdict certifies every
    iterate of the fit.  Returns a ContrastSummary with one row per (seed,
    family), in seed order.  Requires a nonnegative target (the nonnegative
    family demands it); an invalid rank or budget raises ValueError from
    FitConfig, and ``thresholds`` other than None or a DegeneracyThresholds
    raises ValueError, both before any fit runs, as does a repeated seed.
    Both families fit every seed as one batch (:func:`nncp.solvers._fit_batch`),
    each fit exactly as it runs alone; a seed whose fit raises, an invalid seed
    included, gets an ERROR row and the others are unaffected.
    """
    if not _nonnegative(_instance(a, "the target").data):
        raise ValueError("contrast experiment requires a nonnegative tensor")
    _instance(thresholds, "thresholds", DegeneracyThresholds, optional=True)
    summary = ContrastSummary()
    a_norms = (norm(a, "E"), norm(a, "F"))
    cfg = FitConfig(rank=rank, max_iters=max_iters, tol=0.0)
    seeds = _sequence(seeds, "seeds")
    keys = [seed for seed in seeds if isinstance(seed, Hashable)]  # the others fail alone
    if len(set(keys)) < len(keys):  # a repeat would share its key in ``reports``
        raise ValueError("seeds must not repeat")
    runs = [(seed, family) for seed in seeds for family in _FAMILIES]
    try:
        fits = _fit_batch(a, cfg, [(seed, family == "nonneg") for seed, family in runs])
    except Exception as exc:  # a failure of the whole batch, e.g. a MemoryError
        fits = [exc] * len(runs)
    for (seed, family), fit in zip(runs, fits):
        row, report = _contrast_row(a, a_norms, seed, family, fit, thresholds)
        summary.rows.append(row)
        if report is not None:
            summary.reports[(seed, family)] = report
    return summary
