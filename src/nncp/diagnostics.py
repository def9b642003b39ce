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

import math
import statistics
from dataclasses import dataclass, field

import numpy as np

from .divergence import DivergenceKind, distance
from .kruskal import reconstruct
from .solvers import FitConfig, Loss, fit_cp_unconstrained, fit_nncp
from .tensor import norm


@dataclass(frozen=True)
class DegeneracyThresholds:
    """Experiment knobs: how much component blow-up counts as degenerate
    (relative to ||A||_F) and how much the residual must have dropped."""

    blowup_ratio: float = 10.0
    residual_factor: float = 2.0
    coercivity_tol: float = 1e-9


@dataclass(frozen=True)
class DegeneracyReport:
    verdict: str  # DEGENERATE | BOUNDED | INCONCLUSIVE
    evidence: tuple  # rows of (iter, residual_E, max_component_F, delta_l1)
    blowup_ratio: float
    residual_trend: float


def detect_degeneracy(trace, a_norms, thresholds=None):
    """Classify a fit trace.

    DEGENERATE: the largest rank-1 summand ended above blowup_ratio times
    ||A||_F while the residual shrank by at least residual_factor.  BOUNDED:
    every row satisfied the coercivity cap delta_l1, max_component_F <=
    ||A||_E + residual_E (so nothing blew up).  Otherwise INCONCLUSIVE.
    """
    rows = list(trace)
    if not rows:
        raise ValueError("trace is empty")
    th = thresholds or DegeneracyThresholds()
    a_e, a_f = float(a_norms[0]), float(a_norms[1])
    evidence = tuple(
        (r.iter, r.residual_E, r.max_component_F, r.delta_l1) for r in rows
    )
    first, last = rows[0], rows[-1]
    if last.max_component_F == 0.0:
        blowup = 0.0  # every summand shrank to 0, whatever ||A||_F is
    elif a_f > 0:
        blowup = last.max_component_F / a_f
    else:
        blowup = math.inf
    trend = (
        last.residual_E / first.residual_E if first.residual_E > 0 else 1.0
    )
    if blowup > th.blowup_ratio and trend <= 1.0 / th.residual_factor:
        verdict = "DEGENERATE"
    else:
        capped = all(
            max(r.delta_l1, r.max_component_F)
            <= a_e + r.residual_E + th.coercivity_tol * (1.0 + a_e + r.residual_E)
            for r in rows
        )
        verdict = "BOUNDED" if capped else "INCONCLUSIVE"
    return DegeneracyReport(verdict, evidence, blowup, trend)


@dataclass(frozen=True)
class ContrastRow:
    seed: int
    family: str  # nonneg | unconstrained
    verdict: str
    final_residual_E: float
    final_residual_F: float
    blowup_ratio: float
    iters: int
    error: str = ""


SUMMARY_HEADER = "seed,family,verdict,final_residual_E,final_residual_F,blowup_ratio,iters"


@dataclass
class ContrastSummary:
    rows: list = field(default_factory=list)
    reports: dict = field(default_factory=dict)  # (seed, family) -> report

    def verdict_counts(self, family):
        counts = {}
        for row in self.rows:
            if row.family == family:
                counts[row.verdict] = counts.get(row.verdict, 0) + 1
        return counts

    def residual_stats(self, family):
        vals = [
            r.final_residual_E
            for r in self.rows
            if r.family == family and not r.error
        ]
        if not vals:
            return None
        return min(vals), statistics.median(vals), max(vals)

    def to_csv(self):
        lines = [SUMMARY_HEADER]
        for r in self.rows:
            lines.append(
                f"{r.seed},{r.family},{r.verdict},{r.final_residual_E!r},"
                f"{r.final_residual_F!r},{r.blowup_ratio!r},{r.iters}"
            )
        return "\n".join(lines) + "\n"

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_csv())


def _one_seed(a, rank, seed, max_iters, tol, trace_every, loss, thresholds):
    a_norms = (norm(a, "E"), norm(a, "F"))
    out = []
    for family in ("nonneg", "unconstrained"):
        cfg = FitConfig(
            rank=rank,
            loss=loss if family == "nonneg" else Loss.FROBENIUS,
            nonneg=family == "nonneg",
            max_iters=max_iters,
            tol=tol,
            seed=seed,
            trace_every=trace_every,
        )
        fit = fit_nncp if family == "nonneg" else fit_cp_unconstrained
        try:
            result = fit(a, cfg)
            report = detect_degeneracy(result.trace, a_norms, thresholds)
            model_recon = reconstruct(result.model)
            row = ContrastRow(
                seed=seed,
                family=family,
                verdict=report.verdict,
                final_residual_E=distance(a, model_recon, DivergenceKind.E_NORM),
                final_residual_F=distance(a, model_recon, DivergenceKind.F_NORM),
                blowup_ratio=report.blowup_ratio,
                iters=result.trace.rows[-1].iter,
            )
        except Exception as exc:  # propagate per seed without killing the sweep
            report = None
            row = ContrastRow(
                seed=seed,
                family=family,
                verdict="ERROR",
                final_residual_E=math.nan,
                final_residual_F=math.nan,
                blowup_ratio=math.nan,
                iters=0,
                error=str(exc),
            )
        out.append((row, report))
    return out


def run_contrast_experiment(
    a,
    rank,
    seeds,
    max_iters=2000,
    tol=0.0,
    trace_every=1,
    loss=Loss.FROBENIUS,
    thresholds=None,
    workers=1,
):
    """Fit each seed with both families under identical budgets.

    Returns a ContrastSummary with one row per (seed, family), in seed order.
    Requires a nonnegative target (the nonnegative family demands it).
    ``workers`` is accepted for compatibility; its value does not change the
    results.
    """
    if np.any(a.data < 0):
        raise ValueError("contrast experiment requires a nonnegative tensor")
    summary = ContrastSummary()
    for seed in seeds:
        pairs = _one_seed(
            a, rank, int(seed), max_iters, tol, trace_every, loss, thresholds
        )
        for row, report in pairs:
            summary.rows.append(row)
            if report is not None:
                summary.reports[(row.seed, row.family)] = report
    return summary
