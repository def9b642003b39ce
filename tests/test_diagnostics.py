import collections
import math

import numpy as np
import pytest

from nncp import diagnostics, solvers
from nncp.diagnostics import (
    SUMMARY_HEADER,
    ContrastRow,
    DegeneracyThresholds,
    detect_degeneracy,
    run_contrast_experiment,
)
from nncp.kruskal import random_model, reconstruct
from nncp.pathologies import bclr_limit, w_sequence
from nncp.solvers import FitTrace, coercivity_bound
from nncp.tensor import DenseTensor, norm


def synthetic_trace(rows):
    trace = FitTrace()
    trace.append_block(*zip(*rows))
    return trace


A_NORMS = (6.0, math.sqrt(6.0))  # E and F norms of the 4x4x4 limit tensor


def test_detect_degenerate_synthetic():
    # components x400 the tensor norm, residual cut 10x
    trace = synthetic_trace(
        [(0, 100.0, 3.0, 0.5, 10.0), (1, 50.0, 200.0, 500.0, 5.0), (2, 1.0, 400.0, 1000.0, 1.0)]
    )
    report = detect_degeneracy(trace, A_NORMS)
    assert report.verdict == "DEGENERATE"
    assert report.blowup_ratio == pytest.approx(1000.0 / A_NORMS[1])
    assert report.residual_trend == pytest.approx(0.1)
    assert len(report.evidence) == 3


def test_detect_bounded_synthetic():
    # delta_l1 and components always under ||A||_E + residual
    trace = synthetic_trace(
        [(0, 100.0, 10.0, 2.0, 10.0), (1, 25.0, 8.0, 2.0, 5.0), (2, 4.0, 7.0, 2.0, 2.0)]
    )
    report = detect_degeneracy(trace, A_NORMS)
    assert report.verdict == "BOUNDED"


def test_detect_inconclusive_synthetic():
    # constant residual, constant oversized components: neither signature
    rows = [(i, 25.0, 1000.0, 1000.0, 5.0) for i in range(3)]
    report = detect_degeneracy(synthetic_trace(rows), A_NORMS)
    assert report.verdict == "INCONCLUSIVE"
    assert report.residual_trend == 1.0


def test_detect_bounded_recheck_rejects_cap_violation():
    # blow-up without residual improvement is NOT bounded: the verdict
    # re-checks the inequality instead of trusting the solver
    rows = [(0, 25.0, 5.0, 2.0, 5.0), (1, 25.0, 50.0, 40.0, 5.0)]
    report = detect_degeneracy(synthetic_trace(rows), A_NORMS)
    assert report.verdict == "INCONCLUSIVE"


def test_detect_bounded_up_to_the_shared_coercivity_bound():
    # A row exactly at solvers.coercivity_bound is BOUNDED; one float above
    # it, or a NaN in either column, is not.  The residual does not shrink,
    # so nothing reads DEGENERATE.
    a_e, res_e = A_NORMS[0], 3.0
    bound = coercivity_bound(a_e, res_e)
    assert bound == a_e + res_e + 1e-9 * (1.0 + a_e + res_e)
    for delta_l1, comp_f in ((bound, 1.0), (1.0, bound)):
        trace = synthetic_trace([(0, 9.0, delta_l1, comp_f, res_e)])
        assert detect_degeneracy(trace, A_NORMS).verdict == "BOUNDED"
    above = float(np.nextafter(bound, math.inf))
    for delta_l1, comp_f in ((above, 1.0), (1.0, above), (math.nan, 1.0), (1.0, math.nan)):
        trace = synthetic_trace([(0, 9.0, delta_l1, comp_f, res_e)])
        assert detect_degeneracy(trace, A_NORMS).verdict == "INCONCLUSIVE"


@pytest.mark.parametrize("a_norms", [(1.0,), (1.0, 2.0, 3.0), (6.0, -2.0)])
def test_detect_rejects_a_norms_that_are_not_two_finite_reals_at_least_0(a_norms):
    trace = synthetic_trace([(0, 9.0, 3.0, 1.0, 3.0)])
    with pytest.raises(ValueError, match="^a_norms must be"):
        detect_degeneracy(trace, a_norms)


def test_detect_with_zero_norms_reads_a_nonzero_component_as_infinite_blowup():
    # ||A||_F = 0 is valid; a summand left above 0 is an infinite blow-up.
    trace = synthetic_trace([(0, 9.0, 3.0, 1.0, 3.0), (1, 1.0, 3.0, 1.0, 1.0)])
    report = detect_degeneracy(trace, (0, 0))
    assert report.blowup_ratio == math.inf
    assert report.verdict == "DEGENERATE"
    assert detect_degeneracy(trace, np.array([0.0, 0.0])) == report


def test_detect_empty_trace_raises():
    with pytest.raises(ValueError):
        detect_degeneracy(FitTrace(), A_NORMS)


def test_detect_is_pure():
    trace = synthetic_trace([(0, 9.0, 3.0, 1.0, 3.0), (1, 4.0, 3.0, 1.0, 2.0)])
    assert detect_degeneracy(trace, A_NORMS) == detect_degeneracy(trace, A_NORMS)


def test_detect_custom_thresholds():
    trace = synthetic_trace([(0, 100.0, 3.0, 0.5, 10.0), (1, 1.0, 20.0, 9.0, 1.0)])
    default = detect_degeneracy(trace, A_NORMS)
    loose = detect_degeneracy(trace, A_NORMS, DegeneracyThresholds(blowup_ratio=3.0))
    assert default.verdict != "DEGENERATE"
    assert loose.verdict == "DEGENERATE"


def test_contrast_on_exact_rank2():
    a = reconstruct(random_model((3, 3, 3), 2, seed=55, nonneg=True, e_norm=4.0))
    summary = run_contrast_experiment(a, rank=2, seeds=range(5), max_iters=2000)
    assert len(summary.rows) == 10
    assert summary.verdict_counts("nonneg") == {"BOUNDED": 5}
    assert summary.verdict_counts("unconstrained") == {"BOUNDED": 5}
    # near-zero residual on the fixed budget (multiplicative updates have a
    # slow tail, so "near" is 1% of the mass, not machine precision)
    for row in summary.rows:
        assert row.final_residual_E <= 1e-2 * norm(a, "E")


def test_contrast_on_w_limit():
    _, a, _, _ = w_sequence([1])
    summary = run_contrast_experiment(
        a,
        rank=2,
        seeds=range(10),
        max_iters=2000,
        thresholds=DegeneracyThresholds(blowup_ratio=2.5),
    )
    assert summary.verdict_counts("nonneg") == {"BOUNDED": 10}
    assert summary.verdict_counts("unconstrained") == {"DEGENERATE": 10}


def test_contrast_rejects_negative_input():
    with pytest.raises(ValueError):
        run_contrast_experiment(
            DenseTensor([2], [1.0, -1.0]), rank=1, seeds=[0]
        )


def test_contrast_zero_tensor_is_not_degenerate():
    # Every component of the nonnegative fit shrinks to 0; ||A||_F = 0 must
    # not turn that into an infinite blow-up.
    summary = run_contrast_experiment(
        DenseTensor.zeros((3, 3, 3)), rank=2, seeds=[0], max_iters=50
    )
    (row,) = [r for r in summary.rows if r.family == "nonneg"]
    assert row.verdict != "DEGENERATE"
    assert row.blowup_ratio == 0.0


def test_contrast_csv_determinism():
    a = reconstruct(random_model((3, 3, 3), 2, seed=55, nonneg=True, e_norm=4.0))
    s1 = run_contrast_experiment(a, rank=2, seeds=range(4), max_iters=100)
    s2 = run_contrast_experiment(a, rank=2, seeds=range(4), max_iters=100)
    assert s1.to_csv() == s2.to_csv()
    lines = s1.to_csv().strip().split("\n")
    assert lines[0] == SUMMARY_HEADER
    assert len(lines) == 9  # header + 2 rows per seed
    seeds_in_order = [int(line.split(",")[0]) for line in lines[1:]]
    assert seeds_in_order == [0, 0, 1, 1, 2, 2, 3, 3]


def test_contrast_per_seed_errors_do_not_abort(monkeypatch):
    a = reconstruct(random_model((3, 3, 3), 2, seed=55, nonneg=True, e_norm=4.0))
    real = solvers._init_nonneg

    def flaky(tensor, cfg):
        if cfg.seed == 1:
            raise RuntimeError("boom")
        return real(tensor, cfg)

    monkeypatch.setattr(solvers, "_init_nonneg", flaky)
    summary = run_contrast_experiment(a, rank=2, seeds=range(3), max_iters=50)
    assert len(summary.rows) == 6  # no silent drops
    bad = [r for r in summary.rows if r.verdict == "ERROR"]
    assert len(bad) == 1
    assert bad[0].seed == 1 and bad[0].family == "nonneg"
    assert "boom" in bad[0].error
    ok = [r for r in summary.rows if r.seed == 1 and r.family == "unconstrained"]
    assert ok[0].verdict != "ERROR"


def test_contrast_post_fit_failure_is_an_error_row_of_its_fit_alone(monkeypatch):
    # The reconstruction of the second fit (seed 0, unconstrained) raises
    # after the fit; that row alone is ERROR, with the reason.
    a = reconstruct(random_model((3, 3, 3), 2, seed=55, nonneg=True, e_norm=4.0))
    clean = run_contrast_experiment(a, rank=2, seeds=range(2), max_iters=20)
    calls = []

    def flaky(model):
        calls.append(None)
        if len(calls) == 2:
            raise RuntimeError("no reconstruction")
        return reconstruct(model)

    monkeypatch.setattr(diagnostics, "reconstruct", flaky)
    summary = run_contrast_experiment(a, rank=2, seeds=range(2), max_iters=20)
    row = summary.rows[1]
    assert (row.seed, row.family, row.verdict, row.iters, row.error) == (
        0, "unconstrained", "ERROR", 0, "no reconstruction"
    )
    assert all(map(math.isnan, row[3:6]))
    assert summary.rows[:1] + summary.rows[2:] == clean.rows[:1] + clean.rows[2:]
    assert set(summary.reports) == set(clean.reports) - {(0, "unconstrained")}


def test_contrast_batch_failure_makes_every_row_an_error(monkeypatch):
    def out_of_memory(*args):
        raise MemoryError("batch too large")

    monkeypatch.setattr(diagnostics, "_fit_batch", out_of_memory)
    summary = run_contrast_experiment(bclr_limit(4), rank=5, seeds=range(3), max_iters=10)
    assert [(r.seed, r.family) for r in summary.rows] == [
        (s, f) for s in range(3) for f in ("nonneg", "unconstrained")
    ]
    assert {(r.verdict, r.iters, r.error) for r in summary.rows} == {
        ("ERROR", 0, "batch too large")
    }
    assert summary.reports == {}


def test_contrast_without_seeds_is_empty():
    a = reconstruct(random_model((3, 3, 3), 2, seed=55, nonneg=True, e_norm=4.0))
    summary = run_contrast_experiment(a, rank=2, seeds=[])
    assert summary.rows == [] and summary.reports == {}
    assert summary.to_csv() == SUMMARY_HEADER + "\n"
    # A numpy scalar prints as a plain number; the error is not a column.
    summary.rows.append(ContrastRow(3, "nonneg", "BOUNDED", np.float64(0.5), 0.25, 1.0, 9, "x"))
    assert summary.to_csv() == SUMMARY_HEADER + "\n3,nonneg,BOUNDED,0.5,0.25,1.0,9\n"


def test_contrast_nonfinite_seed_is_the_only_error(monkeypatch):
    # NaN enters the second seed's nonneg Khatri-Rao product of mode 1 at
    # iteration 4 (the 11th: one per mode update but mode 0's, which reuses
    # the one built for the reconstruction, plus that one at iteration 0);
    # that fit ends with the message it gets alone, and every other row is
    # unchanged.
    a = reconstruct(random_model((3, 3, 3), 2, seed=55, nonneg=True, e_norm=4.0))
    clean = run_contrast_experiment(a, rank=2, seeds=range(3), max_iters=50)
    real = solvers._khatri_rao
    calls = []

    def poisoned(factors, n, rows):
        out = real(factors, n, rows)
        calls.append(n)
        if len(calls) == 11:  # stack entries 0-2 are the nonneg fits
            out[1] = np.nan
        return out

    monkeypatch.setattr(solvers, "_khatri_rao", poisoned)
    summary = run_contrast_experiment(a, rank=2, seeds=range(3), max_iters=50)
    bad = [r for r in summary.rows if r.verdict == "ERROR"]
    assert [(r.seed, r.family, r.error) for r in bad] == [
        (1, "nonneg", "trace objective must be finite")
    ]
    assert [r for r in summary.rows if r not in bad] == [
        r for r in clean.rows if (r.seed, r.family) != (1, "nonneg")
    ]


@pytest.mark.parametrize("max_iters", [1, 6])
def test_contrast_fits_both_families_with_one_batch_of_kernel_calls(monkeypatch, max_iters):
    # One batch for both families on an order-3 target: a Khatri-Rao product
    # for the reconstruction at iteration 0, then per sweep one each for
    # modes 1 and 2 and one for the reconstruction (which mode 0 reuses), and
    # one reconstruction per iteration.  Two batches would make twice that.
    calls = collections.Counter()
    for name in ("_khatri_rao", "_reconstruct"):
        real = getattr(solvers, name)

        def counting(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(solvers, name, counting)
    a = reconstruct(random_model((3, 3, 3), 2, seed=55, nonneg=True, e_norm=4.0))
    summary = run_contrast_experiment(a, rank=2, seeds=range(3), max_iters=max_iters)
    assert len(summary.rows) == 6 and all(r.verdict != "ERROR" for r in summary.rows)
    assert calls == {"_khatri_rao": 1 + 3 * max_iters, "_reconstruct": max_iters + 1}


@pytest.mark.parametrize("seeds", [[0, 0], [1, 2, 1], [3, np.int64(3)], [3, np.array(3)]])
def test_contrast_rejects_repeated_seeds_before_fitting(monkeypatch, seeds):
    # reports holds one report per (seed, family): a repeat would lose one.
    def no_fit(*args):
        raise AssertionError("a fit ran")

    monkeypatch.setattr(solvers, "_init_nonneg", no_fit)
    monkeypatch.setattr(solvers, "_init_signed", no_fit)
    with pytest.raises(ValueError, match="^seeds must not repeat"):
        run_contrast_experiment(bclr_limit(4), rank=2, seeds=seeds, max_iters=5)


def test_contrast_keys_a_seed_by_its_integer_value():
    # A 0-d integer array is the seed 3 to FitConfig, and to rows and reports.
    summary = run_contrast_experiment(bclr_limit(4), rank=2, seeds=[np.array(3)], max_iters=5)
    assert [(type(r.seed), r.seed, r.verdict) for r in summary.rows] == [
        (int, 3, "BOUNDED"), (int, 3, "BOUNDED")]
    assert summary.reports[(3, "nonneg")].verdict == "BOUNDED"


@pytest.mark.parametrize("bad", [3, 0, {"blowup_ratio": 5.0}, (10.0, 2.0)])
def test_contrast_rejects_bad_thresholds_before_fitting(monkeypatch, bad):
    def no_fit(*args):
        raise AssertionError("a fit ran")

    monkeypatch.setattr(solvers, "_init_nonneg", no_fit)
    monkeypatch.setattr(solvers, "_init_signed", no_fit)
    with pytest.raises(ValueError, match="thresholds must be a DegeneracyThresholds or None"):
        run_contrast_experiment(bclr_limit(4), rank=5, seeds=[0], max_iters=10, thresholds=bad)
