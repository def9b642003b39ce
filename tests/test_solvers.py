import collections
import dataclasses
import functools
import hashlib
import itertools
import math
import re
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nncp import solvers
from nncp.divergence import DivergenceKind, distance
from nncp.kruskal import KruskalModel, random_model, reconstruct, to_naive_bayes
from nncp.pathologies import bclr_limit, kl_counterexample, w_sequence
from nncp.solvers import (
    KL_SOLVER_FLOOR,
    TRACE_HEADER,
    FitConfig,
    FitTrace,
    Loss,
    TraceRow,
    fit_cp_unconstrained,
    fit_nncp,
    objective,
)
from nncp.tensor import DenseTensor, norm
from oracles import brute_kl, em_naive_bayes, mass_drift, objective_rises


def rank1_target(seed, shape=(4, 5, 3), e_norm=5.0):
    return reconstruct(random_model(shape, 1, seed=seed, nonneg=True, e_norm=e_norm))


# --- FitConfig / FitTrace plumbing -------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        FitConfig(rank=1, loss=Loss.KL, reg_rho=0.5)
    with pytest.raises(ValueError, match="nonneg"):
        FitConfig(rank=1, loss=Loss.KL, nonneg=False)
    FitConfig(rank=1, tol=0.0)  # tol = 0 turns the convergence stop off
    FitConfig(rank=np.int64(2), max_iters=np.int32(3), trace_every=np.uint8(1), seed=np.int64(4))
    FitConfig(rank=1, nonneg=np.True_)


def test_trace_invariants():
    trace = FitTrace()
    trace.append_block([0], [5.0], [1.0], [1.0], [1.0])
    with pytest.raises(ValueError):
        trace.append_block([0], [4.0], [1.0], [1.0], [1.0])
    with pytest.raises(ValueError):
        trace.append_block([1], [math.inf], [1.0], [1.0], [1.0])
    with pytest.raises(ValueError, match="trace columns must have equal lengths"):
        trace.append_block([1, 2], [4.0, 3.0], [1.0, 1.0], [1.0], [1.0, 1.0])
    assert len(trace) == 1
    # numpy scalars print as plain numbers, as Python floats do
    trace.append_block([np.int64(1)], [np.float64(4.0)], *np.ones((3, 1)))
    csv = trace.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == TRACE_HEADER
    assert lines[1:] == ["0,5.0,1.0,1.0,1.0", "1,4.0,1.0,1.0,1.0"]
    # rows, read by the benchmark harness alone, is the columns row by row.
    assert trace.rows == [TraceRow(0, 5.0, 1.0, 1.0, 1.0), TraceRow(1, 4.0, 1.0, 1.0, 1.0)]


# --- objective ----------------------------------------------------------------


def test_objective_zero_on_exact_model():
    m = random_model((3, 4, 3), 2, seed=5, nonneg=True, e_norm=2.0)
    a = reconstruct(m)
    assert objective(a, m, Loss.FROBENIUS) <= 1e-28
    assert objective(a, m, Loss.KL) <= 1e-13


def test_objective_unit_l2_columns_against_zero_tensor():
    col = np.array([[1.0], [0.0]])
    m = KruskalModel((2, 2, 2), [1.0], [col, col, col])
    zero = DenseTensor.zeros([2, 2, 2])
    assert objective(zero, m, Loss.FROBENIUS) == pytest.approx(1.0, abs=1e-15)


def test_objective_regularizer_worked_example():
    col = np.array([[1.0], [0.0]])
    m = KruskalModel((2, 2, 2), [1.0], [col, col, col])
    a = reconstruct(m)
    assert objective(a, m, Loss.FROBENIUS, reg_rho=1.0) == pytest.approx(3.0, abs=1e-15)


def test_objective_gauge_invariance_without_reg():
    m = random_model((3, 2, 4), 3, seed=11, nonneg=False)
    a = reconstruct(random_model((3, 2, 4), 2, seed=12, nonneg=False))
    factors = [f.copy() for f in m.factors]
    factors[0][:, 1] *= 2.0
    factors[1][:, 1] /= 2.0
    rescaled = KruskalModel(m.shape, m.delta, factors)
    v0 = objective(a, m, Loss.FROBENIUS)
    v1 = objective(a, rescaled, Loss.FROBENIUS)
    assert abs(v0 - v1) <= 1e-12 * (1 + abs(v0))
    # the rho > 0 objective deliberately breaks this gauge
    r0 = objective(a, m, Loss.FROBENIUS, reg_rho=1.0)
    r1 = objective(a, rescaled, Loss.FROBENIUS, reg_rho=1.0)
    assert abs(r0 - r1) > 1e-6


def test_objective_kl_rejects_signed_model():
    m = random_model((2, 2), 2, seed=1, nonneg=False)
    a = reconstruct(random_model((2, 2), 1, seed=2, nonneg=True, e_norm=1.0))
    with pytest.raises(ValueError):
        objective(a, m, Loss.KL)
    nonneg = random_model((2, 2), 1, seed=2, nonneg=True)
    signed_a = DenseTensor.from_array(-a.as_array())
    with pytest.raises(ValueError, match="KL objective requires a nonnegative tensor"):
        objective(signed_a, nonneg, Loss.KL)
    with pytest.raises(ValueError, match="^loss must be a Loss, got str$"):
        objective(a, nonneg, "kl")


def test_objective_shape_mismatch():
    m = random_model((2, 2), 1, seed=1, nonneg=True)
    with pytest.raises(ValueError):
        objective(DenseTensor.zeros([3, 3]), m, Loss.FROBENIUS)


@pytest.mark.parametrize(
    "loss, reg_rho",
    [
        (Loss.FROBENIUS, math.nan),
        (Loss.FROBENIUS, math.inf),
        (Loss.KL, 0.5),
        (Loss.FROBENIUS, -1.0),
    ],
)
def test_objective_rejects_the_reg_rho_fitconfig_rejects(loss, reg_rho):
    m = random_model((3, 2, 4), 2, seed=4, nonneg=True, e_norm=1.0)
    a = reconstruct(m)
    with pytest.raises(ValueError) as rejected:
        FitConfig(rank=2, loss=loss, reg_rho=reg_rho)
    with pytest.raises(ValueError, match=re.escape(str(rejected.value))):
        objective(a, m, loss, reg_rho=reg_rho)


_OVERFLOWING = [(1e155, False)] + [(s, f) for s in (1e160, 1e200, 1e300) for f in (True, False)]


@pytest.mark.parametrize("scale, nonneg", _OVERFLOWING)
def test_a_frobenius_loss_beyond_the_double_range_ends_the_fit_without_a_warning(scale, nonneg):
    # Warnings are errors in this suite: a numpy overflow warning would
    # replace the ValueError (and the objective's inf) with a RuntimeWarning.
    m = random_model((3, 4, 5), 2, seed=1, e_norm=1)
    a = DenseTensor.from_array(reconstruct(m).as_array() * scale)
    fit = fit_nncp if nonneg else fit_cp_unconstrained
    with pytest.raises(ValueError, match="^trace objective must be finite$"):
        fit(a, FitConfig(rank=2, nonneg=nonneg))
    assert objective(a, m, Loss.FROBENIUS) == math.inf


@pytest.mark.parametrize("loss", list(Loss))
def test_a_target_whose_e_norm_is_beyond_the_double_range_fails_every_mu_start(loss):
    # ||A||_E = 6e308 is inf: the start, which scales to it, fails by naming
    # the target (not random_model's e_norm), with no warning, in every entry.
    a = DenseTensor.from_array(np.full((3, 4, 5), 1e307))
    message = "fit_nncp requires a target whose E-norm is within the double range"
    with pytest.raises(ValueError, match=f"^{message}$"):
        fit_nncp(a, FitConfig(rank=2, loss=loss))
    results = solvers.fit_seeds(a, FitConfig(rank=2, loss=loss), [0, 1])
    assert [str(r) for r in results] == [message] * 2


def _kl_case(rng, shape, stack=3, zeros=0.0):
    a = rng.uniform(size=shape)
    a[rng.uniform(size=shape) < zeros] = 0.0
    return a, rng.uniform(size=(stack, *shape))


def _kl_cases():
    rng = np.random.default_rng(8)
    tiny_a, tiny_x = _kl_case(rng, (3, 4, 5))
    tiny_x[0].flat[:4] = [0.0, 5e-324, 1e-310, 1e-301]
    tiny_x[2] *= 1e-305
    return {
        "stack-of-3": _kl_case(rng, (3, 4, 5)),
        "stack-of-3-large": _kl_case(rng, (6, 6, 6)),
        "zero-entries": _kl_case(rng, (3, 4, 5), zeros=0.4),
        "zero-tensor": (np.zeros((2, 3, 2)), rng.uniform(size=(3, 2, 3, 2))),
        "below-1e-300": (tiny_a, tiny_x),
        "order-1": _kl_case(rng, (7,)),
    }


def _distance_kl(a_arr, x):
    return distance(DenseTensor.from_array(a_arr), DenseTensor.from_array(x), DivergenceKind.KL)


@pytest.mark.parametrize("case", list(_kl_cases()))
def test_kl_rows_match_the_termwise_oracle(case):
    a_arr, xhat = _kl_cases()[case]
    a = DenseTensor.from_array(a_arr)
    floored = np.maximum(xhat, KL_SOLVER_FLOOR)  # the driver floors X for the loss
    got = solvers._loss(a_arr, Loss.KL, 0.0)(floored, a_arr - xhat, None)
    want = [brute_kl(a, DenseTensor.from_array(x)) for x in floored]
    assert got == pytest.approx(want, rel=1e-12)
    got = [_distance_kl(a_arr, x) for x in xhat]
    want = [brute_kl(a, DenseTensor.from_array(x)) for x in xhat]
    assert got == pytest.approx(want, rel=1e-12)


def test_kl_rows_keep_their_bits():
    # sha256 over the .hex() of every _kl_cases row's D_KL, joined by
    # newlines: floored as the solver computes it, and unfloored by
    # distance (inf included).
    floored, unfloored = [], []
    for a_arr, xhat in _kl_cases().values():
        floored += solvers._loss(a_arr, Loss.KL, 0.0)(
            np.maximum(xhat, KL_SOLVER_FLOOR), a_arr - xhat, None)
        unfloored += [_distance_kl(a_arr, x) for x in xhat]
    digests = [
        hashlib.sha256("\n".join(v.hex() for v in values).encode()).hexdigest()
        for values in (floored, unfloored)
    ]
    assert digests == [
        "3f01ee456f6ebb21bfbceebaed50bbc1c0d0a70b116ed715ff89ca599d57bbdd",
        "927dc9a442b7b0f41235c3c43c0d143e2bb52661a5ea75f356d281d3cf4d233c",
    ]


@pytest.mark.parametrize("rank", [1, 3, 6])
def test_kl_updates_keep_the_mass_of_a_target_with_zeros(rank):
    rng = np.random.default_rng(5)
    arr = rng.uniform(size=(3, 4, 5))
    arr[rng.uniform(size=arr.shape) < 0.3] = 0.0
    a = DenseTensor.from_array(arr)
    res = fit_nncp(a, FitConfig(rank=rank, loss=Loss.KL, max_iters=300, tol=0.0))
    assert mass_drift(res.trace.columns, norm(a, "E")) == []


@settings(database=None, deadline=None, max_examples=60)
@given(st.data())
def test_kl_fit_is_em_for_the_naive_bayes_model(data):
    # The KL multiplicative update of a mode is the EM step of the prior and
    # that mode's conditional, so fit_nncp's KL objectives follow the
    # explicit-loop EM oracle from the fit's own start (random_model as
    # _init_nonneg draws it), every update keeps the mass of the target, and
    # the fit's naive-Bayes reading is the oracle's final prior and
    # conditionals.  The solver's D_KL adds sum(x) - sum(a) to the log terms,
    # so its rounding is relative to ||A||_E: the bound is 2e-12 relative to
    # the larger of the objective and ||A||_E.  The parameters are
    # probabilities, held to 1e-11 absolute, best over component orders (the
    # fit's come by weight); a class the fit dropped counts by its prior.
    order = data.draw(st.integers(1, 4), label="order")
    shape = tuple(data.draw(st.lists(st.integers(1, 4), min_size=order, max_size=order)))
    size = math.prod(shape)
    entries = st.lists(st.one_of(st.just(0.0), st.floats(0.01, 4.0)), min_size=size, max_size=size)
    a = DenseTensor(shape, data.draw(entries.filter(any), label="target"))
    rank = data.draw(st.integers(1, 3), label="rank")
    seed = data.draw(st.integers(0, 99), label="seed")
    sweeps, a_e = 30, norm(a, "E")
    fit = fit_nncp(a, FitConfig(rank=rank, loss=Loss.KL, max_iters=sweeps, tol=0.0, seed=seed))
    start = random_model(shape, rank, seed, nonneg=True, e_norm=a_e)
    want, prior, conditionals = em_naive_bayes(a, start.delta, start.factors, sweeps)
    assert list(fit.trace.columns.objective) == pytest.approx(want, rel=2e-12, abs=2e-12 * a_e)
    assert mass_drift(fit.trace.columns, a_e) == []
    nb, total = to_naive_bayes(fit.model), sum(prior)
    errors = []
    for classes in itertools.permutations(range(rank), nb.r):
        diffs = [prior[p] / total for p in range(rank) if p not in classes]
        for q, p in enumerate(classes):
            diffs.append(abs(nb.prior[q] - prior[p] / total))
            diffs += [abs(c[j, q] - oc[j][p]) for c, oc in zip(nb.conditionals, conditionals)
                      for j in range(len(oc))]
        errors.append(max(diffs))
    assert min(errors) <= 1e-11


def test_kl_fit_attains_the_boundary_infimum():
    # The indicator of kl_counterexample is a nonnegative rank-1 tensor with
    # zeros: no strictly positive X_n reaches D_KL = 0, but one sweep of MU
    # lands on A itself, on the boundary of the orthant.
    a, _ = kl_counterexample(1)
    for seed in range(5):
        res = fit_nncp(a, FitConfig(rank=1, loss=Loss.KL, seed=seed))
        objs = res.trace.columns.objective
        assert objs[0] > 0.0
        assert objs[1] == 0.0
        assert res.converged and res.final_objective == 0.0
        assert res.model.delta.tolist() == [1.0]
        assert [f.tolist() for f in res.model.factors] == [[[1.0], [0.0]]] * 3
        assert mass_drift(res.trace.columns, norm(a, "E")) == []
    for n in (1, 10, 10**6):
        assert distance(*kl_counterexample(n), DivergenceKind.KL) > 0.0


# --- fit_nncp -----------------------------------------------------------------


def test_fit_nncp_rank1_recovery():
    a = rank1_target(seed=42)
    res = fit_nncp(a, FitConfig(rank=1, max_iters=2000, tol=1e-14))
    assert res.trace.columns.residual_E[-1] <= 1e-6 * norm(a, "E")
    assert res.converged
    assert res.model.nonneg and res.model.normalized
    diff = reconstruct(res.model).as_array() - a.as_array()
    assert np.max(np.abs(diff)) <= 1e-6


def test_fit_nncp_requires_nonneg_input_and_flag():
    a = DenseTensor([2, 2], [1.0, -1.0, 0.0, 2.0])
    with pytest.raises(ValueError):
        fit_nncp(a, FitConfig(rank=1))
    good = DenseTensor([2, 2], [1.0, 1.0, 0.0, 2.0])
    with pytest.raises(ValueError):
        fit_nncp(good, FitConfig(rank=1, nonneg=False))


def test_fit_nncp_zero_tensor():
    res = fit_nncp(DenseTensor.zeros([3, 3, 3]), FitConfig(rank=2, max_iters=5, tol=0.0))
    assert res.final_objective == 0.0
    assert res.model.r == 0


def test_fit_nncp_output_sorted_and_final_traced():
    a = reconstruct(random_model((3, 3, 3), 3, seed=30, nonneg=True, e_norm=5.0))
    res = fit_nncp(a, FitConfig(rank=3, max_iters=73, tol=0.0, seed=6, trace_every=10))
    deltas = res.model.delta
    assert all(x >= y for x, y in zip(deltas, deltas[1:]))
    cols = res.trace.columns
    assert cols.iter[0] == 0
    assert cols.iter[-1] == 73  # final row present despite trace_every=10
    assert all(b > a for a, b in zip(cols.iter, cols.iter[1:]))
    assert res.final_objective == cols.objective[-1]


def test_fit_nncp_trace_every_thins_rows():
    a = rank1_target(seed=8)
    res = fit_nncp(a, FitConfig(rank=1, max_iters=40, tol=0.0, trace_every=10))
    assert res.trace.columns.iter == (0, 10, 20, 30, 40)


# --- fit_cp_unconstrained -------------------------------------------------------


def test_fit_als_exact_rank2_recovery():
    m = random_model((3, 4, 5), 2, seed=301, nonneg=False)
    a = reconstruct(m)
    res = fit_cp_unconstrained(a, FitConfig(rank=2, nonneg=False, max_iters=3000, tol=1e-14))
    res_f = math.sqrt(res.final_objective)
    assert res_f <= 1e-6 * norm(a, "F")
    # output convention: unit-l2 columns, magnitudes and signs in the weights
    for f in res.model.factors:
        assert np.max(np.abs(np.linalg.norm(f, axis=0) - 1.0)) <= 1e-12
    mags = np.abs(res.model.delta)
    assert all(x >= y for x, y in zip(mags, mags[1:]))


def test_fit_als_validation():
    a = rank1_target(seed=1)
    with pytest.raises(ValueError):
        fit_cp_unconstrained(a, FitConfig(rank=1, nonneg=True))


def test_fit_als_bclr_degenerate_path():
    a = bclr_limit(4)
    res = fit_cp_unconstrained(
        a, FitConfig(rank=5, nonneg=False, max_iters=2000, tol=0.0, seed=0)
    )
    objs = res.trace.columns.objective
    assert all(cur < prev for prev, cur in zip(objs, objs[1:]))  # strictly decreasing
    assert res.trace.columns.delta_l1[-1] > 10 * norm(a, "F")


def test_fit_als_w_limit_degenerate_signature():
    _, a, _, _ = w_sequence([1])
    res = fit_cp_unconstrained(
        a, FitConfig(rank=2, nonneg=False, max_iters=2000, tol=0.0, seed=0)
    )
    cols = res.trace.columns
    assert objective_rises(cols) == []
    assert cols.residual_E[-1] <= cols.residual_E[0] / 2
    assert cols.max_component_F[-1] > 2.5 * norm(a, "F")  # slow blow-up, small budget


def test_fit_als_zero_tensor_ridge_path():
    res = fit_cp_unconstrained(
        DenseTensor.zeros([3, 3, 3]),
        FitConfig(rank=2, nonneg=False, max_iters=5, tol=0.0, seed=1),
    )
    assert res.final_objective == 0.0
    assert res.model.r == 0
    assert res.trace.notes  # singular normal equations were ridge-jittered


def test_final_residuals_match_model():
    a = reconstruct(random_model((3, 3, 3), 2, seed=77, nonneg=True, e_norm=3.0))
    res = fit_nncp(a, FitConfig(rank=2, max_iters=200, tol=0.0, seed=3))
    recon = reconstruct(res.model)
    assert distance(a, recon, DivergenceKind.E_NORM) == pytest.approx(
        res.trace.columns.residual_E[-1], rel=1e-9, abs=1e-12
    )


# --- shared driver and kernels ------------------------------------------------------

_SOLVERS = [
    (fit_nncp, FitConfig(rank=1, max_iters=50)),
    (fit_nncp, FitConfig(rank=1, loss=Loss.KL, max_iters=50)),
    (fit_cp_unconstrained, FitConfig(rank=1, nonneg=False, max_iters=50)),
]


@pytest.mark.parametrize("fit, cfg", _SOLVERS)
def test_order_one_fit_reproduces_the_vector(fit, cfg):
    a = DenseTensor([5], [1.0, 2.0, 3.0, 4.0, 5.0])
    res = fit(a, cfg)
    assert reconstruct(res.model).data.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]


@pytest.mark.parametrize("fit, cfg", _SOLVERS)
def test_order_26_fits_and_reconstructs(fit, cfg):
    # No fit array has more axes than the target, so an order above 25
    # fits with every solver, and its model reconstructs.
    a = reconstruct(random_model([2] + [1] * 24 + [3], 1, seed=4, nonneg=True, e_norm=3.0))
    x = reconstruct(fit(a, cfg).model)
    assert x.shape == a.shape
    assert np.max(np.abs(x.as_array() - a.as_array())) <= 1e-6


_FAMILIES = {  # the FitConfig fields that pick each family of fits
    "mu": {"loss": Loss.FROBENIUS, "nonneg": True},
    "kl": {"loss": Loss.KL, "nonneg": True},
    "als": {"loss": Loss.FROBENIUS, "nonneg": False},
}


def _in_family(cfg, family):
    return dataclasses.replace(cfg, **_FAMILIES[family])


def _count_calls(monkeypatch, functions):
    """Patch each (owner, name) of ``functions`` to record the positional
    arguments of its calls; returns name -> list of argument tuples."""
    calls = collections.defaultdict(list)
    for owner, name in functions:

        def counting(*args, _real=getattr(owner, name), _name=name, **kwargs):
            calls[_name].append(args)
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    return calls


_COUNTED = {"_reconstruct": solvers, "_factor_stat": solvers, "log": np, "sqrt": np,
            "norm": np.linalg, "sum": np, "where": np, "cholesky": np.linalg,
            "solve": np.linalg}


def _calls_per_fit(family, n, r, t):
    """The calls of each _COUNTED function in one fit of a family with tol=0
    and t iterations, at rank r, on an order-n target."""
    kl, als = family == "kl", family == "als"
    return {
        # One reconstruction per sweep, shared by the objective and the trace
        # row; KL updates of modes 1..n-1 each need a fresh one.
        "_reconstruct": (n if kl else 1) * t + 1,
        # Each factor's Gram (column sums for KL) is computed once at the start
        # and once after each of its updates: n per sweep, where recomputing
        # the other factors' statistics in every mode update would take n(n-1).
        "_factor_stat": n + n * t,
        # log a once per fit, then one log of the reconstruction per iteration.
        "log": 1 + (t + 1) if kl else 0,
        # The trace quantities take one np.sqrt per block of rows, not one per
        # row; a block holds at most TRACE_BLOCK iterates.
        "sqrt": -(-(t + 1) // solvers.TRACE_BLOCK),
        # np.linalg.norm, np.sum, np.where, np.linalg.cholesky and
        # np.linalg.solve set up the fit or package its model; none runs per
        # iteration.
        "norm": r * n if als else 0,
        "sum": 0 if als else (r + 1) * n + 1,
        "where": 0,
        "cholesky": 0,
        "solve": 0,
    }


# id -> (shape, random_model seed and e_norm, TRACE_BLOCK).  A block holds at
# most TRACE_BLOCK iterates, whatever the size of the target.  iterates: in
# blocks of 8, 7 and 8 rows are one block, 63 and 64 rows eight.  entries: on a
# 7x7x7 target, 7, 8, 63 and 64 rows each take one block of the default 64.
_COUNT_TARGETS = {
    "o1": ((5,), 3, 2.0, None),
    "o3": ((3, 4, 2), 3, 2.0, None),
    "o4": ((2, 3, 2, 2), 3, 2.0, None),
    "iterates": ((3, 4, 5), 77, 3.0, 8),
    "entries": ((7, 7, 7), 77, 3.0, None),
}


def _call_count_test(names, rank, iteration_counts, cases):
    """A test that counts the calls of the _COUNTED functions ``names`` in fits
    at ``rank`` of each (family, target) case, a dict id -> case, for each of
    the iteration counts, against _calls_per_fit."""

    @pytest.mark.parametrize("case", list(cases.values()), ids=list(cases))
    def test(monkeypatch, case):
        family, target = case
        shape, seed, e_norm, block = _COUNT_TARGETS[target]
        a = reconstruct(random_model(shape, 2, seed=seed, nonneg=True, e_norm=e_norm))
        if block:
            monkeypatch.setattr(solvers, "TRACE_BLOCK", block)
        calls = _count_calls(monkeypatch, [(_COUNTED[name], name) for name in names])
        fit = fit_cp_unconstrained if family == "als" else fit_nncp
        for iters in iteration_counts:
            calls.clear()
            fit(a, FitConfig(rank=rank, max_iters=iters, tol=0.0, **_FAMILIES[family]))
            want = _calls_per_fit(family, len(shape), rank, iters)
            assert {name: len(calls[name]) for name in names} == {
                name: want[name] for name in names}, iters
            assert {kl for _, kl in calls["_factor_stat"]} <= {family == "kl"}

    return test


_ORDERS = ("o1", "o3", "o4")
_IN_EVERY_ORDER = {f"{f}-{o}": (f, o) for f in _FAMILIES for o in _ORDERS}
test_reconstructions_per_fit = _call_count_test(["_reconstruct"], 2, [7], {
    # ids as pytest derived them from the test's former parameters
    "fit_nncp-Loss.FROBENIUS-True-shape0-1": ("mu", "o3"),
    "fit_cp_unconstrained-Loss.FROBENIUS-False-shape1-1": ("als", "o3"),
    "fit_nncp-Loss.KL-True-shape2-3": ("kl", "o3"),
    "fit_nncp-Loss.KL-True-shape3-4": ("kl", "o4"),
})
test_factor_statistics_per_fit = _call_count_test(["_factor_stat"], 1, [7], _IN_EVERY_ORDER)
test_numpy_wrapper_calls_per_fit = _call_count_test(
    ["norm", "sum", "where", "cholesky", "solve"], 2, [3, 30], _IN_EVERY_ORDER)
test_np_log_calls_per_kl_fit = _call_count_test(
    ["log"], 2, [3, 30], {o: ("kl", o) for o in _ORDERS})
test_np_sqrt_calls_per_fit_scale_with_trace_blocks = _call_count_test(
    ["sqrt"], 2, [6, 7, 62, 63],
    {f"{t}-{f}": (f, t) for t in ("iterates", "entries") for f in _FAMILIES})


def _wrapper_trace_quantities(resid, factors, nonneg, colsums=None):
    """One iterate's trace quantities through numpy's wrappers: the reference
    that each iterate of solvers._trace_columns must match bit for bit."""
    residual_e = np.sum(np.abs(resid), axis=tuple(range(1, resid.ndim)))
    comp_f = functools.reduce(np.multiply, [np.linalg.norm(f, axis=1) for f in factors])
    if nonneg:
        colsums = colsums or [np.sum(f, axis=1) for f in factors]
        delta_hat = functools.reduce(np.multiply, colsums)
    else:
        delta_hat = comp_f
    return residual_e, np.sum(delta_hat, axis=1), np.max(comp_f, axis=1)


_TRACE_DIMS = (1, 3, 4, 8, 9, 17, 20)


@pytest.mark.parametrize("stack", [1, 5])
@pytest.mark.parametrize("layout", ["C", "als"])
@pytest.mark.parametrize(
    "nonneg, with_colsums", [(True, False), (True, True), (False, False), ("mixed", False)]
)
def test_trace_quantities_match_the_numpy_wrappers_bit_for_bit(stack, layout, nonneg, with_colsums):
    # Pairwise summation blocks a contiguous reduction by 8, so the layout and
    # the lengths around 8 and 16 decide the rounding; ALS solves come back
    # as (S, r, d) arrays that the update copies to C order, while its start
    # (iteration 0) is stacked C-ordered.  Concatenating the factors for one
    # np.add.reduceat, or padding them into one stack, rounds differently.  A
    # block of three iterates, at ranks below and above 8.  residual_E is
    # reduced from each (S, d0, size/d0) residual stack when the driver
    # records the iterate, as fit_seeds does it.  with_colsums:
    # delta_l1 is also bit-equal to the product of the column sums that the
    # KL driver caches, so the trace pass needs no copy of them.  mixed: the
    # nonnegative entries first, as in a batch of both families, each entry
    # against the reference of its own family.
    flags = [j < stack // 2 for j in range(stack)] if nonneg == "mixed" else [nonneg] * stack
    rng = np.random.default_rng(11)
    for rank in (4, 10):
        resids, blocks = [], []
        for t in range(3):
            factors = []
            for d in _TRACE_DIMS:
                f = rng.random((stack, d, rank)) * 10.0 ** rng.integers(-3, 4, (stack, d, rank))
                if not nonneg:
                    f = f - 0.5
                f[rng.random(f.shape) < 0.2] = -0.0
                if layout == "als" and t > 0:
                    solved = np.ascontiguousarray(f.transpose(0, 2, 1))
                    f = np.ascontiguousarray(solved.transpose(0, 2, 1))
                factors.append(f)
            resid = rng.standard_normal((stack, 9, 51))
            resid[rng.random(resid.shape) < 0.2] = -0.0
            resids.append(resid)
            blocks.append(tuple(factors))
        recorded = [np.add.reduce(np.abs(resid), axis=(1, 2)) for resid in resids]
        got = solvers._trace_columns(recorded, blocks, flags)
        for t, j in itertools.product(range(3), range(stack)):
            entry = [f[j:j + 1] for f in blocks[t]]
            colsums = [solvers._factor_stat(f, True) for f in entry] if with_colsums else None
            want = _wrapper_trace_quantities(resids[t][j:j + 1], entry, flags[j], colsums)
            for g, w in zip(got, want):
                assert g.shape == (3, stack) and w.shape == (1,)
                assert g[t, j:j + 1].tobytes() == w.tobytes()


@pytest.mark.parametrize("rank", [1, 2])
def test_trace_columns_at_low_rank_match_the_numpy_wrappers_bit_for_bit(rank):
    # A lone factor's column sums run pairwise over d at rank 1, where d is
    # the contiguous axis, and sequentially over d from rank 2 on; a block
    # of several iterates must round as each entry of each iterate does
    # alone, at the mode sizes around numpy's pairwise block of 8.
    rng = np.random.default_rng(5)
    flags = [True, False, True]
    blocks = [tuple(rng.random((3, d, rank)) * 10.0 ** rng.integers(-3, 4, (3, d, rank))
                    for d in _TRACE_DIMS) for _ in range(4)]
    residual_e = [rng.random(3) for _ in blocks]
    got = solvers._trace_columns(residual_e, blocks, flags)
    for t, j in itertools.product(range(4), range(3)):
        entry = [f[j:j + 1] for f in blocks[t]]
        want = _wrapper_trace_quantities(np.zeros((1, 1)), entry, flags[j])
        for g, w in zip(got[1:], want[1:]):
            assert g[t, j:j + 1].tobytes() == w.tobytes()


class _CountingNumpy:
    """Stands in for the numpy module and counts each call of a numpy
    function or ufunc method (np.concatenate, np.add.reduce, ...) by name."""

    def __init__(self, target, calls, name="np"):
        self._target, self._calls, self._name = target, calls, name

    def __getattr__(self, attr):
        value = getattr(self._target, attr)
        if callable(value):
            return _CountingNumpy(value, self._calls, f"{self._name}.{attr}")
        return value

    def __call__(self, *args, **kwargs):
        self._calls[self._name] += 1
        return self._target(*args, **kwargs)


@pytest.mark.parametrize("nonneg", [True, False, "mixed"])
def test_trace_block_numpy_calls_do_not_grow_with_the_batch(nonneg):
    # One block pass makes the same numpy calls for one seed as for five:
    # the seeds share every call, none is made per seed.  mixed: two entries
    # and five, nonnegative ones first.
    rng = np.random.default_rng(2)
    counts = []
    for stack in (2, 5) if nonneg == "mixed" else (1, 5):
        flags = [j == 0 for j in range(stack)] if nonneg == "mixed" else [nonneg] * stack
        residual_e = [rng.random(stack) for _ in range(4)]
        blocks = [tuple(rng.random((stack, d, 2)) for d in (3, 4, 5)) for _ in range(4)]
        calls = collections.Counter()
        with mock.patch.object(solvers, "np", _CountingNumpy(np, calls)):
            solvers._trace_columns(residual_e, blocks, flags)
        counts.append(calls)
    assert counts[0] and counts[0] == counts[1]


@pytest.mark.parametrize(
    "loss, nonneg",
    [(Loss.FROBENIUS, True), (Loss.KL, True), (Loss.FROBENIUS, False), (Loss.FROBENIUS, "mixed")],
    ids=["mu", "kl", "als", "mixed"],
)
def test_trace_blocks_see_only_c_ordered_factor_stacks(monkeypatch, loss, nonneg):
    # _trace_columns reduces every factor stack as a C-ordered array, so
    # every solver must hand it C-ordered stacks, stopped seeds sliced out.
    # A block holds references to its iterates' stacks, so no update may
    # write into a recorded stack: each stack's bytes are kept when the
    # sweep's reconstruction first reads it (the _khatri_rao call of mode 0,
    # just before the iterate is recorded), and the stack must still hold
    # them at every later reconstruction and when its block is flushed.
    # mixed: MU and ALS entries in one batch, whose tails write one fresh
    # stack per mode update; the entries stop at different iterations.
    seen, copies = [], {}  # id -> (the stack, its bytes when first recorded)
    real_kr, real_columns = solvers._khatri_rao, solvers._trace_columns

    def unchanged(f):
        return copies[id(f)][1] == f.tobytes()

    def copying(factors, n, rows):
        if n == 0:
            for f in factors:  # a stack recorded before must not have changed since
                assert id(f) not in copies or unchanged(f)
                copies.setdefault(id(f), (f, f.tobytes()))
        return real_kr(factors, n, rows)

    def recording(residual_e, factors, *rest):
        for f in itertools.chain.from_iterable(factors):
            assert unchanged(f)
            seen.append(f.flags.c_contiguous)
        return real_columns(residual_e, factors, *rest)

    monkeypatch.setattr(solvers, "_khatri_rao", copying)
    monkeypatch.setattr(solvers, "_trace_columns", recording)
    noise = DenseTensor.from_array(np.random.default_rng(3).uniform(size=(3, 4, 5)))
    flags = [j % 2 == 0 for j in range(4)] if nonneg == "mixed" else [nonneg] * 4
    cfg = FitConfig(rank=2, loss=loss, max_iters=3000, tol=1e-6, trace_every=3)
    batch = solvers._fit_batch(noise, cfg, list(zip([0, 1, 2, 3], flags)))
    assert all(isinstance(r, solvers.FitResult) for r in batch)
    assert len({r.trace.columns.iter[-1] for r in batch}) > 1
    assert seen and all(seen)


def _linalg_outcome(solve, *args):
    """The result's bytes, or the LinAlgError's type and message."""
    try:
        return solve(*args).tobytes()
    except np.linalg.LinAlgError as exc:
        return np.linalg.LinAlgError, str(exc)


def _wrapped_probe_and_solve(gram, rhs):
    np.linalg.cholesky(gram)
    return np.linalg.solve(gram, rhs)


def test_lapack_solve_matches_the_numpy_wrappers():
    # _lapack_solve calls numpy's private LAPACK gufuncs; a numpy release
    # that moves or changes them fails here, not deep inside an ALS fit.
    from numpy.linalg import _umath_linalg

    assert _umath_linalg.cholesky_lo.signature == "(m,m)->(m,m)"
    assert _umath_linalg.solve.signature == "(m,m),(m,n)->(m,n)"
    before = np.geterr(), np.geterrcall()
    rng = np.random.default_rng(19)
    m = rng.normal(size=(4, 4))
    v = rng.normal(size=(4, 2))
    grams = {
        "spd": m @ m.T,
        "psd": v @ v.T,
        "indefinite": np.diag([2.0, -1.0, 3.0, 0.5]),
        "zero": np.zeros((4, 4)),
        "nan": np.where(np.eye(4) == 1, np.nan, 0.0) + m @ m.T,
        "inf": np.diag([np.inf, 1.0, 1.0, 1.0]),
    }
    stacks = dict(grams)
    stacks.update({f"{name}-stack": np.stack([grams["spd"], g, grams["spd"]])
                   for name, g in grams.items()})
    raised = set()
    for name, gram in stacks.items():
        rhs = rng.normal(size=(*gram.shape[:-1], 3))
        probed = _linalg_outcome(solvers._lapack_solve, gram, rhs)
        wrapped = _linalg_outcome(_wrapped_probe_and_solve, gram, rhs)
        if isinstance(wrapped, bytes):
            assert probed == wrapped, name
        else:
            assert probed[0] is np.linalg.LinAlgError, name
            raised.add(name)
        unprobed = _linalg_outcome(solvers._lapack_solve, gram, rhs, False)
        assert unprobed == _linalg_outcome(np.linalg.solve, gram, rhs), name
    # Rank-deficient "psd" may pass the probe by rounding; these cannot.
    assert {"indefinite", "zero", "indefinite-stack", "zero-stack"} <= raised
    # The ridged solve's failure reads as np.linalg.solve's own.
    zero = np.zeros((3, 3))
    assert _linalg_outcome(solvers._lapack_solve, zero, np.ones((3, 1)), False) == (
        np.linalg.LinAlgError, "Singular matrix")
    # The error rule ends with each call, raised or not.
    assert (np.geterr(), np.geterrcall()) == before


def _error_callback(err, flag):
    pass


def test_lapack_solve_restores_the_callers_error_rule():
    # The wrappers' error rule is bound to _lapack_solve once, as a
    # decorator; it holds inside each call only, whether the call returns or
    # raises LinAlgError, and under any rule of the caller's.
    spd, singular, rhs = 2.0 * np.eye(3), np.zeros((3, 3)), np.ones((3, 2))
    for rule in ({}, {"all": "raise", "call": None}, {"over": "call", "call": _error_callback}):
        with np.errstate(**rule):
            before = np.geterr(), np.geterrcall()
            assert solvers._lapack_solve(spd, rhs).tobytes() == (0.5 * rhs).tobytes()
            assert (np.geterr(), np.geterrcall()) == before
            for probe in (True, False):
                with pytest.raises(np.linalg.LinAlgError):
                    solvers._lapack_solve(singular, rhs, probe)
                assert (np.geterr(), np.geterrcall()) == before


# --- seed batches ---------------------------------------------------------------
#
# The driver fits each entry of a batch, a seed in a family, exactly as it fits
# alone.  _ISOLATION holds one row per case; one helper runs a row on each
# layout it applies to: one family through fit_seeds, or both Frobenius
# families as one _fit_batch.


def _fingerprint(result):
    """Everything a fit returns, in comparable form (exceptions by message)."""
    if isinstance(result, Exception):
        return type(result).__name__, str(result)
    model = result.model
    return (
        result.trace.to_csv(),
        result.trace.notes,
        result.converged,
        result.final_objective,
        model.delta.tobytes(),
        [f.tobytes() for f in model.factors],
    )


def _solo(a, cfg, seed):
    fit = fit_nncp if cfg.nonneg else fit_cp_unconstrained
    try:
        return fit(a, dataclasses.replace(cfg, seed=seed))
    except Exception as exc:
        return exc


def assert_batch_matches_solo(a, cfg, seeds, families, fault=None, known=None):
    """Fit ``seeds`` in each of ``families`` as one batch, and check that each
    entry, (seed, family) in that order, ends as its solo fit does: one family
    through fit_seeds, both Frobenius families through _fit_batch, which
    stacks the MU entries first.  ``fault(monkeypatch, entries)``, if given,
    is applied anew to the batch and to each solo fit that ``known`` (entry
    -> solo fit) does not give.  Returns the batch."""
    entries = [(seed, family) for family in families for seed in seeds]
    known = known or {}

    def run(fit, *run_entries):
        with pytest.MonkeyPatch.context() as mp:
            if fault:
                fault(mp, run_entries)
            return fit()

    if len(families) == 1:
        one = _in_family(cfg, families[0])
        batch = run(lambda: solvers.fit_seeds(a, one, seeds), *entries)
    else:
        stack = [(seed, family != "als") for seed, family in entries]
        batch = run(lambda: solvers._fit_batch(a, cfg, stack), *entries)
    assert len(batch) == len(entries)
    for (seed, family), result in zip(entries, batch):
        solo = known[seed, family] if (seed, family) in known else run(
            lambda: _solo(a, _in_family(cfg, family), seed), (seed, family))
        assert _fingerprint(result) == _fingerprint(solo), (seed, family)
    return batch


_NB = reconstruct(random_model((3, 4, 5), 2, seed=77, nonneg=True, e_norm=3.0))
_NOISE = DenseTensor.from_array(np.random.default_rng(3).uniform(size=(3, 4, 5)))


# Faults.  A row's fault is called as fault(monkeypatch, entries, clean) before
# its batch and before the solo fit of each entry in the row's ``ends``:
# ``entries`` are the (seed, family) pairs of that fit, ``clean`` maps each
# entry of the row to its solo fit without the fault.


def _nan_at_call_11(victim):
    """NaN enters ``victim``'s entry of the 11th Khatri-Rao product: at
    iteration 4, mode 1 (one product at iteration 0 for the reconstruction,
    then one per sweep for each of modes 1 and 2 and one for the
    reconstruction, which mode 0 of the next sweep reuses)."""

    def fault(monkeypatch, entries, clean):
        j = sorted(entries, key=lambda e: e[1] == "als").index(victim)  # its stack entry
        real, calls = solvers._khatri_rao, []

        def poisoned(factors, n, rows):
            out = real(factors, n, rows)
            calls.append(n)
            if len(calls) == 11:
                out[j] = np.nan
            return out

        monkeypatch.setattr(solvers, "_khatri_rao", poisoned)

    return fault


def _singular_starts(monkeypatch, zero_column=(), twin_columns=()):
    """Signed starts whose mode-0 Gram is singular from the first sweep on: a
    zero column in the last mode for the seeds in ``zero_column`` (a ridge
    note every sweep), or, for those in ``twin_columns``, two identical
    columns scaled by 1e10 in modes 1 and 2, which keep the Gram singular
    after the 1e-12 ridge, so the ridged solve fails in the first sweep."""
    real = solvers._init_signed

    def singular(a, cfg):
        w = real(a, cfg)
        if cfg.seed in zero_column:
            w[-1][:, 1] = 0.0
        if cfg.seed in twin_columns:
            for m in (1, 2):
                w[m][:, :] = w[m][:, :1] * 1e10
        return w

    monkeypatch.setattr(solvers, "_init_signed", singular)


def _violate_below(monkeypatch, residual):
    """Substitute a coercivity bound that every row whose residual_E is below
    ``residual`` violates."""
    real = solvers.coercivity_bound

    def tight(a_e, residual_e):
        return np.where(np.less(residual_e, residual), -1.0, real(a_e, residual_e))

    monkeypatch.setattr(solvers, "coercivity_bound", tight)


def _first_below(result, residual):
    """The iteration of ``result``'s first traced row with residual_E below ``residual``."""
    cols = result.trace.columns
    return next(it for it, r in zip(cols.iter, cols.residual_E) if r < residual)


def _first_violation(result, residual):
    """The error that ends ``result``'s fit at its first row below ``residual``."""
    cols = result.trace.columns
    i = cols.iter.index(_first_below(result, residual))
    a_e = norm(_NB, "E")
    return (
        f"coercivity bound violated at iteration {cols.iter[i]}: "
        f"{cols.delta_l1[i]} > {a_e + cols.residual_E[i]}"
    )


_NO_NORMAL_FORM = "no finite normal form: a weight exceeds the double range"


def _no_normal_form(victim):
    """``victim``'s model has no normal form when its fit ends: normalize and
    l2_normalize fail on a model with the weights of its clean fit."""

    def fault(monkeypatch, entries, clean):
        weights = sorted(clean[victim].model.delta.tolist())
        for name in ("normalize", "l2_normalize"):

            def normal_form(model, _real=getattr(solvers, name)):
                out = _real(model)
                if sorted(out.delta.tolist()) == weights:
                    raise ValueError(_NO_NORMAL_FORM)
                return out

            monkeypatch.setattr(solvers, name, normal_form)

    return fault


def _capped(clean):
    """How a nonnegative entry ends under _violate_below(0.02): at its clean
    fit's first row below 0.02."""
    return RuntimeError, _first_violation(clean, 0.02)


def _outcome(result):
    """How an entry ended: an exception's type and message, or a FitResult's
    first note and its stop, "tol" or its last iteration."""
    if isinstance(result, Exception):
        return type(result), str(result)
    stop = "tol" if result.converged else result.trace.columns.iter[-1]
    return solvers.FitResult, result.trace.notes[:1], stop


class _Row(NamedTuple):
    """Fits of ``seeds`` on ``target`` with the FitConfig fields ``cfg``, in
    each of ``layouts``, under ``fault``.  An entry (seed, family) in ``ends``
    ends as its solo fit under the fault, and as its value says (an _outcome,
    or a function of the entry's clean fit that gives one); every other entry
    ends as its clean fit, its solo fit without the fault.  Every clean fit
    that returns ends with no note, by tol, or at max_iters if tol is 0."""

    target: DenseTensor
    seeds: object
    cfg: dict
    layouts: tuple
    fault: object = None
    ends: dict = {}
    block: object = None  # TRACE_BLOCK, if not the default


_LAYOUTS = {"mu": ("mu",), "kl": ("kl",), "als": ("als",), "mixed": ("als", "mu")}
_BCLR = (bclr_limit(4), [56, 57, 58, 59, 60, 1020])
_BCLR_CFG = {"rank": 5, "max_iters": 300, "tol": 0.0}
_FIT_50 = {"rank": 2, "max_iters": 50, "tol": 0.0}
_BAD_SEEDS = {-1: "seed must be >= 0", 2.5: "seed must be an integer, got 2.5",
              None: "seed must be an integer, got None"}
_ISOLATION = {
    "bclr": _Row(*_BCLR, _BCLR_CFG, _LAYOUTS),
    "bclr-every7": _Row(*_BCLR, _BCLR_CFG | {"trace_every": 7}, _LAYOUTS),
    "bclr-rho": _Row(*_BCLR, _BCLR_CFG | {"reg_rho": 0.5}, ("mu", "als", "mixed")),
    # The summation order of each seed's MTTKRP does not depend on the batch,
    # also where a mode has size 1 and the rank is 1.
    "mode-of-size-one": _Row(
        DenseTensor.from_array(np.random.default_rng(1).uniform(size=(1, 2, 2))), [0, 0],
        {"rank": 1, "max_iters": 1, "tol": 0.0}, _LAYOUTS),
    # A rank-2 fit of uniform noise settles at a positive objective, where the
    # relative-decrease rule stops each entry at its own iteration.
    **{f"stop-by-tol-{f}": _Row(_NOISE, range(6), {"rank": 2, "max_iters": 3000, **fields}, layouts)
       for f, layouts, fields in [("mu", ("mu", "mixed"), {"tol": 1e-6}),
                                  ("kl", ("kl",), {"tol": 1e-7, "trace_every": 7}),
                                  ("als", ("als",), {"tol": 1e-9})]},
    # numpy seeds in an ndarray, among seeds that FitConfig rejects.
    "seeds": _Row(_NB, np.array([np.int64(0), -1, 2.5, None, np.int64(1)], dtype=object),
                  {"rank": 2, "max_iters": 20, "tol": 0.0}, _LAYOUTS,
                  ends={(s, f): (ValueError, m) for s, m in _BAD_SEEDS.items() for f in _FAMILIES}),
    **{f"nan-in-{f}": _Row(_NB, [0, 1, 2], _FIT_50, layouts, _nan_at_call_11((1, f)),
                           {(1, f): (ValueError, "trace objective must be finite")})
       for f, layouts in [("mu", ("mu", "mixed")), ("kl", ("kl",)), ("als", ("als", "mixed"))]},
    # Signed seed 2 starts with a zero column, signed seed 1 with twin columns.
    **{f"singular-starts-{iters}": _Row(
        _NB, range(4), _FIT_50 | {"max_iters": iters}, ("als", "mixed"),
        lambda mp, *_: _singular_starts(mp, zero_column={2}, twin_columns={1}),
        {(2, "als"): (solvers.FitResult, [(1, "ridge jitter on mode 0")], iters),
         (1, "als"): (np.linalg.LinAlgError, "Singular matrix")})
       for iters in (5, 50)},
    # Within 300 sweeps MU seeds 1 and 2, and every KL seed, bring residual_E
    # below 0.02, each at its own iteration; MU seeds 0 and 3 do not, and the
    # signed fits have no cap.
    **{f"cap-{block or 'default'}": _Row(
        _NB, range(4), _FIT_50 | {"max_iters": 300}, ("mu", "kl", "mixed"),
        lambda mp, *_: _violate_below(mp, 0.02),
        {(1, "mu"): _capped, (2, "mu"): _capped, **{(s, "kl"): _capped for s in range(4)}},
        block)
       for block in (1, 7, None)},
    # One entry's model has no normal form when its fit ends.  With tol > 0 the
    # entries end at different sweeps, between the traced iterates of
    # trace_every=4, so the flush that packages them appends stop-only rows;
    # KL seed 0 stops by tol at iteration 66.
    **{f"no-normal-form-{f}-{tol}": _Row(
        _NOISE, [0, 1], {"rank": 2, "max_iters": iters, "tol": tol, "trace_every": 4}, layouts,
        _no_normal_form((seed, f)), {(seed, f): (ValueError, _NO_NORMAL_FORM)})
       for f, seed, iters, layouts in [("mu", 0, 50, ("mu", "mixed")), ("kl", 0, 70, ("kl",)),
                                       ("als", 1, 50, ("als", "mixed"))]
       for tol in (0.0, 1e-3)},
}


def _assert_isolated(monkeypatch, row, layout):
    """Run ``row`` of _ISOLATION on ``layout``; check each entry's end."""
    target, seeds, fields, _, fault, ends, block = _ISOLATION[row]
    cfg, families = FitConfig(**fields), _LAYOUTS[layout]
    entries = [(seed, family) for family in families for seed in seeds]
    clean = {e: _solo(target, _in_family(cfg, e[1]), e[0]) for e in entries} if fault else None
    if block:
        monkeypatch.setattr(solvers, "TRACE_BLOCK", block)
    faulted = fault and (lambda mp, run_entries: fault(mp, run_entries, clean))
    known = {e: fit for e, fit in (clean or {}).items() if e not in ends}
    batch = assert_batch_matches_solo(target, cfg, seeds, families, faulted, known)
    clean = clean or dict(zip(entries, batch))
    for entry, result in zip(entries, batch):
        if entry in ends:
            end = ends[entry]
            assert _outcome(result) == (end(clean[entry]) if callable(end) else end), entry
    fits = [r for r in clean.values() if isinstance(r, solvers.FitResult)]
    stop = "tol" if cfg.tol > 0 else cfg.max_iters
    assert all(_outcome(r) == (solvers.FitResult, [], stop) for r in fits)
    last = [r.trace.columns.iter[-1] for r in fits]
    if cfg.tol > 0:  # each entry stops at its own iteration, not one per family
        assert len(set(last)) > len(families)
    if cfg.trace_every > 1:  # an entry ends between traced iterates
        assert any(it % cfg.trace_every for it in last)


_RUN = set()  # the (row, layout) cases that a test below runs


def _isolation_test(cases):
    """A test of the (row, layout) ``cases`` of _ISOLATION: a dict id -> case,
    or one case, for a test with no parameters."""
    if isinstance(cases, tuple):
        _RUN.add(cases)

        def test(monkeypatch):
            _assert_isolated(monkeypatch, *cases)

        return test
    _RUN.update(cases.values())

    @pytest.mark.parametrize("case", list(cases.values()), ids=list(cases))
    def test(monkeypatch, case):
        _assert_isolated(monkeypatch, *case)

    return test


# The cases under the names and ids of the tests they replace, then the rest,
# so that every row runs on every layout it applies to.
test_batch_matches_solo_fits_on_bclr = _isolation_test({
    "mu": ("bclr", "mu"), "kl": ("bclr", "kl"), "als": ("bclr", "als"),
    "mu-every7": ("bclr-every7", "mu"), "kl-every7": ("bclr-every7", "kl"),
    "als-every7": ("bclr-every7", "als"), "mu-rho": ("bclr-rho", "mu"),
    "als-rho": ("bclr-rho", "als"),
})
test_mixed_batch_matches_solo_fits_on_bclr = _isolation_test(
    {"0.0": ("bclr", "mixed"), "0.5": ("bclr-rho", "mixed")})
test_batch_seeds_stop_at_their_own_iteration = _isolation_test(
    {"mu": ("stop-by-tol-mu", "mu"), "kl-every7": ("stop-by-tol-kl", "kl"),
     "als": ("stop-by-tol-als", "als")})
test_mixed_batch_entries_stop_at_their_own_iteration = _isolation_test(("stop-by-tol-mu", "mixed"))
test_batch_takes_numpy_seeds_and_fails_bad_seeds_alone = _isolation_test(("seeds", "mu"))
test_mixed_batch_fails_bad_seeds_alone = _isolation_test(("seeds", "mixed"))
test_batch_nonfinite_seed_fails_alone = _isolation_test(
    {"True": ("nan-in-mu", "mu"), "False": ("nan-in-als", "als")})
test_mixed_batch_nonfinite_entry_fails_alone = _isolation_test(
    {"nonneg": ("nan-in-mu", "mixed"), "signed": ("nan-in-als", "mixed")})
test_batch_ridge_notes_stay_with_their_seed = _isolation_test(("singular-starts-50", "als"))
test_batch_seed_whose_ridged_solve_fails_ends_alone = _isolation_test(("singular-starts-5", "als"))
test_mixed_batch_ridge_notes_and_failed_solves_stay_with_their_entry = _isolation_test(
    ("singular-starts-50", "mixed"))
test_coercivity_violation_ends_its_seed_alone = _isolation_test(
    {block: (f"cap-{block}", "mu") for block in ("1", "7", "default")})
test_mixed_batch_coercivity_violation_ends_its_entry_alone = _isolation_test(
    {block: (f"cap-{block}", "mixed") for block in ("1", "7", "default")})
test_mixed_batch_entry_whose_model_fails_to_package_ends_alone = _isolation_test(
    {f"{victim}-{tol}": (f"no-normal-form-{f}-{tol}", "mixed")
     for victim, f in [("nonneg", "mu"), ("signed", "als")] for tol in (0.0, 1e-3)})
test_batch_matches_solo_on_a_mode_of_size_one = _isolation_test(("mode-of-size-one", "kl"))
test_batch_entry_ends_as_it_does_alone = _isolation_test(
    {f"{row}-{layout}": (row, layout) for row in _ISOLATION for layout in _ISOLATION[row].layouts
     if (row, layout) not in _RUN})


def test_batch_without_seeds_is_empty():
    assert solvers.fit_seeds(_NB, FitConfig(rank=2), []) == []


@pytest.mark.parametrize("target", [np.ones((2, 2)), [[1.0]], None])
def test_a_target_that_is_not_a_tensor_fails_before_any_start(monkeypatch, target):
    def no_start(*args):
        raise AssertionError("a start was drawn")

    monkeypatch.setattr(solvers, "_init_nonneg", no_start)
    monkeypatch.setattr(solvers, "_init_signed", no_start)
    name = type(target).__name__
    for fit, nonneg in [(fit_nncp, True), (fit_cp_unconstrained, False)]:
        with pytest.raises(ValueError, match=f"the target must be a DenseTensor, got {name}"):
            fit(target, FitConfig(rank=2, nonneg=nonneg))
        with pytest.raises(ValueError, match=f"the target must be a DenseTensor, got {name}"):
            solvers.fit_seeds(target, FitConfig(rank=2, nonneg=nonneg), [0, 1])


@pytest.mark.parametrize("trace_every", [1, 7])
@pytest.mark.parametrize(
    "loss, nonneg", [(Loss.FROBENIUS, True), (Loss.KL, True), (Loss.FROBENIUS, False)],
    ids=["mu", "kl", "als"],
)
def test_every_trace_row_enters_through_append(monkeypatch, loss, nonneg, trace_every):
    # Every row enters through FitTrace.append_block, the one way into a
    # trace, so its order and finiteness checks see every row, in a
    # fixed-length batch and in one whose seeds stop by tol, each on its own.
    rows = collections.Counter()
    real = FitTrace.append_block

    def counting(self, iters, *columns):
        rows[id(self)] += len(iters)
        return real(self, iters, *columns)

    monkeypatch.setattr(FitTrace, "append_block", counting)
    cfg = FitConfig(
        rank=2, loss=loss, nonneg=nonneg, max_iters=30, tol=0.0, trace_every=trace_every
    )
    noise = DenseTensor.from_array(np.random.default_rng(3).uniform(size=(3, 4, 5)))
    stopped = dataclasses.replace(cfg, max_iters=3000, tol=1e-6)
    for a, c in [(_NB, cfg), (noise, stopped)]:
        rows.clear()
        batch = solvers.fit_seeds(a, c, [0, 1, 2, 3])
        assert {id(r.trace): len(r.trace) for r in batch} == dict(rows)
    assert all(r.converged for r in batch)
    assert len({r.trace.columns.iter[-1] for r in batch}) > 1



def test_signed_target_fails_only_its_nonnegative_entries():
    signed = DenseTensor.from_array(np.random.default_rng(8).normal(size=(3, 4, 5)))
    cfg = FitConfig(rank=2, max_iters=20, tol=0.0)
    batch = assert_batch_matches_solo(signed, cfg, [0, 1], ["als", "mu"])
    assert [(type(r), str(r)) for r in batch[2:]] == [
        (ValueError, "fit_nncp requires a nonnegative tensor")
    ] * 2
    assert all(type(r) is solvers.FitResult for r in batch[:2])
    assert [str(r) for r in solvers.fit_seeds(signed, cfg, [0, 1, 2])] == [str(batch[2])] * 3
    with pytest.raises(ValueError, match="fit_nncp requires a nonnegative tensor"):
        fit_nncp(signed, cfg)


_TAILS = [(solvers, "_mu_tail"), (solvers, "_als_tail")]


def _tail_calls(calls):
    """The MU and ALS tail calls counted by _count_calls; none may have no entries."""
    assert all(len(w) for w, *_ in calls["_mu_tail"] + calls["_als_tail"])
    return len(calls["_mu_tail"]), len(calls["_als_tail"])


def test_mixed_batch_calls_no_tail_after_its_last_als_entry_ends(monkeypatch):
    # Every signed start has twin columns, so each ridged solve of mode 0
    # fails in the first sweep: the ALS tail runs once, and the MU tail alone
    # from mode 1 on.
    _singular_starts(monkeypatch, twin_columns=range(3))
    calls = _count_calls(monkeypatch, _TAILS)
    cfg = FitConfig(rank=2, max_iters=30, tol=0.0)
    batch = assert_batch_matches_solo(_NB, cfg, [0, 1, 2], ["als", "mu"])
    assert all(type(r) is np.linalg.LinAlgError for r in batch[:3])
    assert all(type(r) is solvers.FitResult for r in batch[3:])
    calls.clear()
    solvers._fit_batch(_NB, cfg, [(s, f) for f in (True, False) for s in (0, 1, 2)])
    assert _tail_calls(calls) == (3 * 30, 1)


def test_mixed_batch_calls_no_tail_after_its_last_mu_entry_ends(monkeypatch):
    # Nonnegative seeds 1 and 2 violate the tightened cap, each at its own
    # iteration; with blocks of one row each ends there, so the MU tail runs
    # for the sweeps up to the later one, and the ALS tail to max_iters.
    cfg = FitConfig(rank=2, max_iters=300, tol=0.0)
    last = max(_first_below(_solo(_NB, cfg, s), 0.02) for s in (1, 2))
    monkeypatch.setattr(solvers, "TRACE_BLOCK", 1)
    _violate_below(monkeypatch, 0.02)
    calls = _count_calls(monkeypatch, _TAILS)
    batch = assert_batch_matches_solo(_NB, cfg, [1, 2], ["als", "mu"])
    assert all(type(r) is RuntimeError for r in batch[2:])
    assert all(type(r) is solvers.FitResult for r in batch[:2])
    calls.clear()
    solvers._fit_batch(_NB, cfg, [(s, f) for f in (True, False) for s in (1, 2)])
    assert _tail_calls(calls) == (3 * last, 3 * 300)


# --- trace blocks -----------------------------------------------------------------


@pytest.mark.parametrize("block", [1, None, 1000], ids=["1", "default", "1000"])
def test_coercivity_violation_wins_over_a_later_nonfinite_objective(monkeypatch, block):
    # The violation ends the seed at its first violating row, so a NaN
    # objective three sweeps later, before the block is flushed, never counts.
    cfg = FitConfig(rank=2, max_iters=300, tol=0.0)
    clean = _solo(_NB, cfg, 1)
    first = _first_below(clean, 0.02)
    real = solvers._loss

    def late_nan(a0, loss, rho):
        per_seed, calls = real(a0, loss, rho), []

        def poisoned(x, resid, factors):
            calls.append(None)  # one call per iteration, from iteration 0
            objs = per_seed(x, resid, factors)
            return [math.nan] * len(objs) if len(calls) == first + 4 else objs

        return poisoned

    if block:
        monkeypatch.setattr(solvers, "TRACE_BLOCK", block)
    monkeypatch.setattr(solvers, "_loss", late_nan)
    failed = _solo(_NB, cfg, 1)
    assert (type(failed), str(failed)) == (ValueError, "trace objective must be finite")
    _violate_below(monkeypatch, 0.02)
    violated = _solo(_NB, cfg, 1)
    assert (type(violated), str(violated)) == (RuntimeError, _first_violation(clean, 0.02))



@pytest.mark.parametrize("nonneg", [True, False])
def test_nonfinite_objective_ends_the_seed_at_its_iteration(monkeypatch, nonneg):
    # The fit ends at iteration 4, after that sweep's three Khatri-Rao
    # products (13 in all), not at the end of its trace block.
    entry = (1, "mu" if nonneg else "als")
    _nan_at_call_11(entry)(monkeypatch, [entry], None)
    calls = _count_calls(monkeypatch, [(solvers, "_khatri_rao")])
    result = _solo(_NB, FitConfig(rank=2, nonneg=nonneg, max_iters=50, tol=0.0), 1)
    assert (type(result), str(result)) == (ValueError, "trace objective must be finite")
    assert len(calls["_khatri_rao"]) == 13


@settings(database=None, deadline=None, max_examples=30)
@given(st.data())
def test_trace_block_boundaries_never_show(data):
    # A batch and each solo fit give the same traces, notes, models or
    # exceptions, on every shape (modes of size 1 included) and whatever the
    # block size; "mix" draws each seed's family, so a Frobenius batch may
    # hold both.
    order = data.draw(st.integers(1, 3), label="order")
    shape = tuple(data.draw(st.lists(st.integers(1, 4), min_size=order, max_size=order)))
    solver = data.draw(st.sampled_from(["mu", "kl", "als", "mix"]), label="solver")
    cfg = FitConfig(
        rank=data.draw(st.integers(1, 3), label="rank"),
        loss=Loss.KL if solver == "kl" else Loss.FROBENIUS,
        nonneg=solver != "als",
        max_iters=data.draw(st.integers(1, 80), label="max_iters"),
        tol=data.draw(st.sampled_from([0.0, 1e-4]), label="tol"),
        trace_every=data.draw(st.integers(1, 9), label="trace_every"),
    )
    seeds = data.draw(st.lists(st.integers(0, 99), min_size=1, max_size=4), label="seeds")
    if solver == "mix":
        families = st.lists(st.booleans(), min_size=len(seeds), max_size=len(seeds))
        entries = list(zip(seeds, data.draw(families, label="nonneg")))
    else:
        entries = [(seed, cfg.nonneg) for seed in seeds]
    block = data.draw(st.sampled_from([1, 2, 7, solvers.TRACE_BLOCK]), label="TRACE_BLOCK")
    rng = np.random.default_rng(data.draw(st.integers(0, 99), label="data seed"))
    a = DenseTensor.from_array(rng.uniform(size=shape))

    def fits():
        if solver == "mix":
            batch = solvers._fit_batch(a, cfg, entries)
        else:
            batch = solvers.fit_seeds(a, cfg, seeds)
        solo = [_solo(a, dataclasses.replace(cfg, nonneg=f), seed) for seed, f in entries]
        return [_fingerprint(r) for r in batch], [_fingerprint(r) for r in solo]

    default = fits()
    assert default[0] == default[1]
    with mock.patch.object(solvers, "TRACE_BLOCK", block):
        assert fits() == default
