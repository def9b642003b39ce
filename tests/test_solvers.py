import collections
import dataclasses
import functools
import hashlib
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nncp import solvers
from nncp.divergence import DivergenceKind, distance
from nncp.kruskal import KruskalModel, random_model, reconstruct
from nncp.pathologies import bclr_limit, kl_counterexample, w_sequence
from nncp.solvers import (
    KL_SOLVER_FLOOR,
    TRACE_HEADER,
    FitConfig,
    FitTrace,
    Loss,
    fit_cp_unconstrained,
    fit_nncp,
    objective,
)
from nncp.tensor import DenseTensor, norm
from oracles import brute_kl


def rank1_target(seed, shape=(4, 5, 3), e_norm=5.0):
    return reconstruct(random_model(shape, 1, seed=seed, nonneg=True, e_norm=e_norm))


def assert_monotone(trace, slack=1e-10):
    objs = [r.objective for r in trace.rows]
    for prev, cur in zip(objs, objs[1:]):
        assert cur <= prev + slack


def assert_coercivity(trace, a, loss=Loss.FROBENIUS, reg_rho=0.0):
    a_e = norm(a, "E")
    root_n = math.sqrt(a.size)
    for row in trace.rows:
        cap_e = a_e + row.residual_E
        assert row.delta_l1 <= cap_e + 1e-9 * (1.0 + cap_e)
        if loss is Loss.FROBENIUS and reg_rho == 0.0:
            res_f = math.sqrt(row.objective)
            cap_f = a_e + root_n * res_f
            assert row.delta_l1 <= cap_f + 1e-9 * (1.0 + cap_f)


# --- FitConfig / FitTrace plumbing -------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        FitConfig(rank=0)
    with pytest.raises(ValueError):
        FitConfig(rank=1, max_iters=0)
    with pytest.raises(ValueError):
        FitConfig(rank=1, tol=-1e-3)
    with pytest.raises(ValueError):
        FitConfig(rank=1, reg_rho=-1.0)
    with pytest.raises(ValueError):
        FitConfig(rank=1, loss=Loss.KL, reg_rho=0.5)
    with pytest.raises(ValueError):
        FitConfig(rank=1, trace_every=0)
    with pytest.raises(ValueError, match="nonneg"):
        FitConfig(rank=1, loss=Loss.KL, nonneg=False)
    for bad in (
        {"rank": 2.5},
        {"rank": True},
        {"max_iters": 2.5},
        {"max_iters": np.float64(3.0)},
        {"trace_every": 1.5},
        {"trace_every": np.True_},
        {"seed": None},
        {"seed": -1},
        {"seed": False},
        {"tol": math.nan},
        {"tol": math.inf},
        {"reg_rho": math.nan},
        {"reg_rho": math.inf},
        {"loss": "kl"},
        {"nonneg": "no"},
    ):
        with pytest.raises(ValueError):
            FitConfig(**{"rank": 1, **bad})
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
    # numpy scalars print as plain numbers, as Python floats do
    trace.append_block([np.int64(1)], [np.float64(4.0)], *np.ones((3, 1)))
    csv = trace.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == TRACE_HEADER
    assert lines[1:] == ["0,5.0,1.0,1.0,1.0", "1,4.0,1.0,1.0,1.0"]


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
    with pytest.raises(ValueError, match="unknown loss 'kl'"):
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
    floored = np.maximum(xhat, KL_SOLVER_FLOOR)
    got = solvers._loss(a_arr, Loss.KL, 0.0)(xhat, a_arr - xhat, None)
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
        floored += solvers._loss(a_arr, Loss.KL, 0.0)(xhat, a_arr - xhat, None)
        unfloored += [_distance_kl(a_arr, x) for x in xhat]
    digests = [
        hashlib.sha256("\n".join(v.hex() for v in values).encode()).hexdigest()
        for values in (floored, unfloored)
    ]
    assert digests == [
        "3f01ee456f6ebb21bfbceebaed50bbc1c0d0a70b116ed715ff89ca599d57bbdd",
        "657c09e05343c85f6ec8521e9794b4f812a6209d456241b634b0262d70c6390a",
    ]


def _kl_mass_gap(a, trace):
    """Largest |delta_l1 - ||A||_E| / ||A||_E over the rows after iteration 0:
    every KL multiplicative update keeps sum X = ||A||_E."""
    a_e = norm(a, "E")
    return max(abs(r.delta_l1 - a_e) / a_e for r in trace.rows[1:])


@pytest.mark.parametrize("rank", [1, 3, 6])
def test_kl_updates_keep_the_mass_of_a_target_with_zeros(rank):
    rng = np.random.default_rng(5)
    arr = rng.uniform(size=(3, 4, 5))
    arr[rng.uniform(size=arr.shape) < 0.3] = 0.0
    a = DenseTensor.from_array(arr)
    res = fit_nncp(a, FitConfig(rank=rank, loss=Loss.KL, max_iters=300, tol=0.0))
    assert _kl_mass_gap(a, res.trace) <= 1e-12


def test_kl_fit_attains_the_boundary_infimum():
    # The indicator of kl_counterexample is a nonnegative rank-1 tensor with
    # zeros: no strictly positive X_n reaches D_KL = 0, but one sweep of MU
    # lands on A itself, on the boundary of the orthant.
    a, _ = kl_counterexample(1)
    for seed in range(5):
        res = fit_nncp(a, FitConfig(rank=1, loss=Loss.KL, seed=seed))
        rows = res.trace.rows
        assert rows[0].objective > 0.0
        assert rows[1].objective == 0.0
        assert res.converged and res.final_objective == 0.0
        assert res.model.delta.tolist() == [1.0]
        assert [f.tolist() for f in res.model.factors] == [[[1.0], [0.0]]] * 3
        assert _kl_mass_gap(a, res.trace) <= 1e-12
    for n in (1, 10, 10**6):
        assert distance(*kl_counterexample(n), DivergenceKind.KL) > 0.0


# --- fit_nncp -----------------------------------------------------------------


def test_fit_nncp_rank1_recovery():
    a = rank1_target(seed=42)
    res = fit_nncp(a, FitConfig(rank=1, max_iters=2000, tol=1e-14))
    assert res.trace.rows[-1].residual_E <= 1e-6 * norm(a, "E")
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


def test_fit_nncp_determinism():
    a = rank1_target(seed=3)
    cfg = FitConfig(rank=2, max_iters=50, tol=0.0, seed=9)
    t1 = fit_nncp(a, cfg).trace.to_csv()
    t2 = fit_nncp(a, cfg).trace.to_csv()
    assert t1 == t2


def test_fit_nncp_monotone_and_coercive_frobenius():
    a = reconstruct(random_model((4, 3, 3), 3, seed=21, nonneg=True, e_norm=9.0))
    res = fit_nncp(a, FitConfig(rank=2, max_iters=400, tol=0.0, seed=4))
    assert_monotone(res.trace)
    assert_coercivity(res.trace, a)


def test_fit_nncp_monotone_and_coercive_kl():
    a = reconstruct(random_model((3, 3, 4), 2, seed=22, nonneg=True, e_norm=1.0))
    res = fit_nncp(a, FitConfig(rank=2, loss=Loss.KL, max_iters=400, tol=0.0, seed=5))
    assert_monotone(res.trace)
    assert_coercivity(res.trace, a, loss=Loss.KL)
    assert all(np.isfinite(r.objective) for r in res.trace.rows)


def test_fit_nncp_kl_with_zero_entries_in_target():
    a = bclr_limit(4)
    res = fit_nncp(a, FitConfig(rank=5, loss=Loss.KL, max_iters=150, tol=0.0, seed=2))
    assert_monotone(res.trace)
    assert all(np.isfinite(r.objective) for r in res.trace.rows)


def test_fit_nncp_bclr_limit_residual_floor():
    a = bclr_limit(4)
    for seed in range(3):
        res = fit_nncp(a, FitConfig(rank=5, max_iters=2000, tol=0.0, seed=seed))
        assert res.trace.rows[-1].residual_E > 1e-3
        assert_coercivity(res.trace, a)


def test_fit_nncp_naive_bayes_recovery_kl():
    m = random_model((3, 4, 5), 2, seed=101, nonneg=True, e_norm=1.0)
    a = reconstruct(m)
    res = fit_nncp(a, FitConfig(rank=2, loss=Loss.KL, max_iters=30000, tol=1e-13, seed=1))
    assert res.final_objective <= 1e-8


def test_fit_nncp_regularized_monotone():
    a = reconstruct(random_model((3, 4, 3), 2, seed=17, nonneg=True, e_norm=4.0))
    res = fit_nncp(a, FitConfig(rank=2, max_iters=300, tol=0.0, reg_rho=0.5, seed=3))
    assert_monotone(res.trace)
    assert_coercivity(res.trace, a, reg_rho=0.5)


def test_fit_nncp_zero_tensor():
    res = fit_nncp(DenseTensor.zeros([3, 3, 3]), FitConfig(rank=2, max_iters=5, tol=0.0))
    assert res.final_objective == 0.0
    assert res.model.r == 0


def test_fit_nncp_output_sorted_and_final_traced():
    a = reconstruct(random_model((3, 3, 3), 3, seed=30, nonneg=True, e_norm=5.0))
    res = fit_nncp(a, FitConfig(rank=3, max_iters=73, tol=0.0, seed=6, trace_every=10))
    deltas = res.model.delta
    assert all(x >= y for x, y in zip(deltas, deltas[1:]))
    iters = [r.iter for r in res.trace.rows]
    assert iters[0] == 0
    assert iters[-1] == 73  # final row present despite trace_every=10
    assert all(b > a for a, b in zip(iters, iters[1:]))
    assert res.final_objective == res.trace.rows[-1].objective


def test_fit_nncp_trace_every_thins_rows():
    a = rank1_target(seed=8)
    res = fit_nncp(a, FitConfig(rank=1, max_iters=40, tol=0.0, trace_every=10))
    assert [r.iter for r in res.trace.rows] == [0, 10, 20, 30, 40]


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
    with pytest.raises(ValueError):
        fit_cp_unconstrained(a, FitConfig(rank=1, nonneg=False, loss=Loss.KL))


def test_fit_als_determinism():
    a = rank1_target(seed=2)
    cfg = FitConfig(rank=2, nonneg=False, max_iters=40, tol=0.0, seed=7)
    t1 = fit_cp_unconstrained(a, cfg).trace.to_csv()
    t2 = fit_cp_unconstrained(a, cfg).trace.to_csv()
    assert t1 == t2


def test_fit_als_bclr_degenerate_path():
    a = bclr_limit(4)
    res = fit_cp_unconstrained(
        a, FitConfig(rank=5, nonneg=False, max_iters=2000, tol=0.0, seed=0)
    )
    objs = [r.objective for r in res.trace.rows]
    assert all(cur < prev for prev, cur in zip(objs, objs[1:]))  # strictly decreasing
    assert res.trace.rows[-1].delta_l1 > 10 * norm(a, "F")


def test_fit_als_w_limit_degenerate_signature():
    _, a, _, _ = w_sequence([1])
    res = fit_cp_unconstrained(
        a, FitConfig(rank=2, nonneg=False, max_iters=2000, tol=0.0, seed=0)
    )
    assert_monotone(res.trace)
    first, last = res.trace.rows[0], res.trace.rows[-1]
    assert last.residual_E <= first.residual_E / 2
    assert last.max_component_F > 2.5 * norm(a, "F")  # slow blow-up, small budget


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
        res.trace.rows[-1].residual_E, rel=1e-9, abs=1e-12
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


@pytest.mark.parametrize(
    "fit, loss, nonneg, shape, per_sweep",
    [
        (fit_nncp, Loss.FROBENIUS, True, (3, 4, 2), 1),
        (fit_cp_unconstrained, Loss.FROBENIUS, False, (3, 4, 2), 1),
        (fit_nncp, Loss.KL, True, (3, 4, 2), 3),
        (fit_nncp, Loss.KL, True, (2, 3, 2, 2), 4),
    ],
)
def test_reconstructions_per_fit(monkeypatch, fit, loss, nonneg, shape, per_sweep):
    # One reconstruction per sweep, shared by the objective and the trace
    # row; KL updates of modes 1..k-1 each need a fresh one.
    calls = []
    real = solvers._reconstruct

    def counting(w, kr):
        calls.append(len(w))
        return real(w, kr)

    monkeypatch.setattr(solvers, "_reconstruct", counting)
    a = reconstruct(random_model(shape, 2, seed=3, nonneg=True, e_norm=2.0))
    iters = 7
    fit(a, FitConfig(rank=2, loss=loss, nonneg=nonneg, max_iters=iters, tol=0.0))
    assert len(calls) == per_sweep * iters + 1


@pytest.mark.parametrize("shape", [(5,), (3, 4, 2), (2, 3, 2, 2)], ids=["o1", "o3", "o4"])
@pytest.mark.parametrize(
    "loss, nonneg", [(Loss.FROBENIUS, True), (Loss.KL, True), (Loss.FROBENIUS, False)],
    ids=["mu", "kl", "als"],
)
def test_factor_statistics_per_fit(monkeypatch, loss, nonneg, shape):
    # Each factor's Gram (column sums for KL) is computed once at the start
    # and once after each of its updates: N per sweep, where recomputing the
    # other factors' statistics in every mode update would take N(N-1).
    calls = []
    stat = solvers._factor_stat

    def counting(f, kl):
        calls.append(kl)
        return stat(f, kl)

    monkeypatch.setattr(solvers, "_factor_stat", counting)
    a = reconstruct(random_model(shape, 2, seed=3, nonneg=True, e_norm=2.0))
    iters, n = 7, len(shape)
    fit = fit_nncp if nonneg else fit_cp_unconstrained
    fit(a, FitConfig(rank=1, loss=loss, nonneg=nonneg, max_iters=iters, tol=0.0))
    assert calls == [loss is Loss.KL] * (n + n * iters)


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
@pytest.mark.parametrize("nonneg, with_colsums", [(True, False), (True, True), (False, False)])
def test_trace_quantities_match_the_numpy_wrappers_bit_for_bit(stack, layout, nonneg, with_colsums):
    # Pairwise summation blocks a contiguous reduction by 8, so the layout and
    # the lengths around 8 and 16 decide the rounding; ALS solves come back
    # as (S, r, d) arrays that the update copies to C order, while its start
    # (iteration 0) is stacked C-ordered.  Concatenating the factors for one
    # np.add.reduceat, or padding them into one stack, rounds differently.  A
    # block of three iterates, at ranks below and above 8.  with_colsums:
    # delta_l1 is also bit-equal to the product of the column sums that the
    # KL driver caches, so the trace pass needs no copy of them.
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
            resid = rng.standard_normal((stack, 9, 17, 3))
            resid[rng.random(resid.shape) < 0.2] = -0.0
            resids.append(resid)
            blocks.append(tuple(factors))
        got = solvers._trace_columns(resids, blocks, nonneg)
        for t in range(3):
            colsums = [solvers._factor_stat(f, True) for f in blocks[t]] if with_colsums else None
            want = _wrapper_trace_quantities(resids[t], list(blocks[t]), nonneg, colsums)
            for g, w in zip(got, want):
                assert g.shape == (3, stack) and w.shape == (stack,)
                assert g[t].tobytes() == w.tobytes()


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


@pytest.mark.parametrize("nonneg", [True, False])
def test_trace_block_numpy_calls_do_not_grow_with_the_batch(nonneg):
    # One block pass makes the same numpy calls for one seed as for five:
    # the seeds share every call, none is made per seed.
    rng = np.random.default_rng(2)
    counts = []
    for stack in (1, 5):
        resids = [rng.standard_normal((stack, 3, 20)) for _ in range(4)]
        blocks = [tuple(rng.random((stack, d, 2)) for d in (3, 4, 5)) for _ in range(4)]
        calls = collections.Counter()
        with mock.patch.object(solvers, "np", _CountingNumpy(np, calls)):
            solvers._trace_columns(resids, blocks, nonneg)
        counts.append(calls)
    assert counts[0] and counts[0] == counts[1]


@pytest.mark.parametrize(
    "loss, nonneg", [(Loss.FROBENIUS, True), (Loss.KL, True), (Loss.FROBENIUS, False)],
    ids=["mu", "kl", "als"],
)
def test_trace_blocks_see_only_c_ordered_factor_stacks(monkeypatch, loss, nonneg):
    # _trace_columns reduces every factor stack as a C-ordered array, so
    # every solver must hand it C-ordered stacks, stopped seeds sliced out.
    seen = []
    real = solvers._trace_columns

    def recording(resids, factors, *rest):
        seen.extend(f.flags.c_contiguous for fs in factors for f in fs)
        return real(resids, factors, *rest)

    monkeypatch.setattr(solvers, "_trace_columns", recording)
    noise = DenseTensor.from_array(np.random.default_rng(3).uniform(size=(3, 4, 5)))
    cfg = FitConfig(rank=2, loss=loss, nonneg=nonneg, max_iters=3000, tol=1e-6, trace_every=3)
    batch = solvers.fit_seeds(noise, cfg, [0, 1, 2, 3])
    assert len({r.trace.rows[-1].iter for r in batch}) > 1
    assert seen and all(seen)


# np.linalg.norm, np.sum and np.where calls of one fit with tol=0, by solver
# and order: all of them set up the fit or package its model, none runs per
# iteration.
_WRAPPER_CALLS = {
    ("mu", "o1"): {"sum": 4},
    ("mu", "o3"): {"sum": 10},
    ("mu", "o4"): {"sum": 13},
    ("kl", "o1"): {"sum": 4},
    ("kl", "o3"): {"sum": 10},
    ("kl", "o4"): {"sum": 13},
    ("als", "o1"): {"norm": 2},
    ("als", "o3"): {"norm": 6},
    ("als", "o4"): {"norm": 8},
}


@pytest.mark.parametrize("shape", [(5,), (3, 4, 2), (2, 3, 2, 2)], ids=["o1", "o3", "o4"])
@pytest.mark.parametrize(
    "solver, loss, nonneg",
    [("mu", Loss.FROBENIUS, True), ("kl", Loss.KL, True), ("als", Loss.FROBENIUS, False)],
    ids=["mu", "kl", "als"],
)
def test_numpy_wrapper_calls_per_fit(monkeypatch, solver, loss, nonneg, shape):
    calls = collections.Counter()
    for module, name in [(np.linalg, "norm"), (np, "sum"), (np, "where")]:
        real = getattr(module, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    a = reconstruct(random_model(shape, 2, seed=3, nonneg=True, e_norm=2.0))
    fit = fit_nncp if nonneg else fit_cp_unconstrained
    per_fit = []
    for iters in (3, 30):
        calls.clear()
        fit(a, FitConfig(rank=2, loss=loss, nonneg=nonneg, max_iters=iters, tol=0.0))
        per_fit.append(dict(calls))
    order = f"o{len(shape)}"
    assert per_fit[0] == per_fit[1] == _WRAPPER_CALLS[solver, order]


@pytest.mark.parametrize("shape", [(5,), (3, 4, 2), (2, 3, 2, 2)], ids=["o1", "o3", "o4"])
def test_np_log_calls_per_kl_fit(monkeypatch, shape):
    # log a once per fit, then one log of the reconstruction per iteration.
    calls = []
    real = np.log

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "log", counting)
    a = reconstruct(random_model(shape, 2, seed=3, nonneg=True, e_norm=2.0))
    for iters in (3, 30):
        calls.clear()
        fit_nncp(a, FitConfig(rank=2, loss=Loss.KL, max_iters=iters, tol=0.0))
        assert len(calls) == 1 + (iters + 1)


# --- seed batches ---------------------------------------------------------------


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


def assert_batch_matches_solo(a, cfg, seeds):
    batch = solvers.fit_seeds(a, cfg, seeds)
    assert len(batch) == len(seeds)
    for seed, result in zip(seeds, batch):
        assert _fingerprint(result) == _fingerprint(_solo(a, cfg, seed)), seed
    return batch


_NB = reconstruct(random_model((3, 4, 5), 2, seed=77, nonneg=True, e_norm=3.0))


@pytest.mark.parametrize(
    "cfg",
    [
        FitConfig(rank=5, max_iters=300, tol=0.0),
        FitConfig(rank=5, loss=Loss.KL, max_iters=300, tol=0.0),
        FitConfig(rank=5, nonneg=False, max_iters=300, tol=0.0),
        FitConfig(rank=5, max_iters=300, tol=0.0, trace_every=7),
        FitConfig(rank=5, loss=Loss.KL, max_iters=300, tol=0.0, trace_every=7),
        FitConfig(rank=5, nonneg=False, max_iters=300, tol=0.0, trace_every=7),
        FitConfig(rank=5, max_iters=300, tol=0.0, reg_rho=0.5),
        FitConfig(rank=5, nonneg=False, max_iters=300, tol=0.0, reg_rho=0.5),
    ],
    ids=["mu", "kl", "als", "mu-every7", "kl-every7", "als-every7", "mu-rho", "als-rho"],
)
def test_batch_matches_solo_fits_on_bclr(cfg):
    assert_batch_matches_solo(bclr_limit(4), cfg, [56, 57, 58, 59, 60, 1020])


@pytest.mark.parametrize(
    "cfg",
    [
        FitConfig(rank=2, max_iters=3000, tol=1e-6),
        FitConfig(rank=2, loss=Loss.KL, max_iters=3000, tol=1e-7, trace_every=7),
        FitConfig(rank=2, nonneg=False, max_iters=3000, tol=1e-9),
    ],
    ids=["mu", "kl-every7", "als"],
)
def test_batch_seeds_stop_at_their_own_iteration(cfg):
    # A rank-2 fit of uniform noise settles at a positive objective, where
    # the relative-decrease rule stops each seed at its own iteration.
    noise = DenseTensor.from_array(np.random.default_rng(3).uniform(size=(3, 4, 5)))
    batch = assert_batch_matches_solo(noise, cfg, list(range(6)))
    assert all(r.converged for r in batch)
    assert len({r.trace.rows[-1].iter for r in batch}) > 1


def test_batch_matches_solo_on_a_mode_of_size_one():
    # The summation order of each seed's MTTKRP does not depend on the
    # batch, also where a mode has size 1 and the rank is 1.
    a = DenseTensor.from_array(np.random.default_rng(1).uniform(size=(1, 2, 2)))
    cfg = FitConfig(rank=1, loss=Loss.KL, max_iters=1, tol=0.0)
    assert_batch_matches_solo(a, cfg, [0, 0])


def test_batch_takes_numpy_seeds_and_fails_bad_seeds_alone():
    cfg = FitConfig(rank=2, max_iters=20, tol=0.0)
    assert_batch_matches_solo(_NB, cfg, np.arange(3))
    batch = solvers.fit_seeds(_NB, cfg, [0, -1, 2.5, None, 1])
    assert [type(r) for r in batch[1:4]] == [ValueError] * 3
    solo = [fit_nncp(_NB, dataclasses.replace(cfg, seed=seed)) for seed in (0, 1)]
    assert [_fingerprint(r) for r in (batch[0], batch[4])] == [_fingerprint(r) for r in solo]


def test_batch_without_seeds_is_empty():
    assert solvers.fit_seeds(_NB, FitConfig(rank=2), []) == []


def test_batch_ridge_notes_stay_with_their_seed(monkeypatch):
    real = solvers._init_signed

    def zero_column(a, cfg):
        w = real(a, cfg)
        if cfg.seed == 2:  # mode 0's Gram is singular from the first sweep on
            w[-1][:, 1] = 0.0
        return w

    monkeypatch.setattr(solvers, "_init_signed", zero_column)
    cfg = FitConfig(rank=2, nonneg=False, max_iters=50, tol=0.0)
    batch = assert_batch_matches_solo(_NB, cfg, [0, 1, 2, 3])
    assert [bool(r.trace.notes) for r in batch] == [False, False, True, False]
    assert (1, "ridge jitter on mode 0") in batch[2].trace.notes


@pytest.mark.parametrize("nonneg", [True, False])
def test_batch_nonfinite_seed_fails_alone(monkeypatch, nonneg):
    # NaN enters one stack entry's Khatri-Rao product at iteration 4 (mode 1).
    cfg = FitConfig(rank=2, nonneg=nonneg, max_iters=50, tol=0.0)
    seeds = [0, 1, 2]
    clean = [_solo(_NB, cfg, seed) for seed in seeds]
    real = solvers._khatri_rao

    def poison(entry):
        calls = []

        def poisoned(factors, n):
            out = real(factors, n)
            calls.append(n)
            if len(calls) == 11:
                out[entry] = np.nan
            return out

        monkeypatch.setattr(solvers, "_khatri_rao", poisoned)

    poison(0)
    alone = _solo(_NB, cfg, 1)
    assert isinstance(alone, ValueError)
    assert str(alone) == "trace objective must be finite"
    poison(1)
    batch = solvers.fit_seeds(_NB, cfg, seeds)
    assert _fingerprint(batch[1]) == _fingerprint(alone)
    for j in (0, 2):
        assert _fingerprint(batch[j]) == _fingerprint(clean[j])


def test_batch_seed_whose_ridged_solve_fails_ends_alone(monkeypatch):
    # Seed 1 starts with two identical columns, scaled by 1e10, in modes 1
    # and 2, so mode 0's Gram stays singular after the 1e-12 ridge: its
    # ridged solve raises in the first mode update, and fitting seed 1 alone
    # ends every stack entry there.
    real = solvers._init_signed

    def twin_columns(a, cfg):
        w = real(a, cfg)
        if cfg.seed == 1:
            for m in (1, 2):
                w[m][:, :] = w[m][:, :1] * 1e10
        return w

    monkeypatch.setattr(solvers, "_init_signed", twin_columns)
    cfg = FitConfig(rank=2, nonneg=False, max_iters=5, tol=0.0)
    batch = assert_batch_matches_solo(_NB, cfg, [0, 1, 2])
    assert [type(r) for r in batch] == [solvers.FitResult, np.linalg.LinAlgError, solvers.FitResult]
    assert str(batch[1]) == "Singular matrix"


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
    assert len({r.trace.rows[-1].iter for r in batch}) > 1


@pytest.mark.parametrize(
    "loss, nonneg", [(Loss.FROBENIUS, True), (Loss.KL, True), (Loss.FROBENIUS, False)],
    ids=["mu", "kl", "als"],
)
@pytest.mark.parametrize("bound", ["iterates", "entries"])
def test_np_sqrt_calls_per_fit_scale_with_trace_blocks(monkeypatch, loss, nonneg, bound):
    # The trace quantities take one np.sqrt per block of 8 rows, not one per
    # row: 7 and 8 rows are one block, 63 and 64 rows eight.  A block holds
    # at most TRACE_BLOCK iterates and TRACE_BLOCK_ENTRIES residual entries
    # (_NB has 60).
    calls = []
    real = np.sqrt

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "sqrt", counting)
    if bound == "iterates":
        monkeypatch.setattr(solvers, "TRACE_BLOCK", 8)
    else:
        monkeypatch.setattr(solvers, "TRACE_BLOCK_ENTRIES", 8 * _NB.size)
    fit = fit_nncp if nonneg else fit_cp_unconstrained
    per_fit = {}
    for iters in (6, 7, 62, 63):
        calls.clear()
        fit(_NB, FitConfig(rank=2, loss=loss, nonneg=nonneg, max_iters=iters, tol=0.0))
        per_fit[iters] = len(calls)
    assert per_fit[6] == per_fit[7]
    assert per_fit[62] == per_fit[63] == per_fit[7] + 7


# --- trace blocks -----------------------------------------------------------------


def _violate_below(monkeypatch, residual):
    """Substitute a coercivity bound that every row whose residual_E is below
    ``residual`` violates."""
    real = solvers.coercivity_bound

    def tight(a_e, residual_e):
        return np.where(np.less(residual_e, residual), -1.0, real(a_e, residual_e))

    monkeypatch.setattr(solvers, "coercivity_bound", tight)


def _first_violation(result, residual):
    """The error that ends ``result``'s fit at its first row below ``residual``."""
    row = next(r for r in result.trace.rows if r.residual_E < residual)
    a_e = norm(_NB, "E")
    return (
        f"coercivity bound violated at iteration {row.iter}: "
        f"{row.delta_l1} > {a_e + row.residual_E}"
    )


@pytest.mark.parametrize("block", [1, 7, None], ids=["1", "7", "default"])
def test_coercivity_violation_ends_its_seed_alone(monkeypatch, block):
    # Seeds 1 and 2 bring residual_E below 0.02 within 300 sweeps, each at
    # its own iteration; seeds 0 and 3 do not.
    cfg = FitConfig(rank=2, max_iters=300, tol=0.0)
    seeds = [0, 1, 2, 3]
    clean = [_solo(_NB, cfg, seed) for seed in seeds]
    if block:
        monkeypatch.setattr(solvers, "TRACE_BLOCK", block)
    _violate_below(monkeypatch, 0.02)
    batch = assert_batch_matches_solo(_NB, cfg, seeds)
    kinds = [solvers.FitResult, RuntimeError, RuntimeError, solvers.FitResult]
    assert [type(r) for r in batch] == kinds
    for j in (1, 2):
        assert str(batch[j]) == _first_violation(clean[j], 0.02)
    for j in (0, 3):
        assert _fingerprint(batch[j]) == _fingerprint(clean[j])


@pytest.mark.parametrize("block", [1, None, 1000], ids=["1", "default", "1000"])
def test_coercivity_violation_wins_over_a_later_failed_solve(monkeypatch, block):
    # The violation ends the seed at its first violating row, so a solve that
    # fails three sweeps later, before the block is flushed, never counts.
    cfg = FitConfig(rank=2, max_iters=300, tol=0.0)
    clean = _solo(_NB, cfg, 1)
    first = next(r.iter for r in clean.trace.rows if r.residual_E < 0.02)
    real = solvers._mu_update

    def failing_mu_update(a_arr, cfg):
        update, calls = real(a_arr, cfg), []

        def failing(factors, stats, n, kr, x, note, fail):
            calls.append(n)
            if len(calls) == 3 * (first + 2) + 1:  # mode 0 of sweep first + 3
                fail(0, np.linalg.LinAlgError("forced"))
            return update(factors, stats, n, kr, x, note, fail)

        return failing

    if block:
        monkeypatch.setattr(solvers, "TRACE_BLOCK", block)
    monkeypatch.setattr(solvers, "_mu_update", failing_mu_update)
    failed = _solo(_NB, cfg, 1)
    assert (type(failed), str(failed)) == (np.linalg.LinAlgError, "forced")
    _violate_below(monkeypatch, 0.02)
    violated = _solo(_NB, cfg, 1)
    assert (type(violated), str(violated)) == (RuntimeError, _first_violation(clean, 0.02))


@pytest.mark.parametrize("nonneg", [True, False])
def test_nonfinite_objective_ends_the_seed_at_its_iteration(monkeypatch, nonneg):
    # NaN enters the Khatri-Rao product of mode 1 at iteration 4 (the 11th:
    # one at iteration 0 for the reconstruction, then one per sweep for each
    # of modes 1 and 2 and one for the reconstruction, which mode 0 of the
    # next sweep reuses).  The fit ends there, after that sweep's three
    # Khatri-Rao products, not at the end of its trace block.
    calls = []
    real = solvers._khatri_rao

    def poisoned(factors, n):
        out = real(factors, n)
        calls.append(n)
        if len(calls) == 11:
            out[:] = np.nan
        return out

    monkeypatch.setattr(solvers, "_khatri_rao", poisoned)
    result = _solo(_NB, FitConfig(rank=2, nonneg=nonneg, max_iters=50, tol=0.0), 1)
    assert (type(result), str(result)) == (ValueError, "trace objective must be finite")
    assert len(calls) == 13


@settings(database=None, deadline=None, max_examples=30)
@given(st.data())
def test_trace_block_boundaries_never_show(data):
    # A batch and each solo fit give the same traces, notes, models or
    # exceptions, on every shape (modes of size 1 included) and whatever the
    # block size.
    order = data.draw(st.integers(1, 3), label="order")
    shape = tuple(data.draw(st.lists(st.integers(1, 4), min_size=order, max_size=order)))
    solver = data.draw(st.sampled_from(["mu", "kl", "als"]), label="solver")
    cfg = FitConfig(
        rank=data.draw(st.integers(1, 3), label="rank"),
        loss=Loss.KL if solver == "kl" else Loss.FROBENIUS,
        nonneg=solver != "als",
        max_iters=data.draw(st.integers(1, 80), label="max_iters"),
        tol=data.draw(st.sampled_from([0.0, 1e-4]), label="tol"),
        trace_every=data.draw(st.integers(1, 9), label="trace_every"),
    )
    seeds = data.draw(st.lists(st.integers(0, 99), min_size=1, max_size=4), label="seeds")
    block = data.draw(st.sampled_from([1, 2, 7, solvers.TRACE_BLOCK]), label="TRACE_BLOCK")
    rng = np.random.default_rng(data.draw(st.integers(0, 99), label="data seed"))
    a = DenseTensor.from_array(rng.uniform(size=shape))

    def fits():
        batch = [_fingerprint(r) for r in solvers.fit_seeds(a, cfg, seeds)]
        return batch, [_fingerprint(_solo(a, cfg, seed)) for seed in seeds]

    default = fits()
    assert default[0] == default[1]
    with mock.patch.object(solvers, "TRACE_BLOCK", block):
        assert fits() == default
