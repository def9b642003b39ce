import collections
import dataclasses
import functools
import hashlib
import math
import re

import numpy as np
import pytest

from nncp import solvers
from nncp.divergence import DivergenceKind, distance, generalized_kl
from nncp.kruskal import KruskalModel, random_model, reconstruct
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
    trace.append(TraceRow(0, 5.0, 1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        trace.append(TraceRow(0, 4.0, 1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        trace.append(TraceRow(1, math.inf, 1.0, 1.0, 1.0))
    trace.append(TraceRow(1, 4.0, 1.0, 1.0, 1.0))
    csv = trace.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == TRACE_HEADER
    assert len(lines) == 3
    assert lines[1].startswith("0,5.0,")


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


@pytest.mark.parametrize("case", list(_kl_cases()))
def test_kl_rows_match_the_termwise_oracle(case):
    a_arr, xhat = _kl_cases()[case]
    a = DenseTensor.from_array(a_arr)
    floored = np.maximum(xhat, KL_SOLVER_FLOOR)
    got = solvers._loss(a_arr, Loss.KL, 0.0)(xhat, a_arr - xhat, None)
    want = [brute_kl(a, DenseTensor.from_array(x)) for x in floored]
    assert got == pytest.approx(want, rel=1e-12)
    got = [generalized_kl(a_arr, x) for x in xhat]
    want = [brute_kl(a, DenseTensor.from_array(x)) for x in xhat]
    assert got == pytest.approx(want, rel=1e-12)


def test_kl_rows_keep_their_bits():
    # sha256 over the .hex() of every _kl_cases row's D_KL, joined by
    # newlines: floored as the solver computes it, and unfloored by
    # generalized_kl (inf included).
    floored, unfloored = [], []
    for a_arr, xhat in _kl_cases().values():
        floored += solvers._loss(a_arr, Loss.KL, 0.0)(xhat, a_arr - xhat, None)
        unfloored += [generalized_kl(a_arr, x) for x in xhat]
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


# --- shared driver and einsum helper ---------------------------------------------

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
def test_order_above_25_rejected_clearly(fit, cfg):
    with pytest.raises(ValueError, match="order 26 exceeds supported maximum 25"):
        fit(DenseTensor([1] * 26, [1.0]), cfg)


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
    spec = solvers._einsum_spec

    def counting(k, mode=None, weighted=False):
        if mode is None:
            calls.append(k)
        return spec(k, mode, weighted)

    monkeypatch.setattr(solvers, "_einsum_spec", counting)
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
    """The trace quantities through numpy's wrappers: the reference that
    solvers._trace_quantities must match bit for bit."""
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
    # the lengths around 8 and 16 decide the rounding; ALS solves leave each
    # factor stack transposed in memory.  Concatenating the factors for one
    # np.add.reduceat, or padding them into one stack, rounds differently.
    rng = np.random.default_rng(11)
    factors = []
    for d in _TRACE_DIMS:
        f = rng.random((stack, d, 4)) * 10.0 ** rng.integers(-3, 4, (stack, d, 4))
        if not nonneg:
            f = f - 0.5
        f[rng.random(f.shape) < 0.2] = -0.0
        if layout == "als":
            f = np.ascontiguousarray(f.transpose(0, 2, 1)).transpose(0, 2, 1)
        factors.append(f)
    resid = rng.standard_normal((stack, 9, 17, 3))
    resid[rng.random(resid.shape) < 0.2] = -0.0
    colsums = [f.sum(axis=1) for f in factors] if with_colsums else None
    got = solvers._trace_quantities(resid, factors, nonneg, colsums)
    want = _wrapper_trace_quantities(resid, factors, nonneg, colsums)
    for g, w in zip(got, want):
        assert g.shape == w.shape == (stack,)
        assert g.tobytes() == w.tobytes()


# np.linalg.norm, np.sum and np.where calls of one fit with tol=0, by solver
# and order: all of them set up the fit or package its model, none runs per
# iteration.
_WRAPPER_CALLS = {
    ("mu", "o1"): {"sum": 6},
    ("mu", "o3"): {"sum": 12},
    ("mu", "o4"): {"sum": 15},
    ("kl", "o1"): {"sum": 6},
    ("kl", "o3"): {"sum": 12},
    ("kl", "o4"): {"sum": 15},
    ("als", "o1"): {"norm": 2, "sum": 1},
    ("als", "o3"): {"norm": 6, "sum": 1},
    ("als", "o4"): {"norm": 8, "sum": 1},
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
    # NaN enters one stack entry's MTTKRP at iteration 4 (mode 0).
    cfg = FitConfig(rank=2, nonneg=nonneg, max_iters=50, tol=0.0)
    seeds = [0, 1, 2]
    clean = [_solo(_NB, cfg, seed) for seed in seeds]
    real = solvers._mttkrp

    def poison(entry):
        calls = []

        def poisoned(arr, factors, n):
            out = real(arr, factors, n)
            calls.append(n)
            if len(calls) == 10:
                out[entry] = np.nan
            return out

        monkeypatch.setattr(solvers, "_mttkrp", poisoned)

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
    # One FitTrace.append call per row, so its checks see every row, in a
    # fixed-length batch and in one whose seeds stop by tol, each on its own.
    calls = collections.Counter()
    real = FitTrace.append

    def counting(self, row):
        calls[id(self)] += 1
        return real(self, row)

    monkeypatch.setattr(FitTrace, "append", counting)
    cfg = FitConfig(
        rank=2, loss=loss, nonneg=nonneg, max_iters=30, tol=0.0, trace_every=trace_every
    )
    noise = DenseTensor.from_array(np.random.default_rng(3).uniform(size=(3, 4, 5)))
    stopped = dataclasses.replace(cfg, max_iters=3000, tol=1e-6)
    for a, c in [(_NB, cfg), (noise, stopped)]:
        calls.clear()
        batch = solvers.fit_seeds(a, c, [0, 1, 2, 3])
        assert {id(r.trace): len(r.trace) for r in batch} == dict(calls)
    assert all(r.converged for r in batch)
    assert len({r.trace.rows[-1].iter for r in batch}) > 1
