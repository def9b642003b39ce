import math

import numpy as np
import pytest

from nncp.divergence import DivergenceKind, distance
from nncp.kruskal import l2_normalize, reconstruct
from nncp.pathologies import (
    BclrInstance,
    bclr_a_eps,
    bclr_limit,
    kl_counterexample,
    w_sequence,
)
from nncp.tensor import add_scaled, norm

EPS_GRID = (1.0, 0.5, 0.1, 1e-2, 1e-3)


def test_instance_validation():
    with pytest.raises(ValueError):
        BclrInstance(epsilon=0.0)
    with pytest.raises(ValueError):
        BclrInstance(epsilon=-1.0)
    with pytest.raises(ValueError):
        BclrInstance(epsilon=1.0, n=3)
    dependent = [np.eye(5)[:, 0], np.eye(5)[:, 1], np.eye(5)[:, 2], np.eye(5)[:, 0]]
    with pytest.raises(ValueError):
        BclrInstance(epsilon=1.0, n=5, basis=dependent)
    with pytest.raises(ValueError):
        BclrInstance(epsilon=1.0, n=4, basis=[np.ones(3)] * 4)
    with pytest.raises(ValueError, match="exactly 4 basis vectors"):
        BclrInstance(epsilon=1.0, basis=[np.eye(4)[:, i] for i in range(3)])
    nan_basis = [np.eye(4)[:, i] for i in range(4)]
    nan_basis[2] = np.array([0.0, np.nan, 1.0, 0.0])
    with pytest.raises(ValueError, match="NaN or Inf"):  # not an SVD failure
        BclrInstance(epsilon=1.0, basis=nan_basis)
    # The instance owns its basis: overwriting the caller's vectors after
    # validation cannot make it dependent.
    basis = [np.eye(4)[:, i].copy() for i in range(4)]
    inst = BclrInstance(epsilon=1.0, basis=basis)
    basis[3][:] = basis[0]
    assert np.column_stack(inst.basis).tolist() == np.eye(4).tolist()
    assert not any(v.flags.writeable for v in inst.basis)


def test_dual_construction_agreement():
    for eps in EPS_GRID:
        tensor, components = bclr_a_eps(BclrInstance(epsilon=eps))
        assert components.r == 5
        recon = reconstruct(components)
        assert np.max(np.abs(tensor.as_array() - recon.as_array())) <= 1e-12


def test_dual_construction_agreement_padded_dimension():
    tensor, components = bclr_a_eps(BclrInstance(epsilon=0.3, n=6))
    assert tensor.shape == (6, 6, 6)
    recon = reconstruct(components)
    assert np.max(np.abs(tensor.as_array() - recon.as_array())) <= 1e-12


def test_a_eps_has_negative_entries():
    tensor, _ = bclr_a_eps(BclrInstance(epsilon=0.5))
    assert float(np.min(tensor.as_array())) < 0.0


def test_limit_unit_entries():
    a = bclr_limit(4)
    expected = {(0, 0, 0), (0, 2, 2), (1, 1, 0), (1, 3, 2), (2, 1, 1), (2, 3, 3)}
    arr = a.as_array()
    for idx in np.ndindex(4, 4, 4):
        assert arr[idx] == (1.0 if idx in expected else 0.0)
    assert norm(a, "E") == 6.0
    assert norm(a, "F") == pytest.approx(math.sqrt(6), rel=1e-15)
    assert norm(a, "G") == 1.0
    assert np.min(arr) >= 0.0
    with pytest.raises(ValueError):
        bclr_limit(3)


def test_a_eps_converges_to_limit():
    a = bclr_limit(4)
    g_prev = None
    for eps in (1e-1, 1e-2, 1e-3):
        tensor, _ = bclr_a_eps(BclrInstance(epsilon=eps))
        g = distance(tensor, a, DivergenceKind.G_NORM)
        if g_prev is not None:
            assert g < g_prev
        g_prev = g
    assert g_prev < 2e-3


def test_convergence_rate_is_linear_in_eps():
    a = bclr_limit(4)
    eps_values = (1e-1, 1e-2, 1e-3, 1e-4)
    gaps = []
    for eps in eps_values:
        tensor, _ = bclr_a_eps(BclrInstance(epsilon=eps))
        gaps.append(distance(tensor, a, DivergenceKind.G_NORM))
    slope = np.polyfit(np.log(eps_values), np.log(gaps), 1)[0]
    assert 0.8 <= slope <= 1.2


def test_gap_bounded_by_slope_estimate():
    a = bclr_limit(4)

    def gap(eps):
        tensor, _ = bclr_a_eps(BclrInstance(epsilon=eps))
        return distance(tensor, a, DivergenceKind.G_NORM)

    c = max(gap(1e-1) / 1e-1, gap(1e-2) / 1e-2) * 1.05
    assert gap(1e-3) <= c * 1e-3


def test_summand_blowup_rate():
    sizes = {}
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        _, components = bclr_a_eps(BclrInstance(epsilon=eps))
        sizes[eps] = float(np.max(np.abs(l2_normalize(components).delta)))
    slope = np.polyfit(np.log(list(sizes)), np.log(list(sizes.values())), 1)[0]
    assert -1.2 <= slope <= -0.8
    assert sizes[1e-2] / sizes[1e-1] == pytest.approx(10.0, rel=0.2)


def test_w_sequence_displayed_entries():
    seq, a, b, c = w_sequence([1])
    a1 = seq[0]
    assert sorted(a1.data.tolist()) == [0.0] + [1.0] * 7
    assert norm(a1, "E") == 7.0
    # the limit: three unit entries
    assert sorted(a.data.tolist()) == [0.0] * 5 + [1.0] * 3
    assert a[0, 1, 0] == a[1, 0, 0] == a[0, 0, 1] == 1.0
    for t in (a, b, c):
        assert float(np.min(t.as_array())) >= 0.0
    assert norm(b, "E") == 3.0
    assert norm(c, "E") == 1.0


def test_w_sequence_identity_exact():
    ns = (1, 2, 10, 100)
    seq, a, b, c = w_sequence(ns)
    for a_n, n in zip(seq, ns):
        combo = add_scaled(add_scaled(a, b, 1.0, 1.0 / n), c, 1.0, 1.0 / (n * n))
        assert np.max(np.abs(a_n.as_array() - combo.as_array())) <= 1e-15
        gap = distance(a_n, a, DivergenceKind.E_NORM)
        assert abs(gap - (3.0 / n + 1.0 / (n * n))) <= 1e-15
        assert float(np.min(a_n.as_array())) >= 0.0


def test_w_sequence_rejects_bad_index():
    with pytest.raises(ValueError):
        w_sequence([0])


def test_kl_counterexample_shapes_and_boundary():
    values = []
    for n in (1, 10, 100):
        a, x = kl_counterexample(n)
        assert a.shape == x.shape == (2, 2, 2)
        assert a[0, 0, 0] == 1.0 and norm(a, "E") == 1.0
        assert float(np.min(x.as_array())) > 0.0  # strictly positive, rank 1
        assert float(np.min(x.as_array())) == pytest.approx(n ** -3, rel=1e-12)
        values.append(distance(a, x, DivergenceKind.KL))
        gap = distance(a, x, DivergenceKind.E_NORM)
        assert gap == pytest.approx((1 + 1 / n) ** 3 - 1, abs=1e-12)
    assert values[0] > values[1] > values[2]
    assert values[2] < 0.04
    with pytest.raises(ValueError):
        kl_counterexample(0)
