import hashlib
import math

import numpy as np
import pytest

from nncp.divergence import DivergenceKind, distance
from nncp.kruskal import l2_normalize, model_to_json, reconstruct
from nncp.pathologies import (
    bclr_a_eps,
    bclr_limit,
    kl_counterexample,
    w_sequence,
)
from nncp.tensor import norm, tensor_to_json

EPS_GRID = (1.0, 0.5, 0.1, 1e-2, 1e-3)


def test_instance_validation():
    assert bclr_a_eps(2.0**-1023)[0].shape == (4, 4, 4)
    with pytest.raises(ValueError, match="epsilon too small for a float reciprocal"):
        bclr_a_eps(1e-310)


def test_generators_keep_their_bits():
    # sha256 over tensor_to_json + model_to_json of A_eps for every eps in
    # EPS_GRID at n = 4 and 6, then tensor_to_json of the limit at n = 4 and 6.
    h = hashlib.sha256()
    for n in (4, 6):
        for eps in EPS_GRID:
            tensor, components = bclr_a_eps(eps, n)
            h.update((tensor_to_json(tensor) + model_to_json(components)).encode())
    for n in (4, 6):
        h.update(tensor_to_json(bclr_limit(n)).encode())
    assert h.hexdigest() == "e37d9807c20f6f19c14151035c4a65c4c626486a7af5e150b131de1c9acea999"


def test_dual_construction_agreement_padded_dimension():
    tensor, components = bclr_a_eps(0.3, 6)
    assert tensor.shape == (6, 6, 6)
    recon = reconstruct(components)
    assert np.max(np.abs(tensor.as_array() - recon.as_array())) <= 1e-12


def test_a_eps_has_negative_entries():
    tensor, _ = bclr_a_eps(0.5)
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
        tensor, _ = bclr_a_eps(eps)
        g = distance(tensor, a, DivergenceKind.G_NORM)
        if g_prev is not None:
            assert g < g_prev
        g_prev = g
    assert g_prev < 2e-3


def test_gap_bounded_by_slope_estimate():
    a = bclr_limit(4)

    def gap(eps):
        tensor, _ = bclr_a_eps(eps)
        return distance(tensor, a, DivergenceKind.G_NORM)

    c = max(gap(1e-1) / 1e-1, gap(1e-2) / 1e-2) * 1.05
    assert gap(1e-3) <= c * 1e-3


def test_summand_blowup_rate():
    sizes = {}
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        _, components = bclr_a_eps(eps)
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


def test_w_sequence_rejects_bad_index():
    # n * n = 2**1022 is a float; 2**1024 is not
    assert w_sequence([2**511])[0][0][1, 1, 1] == 2.0**-1022
    with pytest.raises(ValueError, match="sequence index too large for a float"):
        w_sequence([2**512])


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
    assert kl_counterexample(2**1023)[1][0, 0, 1] == 2.0**-1023
    with pytest.raises(ValueError, match="n too large for a float"):
        kl_counterexample(2**1024)
