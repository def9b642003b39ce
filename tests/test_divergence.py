import math

import numpy as np
import pytest

from nncp.divergence import DivergenceKind, bregman_from_phi, distance, kl_phi
from nncp.pathologies import kl_counterexample, w_sequence
from nncp.tensor import DenseTensor, add_scaled, norm
from oracles import brute_kl

KL = DivergenceKind.KL


def positive_tensor(seed, shape=(2, 3, 2)):
    rng = np.random.default_rng(seed)
    return DenseTensor.from_array(rng.uniform(0.2, 2.0, shape))


def test_distance_identity_kl():
    for seed in range(5):
        a = positive_tensor(seed)
        assert distance(a, a, KL) <= 1e-12


def test_kl_boundary_pair_value():
    """The rank-1 boundary pair: termwise evaluation of the divergence gives

        D(A, X_n) = (1 + 1/n)^3 - 1 = 3/n + 3/n^2 + 1/n^3,

    a value whose leading term is 3/n (the n^-3 figure sometimes quoted for
    this example drops the -a + b correction terms; both vanish as n grows,
    so the conclusion -- the infimum 0 is approached but never attained --
    is the same either way).
    """
    a, x10 = kl_counterexample(10)
    d = distance(a, x10, KL)
    assert d == pytest.approx((1 + 0.1) ** 3 - 1, abs=1e-12)
    assert d == pytest.approx(brute_kl(a, x10), abs=1e-14)
    assert d == pytest.approx(0.331, abs=1e-12)


def test_distance_e_norm_on_sequence():
    # A_n - A = B/n + C/n^2: three entries of 1/n plus one of 1/n^2
    seq, a, _, _ = w_sequence([10])
    d = distance(seq[0], a, DivergenceKind.E_NORM)
    assert d == pytest.approx(3 / 10 + 1 / 100, abs=1e-15)


def test_distance_matches_brute_kl_randomly():
    for seed in range(10):
        a = positive_tensor(seed)
        b = positive_tensor(seed + 50)
        assert distance(a, b, KL) == pytest.approx(brute_kl(a, b), rel=1e-12)


def test_distance_norm_kinds_symmetric_kl_not():
    a = positive_tensor(1)
    b = positive_tensor(2)
    for kind in (DivergenceKind.E_NORM, DivergenceKind.F_NORM, DivergenceKind.G_NORM):
        assert distance(a, b, kind) == distance(b, a, kind)
    assert distance(a, b, KL) != distance(b, a, KL)


def test_distance_infinite_on_unmatched_support():
    a = DenseTensor([2], [1.0, 0.0])
    b = DenseTensor([2], [0.0, 1.0])
    assert distance(a, b, KL) == math.inf  # value, not an exception


def test_distance_zero_b_where_a_zero_ok():
    a = DenseTensor([2], [1.0, 0.0])
    b = DenseTensor([2], [1.0, 0.0])
    assert distance(a, b, KL) == 0.0


def test_distance_errors():
    a = DenseTensor([2], [1.0, 0.0])
    with pytest.raises(ValueError):
        distance(a, DenseTensor([3], [1, 1, 1]), KL)
    with pytest.raises(ValueError):
        distance(DenseTensor([2], [-1.0, 1.0]), a, KL)
    with pytest.raises(ValueError):
        distance(a, DenseTensor([2], [-1.0, 1.0]), KL)
    with pytest.raises(ValueError, match="unknown divergence kind 'kl'"):
        distance(a, a, "kl")


def test_nonnegativity_and_sensitivity():
    rng = np.random.default_rng(4)
    for kind in DivergenceKind:
        for seed in range(10):
            a = positive_tensor(seed)
            b = positive_tensor(seed + 100)
            assert distance(a, b, kind) >= 0.0
        a = positive_tensor(7)
        direction = np.zeros(a.shape)
        direction[tuple(rng.integers(0, s) for s in a.shape)] = 1.0
        perturbed = add_scaled(a, DenseTensor.from_array(direction), 1.0, 1e-6)
        assert distance(a, perturbed, kind) > 0.0


def test_kl_phi_examples():
    ones = DenseTensor([2, 2], [1] * 4)
    assert kl_phi(ones) == 0.0

    t = DenseTensor([3], [math.e, 0.0, 0.0])
    assert kl_phi(t) == pytest.approx(math.e, rel=1e-15)

    uniform = DenseTensor([2, 2, 2], [0.125] * 8)
    assert kl_phi(uniform) == pytest.approx(-math.log(8), rel=1e-14)

    with pytest.raises(ValueError):
        kl_phi(DenseTensor([2], [-1.0, 1.0]))


def test_bregman_squared_f_norm():
    rng = np.random.default_rng(12)
    a = DenseTensor.from_array(rng.standard_normal((3, 2)))
    b = DenseTensor.from_array(rng.standard_normal((3, 2)))
    phi_a = 0.5 * norm(a, "F") ** 2
    phi_b = 0.5 * norm(b, "F") ** 2
    d = bregman_from_phi(a, b, phi_a, phi_b, b)
    expect = 0.5 * distance(a, b, DivergenceKind.F_NORM) ** 2
    assert d == pytest.approx(expect, abs=1e-10)


def test_bregman_kl_generator_matches_distance():
    for seed in range(20):
        a = positive_tensor(seed)
        b = positive_tensor(seed + 200)
        grad = DenseTensor.from_array(1.0 + np.log(b.as_array()))
        d = bregman_from_phi(a, b, kl_phi(a), kl_phi(b), grad)
        assert d == pytest.approx(distance(a, b, KL), abs=1e-10)


def test_bregman_zero_at_equal_arguments():
    a = positive_tensor(3)
    grad = DenseTensor.from_array(1.0 + np.log(a.as_array()))
    assert bregman_from_phi(a, a, kl_phi(a), kl_phi(a), grad) == 0.0


def test_bregman_shape_errors():
    a = positive_tensor(1)
    b = positive_tensor(2)
    with pytest.raises(ValueError):
        bregman_from_phi(a, DenseTensor([2], [1, 1]), 0.0, 0.0, b)
    with pytest.raises(ValueError):
        bregman_from_phi(a, b, 0.0, 0.0, DenseTensor([2], [1, 1]))


def test_kl_sublevel_sets_bounded():
    # D_KL(A, B) -> inf along any sequence with ||B||_E -> inf, so sublevel
    # sets of the second argument are bounded.
    a = positive_tensor(9)
    base = positive_tensor(10)
    values = []
    for m in (1e1, 1e2, 1e3, 1e4, 1e5, 1e6):
        b = DenseTensor.from_array(base.as_array() * m)
        values.append(distance(a, b, KL))
    assert all(x < y for x, y in zip(values, values[1:]))
    assert values[-1] > 1e5
