import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    # sum(a) overflows a double; D_KL(a, b) does not.
    top = DenseTensor([2], [1e308, 1e308])
    assert distance(top, top, KL) == 0.0
    assert distance(top, DenseTensor([2], [1e308, 5e307]), KL) == 1.9314718055994544e307


def test_distance_kl_beyond_the_range_of_the_sums():
    # sum(a) and sum(b) overflow.  The last entry of b is more than 2^1074
    # below the largest entry, so no common power of two keeps it, yet D_KL
    # is its term alone.
    a = DenseTensor([3], [1e308, 1e308, 1e-10])
    b = DenseTensor([3], [1e308, 1e308, 1e-300])
    assert distance(a, b, KL) == pytest.approx(brute_kl(a, b), rel=1e-15)
    assert distance(a, b, KL) == pytest.approx(1e-10 * (290 * math.log(10) - 1), rel=1e-12)
    # a log(a/b) = 1.5a exceeds the range; the term 0.5a + b does not.
    a, b = DenseTensor([1], [1.7e308]), DenseTensor([1], [1.7e308 / math.exp(1.5)])
    assert distance(a, b, KL) == pytest.approx(0.5 * 1.7e308 + 1.7e308 / math.exp(1.5), rel=1e-12)


_MAX = 1.7976931348623157e308
_FINITE = st.floats(0.0, _MAX)  # the whole nonnegative finite range, subnormals included


@st.composite
def _kl_pairs(draw):
    """(a, b) of one length: b entrywise either free or a close multiple of a."""
    a = draw(st.lists(_FINITE, min_size=1, max_size=6), label="a")
    near = st.sampled_from([1.0, 1 + 2**-52, 1 - 2**-53, 1 + 1e-8, 1 - 1e-8, 0.5, 2.0])
    b = [draw(st.one_of(_FINITE, near.map(lambda f, x=x: min(x * f, _MAX)))) for x in a]
    return DenseTensor([len(a)], a), DenseTensor([len(b)], b)


@settings(database=None, deadline=None, max_examples=300)
@given(_kl_pairs())
def test_distance_kl_is_nonnegative_and_matches_brute_kl(pair):
    # D_KL >= 0 exactly.  Its value is computed from sums and logs, so it
    # matches the oracle to 1e-9 relative plus a rounding allowance of
    # 2^-40 (about 4096 ulps, for logs up to 745 in size) per entry of the
    # pair's total mass, which the oracle sums in decimal.
    a, b = pair
    d, want = distance(a, b, KL), brute_kl(a, b)
    assert d >= 0.0
    with decimal.localcontext(decimal.Context(prec=60)):
        mass = sum(map(decimal.Decimal, a.data.tolist() + b.data.tolist()))
        slack = float(a.size * mass * decimal.Decimal(2) ** -40)
    if math.isinf(want) or math.isinf(d):
        assert min(d, want) >= _MAX * (1 - 1e-9) - slack
    else:
        assert abs(d - want) <= 1e-9 * want + slack


def test_distance_kl_is_not_absorbed_by_the_sums():
    # sum(b) - sum(a) absorbs the entries far below the largest, so the
    # one-row value is -2.3e-319 although D_KL is about 1e-310.  In the
    # near-equal pairs every term a log(a/b) - a + b cancels in doubles
    # (D_KL is 2.5e-32, 1e-19, and 4e-325, which rounds to 0).
    pairs = [
        ([1e308, 1e-320], [1e308, 1e-310]),
        ([1.0], [1 + 2**-52]),
        ([3.0, 5.0], [3.0, 5 + 1e-9]),
        ([1e-300], [1e-300 * (1 + 2**-40)]),
    ]
    for a, b in pairs:
        a, b = DenseTensor([len(a)], a), DenseTensor([len(b)], b)
        d, want = distance(a, b, KL), brute_kl(a, b)
        assert abs(d - want) <= 1e-9 * want, (a.data, b.data)
        assert (d > 0.0) == (want > 0.0)


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
    # The differences 2e308 and 1.5e308 of finite tensors: the first exceeds
    # the double range, the second does not.
    top = DenseTensor([2], [1e308, 0.0])
    for kind in (DivergenceKind.E_NORM, DivergenceKind.F_NORM, DivergenceKind.G_NORM):
        for other, value in [([-1e308, 0.0], math.inf), ([-5e307, 0.0], 1.5e308)]:
            assert distance(top, DenseTensor([2], other), kind) == value
            assert distance(DenseTensor([2], other), top, kind) == value
        # A difference far below the largest entry is kept: 0 only if A == B.
        for x, tiny in [(1.0, 5e-324), (1e300, 1e-300)]:
            assert distance(DenseTensor([2], [x, tiny]), DenseTensor([2], [x, 0.0]), kind) == tiny


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

    # Each term 1e308 * log(1e308) exceeds the double range.
    assert kl_phi(DenseTensor([2], [1e308, 1e308])) == math.inf

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
    # Beyond the double range phi is inf, and inf - inf is never returned.
    top = DenseTensor([2], [1e308, 1e308])
    grad = DenseTensor.from_array(1.0 + np.log(top.as_array()))
    with pytest.raises(ValueError, match="phi_a must be finite"):
        bregman_from_phi(top, top, kl_phi(top), kl_phi(top), grad)
    with pytest.raises(ValueError, match="the Bregman form is not finite"):
        bregman_from_phi(top, top, 1e308, -1e308, grad)


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
