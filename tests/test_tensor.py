import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from nncp.kruskal import KruskalModel, model_from_json, random_model, reconstruct
from nncp.tensor import (
    DenseTensor,
    add_scaled,
    inner,
    norm,
    outer_product,
    tensor_from_json,
    tensor_to_json,
)
from oracles import brute_inner, brute_norms, brute_outer, max_abs_diff, thawed


def test_construction_validates_shape_and_length():
    t = DenseTensor([2, 3], range(6))
    assert t.shape == (2, 3)
    assert t.order == 2
    with pytest.raises(ValueError):
        DenseTensor([2, 3], range(5))
    with pytest.raises(ValueError):
        DenseTensor([], [])


def _numpy_axis_limit():
    """The largest number of axes a numpy array can have (64 in numpy 2, 32 in 1.x)."""
    k = 1
    while True:
        try:
            np.empty((1,) * (k + 1))
        except ValueError:
            return k
        k += 1


def test_order_above_numpys_axis_limit_fails_at_the_tensor():
    # One axis more than numpy supports is the tensor's own error, whether
    # the shape comes to the constructor, through JSON, from an outer product
    # or from a reconstruction.
    top = _numpy_axis_limit()
    assert DenseTensor([1] * top, [2.0]).order == top
    for order in sorted({top + 1, 65}):
        doc = json.dumps({"shape": [1] * order, "data": [1.0]})
        for build in (lambda: DenseTensor([1] * order, [1.0]),
                      lambda: tensor_from_json(doc),
                      lambda: outer_product([[1.0]] * order),
                      lambda: reconstruct(random_model((1,) * order, 1, 0))):
            with pytest.raises(ValueError, match=f"^tensor order {order} exceeds"):
                build()


def test_order_one_tensor_allowed():
    t = DenseTensor([3], [1, 2, 3])
    assert norm(t, "E") == 6.0


def test_immutability():
    t = DenseTensor([2], [1.0, 2.0])
    with pytest.raises(AttributeError):
        t.shape = (3,)
    with pytest.raises(ValueError):
        t.as_array()[0] = 5.0
    # The tensor owns a copy: writing to the caller's array changes nothing.
    src = np.arange(6.0)
    t = DenseTensor([2, 3], src)
    x = np.arange(6.0).reshape(2, 3)
    u = DenseTensor.from_array(x)
    before = hash(u)
    src[0] = x[0, 0] = np.nan
    assert t.data.tolist() == u.data.tolist() == list(range(6))
    assert hash(u) == before
    # F-ordered input still gives read-only C-ordered storage.
    f = np.asfortranarray(np.arange(12.0).reshape(4, 3))
    # No level of any .base chain can be made writeable, so nothing can be
    # written through one: not after hashing, and not into a model's sign.
    for t in (DenseTensor((4, 3), f), DenseTensor.from_array(f)):
        before = hash(t)
        arr = t.as_array()
        assert arr.flags.c_contiguous and arr.tolist() == f.tolist()
        assert not thawed(arr) and not thawed(t.data)
        assert hash(t) == before
    m = KruskalModel((4, 3, 3), f[0], [f, f[:3].T, f[:3]])
    for arr in (m.delta, *m.factors):
        assert arr.flags.c_contiguous and not thawed(arr)
    assert m.nonneg
    # An array over a caller's bytes was not judged by nncp: it is judged and copied.
    b = np.frombuffer(np.arange(6.0).tobytes())
    assert not np.shares_memory(DenseTensor.from_array(b).as_array(), b)
    with pytest.raises(ValueError, match="^tensor data contains NaN or Inf"):
        DenseTensor.from_array(np.frombuffer(np.array([math.nan]).tobytes()))


def test_from_array_copies_its_input_once():
    x = np.arange(8000.0).reshape(20, 20, 20)
    with (mock.patch.object(np, "array", wraps=np.array) as copies,
          mock.patch.object(np, "isfinite", wraps=np.isfinite) as passes):
        t = DenseTensor.from_array(x)
    assert copies.call_count == passes.call_count == 1  # the constructor shares the copy
    assert t.as_array().tobytes() == x.tobytes()
    text = tensor_to_json(t)
    with mock.patch.object(np, "isfinite", wraps=np.isfinite) as passes:
        assert tensor_from_json(text) == t
    assert passes.call_count == 1
    # A float64 C-ordered array is not copied by np.array, only into the
    # immutable buffer, so the peak is that buffer and the temporary bytes
    # CPython builds it from: 2 copies' worth, not 3.
    big = np.arange(2.0**16)
    tracemalloc.start()
    try:
        t = DenseTensor.from_array(big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.data.tobytes() == big.tobytes() and peak < 2.5 * big.nbytes
    # A result its maker has judged is not judged again by the constructor:
    # one pass per vector and one of the product; one of the combination.
    with mock.patch.object(np, "isfinite", wraps=np.isfinite) as passes:
        o = outer_product([[1.0, 2.0], [3.0], [4.0, 5.0]])
    assert passes.call_count == 4
    with mock.patch.object(np, "isfinite", wraps=np.isfinite) as passes:
        difference = add_scaled(o, o, 1.0, -1.0)
    assert passes.call_count == 1 and difference == DenseTensor.zeros(o.shape)


def test_equal_tensors_hash_equal():
    pos, neg = DenseTensor([2], [0.0, 1.0]), DenseTensor([2], [-0.0, 1.0])
    assert pos == neg and hash(pos) == hash(neg)
    assert len({pos, neg}) == 1
    assert math.copysign(1.0, neg[0]) == -1.0  # the stored data keeps its sign
    assert pos != DenseTensor([2, 1], [0.0, 1.0])
    # Against anything that is not a tensor, == defers to the other side.
    assert DenseTensor([1], [1.0]) != 1.0
    assert (DenseTensor([1], [1.0]) == [1.0]) is False


def test_repr_of_a_small_tensor_rebuilds_it_bit_for_bit():
    # A falsifying example prints as a reproducer: subnormals, -0.0 and the
    # largest double survive the round trip through repr.
    small = DenseTensor([2, 3], [5e-324, -0.0, 1.7976931348623157e308, 0.1, 1 / 3, 2.0])
    assert repr(small) == (
        "DenseTensor([2, 3], [5e-324, -0.0, 1.7976931348623157e+308, 0.1, "
        "0.3333333333333333, 2.0])"
    )
    rebuilt = eval(repr(small), {"DenseTensor": DenseTensor})
    assert rebuilt.shape == small.shape and rebuilt.data.tobytes() == small.data.tobytes()
    assert repr(DenseTensor([1], [0.0])) == "DenseTensor([1], [0.0])"
    assert repr(DenseTensor.zeros([4, 8])) == "DenseTensor([4, 8], " + repr([0.0] * 32) + ")"
    assert repr(DenseTensor.zeros([3, 11])) == "DenseTensor(shape=(3, 11))"


def test_getitem_bounds():
    t = DenseTensor([2, 2], [1, 2, 3, 4])
    assert t[1, 0] == 3.0
    with pytest.raises(ValueError):
        t[2, 0]
    with pytest.raises(ValueError):
        t[(0,)]
    for index in (1.9, True):
        with pytest.raises(ValueError, match="^mode 1 index must be an integer"):
            t[0, index]


def test_outer_product_examples():
    t = outer_product([[1, 2], [3, 4]])
    assert t.as_array().tolist() == [[3, 4], [6, 8]]

    e1 = [1, 0]
    t = outer_product([e1, e1, e1])
    assert t[0, 0, 0] == 1.0
    assert norm(t, "E") == 1.0

    ones = outer_product([[1, 1]] * 3)
    assert ones.as_array().tolist() == [[[1, 1], [1, 1]], [[1, 1], [1, 1]]]


def test_outer_product_matches_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(20):
        k = rng.integers(1, 5)
        vectors = [rng.standard_normal(rng.integers(1, 5)) for _ in range(k)]
        t = outer_product(vectors)
        shape, entries = brute_outer(vectors)
        assert t.shape == shape
        assert max_abs_diff(t, entries) <= 1e-12


def test_outer_product_errors():
    with pytest.raises(ValueError):
        outer_product([])
    with pytest.raises(ValueError):
        outer_product([[1, 2], []])
    with pytest.raises(ValueError, match="the outer product is not finite"):
        outer_product([[1e200, 1.0], [1e200, 0.0]])


def test_add_scaled_examples():
    a = DenseTensor([2, 2], [1, 2, 3, 4])
    zero = add_scaled(a, a, 1, -1)
    assert norm(zero, "E") == 0.0

    ones = DenseTensor([2, 2], [1] * 4)
    fives = add_scaled(ones, ones, 2, 3)
    assert fives.data.tolist() == [5.0] * 4


def test_add_scaled_integer_exact():
    rng = np.random.default_rng(5)
    a = DenseTensor([3, 3], rng.integers(-50, 50, 9))
    b = DenseTensor([3, 3], rng.integers(-50, 50, 9))
    out = add_scaled(a, b, 3, -7)
    expect = [3 * x - 7 * y for x, y in zip(a.data.tolist(), b.data.tolist())]
    assert out.data.tolist() == expect


def test_add_scaled_errors():
    a = DenseTensor([2], [1, 2])
    b = DenseTensor([3], [1, 2, 3])
    with pytest.raises(ValueError):
        add_scaled(a, b, 1, 1)


def test_norms_all_ones():
    t = DenseTensor([2, 2, 2], [1] * 8)
    assert norm(t, "E") == 8.0
    assert norm(t, "F") == pytest.approx(math.sqrt(8), rel=1e-15)
    assert norm(t, "G") == 1.0


def test_norms_against_brute_force():
    rng = np.random.default_rng(13)
    for _ in range(20):
        t = DenseTensor.from_array(rng.standard_normal((3, 2, 4)))
        e, f, g = brute_norms(t)
        assert norm(t, "E") == pytest.approx(e, rel=1e-13)
        assert norm(t, "F") == pytest.approx(f, rel=1e-13)
        assert norm(t, "G") == g


def test_norm_zero_iff_zero():
    z = DenseTensor.zeros([2, 3])
    for kind in "EFG":
        assert norm(z, kind) == 0.0
    for x in (1e-300, 5e-324):
        t = DenseTensor([2, 3], [0, 0, x, 0, 0, 0])
        for kind in "EFG":
            assert norm(t, kind) == x


def test_norms_near_the_top_of_the_double_range():
    # Warnings are errors in this suite, so neither call may warn on overflow.
    # The plain sum of squares overflows, but the F-norm itself is finite.
    assert norm(DenseTensor([2], [1e200, 1e200]), "F") == math.sqrt(2.0) * 1e200
    assert norm(DenseTensor([2], [-1e308, 1e308]), "F") == math.sqrt(2.0) * 1e308
    # The E-norm 2e308 exceeds the double range.
    assert norm(DenseTensor([2], [1e308, 1e308]), "E") == math.inf


def test_inner_examples():
    ones = DenseTensor([2, 2], [1] * 4)
    eye = DenseTensor([2, 2], [1, 0, 0, 1])
    assert inner(ones, eye) == 2.0

    rng = np.random.default_rng(3)
    a = DenseTensor.from_array(rng.standard_normal((2, 3, 2)))
    assert inner(a, a) == pytest.approx(norm(a, "F") ** 2, rel=1e-13)

    left = DenseTensor([4], [1, 2, 0, 0])
    right = DenseTensor([4], [0, 0, 3, 4])
    assert inner(left, right) == 0.0

    # Products beyond the double range: inf only when the sum is, never NaN.
    big = DenseTensor([1], [1e200])
    assert inner(big, big) == math.inf
    assert inner(DenseTensor([2], [1e200, -1e200]), DenseTensor([2], [1e200, 1e200])) == 0.0
    assert inner(DenseTensor([2], [1e308, 1e-300]), DenseTensor([2], [-1e308, 1e300])) == -math.inf


def test_inner_matches_brute_force_and_symmetry():
    rng = np.random.default_rng(17)
    a = DenseTensor.from_array(rng.standard_normal((3, 4)))
    b = DenseTensor.from_array(rng.standard_normal((3, 4)))
    assert inner(a, b) == pytest.approx(brute_inner(a, b), rel=1e-13)
    assert inner(a, b) == inner(b, a)
    with pytest.raises(ValueError):
        inner(a, DenseTensor([2], [1, 2]))


def test_norm_ordering():
    rng = np.random.default_rng(31)
    for _ in range(50):
        t = DenseTensor.from_array(rng.standard_normal((4, 3)))
        assert norm(t, "G") <= norm(t, "F") <= norm(t, "E")


def test_json_round_trip_bit_exact():
    rng = np.random.default_rng(37)
    t = DenseTensor.from_array(rng.standard_normal((2, 3, 4)) * 1e-7)
    back = tensor_from_json(tensor_to_json(t))
    assert back.shape == t.shape
    assert back.data.tolist() == t.data.tolist()
    assert tensor_to_json(back) == tensor_to_json(t)


def test_json_malformed_inputs():
    for reader in (tensor_from_json, model_from_json):
        with pytest.raises(ValueError, match="malformed .* JSON: maximum recursion depth"):
            reader("[" * 100_000)
    with pytest.raises(ValueError):
        tensor_from_json('{"shape": [2]}')
    with pytest.raises(ValueError):
        tensor_from_json('{"shape": [2], "data": [1, 2, 3]}')
    # Shapes whose size overflows int64 are compared exactly.
    for doc in (
        '{"shape": [%d], "data": [1.0]}' % 10**30,
        '{"shape": [9223372036854775807, 2], "data": [1.0]}',
        '{"shape": [4294967296, 4294967296], "data": []}',
    ):
        with pytest.raises(ValueError, match="does not match shape"):
            tensor_from_json(doc)


_MODEL = {"shape": [2], "delta": [1.0], "factors": [[[0.5], [0.5]]]}


_JSON_CASES = [  # (reader, document, message); the ids are reader-doc<row>
    (tensor_from_json, {"shape": [2], "data": ["1.5", 2]},
     "tensor data must be an array of real numbers"),
    (tensor_from_json, {"shape": [True, 2], "data": [1, 2]}, "tensor dimension must be an integer"),
    (tensor_from_json, {"shape": {"2": 0}, "data": [1, 2]}, "tensor shape must be a sequence"),
    (tensor_from_json, {"shape": [2.7], "data": [1, 2]}, "tensor dimension must be an integer"),
    (model_from_json, {**_MODEL, "delta": ["1.5"]}, "model delta must be an array of real numbers"),
    (model_from_json, {**_MODEL, "shape": [True], "factors": [[[1.0]]]},
     "model dimension must be an integer"),
    (model_from_json, {**_MODEL, "shape": {"2": 0}}, "model shape must be a sequence"),
    (model_from_json, {**_MODEL, "shape": [2.7]}, "model dimension must be an integer"),
    (model_from_json, {**_MODEL, "factors": [[["0.5"], [0.5]]]},
     "model factor 0 must be an array of real numbers"),
    (model_from_json, {**_MODEL, "factors": {"0": [[0.5], [0.5]]}},
     "model factors must be a sequence"),
    (tensor_from_json, {"shape": [2], "data": [[1, 2]]},
     "tensor data must be a list nested 1 deep"),
    (model_from_json, {**_MODEL, "delta": [[1.0]]}, "model delta must be a list nested 1 deep"),
    (model_from_json, {**_MODEL, "factors": [[[[0.5]], [[0.5]]]]},
     "model factor 0 must be a list nested 2 deep"),
]


@pytest.mark.parametrize("reader, doc, message", _JSON_CASES,
                         ids=[f"{c[0].__name__}-doc{i}" for i, c in enumerate(_JSON_CASES)])
def test_json_readers_reject_non_numbers(reader, doc, message):
    with pytest.raises(ValueError, match="^" + message):
        reader(json.dumps(doc))


@pytest.mark.parametrize("lam, mu", [(1, 1), (2.0, -3.0)], ids=["inf", "inf-minus-inf"])
def test_add_scaled_rejects_a_nonfinite_combination_without_a_warning(lam, mu):
    a = DenseTensor([2], [1e308, 1e308])
    with pytest.raises(ValueError, match="not finite"):
        add_scaled(a, a, lam, mu)
