import json
import math

import numpy as np
import pytest

from nncp.kruskal import KruskalModel, model_from_json, random_model
from nncp.pathologies import BclrInstance, bclr_limit, kl_counterexample, w_sequence
from nncp.solvers import FitConfig
from nncp.tensor import (
    DenseTensor,
    add_scaled,
    inner,
    norm,
    outer_product,
    tensor_from_json,
    tensor_to_json,
)
from oracles import brute_inner, brute_norms, brute_outer, max_abs_diff


def test_construction_validates_shape_and_length():
    t = DenseTensor([2, 3], range(6))
    assert t.shape == (2, 3)
    assert t.order == 2
    with pytest.raises(ValueError):
        DenseTensor([2, 3], range(5))
    with pytest.raises(ValueError):
        DenseTensor([], [])
    with pytest.raises(ValueError):
        DenseTensor([2, 0], [])


def test_construction_rejects_nonfinite():
    with pytest.raises(ValueError):
        DenseTensor([2], [1.0, float("nan")])
    with pytest.raises(ValueError):
        DenseTensor([2], [1.0, float("inf")])


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
    for t in (DenseTensor((4, 3), f), DenseTensor.from_array(f)):
        arr = t.as_array()
        assert arr.flags.c_contiguous and not arr.flags.writeable
        assert not t.data.flags.writeable
        assert arr.tolist() == f.tolist()
    m = KruskalModel((4, 3, 3), f[0], [f, f[:3].T, f[:3]])
    for arr in (m.delta, *m.factors):
        assert arr.flags.c_contiguous and not arr.flags.writeable


def test_equal_tensors_hash_equal():
    pos, neg = DenseTensor([2], [0.0, 1.0]), DenseTensor([2], [-0.0, 1.0])
    assert pos == neg and hash(pos) == hash(neg)
    assert len({pos, neg}) == 1
    assert math.copysign(1.0, neg[0]) == -1.0  # the stored data keeps its sign
    assert pos != DenseTensor([2, 1], [0.0, 1.0])


def test_getitem_bounds():
    t = DenseTensor([2, 2], [1, 2, 3, 4])
    assert t[1, 0] == 3.0
    with pytest.raises(ValueError):
        t[2, 0]
    with pytest.raises(ValueError):
        t[(0,)]


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
    with pytest.raises(ValueError):
        add_scaled(a, a, float("inf"), 1)


def test_norms_all_ones():
    t = DenseTensor([2, 2, 2], [1] * 8)
    assert norm(t, "E") == 8.0
    assert norm(t, "F") == pytest.approx(math.sqrt(8), rel=1e-15)
    assert norm(t, "G") == 1.0


def test_norm_unknown_kind():
    t = DenseTensor([2], [1, 2])
    with pytest.raises(ValueError):
        norm(t, "H")


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
    t = DenseTensor([2, 3], [0, 0, 1e-300, 0, 0, 0])
    for kind in "EG":
        assert norm(t, kind) > 0.0
    # F squares the entries, so stay above the underflow threshold there
    t = DenseTensor([2, 3], [0, 0, 1e-120, 0, 0, 0])
    assert norm(t, "F") > 0.0


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


def test_inner_matches_brute_force_and_symmetry():
    rng = np.random.default_rng(17)
    a = DenseTensor.from_array(rng.standard_normal((3, 4)))
    b = DenseTensor.from_array(rng.standard_normal((3, 4)))
    assert inner(a, b) == pytest.approx(brute_inner(a, b), rel=1e-13)
    assert inner(a, b) == inner(b, a)
    with pytest.raises(ValueError):
        inner(a, DenseTensor([2], [1, 2]))


def test_multiplicativity_on_rank_one():
    rng = np.random.default_rng(23)
    for _ in range(50):
        k = rng.integers(2, 5)
        vectors = [rng.standard_normal(rng.integers(2, 6)) for _ in range(k)]
        t = outer_product(vectors)
        e = math.prod(float(np.sum(np.abs(v))) for v in vectors)
        f = math.prod(float(np.linalg.norm(v)) for v in vectors)
        g = math.prod(float(np.max(np.abs(v))) for v in vectors)
        assert abs(norm(t, "E") - e) <= 1e-12 * e
        assert abs(norm(t, "F") - f) <= 1e-12 * f
        assert abs(norm(t, "G") - g) <= 1e-12 * g


def test_cauchy_schwarz_and_hoelder():
    rng = np.random.default_rng(29)
    for _ in range(100):
        a = DenseTensor.from_array(rng.standard_normal((2, 3, 2)))
        b = DenseTensor.from_array(rng.standard_normal((2, 3, 2)))
        ip = abs(inner(a, b))
        assert ip <= norm(a, "F") * norm(b, "F")
        assert ip <= norm(a, "E") * norm(b, "G")


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
    with pytest.raises(ValueError):
        tensor_from_json("not json")
    for reader in (tensor_from_json, model_from_json):
        with pytest.raises(ValueError, match="malformed .* JSON: maximum recursion depth"):
            reader("[" * 100_000)
    with pytest.raises(ValueError):
        tensor_from_json('{"shape": [2]}')
    with pytest.raises(ValueError):
        tensor_from_json('{"shape": [2], "data": [1, 2, 3]}')
    # Shapes whose size overflows int64 are compared exactly.
    for doc in (
        '{"shape": [9223372036854775807, 2], "data": [1.0]}',
        '{"shape": [4294967296, 4294967296], "data": []}',
    ):
        with pytest.raises(ValueError, match="does not match shape"):
            tensor_from_json(doc)


_MODEL = {"shape": [2], "delta": [1.0], "factors": [[[0.5], [0.5]]]}


@pytest.mark.parametrize(
    "reader, doc",
    [
        (tensor_from_json, {"shape": [2], "data": ["1.5", 2]}),
        (tensor_from_json, {"shape": [True, 2], "data": [1, 2]}),
        (tensor_from_json, {"shape": {"2": 0}, "data": [1, 2]}),
        (tensor_from_json, {"shape": [2.7], "data": [1, 2]}),
        (model_from_json, {**_MODEL, "delta": ["1.5"]}),
        (model_from_json, {**_MODEL, "shape": [True], "factors": [[[1.0]]]}),
        (model_from_json, {**_MODEL, "shape": {"2": 0}}),
        (model_from_json, {**_MODEL, "shape": [2.7]}),
        (model_from_json, {**_MODEL, "factors": [[["0.5"], [0.5]]]}),
        (model_from_json, {**_MODEL, "factors": {"0": [[0.5], [0.5]]}}),
    ],
)
def test_json_readers_reject_non_numbers(reader, doc):
    with pytest.raises(ValueError):
        reader(json.dumps(doc))


@pytest.mark.parametrize("lam, mu", [(1, 1), (2.0, -3.0)], ids=["inf", "inf-minus-inf"])
def test_add_scaled_rejects_a_nonfinite_combination_without_a_warning(lam, mu):
    a = DenseTensor([2], [1e308, 1e308])
    with pytest.raises(ValueError, match="not finite"):
        add_scaled(a, a, lam, mu)


_T2 = DenseTensor([2], [1.0, 2.0])

# Inputs that were truncated, accepted, or failed inside numpy; each must
# raise a ValueError that names the argument.  id -> (call, message).
_REJECTED = {
    "shape-2.7": (lambda: DenseTensor((2.7,), [1, 2]), "tensor dimension .* got 2.7"),
    "shape-True": (lambda: DenseTensor((True, 2), [1, 2]), "tensor dimension .* got True"),
    "zeros-2.5": (lambda: DenseTensor.zeros((2.5,)), "tensor dimension must be an integer"),
    "index-1.9": (lambda: _T2[1.9], "mode 0 index must be an integer"),
    "index-True": (lambda: _T2[True], "mode 0 index must be an integer"),
    "random_model-shape": (lambda: random_model((3.5, 4), 2, 0), "model dimension must be"),
    "random_model-r": (lambda: random_model((3, 4), 2.5, 0), "r must be an integer"),
    "random_model-e_norm": (lambda: random_model((3, 4), 2, 0, e_norm=math.nan), "e_norm must be"),
    "w_sequence": (lambda: w_sequence([2.5]), "sequence index must be an integer"),
    "kl_counterexample": (lambda: kl_counterexample(2.5), "n must be an integer"),
    "BclrInstance-n": (lambda: BclrInstance(epsilon=1.0, n=4.5), "n must be an integer"),
    "bclr_limit": (lambda: bclr_limit(4.5), "n must be an integer"),
    "BclrInstance-epsilon": (lambda: BclrInstance(epsilon=math.inf), "epsilon must be finite"),
    "FitConfig-tol-str": (lambda: FitConfig(rank=1, tol="1e-9"), "tol must be a real number"),
    "FitConfig-tol-True": (lambda: FitConfig(rank=1, tol=True), "tol must be a real number"),
    "FitConfig-reg_rho": (lambda: FitConfig(rank=1, reg_rho=True), "reg_rho must be a real"),
    "add_scaled-lam": (lambda: add_scaled(_T2, _T2, "2", 1), "lam must be a real number"),
}


@pytest.mark.parametrize("call, message", list(_REJECTED.values()), ids=list(_REJECTED))
def test_non_integer_bool_and_nonfinite_arguments_are_rejected_by_name(call, message):
    with pytest.raises(ValueError, match=message):
        call()
