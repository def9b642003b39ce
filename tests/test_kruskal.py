import numpy as np
import pytest

from nncp.kruskal import (
    KruskalModel,
    NaiveBayesModel,
    delta_l1_equals_e_norm_check,
    l2_normalize,
    model_from_json,
    model_to_json,
    normalize,
    random_model,
    reconstruct,
    to_naive_bayes,
)
from nncp.tensor import DenseTensor, norm
from oracles import brute_reconstruct, max_abs_diff


def small_model():
    # delta=[1], u=[2,0], v=[1,1], w=[1,0]
    return KruskalModel(
        (2, 2, 2),
        [1.0],
        [np.array([[2.0], [0.0]]), np.array([[1.0], [1.0]]), np.array([[1.0], [0.0]])],
    )


def test_model_validation():
    with pytest.raises(ValueError):
        KruskalModel((2, 2), [1.0], [np.ones((2, 1))])  # missing factor
    with pytest.raises(ValueError):
        KruskalModel((2, 2), [1.0], [np.ones((2, 2)), np.ones((2, 1))])
    # the flags are read from the entries, by the constructor and the reader alike
    for delta, factor, nonneg, normalized in [
        ([1.0], [[-1.0], [0.0]], False, False),
        ([1.0], [[0.7], [0.7]], True, False),
        ([-1.0], [[0.5], [0.5]], False, False),
        ([1.0], [[0.5], [-0.5]], False, False),
        ([2.0], [[0.25], [-0.0]], True, False),
        ([2.0], [[1.0], [-0.0]], True, True),
        ([1.0], [[1e308], [1e308]], True, False),  # the column sum overflows
    ]:
        m = KruskalModel((2,), delta, [factor])
        assert (m.nonneg, m.normalized) == (nonneg, normalized)
        back = model_from_json(model_to_json(m))
        assert (back.nonneg, back.normalized) == (nonneg, normalized)
    for flag in ("nonneg", "normalized"):
        with pytest.raises(TypeError):
            KruskalModel((2,), [1.0], [[[0.5], [0.5]]], **{flag: True})
    with pytest.raises(ValueError, match=r"all dimensions must be positive, got \(0, 2\)"):
        KruskalModel((0, 2), [1.0], [np.zeros((0, 1)), np.ones((2, 1))])
    m = small_model()
    with pytest.raises(AttributeError):
        m.delta = np.zeros(1)
    with pytest.raises(ValueError):
        m.factors[0][0, 0] = 9.0


def test_reconstruct_rank_zero():
    m = KruskalModel((2, 2), [], [np.zeros((2, 0)), np.zeros((2, 0))])
    assert reconstruct(m).data.tolist() == [0.0] * 4
    m = KruskalModel((2, 3, 2), [], [np.zeros((d, 0)) for d in (2, 3, 2)])
    assert reconstruct(m).data.tolist() == [0.0] * 12


def test_reconstruct_basis_component():
    e1 = np.array([[1.0], [0.0]])
    m = KruskalModel((2, 2, 2), [1.0], [e1, e1, e1])
    t = reconstruct(m)
    assert t[0, 0, 0] == 1.0
    assert norm(t, "E") == 1.0


def test_reconstruct_matches_brute_force():
    for seed in range(5):
        m = random_model((3, 4, 2), 3, seed=seed, nonneg=False)
        t = reconstruct(m)
        entries = brute_reconstruct(m)
        scale = max(1.0, norm(t, "G"))
        assert max_abs_diff(t, entries) <= 1e-12 * scale


def test_normalize_worked_example():
    m = normalize(small_model())
    assert m.delta.tolist() == [4.0]
    assert m.factors[0][:, 0].tolist() == [1.0, 0.0]
    assert m.factors[1][:, 0].tolist() == [0.5, 0.5]
    assert m.factors[2][:, 0].tolist() == [1.0, 0.0]
    assert m.normalized and m.nonneg
    diff = reconstruct(m).as_array() - reconstruct(small_model()).as_array()
    assert np.max(np.abs(diff)) <= 1e-12


def test_normalize_idempotent_on_exact_model():
    m = normalize(small_model())
    again = normalize(m)
    assert again.delta.tolist() == m.delta.tolist()
    for f, g in zip(again.factors, m.factors):
        assert f.tolist() == g.tolist()


def test_normalize_drops_zero_components():
    m = KruskalModel(
        (2, 2),
        [0.0, 2.0],
        [np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[1.0, 1.0], [1.0, 0.0]])],
    )
    out = normalize(m)
    assert out.r == 1
    diff = reconstruct(out).as_array() - reconstruct(m).as_array()
    assert np.max(np.abs(diff)) <= 1e-12

    zeroed = KruskalModel((2, 2), [0.0], [np.ones((2, 1)), np.ones((2, 1))])
    out = normalize(zeroed)
    assert out.r == 0
    assert norm(reconstruct(out), "E") == 0.0


def test_normalize_zero_column_drop():
    m = KruskalModel(
        (2, 2),
        [3.0],
        [np.array([[0.0], [0.0]]), np.array([[1.0], [1.0]])],
    )
    out = normalize(m)
    assert out.r == 0


def test_normalize_rejects_negative():
    m = KruskalModel((2,), [1.0], [np.array([[-1.0], [2.0]])])
    with pytest.raises(ValueError):
        normalize(m)


@pytest.mark.parametrize(
    "delta, factor",
    [([1e300], [[1e10], [0.0]]), ([1.0], [[1e308], [1e308]])],
    ids=["weight-overflows", "column-sum-overflows"],
)
@pytest.mark.parametrize("rescale", [normalize, l2_normalize])
def test_rescale_without_a_finite_normal_form_raises_without_warning(delta, factor, rescale):
    # The suite turns warnings into errors, so a numpy overflow warning fails.
    m = KruskalModel((2, 2), delta, [factor, factor])
    with pytest.raises(ValueError, match="no finite normal form"):
        rescale(m)


@pytest.mark.parametrize(
    "rescale, delta, factors, weight, columns",
    [
        (normalize, [1e-300], [[[1e-300], [0.0]], [[1e308], [1e308]]], 2e-292,
         [[1.0, 0.0], [0.5, 0.5]]),
        (l2_normalize, [1.0], [[[1e-200], [0.0]]], 1e-200, [[1.0, 0.0]]),
        (normalize, [1.0], [[[1.0], [5e-324]]], 1.0, [[1.0, 5e-324]]),
        (l2_normalize, [1.0], [[[1.0], [5e-324]]], 1.0, [[1.0, 5e-324]]),
    ],
    ids=["column-sum-overflows", "column-norm-underflows", "l1-tiny-entry", "l2-tiny-entry"],
)
def test_rescale_reaches_a_finite_normal_form(rescale, delta, factors, weight, columns):
    # The plain column sum 2e308 overflows and the plain squared norm 1e-400
    # underflows, but both normal forms are finite and nonzero; an entry
    # 1074 binades below its column's largest keeps its bits.
    out = rescale(KruskalModel([len(f) for f in factors], delta, factors))
    assert out.r == 1
    assert out.delta[0] == pytest.approx(weight, rel=1e-15)
    assert [f[:, 0].tolist() for f in out.factors] == columns


def test_normalize_preserves_reconstruction_randomly():
    for seed in range(20):
        m = random_model((3, 4, 5), 4, seed=seed, nonneg=True, e_norm=3.0)
        # scramble scale so normalize has work to do
        factors = [f * (1.5 + i) for i, f in enumerate(m.factors)]
        scrambled = KruskalModel(m.shape, m.delta, factors)
        t0 = reconstruct(scrambled)
        t1 = reconstruct(normalize(scrambled))
        g = norm(t0, "G")
        assert np.max(np.abs(t0.as_array() - t1.as_array())) <= 1e-12 * (1 + g)


def test_delta_l1_identity_worked_example():
    d, e = delta_l1_equals_e_norm_check(normalize(small_model()))
    assert d == pytest.approx(4.0, abs=1e-14)
    assert e == pytest.approx(4.0, abs=1e-14)


def test_delta_l1_identity_rank_zero():
    m = KruskalModel((2, 2), [], [np.zeros((2, 0)), np.zeros((2, 0))])
    assert delta_l1_equals_e_norm_check(m) == (0.0, 0.0)


def test_delta_l1_identity_random():
    for seed in range(10):
        m = random_model((3, 4, 5), 3, seed=seed, nonneg=True, e_norm=2.5)
        d, e = delta_l1_equals_e_norm_check(m)
        assert abs(d - e) <= 1e-10


def test_delta_l1_identity_requires_normalized():
    with pytest.raises(ValueError):
        delta_l1_equals_e_norm_check(small_model())


def test_scale_gauge_invariance():
    rng = np.random.default_rng(8)
    for seed in range(10):
        m = random_model((3, 2, 4), 3, seed=seed, nonneg=False)
        alpha = float(rng.uniform(0.5, 3.0))
        p = int(rng.integers(0, 3))
        factors = [f.copy() for f in m.factors]
        factors[0][:, p] *= alpha
        factors[2][:, p] /= alpha
        rescaled = KruskalModel(m.shape, m.delta, factors)
        t0 = reconstruct(m).as_array()
        t1 = reconstruct(rescaled).as_array()
        assert np.max(np.abs(t0 - t1)) <= 1e-12 * (1 + np.max(np.abs(t0)))


def test_normalize_quotients_the_scale_gauge():
    # rescaled copies of a nonnegative model share one normal form
    m = random_model((3, 2, 4), 2, seed=14, nonneg=True, e_norm=2.0)
    factors = [f.copy() for f in m.factors]
    factors[0][:, 1] *= 4.0
    factors[2][:, 1] /= 4.0
    rescaled = KruskalModel(m.shape, m.delta, factors)
    n0 = normalize(m)
    n1 = normalize(rescaled)
    assert np.max(np.abs(n0.delta - n1.delta)) <= 1e-12
    for f, g in zip(n0.factors, n1.factors):
        assert np.max(np.abs(f - g)) <= 1e-12


def test_l2_normalize_weights_are_component_f_norms():
    m = random_model((3, 4, 2), 3, seed=1, nonneg=False)
    out = l2_normalize(m)
    for f in out.factors:
        assert np.max(np.abs(np.linalg.norm(f, axis=0) - 1.0)) <= 1e-12
    t0 = reconstruct(m).as_array()
    t1 = reconstruct(out).as_array()
    assert np.max(np.abs(t0 - t1)) <= 1e-12 * (1 + np.max(np.abs(t0)))
    # |weight_p| equals the F-norm of the p-th rank-1 summand
    for p in range(m.r):
        cols = [f[:, p] for f in m.factors]
        expect = abs(m.delta[p]) * np.prod([np.linalg.norm(c) for c in cols])
        assert abs(out.delta[p]) == pytest.approx(expect, rel=1e-12)


def test_to_naive_bayes_uniform():
    half = np.array([[0.5], [0.5]])
    m = KruskalModel((2, 2, 2), [1.0], [half, half, half])
    nb = to_naive_bayes(m)
    assert nb.prior.tolist() == [1.0]
    joint = nb.joint()
    assert np.max(np.abs(joint.as_array() - 0.125)) <= 1e-15


def test_to_naive_bayes_reads_an_unflagged_model():
    m = KruskalModel((2, 2), [2.0], [[[0.25], [0.75]], [[0.5], [0.5]]])
    assert to_naive_bayes(m).prior.tolist() == [1.0]
    assert delta_l1_equals_e_norm_check(m) == (2.0, 2.0)


def test_to_naive_bayes_prior_normalization():
    half = np.array([[0.5, 0.5], [0.5, 0.5]])
    m = KruskalModel((2, 2), [2.0, 2.0], [half, half])
    nb = to_naive_bayes(m)
    assert nb.prior.tolist() == [0.5, 0.5]
    # A weight 1074 binades below the largest keeps its bits in the prior.
    m = KruskalModel((1,), [1.0, 5e-324], [[[1.0, 1.0]]])
    assert to_naive_bayes(m).prior.tolist() == [1.0, 5e-324]


def test_to_naive_bayes_prior_when_delta_l1_overflows():
    m = model_from_json(
        '{"shape": [2, 2], "delta": [1e308, 1e308], '
        '"factors": [[[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]]}'
    )
    assert np.all(np.isfinite(reconstruct(m).as_array()))
    assert to_naive_bayes(m).prior.tolist() == [0.5, 0.5]
    # ||delta||_1 and the E-norm are both 2e308, beyond the double range.
    assert delta_l1_equals_e_norm_check(m) == (np.inf, np.inf)


def test_to_naive_bayes_worked_example():
    m = normalize(small_model())  # delta=[4], columns [1,0], [.5,.5], [1,0]
    nb = to_naive_bayes(m)
    assert nb.prior.tolist() == [1.0]
    assert nb.conditionals[0][:, 0].tolist() == [1.0, 0.0]
    assert nb.conditionals[1][:, 0].tolist() == [0.5, 0.5]
    joint = nb.joint()
    assert joint[0, 0, 0] == pytest.approx(0.5, abs=1e-15)
    assert joint[0, 1, 0] == pytest.approx(0.5, abs=1e-15)
    assert norm(joint, "E") == pytest.approx(1.0, abs=1e-14)
    # scaling the joint by ||delta||_1 recovers the reconstruction
    scaled = joint.as_array() * 4.0
    assert np.max(np.abs(scaled - reconstruct(m).as_array())) <= 1e-12


def test_to_naive_bayes_errors():
    m = KruskalModel((2, 2), [], [np.zeros((2, 0)), np.zeros((2, 0))])
    with pytest.raises(ValueError):
        to_naive_bayes(m)
    with pytest.raises(ValueError):
        to_naive_bayes(small_model())  # not normalized


def test_naive_bayes_validation():
    with pytest.raises(ValueError):
        NaiveBayesModel([0.5, 0.6], [np.full((2, 2), 0.5)])
    with pytest.raises(ValueError):
        NaiveBayesModel([1.0], [np.array([[0.7], [0.7]])])
    with pytest.raises(ValueError):
        NaiveBayesModel([1.0], [np.array([[1.5], [-0.5]])])
    half = np.full((2, 2), 0.5)
    for prior, conditionals in [
        ([1.5, -0.5], [half]),  # signed sum 1, off the simplex
        ([], [np.zeros((2, 0))]),
        ([np.nan, 1.0], [half]),
        ([1.0], [[0.5, 0.5]]),  # a vector, not a (d, r) matrix
        ([1.0], [0.5]),
        ([1.0], []),
    ]:
        with pytest.raises(ValueError):
            NaiveBayesModel(prior, conditionals)


def test_naive_bayes_owns_its_arrays():
    prior = np.array([0.25, 0.75])
    cond = np.array([[0.5, 0.1], [0.5, 0.9]])
    nb = NaiveBayesModel(prior, [cond, np.full((4, 2), 0.25)])
    prior[0] = cond[0, 0] = np.nan
    assert nb.prior.tolist() == [0.25, 0.75]
    assert nb.conditionals[0].tolist() == [[0.5, 0.1], [0.5, 0.9]]
    assert nb.r == 2
    assert not any(a.flags.writeable for a in (nb.prior, *nb.conditionals))
    with pytest.raises(AttributeError):
        nb.prior = [1.0]


def test_naive_bayes_joint_is_the_normalized_reconstruction():
    for seed in range(4):
        m = random_model((3, 9, 4), 3, seed=seed, nonneg=True)
        nb = to_naive_bayes(m)
        unit = KruskalModel(m.shape, nb.prior, list(nb.conditionals))
        assert nb.joint().data.tobytes() == reconstruct(unit).data.tobytes()


def test_random_model_determinism_and_seeds():
    a = random_model((3, 4), 2, seed=9, nonneg=True)
    b = random_model((3, 4), 2, seed=9, nonneg=True)
    assert a.delta.tolist() == b.delta.tolist()
    for f, g in zip(a.factors, b.factors):
        assert f.tolist() == g.tolist()

    c = random_model((3, 4), 2, seed=10, nonneg=True)
    assert a.delta.tolist() != c.delta.tolist() or any(
        f.tolist() != g.tolist() for f, g in zip(a.factors, c.factors)
    )


def test_random_model_nonneg_is_normalized():
    m = random_model((4, 3, 2), 3, seed=2, nonneg=True, e_norm=6.0)
    assert m.nonneg and m.normalized
    d, e = delta_l1_equals_e_norm_check(m)
    assert d == pytest.approx(6.0, rel=1e-12)
    assert e == pytest.approx(6.0, rel=1e-12)


def test_random_model_rejects_bad_rank():
    with pytest.raises(ValueError):
        random_model((2, 2), 0, seed=0)
    with pytest.raises(ValueError, match="e_norm must be >= 0"):
        random_model((2, 2), 1, seed=0, e_norm=-1.0)


def test_model_json_round_trip():
    m = random_model((3, 2, 4), 3, seed=4, nonneg=True, e_norm=1.0)
    back = model_from_json(model_to_json(m))
    assert back.shape == m.shape
    assert back.delta.tolist() == m.delta.tolist()
    for f, g in zip(back.factors, m.factors):
        assert f.tolist() == g.tolist()
    assert back.nonneg and back.normalized
    assert model_to_json(back) == model_to_json(m)

    signed = random_model((2, 2), 2, seed=4, nonneg=False)
    back = model_from_json(model_to_json(signed))
    assert not back.nonneg and not back.normalized


def test_model_json_malformed():
    with pytest.raises(ValueError, match="malformed model JSON"):
        model_from_json("not json")
    with pytest.raises(ValueError):
        model_from_json("[]")
    with pytest.raises(ValueError):
        model_from_json('{"shape": [2], "delta": [1]}')
