"""Property tests for the model layer: the flags, the model file round trip,
the simplex normal form and the naive-Bayes reading, over drawn models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nncp.kruskal import KruskalModel, model_from_json, model_to_json, normalize, to_naive_bayes

# Entries stay in [-8, 8]: a column sum or a rescaled weight of a model with
# entries near the float maximum is not a finite double, so its normal form
# does not exist.  Zeros of either sign are drawn often, subnormals may be.
_NONNEG = st.one_of(st.just(-0.0), st.just(0.0), st.floats(0.0, 8.0))
_SIGNED = st.one_of(st.just(-0.0), st.floats(-8.0, 8.0))


@st.composite
def _column(draw, d, kinds):
    """A factor column of a kind drawn from ``kinds``: unit-l1 nonnegative,
    nonnegative or signed."""
    kind = draw(st.sampled_from(kinds))
    entry = _SIGNED if kind == "signed" else _NONNEG
    col = np.array(draw(st.lists(entry, min_size=d, max_size=d)))
    if kind == "unit":
        total = np.sum(col)
        if total > 0:
            col = col / total
        else:
            col[draw(st.integers(0, d - 1))] = 1.0
    return col


@st.composite
def models(draw):
    shape = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    r = draw(st.integers(0, 4))
    weight = _SIGNED if draw(st.integers(0, 3)) == 0 else _NONNEG
    delta = draw(st.lists(weight, min_size=r, max_size=r))
    # Every column unit-l1 in half the models, so that many are normalized.
    kinds = draw(st.sampled_from([("unit",), ("unit", "nonneg", "signed")]))
    factors = [np.zeros((d, 0)) for d in shape]
    if r:
        factors = [np.column_stack([draw(_column(d, kinds)) for _ in range(r)]) for d in shape]
    return KruskalModel(shape, delta, factors)


@settings(database=None, deadline=None, max_examples=150)
@given(models())
def test_model_layer_properties(m):
    # The flags follow their definitions; -0.0 >= 0.
    nonneg = all(x >= 0 for a in (m.delta, *m.factors) for x in a.reshape(-1).tolist())
    unit = all(
        abs(sum(abs(x) for x in col) - 1.0) <= 1e-12
        for f in m.factors
        for col in f.T.tolist()
    )
    assert m.nonneg == nonneg
    assert m.normalized == (nonneg and unit)

    # The model file keeps the arrays bit for bit, the text and the flags.
    text = model_to_json(m)
    back = model_from_json(text)
    assert back.shape == m.shape
    assert back.delta.tobytes() == m.delta.tobytes()
    assert [f.tobytes() for f in back.factors] == [f.tobytes() for f in m.factors]
    assert model_to_json(back) == text
    assert (back.nonneg, back.normalized) == (m.nonneg, m.normalized)

    # Every nonnegative model has a simplex normal form.
    if m.nonneg:
        assert normalize(m).normalized
    else:
        with pytest.raises(ValueError):
            normalize(m)

    # The naive-Bayes reading exists exactly for normalized models with mass.
    readable = m.normalized and sum(m.delta.tolist()) > 0
    try:
        nb = to_naive_bayes(m)
    except ValueError:
        assert not readable
    else:
        assert readable
        assert nb.r == m.r
