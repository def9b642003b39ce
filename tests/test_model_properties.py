"""Property tests for the model layer: the flags, the model file round trip,
the two normal forms against exact rational arithmetic and the naive-Bayes
reading, over drawn models with entries anywhere in the finite double range."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nncp.kruskal import (
    KruskalModel,
    l2_normalize,
    model_from_json,
    model_to_json,
    normalize,
    to_naive_bayes,
)

# Zeros of either sign are drawn often.  _WIDE spreads magnitudes evenly over
# the binary exponents, subnormals included, so that column sums overflow and
# squares underflow in many draws.
_WIDE = st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-1074, 1024))
_NONNEG = st.one_of(st.just(-0.0), st.just(0.0), st.floats(0.0, allow_infinity=False), _WIDE)
_SIGNED = st.one_of(
    st.just(-0.0), st.floats(allow_nan=False, allow_infinity=False), _WIDE, _WIDE.map(lambda x: -x)
)
_DBL_MAX = Fraction(sys.float_info.max)
_HALF_ULP = Fraction(2) ** -1075  # half the smallest subnormal


@st.composite
def _column(draw, d, kinds):
    """A factor column of a kind drawn from ``kinds``: unit-l1 nonnegative,
    nonnegative or signed."""
    kind = draw(st.sampled_from(kinds))
    entry = _SIGNED if kind == "signed" else _NONNEG
    col = np.array(draw(st.lists(entry, min_size=d, max_size=d)))
    if kind == "unit":
        if np.any(col > 0):
            # Divided by its largest entry first, the column sum cannot overflow.
            col = col / np.max(col)
            col = col / np.sum(col)
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


def _close(w, x, power):
    """|w - W| <= 1e-12 W + 2**-1075 for the exact value W = x**(1 / power):
    one rounding on top of a relative error, so w and W share their support
    wherever W rounds to a nonzero double."""
    rel, w = Fraction(1e-12), Fraction(abs(w))
    return (1 - rel) ** power * x <= (w + _HALF_ULP) ** power and max(
        w - _HALF_ULP, 0
    ) ** power <= (1 + rel) ** power * x


def _check_normal_form(m, rescale, power):
    """``rescale(m)`` against exact arithmetic.  Component p survives when its
    weight and all its columns are nonzero; then |weight|**power is exactly
    |delta_p|**power times, per mode, the sum s of |c|**power over its column
    c (power 1 for normalize, 2 for l2_normalize), and each factor entry's
    |.|**power is |c|**power / s.  A weight above the float maximum has no
    finite normal form; a draw within 1e-12 relative of that boundary is too
    close to call.  The survivors come in order of descending |weight|: the
    q-th weight is within the bound of the q-th largest exact one, and its
    columns are those of a survivor whose exact weight is within the bound of
    it too, so only components whose exact weights lie within the bound of
    each other may trade places."""
    exact = []  # (|weight|**power, the factor entries' |.|**power by mode)
    for p, w in enumerate(m.delta.tolist()):
        cols = [f[:, p].tolist() for f in m.factors]
        if w != 0 and all(any(col) for col in cols):
            x, entries = Fraction(abs(w)) ** power, []
            for col in cols:
                s = sum(Fraction(abs(c)) ** power for c in col)
                x *= s
                entries.append([Fraction(abs(c)) ** power / s for c in col])
            exact.append((x, entries))
    limit = _DBL_MAX**power
    if any(abs(x / limit - 1) <= power * Fraction(1e-12) for x, _ in exact):
        return None
    if any(x > limit for x, _ in exact):
        with pytest.raises(ValueError, match="no finite normal form"):
            rescale(m)
        return None
    out = rescale(m)
    assert out.r == len(exact)
    weights = out.delta.tolist()
    assert [abs(w) for w in weights] == sorted(map(abs, weights), reverse=True)
    # Python's sort is stable, as the normal form's is.
    ranked = sorted(exact, key=lambda c: c[0], reverse=True)
    unmatched = list(range(len(exact)))
    for q, w in enumerate(weights):
        assert _close(w, ranked[q][0], power)
        cols = [f[:, q].tolist() for f in out.factors]
        match = [j for j in unmatched if _close(w, ranked[j][0], power) and all(
            _close(c, x, power)
            for col, xs in zip(cols, ranked[j][1], strict=True)
            for c, x in zip(col, xs, strict=True)
        )]
        assert match
        # The q-th survivor first: it is the match unless a near-tie traded places.
        unmatched.remove(q if q in match else match[0])
    return out


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

    # Every nonnegative model whose weights stay finite has a simplex normal
    # form, and every model whose weights stay finite a unit-l2 one.
    if m.nonneg:
        out = _check_normal_form(m, normalize, 1)
        assert out is None or out.normalized
    else:
        with pytest.raises(ValueError, match="nonnegative"):
            normalize(m)
    _check_normal_form(m, l2_normalize, 2)

    # The naive-Bayes reading exists exactly for normalized models with mass.
    readable = m.normalized and sum(m.delta.tolist()) > 0
    try:
        nb = to_naive_bayes(m)
    except ValueError:
        assert not readable
    else:
        assert readable
        assert nb.r == m.r
