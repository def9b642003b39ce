"""
Kruskal (CP) models: weights plus per-mode factor matrices.

A model represents X = sum_p delta_p * u_p (x) v_p (x) ... (x) z_p, where
column p of factor matrix i is the p-th factor vector along mode i.  For
nonnegative models the simplex normal form rescales every factor column to
unit l1-norm and absorbs the scale into the weights; in that form
||delta||_1 equals the E-norm of the reconstructed tensor, which turns a
unit-E-norm model into a naive-Bayes joint distribution.
"""

import json

import numpy as np

from .tensor import DenseTensor, _divided, _frozen, _integer, _json_array, _json_document
from .tensor import _read_text, _real, _scaled, _shape, _unscaled, _write_text, norm


def _nonnegative(*arrays):
    """True when no array has a negative entry."""
    return not any(np.any(x < 0) for x in arrays)


def _unit_l1_columns(m):
    """True when every column of the matrix m has l1-norm 1 within 1e-12."""
    sums = _unscaled(*_scaled(m, lambda x: np.sum(np.abs(x), axis=0), axis=0))
    return bool(np.all(np.abs(sums - 1.0) <= 1e-12))


class KruskalModel:
    """Weights ``delta`` (length r) and k factor matrices of shape (d_i, r).

    ``nonneg`` and ``normalized`` are read from the entries: ``nonneg`` holds
    when no weight or factor entry is negative, ``normalized`` when the model
    is ``nonneg`` and every factor column has unit l1-norm (within 1e-12).
    Instances are immutable value objects.
    """

    __slots__ = ("shape", "delta", "factors")

    def __init__(self, shape, delta, factors):
        shape = _shape(shape, "model")
        if len(factors) != len(shape):
            raise ValueError(
                f"expected {len(shape)} factor matrices, got {len(factors)}"
            )
        delta = _frozen(delta, "delta").reshape(-1)
        r = delta.size
        mats = []
        for i, (f, d) in enumerate(zip(factors, shape)):
            m = _frozen(f, f"factor {i}")
            if m.ndim != 2 or m.shape != (d, r):
                raise ValueError(
                    f"factor {i} must have shape ({d}, {r}), got {m.shape}"
                )
            mats.append(m)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "factors", tuple(mats))

    def __setattr__(self, name, value):
        raise AttributeError("KruskalModel is immutable")

    @property
    def r(self):
        return self.delta.size

    @property
    def order(self):
        return len(self.shape)

    @property
    def nonneg(self):
        return _nonnegative(self.delta, *self.factors)

    @property
    def normalized(self):
        return self.nonneg and all(_unit_l1_columns(m) for m in self.factors)

    def __repr__(self):
        return (
            f"KruskalModel(shape={self.shape}, r={self.r}, "
            f"nonneg={self.nonneg}, normalized={self.normalized})"
        )


# The kernels below take factor stacks of shape (S, d_i, r), one model per
# stack entry, and return one result per entry along the leading axis.


def _unfoldings(arr):
    """The mode-n unfoldings of the tensor ``arr``: C-ordered (d_n, size/d_n)
    matrices whose columns match the rows of :func:`_khatri_rao`."""
    return [np.moveaxis(arr, n, 0).reshape(d, -1) for n, d in enumerate(arr.shape)]


def _khatri_rao(factors, n):
    """The (S, size/d_n, r) Khatri-Rao product of the stacks other than
    factors[n], its rows running over those modes in order, the last
    fastest; of no stacks (order 1), a row of ones."""
    others = factors[:n] + factors[n + 1:]
    if not others:
        s, _, r = factors[n].shape
        return np.ones((s, 1, r))
    kr = others[0]
    for f in others[1:]:
        s, d, r = f.shape
        kr = (kr[:, :, None, :] * f[:, None, :, :]).reshape(s, kr.shape[1] * d, r)
    return kr


def _reconstruct(w, kr):
    """The mode-n unfolding W^(n) K^T of each entry's reconstruction, given
    the stack W^(n) and the Khatri-Rao product K of the other stacks."""
    return w @ kr.transpose(0, 2, 1)


def reconstruct(model):
    """Dense tensor sum_p delta_p * (outer product of factor columns p): the
    one-entry case of the kernels, W^(0) diag(delta) K^T reshaped."""
    factors = [f[None] for f in model.factors]
    x = _reconstruct(factors[0] * model.delta, _khatri_rao(factors, 0))
    return DenseTensor.from_array(x.reshape(model.shape))


def _rescale_columns(model, column_scales):
    """Divide each factor m by its column scales ``column_scales(m)`` and
    multiply them into delta, dropping components with a zero weight or a
    zero scale.  Weights stay mantissas and exponents (tensor._scaled) up to one
    last np.ldexp: only a weight beyond the double range raises ValueError."""
    delta, e = np.frexp(model.delta)
    parts = [_scaled(m, column_scales, axis=0) for m in model.factors]
    keep = np.logical_and.reduce([delta != 0.0] + [s != 0.0 for s, _ in parts])
    delta, e, factors = delta[keep], e[keep], []
    for m, (s, em) in zip(model.factors, parts):
        factors.append(_divided(m[:, keep], s[keep], em[keep]))
        delta, e = delta * s[keep], e + em[keep]
    delta = _unscaled(delta, e)
    if not np.isfinite(delta).all():
        raise ValueError("no finite normal form: a weight exceeds the double range")
    return KruskalModel(model.shape, delta, factors)


def normalize(model):
    """Simplex normal form of a nonnegative model.

    Every factor column is rescaled to unit l1-norm and the scales are
    absorbed into the weights.  Components with zero weight or a zero factor
    column contribute nothing and are dropped, so r may shrink.  The
    reconstruction is preserved exactly.
    """
    if not model.nonneg:
        raise ValueError("normalize requires a nonnegative model")
    # Per-column sums: np.sum(m, axis=0) rounds differently once d >= 8.
    return _rescale_columns(model, lambda m: np.array([np.sum(c) for c in m.T]))


def l2_normalize(model):
    """Unit-l2-column form for signed models; magnitudes and signs go to delta.

    Used by the degeneracy metrics: after this rescaling |delta_p| equals the
    F-norm of the p-th rank-1 summand.  Zero columns drop the component.
    """
    # Per-column norms: np.linalg.norm(m, axis=0) sums in another order.
    return _rescale_columns(
        model, lambda m: np.array([np.linalg.norm(c) for c in m.T])
    )


def delta_l1_equals_e_norm_check(model):
    """Return (||delta||_1, E-norm of the reconstruction) for a normalized model.

    For every normalized nonnegative model the two agree (up to rounding):
    the E-norm of a nonnegative rank-1 term with unit-l1 factors is exactly
    its weight, and nonnegativity makes the E-norm additive over components.
    """
    if not model.normalized:
        raise ValueError("check requires a normalized nonnegative model")
    return float(_unscaled(*_scaled(model.delta, np.sum))), norm(reconstruct(model), "E")


class NaiveBayesModel:
    """Prior over a hidden class plus per-variable conditional distributions.

    ``conditionals[i]`` is a column-stochastic (d_i, r) matrix: column theta
    is the distribution of variable i given the hidden class theta.  Stored
    as a normalized nonnegative KruskalModel whose weights, the prior, sum to 1.
    """

    __slots__ = ("_model",)

    def __init__(self, prior, conditionals):
        # d_i is the row count; a scalar gets 0, which the model rejects.
        shape = [np.shape(c)[0] if np.ndim(c) else 0 for c in conditionals]
        model = KruskalModel(shape, prior, conditionals)
        if model.r < 1:
            raise ValueError("prior must be nonempty")
        if not (model.normalized and _unit_l1_columns(model.delta[:, None])):
            raise ValueError("prior and conditionals must be distributions within 1e-12")
        object.__setattr__(self, "_model", model)

    def __setattr__(self, name, value):
        raise AttributeError("NaiveBayesModel is immutable")

    prior = property(lambda self: self._model.delta)
    conditionals = property(lambda self: self._model.factors)
    r = property(lambda self: self._model.r)

    def joint(self):
        """Joint distribution tensor sum_theta prior(theta) * prod_i q_i(.|theta)."""
        return reconstruct(self._model)


def to_naive_bayes(model):
    """Read a normalized nonnegative model as a naive-Bayes distribution.

    The prior is delta scaled to sum 1; the factor matrices already are the
    conditional distributions.  Scaling the naive-Bayes joint back by
    ||delta||_1 recovers the model's reconstruction.
    """
    if not model.normalized:
        raise ValueError("to_naive_bayes requires a normalized nonnegative model")
    total, e = _scaled(model.delta, np.sum)
    if total <= 0.0:
        raise ValueError("model with ||delta||_1 = 0 carries no distribution")
    return NaiveBayesModel(_divided(model.delta, total, e), list(model.factors))


def random_model(shape, r, seed, nonneg=True, e_norm=1.0):
    """Seed-deterministic random model.

    Nonnegative: factor entries uniform on (0.1, 1), columns l1-normalized,
    and delta rescaled so the reconstruction has E-norm ``e_norm``.  Signed:
    standard normal weights and factors (no normalization).
    """
    shape = _shape(shape, "model")
    r = _integer(r, "r", least=1)
    rng = np.random.default_rng(seed)
    if nonneg:
        if _real(e_norm, "e_norm") < 0:
            raise ValueError("e_norm must be >= 0")
        factors = []
        for d in shape:
            m = rng.uniform(0.1, 1.0, size=(d, r))
            factors.append(m / np.sum(m, axis=0))
        delta = rng.uniform(0.1, 1.0, size=r)
        delta = delta * (e_norm / np.sum(delta))
        return KruskalModel(shape, delta, factors)
    delta = rng.standard_normal(r)
    factors = [rng.standard_normal((d, r)) for d in shape]
    return KruskalModel(shape, delta, factors)


# --- model file format --------------------------------------------------------
#
# JSON document {"shape": [...], "delta": [...], "factors": [[[...]]]} with each
# factor matrix row-major.


def model_to_json(model):
    return json.dumps(
        {
            "shape": list(model.shape),
            "delta": model.delta.tolist(),
            "factors": [m.tolist() for m in model.factors],
        }
    )


def model_from_json(text):
    shape, delta, factors = _json_document(text, "model", ("shape", "delta", "factors"))
    shape = _json_array(shape, "model shape", integral=True)
    delta = _json_array(delta, "model delta")
    if type(factors) is not list:
        raise ValueError("model factors must be a list")
    factors = [_json_array(f, f"model factor {i}", ndim=2) for i, f in enumerate(factors)]
    return KruskalModel(shape, delta, factors)


def write_model(model, path):
    _write_text(path, model_to_json(model) + "\n")


def read_model(path):
    return model_from_json(_read_text(path))
