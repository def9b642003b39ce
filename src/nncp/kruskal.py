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

from .tensor import DenseTensor, _json_array, norm

_LETTERS = "abcdefghijklmnopqrstuvwxy"  # z indexes components


class KruskalModel:
    """Weights ``delta`` (length r) and k factor matrices of shape (d_i, r).

    ``nonneg`` asserts all weights and factor entries are >= 0; ``normalized``
    additionally asserts every factor column has unit l1-norm (within 1e-12).
    Instances are immutable value objects.
    """

    __slots__ = ("shape", "delta", "factors", "nonneg", "normalized")

    def __init__(self, shape, delta, factors, nonneg=False, normalized=False):
        shape = tuple(int(d) for d in shape)
        if len(shape) < 1:
            raise ValueError("model order must be >= 1")
        if len(factors) != len(shape):
            raise ValueError(
                f"expected {len(shape)} factor matrices, got {len(factors)}"
            )
        delta = np.asarray(delta, dtype=np.float64).reshape(-1).copy()
        if not np.all(np.isfinite(delta)):
            raise ValueError("delta contains NaN or Inf")
        r = delta.size
        mats = []
        for i, (f, d) in enumerate(zip(factors, shape)):
            m = np.asarray(f, dtype=np.float64)
            if m.ndim != 2 or m.shape != (d, r):
                raise ValueError(
                    f"factor {i} must have shape ({d}, {r}), got {m.shape}"
                )
            if not np.all(np.isfinite(m)):
                raise ValueError(f"factor {i} contains NaN or Inf")
            m = m.copy()
            m.flags.writeable = False
            mats.append(m)
        if nonneg:
            if np.any(delta < 0) or any(np.any(m < 0) for m in mats):
                raise ValueError("nonneg model must have no negative entries")
        if normalized:
            if np.any(delta < 0):
                raise ValueError("normalized model requires delta >= 0")
            for i, m in enumerate(mats):
                colsums = np.sum(np.abs(m), axis=0)
                if r and np.max(np.abs(colsums - 1.0)) > 1e-12:
                    raise ValueError(
                        f"normalized model requires unit l1 columns in factor {i}"
                    )
        delta.flags.writeable = False
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "factors", tuple(mats))
        object.__setattr__(self, "nonneg", bool(nonneg))
        object.__setattr__(self, "normalized", bool(normalized))

    def __setattr__(self, name, value):
        raise AttributeError("KruskalModel is immutable")

    @property
    def r(self):
        return self.delta.size

    @property
    def order(self):
        return len(self.shape)

    def __repr__(self):
        return (
            f"KruskalModel(shape={self.shape}, r={self.r}, "
            f"nonneg={self.nonneg}, normalized={self.normalized})"
        )


def _einsum_spec(k, mode=None, weighted=False):
    """np.einsum subscripts over the factors of an order-k CP model.

    Modes are a, b, c, ... and the component index is z.  With mode=None the
    operands are ([delta,] W_1, ..., W_k) and the output is the tensor; with
    mode=n they are the tensor and every factor but W_n, and the output is
    the (d_n, r) MTTKRP.  At k = 1 the Khatri-Rao product of no factors is a
    1 x r row of ones, so that MTTKRP takes a length-r ones operand.
    """
    if k > len(_LETTERS):
        raise ValueError(f"order {k} exceeds supported maximum {len(_LETTERS)}")
    modes = _LETTERS[:k]
    if mode is None:
        ins = ",".join(f"{m}z" for m in modes)
        return f"z,{ins}->{modes}" if weighted else f"{ins}->{modes}"
    others = [f"{m}z" for i, m in enumerate(modes) if i != mode] or ["z"]
    return ",".join([modes, *others]) + f"->{modes[mode]}z"


def reconstruct(model):
    """Dense tensor sum_p delta_p * (outer product of factor columns p)."""
    if model.r == 0:
        return DenseTensor.zeros(model.shape)
    spec = _einsum_spec(model.order, weighted=True)
    out = np.einsum(spec, model.delta, *model.factors)
    return DenseTensor.from_array(out)


def _rescale_columns(model, column_scales, **flags):
    """Divide each factor m by its column scales ``column_scales(m)`` and
    multiply them into delta, dropping components with a zero weight or a
    zero scale."""
    scales = [column_scales(m) for m in model.factors]
    keep = model.delta != 0.0
    for s in scales:
        keep &= s != 0.0
    delta = model.delta[keep]
    factors = []
    for m, s in zip(model.factors, scales):
        factors.append(m[:, keep] / s[keep])
        delta = delta * s[keep]
    return KruskalModel(model.shape, delta, factors, **flags)


def normalize(model):
    """Simplex normal form of a nonnegative model.

    Every factor column is rescaled to unit l1-norm and the scales are
    absorbed into the weights.  Components with zero weight or a zero factor
    column contribute nothing and are dropped, so r may shrink.  The
    reconstruction is preserved exactly.
    """
    if np.any(model.delta < 0) or any(np.any(m < 0) for m in model.factors):
        raise ValueError("normalize requires a nonnegative model")
    # Row sums of the transpose add each column in the same order as
    # np.sum(m[:, p]); np.sum(m, axis=0) rounds differently once d >= 8.
    return _rescale_columns(
        model,
        lambda m: np.sum(np.ascontiguousarray(m.T), axis=1),
        nonneg=True,
        normalized=True,
    )


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
    if not (model.nonneg and model.normalized):
        raise ValueError("check requires a normalized nonnegative model")
    return float(np.sum(model.delta)), norm(reconstruct(model), "E")


class NaiveBayesModel:
    """Prior over a hidden class plus per-variable conditional distributions.

    ``conditionals[i]`` is a column-stochastic (d_i, r) matrix: column theta
    is the distribution of variable i given the hidden class theta.
    """

    __slots__ = ("prior", "conditionals")

    def __init__(self, prior, conditionals):
        prior = np.asarray(prior, dtype=np.float64).reshape(-1).copy()
        if prior.size < 1:
            raise ValueError("prior must be nonempty")
        if np.any(prior < 0):
            raise ValueError("prior must be nonnegative")
        if abs(np.sum(prior) - 1.0) > 1e-12:
            raise ValueError("prior must sum to 1 within 1e-12")
        mats = []
        for i, c in enumerate(conditionals):
            m = np.asarray(c, dtype=np.float64)
            if m.ndim != 2 or m.shape[1] != prior.size:
                raise ValueError(f"conditional {i} must have {prior.size} columns")
            if np.any(m < 0):
                raise ValueError(f"conditional {i} has negative entries")
            if np.max(np.abs(np.sum(m, axis=0) - 1.0)) > 1e-12:
                raise ValueError(f"conditional {i} columns must sum to 1 within 1e-12")
            m = m.copy()
            m.flags.writeable = False
            mats.append(m)
        prior.flags.writeable = False
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "conditionals", tuple(mats))

    def __setattr__(self, name, value):
        raise AttributeError("NaiveBayesModel is immutable")

    @property
    def r(self):
        return self.prior.size

    def joint(self):
        """Joint distribution tensor sum_theta prior(theta) * prod_i q_i(.|theta)."""
        shape = tuple(m.shape[0] for m in self.conditionals)
        model = KruskalModel(shape, self.prior, list(self.conditionals))
        return reconstruct(model)


def to_naive_bayes(model):
    """Read a normalized nonnegative model as a naive-Bayes distribution.

    The prior is delta scaled to sum 1; the factor matrices already are the
    conditional distributions.  Scaling the naive-Bayes joint back by
    ||delta||_1 recovers the model's reconstruction.
    """
    if not (model.nonneg and model.normalized):
        raise ValueError("to_naive_bayes requires a normalized nonnegative model")
    total = float(np.sum(model.delta))
    if total <= 0.0:
        raise ValueError("model with ||delta||_1 = 0 carries no distribution")
    return NaiveBayesModel(model.delta / total, list(model.factors))


def random_model(shape, r, seed, nonneg=True, e_norm=1.0):
    """Seed-deterministic random model.

    Nonnegative: factor entries uniform on (0.1, 1), columns l1-normalized,
    and delta rescaled so the reconstruction has E-norm ``e_norm``.  Signed:
    standard normal weights and factors (no normalization).
    """
    shape = tuple(int(d) for d in shape)
    if r < 1:
        raise ValueError("r must be >= 1")
    rng = np.random.default_rng(seed)
    if nonneg:
        if e_norm < 0:
            raise ValueError("e_norm must be >= 0")
        factors = []
        for d in shape:
            m = rng.uniform(0.1, 1.0, size=(d, r))
            factors.append(m / np.sum(m, axis=0))
        delta = rng.uniform(0.1, 1.0, size=r)
        delta = delta * (e_norm / np.sum(delta))
        return KruskalModel(shape, delta, factors, nonneg=True, normalized=True)
    delta = rng.standard_normal(r)
    factors = [rng.standard_normal((d, r)) for d in shape]
    return KruskalModel(shape, delta, factors)


# --- model file format --------------------------------------------------------
#
# JSON document {"shape": [...], "delta": [...], "factors": [[[...]]]} with each
# factor matrix row-major.  The nonneg/normalized flags are recomputed on read.


def model_to_json(model):
    return json.dumps(
        {
            "shape": list(model.shape),
            "delta": model.delta.tolist(),
            "factors": [m.tolist() for m in model.factors],
        }
    )


def model_from_json(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed model JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("model JSON must be an object")
    for field in ("shape", "delta", "factors"):
        if field not in doc:
            raise ValueError(f"model JSON missing field {field!r}")
    shape = _json_array(doc["shape"], "model shape", integral=True)
    delta = _json_array(doc["delta"], "model delta")
    if type(doc["factors"]) is not list:
        raise ValueError("model factors must be a list")
    factors = [
        _json_array(f, f"model factor {i}", ndim=2)
        for i, f in enumerate(doc["factors"])
    ]
    nonneg = bool(np.all(delta >= 0)) and all(np.all(m >= 0) for m in factors)
    normalized = bool(np.all(delta >= 0)) and all(
        m.size == 0 or np.max(np.abs(np.sum(np.abs(m), axis=0) - 1.0)) <= 1e-12
        for m in factors
    )
    return KruskalModel(shape, delta, factors, nonneg=nonneg, normalized=normalized)


def write_model(model, path):
    with open(path, "w") as fh:
        fh.write(model_to_json(model))
        fh.write("\n")


def read_model(path):
    with open(path) as fh:
        return model_from_json(fh.read())
