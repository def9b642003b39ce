"""
Dense order-k tensors with arithmetic, outer products, norms, and inner products.

A :class:`DenseTensor` is an immutable row-major array of finite doubles.  The
three entrywise norms (E = l1, F = l2, G = l-infinity of the flattened tensor)
are multiplicative on rank-1 tensors, which is what most invariants downstream
lean on.
"""

import json
import math
import numbers
import operator
import os
from collections.abc import Sequence

import numpy as np

NORM_KINDS = ("E", "F", "G")


def _reals(values, depth=64):
    """True for an ndarray of an integer or float dtype (never walked), a real
    number that is not a bool, or a sequence (not text) of such values nested
    at most ``depth`` (numpy's axis limit) deep: a list that holds itself fails."""
    if isinstance(values, np.ndarray):
        return values.dtype.kind in "iuf"
    if isinstance(values, Sequence) and not isinstance(values, (str, bytes)):
        return depth > 0 and all(type(v) in (float, int) or _reals(v, depth - 1) for v in values)
    return isinstance(values, numbers.Real) and not isinstance(values, (bool, np.bool_))


class _Judged(bytes):
    """The buffer of each array :func:`_judged` returns; a view's base is the array."""


def _judged(arr):
    """An immutable copy of the float64 C-ordered array ``arr`` over a
    :class:`_Judged` buffer that no base level can thaw, which :func:`_frozen`
    shares as it is: only for an array whose entries are known to be finite."""
    return np.ndarray(arr.shape, buffer=_Judged(arr))


def _frozen(values, what, ndim=None):
    """A float64 C-ordered copy of ``values`` (reshapes are views, strided sums
    round alike) made by :func:`_judged`; such an array is shared as it is.
    Rejects what :func:`_reals` rejects, ragged nestings, NaN/Inf and, given
    ``ndim`` (a JSON depth), other axis counts."""
    if isinstance(getattr(values, "base", None), _Judged):
        return values
    if not _reals(values):
        raise ValueError(f"{what} must be an array of real numbers")
    try:  # copy=None: a float64 C-ordered array is copied once, by _judged
        arr = np.array(values, dtype=np.float64, order="C", copy=None)
    except (ValueError, OverflowError) as exc:  # a ragged nesting; 10**400
        raise ValueError(f"{what} must be an array of real numbers: {exc}") from None
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{what} must be a list nested {ndim} deep")
    frozen = _judged(arr)  # judge the stored copy: arr may still be the caller's array
    if not np.all(np.isfinite(frozen)):
        raise ValueError(f"{what} contains NaN or Inf")
    return frozen


def _integer(value, what, least=None):
    """``value`` as an int that is >= ``least`` if given; 2.7 and True fail."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise ValueError(f"{what} must be >= {least}")
    return value


def _real(value, what, least=None, above=None):
    """``value`` as a float: a real number, not a bool, finite, >= ``least``, > ``above``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a real number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite")
    if least is not None and value < least:
        raise ValueError(f"{what} must be >= {least}")
    if above is not None and not value > above:
        raise ValueError(f"{what} must be > {above}")
    return value


def _flag(value, what):
    """``value`` as a bool: True or False, numpy's included; 1 and "no" fail."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{what} must be a bool, got {value!r}")
    return bool(value)


def _sequence(value, what):
    """``value`` as a tuple: any iterable but text, a dict or a set (no order)."""
    if isinstance(value, (str, bytes, dict, set, frozenset)) or not np.iterable(value):
        raise ValueError(f"{what} must be a sequence, got {type(value).__name__}")
    return tuple(value)


def _shape(shape, what):
    """``shape`` as a tuple of ints >= 1, of order >= 1."""
    shape = tuple(_integer(d, f"{what} dimension", 1) for d in _sequence(shape, f"{what} shape"))
    if not shape:
        raise ValueError(f"{what} order must be >= 1")
    return shape


class DenseTensor:
    """Immutable dense tensor of shape d_1 x ... x d_k, row-major storage.

    The flat buffer is ordered with the last index varying fastest.  All
    entries are finite doubles; construction rejects NaN/Inf outright so that
    every downstream operation may assume finiteness.
    """

    __slots__ = ("_array",)

    def __init__(self, shape, data):
        shape = _shape(shape, "tensor")
        arr = _frozen(data, "tensor data")
        if arr.size != math.prod(shape):
            raise ValueError(f"data length {arr.size} does not match shape {shape} "
                             f"(expected {math.prod(shape)})")
        try:
            arr = arr.reshape(shape)
        except ValueError:  # more axes than numpy supports (64 in numpy 2, 32 in 1.x)
            raise ValueError(f"tensor order {len(shape)} exceeds numpy's axis limit") from None
        object.__setattr__(self, "_array", arr)

    def __setattr__(self, name, value):
        raise AttributeError("DenseTensor is immutable")

    @classmethod
    def from_array(cls, array):
        """Build from any array-like through the constructor: one immutable copy, or shared."""
        arr = _frozen(array, "tensor data")
        return cls(arr.shape, arr)

    @classmethod
    def zeros(cls, shape):
        shape = _shape(shape, "tensor")
        return cls(shape, np.zeros(math.prod(shape)))

    @property
    def shape(self):
        return self._array.shape

    @property
    def order(self):
        return self._array.ndim

    @property
    def size(self):
        return self._array.size

    @property
    def data(self):
        """Flat row-major view of the entries (read-only)."""
        return self._array.reshape(-1)

    def as_array(self):
        """Read-only ndarray view with the tensor's shape."""
        return self._array

    def __getitem__(self, idx):
        """Entry at a full index tuple; validates length and bounds."""
        if not isinstance(idx, tuple):
            idx = (idx,)
        if len(idx) != self.order:
            raise ValueError(f"index length {len(idx)} does not match tensor order {self.order}")
        idx = tuple(_integer(j, f"mode {i} index") for i, j in enumerate(idx))
        for i, (j, d) in enumerate(zip(idx, self.shape)):
            if not 0 <= j < d:
                raise ValueError(f"index {j} out of bounds for mode {i} (size {d})")
        return float(self._array[idx])

    def __eq__(self, other):
        if not isinstance(other, DenseTensor):
            return NotImplemented
        return self.shape == other.shape and bool(
            np.array_equal(self._array, other._array)
        )

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, so tensors that compare equal hash equal.
        return hash((self.shape, (self._array + 0.0).tobytes()))

    def __repr__(self):
        """A constructor call that rebuilds the tensor exactly, up to 32
        entries (float reprs round-trip); the shape alone beyond that."""
        if self.size > 32:
            return f"DenseTensor(shape={self.shape})"
        return f"DenseTensor({list(self.shape)}, {self.data.tolist()})"


def _instance(value, what, cls=DenseTensor, optional=False):
    """``value`` if it is a ``cls`` (or None, if ``optional``); else ValueError."""
    if not (isinstance(value, cls) or optional and value is None):
        name = cls.__name__ + " or None" * optional
        raise ValueError(f"{what} must be a {name}, got {type(value).__name__}")
    return value


def _nonnegative(*arrays):
    """True when no array has a negative entry."""
    return not any(np.any(x < 0) for x in arrays)


def outer_product(vectors):
    """Outer product of k vectors; entry (j1,...,jk) = x_{j1} y_{j2} ... z_{jk}."""
    vectors = _sequence(vectors, "vectors")
    if not vectors:
        raise ValueError("outer_product needs at least one vector")
    arrs = []
    for i, v in enumerate(vectors):
        a = _frozen(v, f"vector {i}").reshape(-1)
        if a.size == 0:
            raise ValueError(f"vector {i} is empty")
        arrs.append(a)
    out = arrs[0]  # flat, the last vector's index fastest: numpy's axis limit never bites
    with np.errstate(over="ignore", invalid="ignore"):
        for a in arrs[1:]:
            out = np.multiply.outer(out, a).reshape(-1)
    if not np.all(np.isfinite(out)):
        raise ValueError("the outer product is not finite")
    return DenseTensor([a.size for a in arrs], _judged(out))


def add_scaled(a, b, lam, mu):
    """Entrywise lam*a + mu*b of two same-shape tensors."""
    if _instance(a, "a").shape != _instance(b, "b").shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    lam, mu = _real(lam, "lam"), _real(mu, "mu")
    with np.errstate(over="ignore", invalid="ignore"):
        out = lam * a.as_array() + mu * b.as_array()
    if not np.all(np.isfinite(out)):
        raise ValueError("the combination lam*a + mu*b is not finite")
    return DenseTensor(a.shape, _judged(out))


def _scaled(x, reduction, axis=None):
    """(s, e): e is the binary exponent of max|x| (per ``axis``; 0 for a zero
    or empty x) and s = reduction(np.ldexp(x, -e)).  The package's one range
    rule: _unscaled(s, e) is the plain reduction, bit for bit unless that over-
    or underflows, and inf only beyond the double range."""
    e = np.frexp(np.maximum.reduce(np.abs(x), axis=axis, initial=0.0))[1]
    return reduction(np.ldexp(x, -e)), e


def _unscaled(s, e):
    """np.ldexp(s, e), inf with no numpy warning beyond the double range."""
    with np.errstate(over="ignore"):
        return np.ldexp(s, e)


def _divided(x, s, e):
    """x / _unscaled(s, e) for s > 0 and |x| <= that, rounded once: a power of
    two moves from the divisor to x just far enough to keep it a normal double."""
    k = e + np.frexp(s)[1]
    k = k - np.clip(k, -1021, 1024)
    return np.ldexp(x, -k) / np.ldexp(s, e - k)


_NORMS = {"E": np.add.reduce, "G": np.maximum.reduce,
          "F": lambda x: np.sqrt(np.add.reduce(x * x))}


def norm(a, kind):
    """Entrywise norm: E = sum|.|, F = sqrt(sum .^2), G = max|.|, scaled by
    :func:`_scaled`: 0 only for the zero tensor, inf only beyond the range."""
    if not isinstance(kind, str) or kind not in NORM_KINDS:
        raise ValueError(f"unknown norm kind {kind!r}, expected one of {NORM_KINDS}")
    return float(_unscaled(*_scaled(np.abs(_instance(a, "a").data), _NORMS[kind])))


def inner(a, b):
    """Euclidean inner product; inner(A, A) == norm(A, 'F')**2.  A plain sum
    that leaves the double range is redone on :func:`_scaled` operands: never NaN."""
    if _instance(a, "a").shape != _instance(b, "b").shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.sum(a.data * b.data)
    if np.isfinite(s):
        return float(s)
    (x, e), (y, f) = _scaled(a.data, np.positive), _scaled(b.data, np.positive)
    return float(_unscaled(np.sum(x * y), e + f))


# --- file formats ------------------------------------------------------------
#
# Tensors are JSON {"shape": [...], "data": [...]} with data row-major, traces
# and summaries CSV; floats are their shortest round-trip repr (bit-exact).


def _csv_text(header, rows):
    """``header``, then one line of str(value)s per row (numpy scalars too)."""
    line = ",".join(["%s"] * (header.count(",") + 1))
    return "\n".join([header, *(line % tuple(row) for row in rows)]) + "\n"


def _open(path, mode="r"):
    """open(path, mode) for a str, bytes or os.PathLike: not an int, which
    open() would take for a file descriptor and close."""
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise ValueError(f"path must be a str, bytes or os.PathLike, got {type(path).__name__}")
    return open(path, mode)


def _write_text(path, text):
    with _open(path, "w") as fh:
        fh.write(text)


def _read_text(path):
    with _open(path) as fh:
        return fh.read()


def _json_document(text, what, fields):
    """The values of ``fields``, each required, in the JSON object ``text``."""
    try:
        doc = json.loads(text)
    except (ValueError, TypeError, RecursionError) as exc:  # not text or UTF-8; too deep
        raise ValueError(f"malformed {what} JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{what} JSON must be an object")
    for name in fields:
        if name not in doc:
            raise ValueError(f"{what} JSON missing field {name!r}")
    return [doc[name] for name in fields]


def tensor_to_json(a):
    return json.dumps({"shape": list(_instance(a, "a").shape), "data": a.data.tolist()})


def tensor_from_json(text):
    shape, data = _json_document(text, "tensor", ("shape", "data"))
    return DenseTensor(shape, _frozen(data, "tensor data", ndim=1))


def write_tensor(a, path):
    _write_text(path, tensor_to_json(a) + "\n")


def read_tensor(path):
    return tensor_from_json(_read_text(path))
