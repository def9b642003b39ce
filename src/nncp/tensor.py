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

import numpy as np

NORM_KINDS = ("E", "F", "G")


def _frozen(values, what):
    """Read-only float64 copy of ``values`` in C order; rejects NaN/Inf.  C
    order makes reshapes views and pins the rounding of strided reductions."""
    arr = np.array(values, dtype=np.float64, order="C")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains NaN or Inf")
    arr.flags.writeable = False
    return arr


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


def _real(value, what):
    """``value`` as a float: a real number, not a bool, and finite."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a real number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite")
    return value


def _shape(shape, what):
    """``shape`` as a tuple of ints, of order >= 1 with every dimension >= 1."""
    shape = tuple(_integer(d, f"{what} dimension") for d in shape)
    if len(shape) < 1:
        raise ValueError(f"{what} order must be >= 1")
    if any(d < 1 for d in shape):
        raise ValueError(f"all dimensions must be positive, got {shape}")
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
        expected = math.prod(shape)
        if arr.size != expected:
            raise ValueError(
                f"data length {arr.size} does not match shape {shape} "
                f"(expected {expected})"
            )
        object.__setattr__(self, "_array", arr.reshape(shape))

    def __setattr__(self, name, value):
        raise AttributeError("DenseTensor is immutable")

    @classmethod
    def from_array(cls, array):
        """Build from any array-like; copies into an immutable buffer."""
        return cls(np.shape(array), array)

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
            raise ValueError(
                f"index length {len(idx)} does not match tensor order {self.order}"
            )
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
        return f"DenseTensor(shape={self.shape})"


def outer_product(vectors):
    """Outer product of k vectors; entry (j1,...,jk) = x_{j1} y_{j2} ... z_{jk}."""
    if len(vectors) == 0:
        raise ValueError("outer_product needs at least one vector")
    arrs = []
    for i, v in enumerate(vectors):
        a = _frozen(v, f"vector {i}").reshape(-1)
        if a.size == 0:
            raise ValueError(f"vector {i} is empty")
        arrs.append(a)
    out = arrs[0]
    for a in arrs[1:]:
        out = np.multiply.outer(out, a)
    return DenseTensor.from_array(out)


def add_scaled(a, b, lam, mu):
    """Entrywise lam*a + mu*b of two same-shape tensors."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    lam, mu = _real(lam, "lam"), _real(mu, "mu")
    with np.errstate(over="ignore", invalid="ignore"):
        out = lam * a.as_array() + mu * b.as_array()
    if not np.all(np.isfinite(out)):
        raise ValueError("the combination lam*a + mu*b is not finite")
    return DenseTensor.from_array(out)


def norm(a, kind):
    """Entrywise norm: E = sum|.|, F = sqrt(sum .^2), G = max|.|.  When the
    plain sum of E or F overflows, the entries are scaled by 1/G first, so
    the result is inf only if the norm itself exceeds the double range."""
    flat = a.data
    if kind == "G":
        return float(np.max(np.abs(flat)))
    if kind not in NORM_KINDS:
        raise ValueError(f"unknown norm kind {kind!r}, expected one of {NORM_KINDS}")
    with np.errstate(over="ignore"):
        value = _plain_norm(flat, kind)
        if math.isinf(value):
            g = norm(a, "G")
            value = g * _plain_norm(flat / g, kind)
    return value


def _plain_norm(flat, kind):
    return float(np.sum(np.abs(flat)) if kind == "E" else np.sqrt(np.sum(flat * flat)))


def inner(a, b):
    """Euclidean inner product; inner(A, A) == norm(A, 'F')**2."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.sum(a.data * b.data))


# --- tensor file format -----------------------------------------------------
#
# JSON document {"shape": [...], "data": [...]} with data row-major.  Floats
# are emitted with shortest round-trip precision, so write/read is bit-exact.


def _json_array(value, what, ndim=1, integral=False):
    """Array of a parsed JSON value that must be a list nested ``ndim`` deep
    with numbers at the bottom (integers only if ``integral``).  Strings,
    booleans, null, objects and, for integers, 2.0 or 2.7 are rejected."""
    kinds = (int,) if integral else (int, float)
    level = [value]
    for _ in range(ndim):
        if any(type(v) is not list for v in level):
            raise ValueError(f"{what} must be a list nested {ndim} deep")
        level = [x for v in level for x in v]
    if any(type(x) not in kinds for x in level):
        noun = "integers" if integral else "numbers"
        raise ValueError(f"{what} must hold only {noun}")
    try:
        return np.array(value, dtype=np.int64 if integral else np.float64)
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{what}: {exc}") from exc


def _json_document(text, what, fields):
    """The values of ``fields``, each required, in the JSON object ``text``."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
        raise ValueError(f"malformed {what} JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{what} JSON must be an object")
    for name in fields:
        if name not in doc:
            raise ValueError(f"{what} JSON missing field {name!r}")
    return [doc[name] for name in fields]


def tensor_to_json(a):
    return json.dumps({"shape": list(a.shape), "data": a.data.tolist()})


def tensor_from_json(text):
    shape, data = _json_document(text, "tensor", ("shape", "data"))
    return DenseTensor(
        _json_array(shape, "tensor shape", integral=True),
        _json_array(data, "tensor data"),
    )


def write_tensor(a, path):
    with open(path, "w") as fh:
        fh.write(tensor_to_json(a))
        fh.write("\n")


def read_tensor(path):
    with open(path) as fh:
        return tensor_from_json(fh.read())
