"""
Exact generators for the classic ill-posedness constructions.

Three families, all tiny and exactly representable:

* the Bini-Capovani-Lotti-Romani (BCLR) border-rank family: rank-5 tensors
  A_eps whose five rank-1 terms carry 1/eps factors and blow up individually
  while A_eps converges (entrywise, at rate O(eps)) to a limit of rank >= 6;
* a 2x2x2 sequence A_n = A + B/n + C/n^2 of nonnegative tensors converging to
  a three-entry limit whose best rank-2 approximation problem is degenerate
  over the reals;
* the rank-1 KL boundary pair: an indicator tensor A and strictly positive
  rank-1 tensors X_n with D_KL(A, X_n) -> 0, an infimum no positive rank-1
  tensor attains.
"""

from dataclasses import dataclass, field

import numpy as np

from .kruskal import KruskalModel
from .tensor import DenseTensor, _frozen, _integer, _real, outer_product

# Basis-vector index triples (1-based) of the six unit terms of the limit.
_LIMIT_TERMS = [(1, 1, 1), (1, 3, 3), (2, 2, 1), (2, 4, 3), (3, 2, 2), (3, 4, 4)]


def _bclr_tables(eps):
    """The BCLR coefficient matrices (U, V, W) at ``eps``, and the same five
    rank-1 terms transcribed independently from the expanded form, as
    (coeffs over x_1..x_4) per mode, so tests can cross-check the two routes.
    Column j of (U, V, W) gives the j-th term's three coefficient vectors; U
    has a padding 4th row of zeros and W carries the 1/eps factors."""
    e, ie = eps, 1.0 / eps
    u = [
        [1, 0, 1, 0, 1],
        [0, 0, 0, e, e],
        [1, 1, 0, 1, 0],
        [0, 0, 0, 0, 0],
    ]
    v = [
        [e, 0, 0, -e, 0],
        [0, -1, 0, 1, 0],
        [0, 0, 0, 0, e],
        [1, -1, 1, 0, 1],
    ]
    w = [
        [ie, ie, -ie, ie, 0],
        [0, 0, 0, 1, 0],
        [0, 0, -ie, 0, ie],
        [1, 0, 0, 0, -1],
    ]
    terms = [
        ([1, 0, 1, 0], [e, 0, 0, 1], [ie, 0, 0, 1]),
        ([0, 0, 1, 0], [0, -1, 0, -1], [ie, 0, 0, 0]),
        ([1, 0, 0, 0], [0, 0, 0, 1], [-ie, 0, -ie, 0]),
        ([0, e, 1, 0], [-e, 1, 0, 0], [ie, 1, 0, 0]),
        ([1, e, 0, 0], [0, 0, e, 1], [0, 0, ie, -1]),
    ]
    return [np.array(m, dtype=np.float64) for m in (u, v, w)], terms


def _standard_basis(n):
    return [np.eye(n)[:, i] for i in range(4)]


@dataclass(frozen=True)
class BclrInstance:
    """Parameters of the border-rank construction: scale eps, ambient
    dimension n, and the four basis vectors (standard basis by default)."""

    epsilon: float
    n: int = 4
    basis: tuple = field(default=None)

    def __post_init__(self):
        object.__setattr__(self, "epsilon", _real(self.epsilon, "epsilon"))
        if not self.epsilon > 0:
            raise ValueError("epsilon must be > 0")
        object.__setattr__(self, "n", _integer(self.n, "n", least=4))
        basis = self.basis
        if basis is None:
            basis = _standard_basis(self.n)
        vecs = []
        for i, v in enumerate(basis):
            a = _frozen(v, f"basis vector {i}").reshape(-1)
            if a.size != self.n:
                raise ValueError(f"basis vector {i} must have length {self.n}")
            vecs.append(a)
        if len(vecs) != 4:
            raise ValueError("exactly 4 basis vectors required")
        if np.linalg.matrix_rank(np.column_stack(vecs)) != 4:
            raise ValueError("basis vectors must be linearly independent")
        object.__setattr__(self, "basis", tuple(v for v in vecs))


def bclr_a_eps(inst):
    """The rank-<=5 member A_eps, built twice.

    Returns (tensor, components): the tensor summed column-by-column from the
    coefficient matrices, and a 5-component model transcribed from the
    expanded form.  The two routes are algebraically identical, so
    reconstructing the model must reproduce the tensor; tests use this as the
    construction's self-oracle.
    """
    basis = np.column_stack(inst.basis)  # n x 4
    (u, v, w), terms = _bclr_tables(inst.epsilon)

    total = np.zeros((inst.n,) * 3)
    for j in range(5):
        vecs = [basis @ u[:, j], basis @ v[:, j], basis @ w[:, j]]
        total = total + outer_product(vecs).as_array()
    tensor = DenseTensor.from_array(total)

    cols = [[], [], []]
    for term in terms:
        for mode in range(3):
            coeffs = np.array(term[mode], dtype=np.float64)
            cols[mode].append(basis @ coeffs)
    factors = [np.column_stack(c) for c in cols]
    components = KruskalModel((inst.n,) * 3, np.ones(5), factors)
    return tensor, components


def bclr_limit(n=4, basis=None):
    """The eps -> 0 limit: six unit rank-1 terms over the basis vectors.

    With the standard basis this is a 0/1 tensor with exactly six unit
    entries and E-norm 6; its rank exceeds 5, so rank-5 fits cannot reach it.
    """
    inst = BclrInstance(epsilon=1.0, n=n, basis=basis)
    total = np.zeros((inst.n,) * 3)
    for i, j, k in _LIMIT_TERMS:
        vecs = [inst.basis[i - 1], inst.basis[j - 1], inst.basis[k - 1]]
        total = total + outer_product(vecs).as_array()
    return DenseTensor.from_array(total)


def w_sequence(n_values):
    """The 2x2x2 sequence A_n = A + B/n + C/n^2 and its pieces.

    Returns (list of A_n, A, B, C); every output is nonnegative.  A has three
    unit entries, B three, C one, on disjoint supports, so
    ||A_n - A||_E = 3/n + 1/n^2 exactly.
    """
    a = np.zeros((2, 2, 2))
    a[0, 1, 0] = a[1, 0, 0] = a[0, 0, 1] = 1.0
    b = np.zeros((2, 2, 2))
    b[1, 1, 0] = b[0, 1, 1] = b[1, 0, 1] = 1.0
    c = np.zeros((2, 2, 2))
    c[1, 1, 1] = 1.0
    seq = []
    for n in n_values:
        n = _integer(n, "sequence index", least=1)
        seq.append(DenseTensor.from_array(a + b * (1.0 / n) + c * (1.0 / (n * n))))
    return (
        seq,
        DenseTensor.from_array(a),
        DenseTensor.from_array(b),
        DenseTensor.from_array(c),
    )


def kl_counterexample(n):
    """Indicator tensor A and the strictly positive rank-1 X_n chasing it.

    X_n = [1, 1/n] outer-cubed approaches A through the interior of the
    nonnegative orthant; D_KL(A, X_n) -> 0 but no strictly positive rank-1
    tensor achieves 0.
    """
    n = _integer(n, "n", least=1)
    a = np.zeros((2, 2, 2))
    a[0, 0, 0] = 1.0
    x = outer_product([[1.0, 1.0 / n]] * 3)
    return DenseTensor.from_array(a), x
