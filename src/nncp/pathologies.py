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

import numpy as np

from .kruskal import KruskalModel
from .tensor import DenseTensor, _integer, _real, _sequence, outer_product

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


def bclr_a_eps(epsilon, n=4):
    """The rank-<=5 member A_eps in dimension n, built twice.

    Returns (tensor, components): the tensor summed column-by-column from the
    coefficient matrices, and a 5-component model transcribed from the
    expanded form.  The two routes are algebraically identical, so
    reconstructing the model must reproduce the tensor; tests use this as the
    construction's self-oracle.
    """
    epsilon = _real(epsilon, "epsilon", above=0)
    if np.isinf(1.0 / epsilon):
        raise ValueError("epsilon too small for a float reciprocal")
    n = _integer(n, "n", least=4)
    basis = np.eye(n)[:, :4]
    (u, v, w), terms = _bclr_tables(epsilon)

    total = np.zeros((n,) * 3)
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
    components = KruskalModel((n,) * 3, np.ones(5), factors)
    return tensor, components


def bclr_limit(n=4):
    """The eps -> 0 limit in dimension n: a 0/1 tensor with six unit entries,
    E-norm 6 and rank > 5, so rank-5 fits cannot reach it."""
    n = _integer(n, "n", least=4)
    total = np.zeros((n,) * 3)
    total[tuple(np.transpose(_LIMIT_TERMS) - 1)] = 1.0
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
    for n in _sequence(n_values, "n_values"):
        n = _integer(n, "sequence index", least=1)
        try:
            seq.append(DenseTensor.from_array(a + b * (1.0 / n) + c * (1.0 / (n * n))))
        except OverflowError:
            raise ValueError("sequence index too large for a float") from None
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
    try:
        x = outer_product([[1.0, 1.0 / n]] * 3)
    except OverflowError:
        raise ValueError("n too large for a float") from None
    a = np.zeros((2, 2, 2))
    a[0, 0, 0] = 1.0
    return DenseTensor.from_array(a), x
