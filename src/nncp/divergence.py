"""
Proximity measures between same-shape tensors.

Four kinds: the three entrywise norms of the difference (E, F, G) and the
generalized Kullback-Leibler divergence

    D_KL(A, B) = sum_j [ a_j log(a_j / b_j) - a_j + b_j ],   0 log 0 := 0,

which is the Bregman divergence of phi(A) = sum a log a.  The norms are
symmetric metrics; D_KL is asymmetric, satisfies no triangle inequality, and
is +inf when A puts mass where B has none.  That boundary case is encoded as
the value math.inf rather than an exception, because the interesting
experiments walk straight toward it.

One private evaluator, built once per target, computes D_KL for a stack of
arrays.  It has three users: generalized_kl (and so distance) as its one-row
case, and solvers.objective and the MU fits (fit_nncp, fit_seeds) as the KL
loss on the reconstruction floored at solvers.KL_SOLVER_FLOOR.
"""

import enum
import math

import numpy as np

from .tensor import add_scaled, inner, norm


class DivergenceKind(enum.Enum):
    E_NORM = "e"
    F_NORM = "f"
    G_NORM = "g"
    KL = "kl"


def generalized_kl(a, b):
    """KL divergence of two nonnegative arrays.

    Entries where a = 0 contribute b (the 0 log 0 convention); entries where
    a > 0 and b = 0 make the result +inf.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if np.any(b[a > 0.0] == 0.0):
        return math.inf
    return _kl_rows(a)(b.reshape(1, -1))[0]


def _kl_rows(a):
    """D_KL(a, b) for each row b of a C-ordered (S, a.size) stack, one Python
    float per row, with a's support, sum and logs fixed once.  Every b must be
    > 0 on the support of a."""
    pos = np.flatnonzero(a > 0.0)
    av = a.take(pos)
    a_sum, log_a = np.add.reduce(av), np.log(av)

    def rows(b):
        # take() keeps each row contiguous, so it sums as a flat array does.
        # log a - log b rather than log(a/b): the ratio can overflow when b is
        # tiny.  The last add is on Python floats.
        terms = np.add.reduce(av * (log_a - np.log(b.take(pos, axis=1))), axis=1).tolist()
        return [m + t for m, t in zip((np.add.reduce(b, axis=1) - a_sum).tolist(), terms)]

    return rows


def distance(a, b, kind):
    """Proximity of A to B under the given kind; >= 0, and 0 iff A == B.

    KL requires A >= 0 and B >= 0; it returns math.inf when some entry has
    a > 0 but b = 0.
    """
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if kind is DivergenceKind.E_NORM:
        return norm(_diff(a, b), "E")
    if kind is DivergenceKind.F_NORM:
        return norm(_diff(a, b), "F")
    if kind is DivergenceKind.G_NORM:
        return norm(_diff(a, b), "G")
    if kind is DivergenceKind.KL:
        if np.any(a.data < 0):
            raise ValueError("KL requires the first argument to be nonnegative")
        if np.any(b.data < 0):
            raise ValueError("KL requires the second argument to be nonnegative")
        return generalized_kl(a.data, b.data)
    raise ValueError(f"unknown divergence kind {kind!r}")


def _diff(a, b):
    return add_scaled(a, b, 1.0, -1.0)


def kl_phi(a):
    """Generator of the KL divergence: sum of a log a, with 0 log 0 = 0."""
    flat = a.data
    if np.any(flat < 0):
        raise ValueError("kl_phi requires a nonnegative tensor")
    pos = flat[flat > 0.0]
    return float(np.sum(pos * np.log(pos)))


def bregman_from_phi(a, b, phi_a, phi_b, grad_phi_b):
    """Bregman form phi(A) - phi(B) - <grad phi(B), A - B>.

    The caller supplies the generator values and the gradient at B (as a
    tensor).  With the KL generator this reproduces distance(A, B, KL); with
    phi = 0.5 ||.||_F^2 (gradient B) it gives half the squared F-distance.
    """
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if grad_phi_b.shape != b.shape:
        raise ValueError(
            f"gradient shape {grad_phi_b.shape} does not match {b.shape}"
        )
    return float(phi_a) - float(phi_b) - inner(grad_phi_b, _diff(a, b))
