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
    pos = a > 0.0
    if np.any(b[pos] == 0.0):
        return math.inf
    total = float(np.sum(b) - np.sum(a[pos]))
    av = a[pos]
    # log a - log b rather than log(a/b): the ratio can overflow when b is
    # tiny.
    total += float(np.sum(av * (np.log(av) - np.log(b[pos]))))
    return total


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
