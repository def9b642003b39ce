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
arrays.  It has three users: distance as its one-row case, and
solvers.objective and the MU fits (fit_nncp, fit_seeds) as the KL loss on the
reconstruction floored at solvers.KL_SOLVER_FLOOR.  Where sum(a) or sum(b)
leaves the double range, or the one-row value is not above the rounding error
of those sums (so it may be all rounding, even negative), distance sums the
terms of D_KL one by one instead.
"""

import enum
import math

import numpy as np

from .tensor import _real, _scaled, add_scaled, inner, norm


_TINY = math.ldexp(1.0, -1022)  # the smallest normal double


class DivergenceKind(enum.Enum):
    E_NORM = "e"
    F_NORM = "f"
    G_NORM = "g"
    KL = "kl"


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


def _kl_termwise(a, b):
    """D_KL(a, b) as the sum of its terms a log(a/b) - a + b, for b > 0 on
    the support of a: the value where sum(a) or sum(b) leaves the range or
    absorbs D_KL.  Each term is >= 0, so a term that rounds below 0 counts
    as 0 and the sum exceeds the range only where D_KL does; the terms are
    halved so that a log(a/b) stays finite wherever its term is, and b - a
    cannot overflow.  The logs are of the pair scaled by the power of two
    of its largest entry, or, where that scaling leaves an entry subnormal,
    of the entries themselves.  Where b is near a, |t| < 1/2 for
    t = (b - a)/a, the difference of logs would cancel, so the term is
    a (t - log1p(t)) instead, by its series below |t| = 2^-10."""
    pair = np.stack([a, b])
    scaled = _scaled(pair, lambda x: x)[0]
    pos = a > 0.0
    logs = np.log(np.where(np.minimum.reduce(scaled) >= _TINY, scaled, pair)[:, pos])
    half = np.ldexp(b - a, -1)
    ap = a[pos]
    with np.errstate(over="ignore"):
        half[pos] += np.ldexp(ap, -1) * (logs[0] - logs[1])
        t = (b[pos] - ap) / ap
        near = np.abs(t) < 0.5
        t = t[near]
        series = t * t * (1 / 4 - t * (1 / 6 - t * (1 / 8 - t * (1 / 10 - t / 12))))
        g = np.where(np.abs(t) < 2.0**-10, series, np.ldexp(t - np.log1p(t), -1))
        half[np.flatnonzero(pos)[near]] = ap[near] * g
        return float(2.0 * np.add.reduce(np.maximum(half, 0.0)))


def distance(a, b, kind):
    """Proximity of A to B under the given kind; >= 0, and 0 iff A == B.

    KL requires A >= 0 and B >= 0; it returns math.inf when some entry has
    a > 0 but b = 0.  In doubles, KL is 0 for A != B only where D_KL is
    within a few subnormal steps (4.9e-324 each) of 0, as for entries a and
    a (1 + t) with a t^2 / 2 that small.  Every kind is math.inf, not an
    error, when the value exceeds the double range.
    """
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if kind is DivergenceKind.KL:
        if np.any(a.data < 0):
            raise ValueError("KL requires the first argument to be nonnegative")
        if np.any(b.data < 0):
            raise ValueError("KL requires the second argument to be nonnegative")
        # 0 log 0 = 0 where a = 0; +inf where a > 0 and b = 0.
        if np.any(b.data[a.data > 0.0] == 0.0):
            return math.inf
        with np.errstate(all="ignore"):
            d = _kl_rows(a.data)(b.data[None])[0]
            # The rounding error of sum(a) and sum(b); inf if either overflows.
            err = a.size * 2.0**-52 * float(np.add.reduce(a.data) + np.add.reduce(b.data))
        if not err < d < math.inf:
            d = _kl_termwise(a.data, b.data)
        return d
    if not isinstance(kind, DivergenceKind):
        raise ValueError(f"unknown divergence kind {kind!r}")
    try:
        diff = add_scaled(a, b, 1.0, -1.0)
    except ValueError:  # a - b overflows, so every norm of it does
        return math.inf
    return norm(diff, kind.value.upper())


def kl_phi(a):
    """Generator of the KL divergence: sum of a log a, with 0 log 0 = 0; inf
    beyond the double range (every term is >= -1/e, so never -inf)."""
    flat = a.data
    if np.any(flat < 0):
        raise ValueError("kl_phi requires a nonnegative tensor")
    pos = flat[flat > 0.0]
    with np.errstate(over="ignore"):
        return float(np.sum(pos * np.log(pos)))


def bregman_from_phi(a, b, phi_a, phi_b, grad_phi_b):
    """Bregman form phi(A) - phi(B) - <grad phi(B), A - B>.

    The caller supplies the generator values and the gradient at B (as a
    tensor).  With the KL generator this reproduces distance(A, B, KL); with
    phi = 0.5 ||.||_F^2 (gradient B) it gives half the squared F-distance.
    phi_a and phi_b must be finite reals, and a form that is not finite raises.
    """
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if grad_phi_b.shape != b.shape:
        raise ValueError(
            f"gradient shape {grad_phi_b.shape} does not match {b.shape}"
        )
    d = _real(phi_a, "phi_a") - _real(phi_b, "phi_b")
    d -= inner(grad_phi_b, add_scaled(a, b, 1.0, -1.0))
    if not math.isfinite(d):
        raise ValueError("the Bregman form is not finite")
    return d
