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

Two private evaluators compute D_KL.  distance sums its terms one by one,
so neither sum(a) nor sum(b) can leave the double range or absorb D_KL.  The
solver's KL loss (solvers.objective and the MU fits) is a batched one, built
once per target, on a stack of reconstructions floored at
solvers.KL_SOLVER_FLOOR.
"""

import enum
import math

import numpy as np

from .tensor import _instance, _nonnegative, _real, _scaled, add_scaled, inner, norm


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
    everywhere = len(pos) == a.size

    def rows(b):
        # take() keeps each row contiguous, so it sums as a flat array does;
        # on a support of every entry each row of b already is its take().
        # log a - log b rather than log(a/b): the ratio can overflow when b is
        # tiny.  The last add is one IEEE add per row, as on Python floats.
        bv = b if everywhere else b.take(pos, axis=1)
        terms = np.add.reduce(av * (log_a - np.log(bv)), axis=1)
        return ((np.add.reduce(b, axis=1) - a_sum) + terms).tolist()

    return rows


def _kl_termwise(a, b):
    """D_KL(a, b) as the sum of its terms a log(a/b) - a + b, for b > 0 on
    the support of a.  Each term is >= 0, so a term that rounds below 0 counts
    as 0 and the sum exceeds the range only where D_KL does.  Where the
    largest entry is 2^1013 or more, a log(a/b) (|log| < 2^11) could
    overflow where its term does not, so the terms are halved there and the
    sum doubled; below, they are not, so a subnormal term keeps its last
    bit.  The logs are of the pair scaled by the power of two of its largest
    entry, or, where that scaling leaves an entry subnormal, of the entries
    themselves.  Where b is near a, |t| < 1/2 for t = (b - a)/a, the
    difference of logs would cancel, so the term is a (t - log1p(t))
    instead, by its series below |t| = 2^-10."""
    pair = np.stack([a, b])
    scaled, e = _scaled(pair, lambda x: x)
    k = -int(e > 1013)  # the binary exponent of the scale of every term
    pos = a > 0.0
    logs = np.log(np.where(np.minimum.reduce(scaled) >= _TINY, scaled, pair)[:, pos])
    terms = np.ldexp(b - a, k)
    ap = np.ldexp(a[pos], k)
    with np.errstate(over="ignore"):
        terms[pos] += ap * (logs[0] - logs[1])
        t = (b[pos] - a[pos]) / a[pos]
        near = np.abs(t) < 0.5
        t = t[near]
        series = t * t * (1 / 2 - t * (1 / 3 - t * (1 / 4 - t * (1 / 5 - t / 6))))
        g = np.where(np.abs(t) < 2.0**-10, series, t - np.log1p(t))
        terms[np.flatnonzero(pos)[near]] = ap[near] * g
        return float(np.ldexp(np.add.reduce(np.maximum(terms, 0.0)), -k))


def distance(a, b, kind):
    """Proximity of A to B under the given kind; >= 0, and 0 iff A == B.

    KL requires A >= 0 and B >= 0; it returns math.inf when some entry has
    a > 0 but b = 0, and otherwise the sum of D_KL's terms, each computed
    without cancellation, at any scale in the double range.  In doubles, KL
    is 0 for A != B only where D_KL is within a few subnormal steps
    (4.9e-324 each) of 0, as for entries a and a (1 + t) with a t^2 / 2 that
    small.  Every kind is math.inf, not an
    error, when the value exceeds the double range.
    """
    if _instance(a, "a").shape != _instance(b, "b").shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if kind is DivergenceKind.KL:
        for which, x in (("first", a), ("second", b)):
            if not _nonnegative(x.data):
                raise ValueError(f"KL requires the {which} argument to be nonnegative")
        # 0 log 0 = 0 where a = 0; +inf where a > 0 and b = 0.
        if np.any(b.data[a.data > 0.0] == 0.0):
            return math.inf
        return _kl_termwise(a.data, b.data)
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
    flat = _instance(a, "a").data
    if not _nonnegative(flat):
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
    if _instance(a, "a").shape != _instance(b, "b").shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if _instance(grad_phi_b, "grad_phi_b").shape != b.shape:
        raise ValueError(f"gradient shape {grad_phi_b.shape} does not match {b.shape}")
    d = _real(phi_a, "phi_a") - _real(phi_b, "phi_b")
    d -= inner(grad_phi_b, add_scaled(a, b, 1.0, -1.0))
    if not math.isfinite(d):
        raise ValueError("the Bregman form is not finite")
    return d
