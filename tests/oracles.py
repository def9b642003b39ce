"""Slow, loop-based reference implementations used as independent oracles.

Everything here works entry by entry in plain Python floats (brute_kl in
decimal arithmetic), deliberately avoiding the vectorized code paths under
test.
"""

import decimal
import itertools
import math


def indices(shape):
    return itertools.product(*[range(d) for d in shape])


def brute_outer(vectors):
    """Entrywise outer product as a nested list-of-floats dict."""
    shape = tuple(len(v) for v in vectors)
    out = {}
    for idx in indices(shape):
        val = 1.0
        for v, j in zip(vectors, idx):
            val *= float(v[j])
        out[idx] = val
    return shape, out


def brute_norms(tensor):
    """(E, F, G) computed by explicit loops over the flat data."""
    e = 0.0
    f2 = 0.0
    g = 0.0
    for x in tensor.data.tolist():
        e += abs(x)
        f2 += x * x
        g = max(g, abs(x))
    return e, math.sqrt(f2), g


def brute_inner(a, b):
    total = 0.0
    for x, y in zip(a.data.tolist(), b.data.tolist()):
        total += x * y
    return total


def brute_reconstruct(model):
    """Dense reconstruction by direct summation of the defining formula."""
    out = {}
    for idx in indices(model.shape):
        val = 0.0
        for p in range(model.r):
            term = float(model.delta[p])
            for i, j in enumerate(idx):
                term *= float(model.factors[i][j, p])
            val += term
        out[idx] = val
    return out


def brute_kl(a, b):
    """Termwise generalized KL divergence; +inf on unmatched support.  Each
    term x ln(x/y) + (y - x) is evaluated in 60-digit decimal arithmetic from
    the exact values of the doubles, so no term over- or underflows; every
    term is >= 0 and loses at most about 44 of the digits to cancellation,
    and the sum is rounded to a float once (inf beyond the double range)."""
    total = decimal.Decimal(0)
    with decimal.localcontext(decimal.Context(prec=60)):
        for x, y in zip(a.data.tolist(), b.data.tolist()):
            if x > 0.0:
                if y == 0.0:
                    return math.inf
                x, y = decimal.Decimal(x), decimal.Decimal(y)
                total += x * (x / y).ln() + (y - x)
            else:
                total += decimal.Decimal(y)
    return float(total)


def max_abs_diff(tensor, entries):
    """Largest |tensor[idx] - entries[idx]| over a dict oracle."""
    return max(abs(tensor[idx] - val) for idx, val in entries.items())
