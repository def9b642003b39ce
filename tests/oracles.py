"""Slow, loop-based reference implementations used as independent oracles,
the one implementation of each paper invariant that the tests check on fit
traces, and the one probe of an immutable array.

Everything here works entry by entry in plain Python floats (brute_kl in
decimal arithmetic), deliberately avoiding the vectorized code paths under
test; one_sweep alone calls numpy, np.einsum over the full tensor.
"""

import decimal
import itertools
import math

import numpy as np


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


def cancellation(model):
    """kappa_E = ||X||_E / sum_k |delta_k| prod_n ||w_k^(n)||_1 of the model's
    reconstruction X, by explicit loops over its entries and rank-1 terms: 1
    where no terms cancel (the paper's identity ||delta||_1 = ||X||_E for every
    normalized nonnegative model), towards 0 as they do; 1.0 for a model whose
    terms carry no mass, one with no components included."""
    mass = 0.0
    for p in range(model.r):
        term = abs(float(model.delta[p]))
        for f in model.factors:
            term *= sum(abs(x) for x in f[:, p].tolist())
        mass += term
    e_norm = sum(abs(x) for x in brute_reconstruct(model).values())
    return e_norm / mass if mass else 1.0


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


def em_naive_bayes(a, prior, conditionals, sweeps):
    """The generalized KL divergence D_KL(A, max(X, 1e-300)) of the tensor A
    from its naive-Bayes model X, at the start and after each of ``sweeps``
    EM sweeps, by explicit loops over the entries and the classes, and the
    final prior and conditionals: ``(divergences, prior, conditionals)``, the
    latter two as lists of floats.

    X[j] = sum_p prior[p] prod_i conditionals[i][j_i][p]: ``prior`` holds the
    r class weights (expected class counts, summing to the mass of X) and
    conditional i is a column-stochastic d_i x r matrix.  A sweep visits the
    modes in order.  At mode n the E-step takes the posterior of each class
    given entry j from the current parameters, and the M-step sets the prior
    and conditional n (the others held) from the expected counts A[j] times
    those posteriors, so sum X = sum A after every mode.  This is the KL
    multiplicative update of mode n read in the model's own parameters.  A
    class whose expected count is 0 has no mass left: its prior stays 0 and
    its conditional n is 0 (the update's zero column)."""
    shape, r = a.shape, len(prior)
    prior = [float(p) for p in prior]
    cond = [[[float(x) for x in row] for row in c] for c in conditionals]
    data = {idx: a[idx] for idx in indices(shape)}

    def terms(idx):  # prior[p] prod_i cond[i][j_i][p] for each class p
        out = []
        for p in range(r):
            t = prior[p]
            for i, j in enumerate(idx):
                t *= cond[i][j][p]
            out.append(t)
        return out

    def divergence():
        total = 0.0
        for idx, x_a in data.items():
            x = max(sum(terms(idx)), 1e-300)
            total += x_a * (math.log(x_a) - math.log(x)) - x_a + x if x_a > 0.0 else x
        return total

    out = [divergence()]
    for _ in range(sweeps):
        for n, d in enumerate(shape):
            counts = [[0.0] * r for _ in range(d)]  # expected counts of (j_n, class)
            for idx, x_a in data.items():
                if x_a > 0.0:  # an entry with no mass has no expected counts
                    t = terms(idx)
                    x = sum(t)
                    for p in range(r):
                        counts[idx[n]][p] += x_a * t[p] / x
            prior = [sum(row[p] for row in counts) for p in range(r)]
            cond[n] = [[row[p] / prior[p] if prior[p] else 0.0 for p in range(r)]
                       for row in counts]
        out.append(divergence())
    return out, prior, cond


def one_sweep(a, factors, nonneg, rho=0.0):
    """The factors after one Frobenius sweep of the modes, in order, from the
    d_i x r matrices ``factors`` of the order >= 2 target array ``a``: MU
    (Lee & Seung) if ``nonneg``, else ALS, with the penalty rho ||W||_F^2;
    and the 2-norm condition number of each mode's K^T K + rho I.  np.einsum
    contracts the full tensor with the other factors for the MTTKRP A_(n) K,
    and the other factors with themselves for K^T K, with no caches:

      MU:  W <- W * (A_(n) K) / max(W (K^T K) + rho W, 1e-12)
      ALS: W <- (A_(n) K) (K^T K + rho I)^-1, by np.linalg.solve
    """
    factors = [np.array(f, dtype=float) for f in factors]
    axes = "abcdefgh"[:a.ndim]
    conds = []
    for n, w in enumerate(factors):
        other = [i for i in range(a.ndim) if i != n]
        mt = np.einsum(",".join([axes] + [axes[i] + "z" for i in other]) + f"->{axes[n]}z",
                       a, *(factors[i] for i in other))
        gram = np.einsum(",".join(f"{axes[i]}y,{axes[i]}z" for i in other) + "->yz",
                         *(factors[i] for i in other for _ in "yz"))
        system = gram + rho * np.eye(len(gram))
        conds.append(np.linalg.cond(system))
        if nonneg:
            factors[n] = w * mt / np.maximum(w @ gram + rho * w, 1e-12)
        else:
            factors[n] = np.linalg.solve(system, mt.T).T
    return factors, conds


def max_abs_diff(tensor, entries):
    """Largest |tensor[idx] - entries[idx]| over a dict oracle."""
    return max(abs(tensor[idx] - val) for idx, val in entries.items())


# --- the paper's invariants over a fit trace ------------------------------------
# Each takes a trace's columns (FitTrace.columns, or any object with the
# columns it names) and returns the iterations that break the invariant, so a
# trace that keeps it gives [].  A NaN breaks every invariant.


def objective_rises(cols, slack=1e-10):
    """Iterations whose objective exceeds the previous row's by more than ``slack``."""
    obj = cols.objective
    return [it for it, prev, cur in zip(cols.iter[1:], obj, obj[1:]) if not cur <= prev + slack]


def _above_cap(value, cap):
    return not value <= cap + 1e-9 * (1.0 + cap)


def over_cap(cols, a_e, names=("delta_l1",)):
    """Iterations where the largest of the ``names`` columns exceeds the
    coercivity cap ||A||_E + residual_E, up to the rounding slack 1e-9 (1 + cap)."""
    out = []
    for i, residual in enumerate(cols.residual_E):
        if _above_cap(max(getattr(cols, name)[i] for name in names), a_e + residual):
            out.append(cols.iter[i])
    return out


def over_frobenius_cap(cols, a_e, size):
    """Iterations where delta_l1 exceeds the sqrt(N)-weakened cap ||A||_E +
    sqrt(N) sqrt(objective), N = ``size``, with the slack of over_cap.
    For a Frobenius fit with reg_rho = 0 the objective is residual_F^2 and
    residual_E <= sqrt(N) residual_F, so the cap follows from the coercivity cap."""
    root_n = math.sqrt(size)
    return [it for it, obj, d in zip(cols.iter, cols.objective, cols.delta_l1)
            if _above_cap(d, a_e + root_n * math.sqrt(obj))]


def mass_drift(cols, a_e):
    """Iterations after the first row where delta_l1 is off ||A||_E by more
    than 1e-12 relative: every KL multiplicative update makes sum X = ||A||_E,
    so ||delta||_1 = ||X||_E = ||A||_E."""
    return [it for it, d in zip(cols.iter[1:], cols.delta_l1[1:])
            if not abs(d - a_e) <= 1e-12 * a_e]


def thawed(arr):
    """The levels of ``arr``'s ``.base`` chain, ``arr`` first, whose writeable
    flag can be set to True; none for an array that cannot be written through."""
    levels = []
    while hasattr(arr, "flags"):
        try:
            arr.flags.writeable = True
            levels.append(arr)
        except ValueError:
            pass
        arr = arr.base
    return levels
