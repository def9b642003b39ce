"""
Fitting routines for CP models.

Two entry points share one fit driver and one trace format:

* :func:`fit_nncp` — nonnegative CP by multiplicative updates, squared
  Frobenius or generalized KL loss.  Factors stay nonnegative throughout, the
  objective never increases, and every iterate obeys the coercivity bound
  ||delta||_1 <= ||A||_E + ||A - X||_E that makes nonnegative fitting
  well-posed.
* :func:`fit_cp_unconstrained` — signed CP by alternating least squares on
  the squared Frobenius loss.  Each mode update solves its least-squares
  subproblem exactly, so the objective is nonincreasing; on degenerate inputs
  the rank-1 terms are free to blow up, and the trace records exactly that.

:func:`fit_seeds` runs either solver from many random starts at once.
:class:`FitConfig` rejects every invalid configuration; each entry point
hands the config to the driver :func:`fit_seeds`, which checks the tensor,
picks the solver from ``cfg.nonneg`` and owns the sweeps, the stop rule, the
trace rows, the coercivity check and the packaging.  The driver reconstructs
X once per sweep; the objective, the trace row and the next sweep's first KL
update all read that one reconstruction.  It caches each factor's Gram (for
KL its column sums, which the trace rows reuse), refreshed after its update.

The driver fits a batch of seeds: every factor is an (S, d_i, r) stack with
one matrix per seed, so one einsum, matmul or LAPACK call serves all S seeds,
and a single fit is a batch of one.  Per-seed events stay per seed.  The stop
rule, the finiteness of the trace, the coercivity check, a ridge note and a
failed solve each concern one seed; a seed that stops or raises leaves the
stack and its batch-mates carry on.  So every per-seed list is indexed by
stack entry and sliced with the stacks, and every trace row enters through
FitTrace.append.  A seed's arithmetic never mixes with its batch-mates', so
it gets the same trace, notes, model or exception, byte for byte, in any
batch.

On the per-iteration path every reduction is a direct ufunc call
(np.add.reduce, np.maximum.reduce), never np.sum, ndarray.sum or
np.linalg.norm, whose Python wrappers cost more than the arithmetic on these
tiny tensors; np.linalg.norm(f, axis=1) is exactly
np.sqrt(np.add.reduce(f * f, axis=1)).  Each factor stack is reduced in its
own memory layout, because the layout fixes the rounding: numpy sums a
contiguous axis pairwise in blocks of 8 and a strided one in order, and ALS
leaves its stacks transposed.  So one np.add.reduceat over the concatenated
factors, a stack of factors padded with -0.0, or a Gram's diagonal (a
matmul) is not bit-equal to the per-factor norms and sums, and would change
the traces.

Multiplicative updates are the standard majorization rules extended to k
modes.  With X = sum_p (x) W^(i)[:, p] and the mode-n matricization
X_(n) = W^(n) K^T (K the Khatri-Rao product of the other factors):

  Frobenius:  W^(n) <- W^(n) * (A_(n) K) / (W^(n) (K^T K) + rho W^(n)),
              K^T K the Hadamard product of the other factors' Grams;
  KL:         W^(n) <- W^(n) * ((A/X)_(n) K) / (1_(n) K),
              1_(n) K the product of the other factors' column sums.

Both denominators are floored at 1e-12; each mode update majorizes its block
subproblem, so full sweeps decrease the loss (to floor-level slack).
"""

import collections
import enum
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .divergence import _kl_rows
from .kruskal import KruskalModel, l2_normalize, normalize, random_model, reconstruct
from .kruskal import _einsum_spec, _nonnegative
from .tensor import _integer, _real, norm

# Absolute floors: on the MU denominators, the ALS ridge, and the
# reconstruction inside the solver's KL loss and KL update, where it keeps the
# objective finite while iterates touch the boundary.
DEN_FLOOR = 1e-12
RIDGE_JITTER = 1e-12
KL_SOLVER_FLOOR = 1e-300
STOP_WINDOW = 5


class Loss(enum.Enum):
    FROBENIUS = "frob"
    KL = "kl"


@dataclass(frozen=True)
class FitConfig:
    """Solver hyperparameters, checked at construction (ValueError); tol = 0
    disables the convergence stop so runs exhaust max_iters (used by the
    degeneracy experiments)."""

    rank: int
    loss: Loss = Loss.FROBENIUS
    nonneg: bool = True
    max_iters: int = 500
    tol: float = 1e-9
    seed: int = 0
    reg_rho: float = 0.0
    trace_every: int = 1

    def __post_init__(self):
        for name, least in (("rank", 1), ("max_iters", 1), ("trace_every", 1), ("seed", 0)):
            _integer(getattr(self, name), name, least)
        if not isinstance(self.loss, Loss):
            raise ValueError(f"loss must be a Loss, got {self.loss!r}")
        if not isinstance(self.nonneg, (bool, np.bool_)):
            raise ValueError(f"nonneg must be a bool, got {self.nonneg!r}")
        _check_finite_nonneg("tol", self.tol)
        _check_finite_nonneg("reg_rho", self.reg_rho, self.loss)
        if self.loss is Loss.KL and not self.nonneg:
            raise ValueError("the KL loss requires nonneg=True")


def _check_finite_nonneg(name, value, loss=Loss.FROBENIUS):
    """tol and reg_rho: finite, >= 0, and > 0 only with the Frobenius loss."""
    if _real(value, name) < 0:
        raise ValueError(f"{name} must be >= 0")
    if value > 0 and loss is not Loss.FROBENIUS:
        raise ValueError(f"{name} > 0 requires the Frobenius loss")


@dataclass(frozen=True, slots=True)
class TraceRow:
    iter: int
    objective: float
    delta_l1: float
    max_component_F: float
    residual_E: float


TRACE_HEADER = "iter,objective,delta_l1,max_component_F,residual_E"


class FitTrace:
    """Per-iteration record; ``notes`` collects events (e.g. ridge jitter)
    that have no column of their own."""

    def __init__(self):
        self.rows = []
        self.notes = []

    def append(self, row):
        if self.rows and row.iter <= self.rows[-1].iter:
            raise ValueError("trace iterations must be strictly increasing")
        if not math.isfinite(row.objective):
            raise ValueError("trace objective must be finite")
        self.rows.append(row)

    def note(self, iteration, message):
        self.notes.append((iteration, message))

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def to_csv(self):
        lines = [TRACE_HEADER]
        for r in self.rows:
            lines.append(
                f"{r.iter},{r.objective!r},{r.delta_l1!r},"
                f"{r.max_component_F!r},{r.residual_E!r}"
            )
        return "\n".join(lines) + "\n"

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_csv())


@dataclass
class FitResult:
    model: KruskalModel
    trace: FitTrace
    converged: bool
    final_objective: float


# The kernels below take factor stacks of shape (S, d_i, r) and return one
# result per seed along the leading axis.


def _reconstruct(factors):
    return np.einsum(_einsum_spec(len(factors)), *factors)


def _mttkrp(arr, factors, n):
    """MTTKRP of each tensor of the stack ``arr`` with the stacks other than
    factors[n]; a stack of one tensor serves every seed."""
    others = [f for m, f in enumerate(factors) if m != n]
    if not others:  # order 1: the Khatri-Rao product of no factors is ones
        s, _, r = factors[0].shape
        others = [np.ones((s, r))]
    return np.einsum(_einsum_spec(len(factors), mode=n), arr, *others)


def _factor_stat(f, kl):
    return np.add.reduce(f, axis=1) if kl else f.transpose(0, 2, 1) @ f


def _product_of_others(stats, n):
    others = [st for m, st in enumerate(stats) if m != n]
    return functools.reduce(np.multiply, others) if others else np.ones_like(stats[n])


def _per_seed_sum(x):
    # A reduction over every axis but the first sums each seed's entries in
    # memory order, as np.sum does for one array; reshape(S, -1) would copy
    # a transposed stack into another order.
    return np.add.reduce(x, axis=tuple(range(1, x.ndim)))


def _loss(a_arr, loss, rho):
    """The loss against ``a_arr`` as ``f(xhat, resid, factors)``, one float per
    seed; KL is D_KL(a, max(x, KL_SOLVER_FLOOR)) with a's terms fixed."""
    if loss is Loss.KL:
        kl_rows = _kl_rows(a_arr)

    def per_seed(xhat, resid, factors):
        if loss is Loss.KL:
            return kl_rows(np.maximum(xhat.reshape(len(xhat), -1), KL_SOLVER_FLOOR))
        val = _per_seed_sum(resid * resid)
        if rho > 0:
            val = val + rho * sum(_per_seed_sum(f * f) for f in factors)
        return val.tolist()

    return per_seed


def objective(a, model, loss, reg_rho=0.0):
    """Loss of a model against a target tensor.

    Frobenius: ||A - X||_F^2 + rho * sum of squared l2-norms of every stored
    factor column (the penalty reads the representation as given, so it is
    deliberately not gauge-invariant).  KL: D_KL(A, max(X, 1e-300)), the
    reconstruction floored entrywise, so the floor enters both the logs and
    the sum of X.
    """
    if tuple(model.shape) != a.shape:
        raise ValueError(f"shape mismatch: tensor {a.shape} vs model {model.shape}")
    _check_finite_nonneg("reg_rho", reg_rho, loss)
    if loss is Loss.KL:
        if not model.nonneg:
            raise ValueError("KL objective requires a nonnegative model")
        if not _nonnegative(a.data):
            raise ValueError("KL objective requires a nonnegative tensor")
    elif loss is not Loss.FROBENIUS:
        raise ValueError(f"unknown loss {loss!r}")
    a_arr = a.as_array()
    x = reconstruct(model).as_array()[None]
    factors = [f[None] for f in model.factors]
    return _loss(a_arr, loss, reg_rho)(x, a_arr - x, factors)[0]


def coercivity_bound(a_e, residual_e):
    """The cap ||A||_E + ||A - X||_E on ||delta||_1 of a nonnegative iterate,
    given ||A||_E and the iterate's residual_E, plus the rounding slack
    1e-9 * (1 + cap) that every check of the cap allows."""
    cap = a_e + residual_e
    return cap + 1e-9 * (1.0 + cap)


def _trace_quantities(resid, factors, nonneg, colsums=None):
    """Per-seed residual_E, delta_l1 and max_component_F arrays; ``colsums``
    are the factors' column sums if the caller has them, else falsy."""
    residual_e = _per_seed_sum(np.abs(resid))
    norms = [np.sqrt(np.add.reduce(f * f, axis=1)) for f in factors]
    comp_f = functools.reduce(np.multiply, norms)
    if nonneg:
        colsums = colsums or [np.add.reduce(f, axis=1) for f in factors]
        delta_hat = functools.reduce(np.multiply, colsums)
    else:
        delta_hat = comp_f
    return residual_e, np.add.reduce(delta_hat, axis=1), np.maximum.reduce(comp_f, axis=1)


def fit_seeds(a, cfg, seeds):
    """Fit one configuration from several random starts as one batch.

    ``cfg.nonneg`` picks the solver: the multiplicative updates of
    :func:`fit_nncp` or the alternating least squares of
    :func:`fit_cp_unconstrained`, with the same input checks.  Each is a
    start ``init(a, cfg)`` that returns one seed's starting factors, and a
    per-mode update ``update(factors, stats, n, xhat, note, fail)`` that
    returns the new mode-n factor stack.  ``stats`` caches each factor's
    Gram, or column sums for KL; ``xhat`` is the reconstruction stack of
    ``factors``, or None once an earlier mode of the sweep has changed;
    ``note(j, message)`` records an event on the trace of stack entry j at
    the current iteration, and ``fail(j, exc)`` ends that entry's fit with
    ``exc``.  Every per-seed list (output slot, trace, objective window) is
    indexed by stack entry, like the stacks, and is sliced with them when
    entries end.  ``cfg.seed`` is ignored; ``seeds`` lists the starts.
    Returns one entry per seed, in order: the FitResult that ``cfg`` with
    that seed gives alone, or the exception that fit raises (a seed that
    FitConfig rejects fails alone).
    """
    if cfg.nonneg and np.any(a.data < 0):
        raise ValueError("fit_nncp requires a nonnegative tensor")
    a_arr = a.as_array()
    a_e = norm(a, "E")
    # Module globals looked up per call, so that tests can substitute them.
    if cfg.nonneg:
        init, update, rescale = _init_nonneg, _mu_update(a_arr, cfg), normalize
    else:
        init, update, rescale = _init_signed, _als_update(a_arr, cfg), l2_normalize
    kl, loss = cfg.loss is Loss.KL, _loss(a_arr, cfg.loss, cfg.reg_rho)
    out = [None] * len(seeds)
    slots, starts = [], []  # slots[j]: the output index of stack entry j
    for i, seed in enumerate(seeds):
        try:
            starts.append(init(a, replace(cfg, seed=seed)))
            slots.append(i)
        except Exception as exc:
            out[i] = exc
    if not slots:
        return out
    factors = [np.stack(stack) for stack in zip(*starts)]
    stats = [_factor_stat(f, kl) for f in factors]
    traces = [FitTrace() for _ in slots]
    # The objectives of each entry's last STOP_WINDOW iterations.
    windows = [collections.deque(maxlen=STOP_WINDOW) for _ in slots]
    ended = {}  # stack entry -> its FitResult or exception

    def retire():
        """Record the ended entries, drop them from the stacks and the
        per-entry lists, and return the kept entries."""
        for j, res in ended.items():
            out[slots[j]] = res
        keep = [j for j in range(len(slots)) if j not in ended]
        for entries in (slots, traces, windows):
            entries[:] = [entries[j] for j in keep]
        factors[:] = [f[keep] for f in factors]
        stats[:] = [st[keep] for st in stats]
        ended.clear()
        return keep

    def note(j, message):
        traces[j].note(it, message)

    for it in range(cfg.max_iters + 1):
        if it > 0:
            for n in range(len(factors)):
                factors[n] = update(factors, stats, n, xhat, note, ended.__setitem__)
                stats[n], xhat = _factor_stat(factors[n], kl), None
                if ended and not retire():
                    return out
        xhat = _reconstruct(factors)
        resid = a_arr - xhat
        objs = loss(xhat, resid, factors)
        last = it == cfg.max_iters
        traced = last or it % cfg.trace_every == 0
        rows = None
        for j, (obj, window) in enumerate(zip(objs, windows)):
            # Relative decrease over the trailing window; a full window
            # starts with the objective of iteration it - STOP_WINDOW.
            stop = False
            if cfg.tol > 0 and len(window) == STOP_WINDOW:
                ref = window[0]
                stop = (ref - obj) / max(abs(ref), 1e-300) < cfg.tol
            window.append(obj)
            if not (traced or stop):
                continue
            if rows is None:
                quantities = _trace_quantities(resid, factors, cfg.nonneg, kl and stats)
                rows = list(zip(*(q.tolist() for q in quantities)))
            res_e, dl1, cmax = rows[j]
            try:
                traces[j].append(TraceRow(it, obj, dl1, cmax, res_e))
                if cfg.nonneg and dl1 > coercivity_bound(a_e, res_e):
                    raise RuntimeError(
                        f"coercivity bound violated at iteration {it}: {dl1} > {a_e + res_e}"
                    )
                if stop or last:
                    raw = KruskalModel(a.shape, np.ones(cfg.rank), [f[j] for f in factors])
                    model = _sort_by_weight(rescale(raw))
                    ended[j] = FitResult(model, traces[j], converged=stop, final_objective=obj)
            except Exception as exc:
                ended[j] = exc
        if ended:
            keep = retire()
            if not keep:
                return out
            xhat = xhat[keep]
    return out


def _sort_by_weight(model):
    """Components reordered by descending |weight| (stable)."""
    order = np.argsort(-np.abs(model.delta), kind="stable")
    return KruskalModel(model.shape, model.delta[order], [f[:, order] for f in model.factors])


def _init_nonneg(a, cfg):
    m = random_model(a.shape, cfg.rank, cfg.seed, nonneg=True, e_norm=norm(a, "E") or 1.0)
    return [f * m.delta ** (1.0 / len(a.shape)) for f in m.factors]


def _init_signed(a, cfg):
    m = random_model(a.shape, cfg.rank, cfg.seed, nonneg=False)
    w = [f.copy() for f in m.factors]
    w[0] = w[0] * m.delta
    return w


def _mu_update(a_arr, cfg):
    rho = cfg.reg_rho
    # a_arr >= 0 and -0.0 + 0.0 is +0.0: the KL ratio is +0.0 off the support.
    a_pos = a_arr + 0.0

    def frobenius(factors, stats, n, xhat, note, fail):
        num = _mttkrp(a_arr[None], factors, n)
        den = factors[n] @ _product_of_others(stats, n)
        if rho > 0:
            den = den + rho * factors[n]
        return factors[n] * (num / np.maximum(den, DEN_FLOOR))

    def kl(factors, stats, n, xhat, note, fail):
        if xhat is None:
            xhat = _reconstruct(factors)
        ratio = a_pos / np.maximum(xhat, KL_SOLVER_FLOOR)
        num = _mttkrp(ratio, factors, n)
        den = _product_of_others(stats, n)[:, None, :]
        return factors[n] * (num / np.maximum(den, DEN_FLOOR))

    return kl if cfg.loss is Loss.KL else frobenius


def _als_update(a_arr, cfg):
    rho = cfg.reg_rho
    eye = np.eye(cfg.rank)

    def als(factors, stats, n, xhat, note, fail):
        gram = _product_of_others(stats, n)
        if rho > 0:
            gram = gram + rho * eye
        rhs = _mttkrp(a_arr[None], factors, n).transpose(0, 2, 1)
        try:
            np.linalg.cholesky(gram)
            return np.linalg.solve(gram, rhs).transpose(0, 2, 1)
        except np.linalg.LinAlgError:
            pass
        # Some seed's normal equations are singular: solve seed by seed, into
        # the (S, r, d) layout that the batched solve returns.
        sol = np.zeros(rhs.shape)
        for j in range(len(gram)):
            # A Gram that fails the Cholesky probe, or whose solve fails, gets
            # the ridge RIDGE_JITTER * I; if that solve fails too, so does the seed.
            try:
                np.linalg.cholesky(gram[j])
                sol[j] = np.linalg.solve(gram[j], rhs[j])
            except np.linalg.LinAlgError:
                try:
                    sol[j] = np.linalg.solve(gram[j] + RIDGE_JITTER * eye, rhs[j])
                    note(j, f"ridge jitter on mode {n}")
                except np.linalg.LinAlgError as exc:
                    fail(j, exc)
        return sol.transpose(0, 2, 1)

    return als


def _fit_one(a, cfg):
    (result,) = fit_seeds(a, cfg, [cfg.seed])
    if isinstance(result, Exception):
        raise result
    return result


def fit_nncp(a, cfg):
    """Nonnegative CP fit by multiplicative updates.

    Requires a nonnegative target and cfg.nonneg = True.  Returns a
    simplex-normalized nonnegative model, the iteration trace, and a
    convergence flag.  Deterministic given (a, cfg).
    """
    if not cfg.nonneg:
        raise ValueError("fit_nncp requires cfg.nonneg = True")
    return _fit_one(a, cfg)


def fit_cp_unconstrained(a, cfg):
    """Signed CP fit by alternating least squares (Frobenius loss only).

    Each mode solve is exact; singular normal equations fall back to a 1e-12
    ridge, noted on the trace.  Returns a model with unit-l2 columns and
    signed weights.  Deterministic given (a, cfg).
    """
    if cfg.nonneg:
        raise ValueError("fit_cp_unconstrained requires cfg.nonneg = False")
    return _fit_one(a, cfg)
