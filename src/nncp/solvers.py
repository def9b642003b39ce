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
KL its column sums), refreshed after its update.

The driver fits a batch of seeds: every factor is an (S, d_i, r) stack with
one matrix per seed, so one matmul, ufunc or LAPACK call serves all S seeds,
and a single fit is a batch of one.  Per-seed events stay per seed.  The stop
rule, the finiteness of the trace, the coercivity check, a ridge note and a
failed solve each concern one seed; a seed that stops or raises leaves the
stack and its batch-mates carry on.  So every per-seed list is indexed by
stack entry and sliced with the stacks, and every trace row enters through
FitTrace.append_block.  A seed's arithmetic never mixes with its
batch-mates', so it gets the same trace, notes, model or exception, byte for
byte, in any batch, on every shape (modes of size 1 and order 1 included).

The kernels, from nncp.kruskal (whose reconstruct is their one-model case),
are batched matmuls with the Khatri-Rao product K of the factors other than
W^(n), one fixed-shape product per stack entry whatever S is, so the batch
never changes a seed's summation order.  Each mode update builds its K once;
its MTTKRP (matricized tensor times Khatri-Rao product) is A_(n) @ K, the
unfoldings A_(n) built once per fit.  The reconstruction after a sweep is
W^(0) K^T, whose K the next mode-0 update reuses; it and the residual stay
mode-0 unfoldings, so no array of a fit has more axes than the target.  A KL
update of mode n >= 1 reconstructs as W^(n) K^T with its own K.  At order 1,
K is a row of ones.

Trace rows are computed in blocks.  A traced iterate records only references
to its iteration, objective list, residual stack and factor stacks, arrays
the driver replaces and never writes into.  A block holds at most
TRACE_BLOCK iterates, and at most TRACE_BLOCK_ENTRIES residual entries
unless one iterate has more.  When it is full, and before any seed ends, one
pass computes the (T, S) block's residual_E, delta_l1 and max_component_F,
checks the coercivity cap as one array expression, and appends each seed's
rows.  The entry bound keeps the memory of a block independent of the size
of A and its temporaries small: on a 20x20x20 tensor a block of four or more
iterates cost more per row than one row at a time.  The objectives are still
checked for finiteness every traced iteration, so a diverging seed ends
where it did; a cap violation surfaces at the next flush, naming the first
violating iteration, and replaces any later error of that seed (a failed
solve since).

On the per-iteration path every reduction is a direct ufunc call
(np.add.reduce, np.maximum.reduce), never np.sum, ndarray.sum or
np.linalg.norm, whose Python wrappers cost more than the arithmetic on these
tiny tensors; np.linalg.norm(f, axis=1) is exactly
np.sqrt(np.add.reduce(f * f, axis=1)).  Every factor stack is C-ordered (ALS
copies its solves back to that layout), and each is reduced on its own: a
reduction's rounding depends on the lengths and layout it runs over, so one
np.add.reduceat over the concatenated factors, a stack of factors padded
with -0.0, or a Gram's diagonal (a matmul) is not bit-equal to the
per-factor norms and sums, and would change the traces.

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

import enum
import functools
import math
import operator
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .divergence import _kl_rows
from .kruskal import KruskalModel, l2_normalize, normalize, random_model, reconstruct
from .kruskal import _khatri_rao, _nonnegative, _reconstruct, _unfoldings
from .tensor import _csv_text, _integer, _real, _write_text, norm

# Absolute floors: on the MU denominators, the ALS ridge, and the
# reconstruction inside the solver's KL loss and KL update, where it keeps the
# objective finite while iterates touch the boundary.
DEN_FLOOR = 1e-12
RIDGE_JITTER = 1e-12
KL_SOLVER_FLOOR = 1e-300
STOP_WINDOW = 5
# Bounds on a block of trace rows; see the module docstring.
TRACE_BLOCK = 64
TRACE_BLOCK_ENTRIES = 2**14


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


class TraceRow(NamedTuple):  # one traced iterate; the fields are the CSV columns
    iter: int
    objective: float
    delta_l1: float
    max_component_F: float
    residual_E: float


TRACE_HEADER = ",".join(TraceRow._fields)


class FitTrace:
    """Per-iteration record, stored as columns; ``columns`` reads them and
    ``rows`` builds the TraceRows on demand.  ``notes`` collects events
    (e.g. ridge jitter) that have no column of their own."""

    def __init__(self):
        self._columns = tuple([] for _ in TraceRow._fields)
        self.notes = []

    def append_block(self, iters, objectives, delta_l1, max_component_F, residual_E):
        """Append a block of rows given as columns (one sequence per field):
        the iterations must rise strictly past the last row and every
        objective must be finite."""
        block = (iters, objectives, delta_l1, max_component_F, residual_E)
        if len(set(map(len, block))) > 1:
            raise ValueError("trace columns must have equal lengths")
        chain = self._columns[0][-1:] + list(iters)
        if any(map(operator.ge, chain, chain[1:])):
            raise ValueError("trace iterations must be strictly increasing")
        if not all(map(math.isfinite, objectives)):
            raise ValueError("trace objective must be finite")
        for column, values in zip(self._columns, block):
            column.extend(values)

    def note(self, iteration, message):
        self.notes.append((iteration, message))

    @property
    def columns(self):
        """The trace as a TraceRow of columns, one tuple per field."""
        return TraceRow._make(map(tuple, self._columns))

    @property
    def rows(self):
        """The trace as a list of TraceRows, built on each call; kept for the
        benchmark harness, which reads ``rows[-1].iter`` and ``len(rows)``."""
        return list(map(TraceRow._make, zip(*self._columns)))

    def __len__(self):
        return len(self._columns[0])

    def to_csv(self):
        return _csv_text(TRACE_HEADER, zip(*self._columns))

    def write_csv(self, path):
        _write_text(path, self.to_csv())


@dataclass
class FitResult:
    model: KruskalModel
    trace: FitTrace
    converged: bool
    final_objective: float


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


def _loss(a0, loss, rho):
    """The loss against the mode-0 unfolding ``a0`` of the target as
    ``f(x, resid, factors)``, one float per seed, for stacks ``x`` and
    ``resid`` of mode-0 unfoldings; KL is D_KL(a, max(x, KL_SOLVER_FLOOR))
    with a's terms fixed."""
    if loss is Loss.KL:
        kl_rows = _kl_rows(a0)

    def per_seed(x, resid, factors):
        if loss is Loss.KL:
            return kl_rows(np.maximum(x.reshape(len(x), -1), KL_SOLVER_FLOOR))
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
    a0 = a.as_array().reshape(a.shape[0], -1)
    x = reconstruct(model).as_array().reshape(1, *a0.shape)
    factors = [f[None] for f in model.factors]
    return _loss(a0, loss, reg_rho)(x, a0 - x, factors)[0]


def coercivity_bound(a_e, residual_e):
    """The cap ||A||_E + ||A - X||_E on ||delta||_1 of a nonnegative iterate,
    given ||A||_E and the iterate's residual_E, plus the rounding slack
    1e-9 * (1 + cap) that every check of the cap allows."""
    cap = a_e + residual_e
    return cap + 1e-9 * (1.0 + cap)


def _within_cap(a_e, values, residual_e):
    """values <= coercivity_bound(a_e, residual_e), entrywise, for arrays;
    a NaN on either side is never within the cap."""
    with np.errstate(over="ignore"):  # a cap beyond the double range is inf
        return values <= coercivity_bound(a_e, residual_e)


def _stacked(arrays):
    """np.stack(arrays) for arrays of one shape, in one call, C-ordered
    unless it is a view of a single array."""
    if len(arrays) == 1:
        return arrays[0][None]
    return np.concatenate(arrays).reshape(len(arrays), *arrays[0].shape)


def _trace_columns(resids, factors, nonneg):
    """residual_E, delta_l1 and max_component_F of a block of T traced
    iterates, each a (T, S) array: ``resids`` holds the T residual stacks
    and ``factors`` the T tuples of C-ordered factor stacks.  Each factor is
    reduced on its own, so every column sums in the same order as it would
    alone."""
    res = np.abs(_stacked(resids))
    residual_e = np.add.reduce(res, axis=tuple(range(2, res.ndim)))
    sumsq, sums = [], []
    for fs in zip(*factors):
        base = _stacked(fs)
        sumsq.append(np.add.reduce(base * base, axis=2))
        if nonneg:
            sums.append(np.add.reduce(base, axis=2))
    comp_f = np.multiply.reduce(np.sqrt(_stacked(sumsq)), axis=0)
    delta_hat = np.multiply.reduce(_stacked(sums), axis=0) if nonneg else comp_f
    return residual_e, np.add.reduce(delta_hat, axis=2), np.maximum.reduce(comp_f, axis=2)


def fit_seeds(a, cfg, seeds):
    """Fit one configuration from several random starts as one batch.

    ``cfg.nonneg`` picks the solver: the multiplicative updates of
    :func:`fit_nncp` or the alternating least squares of
    :func:`fit_cp_unconstrained`, with the same input checks.  Each is a
    start ``init(a, cfg)`` that returns one seed's starting factors, and a
    per-mode update ``update(factors, stats, n, kr, x, note, fail)`` that
    returns the new mode-n factor stack.  ``stats`` caches each factor's
    Gram, or column sums for KL; ``kr`` is the Khatri-Rao product of the
    stacks other than factors[n]; ``x`` is the mode-n unfolding of the
    reconstruction of ``factors`` if the driver has it (mode 0), else None;
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
    unfolded = a_arr.reshape(a.shape[0], -1)  # the mode-0 unfolding, as x0
    a_e = norm(a, "E")
    # Module globals looked up per call, so that tests can substitute them.
    if cfg.nonneg:
        init, update, rescale = _init_nonneg, _mu_update(a_arr, cfg), normalize
    else:
        init, update, rescale = _init_signed, _als_update(a_arr, cfg), l2_normalize
    kl, loss = cfg.loss is Loss.KL, _loss(unfolded, cfg.loss, cfg.reg_rho)
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
    window = []  # the objective lists of the last STOP_WINDOW iterations, if tol > 0
    block = []  # the traced iterates whose rows are not yet in the traces
    ended = {}  # stack entry -> its FitResult or exception

    def flush():
        """Append the block's rows to the traces.  An entry is (iteration,
        objective list, residual stack, factor stacks, and the stop flags
        if only the seeds that stop get a row, else None)."""
        if not block:
            return
        its, objs, resids, fs, has_row = zip(*block)
        block.clear()
        cols = _trace_columns(resids, fs, cfg.nonneg)
        res_e, dl1, cmax = (c.T.tolist() for c in cols)
        over = (~_within_cap(a_e, cols[1], cols[0])).T.tolist() if cfg.nonneg else None
        for j, seed_objs in enumerate(zip(*objs)):
            n = len(its) - (has_row[-1] is not None and not has_row[-1][j])
            k = over[j].index(True) if over and True in over[j][:n] else None
            m = n if k is None else k + 1
            try:
                traces[j].append_block(
                    its[:m], seed_objs[:m], dl1[j][:m], cmax[j][:m], res_e[j][:m]
                )
                if k is not None:
                    raise RuntimeError(
                        f"coercivity bound violated at iteration {its[k]}: "
                        f"{dl1[j][k]} > {a_e + res_e[j][k]}"
                    )
            except Exception as exc:
                ended[j] = exc

    def retire():
        """Record the ended entries, drop them from the stacks and the
        per-entry lists, and return the kept entries."""
        nonlocal kr0, x0
        for j, res in ended.items():
            out[slots[j]] = res
        keep = [j for j in range(len(slots)) if j not in ended]
        for entries in (slots, traces, *window):
            entries[:] = [entries[j] for j in keep]
        factors[:] = [f[keep] for f in factors]
        stats[:] = [st[keep] for st in stats]
        ended.clear()
        kr0, x0 = kr0[keep], x0[keep]
        return keep

    def note(j, message):
        traces[j].note(it, message)

    for it in range(cfg.max_iters + 1):
        if it > 0:
            for n in range(len(factors)):
                kr, x = (kr0, x0) if n == 0 else (_khatri_rao(factors, n), None)
                factors[n] = update(factors, stats, n, kr, x, note, ended.__setitem__)
                stats[n] = _factor_stat(factors[n], kl)
                if ended:
                    flush()
                    if not retire():
                        return out
        kr0 = _khatri_rao(factors, 0)
        x0 = _reconstruct(factors[0], kr0)
        resid = unfolded - x0
        objs = loss(x0, resid, factors)
        last = it == cfg.max_iters
        traced = last or it % cfg.trace_every == 0
        # Relative decrease over the trailing window; a full window starts
        # with the objectives of iteration it - STOP_WINDOW.
        stops = [False] * len(objs)
        if cfg.tol > 0:
            if len(window) == STOP_WINDOW:
                ref = window.pop(0)
                stops = [(r - o) / max(abs(r), 1e-300) < cfg.tol for r, o in zip(ref, objs)]
            window.append(objs)
        stopping = True in stops
        if traced or stopping:
            block.append((it, objs, resid, tuple(factors), None if traced else stops))
            full = (len(block) == TRACE_BLOCK
                    or (len(block) + 1) * resid.size > TRACE_BLOCK_ENTRIES)
            # A seed whose objective is not finite ends at this iteration.
            if last or stopping or full or not all(map(math.isfinite, objs)):
                flush()
        if last or stopping:
            for j, stop in enumerate(stops):
                if (stop or last) and j not in ended:
                    try:
                        raw = KruskalModel(a.shape, np.ones(cfg.rank), [f[j] for f in factors])
                        model = _sort_by_weight(rescale(raw))
                        ended[j] = FitResult(model, traces[j], stop, objs[j])
                    except Exception as exc:
                        ended[j] = exc
        if ended and not retire():
            return out
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
    if cfg.loss is Loss.KL:
        # a_arr >= 0 and -0.0 + 0.0 is +0.0: the ratio is +0.0 off the support.
        unfold = _unfoldings(a_arr + 0.0)

        def kl(factors, stats, n, kr, x, note, fail):
            if x is None:
                x = _reconstruct(factors[n], kr)
            ratio = unfold[n] / np.maximum(x, KL_SOLVER_FLOOR)
            den = _product_of_others(stats, n)[:, None, :]
            return factors[n] * ((ratio @ kr) / np.maximum(den, DEN_FLOOR))

        return kl
    unfold = _unfoldings(a_arr)

    def frobenius(factors, stats, n, kr, x, note, fail):
        den = factors[n] @ _product_of_others(stats, n)
        if rho > 0:
            den = den + rho * factors[n]
        return factors[n] * ((unfold[n] @ kr) / np.maximum(den, DEN_FLOOR))

    return frobenius


def _als_update(a_arr, cfg):
    rho = cfg.reg_rho
    eye = np.eye(cfg.rank)
    unfold = _unfoldings(a_arr)

    def als(factors, stats, n, kr, x, note, fail):
        gram = _product_of_others(stats, n)
        if rho > 0:
            gram = gram + rho * eye
        rhs = (unfold[n] @ kr).transpose(0, 2, 1)
        try:
            np.linalg.cholesky(gram)
            sol = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError:
            # Some seed's normal equations are singular: solve seed by seed.
            # A Gram that fails the Cholesky probe, or whose solve fails, gets
            # the ridge RIDGE_JITTER * I; if that solve fails too, so does the seed.
            sol = np.zeros(rhs.shape)
            for j in range(len(gram)):
                try:
                    np.linalg.cholesky(gram[j])
                    sol[j] = np.linalg.solve(gram[j], rhs[j])
                except np.linalg.LinAlgError:
                    try:
                        sol[j] = np.linalg.solve(gram[j] + RIDGE_JITTER * eye, rhs[j])
                        note(j, f"ridge jitter on mode {n}")
                    except np.linalg.LinAlgError as exc:
                        fail(j, exc)
        return np.ascontiguousarray(sol.transpose(0, 2, 1))

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
