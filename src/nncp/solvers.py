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
hands the config to the driver :func:`_fit_batch`, which owns the starts,
the stop rule, the trace rows, the coercivity check and the packaging.  A
private :class:`_Stack` holds the sweep, a map of the factors blind to all
of these: ``sweep`` updates every mode and ``evaluate`` reconstructs X once,
which the objective, the trace row and the next sweep's first KL update read.
The stack caches each factor's Gram (for KL its column sums), refreshed after
its update.  For KL the reconstruction is floored at KL_SOLVER_FLOOR once, in
place, after the residual is taken, and each KL ratio A/X is written over its
own fresh reconstruction.

The driver fits a batch of stack entries, each a seed and a family (MU or ALS;
the contrast experiment fits both Frobenius families as one batch).  Every
factor is an (S, d_i, r) stack with one matrix per entry, so one matmul, ufunc
or LAPACK call serves all S entries, and a single fit is a batch of one.  The
MU entries come first; each mode update passes an all-MU stack to the MU tail
directly, or else each family's contiguous slice to its tail, which writes it
into one fresh C-ordered stack.  Per-entry events (a failed start, a signed
target's for MU included, the stop rule, the finiteness of the trace, the MU
coercivity check, a ridge note, a failed solve, a model with no normal form)
concern one entry: one end call, which appends the block's rows first and
calls _Stack.keep once, ends it, and its batch-mates carry on.  An entry's
arithmetic never mixes with its batch-mates', so it gets the same trace,
notes, model or exception, byte for byte, in any batch, on every shape (modes
of size 1 and order 1 included).

The kernels, from nncp.kruskal (whose reconstruct is their one-model case),
are batched matmuls with the Khatri-Rao product K of the factors other than
W^(n), one fixed-shape product per stack entry whatever S is, so the batch
never changes a seed's summation order.  K is gathered along index arrays
built once per fit (see _khatri_rao).  Each mode update builds its K once;
its MTTKRP (matricized tensor times Khatri-Rao product) is A_(n) @ K, the
unfoldings A_(n) built once per fit.  The reconstruction after a sweep is
W^(0) K^T, whose K the next mode-0 update reuses; it and the residual stay
mode-0 unfoldings, so no array of a fit has more axes than the target.  A KL
update of mode n >= 1 reconstructs as W^(n) K^T with its own K.  At order 1,
K is a row of ones.

Trace rows are computed in blocks.  A traced iterate records its iteration,
its objective list, its residual_E (one per seed, reduced from the residual
stack when it is recorded) and references to its factor stacks, arrays the
driver replaces and never writes into.  A block holds at most TRACE_BLOCK
iterates' stacks, whatever the size of A.  When it is full, and before any
seed ends, one pass joins each factor's T stacks as an (S, d, T, r) array,
reduces it over d as an outer axis, checks the coercivity cap as one array
expression, and appends each seed's rows.  The objectives are still checked
for finiteness every traced iteration, so a diverging seed ends where it
did; a cap violation surfaces when its block's rows are appended, naming the
first violating iteration, and replaces any later error of that seed (a
failed solve since).

On the per-iteration path every reduction is a direct ufunc call
(np.add.reduce, np.maximum.reduce), never np.sum, ndarray.sum or
np.linalg.norm, whose Python wrappers cost more than the arithmetic on these
tiny tensors; np.linalg.norm(f, axis=1) is exactly
np.sqrt(np.add.reduce(f * f, axis=1)).  Likewise the ALS probe and solve
call the LAPACK gufuncs of np.linalg.cholesky and np.linalg.solve directly,
under the wrappers' error rule, bound once to the solve.  Every factor stack
is C-ordered and reduced on its own: a reduction's rounding depends on the
lengths and layout it runs over, so one np.add.reduceat over the
concatenated factors, a stack padded with -0.0, or a Gram's diagonal is not
bit-equal to the per-factor norms and sums.  A Frobenius Gram W^T W
multiplies a C-ordered copy of W^T (half the time of the transposed view at
40 entries; bit-equal to it at mode sizes up to 15, not above).

Multiplicative updates are the standard majorization rules extended to k
modes.  With X = sum_p (x) W^(i)[:, p] and the mode-n matricization
X_(n) = W^(n) K^T (K the Khatri-Rao product of the other factors):

  Frobenius:  W^(n) <- W^(n) * (A_(n) K) / (W^(n) (K^T K) + rho W^(n)),
              K^T K the Hadamard product of the other factors' Grams;
  KL:         W^(n) <- W^(n) * ((A/X)_(n) K) / (1_(n) K),
              1_(n) K the product of the other factors' column sums.

Both denominators are floored at 1e-12 (the KL one as the (S, r) product,
before it broadcasts over the rows); each mode update majorizes its block
subproblem, so full sweeps decrease the loss (to floor-level slack).  The KL
update of mode n is the EM step of the naive-Bayes prior and conditional n.
"""

import enum
import math
import operator
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg  # the gufuncs np.linalg.cholesky and solve wrap

from .divergence import _kl_rows
from .kruskal import KruskalModel, l2_normalize, normalize, random_model, reconstruct
from .kruskal import _gather_rows, _khatri_rao, _reconstruct, _unfoldings
from .tensor import _csv_text, _flag, _instance, _integer, _nonnegative, _real, _sequence
from .tensor import _write_text, norm

# Absolute floors: on the MU denominators, the ALS ridge, and the
# reconstruction inside the solver's KL loss and KL update, where it keeps the
# objective finite while iterates touch the boundary.
DEN_FLOOR = 1e-12
RIDGE_JITTER = 1e-12
KL_SOLVER_FLOOR = 1e-300
STOP_WINDOW = 5
TRACE_BLOCK = 64  # traced iterates per block of trace rows; see the module docstring


class Loss(enum.Enum):
    FROBENIUS = "frob"
    KL = "kl"


@dataclass(frozen=True)
class FitConfig:
    """Solver hyperparameters, checked at construction (ValueError) and stored
    as the checked int, float or bool; tol = 0 disables the convergence stop
    so runs exhaust max_iters (used by the degeneracy experiments)."""

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
            object.__setattr__(self, name, _integer(getattr(self, name), name, least))
        _instance(self.loss, "loss", Loss)
        object.__setattr__(self, "nonneg", _flag(self.nonneg, "nonneg"))
        object.__setattr__(self, "tol", _real(self.tol, "tol", least=0))
        object.__setattr__(self, "reg_rho", _reg_rho(self.reg_rho, self.loss))
        if self.loss is Loss.KL and not self.nonneg:
            raise ValueError("the KL loss requires nonneg=True")


def _reg_rho(value, loss):
    """reg_rho as a float: a finite real >= 0, and > 0 only with the Frobenius loss."""
    value = _real(value, "reg_rho", least=0)
    if value > 0 and loss is not Loss.FROBENIUS:
        raise ValueError("reg_rho > 0 requires the Frobenius loss")
    return value


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
    return np.add.reduce(f, axis=1) if kl else np.ascontiguousarray(f.transpose(0, 2, 1)) @ f


def _per_seed_sum(x):
    # A reduction over every axis but the first sums each seed's entries in
    # memory order, as np.sum does for one array.
    return np.add.reduce(x, axis=tuple(range(1, x.ndim)))


def _loss(a0, loss, rho):
    """The loss against the mode-0 unfolding ``a0`` of the target as
    ``f(x, resid, factors)``, one float per seed, for stacks ``x`` and
    ``resid`` of mode-0 unfoldings; KL is D_KL(a, x) with a's terms fixed, of
    an ``x`` already floored at KL_SOLVER_FLOOR."""
    if loss is Loss.KL:
        kl_rows = _kl_rows(a0)
        return lambda x, resid, factors: kl_rows(x.reshape(len(x), -1))

    def per_seed(x, resid, factors):
        val = _per_seed_sum(resid * resid)
        if rho > 0:
            val = val + rho * sum(_per_seed_sum(f * f) for f in factors)
        return val.tolist()

    return per_seed


@np.errstate(over="ignore")  # a loss beyond the double range is inf
def objective(a, model, loss, reg_rho=0.0):
    """Loss of a model against a target tensor.

    Frobenius: ||A - X||_F^2 + rho * sum of squared l2-norms of every stored
    factor column (the penalty reads the representation as given, so it is
    deliberately not gauge-invariant).  KL: D_KL(A, max(X, 1e-300)), the
    reconstruction floored entrywise, so the floor enters both the logs and
    the sum of X.
    """
    if _instance(a, "the target").shape != _instance(model, "model", KruskalModel).shape:
        raise ValueError(f"shape mismatch: tensor {a.shape} vs model {model.shape}")
    _reg_rho(reg_rho, _instance(loss, "loss", Loss))
    if loss is Loss.KL:
        if not model.nonneg:
            raise ValueError("KL objective requires a nonnegative model")
        if not _nonnegative(a.data):
            raise ValueError("KL objective requires a nonnegative tensor")
    a0 = a.as_array().reshape(a.shape[0], -1)
    x = reconstruct(model).as_array().reshape(1, *a0.shape)
    factors = [f[None] for f in model.factors]
    # The KL loss reads X floored; the Frobenius loss reads only the residual.
    return _loss(a0, loss, reg_rho)(np.maximum(x, KL_SOLVER_FLOOR), a0 - x, factors)[0]


@np.errstate(over="ignore")  # a cap beyond the double range is inf
def coercivity_bound(a_e, residual_e):
    """The cap ||A||_E + ||A - X||_E on ||delta||_1 of a nonnegative iterate,
    given ||A||_E and the iterate's residual_E, plus the rounding slack
    1e-9 * (1 + cap) that every check ``value <= cap`` allows (never a NaN)."""
    cap = a_e + residual_e
    return cap + 1e-9 * (1.0 + cap)


def _trace_columns(residual_e, factors, nonneg):
    """residual_E, delta_l1 and max_component_F of a block of T traced
    iterates, each a (T, S) array: ``residual_e`` holds the T iterates'
    residual_E arrays, ``factors`` their T tuples of C-ordered factor stacks
    and ``nonneg`` one bool per entry (delta_l1 multiplies column sums where
    it is set, else l2-norms; every entry gets both, selected in place).  Each
    factor is reduced on its own, over d, in the order of a lone column: as
    the outer axis of its (S, d, T, r) block (one sequential pass of T * r
    sums), or at rank 1 (pairwise) the inner."""
    sumsq, sums = [], []
    for fs in zip(*factors):
        s, d, r = fs[0].shape
        base = (np.concatenate(fs, axis=2).reshape(s, d, len(fs), r) if r > 1
                else np.stack(fs).transpose(1, 2, 0, 3))
        sumsq.append(np.add.reduce(base * base, axis=1))
        sums.append(np.add.reduce(base, axis=1))
    comp_f = np.multiply.reduce(np.sqrt(np.stack(sumsq)), axis=0)  # (S, T, r)
    delta_hat = np.multiply.reduce(np.stack(sums), axis=0)
    np.copyto(delta_hat, comp_f, where=~np.reshape(nonneg, (-1, 1, 1)))
    return (np.stack(residual_e), np.add.reduce(delta_hat, axis=2).T,
            np.maximum.reduce(comp_f, axis=2).T)


def fit_seeds(a, cfg, seeds):
    """Fit one configuration from several random starts as one batch.

    ``cfg.nonneg`` picks the solver: the multiplicative updates of
    :func:`fit_nncp` or the alternating least squares of
    :func:`fit_cp_unconstrained`, with the same input checks.  ``cfg.seed``
    is ignored; ``seeds`` lists the starts.  Returns one entry per seed, in
    order: the FitResult that ``cfg`` with that seed gives alone, or the
    exception that fit raises (a seed that FitConfig rejects fails alone).
    This is the one-family case of the driver :func:`_fit_batch`, which
    also fits both Frobenius families as one batch.
    """
    cfg = _instance(cfg, "cfg", FitConfig)
    return _fit_batch(a, cfg, [(seed, cfg.nonneg) for seed in _sequence(seeds, "seeds")])


class _Stack:
    """A batch's entries as one stack: their state and the fit's constants.
    ``keep`` alone drops entries; ``sweep`` and ``evaluate`` read no stop rule."""

    def __init__(self, a_arr, cfg, slots, nonneg, starts):
        self.kl, self.rho = cfg.loss is Loss.KL, cfg.reg_rho
        self.rows = [_gather_rows(a_arr.shape, n) for n in range(a_arr.ndim)]  # of each mode's K
        self.others = [[i for i in range(a_arr.ndim) if i != n] for n in range(a_arr.ndim)]
        # a_arr >= 0 and -0.0 + 0.0 is +0.0: the KL ratio is +0.0 off the support;
        # the loss and residual_E read unfold[0], whose +0.0s change none of their bits.
        self.unfold = _unfoldings(a_arr + 0.0 if self.kl else a_arr)
        self.loss = _loss(self.unfold[0], cfg.loss, self.rho)
        # Per entry: output index, family (MU first), trace, stop-window objectives,
        # factors, their statistics, and evaluate's mode-0 K and X (kr0, x0).
        self.slots, self.nonneg, self.traces = slots, nonneg, [FitTrace() for _ in slots]
        self.window = []  # the objective lists of the last STOP_WINDOW iterations, if tol > 0
        self.factors = [np.stack(stack) for stack in zip(*starts)]
        self.stats = [_factor_stat(f, self.kl) for f in self.factors]

    def keep(self, idx):
        """Keep the entries at the positions ``idx``, in order; drop the rest."""
        lists = [self.slots, self.nonneg, self.traces, *self.window]
        self.slots, self.nonneg, self.traces, *self.window = [[x[j] for j in idx] for x in lists]
        self.factors, self.stats = ([f[idx] for f in fs] for fs in (self.factors, self.stats))
        self.kr0, self.x0 = self.kr0[idx], self.x0[idx]

    def sweep(self, it, fail):
        """Update every mode once, after an evaluation; note ridged ALS solves at
        iteration ``it``, and hand a mode's failed ones, (position, LinAlgError)
        pairs, at once to ``fail``, which drops them.  Stops if none is left."""
        for n, rows in enumerate(self.rows):
            if not self.slots:
                return
            factors, stats = self.factors, self.stats
            kr = self.kr0 if n == 0 else _khatri_rao(factors, n, rows)
            if self.kl:  # (A/X)_(n) K, X_(n) = W^(n) K^T floored; the ratio overwrites X
                x = self.x0
                if n:
                    x = _reconstruct(factors[n], kr)
                    np.maximum(x, KL_SOLVER_FLOOR, out=x)
                mt = np.divide(self.unfold[n], x, out=x) @ kr
            else:
                mt = self.unfold[n] @ kr
            rest = self.others[n]
            prod = stats[rest[0]] if rest else np.ones_like(stats[n])
            for i in rest[1:]:
                prod = prod * stats[i]
            w, failed = factors[n], ()
            if self.nonneg[-1]:  # the MU entries come first: an all-MU stack ends with one
                factors[n] = _mu_tail(w, prod, mt, self.kl, self.rho)
            else:  # each family's tail writes its slice of one fresh stack
                new = factors[n] = np.empty(w.shape)
                mu = self.nonneg.count(True)
                if mu:
                    _mu_tail(w[:mu], prod[:mu], mt[:mu], self.kl, self.rho, new[:mu])
                ridged, failed = _als_tail(w[mu:], prod[mu:], mt[mu:], self.rho, new[mu:])
                for j in ridged:
                    self.traces[mu + j].note(it, f"ridge jitter on mode {n}")
            stats[n] = _factor_stat(factors[n], self.kl)
            if failed:
                fail([(mu + j, exc) for j, exc in failed])

    def evaluate(self):
        """Reconstruct X, keeping mode-0 K and X (floored for KL) for the next
        sweep; return the objective list and the (S, d0, size/d0) residual."""
        self.kr0 = _khatri_rao(self.factors, 0, self.rows[0])
        x0 = self.x0 = _reconstruct(self.factors[0], self.kr0)
        resid = self.unfold[0] - x0
        if self.kl:
            np.maximum(x0, KL_SOLVER_FLOOR, out=x0)
        return self.loss(x0, resid, self.factors), resid


@np.errstate(over="ignore")  # an objective beyond the double range is inf: its entry ends
def _fit_batch(a, cfg, entries):
    """Fit the (seed, nonneg) ``entries`` of ``cfg`` as one batch and return
    what each gives alone, in order (see :func:`fit_seeds`); ``cfg.seed`` and
    ``cfg.nonneg`` are ignored.

    A family is a start (_init_nonneg or _init_signed) of one seed's factors,
    a mode tail and a normal form.  A _Stack of the starts runs the sweeps.
    ``retire`` is the one place that ends entries: it appends the block's
    rows, packages a FitResult or records an error, and calls ``_Stack.keep``
    once.  The loop calls it with the flags of an iterate that ends a block;
    a stop ends one at once, so the sweep, which hands it each failed ALS
    solve at once, meets only traced iterates that stop no entry.
    """
    _instance(a, "the target")
    order = sorted(range(len(entries)), key=lambda i: not entries[i][1])
    a_e = norm(a, "E")
    out = [None] * len(entries)
    slots, nonneg, starts = [], [], []  # slots[j]: the output index of stack entry j
    for i in order:
        seed, flag = entries[i]
        init = _init_nonneg if flag else _init_signed  # looked up per call, for tests
        try:
            starts.append(init(a, replace(cfg, seed=seed, nonneg=flag)))
            slots.append(i)
            nonneg.append(flag)
        except Exception as exc:
            out[i] = exc
    if not slots:
        return out
    stack = _Stack(a.as_array(), cfg, slots, nonneg, starts)
    block = []  # the traced iterates whose rows are not yet in the traces

    def retire(failed=(), stops=(), traced=True):
        """End the entries in ``failed``, (position, exception) pairs, and
        those the block ends: append its rows to the traces, and end an entry
        by an error, or by a FitResult if it stops at the last iterate
        (``stops``, one flag per entry) or that iterate is max_iters.  A block
        entry is (iteration, objective list, residual_E array, factor stacks);
        an untraced last iterate is a row only of the entries that stop there."""
        ended = dict(failed)  # stack position -> its FitResult or exception
        if block:
            its, objs, res_es, fs = zip(*block)
            block.clear()
            cols = _trace_columns(res_es, fs, stack.nonneg)
            res_e, dl1, cmax = (c.T.tolist() for c in cols)
            over = (~(cols[1] <= coercivity_bound(a_e, cols[0]))).T.tolist()
            for j, seed_objs in enumerate(zip(*objs)):
                stop = bool(stops) and stops[j]
                n = len(its) - (not traced and not stop)
                # The coercivity cap binds the nonnegative entries only.
                k = over[j].index(True) if stack.nonneg[j] and True in over[j][:n] else None
                m = n if k is None else k + 1
                try:
                    stack.traces[j].append_block(
                        its[:m], seed_objs[:m], dl1[j][:m], cmax[j][:m], res_e[j][:m]
                    )
                    if k is not None:
                        raise RuntimeError(
                            f"coercivity bound violated at iteration {its[k]}: "
                            f"{dl1[j][k]} > {a_e + res_e[j][k]}"
                        )
                    if stop or its[-1] == cfg.max_iters:
                        raw = KruskalModel(a.shape, np.ones(cfg.rank), [f[j] for f in fs[-1]])
                        model = (normalize if stack.nonneg[j] else l2_normalize)(raw)
                        ended[j] = FitResult(model, stack.traces[j], stop, seed_objs[-1])
                except Exception as exc:
                    ended[j] = exc
        if ended:
            for j, res in ended.items():
                out[stack.slots[j]] = res
            stack.keep([j for j in range(len(stack.slots)) if j not in ended])

    for it in range(cfg.max_iters + 1):
        if it > 0:
            stack.sweep(it, retire)
        if not stack.slots:
            break
        objs, resid = stack.evaluate()
        last = it == cfg.max_iters
        traced = last or it % cfg.trace_every == 0
        # Relative decrease over the trailing window; a full window starts
        # with the objectives of iteration it - STOP_WINDOW.
        stops = [False] * len(objs)
        if cfg.tol > 0:
            if len(stack.window) == STOP_WINDOW:
                ref = stack.window.pop(0)
                stops = [(r - o) / max(abs(r), 1e-300) < cfg.tol for r, o in zip(ref, objs)]
            stack.window.append(objs)
        stopping = True in stops
        if traced or stopping:
            # resid is (S, d0, size/d0); the loss has read it
            res_e = np.add.reduce(np.abs(resid, out=resid), axis=(1, 2))
            block.append((it, objs, res_e, tuple(stack.factors)))
            # A seed whose objective is not finite ends at this iteration.
            if (last or stopping or len(block) == TRACE_BLOCK
                    or not all(map(math.isfinite, objs))):
                retire(stops=stops, traced=traced)
    return out


def _init_nonneg(a, cfg):
    if not _nonnegative(a.data):
        raise ValueError("fit_nncp requires a nonnegative tensor")
    e_norm = norm(a, "E")  # inf only beyond the double range
    if e_norm == math.inf:
        raise ValueError("fit_nncp requires a target whose E-norm is within the double range")
    m = random_model(a.shape, cfg.rank, cfg.seed, nonneg=True, e_norm=e_norm or 1.0)
    return [f * m.delta ** (1.0 / len(a.shape)) for f in m.factors]


def _init_signed(a, cfg):
    m = random_model(a.shape, cfg.rank, cfg.seed, nonneg=False)
    w = [f.copy() for f in m.factors]
    w[0] = w[0] * m.delta
    return w


def _mu_tail(w, prod, mt, kl, rho, out=None):
    """The MU update of the stack ``w`` from ``prod``, the other factors'
    Grams' product (column sums for KL), and the fresh MTTKRP ``mt``, which it
    overwrites: the new stack is ``out`` if given, else ``mt``."""
    if kl:  # the (S, r) product is floored before it broadcasts over d
        den = np.maximum(prod, DEN_FLOOR)[:, None, :]
    else:
        den = w @ prod
        if rho > 0:
            den = den + rho * w
        np.maximum(den, DEN_FLOOR, out=den)
    np.divide(mt, den, out=mt)
    return np.multiply(w, mt, out=mt if out is None else out)


def _singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


@np.errstate(call=_singular, invalid="call", over="ignore", divide="ignore", under="ignore")
def _lapack_solve(gram, rhs, probe=True, out=None):
    """np.linalg.cholesky(gram) if ``probe``, then np.linalg.solve(gram, rhs) into
    ``out``, as the gufuncs they wrap, under their error rule and only there."""
    if probe:
        _umath_linalg.cholesky_lo(gram, signature="d->d")
    return _umath_linalg.solve(gram, rhs, signature="dd->d", out=out)


def _als_tail(w, gram, mt, rho, out):
    """Solve the ALS normal equations of the stack ``w`` into ``out``; return
    the entries that took the ridge and the (entry, LinAlgError) pairs of those
    whose solve failed."""
    if rho > 0:
        gram = gram + rho * np.eye(w.shape[2])
    rhs = mt.transpose(0, 2, 1)
    sol = out.transpose(0, 2, 1)  # the (r, d) solutions land C-ordered as (d, r)
    ridged, failed = [], []
    try:
        _lapack_solve(gram, rhs, out=sol)
    except np.linalg.LinAlgError:
        # Some seed's normal equations are singular: solve seed by seed.
        # A Gram that fails the Cholesky probe, or whose solve fails, gets
        # the ridge RIDGE_JITTER * I; if that fails too, the seed fails (zeros).
        jitter = RIDGE_JITTER * np.eye(w.shape[2])
        for j in range(len(gram)):
            try:
                sol[j] = _lapack_solve(gram[j], rhs[j])
            except np.linalg.LinAlgError:
                try:
                    sol[j] = _lapack_solve(gram[j] + jitter, rhs[j], probe=False)
                    ridged.append(j)
                except np.linalg.LinAlgError as exc:
                    sol[j] = 0.0
                    failed.append((j, exc))
    return ridged, failed


def _fit_one(a, cfg):
    (result,) = fit_seeds(a, cfg, [cfg.seed])
    if isinstance(result, Exception):
        raise result
    return result


def fit_nncp(a, cfg):
    """Nonnegative CP fit by multiplicative updates.

    Requires a nonnegative target and cfg.nonneg = True.  Returns the model
    in the simplex normal form (by descending weight), the iteration trace,
    and a convergence flag.  Deterministic given (a, cfg).
    """
    if not _instance(cfg, "cfg", FitConfig).nonneg:
        raise ValueError("fit_nncp requires cfg.nonneg = True")
    return _fit_one(a, cfg)


def fit_cp_unconstrained(a, cfg):
    """Signed CP fit by alternating least squares (Frobenius loss only).

    Each mode solve is exact; singular normal equations fall back to a 1e-12
    ridge, noted on the trace.  Returns a model with unit-l2 columns and
    signed weights, by descending |weight|.  Deterministic given (a, cfg).
    """
    if _instance(cfg, "cfg", FitConfig).nonneg:
        raise ValueError("fit_cp_unconstrained requires cfg.nonneg = False")
    return _fit_one(a, cfg)
