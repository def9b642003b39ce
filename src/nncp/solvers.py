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
checks its tensor and hands the config to the driver :func:`_iterate`, which
picks the solver from ``cfg.nonneg`` and owns the sweeps, the stop rule, the
trace rows, the coercivity check and the packaging.  The driver reconstructs
X once per sweep; the objective, the trace row and the next sweep's first KL
update all read that one reconstruction.

The driver fits a batch of seeds: every factor is an (S, d_i, r) stack with
one matrix per seed, so one einsum, matmul or LAPACK call serves all S seeds,
and a single fit is a batch of one.  Per-seed events stay per seed.  The stop
rule, the finiteness of the trace, the coercivity check, a ridge note and a
failed solve each concern one seed; a seed that stops or raises leaves the
stack and its batch-mates carry on.  A seed's arithmetic never mixes with
its batch-mates', so it gets the same trace, notes, model or exception, byte
for byte, in any batch.

Multiplicative updates are the standard majorization rules extended to k
modes.  With X = sum_p (x) W^(i)[:, p] and the mode-n matricization
X_(n) = W^(n) K^T (K the Khatri-Rao product of the other factors):

  Frobenius:  W^(n) <- W^(n) * (A_(n) K) / (W^(n) (K^T K) + rho W^(n)),
              K^T K computed as the Hadamard product of the other Grams;
  KL:         W^(n) <- W^(n) * ((A/X)_(n) K) / (1_(n) K),
              the denominator column p being prod_{i != n} sum(W^(i)[:, p]).

Both denominators are floored at 1e-12; each mode update majorizes its block
subproblem, so full sweeps decrease the loss (to floor-level slack).
"""

import enum
import functools
import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .divergence import KL_SOLVER_FLOOR, generalized_kl
from .kruskal import KruskalModel, l2_normalize, normalize, random_model, reconstruct
from .kruskal import _einsum_spec, _nonnegative
from .tensor import norm

DEN_FLOOR = 1e-12
RIDGE_JITTER = 1e-12
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
            value = getattr(self, name)
            try:
                if isinstance(value, bool):
                    raise TypeError
                value = operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
            if value < least:
                raise ValueError(f"{name} must be >= {least}")
        for name in ("tol", "reg_rho"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
            if value < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.reg_rho > 0 and self.loss is not Loss.FROBENIUS:
            raise ValueError("reg_rho > 0 requires the Frobenius loss")
        if self.loss is Loss.KL and not self.nonneg:
            raise ValueError("the KL loss requires nonneg=True")


@dataclass(frozen=True)
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
        if not np.isfinite(row.objective):
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


def _gram_others(factors, n):
    s, _, r = factors[0].shape
    g = np.ones((s, r, r))
    for m, f in enumerate(factors):
        if m != n:
            g = g * (f.transpose(0, 2, 1) @ f)
    return g


def _colsum_prod_others(factors, n):
    s, _, r = factors[0].shape
    p = np.ones((s, r))
    for m, f in enumerate(factors):
        if m != n:
            p = p * np.sum(f, axis=1)
    return p


def _per_seed_sum(x):
    # A reduction over every axis but the first sums each seed's entries in
    # memory order, as np.sum does for one array; reshape(S, -1) would copy
    # a transposed stack into another order.
    return np.sum(x, axis=tuple(range(1, x.ndim)))


def _loss(a_arr, xhat, resid, factors, loss, rho):
    """Loss of each reconstruction in the stack ``xhat`` (``resid`` is
    ``a_arr - xhat``), as a list of floats."""
    if loss is Loss.KL:
        flat = a_arr.reshape(-1)
        return [
            generalized_kl(flat, x.reshape(-1), floor=KL_SOLVER_FLOOR) for x in xhat
        ]
    val = _per_seed_sum(resid * resid)
    if rho > 0:
        val = val + rho * sum(_per_seed_sum(f * f) for f in factors)
    return val.tolist()


def objective(a, model, loss, reg_rho=0.0):
    """Loss of a model against a target tensor.

    Frobenius: ||A - X||_F^2 + rho * sum of squared l2-norms of every stored
    factor column (the penalty reads the representation as given, so it is
    deliberately not gauge-invariant).  KL: D_KL(A, X) with the reconstruction
    floored at 1e-300 inside the logs.
    """
    if tuple(model.shape) != a.shape:
        raise ValueError(f"shape mismatch: tensor {a.shape} vs model {model.shape}")
    if reg_rho < 0:
        raise ValueError("reg_rho must be >= 0")
    if loss is Loss.KL:
        if not _nonnegative(model.delta, *model.factors):
            raise ValueError("KL objective requires a nonnegative model")
        if not _nonnegative(a.data):
            raise ValueError("KL objective requires a nonnegative tensor")
    elif loss is not Loss.FROBENIUS:
        raise ValueError(f"unknown loss {loss!r}")
    a_arr = a.as_array()
    x = reconstruct(model).as_array()[None]
    factors = [f[None] for f in model.factors]
    return _loss(a_arr, x, a_arr - x, factors, loss, reg_rho)[0]


def coercivity_bound(a_e, residual_e):
    """The cap ||A||_E + ||A - X||_E on ||delta||_1 of a nonnegative iterate,
    given ||A||_E and the iterate's residual_E, plus the rounding slack
    1e-9 * (1 + cap) that every check of the cap allows."""
    cap = a_e + residual_e
    return cap + 1e-9 * (1.0 + cap)


def _trace_quantities(resid, factors, nonneg):
    """Per-seed residual_E, delta_l1 and max_component_F arrays."""
    residual_e = _per_seed_sum(np.abs(resid))
    comp_f = functools.reduce(np.multiply, [np.linalg.norm(f, axis=1) for f in factors])
    if nonneg:
        delta_hat = functools.reduce(np.multiply, [np.sum(f, axis=1) for f in factors])
    else:
        delta_hat = comp_f
    return residual_e, np.sum(delta_hat, axis=1), np.max(comp_f, axis=1)


def _iterate(a, cfg, seeds):
    """The fit loop of both solvers, over a batch of seeds.

    ``cfg.nonneg`` picks the solver: a start ``init(a, cfg)`` that returns
    one seed's starting factors, and a per-mode update
    ``update(factors, n, xhat, note, fail)`` that returns the new mode-n
    factor stack.  ``xhat`` is the reconstruction stack of ``factors``, or
    None once an earlier mode of the sweep has changed; ``note(j, message)``
    records an event on the trace of stack entry j at the current iteration,
    and ``fail(j, exc)`` ends that entry's fit with ``exc``.  Returns, in seed
    order, each seed's FitResult or the exception its fit raised.
    """
    a_arr = a.as_array()
    a_e = norm(a, "E")
    # Module globals looked up per call, so that tests can substitute them.
    if cfg.nonneg:
        init, update = _init_nonneg, _mu_update(a_arr, cfg)
    else:
        init, update = _init_signed, _als_update(a_arr, cfg)
    out = [None] * len(seeds)
    live, starts = [], []  # live[j]: the seed index of stack entry j
    for i, seed in enumerate(seeds):
        try:
            starts.append(init(a, replace(cfg, seed=seed)))
            live.append(i)
        except Exception as exc:
            out[i] = exc
    if not live:
        return out
    factors = [np.stack(stack) for stack in zip(*starts)]
    traces = [FitTrace() for _ in seeds]
    objectives = [[] for _ in seeds]
    ended = {}  # stack entry -> its FitResult or exception

    def retire():
        """Record the ended entries and drop them from the stack."""
        for j, res in ended.items():
            out[live[j]] = res
        keep = [j for j in range(len(live)) if j not in ended]
        live[:] = [live[j] for j in keep]
        factors[:] = [f[keep] for f in factors]
        ended.clear()
        return keep

    def note(j, message):
        traces[live[j]].note(it, message)

    for it in range(cfg.max_iters + 1):
        if it > 0:
            for n in range(len(factors)):
                factors[n] = update(factors, n, xhat, note, ended.__setitem__)
                xhat = None
                if ended:
                    retire()
                    if not live:
                        return out
        xhat = _reconstruct(factors)
        resid = a_arr - xhat
        objs = _loss(a_arr, xhat, resid, factors, cfg.loss, cfg.reg_rho)
        last = it == cfg.max_iters
        traced = last or it % cfg.trace_every == 0
        rows = None
        for j, i in enumerate(live):
            obj = objs[j]
            # Relative decrease over the trailing window; objectives[i] holds
            # the values for iterations 0 .. it-1 at this point.
            stop = False
            if cfg.tol > 0 and it >= STOP_WINDOW:
                ref = objectives[i][it - STOP_WINDOW]
                stop = (ref - obj) / max(abs(ref), 1e-300) < cfg.tol
            objectives[i].append(obj)
            if not (traced or stop):
                continue
            if rows is None:
                quantities = _trace_quantities(resid, factors, cfg.nonneg)
                rows = list(zip(*(q.tolist() for q in quantities)))
            res_e, dl1, cmax = rows[j]
            try:
                traces[i].append(TraceRow(it, obj, dl1, cmax, res_e))
                if cfg.nonneg and dl1 > coercivity_bound(a_e, res_e):
                    raise RuntimeError(
                        f"coercivity bound violated at iteration {it}: {dl1} > {a_e + res_e}"
                    )
                if stop or last:
                    raw = KruskalModel(a.shape, np.ones(cfg.rank), [f[j] for f in factors])
                    model = normalize(raw) if cfg.nonneg else l2_normalize(raw)
                    ended[j] = FitResult(
                        sort_by_weight(model), traces[i], converged=stop, final_objective=obj
                    )
            except Exception as exc:
                ended[j] = exc
        if ended:
            xhat = xhat[retire()]
            if not live:
                return out
    return out


def sort_by_weight(model):
    """Components reordered by descending |weight| (stable)."""
    order = np.argsort(-np.abs(model.delta), kind="stable")
    return KruskalModel(
        model.shape,
        model.delta[order],
        [f[:, order] for f in model.factors],
        nonneg=model.nonneg,
        normalized=model.normalized,
    )


def _init_nonneg(a, cfg):
    target = norm(a, "E")
    if target <= 0:
        target = 1.0
    m = random_model(a.shape, cfg.rank, cfg.seed, nonneg=True, e_norm=target)
    k = len(a.shape)
    w = [f * m.delta ** (1.0 / k) for f in m.factors]
    return w


def _init_signed(a, cfg):
    m = random_model(a.shape, cfg.rank, cfg.seed, nonneg=False)
    w = [f.copy() for f in m.factors]
    w[0] = w[0] * m.delta
    return w


def _mu_update(a_arr, cfg):
    rho = cfg.reg_rho
    support = a_arr > 0

    def frobenius(factors, n, xhat, note, fail):
        num = _mttkrp(a_arr[None], factors, n)
        den = factors[n] @ _gram_others(factors, n)
        if rho > 0:
            den = den + rho * factors[n]
        return factors[n] * (num / np.maximum(den, DEN_FLOOR))

    def kl(factors, n, xhat, note, fail):
        if xhat is None:
            xhat = _reconstruct(factors)
        ratio = np.where(support, a_arr / np.maximum(xhat, KL_SOLVER_FLOOR), 0.0)
        num = _mttkrp(ratio, factors, n)
        den = _colsum_prod_others(factors, n)[:, None, :]
        return factors[n] * (num / np.maximum(den, DEN_FLOOR))

    return kl if cfg.loss is Loss.KL else frobenius


def _als_update(a_arr, cfg):
    rho = cfg.reg_rho
    eye = np.eye(cfg.rank)

    def als(factors, n, xhat, note, fail):
        gram = _gram_others(factors, n)
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
            try:
                sol[j], ridged = _solve_normal_equations(gram[j], rhs[j], eye)
            except np.linalg.LinAlgError as exc:
                fail(j, exc)
                continue
            if ridged:
                note(j, f"ridge jitter on mode {n}")
        return sol.transpose(0, 2, 1)

    return als


def _solve_normal_equations(gram, rhs, eye):
    """Solution for one seed, and whether it needed the ridge: a Gram that
    fails the Cholesky probe, or whose solve fails, gets RIDGE_JITTER * I."""
    try:
        np.linalg.cholesky(gram)
        return np.linalg.solve(gram, rhs), False
    except np.linalg.LinAlgError:
        return np.linalg.solve(gram + RIDGE_JITTER * eye, rhs), True


def fit_seeds(a, cfg, seeds):
    """Fit one configuration from several random starts as one batch.

    ``cfg.nonneg`` picks the solver: the multiplicative updates of
    :func:`fit_nncp` or the alternating least squares of
    :func:`fit_cp_unconstrained`, with the same input checks.  ``cfg.seed``
    is ignored; ``seeds`` lists the starts.  Returns one entry per seed, in
    order: the FitResult that ``cfg`` with that seed gives alone, or the
    exception that fit raises (a seed that FitConfig rejects fails alone).
    """
    if cfg.nonneg and np.any(a.data < 0):
        raise ValueError("fit_nncp requires a nonnegative tensor")
    return _iterate(a, cfg, seeds)


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
