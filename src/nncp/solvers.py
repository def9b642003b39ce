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

Each entry point checks its input and supplies a per-mode update to the
driver :func:`_iterate`, which owns the sweeps, the stop rule, the trace rows,
the coercivity check and the packaging.  The driver reconstructs X once per
sweep; the objective, the trace row and the next sweep's first KL update all
read that one reconstruction.

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
from dataclasses import dataclass

import numpy as np

from .divergence import KL_SOLVER_FLOOR, generalized_kl
from .kruskal import KruskalModel, l2_normalize, normalize, random_model, reconstruct
from .kruskal import _einsum_spec
from .tensor import norm

DEN_FLOOR = 1e-12
RIDGE_JITTER = 1e-12
STOP_WINDOW = 5


class Loss(enum.Enum):
    FROBENIUS = "frob"
    KL = "kl"


@dataclass(frozen=True)
class FitConfig:
    """Solver hyperparameters; tol = 0 disables the convergence stop so runs
    exhaust max_iters (used by the degeneracy experiments)."""

    rank: int
    loss: Loss = Loss.FROBENIUS
    nonneg: bool = True
    max_iters: int = 500
    tol: float = 1e-9
    seed: int = 0
    reg_rho: float = 0.0
    trace_every: int = 1

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.tol < 0:
            raise ValueError("tol must be >= 0")
        if self.reg_rho < 0:
            raise ValueError("reg_rho must be >= 0")
        if self.reg_rho > 0 and self.loss is not Loss.FROBENIUS:
            raise ValueError("reg_rho > 0 requires the Frobenius loss")
        if self.trace_every < 1:
            raise ValueError("trace_every must be >= 1")


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


def _reconstruct(factors):
    return np.einsum(_einsum_spec(len(factors)), *factors)


def _mttkrp(arr, factors, n):
    others = [f for m, f in enumerate(factors) if m != n]
    if not others:  # order 1: the Khatri-Rao product of no factors is ones
        others = [np.ones(factors[0].shape[1])]
    return np.einsum(_einsum_spec(len(factors), mode=n), arr, *others)


def _gram_others(factors, n):
    r = factors[0].shape[1]
    g = np.ones((r, r))
    for m, f in enumerate(factors):
        if m != n:
            g = g * (f.T @ f)
    return g


def _colsum_prod_others(factors, n):
    r = factors[0].shape[1]
    p = np.ones(r)
    for m, f in enumerate(factors):
        if m != n:
            p = p * np.sum(f, axis=0)
    return p


def _loss(a_arr, xhat, factors, loss, rho):
    if loss is Loss.KL:
        return generalized_kl(
            a_arr.reshape(-1), xhat.reshape(-1), floor=KL_SOLVER_FLOOR
        )
    resid = a_arr - xhat
    val = float(np.sum(resid * resid))
    if rho > 0:
        val += rho * float(sum(np.sum(f * f) for f in factors))
    return val


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
        if np.any(model.delta < 0) or any(np.any(f < 0) for f in model.factors):
            raise ValueError("KL objective requires a nonnegative model")
        if np.any(a.data < 0):
            raise ValueError("KL objective requires a nonnegative tensor")
    elif loss is not Loss.FROBENIUS:
        raise ValueError(f"unknown loss {loss!r}")
    x = reconstruct(model).as_array()
    return _loss(a.as_array(), x, model.factors, loss, reg_rho)


def _trace_quantities(a_arr, xhat, factors, nonneg):
    residual_e = float(np.sum(np.abs(a_arr - xhat)))
    col_l2 = [np.linalg.norm(f, axis=0) for f in factors]
    comp_f = np.prod(np.vstack(col_l2), axis=0)
    if nonneg:
        col_l1 = [np.sum(f, axis=0) for f in factors]
        delta_hat = np.prod(np.vstack(col_l1), axis=0)
    else:
        delta_hat = comp_f
    return residual_e, float(np.sum(delta_hat)), float(np.max(comp_f))


def _iterate(a, cfg, factors, nonneg, update):
    """The fit loop of both solvers.

    ``update(factors, n, xhat, note)`` returns the new mode-n factor.
    ``xhat`` is the reconstruction of ``factors``, or None once an earlier
    mode of the sweep has changed; ``note(message)`` records an event on the
    trace at the current iteration.
    """
    a_arr = a.as_array()
    a_e = norm(a, "E")
    trace = FitTrace()
    objectives = []
    for it in range(cfg.max_iters + 1):
        if it > 0:
            note = functools.partial(trace.note, it)
            for n in range(len(factors)):
                factors[n] = update(factors, n, xhat, note)
                xhat = None
        xhat = _reconstruct(factors)
        obj = _loss(a_arr, xhat, factors, cfg.loss, cfg.reg_rho)
        # Relative decrease over the trailing window; objectives holds the
        # values for iterations 0 .. it-1 at this point.
        stop = False
        if cfg.tol > 0 and it >= STOP_WINDOW:
            ref = objectives[it - STOP_WINDOW]
            stop = (ref - obj) / max(abs(ref), 1e-300) < cfg.tol
        objectives.append(obj)
        if it % cfg.trace_every == 0 or it == cfg.max_iters or stop:
            res_e, dl1, cmax = _trace_quantities(a_arr, xhat, factors, nonneg)
            trace.append(TraceRow(it, obj, dl1, cmax, res_e))
            cap = a_e + res_e
            if nonneg and dl1 > cap + 1e-9 * (1.0 + cap):
                raise RuntimeError(
                    f"coercivity bound violated at iteration {it}: {dl1} > {cap}"
                )
        if stop:
            break
    raw = KruskalModel(a.shape, np.ones(factors[0].shape[1]), factors)
    model = normalize(raw) if nonneg else l2_normalize(raw)
    return FitResult(sort_by_weight(model), trace, converged=stop, final_objective=obj)


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


def fit_nncp(a, cfg):
    """Nonnegative CP fit by multiplicative updates.

    Requires a nonnegative target and cfg.nonneg = True.  Returns a
    simplex-normalized nonnegative model, the iteration trace, and a
    convergence flag.  Deterministic given (a, cfg).
    """
    if not cfg.nonneg:
        raise ValueError("fit_nncp requires cfg.nonneg = True")
    if np.any(a.data < 0):
        raise ValueError("fit_nncp requires a nonnegative tensor")
    a_arr = a.as_array()
    rho = cfg.reg_rho

    def frobenius(factors, n, xhat, note):
        num = _mttkrp(a_arr, factors, n)
        den = factors[n] @ _gram_others(factors, n)
        if rho > 0:
            den = den + rho * factors[n]
        return factors[n] * (num / np.maximum(den, DEN_FLOOR))

    def kl(factors, n, xhat, note):
        if xhat is None:
            xhat = _reconstruct(factors)
        ratio = np.where(a_arr > 0, a_arr / np.maximum(xhat, KL_SOLVER_FLOOR), 0.0)
        num = _mttkrp(ratio, factors, n)
        den = np.broadcast_to(_colsum_prod_others(factors, n), num.shape)
        return factors[n] * (num / np.maximum(den, DEN_FLOOR))

    update = kl if cfg.loss is Loss.KL else frobenius
    return _iterate(a, cfg, _init_nonneg(a, cfg), True, update)


def fit_cp_unconstrained(a, cfg):
    """Signed CP fit by alternating least squares (Frobenius loss only).

    Each mode solve is exact; singular normal equations fall back to a 1e-12
    ridge, noted on the trace.  Returns a model with unit-l2 columns and
    signed weights.  Deterministic given (a, cfg).
    """
    if cfg.nonneg:
        raise ValueError("fit_cp_unconstrained requires cfg.nonneg = False")
    if cfg.loss is not Loss.FROBENIUS:
        raise ValueError("fit_cp_unconstrained supports only the Frobenius loss")
    a_arr = a.as_array()
    rho = cfg.reg_rho
    eye = np.eye(cfg.rank)

    def als(factors, n, xhat, note):
        gram = _gram_others(factors, n)
        if rho > 0:
            gram = gram + rho * eye
        mtt = _mttkrp(a_arr, factors, n)
        try:
            np.linalg.cholesky(gram)
            return np.linalg.solve(gram, mtt.T).T
        except np.linalg.LinAlgError:
            sol = np.linalg.solve(gram + RIDGE_JITTER * eye, mtt.T).T
            note(f"ridge jitter on mode {n}")
            return sol

    return _iterate(a, cfg, _init_signed(a, cfg), False, als)
