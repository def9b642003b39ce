"""The benchmark's workloads.

Each workload makes its inputs from the workload seed in ``setup`` and
exposes a list of units.  A unit's ``run`` is the timed call into ``nncp``;
its ``check`` turns the raw result into an :class:`Outcome` outside the timed
region.  Seed 0 reproduces the acceptance-test fixtures; any other seed gives
fresh instances of the same size.

Calls go through module attributes (``solvers.fit_nncp``, ``cli.main``) at
call time, so the traced run sees them.
"""

import contextlib
import dataclasses
import io
import os

import numpy as np

import checks
from nncp import cli, diagnostics, kruskal, pathologies, solvers, tensor

DEFAULT_SEED = 0


@dataclasses.dataclass
class Unit:
    name: str
    fits: int  # fits attempted per run of the unit
    run: object  # () -> raw result
    check: object  # raw result -> Outcome


class Outcome:
    """Checked result of one unit run: iterations done, per-fit problems and
    the digests of the unit's outputs."""

    ALL = "*"

    def __init__(self, fits, iters=0):
        self.fits = fits
        self.iters = iters
        self.problems = {}  # fit label (or ALL) -> [message]
        self.digests = {}
        self.recovered = 0

    def flag(self, fit, problems):
        if problems:
            self.problems.setdefault(fit, []).extend(problems)

    @property
    def failed(self):
        if self.ALL in self.problems:
            return self.fits
        return min(self.fits, len(self.problems))


def _call_cli(argv):
    """Exit code and stderr of an in-process CLI call; stdout is discarded."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _read(path):
    with open(path) as fh:
        return fh.read()


def _e_norm(t):
    return float(np.sum(np.abs(t.as_array())))


@contextlib.contextmanager
def _seed_window(start, summaries, fits):
    """``nncp degeneracy --seeds K`` always sweeps seeds 0..K-1.  Shift them
    to start..start+K-1 at the diagnostics boundary, and keep the sweep's
    summary and every fit's result, which the CLI does not expose, for the
    output checks."""
    names = ("run_contrast_experiment", "fit_nncp", "fit_cp_unconstrained")
    saved = {name: getattr(diagnostics, name) for name in names}
    sweep = saved["run_contrast_experiment"]

    def shifted(a, rank, seeds, **kwargs):
        summary = sweep(a, rank, [start + s for s in seeds], **kwargs)
        summaries.append(summary)
        return summary

    def keep(fit):
        def kept(a, cfg):
            result = fit(a, cfg)
            fits.append((cfg, result))
            return result

        return kept

    diagnostics.run_contrast_experiment = shifted
    diagnostics.fit_nncp = keep(saved["fit_nncp"])
    diagnostics.fit_cp_unconstrained = keep(saved["fit_cp_unconstrained"])
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(diagnostics, name, fn)


def _check_fit(out, label, result, nonneg, a_e):
    """Trace and model checks shared by the library-level fits; returns the
    trace CSV."""
    text = result.trace.to_csv()
    out.flag(label, checks.check_trace(checks.parse_trace_csv(text), nonneg, a_e))
    if nonneg:
        out.flag(label, checks.check_simplex(result.model.delta, result.model.factors))
    return text


class SweepBclr:
    """``nncp degeneracy`` on the BCLR limit tensor: both families, rank 5,
    2000 iterations, tol 0, over a window of 20 seeds in CLI calls of
    CALL_SEEDS seeds.  A call per 5 seeds gives a run about ten timings to take
    the median of; a call over all 20 gives two."""

    name = "sweep-bclr"
    CALL_SEEDS = 5

    def __init__(self, seed, tiny, workdir):
        self.start = 56 if seed == DEFAULT_SEED else 1000 + 20 * seed
        self.n_seeds, self.iters = (2, 40) if tiny else (20, 2000)
        self.input = os.path.join(workdir, "bclr_limit.json")
        self.summary = os.path.join(workdir, "summary.csv")

    def setup(self):
        self.a = pathologies.bclr_limit(4)
        self.a_e = _e_norm(self.a)
        tensor.write_tensor(self.a, self.input)

    def units(self):
        units = []
        for first in range(self.start, self.start + self.n_seeds, self.CALL_SEEDS):
            n = min(self.CALL_SEEDS, self.start + self.n_seeds - first)
            units.append(Unit(
                f"seeds-{first}-{first + n - 1}", 2 * n,
                lambda first=first, n=n: self._run(first, n),
                lambda raw, first=first, n=n: self._check(raw, first, n),
            ))
        return units

    def probe(self):
        return self.a, solvers.FitConfig(rank=5, max_iters=self.iters, tol=0.0, seed=self.start)

    def _run(self, first, n):
        argv = [
            "degeneracy", "--input", self.input, "--rank", "5",
            "--seeds", str(n), "--iters", str(self.iters),
            "--workers", "1", "--out", self.summary,
        ]
        summaries, fits = [], []
        with _seed_window(first, summaries, fits):
            code, err = _call_cli(argv)
        return code, err, summaries, fits

    def _check(self, raw, first, n):
        code, err, summaries, fits = raw
        out = Outcome(2 * n, 2 * n * self.iters)
        if code != 0:
            out.flag(Outcome.ALL, [f"exit code {code}: {err.strip()}"])
            return out
        (summary_obj,) = summaries
        summary = _read(self.summary)
        rows = checks.parse_summary_csv(summary)
        expected = [
            (str(s), fam)
            for s in range(first, first + n)
            for fam in ("nonneg", "unconstrained")
        ]
        if [(r["seed"], r["family"]) for r in rows] != expected:
            out.flag(Outcome.ALL, ["summary rows do not match the seed window"])
            return out
        for row in rows:
            out.flag((row["seed"], row["family"]), checks.check_summary_row(row, self.iters))
        for (seed, family), report in summary_obj.reports.items():
            if family == "nonneg":
                it, res_e, _, d_l1 = zip(*report.evidence)
                out.flag((str(seed), family), checks.check_cap(it, d_l1, res_e, self.a_e))
        out.digests = {"summary_csv": checks.sha256(summary)}
        # Per-fit traces exist only while the sweep fits seed by seed.
        if fits:
            if len(fits) != 2 * n:
                out.flag(Outcome.ALL, [f"{len(fits)} fits for {2 * n} rows"])
            traces = [
                _check_fit(out, (str(cfg.seed), "nonneg" if cfg.nonneg else "unconstrained"),
                           result, cfg.nonneg, self.a_e)
                for cfg, result in fits
            ]
            out.digests["trace_csvs"] = checks.sha256("".join(traces))
        return out


class KlRecovery:
    """Library ``fit_nncp`` with the KL loss, rank 2, tol 1e-13, at most
    30000 iterations, on exact rank-2 naive-Bayes tensors of shape 3x4x5."""

    name = "kl-recovery"

    def __init__(self, seed, tiny, workdir):
        n = 2 if tiny else 10
        if seed == DEFAULT_SEED:
            self.pairs = [(100 + i, i) for i in range(n)]
        else:
            self.pairs = [(10**6 + 10 * seed + i, 10 * seed + i) for i in range(n)]
        self.max_iters = 300 if tiny else 30000

    def setup(self):
        self.targets = [
            kruskal.reconstruct(
                kruskal.random_model((3, 4, 5), 2, data_seed, nonneg=True, e_norm=1.0)
            )
            for data_seed, _ in self.pairs
        ]

    def _cfg(self, seed, max_iters, tol):
        return solvers.FitConfig(
            rank=2, loss=solvers.Loss.KL, max_iters=max_iters, tol=tol, seed=seed
        )

    def units(self):
        units = []
        for a, (data_seed, seed) in zip(self.targets, self.pairs):
            cfg = self._cfg(seed, self.max_iters, 1e-13)
            units.append(Unit(
                f"pair-{data_seed}-{seed}", 1,
                lambda a=a, cfg=cfg: solvers.fit_nncp(a, cfg),
                lambda result, a=a: self._check(a, result),
            ))
        return units

    def probe(self):
        return self.targets[0], self._cfg(self.pairs[0][1], min(self.max_iters, 2000), 0.0)

    def _check(self, a, result):
        out = Outcome(1, result.trace.rows[-1].iter)
        text = _check_fit(out, "fit", result, True, _e_norm(a))
        out.recovered = int(result.final_objective <= 1e-8)
        out.digests = {"trace_csv": checks.sha256(text)}
        return out


class LargeCli:
    """Three ``nncp decompose`` calls (nonneg Frobenius, nonneg KL, signed
    ALS), rank 10, 500 iterations, tol 0, with --trace and --out files, on a
    seeded 20x20x20 nonnegative rank-10 tensor with mean entry 1.  The three
    calls form one unit, so every unit run does the same mix of work."""

    name = "large-cli"
    FAMILIES = {
        "mu-frob": ["--nonneg", "--loss", "frob"],
        "mu-kl": ["--nonneg", "--loss", "kl"],
        "als": [],
    }

    def __init__(self, seed, tiny, workdir):
        self.seed = seed
        self.shape, self.rank, self.iters = ((6, 6, 6), 3, 20) if tiny else ((20, 20, 20), 10, 500)
        self.workdir = workdir
        self.input = os.path.join(workdir, "large.json")

    def setup(self):
        entries = float(np.prod(self.shape))
        model = kruskal.random_model(self.shape, self.rank, self.seed, nonneg=True, e_norm=entries)
        self.a = kruskal.reconstruct(model)
        self.a_e = _e_norm(self.a)
        tensor.write_tensor(self.a, self.input)

    def _path(self, family, ext):
        return os.path.join(self.workdir, f"{family}.{ext}")

    def units(self):
        return [Unit("decompose-x3", len(self.FAMILIES), self._run, self._check)]

    def probe(self):
        cfg = solvers.FitConfig(rank=self.rank, max_iters=self.iters, tol=0.0, seed=self.seed)
        return self.a, cfg

    def _run(self):
        return {
            family: _call_cli([
                "decompose", "--input", self.input, "--rank", str(self.rank),
                "--max-iters", str(self.iters), "--tol", "0", "--seed", str(self.seed),
                "--trace", self._path(family, "csv"), "--out", self._path(family, "json"),
                *flags,
            ])
            for family, flags in self.FAMILIES.items()
        }

    def _check(self, raw):
        out = Outcome(len(self.FAMILIES), len(self.FAMILIES) * self.iters)
        for family, (code, err) in raw.items():
            if code != 0:
                out.flag(family, [f"exit code {code}: {err.strip()}"])
                continue
            nonneg = "--nonneg" in self.FAMILIES[family]
            trace, model = _read(self._path(family, "csv")), _read(self._path(family, "json"))
            rows = checks.parse_trace_csv(trace)
            if len(rows) != self.iters + 1:
                out.flag(family, [f"{len(rows)} trace rows, expected {self.iters + 1}"])
            out.flag(family, checks.check_trace(rows, nonneg, self.a_e))
            out.flag(family, checks.check_model_json(model, nonneg))
            out.digests[family] = [checks.sha256(trace), checks.sha256(model)]
        return out


WORKLOADS = {w.name: w for w in (SweepBclr, KlRecovery, LargeCli)}
