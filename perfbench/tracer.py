"""Span tracer for the traced benchmark run.

While installed, every public function of the seven ``nncp`` modules, and the
CSV writers of ``FitTrace`` and ``ContrastSummary``, is replaced by a wrapper
that records a span (name, start, end, parent).  The modules import each
other by name, so the wrapper is patched into every ``nncp`` namespace that
holds the function (for example ``nncp.solvers.generalized_kl`` and
``nncp.diagnostics.fit_nncp``), not only the defining one.  Nothing inside the
package changes; uninstalling restores the original objects.

Spans stay in memory and are turned into per-layer metrics at the end.  A
span's self time is its duration minus the durations of its direct children.
"""

import functools
import importlib
import inspect
import json
import statistics
import time

MODULES = ("cli", "tensor", "kruskal", "divergence", "solvers", "diagnostics", "pathologies")
_CSV_METHODS = ("to_csv", "write_csv")
_FITS = ("solvers.fit_nncp", "solvers.fit_cp_unconstrained")
RECOVERED_OBJECTIVE = 1e-8

# (name, unit) of every per-layer metric, in the order BENCHMARK.json lists them.
LAYER_METRICS = (
    ("cli.self_s", "s"),
    ("tensor.read_s", "s"),
    ("tensor.write_s", "s"),
    ("tensor.norm_calls", "count"),
    ("tensor.norm_s", "s"),
    ("kruskal.reconstruct_calls", "count"),
    ("kruskal.reconstruct_s", "s"),
    ("kruskal.normalize_s", "s"),
    ("kruskal.random_model_s", "s"),
    ("kruskal.model_write_s", "s"),
    ("divergence.kl_calls", "count"),
    ("divergence.kl_s", "s"),
    ("divergence.distance_s", "s"),
    ("solvers.mu_frob.iter_us", "us"),
    ("solvers.mu_kl.iter_us", "us"),
    ("solvers.als.iter_us", "us"),
    ("solvers.iters", "count"),
    ("solvers.iters_to_tol", "count"),
    ("solvers.converged_frac", "ratio"),
    ("solvers.recovered_frac", "ratio"),
    ("solvers.trace_iter_us", "us"),
    ("solvers.trace_rows", "count"),
    ("solvers.trace_csv_s", "s"),
    ("solvers.ridge_notes", "count"),
    ("diagnostics.self_s", "s"),
    ("diagnostics.detect_s", "s"),
    ("diagnostics.error_rows", "count"),
    ("diagnostics.unc_degenerate", "count"),
    ("pathologies.gen_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("trace.span_us", "us"),
    ("trace.peak_rss_mb", "MB"),
)


def _fit_info(args, kwargs, result):
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    if cfg.loss.value == "kl":
        kind = "mu_kl"
    else:
        kind = "mu_frob" if cfg.nonneg else "als"
    return {
        "kind": kind,
        "iters": result.trace.rows[-1].iter,
        "rows": len(result.trace.rows),
        "notes": len(result.trace.notes),
        "converged": bool(result.converged),
        "recovered": result.final_objective <= RECOVERED_OBJECTIVE,
    }


def _contrast_info(args, kwargs, summary):
    return {
        "error_rows": sum(r.verdict == "ERROR" for r in summary.rows),
        "unc_degenerate": sum(
            r.family == "unconstrained" and r.verdict == "DEGENERATE"
            for r in summary.rows
        ),
    }


_ANNOTATE = {
    "solvers.fit_nncp": _fit_info,
    "solvers.fit_cp_unconstrained": _fit_info,
    "diagnostics.run_contrast_experiment": _contrast_info,
}


class Tracer:
    """Use as a context manager: entering patches the package and records
    spans, leaving restores it.  Spans accumulate across entries."""

    def __init__(self):
        self.names = []  # span name id -> "module.function"
        self.spans = []  # (name id, start, end, parent span index or -1)
        self.info = {}  # span index -> annotation dict
        self._stack = []
        self._saved = []  # (owner, attribute, original)
        self._wrappers = {}  # original function -> wrapper

    def _wrap(self, qualname, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        spans, stack, info = self.spans, self._stack, self.info
        annotate = _ANNOTATE.get(qualname)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(i)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[i] = (name_id, start, end, parent)
            if annotate is not None:
                info[i] = annotate(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def __enter__(self):
        modules = [importlib.import_module("nncp")]
        modules += [importlib.import_module(f"nncp.{m}") for m in MODULES]
        for mod in modules[1:]:
            short = mod.__name__.split(".")[1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    if obj not in self._wrappers:
                        self._wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj):
                    for meth in _CSV_METHODS:
                        fn = vars(obj).get(meth)
                        if fn is None:
                            continue
                        if fn not in self._wrappers:
                            self._wrappers[fn] = self._wrap(f"{short}.{attr}.{meth}", fn)
                        self._patch(obj, meth, self._wrappers[fn])
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    self._patch(mod, attr, self._wrappers[obj])
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def write(self, path):
        """Write names and spans as JSON: {"names": [...], "spans": [[id, start, end, parent], ...]}."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)

    def layer_metrics(self):
        """Per-layer totals over every span recorded so far (without the
        ``trace.*`` and ``solvers.trace_iter_us`` entries, which the caller
        measures)."""
        names = self.names
        n = len(self.spans)
        dur = [end - start for _, start, end, _ in self.spans]
        child = [0.0] * n
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += dur[i]
        total, calls, module_self = {}, {}, {}
        fit_of = [-1] * n  # index of the innermost enclosing fit span
        kind_self = {"mu_frob": 0.0, "mu_kl": 0.0, "als": 0.0}
        for i, (name_id, _, _, parent) in enumerate(self.spans):
            name = names[name_id]
            module = name.split(".")[0]
            self_s = dur[i] - child[i]
            total[name] = total.get(name, 0.0) + dur[i]
            calls[name] = calls.get(name, 0) + 1
            module_self[module] = module_self.get(module, 0.0) + self_s
            fit_of[i] = i if name in _FITS else (fit_of[parent] if parent >= 0 else -1)
            if module == "solvers" and fit_of[i] >= 0 and fit_of[i] in self.info:
                kind_self[self.info[fit_of[i]]["kind"]] += self_s

        fits = [v for i, v in self.info.items() if names[self.spans[i][0]] in _FITS]
        contrasts = [v for i, v in self.info.items() if "error_rows" in v]
        kind_iters = {k: sum(f["iters"] for f in fits if f["kind"] == k) for k in kind_self}

        def t(*fn_names):
            return sum(total.get(x, 0.0) for x in fn_names)

        def outermost(match):
            """Total time of matching spans not nested in another match."""
            return sum(
                (dur[i] for i, (name_id, _, _, parent) in enumerate(self.spans)
                 if match(names[name_id])
                 and not (parent >= 0 and match(names[self.spans[parent][0]]))),
                0.0,
            )

        def per_iter_us(kind):
            iters = kind_iters[kind]
            return 1e6 * kind_self[kind] / iters if iters else 0.0

        return {
            "cli.self_s": module_self.get("cli", 0.0),
            "tensor.read_s": t("tensor.read_tensor"),
            "tensor.write_s": t("tensor.write_tensor"),
            "tensor.norm_calls": calls.get("tensor.norm", 0),
            "tensor.norm_s": t("tensor.norm"),
            "kruskal.reconstruct_calls": calls.get("kruskal.reconstruct", 0),
            "kruskal.reconstruct_s": t("kruskal.reconstruct"),
            "kruskal.normalize_s": t("kruskal.normalize", "kruskal.l2_normalize"),
            "kruskal.random_model_s": t("kruskal.random_model"),
            "kruskal.model_write_s": t("kruskal.write_model"),
            "divergence.kl_calls": calls.get("divergence.generalized_kl", 0),
            "divergence.kl_s": t("divergence.generalized_kl"),
            "divergence.distance_s": t("divergence.distance"),
            "solvers.mu_frob.iter_us": per_iter_us("mu_frob"),
            "solvers.mu_kl.iter_us": per_iter_us("mu_kl"),
            "solvers.als.iter_us": per_iter_us("als"),
            "solvers.iters": sum(f["iters"] for f in fits),
            "solvers.iters_to_tol": sum(f["iters"] for f in fits if f["converged"]),
            "solvers.converged_frac": _frac(sum(f["converged"] for f in fits), len(fits)),
            "solvers.recovered_frac": _frac(sum(f["recovered"] for f in fits), len(fits)),
            "solvers.trace_rows": sum(f["rows"] for f in fits),
            "solvers.trace_csv_s": outermost(lambda x: x.startswith("solvers.FitTrace.")),
            "solvers.ridge_notes": sum(f["notes"] for f in fits),
            "diagnostics.self_s": module_self.get("diagnostics", 0.0),
            "diagnostics.detect_s": t("diagnostics.detect_degeneracy"),
            "diagnostics.error_rows": sum(c["error_rows"] for c in contrasts),
            "diagnostics.unc_degenerate": sum(c["unc_degenerate"] for c in contrasts),
            "pathologies.gen_s": outermost(lambda x: x.startswith("pathologies.")),
            "trace.spans": n,
        }


def span_cost_us(calls=20000, reps=3):
    """Added cost of one traced call: a wrapped no-op against the bare one,
    median over ``reps`` rounds."""
    def noop():
        return None

    traced = Tracer()._wrap("noop", noop)
    costs = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(calls):
            traced()
        t1 = time.perf_counter()
        for _ in range(calls):
            noop()
        costs.append((t1 - t0) - (time.perf_counter() - t1))
    return 1e6 * statistics.median(costs) / calls


def _frac(num, den):
    return num / den if den else 0.0
