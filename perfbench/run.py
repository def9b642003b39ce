"""nncp benchmark: one workload per fresh process, outputs checked, metrics
printed by name and unit.

    python3 perfbench/run.py --workload sweep-bclr --seed 0 --seconds 30 --trace 0

Workloads (see workloads.py): sweep-bclr, kl-recovery, large-cli.  Seed 0
reproduces the acceptance-test fixtures.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; the line
before it holds the environment, per-unit samples and output digests.

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1 runs
one pass of the workload under the span tracer and reports the per-layer
metrics instead.  Work files go to .perfbench_out/ in the checkout and are
removed at exit; the traced run leaves its spans there as JSON.
"""

import os

# Pin BLAS/OpenMP to one thread before numpy is imported anywhere.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 7
PROBE_REPS = 3
END_TO_END = (("iter_cost", "refloops"), ("setup_s", "s"))
REF_LOOPS = 200  # about 4 ms of work per reference run
REF_PERIOD_S = 0.1
_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import nncp; print(time.perf_counter() - t)"
)


def _import_seconds():
    """Median time to import nncp (and numpy) in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_REPS):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout))
    return samples


def _reference_s():
    """Seconds for REF_LOOPS passes of a fixed numpy kernel shaped like one
    multiplicative update on a tiny tensor.  It is the benchmark's yardstick
    for the machine's current speed: it calls no nncp code, so it is the same
    on every commit, and it slows down with the machine when neighbours load
    the host."""
    rng = np.random.default_rng(0)
    x = rng.random((4, 4, 4))
    w, v, u = (rng.random((4, 5)) for _ in range(3))
    start = time.perf_counter()
    for _ in range(REF_LOOPS):
        num = np.einsum("abc,bz,cz->az", x, v, u)
        gram = (v.T @ v) * (u.T @ u)
        w = w * (num / np.maximum(w @ gram, 1e-12))
        w = w / np.sum(w)
    return time.perf_counter() - start


class Yardstick:
    """Samples the machine's speed while units run: a SIGALRM timer runs the
    reference kernel every REF_PERIOD_S seconds.  The handler runs in the
    main thread between bytecodes, so the unit is paused meanwhile and the
    pause is taken out of the unit's time."""

    def __init__(self):
        self.bursts = []  # seconds of each reference run
        self.paused_s = 0.0  # total time spent in the handler

    def sample(self, *_):
        start = time.perf_counter()
        self.bursts.append(_reference_s())
        self.paused_s += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        self.sample()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def run(self, unit):
        """Time one unit run: (seconds without pauses, raw result, median
        reference seconds per loop while it ran)."""
        first, paused = len(self.bursts), self.paused_s
        seconds, raw = _timed_run(unit)
        bursts = self.bursts[first:] or self.bursts[-1:]
        return seconds - (self.paused_s - paused), raw, statistics.median(bursts) / REF_LOOPS


def _timed_run(unit):
    start = time.perf_counter()
    try:
        raw = unit.run()
    except Exception as exc:  # a raising fit is a failed fit, not a crash
        raw = exc
    return time.perf_counter() - start, raw


class Tally:
    """Attempts, failures, digests and timings over every unit run."""

    def __init__(self, units, outcome):
        self.outcome = outcome  # workloads.Outcome
        self.samples = {u.name: [] for u in units}
        self.refs = {u.name: [] for u in units}  # reference seconds per loop, per sample
        self.iters = {}
        self.digests = {}
        self.recovered = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, unit, seconds, raw, ref_s=None):
        self.samples[unit.name].append(seconds)
        if ref_s is not None:
            self.refs[unit.name].append(ref_s)
        self.attempted += unit.fits
        if isinstance(raw, Exception):
            out = self.outcome(unit.fits)
            out.flag(out.ALL, [f"raised {type(raw).__name__}: {raw}"])
        else:
            try:
                out = unit.check(raw)
            except (ValueError, KeyError, IndexError, OSError) as exc:
                out = self.outcome(unit.fits)
                out.flag(out.ALL, [f"output unreadable: {exc}"])
        failed = out.failed
        first = self.digests.setdefault(unit.name, out.digests)
        if first != out.digests or self.iters.setdefault(unit.name, out.iters) != out.iters:
            out.flag(out.ALL, ["outputs differ from the unit's first run"])
            failed = unit.fits
        self.recovered.setdefault(unit.name, out.recovered)
        self.failed += failed
        for fit, msgs in out.problems.items():
            self.problems.extend(f"{unit.name} {fit}: {m}" for m in msgs)

    def iter_cost(self):
        """Median over unit runs of the wall time per solver iteration, in
        loops of the reference kernel sampled while that run went on.  The
        reference slows down with the machine, so slow stretches of a shared
        host move this far less than they move wall time."""
        costs = [
            t / self.iters[n] / r
            for n, ts in self.samples.items() if self.iters.get(n)
            for t, r in zip(ts, self.refs[n])
        ]
        return statistics.median(costs or [0.0])

    def iter_us(self):
        """Median over unit runs of wall microseconds per solver iteration."""
        rates = [
            1e6 * t / self.iters[n]
            for n, ts in self.samples.items() if self.iters.get(n) for t in ts
        ]
        return statistics.median(rates or [0.0])

    def report(self):
        return {
            "units": {
                n: {"seconds": s, "iters": self.iters.get(n), "digests": self.digests.get(n)}
                for n, s in self.samples.items()
            },
            "reference_s": self.refs,
            "iter_us": self.iter_us(),
            "recovered": f"{sum(self.recovered.values())}/{len(self.recovered)}",
            "problems": self.problems[:20],
        }


def measure(wl, seconds, outcome):
    """Cycle through the units; stop before a unit whose run, judged by its
    median so far, would end after ``seconds``."""
    units = wl.units()
    tally = Tally(units, outcome)
    start = time.perf_counter()
    k = 0
    with Yardstick() as yardstick:
        while True:
            unit = units[k % len(units)]
            past = tally.samples[unit.name]
            expected = statistics.median(past) if past else 0.0
            if k and time.perf_counter() - start + expected > seconds:
                break
            tally.add(unit, *yardstick.run(unit))
            k += 1
    return tally


def _probe_trace_iter_us(wl, solvers):
    """Per-iteration cost of trace rows: the same fit at trace_every=1 and at
    trace_every=max_iters, through the public config."""
    a, cfg = wl.probe()
    every, once = [], []
    for _ in range(PROBE_REPS):
        for te, sink in ((1, every), (cfg.max_iters, once)):
            t0 = time.perf_counter()
            solvers.fit_nncp(a, dataclasses.replace(cfg, trace_every=te))
            sink.append(time.perf_counter() - t0)
    return 1e6 * (statistics.median(every) - statistics.median(once)) / cfg.max_iters


def measure_traced(wl, seconds, outcome, tracer_mod, solvers, spans_path):
    """One traced pass: set-up and every unit once under the tracer.  While
    within ``seconds``, each unit also runs untraced just before, and the
    difference is the tracing overhead."""
    trace_iter_us = _probe_trace_iter_us(wl, solvers)
    tracer = tracer_mod.Tracer()
    with tracer:
        wl.setup()
    units = wl.units()
    tally = Tally(units, outcome)
    traced_s = twin_traced_s = twin_untraced_s = 0.0
    start = time.perf_counter()
    for unit in units:
        twin = time.perf_counter() - start < seconds
        if twin:
            plain_s, raw = _timed_run(unit)
            tally.add(unit, plain_s, raw)
        with tracer:
            dt, raw = _timed_run(unit)
        tally.add(unit, dt, raw)
        traced_s += dt
        if twin:
            twin_traced_s += dt
            twin_untraced_s += plain_s
    metrics = tracer.layer_metrics()
    overhead = twin_traced_s - twin_untraced_s
    metrics.update({
        "solvers.trace_iter_us": trace_iter_us,
        "trace.wall_s": traced_s,
        "trace.overhead_s": overhead,
        "trace.overhead_pct": 100.0 * overhead / twin_untraced_s,
        "trace.span_us": tracer_mod.span_cost_us(),
        "trace.peak_rss_mb": _peak_rss_mb(),
    })
    tracer.write(spans_path)
    return tally, metrics


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _environment(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
    }


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["sweep-bclr", "kl-recovery", "large-cli"])
    p.add_argument("--seed", type=int, default=0, help="workload seed; 0 = acceptance fixtures")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "tiny"], default="full",
                   help="tiny shrinks every workload for the benchmark's own tests")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "nncp" / "__init__.py").is_file():
        print(f"error: nncp sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracer as tracer_mod
    import workloads
    from nncp import solvers

    import_s = _import_seconds()
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.size == "tiny", workdir)
        gen_s = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            wl.setup()
            gen_s.append(time.perf_counter() - t0)
        if args.trace:
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            tally, layer = measure_traced(
                wl, args.seconds, workloads.Outcome, tracer_mod, solvers, spans
            )
            metrics = {name: {"value": layer[name], "unit": unit}
                       for name, unit in tracer_mod.LAYER_METRICS}
        else:
            tally = measure(wl, args.seconds, workloads.Outcome)
            values = {
                "iter_cost": tally.iter_cost(),
                "setup_s": statistics.median(import_s) + statistics.median(gen_s),
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "trace": args.trace, "import_s": import_s, "gen_s": gen_s,
              "peak_rss_mb": _peak_rss_mb(),
              "environment": _environment(np), **tally.report()}
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
