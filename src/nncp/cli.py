"""
Command-line front door.

Subcommands: norms, divergence, decompose, pathology, degeneracy, normalize.
Every run is fully specified by argv; outputs go only where --out/--trace
point.  Exit codes: 0 success, 1 invalid input, 2 internal error.
"""

import argparse
import os
import sys

from . import diagnostics, pathologies, solvers
from .divergence import DivergenceKind, distance
from .kruskal import KruskalModel, normalize, read_model, write_model
from .solvers import FitConfig, Loss
from .tensor import norm, read_tensor, write_tensor


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _out(path):
    """An output path, checked at parse time so that no work runs for a path
    that cannot be written: not empty, not a directory, in a directory."""
    if not path or os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
        raise argparse.ArgumentTypeError(f"cannot write to {path!r}")
    return path


def _fmt(x):
    return format(float(x), ".17g")


def _cmd_norms(args):
    t = read_tensor(args.input)
    for kind in ("E", "F", "G"):
        print(f"{kind}={_fmt(norm(t, kind))}")
    return 0


def _cmd_divergence(args):
    a = read_tensor(args.a)
    b = read_tensor(args.b)
    print(_fmt(distance(a, b, DivergenceKind(args.kind))))
    return 0


def _cmd_decompose(args):
    t = read_tensor(args.input)
    cfg = FitConfig(
        rank=args.rank,
        loss=Loss(args.loss),
        nonneg=args.nonneg,
        max_iters=args.max_iters,
        tol=args.tol,
        seed=args.seed,
        reg_rho=args.reg,
    )
    fit = solvers.fit_nncp if args.nonneg else solvers.fit_cp_unconstrained
    result = fit(t, cfg)
    if args.trace is not None:
        result.trace.write_csv(args.trace)
    if args.out is not None:
        write_model(result.model, args.out)
    print(
        f"final_objective={_fmt(result.final_objective)} "
        f"iters={result.trace.columns.iter[-1]} converged={str(result.converged).lower()}"
    )
    return 0


def _cmd_pathology(args):
    if args.generator == "bclr":
        outputs = zip(pathologies.bclr_a_eps(args.epsilon, args.n), (args.out, args.components))
    elif args.generator == "bclr-limit":
        outputs = [(pathologies.bclr_limit(args.n), args.out)]
    elif args.generator == "w-seq":
        seq, limit, b, c = pathologies.w_sequence([args.n])
        outputs = [(seq[0], args.out), (limit, args.limit_out), (b, args.b_out), (c, args.c_out)]
    else:
        outputs = zip(pathologies.kl_counterexample(args.n), (args.a_out, args.x_out))
        if args.a_out is None and args.x_out is None:
            raise CliError("kl-example needs --a-out or --x-out")
    for value, path in outputs:
        if path is not None:
            (write_model if isinstance(value, KruskalModel) else write_tensor)(value, path)
    return 0


def _cmd_degeneracy(args):
    if args.seeds < 1:
        raise CliError("--seeds must be >= 1")
    t = read_tensor(args.input)
    summary = diagnostics.run_contrast_experiment(
        t,
        rank=args.rank,
        seeds=range(args.seeds),
        max_iters=args.iters,
    )
    summary.write_csv(args.out)
    for family in ("nonneg", "unconstrained"):
        counts = summary.verdict_counts(family)
        parts = " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        print(f"{family}: {parts}")
    return 0


def _cmd_normalize(args):
    model = read_model(args.model)
    write_model(normalize(model), args.out)
    return 0


def build_parser():
    parser = _Parser(prog="nncp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norms", help="entrywise norms of a tensor file")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_norms)

    p = sub.add_parser("divergence", help="distance between two tensors")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--kind", required=True, choices=[k.value for k in DivergenceKind])
    p.set_defaults(func=_cmd_divergence)

    p = sub.add_parser("decompose", help="fit a CP model to a tensor")
    p.add_argument("--input", required=True)
    p.add_argument("--rank", required=True, type=int)
    p.add_argument("--loss", default="frob", choices=[loss.value for loss in Loss])
    p.add_argument("--nonneg", action="store_true")
    p.add_argument("--reg", type=float, default=0.0, metavar="RHO")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--trace", type=_out, metavar="OUT_CSV")
    p.add_argument("--out", type=_out, metavar="MODEL_JSON")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("pathology", help="generate the classic constructions")
    gen = p.add_subparsers(dest="generator", required=True)

    g = gen.add_parser("bclr", help="border-rank family member A_eps")
    g.add_argument("--epsilon", required=True, type=float)
    g.add_argument("--n", type=int, default=4)
    g.add_argument("--out", required=True, type=_out)
    g.add_argument("--components", type=_out, metavar="MODEL_JSON")

    g = gen.add_parser("bclr-limit", help="rank >= 6 limit tensor")
    g.add_argument("--n", type=int, default=4)
    g.add_argument("--out", required=True, type=_out)

    g = gen.add_parser("w-seq", help="2x2x2 sequence member A_n")
    g.add_argument("--n", required=True, type=int)
    g.add_argument("--out", required=True, type=_out)
    g.add_argument("--limit-out", type=_out)
    g.add_argument("--b-out", type=_out)
    g.add_argument("--c-out", type=_out)

    g = gen.add_parser("kl-example", help="KL boundary pair (A, X_n)")
    g.add_argument("--n", required=True, type=int)
    g.add_argument("--a-out", type=_out)
    g.add_argument("--x-out", type=_out)

    p.set_defaults(func=_cmd_pathology)

    p = sub.add_parser("degeneracy", help="contrast experiment over seeds")
    p.add_argument("--input", required=True)
    p.add_argument("--rank", required=True, type=int)
    p.add_argument("--seeds", required=True, type=int, metavar="K")
    p.add_argument("--iters", type=int, default=2000)
    # Accepted for compatibility and ignored: the seeds run as one batch.
    p.add_argument("--workers", type=int, default=1, help=argparse.SUPPRESS)
    p.add_argument("--out", required=True, type=_out)
    p.set_defaults(func=_cmd_degeneracy)

    p = sub.add_parser("normalize", help="simplex-normalize a model file, by descending weight")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True, type=_out)
    p.set_defaults(func=_cmd_normalize)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # anything else is a bug, not bad input
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
