import argparse
import functools
import inspect
import math
import os
import re

import numpy as np
import pytest

import nncp
from nncp import cli


def test_public_names_resolve():
    assert nncp.__all__ == sorted(set(nncp.__all__))
    for name in nncp.__all__:
        assert getattr(nncp, name) is not None
    namespace = {}
    exec("from nncp import *", namespace)
    assert set(nncp.__all__) <= set(namespace)


# --- one boundary table -------------------------------------------------------
#
# Every parameter of every public callable and every option of every nncp
# subcommand has a kind; each kind lists its bad values.  A bad value raises a
# ValueError whose message starts as the value's template does, {} standing for
# the parameter's name in the message (the row's third field, else the
# parameter's own name); a bad option exits 1 with one "error:" line.  "seq:k"
# is a sequence whose first item is also replaced by each bad value of kind k.


def _instances(cls, values=(None, np.ones(1), [1.0], 1.0)):
    return [(v, f"{{}} must be a {cls}, got {type(v).__name__}$") for v in values]


def _integers(least):
    bad = (None, 2.5, True, np.True_, "3", np.float64(3.0))
    return [(v, "{} must be an integer") for v in bad] + [(least - 1, f"{{}} must be >= {least}")]


_NOT_REAL = [(v, "{} must be a real number") for v in (None, "1", True, np.True_, 1j)]
_NOT_REAL += [(v, "{} must be finite") for v in (math.nan, math.inf, -math.inf)]
_DEEP, _LOOP = functools.reduce(lambda x, _: [x], range(3000), [1.0]), []
_LOOP.append(_LOOP)  # a list that contains itself
_NOT_ARRAY = [(v, "{} must be an array of real numbers") for v in (
    None, "ab", {"a": 1}, [[1.0], [1.0, 2.0]], ["1.5", True], ["2"], [[True]], [1.0, None],
    np.array([True]), [10**400], _DEEP, _LOOP)]
_NOT_ARRAY += [(v, "{} contains NaN or Inf") for v in ([math.nan], [1.0, math.inf])]
_BAD = {
    "tensor": _instances("DenseTensor"),
    "model": _instances("KruskalModel", (None, np.ones(1), nncp.DenseTensor([1], [1.0]))),
    "trace": _instances("FitTrace"),
    "cfg": _instances("FitConfig", (None, {"rank": 1})),
    "Loss": _instances("Loss", (None, "frob", np.ones(1))),
    "thresholds": _instances("DegeneracyThresholds or None",
                             (3, 0, {"blowup_ratio": 5.0}, (10.0, 2.0))),
    "int>=0": _integers(0),
    "int>=1": _integers(1),
    "int>=4": _integers(4),
    "real": _NOT_REAL,
    "real>=0": _NOT_REAL + [(-1.0, "{} must be >= 0")],
    "real>0": _NOT_REAL + [(0.0, "{} must be > 0"), (-1.0, "{} must be > 0")],
    "flag": [(v, "{} must be a bool") for v in (None, "no", 1, np.ones(1))],
    "seq": [(v, "{} must be a sequence") for v in (None, 5, True, "ab", {"a": 1}, {1})],
    "array": _NOT_ARRAY,
    "path": [(v, "{} must be a str, bytes or os.PathLike") for v in (None, 2.5, ["t.json"], 10**6)],
    "json": [(v, "malformed {} JSON: ") for v in (None, 3, b"\xff", "not json")]
    + [("[]", "{} JSON must be an object"), ("{}", "{} JSON missing field")],
    "choice": [(v, "{}") for v in (None, "kl", np.ones(1))],
}

_T = nncp.DenseTensor([1], [1.0])
_TRACE = nncp.FitTrace()
_TRACE.append_block([0], [1.0], [1.0], [1.0], [1.0])
_TENSOR, _MODEL = ("tensor", _T), ("model", nncp.KruskalModel([1], [1.0], [[[1.0]]]))
_TARGET, _PATH = ("tensor", _T, "the target"), ("path", "out.json")
_CFG = ("cfg", nncp.FitConfig(rank=1, max_iters=1))
_TENSOR_SHAPE = ("seq:int>=1", [1], "tensor (shape|dimension)")
_MODEL_SHAPE = ("seq:int>=1", [1], "model (shape|dimension)")

_API = {  # callable -> {parameter: (kind, valid value[, name in the message])}
    "ContrastSummary.write_csv": {"path": _PATH},
    "DegeneracyThresholds": {"blowup_ratio": ("real>0", 10.0), "residual_factor": ("real>0", 2.0)},
    "DenseTensor": {"shape": _TENSOR_SHAPE, "data": ("array", [1.0], "tensor data")},
    "DenseTensor.from_array": {"array": ("array", [1.0], "tensor data")},
    "DenseTensor.zeros": {"shape": _TENSOR_SHAPE},
    "FitConfig": {"rank": ("int>=1", 1), "loss": ("Loss", nncp.Loss.FROBENIUS),
                  "nonneg": ("flag", True), "max_iters": ("int>=1", 1), "tol": ("real>=0", 0.0),
                  "seed": ("int>=0", 0), "reg_rho": ("real>=0", 0.0), "trace_every": ("int>=1", 1)},
    "FitTrace": {},
    "FitTrace.write_csv": {"path": _PATH},
    "KruskalModel": {"shape": _MODEL_SHAPE, "delta": ("array", [1.0]),
                     "factors": ("seq:array", [[[1.0]]], "factor(s| 0)")},
    "NaiveBayesModel": {"prior": ("array", [1.0]),
                        "conditionals": ("seq:array", [[[1.0]]], "conditional(s| 0)")},
    "add_scaled": {"a": _TENSOR, "b": _TENSOR, "lam": ("real", 1.0), "mu": ("real", 1.0)},
    "bclr_a_eps": {"epsilon": ("real>0", 0.5), "n": ("int>=4", 4)},
    "bclr_limit": {"n": ("int>=4", 4)},
    "bregman_from_phi": {"a": _TENSOR, "b": _TENSOR, "phi_a": ("real", 0.0),
                         "phi_b": ("real", 0.0), "grad_phi_b": _TENSOR},
    "delta_l1_equals_e_norm_check": {"model": _MODEL},
    "detect_degeneracy": {"trace": ("trace", _TRACE), "a_norms": ("seq:real>=0", (1.0, 1.0)),
                          "thresholds": ("thresholds", None)},
    "distance": {"a": _TENSOR, "b": _TENSOR,
                 "kind": ("choice", nncp.DivergenceKind.E_NORM, "unknown divergence kind")},
    "fit_cp_unconstrained": {"a": _TARGET,
                             "cfg": ("cfg", nncp.FitConfig(rank=1, max_iters=1, nonneg=False))},
    "fit_nncp": {"a": _TARGET, "cfg": _CFG},
    "fit_seeds": {"a": _TARGET, "cfg": _CFG, "seeds": ("seq", [])},  # checked with no seeds
    "inner": {"a": _TENSOR, "b": _TENSOR},
    "kl_counterexample": {"n": ("int>=1", 1)},
    "kl_phi": {"a": _TENSOR},
    "l2_normalize": {"model": _MODEL},
    "model_from_json": {"text": ("json", "", "model")},
    "model_to_json": {"model": _MODEL},
    "norm": {"a": _TENSOR, "kind": ("choice", "E", "unknown norm kind")},
    "normalize": {"model": _MODEL},
    "objective": {"a": _TARGET, "model": _MODEL,
                  "loss": ("Loss", nncp.Loss.FROBENIUS),
                  "reg_rho": ("real>=0", 0.0)},
    "outer_product": {"vectors": ("seq:array", [[1.0]], "vector(s| 0)")},
    "random_model": {"shape": _MODEL_SHAPE, "r": ("int>=1", 1), "seed": ("int>=0", 0),
                     "nonneg": ("flag", True), "e_norm": ("real>=0", 1.0)},
    "read_model": {"path": _PATH},
    "read_tensor": {"path": _PATH},
    "reconstruct": {"model": _MODEL},
    "run_contrast_experiment": {"a": _TARGET, "rank": ("int>=1", 1), "seeds": ("seq", [0]),
                                "max_iters": ("int>=1", 1), "thresholds": ("thresholds", None)},
    "tensor_from_json": {"text": ("json", "", "tensor")},
    "tensor_to_json": {"a": _TENSOR},
    "to_naive_bayes": {"model": _MODEL},
    "w_sequence": {"n_values": ("seq:int>=1", [1], "(n_values|sequence index)")},
    "write_model": {"model": _MODEL, "path": _PATH},
    "write_tensor": {"a": _TENSOR, "path": _PATH},
}
_EXEMPT = dict.fromkeys(["ContrastSummary", "DegeneracyReport", "FitResult"], "an output record")
_EXEMPT |= dict.fromkeys(["DivergenceKind", "Loss"], "an enum: its members are the valid values")


def _callable(name):
    """``name`` in nncp; "C.m" is C's classmethod m, or m bound to C()."""
    owner, _, method = name.partition(".")
    call = getattr(nncp, owner)
    if method and inspect.isfunction(getattr(call, method)):
        call = call()
    return getattr(call, method) if method else call


def _bad(kind, good):
    outer, _, item = kind.partition(":")
    return _BAD[outer] + [([v, *good[1:]], m) for v, m in _BAD.get(item, [])]


def test_the_table_has_a_row_for_every_public_parameter():
    assert not _API.keys() & _EXEMPT.keys()
    assert sorted({name for name in _API if "." not in name} | _EXEMPT.keys()) == nncp.__all__
    for name, rows in _API.items():
        assert list(inspect.signature(_callable(name)).parameters) == list(rows), name


@pytest.mark.parametrize(
    "name, param", [(n, p) for n, rows in _API.items() for p in rows], ids=lambda x: x
)
def test_every_bad_argument_raises_a_value_error_that_names_it(name, param, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    kind, good, *label = _API[name][param]
    for bad, message in _bad(kind, good):
        args = {p: row[1] for p, row in _API[name].items()} | {param: bad}
        with pytest.raises(ValueError) as caught:
            _callable(name)(**args)
        assert re.match(message.format(*label or [param]), str(caught.value)), (bad, caught.value)
    assert not list(tmp_path.iterdir())  # a rejected call writes no file


_IN, _OUT = ("in", "t.json"), ("out", "out.json")
_CLI = {  # subcommand -> {option: (kind, valid value)}; a flag's value is None
    "norms": {"--input": _IN},
    "divergence": {"--a": _IN, "--b": _IN, "--kind": ("choice", "e")},
    "decompose": {"--input": _IN, "--rank": ("int>=1", "1"), "--loss": ("choice", "frob"),
                  "--nonneg": ("flag", None), "--reg": ("real>=0", "0"), "--seed": ("int>=0", "0"),
                  "--max-iters": ("int>=1", "2"), "--tol": ("real>=0", "0"),
                  "--trace": ("out", "trace.csv"), "--out": _OUT},
    "pathology bclr": {"--epsilon": ("real>0", "0.5"), "--n": ("int>=4", "4"), "--out": _OUT,
                       "--components": ("out", "c.json")},
    "pathology bclr-limit": {"--n": ("int>=4", "4"), "--out": _OUT},
    "pathology w-seq": {"--n": ("int>=1", "2"), "--out": _OUT, "--limit-out": ("out", "l.json"),
                        "--b-out": ("out", "b.json"), "--c-out": ("out", "c.json")},
    "pathology kl-example": {"--n": ("int>=1", "2"), "--a-out": _OUT, "--x-out": ("out", "x.json")},
    "degeneracy": {"--input": _IN, "--rank": ("int>=1", "1"), "--seeds": ("int>=1", "1"),
                   "--iters": ("int>=1", "2"), "--out": ("out", "s.csv")},
    "normalize": {"--model": ("in", "m.json"), "--out": _OUT},
}
_CLI_EXEMPT = {("degeneracy", "--workers"): "hidden, parsed and never read; perfbench passes it"}
_CLI_BAD = {
    "in": ["missing.json", "bad.json", ".", ""], "out": [".", "", "missing/out.json"],
    "choice": ["x", ""], "flag": ["=yes"],  # appended to the flag
    "int>=0": ["2.5", "x", "", "-1"], "int>=1": ["2.5", "x", "", "0"],
    "int>=4": ["2.5", "x", "", "3"],
    "real>=0": ["x", "", "nan", "inf", "-1"], "real>0": ["x", "", "nan", "inf", "0"],
}


def _options(parser, command=()):
    """(subcommand, option) for every option of every subcommand of ``parser``."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _options(sub, (*command, name))
        elif action.option_strings and not isinstance(action, argparse._HelpAction):
            yield " ".join(command), action.option_strings[0]


def test_the_table_has_a_row_for_every_cli_option():
    rows = {(command, option) for command, options in _CLI.items() for option in options}
    assert not rows & _CLI_EXEMPT.keys()
    assert sorted(_options(cli.build_parser())) == sorted(rows | _CLI_EXEMPT.keys())


@pytest.mark.parametrize(
    "command, option", [(c, o) for c, options in _CLI.items() for o in options], ids=lambda x: x
)
def test_every_bad_cli_value_exits_1_with_one_error_line(command, option, tmp_path, monkeypatch,
                                                         capsys):
    monkeypatch.chdir(tmp_path)
    nncp.write_tensor(nncp.DenseTensor([2, 2], [1.0, 2.0, 3.0, 4.0]), "t.json")
    nncp.write_model(nncp.random_model([2, 2], 1, 0), "m.json")
    (tmp_path / "bad.json").write_text("{not valid")
    inputs = sorted(os.listdir(tmp_path))
    options = _CLI[command]
    for bad in _CLI_BAD[options[option][0]]:
        argv = command.split()
        for opt, (_, value) in options.items():
            if value is None:
                argv += [opt + bad] if opt == option else [opt]
            else:
                argv += [opt, bad if opt == option else value]
        assert cli.main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert sorted(os.listdir(tmp_path)) == inputs, argv  # nothing is written


def test_a_file_descriptor_is_not_a_path_and_stays_open():
    # open() takes an int for a file descriptor and closes it at the end.
    r, w = os.pipe()
    try:
        for call in (lambda: nncp.write_tensor(_T, w), lambda: nncp.read_tensor(r)):
            with pytest.raises(ValueError, match="^path must be a str, bytes or os.PathLike"):
                call()
        os.write(w, b"x")
        assert os.read(r, 2) == b"x"  # both ends open, and nothing else written
    finally:
        os.close(r)
        os.close(w)
