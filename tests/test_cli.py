import numpy as np
import pytest

import nncp.solvers
from nncp.cli import main
from nncp.kruskal import read_model
from nncp.pathologies import w_sequence
from nncp.tensor import read_tensor, write_tensor, DenseTensor


def run(argv):
    return main([str(a) for a in argv])


def test_pathology_bclr_limit_and_norms(tmp_path, capsys):
    out = tmp_path / "a.json"
    assert run(["pathology", "bclr-limit", "--out", out]) == 0
    assert run(["norms", "--input", out]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert "E=6" in lines
    assert lines[2] == "G=1"


def test_pathology_bclr_with_components(tmp_path):
    t_path = tmp_path / "t.json"
    m_path = tmp_path / "m.json"
    assert run(["pathology", "bclr", "--epsilon", 0.1, "--out", t_path,
                "--components", m_path]) == 0
    t = read_tensor(t_path)
    m = read_model(m_path)
    assert t.shape == (4, 4, 4)
    assert m.r == 5


def test_pathology_w_seq_and_kl_example(tmp_path):
    an = tmp_path / "an.json"
    lim = tmp_path / "lim.json"
    b_path = tmp_path / "b.json"
    c_path = tmp_path / "c.json"
    assert run(["pathology", "w-seq", "--n", 10, "--out", an,
                "--limit-out", lim, "--b-out", b_path, "--c-out", c_path]) == 0
    assert read_tensor(an)[1, 1, 1] == pytest.approx(0.01)
    assert read_tensor(lim)[0, 1, 0] == 1.0
    _, _, b, c = w_sequence([10])
    assert read_tensor(b_path) == b and read_tensor(c_path) == c

    a_path = tmp_path / "ka.json"
    x_path = tmp_path / "kx.json"
    assert run(["pathology", "kl-example", "--n", 10, "--a-out", a_path,
                "--x-out", x_path]) == 0
    assert read_tensor(a_path)[0, 0, 0] == 1.0
    assert read_tensor(x_path)[1, 1, 1] == pytest.approx(1e-3)


def test_pathology_index_too_large_for_a_float(tmp_path, capsys):
    huge = "1" + "0" * 400
    assert run(["pathology", "w-seq", "--n", huge, "--out", tmp_path / "an.json"]) == 1
    assert "error: sequence index too large" in capsys.readouterr().err
    assert run(["pathology", "kl-example", "--n", huge]) == 1
    assert "error: n too large" in capsys.readouterr().err
    assert run(["pathology", "bclr", "--epsilon", 1e200, "--out", tmp_path / "a.json"]) == 1
    assert capsys.readouterr().err == "error: the outer product is not finite\n"
    assert run(["pathology", "bclr", "--epsilon", 1e-310, "--out", tmp_path / "a.json"]) == 1
    assert "error: epsilon too small" in capsys.readouterr().err


def test_kl_example_without_outputs_is_an_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["pathology", "kl-example", "--n", 10]) == 1
    assert capsys.readouterr().err == "error: kl-example needs --a-out or --x-out\n"
    assert list(tmp_path.iterdir()) == []


def test_divergence_identity(tmp_path, capsys):
    out = tmp_path / "a.json"
    run(["pathology", "bclr-limit", "--out", out])
    assert run(["divergence", "--a", out, "--b", out, "--kind", "kl"]) == 0
    assert float(capsys.readouterr().out.strip()) == 0.0


def test_divergence_inf(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    write_tensor(DenseTensor([2], [1.0, 0.0]), a)
    write_tensor(DenseTensor([2], [0.0, 1.0]), b)
    assert run(["divergence", "--a", a, "--b", b, "--kind", "kl"]) == 0
    assert capsys.readouterr().out.strip() == "inf"


def test_divergence_beyond_the_double_range(tmp_path, capsys):
    # Both files are valid; their difference 2e308 is not a finite double.
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    write_tensor(DenseTensor([2], [1e308, 0.0]), a)
    write_tensor(DenseTensor([2], [-1e308, 0.0]), b)
    assert run(["divergence", "--a", a, "--b", b, "--kind", "f"]) == 0
    assert capsys.readouterr().out.strip() == "inf"


def test_decompose_writes_model_and_trace(tmp_path, capsys):
    t_path = tmp_path / "a.json"
    run(["pathology", "bclr-limit", "--out", t_path])
    model_path = tmp_path / "model.json"
    trace_path = tmp_path / "trace.csv"
    code = run(["decompose", "--input", t_path, "--rank", 5, "--loss", "frob",
                "--nonneg", "--seed", 0, "--max-iters", 50, "--tol", 0,
                "--trace", trace_path, "--out", model_path])
    assert code == 0
    model = read_model(model_path)
    assert model.nonneg and model.normalized
    lines = trace_path.read_text().strip().split("\n")
    assert lines[0] == "iter,objective,delta_l1,max_component_F,residual_E"
    assert len(lines) == 52  # header + iterations 0..50
    assert "final_objective=" in capsys.readouterr().out


def test_decompose_kl_requires_nonneg(tmp_path, capsys):
    t_path = tmp_path / "a.json"
    run(["pathology", "bclr-limit", "--out", t_path])
    assert run(["decompose", "--input", t_path, "--rank", 2, "--loss", "kl"]) == 1
    assert "nonneg" in capsys.readouterr().err


def test_decompose_deterministic_outputs(tmp_path):
    t_path = tmp_path / "a.json"
    run(["pathology", "bclr-limit", "--out", t_path])
    outs = []
    for tag in ("x", "y"):
        model_path = tmp_path / f"m_{tag}.json"
        trace_path = tmp_path / f"t_{tag}.csv"
        run(["decompose", "--input", t_path, "--rank", 3, "--nonneg",
             "--seed", 4, "--max-iters", 30, "--tol", 0,
             "--trace", trace_path, "--out", model_path])
        outs.append((model_path.read_bytes(), trace_path.read_bytes()))
    assert outs[0] == outs[1]


def test_normalize_command(tmp_path):
    t_path = tmp_path / "a.json"
    run(["pathology", "bclr-limit", "--out", t_path])
    model_path = tmp_path / "m.json"
    run(["decompose", "--input", t_path, "--rank", 2, "--nonneg",
         "--max-iters", 20, "--tol", 0, "--out", model_path])
    out_path = tmp_path / "norm.json"
    assert run(["normalize", "--model", model_path, "--out", out_path]) == 0
    assert read_model(out_path).normalized
    # The normal form orders the components by descending weight.
    model_path.write_text('{"shape":[2],"delta":[1,3],"factors":[[[1,1],[1,1]]]}\n')
    assert run(["normalize", "--model", model_path, "--out", out_path]) == 0
    assert read_model(out_path).delta.tolist() == [6.0, 2.0]


def test_degeneracy_summary(tmp_path, capsys):
    t_path = tmp_path / "a.json"
    run(["pathology", "bclr-limit", "--out", t_path])
    out_path = tmp_path / "summary.csv"
    code = run(["degeneracy", "--input", t_path, "--rank", 5, "--seeds", 2,
                "--iters", 200, "--workers", 2, "--out", out_path])
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0].startswith("seed,family,verdict")
    assert len(lines) == 5
    assert "nonneg:" in capsys.readouterr().out


def test_tensor_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    t = DenseTensor.from_array(rng.uniform(0, 1, (2, 3)) * 1e-7)
    p1 = tmp_path / "t1.json"
    p2 = tmp_path / "t2.json"
    write_tensor(t, p1)
    write_tensor(read_tensor(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_error_exit_codes(tmp_path, capsys):
    # shape mismatch
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    write_tensor(DenseTensor([2], [1, 2]), a)
    write_tensor(DenseTensor([3], [1, 2, 3]), b)
    assert run(["divergence", "--a", a, "--b", b, "--kind", "e"]) == 1
    # unknown flag / unknown subcommand / missing subcommand
    assert run(["norms", "--bogus", "x"]) == 1
    assert run(["frobnicate"]) == 1
    assert run([]) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    # a seed count below 1, with or without a valid rank
    write_tensor(DenseTensor([2, 2], [1, 2, 3, 4]), a)
    summary = tmp_path / "summary.csv"
    for argv in (["--rank", 1, "--seeds", -3], ["--rank", 0, "--seeds", 0]):
        assert run(["degeneracy", "--input", a, *argv, "--out", summary]) == 1
        assert "error: --seeds must be >= 1" in capsys.readouterr().err
    assert not summary.exists()
    # a tolerance that is not a number
    assert run(["decompose", "--input", a, "--rank", 1, "--tol", "nan"]) == 1
    assert "error: tol must be finite" in capsys.readouterr().err


def test_internal_error_exit_code(tmp_path, monkeypatch, capsys):
    t_path = tmp_path / "a.json"
    run(["pathology", "bclr-limit", "--out", t_path])

    def boom(tensor, cfg):
        raise RuntimeError("solver exploded")

    monkeypatch.setattr(nncp.solvers, "fit_nncp", boom)
    code = run(["decompose", "--input", t_path, "--rank", 2, "--nonneg"])
    assert code == 2
    assert "internal error" in capsys.readouterr().err
