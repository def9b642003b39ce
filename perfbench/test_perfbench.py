"""Tests of the benchmark itself.  Run with ``python3 -m pytest perfbench``.

The smoke runs use ``--size tiny``; they check the output contract and the
metric names, never a timing.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _bench(workload, trace, seed=0):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_metric_names(workload, trace):
    _, result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_digests_repeat_across_runs_of_one_seed():
    first, _ = _bench("sweep-bclr", 0, seed=3)
    again, _ = _bench("sweep-bclr", 0, seed=3)
    digests = {n: u["digests"] for n, u in first["units"].items()}
    assert digests == {n: u["digests"] for n, u in again["units"].items()}
    assert all(digests.values())


def test_missing_sources_exit_nonzero_without_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "large-cli", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


# --- negative cases: corrupted outputs must count as failed fits -------------

_TRACE = checks.TRACE_HEADER + "\n0,5.0,1.0,1.0,2.0\n1,4.0,1.0,1.0,1.5\n2,3.0,1.0,1.0,1.0\n"


def test_trace_checks_accept_a_good_trace():
    assert checks.check_trace(checks.parse_trace_csv(_TRACE), True, a_e=6.0) == []


def test_increasing_objective_is_flagged():
    bad = _TRACE.replace("2,3.0,", "2,4.5,")
    assert checks.check_trace(checks.parse_trace_csv(bad), False, a_e=6.0)


def test_coercivity_cap_violation_is_flagged():
    bad = _TRACE.replace("1,4.0,1.0,", "1,4.0,9.0,")
    assert checks.check_trace(checks.parse_trace_csv(bad), True, a_e=6.0)


def test_simplex_identity_violation_is_flagged():
    factors = [[[0.5], [0.5]], [[1.0]]]
    assert checks.check_simplex([2.0], factors) == []
    assert checks.check_simplex([2.0], [[[0.5], [0.6]], [[1.0]]])


def test_summary_row_checks():
    row = {"seed": "56", "family": "nonneg", "verdict": "BOUNDED", "iters": "40"}
    assert checks.check_summary_row(row, 40) == []
    assert checks.check_summary_row({**row, "verdict": "DEGENERATE"}, 40)
    assert checks.check_summary_row({**row, "verdict": "ERROR"}, 40)
    assert checks.check_summary_row(row, 2000)


def _tiny(cls, tmp_path):
    wl = cls(0, True, str(tmp_path))
    wl.setup()
    return wl, wl.units()


def test_nonneg_row_labelled_degenerate_raises_failed(tmp_path):
    wl, (unit,) = _tiny(workloads.SweepBclr, tmp_path)
    raw = unit.run()
    assert unit.check(raw).failed == 0
    text = Path(wl.summary).read_text()
    Path(wl.summary).write_text(text.replace("nonneg,BOUNDED", "nonneg,DEGENERATE", 1))
    assert unit.check(raw).failed == 1


def test_increasing_objective_in_cli_trace_raises_failed(tmp_path):
    _, (unit,) = _tiny(workloads.LargeCli, tmp_path)
    raw = unit.run()
    assert unit.check(raw).failed == 0
    trace = tmp_path / "mu-kl.csv"
    lines = trace.read_text().splitlines()
    fields = lines[-1].split(",")
    fields[1] = repr(float(fields[1]) * 2 + 1)
    trace.write_text("\n".join(lines[:-1] + [",".join(fields)]) + "\n")
    assert unit.check(raw).failed == 1


def test_tally_counts_raises_and_changed_outputs(tmp_path):
    _, (unit,) = _tiny(workloads.LargeCli, tmp_path)
    tally = run.Tally([unit], workloads.Outcome)
    raw = unit.run()
    tally.add(unit, 0.1, raw)
    tally.add(unit, 0.1, RuntimeError("boom"))
    assert (tally.attempted, tally.failed) == (6, 3)
    model = tmp_path / "als.json"
    model.write_text(model.read_text() + " ")  # same model, other bytes
    tally.add(unit, 0.1, raw)
    assert (tally.attempted, tally.failed) == (9, 6)
