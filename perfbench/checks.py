"""Output checks for the benchmark, independent of the code under test.

Every check takes plain data (CSV text, JSON text, numpy arrays) and returns a
list of problem strings; an empty list means the output is correct.  Nothing
here calls into ``nncp``, so a defect in the package cannot hide itself by
also breaking its own checker.
"""

import hashlib
import io
import json

import numpy as np

TRACE_HEADER = "iter,objective,delta_l1,max_component_F,residual_E"
SUMMARY_HEADER = (
    "seed,family,verdict,final_residual_E,final_residual_F,blowup_ratio,iters"
)
# Per-step slack for a non-increasing objective, as in acceptance criterion 10.
MONOTONE_SLACK = 1e-10
# Relative slack of the coercivity cap, the solver's own runtime tolerance.
CAP_SLACK = 1e-9
# Relative slack of ||delta||_1 = ||X||_E for a simplex-normalized model.
SIMPLEX_SLACK = 1e-10


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _columns(header, required):
    """Positions of the required columns in a CSV header line; extra columns
    are allowed.  Raises ValueError on a missing one."""
    names = header.split(",")
    missing = [c for c in required if c not in names]
    if missing:
        raise ValueError(f"CSV lacks columns {missing}")
    return [names.index(c) for c in required]


def parse_trace_csv(text):
    """Rows of a fit-trace CSV as an (n, 5) float array with the columns of
    TRACE_HEADER; raises ValueError."""
    cols = _columns(text.split("\n", 1)[0], TRACE_HEADER.split(","))
    rows = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, usecols=cols, ndmin=2)
    if not len(rows):
        raise ValueError("trace CSV has no rows")
    return rows


def check_trace(rows, nonneg, a_e):
    """Objective non-increasing; for nonneg fits, the coercivity cap on every
    row."""
    problems = []
    obj = rows[:, 1]
    rises = np.flatnonzero(np.diff(obj) > MONOTONE_SLACK)
    if rises.size:
        i = int(rises[0])
        problems.append(
            f"objective rises at iter {int(rows[i + 1, 0])}: "
            f"{obj[i]!r} -> {obj[i + 1]!r}"
        )
    if nonneg:
        problems += check_cap(rows[:, 0], rows[:, 2], rows[:, 4], a_e)
    return problems


def check_cap(iters, delta_l1, residual_e, a_e):
    """Coercivity cap delta_l1 <= ||A||_E + residual_E on every row."""
    cap = a_e + np.asarray(residual_e, dtype=float)
    delta_l1 = np.asarray(delta_l1, dtype=float)
    over = np.flatnonzero(delta_l1 > cap + CAP_SLACK * (1.0 + cap))
    if over.size:
        i = int(over[0])
        return [f"coercivity cap violated at iter {int(iters[i])}: "
                f"{delta_l1[i]!r} > {cap[i]!r}"]
    return []


def check_simplex(delta, factors):
    """A returned nonneg model satisfies ||delta||_1 = ||X||_E."""
    delta = np.asarray(delta, dtype=float)
    factors = [np.asarray(f, dtype=float) for f in factors]
    if delta.size == 0:
        return ["model has no components"]
    if np.any(delta < 0) or any(np.any(f < 0) for f in factors):
        return ["nonneg model has a negative entry"]
    x = np.einsum("r," + ",".join(f"{chr(97 + i)}r" for i in range(len(factors))),
                  delta, *factors)
    d_l1, x_e = float(np.sum(delta)), float(np.sum(np.abs(x)))
    if abs(d_l1 - x_e) > SIMPLEX_SLACK * max(1.0, x_e):
        return [f"||delta||_1 = {d_l1!r} differs from ||X||_E = {x_e!r}"]
    return []


def check_model_json(text, nonneg):
    """Model file is well formed; nonneg models satisfy the simplex identity."""
    doc = json.loads(text)
    if not nonneg:
        finite = np.all(np.isfinite(doc["delta"])) and all(
            np.all(np.isfinite(f)) for f in doc["factors"]
        )
        return [] if finite else ["model has a non-finite entry"]
    return check_simplex(doc["delta"], doc["factors"])


def parse_summary_csv(text):
    """Rows of a contrast summary CSV as dicts of the SUMMARY_HEADER columns;
    raises ValueError."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("summary CSV is empty")
    keys = SUMMARY_HEADER.split(",")
    cols = _columns(lines[0], keys)
    rows = [line.split(",") for line in lines[1:]]
    return [{k: r[c] for k, c in zip(keys, cols)} for r in rows]


def check_summary_row(row, iters):
    """No ERROR rows, every nonneg row BOUNDED, and the full iteration budget
    spent (the sweep runs with tol = 0)."""
    if row["verdict"] == "ERROR":
        return [f"seed {row['seed']} {row['family']}: ERROR row"]
    problems = []
    if row["family"] == "nonneg" and row["verdict"] != "BOUNDED":
        problems.append(f"seed {row['seed']} nonneg: {row['verdict']}, not BOUNDED")
    if int(row["iters"]) != iters:
        problems.append(f"seed {row['seed']} {row['family']}: {row['iters']} iters")
    return problems
