"""Compare a scenario's CSV with its golden file across environments.

Two runs of one config on one machine with the same library versions are
byte-identical; that is checked byte for byte where the runs are made.  A
golden file written under another Python/numpy/scipy build is only promised
within floating-point tolerance, because elementary functions (libm, SIMD
loops) and reduction order may differ in the last bits.  This module states
that tolerance once, for every golden test; each bound is read from the
golden's own scenario and column.

What stays exact: the header, the row count, the set of metadata keys, and
every metadata value except the numerical diagnostics below.  What is
compared with a tolerance, per field:

* the finite-band (multimode) solver's output and ``norm_drift``, the
  ``ODE_FIELDS`` of the golden's scenario: ``|got - golden| <= bound`` with
  the error bound the spectral solver states, ``multimode._SPECTRAL_ERROR``.
  Its phases and trigamma weights go through libm and the numpy special
  functions and Newton iterations of ``numerics`` and ``multimode`` rather
  than a short chain of rounded operations, so the solver's own accuracy,
  not K eps S, is what is promised across environments.
* every other column, the closed forms and the 0/1 flag ``near_boundary``:
  ``|got - golden| <= K * eps * S`` with ``eps`` the float64 machine
  epsilon and ``S`` the largest ``|value|`` of the column in the golden (for
  a diagnostic, of the column it is measured on).  A flag has S <= 1, so
  its bound is below 1.5e-14 and refuses any flip.

How far the goldens themselves lie from the exact answer is a separate
promise: ``test_exact_goldens.py`` holds golden columns within K eps (S + C)
of their exact references, C the column's condition scale.
"""
from __future__ import annotations

import numpy as np

from atomfield import cli, multimode

EPS = float(np.finfo(np.float64).eps)

# Every closed-form column is a short chain of correctly rounded arithmetic,
# elementary-function calls (each within a few ulp in any conforming libm)
# and reductions of at most 45 terms (the Poisson range the jcp-inversion
# field is normalized over at <n> = 4, n = 0 .. ceil(<n> + 10 sqrt(<n>) + 20)
# = 44; the window it keeps, n = 0 .. 31, is 32 rows).  The jcp inversion
# sums that window as the two angle-addition products of `numerics._cos_sum`,
# (cos(A) amp) @ cos(B) - (sin(A) amp) @ sin(B), each a reduction over those
# rows, on sample times met to an ulp of the largest one; it lies 4.1e-15 and
# 2.1e-15 from the jcp-inversion and jcp-vacuum goldens, which the dense
# cosine sum wrote.  Summing n terms bounded by S in another order moves the
# result by at most (n - 1) eps S (Higham, Accuracy and Stability of
# Numerical Algorithms, 2002, sec. 4.2), i.e. 44 eps S; 64 is the next power
# of two, leaving room for the elementary-function ulps on top.  A
# sphere-revival echo term is an (M - 1)-step Laguerre recurrence
# (`numerics.stable_binomial_series`, damped error <= 8 eps); against the
# exact sum rounded once it moved p_e by at most 1.2e-15 over the seeds 1-10
# `echo-series` batches (up to 20 echoes), 8.6 % of 64 eps S.
K = 64

# Fields produced by the finite-band solver, per scenario.
ODE_FIELDS = {
    "free-decay": {"p_e", "norm_drift"},
    "sphere-revival": {"p_e_ode", "norm_drift"},
}

# Closed-form diagnostics in the metadata, each with the column whose scale it
# carries: the probe height is a z value; the quadrature error estimate and
# |eta_quadrature - eta_closed| are differences of eta-sized numbers, so their
# rounding scales with eta, not with their own (tiny) size.
DIAGNOSTIC_SCALE = {
    "probe_z_mm": "z_mm",
    "probe_quadrature_error": "eta",
    "probe_closed_vs_quadrature": "eta",
}


def read_table(path: str) -> cli.ResultTable:
    """Re-parse a written CSV (metadata, header, float rows)."""
    metadata: dict[str, str] = {}
    columns: list[str] = []
    rows: list[list[float]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                metadata[key.strip()] = value.strip()
            elif not columns:
                columns = line.split(",")
            else:
                rows.append([float(v) for v in line.split(",")])
    return cli.ResultTable(columns, tuple(np.array(rows, dtype=float).reshape(len(rows), len(columns)).T), metadata)


def _excess(got: np.ndarray, want: np.ndarray, bound: np.ndarray | float, name: str) -> list[str]:
    delta = np.abs(got - want)
    bad = ~(delta <= bound)  # NaN counts as a mismatch
    if not np.any(bad):
        return []
    worst = int(np.argmax(np.where(bad, delta, -1.0)))
    limit = np.broadcast_to(bound, delta.shape)[worst]
    return [
        f"{name}: {int(np.count_nonzero(bad))} of {delta.size} values out of tolerance, "
        f"worst |{got[worst]!r} - {want[worst]!r}| = {delta[worst]:.3g} > {limit:.3g}"
    ]


def table_mismatches(got: cli.ResultTable, golden: cli.ResultTable) -> list[str]:
    """Every difference between a CSV and its golden that the contract forbids."""
    if got.columns != golden.columns:
        return [f"header {got.columns} != golden {golden.columns}"]
    # one row per sample, one column per name
    have = np.array(got.data, dtype=float).T
    want = np.array(golden.data, dtype=float).T
    if have.shape != want.shape:
        return [f"{have.shape[0]} rows != golden {want.shape[0]}"]
    missing = sorted(set(golden.metadata) - set(got.metadata))
    extra = sorted(set(got.metadata) - set(golden.metadata))
    if missing or extra:
        return [f"metadata keys missing {missing}, extra {extra}"]

    ode_fields = ODE_FIELDS.get(golden.metadata.get("scenario"), set())
    scale = dict(zip(golden.columns, np.max(np.abs(want), axis=0, initial=0.0)))
    problems: list[str] = []
    for j, column in enumerate(golden.columns):
        bound = multimode._SPECTRAL_ERROR if column in ode_fields else K * EPS * scale[column]
        problems += _excess(have[:, j], want[:, j], bound, f"column {column!r}")

    for key in sorted(golden.metadata):
        value, expected = got.metadata[key], golden.metadata[key]
        if key in ode_fields:
            bound = multimode._SPECTRAL_ERROR
        elif key in DIAGNOSTIC_SCALE:
            bound = K * EPS * scale[DIAGNOSTIC_SCALE[key]]
        else:
            if value != expected:
                problems.append(f"metadata {key!r}: {value!r} != golden {expected!r}")
            continue
        problems += _excess(
            np.array([float(value)]), np.array([float(expected)]), bound, f"metadata {key!r}"
        )
    return problems
