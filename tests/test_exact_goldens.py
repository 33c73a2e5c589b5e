"""Golden columns against the exact answer, from the CSV's own float inputs.

`golden_check` promises every environment within K eps S of the stored
golden; this states how far the goldens themselves are from the physics.
Each column is recomputed by its `exact.py` reference and must lie within
K eps (S + C) of it, with S = max |column| and C the column's condition
scale: sum_j |w_j lambda_j t| at the largest t for a cosine sum (the
jcp ladder), 0 for the rest.  The distances measured are recorded in
`golden/PROVENANCE.md`; a column beyond its bound is a finding, not a bound
to widen.
"""

from math import sqrt
from pathlib import Path

import numpy as np
import pytest

import exact
from golden_check import EPS, K, read_table

GOLDEN = Path(__file__).resolve().parent / "golden"


def _sphere_revival(table):
    t, p_e = table.data
    return p_e, exact.sphere_excited_probability(float(table.metadata["gamma_R"]), t), 0.0


def _parabola_eta(table):
    # a = k z as the closed form rounds it
    z, eta = table.data
    return eta, exact.on_axis_eta(float(table.metadata["k_per_mm"]) * z), 0.0


def _jcp_vacuum(table):
    # one pair, n = 0: w = (delta^2 + 4 cos(Omega t)) / Omega^2
    t, w = table.data
    detuning = float(table.metadata["detuning"])
    omega = sqrt(detuning**2 + 4.0)
    condition = 4.0 / omega * np.max(np.abs(t))
    return w, exact.jcp_inversion(detuning, [1.0], [0], t), condition


REFERENCES = {
    "sphere-revival": _sphere_revival,
    "parabola-eta": _parabola_eta,
    "jcp-vacuum": _jcp_vacuum,
}


@pytest.mark.parametrize("name", REFERENCES)
def test_golden_column_is_near_the_exact_answer(name):
    got, want, condition = REFERENCES[name](read_table(GOLDEN / f"{name}.csv"))
    scale = np.max(np.abs(got))
    assert np.max(np.abs(got - want)) <= K * EPS * (scale + condition)
