"""Every model record rejects a NaN, and a value out of its range, in its
checked fields.

Each check is written as the negated in-range test, so a NaN, which fails
every comparison, is refused instead of passing through to an all-NaN result.
"""

import numpy as np
import pytest

from atomfield import jcp, parabolic_mirror as pm, spherical_cavity as sc
from atomfield.free_space import TwoLevelAtom

NAN = float("nan")


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: TwoLevelAtom(omega_eg=1e3, gamma=NAN), "decay rate", id="TwoLevelAtom.gamma"),
        pytest.param(
            lambda: pm.ParabolicGeometry(focal_length=NAN, wavenumber=1.0),
            "focal length",
            id="ParabolicGeometry.focal_length",
        ),
        pytest.param(
            lambda: pm.ParabolicGeometry(focal_length=1.0, wavenumber=NAN),
            "wave number",
            id="ParabolicGeometry.wavenumber",
        ),
        pytest.param(
            lambda: sc.SphericalCavity(radius=NAN, atom=TwoLevelAtom.from_linewidth(1.0, 1e3)),
            "cavity radius",
            id="SphericalCavity.radius",
        ),
        pytest.param(
            lambda: pm.RateProfile(positions=np.array([0.0, 1.0]), eta=np.array([0.5, NAN])),
            "rate ratio",
            id="RateProfile.eta",
        ),
        pytest.param(lambda: jcp.JcpParams(detuning=NAN), "detuning", id="JcpParams.detuning"),
        pytest.param(
            lambda: jcp.FieldDistribution(np.array([NAN]), 0), "sum to 1", id="FieldDistribution"
        ),
        pytest.param(
            lambda: jcp.FieldDistribution(np.array([NAN, 1.0]), 0),
            "sum to 1",
            id="FieldDistribution-with-a-full-row",
        ),
        pytest.param(
            lambda: jcp.FieldDistribution(np.array([1.0]), NAN), "n_min", id="FieldDistribution.n_min"
        ),
    ],
)
def test_nan_is_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        # passed the radius check, then divided by zero in the flat band
        pytest.param(
            lambda: sc.SphericalCavity(radius=float("inf"), atom=TwoLevelAtom.from_linewidth(1.0, 1e3)),
            "cavity radius",
            id="SphericalCavity.radius-inf",
        ),
        pytest.param(
            lambda: jcp.FieldDistribution(np.array([1.0]), -1), "n_min", id="FieldDistribution.n_min-negative"
        ),
        pytest.param(
            lambda: jcp.FieldDistribution(np.array([1.0]), 2.5),
            "n_min",
            id="FieldDistribution.n_min-non-integer",
        ),
    ],
)
def test_out_of_range_is_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()
