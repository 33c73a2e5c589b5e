"""Dynamics of a two-level atom coupled to quantized radiation in four mode
geometries: a single cavity mode, free space, a closed metallic sphere and a
half-open parabolic mirror.  Closed-form results are cross-validated
against brute-force solvers, which are test oracles, so the runtime needs
only numpy."""

from . import cli, free_space, jcp, multimode, numerics, parabolic_mirror, spherical_cavity
from .free_space import TwoLevelAtom
from .jcp import FieldDistribution, JcpParams
from .parabolic_mirror import ParabolicGeometry
from .spherical_cavity import SphericalCavity

__all__ = [
    "cli",
    "free_space",
    "jcp",
    "multimode",
    "numerics",
    "parabolic_mirror",
    "spherical_cavity",
    "TwoLevelAtom",
    "FieldDistribution",
    "JcpParams",
    "ParabolicGeometry",
    "SphericalCavity",
]

__version__ = "0.1.0"
