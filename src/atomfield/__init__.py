"""Dynamics of a two-level atom coupled to quantized radiation in four mode
geometries: a single cavity mode, free space, a closed metallic sphere and a
half-open parabolic mirror.  Closed-form results are cross-validated
against brute-force solvers, which are test oracles, so the runtime needs
only numpy.  The command line, `atomfield.cli`, is imported on its own."""

from . import free_space, jcp, multimode, numerics, parabolic_mirror, spherical_cavity

__all__ = [
    "free_space",
    "jcp",
    "multimode",
    "numerics",
    "parabolic_mirror",
    "spherical_cavity",
]

__version__ = "0.1.0"
