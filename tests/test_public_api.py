"""Every public name has a product caller, and every public name, default
and record field is pinned.

A name in a module's `__all__` counts as called when some `ast.Name` or
`ast.Attribute` in the library itself, in the acceptance criteria or in the
benchmark's output checker spells it.  The match is by name only, so a
field or local of the same name would count as well.  The package `__init__`
is not scanned for exports: its `__all__` lists the submodules and re-exports
names checked in their own modules.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "atomfield"
CALLERS = [
    *sorted(PACKAGE.glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
    ROOT / "perfbench" / "checks.py",
]

# public names without a product caller yet, each with what gives it one
UNCALLED = {
    # ROADMAP item 1: the benchmark tracer wraps `multimode.solve_ivp` by name,
    # so the DOP853 cross-check cannot move into tests/ before it changes
    "multimode.integrate_atom_modes",
}


# every name in a module's `__all__`; a new public name, or one dropped,
# needs an edit here
EXPORTS = {
    "cli.ScenarioConfig",
    "cli.ResultTable",
    "cli.ConfigError",
    "cli.SCENARIOS",
    "cli.parse_config",
    "cli.run_scenario",
    "cli.write_table",
    "cli.build_parser",
    "cli.main",
    "free_space.TwoLevelAtom",
    "free_space.FieldMap",
    "free_space.FieldEnergy",
    "free_space.RadiationZoneWarning",
    "free_space.excited_amplitude",
    "free_space.energy_density",
    "free_space.electric_amplitude",
    "free_space.field_energy",
    "free_space.field_map",
    "free_space.wigner_weisskopf_ode",
    "jcp.FieldDistribution",
    "jcp.JcpParams",
    "jcp.InversionTrace",
    "jcp.JcpTrace",
    "jcp.rabi_frequency",
    "jcp.inversion",
    "jcp.evolve_ode",
    "jcp.collapse_revival_times",
    "multimode.AmplitudeTrace",
    "multimode.integrate_atom_modes",
    "numerics.QuadratureSpec",
    "numerics.QuadResult",
    "numerics.QuadratureError",
    "numerics.integrate_1d",
    "numerics.integrate_2d",
    "numerics.stable_binomial_series",
    "parabolic_mirror.ParabolicGeometry",
    "parabolic_mirror.RateProfile",
    "parabolic_mirror.TwoRayField",
    "parabolic_mirror.ParabolicFieldMap",
    "parabolic_mirror.eta_quadrature",
    "parabolic_mirror.on_axis_eta",
    "parabolic_mirror.rate_profile",
    "parabolic_mirror.angular_cutoff_correction",
    "parabolic_mirror.semiclassical_field",
    "parabolic_mirror.field_map",
    "spherical_cavity.SphericalCavity",
    "spherical_cavity.SmallCavityNotice",
    "spherical_cavity.excited_probability_closed_form",
    "spherical_cavity.evolve_cavity_ode",
}

# every optional parameter of a public function or method and every
# defaulted field of a public class; a new default, or one brought back,
# needs an edit here
DEFAULTS = {
    "cli.main(argv)",
    "cli.parse_config(overrides)",
    "free_space.field_energy(part)",
    "jcp.JcpParams.detuning",
    "jcp.JcpParams.field",
    "numerics.QuadratureSpec.max_subdivisions",
    "parabolic_mirror.eta_quadrature(spec)",
}

# every annotated field of a public class: what a caller can set on a record;
# a new field, or one brought back, needs an edit here
FIELDS = {
    "cli.ScenarioConfig.scenario",
    "cli.ScenarioConfig.params",
    "cli.ScenarioConfig.output",
    "cli.ResultTable.columns",
    "cli.ResultTable.data",
    "cli.ResultTable.metadata",
    "free_space.TwoLevelAtom.omega_eg",
    "free_space.TwoLevelAtom.gamma",
    "free_space.FieldEnergy.value",
    "free_space.FieldEnergy.inner_correction",
    "free_space.FieldEnergy.quadrature_error",
    "free_space.FieldMap.points",
    "free_space.FieldMap.amplitude",
    "free_space.FieldMap.energy_density",
    "jcp.FieldDistribution.weights",
    "jcp.FieldDistribution.n_min",
    "jcp.JcpParams.detuning",
    "jcp.JcpParams.field",
    "jcp.InversionTrace.w",
    "jcp.JcpTrace.a_e",
    "jcp.JcpTrace.a_g",
    "multimode.AmplitudeTrace.excited_amplitude",
    "multimode.AmplitudeTrace.norm",
    "numerics.QuadratureSpec.rel_tol",
    "numerics.QuadratureSpec.abs_tol",
    "numerics.QuadratureSpec.max_subdivisions",
    "numerics.QuadResult.value",
    "numerics.QuadResult.error",
    "parabolic_mirror.ParabolicGeometry.focal_length",
    "parabolic_mirror.ParabolicGeometry.wavenumber",
    "parabolic_mirror.RateProfile.positions",
    "parabolic_mirror.RateProfile.eta",
    "parabolic_mirror.TwoRayField.spherical",
    "parabolic_mirror.TwoRayField.plane",
    "parabolic_mirror.TwoRayField.energy_density",
    "parabolic_mirror.TwoRayField.near_boundary",
    "parabolic_mirror.ParabolicFieldMap.points",
    "parabolic_mirror.ParabolicFieldMap.spherical",
    "parabolic_mirror.ParabolicFieldMap.plane",
    "parabolic_mirror.ParabolicFieldMap.energy_density",
    "parabolic_mirror.ParabolicFieldMap.flags",
    "spherical_cavity.SphericalCavity.radius",
    "spherical_cavity.SphericalCavity.atom",
}


def _spelled_names() -> set[str]:
    names = set()
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _modules() -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text(), str(path))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
    }


def _exports() -> dict[str, list[str]]:
    exports = {}
    for module, tree in _modules().items():
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exports[module] = ast.literal_eval(node.value)
    return exports


def _optional_parameters(name: str, node: ast.FunctionDef) -> set[str]:
    args = node.args
    positional = args.posonlyargs + args.args
    with_default = positional[len(positional) - len(args.defaults) :] + [
        arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None
    ]
    return {f"{name}({arg.arg})" for arg in with_default}


def _public_definitions():
    """(module.name, node) of every top-level definition named in `__all__`."""
    exports = _exports()
    for module, tree in _modules().items():
        for node in tree.body:
            if getattr(node, "name", None) in exports.get(module, ()):
                yield f"{module}.{node.name}", node


def _public_defaults() -> set[str]:
    found = set()
    for name, node in _public_definitions():
        if isinstance(node, ast.FunctionDef):
            found |= _optional_parameters(name, node)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and item.value is not None:
                    found.add(f"{name}.{item.target.id}")
                elif isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    found |= _optional_parameters(f"{name}.{item.name}", item)
    return found


def _public_fields() -> set[str]:
    return {
        f"{name}.{item.target.id}"
        for name, node in _public_definitions()
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.AnnAssign)
    }


def test_every_public_name_has_a_caller():
    spelled = _spelled_names()
    uncalled = {
        f"{module}.{name}"
        for module, names in _exports().items()
        for name in names
        if name not in spelled
    }
    # an equality, so an exemption whose name has gained a caller fails too
    assert uncalled == UNCALLED


def test_exports_are_pinned():
    # an equality, so a removed export fails too until EXPORTS drops it
    assert {f"{module}.{name}" for module, names in _exports().items() for name in names} == EXPORTS


def test_public_defaults_are_pinned():
    # an equality, so a removed default fails too until DEFAULTS drops it
    assert _public_defaults() == DEFAULTS


def test_public_fields_are_pinned():
    # an equality, so a removed field fails too until FIELDS drops it
    assert _public_fields() == FIELDS
