"""Every public name has a product caller, and every public name, default,
record field and class member is pinned.

A name in a module's `__all__` counts as called when the library itself,
the acceptance criteria or the benchmark's output checker use it qualified:
- `module.name`, through any import alias of the module (`pm.`) or
  through the package (`af.parabolic_mirror.`);
- `from .module import name` (or `from atomfield.module import name`);
- a Load-context name inside the module itself.
A record field, an annotation target or an attribute of another object that
only spells the same name does not count.  The package `__init__` is not
scanned for exports: its `__all__` lists the submodules only.

Every public record field (an annotated class field, or a public attribute
a method sets on `self`) is read as an attribute (`x.field`) by one of
those callers, or is listed in `UNREAD` with its reason; so is every public
member of a public class (a property, classmethod, staticmethod or method).

Every module-level private function or class of the package has a reference
in `src/` outside its own definition, or a decorator that registers it, and
so has every module-level private constant, in `src/` or the golden
comparator `tests/golden_check.py`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "atomfield"
PACKAGE_NAME = PACKAGE.name
GOLDEN_CHECK = ROOT / "tests" / "golden_check.py"
CALLERS = [
    *sorted(PACKAGE.glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
    ROOT / "perfbench" / "checks.py",
]

# public names without a product caller yet, each with what gives it one
UNCALLED: set[str] = set()


# public record fields and class members that no caller reads, each with
# why it stays
UNREAD: dict[str, str] = {
    "cli.ResultTable.rows": "the tracer's row count; ROADMAP item 1a deletes it",
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
    "cli.main",
    "free_space.TwoLevelAtom",
    "free_space.FieldMap",
    "free_space.RadiationZoneWarning",
    "free_space.excited_amplitude",
    "free_space.electric_amplitude",
    "free_space.field_energy",
    "free_space.field_map",
    "free_space.wigner_weisskopf_ode",
    "jcp.FieldDistribution",
    "jcp.JcpParams",
    "jcp.rabi_frequency",
    "jcp.inversion",
    "jcp.collapse_revival_times",
    "numerics.QuadratureError",
    "numerics.integrate_1d",
    "numerics.stable_binomial_series",
    "parabolic_mirror.ParabolicGeometry",
    "parabolic_mirror.TwoRayField",
    "parabolic_mirror.ParabolicFieldMap",
    "parabolic_mirror.eta_quadrature",
    "parabolic_mirror.on_axis_eta",
    "parabolic_mirror.angular_cutoff_correction",
    "parabolic_mirror.semiclassical_field",
    "parabolic_mirror.field_map",
    "spherical_cavity.SphericalCavity",
    "spherical_cavity.SmallCavityNotice",
    "spherical_cavity.excited_probability_closed_form",
    "spherical_cavity.evolve_cavity_ode",
}

# every optional parameter of a public function or method and every
# defaulted field of a public class, each with why it stays; a new default,
# or one brought back, needs an edit here and a reason
DEFAULTS: dict[str, str] = {
    "cli.main(argv)": "the `atomfield` console script calls `main()` without arguments",
    "cli.parse_config(overrides)": (
        "only tests and `perfbench/test_perfbench.py` call it without overrides;"
        " ROADMAP item 1a decides its future"
    ),
}

# every annotated field of a public class and every public attribute its
# methods set on `self`: what a caller can read from a record; a new field,
# or one brought back, needs an edit here
FIELDS = {
    "cli.ConfigError.errors",
    "cli.ScenarioConfig.scenario",
    "cli.ScenarioConfig.params",
    "cli.ScenarioConfig.output",
    "cli.ResultTable.columns",
    "cli.ResultTable.data",
    "cli.ResultTable.metadata",
    "free_space.TwoLevelAtom.omega_eg",
    "free_space.TwoLevelAtom.gamma",
    "free_space.FieldMap.points",
    "free_space.FieldMap.amplitude",
    "free_space.FieldMap.energy_density",
    "jcp.FieldDistribution.weights",
    "jcp.FieldDistribution.n_min",
    "jcp.JcpParams.detuning",
    "jcp.JcpParams.field",
    "parabolic_mirror.ParabolicGeometry.focal_length",
    "parabolic_mirror.ParabolicGeometry.wavenumber",
    "parabolic_mirror.TwoRayField.spherical",
    "parabolic_mirror.TwoRayField.plane",
    "parabolic_mirror.TwoRayField.energy_density",
    "parabolic_mirror.ParabolicFieldMap.points",
    "parabolic_mirror.ParabolicFieldMap.spherical",
    "parabolic_mirror.ParabolicFieldMap.plane",
    "parabolic_mirror.ParabolicFieldMap.energy_density",
    "parabolic_mirror.ParabolicFieldMap.flags",
    "spherical_cavity.SphericalCavity.radius",
    "spherical_cavity.SphericalCavity.atom",
}

# every public member of a public class, the names it gives a caller beside
# its fields; a new property, classmethod, staticmethod or method, or one
# brought back, needs an edit here
MEMBERS = {
    "cli.ResultTable.rows",
    "free_space.TwoLevelAtom.from_linewidth",
    "jcp.FieldDistribution.fock",
    "jcp.FieldDistribution.coherent",
    "parabolic_mirror.ParabolicGeometry.kf",
    "parabolic_mirror.ParabolicGeometry.theta0",
    "spherical_cavity.SphericalCavity.mode_spacing",
    "spherical_cavity.SphericalCavity.round_trip_time",
}


def _imported_module(node: ast.ImportFrom, path: Path) -> str | None:
    """The package module a `from ... import` reads: "" for the package
    itself, None for a module outside it."""
    if node.level == 0:
        head, _, module = (node.module or "").partition(".")
        return module if head == PACKAGE_NAME else None
    if node.level == 1 and path.parent == PACKAGE:
        return node.module or ""
    return None


def _qualified_uses(path: Path, modules: set[str]) -> set[str]:
    """`module.name` of every package name the file uses qualified."""
    tree = ast.parse(path.read_text(), str(path))
    own = path.stem if path.parent == PACKAGE else None
    bound: dict[str, str] = {}  # local name -> package module, "" for the package
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head, _, module = alias.name.partition(".")
                if head == PACKAGE_NAME:
                    bound[alias.asname or head] = module if alias.asname else ""
        elif isinstance(node, ast.ImportFrom) and (source := _imported_module(node, path)) is not None:
            for alias in node.names:
                if source:
                    used.add(f"{source}.{alias.name}")
                elif alias.name in modules:
                    bound[alias.asname or alias.name] = alias.name

    def module_of(node: ast.expr) -> str | None:
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if isinstance(node, ast.Attribute) and module_of(node.value) == "" and node.attr in modules:
            return node.attr
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            module = module_of(node.value)
            if module:
                used.add(f"{module}.{node.attr}")
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and own:
            used.add(f"{own}.{node.id}")
    return used


def _modules(package: Path) -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text(), str(path))
        for path in sorted(package.glob("*.py"))
        if path.stem != "__init__"
    }


def _exports(package: Path = PACKAGE) -> dict[str, list[str]]:
    exports = {}
    for module, tree in _modules(package).items():
        for node in tree.body:
            # `__all__ = [...]` or `__all__: list[str] = [...]`
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and "__all__" in _defined(node):
                exports[module] = ast.literal_eval(node.value)
    return exports


def _optional_parameters(name: str, node: ast.FunctionDef) -> set[str]:
    args = node.args
    positional = args.posonlyargs + args.args
    with_default = positional[len(positional) - len(args.defaults) :] + [
        arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None
    ]
    return {f"{name}({arg.arg})" for arg in with_default}


def _public_definitions(package: Path = PACKAGE):
    """(module.name, node) of every top-level definition named in `__all__`."""
    exports = _exports(package)
    for module, tree in _modules(package).items():
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


def _public_fields(package: Path = PACKAGE) -> set[str]:
    """`module.Class.field` of every annotated field of a public class and of
    every public attribute that one of its methods stores on `self`."""
    fields = set()
    for name, node in _public_definitions(package):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.AnnAssign):
                fields.add(f"{name}.{item.target.id}")
            elif isinstance(item, ast.FunctionDef):
                fields |= {
                    f"{name}.{use.attr}"
                    for use in ast.walk(item)
                    if isinstance(use, ast.Attribute) and isinstance(use.ctx, ast.Store)
                    and isinstance(use.value, ast.Name) and use.value.id == "self"
                    and not use.attr.startswith("_")
                }
    return fields


def _public_members() -> set[str]:
    return {
        f"{name}.{item.name}"
        for name, node in _public_definitions()
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
    }


def test_every_public_name_has_a_caller():
    exports = _exports()
    used = set().union(*(_qualified_uses(path, set(exports)) for path in CALLERS))
    uncalled = {
        f"{module}.{name}" for module, names in exports.items() for name in names
    } - used
    # an equality, so an exemption whose name has gained a caller fails too
    assert uncalled == UNCALLED


def test_only_qualified_uses_count(tmp_path):
    caller = tmp_path / "caller.py"
    caller.write_text(
        "import atomfield as af\n"
        "from atomfield import parabolic_mirror as pm\n"
        "from atomfield.numerics import integrate_1d\n"
        "pm.on_axis_eta(g, z)\n"
        "af.free_space.field_map(a, r, th, t)\n"
        "fmap.energy_density, fld.flags, rate_profile\n"
    )
    used = _qualified_uses(caller, set(_exports()))
    assert used == {
        "parabolic_mirror.on_axis_eta",
        "numerics.integrate_1d",
        "free_space.field_map",
    }


def _unread_fields(fields: set[str], paths) -> set[str]:
    """Each `module.Class.field` of `fields` whose field name no file of
    `paths` reads as an attribute (`x.field`, in Load context).  A tripwire:
    it matches names, not types, so a read of any object's attribute of the
    same name counts."""
    read = {
        node.attr
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return {field for field in fields if field.rpartition(".")[2] not in read}


def test_every_public_field_is_read():
    # an equality, so an exemption whose field or member has gained a reader
    # fails too
    assert _unread_fields(FIELDS | MEMBERS, CALLERS) == set(UNREAD)


def test_self_attributes_are_fields(tmp_path):
    (tmp_path / "core.py").write_text(
        "__all__ = ['Failure']\n"
        "class Failure(RuntimeError):\n"
        "    code: int\n"
        "    def __init__(self, message, value):\n"
        "        super().__init__(message)\n"
        "        self.value, self._cause = value, None\n"
        "        self.args[0].x = 1\n"
        "class Hidden:\n"
        "    def __init__(self):\n"
        "        self.y = 1\n"
    )
    caller = tmp_path / "caller.py"
    caller.write_text("print(failure.code, failure.args)\n")
    # a private attribute, another object's attribute and a class outside
    # `__all__` are not public fields
    fields = _public_fields(tmp_path)
    assert fields == {"core.Failure.code", "core.Failure.value"}
    assert _unread_fields(fields, [caller]) == {"core.Failure.value"}


def test_unread_fields_are_found(tmp_path):
    caller = tmp_path / "caller.py"
    caller.write_text(
        "table = Table(columns=['x'], data=())\n"
        "table.metadata = {}\n"
        "print(table.columns, result[0])\n"
    )
    fields = {"cli.Table.columns", "cli.Table.data", "cli.Table.metadata", "numerics.Result.error"}
    # a keyword, a store and an index are not reads of a field
    assert _unread_fields(fields, [caller]) == {
        "cli.Table.data", "cli.Table.metadata", "numerics.Result.error",
    }


def _names_read(node: ast.AST) -> set[str]:
    """Every name `node` reads: a loaded name, an attribute or an import."""
    names = set()
    for use in ast.walk(node):
        if isinstance(use, ast.Name) and isinstance(use.ctx, ast.Load):
            names.add(use.id)
        elif isinstance(use, ast.Attribute) and isinstance(use.ctx, ast.Load):
            names.add(use.attr)
        elif isinstance(use, ast.alias):
            names.add(use.name)
    return names


def _defined(node: ast.stmt) -> list[str]:
    """The names a top-level statement defines: an undecorated function or
    class, or every name an assignment or annotated assignment binds (each
    of `_A, _B = ...`)."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [] if node.decorator_list else [node.name]
    if not isinstance(node, (ast.Assign, ast.AnnAssign)):
        return []
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [
        use.id
        for target in targets
        for use in ast.walk(target)
        if isinstance(use, ast.Name) and isinstance(use.ctx, ast.Store)
    ]


def _unreferenced_private(paths) -> set[str]:
    """`module.name` of every undecorated module-level private function or
    class, and every module-level private constant (not a dunder), in
    `paths` that no top-level statement of `paths` but its own definition
    reads."""
    statements = [
        (path.stem, node) for path in paths for node in ast.parse(path.read_text(), str(path)).body
    ]
    reads = [(node, _names_read(node)) for _, node in statements]
    return {
        f"{module}.{name}"
        for module, node in statements
        for name in _defined(node)
        # a dunder such as `__all__` is read by Python, not by a statement
        if name.startswith("_") and not name.startswith("__")
        and not any(name in names for other, names in reads if other is not node)
    }


def test_every_private_definition_is_referenced():
    # the golden comparator is the only reader of the spectral solver's stated
    # bound, `multimode._SPECTRAL_ERROR`
    assert _unreferenced_private([*sorted(PACKAGE.glob("*.py")), GOLDEN_CHECK]) == set()


def test_unreferenced_private_definitions_are_found(tmp_path):
    (tmp_path / "core.py").write_text(
        "from functools import cache\n"
        "def _step(t):\n"
        "    return _step(t - 1) if t else 0\n"
        "def _used(): pass\n"
        "def _imported(): pass\n"
        "def _by_attribute(): pass\n"
        "@cache\n"
        "def _registered(): pass\n"
        "class _Unused: pass\n"
        "def public(): return _used()\n"
        "_LIMIT: int = 3\n"
        "_UNREAD, __version__ = 4, '0.1'\n"
    )
    (tmp_path / "other.py").write_text(
        "from .core import _imported\n"
        "from . import core\n"
        "core._by_attribute(core._LIMIT)\n"
        "_Unused = 'a string, not the class'\n"
    )
    assert _unreferenced_private(sorted(tmp_path.glob("*.py"))) == {
        "core._step", "core._Unused", "core._UNREAD", "other._Unused",
    }


def test_annotated_all_is_read(tmp_path):
    (tmp_path / "core.py").write_text("__all__: list[str] = ['solve']\ndef solve(): pass\n")
    (tmp_path / "other.py").write_text("__all__ = ['Record']\nclass Record: pass\n")
    assert _exports(tmp_path) == {"core": ["solve"], "other": ["Record"]}


def test_exports_are_pinned():
    # an equality, so a removed export fails too until EXPORTS drops it
    assert {f"{module}.{name}" for module, names in _exports().items() for name in names} == EXPORTS


def test_public_defaults_are_pinned():
    # an equality, so a removed default fails too until DEFAULTS drops it
    assert _public_defaults() == DEFAULTS.keys()


def test_public_fields_are_pinned():
    # an equality, so a removed field fails too until FIELDS drops it
    assert _public_fields() == FIELDS


def test_public_members_are_pinned():
    # an equality, so a removed member fails too until MEMBERS drops it
    assert _public_members() == MEMBERS
