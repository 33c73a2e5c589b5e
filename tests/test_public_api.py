"""Every public name has a product caller, and every public default is pinned.

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


# every optional parameter of a public function or method and every
# defaulted field of a public class; a new default, or one brought back,
# needs an edit here
DEFAULTS = {
    "cli.main(argv)",
    "cli.parse_config(overrides)",
    "free_space.field_energy(part)",
    "jcp.JcpParams.coupling",
    "jcp.JcpParams.detuning",
    "jcp.JcpParams.field",
    "numerics.QuadratureSpec.max_subdivisions",
    "parabolic_mirror.eta_quadrature(spec)",
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


def _public_defaults() -> set[str]:
    exports = _exports()
    found = set()
    for module, tree in _modules().items():
        for node in tree.body:
            if getattr(node, "name", None) not in exports.get(module, ()):
                continue
            name = f"{module}.{node.name}"
            if isinstance(node, ast.FunctionDef):
                found |= _optional_parameters(name, node)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and item.value is not None:
                        found.add(f"{name}.{item.target.id}")
                    elif isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        found |= _optional_parameters(f"{name}.{item.name}", item)
    return found


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


def test_public_defaults_are_pinned():
    # an equality, so a removed default fails too until DEFAULTS drops it
    assert _public_defaults() == DEFAULTS
