"""Every public name has a product caller.

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


def _spelled_names() -> set[str]:
    names = set()
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _exports() -> dict[str, list[str]]:
    exports = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exports[path.stem] = ast.literal_eval(node.value)
    return exports


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
