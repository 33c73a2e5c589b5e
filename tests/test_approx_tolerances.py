"""A relative tolerance means relative.

`pytest.approx(expected, rel=r)` without `abs=` keeps pytest's default
absolute tolerance 1e-12, which swamps r wherever the expected value is
small (a 1e-24 value would pass against 0).  numpy's `isclose` and
`allclose` keep a default `atol=1e-8` in the same way; that of
`testing.assert_allclose` is 0, but the three calls read alike.  So every
`approx` call under `tests/` that sets `rel=` must also set `abs=`, and
every one of those numpy calls under `src/` and `tests/` that sets `rtol=`
must also set `atol=`, usually to 0.0.

One exact reference per closed form: `exact.py` is the only module under
`tests/` that imports mpmath, so a second high-precision copy of a
reference cannot grow in a test module.

One launcher: `test_cli._fresh` is the only call into `subprocess` under
`tests/`, so every child interpreter gets the same environment recipe and
timeout.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# call name -> (relative keyword, the absolute keyword it needs beside it)
_PAIRS = {
    "approx": ("rel", "abs"),
    "isclose": ("rtol", "atol"),
    "allclose": ("rtol", "atol"),
    "assert_allclose": ("rtol", "atol"),
}


def _name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else None


def relative_only_calls(paths) -> list[str]:
    """`file:line` of each call that passes a relative tolerance and no
    absolute one."""
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and _name(node.func) in _PAIRS:
                rel, abs_ = _PAIRS[_name(node.func)]
                keys = {k.arg for k in node.keywords}
                if rel in keys and abs_ not in keys:
                    found.append(f"{path.name}:{node.lineno}")
    return sorted(found)


def test_every_relative_tolerance_sets_abs():
    paths = sorted(TESTS.glob("*.py")) + sorted(SRC.rglob("*.py"))
    assert relative_only_calls(paths) == []


def test_relative_only_calls_are_found(tmp_path):
    # math.isclose's abs_tol defaults to 0, so its rel_tol alone is relative
    path = tmp_path / "calls.py"
    path.write_text(
        "np.isclose(k, w, rtol=1e-9)\n"
        "np.isclose(k, w, rtol=1e-9, atol=0.0)\n"
        "np.testing.assert_allclose(a, b, rtol=1e-12)\n"
        "allclose(a, b, rtol=1e-12, atol=0.0)\n"
        "pytest.approx(x, rel=1e-12)\n"
        "approx(x, rel=1e-12, abs=0.0)\n"
        "math.isclose(a, b, rel_tol=1e-9)\n"
    )
    assert relative_only_calls([path]) == ["calls.py:1", "calls.py:3", "calls.py:5"]


def mpmath_imports(paths) -> list[str]:
    """`file:line` of each import of mpmath, by an import statement or by
    `pytest.importorskip`."""
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Call) and _name(node.func) == "importorskip":
                names = [arg.value for arg in node.args[:1] if isinstance(arg, ast.Constant)]
            else:
                continue
            if any(str(name).split(".")[0] == "mpmath" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    return sorted(found)


def test_only_exact_imports_mpmath():
    found = mpmath_imports(sorted(TESTS.glob("*.py")))
    assert found and all(line.startswith("exact.py:") for line in found), found


def test_mpmath_imports_are_found(tmp_path):
    path = tmp_path / "imports.py"
    path.write_text(
        "import mpmath\n"
        "import mpmath as mp, numpy\n"
        "from mpmath import mpf\n"
        "from mpmath.libmp import mpf_add\n"
        "mp = pytest.importorskip('mpmath')\n"
        "import numpy\n"
        "from scipy import special\n"
        "pytest.importorskip('scipy')\n"
    )
    assert mpmath_imports([path]) == [f"imports.py:{line}" for line in (1, 2, 3, 4, 5)]


def subprocess_calls(paths) -> list[str]:
    """`file:function` of each call into `subprocess`, through the module
    under any alias or a name imported from it (`<module>` at top level)."""
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        modules, names = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules |= {a.asname or a.name for a in node.names if a.name == "subprocess"}
            elif isinstance(node, ast.ImportFrom) and node.module == "subprocess":
                names |= {a.asname or a.name for a in node.names}

        def visit(node, where):
            for child in ast.iter_child_nodes(node):
                func = child.func if isinstance(child, ast.Call) else None
                if (isinstance(func, ast.Name) and func.id in names) or (
                    isinstance(func, ast.Attribute) and getattr(func.value, "id", None) in modules
                ):
                    found.append(f"{path.name}:{where}")
                named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                visit(child, child.name if named else where)

        visit(tree, "<module>")
    return sorted(found)


def test_only_fresh_starts_a_child_process():
    assert subprocess_calls(sorted(TESTS.glob("*.py"))) == ["test_cli.py:_fresh"]


def test_subprocess_calls_are_found(tmp_path):
    path = tmp_path / "calls.py"
    path.write_text(
        "import os, subprocess\n"
        "import subprocess as sp\n"
        "from subprocess import PIPE, check_output as co\n"
        "def _fresh():\n"
        "    return subprocess.check_call(['x'], stdout=PIPE)\n"
        "def helper() -> subprocess.CompletedProcess:\n"
        "    sp.Popen(['y'])\n"
        "    def inner():\n"
        "        return co(['z'])\n"
        "os.system('w')\n"
        "subprocess.call(['v'])\n"
    )
    assert subprocess_calls([path]) == [
        "calls.py:<module>", "calls.py:_fresh", "calls.py:helper", "calls.py:inner"
    ]
