"""A relative tolerance in the tests means relative.

`pytest.approx(expected, rel=r)` without `abs=` keeps pytest's default
absolute tolerance 1e-12, which swamps r wherever the expected value is
small (a 1e-24 value would pass against 0).  Every `approx` call under
`tests/` that sets `rel=` must therefore also set `abs=`, usually `abs=0.0`.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def _is_approx(func: ast.expr) -> bool:
    return (isinstance(func, ast.Attribute) and func.attr == "approx") or (
        isinstance(func, ast.Name) and func.id == "approx"
    )


def relative_only_calls(paths) -> list[str]:
    """`file:line` of each approx call that passes rel= and no abs=."""
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and _is_approx(node.func):
                keys = {k.arg for k in node.keywords}
                if "rel" in keys and "abs" not in keys:
                    found.append(f"{path.name}:{node.lineno}")
    return sorted(found)


def test_every_relative_tolerance_sets_abs():
    assert relative_only_calls(sorted(TESTS.glob("*.py"))) == []
