"""A relative tolerance means relative.

`pytest.approx(expected, rel=r)` without `abs=` keeps pytest's default
absolute tolerance 1e-12, which swamps r wherever the expected value is
small (a 1e-24 value would pass against 0).  numpy's `isclose` and
`allclose` keep a default `atol=1e-8` in the same way; that of
`testing.assert_allclose` is 0, but the three calls read alike.  So every
`approx` call under `tests/` that sets `rel=` must also set `abs=`, and
every one of those numpy calls under `src/` and `tests/` that sets `rtol=`
must also set `atol=`, usually to 0.0.
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
