"""Every public function and class of the package has a caller that is not
a unit test: the program itself, or the acceptance gate."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cherrymax"
GATE = ROOT / "tests" / "test_acceptance.py"


def _names(node) -> set[str]:
    """Identifiers used as Name or Attribute nodes under node; docstring
    text is a string constant, so it does not count."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
    return found


def _called(node) -> set[str]:
    return {
        call.func.id if isinstance(call.func, ast.Name) else call.func.attr
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and isinstance(call.func, (ast.Name, ast.Attribute))
    }


def test_public_names_have_callers_outside_unit_tests():
    definitions = []  # (module, name, the top-level statement defining it)
    statements = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            statements.append(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not stmt.name.startswith("_"):
                    definitions.append((path.stem, stmt.name, stmt))
    uses = [(stmt, _names(stmt)) for stmt in statements]
    gate_calls = _called(ast.parse(GATE.read_text(encoding="utf-8")))

    unused = [
        f"{module}.{name}"
        for module, name, own in definitions
        if name not in gate_calls
        and not any(name in names for stmt, names in uses if stmt is not own)
    ]
    assert definitions
    assert not unused, unused
