"""The package's surface: every module-level function and class in
`src/gfdelta` has a caller on a program path, so code that only tests call
lives under `tests/` (`oracles.py`), not in the shipped package.

A name counts as called when some other top-level statement of a module in
`src/gfdelta` or `perfbench/` mentions it, as a name or as an attribute.
Import lines do not count: a re-export is not a caller. `perfbench/` only
calls; its own definitions are not checked.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gfdelta"
CALLERS = [PACKAGE, ROOT / "perfbench"]

# names kept without a caller, each for its reason
KEPT = {
    "delta": "the north star names it as the symbolic route's API",
    "save_target": "the target-file writer stays next to KINDS and "
    "load_target, so one module knows the format",
    "component_degree_bound": "the GF(p^m) reduction attack (ROADMAP "
    "item 15) gives it a caller",
}

DEFINITIONS = (ast.FunctionDef, ast.ClassDef)


def _mentions(node: ast.AST) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _statements():
    for folder in CALLERS:
        for path in sorted(folder.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for stmt in tree.body:
                if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                    yield path, stmt


def test_every_package_name_has_a_caller_outside_the_tests():
    statements = [(path, stmt, _mentions(stmt)) for path, stmt in _statements()]
    defined = {}
    for path, stmt, _ in statements:
        if path.parent == PACKAGE and isinstance(stmt, DEFINITIONS):
            defined[stmt] = f"{path.stem}.{stmt.name}"
    assert set(KEPT) <= {stmt.name for stmt in defined}
    uncalled = [
        label
        for stmt, label in defined.items()
        if stmt.name not in KEPT
        and not any(
            stmt.name in mentions
            for _, other, mentions in statements
            if other is not stmt
        )
    ]
    assert not uncalled, f"only tests call: {', '.join(uncalled)}"
