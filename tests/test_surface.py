"""The package's surface: everything in `src/gfdelta` has a use on a program
path, `src/gfdelta` itself or `perfbench/`, so code that only tests use
lives under `tests/` (`oracles.py`), not in the shipped package. Three rules,
one test each:

1. Every module-level function and class is called: some other top-level
   statement mentions it as a bare name, or as an attribute of a package
   module (`diff.blackbox_delta`). An attribute of any other object, such as
   `evaluate.grid_size`, names something else. Import lines do not count: a
   re-export is not a caller.
2. Every method other than a dunder is mentioned, as a name or an
   attribute, somewhere outside its own body.
3. Every defaulted parameter is set by some call to its function's name, by
   keyword, by position or by `*`/`**` unpacking; a call to a class counts
   for its `__init__`. An option that no program sets doubles the
   configurations to cover for a value nothing uses.

`perfbench/` only uses; its own definitions are not checked. A fourth test
keeps `tests/oracles.py` from going dead in turn: a test uses every
module-level name it defines.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gfdelta"
CALLERS = [PACKAGE, ROOT / "perfbench"]
TESTS = ROOT / "tests"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}

# module-level names kept without a caller, each for its reason
KEPT = {
    "delta": "the north star names it as the symbolic route's API",
    "save_target": "the target-file writer stays next to KINDS and "
    "load_target, so one module knows the format",
    "component_degree_bound": "the GF(p^m) reduction attack (ROADMAP "
    "item 15) gives it a caller",
}

# defaulted parameters kept with no call that sets them by name, each for
# its reason
KEPT_PARAMETERS = {
    "cli.main(argv)": "the console script calls main() so that argparse "
    "reads sys.argv; argv runs the CLI in-process",
    "field.FieldError(position)": "`_integer` raises it as its `error`, "
    "with the position of the number",
    "poly.parse_poly(n)": "perfbench calls it through its traced alias "
    "`parse`, with n=EXT_VARS",
    "reduce_pm.ProjectionContext.for_spec(basis)": "the paper's reduction "
    "holds for any basis, not only the polynomial basis",
}

DEFINITIONS = (ast.FunctionDef, ast.ClassDef)
IMPORTS = (ast.Import, ast.ImportFrom)


def _trees(folders):
    for folder in folders:
        for path in sorted(folder.glob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


TREES = list(_trees(CALLERS))


def _called_names(node: ast.AST) -> set[str]:
    """The module-level names a statement calls: bare names, and attributes
    of a package module."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif (
            isinstance(sub, ast.Attribute)
            and isinstance(sub.value, ast.Name)
            and sub.value.id in MODULES
        ):
            out.add(sub.attr)
    return out


def _mentions(node: ast.AST) -> list[str]:
    """Every name and attribute under node, once per occurrence."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
    return out


def _functions(node: ast.AST, owner: ast.ClassDef | None, prefix: str):
    """(label, class or None, function) for every function under node, at
    any depth; a method's class is its owner and its label class.method."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _functions(child, child, f"{prefix}{child.name}.")
        elif isinstance(child, ast.FunctionDef):
            yield f"{prefix}{child.name}", owner, child
            yield from _functions(child, None, f"{prefix}{child.name}.")
        else:
            yield from _functions(child, owner, prefix)


def _package_functions():
    for path, tree in TREES:
        if path.parent == PACKAGE:
            yield from _functions(tree, None, f"{path.stem}.")


def test_every_package_name_has_a_caller_outside_the_tests():
    statements = [
        (path, stmt, _called_names(stmt))
        for path, tree in TREES
        for stmt in tree.body
        if not isinstance(stmt, IMPORTS)
    ]
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
            stmt.name in called
            for _, other, called in statements
            if other is not stmt
        )
    ]
    assert not uncalled, f"only tests call: {', '.join(uncalled)}"


def test_every_method_is_mentioned_outside_its_own_body():
    everywhere: dict[str, int] = {}
    for _, tree in TREES:
        for name in _mentions(tree):
            everywhere[name] = everywhere.get(name, 0) + 1
    unmentioned = [
        label
        for label, owner, fn in _package_functions()
        if owner is not None
        and not (fn.name.startswith("__") and fn.name.endswith("__"))
        and everywhere.get(fn.name, 0) == _mentions(fn).count(fn.name)
    ]
    assert not unmentioned, f"only tests use: {', '.join(unmentioned)}"


def _calls(name: str) -> list[ast.Call]:
    return [
        node
        for _, tree in TREES
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            isinstance(node.func, ast.Name)
            and node.func.id == name
            or isinstance(node.func, ast.Attribute)
            and node.func.attr == name
        )
    ]


def _sets(call: ast.Call, index: int | None, name: str) -> bool:
    """Whether the call sets the parameter `name`, the index-th positional
    one after any self or cls (None if keyword-only)."""
    for position, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            if index is not None and position <= index:
                return True
        elif position == index:
            return True
    return any(kw.arg in (None, name) for kw in call.keywords)


def test_every_defaulted_parameter_is_set_by_a_caller():
    defaulted = set()
    unset = []
    for label, owner, fn in _package_functions():
        args = fn.args
        positional = args.posonlyargs + args.args
        is_static = any(
            isinstance(d, ast.Name) and d.id == "staticmethod"
            for d in fn.decorator_list
        )
        if owner is not None and not is_static:
            positional = positional[1:]
        params = [
            (index, arg.arg)
            for index, arg in enumerate(positional)
            if index >= len(positional) - len(args.defaults)
        ]
        params += [
            (None, arg.arg)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None
        ]
        if not params:
            continue
        if fn.name == "__init__" and owner is not None:
            label = label.rsplit(".", 1)[0]
            calls = _calls(owner.name)
        else:
            calls = _calls(fn.name)
        for index, name in params:
            entry = f"{label}({name})"
            defaulted.add(entry)
            if entry not in KEPT_PARAMETERS and not any(
                _sets(call, index, name) for call in calls
            ):
                unset.append(entry)
    assert set(KEPT_PARAMETERS) <= defaulted
    assert not unset, f"only tests set: {', '.join(unset)}"


def test_every_oracle_is_used_by_a_test():
    """A test module mentions each module-level name of `tests/oracles.py`
    as a name, an attribute or a monkeypatch target ("oracles._name");
    import lines do not count."""
    oracles = ast.parse((TESTS / "oracles.py").read_text())
    names = [
        target.id if isinstance(target, ast.Name) else target.name
        for stmt in oracles.body
        for target in (
            stmt.targets if isinstance(stmt, ast.Assign) else [stmt]
        )
        if isinstance(target, (ast.Name, *DEFINITIONS))
    ]
    used = set()
    for path in sorted(TESTS.glob("test_*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, IMPORTS):
                continue
            used.update(_mentions(stmt))
            used.update(
                node.value.removeprefix("oracles.")
                for node in ast.walk(stmt)
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value.startswith("oracles.")
            )
    unused = [name for name in names if name not in used]
    assert not unused, f"no test uses: {', '.join(unused)}"
