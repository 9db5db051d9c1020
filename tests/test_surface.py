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

`KEPT` names the definitions kept without a caller, each with its reason.
A mention inside a kept definition calls nothing, nor does one inside a
definition that only such mentions reach, to a fixed point: a kept name
does not keep its helpers alive, and each is named on its own.

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

# definitions kept without a caller, each for its reason
KEPT = {
    "diff.delta": "the north star names it as the symbolic route's API",
    "targets.save_target": "the target-file writer stays next to KINDS and "
    "load_target, so one module knows the format",
    "reduce_pm.component_degree_bound": "the GF(p^m) reduction attack "
    "(ROADMAP item 15) gives it a caller",
    "poly.MultiPoly.degrees": "component_degree_bound reads a polynomial's "
    "digit-sum degrees from it (ROADMAP item 15)",
    "poly.PolyDegrees": "what MultiPoly.degrees returns (ROADMAP item 15)",
    "combinat.digit_sum": "S_p(e), the digit-sum degree that "
    "MultiPoly.degrees reports per variable (ROADMAP item 15)",
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


def _walk(node: ast.AST, enclosing: tuple = ()):
    """(node, its enclosing definitions) for every node under node."""
    for child in ast.iter_child_nodes(node):
        yield child, enclosing
        inner = enclosing + (child,) if isinstance(child, DEFINITIONS) else enclosing
        yield from _walk(child, inner)


NODES = [pair for _, tree in TREES for pair in _walk(tree)]


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


# rule 1's definitions, then rule 2's, each with its label
NAMES = {
    stmt: f"{path.stem}.{stmt.name}"
    for path, tree in TREES
    if path.parent == PACKAGE
    for stmt in tree.body
    if isinstance(stmt, DEFINITIONS)
}
METHODS = {
    fn: label
    for label, owner, fn in _package_functions()
    if owner is not None
    and not (fn.name.startswith("__") and fn.name.endswith("__"))
}
LABELS = {**NAMES, **METHODS}


def _mentions_by_name() -> dict[str, list[tuple[bool, tuple]]]:
    """Per name, (whether it names a module-level name, enclosing
    definitions) for each mention: a bare name, or an attribute, which
    names a module-level name only on a package module
    (`diff.blackbox_delta`)."""
    out: dict[str, list] = {}
    for node, enclosing in NODES:
        if isinstance(node, ast.Name):
            out.setdefault(node.id, []).append((True, enclosing))
        elif isinstance(node, ast.Attribute):
            module = isinstance(node.value, ast.Name) and node.value.id in MODULES
            out.setdefault(node.attr, []).append((module, enclosing))
    return out


MENTIONS = _mentions_by_name()

# per definition, the enclosing definitions of each mention outside its own
# body that reaches it: rule 1 reads module-level names, rule 2 any mention
REACHED_FROM = {
    definition: [
        enclosing
        for module_level, enclosing in MENTIONS.get(definition.name, [])
        if (module_level or definition in METHODS) and definition not in enclosing
    ]
    for definition in LABELS
}


def _shielded() -> set:
    """The kept definitions, and to a fixed point every definition that
    only mentions inside shielded ones reach."""
    shielded = {definition for definition, label in LABELS.items() if label in KEPT}
    grown = True
    while grown:
        grown = False
        for definition, reached in REACHED_FROM.items():
            if definition not in shielded and reached and all(
                shielded.intersection(enclosing) for enclosing in reached
            ):
                shielded.add(definition)
                grown = True
    return shielded


SHIELDED = _shielded()


def _counts(enclosing: tuple) -> bool:
    """Whether a mention with these enclosing definitions counts as a call."""
    return not SHIELDED.intersection(enclosing)


def _unreached(definitions: dict) -> list[str]:
    return [
        label
        for definition, label in definitions.items()
        if label not in KEPT and not any(map(_counts, REACHED_FROM[definition]))
    ]


def test_every_package_name_has_a_caller_outside_the_tests():
    assert set(KEPT) <= set(LABELS.values())
    uncalled = _unreached(NAMES)
    assert not uncalled, f"only tests call: {', '.join(uncalled)}"


def test_every_method_is_mentioned_outside_its_own_body():
    unmentioned = _unreached(METHODS)
    assert not unmentioned, f"only tests use: {', '.join(unmentioned)}"


def _calls(name: str) -> list[ast.Call]:
    return [
        node
        for node, enclosing in NODES
        if isinstance(node, ast.Call)
        and _counts(enclosing)
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
