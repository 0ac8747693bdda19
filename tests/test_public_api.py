"""The package ships the checker and nothing else.

A ratchet on the public surface, by a coarse name-reachability pass
over the package's source (``ast``, no import of the code under test
beyond listing ``dir(stonekit)``). A definition is a module-level
function, class or assigned name; it is reached when its name occurs,
as a name or an attribute, in the body of a reached definition or in a
statement that runs at import (a module's ``if __name__`` block, an
attribute assignment such as ``main.commands = ...``). Every
definition with that name, in any module, counts as reached, so the
pass errs towards keeping code.

1. Every public name of ``stonekit`` is reached from ``cli.main`` or
   ``conformance.sweep_theorem``, or is used by the benchmark harness
   (``sk.X`` in ``perfbench/``, ``lattice.max_lattice_size``, and
   every name of the ``_accel`` seam, which its tracer patches by
   name), or is named in README.md outside its list of removed names.
2. Every module-level definition of the package is reached from those
   roots or from a public name.
3. ``raise AssertionError`` appears once in each of the seven lookup
   guards of ``LOOKUP_GUARDS``, the last of them ``quasiorbit._rho``,
   and nowhere else. Each guards a lookup that would otherwise crash,
   so that the sweep engine can minimize the instance as a violation.
   A value computed a second way and compared with the first belongs
   in the tests, as an oracle, not in the package.

The definitional oracles the tests compare against live in
``tests/oracles.py``, not in the package.
"""

import ast
import re
from pathlib import Path

import stonekit

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stonekit"
REMOVED_HEADING = "### Removed from the public surface"


def _trees():
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def _used_names(node) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _definitions(trees):
    """(module, name) -> the statement that defines it, plus the
    statements that run at import and define nothing."""
    defs, at_import = {}, []
    for module, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs[(module, stmt.name)] = stmt
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                # a dunder such as __version__ is metadata, not code
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                named = [t.id for t in targets if isinstance(t, ast.Name) and not t.id.startswith("__")]
                for name in named:
                    defs[(module, name)] = stmt
                if not named:
                    at_import.append(stmt)
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                at_import.append(stmt)
    return defs, at_import


def _reach(defs, names: set[str]) -> set[tuple[str, str]]:
    by_name = {}
    for key in defs:
        by_name.setdefault(key[1], []).append(key)
    reached, todo = set(), list(names)
    while todo:
        for key in by_name.get(todo.pop(), ()):
            if key not in reached:
                reached.add(key)
                todo.extend(_used_names(defs[key]))
    return reached


def _import_roots(at_import) -> set[str]:
    names = set()
    for stmt in at_import:
        names |= _used_names(stmt)
    return names


def _perfbench_names(trees) -> set[str]:
    """Names of the package the benchmark harness uses: the names it
    imports, its attributes of ``sk``/``stonekit`` and of the package
    modules it imports, and every name of a module it reads with a
    computed ``getattr`` (the tracer patches the ``_accel`` seam by
    name)."""
    modules, names, computed = set(), set(), set()
    sources = [ast.parse(p.read_text(), str(p)) for p in sorted((ROOT / "perfbench").glob("*.py"))]
    for tree in sources:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("stonekit"):
                for alias in node.names:
                    (modules if alias.name in trees else names).add(alias.name)
    for tree in sources:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in {"sk", "stonekit"} | modules:
                    names.add(node.attr)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "getattr"
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id in modules
                and not isinstance(node.args[1], ast.Constant)
            ):
                computed.add(node.args[0].id)
    for module in computed:
        for stmt in trees[module].body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names.add(stmt.name)
            elif isinstance(stmt, ast.ImportFrom):
                names.update(alias.asname or alias.name for alias in stmt.names)
    return names


def _readme_names() -> set[str]:
    text = (ROOT / "README.md").read_text()
    if REMOVED_HEADING in text:
        head, tail = text.split(REMOVED_HEADING, 1)
        rest = re.search(r"^#", tail, re.M)
        text = head + (tail[rest.start():] if rest else "")
    return set(re.findall(r"\w+", text))


def _public_names() -> set[str]:
    return {
        name
        for name in dir(stonekit)
        if not name.startswith("_") and type(getattr(stonekit, name)) is not type(stonekit)
    }


def test_every_public_name_is_reached_used_or_documented():
    trees = _trees()
    defs, at_import = _definitions(trees)
    reached = {name for _, name in _reach(defs, {"main", "sweep_theorem"} | _import_roots(at_import))}
    allowed = reached | _perfbench_names(trees) | _readme_names()
    unreached = sorted(_public_names() - allowed)
    assert unreached == [], (
        f"{unreached}: public, yet neither the CLI nor the sweeps reach them, "
        "the benchmark does not use them and README.md does not name them; "
        "move an oracle to tests/oracles.py, delete the rest"
    )


def test_every_definition_is_reached_from_a_root_or_a_public_name():
    trees = _trees()
    defs, at_import = _definitions(trees)
    roots = {"main", "sweep_theorem"} | _import_roots(at_import) | _perfbench_names(trees) | _public_names()
    unreached = sorted(f"{module}.{name}" for module, name in set(defs) - _reach(defs, roots))
    assert unreached == []



LOOKUP_GUARDS = (
    "lattice.FiniteLattice.frame_witness",  # the witness of a non-frame
    "spectrum.PointMap.__post_init__",  # the open whose preimage is not open
    "spectrum.adjunct_point_map",  # the prime of an adjunct value
    "quasiorbit.InclusionData._pi",  # the restricted element of a join below a prime
    "quasiorbit.induced_prime_map",  # the prime of an induced image
    "quasiorbit.quasi_orbit_map",  # the pi value of r(q) under JR, C1 and MI
    "quasiorbit._rho",  # the class whose key rho(y) names, on points
)


def _functions(node, prefix):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _functions(child, f"{prefix}{child.name}.")
        elif isinstance(child, ast.FunctionDef):
            yield f"{prefix}{child.name}", child


def _raises_assertion_error(node) -> bool:
    exc = node.exc if isinstance(node, ast.Raise) else None
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_assertion_errors_are_raised_only_by_the_lookup_guards():
    trees = _trees()
    sites = {}
    for module, tree in trees.items():
        for name, fn in _functions(tree, f"{module}."):
            count = sum(_raises_assertion_error(node) for node in ast.walk(fn))
            if count:
                sites[name] = count
    everywhere = sum(_raises_assertion_error(node) for tree in trees.values() for node in ast.walk(tree))
    assert sites == dict.fromkeys(LOOKUP_GUARDS, 1)
    assert everywhere == len(LOOKUP_GUARDS)
