"""Static checks on the package sources."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "topoconn"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _used_names(tree: ast.AST) -> set[str]:
    """The names the module reads; a name read only inside a quoted
    annotation does not count."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _imported_names(tree: ast.Module) -> list[tuple[str, int]]:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out.append((alias.asname or alias.name.split(".")[0], node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out.append((alias.asname or alias.name, node.lineno))
    return out


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = [
        f"{name} (line {line})" for name, line in _imported_names(tree) if name not in used
    ]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


# functions of ``constructions.py`` that compute on scene coordinates:
# the separator builder and its distance helpers
EXACT_CONSTRUCTIONS = ("_pt_seg_d2", "_seg_seg_d2", "_sqrt_lower_bound", "k5m_separator")


def _true_divisions(node: ast.AST) -> list[str]:
    return [
        f"'/' (line {n.lineno})"
        for n in ast.walk(node)
        if isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.Div)
    ]


def test_plane_kernel_has_no_floats():
    """The plane kernel is exact: no true division, no float conversion
    or rounding, and no float literal anywhere in ``plane.py``.  Integral
    scene coordinates are plain ints, on which ``/`` gives a float, so
    the functions of ``constructions.py`` that compute on them write
    every quotient as ``Fraction(num, den)``; ``//`` stays allowed."""
    tree = ast.parse((SRC / "plane.py").read_text(encoding="utf-8"))
    found = _true_divisions(tree)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("float", "round")
        ):
            found.append(f"{node.func.id}(...) (line {node.lineno})")
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"{node.value!r} (line {node.lineno})")
    assert not found, f"plane.py leaves exact arithmetic: {', '.join(found)}"
    tree = ast.parse((SRC / "constructions.py").read_text(encoding="utf-8"))
    functions = {
        node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    assert set(EXACT_CONSTRUCTIONS) <= set(functions)
    found = [d for name in EXACT_CONSTRUCTIONS for d in _true_divisions(functions[name])]
    assert not found, f"constructions.py divides coordinates with '/': {', '.join(found)}"


def _uses_outside(module: str, name: str, allowed: set[str]) -> list[str]:
    """The places in ``module`` that use ``name`` outside the functions
    named in ``allowed`` (given as ``Class.method`` or ``function``)."""
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Name) and child.id == name and scope not in allowed:
                found.append(f"{scope or '<module>'} (line {child.lineno})")
            visit(child, scope)

    visit(tree, "")
    return found


def test_plane_builds_adjacency_only_once_per_arrangement():
    """The read side of ``plane.py`` answers every query from neighbour
    masks built with the arrangement: ``_adjacency`` is used only where
    an arrangement is set up and by ``is_tree`` on its own small graph."""
    found = _uses_outside("plane.py", "_adjacency", {"Arrangement.__post_init__", "is_tree"})
    assert not found, f"plane.py builds adjacency outside set-up: {', '.join(found)}"


def test_solver_tries_cell_type_tuples_in_one_place():
    """The solver walks cell-type tuples only with the prefix search of
    ``_Cube.search``: ``combinations_with_replacement`` is left to
    ``enumerate_models``, the independent cross-check, and traces of
    tuples are taken only by ``_Cube.family``."""
    found = _uses_outside(
        "solver.py", "combinations_with_replacement", {"enumerate_models"}
    ) + _uses_outside("solver.py", "_trace_of", {"_Cube.family"})
    assert not found, f"solver.py walks tuples outside the search: {', '.join(found)}"


# the pre-order walkers and the printers still recurse; the list shrinks
# as they move onto iterative walks
RECURSIVE_SYNTAX = {"term_variables", "atoms", "conjuncts", "term_to_source", "to_source"}


def test_syntax_walkers_do_not_recurse():
    """Formula rewrites and classifications fold with the explicit stack
    of ``syntax.fold``, so they work on formulas of any depth: no function
    of ``syntax.py`` or ``constructions.py`` calls itself, apart from the
    allow-list."""
    found = []
    for name in ("syntax.py", "constructions.py"):
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            calls_itself = any(
                isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == node.name
                for n in ast.walk(node)
            )
            if calls_itself and node.name not in RECURSIVE_SYNTAX:
                found.append(f"{name}: {node.name} (line {node.lineno})")
    assert not found, f"recursive walkers: {', '.join(found)}"
