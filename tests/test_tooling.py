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
