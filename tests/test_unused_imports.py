"""Module-level imports in the package that no code reads; no linter runs
on the source, so this test catches what a refactor leaves behind."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bandpointer"


def _bound_names(body: list[ast.stmt]) -> dict[str, int]:
    """Name each module-level import binds, with its line; imports inside
    top-level blocks such as ``if TYPE_CHECKING:`` count too."""
    bound = {}
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module != "__future__":
                for alias in node.names:
                    bound[alias.asname or alias.name] = node.lineno
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for block in ("body", "orelse", "handlers", "finalbody"):
                bound.update(_bound_names(getattr(node, block, [])))
    return bound


def _read_names(tree: ast.Module) -> set[str]:
    """Names the module reads, including inside string annotations and
    its ``__all__``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                names |= _read_names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass  # prose, not an expression
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text())
    read = _read_names(tree)
    unused = {name: line for name, line in _bound_names(tree.body).items() if name not in read}
    assert unused == {}, f"{path.name}: unused imports {unused}"
