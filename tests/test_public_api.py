"""The package's export list, and the imports README shows."""

import ast
import re
from pathlib import Path

import bandpointer


def test_every_export_resolves():
    missing = [name for name in bandpointer.__all__ if not hasattr(bandpointer, name)]
    assert missing == []
    assert len(set(bandpointer.__all__)) == len(bandpointer.__all__)


def test_star_import_binds_the_export_list():
    namespace: dict = {}
    exec("from bandpointer import *", namespace)
    assert set(bandpointer.__all__) <= set(namespace)


def _readme_import_statements() -> list[str]:
    """Every import statement in README's python code blocks."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    return [
        ast.unparse(node)
        for block in blocks
        for node in ast.parse(block).body
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]


def test_readme_imports_resolve():
    statements = _readme_import_statements()
    assert any(s.startswith("from bandpointer import ") for s in statements)
    failures = []
    for statement in statements:
        try:
            exec(statement, {})
        except ImportError as exc:
            failures.append(f"{statement}: {exc}")
    assert failures == []
