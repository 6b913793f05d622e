"""Module-level imports in the package and the tests that their module
never reads, private names in the package that no package code reads,
and public members that neither the package nor the benchmark reads; no
linter runs on the source, so these tests catch what a refactor leaves
behind."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bandpointer"
TESTS = Path(__file__).resolve().parent


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


@pytest.mark.parametrize(
    "path",
    sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")),
    ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}",
)
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text())
    read = _read_names(tree)
    unused = {name: line for name, line in _bound_names(tree.body).items() if name not in read}
    assert unused == {}, f"{path.name}: unused imports {unused}"


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level private functions, classes and constants, with their
    lines; dunder names are not private."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    return defined


def test_every_private_name_is_read():
    # only the package's own reads count: a helper that only tests call is
    # dead code, however useful it is as an oracle
    read = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        read |= {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    unread = {
        f"{path.name}:{line} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name, line in _private_definitions(ast.parse(path.read_text())).items()
        if name not in read
    }
    assert unread == set(), f"private names nothing reads: {sorted(unread)}"


PERFBENCH = PACKAGE.parents[1] / "perfbench"


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(ast.unparse(d).split("(")[0] == "dataclass" for d in node.decorator_list)


def _public_members(tree: ast.Module) -> dict[str, int]:
    """Methods, properties and dataclass fields of the module's classes,
    as ``Class.member``, and its public functions, with their lines;
    dunder methods are called by Python."""
    members = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                members[node.name] = node.lineno
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = item.name
                elif (
                    isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)
                    and _is_dataclass(node)
                ):
                    name = item.target.id
                else:
                    continue
                if not (name.startswith("__") and name.endswith("__")):
                    members[f"{node.name}.{name}"] = item.lineno
    return members


def test_every_public_member_is_read():
    # the program and the benchmark are the readers; a member that only
    # tests read restates something the program has in another form. A
    # class member is read through an attribute, so a local variable of
    # the same name does not count for it.
    names, attrs = set(), set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
    unread = {
        f"{path.name}:{line} {member}"
        for path in sorted(PACKAGE.glob("*.py"))
        for member, line in _public_members(ast.parse(path.read_text())).items()
        if member.rpartition(".")[2] not in (attrs if "." in member else attrs | names)
    }
    assert unread == set(), f"members only tests read: {sorted(unread)}"


def _scope_nodes(func: ast.AST):
    """Nodes of func's own scope: nested functions, lambdas and classes are
    left out, since each is checked, or read, on its own."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_local_is_read(path):
    # a value a function stores and never reads is a leftover of a refactor;
    # reads in nested functions count, and a leading _ marks a name unused
    # on purpose
    dead = set()
    for func in ast.walk(ast.parse(path.read_text())):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        shared = {
            name for node in _scope_nodes(func)
            if isinstance(node, (ast.Global, ast.Nonlocal)) for name in node.names
        }
        read = {
            node.id for node in ast.walk(func)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
        }
        dead |= {
            f"{func.name}:{node.lineno} {node.id}" for node in _scope_nodes(func)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
            and not node.id.startswith("_") and node.id not in read | shared
        }
    assert dead == set(), f"{path.name}: locals nothing reads {sorted(dead)}"


def _type_names(node) -> set[str]:
    """The names in a type, or a tuple of types, as isinstance and except
    take them."""
    names = node.elts if isinstance(node, ast.Tuple) else [node]
    return {n.id for n in names if isinstance(n, ast.Name)}


def _isinstance_uses(tree: ast.Module, types: set[str]) -> list[int]:
    """Lines that call ``isinstance(..., T)`` for a T in types, alone or in
    a tuple of types."""
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance" and len(node.args) == 2
        and _type_names(node.args[1]) & types
    ]


def _number_rule_uses(tree: ast.Module) -> list[int]:
    """Lines that import ``numbers`` or call ``isinstance(..., bool)``."""
    lines = _isinstance_uses(tree, {"bool"})
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "numbers":
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_number_rules_live_in_errors(path):
    # errors.number and errors.integer are the one place that says what a
    # JSON number and a JSON integer are; a module with its own boolean or
    # number-type check restates that rule
    uses = _number_rule_uses(ast.parse(path.read_text()))
    if path.name == "errors.py":
        assert uses, "errors.py no longer holds the number rules"
    else:
        assert uses == [], f"{path.name}: number-type checks at lines {uses}"


def _shape_rule_uses(tree: ast.Module) -> list[int]:
    """Lines that call ``isinstance(..., dict|list|str)`` or catch
    ``KeyError`` or ``TypeError``."""
    lines = _isinstance_uses(tree, {"dict", "list", "str"})
    return lines + [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler) and node.type is not None
        and _type_names(node.type) & {"KeyError", "TypeError"}
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_shape_rules_live_in_errors(path):
    # the JSON documents are read by the walker in errors.py over a table of
    # fields; a module that checks a JSON value's shape itself, or reads a
    # document and turns a KeyError or TypeError into an error message,
    # is a second reader
    uses = _shape_rule_uses(ast.parse(path.read_text()))
    if path.name == "errors.py":
        assert uses, "errors.py no longer holds the shape rules"
    else:
        assert uses == [], f"{path.name}: JSON shape checks at lines {uses}"
