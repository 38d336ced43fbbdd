"""No module of the library or of its tests imports a name it never uses,
no library module imports inside a function, and no test module defines
a helper that no test module reads.

``pdqsort/__init__.py`` is exempt: its imports are the package's
re-exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source):
    """The names that ``source`` binds by an import and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_every_module_uses_every_name_it_imports():
    package = ROOT / "src" / "pdqsort"
    modules = [*package.glob("*.py"), *(ROOT / "tests").glob("*.py")]
    unused = {
        str(path.relative_to(ROOT)): names
        for path in sorted(modules)
        if path != package / "__init__.py"
        and (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}


def test_every_library_import_is_at_module_level():
    # A cycle of module-level imports fails at import; one hidden inside a
    # function would not, so the library keeps every import at the top.
    nested = set()
    for path in sorted((ROOT / "src" / "pdqsort").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                imports = (n for n in ast.walk(func) if isinstance(n, (ast.Import, ast.ImportFrom)))
                nested.update(f"{path.name}:{node.lineno}" for node in imports)
    assert nested == set()


def test_every_test_helper_is_read():
    # A top-level function, class or constant of a test module is read if
    # some test module loads its name, reads it as an attribute or
    # imports it. pytest finds tests, test classes and hooks by name.
    read, defined = set(), set()
    for path in (ROOT / "tests").glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                stored = (n for n in ast.walk(node) if isinstance(n, ast.Name))
                defined.update(n.id for n in stored if isinstance(n.ctx, ast.Store))
    exempt = ("test_", "Test", "pytest_")
    assert {name for name in defined - read if not name.startswith(exempt)} == set()
