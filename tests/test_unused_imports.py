"""No module of the library or of its tests imports a name it never uses.

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
