"""Every imported name is read: an import left behind by a deletion fails here."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The package __init__ imports names only to re-export them.
REEXPORTS = ROOT / "src" / "twolevel" / "__init__.py"


def unread_imports(tree: ast.Module) -> list[str]:
    """Names the module imports and never loads nor lists in ``__all__``."""
    imported = {}
    loaded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            loaded.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in loaded]


def test_every_imported_name_is_read():
    sources = [
        path
        for folder in ("src", "tests", "demos")
        for path in sorted((ROOT / folder).rglob("*.py"))
        if path != REEXPORTS
    ]
    assert len(sources) > 20
    unread = {}
    for path in sources:
        names = unread_imports(ast.parse(path.read_text(), filename=str(path)))
        if names:
            unread[str(path.relative_to(ROOT))] = names
    assert unread == {}


def test_scan_sees_an_unread_import():
    tree = ast.parse("import math\nfrom os import path, sep\n__all__ = ['sep']\n")
    assert unread_imports(tree) == ["math (line 1)", "path (line 2)"]
