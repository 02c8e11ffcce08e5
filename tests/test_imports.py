"""Every imported name is read: an import left behind by a deletion fails here."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The package __init__ computes its __all__ from the names it loads on first use.
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


#: Spellings of the transfer rule chi = (pi/2) omega and its peak pi/(2 omega).
RULE_SPELLINGS = ("0.5 * math.pi", "math.pi / (2 *", "HALF_PI")
#: The one line of each file allowed to hold one: the rule's owner, and the
#: derivative phase of a cosine, which is not the rule.
RULE_EXCEPTIONS = {
    "src/twolevel/analytic.py": "TRANSFER_ACTION = 0.5 * math.pi",
    "src/twolevel/core.py": "0.5 * math.pi * order",
}


def rule_spellings(name: str, text: str) -> list[str]:
    """The lines of the file ``name`` that spell the transfer rule out."""
    allowed = RULE_EXCEPTIONS.get(name)
    return [f"{name}:{number}: {line.strip()}"
            for number, line in enumerate(text.splitlines(), start=1)
            if any(spelling in line for spelling in RULE_SPELLINGS)
            and not (allowed and allowed in line)]


def test_only_the_owner_spells_the_transfer_rule():
    sources = [path for folder in ("src/twolevel", "demos")
               for path in sorted((ROOT / folder).rglob("*.py"))]
    assert len(sources) > 10
    found = []
    for path in sources:
        found += rule_spellings(path.relative_to(ROOT).as_posix(), path.read_text())
    assert found == []


def test_rule_scan_sees_a_spelling():
    text = "t0 = math.pi / (2 * omega)\nphase = 0.5 * math.pi * order\n"
    assert rule_spellings("demos/x.py", text) == [
        "demos/x.py:1: t0 = math.pi / (2 * omega)", "demos/x.py:2: phase = 0.5 * math.pi * order"]
    assert rule_spellings("src/twolevel/core.py", text) == [
        "src/twolevel/core.py:1: t0 = math.pi / (2 * omega)"]
