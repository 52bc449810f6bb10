"""No module of the package or of the tests imports a name it never uses.

The package's `__init__.py` is left out: its imports are the re-exports.
A name counts as used when it appears anywhere in the module.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKED = sorted(
    [p for p in (ROOT / "src" / "stablesde").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
)


def _imported(tree: ast.Module):
    """(line, bound name) for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, alias.asname or alias.name


def test_no_unused_imports():
    unused = []
    for path in CHECKED:
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.relative_to(ROOT)}:{line}: {name}"
            for line, name in _imported(tree)
            if name not in used
        ]
    assert CHECKED
    assert not unused, "imported but never used:\n" + "\n".join(unused)
