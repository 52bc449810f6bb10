"""No module of the package or of the tests imports a name it never uses,
no module of the package defines a private helper nothing reads, and the
package's `__all__` lists exactly the public names its `__init__.py` binds.

The package's `__init__.py` is left out of the import check: its imports are
the re-exports, which the `__all__` check covers instead.  An imported name
counts as used when it appears anywhere in the module; a private name when
it is read anywhere in the package.
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


def _private_definitions(tree: ast.Module):
    """(line, name) for every module-level private name (`_x`, not a dunder)
    a def, class or assignment binds."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                yield node.lineno, name


def test_no_orphaned_private_helpers():
    trees = {p: ast.parse(p.read_text(), filename=str(p))
             for p in sorted((ROOT / "src" / "stablesde").glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    orphans = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path, tree in trees.items()
        for line, name in _private_definitions(tree)
        if name not in read
    ]
    assert trees
    assert not orphans, "defined but never read:\n" + "\n".join(orphans)


def test_all_lists_exactly_the_reexports():
    """A name in `__all__` that `__init__.py` does not bind (a stale export)
    and a public name it imports but leaves out of `__all__` both fail."""
    tree = ast.parse((ROOT / "src" / "stablesde" / "__init__.py").read_text())
    (listed,) = [
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "__all__" for t in node.targets)
    ]
    imported = {name for _, name in _imported(tree)}
    bound = imported | {
        t.id for node in tree.body if isinstance(node, ast.Assign)
        for t in node.targets if isinstance(t, ast.Name)
    }
    unbound = sorted(set(listed) - bound)
    left_out = sorted(n for n in imported - set(listed) if not n.startswith("_"))
    assert not unbound, f"in __all__ but never bound: {unbound}"
    assert not left_out, f"imported but left out of __all__: {left_out}"
    assert len(listed) == len(set(listed)), "__all__ lists a name twice"
