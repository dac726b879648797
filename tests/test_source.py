"""Source checks that a linter would make, for a tree with no linter installed."""

import ast
from pathlib import Path

import mfdecomp

MODULES = sorted(Path(mfdecomp.__file__).parent.glob("*.py"))


def _names_read(tree: ast.AST) -> set[str]:
    """Every name the code reads, string annotations included."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for part in ast.walk(annotation) if annotation else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    names |= _names_read(ast.parse(part.value, mode="eval"))
    return names


def test_every_from_import_is_used():
    unused = []
    for path in MODULES:
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        read = _names_read(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name
                if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(f"{path.name}:{alias.lineno}: {name}")
    assert not unused, unused
