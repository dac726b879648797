"""Source checks that a linter would make, for a tree with no linter installed."""

import ast
import os
import subprocess
import sys
from pathlib import Path
from typing import Iterator

import mfdecomp

MODULES = sorted(Path(mfdecomp.__file__).parent.glob("*.py"))


def _names_read(tree: ast.AST) -> set[str]:
    """Every name the code reads, string annotations included; a name that is
    only assigned to is not read."""
    names = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    for node in ast.walk(tree):
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for part in ast.walk(annotation) if annotation else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    names |= _names_read(ast.parse(part.value, mode="eval"))
    return names


def _top_level_names(tree: ast.Module) -> set[str]:
    """Every name a module binds at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def test_every_exported_name_is_defined():
    missing = []
    for path in MODULES:  # parsed, not imported: importing __main__ runs the CLI
        tree = ast.parse(path.read_text())
        exported = next(
            (ast.literal_eval(node.value) for node in tree.body
             if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__"),
            [],
        )
        defined = _top_level_names(tree)
        missing += [f"{path.name}: {name}" for name in exported if name not in defined]
    assert not missing, missing


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


def _private_definitions(tree: ast.Module) -> Iterator[tuple[int, str]]:
    """(line, name) of each private function, method and module-level
    assigned name, such as a cache or a constant."""
    for scope in [tree, *(node for node in tree.body if isinstance(node, ast.ClassDef))]:
        for node in scope.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node.lineno, node.name
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for part in ast.walk(target):
                    if isinstance(part, ast.Name):
                        yield node.lineno, part.id


def test_every_private_function_is_read():
    # a private helper, method, cache or constant that nothing in src/ reads is dead code
    trees = {path.name: ast.parse(path.read_text()) for path in MODULES}
    read = set()
    for tree in trees.values():
        read |= _names_read(tree)
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    unread = [
        f"{name}:{lineno}: {defined}"
        for name, tree in trees.items()
        for lineno, defined in _private_definitions(tree)
        if defined.startswith("_") and not defined.endswith("__") and defined not in read
    ]
    assert not unread, unread


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    # records are tuples, so start-up pays for neither module; membership only, no timing
    src = str(Path(mfdecomp.__file__).parent.parent)
    probe = "import sys, mfdecomp.cli; print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": src}
    loaded = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert loaded == []


def test_cli_import_builds_no_dimension_tables():
    # tables and invariants are built on first use, not at start-up; cache sizes only, no timing
    src = str(Path(mfdecomp.__file__).parent.parent)
    probe = (
        "import mfdecomp.cli; from mfdecomp import levels; "
        "print(levels._tables.cache_info().currsize, levels.level_invariants.cache_info().currsize)"
    )
    env = {**os.environ, "PYTHONPATH": src}
    sizes = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert sizes == ["0", "0"]
