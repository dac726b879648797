"""Source checks that a linter would make, for a tree with no linter installed."""

import ast
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path
from typing import Iterator

import pytest

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
    # plain imports too: ``import a.b`` binds, and so must read, the name a
    unused = []
    for path in MODULES:
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        read = _names_read(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
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


def test_every_oracle_is_called_from_a_test():
    # the oracle-side twin of the check above: an oracle that no test file
    # calls checks nothing, and a private helper of the oracles is read by them
    tests = Path(__file__).resolve().parent
    oracles = ast.parse((tests / "oracles.py").read_text())
    called = set()
    for path in tests.glob("test_*.py"):
        tree = ast.parse(path.read_text())
        called |= _names_read(tree) | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    helpers = _names_read(oracles)
    unread = [
        f"oracles.py:{node.lineno}: {node.name}"
        for node in oracles.body
        if isinstance(node, ast.FunctionDef)
        and node.name not in (helpers if node.name.startswith("_") else called)
    ]
    assert not unread, unread


def _probe(code: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter that imports mfdecomp from this tree."""
    src = str(Path(mfdecomp.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    # records are tuples, so start-up pays for neither module; membership only, no timing
    probe = "import sys, mfdecomp.cli; print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    assert _probe(probe).split() == []


def test_cli_import_builds_no_dimension_tables():
    # numerators, invariants, block kernels and the factor table are built on first
    # use, not at start-up; cache and table sizes only, no timing
    probe = (
        "import mfdecomp.cli; from mfdecomp import arith, hilbert, levels; "
        "print(levels._numerators.cache_info().currsize, "
        "levels.level_invariants.cache_info().currsize, "
        "hilbert.denominator_quotient.cache_info().currsize, "
        "len(arith._least_factors))"
    )
    assert _probe(probe).split() == ["0", "0", "0", "0"]


LAZY = ("mfdecomp.decomp", "mfdecomp.eisenstein", "mfdecomp.exactnum", "mfdecomp.levels", "mfdecomp.ringalg")

#: Prints, space-separated, the modules of LAZY that have executed: a lazy
#: module is not a plain ModuleType until its first attribute access runs it.
EXECUTED = f"print(*(name for name in {LAZY!r} if type(sys.modules[name]) is types.ModuleType))"


def test_cli_import_registers_every_traced_module_and_executes_no_lazy_one():
    # the benchmark's tracer looks each target module up in sys.modules right
    # after importing mfdecomp.cli; membership only, no timing
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    probe = (
        "import sys, types, mfdecomp.cli\n"
        "registered = set(sys.modules)\n"
        f"{EXECUTED}\n"
        f"sys.path.insert(0, {str(perfbench)!r})\n"
        "import layertrace\n"
        "print(*sorted({t.module for t in layertrace.TARGETS} - registered))"
    )
    executed, missing = _probe(probe).split("\n")[:2]
    assert (executed, missing) == ("", "")


def test_an_import_statement_runs_a_registered_module():
    # only cli's own references wait for first use: an import of the module
    # after cli's runs it there and binds it in the package, as without cli
    probe = (
        "import sys, types, mfdecomp, mfdecomp.cli\n"
        "from mfdecomp import eisenstein\n"
        "import mfdecomp.ringalg\n"
        f"{EXECUTED}\n"
        "print(mfdecomp.eisenstein is eisenstein, 'f3-rank3' in mfdecomp.ringalg.PRESETS)"
    )
    executed, bound = _probe(probe).splitlines()
    assert executed == "mfdecomp.eisenstein mfdecomp.exactnum mfdecomp.ringalg"
    assert bound == "True True"


@pytest.mark.parametrize(
    "argv, executed",
    [
        (["levels", "g1:23"], "mfdecomp.levels"),
        (["wproj", "serre", "4", "6", "60"], ""),
        (["hasse", "--prime", "17"], "mfdecomp.eisenstein mfdecomp.exactnum"),
        (["freebasis", "--preset", "q-rank16"], "mfdecomp.ringalg"),
        (["table", "--flavor", "omega", "--from", "2", "--to", "5"], "mfdecomp.decomp mfdecomp.levels"),
        (["obstruct", "--q", "13", "--bound", "100"], "mfdecomp.decomp mfdecomp.levels"),
        # usage errors, found in the command: choosing their exit code runs no other module
        (["levels", "g1:0"], "mfdecomp.levels"),
        (["wproj", "h0", "0", "6", "4"], ""),
        (["hasse", "--prime", "7"], "mfdecomp.eisenstein mfdecomp.exactnum"),
        (["freebasis", "--file", "/nonexistent/presentation"], ""),
        # weight-1 data unavailable (Weight1Unavailable, raised in levels)
        (["table", "--flavor", "omega", "--from", "2", "--to", "43"], "mfdecomp.decomp mfdecomp.levels"),
        # verify reads the weight-1 table for the decomp suite or a --weight1 file only
        (["verify", "--suite", "hasse"], "mfdecomp.eisenstein mfdecomp.exactnum"),
        (["verify", "--suite", "ringalg"], "mfdecomp.ringalg"),
        (["verify", "--suite", "wproj"], "mfdecomp.levels"),  # it reads levels.LEVEL1_WEIGHTS
        (["verify", "--suite", "ringalg", "--weight1", "/nonexistent/weight1"], "mfdecomp.levels"),
    ],
)
def test_each_command_executes_only_the_modules_it_uses(argv, executed):
    # a command passes (0, nothing on stderr), is a usage error (2, "error: ...")
    # or lacks weight-1 data (3, "error: ...")
    probe = (
        "import contextlib, io, sys, types\n"
        "from mfdecomp.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()) as err:\n"
        f"    code = main({argv!r})\n"
        "print(code, err.getvalue().startswith('error: '))\n"
        f"{EXECUTED}"
    )
    outcome, ran = _probe(probe).split("\n")[:2]
    assert outcome in ("0 False", "2 True", "3 True")
    assert ran == executed


def test_cli_reuses_a_module_imported_before_it():
    # decomp tells the omega block by the identity of its BlockTag member, so
    # a second decomp beside the first would drop the genus column of a
    # table asked for with the first one's tag
    probe = (
        "import sys\n"
        "import mfdecomp.decomp as first\n"
        "from mfdecomp import cli\n"
        "print(cli.decomp is first, sys.modules['mfdecomp.decomp'] is first)\n"
        "rows = cli.decomp.table_generate(2, 42, first.BlockTag.OMEGA_POWERS)\n"
        "print(cli._render_table(cli.decomp.table_columns('omega'), rows, 'tsv'), end='')"
    )
    head, _, table = _probe(probe).partition("\n")
    assert head == "True True"
    assert table == (resources.files("mfdecomp") / "data" / "omega.tsv").read_text()


def test_only_arith_splits_text_into_lines():
    # arith.read_lines owns where a line of an input file ends: str.splitlines
    # also ends one at a form feed or U+2028, a text-mode file does not
    splits = []
    for path in MODULES:
        if path.stem == "arith":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                first = node.args[0] if node.args else None
                on_newline = isinstance(first, ast.Constant) and first.value in ("\n", b"\n")
                if node.func.attr == "splitlines" or node.func.attr in ("split", "rsplit") and on_newline:
                    splits.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert not splits, splits


def test_no_module_reads_a_private_name_of_another():
    # a private name is its module's own decision: ``from .m import _x`` and
    # ``m._x`` on a sibling module, one that cli._lazy registers included
    siblings = {path.stem for path in MODULES}
    reads = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("mfdecomp")):
                module = node.module or ""
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                module, names = node.value.id, [node.attr]
                if module not in siblings or module == path.stem:
                    continue
            else:
                continue
            reads += [
                f"{path.name}:{node.lineno} {module}.{name}" for name in names
                if name.startswith("_") and not name.endswith("__")
            ]
    assert not reads, reads
