"""Byte-identity gate for the CLI: stdout, stderr and exit code of each
command in ``COMMANDS``, compared with ``cli_snapshot.json``.

Usage errors that argparse raises (``ARGPARSE_ERRORS``) are compared by exit
code only, since Python versions word their messages differently.  A change
that is meant to alter an output regenerates the file from the tree with

    PYTHONPATH=src python tests/test_cli_snapshot.py

and says so; every other change leaves the file as it is.
"""

import contextlib
import io
import json
import sys
from functools import cache
from pathlib import Path

import pytest

from mfdecomp.cli import main

SNAPSHOT = Path(__file__).with_name("cli_snapshot.json")

PAPER_CLI = [
    "verify --suite all",
    "table --flavor omega --from 2 --to 42",
    "table --flavor level2 --from 4 --to 23",
    "table --flavor level3 --from 5 --to 23",
    "hasse --prime 17",
    "freebasis --preset q-rank16",
    "obstruct --q 13 --bound 1000",
    "levels g1:23",
    "wproj serre 4 6 60",
]

ARGPARSE_ERRORS = [
    "levels",
    "table --flavor nope --from 2 --to 3",
    "hasse --prime x",
]

COMMANDS = PAPER_CLI + [
    *(f"verify --suite {suite}" for suite in ("decomp", "wproj", "ringalg", "hasse")),
    *(f"levels {g} --format {fmt}" for g in ("g0:11", "g1:23", "g:6")
      for fmt in ("tsv", "json", "markdown")),
    "table --flavor omega --from 2 --to 12 --format json",
    "table --flavor level2 --from 4 --to 9 --format json",
    "table --flavor level3 --from 5 --to 12 --format markdown",
    *(f"hasse --prime {p}" for p in (5, 13, 257)),
    "hasse --prime 17 --prec 200",
    *(f"freebasis --preset {name}" for name in ("f2-rank4", "f3-rank3", "q-rank6")),
    "wproj h0 4 6 12",
    "wproj h1 4 6 -10",
    "obstruct --q 7 --bound 100",
    # exit 3: no weight-1 data past Gamma1(42)
    "table --flavor omega --from 2 --to 43",
    # usage errors found in the command
    "levels g1:1",
    "levels gx:abc",
    "levels g1:abc",
    "levels gx:1",
    "levels g1",
    "levels :5",
    # a level is ASCII digits: int() alone read these as 11 and 3
    "levels g1:1_1",
    "levels g1:\u0663",
    "hasse --prime 7",
    "hasse --prime 9",
    "obstruct --q 5",
    "wproj h0 0 6 4",
    *ARGPARSE_ERRORS,
]


def _run(command: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(command.split())
        except SystemExit as exc:  # argparse
            code = exc.code
    if command in ARGPARSE_ERRORS:
        return {"exit": code, "stdout": None, "stderr": None}
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@cache
def _snapshot() -> dict:
    return json.loads(SNAPSHOT.read_text())


def test_snapshot_lists_every_command_once():
    assert len(set(COMMANDS)) == len(COMMANDS)
    assert list(_snapshot()) == COMMANDS


@pytest.mark.parametrize("command", COMMANDS)
def test_command_output_is_byte_identical(command):
    assert _run(command) == _snapshot()[command]


if __name__ == "__main__":
    snapshot = {command: _run(command) for command in COMMANDS}
    SNAPSHOT.write_text(json.dumps(snapshot, indent=1, ensure_ascii=False) + "\n")
    sys.stdout.write(f"wrote {len(snapshot)} commands to {SNAPSHOT}\n")
