"""Workload definitions, recorded expectations and the checks on every output.

This module imports nothing from mfdecomp: the parent process that times the
``paper-cli`` workload stays light, and the independent checks below do their
own arithmetic instead of trusting the program's helpers.
"""

from __future__ import annotations

import gc
import json
import random
import signal
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN_DIR = SRC / "mfdecomp" / "data"
EXPECTED_DIR = HERE / "expected"
#: Scratch output of runs (child stderr, traced totals and spans); not committed.
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("paper-cli", "decomp-levels", "hasse-sweep", "ring-degree")

#: What a reader reproducing the paper runs, one fresh process per command.
PAPER_CLI = (
    ("verify", "--suite", "all"),
    ("table", "--flavor", "omega", "--from", "2", "--to", "42"),
    ("table", "--flavor", "level2", "--from", "4", "--to", "23"),
    ("table", "--flavor", "level3", "--from", "5", "--to", "23"),
    ("hasse", "--prime", "17"),
    ("freebasis", "--preset", "q-rank16"),
    ("obstruct", "--q", "13", "--bound", "1000"),
    ("levels", "g1:23"),
    ("wproj", "serre", "4", "6", "60"),
)

#: ``table`` commands whose output must equal a packaged golden TSV.
GOLDEN_TABLES = {
    "table --flavor omega --from 2 --to 42": "omega.tsv",
    "table --flavor level2 --from 4 --to 23": "level2.tsv",
    "table --flavor level3 --from 5 --to 23": "level3.tsv",
}

#: p = 257 and p = 769 (cyclotomic order 256) are left out of the hasse sweep:
#: at the seed commit each takes about 45 s, more than a whole run.
HASSE_EXCLUDED = (257, 769)
HASSE_PRECISION = 60
FREE_BASIS_BOUND = 96
REGULAR_SEQUENCE_BOUND = 64
OBSTRUCTION_BOUND = 20000


@dataclass(frozen=True)
class Case:
    """One unit of work: ``run`` calls the program and returns a JSON-able
    observation; ``check`` returns a failure message or None."""

    id: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None] | None = None


class Raised:
    """Observation of a case that raised an exception nobody expected."""

    def __init__(self, exc: BaseException) -> None:
        self.text = f"raised {type(exc).__name__}: {exc}"


def permuted(cases: list, seed: int) -> list:
    """The seed permutes case order only, so passes stay comparable."""
    cases = list(cases)
    random.Random(seed).shuffle(cases)
    return cases


# ---------------------------------------------------------------------------
# Timing against a reference loop
#
# The host's speed swings by a third or more, over spans from under a second
# to many minutes, because other machines' work shares its cores.  A pass
# therefore times a fixed reference loop every few tens of milliseconds, and
# the benchmark quotes each stretch of the pass at the speed of the reference
# chunks around it (see run.normalised_pass_s).

#: Seconds between reference chunks.
REFERENCE_EVERY_S = 0.05
#: A reference chunk's time at the speed normalised times are quoted at.
REFERENCE_NOMINAL_S = 0.001


def reference_work() -> int:
    """A fixed piece of plain Python: small and big ints, tuple-keyed dicts,
    fractions, strings and list building, as the program's own code uses.

    It imports nothing from mfdecomp, so no change to the program moves its
    time; only the host's speed does.
    """
    table: dict[tuple[int, int, int], int] = {}
    acc = Fraction(0)
    count = 0
    for i in range(1, 900):
        key = (i % 7, i % 11, i % 13)
        table[key] = table.get(key, 0) + i * i
        count += len(str(i))
        if i % 8 == 0:
            acc += Fraction(i, i + 1)
    rows = [[(i * j) % 101 for j in range(24)] for i in range(24)]
    return count + sum(map(sum, rows)) + len(table) + acc.numerator % 7


class ReferenceLog:
    """Reference chunks timed during one pass: each one's start, in seconds
    from the pass's start, and its length."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.last_end = self.origin
        self.starts: list[float] = []
        self.lengths: list[float] = []
        self.busy = False

    def take(self, *_signal_args) -> None:
        """Time one chunk, with the cyclic collector held off so that the
        program's heap cannot slow it.  Also a signal handler: a signal that
        arrives during a chunk is dropped, so chunks never nest."""
        if self.busy:
            return
        self.busy = True
        enabled = gc.isenabled()
        gc.disable()
        try:
            begin = time.perf_counter()
            reference_work()
            self.last_end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
            self.busy = False
        self.starts.append(begin - self.origin)
        self.lengths.append(self.last_end - begin)

    def since_last(self) -> float:
        return time.perf_counter() - self.last_end


def run_cases(cases: list[Case], timer: bool = False) -> tuple[dict[str, Any], list[Any]]:
    """Run every case once, first to last; return the times and observations.

    A reference chunk is timed after each case that ends at least
    ``REFERENCE_EVERY_S`` after the last chunk, and after the last case.
    With ``timer`` an interval timer also takes one every
    ``REFERENCE_EVERY_S`` inside long cases; it uses SIGALRM, so only a
    process that sets no alarm of its own may ask for it.  The times are
    ``pass_s`` from the first case's start to the last chunk's end, the
    chunks' ``reference_start`` and ``reference_s``, and ``wall_s``, the pass
    without the chunks.
    """
    observations = []
    log = ReferenceLog()
    if timer:
        previous = signal.signal(signal.SIGALRM, log.take)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S, REFERENCE_EVERY_S)
    try:
        for i, case in enumerate(cases, 1):
            try:
                observations.append(case.run())
            except Exception as exc:  # a case that raises is a failed case
                observations.append(Raised(exc))
            if log.since_last() >= REFERENCE_EVERY_S or i == len(cases):
                log.take()
    finally:
        if timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    pass_s = log.last_end - log.origin
    times = {
        "pass_s": pass_s,
        "wall_s": pass_s - sum(log.lengths),
        "reference_start": log.starts,
        "reference_s": log.lengths,
    }
    return times, observations


def judge(case: Case, observation: Any, expected: dict[str, Any]) -> str | None:
    """Compare one observation with its recorded value and independent check."""
    if isinstance(observation, Raised):
        return f"{case.id}: {observation.text}"
    got = json.loads(json.dumps(observation))
    if case.id not in expected:
        return f"{case.id}: no expected result recorded"
    if got != expected[case.id]:
        return f"{case.id}: got {_short(got)}, expected {_short(expected[case.id])}"
    problem = case.check(got) if case.check else None
    return f"{case.id}: {problem}" if problem else None


def judge_all(
    cases: list[Case], observations: list[Any], expected: dict[str, Any]
) -> list[str]:
    failures = (judge(c, o, expected) for c, o in zip(cases, observations))
    return [f for f in failures if f]


def _short(value: Any, limit: int = 160) -> str:
    text = json.dumps(value)
    return text if len(text) <= limit else text[:limit] + "..."


def expected_path(workload: str) -> Path:
    return EXPECTED_DIR / f"{workload}.json"


def load_expected(workload: str) -> dict[str, Any]:
    return json.loads(expected_path(workload).read_text())


def dump_expected(workload: str, table: dict[str, Any]) -> None:
    """One case per line, so a changed expectation shows as a one-line diff."""
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in table.items()]
    expected_path(workload).write_text("{\n" + ",\n".join(lines) + "\n}\n")


# ---------------------------------------------------------------------------
# paper-cli cases; the parent runs each one as a fresh process


def paper_cli_cases(run_command: Callable[[tuple[str, ...]], dict]) -> list[Case]:
    return [
        Case(" ".join(argv), lambda argv=argv: run_command(argv), _cli_check(argv))
        for argv in PAPER_CLI
    ]


def _cli_check(argv: tuple[str, ...]) -> Callable[[dict], str | None]:
    golden = GOLDEN_TABLES.get(" ".join(argv))

    def check(obs: dict) -> str | None:
        if obs["exit"] != 0:
            return f"exit code {obs['exit']}"
        if golden and obs["stdout"] != golden_text(golden):
            return f"stdout differs from the golden {golden}"
        return None

    return check


# ---------------------------------------------------------------------------
# Independent arithmetic for the checks


def golden_text(name: str) -> str:
    return (GOLDEN_DIR / name).read_text()


@lru_cache(maxsize=None)
def golden_rows(name: str) -> dict[int, list[int]]:
    """Golden TSV rows keyed by level, header dropped, level column dropped."""
    lines = golden_text(name).splitlines()[1:]
    rows = [[int(x) for x in line.split("\t")] for line in lines]
    return {row[0]: row[1:] for row in rows}


@lru_cache(maxsize=None)
def primes_upto(n: int) -> tuple[int, ...]:
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return tuple(i for i, flag in enumerate(sieve) if flag)


def prime_factors(n: int) -> list[int]:
    factors, p = [], 2
    while p * p <= n:
        if n % p == 0:
            factors.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return factors + ([n] if n > 1 else [])


def two_adic_order(n: int) -> int:
    return (n & -n).bit_length() - 1


def sl2_index(kind: str, n: int) -> int:
    """[SL2(Z) : G] from the product formulas, for G = Gamma0/Gamma1/Gamma(n)."""
    ps = prime_factors(n)
    if kind == "g0":
        value = Fraction(n)
        for p in ps:
            value *= Fraction(p + 1, p)
        return int(value)
    value = Fraction(n * n if kind == "g1" else n**3)
    for p in ps:
        value *= 1 - Fraction(1, p * p)
    return int(value)


def hasse_primes() -> list[int]:
    return [p for p in primes_upto(1000) if p % 4 == 1 and p not in HASSE_EXCLUDED]


def expected_v2_l(p: int) -> Fraction:
    """v2(L(0, chi)) = 1 - 1/2^(m-1) where 2^m exactly divides p - 1."""
    return 1 - Fraction(1, 2 ** (two_adic_order(p - 1) - 1))


def obstruction_witnesses(q: int, d_q: int, bound: int) -> tuple[int, list[int]]:
    """Primes p <= bound with p coprime to q, and those with d_q not dividing p^2 - 1."""
    primes = [p for p in primes_upto(bound) if q % p]
    return len(primes), [p for p in primes if (p * p - 1) % d_q]
