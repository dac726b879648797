"""Command-line interface: it parses arguments and dispatches to the library.

Subcommands: levels, table, verify, hasse, wproj, obstruct, freebasis.  The
library reads every text format: integers through ``arith.parse_integer``,
input-file lines through ``arith.read_lines`` and presentations through
``ringalg.read_presentation``.
Exit codes: 0 success, 1 check failure, 2 usage/input error, 3 required
weight-1 data unavailable.  Output is deterministic; TSV is tab-separated
with LF line endings, JSON is a single document per invocation.  Each
``verify`` suite in ``SUITES`` yields ``Check`` records; once all have run,
each is written as one line ``PASS|FAIL<TAB>name[<TAB>detail]``.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import types
from importlib import resources
from pathlib import Path
from typing import Iterator

from . import hilbert
from .arith import parse_integer
from .hilbert import Check, NegativeMultiplicity, WeightedLine, h0_dim, h1_dim

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DATA_UNAVAILABLE = 3


class _BindOnRun:
    """Loader of a module registered by ``_lazy``: it runs the module with
    the module's own loader, then binds it in the package, as an import
    statement would."""

    def __init__(self, loader) -> None:
        self.loader = loader

    def create_module(self, spec):
        return self.loader.create_module(spec)

    def exec_module(self, module: types.ModuleType) -> None:
        self.loader.exec_module(module)
        setattr(sys.modules[__package__], module.__name__.rpartition(".")[2], module)


def _lazy(name: str) -> types.ModuleType:
    """The submodule ``mfdecomp.<name>``, registered in ``sys.modules`` now
    and run on its first attribute access (the stdlib's ``LazyLoader``
    recipe).  An import statement of it elsewhere also runs it, because the
    import system reads its ``__spec__``; that is why it is not bound in the
    package until it runs.  The binding on run is load-bearing: perfbench's
    in-process runs execute ``from mfdecomp import decomp, eisenstein, ...``
    before they time anything, and a name already bound in the package would
    let that statement skip the module, whose first run would then fall in a
    timed pass.  The registration is too: the tracer looks each traced module
    up in ``sys.modules`` right after importing cli.  A module already
    imported is returned as it is, so there is never a second copy with its
    own classes."""
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(_BindOnRun(spec.loader))
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


# Each command executes only the modules it uses; arith (argument parsing)
# and hilbert (wproj, and main's error path) are imported above, and levels
# runs for levels, table, obstruct, verify --weight1 and verify's decomp and
# wproj suites only.  exactnum, which only eisenstein imports, is registered,
# so that every module of the package is in sys.modules once cli is imported.
_lazy("exactnum")
levels, decomp = _lazy("levels"), _lazy("decomp")
eisenstein, ringalg = _lazy("eisenstein"), _lazy("ringalg")


#: ``--flavor`` and ``--preset`` choices: the sorted values of
#: ``decomp.TABLE_BLOCKS`` and the sorted keys of ``ringalg.PRESETS``, written
#: out so that building the parser executes neither module (a test pins them).
TABLE_FLAVORS = ("level2", "level3", "omega")
FREEBASIS_PRESETS = ("f2-rank4", "f3-rank3", "q-rank16", "q-rank6")


HASSE_PRIMES = (5, 13, 17, 29, 37, 41, 53, 61)


def _load_weight1(path: str | None) -> levels.Weight1Data:
    return levels.Weight1Data.load(path) if path else levels.Weight1Data.default()


def _render_table(columns: tuple[str, ...], rows: list[tuple[int, ...]], fmt: str) -> str:
    if fmt == "json":
        import json

        return json.dumps({"columns": columns, "rows": [list(r) for r in rows]}) + "\n"
    if fmt == "tsv":
        return "".join("\t".join(map(str, row)) + "\n" for row in (columns, *rows))
    rule = ["---"] * len(columns)  # markdown: the row under the header
    return "".join("| " + " | ".join(map(str, row)) + " |\n" for row in (columns, rule, *rows))


def cmd_levels(args) -> int:
    group = levels.CongruenceGroup.parse(args.group)
    inv = levels.level_invariants(group)
    row = (str(group), *inv._replace(omega_degree=str(inv.omega_degree)))
    sys.stdout.write(_render_table(("group", *inv._fields), [row], args.format))
    return EXIT_OK


def cmd_table(args) -> int:
    w1 = _load_weight1(args.weight1)
    rows = decomp.table_generate(args.from_, args.to, decomp.BlockTag(args.flavor), w1)
    sys.stdout.write(_render_table(decomp.table_columns(args.flavor), rows, args.format))
    return EXIT_OK


def cmd_hasse(args) -> int:
    report = eisenstein.hasse_lift(args.prime, args.prec)
    sys.stdout.write(report.to_json() + "\n")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_wproj(args) -> int:
    line = WeightedLine(args.a, args.b)
    if args.op == "h0":
        sys.stdout.write(f"{h0_dim(line, args.m)}\n")
        return EXIT_OK
    if args.op == "h1":
        sys.stdout.write(f"{h1_dim(line, args.m)}\n")
        return EXIT_OK
    bound = abs(args.m)
    check = hilbert.serre_duality_check(line, -bound, bound)
    sys.stdout.write(f"serre duality {check.detail}\n")
    return EXIT_OK if check else EXIT_CHECK_FAILED


def cmd_obstruct(args) -> int:
    report = decomp.obstruction_search(args.q, args.bound)
    sys.stdout.write(
        f"q={report.q}\td_q={report.d_q}\tdivisor={report.divisor}"
        f"\tresidue={report.witness_residue}\n"
    )
    for p, d_p, divides in report.primes:
        if not divides:
            sys.stdout.write(f"p={p}\td_p={d_p}\n")
    return EXIT_OK


def cmd_freebasis(args) -> int:
    label = args.preset or args.file
    data = Path(label).read_bytes() if args.file else None  # a missing file runs no lazy module
    presentation = ringalg.read_presentation(data, label) if args.file else ringalg.PRESETS[label]
    cert = ringalg.verify_free_basis(*presentation)
    if cert.free:
        sys.stdout.write(f"{label}: free (verified through degree {cert.bound})\n")
        return EXIT_OK
    sys.stdout.write(
        f"{label}: not free ({cert.failure_kind} fails in degree {cert.failing_degree})\n"
    )
    return EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# verify suites


def _golden_text(name: str) -> str:
    return (resources.files("mfdecomp") / "data" / name).read_text()


def _suite_decomp(w1: levels.Weight1Data) -> Iterator[Check]:
    for tag in decomp.TABLE_BLOCKS:
        flavor = tag.value
        lo, hi = (2, 42) if flavor == "omega" else (4, 23)
        rows = decomp.table_generate(lo, hi, tag, w1)
        generated = _render_table(decomp.table_columns(flavor), rows, "tsv")
        same = generated == _golden_text(f"{flavor}.tsv")
        yield Check(f"golden-table-{flavor}", same, "byte-for-byte")
    for n in range(2, 43):
        group = levels.CongruenceGroup(levels.GroupKind.GAMMA1, n)
        try:
            seq = decomp.omega_decomposition(group, w1)
            closed = seq.as_list()
            oracle = decomp.deconvolve_by_gamma1_block(group, 1, w1).as_list(len(closed))
            report = decomp.verify_consistency(seq, w1)
            detail = "closed form = deconvolution; identities hold"
            check = Check(f"omega-g1-{n}", oracle == closed and report.ok, detail)
        except Exception as exc:  # pragma: no cover - surfaced as failure
            check = Check(f"omega-g1-{n}", False, str(exc))
        yield check
    g1_31 = levels.CongruenceGroup(levels.GroupKind.GAMMA1, 31)
    try:
        decomp.deconvolve_by_gamma1_block(g1_31, 7, w1)
    except NegativeMultiplicity as exc:
        yield Check("gamma1-31-by-7", True, f"fails as required: {exc}")
    else:
        yield Check("gamma1-31-by-7", False, "unexpectedly decomposed")
    for q in (7, 8, 9, 11, 13):
        witnesses = decomp.obstruction_search(q, 1000).witnesses()
        yield Check(f"obstruction-q{q}", len(witnesses) >= 5, f"{len(witnesses)} witnesses")


def _suite_wproj(w1: levels.Weight1Data | None) -> Iterator[Check]:
    grid = [WeightedLine(a, b) for a in range(1, 13) for b in range(1, 13)]
    checks = (hilbert.serre_duality_check(line, -60, 60) for line in grid)
    failures = (f"P({line.a}, {line.b}) {c.detail}" for line, c in zip(grid, checks) if not c)
    failure = next(failures, "")
    yield Check("serre-duality-grid", not failure, failure or "a,b <= 12, |m| <= 60")
    # h0 counts lattice points; the series 1/((1 - t^4)(1 - t^6)) is a second way
    line = WeightedLine(*levels.LEVEL1_WEIGHTS)
    got = [h0_dim(line, k) for k in range(61)]
    expected = hilbert.over_denominator([1], levels.LEVEL1_WEIGHTS, 61)
    yield Check("level1-dimensions", got == expected, f"weights ({line.a},{line.b}), k <= 60")


def _suite_ringalg(w1: levels.Weight1Data | None) -> Iterator[Check]:
    for name, presentation in ringalg.PRESETS.items():
        cert = ringalg.verify_free_basis(*presentation)
        yield Check(f"freebasis-{name}", cert.free, f"degree bound {cert.bound}")
    for name in ringalg.REGULAR_SEQUENCE_CASES:
        algebra, elems, expected = ringalg.regular_sequence_case(name)
        verdict = ringalg.verify_regular_sequence(algebra, elems)
        detail = "regular" if verdict.regular else verdict.detail
        yield Check(f"regseq-{name}", verdict.regular == expected, detail)
    for name in ringalg.WEIERSTRASS_PRESENTATIONS:
        holds = ringalg.weierstrass_identity_check(*ringalg.weierstrass_forms(name))
        yield Check(f"weierstrass-{name}", holds, "c4^3 - c6^2 = 1728*delta")


def _suite_hasse(w1: levels.Weight1Data | None) -> Iterator[Check]:
    for p in HASSE_PRIMES:
        report = eisenstein.hasse_lift(p, 60)
        claim = eisenstein.valuation_claim_check(p)
        detail = f"v2(L)={claim.v2_l}, verdict={report.verdict}"
        yield Check(f"hasse-p{p}", report.passed and claim.ok, detail)


#: Each suite yields its checks; only the decomp suite reads the weight-1 data.
SUITES = {
    "decomp": _suite_decomp,
    "wproj": _suite_wproj,
    "ringalg": _suite_ringalg,
    "hasse": _suite_hasse,
}


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    w1 = _load_weight1(args.weight1) if args.weight1 or "decomp" in names else None
    # every check runs before any line is written, so a suite that raises
    # leaves stdout empty
    checks = [check for name in names for check in SUITES[name](w1)]
    for name, ok, detail in checks:
        fields = ["PASS" if ok else "FAIL", name] + ([detail] if detail else [])
        sys.stdout.write("\t".join(fields) + "\n")
    return EXIT_OK if all(checks) else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    def _int(text: str) -> int:  # an integer option, in ASCII digits as a group level
        return parse_integer(text)

    _int.__name__ = "int"  # argparse's error names the type: "invalid int value: 'x'"

    parser = argparse.ArgumentParser(
        prog="mfdecomp",
        description="Exact invariants and graded decompositions of rings of "
        "modular forms for congruence subgroups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("levels", help="invariants of a congruence group")
    p.add_argument("group", help="group spec: g0:N, g1:N or g:N")
    p.add_argument("--format", choices=["tsv", "json", "markdown"], default="tsv")
    p.set_defaults(func=cmd_levels)

    p = sub.add_parser("table", help="decomposition-number tables")
    p.add_argument("--flavor", choices=TABLE_FLAVORS, required=True)
    p.add_argument("--from", dest="from_", type=_int, required=True)
    p.add_argument("--to", type=_int, required=True)
    p.add_argument("--format", choices=["tsv", "json", "markdown"], default="tsv")
    p.add_argument("--weight1", help="weight-1 override file")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", choices=["all", *SUITES], default="all")
    p.add_argument("--weight1", help="weight-1 override file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("hasse", help="Hasse-invariant lift report")
    p.add_argument("--prime", type=_int, required=True)
    p.add_argument("--prec", type=_int, default=60)
    p.set_defaults(func=cmd_hasse)

    p = sub.add_parser("wproj", help="weighted projective line cohomology")
    p.add_argument("op", choices=["h0", "h1", "serre"])
    p.add_argument("a", type=_int)
    p.add_argument("b", type=_int)
    p.add_argument("m", type=_int)
    p.set_defaults(func=cmd_wproj)

    p = sub.add_parser("obstruct", help="divisibility obstruction search")
    p.add_argument("--q", type=_int, required=True)
    p.add_argument("--bound", type=_int, default=1000)
    p.set_defaults(func=cmd_obstruct)

    p = sub.add_parser("freebasis", help="free-basis certificates")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=FREEBASIS_PRESETS)
    group.add_argument("--file", help="presentation file")
    p.set_defaults(func=cmd_freebasis)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LookupError as exc:  # levels' Weight1Unavailable; no other error runs levels
        if not isinstance(exc, levels.Weight1Unavailable):
            raise
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DATA_UNAVAILABLE
    except (ValueError, OSError) as exc:  # InvalidGroup is a ValueError
        sys.stderr.write(f"error: {exc}\n")
        failed = isinstance(exc, hilbert.DeconvolutionError)  # decomp.DecompositionInvalid too
        return EXIT_CHECK_FAILED if failed else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
