import json
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest

from mfdecomp import cli, decomp, hilbert, ringalg
from mfdecomp.cli import FREEBASIS_PRESETS, SUITES, TABLE_FLAVORS, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_levels_command(capsys):
    code, out, _ = run(capsys, "levels", "g1:23")
    assert code == 0
    header, row = out.splitlines()
    fields = dict(zip(header.split("\t"), row.split("\t")))
    assert fields["index"] == "528"
    assert fields["genus"] == "12"
    assert fields["cusps"] == "22"


def test_levels_gamma_full(capsys):
    code, out, _ = run(capsys, "levels", "g:3")
    assert code == 0
    assert out.splitlines()[1].split("\t")[1:] == ["24", "1", "4", "0", "0", "0"]


def test_levels_rejects_level_one(capsys):
    code, _, err = run(capsys, "levels", "g1:1")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "spec, index",
    [
        # a prime level: n^2 (1 - 1/n^2) = n^2 - 1
        ("g1:1000000000000000003", 1000000000000000003**2 - 1),
        # 998244353 * 1000000007: n prod (1 + 1/p) = (p + 1)(q + 1)
        ("g0:998244359987710471", 998244354 * 1000000008),
    ],
)
def test_levels_with_large_prime_factors_exit_quickly(capsys, spec, index):
    start = time.perf_counter()
    code, out, _ = run(capsys, "levels", spec)
    assert time.perf_counter() - start < 1
    assert code == 0
    header, row = out.splitlines()
    assert dict(zip(header.split("\t"), row.split("\t")))["index"] == str(index)


PSI_13 = 1287836182261 * 2575672364521  # the least strong pseudoprime to the bases 2..41


@pytest.mark.parametrize(
    "argv",
    [
        # psi_13 and 2 * psi_13: their prime factors near 2 * 10^12 would be one "prime" psi_13
        ("levels", f"g0:{PSI_13}"),
        ("levels", f"g1:{2 * PSI_13}"),
        ("hasse", "--prime", str(2**89 - 1)),  # a prime, but not provably so by the strong test
    ],
)
def test_numbers_beyond_the_primality_bound_exit_2(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot decide whether ") and err.endswith(f"exact below psi_13 = {PSI_13}\n")


def test_a_level_just_below_the_primality_bound_factors(capsys):
    # 3 * p with p prime: n prod (1 + 1/p) = 4 (p + 1)
    p = 1105681354893295795320593
    assert 3 * p < PSI_13
    code, out, _ = run(capsys, "levels", f"g0:{3 * p}")
    assert code == 0
    header, row = out.splitlines()
    assert dict(zip(header.split("\t"), row.split("\t")))["index"] == str(4 * (p + 1))


def test_obstruct_at_a_large_prime_exits_quickly(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "obstruct", "--q", "1000000000000000003", "--bound", "100")
    assert time.perf_counter() - start < 1
    assert code == 0
    assert out.splitlines()[0].startswith(f"q=1000000000000000003\td_q={10**36 + 6 * 10**18 + 8}")


def test_levels_json_roundtrip(capsys):
    code, out, _ = run(capsys, "levels", "g0:11", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert json.dumps(doc) + "\n" == out  # serialization is canonical
    assert doc["rows"][0][doc["columns"].index("genus")] == 1


def test_table_matches_golden_files(capsys):
    for flavor, golden, lo, hi in (
        ("omega", "omega.tsv", 2, 42),
        ("level2", "level2.tsv", 4, 23),
        ("level3", "level3.tsv", 4, 23),  # clamped to 5
    ):
        code, out, _ = run(
            capsys, "table", "--flavor", flavor, "--from", str(lo), "--to", str(hi)
        )
        assert code == 0
        expected = (resources.files("mfdecomp") / "data" / golden).read_text()
        assert out == expected


def test_table_output_is_deterministic(capsys):
    first = run(capsys, "table", "--flavor", "omega", "--from", "2", "--to", "42")
    second = run(capsys, "table", "--flavor", "omega", "--from", "2", "--to", "42")
    assert first == second


def test_table_tsv_formatting(capsys):
    _, out, _ = run(capsys, "table", "--flavor", "level3", "--from", "5", "--to", "7")
    lines = out.split("\n")
    assert lines[-1] == ""  # single trailing LF
    for line in lines[:-1]:
        assert line == line.rstrip()
        assert "\t" in line


def test_table_markdown(capsys):
    code, out, _ = run(
        capsys, "table", "--flavor", "level3", "--from", "5", "--to", "6",
        "--format", "markdown",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("| n | k0 |")
    assert set(lines[1]) <= {"|", "-", " "}
    assert lines[2] == "| 5 | 1 | 1 | 1 | 0 | 0 | 0 |"


def test_table_beyond_coverage_exits_3(capsys):
    code, _, err = run(capsys, "table", "--flavor", "omega", "--from", "43", "--to", "43")
    assert code == 3
    assert "weight-1" in err


def test_table_with_override_extends_coverage(capsys, tmp_path):
    override = tmp_path / "w1.txt"
    override.write_text("g1 43 0\ng1 44 0\n")
    code, out, _ = run(
        capsys, "table", "--flavor", "omega", "--from", "43", "--to", "44",
        "--weight1", str(override),
    )
    assert code == 0
    assert len(out.splitlines()) == 3


def test_corrupted_override_fails_verify(capsys, tmp_path):
    override = tmp_path / "w1.txt"
    override.write_text("g1 23 0\n")  # wrong: s_1(Gamma1(23)) = 1
    code, out, _ = run(capsys, "verify", "--suite", "decomp", "--weight1", str(override))
    assert code == 1
    failing = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert failing
    # the corrupted weight-1 value shifts the tabulated rows off the goldens
    assert any("golden-table" in line for line in failing)


@pytest.mark.parametrize(
    "line, message",
    [
        ("g0 11 5", "s1 of g0:11 is forced to be 0"),
        ("g1 5 3", "s1 of g1:5 is forced to be 0"),  # by the degree criterion
        ("g 3 1", "s1 of g:3 is forced to be 0"),
        ("g1 1 0", "level must be >= 2, got 1"),
    ],
)
def test_override_contradicting_a_forced_value_exits_2(capsys, tmp_path, line, message):
    override = tmp_path / "w1.txt"
    override.write_text(f"# weight-1 overrides\n{line}\n")
    code, out, err = run(capsys, "verify", "--suite", "decomp", "--weight1", str(override))
    assert (code, out) == (2, "")
    assert err == f"error: {override}:2: {message}\n"


@pytest.mark.parametrize("suite", ["all", *SUITES])
def test_a_malformed_override_exits_2_whatever_the_suite(capsys, tmp_path, suite):
    # the file is read before any suite runs, even by a suite that never reads the table
    override = tmp_path / "w1.txt"
    override.write_text("g1 23\n")
    code, out, err = run(capsys, "verify", "--suite", suite, "--weight1", str(override))
    assert (code, out, err) == (2, "", f"error: {override}:1: expected 'kind level s1'\n")


def test_override_with_an_unknown_kind_exits_2_as_a_group_spec_does(capsys, tmp_path):
    override = tmp_path / "w1.txt"
    override.write_text("g2 5 0\n")
    code, out, err = run(
        capsys, "table", "--flavor", "omega", "--from", "5", "--to", "5", "--weight1", str(override)
    )
    assert (code, out, err) == (2, "", f"error: {override}:1: unknown group kind 'g2'\n")
    assert run(capsys, "levels", "g2:5") == (2, "", "error: unknown group kind 'g2'\n")


def test_override_consistent_with_forced_values_passes_verify(capsys, tmp_path):
    override = tmp_path / "w1.txt"
    override.write_text("g1 5 0\ng0 11 0\n")
    code, out, _ = run(capsys, "verify", "--suite", "decomp", "--weight1", str(override))
    assert code == 0
    assert all(line.startswith("PASS\t") for line in out.splitlines())


def test_verify_writes_nothing_when_a_suite_raises(capsys, tmp_path):
    override = tmp_path / "w1.txt"
    override.write_text("g1 23 40\n")  # the level-2 table row for 23 goes negative
    code, out, err = run(capsys, "verify", "--suite", "decomp", "--weight1", str(override))
    assert (code, out) == (1, "")
    assert err == "error: level2 multiplicity at shift 5 is -7 < 0 for g1:23\n"


@pytest.fixture
def h1_off_by_one(monkeypatch):
    h1_values = hilbert._h1_values  # the one reader of h1, per line
    monkeypatch.setattr(hilbert, "_h1_values", lambda line, twists: (h1 + 1 for h1 in h1_values(line, twists)))


def test_wproj_serre_failure_exits_1(capsys, h1_off_by_one):
    assert run(capsys, "wproj", "serre", "4", "6", "60")[:2] == (1, "serre duality fails at m=-60\n")


def test_verify_wproj_names_the_first_failing_line(capsys, h1_off_by_one):
    code, out, _ = run(capsys, "verify", "--suite", "wproj")
    assert code == 1
    assert out.splitlines() == [
        "FAIL\tserre-duality-grid\tP(1, 1) fails at m=-60",
        "PASS\tlevel1-dimensions\tweights (4,6), k <= 60",
    ]


def test_verify_level1_dimensions_fails_with_h0_off_by_one_at_one_weight(capsys, monkeypatch):
    # the check compares h0 with the series 1/((1 - t^4)(1 - t^6)), not with h0 again
    h0 = cli.h0_dim
    monkeypatch.setattr(cli, "h0_dim", lambda line, k: h0(line, k) + (k == 24))
    code, out, _ = run(capsys, "verify", "--suite", "wproj")
    assert code == 1
    assert out.splitlines() == [
        "PASS\tserre-duality-grid\ta,b <= 12, |m| <= 60",
        "FAIL\tlevel1-dimensions\tweights (4,6), k <= 60",
    ]


def test_verify_suite_choices_are_the_suites():
    args = build_parser().parse_args(["verify"])
    assert args.suite == "all"
    for suite in SUITES:
        assert build_parser().parse_args(["verify", "--suite", suite]).suite == suite
    with pytest.raises(SystemExit):
        build_parser().parse_args(["verify", "--suite", "bogus"])


def test_flavor_and_preset_choices_are_the_library_names():
    # written out in cli so that building the parser executes neither module
    assert TABLE_FLAVORS == tuple(sorted(tag.value for tag in decomp.TABLE_BLOCKS))
    assert FREEBASIS_PRESETS == tuple(sorted(ringalg.PRESETS))


def test_verify_suites_pass(capsys):
    for suite in ("wproj", "ringalg", "decomp"):
        code, out, _ = run(capsys, "verify", "--suite", suite)
        assert code == 0, out
        assert all(line.startswith("PASS") for line in out.splitlines() if line)


def test_wproj_commands(capsys):
    assert run(capsys, "wproj", "h1", "4", "6", "-10")[:2] == (0, "1\n")
    assert run(capsys, "wproj", "h0", "4", "6", "12")[:2] == (0, "2\n")
    code, out, _ = run(capsys, "wproj", "serre", "4", "6", "60")
    assert code == 0 and "holds" in out


def test_obstruct_command(capsys):
    code, out, _ = run(capsys, "obstruct", "--q", "7", "--bound", "100")
    assert code == 0
    assert out.splitlines()[0].startswith("q=7\td_q=48")
    assert "p=19\t" in out


def test_hasse_command(capsys):
    code, out, _ = run(capsys, "hasse", "--prime", "5", "--prec", "20")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass"
    assert doc["p"] == 5
    assert json.dumps(doc) == out.strip()


def test_freebasis_presets(capsys):
    code, out, _ = run(capsys, "freebasis", "--preset", "f2-rank4")
    assert code == 0
    assert "free" in out


def test_freebasis_from_file(capsys, tmp_path):
    spec = tmp_path / "pres.txt"
    spec.write_text(
        "char 3\n"
        "var b2 2\n"
        "var b4 4\n"
        "gen b2 = b2\n"
        "gen delta = b2^2*b4^2 - b4^3\n"
        "basis 1\n"
        "basis b4\n"
        "basis b4^2\n"
        "bound 24\n"
    )
    code, out, _ = run(capsys, "freebasis", "--file", str(spec))
    assert code == 0
    assert "free" in out
    # without a bound line the file is checked through the library default
    spec.write_text(spec.read_text().replace("bound 24\n", ""))
    code, out, _ = run(capsys, "freebasis", "--file", str(spec))
    assert (code, out) == (0, f"{spec}: free (verified through degree {ringalg.FREE_BASIS_BOUND})\n")


def test_freebasis_wrong_basis_fails(capsys, tmp_path):
    spec = tmp_path / "pres.txt"
    spec.write_text(
        "char 3\nvar b2 2\nvar b4 4\n"
        "gen b2 = b2\ngen delta = b2^2*b4^2 - b4^3\n"
        "basis 1\nbasis b4\nbound 24\n"
    )
    code, out, _ = run(capsys, "freebasis", "--file", str(spec))
    assert code == 1
    assert "not free" in out


@pytest.mark.parametrize(
    "gen, bound, message",
    [
        ("b2 = b2", "-3", "degree bound must be >= 0, got -3"),
        ("c = 1", "24", "subring generator c must have positive degree"),
        ("c4 = 1/0*b2^2", "24", "zero denominator in '1/0'"),
        ("c4 = b2^+b4", "24", "empty exponent in 'b2^'"),
    ],
)
def test_freebasis_bad_file_is_usage_error(capsys, tmp_path, gen, bound, message):
    spec = tmp_path / "pres.txt"
    spec.write_text(
        "char 0\nvar b2 2\nvar b4 4\n"
        f"gen {gen}\ngen delta = 1/4*b2^2*b4^2 - 8*b4^3\n"
        f"basis 1\nbasis b4\nbound {bound}\n"
    )
    code, out, err = run(capsys, "freebasis", "--file", str(spec))
    assert code == 2
    assert out == ""
    # every case but the negative bound fails in the gen on line 4, the bound on line 8
    where = f"{spec}:4: " if int(bound) >= 0 else f"{spec}:8: "
    assert err == f"error: {where}{message}\n"


def test_freebasis_composite_characteristic_is_usage_error(capsys, tmp_path):
    # the F_3 rank-3 presentation is not a certificate over Z/9, which is no field
    spec = tmp_path / "pres.txt"
    spec.write_text(
        "char 9\nvar b2 2\nvar b4 4\n"
        "gen b2 = b2\ngen delta = b2^2*b4^2 - b4^3\n"
        "basis 1\nbasis b4\nbasis b4^2\nbound 24\n"
    )
    code, out, err = run(capsys, "freebasis", "--file", str(spec))
    assert code == 2
    assert out == ""
    assert err == f"error: {spec}:1: characteristic must be 0 or a prime, got 9\n"


def test_freebasis_large_composite_characteristic_exits_quickly(capsys, tmp_path):
    # 998244353 * 1000000007: a trial-division primality test never finishes
    spec = tmp_path / "pres.txt"
    spec.write_text(
        "char 998244359987710471\nvar b2 2\nvar b4 4\n"
        "gen b2 = b2\ngen delta = b2^2*b4^2 - b4^3\n"
        "basis 1\nbasis b4\nbasis b4^2\nbound 24\n"
    )
    start = time.perf_counter()
    code, out, err = run(capsys, "freebasis", "--file", str(spec))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == f"error: {spec}:1: characteristic must be 0 or a prime, got 998244359987710471\n"


@pytest.mark.parametrize(
    "text, lineno, message",
    [
        (
            "char 2\nvar a1 1\nvar a1 3\ngen a1 = a1\ngen delta = a1^4\n",
            3,
            "variable 'a1' is declared twice",
        ),
        (  # "2*2" would read as the square of a variable named 2
            "var 2 1\nvar b 3\ngen c = 2*2\ngen d = b\nbasis 2\n",
            1,
            "variable name '2' is not an identifier",
        ),
    ],
)
def test_freebasis_malformed_input_is_usage_error(capsys, tmp_path, text, lineno, message):
    spec = tmp_path / "pres.txt"
    spec.write_text(text + "basis 1\nbound 6\n")
    code, out, err = run(capsys, "freebasis", "--file", str(spec))
    assert (code, out, err) == (2, "", f"error: {spec}:{lineno}: {message}\n")


@pytest.mark.parametrize(
    "text, lineno, message",
    [
        ("char 3\nvar b2\n", 2, "expected 'var name degree'"),
        ("var b2 2 4\n", 1, "expected 'var name degree'"),
        ("var b2 two\n", 1, "invalid literal for int() with base 10: 'two'"),
        ("char two\n", 1, "invalid literal for int() with base 10: 'two'"),
        ("var b2 2\nbound 4.5\n", 2, "invalid literal for int() with base 10: '4.5'"),
        ("var b2 2\n\n# a comment\ngen c b2\n", 4, "expected 'gen name = polynomial'"),
        ("var b2 2\nvars b4 4\n", 2, "unknown directive 'vars'"),
        # the algebra's own checks, each at the line that fails it
        ("var b2 0\n", 1, "variable degrees must be positive"),
        ("var b2 2\n\nchar 4\n", 3, "characteristic must be 0 or a prime, got 4"),
        ("var b2 2\nbound -1\n", 2, "degree bound must be >= 0, got -1"),
        # the polynomial texts, parsed once the whole file is read
        (
            "char 2\nvar a1 1\nvar a3 3\ngen a1 = 1/2*a1\ngen delta = a3^4 + a1^3*a3^3\n",
            4,
            "coefficient 1/2 is undefined in characteristic 2",
        ),
        ("var b2 2\ngen d =\n", 2, "empty polynomial"),
        (
            "var b2 2\nvar b4 4\ngen d = b2 + b4\n",
            3,
            "expected a nonzero homogeneous polynomial, degrees [2, 4]",
        ),
        ("var b2 2\ngen d = b2 - b2\n", 2, "expected a nonzero homogeneous polynomial, degrees []"),
        ("var b2 2\nbasis b2 + 1\n", 2, "expected a nonzero homogeneous polynomial, degrees [0, 2]"),
        ("var b2 2\n\nbasis 0*b2\n", 3, "expected a nonzero homogeneous polynomial, degrees []"),
        ("var b2 2\nbasis b2^\n", 2, "empty exponent in 'b2^'"),
    ],
)
def test_freebasis_file_errors_name_the_line(capsys, tmp_path, text, lineno, message):
    spec = tmp_path / "pres.txt"
    spec.write_text(text + "gen c = b2\nbasis 1\n")
    code, out, err = run(capsys, "freebasis", "--file", str(spec))
    assert (code, out, err) == (2, "", f"error: {spec}:{lineno}: {message}\n")


#: Q[a1, b2] over itself on the basis 1; each case below spoils one line of it.
PLAIN_FILE = "var a1 1\nvar b2 2\ngen x = a1\ngen y = b2\nbasis 1\n"


@pytest.mark.parametrize(
    "text, lineno, message",
    [
        (  # the F_3 rank-3 presentation, which int() read as F_3 through degree 10
            "char \u0663\nvar b2 2\nvar b4 4\ngen b2 = b2\ngen delta = b2^2*b4^2 - b4^3\n"
            "basis 1\nbasis b4\nbasis b4^2\nbound 1_0\n",
            1,
            "invalid literal for int() with base 10: '\u0663'",
        ),
        ("bound 1_0\n" + PLAIN_FILE, 1, "invalid literal for int() with base 10: '1_0'"),
        (PLAIN_FILE.replace("var b2 2", "var b2 \u0662"), 2, "invalid literal for int() with base 10: '\u0662'"),
        (PLAIN_FILE.replace("gen y = b2", "gen y = \u0661*b2^2"), 4, "unknown variable '\u0661'"),
        (PLAIN_FILE.replace("basis 1", "basis a1^\u0661"), 5, "invalid literal for int() with base 10: '\u0661'"),
        (PLAIN_FILE.replace("basis 1", "basis 1_0*b2"), 5, "unknown variable '1_0'"),
        (PLAIN_FILE.replace("basis 1", "basis 0.5*b2"), 5, "unknown variable '0.5'"),
        (PLAIN_FILE.replace("basis 1", "basis 1e3*b2"), 5, "unknown variable '1e3'"),
    ],
    ids=["char-and-bound", "bound", "var", "constant", "exponent", "separator", "decimal", "e-notation"],
)
def test_freebasis_file_numbers_are_ascii_integers(capsys, tmp_path, text, lineno, message):
    spec = tmp_path / "pres.txt"
    spec.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "freebasis", "--file", str(spec))
    assert (code, out, err) == (2, "", f"error: {spec}:{lineno}: {message}\n")


def test_plain_file_is_free():
    # the cases above fail only by the line each one spoils
    assert ringalg.verify_free_basis(*ringalg.read_presentation(PLAIN_FILE, "plain")).free


def test_freebasis_directive_ends_at_any_whitespace(capsys, tmp_path):
    # the f3-rank3 presentation with a tab after each directive and between fields
    spec = tmp_path / "pres.txt"
    spec.write_text(
        "char\t3\nvar\tb2\t2\nvar\tb4\t4\ngen\tb2\t=\tb2\n"
        "gen\tdelta\t=\t1/4*b2^2*b4^2 - 8*b4^3\nbasis\t1\nbasis\tb4\nbasis\tb4^2\nbound\t48\n"
    )
    assert ringalg.read_presentation(spec.read_text(), str(spec)) == ringalg.PRESETS["f3-rank3"]
    code, out, _ = run(capsys, "freebasis", "--file", str(spec))
    assert (code, out) == (0, f"{spec}: free (verified through degree 48)\n")


def test_freebasis_polynomial_ignores_whitespace(capsys, tmp_path):
    # the q-rank6 presentation with a tab on each side of the '*' in line 8
    spec = tmp_path / "pres.txt"
    spec.write_text(
        "var b2 2\nvar b4 4\ngen c4 = b2^2 - 24*b4\ngen delta = 1/4*b2^2*b4^2 - 8*b4^3\n"
        + "".join(f"basis {b}\n" for b in ("1", "b2", "b4", "b2\t*\tb4", "b4^2", "b2*b4^2"))
    )
    assert ringalg.read_presentation(spec.read_text(), str(spec)) == ringalg.PRESETS["q-rank6"]
    code, out, err = run(capsys, "freebasis", "--file", str(spec))
    assert (code, out, err) == (0, f"{spec}: free (verified through degree 48)\n", "")


@pytest.mark.parametrize(
    "directive, lines", [("bound", "bound 6\nbound 2\n"), ("char", "char 0\nchar 3\nbound 6\n")]
)
def test_freebasis_repeated_directive_is_usage_error(capsys, tmp_path, directive, lines):
    # the q-rank6 presentation, free in both characteristics and through both bounds
    spec = tmp_path / "pres.txt"
    spec.write_text(
        "var b2 2\nvar b4 4\ngen c4 = b2^2 - 24*b4\ngen delta = 1/4*b2^2*b4^2 - 8*b4^3\n"
        + "".join(f"basis {b}\n" for b in ("1", "b2", "b4", "b2*b4", "b4^2", "b2*b4^2"))
        + lines
    )
    code, out, err = run(capsys, "freebasis", "--file", str(spec))
    assert (code, out, err) == (2, "", f"error: {spec}:12: repeated '{directive}' line\n")


@pytest.mark.parametrize(
    "argv",
    [("table", "--flavor", "omega", "--from", "43", "--to", "43", "--weight1"), ("freebasis", "--file")],
    ids=["weight1", "file"],
)
def test_an_undecodable_input_file_names_the_file(capsys, tmp_path, argv):
    spec = tmp_path / "input.txt"
    spec.write_bytes(b"g1 43 0\n\xff\n")
    code, out, err = run(capsys, *argv, str(spec))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {spec}: ")
    assert err.endswith(" can't decode byte 0xff in position 8: invalid start byte\n")


@pytest.mark.parametrize(
    "text, missing",
    [
        ("", "var"),
        ("# only a comment\n\n", "var"),
        ("char 3\nvar b2 2\nbasis 1\nbound 4\n", "gen"),
        ("var b2 2\ngen b2 = b2\n", "basis"),
    ],
)
def test_freebasis_incomplete_file_is_usage_error(capsys, tmp_path, text, missing):
    spec = tmp_path / "pres.txt"
    spec.write_text(text)
    code, out, err = run(capsys, "freebasis", "--file", str(spec))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and f"no '{missing}' line in" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["table", "--flavor", "bogus", "--from", "2", "--to", "3"])
    assert exc.value.code == 2


INTEGER_OPTIONS = [
    ("hasse", "--prime", "{}"),
    ("hasse", "--prime", "17", "--prec", "{}"),
    ("obstruct", "--q", "{}"),
    ("obstruct", "--q", "13", "--bound", "{}"),
    ("table", "--flavor", "omega", "--from", "{}", "--to", "5"),
    ("table", "--flavor", "omega", "--from", "2", "--to", "{}"),
    ("wproj", "h0", "{}", "2", "5"),
    ("wproj", "h0", "1", "{}", "5"),
    ("wproj", "h0", "1", "2", "{}"),
]


@pytest.mark.parametrize("text", ["1_7", "١٣", "３", "+5", "x", "5.0", ""])
@pytest.mark.parametrize("template", INTEGER_OPTIONS, ids=" ".join)
def test_integer_options_take_ascii_digits_only(capsys, template, text):
    argv = [arg.format(text) for arg in template]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    _, err = capsys.readouterr()
    assert exc.value.code == 2
    assert err.endswith(f": invalid int value: {text!r}\n")


def test_integer_options_still_take_signed_ascii_integers(capsys):
    assert run(capsys, "hasse", "--prime", " 17 ") == run(capsys, "hasse", "--prime", "17")
    assert run(capsys, "wproj", "h1", "1", "2", "-5")[:2] == (0, "2\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("obstruct", "--q", "13", "--bound", "-1"), "prime bound must be >= 2"),
        (("table", "--flavor", "omega", "--from", "10", "--to", "5"), "empty level range 10..5"),
        (("table", "--flavor", "level3", "--from", "4", "--to", "4"), "this table starts at 5"),
    ],
)
def test_empty_request_is_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_python_dash_m_runs_the_cli(capsys):
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-m", "mfdecomp", "levels", "g1:23"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert done.returncode == main(["levels", "g1:23"]) == 0
    assert done.stdout == capsys.readouterr().out
