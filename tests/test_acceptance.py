"""Acceptance suite: one test per top-level claim the tool must reproduce.

1. The omega-power decomposition table for Gamma1(2..42), exactly.
2. The level-3 and level-2 block tables for Gamma1(n) up to 23, exactly.
3. Closed forms agree with Hilbert-function deconvolution; the convolution
   identity m_k = sum_i l_i * d_{k-i} holds through weight 40.
4. Rank and balance identities for every tabulated level.
5. Serre duality on weighted projective lines, and the level-1 dimension
   sequence, against brute-force lattice counts.
6. The four free-basis certificates and the regular-sequence checks, with
   failing negative controls.
7. The Hasse-invariant lift: F = 1 mod 2 at precision 60 and the exact
   valuation relation v2(L) + v2(1 - zeta) = 1, both exponent variants
   recorded.
8. Divisibility obstructions for q in {7, 8, 9, 11, 13} and the failure of
   the Gamma1(31)-by-Gamma1(7) decomposition.
"""

import time
from fractions import Fraction
from importlib import resources

import pytest

from mfdecomp import cli, decomp, ringalg
from mfdecomp.cli import _render_table
from mfdecomp.decomp import BlockTag, table_columns
from mfdecomp.eisenstein import hasse_lift, valuation_claim_check
from mfdecomp.hilbert import NegativeMultiplicity, WeightedLine, h0_dim, h1_dim
from mfdecomp.levels import CongruenceGroup, GroupKind, dim_modular_forms, level_invariants
from oracles import convolve

G1 = lambda n: CongruenceGroup(GroupKind.GAMMA1, n)


def golden(name):
    return (resources.files("mfdecomp") / "data" / name).read_text()


def test_criterion_1_omega_table():
    start = time.monotonic()
    rows = decomp.table_generate(2, 42, BlockTag.OMEGA_POWERS)
    rendered = _render_table(table_columns("omega"), rows, "tsv")
    assert rendered == golden("omega.tsv")
    assert len(rows) == 41
    assert time.monotonic() - start < 1.0


def test_omega_rows_are_the_closed_form_of_three_numbers():
    # each published row for n = 5..42 is (1, d - g - 1 + s_1, g - 2 s_1, s_1) [4] [6],
    # [k] = 1 + t + ... + t^(k-1), from its genus g, d = (l_2 + g - 1)/2 and s_1 = l_11:
    # read from the file alone, with nothing of levels
    four_six = [convolve([1] * 4, [1] * 6, k) for k in range(9)]
    rows = [list(map(int, line.split("\t"))) for line in golden("omega.tsv").splitlines()[1:]]
    checked = 0
    for n, g, *ls in rows:
        if n < 5:
            continue
        d, odd = divmod(ls[2] + g - 1, 2)
        assert odd == 0, n
        s1 = ls[11]
        assert ls == [convolve((1, d - g - 1 + s1, g - 2 * s1, s1), four_six, k) for k in range(12)], n
        assert ls[10] == g, n
        checked += 1
    assert checked == 38


def test_criterion_2_block_tables():
    rows3 = decomp.table_generate(4, 23, BlockTag.LEVEL3)
    assert _render_table(table_columns("level3"), rows3, "tsv") == golden("level3.tsv")
    rows2 = decomp.table_generate(4, 23, BlockTag.LEVEL2)
    assert _render_table(table_columns("level2"), rows2, "tsv") == golden("level2.tsv")


def test_criterion_3_oracle_equivalence():
    start = time.monotonic()
    block = [h0_dim(WeightedLine(4, 6), k) for k in range(41)]
    for n in range(2, 43):
        group = G1(n)
        seq = decomp.omega_decomposition(group)
        oracle = decomp.deconvolve_by_gamma1_block(group, 1)
        assert seq.as_list() == oracle.as_list(12), n
        for k in range(41):
            assert dim_modular_forms(group, k) == convolve(seq.mult.multiplicities, block, k), (n, k)
        if n >= 5:
            for maker, q in (
                (decomp.level3_decomposition, 3),
                (decomp.level2_decomposition, 2),
            ):
                closed = maker(group)
                direct = decomp.deconvolve_by_gamma1_block(group, q)
                width = len(closed.as_list())
                assert closed.as_list() == direct.as_list(width), (n, q)
    assert time.monotonic() - start < 5.0


def test_criterion_4_rank_and_balance_identities():
    for n in range(2, 43):
        d = level_invariants(G1(n)).index
        assert sum(decomp.omega_decomposition(G1(n)).as_list()) == d
        if n >= 4:
            assert 3 * sum(decomp.level2_decomposition(G1(n)).as_list()) == d
        if n >= 5:
            k = decomp.level3_decomposition(G1(n)).as_list()
            assert 8 * sum(k) == d
            assert k[0] + k[3] == k[1] + k[4] == k[2] + k[5]
            assert 24 * sum(decomp.level456_decomposition(G1(n), 5).as_list()) == d
            assert 24 * sum(decomp.level456_decomposition(G1(n), 6).as_list()) == d


def test_criterion_5_weighted_projective_duality():
    cases = 0
    for a in range(1, 13):
        for b in range(1, 13):
            for m in range(-60, 61):
                assert h0_dim(WeightedLine(a, b), m) == h1_dim(
                    WeightedLine(a, b), -m - a - b
                ), (a, b, m)
                cases += 1
    assert cases == 12 * 12 * 121
    line = WeightedLine(4, 6)
    for k in range(61):
        brute = sum(
            1
            for i in range(k + 1)
            for j in range(k + 1)
            if 4 * i + 6 * j == k
        )
        assert h0_dim(line, k) == brute


@pytest.mark.parametrize(
    "argv, line",
    [
        (["wproj", "serre", "1", "1", "10000"], "serre duality holds on [-10000, 10000]"),
        (["wproj", "h0", "1", "1", "100000000"], "100000001"),
    ],
)
def test_criterion_5_large_windows_within_the_1_s_gate(capsys, argv, line):
    # h0 and h1 are residue-class counts, O(1) per degree: no walk over lam
    start = time.monotonic()
    assert cli.main(argv) == 0
    assert time.monotonic() - start < 1.0
    assert capsys.readouterr().out == line + "\n"


def test_criterion_6_certificates_and_regular_sequences():
    for name in ("f2-rank4", "f3-rank3", "q-rank6", "q-rank16"):
        cert = ringalg.verify_free_basis(*ringalg.PRESETS[name])
        assert cert.free and cert.bound == 48, name
    for name, (char, variables, exprs, expected) in sorted(
        ringalg.REGULAR_SEQUENCE_CASES.items()
    ):
        algebra = ringalg.GradedAlgebra(char, variables)
        elems = [ringalg.parse_polynomial(algebra, e) for e in exprs]
        assert ringalg.verify_regular_sequence(algebra, elems).regular == expected
    # negative controls
    algebra, c4, c6, _ = ringalg.WEIERSTRASS_PRESENTATIONS["level3"]
    assert not ringalg.weierstrass_identity_check(
        ringalg.parse_polynomial(algebra, c4),
        ringalg.parse_polynomial(algebra, c6),
        ringalg.parse_polynomial(algebra, "a1^3*a3^3 - 26*a3^4"),
    )
    f3 = ringalg.GradedAlgebra(3, (("b2", 2), ("b4", 4)))
    assert not ringalg.verify_regular_sequence(
        f3, [ringalg.parse_polynomial(f3, "b2^2"), ringalg.parse_polynomial(f3, "b2^3")]
    ).regular


def test_criterion_7_hasse_lift():
    start = time.monotonic()
    for p in (5, 13, 17, 29, 37, 41, 53, 61):
        report = hasse_lift(p, 60)
        assert report.passed, p
        claim = valuation_claim_check(p)
        assert claim.sum_is_one and claim.congruence_ok, p
        assert claim.v2_l + claim.v2_one_minus_zeta == 1
        assert report.paper_exponent == 1 - Fraction(1, 2 ** (report.m - 2))
        assert report.computed_exponent == 1 - Fraction(1, 2 ** (report.m - 1))
        assert claim.v2_l == report.computed_exponent
    assert time.monotonic() - start < 10.0


def test_criterion_8_obstructions():
    for q in (7, 8, 9, 11, 13):
        report = decomp.obstruction_search(q, 1000)
        assert len(report.witnesses()) >= 5, q
    with pytest.raises(NegativeMultiplicity):
        decomp.deconvolve_by_gamma1_block(G1(31), 7)
