from importlib import resources

import pytest

from mfdecomp.decomp import (
    BlockTag,
    DecompositionInvalid,
    DecompositionSequence,
    UnsupportedGroup,
    base_block,
    deconvolve_by_gamma1_block,
    dimension_function,
    level2_decomposition,
    level3_decomposition,
    level456_decomposition,
    obstruction_search,
    omega_decomposition,
    table_generate,
    verify_consistency,
)
from mfdecomp.hilbert import NegativeMultiplicity, TwistMultiset
from mfdecomp.levels import CongruenceGroup, GroupKind, index, is_prime

G1 = lambda n: CongruenceGroup(GroupKind.GAMMA1, n)
G0 = lambda n: CongruenceGroup(GroupKind.GAMMA0, n)
GF = lambda n: CongruenceGroup(GroupKind.GAMMA_FULL, n)


def golden_rows(name, width):
    text = (resources.files("mfdecomp") / "data" / name).read_text()
    rows = {}
    for line in text.splitlines()[1:]:
        fields = [int(x) for x in line.split("\t")]
        rows[fields[0]] = fields[-width:]
    return rows


def test_omega_examples():
    assert omega_decomposition(G1(3)).as_list() == [1, 1, 1, 2, 1, 1, 1, 0, 0, 0, 0, 0]
    assert omega_decomposition(G1(23)).as_list() == [
        1, 12, 33, 55, 76, 87, 87, 76, 55, 33, 12, 1,
    ]
    assert omega_decomposition(G1(42)).as_list() == [
        1, 24, 72, 120, 167, 192, 191, 168, 120, 72, 25, 0,
    ]


def test_level3_examples():
    assert level3_decomposition(G1(5)).as_list() == [1, 1, 1, 0, 0, 0]
    assert level3_decomposition(G1(23)).as_list() == [1, 11, 21, 21, 11, 1]
    assert level3_decomposition(G1(17)).as_list() == [1, 7, 12, 11, 5, 0]


def test_level2_examples():
    assert level2_decomposition(G1(4)).as_list() == [1, 1, 1, 1, 0, 0, 0, 0]
    assert level2_decomposition(G1(23)).as_list() == [1, 12, 32, 43, 43, 32, 12, 1]
    assert level2_decomposition(G1(11)).as_list() == [1, 5, 9, 10, 9, 5, 1, 0]
    assert level3_decomposition(G1(11)).as_list() == [1, 4, 5, 4, 1, 0]


def test_level56_examples():
    assert level456_decomposition(G1(5), 5).as_list() == [1, 0, 0, 0]
    assert level456_decomposition(G1(7), 5).as_list() == [1, 1, 0, 0]
    assert level456_decomposition(G1(23), 5).as_list() == [1, 10, 10, 1]
    assert (
        level456_decomposition(G1(23), 6).as_list()
        == level456_decomposition(G1(23), 5).as_list()
    )


def test_level4_decomposition():
    # the level-4 block equals four omega-twisted level-2 blocks
    assert level456_decomposition(G1(4), 4).as_list() == [1, 0, 0, 0, 0]
    assert level456_decomposition(G1(5), 4).as_list() == [1, 1, 0, 0, 0]
    seq23 = level456_decomposition(G1(23), 4)
    assert seq23.as_list() == [1, 11, 20, 11, 1]
    assert seq23.mult.total() * 12 == index(G1(23))


def test_unsupported_groups():
    with pytest.raises(UnsupportedGroup):
        level3_decomposition(G1(4))
    with pytest.raises(UnsupportedGroup):
        level2_decomposition(G1(3))
    with pytest.raises(UnsupportedGroup):
        level456_decomposition(G0(7), 5)
    with pytest.raises(ValueError):
        level456_decomposition(G1(7), 7)


def test_blocks():
    assert base_block(BlockTag.OMEGA_POWERS).rank == 1
    assert base_block(BlockTag.LEVEL2).rank == 3
    assert base_block(BlockTag.LEVEL3).rank == 8
    assert base_block(BlockTag.LEVEL4).rank == 12
    assert base_block(BlockTag.LEVEL5OR6).rank == 24
    for tag in BlockTag:
        assert base_block(tag).hilbert(0) == 1
    # level-5/6 block = convolution of (1,2,3,4,4,4,3,2,1) with the level-1 dims
    omega = base_block(BlockTag.OMEGA_POWERS).hilbert
    kernel = [1, 2, 3, 4, 4, 4, 3, 2, 1]
    five = base_block(BlockTag.LEVEL5OR6).hilbert
    for k in range(41):
        assert five(k) == sum(c * omega(k - i) for i, c in enumerate(kernel))


@pytest.mark.parametrize("n", range(2, 43))
def test_closed_form_equals_deconvolution(n):
    seq = omega_decomposition(G1(n))
    oracle = deconvolve_by_gamma1_block(G1(n), 1)
    assert seq.as_list() == oracle.as_list(12)


@pytest.mark.parametrize("n", range(2, 43))
def test_verify_consistency_gamma1(n):
    assert verify_consistency(omega_decomposition(G1(n))).ok
    if n >= 4:
        assert verify_consistency(level2_decomposition(G1(n))).ok
    if n >= 5:
        assert verify_consistency(level3_decomposition(G1(n))).ok
        assert verify_consistency(level456_decomposition(G1(n), 5)).ok
        assert verify_consistency(level456_decomposition(G1(n), 4)).ok


@pytest.mark.parametrize("n", range(2, 43))
def test_rank_identities(n):
    d = index(G1(n))
    assert sum(omega_decomposition(G1(n)).as_list()) == d
    if n >= 4:
        assert 3 * sum(level2_decomposition(G1(n)).as_list()) == d
    if n >= 5:
        assert 8 * sum(level3_decomposition(G1(n)).as_list()) == d
        assert 24 * sum(level456_decomposition(G1(n), 5).as_list()) == d
        assert 24 * sum(level456_decomposition(G1(n), 6).as_list()) == d


@pytest.mark.parametrize("n", range(5, 24))
def test_balance_identity(n):
    k = level3_decomposition(G1(n)).as_list()
    assert k[0] + k[3] == k[1] + k[4] == k[2] + k[5]


def test_gamma_full_groups():
    seq = omega_decomposition(GF(4))
    assert sum(seq.as_list()) == index(GF(4)) == 48
    assert verify_consistency(seq).ok
    for n in (3, 4, 5):
        assert verify_consistency(level3_decomposition(GF(n))).ok
        assert verify_consistency(level2_decomposition(GF(n))).ok


def test_gamma0_property_checks():
    # no tabulated data; rank and convolution identities only
    for n in (2, 3, 5, 11, 23):
        seq = omega_decomposition(G0(n))
        report = verify_consistency(seq)
        assert report.ok, report.failures()
        assert sum(seq.as_list()) == index(G0(n))


def test_corrupted_sequence_detected():
    good = omega_decomposition(G1(23))
    mults = dict(good.mult.multiplicities)
    mults[5] -= 1
    bad = DecompositionSequence(good.group, good.block, TwistMultiset(mults))
    report = verify_consistency(bad)
    assert not report.ok
    names = [name for name, _ in report.failures()]
    assert "convolution" in names and "rank" in names


def test_gamma1_31_not_decomposable_by_gamma1_7():
    # d_7 = 48 divides d_31 = 960, yet no decomposition exists
    assert index(G1(31)) % index(G1(7)) == 0
    with pytest.raises(NegativeMultiplicity) as exc:
        deconvolve_by_gamma1_block(G1(31), 7)
    assert exc.value.shift == 3
    assert exc.value.value == -10


def test_obstruction_examples():
    r7 = obstruction_search(7, 100)
    assert r7.d_q == 48
    assert 19 in r7.witnesses()  # d_19 = 360, 48 does not divide 360
    assert 7 not in [p for p, _, _ in r7.primes]  # not coprime to q
    r9 = obstruction_search(9, 100)
    assert r9.d_q == 72
    assert 5 in r9.witnesses()
    r8 = obstruction_search(8, 100)
    assert 7 not in r8.witnesses()  # d_7 = 48 = d_8 divides
    with pytest.raises(ValueError):
        obstruction_search(6, 100)


@pytest.mark.parametrize("q", [7, 8, 9, 11, 13])
@pytest.mark.parametrize("bound", [2, 3, 4, 5, 1000])
def test_obstruction_primes_are_the_trial_division_primes(q, bound):
    report = obstruction_search(q, bound)
    expected = [p for p in range(2, bound + 1) if is_prime(p) and q % p != 0]
    assert [p for p, _, _ in report.primes] == expected


@pytest.mark.parametrize("q", [7, 8, 9, 11, 13])
def test_obstruction_density(q):
    report = obstruction_search(q, 1000)
    assert len(report.witnesses()) >= 5
    assert report.d_q > 24
    assert report.d_q % report.divisor == 0
    assert report.witness_residue % report.divisor not in (1, report.divisor - 1)
    for p, d_p, divides in report.primes:
        assert d_p == p * p - 1
        assert divides == (d_p % report.d_q == 0)


def test_table_generation_matches_golden():
    omega = golden_rows("omega.tsv", 12)
    for row in table_generate(2, 42, BlockTag.OMEGA_POWERS):
        assert list(row[2:]) == omega[row[0]]
    level3 = golden_rows("level3.tsv", 6)
    for row in table_generate(4, 23, BlockTag.LEVEL3):  # clamped to 5
        assert list(row[1:]) == level3[row[0]]
    assert table_generate(4, 23, BlockTag.LEVEL3)[0][0] == 5
    level2 = golden_rows("level2.tsv", 8)
    for row in table_generate(4, 23, BlockTag.LEVEL2):
        assert list(row[1:]) == level2[row[0]]


def test_dimension_function_wrapper():
    m = dimension_function(G1(23))
    assert m(-5) == 0 and m(0) == 1 and m(3) == 55
