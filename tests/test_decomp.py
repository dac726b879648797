import time
from collections import Counter
from importlib import resources
from math import isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

from mfdecomp import decomp, levels
from mfdecomp.arith import is_prime
from mfdecomp.decomp import (
    BLOCK_WEIGHTS,
    MIN_GAMMA1_LEVEL,
    BlockTag,
    ConsistencyReport,
    DecompositionInvalid,
    DecompositionSequence,
    TABLE_BLOCKS,
    UnsupportedGroup,
    deconvolve_by_gamma1_block,
    level2_decomposition,
    level3_decomposition,
    level456_decomposition,
    obstruction_search,
    omega_decomposition,
    table_generate,
    verify_consistency,
)
from mfdecomp.decomp import _primes_upto, _support_bound
from mfdecomp.hilbert import (
    Check,
    NegativeMultiplicity,
    ResidualMismatch,
    TwistMultiset,
    WeightedLine,
    add_product,
    deconvolve,
    denominator_quotient,
    h0_dim,
    over_denominator,
    times_denominator,
)
from mfdecomp.levels import (
    LEVEL1_WEIGHTS,
    SMALL_LEVEL_WEIGHTS,
    CongruenceGroup,
    GroupKind,
    Weight1Data,
    dim_cusp_forms,
    level_invariants,
)
from oracles import closed_form_failure_by_index, convolve, dimensions_by_weight, multiplicities_by_index

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
    assert seq23.mult.total() * 12 == level_invariants(G1(23)).index


def test_unsupported_groups():
    with pytest.raises(UnsupportedGroup):
        level3_decomposition(G1(4))
    with pytest.raises(UnsupportedGroup):
        level2_decomposition(G1(3))
    with pytest.raises(UnsupportedGroup):
        level456_decomposition(G0(7), 5)
    with pytest.raises(ValueError):
        level456_decomposition(G1(7), 7)


#: Rank of each block over the level-1 ring, in ``BlockTag`` order.
RANKS = [1, 3, 8, 12, 24]


def test_blocks():
    # the rank check of every block reads its rank 24 / (a b)
    for tag, rank in zip(BlockTag, RANKS):
        seq = DECOMPOSE[tag](G1(23))
        total = sum(seq.as_list())
        expected = ("rank", True, f"sum(mult) * {rank} = {total * rank}, index = 528")
        assert expected in verify_consistency(seq).checks, tag
    # the level-1 block is h0 on P(4, 6)
    omega = over_denominator([1], LEVEL1_WEIGHTS, 41)
    assert omega == [h0_dim(WeightedLine(4, 6), k) for k in range(41)]
    # level-5/6 block = convolution of (1,2,3,4,4,4,3,2,1) with the level-1 dims
    kernel = [1, 2, 3, 4, 4, 4, 3, 2, 1]
    five = WeightedLine(*BLOCK_WEIGHTS[BlockTag.LEVEL5OR6])
    for k in range(41):
        assert h0_dim(five, k) == sum(c * omega[k - i] for i, c in enumerate(kernel) if i <= k)


def _kernel_and_tail(outer, inner):
    """The coefficients of (1 - t^a)(1 - t^b) / ((1 - t^c)(1 - t^d)) through
    t^(a+b), for the outer weights (a, b) and the inner ones (c, d), by the
    series helpers; split after degree a + b - c - d into the kernel and the
    tail.  The inner block is free over the outer one when the tail is zero."""
    (a, b), (c, d) = BLOCK_WEIGHTS[outer], BLOCK_WEIGHTS[inner]
    series = over_denominator(times_denominator([1], (a, b), a + b + 1), (c, d), a + b + 1)
    cut = max(a + b - c - d + 1, 0)
    return tuple(series[:cut]), series[cut:]


@pytest.mark.parametrize("inner", list(BlockTag), ids=lambda tag: tag.value)
@pytest.mark.parametrize("outer", list(BlockTag), ids=lambda tag: tag.value)
def test_kernel_is_polynomial_division(outer, inner):
    sympy = pytest.importorskip("sympy")
    t = sympy.symbols("t")
    den = {tag: (1 - t**a) * (1 - t**b) for tag, (a, b) in BLOCK_WEIGHTS.items()}
    quotient, remainder = sympy.div(den[outer], den[inner], t)
    kernel, tail = _kernel_and_tail(outer, inner)
    if remainder == 0:
        coeffs = sympy.Poly(quotient, t).all_coeffs()[::-1]
        assert kernel == tuple(int(c) for c in coeffs)
        assert not any(tail)
    else:
        assert any(tail)


def test_block_tables_derive_from_weights():
    assert list(BLOCK_WEIGHTS) == list(BlockTag)
    assert [_support_bound(tag) for tag in BlockTag] == [11, 7, 5, 4, 3]
    omega = BlockTag.OMEGA_POWERS
    kernels = {
        (omega, omega): (1,),
        (omega, BlockTag.LEVEL2): (1, 0, 1, 0, 1),
        (omega, BlockTag.LEVEL3): (1, 1, 1, 2, 1, 1, 1),
        (omega, BlockTag.LEVEL4): (1, 1, 2, 2, 2, 2, 1, 1),
        (omega, BlockTag.LEVEL5OR6): (1, 2, 3, 4, 4, 4, 3, 2, 1),
        (BlockTag.LEVEL2, BlockTag.LEVEL4): (1, 1, 1, 1),
        (BlockTag.LEVEL3, BlockTag.LEVEL5OR6): (1, 1, 1),
        (BlockTag.LEVEL4, BlockTag.LEVEL5OR6): (1, 1),
    }
    for (outer, inner), kernel in kernels.items():  # then c + d zeros
        assert _kernel_and_tail(outer, inner) == (kernel, [0] * sum(BLOCK_WEIGHTS[inner]))
    # a kernel's total is the ratio of the ranks
    for tag, rank in zip(BlockTag, RANKS):
        assert sum(_kernel_and_tail(omega, tag)[0]) == rank
    # the level-3 block is not free over the level-2 block: the tail past degree 2 is not zero
    assert any(_kernel_and_tail(BlockTag.LEVEL2, BlockTag.LEVEL3)[1])


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


@pytest.mark.parametrize(
    "group", [G1(n) for n in range(4, 43)] + [GF(n) for n in range(3, 12)], ids=str
)
def test_verify_consistency_level456(group):
    qs = (4,) if group == G1(4) else (4, 5, 6)
    for q in qs:
        report = verify_consistency(level456_decomposition(group, q))
        assert report.ok, (q, report.failures())
        assert "cross-block" in [name for name, _, _ in report.checks]


@pytest.mark.parametrize("n", range(2, 43))
def test_rank_identities(n):
    d = level_invariants(G1(n)).index
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
    assert sum(seq.as_list()) == level_invariants(GF(4)).index == 48
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
        assert sum(seq.as_list()) == level_invariants(G0(n)).index


def test_one_failing_check_fails_the_report():
    report = ConsistencyReport((Check("a", True, "fine"), Check("b", False, "why")))
    assert not report.ok
    assert not report
    assert report.failures() == [("b", "why")]


def test_corrupted_sequence_detected():
    good = omega_decomposition(G1(23))
    mults = list(good.mult.multiplicities)
    mults[5] -= 1
    bad = DecompositionSequence(good.group, good.tag, TwistMultiset(mults))
    report = verify_consistency(bad)
    assert not report.ok
    names = [name for name, _ in report.failures()]
    assert "convolution" in names and "rank" in names


def test_multiplicity_beyond_the_support_bound_fails_convolution():
    good = omega_decomposition(G1(23))
    mults = [*good.mult.as_list(12), 1]  # shift 12; the omega support bound is 11
    bad = DecompositionSequence(good.group, good.tag, TwistMultiset(mults))
    assert "convolution" in [name for name, _ in verify_consistency(bad).failures()]


def test_gamma1_31_not_decomposable_by_gamma1_7():
    # d_7 = 48 divides d_31 = 960, yet no decomposition exists
    assert level_invariants(G1(31)).index % level_invariants(G1(7)).index == 0
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


def _trial_division_primes(q, bound):
    """(p, p^2 - 1, d_q | p^2 - 1) for each prime p <= bound coprime to q,
    each p found by trial division: the reference for ``obstruction_search``."""
    d_q = level_invariants(G1(q)).index
    ps = [p for p in range(2, bound + 1) if q % p and all(p % d for d in range(2, isqrt(p) + 1))]
    return tuple((p, p * p - 1, (p * p - 1) % d_q == 0) for p in ps)


def test_obstruction_search_at_interleaved_bounds_matches_trial_division():
    # the sieve is cached per bound: a call at one bound must not see another's primes
    for bound in (1000, 20000, 1000):
        for q in (7, 8, 9, 11, 13):
            assert obstruction_search(q, bound).primes == _trial_division_primes(q, bound), (q, bound)


def test_cached_primes_are_an_immutable_tuple():
    primes = _primes_upto(30)
    assert primes == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
    assert type(primes) is tuple and _primes_upto(30) is primes


def test_obstruction_search_to_a_million_stays_fast():
    # growth guard: one sieve for the bound, then one flat pass per q
    start = time.perf_counter()
    first = [obstruction_search(q, 10**6) for q in (7, 8, 9, 11, 13)]
    assert time.perf_counter() - start < 5.0
    assert [len(report.primes) for report in first] == [78497, 78497, 78497, 78497, 78497]
    for q, report in zip((7, 8, 9, 11, 13), first):
        assert obstruction_search(q, 10**6) == report


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


def _override_23():
    """The builtin weight-1 table with s_1(Gamma1(23)) = 5, as ``g1 23 5`` loads it."""
    default = Weight1Data.default()
    return Weight1Data({**default.table, (GroupKind.GAMMA1, 23): 5}, default.provenance)


#: Every group whose dimensions the decomp-levels benchmark reads; the builtin
#: weight-1 table covers them all.
DECOMP_LEVELS_GROUPS = [*map(G0, range(2, 401)), *map(G1, range(2, 43)), *map(GF, range(2, 12))]


@pytest.mark.parametrize("group", [G0(11), G1(4), G1(23), GF(6)], ids=str)
def test_tables_are_built_once_per_group_and_s1(group):
    levels._numerators.cache_clear()  # a fresh group: the one dimension cache starts empty
    for w1 in (None, _override_23(), None, _override_23()):
        seq = omega_decomposition(group, w1)
        deconvolve_by_gamma1_block(group, 1, w1)
        assert verify_consistency(seq, w1).ok
    info = levels._numerators.cache_info()
    builds = 2 if group == G1(23) else 1  # only the override's group gets a new s_1
    assert (info.misses, info.currsize) == (builds, builds)


def _zero_s1():
    """The builtin weight-1 table with s_1 = 0 for Gamma1(43..120) and Gamma(12..60),
    which it does not cover."""
    default = Weight1Data.default()
    zeros = {(g.kind, g.level): 0 for g in [*map(G1, range(43, 121)), *map(GF, range(12, 61))]}
    return Weight1Data({**default.table, **zeros}, default.provenance)


@pytest.mark.parametrize(
    "w1, groups",
    [
        (None, DECOMP_LEVELS_GROUPS),
        (_override_23(), DECOMP_LEVELS_GROUPS),
        (_zero_s1(), [*map(G1, range(43, 121)), *map(GF, range(12, 61))]),
    ],
    ids=["builtin", "g1-23-5", "s1-zero"],
)
def test_tables_equal_the_dimensions_weight_by_weight(w1, groups):
    # the numerators (N, N_S) hold every weight: N / ((1 - t^4)(1 - t^6)) and
    # N_S / ((1 - t^4)(1 - t^6)) are the dimension formulas weight by weight
    for group in groups:
        numerator, cusp_numerator = levels.hilbert_numerators(group, w1)
        assert len(numerator) <= 12 and len(cusp_numerator) <= 13, group
        inv = level_invariants(group)
        invariants = (inv.index, inv.cusps, inv.elliptic2, inv.elliptic3, inv.genus)
        m, s = dimensions_by_weight(group, invariants, levels.weight1_cusp_dim(group, w1), 301)
        assert over_denominator(numerator, (4, 6), 301) == m, group
        assert over_denominator(cusp_numerator, (4, 6), 301) == s, group
        for k in (0, 1, 2, 3, 11, 12, 13, 60, 299, 300):
            assert levels.dim_modular_forms(group, k, w1) == m[k], (group, k)
            assert dim_cusp_forms(group, k, w1) == s[k], (group, k)
        assert cusp_numerator == (0, *reversed(numerator)), group  # N_S = t^12 N(1/t)


@pytest.mark.parametrize("group", [G0(11), G1(4), G1(23), GF(6)], ids=str)
def test_checks_reach_past_the_dimension_table(group):
    # weights 41..60 come from the same numerators as weights 0..40
    omega = omega_decomposition(group)
    oracle = deconvolve_by_gamma1_block(group, 1, verify_through=60)
    assert oracle.as_list(12) == omega.as_list()
    report = verify_consistency(omega, max_weight=60)
    assert report.ok, report.failures()
    assert report.checks[0] == ("convolution", True, "exact through weight 60")


def test_negative_window_is_rejected():
    # read as a slice end, a negative window reported a false convolution failure
    seq = omega_decomposition(G1(23))
    for max_weight in (-5, -1):
        with pytest.raises(ValueError, match=f"max_weight must be >= 0, got {max_weight}$"):
            verify_consistency(seq, max_weight=max_weight)
    assert verify_consistency(seq, max_weight=0).ok


def test_oracle_rejects_a_negative_window():
    # a window of -1 returned an empty multiset with nothing checked
    for windows, name in (((-1, -1), "max_shift"), ((11, -1), "verify_through"), ((-5, 40), "max_shift")):
        value = min(windows)
        with pytest.raises(ValueError, match=f"^{name} must be >= 0, got {value}$"):
            deconvolve_by_gamma1_block(G1(23), 1, None, *windows)


def test_oracle_at_a_window_of_a_million_degrees():
    # both numerators have degree <= 22, so the window past them reads nothing more
    w1 = Weight1Data.default()
    default = deconvolve_by_gamma1_block(G1(23), 3, w1)
    assert deconvolve_by_gamma1_block(G1(23), 3, w1, 11, 10**6) == default
    failures = []
    for verify_through in (40, 10**6):
        with pytest.raises(NegativeMultiplicity) as excinfo:
            deconvolve_by_gamma1_block(G1(31), 7, w1, 11, verify_through)
        failures.append((str(excinfo.value), excinfo.value.shift, excinfo.value.value))
    assert failures == [("multiplicity at shift 3 would be -10 < 0", 3, -10)] * 2


def test_level3_oracle_past_the_dimension_table():
    oracle = deconvolve_by_gamma1_block(G1(23), 3, verify_through=60)
    assert oracle.as_list() == [1, 11, 21, 21, 11, 1]


def test_a_short_window_reports_numerator_coefficients():
    # max_shift=3 stops C short of N = (1, 12, 33, 55, 76, ...), so C N_q = N fails at
    # degree 4 with N's coefficient 76; the dimension series fail there too, at
    # m_4 = 77 against 1, by the same difference
    with pytest.raises(ResidualMismatch) as excinfo:
        deconvolve_by_gamma1_block(G1(23), 1, max_shift=3)
    assert str(excinfo.value) == "convolution check failed at degree 4: target 76, reconstruction 0"
    series = [over_denominator(p, LEVEL1_WEIGHTS, 41) for p in (levels.hilbert_numerators(G1(23))[0], [1])]
    with pytest.raises(ResidualMismatch) as excinfo:
        deconvolve(*series, 3, 40)
    assert (excinfo.value.degree, excinfo.value.expected, excinfo.value.got) == (4, 77, 1)


# ---------------------------------------------------------------------------
# The Serre-duality rule behind every cusp-form identity

DECOMPOSE = {
    BlockTag.OMEGA_POWERS: omega_decomposition,
    BlockTag.LEVEL2: level2_decomposition,
    BlockTag.LEVEL3: level3_decomposition,
    BlockTag.LEVEL4: lambda group, w1=None: level456_decomposition(group, 4, w1),
    BlockTag.LEVEL5OR6: lambda group, w1=None: level456_decomposition(group, 5, w1),
}


def supported_blocks(group):
    if group.kind is GroupKind.GAMMA0 or group == GF(2):
        return [BlockTag.OMEGA_POWERS]
    if group.kind is GroupKind.GAMMA_FULL:
        return list(BlockTag)
    return [tag for tag in BlockTag if group.level >= MIN_GAMMA1_LEVEL[tag]]


def serre_dual_sequence(group, tag, w1=None):
    """c_0..c_{a+b+1} read off the cusp-form dimensions alone:
    c_{a+b+2-i} = [(1 - t^a)(1 - t^b) * sum_k s_k t^k]_i, 1 <= i <= a+b+2."""
    a, b = BLOCK_WEIGHTS[tag]
    den = Counter({0: 1, a + b: 1})
    den[a] -= 1
    den[b] -= 1
    s = lambda k: dim_cusp_forms(group, k, w1)
    coeff = lambda i: sum(c * s(i - j) for j, c in den.items() if j <= i)
    return [coeff(a + b + 2 - j) for j in range(a + b + 2)]


RULE_GROUPS = (
    [G0(n) for n in range(2, 401)]
    + [G1(n) for n in range(2, 43)]
    + [GF(n) for n in range(3, 12)]
)


@pytest.mark.parametrize("group", RULE_GROUPS, ids=str)
def test_multiplicities_obey_serre_duality(group):
    for tag in supported_blocks(group):
        seq = DECOMPOSE[tag](group)
        assert seq.as_list() == serre_dual_sequence(group, tag), tag
        assert ("cusp-identities", True, "Serre duality") in verify_consistency(seq).checks


def test_serre_duality_under_a_weight1_override(tmp_path):
    path = tmp_path / "w1.txt"
    path.write_text("g1 23 5\n")
    w1 = Weight1Data.load(path)
    for tag in BlockTag:
        seq = DECOMPOSE[tag](G1(23), w1)
        assert seq.as_list() == serre_dual_sequence(G1(23), tag, w1)
        assert seq.as_list() != DECOMPOSE[tag](G1(23)).as_list()
        assert verify_consistency(seq, w1).ok


@pytest.mark.parametrize("tag", list(BlockTag), ids=lambda tag: tag.value)
def test_one_changed_multiplicity_fails_the_cusp_identities(tag):
    good = DECOMPOSE[tag](G1(23))
    for shift in range(_support_bound(tag) + 1):
        mults = good.as_list()
        mults[shift] += 1
        bad = DecompositionSequence(good.group, good.tag, TwistMultiset(mults))
        names = [name for name, _ in verify_consistency(bad).failures()]
        assert "cusp-identities" in names, shift


@pytest.mark.parametrize(
    "group", [G1(n) for n in range(4, 43)] + [GF(n) for n in range(3, 12)], ids=str
)
def test_level4_closed_form_equals_level2_deconvolution(group):
    level2 = level2_decomposition(group).as_list()
    kernel, _ = _kernel_and_tail(BlockTag.LEVEL2, BlockTag.LEVEL4)
    oracle = deconvolve(level2, kernel, _support_bound(BlockTag.LEVEL4), verify_through=12)
    assert level456_decomposition(group, 4).as_list() == oracle.as_list(5)


def test_level_q_block_weights_are_the_gamma1_q_weights():
    for q, tag in ((2, BlockTag.LEVEL2), (3, BlockTag.LEVEL3), (4, BlockTag.LEVEL4)):
        assert BLOCK_WEIGHTS[tag] == SMALL_LEVEL_WEIGHTS[GroupKind.GAMMA1, q]
    assert list(BLOCK_WEIGHTS.values()) == [(4, 6), (2, 4), (1, 3), (1, 2), (1, 1)]


@pytest.mark.parametrize("tag", list(BlockTag)[1:], ids=lambda tag: tag.value)
def test_min_gamma1_level_bounds_every_block(tag):
    first = MIN_GAMMA1_LEVEL[tag]
    DECOMPOSE[tag](G1(first))
    with pytest.raises(UnsupportedGroup):
        DECOMPOSE[tag](G1(first - 1))
    with pytest.raises(UnsupportedGroup):
        DECOMPOSE[tag](GF(2))


def test_tables_start_at_the_min_gamma1_level():
    for tag in (BlockTag.OMEGA_POWERS, BlockTag.LEVEL2, BlockTag.LEVEL3):
        assert table_generate(2, 8, tag)[0][0] == MIN_GAMMA1_LEVEL[tag]
    with pytest.raises(ValueError, match="unsupported table flavor"):
        table_generate(4, 8, BlockTag.LEVEL4)
    with pytest.raises(ValueError, match="unsupported table flavor level4"):
        table_generate(4, 8, "level4")


def test_a_plain_string_flavor_gives_the_rows_of_its_tag():
    for tag in TABLE_BLOCKS:
        assert table_generate(2, 9, tag.value) == table_generate(2, 9, tag)
    assert len(table_generate(2, 2, "omega")[0]) == 14  # n, the genus, l_0..l_11


def test_a_plain_string_tag_is_read_as_its_block_tag():
    seq = omega_decomposition(G1(23))
    copy = seq._replace(tag="omega")
    assert copy == seq
    assert verify_consistency(copy) == verify_consistency(seq)  # no cross-block check
    level3 = level3_decomposition(G1(23))
    plain = DecompositionSequence(level3.group, "level3", level3.mult)
    assert verify_consistency(plain) == verify_consistency(level3)  # the balance check too
    with pytest.raises(ValueError, match="'level7' is not a valid BlockTag"):
        verify_consistency(DecompositionSequence(level3.group, "level7", level3.mult))


def test_a_numerator_no_block_kernel_divides_is_invalid(monkeypatch):
    # Gamma1(23)'s N plus t^5 + t^6: palindromic and nonnegative, so the omega
    # block takes it, but (1 - t)^2 N / ((1 - t^4)(1 - t^6)) leaves 1 at shift 5,
    # past the P(1, 1) support bound 3, where the first four shifts alone pass
    group = G1(23)
    numerator = list(levels.hilbert_numerators(group)[0])
    numerator[5] += 1
    numerator[6] += 1
    pair = (tuple(numerator), (0, *reversed(numerator)))
    monkeypatch.setattr(decomp, "hilbert_numerators", lambda group, w1=None: pair)
    assert omega_decomposition(group).as_list() == numerator
    with pytest.raises(DecompositionInvalid, match="shift 5 is 1 != 0 past shift 3 for g1:23$"):
        level456_decomposition(group, 5)
    with pytest.raises(DecompositionInvalid, match="shift 5 is 1 != 0 past shift 4 for g1:23$"):
        level456_decomposition(group, 4)


@st.composite
def block_multiplicities(draw):
    """A block tag and c_0..c_11 from -2 to 3, half the time cut to 0 from a shift past
    the tag's support bound on and half the time made nonnegative, so that both verdicts
    occur, and failures at any shift past the bound."""
    tag = draw(st.sampled_from(list(BlockTag)))
    cs = draw(st.lists(st.integers(min_value=-2, max_value=3), min_size=12, max_size=12))
    if draw(st.booleans()):
        cut = draw(st.integers(min_value=_support_bound(tag) + 1, max_value=12))
        cs[cut:] = [0] * (12 - cut)
    if draw(st.booleans()):
        cs = [abs(c) for c in cs]
    return tag, cs


# 300 examples: each one closed form of a 12-term numerator
@settings(max_examples=300)
@given(block_multiplicities())
@example((BlockTag.LEVEL5OR6, [1, 1, 1, 1, -1, 2, 0, 0, 0, 0, 0, 0]))  # past the bound, "-1 < 0"
@example((BlockTag.LEVEL5OR6, [1, 1, 1, 1, 2, -1, 0, 0, 0, 0, 0, 0]))  # "2 != 0 past shift 3" first
@example((BlockTag.OMEGA_POWERS, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1]))  # the last shift alone
def test_closed_form_failure_matches_the_per_index_reference(args):
    # N = c K mod t^12 for the block kernel K (K(0) = 1), so the closed form reads c
    # itself: the first failing shift and its wording are the per-index reference's
    tag, cs = args
    numerator = tuple(add_product([0] * 12, cs, denominator_quotient(LEVEL1_WEIGHTS, BLOCK_WEIGHTS[tag])))
    group = G1(7)  # every block decomposes Gamma1(7)
    problem = closed_form_failure_by_index(cs, _support_bound(tag))
    balanced = cs[0] + cs[3] == cs[1] + cs[4] == cs[2] + cs[5]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(decomp, "hilbert_numerators", lambda group, w1=None: (numerator, ()))
        if problem:
            with pytest.raises(DecompositionInvalid) as info:
                decomp._closed_form(group, tag, None)
            assert str(info.value) == f"{tag.value} multiplicity {problem} for {group}"
        elif tag is BlockTag.LEVEL3 and not balanced:
            with pytest.raises(DecompositionInvalid, match=f"^balance identity fails for {group}$"):
                decomp._closed_form(group, tag, None)
        else:
            assert decomp._closed_form(group, tag, None).mult.multiplicities == multiplicities_by_index(cs)


# ---------------------------------------------------------------------------
# The convolution check: m (1 - t^a)(1 - t^b) = mult, against the quotient form


def _convolution_by_division(seq, max_weight):
    """The convolution check as the quotient mult / ((1 - t^a)(1 - t^b)) compared
    with m, weight by weight: the reference for ``verify_consistency``."""
    m = [levels.dim_modular_forms(seq.group, k) for k in range(max_weight + 1)]
    got = over_denominator(seq.mult.as_list(), BLOCK_WEIGHTS[seq.tag], max_weight + 1)
    bad = [(k, mk, c) for k, (mk, c) in enumerate(zip(m, got)) if mk != c]
    detail = "first failure at weight %d: m=%d, reconstruction=%d" % bad[0] if bad else ""
    return Check("convolution", not bad, detail or f"exact through weight {max_weight}")


def _changed(seq, shift, delta):
    mults = seq.mult.as_list(max(shift, len(seq.mult.multiplicities) - 1) + 1)
    mults[shift] = max(mults[shift] + delta, 0)
    return DecompositionSequence(seq.group, seq.tag, TwistMultiset(mults))


@pytest.mark.parametrize(
    "seq, shift, delta, max_weight, detail",
    [
        (omega_decomposition(G1(23)), 5, -1, 40, "weight 5: m=99, reconstruction=98"),
        # past the omega support bound 11
        (omega_decomposition(G1(23)), 12, 1, 40, "weight 12: m=253, reconstruction=254"),
        (level3_decomposition(G1(13)), 0, 2, 60, "weight 0: m=1, reconstruction=3"),
    ],
    ids=["omega-shift5", "omega-past-support", "level3-shift0"],
)
def test_convolution_failure_names_the_first_weight_and_both_values(
    seq, shift, delta, max_weight, detail
):
    check = verify_consistency(_changed(seq, shift, delta), max_weight=max_weight).checks[0]
    assert check == Check("convolution", False, "first failure at " + detail)


CHANGED_CASES = [
    (group, tag) for group in (G0(11), G1(13), G1(23), GF(5)) for tag in supported_blocks(group)
]


@given(
    st.sampled_from(CHANGED_CASES),
    st.integers(min_value=0, max_value=20),  # past every support bound (at most 11)
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=0, max_value=60),
)
def test_convolution_check_by_multiplication_equals_the_quotient_form(
    case, shift, delta, max_weight
):
    group, tag = case
    seq = _changed(DECOMPOSE[tag](group), shift, delta)
    report = verify_consistency(seq, max_weight=max_weight)
    reference = (_convolution_by_division(seq, max_weight), *report.checks[1:])
    assert report == ConsistencyReport(reference)


@pytest.mark.parametrize("case", CHANGED_CASES, ids=lambda case: f"{case[0]}-{case[1].value}")
def test_convolution_check_equals_the_quotient_form_at_every_window(case):
    # every shift through 20 raised or lowered: the check reads N and c K, not the window
    group, tag = case
    good = DECOMPOSE[tag](group)
    changed = [_changed(good, shift, delta) for shift in range(21) for delta in (-2, -1, 1, 3)]
    for seq in (good, *changed):
        for max_weight in (0, 3, 11, 40, 100):
            check = verify_consistency(seq, max_weight=max_weight).checks[0]
            assert check == _convolution_by_division(seq, max_weight), (seq.mult, max_weight)


@pytest.mark.parametrize(
    "tag, group, shift, delta, detail",
    [
        (BlockTag.OMEGA_POWERS, G1(23), 12, 1, "shift 12: 1 != 0"),  # past the support bound 11
        (BlockTag.LEVEL2, G1(23), 0, 1, "shift 0: 2 != 1"),
        (BlockTag.LEVEL3, G1(13), 5, 2, "shift 5: 2 != 0"),
        (BlockTag.LEVEL4, GF(6), 3, -1, "shift 3: 0 != 1"),  # c shorter than the dual
        (BlockTag.LEVEL5OR6, G1(23), 4, 1, "shift 4: 1 != 0"),  # past the support bound 3
    ],
    ids=[tag.value for tag in BlockTag],
)
def test_cusp_identity_failure_names_the_first_shift_and_both_values(tag, group, shift, delta, detail):
    seq = _changed(DECOMPOSE[tag](group), shift, delta)
    failure = decomp._cusp_identity_failure(levels.hilbert_numerators(group)[1], tag, seq.mult.multiplicities)
    assert failure == detail + " from the cusp-form dimensions"
    assert dict(verify_consistency(seq).failures())["cusp-identities"] == failure


# ---------------------------------------------------------------------------
# The cross-block check: every multiplicity times the kernel over the omega block


def _cross_block_by_convolution(seq):
    """The cross-block check with the whole tuple c_0..c_s convolved with the
    kernel one term at a time, as a whole polynomial and through at least t^11:
    the reference for ``verify_consistency``."""
    kernel, _ = _kernel_and_tail(BlockTag.OMEGA_POWERS, seq.tag)
    n = max(12, len(seq.mult.multiplicities) + len(kernel) - 1)
    omega = omega_decomposition(seq.group).as_list(n)
    got = [convolve(seq.mult.multiplicities, kernel, k) for k in range(n)]
    ok = got == omega
    return Check("cross-block", ok, f"omega sequence {'matches' if ok else got}")


CROSS_BLOCK_GROUPS = [G1(n) for n in range(2, 43)] + [GF(n) for n in range(3, 9)]


@pytest.mark.parametrize("group", CROSS_BLOCK_GROUPS, ids=str)
def test_cross_block_check_multiplies_every_multiplicity(group):
    # for max_weight < 11 a raised multiplicity can lie past the window that the
    # convolution check reads; the cross-block product must still count it
    for tag in supported_blocks(group):
        if tag is BlockTag.OMEGA_POWERS:  # no cross-block check
            continue
        good = DECOMPOSE[tag](group)
        for seq in (good, *(_changed(good, shift, 1) for shift in range(14))):
            expected = _cross_block_by_convolution(seq)
            for max_weight in (0, 3, 5, 7, 10, 11, 12, 20, 40):
                report = verify_consistency(seq, max_weight=max_weight)
                assert report.checks[2] == expected, (tag, seq.mult, max_weight)


def test_multiplicity_past_the_support_bound_fails_cross_block_and_cusp_identities():
    good = level2_decomposition(G1(23))
    bad = _changed(good, 12, 1)  # the level-2 support bound is 7
    report = verify_consistency(bad)
    assert report.failures() == [
        ("convolution", "first failure at weight 12: m=253, reconstruction=254"),
        ("rank", "sum(mult) * 3 = 531, index = 528"),
        ("cross-block", "omega sequence [1, 12, 33, 55, 76, 87, 87, 76, 55, 33, 12, 1, 1, 0, 1, 0, 1]"),
        ("cusp-identities", "shift 12: 1 != 0 from the cusp-form dimensions"),
    ]
    for shift in (8, 20, 41, 60):  # inside and past the convolution window
        names = [name for name, _ in verify_consistency(_changed(good, shift, 1)).failures()]
        assert {"cross-block", "cusp-identities"} <= set(names), shift
