import time

import pytest
from hypothesis import given, strategies as st

from mfdecomp import decomp, hilbert
from mfdecomp.hilbert import (
    Check,
    NegativeMultiplicity,
    ResidualMismatch,
    TwistMultiset,
    WeightedLine,
    deconvolve,
    h0_dim,
    h1_dim,
    over_denominator,
    serre_duality_check,
    times_denominator,
)
from mfdecomp.levels import CongruenceGroup, GroupKind, Weight1Data
from oracles import convolve


def test_h0_examples():
    assert h0_dim(WeightedLine(4, 6), 12) == 2  # (3,0) and (0,2)
    assert h0_dim(WeightedLine(4, 6), 2) == 0
    assert h0_dim(WeightedLine(1, 3), 5) == 2  # (5,0) and (2,1)
    assert h0_dim(WeightedLine(4, 6), -4) == 0
    assert h0_dim(WeightedLine(1, 1), 3) == 4


def test_h1_examples():
    assert h1_dim(WeightedLine(4, 6), -10) == 1  # (-1,-1)
    assert h1_dim(WeightedLine(4, 6), 0) == 0
    assert h1_dim(WeightedLine(1, 3), -4) == 1
    assert h1_dim(WeightedLine(4, 6), -4) == 0  # would need mu = 0
    assert h1_dim(WeightedLine(1, 1), -3) == 2  # (-1,-2), (-2,-1)


def test_level1_dimension_sequence():
    line = WeightedLine(4, 6)
    expected = [1, 0, 0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 2]
    assert [h0_dim(line, k) for k in range(13)] == expected


def test_serre_duality_examples():
    assert serre_duality_check(WeightedLine(4, 6), -60, 60).ok
    assert h0_dim(WeightedLine(2, 4), 2) == 1 == h1_dim(WeightedLine(2, 4), -8)
    assert h0_dim(WeightedLine(1, 2), 0) == 1 == h1_dim(WeightedLine(1, 2), -3)


def test_serre_duality_grid():
    for a in range(1, 13):
        for b in range(1, 13):
            assert serre_duality_check(WeightedLine(a, b), -60, 60).ok


def test_check_is_true_exactly_when_it_passed():
    assert not Check("x", False)
    assert Check("x", True)
    assert Check("x", True) == ("x", True, "")


def test_serre_duality_check_names_its_range():
    check = serre_duality_check(WeightedLine(4, 6), -3, 5)
    assert check == ("serre-duality", True, "holds on [-3, 5]")


def test_serre_duality_check_reports_the_first_failing_degree(monkeypatch):
    h1 = hilbert.h1_dim
    # h1 off by one in twists <= -30, which Serre duality on P(4, 6) reads at m >= 20
    monkeypatch.setattr(hilbert, "h1_dim", lambda line, m: h1(line, m) + (m <= -30))
    check = serre_duality_check(WeightedLine(4, 6), -60, 60)
    assert not check
    assert check == ("serre-duality", False, "fails at m=20")


def test_invalid_weights():
    with pytest.raises(ValueError):
        WeightedLine(0, 3)


def dimensions(a, b, n):
    """h0 of O(k) on P(a, b) for k < n: the Hilbert function of the block."""
    line = WeightedLine(a, b)
    return [h0_dim(line, k) for k in range(n)]


def test_deconvolve_gamma1_3_dimensions():
    n = 42  # through degree 41, past the largest shift 11 by a b + max(a, b) = 30
    mult = deconvolve(dimensions(1, 3, n), dimensions(4, 6, n), 11, n - 1)
    assert mult.as_list(12) == [1, 1, 1, 2, 1, 1, 1, 0, 0, 0, 0, 0]


def test_deconvolve_gamma1_2_dimensions():
    n = 42  # through degree 41, past the largest shift 11 by a b + max(a, b) = 30
    mult = deconvolve(dimensions(2, 4, n), dimensions(4, 6, n), 11, n - 1)
    assert mult.multiplicities == (1, 0, 1, 0, 1)


def test_deconvolve_identity():
    block = dimensions(4, 6, 61)
    mult = deconvolve(block, block, 11, 60)
    assert mult.multiplicities == (1,)


def test_deconvolve_requires_normalized_block():
    with pytest.raises(ValueError):
        deconvolve(dimensions(4, 6, 11), [2, 1], 4, 10)
    with pytest.raises(ValueError):  # an empty block is 0 in degree 0
        deconvolve([1], [], 0, 0)


def test_negative_multiplicity_error():
    with pytest.raises(NegativeMultiplicity) as exc:
        deconvolve([1, 0, 0], [1, 1], 2, 4)
    assert exc.value.shift == 1
    assert exc.value.value == -1


def test_residual_mismatch_error():
    # target agrees through the shift window but diverges later
    with pytest.raises(ResidualMismatch) as exc:
        deconvolve([1, 1, 1, 1, 5], [1], 3, 6)
    assert exc.value.degree == 4


def test_twist_multiset_invariants():
    mult = TwistMultiset([1, 0, 0, 2, 0, 0])  # trailing zeros are dropped
    assert mult.multiplicities == (1, 0, 0, 2)
    assert mult.as_list() == [1, 0, 0, 2]
    assert mult.as_list(6) == [1, 0, 0, 2, 0, 0]
    assert mult.total() == 3
    assert mult.max_shift() == 3
    assert list(mult.items()) == [(0, 1), (3, 2)]
    with pytest.raises(ValueError):
        TwistMultiset([0, -2])


@given(
    st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=8),
    st.sampled_from([(4, 6), (2, 4), (1, 3), (1, 2)]),
)
def test_convolve_then_deconvolve_roundtrip(mults, weights):
    horizon = 40  # past every largest shift (at most 7) by at least a b + max(a, b) <= 30
    block = dimensions(*weights, horizon + 1)
    original = TwistMultiset(mults)
    target = [convolve(mults, block, k) for k in range(horizon + 1)]
    recovered = deconvolve(target, block, len(mults) - 1, horizon)
    assert recovered.multiplicities == original.multiplicities


@given(
    st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=6),
    st.lists(st.integers(min_value=0, max_value=5), max_size=4),
)
def test_finite_sequence_roundtrip(mults, tail):
    # a finite target deconvolved by a finite block, as for the level-4 block;
    # both are read as 0 past their end, up to the horizon support + 5
    block = [1, *tail]
    original = TwistMultiset(mults)
    support = len(mults) + len(tail)
    target = [convolve(mults, block, k) for k in range(support)]
    recovered = deconvolve(target, block, len(mults) - 1, support + 5)
    assert recovered.multiplicities == original.multiplicities


def _naive_deconvolve(target, block, max_shift, verify_through):
    """Reference: the greedy division and check, one term read at a time."""
    at = lambda seq, k: seq[k] if 0 <= k < len(seq) else 0
    if at(block, 0) != 1:
        raise ValueError("block Hilbert function must be normalized: block(0) = 1")
    coeffs = []
    for i in range(max_shift + 1):
        c = at(target, i) - sum(at(block, i - j) * coeffs[j] for j in range(i))
        if c < 0:
            raise NegativeMultiplicity(i, c)
        coeffs.append(c)
    result = TwistMultiset(coeffs)
    for k in range(verify_through + 1):
        got = convolve(coeffs, block, k)
        if got != at(target, k):
            raise ResidualMismatch(k, at(target, k), got)
    return result


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:  # DeconvolutionError and the normalisation error
        return type(exc), str(exc), vars(exc)


#: Entries small, above 2^64, and below -2^64.
ENTRIES = st.one_of(
    st.integers(min_value=-3, max_value=6),
    st.integers(min_value=2**64, max_value=2**70),
    st.integers(min_value=-(2**70), max_value=-(2**64)),
)


@st.composite
def deconvolution_args(draw):
    """A block, often not normalised, with negative and huge entries; a target,
    either arbitrary or a convolution by the block, changed in at most one
    degree; max_shift up to 20 and verify_through up to 200."""
    block = [draw(st.sampled_from([1, 1, 1, 1, 0, 2])), *draw(st.lists(ENTRIES, max_size=8))]
    max_shift = draw(st.integers(min_value=-1, max_value=20))
    verify_through = draw(st.integers(min_value=-1, max_value=200))
    if draw(st.booleans()):
        target = draw(st.lists(ENTRIES, max_size=16))
    else:
        mults = draw(st.lists(st.integers(0, 2**66), max_size=21))
        target = [convolve(mults, block, k) for k in range(draw(st.integers(0, 210)))]
        if target and draw(st.booleans()):
            target[draw(st.integers(0, len(target) - 1))] += draw(ENTRIES.filter(bool))
    return target, block, max_shift, verify_through


@given(deconvolution_args())
def test_deconvolve_matches_naive_reference(args):
    # a block not normalised to block(0) = 1 must raise the same error in both
    assert _outcome(deconvolve, *args) == _outcome(_naive_deconvolve, *args)


def _decomp_levels_argument_sets():
    """The arguments of every ``deconvolve`` call of the decomp-levels workload:
    Gamma0(n), n <= 400, by the level-1 block; Gamma1(n), n <= 42, and Gamma(n),
    n <= 11, by each block it decomposes into; and Gamma1(31) by Gamma1(7)."""
    first_level = {1: 2, 2: 4, 3: 5, 4: 4, 5: 5}  # Gamma1(q) block: smallest Gamma1 level
    calls = [(GroupKind.GAMMA0, n, 1) for n in range(2, 401)]
    calls += [
        (GroupKind.GAMMA1, n, q) for n in range(2, 43) for q in first_level if n >= first_level[q]
    ]
    calls += [(GroupKind.GAMMA_FULL, n, q) for n in range(3, 12) for q in first_level]
    calls.append((GroupKind.GAMMA1, 31, 7))
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(decomp, "deconvolve", lambda *args: seen.append(args) or TwistMultiset())
        for kind, n, q in calls:
            decomp.deconvolve_by_gamma1_block(CongruenceGroup(kind, n), q, Weight1Data.default())
    return seen


def test_deconvolve_matches_naive_reference_on_the_decomp_levels_calls():
    outcomes = [
        (_outcome(deconvolve, *args), _outcome(_naive_deconvolve, *args))
        for args in _decomp_levels_argument_sets()
    ]
    assert len(outcomes) == 640
    assert all(fast == naive for fast, naive in outcomes)
    raised = [fast for fast, _ in outcomes if not isinstance(fast, TwistMultiset)]
    message = "multiplicity at shift 3 would be -10 < 0"
    assert raised == [(NegativeMultiplicity, message, {"shift": 3, "value": -10})]


@pytest.mark.parametrize(
    "block", [over_denominator([1], (1, 1), 4001), [1, 3]], ids=["dense", "one-three"]
)
def test_deconvolve_through_degree_4000_stays_fast(block):
    # growth guard: the window is one product of packed lists, and the block's
    # inverse series, whose coefficients grow like 3^k for [1, 3], is never formed
    mults = TwistMultiset([1, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 2])
    target = [convolve(mults.multiplicities, block, k) for k in range(4001)]
    changed = [*target[:3999], target[3999] + 1, target[4000]]
    for args, expected in ((target, mults), (changed, 3999)):
        start = time.perf_counter()
        try:
            got = deconvolve(args, block, 11, 4000)
        except ResidualMismatch as exc:
            got = exc.degree
        assert time.perf_counter() - start < 2.0
        assert got == expected


def test_denominator_examples():
    assert times_denominator([1], (4, 6), 12) == [1, 0, 0, 0, -1, 0, -1, 0, 0, 0, 1, 0]
    assert times_denominator((2, 5, 7), (1,), 5) == [2, 3, 2, -7, 0]
    assert over_denominator([1, -1], (1, 1), 5) == [1, 1, 1, 1, 1]
    assert over_denominator([3], (2,), 0) == []


@pytest.mark.parametrize(
    "call",
    [
        lambda: times_denominator([1, 2, 3], (1,), -1),
        lambda: over_denominator([1, 2, 3, 4, 5, 6], (4, 6), -2),
        lambda: deconvolve([1, 2, 3, 4], [1, 1], -3, -3),
        lambda: TwistMultiset([1, 0, 2]).as_list(-1),
        lambda: decomp.omega_decomposition(CongruenceGroup(GroupKind.GAMMA1, 23)).as_list(-1),
    ],
    ids=[
        "times_denominator", "over_denominator", "deconvolve",
        "TwistMultiset.as_list", "DecompositionSequence.as_list",
    ],
)
def test_negative_length_is_rejected(call):
    # read as a slice end, -2 would keep all but the last two coefficients
    with pytest.raises(ValueError, match="coefficient count must be >= 0, got -"):
        call()


@given(
    st.lists(st.integers(min_value=-20, max_value=20), max_size=30),
    st.lists(st.integers(min_value=1, max_value=12), max_size=4),
    st.integers(min_value=0, max_value=30),
)
def test_times_and_over_denominator_are_inverse(values, weights, n):
    truncated = [*values[:n], *[0] * (n - len(values))]
    assert over_denominator(times_denominator(values, weights, n), weights, n) == truncated
    assert times_denominator(over_denominator(values, weights, n), weights, n) == truncated


@given(
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=0, max_value=60),
)
def test_over_denominator_counts_lattice_points(a, b, n):
    line = WeightedLine(a, b)
    assert over_denominator([1], (a, b), n) == [h0_dim(line, k) for k in range(n)]
