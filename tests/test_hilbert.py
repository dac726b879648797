import time
from collections import Counter, OrderedDict, UserDict
from collections.abc import Mapping
from types import MappingProxyType
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from mfdecomp import decomp, hilbert
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
    h1_dim,
    over_denominator,
    serre_duality_check,
    times_denominator,
)
from mfdecomp.levels import (
    LEVEL1_WEIGHTS,
    SMALL_LEVEL_WEIGHTS,
    CongruenceGroup,
    GroupKind,
    Weight1Data,
    hilbert_numerators,
)
from oracles import (
    convolve,
    deconvolve_by_terms,
    h0_by_enumeration,
    h1_by_enumeration,
    multiplicities_by_index,
    serre_duality_by_enumeration,
)


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
    h1_values = hilbert._h1_values  # the one reader of h1, per line
    # h1 off by one in twists <= -30, which Serre duality on P(4, 6) reads at m >= 20
    monkeypatch.setattr(
        hilbert,
        "_h1_values",
        lambda line, twists: (h1 + (m <= -30) for m, h1 in zip(twists, h1_values(line, twists))),
    )
    check = serre_duality_check(WeightedLine(4, 6), -60, 60)
    assert not check
    assert check == ("serre-duality", False, "fails at m=20")


LINES = st.builds(WeightedLine, st.integers(1, 40), st.integers(1, 40))


@settings(max_examples=300)  # the enumeration takes up to 2000 steps an example
@given(LINES, st.integers(-2000, 2000))
@example(WeightedLine(6, 10), 7)  # gcd 2 does not divide m
@example(WeightedLine(6, 10), -7)
@example(WeightedLine(6, 10), 0)  # m = 0
@example(WeightedLine(7, 9), -16)  # m = -a - b, where h1 = 1
@example(WeightedLine(1, 1), 2000)
@example(WeightedLine(1, 1), -2000)
def test_h0_and_h1_match_the_enumeration(line, m):
    assert h0_dim(line, m) == h0_by_enumeration(line, m)
    assert h1_dim(line, m) == h1_by_enumeration(line, m)


@settings(max_examples=100)  # windows up to 201 degrees, each two enumerations
@given(LINES, st.integers(-150, 150), st.integers(-3, 200), st.none() | st.integers(-400, 400))
@example(WeightedLine(4, 6), 5, -1, None)  # empty: hi < lo
@example(WeightedLine(4, 6), -60, 49, None)  # all negative: [-60, -11]
@example(WeightedLine(4, 6), 11, 49, None)  # all positive: [11, 60]
@example(WeightedLine(4, 6), -60, 120, -40)  # fails at m = 30
def test_serre_duality_check_matches_the_enumeration(line, lo, width, fault):
    # with h1 off by one at the twist ``fault`` on both sides, when one is drawn,
    # so that a failing check must name the same first degree
    hi = lo + width
    h1_values = hilbert._h1_values
    faulty = lambda line, twists: (h1 + (m == fault) for m, h1 in zip(twists, h1_values(line, twists)))
    with mock.patch.object(hilbert, "_h1_values", faulty):
        got = serre_duality_check(line, lo, hi)
    h1 = lambda line, m: h1_by_enumeration(line, m) + (m == fault)
    assert got == serre_duality_by_enumeration(line, lo, hi, h1)


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
    assert list(mult.items()) == [(0, 1), (3, 2)]
    with pytest.raises(ValueError):
        TwistMultiset([0, -2])


@st.composite
def multiplicity_inputs(draw):
    """An argument for ``TwistMultiset`` and its entries as a list: a list, tuple or
    generator of entries from -2 to 3 followed by up to 6 zeros, or a range, which
    may end in 0."""
    if draw(st.booleans()):
        values = range(draw(st.integers(-4, 6)), draw(st.integers(-4, 6)), draw(st.sampled_from([1, 2, -1, -2])))
        return values, list(values)
    values = [*draw(st.lists(st.integers(min_value=-2, max_value=3), max_size=10)), *[0] * draw(st.integers(0, 6))]
    form = draw(st.sampled_from([list, tuple, lambda values: (c for c in values)]))
    return form(values), values


# 300 examples: each builds one multiset of at most 16 entries
@settings(max_examples=300)
@given(multiplicity_inputs())
def test_twist_multiset_matches_the_per_index_reference(args):
    # the same tuple, or the same ValueError, as one entry read at a time
    argument, values = args
    try:
        expected = multiplicities_by_index(values)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{exc}$"):
            TwistMultiset(argument)
    else:
        assert TwistMultiset(argument).multiplicities == expected


class _RegisteredMapping:
    """A mapping by ``Mapping.register`` alone: no dict and no ``Mapping`` subclass."""

    def __init__(self, items):
        self._items = dict(items)

    def __getitem__(self, key):
        return self._items[key]

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)


Mapping.register(_RegisteredMapping)


# 100 examples: each one constructor call
@settings(max_examples=100)
@given(
    st.dictionaries(st.integers(-3, 8), st.integers(-3, 3), max_size=6),
    # the proxy, the UserDict and the registered class are no dict: only the ABC check sees them
    st.sampled_from([dict, OrderedDict, Counter, MappingProxyType, UserDict, _RegisteredMapping]),
)
def test_a_mapping_is_refused_before_any_value_check(items, form):
    # negative keys or values would be a ValueError if the mapping were read at all
    with pytest.raises(TypeError, match="^multiplicities must be the sequence c_0..c_s, not a mapping$"):
        TwistMultiset(form(items))


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
@example(([1, 2, 3, 4], [1, 1], -1, 5))  # max_shift = -1: drawn, but rarely
@example(([1, 2, 3, 4], [1, 1], 2, -1))  # verify_through = -1
@example(([1, 3, 2, 0, 5], [1, 1], 1, 4))  # the one mismatch is the last residual, at the window's end
@example(([1, 1], [1, 1, 1], 0, 2))  # the one mismatch is the last residual, past the target's end
@example(([1, 1, 5], [1], 1, 2))  # the one mismatch is the last residual and the first past max_shift
@example(([1, 0], [1, 1], 1, 1))  # the one negative multiplicity is at max_shift
@example(([1, 1, 1, 0], [1, 1], 3, 3))  # likewise, after a zero multiplicity
@example(([3, 0, 2, 7], (1,), 3, 40))  # the one-term block N_1 = 1: a pass
@example(([3, 0, 2, -7], (1,), 3, 40))  # by it, a negative multiplicity at max_shift
@example(([3, 0, 2, 7, 5], (1,), 3, 40))  # by it, a mismatch one degree past max_shift
def test_deconvolve_matches_naive_reference(args):
    # a block not normalised to block(0) = 1 must raise the same error in both
    assert _outcome(deconvolve, *args) == _outcome(deconvolve_by_terms, *args)


# 200 examples: two calls each, on lists of at most 210 terms
@settings(max_examples=200)
@given(deconvolution_args(), st.integers(min_value=1, max_value=12))
def test_deconvolve_ignores_trailing_zeros_of_the_block(args, zeros):
    # the same multiplicities, or the same exception with the same fields
    target, block, max_shift, verify_through = args
    padded = [*block, *[0] * zeros]
    assert _outcome(deconvolve, target, padded, max_shift, verify_through) == _outcome(deconvolve, *args)


@st.composite
def mismatch_args(draw):
    """A normalised block, and a convolution by it of at most max_shift + 1 multiplicities,
    changed in one degree past max_shift and cut somewhere past it: every window through
    that degree fails."""
    block = [1, *draw(st.lists(ENTRIES, max_size=8))]
    max_shift = draw(st.integers(min_value=0, max_value=20))
    mults = draw(st.lists(st.integers(0, 2**66), max_size=max_shift + 1))
    changed = draw(st.integers(min_value=max_shift + 1, max_value=max_shift + 30))
    target = [convolve(mults, block, k) for k in range(draw(st.integers(changed + 1, changed + 12)))]
    target[changed] += draw(ENTRIES.filter(bool))
    return target, block, max_shift, draw(st.integers(min_value=changed, max_value=changed + 60))


# 200 examples: each deconvolves and re-convolves at most 111 degrees
@settings(max_examples=200)
@given(mismatch_args())
def test_residual_mismatch_reports_the_naive_reconstruction(args):
    target, block, max_shift, _ = args
    with pytest.raises(ResidualMismatch) as excinfo:
        deconvolve(*args)
    exc = excinfo.value
    mults = deconvolve_by_terms(target, block, max_shift, 0).multiplicities  # checks degree 0 only
    assert exc.degree > max_shift
    assert exc.got == convolve(mults, block, exc.degree)
    assert exc.expected == (target[exc.degree] if exc.degree < len(target) else 0)
    assert all(convolve(mults, block, k) == target[k] for k in range(exc.degree))


#: Short entries, small or huge; the lists are never padded to the window.
SHORT_LISTS = st.lists(st.one_of(st.integers(-3, 6), st.integers(2**64, 2**70)), max_size=30)


# 60 examples: the reference re-convolves up to 5,001 degrees one term at a time
@settings(max_examples=60, deadline=None)
@example([1, 5], [2, 1], True, 1, 1, 5000)  # C = 1 + 5t: C B has 5t^3 past the target 1 + 7t + 11t^2
@given(
    SHORT_LISTS,
    SHORT_LISTS,
    st.booleans(),
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=0, max_value=5000),
)
def test_deconvolve_matches_naive_reference_at_windows_past_the_lists(
    target, tail, convolved, drop, max_shift, verify_through
):
    # windows up to 5,000, mostly past both lists, where the product is not masked;
    # a failing degree past the target's end reports expected 0
    block = [1, *tail]
    if convolved:  # a nonnegative multiset times the block, its last `drop` terms cut
        mults = [abs(v) for v in target[: max_shift + 1]]
        product = [convolve(mults, block, k) for k in range(len(mults) + len(tail))]
        target = product[: max(len(product) - drop, 0)]
    args = target, block, max_shift, verify_through
    assert _outcome(deconvolve, *args) == _outcome(deconvolve_by_terms, *args)


@pytest.mark.parametrize(
    "args, message",
    [
        (([1, 2, 3, 4], [1, 1], -3, -3), "max_shift must be >= 0, got -3"),
        (([1, 2, 3, 4], [1, 1], -1, 5), "max_shift must be >= 0, got -1"),
        (([1, 2, 3, 4], [1, 1], 2, -1), "verify_through must be >= 0, got -1"),
        (([1], [2], 0, -2), "verify_through must be >= 0, got -2"),  # before the normalisation
    ],
    ids=["both", "max_shift", "verify_through", "unnormalised-block"],
)
def test_deconvolve_rejects_a_negative_window(args, message):
    # a window of -1 used to pass with an empty multiset and nothing checked
    with pytest.raises(ValueError, match=f"^{message}$"):
        deconvolve(*args)


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
        (_outcome(deconvolve, *args), _outcome(deconvolve_by_terms, *args))
        for args in _decomp_levels_argument_sets()
    ]
    assert len(outcomes) == 640
    assert all(fast == naive for fast, naive in outcomes)
    raised = [fast for fast, _ in outcomes if not isinstance(fast, TwistMultiset)]
    message = "multiplicity at shift 3 would be -10 < 0"
    assert raised == [(NegativeMultiplicity, message, {"shift": 3, "value": -10})]


@pytest.mark.parametrize(
    "kind, n, q, windows",
    [(GroupKind.GAMMA1, 23, 1, ()), (GroupKind.GAMMA1, 31, 7, (5, 17)),
     (GroupKind.GAMMA0, 11, 1, (0, 0)), (GroupKind.GAMMA_FULL, 6, 3, (-1, 60))],
)
def test_gamma1_block_oracle_passes_the_numerators(monkeypatch, kind, n, q, windows):
    # the target is the group's Hilbert numerator N, the block N_q (N_1 = (1,)),
    # and the windows pass through unchanged (11 and 40 by default)
    seen = []
    monkeypatch.setattr(decomp, "deconvolve", lambda *args: seen.append(args) or TwistMultiset())
    w1 = Weight1Data.default()
    decomp.deconvolve_by_gamma1_block(CongruenceGroup(kind, n), q, w1, *windows)
    block = (1,) if q == 1 else hilbert_numerators(CongruenceGroup(GroupKind.GAMMA1, q), w1)[0]
    assert seen == [(hilbert_numerators(CongruenceGroup(kind, n), w1)[0], block, *(windows or (11, 40)))]


def _series_outcome(target, block, max_shift, verify_through):
    """``deconvolve`` of the two Hilbert series N / L_1 and N_q / L_1, L_1 = (1 - t^4)(1 - t^6),
    through the window: the reference the numerators' quotient N / N_q must match."""
    n = max(max_shift, verify_through, 0) + 1
    series = [over_denominator(numerator, LEVEL1_WEIGHTS, n) for numerator in (target, block)]
    return _outcome(deconvolve, *series, max_shift, verify_through)


def test_numerator_quotient_matches_the_series_on_the_decomp_levels_calls():
    # (N / L_1) / (N_q / L_1) = N / N_q: the same multiplicities and the same failures
    outcomes = [
        (_outcome(deconvolve, *args), _series_outcome(*args))
        for args in _decomp_levels_argument_sets()
    ]
    assert len(outcomes) == 640
    assert all(numerators == series for numerators, series in outcomes)
    raised = [numerators for numerators, _ in outcomes if not isinstance(numerators, TwistMultiset)]
    message = "multiplicity at shift 3 would be -10 < 0"
    assert raised == [(NegativeMultiplicity, message, {"shift": 3, "value": -10})]


ORACLE_GROUPS = st.one_of(
    st.builds(CongruenceGroup, st.just(GroupKind.GAMMA0), st.integers(2, 120)),
    st.builds(CongruenceGroup, st.just(GroupKind.GAMMA1), st.integers(2, 42)),
    st.builds(CongruenceGroup, st.just(GroupKind.GAMMA_FULL), st.integers(2, 11)),
)


@settings(max_examples=200)
@given(ORACLE_GROUPS, st.integers(1, 12), st.integers(-1, 12), st.integers(-1, 45))
def test_numerator_quotient_fails_where_the_series_quotient_does(group, q, max_shift, verify_through):
    # any window: the same multiplicities or NegativeMultiplicity; a ResidualMismatch at the
    # same degree by the same difference, as C N_q - N = (C (N_q / L_1) - N / L_1) L_1, L_1(0) = 1
    try:
        got = decomp.deconvolve_by_gamma1_block(group, q, None, max_shift, verify_through)
    except ResidualMismatch as exc:
        got = ResidualMismatch, exc.degree, exc.expected - exc.got
    except ValueError as exc:
        got = type(exc), str(exc), vars(exc)
    block = (1,) if q == 1 else hilbert_numerators(CongruenceGroup(GroupKind.GAMMA1, q))[0]
    expected = _series_outcome(hilbert_numerators(group)[0], block, max_shift, verify_through)
    if not isinstance(expected, TwistMultiset) and expected[0] is ResidualMismatch:
        info = expected[2]
        expected = ResidualMismatch, info["degree"], info["expected"] - info["got"]
    assert got == expected


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


@pytest.mark.parametrize("weights", [(0,), (4, 0), (-1,), (6, -4)])
def test_over_denominator_rejects_a_weight_below_one(weights):
    # 1 - t^0 = 0 is no factor to divide by, and a negative weight no power series
    with pytest.raises(ValueError, match=f"denominator weights must be >= 1, got {min(weights)}"):
        over_denominator([1, 2, 3], weights, 6)


@pytest.mark.parametrize("weights", [(-1,), (-5,), (3, -2)])
def test_times_denominator_rejects_a_negative_weight(weights):
    # 1 - t^w for w < 0 is no polynomial; read as a slice start, -1 gave [1, 2, 2]
    with pytest.raises(ValueError, match=f"denominator weights must be >= 0, got {min(weights)}"):
        times_denominator([1, 2, 3], weights, 3)


def test_times_denominator_by_weight_zero_is_zero():
    # 1 - t^0 = 0: the product vanishes, as the Hilbert-function recurrence of a constant needs
    assert times_denominator([1, 2, 3], (0,), 4) == [0, 0, 0, 0]
    assert times_denominator([1, 2, 3], (2, 0), 4) == [0, 0, 0, 0]


#: Every weight pair that some Hilbert series of the package divides (1 - t^4)(1 - t^6) by:
#: the blocks, the small levels and the series of the closed-form numerators.
KERNEL_WEIGHTS = sorted(
    {*decomp.BLOCK_WEIGHTS.values(), *SMALL_LEVEL_WEIGHTS.values(), (2, 2), (2, 4), (2, 6), (1, 1)}
)


@pytest.mark.parametrize("weights", KERNEL_WEIGHTS, ids=str)
def test_block_kernel_times_its_denominator_is_the_level1_denominator(weights):
    kernel = denominator_quotient(LEVEL1_WEIGHTS, weights)
    (a, b), level1 = weights, [1, 0, 0, 0, -1, 0, -1, 0, 0, 0, 1]  # (1 - t^4)(1 - t^6)
    den = [0] * (a + b + 1)  # (1 - t^a)(1 - t^b), term by term
    for k, c in ((0, 1), (a, -1), (b, -1), (a + b, 1)):
        den[k] += c
    assert len(kernel) == 11 - a - b
    assert [convolve(kernel, den, k) for k in range(11)] == level1
    assert denominator_quotient(LEVEL1_WEIGHTS, weights) is kernel  # built once


@pytest.mark.parametrize("weights", [(4, 4), (5, 7)], ids=str)
def test_denominator_quotient_that_is_no_polynomial_raises(weights):
    with pytest.raises(ValueError, match="no polynomial"):
        denominator_quotient(LEVEL1_WEIGHTS, weights)


def test_add_product_truncates_and_accumulates():
    acc = [1, 1, 1, 1]
    assert add_product(acc, [2, 0, 1], (1, 3, 5)) is acc
    assert acc == [3, 7, 12, 4]  # + (2 + 6t + 11t^2 + 3t^3 + 5t^4) mod t^4
    assert add_product([], [1, 2], (3,)) == []


# 200 examples, each one product and one round trip of at most 40 terms
@settings(max_examples=200)
@given(
    st.lists(st.integers(min_value=-50, max_value=50), max_size=20),
    st.sampled_from(KERNEL_WEIGHTS),
    st.integers(min_value=0, max_value=40),
)
def test_kernel_product_is_the_series_round_trip(values, weights, n):
    kernel = denominator_quotient(LEVEL1_WEIGHTS, weights)
    round_trip = over_denominator(times_denominator(values, LEVEL1_WEIGHTS, n), weights, n)
    assert add_product([0] * n, values, kernel) == round_trip


@pytest.mark.parametrize(
    "call",
    [
        lambda: times_denominator([1, 2, 3], (1,), -1),
        lambda: over_denominator([1, 2, 3, 4, 5, 6], (4, 6), -2),
        lambda: TwistMultiset([1, 0, 2]).as_list(-1),
        lambda: decomp.omega_decomposition(CongruenceGroup(GroupKind.GAMMA1, 23)).as_list(-1),
    ],
    ids=[
        "times_denominator", "over_denominator",
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
