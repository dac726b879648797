"""Decomposition sequences of pushforward bundles / rings of modular forms.

A ring of modular forms for a congruence group, viewed as a graded module
over the level-1 ring, splits into shifted copies of a handful of standard
blocks: powers of omega (level 1), and the level-2/3/4/5-or-6 rings.  Each
block is the ring of a weighted projective line P(a, b), with Hilbert series
1/((1 - t^a)(1 - t^b)), and every block table (rank, support bound,
closed-form offsets, cusp-form identities, the kernels between blocks)
derives from the pair (a, b) in ``BLOCK_WEIGHTS``.  The multiplicity
sequence c_0..c_{a+b+1}, the coefficients of (1 - t^a)(1 - t^b) * sum_k m_k t^k,
is the exact quotient N / K of the group's Hilbert numerator N (see
``levels.hilbert_numerators``) by the block kernel K.  Serre duality gives it
a second time from the cusp-form dimensions: read backwards, it is the
coefficients of t^1..t^{a+b+2} in (1 - t^a)(1 - t^b) * sum_k s_k t^k, that is
c_{a+b+2-i} = [... * S(t)]_i, for every block once N_S(t) = t^12 N(1/t).
The identities l_{12-i} = s_i, l_10 = genus, k_7 = s_1, k_6 = genus,
k_5 = s_1, k_4 = s_2 - s_1 and kappa_3 = s_1 are special cases of that rule.
Multiplicities, identities and the cross-block product c K, for the kernel
K = (1 - t^4)(1 - t^6) / ((1 - t^a)(1 - t^b)), all go through the series
helpers ``times_denominator`` and ``over_denominator``.
Hilbert-function deconvolution (in :mod:`.hilbert`) serves as the
independent cross-check and the two must always agree.  Every Hilbert
function here is a coefficient list: m_0..m_{n-1} expand N, with no horizon.  A
``DecompositionSequence`` is a group, a block tag and the multiplicities, a
``TwistMultiset``: the tuple c_0..c_{a+b+1} with its trailing zeros dropped.
``as_list`` pads it back to a+b+2 entries.

Shift convention: multiplicity at shift i means a summand twisted by the
(-i)-th power of omega.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from itertools import compress
from math import isqrt
from typing import NamedTuple, Sequence

from .arith import factorize
from .hilbert import (
    Check,
    DeconvolutionError,
    TwistMultiset,
    deconvolve,
    over_denominator,
    times_denominator,
)
from .levels import (
    LEVEL1_WEIGHTS,
    SMALL_LEVEL_WEIGHTS,
    CongruenceGroup,
    GroupKind,
    Weight1Data,
    hilbert_numerators,
    level_invariants,
)

__all__ = [
    "BlockTag",
    "ConsistencyReport",
    "DecompositionInvalid",
    "DecompositionSequence",
    "ObstructionReport",
    "TABLE_BLOCKS",
    "UnsupportedGroup",
    "deconvolve_by_gamma1_block",
    "level2_decomposition",
    "level3_decomposition",
    "level456_decomposition",
    "obstruction_search",
    "omega_decomposition",
    "table_generate",
    "verify_consistency",
]


class DecompositionInvalid(DeconvolutionError):
    """The Hilbert function did not split into nonnegative block shifts."""


class UnsupportedGroup(ValueError):
    pass


class BlockTag(str, Enum):
    OMEGA_POWERS = "omega"
    LEVEL2 = "level2"
    LEVEL3 = "level3"
    LEVEL4 = "level4"
    LEVEL5OR6 = "level5or6"


#: Generator weights (a, b) of each block ring: the block is the ring of the
#: weighted projective line P(a, b), so its Hilbert series is
#: 1/((1 - t^a)(1 - t^b)) and its rank over the level-1 ring is 24 / (a b).
#: The level-q blocks for q = 2, 3, 4 are the rings of Gamma1(q).
BLOCK_WEIGHTS = {
    BlockTag.OMEGA_POWERS: LEVEL1_WEIGHTS,
    **{tag: SMALL_LEVEL_WEIGHTS[GroupKind.GAMMA1, q]
       for q, tag in enumerate((BlockTag.LEVEL2, BlockTag.LEVEL3, BlockTag.LEVEL4), 2)},
    BlockTag.LEVEL5OR6: (1, 1),
}

#: Smallest Gamma1 level whose ring each block decomposes; Gamma(n) for n >= 3
#: takes every block.
MIN_GAMMA1_LEVEL = {
    BlockTag.OMEGA_POWERS: 2,
    BlockTag.LEVEL2: 4,
    BlockTag.LEVEL3: 5,
    BlockTag.LEVEL4: 4,
    BlockTag.LEVEL5OR6: 5,
}


#: The blocks with a published table of Gamma1(n) decomposition numbers.
TABLE_BLOCKS = (BlockTag.OMEGA_POWERS, BlockTag.LEVEL2, BlockTag.LEVEL3)


@lru_cache(maxsize=None)
def _series(numerator: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Coefficients of t^0..t^(n-1) in numerator / ((1 - t^4)(1 - t^6)): the
    dimensions m_0..m_{n-1} of a group from its Hilbert numerator N, and the
    level-1 dimensions from N = (1,); once per (N, n)."""
    return tuple(over_denominator(numerator, LEVEL1_WEIGHTS, n))


def _over_block(numerator: Sequence[int], tag: BlockTag, n: int) -> list[int]:
    """Coefficients of t^0..t^(n-1) in numerator * (1 - t^a)(1 - t^b) / ((1 - t^4)(1 - t^6)),
    the numerator itself for the omega block."""
    if tag is BlockTag.OMEGA_POWERS:
        return [*numerator[:n], *[0] * (n - len(numerator))]
    return over_denominator(times_denominator(numerator, BLOCK_WEIGHTS[tag], n), LEVEL1_WEIGHTS, n)


def _support_bound(tag: BlockTag) -> int:
    """Largest shift with a nonzero multiplicity: a + b + 1, where it is s_1."""
    return sum(BLOCK_WEIGHTS[tag]) + 1


class DecompositionSequence(NamedTuple):
    group: CongruenceGroup
    tag: BlockTag
    mult: TwistMultiset

    def as_list(self, length: int | None = None) -> list[int]:
        if length is None:
            length = _support_bound(self.tag) + 1
        return self.mult.as_list(length)


def _cusp_identity_failure(cusp_numerator: Sequence[int], tag: BlockTag, cs: list[int]) -> str:
    """'' if c_0..c_{a+b+1}, the first a+b+2 entries of ``cs``, obey Serre
    duality, c_{a+b+2-i} = [(1 - t^a)(1 - t^b) * sum_k s_k t^k]_i for
    1 <= i <= a+b+2, with S(t) = N_S(t) / ((1 - t^4)(1 - t^6)); else the first
    shift where they do not."""
    dual = _over_block(cusp_numerator, tag, _support_bound(tag) + 2)[:0:-1]
    bad = [(i, c, d) for i, (c, d) in enumerate(zip(cs, dual)) if c != d]
    return "shift %d: %d != %d from the cusp-form dimensions" % bad[0] if bad else ""


def _balanced(cs: Sequence[int]) -> bool:
    """The level-3 balance identity k_0 + k_3 = k_1 + k_4 = k_2 + k_5."""
    return cs[0] + cs[3] == cs[1] + cs[4] == cs[2] + cs[5]


def _closed_form(
    group: CongruenceGroup, tag: BlockTag, w1: Weight1Data | None
) -> DecompositionSequence:
    """Multiplicities c_i: the coefficients of N(t) (1 - t^a)(1 - t^b) / ((1 - t^4)(1 - t^6))
    through degree 11, all >= 0 and 0 past a + b + 1, or it raises.  A proof for
    every weight: N - c K, for the block kernel K, vanishes mod t^12 and has
    degree <= 11.  Every K is palindromic, so N_S(t) = t^12 N(1/t) gives the
    cusp-form identities of every block; level 3 adds the balance identity."""
    min_level = MIN_GAMMA1_LEVEL[tag] if group.kind is GroupKind.GAMMA1 else 3
    if tag is not BlockTag.OMEGA_POWERS and (
        group.kind is GroupKind.GAMMA0 or group.level < min_level
    ):
        raise UnsupportedGroup(f"{tag.value} decomposition undefined for {group}")
    numerator, cusp_numerator = hilbert_numerators(group, w1)
    seq = _over_block(numerator, tag, 12)
    bound = _support_bound(tag)
    for i, c in enumerate(seq):
        if c < 0 or c and i > bound:
            why = f"{c} < 0" if c < 0 else f"{c} != 0 past shift {bound}"
            raise DecompositionInvalid(
                f"{tag.value} multiplicity at shift {i} is {why} for {group}"
            )
    if cusp_numerator != (0, *numerator[::-1]):
        raise DecompositionInvalid(
            f"{tag.value} cusp identities fail for {group}: N_S(t) != t^12 N(1/t)"
        )
    if tag is BlockTag.LEVEL3 and not _balanced(seq):
        raise DecompositionInvalid(f"balance identity fails for {group}")
    return DecompositionSequence(group, tag, TwistMultiset(seq))


def omega_decomposition(
    group: CongruenceGroup, w1: Weight1Data | None = None
) -> DecompositionSequence:
    """l_i = m_i - m_{i-4} - m_{i-6} + m_{i-10} for 0 <= i <= 11."""
    return _closed_form(group, BlockTag.OMEGA_POWERS, w1)


def level3_decomposition(
    group: CongruenceGroup, w1: Weight1Data | None = None
) -> DecompositionSequence:
    """k_i = m_i - m_{i-1} - m_{i-3} + m_{i-4} for 0 <= i <= 5."""
    return _closed_form(group, BlockTag.LEVEL3, w1)


def level2_decomposition(
    group: CongruenceGroup, w1: Weight1Data | None = None
) -> DecompositionSequence:
    """k_i = m_i - m_{i-2} - m_{i-4} + m_{i-6} for 0 <= i <= 7."""
    return _closed_form(group, BlockTag.LEVEL2, w1)


def level456_decomposition(
    group: CongruenceGroup, q: int, w1: Weight1Data | None = None
) -> DecompositionSequence:
    """q = 4: kappa_i = m_i - m_{i-1} - m_{i-2} + m_{i-3} for 0 <= i <= 4.
    q = 5, 6 (one block): kappa_i = m_i - 2 m_{i-1} + m_{i-2} for 0 <= i <= 3."""
    if q not in (4, 5, 6):
        raise ValueError(f"q must be 4, 5 or 6, got {q}")
    return _closed_form(group, BlockTag.LEVEL4 if q == 4 else BlockTag.LEVEL5OR6, w1)


# ---------------------------------------------------------------------------
# Verification


class ConsistencyReport(NamedTuple):
    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return all(self.checks)

    def __bool__(self) -> bool:
        return self.ok

    def failures(self) -> list[tuple[str, str]]:
        return [(name, detail) for name, passed, detail in self.checks if not passed]


def verify_consistency(
    seq: DecompositionSequence,
    w1: Weight1Data | None = None,
    max_weight: int = 40,
) -> ConsistencyReport:
    """Convolution, rank, cross-block, cusp-form and (level 3) balance
    identities for ``seq``.  The convolution check is N = c K mod t^(max_weight+1)
    for the numerator N and the block kernel K: for c within the support bound
    both sides have degree <= 11, so max_weight >= 11 (default 40) is a proof."""
    if max_weight < 0:
        raise ValueError(f"max_weight must be >= 0, got {max_weight}")
    group, tag = seq.group, BlockTag(seq.tag)  # a plain "omega" would fail the `is` tests
    # one list c_0..c_n, through the convolution window and the support bound a + b + 1
    cs = seq.mult.as_list(max(max_weight, _support_bound(tag)) + 1)
    numerator, cusp_numerator = hilbert_numerators(group, w1)
    m = _series(numerator, max_weight + 1)
    # den = (1 - t^a)(1 - t^b) has den(0) = 1: m den - mult and m - mult / den lead alike
    got = zip(m, _over_block(numerator, tag, max_weight + 1), cs)
    bad = [(k, mk, mk - md + c) for k, (mk, md, c) in enumerate(got) if md != c]
    detail = "first failure at weight %d: m=%d, reconstruction=%d" % bad[0] if bad else ""
    checks = [Check("convolution", not bad, detail or f"exact through weight {max_weight}")]

    a, b = BLOCK_WEIGHTS[tag]
    index, block_rank = level_invariants(group).index, 24 // (a * b)
    rank = seq.mult.total() * block_rank
    detail = f"sum(mult) * {block_rank} = {rank}, index = {index}"
    checks.append(Check("rank", rank == index, detail))

    if tag is not BlockTag.OMEGA_POWERS:
        try:
            omega = omega_decomposition(group, w1).as_list()
            # all of c, not the window cs, times the kernel K, through t^11
            got = over_denominator(times_denominator(seq.mult.multiplicities, LEVEL1_WEIGHTS, 12), (a, b), 12)
            ok = got == omega
            checks.append(Check("cross-block", ok, f"omega sequence {'matches' if ok else got}"))
        except DecompositionInvalid as exc:
            checks.append(Check("cross-block", False, str(exc)))

    problem = _cusp_identity_failure(cusp_numerator, tag, cs)
    checks.append(Check("cusp-identities", not problem, problem or "Serre duality"))
    if tag is BlockTag.LEVEL3:
        checks.append(Check("balance", _balanced(cs), "k_0+k_3 = k_1+k_4 = k_2+k_5"))
    return ConsistencyReport(tuple(checks))


def deconvolve_by_gamma1_block(
    group: CongruenceGroup,
    q: int,
    w1: Weight1Data | None = None,
    max_shift: int = 11,
    verify_through: int = 40,
) -> TwistMultiset:
    """Deconvolve the dimension sequence of ``group`` by the one of Gamma1(q)
    (q = 1 means the level-1 dimension sequence itself).

    The independent oracle for all closed-form decompositions, and the tool
    that exhibits non-decomposability (negative multiplicities) for q > 6.
    The window checks C N_q = N for the Hilbert numerators (N_1 = 1), both of
    degree <= max_shift + 11: verify_through >= 22 (default 40) is a proof.
    """
    n = max(max_shift, verify_through, 0) + 1
    target = _series(hilbert_numerators(group, w1)[0], n)
    block = (1,) if q == 1 else hilbert_numerators(CongruenceGroup(GroupKind.GAMMA1, q), w1)[0]
    return deconvolve(target, _series(block, n), max_shift, verify_through)


# ---------------------------------------------------------------------------
# Obstruction search


class ObstructionReport(NamedTuple):
    q: int
    d_q: int
    divisor: int
    witness_residue: int
    primes: tuple[tuple[int, int, bool], ...]  # (p, d_p, d_q divides d_p)

    def witnesses(self) -> list[int]:
        return [p for p, _, divides in self.primes if not divides]


def _obstruction_divisor(d_q: int) -> tuple[int, int]:
    """A divisor d of d_q from {16, 9, prime >= 5} and a residue a mod d
    with a coprime to d and a != +-1 mod d (so p = a mod d kills d | d_p)."""
    if d_q % 16 == 0:
        return 16, 3
    if d_q % 9 == 0:
        return 9, 2
    for d, _ in factorize(d_q):
        if d >= 5:  # a = 2: coprime to the odd prime d, and 1 < 2 < d - 1
            return d, 2
    raise ValueError(f"no usable divisor of {d_q} (is d_q > 24?)")


def obstruction_search(q: int, prime_bound: int) -> ObstructionReport:
    """All primes p <= prime_bound coprime to q with their d_p | d_q verdicts."""
    if q <= 6:
        raise ValueError("obstruction search needs q > 6")
    if prime_bound < 2:
        raise ValueError(f"prime bound must be >= 2, got {prime_bound}")
    d_q = level_invariants(CongruenceGroup(GroupKind.GAMMA1, q)).index
    assert d_q > 24
    divisor, residue = _obstruction_divisor(d_q)
    sieve = bytearray([0, 0]) + bytearray([1]) * (prime_bound - 1)  # sieve[n] = 1 iff n is prime
    for p in range(2, isqrt(prime_bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, prime_bound + 1, p)))
    d_ps = [(p, (p - 1) * (p + 1)) for p in compress(range(prime_bound + 1), sieve) if q % p]
    primes = tuple((p, d_p, d_p % d_q == 0) for p, d_p in d_ps)
    return ObstructionReport(q, d_q, divisor, residue, primes)


# ---------------------------------------------------------------------------
# Table generation

def table_generate(
    lo: int,
    hi: int,
    flavor: BlockTag,
    w1: Weight1Data | None = None,
) -> list[tuple[int, ...]]:
    """Rows (n, [genus,] multiplicities) for Gamma1(n), lo <= n <= hi.

    ``lo`` is clamped up to the smallest level the flavor supports; a range
    left empty raises ValueError.  The genus column is only present for the
    omega flavor.  ``flavor`` is a member of ``TABLE_BLOCKS`` or its value.
    """
    if flavor not in TABLE_BLOCKS:
        raise ValueError(f"unsupported table flavor {flavor}")
    flavor = BlockTag(flavor)  # a plain "omega" would fail the `is` test below
    first = MIN_GAMMA1_LEVEL[flavor]
    if max(lo, first) > hi:
        raise ValueError(f"empty level range {lo}..{hi}; this table starts at {first}")
    rows = []
    for n in range(max(lo, first), hi + 1):
        group = CongruenceGroup(GroupKind.GAMMA1, n)
        genus = (level_invariants(group).genus,) if flavor is BlockTag.OMEGA_POWERS else ()
        rows.append((n, *genus, *_closed_form(group, flavor, w1).as_list()))
    return rows
