"""Decomposition sequences of pushforward bundles / rings of modular forms.

A ring of modular forms for a congruence group, viewed as a graded module
over the level-1 ring, splits into shifted copies of a handful of standard
blocks: powers of omega (level 1), and the level-2/3/4/5-or-6 rings.  The
multiplicity sequences are computed here by closed-form differences of
dimension sequences; Hilbert-function deconvolution (in :mod:`.hilbert`)
serves as the independent cross-check and the two must always agree.

Shift convention: multiplicity at shift i means a summand twisted by the
(-i)-th power of omega.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import isqrt

from .hilbert import (
    HilbertFunction,
    TwistMultiset,
    WeightedLine,
    deconvolve,
    h0_dim,
)
from .levels import (
    CongruenceGroup,
    GroupKind,
    Weight1Data,
    dim_cusp_forms,
    dim_modular_forms,
    gamma1_index,
    is_prime,
    is_representable,
    level_invariants,
)

__all__ = [
    "BaseBlock",
    "BlockTag",
    "DecompositionInvalid",
    "DecompositionSequence",
    "ObstructionReport",
    "UnsupportedGroup",
    "base_block",
    "deconvolve_by_gamma1_block",
    "dimension_function",
    "level2_decomposition",
    "level3_decomposition",
    "level456_decomposition",
    "obstruction_search",
    "omega_decomposition",
    "table_generate",
    "verify_consistency",
]


class DecompositionInvalid(ValueError):
    pass


class UnsupportedGroup(ValueError):
    pass


class BlockTag(str, Enum):
    OMEGA_POWERS = "omega"
    LEVEL2 = "level2"
    LEVEL3 = "level3"
    LEVEL4 = "level4"
    LEVEL5OR6 = "level5or6"


#: Rank of each block as a module over the level-1 ring (= the index of the
#: corresponding group; 1 for the level-1 ring itself).
BLOCK_RANKS = {
    BlockTag.OMEGA_POWERS: 1,
    BlockTag.LEVEL2: 3,
    BlockTag.LEVEL3: 8,
    BlockTag.LEVEL4: 12,
    BlockTag.LEVEL5OR6: 24,
}

#: Generator weights of the block rings whose Hilbert function is a
#: two-generator monomial count.
BLOCK_WEIGHTS = {
    BlockTag.OMEGA_POWERS: (4, 6),
    BlockTag.LEVEL2: (2, 4),
    BlockTag.LEVEL3: (1, 3),
    BlockTag.LEVEL4: (1, 2),
}


@dataclass(frozen=True)
class BaseBlock:
    tag: BlockTag
    hilbert: HilbertFunction
    rank: int


@lru_cache(maxsize=None)
def base_block(tag: BlockTag) -> BaseBlock:
    if tag is BlockTag.LEVEL5OR6:
        # dim M_k(Gamma1(5)) = k + 1 for all k >= 0
        hf = HilbertFunction(lambda k: k + 1 if k >= 0 else 0)
    else:
        a, b = BLOCK_WEIGHTS[tag]
        line = WeightedLine(a, b)
        hf = HilbertFunction(lru_cache(maxsize=None)(lambda k: h0_dim(line, k)))
    return BaseBlock(tag, hf, BLOCK_RANKS[tag])


def dimension_function(
    group: CongruenceGroup, w1: Weight1Data | None = None
) -> HilbertFunction:
    return HilbertFunction(lambda k: dim_modular_forms(group, k, w1))


#: Support bounds of the multiplicity sequences per block.
SUPPORT_BOUND = {
    BlockTag.OMEGA_POWERS: 11,
    BlockTag.LEVEL2: 7,
    BlockTag.LEVEL3: 5,
    BlockTag.LEVEL4: 4,
    BlockTag.LEVEL5OR6: 3,
}

#: Omega-power decomposition of each block itself: convolving a block-level
#: multiplicity sequence with this kernel yields the omega-level sequence.
OMEGA_KERNEL = {
    BlockTag.LEVEL2: (1, 0, 1, 0, 1),
    BlockTag.LEVEL3: (1, 1, 1, 2, 1, 1, 1),
    BlockTag.LEVEL4: (1, 1, 2, 2, 2, 2, 1, 1),
}

#: The level-4 block in level-2 blocks: four omega-twisted copies of the
#: level-2 block (ranks: 4 * 3 = 12).
LEVEL4_IN_LEVEL2 = (1, 1, 1, 1)
#: The level-5/6 block in level-3 blocks (ranks: 3 * 8 = 24).
LEVEL56_IN_LEVEL3 = (1, 1, 1)
#: The level-5/6 block in level-4 blocks (ranks: 2 * 12 = 24).
LEVEL56_IN_LEVEL4 = (1, 1)


@dataclass(frozen=True)
class DecompositionSequence:
    group: CongruenceGroup
    block: BaseBlock
    mult: TwistMultiset

    def as_list(self, length: int | None = None) -> list[int]:
        if length is None:
            length = SUPPORT_BOUND[self.block.tag] + 1
        return self.mult.as_list(length)


def _closed_form(
    group: CongruenceGroup,
    tag: BlockTag,
    offsets: tuple[tuple[int, int], ...],
    w1: Weight1Data | None,
) -> DecompositionSequence:
    """Multiplicities c_i = sum of sign * m_{i - offset} over ``offsets``."""
    bound = SUPPORT_BOUND[tag]
    m = dimension_function(group, w1)
    seq = []
    for i in range(bound + 1):
        c = sum(sign * m(i - off) for off, sign in offsets)
        if c < 0:
            raise DecompositionInvalid(
                f"{tag.value} multiplicity at shift {i} is {c} < 0 for {group}"
            )
        seq.append(c)
    return DecompositionSequence(
        group, base_block(tag), TwistMultiset(dict(enumerate(seq)))
    )


def omega_decomposition(
    group: CongruenceGroup, w1: Weight1Data | None = None
) -> DecompositionSequence:
    """l_i = m_i - m_{i-4} - m_{i-6} + m_{i-10} for 0 <= i <= 11."""
    seq = _closed_form(
        group, BlockTag.OMEGA_POWERS, ((0, 1), (4, -1), (6, -1), (10, 1)), w1
    )
    ls = seq.as_list()
    for i in range(1, 5):
        expected = dim_cusp_forms(group, i, w1)
        if ls[12 - i] != expected:
            raise DecompositionInvalid(
                f"l_{12 - i} = {ls[12 - i]} != s_{i} = {expected} for {group}"
            )
    if ls[10] != level_invariants(group).genus:
        raise DecompositionInvalid(f"l_10 != genus for {group}")
    return seq


def _require_block_group(group: CongruenceGroup, tag: BlockTag) -> None:
    min_gamma1 = 4 if tag in (BlockTag.LEVEL2, BlockTag.LEVEL4) else 5
    ok = (group.kind is GroupKind.GAMMA1 and group.level >= min_gamma1) or (
        group.kind is GroupKind.GAMMA_FULL and group.level >= 3
    )
    if not ok:
        raise UnsupportedGroup(f"{tag.value} decomposition undefined for {group}")


def level3_decomposition(
    group: CongruenceGroup, w1: Weight1Data | None = None
) -> DecompositionSequence:
    """k_i = m_i - m_{i-1} - m_{i-3} + m_{i-4} for 0 <= i <= 5."""
    _require_block_group(group, BlockTag.LEVEL3)
    seq = _closed_form(
        group, BlockTag.LEVEL3, ((0, 1), (1, -1), (3, -1), (4, 1)), w1
    )
    ks = seq.as_list()
    s1 = dim_cusp_forms(group, 1, w1)
    s2 = dim_cusp_forms(group, 2, w1)
    if ks[5] != s1 or ks[4] != s2 - s1:
        raise DecompositionInvalid(f"k_5/k_4 cusp identities fail for {group}")
    if not (ks[0] + ks[3] == ks[1] + ks[4] == ks[2] + ks[5]):
        raise DecompositionInvalid(f"balance identity fails for {group}")
    return seq


def level2_decomposition(
    group: CongruenceGroup, w1: Weight1Data | None = None
) -> DecompositionSequence:
    """k_i = m_i - m_{i-2} - m_{i-4} + m_{i-6} for 0 <= i <= 7."""
    _require_block_group(group, BlockTag.LEVEL2)
    seq = _closed_form(
        group, BlockTag.LEVEL2, ((0, 1), (2, -1), (4, -1), (6, 1)), w1
    )
    ks = seq.as_list()
    if ks[7] != dim_cusp_forms(group, 1, w1):
        raise DecompositionInvalid(f"k_7 != s_1 for {group}")
    if ks[6] != level_invariants(group).genus:
        raise DecompositionInvalid(f"k_6 != genus for {group}")
    return seq


def level456_decomposition(
    group: CongruenceGroup, q: int, w1: Weight1Data | None = None
) -> DecompositionSequence:
    if q not in (4, 5, 6):
        raise ValueError(f"q must be 4, 5 or 6, got {q}")
    if q == 4:
        _require_block_group(group, BlockTag.LEVEL4)
        level2 = level2_decomposition(group, w1)
        target = HilbertFunction.from_values(level2.as_list())
        block = HilbertFunction.from_values(LEVEL4_IN_LEVEL2)
        try:
            mult = deconvolve(
                target, block, SUPPORT_BOUND[BlockTag.LEVEL4], verify_through=12
            )
        except ValueError as exc:
            raise DecompositionInvalid(
                f"level4 decomposition fails for {group}: {exc}"
            ) from exc
        return DecompositionSequence(group, base_block(BlockTag.LEVEL4), mult)
    _require_block_group(group, BlockTag.LEVEL5OR6)
    m = dimension_function(group, w1)
    kappa = [1, m(1) - 2, m(2) - 2 * m(1) + 1, dim_cusp_forms(group, 1, w1)]
    if any(c < 0 for c in kappa):
        raise DecompositionInvalid(f"negative kappa for {group}: {kappa}")
    return DecompositionSequence(
        group, base_block(BlockTag.LEVEL5OR6), TwistMultiset(dict(enumerate(kappa)))
    )


# ---------------------------------------------------------------------------
# Verification


@dataclass(frozen=True)
class ConsistencyReport:
    group: CongruenceGroup
    tag: BlockTag
    checks: tuple[tuple[str, bool, str], ...]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)

    def __bool__(self) -> bool:
        return self.ok

    def failures(self) -> list[tuple[str, str]]:
        return [(name, detail) for name, passed, detail in self.checks if not passed]


def _convolve_lists(xs: list[int], kernel: tuple[int, ...]) -> list[int]:
    out = [0] * (len(xs) + len(kernel) - 1)
    for i, x in enumerate(xs):
        for j, k in enumerate(kernel):
            out[i + j] += x * k
    return out


def verify_consistency(
    seq: DecompositionSequence,
    w1: Weight1Data | None = None,
    max_weight: int = 40,
) -> ConsistencyReport:
    """Convolution, rank, cross-block and cusp-form identities for ``seq``."""
    checks: list[tuple[str, bool, str]] = []
    group = seq.group
    tag = seq.block.tag
    m = dimension_function(group, w1)

    rows = ((k, m(k), seq.mult.convolve(seq.block.hilbert, k)) for k in range(max_weight + 1))
    bad = [row for row in rows if row[1] != row[2]]
    checks.append(
        (
            "convolution",
            not bad,
            "exact through weight %d" % max_weight
            if not bad
            else "first failure at weight %d: m=%d, reconstruction=%d" % bad[0],
        )
    )

    inv = level_invariants(group)
    rank = seq.mult.total() * seq.block.rank
    checks.append(
        (
            "rank",
            rank == inv.index,
            f"sum(mult) * {seq.block.rank} = {rank}, index = {inv.index}",
        )
    )

    if tag in OMEGA_KERNEL:
        try:
            omega = omega_decomposition(group, w1).as_list()
            got = _convolve_lists(seq.as_list(), OMEGA_KERNEL[tag])
            got = got[:12] + [0] * (12 - len(got))
            ok = got[:12] == omega
            checks.append(
                ("cross-block", ok, f"omega sequence {'matches' if ok else got}")
            )
        except DecompositionInvalid as exc:
            checks.append(("cross-block", False, str(exc)))

    s = lambda k: dim_cusp_forms(group, k, w1)
    ls = seq.as_list()
    if tag is BlockTag.OMEGA_POWERS:
        ok = all(ls[12 - i] == s(i) for i in range(1, 5)) and ls[10] == inv.genus
        checks.append(("cusp-identities", ok, "l_{12-i} = s_i, l_10 = genus"))
    elif tag is BlockTag.LEVEL3:
        ok = ls[5] == s(1) and ls[4] == s(2) - s(1)
        checks.append(("cusp-identities", ok, "k_5 = s_1, k_4 = s_2 - s_1"))
        balanced = ls[0] + ls[3] == ls[1] + ls[4] == ls[2] + ls[5]
        checks.append(("balance", balanced, "k_0+k_3 = k_1+k_4 = k_2+k_5"))
    elif tag is BlockTag.LEVEL2:
        ok = ls[7] == s(1) and ls[6] == inv.genus
        checks.append(("cusp-identities", ok, "k_7 = s_1, k_6 = genus"))

    return ConsistencyReport(group, tag, tuple(checks))


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
    """
    target = dimension_function(group, w1)
    if q == 1:
        block = base_block(BlockTag.OMEGA_POWERS).hilbert
    else:
        block = dimension_function(CongruenceGroup(GroupKind.GAMMA1, q), w1)
    return deconvolve(target, block, max_shift, verify_through)


# ---------------------------------------------------------------------------
# Obstruction search


@dataclass(frozen=True)
class ObstructionReport:
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
    for d in range(5, d_q + 1):
        if is_prime(d) and d_q % d == 0:
            for a in range(2, d - 1):
                if a % d not in (1, d - 1):
                    return d, a
    raise ValueError(f"no usable divisor of {d_q} (is d_q > 24?)")


def obstruction_search(q: int, prime_bound: int) -> ObstructionReport:
    """All primes p <= prime_bound coprime to q with their d_p | d_q verdicts."""
    if q <= 6:
        raise ValueError("obstruction search needs q > 6")
    if prime_bound < 2:
        raise ValueError(f"prime bound must be >= 2, got {prime_bound}")
    d_q = gamma1_index(q)
    assert d_q > 24
    divisor, residue = _obstruction_divisor(d_q)
    sieve = bytearray([1]) * (prime_bound + 1)  # from 2 on, sieve[n] = 1 iff n is prime
    for p in range(2, isqrt(prime_bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, prime_bound + 1, p)))
    d_ps = [(p, (p - 1) * (p + 1)) for p in range(2, prime_bound + 1) if sieve[p] and q % p]
    primes = tuple((p, d_p, d_p % d_q == 0) for p, d_p in d_ps)
    return ObstructionReport(q, d_q, divisor, residue, primes)


# ---------------------------------------------------------------------------
# Table generation

TABLE_MIN_LEVEL = {
    BlockTag.OMEGA_POWERS: 2,
    BlockTag.LEVEL2: 4,
    BlockTag.LEVEL3: 5,
}


def table_generate(
    lo: int,
    hi: int,
    flavor: BlockTag,
    w1: Weight1Data | None = None,
) -> list[tuple[int, ...]]:
    """Rows (n, [genus,] multiplicities) for Gamma1(n), lo <= n <= hi.

    ``lo`` is clamped up to the smallest level the flavor supports; a range
    left empty raises ValueError.  The genus column is only present for the
    omega flavor.
    """
    if flavor not in TABLE_MIN_LEVEL:
        raise ValueError(f"unsupported table flavor {flavor}")
    first = TABLE_MIN_LEVEL[flavor]
    if max(lo, first) > hi:
        raise ValueError(f"empty level range {lo}..{hi}; this table starts at {first}")
    rows = []
    for n in range(max(lo, first), hi + 1):
        group = CongruenceGroup(GroupKind.GAMMA1, n)
        if flavor is BlockTag.OMEGA_POWERS:
            seq = omega_decomposition(group, w1)
            rows.append((n, level_invariants(group).genus, *seq.as_list()))
        elif flavor is BlockTag.LEVEL3:
            rows.append((n, *level3_decomposition(group, w1).as_list()))
        else:
            rows.append((n, *level2_decomposition(group, w1).as_list()))
    return rows
