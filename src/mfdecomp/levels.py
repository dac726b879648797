"""Invariants of congruence subgroups and dimensions of modular/cusp forms.

Covers Gamma0(n), Gamma1(n) and Gamma(n) for n >= 2.  Indices are counted
in SL2(Z) (the degree of the map of moduli stacks), so for Gamma1(n) with
n >= 5 they are twice the PSL2 index.  Dimensions in characteristic 0:

* representable cases (Gamma1(n>=5), Gamma(n>=3)): Riemann-Roch on the
  modular curve, all cusps regular;
* the small non-representable levels Gamma1(2), Gamma1(3), Gamma1(4) and
  Gamma(2): monomial counting in the weighted polynomial rings with
  generator weights (2,4), (1,3), (1,2) and (2,2);
* Gamma0(n): odd weights vanish, even weights use the classical formula
  with elliptic-point terms, calibrated against g(X0(11)) = 1 and
  g(X0(23)) = 2.

``level_invariants`` computes a group's invariants once and memoises them
(weight-1 data is no input to it); the dimension functions read that record
and use integer arithmetic only.

Weight-1 dimensions are not computable by Riemann-Roch.  We use the
degree criterion (the cusp-form line bundle has negative degree) where it
applies and otherwise a curated table covering Gamma1(n) for n <= 42,
overridable from a plain-text file with lines ``kind level s1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import gcd
from pathlib import Path

from .hilbert import WeightedLine, h0_dim

__all__ = [
    "CongruenceGroup",
    "GroupKind",
    "InvalidGroup",
    "LevelInvariants",
    "Weight1Data",
    "Weight1Unavailable",
    "cusp_count",
    "dim_cusp_forms",
    "dim_modular_forms",
    "elliptic_counts",
    "genus",
    "index",
    "level_invariants",
    "omega_degree",
]


class InvalidGroup(ValueError):
    pass


class Weight1Unavailable(LookupError):
    """No way to determine a weight-1 dimension for this group."""


class GroupKind(str, Enum):
    GAMMA0 = "g0"
    GAMMA1 = "g1"
    GAMMA_FULL = "g"


@dataclass(frozen=True)
class CongruenceGroup:
    kind: GroupKind
    level: int

    def __post_init__(self) -> None:
        if self.level < 2:
            raise InvalidGroup(f"level must be >= 2, got {self.level}")

    def __str__(self) -> str:
        return f"{self.kind.value}:{self.level}"

    @classmethod
    def parse(cls, spec: str) -> "CongruenceGroup":
        """Parse a group spec of the form g0:N, g1:N or g:N."""
        head, sep, tail = spec.partition(":")
        if not sep:
            raise InvalidGroup(f"malformed group spec {spec!r}")
        try:
            kind = GroupKind(head)
        except ValueError:
            raise InvalidGroup(f"unknown group kind {head!r}") from None
        try:
            level = int(tail)
        except ValueError:
            raise InvalidGroup(f"malformed level {tail!r}") from None
        return cls(kind, level)


#: Weighted polynomial-ring generator degrees for the non-representable
#: small levels (the moduli are weighted projective lines).
SMALL_LEVEL_WEIGHTS: dict[tuple[GroupKind, int], tuple[int, int]] = {
    (GroupKind.GAMMA1, 2): (2, 4),
    (GroupKind.GAMMA1, 3): (1, 3),
    (GroupKind.GAMMA1, 4): (1, 2),
    (GroupKind.GAMMA_FULL, 2): (2, 2),
}


def is_representable(group: CongruenceGroup) -> bool:
    """Whether the compactified modular curve is an honest projective curve."""
    if group.kind is GroupKind.GAMMA1:
        return group.level >= 5
    if group.kind is GroupKind.GAMMA_FULL:
        return group.level >= 3
    return False


@lru_cache(maxsize=None)
def _phi(n: int) -> int:
    result = n
    for p in _prime_divisors(n):
        result -= result // p
    return result


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            return False
        p += 1
    return True


def _prime_divisors(n: int) -> list[int]:
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return out


def gamma1_index(n: int) -> int:
    """d_n = [SL2(Z) : Gamma1(n)] = sum over d|n of d phi(d) phi(n/d)."""
    return sum(d * _phi(d) * _phi(n // d) for d in _divisors(n))


def index(group: CongruenceGroup) -> int:
    n = group.level
    if group.kind is GroupKind.GAMMA1:
        return gamma1_index(n)
    if group.kind is GroupKind.GAMMA_FULL:
        return n * gamma1_index(n)  # = |SL2(Z/n)| = n^3 prod (1 - 1/p^2)
    # Gamma0(n): n prod (1 + 1/p)
    num = n
    for p in _prime_divisors(n):
        num = num // p * (p + 1)
    return num


def omega_degree(group: CongruenceGroup) -> Fraction:
    return Fraction(index(group), 24)


def cusp_count(group: CongruenceGroup) -> int:
    n = group.level
    if group.kind is GroupKind.GAMMA1:
        if n == 2 or n == 3:
            return 2
        if n == 4:
            return 3
        total = sum(_phi(d) * _phi(n // d) for d in _divisors(n))
        assert total % 2 == 0
        return total // 2
    if group.kind is GroupKind.GAMMA_FULL:
        if n == 2:
            return 3
        idx = index(group)
        assert idx % (2 * n) == 0
        return idx // (2 * n)
    return sum(_phi(gcd(d, n // d)) for d in _divisors(n))


def _legendre_minus_one(p: int) -> int:
    return 1 if p % 4 == 1 else -1


def _legendre_minus_three(p: int) -> int:
    if p == 3:
        return 0
    return 1 if p % 3 == 1 else -1


def elliptic_counts(group: CongruenceGroup) -> tuple[int, int]:
    """(number of order-2 elliptic points, number of order-3 elliptic points)."""
    n = group.level
    if group.kind is GroupKind.GAMMA1:
        if n == 2:
            return (1, 0)
        if n == 3:
            return (0, 1)
        return (0, 0)
    if group.kind is GroupKind.GAMMA_FULL:
        return (0, 0)
    e2 = 0
    if n % 4 != 0:
        e2 = 1
        for p in _prime_divisors(n):
            if p == 2:
                continue
            e2 *= 1 + _legendre_minus_one(p)
    e3 = 0
    if n % 9 != 0:
        e3 = 1
        for p in _prime_divisors(n):
            e3 *= 1 + _legendre_minus_three(p)
    return (e2, e3)


def genus(group: CongruenceGroup) -> int:
    n = group.level
    if (group.kind, n) in SMALL_LEVEL_WEIGHTS:
        return 0
    if group.kind in (GroupKind.GAMMA1, GroupKind.GAMMA_FULL):
        g = Fraction(1) + omega_degree(group) - Fraction(cusp_count(group), 2)
        assert g.denominator == 1 and g >= 0
        return int(g)
    mu = index(group)
    e2, e3 = elliptic_counts(group)
    g = (
        Fraction(1)
        + Fraction(mu, 12)
        - Fraction(e2, 4)
        - Fraction(e3, 3)
        - Fraction(cusp_count(group), 2)
    )
    assert g.denominator == 1 and g >= 0
    return int(g)


@dataclass(frozen=True)
class LevelInvariants:
    index: int
    omega_degree: Fraction
    cusps: int
    elliptic2: int
    elliptic3: int
    genus: int


@lru_cache(maxsize=None)
def level_invariants(group: CongruenceGroup) -> LevelInvariants:
    """All invariants of ``group``, computed once; every dimension reads them."""
    e2, e3 = elliptic_counts(group)
    return LevelInvariants(
        index=index(group),
        omega_degree=omega_degree(group),
        cusps=cusp_count(group),
        elliptic2=e2,
        elliptic3=e3,
        genus=genus(group),
    )


# ---------------------------------------------------------------------------
# Weight-1 data


def _default_weight1_table() -> dict[tuple[GroupKind, int], int]:
    table = {}
    for n in range(2, 43):
        table[(GroupKind.GAMMA1, n)] = 1 if n in (23, 31, 39) else 0
    return table


@dataclass(frozen=True)
class Weight1Data:
    """Curated weight-1 cusp-form dimensions, keyed by (kind, level).

    ``provenance`` records where each entry came from ("builtin" or the
    override file path).
    """

    table: dict[tuple[GroupKind, int], int] = field(default_factory=dict)
    provenance: dict[tuple[GroupKind, int], str] = field(default_factory=dict)

    @classmethod
    def default(cls) -> "Weight1Data":
        table = _default_weight1_table()
        return cls(table, {key: "builtin" for key in table})

    @classmethod
    def load(cls, path: str | Path) -> "Weight1Data":
        """Default table extended/overridden by lines ``kind level s1``."""
        base = cls.default()
        table = dict(base.table)
        provenance = dict(base.provenance)
        source = str(path)
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"{source}:{lineno}: expected 'kind level s1'")
            try:
                kind = GroupKind(parts[0])
                level = int(parts[1])
                s1 = int(parts[2])
            except ValueError as exc:
                raise ValueError(f"{source}:{lineno}: {exc}") from None
            if s1 < 0:
                raise ValueError(f"{source}:{lineno}: s1 must be >= 0")
            table[(kind, level)] = s1
            provenance[(kind, level)] = source
        return cls(table, provenance)

    def lookup(self, group: CongruenceGroup) -> int | None:
        return self.table.get((group.kind, group.level))


def weight1_cusp_dim(group: CongruenceGroup, w1: Weight1Data | None = None) -> int:
    """s_1: zero when the degree criterion forces vanishing, else from the table."""
    if group.kind is GroupKind.GAMMA0:
        return 0  # -I acts as -1 on odd weights
    inv = level_invariants(group)
    if 2 * inv.genus - 2 - inv.omega_degree < 0:
        return 0
    if w1 is None:
        w1 = Weight1Data.default()
    entry = w1.lookup(group)
    if entry is None:
        raise Weight1Unavailable(
            f"weight-1 cusp dimension for {group} is not in the table and the "
            "vanishing criterion does not apply"
        )
    return entry


# ---------------------------------------------------------------------------
# Dimensions


def dim_modular_forms(
    group: CongruenceGroup, k: int, w1: Weight1Data | None = None
) -> int:
    if k < 0:
        return 0
    if k == 0:
        return 1
    key = (group.kind, group.level)
    if key in SMALL_LEVEL_WEIGHTS:
        a, b = SMALL_LEVEL_WEIGHTS[key]
        return h0_dim(WeightedLine(a, b), k)
    inv = level_invariants(group)
    if group.kind is GroupKind.GAMMA0:
        if k % 2 == 1:
            return 0
        e2, e3 = inv.elliptic2, inv.elliptic3
        return (k - 1) * (inv.genus - 1) + (k // 4) * e2 + (k // 3) * e3 + (k // 2) * inv.cusps
    # representable Gamma1(n >= 5) / Gamma(n >= 3)
    if k == 1:
        assert inv.cusps % 2 == 0  # all cusps regular
        return inv.cusps // 2 + weight1_cusp_dim(group, w1)
    m, rem = divmod(inv.index * k, 24)  # deg(omega^k) = index * k / 24
    assert rem == 0 and m + 1 - inv.genus >= 0
    return m + 1 - inv.genus


def dim_cusp_forms(
    group: CongruenceGroup, k: int, w1: Weight1Data | None = None
) -> int:
    if k <= 0:
        return 0
    key = (group.kind, group.level)
    if key in SMALL_LEVEL_WEIGHTS:
        # Duality on the weighted line: cusp forms of weight k are sections
        # of Omega^1 (x) omega^{k-2} = O(k - 2 - a - b).
        a, b = SMALL_LEVEL_WEIGHTS[key]
        return h0_dim(WeightedLine(a, b), k - 2 - a - b)
    if k == 1:
        return weight1_cusp_dim(group, w1)
    inv = level_invariants(group)
    if k == 2:
        return inv.genus
    if group.kind is GroupKind.GAMMA0 and k % 2 == 1:
        return 0
    return dim_modular_forms(group, k, w1) - inv.cusps
