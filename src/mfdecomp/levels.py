"""Invariants of congruence subgroups and dimensions of modular/cusp forms.

Covers Gamma0(n), Gamma1(n) and Gamma(n) for n >= 2.  Indices are counted
in SL2(Z) (the degree of the map of moduli stacks), so for Gamma1(n) with
n >= 5 they are twice the PSL2 index.  Dimensions in characteristic 0, from
the Hilbert series of the stacky modular curve (Wagreich 1980):

* representable cases (Gamma1(n>=5), Gamma(n>=3)): Riemann-Roch on the
  modular curve, all cusps regular;
* the small non-representable levels Gamma1(2), Gamma1(3), Gamma1(4) and
  Gamma(2): the weighted polynomial rings with generator weights (2,4),
  (1,3), (1,2) and (2,2);
* Gamma0(n): odd weights vanish, even weights take genus, cusp and
  elliptic-point terms.

A ``CongruenceGroup``'s kind is always a ``GroupKind`` member: the
constructor, and so ``_replace``, turns a plain "g0", "g1" or "g" into it and
raises ``InvalidGroup`` for any other kind or a level that is no integer >= 2.
``level_invariants`` derives index, cusps, elliptic points and genus in
integers, from one walk per level, shared by the three kinds, over the
factorisation of the level; they are read as its fields (``genus`` has a
function too).  The graded dimensions have one path: ``_numerators`` writes
the Hilbert numerators N of sum_k m_k t^k = N(t)/((1 - t^4)(1 - t^6)) and N_S
of the cusp forms in closed form from the invariants and s_1, once per
(group, s_1): N by one ``hilbert.add_product`` per series with its block
kernel, which ``hilbert.denominator_quotient`` builds once, and
N_S(t) = t^12 N(1/t) by Serre duality.  ``hilbert_numerators`` returns them;
every dimension, closed form, identity, oracle and consistency check reads them.

Weight-1 dimensions are not computable by Riemann-Roch.  We use the
degree criterion (the cusp-form line bundle has negative degree) where it
applies and otherwise a curated table covering Gamma1(n) for n <= 42,
overridable from a plain-text file with lines ``kind level s1``.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

from .arith import factorize, parse_integer, read_lines
from .hilbert import add_product, denominator_quotient, over_denominator

__all__ = [
    "CongruenceGroup",
    "GroupKind",
    "InvalidGroup",
    "LevelInvariants",
    "Weight1Data",
    "Weight1Unavailable",
    "dim_cusp_forms",
    "dim_modular_forms",
    "genus",
    "hilbert_numerators",
    "level_invariants",
]


class InvalidGroup(ValueError):
    pass


class Weight1Unavailable(LookupError):
    """No way to determine a weight-1 dimension for this group."""


class GroupKind(str, Enum):
    GAMMA0 = "g0"
    GAMMA1 = "g1"
    GAMMA_FULL = "g"


#: Members the hot paths test, as plain names: an Enum attribute read costs ~0.1 us more.
_GAMMA0, _GAMMA_FULL = GroupKind.GAMMA0, GroupKind.GAMMA_FULL


class CongruenceGroup(namedtuple("CongruenceGroup", "kind level")):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks the fields too

    def __new__(cls, kind: GroupKind, level: int) -> "CongruenceGroup":
        if type(kind) is not GroupKind:  # a plain "g0" would fail every `kind is` test
            try:
                kind = GroupKind(kind)
            except ValueError:
                raise InvalidGroup(f"unknown group kind {kind!r}") from None
        if not isinstance(level, int):  # a float level would fail only later, in factorize
            raise InvalidGroup(f"level must be an integer, got {level!r}")
        if level < 2:
            raise InvalidGroup(f"level must be >= 2, got {level}")
        return super().__new__(cls, kind, level)

    def __str__(self) -> str:
        return f"{self.kind.value}:{self.level}"

    @classmethod
    def parse(cls, spec: str) -> "CongruenceGroup":
        """Parse a group spec of the form g0:N, g1:N or g:N."""
        head, sep, tail = spec.partition(":")
        if not sep:
            raise InvalidGroup(f"malformed group spec {spec!r}")
        try:
            level = parse_integer(tail)
        except ValueError:
            cls(head, 2)  # an unknown kind is reported before a malformed level
            raise InvalidGroup(f"malformed level {tail!r}") from None
        return cls(head, level)


#: Weighted polynomial-ring generator degrees for the non-representable
#: small levels (the moduli are weighted projective lines).
SMALL_LEVEL_WEIGHTS: dict[tuple[GroupKind, int], tuple[int, int]] = {
    (GroupKind.GAMMA1, 2): (2, 4),
    (GroupKind.GAMMA1, 3): (1, 3),
    (GroupKind.GAMMA1, 4): (1, 2),
    (GroupKind.GAMMA_FULL, 2): (2, 2),
}


class LevelInvariants(NamedTuple):
    index: int
    omega_degree: Fraction
    cusps: int
    elliptic2: int
    elliptic3: int
    genus: int


@lru_cache(maxsize=None)
def _level_record(n: int) -> tuple[int, int, int, int, int, int]:
    """Gamma0(n)'s mu, cusps, e2 and e3 and Gamma1(n)'s mu and pairs, in integers, from one
    walk over the factorisation of n; memoised per level, so the three kinds share it."""
    # Gamma0(n): mu = n prod (1 + 1/p); cusps = sum over d | n of phi(gcd(d, n/d)), whose
    # p-part is 2 p^((e-1)/2) for odd e and p^(e/2 - 1) (p + 1) for even e;
    # e2 = prod over odd p | n of 1 + (-1/p), e3 = prod over p | n of 1 + (-3/p).
    # Gamma1(n): mu = [SL2(Z) : Gamma1(n)] = n^2 prod (1 - 1/p^2); pairs = sum over d | n
    # of phi(d) phi(n/d), twice the Gamma1(n) cusp count for n >= 5, whose
    # p-part is 2 phi(p^e) + (e - 1) p^(e-2) (p - 1)^2
    mu0, cusps, e2, e3, mu1, pairs = n, 1, int(n % 4 != 0), int(n % 9 != 0), n * n, 1
    for p, e in factorize(n):
        mu0 = mu0 // p * (p + 1)
        cusps *= 2 * p ** (e // 2) if e % 2 else p ** (e // 2 - 1) * (p + 1)
        if p != 2:
            e2 *= 2 if p % 4 == 1 else 0
        e3 *= 1 if p == 3 else 2 if p % 3 == 1 else 0
        mu1 = mu1 // (p * p) * (p * p - 1)
        phi = p ** (e - 1) * (p - 1)
        pairs *= 2 * phi + (e - 1) * phi * (p - 1) // p
    return mu0, cusps, e2, e3, mu1, pairs


@lru_cache(maxsize=None)
def level_invariants(group: CongruenceGroup) -> LevelInvariants:
    """All invariants of ``group``, in integers, from its level's ``_level_record``;
    memoised per group, and every dimension reads them."""
    kind, n = group
    mu, cusps, e2, e3, mu1, pairs = _level_record(n)
    if kind is _GAMMA0:
        genus24 = 24 + 2 * mu - 6 * e2 - 8 * e3 - 12 * cusps
    else:
        mu, e2, e3 = mu1, 0, 0
        if kind is _GAMMA_FULL:
            mu *= n  # = |SL2(Z/n)| = n^3 prod (1 - 1/p^2)
            cusps = 3 if n == 2 else mu // (2 * n)
        elif n > 4:
            cusps = pairs // 2
        else:  # Gamma1(2), Gamma1(3), Gamma1(4)
            cusps, e2, e3 = 3 if n == 4 else 2, int(n == 2), int(n == 3)
        genus24 = 24 + mu - 12 * cusps
    if n <= 4 and (kind, n) in SMALL_LEVEL_WEIGHTS:  # no small level is above 4
        genus24 = 0  # weighted projective lines
    g, rem = divmod(genus24, 24)
    assert rem == 0 and g >= 0, group
    # the record's own constructor minus its Python frame, as every group builds one
    return tuple.__new__(LevelInvariants, (mu, Fraction(mu, 24), cusps, e2, e3, g))


def genus(group: CongruenceGroup) -> int:
    return level_invariants(group).genus


# ---------------------------------------------------------------------------
# Weight-1 data


def _weight1_vanishes(group: CongruenceGroup) -> bool:
    """Whether s_1 = 0 is forced: for Gamma0, -I acts as -1 on odd weights;
    otherwise by the degree criterion 2g - 2 - index/24 < 0."""
    if group.kind is _GAMMA0:
        return True
    inv = level_invariants(group)
    return 48 * (inv.genus - 1) < inv.index


class Weight1Data(NamedTuple):
    """Curated weight-1 cusp-form dimensions, keyed by (kind, level).

    ``provenance`` records where each entry came from ("builtin" or the
    override file path).
    """

    table: dict[tuple[GroupKind, int], int]
    provenance: dict[tuple[GroupKind, int], str]

    @classmethod
    def default(cls) -> "Weight1Data":
        table = {(GroupKind.GAMMA1, n): int(n in (23, 31, 39)) for n in range(2, 43)}
        return cls(table, {key: "builtin" for key in table})

    @classmethod
    def load(cls, path: str | Path) -> "Weight1Data":
        """Default table extended/overridden by lines ``kind level s1``; a
        line that contradicts a forced s_1 = 0 or repeats a group is an error."""
        entries: dict[tuple[GroupKind, int], int] = {}

        def read(_: int, line: str) -> None:
            parts = line.split()
            if len(parts) != 3:
                raise ValueError("expected 'kind level s1'")
            CongruenceGroup(parts[0], 2)  # an unknown kind is reported before a malformed level
            group = CongruenceGroup(parts[0], parse_integer(parts[1]))
            s1 = parse_integer(parts[2])
            if s1 < 0:
                raise ValueError("s1 must be >= 0")
            if s1 and _weight1_vanishes(group):
                raise ValueError(f"s1 of {group} is forced to be 0")
            if (key := (group.kind, group.level)) in entries:
                raise ValueError(f"repeated entry for {group}")
            entries[key] = s1

        read_lines(Path(path).read_bytes(), source := str(path), read)
        base = cls.default()
        return cls({**base.table, **entries}, {**base.provenance, **dict.fromkeys(entries, source)})

    def lookup(self, group: CongruenceGroup) -> int | None:
        return self.table.get((group.kind, group.level))


#: The builtin table, built once, on first use by a call given no table.
_builtin_weight1 = lru_cache(maxsize=1)(Weight1Data.default)


def weight1_cusp_dim(group: CongruenceGroup, w1: Weight1Data | None = None) -> int:
    """s_1: zero when the degree criterion forces vanishing, else from the table."""
    if _weight1_vanishes(group):
        return 0
    if w1 is None:
        w1 = _builtin_weight1()
    entry = w1.lookup(group)
    if entry is None:
        raise Weight1Unavailable(
            f"weight-1 cusp dimension for {group} is not in the table and the "
            "vanishing criterion does not apply"
        )
    return entry


# ---------------------------------------------------------------------------
# Dimensions


LEVEL1_WEIGHTS = (4, 6)  #: of E_4 and E_6, the generators of the level-1 ring


@lru_cache(maxsize=None)
def _numerators(group: CongruenceGroup, s1: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(N, N_S), 12 and 13 coefficients: M(t) = sum_k m_k t^k = N(t)/((1 - t^4)(1 - t^6)),
    and S(t) likewise, in closed form.  M is a sum of one to three series h(t)/prod_w (1 - t^w),
    so N = sum h K_w, of degree <= 11, is one ``add_product`` per series by the kernel
    K_w = (1 - t^4)(1 - t^6)/prod_w (1 - t^w) that ``denominator_quotient`` builds once:
    h = 1 over (a, b) on the small levels P(a, b); on Gamma1(n >= 5) and Gamma(n >= 3),
    h = (1, d - g - 1 + s_1, g - 2 s_1, s_1) over (1, 1), that is m_1 = c/2 + s_1 and
    m_k = d k + 1 - g (k >= 2) for d = index/24; on Gamma0(n), (1, 0, g + c - 3, 0, g)
    over (2, 2), the genus and cusp terms of even weights, plus e_2 t^4 over (2, 4) and
    e_3 (t^4 + t^6) over (2, 6), for e_2 floor(k/4) and e_3 floor(k/3).  Serre duality
    gives N_S(t) = t^12 N(1/t).  Once per (group, s_1): the unhashable ``Weight1Data`` is no key."""
    key = (group.kind, group.level)
    if key in SMALL_LEVEL_WEIGHTS:
        series = [((1,), SMALL_LEVEL_WEIGHTS[key])]
    else:
        inv = level_invariants(group)
        g, e3 = inv.genus, inv.elliptic3
        if group.kind is _GAMMA0:
            series = [((1, 0, g + inv.cusps - 3, 0, g), (2, 2)), ((0, 0, 0, 0, inv.elliptic2), (2, 4)),
                      ((0, 0, 0, 0, e3, 0, e3), (2, 6))]
        else:
            d, rem = divmod(inv.index, 24)
            assert rem == 0 and inv.cusps == 2 * (d + 1 - g), group  # every cusp regular
            series = [((1, d - g - 1 + s1, g - 2 * s1, s1), (1, 1))]
    numerator = [0] * 12
    for h, w in series:
        add_product(numerator, h, denominator_quotient(LEVEL1_WEIGHTS, w))
    return tuple(numerator), (0, *reversed(numerator))


def hilbert_numerators(
    group: CongruenceGroup, w1: Weight1Data | None = None
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(N, N_S) of ``_numerators``: every weight of M(t) and S(t), once per (group, s_1)."""
    return _numerators(group, weight1_cusp_dim(group, w1))


def _coefficient(group: CongruenceGroup, k: int, w1: Weight1Data | None, cusp: bool) -> int:
    """The coefficient of t^k in N(t) or N_S(t) over (1 - t^4)(1 - t^6).  s_1 moves
    N and N_S only by s_1 t (1 - t^4)(1 - t^6), so every weight k != 1 reads the
    numerators of s_1 = 0 and needs no weight-1 data."""
    if k < 0:
        return 0
    numerators = _numerators(group, weight1_cusp_dim(group, w1) if k == 1 else 0)
    return over_denominator(numerators[cusp], LEVEL1_WEIGHTS, k + 1)[k]


def dim_modular_forms(
    group: CongruenceGroup, k: int, w1: Weight1Data | None = None
) -> int:
    """m_k, read from N; weights k != 1 need no weight-1 data, and k = 1 raises
    ``Weight1Unavailable`` past the table."""
    return _coefficient(group, k, w1, False)


def dim_cusp_forms(
    group: CongruenceGroup, k: int, w1: Weight1Data | None = None
) -> int:
    """s_k, read from N_S; weights k != 1 need no weight-1 data, and k = 1 raises
    ``Weight1Unavailable`` past the table."""
    return _coefficient(group, k, w1, True)
