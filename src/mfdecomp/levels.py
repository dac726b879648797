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

A ``CongruenceGroup``'s kind is always a ``GroupKind`` member: the
constructor, and so ``_replace``, turns a plain "g0", "g1" or "g" into it and
raises ``InvalidGroup`` for any other kind.  ``level_invariants`` derives
index, cusps, elliptic points and genus from one factorisation of the level,
in integers, once per group; they are read as its fields (``genus`` has a
function too).  The dimension formulas have one path: ``_numerators``
evaluates them at weights 0..12, once per (group, s_1), and keeps the graded
dimensions as two polynomials, sum_k m_k t^k = N(t)/((1 - t^4)(1 - t^6)) and
sum_k s_k t^k = N_S(t)/((1 - t^4)(1 - t^6)) (for the small levels the series
1/((1 - t^a)(1 - t^b)) and t^(a+b+2)/((1 - t^a)(1 - t^b))); every dimension
is read from them.  ``hilbert_numerators`` returns them, and
``dim_modular_forms`` and ``dim_cusp_forms`` expand them to one weight.  The
decomposition closed forms, their cusp-form identities, the deconvolution
oracle and the consistency checks all read the numerators.

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

from .arith import factorize
from .hilbert import over_denominator, times_denominator

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


def _integer(text: str) -> int:
    """int(text) for ASCII digits, optionally led by '-', within whitespace:
    no '+', no '_' separator and no other script's digits."""
    digits = text.strip().removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


class CongruenceGroup(namedtuple("CongruenceGroup", "kind level")):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks the fields too

    def __new__(cls, kind: GroupKind, level: int) -> "CongruenceGroup":
        if type(kind) is not GroupKind:  # a plain "g0" would fail every `kind is` test
            try:
                kind = GroupKind(kind)
            except ValueError:
                raise InvalidGroup(f"unknown group kind {kind!r}") from None
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
            level = _integer(tail)
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
def level_invariants(group: CongruenceGroup) -> LevelInvariants:
    """All invariants of ``group`` from one factorisation of its level, in
    integers; memoised per group, and every dimension reads them."""
    n, kind = group.level, group.kind
    primes = factorize(n)
    e2 = e3 = 0
    if kind is GroupKind.GAMMA0:
        # mu = n prod (1 + 1/p); cusps = sum over d | n of phi(gcd(d, n/d)), whose
        # p-part is 2 p^((e-1)/2) for odd e and p^(e/2 - 1) (p + 1) for even e;
        # e2 = prod over odd p | n of 1 + (-1/p), e3 = prod over p | n of 1 + (-3/p)
        mu, cusps, e2, e3 = n, 1, int(n % 4 != 0), int(n % 9 != 0)
        for p, e in primes:
            mu = mu // p * (p + 1)
            cusps *= 2 * p ** (e // 2) if e % 2 else p ** (e // 2 - 1) * (p + 1)
            if p != 2:
                e2 *= 2 if p % 4 == 1 else 0
            e3 *= 1 if p == 3 else 2 if p % 3 == 1 else 0
        genus24 = 24 + 2 * mu - 6 * e2 - 8 * e3 - 12 * cusps
    else:
        # mu = [SL2(Z) : Gamma1(n)] = n^2 prod (1 - 1/p^2); pairs = sum over d | n
        # of phi(d) phi(n/d), twice the Gamma1(n) cusp count for n >= 5, whose
        # p-part is 2 phi(p^e) + (e - 1) p^(e-2) (p - 1)^2
        mu, pairs = n * n, 1
        for p, e in primes:
            mu = mu // (p * p) * (p * p - 1)
            phi = p ** (e - 1) * (p - 1)
            pairs *= 2 * phi + (e - 1) * phi * (p - 1) // p
        if kind is GroupKind.GAMMA_FULL:
            mu *= n  # = |SL2(Z/n)| = n^3 prod (1 - 1/p^2)
            cusps = 3 if n == 2 else mu // (2 * n)
        elif n > 4:
            cusps = pairs // 2
        else:  # Gamma1(2), Gamma1(3), Gamma1(4)
            cusps, e2, e3 = 3 if n == 4 else 2, int(n == 2), int(n == 3)
        genus24 = 24 + mu - 12 * cusps
    if (kind, n) in SMALL_LEVEL_WEIGHTS:
        genus24 = 0  # weighted projective lines
    g, rem = divmod(genus24, 24)
    assert rem == 0 and g >= 0, group
    return LevelInvariants(mu, Fraction(mu, 24), cusps, e2, e3, g)


def genus(group: CongruenceGroup) -> int:
    return level_invariants(group).genus


# ---------------------------------------------------------------------------
# Weight-1 data


def _weight1_vanishes(group: CongruenceGroup) -> bool:
    """Whether s_1 = 0 is forced: for Gamma0, -I acts as -1 on odd weights;
    otherwise by the degree criterion 2g - 2 - index/24 < 0."""
    if group.kind is GroupKind.GAMMA0:
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
        source = str(path)
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"{source}:{lineno}: expected 'kind level s1'")
            try:
                group = CongruenceGroup(GroupKind(parts[0]), _integer(parts[1]))
                s1 = _integer(parts[2])
            except ValueError as exc:
                raise ValueError(f"{source}:{lineno}: {exc}") from None
            if s1 < 0:
                raise ValueError(f"{source}:{lineno}: s1 must be >= 0")
            if s1 and _weight1_vanishes(group):
                raise ValueError(f"{source}:{lineno}: s1 of {group} is forced to be 0")
            if (key := (group.kind, group.level)) in entries:
                raise ValueError(f"{source}:{lineno}: repeated entry for {group}")
            entries[key] = s1
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
    and S(t) likewise; the only place the dimension formulas are evaluated, at
    weights 0..12 in one pass.  deg N <= 11 and deg N_S <= 12, so they hold every
    weight: (1 - t^4)(1 - t^6) is (1 - t)^2 times a polynomial of degree 8, and for
    a representable group m_k is linear for k >= 2 and s_k for k >= 3, so (1 - t)^2 M
    and (1 - t)^2 S have degrees <= 3 and 4; for Gamma0, m_k and s_k are quasi-linear
    with period dividing 12 on even weights, proper over (1 - t^4)(1 - t^6) but for
    m_0, s_0 and s_2; for the small levels N is the block kernel and N_S is
    t^(a+b+2) N.  s_1 enters m_1 and s_1 alone.  Once per (group, s_1): the
    unhashable ``Weight1Data`` is no key."""
    key = (group.kind, group.level)
    if key in SMALL_LEVEL_WEIGHTS:  # monomials of weight k in the weighted ring
        # Duality on the weighted line: cusp forms of weight k are sections
        # of Omega^1 (x) omega^{k-2} = O(k - 2 - a - b).
        a, b = SMALL_LEVEL_WEIGHTS[key]
        m = over_denominator([1], (a, b), 13)
        s = [0] * (a + b + 2) + m
    else:
        inv = level_invariants(group)
        if group.kind is GroupKind.GAMMA0:  # -I acts as -1: odd weights vanish
            g, e2, e3, c = inv.genus - 1, inv.elliptic2, inv.elliptic3, inv.cusps
            m = [0 if k % 2 else (k - 1) * g + k // 4 * e2 + k // 3 * e3 + k // 2 * c for k in range(13)]
        else:  # representable Gamma1(n >= 5) / Gamma(n >= 3): deg(omega^k) = index * k / 24
            degree, rem = divmod(inv.index, 24)
            assert rem == 0 and inv.cusps % 2 == 0 and 2 * degree + 1 >= inv.genus  # cusps regular
            m = [degree * k + 1 - inv.genus for k in range(13)]
            m[1] = inv.cusps // 2 + s1
        m[0] = 1
        s = [0, s1, inv.genus]  # s_2 is the genus
        s += [0 if group.kind is GroupKind.GAMMA0 and k % 2 else m[k] - inv.cusps for k in range(3, 13)]
    return (
        tuple(times_denominator(m, LEVEL1_WEIGHTS, 12)),
        tuple(times_denominator(s, LEVEL1_WEIGHTS, 13)),
    )


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
