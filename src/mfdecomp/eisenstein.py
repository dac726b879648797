"""Weight-1 Eisenstein series for 2-power-order characters and the lift of
the mod-2 Hasse invariant.

For an odd prime p write p - 1 = 2^m * l with l odd, and let chi be the
character of (Z/p)^* of order 2^m with chi(g) = zeta_{2^m} for the smallest
primitive root g (chi is odd because l is odd).  The machinery here
computes L(0, chi) exactly, the q-expansion of E_1^chi, the rescaled
series E = (1 - zeta) * E_1^chi, its coordinate components f_i in the
power basis, and checks that F = sum f_i is congruent to 1 mod 2 -- a
characteristic-zero lift of the Hasse invariant A_2 (whose q-expansion is
identically 1).

Valuations: v_2(L(0,chi)) + v_2(1 - zeta) = 1 is verified exactly.  The
stated closed form for the exponent is recorded in two variants (see
``HasseLiftReport.paper_exponent`` / ``computed_exponent``) which disagree;
reports always carry both, never a silent reconciliation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exactnum import (
    CyclotomicElement,
    ExtendedValuation,
    INFINITE_VALUATION,
    two_adic_valuation_rational,
)
from .levels import is_prime

__all__ = [
    "DirichletCharacter",
    "HasseLiftReport",
    "IntegralityFailure",
    "NotPrime",
    "OrderTooSmall",
    "QExpansion",
    "ValuationClaimReport",
    "eisenstein_q_expansion",
    "hasse_lift",
    "l_value",
    "odd_two_power_character",
    "valuation_claim_check",
]


class NotPrime(ValueError):
    pass


class OrderTooSmall(ValueError):
    pass


class IntegralityFailure(ArithmeticError):
    """E = (1 - zeta) E_1^chi failed 2-integrality; signals a bug, not data."""


def _multiplicative_order(a: int, p: int) -> int:
    order, x = 1, a % p
    while x != 1:
        x = x * a % p
        order += 1
    return order


def smallest_primitive_root(p: int) -> int:
    for g in range(2, p):
        if _multiplicative_order(g, p) == p - 1:
            return g
    raise ValueError(f"no primitive root mod {p}")


@dataclass(frozen=True)
class DirichletCharacter:
    """chi mod p with chi(n) = zeta_order^exponents[n]; exponents[n] = None
    for n divisible by p."""

    modulus: int
    order: int
    exponents: tuple[int | None, ...]

    def value(self, n: int) -> CyclotomicElement:
        e = self.exponents[n % self.modulus]
        if e is None:
            return CyclotomicElement.from_rational(self.order, 0)
        return CyclotomicElement.zeta_power(self.order, e)

    def power(self, k: int) -> "DirichletCharacter":
        return DirichletCharacter(
            self.modulus,
            self.order,
            tuple(
                None if e is None else (e * k) % self.order for e in self.exponents
            ),
        )

    def is_odd(self) -> bool:
        e = self.exponents[self.modulus - 1]  # chi(-1)
        return e is not None and e == self.order // 2


def odd_two_power_character(p: int) -> DirichletCharacter:
    """The character of order 2^m (p - 1 = 2^m * l, l odd) with value
    zeta_{2^m} at the smallest primitive root."""
    if not is_prime(p) or p == 2:
        raise NotPrime(f"{p} is not an odd prime")
    m = 0
    l = p - 1
    while l % 2 == 0:
        l //= 2
        m += 1
    order = 1 << m
    g = smallest_primitive_root(p)
    exponents: list[int | None] = [None] * p
    x = 1
    for t in range(p - 1):
        exponents[x] = t % order
        x = x * g % p
    chi = DirichletCharacter(p, order, tuple(exponents))
    assert chi.is_odd()
    return chi


def _from_counts(order: int, counts: list[int], den: int = 1) -> CyclotomicElement:
    """(sum_e counts[e] * zeta^e) / den, folded by zeta^{order/2} = -1."""
    d = order // 2
    return CyclotomicElement(
        order, tuple(Fraction(counts[i] - counts[i + d], den) for i in range(d))
    )


def l_value(chi: DirichletCharacter) -> CyclotomicElement:
    """L(0, chi) = -(1/p) * sum_{n=1}^{p-1} n * chi(n), exact; the n are
    summed as integers per exponent of zeta before one division."""
    if not chi.is_odd():
        raise ValueError("L(0, chi) formula requires an odd character")
    p = chi.modulus
    counts = [0] * chi.order
    for n in range(1, p):
        counts[chi.exponents[n]] += n
    return _from_counts(chi.order, counts, -p)


@dataclass(frozen=True)
class ValuationClaimReport:
    p: int
    m: int
    v2_l: ExtendedValuation
    v2_one_minus_zeta: ExtendedValuation
    sum_is_one: bool
    congruence_ok: bool
    paper_exponent: Fraction
    computed_exponent: Fraction

    @property
    def ok(self) -> bool:
        return self.sum_is_one and self.congruence_ok

    def __bool__(self) -> bool:
        return self.ok


@lru_cache(maxsize=1)
def _character_data(
    p: int,
) -> tuple[DirichletCharacter, int, CyclotomicElement, ExtendedValuation]:
    """chi, m, L(0, chi) and v_2(L(0, chi)) for p.  hasse_lift and
    valuation_claim_check share them; callers ask for one prime at a time."""
    chi = odd_two_power_character(p)
    m = chi.order.bit_length() - 1
    if m < 2:
        raise OrderTooSmall(f"p = {p} gives order 2^{m}; need m >= 2")
    L = l_value(chi)
    return chi, m, L, L.two_adic_valuation()


def valuation_claim_check(p: int) -> ValuationClaimReport:
    """v_2(L(0,chi)) + v_2(1 - zeta) = 1, and L(0,chi) = sum_j zeta^j mod 2."""
    chi, m, L, v2_l = _character_data(p)
    one = CyclotomicElement.from_rational(chi.order, 1)
    zeta = CyclotomicElement.zeta_power(chi.order, 1)
    v2_omz = (one - zeta).two_adic_valuation()
    sum_is_one = v2_l + v2_omz == 1
    all_ones = CyclotomicElement(
        chi.order, tuple(Fraction(1) for _ in range(chi.order // 2))
    )
    diff = L - all_ones
    congruence_ok = all(
        two_adic_valuation_rational(c) >= 1 for c in diff.coords if c != 0
    )
    return ValuationClaimReport(
        p=p,
        m=m,
        v2_l=v2_l,
        v2_one_minus_zeta=v2_omz,
        sum_is_one=sum_is_one,
        congruence_ok=congruence_ok,
        paper_exponent=1 - Fraction(1, 1 << (m - 2)),
        computed_exponent=1 - Fraction(1, 1 << (m - 1)),
    )


@dataclass(frozen=True)
class QExpansion:
    """Truncated power series in q: coefficients 0..precision, one shared
    cyclotomic order, tagged with the conductor."""

    coefficients: tuple[CyclotomicElement, ...]
    precision: int
    conductor: int

    def __post_init__(self) -> None:
        if len(self.coefficients) != self.precision + 1:
            raise ValueError("need precision + 1 coefficients")
        orders = {c.order for c in self.coefficients}
        if len(orders) > 1:
            raise ValueError(f"mixed cyclotomic orders {orders}")

    def scale_by(self, factor: CyclotomicElement) -> "QExpansion":
        return QExpansion(
            tuple(factor * c for c in self.coefficients),
            self.precision,
            self.conductor,
        )


def eisenstein_q_expansion(chi: DirichletCharacter, N: int) -> QExpansion:
    """E_1^chi = L(0,chi)/2 + sum_{n>=1} (sum_{d|n} chi(d)) q^n through q^N.

    Divisor sums are counted per exponent of zeta in integers, sieving the
    multiples of each d <= N.
    """
    if N < 1:
        raise ValueError("precision must be >= 1")
    counts = [[0] * chi.order for _ in range(N + 1)]
    for d in range(1, N + 1):
        e = chi.exponents[d % chi.modulus]
        if e is not None:
            for n in range(d, N + 1, d):
                counts[n][e] += 1
    coeffs = [l_value(chi).scale(Fraction(1, 2))]
    coeffs += [_from_counts(chi.order, c) for c in counts[1:]]
    return QExpansion(tuple(coeffs), N, chi.modulus)


@dataclass(frozen=True)
class HasseLiftReport:
    p: int
    m: int
    l_value: CyclotomicElement
    v2_l: ExtendedValuation
    paper_exponent: Fraction
    computed_exponent: Fraction
    precision: int
    components: tuple[tuple[Fraction, ...], ...]  # f_i, coordinate series
    averaged: tuple[Fraction, ...]  # F = sum_i f_i
    verdict: str  # "pass" or "fail"

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> str:
        return json.dumps(
            {
                "p": self.p,
                "m": self.m,
                "l_value": [str(c) for c in self.l_value.coords],
                "v2_l": str(self.v2_l),
                "paper_exponent": str(self.paper_exponent),
                "computed_exponent": str(self.computed_exponent),
                "precision": self.precision,
                "verdict": self.verdict,
            }
        )


def hasse_lift(p: int, N: int, galois_exponent: int = 1) -> HasseLiftReport:
    """Form E = (1 - zeta) E_1^chi, split into power-basis components f_i,
    and test F = sum f_i = 1 mod 2 through q^N.

    ``galois_exponent`` k (odd) replaces chi by chi^k; components are then
    extracted with respect to powers of chi^k(g), so the f_i must not
    depend on k.
    """
    if galois_exponent % 2 == 0:
        raise ValueError("galois exponent must be odd")
    chi, m, _, v2_l = _character_data(p)  # v_2 of L(0, chi^k) too: 2 ramifies totally
    k = galois_exponent % chi.order
    chi = chi.power(k)
    # zeta' = chi(g) = zeta^k; coordinates w.r.t. powers of zeta' are read
    # off after applying the automorphism zeta -> zeta^{k'}, k*k' = 1.
    k_inv = pow(k, -1, chi.order)
    zeta_prime = CyclotomicElement.zeta_power(chi.order, k)
    one = CyclotomicElement.from_rational(chi.order, 1)
    E1 = eisenstein_q_expansion(chi, N)
    L = E1.coefficients[0].scale(2)  # the constant term is L(0, chi) / 2
    E = E1.scale_by(one - zeta_prime)
    rows = [c.galois(k_inv).coords for c in E.coefficients]  # rows[n][i]: f_i at q^n
    for n, row in enumerate(rows):
        if any(two_adic_valuation_rational(c) < 0 for c in row):
            raise IntegralityFailure(
                f"coefficient of q^{n} in E is not 2-integral (p={p})"
            )
    averaged = tuple(sum(row, Fraction(0)) for row in rows)
    ok = two_adic_valuation_rational(averaged[0] - 1) >= 1 and all(
        two_adic_valuation_rational(a) >= 1 for a in averaged[1:] if a != 0
    )
    return HasseLiftReport(
        p=p,
        m=m,
        l_value=L,
        v2_l=v2_l,
        paper_exponent=1 - Fraction(1, 1 << (m - 2)),
        computed_exponent=1 - Fraction(1, 1 << (m - 1)),
        precision=N,
        components=tuple(zip(*rows)),
        averaged=averaged,
        verdict="pass" if ok else "fail",
    )
