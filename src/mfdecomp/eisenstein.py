"""Weight-1 Eisenstein series for 2-power-order characters and the lift of
the mod-2 Hasse invariant.

For an odd prime p write p - 1 = 2^m * l with l odd, and let chi be the
character of (Z/p)^* of order 2^m with chi(g) = zeta_{2^m} for the smallest
primitive root g (chi is odd because l is odd).  The machinery here
computes L(0, chi) exactly, the q-expansion of E_1^chi, the rescaled
series E = (1 - zeta) * E_1^chi and its components f_i in the power basis.
F = sum f_i lifts the Hasse invariant A_2 (whose q-expansion is identically
1) to characteristic zero when F = 1 mod 2.  For n >= 1 the sum telescopes
to twice a difference of divisor counts, even for every n, so the lift is
one unit condition at q^0, proved for every coefficient: u = (1 - zeta) *
L(0, chi) / 2 has 2-integral coordinates and their sum F_0 is 1 mod 2.  g
is found by the p - 1 test (g^((p-1)/q) != 1 for each prime q | p - 1).
The lift builds no table over the residues: L(0, chi) is one walk over
x = g^t for t < (p - 1)/2, pairing x with p - x (chi is odd), and chi(d)
for the divisors d <= N is read from the 2^m powers of h = g^l at the primes
d and multiplied out at the others.  So a prime costs about (p - 1)/2
multiplications mod p, in memory O(2^m * N) for any p.

Valuations: v_2(1 - zeta) = 1/2^(m-1), as 2 ramifies totally (Washington,
ch. 1-2); where u is a unit, v_2(L(0, chi)) = 1 - v_2(1 - zeta) follows, and
the tower norm runs only where u is no unit, and in the tests.  The
stated closed form for the exponent is recorded in two variants (see
``HasseLiftReport.paper_exponent`` / ``computed_exponent``) which disagree;
reports always carry both, never a silent reconciliation.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from itertools import cycle, islice
from operator import add, sub
from typing import NamedTuple, Sequence

from .exactnum import CyclotomicElement, ExtendedValuation
from .arith import factorize, is_prime, least_prime_factors

__all__ = [
    "DirichletCharacter",
    "HasseLiftReport",
    "IntegralityFailure",
    "NotPrime",
    "OrderTooSmall",
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


def smallest_primitive_root(p: int) -> int:
    """The smallest g whose order mod the odd prime p is p - 1: g^((p-1)/q) != 1
    for every prime q dividing p - 1 (Cohen, section 1.4)."""
    if p == 2 or not is_prime(p):
        raise NotPrime(f"{p} is not an odd prime")
    cofactors = [(p - 1) // q for q, _ in factorize(p - 1)]
    return next(g for g in range(2, p) if all(pow(g, c, p) != 1 for c in cofactors))


class DirichletCharacter(NamedTuple):
    """chi mod p with chi(n) = zeta_order^exponents[n]; exponents[n] = None
    for n divisible by p."""

    modulus: int
    order: int
    exponents: tuple[int | None, ...]

    def is_odd(self) -> bool:
        e = self.exponents[self.modulus - 1]  # chi(-1)
        return e is not None and e == self.order // 2


def odd_two_power_character(p: int) -> DirichletCharacter:
    """The character of order 2^m (p - 1 = 2^m * l, l odd) with value
    zeta_{2^m} at the smallest primitive root."""
    g = smallest_primitive_root(p)  # NotPrime unless p is an odd prime
    order = (p - 1) & (1 - p)  # the largest power of 2 dividing p - 1
    exponents: list[int | None] = [None] * p
    x = 1
    for t in range(p - 1):
        exponents[x] = t % order
        x = x * g % p
    chi = DirichletCharacter(p, order, tuple(exponents))
    assert chi.is_odd()
    return chi


def l_value(chi: DirichletCharacter) -> CyclotomicElement:
    """L(0, chi) = -(1/p) * sum_{n=1}^{p-1} n * chi(n), exact; the n are
    summed as integers per exponent of zeta before one division."""
    if not chi.is_odd():
        raise ValueError("L(0, chi) formula requires an odd character")
    p, order, exponents = chi
    counts = [0] * order
    for n in range(1, p):
        counts[exponents[n]] += n
    d = order // 2  # folded by zeta^d = -1
    return CyclotomicElement(order, tuple(Fraction(a - b, -p) for a, b in zip(counts, counts[d:])))


def _half_walk(p: int, g: int, order: int) -> list[int]:
    """The integers D_i = -p x_i for the coordinates x_i of L(0, chi), from the
    powers x = g^t, t < (p - 1)/2, of the primitive root g: chi(p - x) =
    -chi(x) = -zeta^t, so the pair (x, p - x) adds (2x - p) * zeta^t.  The x
    are summed per exponent of zeta and folded by zeta^d = -1 (d = order/2);
    each coordinate takes -p once more than +p, as (p - 1)/2 = d * l with l odd."""
    sums = [0] * order
    x = 1
    for e in islice(cycle(range(order)), (p - 1) // 2):
        sums[e] += x
        x = x * g % p
    d = order // 2
    return [2 * (a - b) - p for a, b in zip(sums, sums[d:])]


class ValuationClaimReport(NamedTuple):
    """Where u is a unit, ``sum_is_one`` restates the unit condition, whose
    independent check is the tests' tower norm."""

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
) -> tuple[dict[int, int], CyclotomicElement, tuple[Fraction, ...] | None, ExtendedValuation]:
    """For hasse_lift and valuation_claim_check, which ask for one prime at a
    time: the powers of h = g^l as {h^e mod p: e} (e < 2^m), L(0, chi), the
    coordinates of u = (1 - zeta) L(0, chi)/2 (None unless all are
    2-integral) and v_2(L(0, chi)).  Nothing here has size proportional to p."""
    if p % 4 == 3 and is_prime(p):  # p - 1 = 2 * odd, checked before any walk
        raise OrderTooSmall(f"p = {p} gives order 2^1; need m >= 2")
    g = smallest_primitive_root(p)  # NotPrime unless p is an odd prime
    order = (p - 1) & (1 - p)  # the largest power of 2 dividing p - 1
    D = _half_walk(p, g, order)
    L = CyclotomicElement(order, tuple(Fraction(x, -p) for x in D))
    # u_i = (D_i - D_{i-1})/(-2p) with D_{-1} = -D_{d-1}
    steps = [a - b for a, b in zip(D, (-D[-1], *D))]
    u = None if any(s % 2 for s in steps) else tuple(Fraction(s, -2 * p) for s in steps)
    # u is a unit of Z_2[zeta] exactly when it is 2-integral and its
    # coordinate sum x_{d-1} is odd; then v_2(L) = v_2(2) - v_2(1 - zeta)
    unit = u is not None and D[-1] % 2
    v2_l = _exponents(order.bit_length() - 1)[1]["computed_exponent"] if unit else L.two_adic_valuation()
    h = pow(g, (p - 1) // order, p)
    powers, y = {}, 1
    for e in range(order):
        powers[y] = e
        y = y * h % p
    return powers, L, u, v2_l


@lru_cache(maxsize=None)
def _exponents(m: int) -> tuple[Fraction, dict[str, Fraction]]:
    """Once per m: v_2(1 - zeta) = 2^(1-m), as 2 ramifies totally (N(1 - zeta) = 2), and
    the exponents of both reports, the stated 1 - 2^(2-m) and the computed 1 - v_2(1 - zeta)."""
    v2_omz = Fraction(1, 1 << (m - 1))
    return v2_omz, {"paper_exponent": 1 - Fraction(1, 1 << (m - 2)), "computed_exponent": 1 - v2_omz}


def valuation_claim_check(p: int) -> ValuationClaimReport:
    """v_2(L(0,chi)) + v_2(1 - zeta) = 1, and L(0,chi) = sum_j zeta^j mod 2."""
    _, L, _, v2_l = _character_data(p)
    m = L.order.bit_length() - 1
    v2_omz, exponents = _exponents(m)
    sum_is_one = v2_l + v2_omz == 1
    # v_2(a/b - 1) >= 1 for a/b in lowest terms exactly when a - b is even
    congruence_ok = all((c.numerator - c.denominator) % 2 == 0 for c in L.coords)
    return ValuationClaimReport(
        p=p,
        m=m,
        v2_l=v2_l,
        v2_one_minus_zeta=v2_omz,
        sum_is_one=sum_is_one,
        congruence_ok=congruence_ok,
        **exponents,
    )


def _chi_exponents(p: int, powers: dict[int, int], N: int) -> list[int | None]:
    """chi's exponent at each d < min(N + 1, p), None at d = 0, ascending: at
    a prime q, chi(q) = zeta^e for h^e = q^l, one pow per prime; at a
    composite d with least prime factor q, e(q) + e(d/q) mod 2^m, as chi is
    completely multiplicative; q is read off ``arith.least_prime_factors``.
    The list is exactly min(N + 1, p) long, as the divisor sieve reads d >= p
    as d mod p."""
    order = len(powers)
    l = (p - 1) // order
    bound = min(N + 1, p)
    factor = least_prime_factors(bound)
    exponents: list[int | None] = [None]
    for d in range(1, bound):
        q = factor[d]
        exponents.append(powers[pow(d, l, p)] if q == d else (exponents[q] + exponents[d // q]) % order)
    return exponents


def _divisor_columns(order: int, N: int, exponents: Sequence[int | None]) -> list[list[int]]:
    """g[i][n - 1] = #{d | n : chi(d) = zeta^i} - #{d | n : chi(d) = -zeta^i}
    for i < order/2 and 1 <= n <= N, from chi's exponent e at d, read as
    exponents[d mod len(exponents)]: the multiples of d go into column e mod
    order/2, with a minus sign for e >= order/2 (zeta^(order/2) = -1)."""
    if N < 1:
        raise ValueError("precision must be >= 1")
    columns = [[0] * N for _ in range(order // 2)]
    signed = [(column, 1) for column in columns] + [(column, -1) for column in columns]
    period = len(exponents)
    for d in range(1, N + 1):
        e = exponents[d % period]
        if e is not None:
            column, step = signed[e]
            for n in range(d - 1, N, d):
                column[n] += step
    return columns


def eisenstein_q_expansion(chi: DirichletCharacter, N: int) -> tuple[CyclotomicElement, ...]:
    """The coefficients of q^0..q^N in
    E_1^chi = L(0,chi)/2 + sum_{n>=1} (sum_{d|n} chi(d)) q^n.

    Divisor sums are counted per power-basis coordinate in integers.
    """
    _, order, exponents = chi
    columns = _divisor_columns(order, N, exponents)
    coeffs = [l_value(chi).scale(Fraction(1, 2))]
    coeffs += [CyclotomicElement(order, tuple(map(Fraction, row))) for row in zip(*columns)]
    return tuple(coeffs)


class HasseLiftReport(NamedTuple):
    p: int
    m: int
    l_value: CyclotomicElement
    v2_l: ExtendedValuation
    paper_exponent: Fraction
    computed_exponent: Fraction
    precision: int
    components: tuple[tuple[Fraction | int, ...], ...]  # f_i; Fraction at q^0, then int
    averaged: tuple[Fraction | int, ...]  # F = sum_i f_i, likewise
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
    """Form E = (1 - zeta) E_1^chi through q^N, split into power-basis
    components f_i, and decide F = sum f_i = 1 mod 2 for every coefficient.

    ``galois_exponent`` k (odd) replaces chi by chi^k; the f_i, taken in
    powers of chi^k(g), must not depend on k.  For n >= 1 each f_i is one
    integer column from the folded divisor counts g_i(n) = #{d | n : chi(d)
    = zeta^i} - #{d | n : chi(d) = -zeta^i}: f_i = g_i - g_{i-1} (g_{-1} =
    -g_{d-1}), so F_n = 2 g_{d-1}(n) is even for every n.  At q^0 undoing
    sigma_k leaves u = (1 - zeta) L(0, chi)/2.  With D_i = -p x_i for the
    coordinates x of L(0, chi) and D_{-1} = -D_{d-1}, u has coordinates
    (D_i - D_{i-1})/(-2p) and F_0 = x_{d-1}.  The unit condition on u: raise
    IntegralityFailure unless every D_i - D_{i-1} is even; pass iff D_{d-1} is odd.
    """
    if galois_exponent % 2 == 0:
        raise ValueError("galois exponent must be odd")
    powers, L, u, v2_l = _character_data(p)  # v_2 of L(0, chi^k) too: 2 ramifies totally
    m = L.order.bit_length() - 1
    g = _divisor_columns(L.order, N, _chi_exponents(p, powers, N))
    if u is None:
        raise IntegralityFailure(f"coefficient of q^0 in E is not 2-integral (p={p})")
    averaged = (L.coords[-1], *map(add, g[-1], g[-1]))
    last = g[-1]
    for i in reversed(range(len(g))):  # f_i replaces g_i once g_{i+1} no longer needs it
        column = map(sub, g[i], g[i - 1]) if i else map(add, g[0], last)
        g[i] = (u[i], *column)
    return HasseLiftReport(
        p=p,
        m=m,
        # L itself at k = 1; kept, as hasse-sweep's one call perfbench traces in exactnum
        l_value=L.galois(galois_exponent),
        v2_l=v2_l,
        **_exponents(m)[1],
        precision=N,
        components=tuple(g),
        averaged=averaged,
        verdict="pass" if L.coords[-1].numerator % 2 else "fail",
    )
