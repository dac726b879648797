"""Exact arithmetic foundation.

Arbitrary-precision rationals come from ``fractions.Fraction``.  On top of
that we implement elements of the 2-power cyclotomic fields Q(zeta_{2^m}),
their field norms and the extended 2-adic valuation
v_2(x) = v_2(N(x)) / [Q(zeta) : Q], the methods ``CyclotomicElement.norm``
and ``CyclotomicElement.two_adic_valuation``.

Only 2-power orders are supported: the minimal polynomial is then the
single binomial x^{2^{m-1}} + 1, so reduction never needs more than the
rule zeta^{2^{m-1}} = -1.  A Galois automorphism zeta -> zeta^k permutes
that basis up to sign, and the norm descends the tower of quadratic steps
Q(zeta_{2^m}) / Q(zeta_{2^{m-1}}) / ... / Q (Washington, *Introduction to
Cyclotomic Fields*, ch. 2): about (4/3) d^2 coefficient products at degree
d, in Python ints after clearing one common denominator.  Multiplication
and the norm share one coordinate-product loop.  All values are immutable
and all operations are pure functions.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import Union

__all__ = [
    "CyclotomicElement",
    "ExtendedValuation",
    "INFINITE_VALUATION",
    "two_adic_valuation_rational",
    "zeta",
]

#: Valuations are exact rationals, except for the zero element which gets
#: +infinity (``math.inf`` compares above every Fraction).
ExtendedValuation = Union[Fraction, float]

INFINITE_VALUATION: float = math.inf


def _v2_int(n: int) -> int:
    if n == 0:
        raise ValueError("valuation of zero integer")
    return (n & -n).bit_length() - 1


def two_adic_valuation_rational(x: Fraction) -> ExtendedValuation:
    """Ordinary 2-adic valuation of a rational number (+inf for 0)."""
    if x == 0:
        return INFINITE_VALUATION
    return Fraction(_v2_int(x.numerator) - _v2_int(x.denominator))


def _product(a, b, zero) -> list:
    """(sum a_i zeta^i) * (sum b_j zeta^j) with zeta^len(a) = -1, summed from ``zero``."""
    degree = len(a)
    acc = [zero] * degree
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y == 0:
                continue
            if i + j < degree:
                acc[i + j] += x * y
            else:
                acc[i + j - degree] -= x * y  # zeta^degree = -1
    return acc


def _is_two_power(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


class CyclotomicElement(namedtuple("CyclotomicElement", "order coords")):
    """Element of Q(zeta_{2^m}) in the power basis 1, zeta, ..., zeta^{2^{m-1}-1}.

    ``order`` is 2^m with m >= 1; ``coords`` has length 2^{m-1} (the field
    degree).  For order 2 the field is Q itself (zeta_2 = -1).
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks the fields too
    __radd__ = __rmul__ = None  # no tuple arithmetic: 2 * x and (1,) + x raise TypeError

    def __new__(cls, order: int, coords: tuple[Fraction, ...]) -> "CyclotomicElement":
        if not _is_two_power(order):
            raise ValueError(f"order must be a power of two >= 2, got {order}")
        if len(coords) != order // 2:
            raise ValueError(
                f"need {order // 2} coordinates for order {order}, got {len(coords)}"
            )
        return super().__new__(cls, order, coords)

    @property
    def degree(self) -> int:
        return self.order // 2

    @classmethod
    def from_rational(cls, order: int, value) -> "CyclotomicElement":
        coords = [Fraction(0)] * (order // 2)
        coords[0] = Fraction(value)
        return cls(order, tuple(coords))

    @classmethod
    def zeta_power(cls, order: int, exponent: int) -> "CyclotomicElement":
        """zeta_{order}^exponent, reduced into the power basis."""
        degree = order // 2
        exponent %= order
        coords = [Fraction(0)] * degree
        if exponent < degree:
            coords[exponent] = Fraction(1)
        else:
            coords[exponent - degree] = Fraction(-1)
        return cls(order, tuple(coords))

    def _check_same_field(self, other: "CyclotomicElement") -> None:
        if self.order != other.order:
            raise ValueError(
                f"mixed cyclotomic orders {self.order} and {other.order}"
            )

    def __add__(self, other: "CyclotomicElement") -> "CyclotomicElement":
        self._check_same_field(other)
        return CyclotomicElement(
            self.order, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other: "CyclotomicElement") -> "CyclotomicElement":
        self._check_same_field(other)
        return CyclotomicElement(
            self.order, tuple(a - b for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self) -> "CyclotomicElement":
        return CyclotomicElement(self.order, tuple(-a for a in self.coords))

    def __mul__(self, other: "CyclotomicElement") -> "CyclotomicElement":
        self._check_same_field(other)
        return CyclotomicElement(
            self.order, tuple(_product(self.coords, other.coords, Fraction(0)))
        )

    def scale(self, factor) -> "CyclotomicElement":
        f = Fraction(factor)
        return CyclotomicElement(self.order, tuple(f * a for a in self.coords))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def is_rational(self) -> bool:
        return all(a == 0 for a in self.coords[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return self.coords[0]

    def galois(self, k: int) -> "CyclotomicElement":
        """Apply zeta -> zeta^k (k odd): coordinate i moves to i*k mod order,
        negated when that index is >= degree (zeta^degree = -1)."""
        if k % 2 == 0:
            raise ValueError("Galois exponent must be odd")
        if k % self.order == 1:
            return self
        order, degree = self.order, self.degree
        coords = [Fraction(0)] * degree
        for i, a in enumerate(self.coords):
            j = i * k % order
            if j < degree:
                coords[j] = a
            else:
                coords[j - degree] = -a
        return CyclotomicElement(order, tuple(coords))

    def norm(self) -> Fraction:
        """Field norm to Q down the tower, in integers: N(x) = N(D*x) / D^degree
        with D the lcm of the coordinate denominators.  With sigma: zeta ->
        -zeta, y * sigma(y) lies in Q(zeta^2), its even coordinates are those
        over zeta_{order/2}, and N_{Q(zeta)/Q}(y) = N_{Q(zeta^2)/Q}(y * sigma(y))."""
        den = math.lcm(*(c.denominator for c in self.coords))
        y = [c.numerator * (den // c.denominator) for c in self.coords]
        while len(y) > 1:
            y = _product(y, [-c if i % 2 else c for i, c in enumerate(y)], 0)[::2]
        return Fraction(y[0], den**self.degree)

    def two_adic_valuation(self) -> ExtendedValuation:
        """Extended 2-adic valuation v_2(x) = v_2(N(x)) / degree; +inf at 0."""
        if self.is_zero():
            return INFINITE_VALUATION
        nrm = self.norm()
        return two_adic_valuation_rational(nrm) / self.degree


def zeta(order: int) -> CyclotomicElement:
    """The distinguished primitive root of unity zeta_{order}."""
    return CyclotomicElement.zeta_power(order, 1)
