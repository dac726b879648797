"""Line bundles on weighted projective lines and Hilbert-function tools.

h0/h1 of O(m) on P(a,b) count the lattice points (lam, mu) on lam*a + mu*b = m
in closed form, by residue class of lam: O(1) arithmetic per degree once the
line's gcd and a modular inverse are known, which ``serre_duality_check``
computes once per line (the tests keep the enumeration as the reference).  A
Hilbert function is a coefficient list, the dimensions in degrees 0, 1, ...,
read as 0 past its end; so are the multiplicities c_0..c_s of a
``TwistMultiset``, a tuple with no trailing zero.  ``times_denominator`` and
``over_denominator`` multiply and divide such a list, truncated to n terms, by
prod_w (1 - t^w), one sparse factor per pass.  Through them
``denominator_quotient`` builds an exact quotient of two such products, such as
a block kernel, once per pair of weight tuples; ``add_product`` is the one
truncated product by it.  ``deconvolve`` recovers the twists of a split bundle
from its Hilbert function by power-series division with a nonnegativity
constraint, one residual recurrence that also checks the window.  ``Check``, the
package's one pass/fail record, is what ``serre_duality_check`` returns and
``decomp.verify_consistency`` and every ``mfdecomp verify`` suite yield.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from functools import lru_cache
from math import gcd
from typing import Iterable, Iterator, NamedTuple, Sequence

__all__ = [
    "Check",
    "DeconvolutionError",
    "NegativeMultiplicity",
    "ResidualMismatch",
    "TwistMultiset",
    "WeightedLine",
    "add_product",
    "deconvolve",
    "denominator_quotient",
    "h0_dim",
    "h1_dim",
    "over_denominator",
    "padded",
    "serre_duality_check",
    "times_denominator",
]


class WeightedLine(namedtuple("WeightedLine", "a b")):
    """The weighted projective line P(a, b)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks the fields too

    def __new__(cls, a: int, b: int) -> "WeightedLine":
        if a < 1 or b < 1:
            raise ValueError(f"weights must be positive, got ({a}, {b})")
        return super().__new__(cls, a, b)


def _residue_class(line: WeightedLine) -> tuple[int, int, int, int]:
    """g = gcd(a, b), a' = a/g, b' = b/g and the inverse of a' mod b': for m = g*q,
    lam*a + mu*b = m has its solutions at lam = q * inverse mod b', step b'."""
    a, b = line
    g = gcd(a, b)
    return g, a // g, b // g, pow(a // g, -1, b // g)


def _h0_values(line: WeightedLine, twists: Iterable[int]) -> Iterator[int]:
    """h0(O(m)) for each m in ``twists``, 0 unless m >= 0 and g | m: the lam in
    [0, q // a'] (so mu >= 0) of the class q * inverse mod b', one floor division."""
    g, a, b, inverse = _residue_class(line)
    for m in twists:
        if m < 0 or m % g:
            yield 0
        else:
            q = m // g
            yield (q // a - q * inverse % b) // b + 1


def _h1_values(line: WeightedLine, twists: Iterable[int]) -> Iterator[int]:
    """h1(O(m)) for each m in ``twists``, 0 unless m < 0 and g | m: the lam in
    [q // a' + 1, -1] (so mu <= -1) of the class q * inverse mod b', one floor
    division.  ``h1_dim`` and ``serre_duality_check`` read h1 only through here."""
    g, a, b, inverse = _residue_class(line)
    for m in twists:
        if m >= 0 or m % g:
            yield 0
        else:
            q = m // g
            yield (q * inverse % b - q // a - 1) // b


def h0_dim(line: WeightedLine, m: int) -> int:
    """dim H^0(P(a,b); O(m)): pairs (lam, mu) >= 0 with lam*a + mu*b = m."""
    return next(_h0_values(line, (m,)))


def h1_dim(line: WeightedLine, m: int) -> int:
    """dim H^1(P(a,b); O(m)): pairs (lam, mu) < 0 with lam*a + mu*b = m."""
    return next(_h1_values(line, (m,)))


class Check(NamedTuple):
    """One pass/fail verdict; true exactly when it passed."""

    name: str
    ok: bool
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def serre_duality_check(line: WeightedLine, lo: int, hi: int) -> Check:
    """Check h0(m) = h1(-m - a - b) for every m in [lo, hi], in one pass."""
    shift = line.a + line.b
    twists = range(lo, hi + 1)
    duals = range(-lo - shift, -hi - shift - 1, -1)
    for m, h0, h1 in zip(twists, _h0_values(line, twists), _h1_values(line, duals)):
        if h0 != h1:
            return Check("serre-duality", False, f"fails at m={m}")
    return Check("serre-duality", True, f"holds on [{lo}, {hi}]")


def padded(values: Sequence[int], n: int) -> list[int]:
    """values[0..n-1], read as 0 past the end."""
    if n < 0:
        raise ValueError(f"coefficient count must be >= 0, got {n}")
    return [*values[:n], *[0] * (n - len(values))]


def times_denominator(values: Sequence[int], weights: Iterable[int], n: int) -> list[int]:
    """Coefficients of t^0..t^(n-1) in prod_w (1 - t^w) * sum_k values[k] t^k."""
    out = padded(values, n)
    for w in weights:  # a stride-w difference per factor; 1 - t^0 = 0 is one too
        if w < 0:
            raise ValueError(f"denominator weights must be >= 0, got {w}")
        out[w:] = [c - d for c, d in zip(out[w:], out)]
    return out


def over_denominator(values: Sequence[int], weights: Iterable[int], n: int) -> list[int]:
    """Coefficients of t^0..t^(n-1) in sum_k values[k] t^k / prod_w (1 - t^w)."""
    out = padded(values, n)
    for w in weights:  # a stride-w running sum per factor
        if w < 1:
            raise ValueError(f"denominator weights must be >= 1, got {w}")
        for k in range(w, n):
            out[k] += out[k - w]
    return out


@lru_cache(maxsize=None)
def denominator_quotient(factors: tuple[int, ...], weights: tuple[int, ...]) -> tuple[int, ...]:
    """prod_c (1 - t^c) / prod_w (1 - t^w) over the ``factors`` c, a polynomial, once per
    pair: checked exact by multiplying back, else ``ValueError``."""
    top = times_denominator([1], factors, n := sum(factors) + 1)
    quotient = over_denominator(top, weights, max(n - sum(weights), 0))
    if times_denominator(quotient, weights, n) != top:
        raise ValueError(f"prod (1 - t^c) / prod (1 - t^w), c in {factors}, w in {weights}: no polynomial")
    return tuple(quotient)


def add_product(acc: list[int], values: Sequence[int], poly: Sequence[int]) -> list[int]:
    """acc += values * poly, truncated to len(acc) coefficients, in place; returns acc."""
    n = len(acc)
    for i, v in enumerate(values[:n]):
        if v:
            for j, p in enumerate(poly[: n - i], i):
                acc[j] += v * p
    return acc


class TwistMultiset(namedtuple("TwistMultiset", "multiplicities")):
    """Multiplicities of shifts: c_i summands twisted by -i, as the tuple
    c_0..c_s of integers >= 0 with no trailing zero.  Indexing, slicing and
    iteration act on the one-field record; c_i is ``multiplicities[i]``."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks the fields too

    def __new__(cls, multiplicities: Sequence[int] = ()) -> "TwistMultiset":
        # a {shift: c} dict would give its keys; a list, what every caller in the package
        # passes, is no mapping and skips the ABC check
        if type(multiplicities) is not list and isinstance(multiplicities, Mapping):
            raise TypeError("multiplicities must be the sequence c_0..c_s, not a mapping")
        cs = tuple(multiplicities)
        end = len(cs)
        while end and cs[end - 1] == 0:  # so that equal multisets are equal records
            end -= 1
        if end and min(cs) < 0:  # end = 0: all zeros; min(cs, default=0) would parse a keyword
            raise ValueError("multiplicities must be >= 0")
        return tuple.__new__(cls, (cs[:end],))  # the namedtuple's __new__ without its Python frame

    def items(self) -> Iterator[tuple[int, int]]:
        """(shift, multiplicity) pairs with nonzero multiplicity, by shift."""
        return ((i, c) for i, c in enumerate(self.multiplicities) if c)

    def total(self) -> int:
        return sum(self.multiplicities)

    def as_list(self, length: int | None = None) -> list[int]:
        """c_0..c_{length-1}, by default through c_s and at least c_0; a negative length raises."""
        cs = self.multiplicities
        return padded(cs, max(len(cs), 1) if length is None else length)


class DeconvolutionError(ValueError):
    pass


class NegativeMultiplicity(DeconvolutionError):
    def __init__(self, shift: int, value: int) -> None:
        super().__init__(f"multiplicity at shift {shift} would be {value} < 0")
        self.shift = shift
        self.value = value


class ResidualMismatch(DeconvolutionError):
    def __init__(self, degree: int, expected: int, got: int) -> None:
        super().__init__(
            f"convolution check failed at degree {degree}: "
            f"target {expected}, reconstruction {got}"
        )
        self.degree = degree
        self.expected = expected
        self.got = got


def deconvolve(
    target: Sequence[int],
    block: Sequence[int],
    max_shift: int,
    verify_through: int,
) -> TwistMultiset:
    """Write target = sum_i c_i * block[. - i] with c_i >= 0, or raise.

    Both are coefficient lists, read as 0 past their end.  One residual recurrence
    (power-series division) both divides and checks: the residuals start as the target, cut
    at the window n = max(max_shift, verify_through) + 1; for i = 0..max_shift, c_i is
    residual i, and c_i * block[. - i] comes off the residuals.  Every residual past
    max_shift is then target minus reconstruction, and the first nonzero one fails.  The
    residuals stop where both sides end, at the target's length or max_shift plus the block's
    length (trailing zeros dropped), so no call costs more at a larger window.
    """
    if max_shift < 0 or verify_through < 0:
        name, window = ("max_shift", max_shift) if max_shift < 0 else ("verify_through", verify_through)
        raise ValueError(f"{name} must be >= 0, got {window}")
    block = list(block[: (n := max(max_shift, verify_through) + 1)])
    while block and not block[-1]:  # a padded numerator's zeros would only cost products
        block.pop()
    if block[:1] != [1]:
        raise ValueError("block Hilbert function must be normalized: block(0) = 1")
    residuals = padded(target, size := min(n, max(len(target), max_shift + len(block))))
    tail = block[1:]  # taken once: the one-term block N_1 = 1 leaves nothing to take off
    for i in range(max_shift + 1):
        if (c := residuals[i]) < 0:
            raise NegativeMultiplicity(i, c)
        if c and tail:  # take c_i * block[. - i] off the later residuals, over the block's support
            for j, b in zip(range(i + 1, size), tail):
                residuals[j] -= c * b
    if any(residuals[max_shift + 1 :]):  # the first failing degree, only to word it
        k = next(k for k in range(max_shift + 1, size) if residuals[k])
        expected = target[k] if k < len(target) else 0
        raise ResidualMismatch(k, expected, expected - residuals[k])
    return TwistMultiset(residuals[: max_shift + 1])
