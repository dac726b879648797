"""Line bundles on weighted projective lines and Hilbert-function tools.

h0/h1 of O(m) on P(a,b) are lattice-point counts, computed by direct
enumeration rather than floor-function closed forms (slower, but immune to
off-by-one mistakes at the degrees we care about).  A Hilbert function is
a coefficient list: the dimensions in degrees 0, 1, ..., read as 0 past its
end.  Series N(t) / prod_w (1 - t^w) live on such lists truncated to n
terms: ``times_denominator`` and ``over_denominator`` multiply and divide by
the factors, one sparse factor per pass, for every such product or quotient
in the package but one.  ``deconvolve`` recovers the multiset of twists of a
split bundle from its Hilbert function, by greedy division with a
nonnegativity constraint, checked over a verification window by one exact
integer product: that Kronecker product is the exception, kept for speed.
A ``TwistMultiset`` is a coefficient list too: the multiplicities c_0..c_s,
a tuple with no trailing zero, read through ``multiplicities``.
``Check`` is the package's one pass/fail record, a name, a verdict and a
detail: ``serre_duality_check`` returns one, ``decomp.verify_consistency``
collects them, and every ``mfdecomp verify`` suite yields them.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from functools import lru_cache
from itertools import accumulate
from operator import mul
from struct import pack
from typing import Iterable, Iterator, NamedTuple, Sequence

__all__ = [
    "Check",
    "DeconvolutionError",
    "NegativeMultiplicity",
    "ResidualMismatch",
    "TwistMultiset",
    "WeightedLine",
    "deconvolve",
    "h0_dim",
    "h1_dim",
    "over_denominator",
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


def h0_dim(line: WeightedLine, m: int) -> int:
    """dim H^0(P(a,b); O(m)): pairs (lam, mu) >= 0 with lam*a + mu*b = m."""
    if m < 0:
        return 0
    a, b = line
    count = 0
    for lam in range(m // a + 1):
        if (m - lam * a) % b == 0:
            count += 1
    return count


def h1_dim(line: WeightedLine, m: int) -> int:
    """dim H^1(P(a,b); O(m)): pairs (lam, mu) < 0 with lam*a + mu*b = m."""
    if m >= 0:
        return 0
    a, b = line
    count = 0
    lam = -1
    while lam * a > m:
        rest = m - lam * a
        if rest % b == 0 and rest // b <= -1:
            count += 1
        lam -= 1
    # lam*a == m (mu would be 0, not negative) or below: nothing more.
    return count


class Check(NamedTuple):
    """One pass/fail verdict; true exactly when it passed."""

    name: str
    ok: bool
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def serre_duality_check(line: WeightedLine, lo: int, hi: int) -> Check:
    """Check h0(m) = h1(-m - a - b) for every m in [lo, hi]."""
    shift = line.a + line.b
    for m in range(lo, hi + 1):
        if h0_dim(line, m) != h1_dim(line, -m - shift):
            return Check("serre-duality", False, f"fails at m={m}")
    return Check("serre-duality", True, f"holds on [{lo}, {hi}]")


def _padded(values: Sequence[int], n: int) -> list[int]:
    """values[0..n-1], read as 0 past the end."""
    if n < 0:
        raise ValueError(f"coefficient count must be >= 0, got {n}")
    return [*values[:n], *[0] * (n - len(values))]


def times_denominator(values: Sequence[int], weights: Iterable[int], n: int) -> list[int]:
    """Coefficients of t^0..t^(n-1) in prod_w (1 - t^w) * sum_k values[k] t^k."""
    out = _padded(values, n)
    for w in weights:  # a stride-w difference per factor
        out[w:] = [c - d for c, d in zip(out[w:], out)]
    return out


def over_denominator(values: Sequence[int], weights: Iterable[int], n: int) -> list[int]:
    """Coefficients of t^0..t^(n-1) in sum_k values[k] t^k / prod_w (1 - t^w)."""
    out = _padded(values, n)
    for w in weights:  # a stride-w running sum per factor
        for r in range(min(w, n)):
            out[r::w] = accumulate(out[r::w])
    return out


class TwistMultiset(namedtuple("TwistMultiset", "multiplicities")):
    """Multiplicities of shifts: c_i summands twisted by -i, as the tuple
    c_0..c_s of integers >= 0 with no trailing zero.  Indexing, slicing and
    iteration act on the one-field record; c_i is ``multiplicities[i]``."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks the fields too

    def __new__(cls, multiplicities: Sequence[int] = ()) -> "TwistMultiset":
        if isinstance(multiplicities, Mapping):  # a {shift: c} dict would give its keys
            raise TypeError("multiplicities must be the sequence c_0..c_s, not a mapping")
        cs = list(multiplicities)
        while cs and cs[-1] == 0:  # so that equal multisets are equal records
            cs.pop()
        if min(cs, default=0) < 0:
            raise ValueError("multiplicities must be >= 0")
        return super().__new__(cls, tuple(cs))

    def items(self) -> Iterator[tuple[int, int]]:
        """(shift, multiplicity) pairs with nonzero multiplicity, by shift."""
        return ((i, c) for i, c in enumerate(self.multiplicities) if c)

    def total(self) -> int:
        return sum(self.multiplicities)

    def max_shift(self) -> int:
        return max(len(self.multiplicities) - 1, 0)

    def as_list(self, length: int | None = None) -> list[int]:
        """c_0..c_{length-1}, by default through ``max_shift``; a negative length raises."""
        return _padded(self.multiplicities, self.max_shift() + 1 if length is None else length)


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


def _pack(values: Sequence[int], w: int) -> int:
    """sum_k values[k] X^k, X = 2^w, w in 8, 16, 32, ..., |values[k]| < X / 2, in linear time."""
    raw = (pack(f"<{len(values)}{'bhiq'[w.bit_length() - 4]}", *values) if w <= 64
           else b"".join([v.to_bytes(w // 8, "little", signed=True) for v in values]))
    packed = int.from_bytes(raw, "little")  # the values as two's complement words
    if min(values, default=0) < 0:  # a negative word reads as itself plus X
        packed -= _pack([v < 0 for v in values], w) << w
    return packed


_height = lru_cache(maxsize=64)(lambda block: max(map(abs, block)))  # max |b|, per block
_packed_block = lru_cache(maxsize=64)(_pack)


def deconvolve(
    target: Sequence[int],
    block: Sequence[int],
    max_shift: int,
    verify_through: int,
) -> TwistMultiset:
    """Write target = sum_i c_i * block[. - i] with c_i >= 0, or raise.

    Both are coefficient lists, read as 0 past their end.  Greedy:
    c_i = target[i] - sum_{j>=1} block[j] c_{i-j} for i = 0..max_shift, so the
    reconstruction sum_i c_i block[k - i] equals the target in every degree
    k <= max_shift by construction; through verify_through it is checked by one
    exact integer product of the lists packed at X = 2^w (Kronecker substitution).
    """
    n = max(max_shift, verify_through) + 1
    targets, blocks, coeffs = _padded(target, n), _padded(block, max(n, 1)), []
    if blocks[0] != 1:
        raise ValueError("block Hilbert function must be normalized: block(0) = 1")
    for i in range(max_shift + 1):
        c = targets[i] - sum(map(mul, reversed(coeffs), blocks[1 : i + 1]))
        if c < 0:
            raise NegativeMultiplicity(i, c)
        coeffs.append(c)
    bound = max(map(abs, targets), default=0) + (sum(coeffs) + 1) * _height(key := tuple(blocks))
    w = 8 << (bound.bit_length() // 8).bit_length()  # bytes; X/2 > bound >= |b|, |(CB - T)_k|
    diff = (_pack(coeffs, w) * _packed_block(key, w) - _pack(targets, w)) & (1 << w * n) - 1
    if diff:  # the lowest set bit lies in the first failing degree
        k = ((diff & -diff).bit_length() - 1) // w
        digit = (diff >> w * k) & (1 << w) - 1  # got - target, as a balanced digit
        raise ResidualMismatch(k, targets[k], targets[k] + digit - (digit >> w - 1 << w))
    return TwistMultiset(coeffs)
