"""Integer arithmetic and the readers of outside text: one table of least
prime factors (``least_prime_factors``), factorisation (read off that table
below 1000), a primality test (trial division below 43^2, Miller-Rabin
above), ``parse_integer``, the one reader of integers, and ``read_lines``,
the one reader of input-file lines (weight-1 and presentation)."""

from __future__ import annotations

import io
from collections.abc import Callable
from itertools import chain, count
from math import gcd, isqrt

__all__ = ["factorize", "is_prime", "least_prime_factors", "parse_integer", "read_lines"]

#: psi_13, the least strong pseudoprime to all of these bases (Sorenson and
#: Webster, Math. Comp. 86, 2017): passing them all proves primality below it.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981

#: ``factorize`` reads n below this bound off the table, and trial-divides a
#: larger n by 2 and the odd integers below the bound only.
_TRIAL_BOUND = 1000

#: The one table of ``least_prime_factors``, replaced only by a longer one.
_least_factors: list[int] = []


def parse_integer(text: str) -> int:
    """int(text) for ASCII digits, optionally led by '-', within whitespace:
    no '+', no '_' separator and no other script's digits."""
    digits = text.strip().removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def read_lines(text: str | bytes, source: str, read: Callable[[int, str], object]) -> None:
    """Call ``read(lineno, line)`` on each line of ``text`` (bytes decoded as a
    text-mode file is), split at line feeds alone, '#' comment cut, stripped and
    skipped if blank; a ValueError names ``source:lineno:``, or ``source:`` if undecodable."""
    if isinstance(text, bytes):
        try:
            text = io.TextIOWrapper(io.BytesIO(text)).read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{source}: {exc}") from None
    for lineno, raw in enumerate(text.split("\n"), 1):
        if line := raw.split("#", 1)[0].strip():
            try:
                read(lineno, line)
            except ValueError as exc:
                raise ValueError(f"{source}:{lineno}: {exc}") from None


def least_prime_factors(n: int) -> list[int]:
    """The process's one table of least prime factors, at least n long: its
    entry at d is the least prime factor of d (d itself for d < 2).  Built on
    first use and rebuilt only for a longer n, so every caller shares it; do
    not modify it.  q runs down from isqrt(n - 1), so the last q to write at a
    composite d is its least divisor q > 1, a prime."""
    global _least_factors
    if len(_least_factors) < n:
        factor = list(range(n))
        for q in range(isqrt(n - 1), 1, -1):
            factor[q * q :: q] = [q] * len(range(q * q, n, q))
        _least_factors = factor
    return _least_factors


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """The pairs (p, e) with p^e exactly dividing n >= 1, p ascending: read off
    ``least_prime_factors`` below ``_TRIAL_BOUND``, one division per prime factor;
    above it trial division until the cofactor falls below the bound, then the
    table, or ``is_prime`` and Pollard-Brent rho on a cofactor with no factor
    below the bound, so a level with large prime factors factors at once."""
    factor = least_prime_factors(_TRIAL_BOUND)
    pairs = []
    if n >= _TRIAL_BOUND:
        # 2, then odd candidates: skipping the composites by the table costs more than dividing
        for p in chain((2,), range(3, _TRIAL_BOUND, 2)):
            if p * p > n:
                break
            if n % p == 0:
                e = 0
                while n % p == 0:
                    n, e = n // p, e + 1
                pairs.append((p, e))
                if n < _TRIAL_BOUND:
                    break
        if n >= _TRIAL_BOUND:  # no factor below the bound is left
            exponents: dict[int, int] = {}
            pending = [n]
            while pending:
                m = pending.pop()
                if m < _TRIAL_BOUND**2 or is_prime(m):
                    exponents[m] = exponents.get(m, 0) + 1
                else:
                    pending += [d := _rho_factor(m), m // d]
            return (*pairs, *sorted(exponents.items()))
    while n > 1:  # the rest off the table, above every prime divided out
        p, e = factor[n], 0
        while factor[n] == p:  # factor[1] = 1 ends the last prime's run
            n, e = n // p, e + 1
        pairs.append((p, e))
    return tuple(pairs)


def _rho_factor(n: int) -> int:
    """A proper factor of a composite n: Pollard's rho with Brent's cycle search."""
    for c in count(1):
        y, r, g = 2, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
                if (g := gcd(x - y, n)) != 1:
                    break
            r *= 2
        if g != n:  # g = n: the cycles mod every factor closed at once; next c
            return g


def is_prime(n: int) -> bool:
    """Trial division by ``_BASES`` decides every n < 43^2 (a composite there
    has a prime factor below 43), the strong test to each base any larger
    composite and every prime below ``_PSI_13``; a ValueError for the rest."""
    if n < 2:
        return False
    for p in _BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _PSI_13:
        raise ValueError(f"cannot decide whether {n} is prime: the test is exact below psi_13 = {_PSI_13}")
    return True
