"""Integer arithmetic: trial-division factorisation (for levels and group
indices) and a Miller-Rabin primality test (for characteristics and primes)."""

from __future__ import annotations

__all__ = ["factorize", "is_prime"]

#: No composite below 3.3 * 10**24 is a strong pseudoprime to all of these
#: bases, so ``is_prime`` is exact there.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """The pairs (p, e) with p^e exactly dividing n >= 1, p ascending."""
    out = []
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _BASES:
        if n % p == 0:
            return n == p
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
    return True
