from math import isqrt, prod

from hypothesis import given, strategies as st

from mfdecomp.arith import factorize, is_prime
from mfdecomp.levels import is_prime as levels_is_prime


def _sieve(bound):
    flags = bytearray([1]) * bound
    flags[0:2] = b"\0\0"
    for p in range(2, isqrt(bound - 1) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, bound, p)))
    return flags


def test_is_prime_agrees_with_a_sieve_below_100000():
    flags = _sieve(10**5)
    assert [n for n in range(-5, 10**5) if is_prime(n)] == [n for n in range(10**5) if flags[n]]


def test_is_prime_rejects_strong_pseudoprimes():
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to every prime base up to 23
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert not is_prime(998244353 * 1000000007)


def test_is_prime_accepts_large_primes():
    for p in (998244353, 1000000007, 2**61 - 1, 2**89 - 1):
        assert is_prime(p)
    assert not is_prime(2**67 - 1)  # = 193707721 * 761838257287


def test_is_prime_is_importable_from_levels():
    assert levels_is_prime is is_prime


@given(st.integers(min_value=1, max_value=10**6))
def test_factorize(n):
    pairs = factorize(n)
    assert prod(p**e for p, e in pairs) == n
    assert [p for p, _ in pairs] == sorted({p for p, _ in pairs})
    assert all(is_prime(p) and e >= 1 for p, e in pairs)
