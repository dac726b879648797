"""Reference computations that the tests compare the package with."""

from mfdecomp.eisenstein import DirichletCharacter
from mfdecomp.exactnum import CyclotomicElement


def convolve(mults, block, k):
    """sum_i mults[i] * block[k - i], one term at a time, with block read as 0 past its end."""
    return sum(c * block[k - i] for i, c in enumerate(mults) if 0 <= k - i < len(block))


def character_value(chi, n):
    """chi(n) as a cyclotomic element: zeta_order^e for e = chi.exponents[n mod p], 0 where p | n."""
    e = chi.exponents[n % chi.modulus]
    if e is None:
        return CyclotomicElement.from_rational(chi.order, 0)
    return CyclotomicElement.zeta_power(chi.order, e)


def character_power(chi, k):
    """chi^k, the exponents multiplied by k mod the order."""
    exponents = tuple(None if e is None else e * k % chi.order for e in chi.exponents)
    return DirichletCharacter(chi.modulus, chi.order, exponents)
