import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from mfdecomp.exactnum import (
    CyclotomicElement,
    INFINITE_VALUATION,
    two_adic_valuation_rational,
    zeta,
)


def elem(order, *coords):
    return CyclotomicElement(order, tuple(Fraction(c) for c in coords))


def test_norm_one_minus_zeta4():
    one = CyclotomicElement.from_rational(4, 1)
    assert (one - zeta(4)).norm() == 2


def test_norm_rational_embeds_squared():
    assert CyclotomicElement.from_rational(4, 2).norm() == 4


def test_norm_three_plus_i_over_five():
    x = elem(4, Fraction(3, 5), Fraction(1, 5))
    assert x.norm() == Fraction(2, 5)


def test_valuation_examples():
    one = CyclotomicElement.from_rational(4, 1)
    assert (one - zeta(4)).two_adic_valuation() == Fraction(1, 2)
    assert CyclotomicElement.from_rational(4, 4).two_adic_valuation() == 2
    one8 = CyclotomicElement.from_rational(8, 1)
    assert (one8 - zeta(8)).two_adic_valuation() == Fraction(1, 4)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_valuation_one_minus_zeta_2m(m):
    # N(1 - zeta_{2^m}) is the cyclotomic polynomial evaluated at 1, which
    # is 2; over a degree 2^{m-1} field the valuation is 1/2^{m-1}.
    order = 1 << m
    one = CyclotomicElement.from_rational(order, 1)
    x = one - zeta(order)
    assert x.norm() == 2
    assert x.two_adic_valuation() == Fraction(1, 1 << (m - 1))


def test_zero_gets_infinite_valuation():
    z = CyclotomicElement.from_rational(8, 0)
    assert z.two_adic_valuation() == INFINITE_VALUATION
    assert two_adic_valuation_rational(Fraction(0)) == math.inf
    assert two_adic_valuation_rational(Fraction(0)) > Fraction(10**9)


def test_rational_valuation():
    assert two_adic_valuation_rational(Fraction(12)) == 2
    assert two_adic_valuation_rational(Fraction(3, 8)) == -3


def test_zeta_power_reduction():
    # zeta_8^4 = -1, zeta_8^7 = -zeta_8^3
    assert CyclotomicElement.zeta_power(8, 4) == elem(8, -1, 0, 0, 0)
    assert CyclotomicElement.zeta_power(8, 7) == elem(8, 0, 0, 0, -1)
    assert zeta(8).galois(3) == CyclotomicElement.zeta_power(8, 3)


def test_mixed_orders_rejected():
    with pytest.raises(ValueError):
        zeta(4) + zeta(8)
    with pytest.raises(ValueError):
        CyclotomicElement(6, (Fraction(1), Fraction(0), Fraction(0)))


small = st.integers(min_value=-9, max_value=9)


@st.composite
def cyclo(draw, order=8, nonzero=False):
    coords = draw(
        st.lists(small, min_size=order // 2, max_size=order // 2).filter(
            lambda cs: any(cs) or not nonzero
        )
    )
    return elem(order, *coords)


@given(cyclo(nonzero=True), cyclo(nonzero=True))
def test_norm_and_valuation_multiplicative(x, y):
    assert (x * y).norm() == x.norm() * y.norm()
    assert (x * y).two_adic_valuation() == x.two_adic_valuation() + y.two_adic_valuation()


@given(cyclo(), cyclo(), cyclo())
def test_ring_axioms(x, y, z):
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


def conjugate_product(x):
    """Oracle: the norm as the product of all order/2 Galois conjugates."""
    prod = CyclotomicElement.from_rational(x.order, 1)
    for k in range(1, x.order, 2):
        prod = prod * x.galois(k)
    return prod.rational_value()


orders = st.sampled_from([4, 8, 16, 32, 64])
odd_exponent = st.integers(min_value=0, max_value=127).map(lambda k: 2 * k + 1)
rational = st.builds(Fraction, small, st.integers(min_value=1, max_value=8))


@st.composite
def rational_cyclo(draw, order):
    return CyclotomicElement(
        order, tuple(draw(st.lists(rational, min_size=order // 2, max_size=order // 2)))
    )


@st.composite
def wide_rational_cyclo(draw, order):
    """Zeros and denominators up to 10^6 that share a common factor but are
    otherwise unrelated, so clearing them needs a true lcm."""
    common = draw(st.integers(min_value=1, max_value=1000))
    coord = st.one_of(
        st.just(Fraction(0)),
        st.builds(
            lambda n, d: Fraction(n, common * d),
            st.integers(min_value=-1000, max_value=1000),
            st.integers(min_value=1, max_value=1000),
        ),
    )
    return CyclotomicElement(order, tuple(draw(st.lists(coord, min_size=order // 2, max_size=order // 2))))


norm_input = st.one_of(
    orders.map(lambda o: CyclotomicElement.from_rational(o, 0)),
    orders.flatmap(rational_cyclo),
    orders.flatmap(wide_rational_cyclo),
)


# The oracle does d^3 coefficient products with growing denominators.
@settings(max_examples=25, deadline=None)
@given(norm_input)
@example(CyclotomicElement.from_rational(64, 0))
@example(elem(16, Fraction(1, 6), 0, Fraction(-5, 4), 0, 0, Fraction(7, 999_990), 0, Fraction(1, 10**6)))
def test_tower_norm_matches_conjugate_product(x):
    assert x.norm() == conjugate_product(x)
    assert type(x.norm()) is Fraction


@settings(deadline=None)
@given(orders.flatmap(lambda o: st.tuples(rational_cyclo(o), rational_cyclo(o))), odd_exponent)
def test_galois_is_ring_homomorphism(xy, k):
    x, y = xy
    assert (x + y).galois(k) == x.galois(k) + y.galois(k)
    assert (x * y).galois(k) == x.galois(k) * y.galois(k)
    one = CyclotomicElement.from_rational(x.order, 1)
    assert one.galois(k) == one


@given(orders.flatmap(rational_cyclo), odd_exponent, odd_exponent)
def test_galois_composition(x, j, k):
    assert x.galois(k).galois(j) == x.galois(j * k % x.order)


# galois is a ring homomorphism, so its value on zeta fixes it everywhere.
@given(st.integers(min_value=2, max_value=8).map(lambda m: 1 << m), odd_exponent)
def test_galois_sends_zeta_to_its_power(order, k):
    assert zeta(order).galois(k) == CyclotomicElement.zeta_power(order, k)


def test_galois_rejects_even_exponent():
    with pytest.raises(ValueError):
        zeta(8).galois(2)


@given(st.integers(min_value=-40, max_value=40).filter(lambda n: n != 0))
def test_rational_embedding_valuation(n):
    r = Fraction(n, 6)
    x = CyclotomicElement.from_rational(16, r)
    assert x.two_adic_valuation() == two_adic_valuation_rational(r)


def test_norm_matches_sympy_resultant():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    for order, coords in [
        (8, (3, -1, 2, 5)),
        (8, (Fraction(1, 2), 0, Fraction(-3, 4), 1)),
        (16, (1, 2, 0, -1, 3, 0, 0, 1)),
        (32, tuple(Fraction((-1) ** i * (i % 5), 1 + i % 3) for i in range(16))),
        (64, tuple((i * 7) % 11 - 5 for i in range(32))),
    ]:
        el = elem(order, *coords)
        poly = sum(sympy.Rational(c) * x**i for i, c in enumerate(el.coords))
        minimal = x ** (order // 2) + 1
        res = sympy.resultant(minimal, poly, x)
        assert sympy.Rational(el.norm()) == res
