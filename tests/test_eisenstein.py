from fractions import Fraction
from math import gcd

import pytest

from mfdecomp import eisenstein
from mfdecomp.exactnum import CyclotomicElement
from mfdecomp.eisenstein import (
    NotPrime,
    OrderTooSmall,
    eisenstein_q_expansion,
    hasse_lift,
    l_value,
    odd_two_power_character,
    smallest_primitive_root,
    valuation_claim_check,
)

HASSE_PRIMES = (5, 13, 17, 29, 37, 41, 53, 61)


def cyc(order, *coords):
    return CyclotomicElement(order, tuple(Fraction(c) for c in coords))


def test_character_construction():
    chi5 = odd_two_power_character(5)
    assert chi5.order == 4
    assert chi5.value(2) == cyc(4, 0, 1)  # chi(2) = i
    chi13 = odd_two_power_character(13)
    assert chi13.order == 4
    assert chi13.value(2) == cyc(4, 0, 1)
    chi17 = odd_two_power_character(17)
    assert chi17.order == 16
    assert smallest_primitive_root(17) == 3
    assert chi17.value(3) == CyclotomicElement.zeta_power(16, 1)


def test_character_is_odd_and_multiplicative():
    for p in HASSE_PRIMES:
        chi = odd_two_power_character(p)
        assert chi.is_odd()
        assert chi.value(p).is_zero()
        for a in range(1, p):
            for b in range(1, p):
                assert chi.value(a * b) == chi.value(a) * chi.value(b)


def test_not_prime_rejected():
    for bad in (1, 2, 4, 9, 15):
        with pytest.raises(NotPrime):
            odd_two_power_character(bad)


def test_l_value_p5():
    chi = odd_two_power_character(5)
    assert l_value(chi) == cyc(4, Fraction(3, 5), Fraction(1, 5))
    # conjugate character: conjugate value
    assert l_value(chi.power(3)) == cyc(4, Fraction(3, 5), Fraction(-1, 5))


def test_l_value_rejects_even_character():
    chi = odd_two_power_character(5)
    with pytest.raises(ValueError):
        l_value(chi.power(2))


def test_valuation_claims():
    r5 = valuation_claim_check(5)
    assert r5.v2_l == Fraction(1, 2)
    assert r5.v2_one_minus_zeta == Fraction(1, 2)
    assert r5.sum_is_one and r5.congruence_ok
    assert r5.paper_exponent == 0
    assert r5.computed_exponent == Fraction(1, 2)
    r17 = valuation_claim_check(17)
    assert r17.v2_l == Fraction(7, 8)
    assert r17.computed_exponent == Fraction(7, 8)
    assert r17.paper_exponent == Fraction(3, 4)
    r13 = valuation_claim_check(13)
    assert r13.v2_l == Fraction(1, 2)


def test_valuation_claim_order_too_small():
    # p = 7: p - 1 = 2 * 3, m = 1
    with pytest.raises(OrderTooSmall):
        valuation_claim_check(7)
    with pytest.raises(OrderTooSmall):
        hasse_lift(7, 10)


@pytest.mark.parametrize("p", HASSE_PRIMES)
def test_valuation_sum_is_one(p):
    report = valuation_claim_check(p)
    assert report.sum_is_one
    assert report.congruence_ok
    assert report.v2_l == report.computed_exponent


def test_eisenstein_coefficients_p5():
    chi = odd_two_power_character(5)
    E = eisenstein_q_expansion(chi, 10)
    assert E.coefficients[0] == cyc(4, Fraction(3, 10), Fraction(1, 10))  # L/2
    assert E.coefficients[1] == cyc(4, 1, 0)
    assert E.coefficients[2] == cyc(4, 1, 1)  # chi(1) + chi(2) = 1 + i
    assert E.coefficients[5] == cyc(4, 1, 0)  # chi(5) = 0
    assert E.coefficients[10] == cyc(4, 1, 1)  # d in {1,2,5,10}


def test_eisenstein_coefficient_multiplicativity():
    for p in (5, 13, 17):
        chi = odd_two_power_character(p)
        E = eisenstein_q_expansion(chi, 60)
        c = E.coefficients
        for m in range(1, 61):
            for n in range(1, 60 // m + 1):
                if gcd(m, n) == 1:
                    assert c[m * n] == c[m] * c[n]


def test_hasse_lift_p5_values():
    report = hasse_lift(5, 10)
    assert report.passed
    F = report.averaged
    assert F[0] == Fraction(1, 5)
    assert F[1] == 0
    assert F[2] == 2
    # components at q^1: E_1 coefficient is 1, times (1 - i) -> f_0 = 1, f_1 = -1
    assert report.components[0][1] == 1
    assert report.components[1][1] == -1


@pytest.mark.parametrize("p", HASSE_PRIMES)
def test_hasse_lift_passes(p):
    report = hasse_lift(p, 60)
    assert report.passed
    assert report.precision == 60


@pytest.mark.parametrize("p", (5, 17, 29))
def test_components_are_galois_stable(p):
    base = hasse_lift(p, 30)
    order = 1 << base.m
    for k in range(3, order, 2):
        conj = hasse_lift(p, 30, galois_exponent=k)
        assert conj.components == base.components
        assert conj.averaged == base.averaged
    with pytest.raises(ValueError):
        hasse_lift(p, 10, galois_exponent=2)


def test_report_json_key_order():
    import json

    report = hasse_lift(5, 10)
    doc = report.to_json()
    parsed = json.loads(doc)
    assert list(parsed) == [
        "p",
        "m",
        "l_value",
        "v2_l",
        "paper_exponent",
        "computed_exponent",
        "precision",
        "verdict",
    ]
    assert parsed["verdict"] == "pass"
    assert json.dumps(parsed) == doc  # round-trip idempotent


@pytest.mark.parametrize("p", (257, 769))
def test_order_256_primes(p):
    # p - 1 = 2^8 * l: cyclotomic order 256, field degree 128.
    report = hasse_lift(p, 60)
    claim = valuation_claim_check(p)
    assert report.m == 8
    assert report.verdict == "pass"
    assert report.v2_l == Fraction(127, 128)
    assert claim.ok
    assert claim.v2_l == Fraction(127, 128)


def test_lift_and_claim_share_the_norm_of_l(monkeypatch):
    eisenstein._character_data.cache_clear()
    norms = []
    norm = CyclotomicElement.norm
    monkeypatch.setattr(CyclotomicElement, "norm", lambda x: norms.append(x) or norm(x))
    report = hasse_lift(97, 20)
    claim = valuation_claim_check(97)
    assert report.v2_l == claim.v2_l == Fraction(15, 16)  # 97 - 1 = 2^5 * 3
    assert len(norms) == 2  # L(0, chi) once, and 1 - zeta
