import tracemalloc
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from mfdecomp import cli, eisenstein, levels
from mfdecomp.arith import factorize, is_prime, least_prime_factors
from mfdecomp.exactnum import CyclotomicElement, two_adic_valuation_rational, zeta
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
from oracles import character_power, character_value, chi_exponents_by_pow

HASSE_PRIMES = (5, 13, 17, 29, 37, 41, 53, 61)


def cyc(order, *coords):
    return CyclotomicElement(order, tuple(Fraction(c) for c in coords))


def test_character_construction():
    chi5 = odd_two_power_character(5)
    assert chi5.order == 4
    assert character_value(chi5, 2) == cyc(4, 0, 1)  # chi(2) = i
    chi13 = odd_two_power_character(13)
    assert chi13.order == 4
    assert character_value(chi13, 2) == cyc(4, 0, 1)
    chi17 = odd_two_power_character(17)
    assert chi17.order == 16
    assert smallest_primitive_root(17) == 3
    assert character_value(chi17, 3) == CyclotomicElement.zeta_power(16, 1)


def test_character_is_odd_and_multiplicative():
    for p in HASSE_PRIMES:
        chi = odd_two_power_character(p)
        assert chi.is_odd()
        assert character_value(chi, p).is_zero()
        for a in range(1, p):
            for b in range(1, p):
                assert character_value(chi, a * b) == character_value(chi, a) * character_value(chi, b)


def test_not_prime_rejected():
    for bad in (1, 2, 4, 9, 15):
        with pytest.raises(NotPrime):
            odd_two_power_character(bad)


@pytest.mark.parametrize("bad", [-7, 0, 1, 2, 4, 8, 9, 15, 561, 2**16, 5 * 10000019])
def test_primitive_root_rejects_all_but_odd_primes(bad):
    # 8 and 9 have no element of order n - 1: an order search never ends there
    with pytest.raises(NotPrime, match=f"^{bad} is not an odd prime$"):
        smallest_primitive_root(bad)


def multiplicative_order(a, p):
    """Oracle: the order of a mod p, by repeated multiplication."""
    order, x = 1, a % p
    while x != 1:
        x = x * a % p
        order += 1
    return order


def test_primitive_root_matches_the_order_definition_below_5000():
    for p in filter(is_prime, range(3, 5000)):
        expected = next(g for g in range(2, p) if multiplicative_order(g, p) == p - 1)
        assert smallest_primitive_root(p) == expected, p


def test_l_value_p5():
    chi = odd_two_power_character(5)
    assert l_value(chi) == cyc(4, Fraction(3, 5), Fraction(1, 5))
    # conjugate character: conjugate value
    assert l_value(character_power(chi, 3)) == cyc(4, Fraction(3, 5), Fraction(-1, 5))


def test_l_value_rejects_even_character():
    chi = odd_two_power_character(5)
    with pytest.raises(ValueError):
        l_value(character_power(chi, 2))


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


def test_a_failing_valuation_claim_is_false():
    report = valuation_claim_check(17)
    assert report
    assert not report._replace(sum_is_one=False)
    assert not report._replace(congruence_ok=False)


def test_valuation_claim_order_too_small():
    # p = 7: p - 1 = 2 * 3, m = 1
    with pytest.raises(OrderTooSmall):
        valuation_claim_check(7)
    with pytest.raises(OrderTooSmall):
        hasse_lift(7, 10)


def test_order_too_small_is_rejected_before_chi_is_built(monkeypatch):
    # p = 10000019 = 3 mod 4 is prime; the walk for L(0, chi) would cost (p - 1)/2
    # steps and a character table of p entries, so m < 2 must be read from p itself
    def build(p, *args):
        raise AssertionError(f"chi built for p = {p}")

    monkeypatch.setattr(eisenstein, "odd_two_power_character", build)
    monkeypatch.setattr(eisenstein, "_half_walk", build)
    message = r"^p = 10000019 gives order 2\^1; need m >= 2$"
    with pytest.raises(OrderTooSmall, match=message):
        valuation_claim_check(10000019)
    with pytest.raises(OrderTooSmall, match=message):
        hasse_lift(10000019, 10)


@pytest.mark.parametrize("bad", [2, 15, 35, 5 * 10000019])
def test_not_prime_comes_before_order_too_small(bad):
    # 15, 35 and 5 * 10000019 are 3 mod 4, like the primes rejected for m < 2
    with pytest.raises(NotPrime, match="is not an odd prime"):
        valuation_claim_check(bad)
    with pytest.raises(NotPrime, match="is not an odd prime"):
        hasse_lift(bad, 10)


@pytest.mark.parametrize("p", HASSE_PRIMES)
def test_valuation_sum_is_one(p):
    report = valuation_claim_check(p)
    assert report.sum_is_one
    assert report.congruence_ok
    assert report.v2_l == report.computed_exponent


def test_eisenstein_coefficients_p5():
    chi = odd_two_power_character(5)
    E = eisenstein_q_expansion(chi, 10)
    assert len(E) == 11
    assert E[0] == cyc(4, Fraction(3, 10), Fraction(1, 10))  # L/2
    assert E[1] == cyc(4, 1, 0)
    assert E[2] == cyc(4, 1, 1)  # chi(1) + chi(2) = 1 + i
    assert E[5] == cyc(4, 1, 0)  # chi(5) = 0
    assert E[10] == cyc(4, 1, 1)  # d in {1,2,5,10}


@pytest.mark.parametrize("p", (17, 97, 257))
def test_eisenstein_coefficients_are_character_divisor_sums(p):
    chi = odd_two_power_character(p)
    E = eisenstein_q_expansion(chi, 40)
    assert E[0] == l_value(chi).scale(Fraction(1, 2))
    for n in range(1, 41):
        expected = CyclotomicElement.from_rational(chi.order, 0)
        for d in range(1, n + 1):
            if n % d == 0:
                expected = expected + character_value(chi, d)
        assert E[n] == expected, n


def test_eisenstein_coefficient_multiplicativity():
    for p in (5, 13, 17):
        chi = odd_two_power_character(p)
        c = eisenstein_q_expansion(chi, 60)
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


SWEEP_PRIMES = [p for p in range(5, 1000) if p % 4 == 1 and is_prime(p)]  # 257, 769 included


@pytest.mark.parametrize("p", SWEEP_PRIMES)
def test_hasse_lift_passes(p):
    claim = valuation_claim_check(p)
    x = l_value(odd_two_power_character(p)).coords
    for k in (1, 3):
        report = hasse_lift(p, 60, galois_exponent=k)
        assert report.passed and claim.ok
        assert report.precision == 60
        assert report.v2_l == claim.v2_l == 1 - Fraction(2) ** (1 - report.m)
        first, *rest = zip(*report.components, report.averaged)
        assert len(rest) == 60
        assert all(type(c) is Fraction for c in first)
        assert all(type(c) is int for row in rest for c in row)
        # oracle: F as the column sums, and the per-row rule F_0 = 1, F_n = 0 mod 2
        sums = tuple(map(sum, zip(*report.components)))
        assert report.averaged == sums
        assert report.averaged[0] == x[-1]
        rows_ok = (sums[0] - 1).numerator % 2 == 0 and all(a % 2 == 0 for a in sums[1:])
        assert report.verdict == ("pass" if rows_ok else "fail")


def _clear_caches():
    for cache in (eisenstein._character_data, eisenstein._exponents):
        cache.cache_clear()


@pytest.fixture
def altered_l(monkeypatch):
    """Replace the walk's integers D_i, with L(0, chi) = sum_i D_i zeta^i / (-p),
    by shift(p, D) in both checks; the unit condition and the valuation are
    then decided from the L they give as usual."""
    walk = eisenstein._half_walk

    def install(shift):
        monkeypatch.setattr(eisenstein, "_half_walk", lambda p, g, order: shift(p, walk(p, g, order)))

    _clear_caches()
    yield install
    monkeypatch.undo()
    _clear_caches()


@pytest.mark.parametrize("p", (5, 17, 97, 257))
def test_unit_condition_fails_in_all_three_forms_at_twice_l(altered_l, monkeypatch, p):
    # u = (1 - zeta) L/2 is 2-integral but no unit: F_0 = 2 x_{d-1} is even,
    # v_2(2L) + v_2(1 - zeta) = 2, and 2L = 0, not sum_j zeta^j, mod 2
    altered_l(lambda p, D: [2 * x for x in D])  # L becomes 2L
    valued = []
    valuation = CyclotomicElement.two_adic_valuation
    monkeypatch.setattr(CyclotomicElement, "two_adic_valuation", lambda x: valued.append(x) or valuation(x))
    report = hasse_lift(p, 20)
    claim = valuation_claim_check(p)
    assert report.verdict == "fail"
    assert not claim.sum_is_one and not claim.congruence_ok
    assert report.averaged[0].numerator % 2 == 0  # F_0 even, so F_0 - 1 is odd
    # no unit, so v_2(2L) comes from the tower norm of 2L, computed once for both reports
    assert valued.count(report.l_value) == 1
    assert claim.v2_l == report.v2_l == valuation(report.l_value) == 2 - Fraction(2, 1 << report.m)


@pytest.mark.parametrize("p", (5, 17, 97))
def test_odd_difference_of_numerators_is_an_integrality_failure(altered_l, p):
    # adding 1/p to L moves D_0 = -p x_0 by -1, so u_0 and u_1 get the denominator 2p
    altered_l(lambda p, D: [D[0] - 1, *D[1:]])
    with pytest.raises(eisenstein.IntegralityFailure, match=rf"^coefficient of q\^0 in E is not 2-integral \(p={p}\)$"):
        hasse_lift(p, 20)


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from((5, 13, 17, 97)), data=st.data())
def test_lift_decides_the_unit_condition_for_any_l(p, data):
    # any integers D_i in place of the walk's, so any L = sum_i D_i zeta^i / (-p): the
    # field product (1 - zeta) L/2 is the oracle for q^0, and F_0 = 1 mod 2 for the verdict
    order = (p - 1) & (1 - p)
    parity = data.draw(st.integers(0, 1))
    D = [2 * a + parity for a in data.draw(st.lists(st.integers(-p, p), min_size=order // 2, max_size=order // 2))]
    if data.draw(st.booleans()):
        D[data.draw(st.integers(0, order // 2 - 1))] += 1  # one numerator of the other parity
    L = CyclotomicElement(order, tuple(Fraction(a, -p) for a in D))
    half = CyclotomicElement.from_rational(order, Fraction(1, 2))
    u = ((CyclotomicElement.from_rational(order, 1) - zeta(order)) * half * L).coords
    eisenstein._character_data.cache_clear()
    try:
        with mock.patch.object(eisenstein, "_half_walk", lambda p, g, order: D):
            if any(c.denominator % 2 == 0 for c in u):
                with pytest.raises(eisenstein.IntegralityFailure):
                    hasse_lift(p, 3)
                return
            report = hasse_lift(p, 3)
    finally:
        eisenstein._character_data.cache_clear()
    assert tuple(f[0] for f in report.components) == u
    assert report.averaged[0] == sum(u)
    assert report.verdict == ("pass" if (sum(u) - 1).numerator % 2 == 0 else "fail")


def field_product_lift(p, N, k):
    """Oracle: the lift as field products, E_1^{chi^k} through q^N times
    (1 - zeta^k), read off after zeta -> zeta^{k^-1}."""
    chi = odd_two_power_character(p)
    k %= chi.order
    one_minus_zeta = CyclotomicElement.from_rational(chi.order, 1) - CyclotomicElement.zeta_power(chi.order, k)
    E1 = eisenstein_q_expansion(character_power(chi, k), N)
    rows = [(one_minus_zeta * c).galois(pow(k, -1, chi.order)).coords for c in E1]
    averaged = tuple(sum(row, Fraction(0)) for row in rows)
    ok = two_adic_valuation_rational(averaged[0] - 1) >= 1 and all(
        two_adic_valuation_rational(a) >= 1 for a in averaged[1:]
    )
    return tuple(zip(*rows)), averaged, E1[0].scale(2), "pass" if ok else "fail"


ORACLE_PRIMES = [p for p in range(5, 200) if p % 4 == 1 and is_prime(p)] + [257]


@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_hasse_lift_matches_field_products(p):
    order = odd_two_power_character(p).order
    for k in sorted({1, 3, order - 1}):
        for N in (1, 7, 60):
            report = hasse_lift(p, N, galois_exponent=k)
            got = report.components, report.averaged, report.l_value, report.verdict
            assert got == field_product_lift(p, N, k), (p, k, N)
            # q^0 entries are field coordinates; from q^1 on they are divisor counts
            first, *rest = zip(*report.components, report.averaged)
            assert all(type(c) is Fraction for c in first + report.l_value.coords)
            assert all(type(c) is int for row in rest for c in row)


@pytest.mark.parametrize("p", cli.HASSE_PRIMES)
def test_hasse_lift_passes_at_the_sturm_horizon(p):
    # q^60 is no Sturm horizon for p >= 41: the degree of omega on X_1(p) is larger.
    N = levels.level_invariants(levels.CongruenceGroup(levels.GroupKind.GAMMA1, p)).omega_degree
    assert N == (p * p - 1) // 24
    assert hasse_lift(p, int(N)).passed


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
    # u is a unit, so v_2(L) = 1 - v_2(1 - zeta), and v_2(1 - zeta) = 2/order: no norm at all
    assert norms == []
    hasse_lift(353, 20)
    claim = valuation_claim_check(353)  # 353 - 1 = 2^5 * 11: the same order 32
    assert claim.ok and claim.v2_one_minus_zeta == Fraction(1, 16)
    assert norms == []


#: One prime per cyclotomic order 4..256, and 65537 for the order 2^16.
ONE_PRIME_PER_ORDER = (5, 41, 17, 97, 193, 641, 257, 65537)


@pytest.mark.parametrize("p", ONE_PRIME_PER_ORDER)
def test_v2_one_minus_zeta_equals_the_tower_norm(p):
    # oracle: v_2(N(1 - zeta)) / degree down the tower, where the report reads 2/order
    claim = valuation_claim_check(p)
    order = 1 << claim.m
    assert order == (p - 1) & (1 - p)
    expected = (CyclotomicElement.from_rational(order, 1) - zeta(order)).two_adic_valuation()
    assert claim.v2_one_minus_zeta == expected == Fraction(2, order)
    assert type(claim.v2_one_minus_zeta) is Fraction
    assert claim.ok


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(1, 5),
    N=st.integers(1, 80),
    data=st.data(),
)
def test_divisor_columns_match_a_naive_signed_divisor_count(m, N, data):
    # oracle: for each n, sum the sign of chi(d) over d | n into the column of
    # chi(d) folded by zeta^(order/2) = -1; None (d = 0 mod p) counts nowhere
    order = 1 << m
    half = order // 2
    values = st.one_of(st.none(), st.integers(0, order - 1))
    exponents = [None, *data.draw(st.lists(values, max_size=40))]
    columns = eisenstein._divisor_columns(order, N, exponents)
    assert len(columns) == half and all(len(column) == N for column in columns)
    for n in range(1, N + 1):
        expected = [0] * half
        for d in range(1, n + 1):
            e = exponents[d % len(exponents)]
            if n % d == 0 and e is not None:
                expected[e % half] += 1 if e < half else -1
        assert [column[n - 1] for column in columns] == expected, n


def test_lift_makes_no_field_product(monkeypatch):
    products = []
    mul = CyclotomicElement.__mul__
    monkeypatch.setattr(CyclotomicElement, "__mul__", lambda x, y: products.append(x) or mul(x, y))
    for p in (5, 97, 257):
        for k in (1, 3):
            assert hasse_lift(p, 20, galois_exponent=k).passed
    assert products == []


PRIMES_1_MOD_4_BELOW_5000 = [p for p in range(5, 5000) if p % 4 == 1 and is_prime(p)]


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from(PRIMES_1_MOD_4_BELOW_5000))
def test_half_walk_and_power_table_agree_with_the_character_table(p):
    # oracle: the p-entry table of odd_two_power_character and l_value's full sum
    chi = odd_two_power_character(p)
    powers, L, _, _ = eisenstein._character_data(p)
    assert len(powers) == L.order == chi.order
    assert L == l_value(chi)
    assert all(type(c) is Fraction for c in L.coords)
    exponents = eisenstein._chi_exponents(p, powers, 60)  # the residues d < min(61, p)
    assert len(exponents) == min(61, p)
    assert [exponents[d % len(exponents)] for d in range(61)] == [chi.exponents[d % p] for d in range(61)]


@pytest.mark.parametrize("p", [p for p in PRIMES_1_MOD_4_BELOW_5000 if p < 2000])
def test_exponent_sieve_agrees_with_one_pow_per_d(p):
    # the table is read at d mod its length: d >= p as d mod p, and d = 0 mod p gives None
    chi = odd_two_power_character(p)
    powers = eisenstein._character_data(p)[0]
    for N in (1, 2, p - 2, p - 1, p, 2 * p, (p * p - 1) // 24):
        exponents = eisenstein._chi_exponents(p, powers, N)
        assert exponents == chi_exponents_by_pow(p, powers, N), N
        for d in {1, 2, p - 2, p - 1, p, p + 1, 2 * p - 1, 2 * p, N - 1, N}:
            if 0 < d <= N:
                assert exponents[d % len(exponents)] == chi.exponents[d % p], (N, d)


@pytest.mark.parametrize("p", [13, 97])
def test_exponents_keep_their_length_when_the_shared_table_is_longer(p):
    # factorize builds the table through 999; the exponent list is still min(N + 1, p) long
    factorize(999)
    assert len(least_prime_factors(0)) >= 1000
    powers = eisenstein._character_data(p)[0]
    exponents = eisenstein._chi_exponents(p, powers, 60)
    assert len(exponents) == min(61, p)
    assert exponents == chi_exponents_by_pow(p, powers, 60)


@pytest.mark.parametrize("p", SWEEP_PRIMES)
def test_unit_condition_valuation_equals_the_tower_norm(monkeypatch, p):
    eisenstein._character_data.cache_clear()
    normed = []
    norm = CyclotomicElement.norm
    monkeypatch.setattr(CyclotomicElement, "norm", lambda x: normed.append(x) or norm(x))
    _, L, u, v2_l = eisenstein._character_data(p)
    monkeypatch.undo()
    assert u is not None and L not in normed  # read from the unit condition, with no norm of L
    assert v2_l == L.two_adic_valuation() == 1 - Fraction(2, L.order)
    assert type(v2_l) is Fraction


def test_lift_memory_does_not_grow_with_p():
    # p - 1 = 4 * 25017: a table over the residues takes at least 8 bytes per
    # residue, 800 KB here; built by odd_two_power_character, it made these two
    # calls peak at 1,601,400 bytes.  The walk keeps O(2^m) integers and the
    # columns O(2^m * N), about 5 KB, so the bound is one byte per residue.
    p = 100069
    _clear_caches()
    tracemalloc.start()
    try:
        report = hasse_lift(p, 60)
        claim = valuation_claim_check(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed and claim.ok and report.m == 2
    assert peak < p, peak
