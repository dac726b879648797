import ast
import copy
import pickle
import re
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import product
from operator import mul
from pathlib import Path

import pytest
from hypothesis import assume, given, seed, settings, strategies as st

from mfdecomp import ringalg
from mfdecomp.hilbert import over_denominator
from mfdecomp.ringalg import (
    GradedAlgebra,
    InhomogeneousInput,
    PRESETS,
    Polynomial,
    REGULAR_SEQUENCE_CASES,
    SubringSpec,
    WEIERSTRASS_PRESENTATIONS,
    _graded_monomials,
    matrix_rank,
    parse_polynomial,
    read_presentation,
    verify_free_basis,
    verify_regular_sequence,
    weierstrass_identity_check,
)

F2_A = GradedAlgebra(2, (("a1", 1), ("a3", 3)))
F3_B = GradedAlgebra(3, (("b2", 2), ("b4", 4)))
Q_B = GradedAlgebra(0, (("b2", 2), ("b4", 4)))
Q_A = GradedAlgebra(0, (("a1", 1), ("a3", 3)))
Q_T = GradedAlgebra(0, (("t0", 4), ("t1", 6)))


def test_graded_component_examples():
    assert _graded_monomials(F2_A.degrees, 3) == ((3, 0), (0, 1))
    assert _graded_monomials(F3_B.degrees, 4) == ((2, 0), (0, 1))
    assert _graded_monomials(Q_T.degrees, 12) == ((3, 0), (0, 2))
    assert _graded_monomials(Q_T.degrees, 2) == ()
    assert _graded_monomials(Q_T.degrees, -1) == ()
    assert _graded_monomials(Q_T.degrees, 0) == ((0, 0),)


def test_parser():
    p = parse_polynomial(Q_B, "b2^2 - 24*b4")
    assert p.terms == {(2, 0): 1, (0, 1): -24}
    p = parse_polynomial(Q_B, "1/4*b2^2*b4^2 - 8*b4^3")
    assert p.terms == {(2, 2): Fraction(1, 4), (0, 3): -8}
    p = parse_polynomial(F2_A, "a3^4 + a1^3*a3^3")
    assert p.terms == {(0, 4): 1, (3, 3): 1}
    assert parse_polynomial(Q_B, "-b2 + b2").is_zero()
    assert parse_polynomial(Q_B, "1").terms == {(0, 0): 1}
    assert parse_polynomial(Q_A, "a1^0*a3^0").terms == {(0, 0): 1}
    # characteristic folds coefficients
    assert parse_polynomial(F3_B, "3*b2").is_zero()
    assert parse_polynomial(F3_B, "-b4").terms == {(0, 1): 2}
    with pytest.raises(ValueError):
        parse_polynomial(Q_B, "b7")
    with pytest.raises(ValueError):
        parse_polynomial(Q_B, "")


@pytest.mark.parametrize(
    "text, message",
    [
        ("1/0*b2^2", "zero denominator in '1/0'"),
        ("b2^", "empty exponent in 'b2^'"),
        ("b2^+b4", "empty exponent in 'b2^'"),
        ("3^*b4", "empty exponent in '3^'"),
    ],
)
def test_parser_rejects_malformed_factors(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_polynomial(Q_B, text)


@pytest.mark.parametrize("text", ["b2\t* b4", "b2 *\tb4", "b2\n*b4", "\tb2\t*\tb4\n"])
def test_parser_ignores_whitespace_anywhere(text):
    # a tab or newline next to '*' is skipped as a space is, not read into a factor
    assert parse_polynomial(Q_B, text) == parse_polynomial(Q_B, "b2*b4")


@pytest.mark.parametrize(
    "algebra, text, message",
    [
        (Q_A, "a1^\u0661", "invalid literal for int() with base 10: '\u0661'"),
        (Q_B, "\u0661*b2^2", "unknown variable '\u0661'"),
        (Q_B, "1_0*b2", "unknown variable '1_0'"),
        (Q_B, "0.5*b2", "unknown variable '0.5'"),
        (Q_B, "1e3*b2", "unknown variable '1e3'"),
        (Q_B, "1/2_0*b2", "unknown variable '1/2_0'"),
        (Q_B, "b7", "unknown variable 'b7'"),
        (Q_B, "b2*b7^2", "unknown variable 'b7'"),
    ],
)
def test_parser_reads_numbers_as_ascii_integers_only(algebra, text, message):
    # a constant is a or a/b, each read by arith.parse_integer, as is an exponent
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_polynomial(algebra, text)


def test_parser_sums_like_terms_once():
    assert parse_polynomial(Q_B, "1/4*b2^2*b4^2").terms == {(2, 2): Fraction(1, 4)}
    assert parse_polynomial(Q_B, "-3*b4").terms == {(0, 1): -3}
    assert parse_polynomial(Q_B, "b4 - 1/2*b4 + 2*b2 - 1/2*b4").terms == {(1, 0): 2}
    assert parse_polynomial(F3_B, "b4 + b4 + b4 + b2").terms == {(1, 0): 1}
    # each term is reduced as it is read, so a sum that cancels the 2 still fails
    with pytest.raises(ValueError, match="coefficient 1/2 is undefined in characteristic 2"):
        parse_polynomial(F2_A, "1/2*a1 + 1/2*a1")


#: The q-rank6 and f3-rank3 presets, written as presentation files.
PRESET_FILES = {
    "q-rank6": """
        var b2 2
        var b4 4
        gen c4 = b2^2 - 24*b4   # c4 of the level-2 ring
        gen delta = 1/4*b2^2*b4^2 - 8*b4^3
        basis 1
        basis b2
        basis b4
        basis b2*b4
        basis b4^2
        basis b2*b4^2
    """,
    "f3-rank3": """
        char 3
        var b2 2
        var b4 4
        gen b2 = b2
        gen delta = 1/4*b2^2*b4^2 - 8*b4^3
        basis 1
        basis b4
        basis b4^2
        bound 48
    """,
}


@pytest.mark.parametrize("name", sorted(PRESET_FILES))
def test_a_preset_written_as_a_file_reads_as_the_preset(name):
    assert read_presentation(PRESET_FILES[name], name) == PRESETS[name]


def test_polynomial_arithmetic():
    b2 = parse_polynomial(Q_B, "b2")
    b4 = parse_polynomial(Q_B, "b4")
    assert (b2 * b2 - b2.power(2)).is_zero()
    with pytest.raises(InhomogeneousInput):
        (b2 + b4).homogeneous_degree()
    assert b2.power(2).homogeneous_degree() == 4
    with pytest.raises(InhomogeneousInput):
        Polynomial(Q_B, {}).homogeneous_degree()


def test_polynomials_over_different_algebras_do_not_combine():
    f, g = parse_polynomial(Q_B, "b2"), parse_polynomial(Q_A, "a1")
    for combine in (lambda: f + g, lambda: f - g, lambda: f * g):
        with pytest.raises(ValueError, match="^mixed algebras$"):
            combine()


def test_terms_are_read_only():
    f = parse_polynomial(Q_B, "b2^2 - 24*b4")
    square = f * f
    with pytest.raises(TypeError):
        f.terms[(2, 0)] = 0
    copy = dict(f.terms)
    copy[(2, 0)] = 0
    assert f * f == square


INTS = st.integers(-6, 6)
MIXED = st.one_of(INTS, st.fractions(-6, 6, max_denominator=6))


@st.composite
def matrices(draw, entries):
    """Products of an n x k and a k x m factor, so rank deficits are common,
    with up to 12 columns; a row may start with a drawn run of zeros, so that
    pivots sit late and rows are reduced from a late column on."""
    n, k, m = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 12))

    def block(rows, cols):
        row = st.lists(entries, min_size=cols, max_size=cols)
        return draw(st.lists(row, min_size=rows, max_size=rows))

    left, right = block(n, k), block(k, m)
    product = [[sum((a * b for a, b in zip(row, col)), 0) for col in zip(*right)] for row in left]
    zeros = st.one_of(st.just(0), st.integers(0, m))
    return [[0] * z + row[z:] for row, z in zip(product, (draw(zeros) for _ in product))]


def _rank_by_span(rows, p):
    """Rank over F_p as log_p of the number of vectors in the row span."""
    reduced = [[x.numerator * pow(x.denominator, -1, p) % p for x in row] for row in rows]
    span = {(0,) * len(rows[0])}
    for row in reduced:
        span = {tuple((v + c * x) % p for v, x in zip(vec, row)) for vec in span for c in range(p)}
    rank, size = 0, len(span)
    while size > 1:
        size //= p
        rank += 1
    return rank


@settings(max_examples=200, deadline=None)
@given(st.one_of(matrices(INTS), matrices(MIXED)))
def test_matrix_rank_over_q_matches_sympy(rows):
    sympy = pytest.importorskip("sympy")
    exact = [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows]
    assert matrix_rank(Q_B, rows) == sympy.Matrix(exact).rank()


@pytest.mark.parametrize("p", [2, 3, 5])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_matrix_rank_mod_p_matches_span_count(p, data):
    # denominators prime to p, so every entry has a value in F_p
    fractions = st.builds(Fraction, INTS, st.sampled_from([d for d in range(1, 8) if d % p]))
    rows = data.draw(st.one_of(matrices(INTS), matrices(st.one_of(INTS, fractions))))
    assert matrix_rank(GradedAlgebra(p, Q_B.variables), rows) == _rank_by_span(rows, p)


@pytest.mark.parametrize("char", [0, 2, 3, 5, 7])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_echelon_add_reports_each_rank_increase(char, data):
    # rows of the field's integers (reduced mod p for char p), added in two
    # batches to one echelon; the prefixes reach rank 10, too many for a span
    # count, so sympy ranks them over GF(p) or Q
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    first, second = (data.draw(matrices(INTS)) for _ in range(2))
    width = min(len(first[0]), len(second[0]))
    rows = [[x % char if char else x for x in row[:width]] for row in first + second]
    field = sympy.GF(char) if char else sympy.QQ
    prefixes = (DomainMatrix.from_list(rows[:i], sympy.ZZ) for i in range(1, len(rows) + 1))
    ranks = [prefix.convert_to(field).rank() for prefix in prefixes]
    echelon = ringalg._Echelon(char)
    grew = [echelon.add(row) for row in rows[: len(first)]]
    assert len(echelon) == ranks[len(first) - 1]
    grew += [echelon.add(row) for row in rows[len(first) :]]
    assert len(echelon) == ranks[-1]
    assert grew == [b > a for a, b in zip([0] + ranks, ranks)]


@settings(max_examples=300)
@given(
    st.one_of(st.integers(-10**6, 10**6), st.fractions(max_denominator=12)),
    st.sampled_from([0, 2, 3]),
)
def test_coeff_is_int_exactly_when_integral(value, char):
    f = Fraction(value)
    assume(char == 0 or f.denominator % char)
    c = GradedAlgebra(char, Q_B.variables).coeff(value)
    if char == 0:
        assert c == value
        assert (type(c) is int) == (f.denominator == 1)
    else:
        assert type(c) is int and 0 <= c < char
        assert (c * f.denominator - f.numerator) % char == 0


def test_matrix_rank_exact():
    assert matrix_rank(Q_B, [[1, 2], [2, 4]]) == 1
    assert matrix_rank(Q_B, [[Fraction(1, 3), 0], [0, Fraction(2, 7)]]) == 2
    assert matrix_rank(Q_B, []) == 0
    # mod 2: [[1,1],[1,1]] has rank 1; over Q, [[1,1],[1,-1]] has rank 2
    assert matrix_rank(F2_A, [[1, 1], [1, 1]]) == 1
    assert matrix_rank(F2_A, [[1, 1], [1, -1]]) == 1  # -1 = 1 mod 2
    assert matrix_rank(Q_B, [[1, 1], [1, -1]]) == 2
    # a case where naive integer elimination without pivot care would break
    assert matrix_rank(Q_B, [[2, 4, 6], [3, 6, 9], [1, 0, 1]]) == 2
    # each entry is brought into the field, so 1/3 has no value mod 3
    with pytest.raises(ValueError, match="coefficient 1/3 is undefined in characteristic 3"):
        matrix_rank(F3_B, [[1, Fraction(1, 3)]])


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_presets_certify_free(name):
    cert = verify_free_basis(*PRESETS[name])
    assert cert.free, (cert.failing_degree, cert.failure_kind)
    assert cert.bound == 48


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_none_bound_means_the_default(name):
    algebra, spec, basis, bound = PRESETS[name]
    assert bound == ringalg.FREE_BASIS_BOUND == 48
    assert verify_free_basis(algebra, spec, basis, None) == verify_free_basis(algebra, spec, basis, 48)
    assert verify_free_basis(algebra, spec, basis) == verify_free_basis(*PRESETS[name])


def test_preset_ranks():
    assert len(PRESETS["f2-rank4"][2]) == 4
    assert len(PRESETS["f3-rank3"][2]) == 3
    assert len(PRESETS["q-rank6"][2]) == 6
    assert len(PRESETS["q-rank16"][2]) == 16
    # rank bookkeeping: product of generator degrees over variable degrees
    for name in PRESETS:
        algebra, spec, basis, _ = PRESETS[name]
        d1, d2 = spec.degrees
        v1, v2 = algebra.degrees
        assert d1 * d2 == 48 or name.startswith("f")  # Q cases: deg c4 * deg Delta
        assert (d1 * d2) // (v1 * v2) == len(basis)


def test_wrong_basis_not_free():
    algebra, spec, basis, bound = PRESETS["f3-rank3"]
    cert = verify_free_basis(algebra, spec, basis[:-1], bound)
    assert not cert.free
    assert cert.failure_kind == "spanning"
    b4 = parse_polynomial(algebra, "b4")
    cert = verify_free_basis(algebra, spec, basis + [b4.power(3)], bound)
    assert not cert.free
    # past the horizon 13 only an element of B can fail, here one too many
    cert = verify_free_basis(algebra, spec, basis + [b4.power(5)], bound)
    assert (cert.verdict, cert.failure_kind, cert.failing_degree) == ("not free", "independence", 20)


def test_three_variables_are_checked_through_the_bound():
    # no horizon with three variables: Q[x, y, z] over Q[x, y] needs z, of degree 5
    algebra = GradedAlgebra(0, (("x", 1), ("y", 1), ("z", 5)))
    spec = SubringSpec(tuple((name, parse_polynomial(algebra, name)) for name in "xy"))
    cert = verify_free_basis(algebra, spec, [parse_polynomial(algebra, "1")], 48)
    assert (cert.verdict, cert.failure_kind, cert.failing_degree) == ("not free", "spanning", 5)


@pytest.mark.parametrize(
    "name, old, new, degree",
    [
        # b2*c4/4 and a1*c4/3: the new element is c4 times another basis element
        ("q-rank6", "b2*b4", "1/4*b2^3 - 6*b2*b4", 6),
        ("q-rank16", "a1^2*a3", "1/3*a1^5 - 8*a1^2*a3", 5),
    ],
)
def test_dependent_basis_not_free_over_q(name, old, new, degree):
    algebra, spec, basis, bound = PRESETS[name]
    old, new = parse_polynomial(algebra, old), parse_polynomial(algebra, new)
    assert old in basis
    cert = verify_free_basis(algebra, spec, [new if b == old else b for b in basis], bound)
    verdict = (cert.verdict, cert.failure_kind, cert.failing_degree)
    assert verdict == ("not free", "independence", degree)


def test_certificate_ignores_rational_scaling():
    algebra, spec, basis, _ = PRESETS["q-rank6"]
    scaled = SubringSpec(tuple((n, g.scale(Fraction(2, 7))) for n, g in spec.generators))
    cert = verify_free_basis(algebra, scaled, [b.scale(Fraction(-1, 3)) for b in basis], 30)
    assert cert.free and cert.subring is scaled
    cert = verify_free_basis(algebra, scaled, [b.scale(Fraction(5, 6)) for b in basis[:-1]], 30)
    assert (cert.verdict, cert.failure_kind, cert.failing_degree) == ("not free", "spanning", 10)


def test_degree_zero_generator_rejected():
    one, b4 = parse_polynomial(Q_B, "1"), parse_polynomial(Q_B, "b4")
    with pytest.raises(ValueError, match="generator c must have positive degree"):
        SubringSpec((("c", one), ("b4", b4)))


def test_negative_bound_rejected():
    algebra, spec, basis, _ = PRESETS["q-rank6"]
    with pytest.raises(ValueError, match="degree bound must be >= 0"):
        verify_free_basis(algebra, spec, basis, -3)
    with pytest.raises(ValueError, match="degree bound must be >= 0"):
        verify_regular_sequence(Q_B, [parse_polynomial(Q_B, "b2^2")], -1)
    assert verify_free_basis(algebra, spec, basis, 0).free


def test_hilbert_series_freeness_f2():
    # dim F_2[a1,a3]_d equals sum over basis degrees 0,3,6,9 of
    # dim F_2[a1(1), Delta(12)]_{d - j} through degree 60
    sub = GradedAlgebra(2, (("a1", 1), ("delta", 12)))
    for d in range(61):
        lhs = len(_graded_monomials(F2_A.degrees, d))
        rhs = sum(len(_graded_monomials(sub.degrees, d - j)) for j in (0, 3, 6, 9))
        assert lhs == rhs


def test_hilbert_series_freeness_f3():
    sub = GradedAlgebra(3, (("b2", 2), ("delta", 12)))
    for d in range(61):
        lhs = len(_graded_monomials(F3_B.degrees, d))
        rhs = sum(len(_graded_monomials(sub.degrees, d - j)) for j in (0, 4, 8))
        assert lhs == rhs


@pytest.mark.parametrize("name", sorted(REGULAR_SEQUENCE_CASES))
def test_regular_sequence_cases(name):
    char, variables, exprs, expected = REGULAR_SEQUENCE_CASES[name]
    algebra = GradedAlgebra(char, variables)
    elems = [parse_polynomial(algebra, e) for e in exprs]
    assert verify_regular_sequence(algebra, elems).regular == expected


@pytest.mark.parametrize("name", sorted(REGULAR_SEQUENCE_CASES))
def test_regular_sequence_case_parses_the_raw_strings(name):
    char, variables, exprs, expected = REGULAR_SEQUENCE_CASES[name]
    algebra = GradedAlgebra(char, variables)
    parsed = [parse_polynomial(algebra, e) for e in exprs]
    assert ringalg.regular_sequence_case(name) == (algebra, parsed, expected)


def test_regular_sequence_order_and_errors():
    # (b2^2, b4^3) is regular over Q
    elems = [parse_polynomial(Q_B, "b2^2"), parse_polynomial(Q_B, "b4^3")]
    assert verify_regular_sequence(Q_B, elems).regular
    with pytest.raises(InhomogeneousInput):
        verify_regular_sequence(Q_B, [parse_polynomial(Q_B, "b2 + b4")])


@pytest.mark.parametrize(
    "algebra, exprs, index, degree",
    [
        (F3_B, ("b2^2", "b2^3"), 1, 0),  # the f3 negative control
        (Q_B, ("b2^2*b4", "b4^2"), 1, 4),  # b4^2 * b2^2 = b4 * (b2^2*b4)
        (F2_A, ("a1^3", "a1^2*a3", "a3^2"), 1, 1),
    ],
)
def test_regular_sequence_failure_is_located(algebra, exprs, index, degree):
    verdict = verify_regular_sequence(algebra, [parse_polynomial(algebra, e) for e in exprs])
    assert (verdict.regular, verdict.failing_index, verdict.failing_degree) == (
        False, index, degree,
    )
    assert verdict.detail == (
        f"multiplication by element {index} has a nontrivial kernel in degree "
        f"{degree} of the quotient"
    )


def test_a_failing_regular_sequence_verdict_is_false():
    algebra, elems, expected = ringalg.regular_sequence_case("f3-negative-control")
    verdict = verify_regular_sequence(algebra, elems)
    assert (expected, verdict.regular, bool(verdict)) == (False, False, False)
    assert verify_regular_sequence(Q_B, [parse_polynomial(Q_B, "b2^2")])


#: products f_k * monomial per prefix k and monomial through the horizon
#: deg f_1 + deg f_2 - 1, past which no bound adds any; checking through the
#: bound (None, then 64) formed 239, 1,146, 100, 452, 26 and 257
PRODUCTS = {"f2-c4-delta": 35, "f3-c4-delta": 14, "f3-negative-control": 5}


@pytest.fixture
def echelon_adds(monkeypatch):
    """The rows passed to ``_Echelon.add`` from here on, one entry each."""
    calls = []
    add = ringalg._Echelon.add

    def counting_add(echelon, row):
        calls.append(1)
        return add(echelon, row)

    monkeypatch.setattr(ringalg._Echelon, "add", counting_add)
    return calls


@pytest.mark.parametrize("bound", [None, 64, 10_000])
@pytest.mark.parametrize("name", sorted(REGULAR_SEQUENCE_CASES))
def test_each_product_is_formed_once(echelon_adds, name, bound):
    char, variables, exprs, _ = REGULAR_SEQUENCE_CASES[name]
    algebra = GradedAlgebra(char, variables)
    elems = [parse_polynomial(algebra, e) for e in exprs]
    verify_regular_sequence(algebra, elems, bound)  # each product's row is added once
    assert len(echelon_adds) == PRODUCTS[name]


#: deg c4 (or b2, a1) + deg Delta - 1, or the top basis degree if larger
HORIZONS = {"f2-rank4": 12, "f3-rank3": 13, "q-rank6": 15, "q-rank16": 15}


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_free_basis_check_stops_at_the_horizon(monkeypatch, echelon_adds, name):
    algebra, spec, basis, _ = PRESETS[name]

    def unused(*args):
        raise AssertionError("the quotient check forms no products and no one-shot rank")

    monkeypatch.setattr(ringalg, "matrix_rank", unused)
    monkeypatch.setattr(Polynomial, "__mul__", unused)
    at_horizon = verify_free_basis(algebra, spec, basis, HORIZONS[name])
    adds = len(echelon_adds)
    far = verify_free_basis(algebra, spec, basis, 10_000)
    assert at_horizon.free and far.free
    assert at_horizon._replace(bound=10_000) == far
    assert len(echelon_adds) == 2 * adds


@st.composite
def homogeneous_elements(draw, algebra):
    """A nonzero homogeneous element of degree 1..8 with small coefficients."""
    degrees = [d for d in range(1, 9) if _graded_monomials(algebra.degrees, d)]
    component = _graded_monomials(algebra.degrees, draw(st.sampled_from(degrees)))
    coeffs = st.lists(st.integers(-3, 3), min_size=len(component), max_size=len(component))
    element = st.builds(lambda cs: Polynomial(algebra, dict(zip(component, cs))), coeffs)
    return draw(element.filter(lambda f: not f.is_zero()))


@pytest.mark.parametrize("char", [0, 2, 3, 5])
@pytest.mark.parametrize("degrees", [(1, 3), (2, 4), (1, 2, 3)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_row_is_the_product_in_coordinates(char, degrees, data):
    algebra = GradedAlgebra(char, tuple((f"x{i}", d) for i, d in enumerate(degrees)))
    f = data.draw(homogeneous_elements(algebra))
    shift = data.draw(st.integers(0, 8).filter(lambda e: _graded_monomials(algebra.degrees, e)))
    mono = data.draw(st.sampled_from(_graded_monomials(algebra.degrees, shift)))  # 1 when shift is 0
    component = _graded_monomials(algebra.degrees, f.homogeneous_degree() + shift)
    row = ringalg._row(f.terms, mono, {m: i for i, m in enumerate(component)})
    assert all(type(x) is int for x in row)
    product = f * Polynomial(algebra, {mono: 1})
    assert row == [product.terms.get(m, 0) for m in component]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_regular_sequence_agrees_with_a_gcd_oracle(data):
    # In a two-variable polynomial ring every nonzero element is regular, two
    # elements are regular exactly when they are coprime, and three never are.
    sympy = pytest.importorskip("sympy")
    algebra = data.draw(st.sampled_from([Q_B, F2_A, F3_B]))
    elems = data.draw(st.lists(homogeneous_elements(algebra), min_size=1, max_size=3))
    if len(elems) == 2:
        gens = sympy.symbols(algebra.names)
        options = {"modulus": algebra.char} if algebra.char else {}
        # from_dict rewrites the values of the dict it is given, so pass copies
        f, g = (sympy.Poly.from_dict(dict(e.terms), *gens, **options) for e in elems)
        expected = f.gcd(g).is_ground
    else:
        expected = len(elems) == 1
    assert verify_regular_sequence(algebra, elems).regular == expected


def _product_row_failure(ambient, subring, basis, bound):
    """Oracle: the first degree d through ``bound`` where the products
    (subring monomial) * b are not dim(ambient_d) many independent elements,
    with the kind of failure, or None."""
    gens = [g for _, g in subring.generators]
    exponents = GradedAlgebra(0, tuple((f"s{i}", e) for i, e in enumerate(subring.degrees)))
    power = lru_cache(maxsize=None)(lambda i, e: gens[i].power(e))
    for d in range(bound + 1):
        component = _graded_monomials(ambient.degrees, d)
        products = [
            reduce(mul, (power(i, e) for i, e in enumerate(expo)), b)
            for b in basis
            for expo in _graded_monomials(exponents.degrees, d - b.homogeneous_degree())
        ]
        if len(products) != len(component):
            return d, "spanning" if len(products) < len(component) else "independence"
        rows = [[f.terms.get(m, 0) for m in component] for f in products]
        if rows and matrix_rank(ambient, rows) < len(component):
            return d, "independence"
    return None


@st.composite
def free_basis_cases(draw):
    """(ring, generators, basis, bound): a free presentation in 2 or 3
    variables over Q, F_2, F_3 or F_5, often broken on purpose."""
    nvars = draw(st.sampled_from([2, 2, 3]))
    degrees = [draw(st.integers(1, 3)) for _ in range(nvars)]
    algebra = GradedAlgebra(draw(st.sampled_from([0, 2, 3, 5])), tuple(
        (f"x{i}", d) for i, d in enumerate(degrees)
    ))
    powers = [draw(st.integers(1, 3)) for _ in range(nvars)]
    # g_i is x_i^a_i plus monomials in x_i, x_i+1, .. with x_i to a lower power,
    # so the lex leading terms are x_i^a_i and the monomials below them a basis
    gens = []
    for i, a in enumerate(powers):
        lead = tuple(a if j == i else 0 for j in range(nvars))
        component = _graded_monomials(algebra.degrees, a * degrees[i])
        tail = [m for m in component if not any(m[:i]) and m[i] < a]
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(tail), max_size=len(tail)))
        gens.append(Polynomial(algebra, {lead: 1, **dict(zip(tail, coeffs))}))
    basis = [Polynomial(algebra, {m: 1}) for m in product(*map(range, powers))]
    j = draw(st.integers(0, len(basis) - 1))
    g = draw(st.sampled_from(gens))
    change = draw(st.sampled_from([
        "none", "drop", "duplicate", "times g", "into the ideal",
        "common factor", "fewer gens", "more gens",
    ]))
    if change == "drop":
        del basis[j]
    elif change == "duplicate":
        basis.append(basis[j])
    elif change == "times g":
        basis[j] = basis[j] * g
    elif change == "into the ideal":  # the top degree keeps its count: only ranks tell
        top = max(basis, key=Polynomial.homogeneous_degree)
        d = top.homogeneous_degree()
        multiples = [
            f * Polynomial(algebra, {m: 1})
            for f in gens for m in _graded_monomials(algebra.degrees, d - f.homogeneous_degree())
        ]
        basis[basis.index(top)] = multiples[0] if multiples else top
    elif change == "common factor":
        h = draw(homogeneous_elements(algebra))
        gens[:2] = [f * h for f in gens[:2]]
    elif change == "fewer gens":
        gens.remove(g)
    elif change == "more gens":
        gens.append(draw(homogeneous_elements(algebra)))
    bound = draw(st.sampled_from(range(40 if nvars == 2 else 10, -1, -1)))  # large ones first
    return algebra, gens, basis, bound


@seed(20170)
@settings(max_examples=200, deadline=None)
@given(free_basis_cases())
def test_free_basis_agrees_with_a_product_row_oracle(case):
    algebra, gens, basis, bound = case
    spec = SubringSpec(tuple((f"g{i}", g) for i, g in enumerate(gens)))
    cert = verify_free_basis(algebra, spec, basis, bound)
    failure = _product_row_failure(algebra, spec, basis, bound)
    assert (cert.failing_degree, cert.failure_kind) == (failure or (None, None))
    assert cert.free == (failure is None) and cert.bound == bound


@pytest.mark.parametrize("name", sorted(WEIERSTRASS_PRESENTATIONS))
def test_weierstrass_identities(name):
    algebra, c4, c6, delta = WEIERSTRASS_PRESENTATIONS[name]
    assert weierstrass_identity_check(
        parse_polynomial(algebra, c4),
        parse_polynomial(algebra, c6),
        parse_polynomial(algebra, delta),
    )


@pytest.mark.parametrize("name", sorted(WEIERSTRASS_PRESENTATIONS))
def test_weierstrass_forms_parse_the_raw_strings(name):
    algebra, *texts = WEIERSTRASS_PRESENTATIONS[name]
    # a Polynomial compares its ring too, so this pins the level's algebra over Q
    assert ringalg.weierstrass_forms(name) == tuple(parse_polynomial(algebra, text) for text in texts)


def _q_presentation(variables):
    """The Q presentation (ring, c4, c6, Delta) in ``variables``."""
    (entry,) = (e for e in WEIERSTRASS_PRESENTATIONS.values() if e[0].variables == variables)
    return entry


def _reductions(char, variables):
    """c4 and Delta of the Q presentation in ``variables``, reduced mod ``char``."""
    algebra = GradedAlgebra(char, variables)
    _, c4, _, delta = _q_presentation(variables)
    return parse_polynomial(algebra, c4), parse_polynomial(algebra, delta)


@pytest.mark.parametrize("name", [name for name in sorted(PRESETS) if PRESETS[name][0].char])
def test_fp_presets_are_reductions_of_the_q_presentation(name):
    algebra, spec, _, _ = PRESETS[name]
    c4, delta = _reductions(algebra.char, algebra.variables)
    (_, first), (_, last) = spec.generators
    assert last == delta
    assert any(first.power(n) == c4 for n in range(1, c4.homogeneous_degree() + 1))


# every F_p case but the negative control, which is deliberately not (c4, Delta)
@pytest.mark.parametrize(
    "name", [name for name, case in sorted(REGULAR_SEQUENCE_CASES.items()) if case[0] and case[3]]
)
def test_fp_regular_sequences_are_reductions_of_the_q_presentation(name):
    # the Q strings themselves, read mod p: a reduction written by hand fails
    _, variables, exprs, _ = REGULAR_SEQUENCE_CASES[name]
    _, c4, _, delta = _q_presentation(variables)
    assert exprs == (c4, delta)


@pytest.mark.parametrize("name", [name for name in sorted(PRESETS) if PRESETS[name][0].char])
def test_fp_presets_read_the_q_delta_string(name):
    # a preset keeps only parsed polynomials, so search the module source: the
    # one string in it that spells the preset's Delta is the Q presentation's
    algebra, spec, _, _ = PRESETS[name]
    (_, _), (_, delta) = spec.generators
    tree = ast.parse(Path(ringalg.__file__).read_text())
    texts = {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)}

    def spells_delta(text):
        try:
            return parse_polynomial(algebra, text) == delta
        except ValueError:
            return False

    assert [text for text in texts if spells_delta(text)] == [_q_presentation(algebra.variables)[3]]


def test_level2_strings_are_not_read_in_characteristic_2():
    # the F_p inputs rely on this guard: a coefficient that is not p-integral is an error
    algebra, _, _, delta = WEIERSTRASS_PRESENTATIONS["level2"]
    with pytest.raises(ValueError, match="^coefficient 1/4 is undefined in characteristic 2$"):
        parse_polynomial(GradedAlgebra(2, algebra.variables), delta)


def test_weierstrass_perturbation_fails():
    algebra, c4, c6, _ = WEIERSTRASS_PRESENTATIONS["level3"]
    perturbed = parse_polynomial(algebra, "a1^3*a3^3 - 26*a3^4")
    assert not weierstrass_identity_check(
        parse_polynomial(algebra, c4), parse_polynomial(algebra, c6), perturbed
    )


def test_weierstrass_identity_against_sympy():
    sympy = pytest.importorskip("sympy")
    for name, (algebra, c4, c6, delta) in WEIERSTRASS_PRESENTATIONS.items():
        syms = sympy.symbols(" ".join(algebra.names))
        lookup = dict(zip(algebra.names, syms if len(algebra.names) > 1 else [syms]))

        def to_sympy(text):
            return sympy.sympify(text.replace("^", "**"), locals=lookup)

        expr = to_sympy(c4) ** 3 - to_sympy(c6) ** 2 - 1728 * to_sympy(delta)
        assert sympy.expand(expr) == 0


def test_freeness_against_sympy_groebner_free_rank():
    # independent spot check: in Q[b2,b4] the products of the rank-6 basis
    # with c4^i * Delta^j monomials of total degree 24 span a space of the
    # right dimension according to sympy's rank computation
    sympy = pytest.importorskip("sympy")
    b2, b4 = sympy.symbols("b2 b4")
    c4 = b2**2 - 24 * b4
    delta = sympy.Rational(1, 4) * b2**2 * b4**2 - 8 * b4**3
    basis = [1, b2, b4, b2 * b4, b4**2, b2 * b4**2]
    basis_degrees = [0, 2, 4, 6, 8, 10]
    d = 24
    monos = [(i, j) for i in range(13) for j in range(7) if 2 * i + 4 * j == d]
    products = []
    for b, bd in zip(basis, basis_degrees):
        for e1 in range(13):
            for e2 in range(3):
                if 4 * e1 + 12 * e2 == d - bd:
                    products.append(sympy.expand(b * c4**e1 * delta**e2))
    rows = []
    for prod in products:
        poly = sympy.Poly(prod, b2, b4)
        rows.append([poly.coeff_monomial((i, j)) for i, j in monos])
    mat = sympy.Matrix(rows)
    assert len(products) == len(monos) == mat.rank()


@pytest.mark.parametrize("char", [1, 4, 9, -3])
def test_characteristic_must_be_zero_or_prime(char):
    with pytest.raises(ValueError, match=f"characteristic must be 0 or a prime, got {char}"):
        GradedAlgebra(char, (("b2", 2),))
    for ok in (0, 2, 3, 5):
        GradedAlgebra(ok, (("b2", 2),))


variable_lists = st.lists(
    st.tuples(st.from_regex(r"[a-z_][a-z0-9_]{0,3}", fullmatch=True), st.integers(1, 12)),
    max_size=4,
    unique_by=lambda var: var[0],
).map(tuple)


@given(st.sampled_from([0, 2, 3, 7]), variable_lists, variable_lists)
def test_names_and_degrees_are_the_columns_of_variables(char, variables, other):
    algebra = GradedAlgebra(char, variables)
    copies = [
        algebra,
        algebra._replace(variables=other),
        algebra._replace(char=5),
        copy.copy(algebra),
        copy.deepcopy(algebra),
        *(pickle.loads(pickle.dumps(algebra, protocol)) for protocol in (0, pickle.HIGHEST_PROTOCOL)),
    ]
    for a in copies:
        assert a.names == tuple(name for name, _ in a.variables)
        assert a.degrees == tuple(deg for _, deg in a.variables)
    assert copies[3:] == [algebra] * 4


def test_variable_names_must_be_distinct():
    with pytest.raises(ValueError, match="variable 'a1' is declared twice"):
        GradedAlgebra(2, (("a1", 1), ("a3", 3), ("a1", 3)))


@pytest.mark.parametrize("name", ["2", "1/2", "b-2", "b^2", "a*b", "", "b 2"])
def test_variable_names_must_be_identifiers(name):
    # the parser would read such a name as a constant or split it into factors
    with pytest.raises(ValueError, match=f"variable name {re.escape(repr(name))} is not an identifier"):
        GradedAlgebra(0, (("a1", 1), (name, 3)))
    GradedAlgebra(0, (("a1", 1), ("_b2", 3)))


def test_coefficient_undefined_mod_p_is_named():
    with pytest.raises(ValueError, match="coefficient 1/2 is undefined in characteristic 2"):
        parse_polynomial(F2_A, "1/2*a1")
    assert parse_polynomial(F3_B, "1/2*b2").terms == {(1, 0): 2}


@given(
    st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3),
    st.integers(min_value=0, max_value=30),
)
def test_over_denominator_counts_graded_monomials(degrees, n):
    algebra = GradedAlgebra(0, tuple((f"x{i}", d) for i, d in enumerate(degrees)))
    expected = [len(_graded_monomials(algebra.degrees, d)) for d in range(n)]
    assert over_denominator([1], degrees, n) == expected
