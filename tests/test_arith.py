import re
from math import isqrt, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from mfdecomp import arith, ringalg
from mfdecomp.arith import factorize, is_prime, least_prime_factors, parse_integer, read_lines
from mfdecomp.levels import Weight1Data


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


@pytest.mark.parametrize(
    "n, prime",
    [(1369, False), (1681, False), (1763, False), (1847, True), (1849, False), (2021, False), (2209, False)],
)
def test_is_prime_at_the_trial_division_bound(monkeypatch, n, prime):
    # 37^2, 41^2, 41 * 43, the largest prime below 43^2, 43^2, 43 * 47 and 47^2:
    # trial division by the bases 2..41 decides n < 43^2 alone; above it the strong test runs
    pows = []
    monkeypatch.setattr(arith, "pow", lambda *args: pows.append(args) or pow(*args), raising=False)
    assert is_prime(n) is prime
    assert bool(pows) is (n >= 43 * 43)


def test_is_prime_rejects_strong_pseudoprimes():
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to every prime base up to 23
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert not is_prime(998244353 * 1000000007)


#: The least strong pseudoprime to every prime base below 43 (Sorenson and
#: Webster 2017), written out here so that the test does not read arith's copy.
PSI_13 = 3317044064679887385961981


def test_is_prime_accepts_large_primes():
    # the largest primes below psi_13 and below psi_13 / 3 (2^89 - 1 is above psi_13)
    for p in (998244353, 1000000007, 2**61 - 1, PSI_13 - 168, 1105681354893295795320593):
        assert is_prime(p)
    assert not is_prime(2**67 - 1)  # = 193707721 * 761838257287


def test_is_prime_refuses_to_decide_from_psi_13_on():
    # psi_13 is composite, yet passes the strong test to all 13 bases
    assert PSI_13 == 1287836182261 * 2575672364521
    assert is_prime(1287836182261) and is_prime(2575672364521)
    for n in (PSI_13, 2**89 - 1, 2**127 - 1):
        with pytest.raises(ValueError, match=rf"^cannot decide whether {n} is prime: .* exact below psi_13 = {PSI_13}$"):
            is_prime(n)
    # a failed strong test or a small factor proves n composite at any size
    for n in (PSI_13 + 2, PSI_13 - 2, PSI_13 + 1, (10**18 + 3) ** 2 - 1, 2**128 + 1):
        assert not is_prime(n)
    with pytest.raises(ValueError, match="psi_13"):
        factorize(2 * PSI_13)  # the cofactor psi_13 would be taken for a prime


@given(st.integers(min_value=1, max_value=10**6))
def test_factorize(n):
    pairs = factorize(n)
    assert prod(p**e for p, e in pairs) == n
    assert [p for p, _ in pairs] == sorted({p for p, _ in pairs})
    assert all(is_prime(p) and e >= 1 for p, e in pairs)


def _smallest_prime_factors(bound):
    """smallest[n]: the least prime factor of n >= 2, by an ascending sieve."""
    smallest = list(range(bound))
    for p in range(2, isqrt(bound - 1) + 1):
        if smallest[p] == p:
            for n in range(p * p, bound, p):
                smallest[n] = min(smallest[n], p)
    return smallest


SMALLEST = _smallest_prime_factors(20_001)


def _factorize_by_sieve(n):
    exponents, m = {}, n
    while m > 1:
        exponents[SMALLEST[m]] = exponents.get(SMALLEST[m], 0) + 1
        m //= SMALLEST[m]
    return tuple(sorted(exponents.items()))


def test_factorize_agrees_with_a_sieve_through_20000():
    for n in range(1, len(SMALLEST)):
        assert factorize(n) == _factorize_by_sieve(n), n


@pytest.mark.parametrize("n", [997, 998, 999, 1000, 1001, 1009, 31 * 32, 997 * 2, 31**2])
def test_factorize_at_the_table_bound(n):
    # below 1000 the pairs are read off the table; from 1000 on trial division
    # runs, and the prime 1009 is left to is_prime
    expected = {997: ((997, 1),), 998: ((2, 1), (499, 1)), 999: ((3, 3), (37, 1)),
                1000: ((2, 3), (5, 3)), 1001: ((7, 1), (11, 1), (13, 1)), 1009: ((1009, 1),),
                992: ((2, 5), (31, 1)), 1994: ((2, 1), (997, 1)), 961: ((31, 2),)}
    assert factorize(n) == expected[n] == _factorize_by_sieve(n)


@settings(max_examples=300)
@given(st.integers(min_value=1, max_value=10**4 - 1))
def test_factorize_below_10000_agrees_with_the_sieve(n):
    # 300 examples, on top of the full comparison through 20000 above
    assert factorize(n) == _factorize_by_sieve(n)


# 200 examples: each one factorisation below 10^15, whose cofactor rho splits in milliseconds
@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.integers(min_value=1, max_value=10**15 - 1),
    st.lists(st.integers(min_value=2, max_value=5000), min_size=1, max_size=4).map(prod),  # < 10^15
))
@example(1000)
@example(1001)
@example(997**2)
@example(997 * 1009)
@example(1009)  # the first prime above 1000
def test_factorize_agrees_with_sympy_below_10_15(n):
    # above 1000, trial division hands a cofactor below 1000 to the table
    sympy = pytest.importorskip("sympy")
    assert factorize(n) == tuple(sorted(sympy.factorint(n).items()))


@pytest.mark.parametrize("held", [0, 1, 2, 30, 999, 1000, 1001, 5000])
def test_least_prime_factors_is_right_below_any_bound_whatever_table_is_held(monkeypatch, held):
    monkeypatch.setattr(arith, "_least_factors", [])
    least_prime_factors(held)
    for k in (0, 1, 2, 3, 4, 30, 31, 961, 962, 1000, 1001, 4999, 5000, 5001, 20_001):
        table = least_prime_factors(k)
        assert len(table) >= k
        assert table[:k] == SMALLEST[:k], (held, k)


def test_a_shorter_request_reads_the_longer_table_without_a_rebuild(monkeypatch):
    monkeypatch.setattr(arith, "_least_factors", [])
    longer = least_prime_factors(2000)
    monkeypatch.setattr(arith, "isqrt", None)  # a rebuild would call it
    for k in (1000, 61, 2000, 1, 0):
        assert least_prime_factors(k) is longer
    assert factorize(999) == ((3, 3), (37, 1))
    assert arith._least_factors is longer


def test_factorize_large_factors():
    assert factorize(998244353 * 1000000007) == ((998244353, 1), (1000000007, 1))
    assert factorize(10**18 + 3) == ((10**18 + 3, 1),)
    assert factorize(1000003**2) == ((1000003, 2),)
    assert factorize(2**67 - 1) == ((193707721, 1), (761838257287, 1))
    # d_q = q^2 - 1 for the prime q = 10^18 + 3, which obstruct factorises
    assert factorize((10**18 + 3) ** 2 - 1) == (
        (2, 3), (3, 1), (17, 1), (131, 1), (1427, 1), (1801, 1),
        (246809, 1), (562425889, 1), (52445056723, 1),
    )


@given(st.lists(st.integers(min_value=1, max_value=10**9), min_size=1, max_size=3))
def test_factorize_is_multiplicative(parts):
    exponents = {}
    for part in parts:
        for p, e in factorize(part):
            exponents[p] = exponents.get(p, 0) + e
    assert factorize(prod(parts)) == tuple(sorted(exponents.items()))


#: ``\s*-?[0-9]+\s*`` with the whitespace that int() strips: Python's ``\s``
#: (and str.strip) also take the separators U+001C..U+001F, which int() rejects.
INTEGER = re.compile(r"[^\S\x1c-\x1f]*-?[0-9]+[^\S\x1c-\x1f]*")


@given(
    st.one_of(
        st.text(),
        st.text(alphabet="0123456789-+_. e\t\n\x1c\x1f\u2003\u0663\uff13"),
        st.from_regex(r"\s*-?[0-9]+\s*", fullmatch=True),
    )
)
def test_parse_integer_takes_exactly_signed_ascii_digits_within_whitespace(text):
    try:
        value = parse_integer(text)
    except ValueError as exc:
        assert not INTEGER.fullmatch(text)
        assert str(exc).startswith("invalid literal for int() with base 10: ")  # int() cuts a long text
    else:
        assert INTEGER.fullmatch(text)
        assert value == int(text)


@pytest.mark.parametrize("text", ["1_0", "\u0663", "\uff13", "+5", "0.5", "1e3", "", "-", "\x1c5"])
def test_parse_integer_rejects_separators_plus_signs_decimals_and_other_digits(text):
    with pytest.raises(ValueError, match="invalid literal for int"):
        parse_integer(text)


def test_read_lines_cuts_comments_skips_blanks_and_names_the_line():
    seen = []
    read_lines("a 1 # note\n\n   # only a comment\n\tb\f2  \n", "f", lambda *line: seen.append(line))
    assert seen == [(1, "a 1"), (4, "b\f2")]

    def read(lineno, line):
        raise ValueError(f"bad {line!r}")

    with pytest.raises(ValueError, match=r"^f:2: bad 'x'$"):
        read_lines("# x\nx\n", "f", read)


def test_read_lines_decodes_bytes_as_a_text_mode_file():
    seen = []
    read_lines("a\r\nb\rc\x85d\n".encode(), "f", lambda *line: seen.append(line))
    assert seen == [(1, "a"), (2, "b"), (3, "c\x85d")]  # universal newlines, no more
    with pytest.raises(ValueError, match=r"^f: .*can't decode byte 0xff in position 2"):
        read_lines(b"a\n\xff\n", "f", lambda *line: None)


#: The characters at which str.splitlines, but not a text-mode file, ends a
#: line; all of them are whitespace to str.split and str.strip.
ODD_LINE_ENDS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"
padding = st.text(alphabet=" " + ODD_LINE_ENDS, max_size=3)
separators = st.text(alphabet=" " + ODD_LINE_ENDS, min_size=1, max_size=2)
comments = st.one_of(st.just(""), st.text(alphabet="ab #" + ODD_LINE_ENDS, max_size=6).map("#".__add__))


@st.composite
def numbered_files(draw):
    """(weight-1 text, presentation text, k): the same layout of valid,
    comment and blank lines in both formats, odd characters inside the
    lines, and one malformed token on line k."""
    kinds = draw(st.lists(st.sampled_from(["valid", "comment", "blank"]), max_size=8))
    k = draw(st.integers(min_value=0, max_value=len(kinds)))
    kinds.insert(k, "bad")
    w1_lines, pres_lines = [], []
    for i, kind in enumerate(kinds):
        left, right, comment = draw(padding), draw(padding), draw(comments)
        seps = [draw(separators) for _ in range(2)]
        if kind in ("comment", "blank"):
            text = left + (comment or "#") if kind == "comment" else left + right
            w1_lines.append(text)
            pres_lines.append(text)
            continue
        token = "x" if kind == "bad" else None  # the bad line's malformed number
        w1_lines.append(f"{left}g0{seps[0]}{i + 2}{seps[1]}{token or 0}{right}{comment}")
        pres_lines.append(f"{left}var x{i}{seps[0]}{token or 1}{right}{comment}")
    return "\n".join(w1_lines) + "\n", "\n".join(pres_lines) + "\n", k + 1


@given(numbered_files())
def test_both_readers_number_lines_alike(tmp_path_factory, case):
    w1_text, pres_text, k = case
    path = tmp_path_factory.getbasetemp() / "numbered.txt"
    path.write_bytes(w1_text.encode())
    with pytest.raises(ValueError) as w1_error:
        Weight1Data.load(path)
    with pytest.raises(ValueError) as pres_error:
        ringalg.read_presentation(pres_text, "pres.txt")
    assert str(w1_error.value).startswith(f"{path}:{k}: invalid literal")
    assert str(pres_error.value).startswith(f"pres.txt:{k}: invalid literal")
