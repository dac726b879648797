from fractions import Fraction
from functools import lru_cache
from importlib import resources
from itertools import product
from math import gcd

import pytest
from hypothesis import given, strategies as st

from mfdecomp import decomp, levels
from mfdecomp.decomp import omega_decomposition
from mfdecomp.hilbert import WeightedLine, h0_dim
from mfdecomp.levels import (
    SMALL_LEVEL_WEIGHTS,
    CongruenceGroup,
    GroupKind,
    InvalidGroup,
    Weight1Data,
    Weight1Unavailable,
    dim_cusp_forms,
    dim_modular_forms,
    genus,
    level_invariants,
    weight1_cusp_dim,
)

G1 = lambda n: CongruenceGroup(GroupKind.GAMMA1, n)
G0 = lambda n: CongruenceGroup(GroupKind.GAMMA0, n)
GF = lambda n: CongruenceGroup(GroupKind.GAMMA_FULL, n)


def test_group_parsing():
    assert CongruenceGroup.parse("g1:23") == G1(23)
    assert CongruenceGroup.parse("g0:11") == G0(11)
    assert CongruenceGroup.parse("g:3") == GF(3)
    assert CongruenceGroup.parse("g1: 7") == G1(7)
    messages = {
        "g2:5": "unknown group kind 'g2'",
        "gx:abc": "unknown group kind 'gx'",  # the kind is reported before the level
        "gx:1": "unknown group kind 'gx'",
        ":5": "unknown group kind ''",
        "g1:x": "malformed level 'x'",
        "g1:abc": "malformed level 'abc'",
        "g1:": "malformed level ''",
        "g1": "malformed group spec 'g1'",
        "g1:1": "level must be >= 2, got 1",
        "g1:-5": "level must be >= 2, got -5",
        # int() would read these as 11, 5, 3 and 3: a level is ASCII digits
        "g1:1_1": "malformed level '1_1'",
        "g1:+5": "malformed level '+5'",
        "g1:\u0663": "malformed level '\u0663'",  # ARABIC-INDIC DIGIT THREE
        "g1:\uff13": "malformed level '\uff13'",  # FULLWIDTH DIGIT THREE
        "g1:-": "malformed level '-'",
        "g1:--5": "malformed level '--5'",
        "g1:5 5": "malformed level '5 5'",
    }
    for bad, message in messages.items():
        with pytest.raises(InvalidGroup) as excinfo:
            CongruenceGroup.parse(bad)
        assert str(excinfo.value) == message, bad


def test_a_plain_string_kind_neither_misreads_nor_poisons_the_invariants_cache():
    # GroupKind is a str enum, so CongruenceGroup("g0", 11) == G0(11) and hashes
    # like it: a record holding the plain string failed every `kind is` test,
    # got Gamma1(11)'s invariants and left them in the cache for G0(11)
    level_invariants.cache_clear()
    from_string = CongruenceGroup("g0", 11)
    assert from_string.kind is GroupKind.GAMMA0 and str(from_string) == "g0:11"
    assert level_invariants(from_string).index == 12
    assert level_invariants(G0(11)).index == 12
    assert dim_modular_forms(from_string, 3) == dim_modular_forms(G0(11), 3) == 0


def test_index_examples():
    assert level_invariants(G1(5)).index == 24
    assert level_invariants(G1(9)).index == 72
    assert level_invariants(GF(3)).index == 24
    assert level_invariants(G0(11)).index == 12
    assert level_invariants(G1(23)).index == 528


def test_gamma_full_index_by_matrix_enumeration():
    # |SL_2(Z/3)| by brute force over all 3^4 matrices
    count = sum(
        1
        for a, b, c, d in product(range(3), repeat=4)
        if (a * d - b * c) % 3 == 1
    )
    assert count == level_invariants(GF(3)).index == 24


def test_index_product_formula_agrees_with_divisor_sum():
    for n in range(2, 501):
        num, den = n * n, 1
        m, p = n, 2
        while p * p <= m:
            if m % p == 0:
                num, den = num * (p * p - 1), den * p * p
                while m % p == 0:
                    m //= p
            p += 1
        if m > 1:
            num, den = num * (m * m - 1), den * m * m
        assert num % den == 0
        assert level_invariants(G1(n)).index == num // den


def test_cusp_counts():
    assert level_invariants(G1(23)).cusps == 22
    assert level_invariants(GF(3)).cusps == 4
    assert level_invariants(G1(5)).cusps == 4
    assert level_invariants(G1(2)).cusps == 2
    assert level_invariants(G1(3)).cusps == 2
    assert level_invariants(G1(4)).cusps == 3
    assert level_invariants(GF(2)).cusps == 3
    assert level_invariants(G0(11)).cusps == 2
    assert level_invariants(G0(12)).cusps == 6


def test_genus_calibration_gamma0():
    # classical values fix the Gamma0 conventions
    assert genus(G0(11)) == 1
    assert genus(G0(23)) == 2
    assert genus(G0(2)) == 0
    assert genus(G0(37)) == 2


def test_genus_examples():
    assert genus(G1(11)) == 1
    assert genus(G1(23)) == 12
    assert genus(G1(5)) == 0
    assert genus(GF(3)) == 0
    for n in (2, 3, 4):
        assert genus(G1(n)) == 0


def test_genus_matches_tabulated_column():
    table = (resources.files("mfdecomp") / "data" / "omega.tsv").read_text()
    for line in table.splitlines()[1:]:
        fields = line.split("\t")
        assert genus(G1(int(fields[0]))) == int(fields[1])


def test_elliptic_counts():
    for group, counts in (
        (G1(2), (1, 0)),
        (G1(3), (0, 1)),
        (G1(7), (0, 0)),
        (G0(2), (1, 0)),
        (G0(3), (0, 1)),
        (G0(13), (2, 2)),
        (G0(4), (0, 0)),
        (G0(9), (0, 0)),
    ):
        inv = level_invariants(group)
        assert (inv.elliptic2, inv.elliptic3) == counts, group


def test_level_invariants_consistency():
    inv = level_invariants(G1(23))
    assert inv.index == 528
    assert inv.omega_degree == 22
    assert inv.cusps == 22
    assert inv.genus == 12
    assert inv.genus == 1 + inv.omega_degree - inv.cusps // 2


def test_dimension_examples():
    assert dim_modular_forms(G1(23), 3) == 55
    assert dim_modular_forms(G1(5), 1) == 2
    assert dim_modular_forms(G1(7), -3) == 0
    assert dim_modular_forms(G1(7), 0) == 1
    assert dim_cusp_forms(G1(23), 2) == 12
    assert dim_cusp_forms(G1(23), 3) == 33
    assert dim_cusp_forms(G1(23), 1) == 1


def test_small_level_dimensions_are_monomial_counts():
    # Gamma1(4): generator weights (1, 2) -> dims 1,1,2,2,3,3,...
    assert [dim_modular_forms(G1(4), k) for k in range(6)] == [1, 1, 2, 2, 3, 3]
    # Gamma1(2): weights (2, 4)
    assert [dim_modular_forms(G1(2), k) for k in range(8)] == [1, 0, 1, 0, 2, 0, 2, 0]
    # Gamma(2): weights (2, 2)
    assert [dim_modular_forms(GF(2), k) for k in range(6)] == [1, 0, 2, 0, 3, 0]
    # Gamma1(3): weights (1, 3)
    assert [dim_modular_forms(G1(3), k) for k in range(6)] == [1, 1, 1, 2, 2, 2]


def test_gamma0_dimensions():
    assert dim_modular_forms(G0(11), 3) == 0
    assert [dim_modular_forms(G0(11), k) for k in (2, 4, 6, 8)] == [2, 4, 6, 8]
    assert dim_cusp_forms(G0(11), 2) == 1


@pytest.mark.parametrize(
    "group",
    [G1(2), G1(3), G1(4), G1(5), G1(7), G1(23), G1(42), GF(2), GF(3), GF(5), G0(11)],
)
def test_dimension_properties(group):
    m = [dim_modular_forms(group, k) for k in range(41)]
    s = [dim_cusp_forms(group, k) for k in range(41)]
    assert m[0] == 1 and s[0] == 0
    if m[1] > 0:
        assert all(m[k] >= m[k - 1] for k in range(1, 41))
        assert all(s[k] >= s[k - 1] for k in range(1, 41))
    assert m[2] >= 2 * m[1] - 1
    assert all(s[k] <= m[k] for k in range(41))


@pytest.mark.parametrize("group", [G1(5), G1(23), GF(3), GF(7)])
def test_representable_properties(group):
    m = [dim_modular_forms(group, k) for k in range(41)]
    assert m[1] >= 2
    diffs = {m[k] - m[k - 1] for k in range(3, 41)}
    assert len(diffs) == 1  # affine linearity


def test_weight1_table_defaults():
    w1 = Weight1Data.default()
    for n in range(2, 43):
        expected = 1 if n in (23, 31, 39) else 0
        assert w1.lookup(G1(n)) == expected
        assert dim_cusp_forms(G1(n), 1) == expected


def test_weight1_unavailable_beyond_table():
    with pytest.raises(Weight1Unavailable):
        dim_cusp_forms(G1(43), 1)
    with pytest.raises(Weight1Unavailable):
        dim_modular_forms(G1(43), 1)
    # but the degree criterion still settles large Gamma(n) of genus 0 cases
    assert dim_cusp_forms(GF(3), 1) == 0
    # and weights k >= 2 need no weight-1 data
    assert [dim_cusp_forms(G1(43), k) for k in (2, 3, 50)] == [57, 133, 3752]


def test_weight1_override_file(tmp_path):
    path = tmp_path / "w1.txt"
    path.write_text("# comment\ng1 43 0\ng1 23 7\n")
    w1 = Weight1Data.load(path)
    assert w1.lookup(G1(43)) == 0
    assert w1.lookup(G1(23)) == 7
    assert w1.lookup(G1(31)) == 1  # untouched default
    assert w1.provenance[(GroupKind.GAMMA1, 43)] == str(path)
    assert w1.provenance[(GroupKind.GAMMA1, 31)] == "builtin"
    assert dim_cusp_forms(G1(43), 1, w1) == 0


@pytest.mark.parametrize(
    "line", ["g1 5 0", "g0 11 0", "g1 23 5", "g1 50 3", "g 20 7", "g1 43 0", "g1 44 0", "g1 23 0"]
)
def test_weight1_override_consistent_with_forced_values_loads(tmp_path, line):
    path = tmp_path / "w1.txt"
    path.write_text(line + "\n")
    kind, level, s1 = line.split()
    group = CongruenceGroup(GroupKind(kind), int(level))
    w1 = Weight1Data.load(path)
    assert w1.lookup(group) == weight1_cusp_dim(group, w1) == int(s1)


def test_weight1_override_rejects_garbage(tmp_path):
    for content in ("g1 23\n", "g9 23 0\n", "g1 23 -1\n", "g1 x 0\n"):
        path = tmp_path / "bad.txt"
        path.write_text(content)
        with pytest.raises(ValueError):
            Weight1Data.load(path)


@pytest.mark.parametrize(
    "content, field",
    [("g1 4_3 1", "4_3"), ("g1 +43 1", "+43"), ("g1 4\u0663 1", "4\u0663"),
     ("g1 43 +1", "+1"), ("g1 43 1_0", "1_0"), ("g1 43 \u0661", "\u0661")],
)
def test_weight1_override_fields_are_ascii_digits(tmp_path, content, field):
    # int() would read each field as a number: the level 4_3 as 43
    path = tmp_path / "w1.txt"
    path.write_text("g1 23 1\n" + content + "\n")
    with pytest.raises(ValueError) as excinfo:
        Weight1Data.load(path)
    assert str(excinfo.value) == f"{path}:2: invalid literal for int() with base 10: {field!r}"


def test_weight1_override_rejects_a_repeated_entry(tmp_path):
    path = tmp_path / "w1.txt"
    path.write_text("g1 43 1\ng1 44 0\n# the same group again\ng1 43 2\n")
    with pytest.raises(ValueError) as excinfo:
        Weight1Data.load(path)
    assert str(excinfo.value) == f"{path}:4: repeated entry for g1:43"
    path.write_text("g1 43 1\ng1 43 1\n")  # even with the same value
    with pytest.raises(ValueError, match=":2: repeated entry for g1:43$"):
        Weight1Data.load(path)
    # overriding a builtin entry is no repetition
    path.write_text("g1 23 2\ng1 31 0\n")
    w1 = Weight1Data.load(path)
    assert (w1.lookup(G1(23)), w1.lookup(G1(31)), w1.lookup(G1(39))) == (2, 0, 1)
    assert w1.provenance[(GroupKind.GAMMA1, 23)] == str(path)
    assert w1.provenance[(GroupKind.GAMMA1, 39)] == "builtin"


@given(st.integers(min_value=2, max_value=120))
def test_gamma1_cusp_genus_relation(n):
    inv = level_invariants(G1(n))
    if n >= 5:
        assert inv.genus == 1 + inv.omega_degree - Fraction(inv.cusps, 2)
    assert inv.index > 0 and inv.cusps > 0


# ---------------------------------------------------------------------------
# Coset-action oracle: the invariants read off the right action of S, T and
# ST on the cosets of the group in SL2(Z), taken modulo -I, without any of
# the closed formulas in levels.py (Diamond-Shurman, ch. 3).

S, T, ST = (0, -1, 1, 0), (1, 1, 0, 1), (0, -1, 1, 1)


def _times(row, m, n):
    """The row vector ``row`` = (c, d) times the matrix ``m`` = (a, b, c, d), mod n."""
    (c, d), (a1, b1, c1, d1) = row, m
    return (c * a1 + d * c1) % n, (c * b1 + d * d1) % n


def _prime_powers(n):
    out, p = [], 2
    while n > 1:
        q = 1
        while n % p == 0:
            n, q = n // p, q * p
        if q > 1:
            out.append((p, q))
        p += 1
    return out


def _p1_point(row, p, q):
    """The canonical form (1 : d) or (c : 1), p | c, of a point of P^1(Z/p^e)."""
    c, d = row
    if c % p:
        return 1, d * pow(c, -1, q) % q
    return c * pow(d, -1, q) % q, 1


def _gamma0_action(n):
    """Gamma0(n) cosets: P^1(Z/n), the product of the P^1(Z/p^e) (by CRT)."""
    local = _prime_powers(n)
    points = list(
        product(*([(1, d) for d in range(q)] + [(c, 1) for c in range(0, q, p)] for p, q in local))
    )

    def act(point, m):
        return tuple(_p1_point(_times(row, m, q), p, q) for row, (p, q) in zip(point, local))

    return points, act, len(points)  # -I lies in Gamma0(n): SL2 index = PSL2 index


def _gamma1_action(n):
    """Gamma1(n) cosets: bottom rows (c, d) of order n in (Z/n)^2, modulo +-1."""
    rows = [(c, d) for c in range(n) for d in range(n) if gcd(c, d, n) == 1]
    sign = lambda row: min(row, ((-row[0]) % n, (-row[1]) % n))
    return sorted({sign(row) for row in rows}), lambda row, m: sign(_times(row, m, n)), len(rows)


def _gamma_full_action(n):
    """Gamma(n) cosets: SL2(Z/n), modulo +-1."""
    mats = [
        (a, b, c, d)
        for c in range(n)
        for d in range(n)
        if gcd(c, d, n) == 1
        for a in range(n)
        for b in range(n)
        if (a * d - b * c) % n == 1
    ]
    sign = lambda m: min(m, tuple((-x) % n for x in m))

    def act(m, g):
        top, bottom = _times(m[:2], g, n), _times(m[2:], g, n)
        return sign(top + bottom)

    return sorted({sign(m) for m in mats}), act, len(mats)


def _cycles(perm):
    seen, count = set(), 0
    for start in perm:
        if start not in seen:
            count += 1
            x = start
            while x not in seen:
                seen.add(x)
                x = perm[x]
    return count


@lru_cache(maxsize=None)
def coset_invariants(group):
    """(index, cusps, e2, e3, genus) of ``group`` from its coset action."""
    build = {
        GroupKind.GAMMA0: _gamma0_action,
        GroupKind.GAMMA1: _gamma1_action,
        GroupKind.GAMMA_FULL: _gamma_full_action,
    }[group.kind]
    points, act, sl2_index = build(group.level)
    s, t, st = ({x: act(x, m) for x in points} for m in (S, T, ST))
    for perm in (s, t, st):
        assert sorted(perm.values()) == sorted(points)  # a permutation of the cosets
    cusps = _cycles(t)  # cusps: orbits of <T, -I>
    e2 = sum(s[x] == x for x in points)
    e3 = sum(st[x] == x for x in points)
    # Riemann-Hurwitz for X(group) -> X(1), of degree mu, branched over
    # i (S), rho (ST) and infinity (T): 2g - 2 = -2 mu + sum (mu - #cycles)
    twice_g = len(points) - _cycles(s) - _cycles(st) - cusps + 2
    assert twice_g % 2 == 0
    return sl2_index, cusps, e2, e3, twice_g // 2


ORACLE_GROUPS = (
    [G0(n) for n in range(2, 201)] + [G1(n) for n in range(2, 61)] + [GF(n) for n in range(2, 13)]
)


def test_coset_oracle_examples():
    assert coset_invariants(G0(11)) == (12, 2, 0, 0, 1)
    assert coset_invariants(G0(13)) == (14, 2, 2, 2, 0)
    assert coset_invariants(G1(4)) == (12, 3, 0, 0, 0)  # one irregular cusp
    assert coset_invariants(G1(23)) == (528, 22, 0, 0, 12)
    assert coset_invariants(GF(7)) == (336, 24, 0, 0, 3)  # the Klein quartic


def test_level_invariants_match_coset_oracle():
    for group in ORACLE_GROUPS:
        inv = level_invariants(group)
        got = (inv.index, inv.cusps, inv.elliptic2, inv.elliptic3, inv.genus)
        assert got == coset_invariants(group), group


def _oracle_dimensions(group, k, s1):
    """(dim M_k, dim S_k) for k >= 0 from the coset-oracle invariants and s_1."""
    key = (group.kind, group.level)
    if key in SMALL_LEVEL_WEIGHTS:
        line = WeightedLine(*SMALL_LEVEL_WEIGHTS[key])
        return h0_dim(line, k), h0_dim(line, k - 2 - line.a - line.b)
    mu, cusps, e2, e3, g = coset_invariants(group)
    if k == 0:
        return 1, 0
    if group.kind is GroupKind.GAMMA0:
        if k % 2 == 1:
            return 0, 0
        m = (k - 1) * (g - 1) + (k // 4) * e2 + (k // 3) * e3 + (k // 2) * cusps
    elif k == 1:
        return cusps // 2 + s1, s1  # every cusp of a representable group is regular
    else:
        m = Fraction(mu * k, 24) + 1 - g
        assert m.denominator == 1
    assert m >= 0
    return m, g if k == 2 else m - cusps


@given(st.sampled_from(ORACLE_GROUPS))
def test_dimensions_match_coset_oracle(group):
    try:
        s1 = weight1_cusp_dim(group)
    except Weight1Unavailable:  # Gamma1(43..60), Gamma(12): past the weight-1 table
        s1 = None
    for k in range(49):
        if k == 1 and s1 is None:
            for dim in (dim_modular_forms, dim_cusp_forms):
                with pytest.raises(Weight1Unavailable):
                    dim(group, 1)
            continue
        got = (dim_modular_forms(group, k), dim_cusp_forms(group, k))
        assert got == _oracle_dimensions(group, k, s1), k


def test_dimensions_by_weight_build_one_numerator_pair_per_s1():
    # every weight k != 1 reads the numerators of s_1 = 0, weight 1 those of the
    # table's s_1 (1 for Gamma1(23)); decomp's series cache does not grow
    levels._numerators.cache_clear()
    series = decomp._series.cache_info().currsize
    for k in range(61):
        dim_modular_forms(G1(23), k)
        dim_cusp_forms(G1(23), k)
    info = levels._numerators.cache_info()
    assert (info.misses, info.currsize) == (2, 2)
    assert decomp._series.cache_info().currsize == series


def test_level_invariants_are_memoised_per_group():
    assert level_invariants(G1(23)) is level_invariants(CongruenceGroup.parse("g1:23"))


def test_builtin_weight1_table_is_built_at_most_once(monkeypatch):
    built = []
    default = Weight1Data.default
    monkeypatch.setattr(Weight1Data, "default", lambda: built.append(1) or default())
    for _ in range(3):  # none of these settle s_1 by the vanishing criterion
        assert weight1_cusp_dim(G1(23)) == dim_cusp_forms(G1(31), 1) == 1
        assert dim_modular_forms(G1(39), 1) == level_invariants(G1(39)).cusps // 2 + 1
    assert len(built) <= 1


def test_warm_invariant_cache_never_holds_weight1_data(tmp_path):
    default = Weight1Data.default()
    before = dim_modular_forms(G1(23), 1, default)  # warms level_invariants
    omega_before = omega_decomposition(G1(23), default).as_list()  # and the dimension table
    path = tmp_path / "w1.txt"
    path.write_text("g1 23 5\n")
    override = Weight1Data.load(path)
    after = dim_modular_forms(G1(23), 1, override)
    assert (before, after) == (12, 16)  # 22 cusps / 2 + s_1, s_1 from 1 to 5
    omega_after = omega_decomposition(G1(23), override).as_list()
    # m_1 enters l_1, l_5, l_7 and l_11 with signs +, -, -, +
    assert [b - a for a, b in zip(omega_before, omega_after)] == [0, 4, 0, 0, 0, -4, 0, -4, 0, 0, 0, 4]
    assert omega_decomposition(G1(23), default).as_list() == omega_before
