from fractions import Fraction
from importlib import resources
from itertools import product

import pytest
from hypothesis import given, strategies as st

from mfdecomp.hilbert import WeightedLine, h0_dim
from mfdecomp.levels import (
    SMALL_LEVEL_WEIGHTS,
    CongruenceGroup,
    GroupKind,
    InvalidGroup,
    Weight1Data,
    Weight1Unavailable,
    cusp_count,
    dim_cusp_forms,
    dim_modular_forms,
    elliptic_counts,
    gamma1_index,
    genus,
    index,
    level_invariants,
    omega_degree,
)

G1 = lambda n: CongruenceGroup(GroupKind.GAMMA1, n)
G0 = lambda n: CongruenceGroup(GroupKind.GAMMA0, n)
GF = lambda n: CongruenceGroup(GroupKind.GAMMA_FULL, n)


def test_group_parsing():
    assert CongruenceGroup.parse("g1:23") == G1(23)
    assert CongruenceGroup.parse("g0:11") == G0(11)
    assert CongruenceGroup.parse("g:3") == GF(3)
    for bad in ("g2:5", "g1:x", "g1", "g1:1"):
        with pytest.raises(InvalidGroup):
            CongruenceGroup.parse(bad)


def test_index_examples():
    assert index(G1(5)) == 24
    assert index(G1(9)) == 72
    assert index(GF(3)) == 24
    assert index(G0(11)) == 12
    assert index(G1(23)) == 528


def test_gamma_full_index_by_matrix_enumeration():
    # |SL_2(Z/3)| by brute force over all 3^4 matrices
    count = sum(
        1
        for a, b, c, d in product(range(3), repeat=4)
        if (a * d - b * c) % 3 == 1
    )
    assert count == index(GF(3)) == 24


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
        assert gamma1_index(n) == num // den


def test_cusp_counts():
    assert cusp_count(G1(23)) == 22
    assert cusp_count(GF(3)) == 4
    assert cusp_count(G1(5)) == 4
    assert cusp_count(G1(2)) == 2
    assert cusp_count(G1(3)) == 2
    assert cusp_count(G1(4)) == 3
    assert cusp_count(GF(2)) == 3
    assert cusp_count(G0(11)) == 2
    assert cusp_count(G0(12)) == 6


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
    assert elliptic_counts(G1(2)) == (1, 0)
    assert elliptic_counts(G1(3)) == (0, 1)
    assert elliptic_counts(G1(7)) == (0, 0)
    assert elliptic_counts(G0(2)) == (1, 0)
    assert elliptic_counts(G0(3)) == (0, 1)
    assert elliptic_counts(G0(13)) == (2, 2)
    assert elliptic_counts(G0(4)) == (0, 0)
    assert elliptic_counts(G0(9)) == (0, 0)


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


def test_weight1_override_rejects_garbage(tmp_path):
    for content in ("g1 23\n", "g9 23 0\n", "g1 23 -1\n", "g1 x 0\n"):
        path = tmp_path / "bad.txt"
        path.write_text(content)
        with pytest.raises(ValueError):
            Weight1Data.load(path)


@given(st.integers(min_value=2, max_value=120))
def test_gamma1_cusp_genus_relation(n):
    g = G1(n)
    if n >= 5:
        inv = level_invariants(g)
        assert inv.genus == 1 + inv.omega_degree - Fraction(inv.cusps, 2)
    assert index(g) > 0 and cusp_count(g) > 0


def _uncached_dimensions(group, k):
    """(dim M_k, dim S_k) for k >= 2 by the Fraction formulas, built from the
    invariant functions rather than the memoised ``level_invariants``."""
    key = (group.kind, group.level)
    if key in SMALL_LEVEL_WEIGHTS:
        line = WeightedLine(*SMALL_LEVEL_WEIGHTS[key])
        return h0_dim(line, k), h0_dim(line, k - 2 - line.a - line.b)
    g = genus(group)
    if group.kind is GroupKind.GAMMA0:
        if k % 2 == 1:
            return 0, 0
        e2, e3 = elliptic_counts(group)
        m = (k - 1) * (g - 1) + (k // 4) * e2 + (k // 3) * e3 + (k // 2) * cusp_count(group)
    else:
        m = omega_degree(group) * k + 1 - g
        assert m.denominator == 1
    m = int(m)
    assert m >= 0
    return m, g if k == 2 else m - cusp_count(group)


@given(st.sampled_from(list(GroupKind)), st.integers(min_value=2, max_value=200))
def test_dimensions_match_uncached_formulas(kind, n):
    group = CongruenceGroup(kind, n)
    for k in range(2, 49):
        got = (dim_modular_forms(group, k), dim_cusp_forms(group, k))
        assert got == _uncached_dimensions(group, k), k


def test_level_invariants_are_memoised_per_group():
    assert level_invariants(G1(23)) is level_invariants(CongruenceGroup.parse("g1:23"))


def test_warm_invariant_cache_never_holds_weight1_data(tmp_path):
    before = dim_modular_forms(G1(23), 1, Weight1Data.default())  # warms level_invariants
    path = tmp_path / "w1.txt"
    path.write_text("g1 23 5\n")
    after = dim_modular_forms(G1(23), 1, Weight1Data.load(path))
    assert (before, after) == (12, 16)  # 22 cusps / 2 + s_1, s_1 from 1 to 5
