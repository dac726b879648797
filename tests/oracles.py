"""Reference computations that the tests compare the package with."""

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd

from mfdecomp.arith import factorize
from mfdecomp.eisenstein import DirichletCharacter
from mfdecomp.exactnum import CyclotomicElement
from mfdecomp.hilbert import Check, NegativeMultiplicity, ResidualMismatch, TwistMultiset, WeightedLine
from mfdecomp.levels import SMALL_LEVEL_WEIGHTS, GroupKind, LevelInvariants


def convolve(mults, block, k):
    """sum_i mults[i] * block[k - i], one term at a time, with block read as 0 past its end."""
    return sum(c * block[k - i] for i, c in enumerate(mults) if 0 <= k - i < len(block))


def multiplicities_by_index(values):
    """``TwistMultiset``'s field from the integers ``values``, one entry at a time: the
    entries through the last nonzero one, or ValueError at the first negative one."""
    values = list(values)
    last = -1
    for i, c in enumerate(values):
        if c < 0:
            raise ValueError("multiplicities must be >= 0")
        if c:
            last = i
    return tuple(values[: last + 1])


def closed_form_failure_by_index(coefficients, bound):
    """'' if every c_i >= 0 and c_i = 0 past ``bound``, else the closed form's wording for
    the first shift that fails, one index at a time: a negative c_i reads '< 0' past the bound too."""
    for i, c in enumerate(coefficients):
        if c < 0:
            return f"at shift {i} is {c} < 0"
        if i > bound and c != 0:
            return f"at shift {i} is {c} != 0 past shift {bound}"
    return ""


def deconvolve_by_terms(target, block, max_shift, verify_through):
    """``deconvolve`` as the greedy division and check, one term read at a time."""
    for name, window in ("max_shift", max_shift), ("verify_through", verify_through):
        if window < 0:
            raise ValueError(f"{name} must be >= 0, got {window}")
    at = lambda seq, k: seq[k] if 0 <= k < len(seq) else 0
    if at(block, 0) != 1:
        raise ValueError("block Hilbert function must be normalized: block(0) = 1")
    coeffs = []
    for i in range(max_shift + 1):
        c = at(target, i) - sum(at(block, i - j) * coeffs[j] for j in range(i))
        if c < 0:
            raise NegativeMultiplicity(i, c)
        coeffs.append(c)
    result = TwistMultiset(coeffs)
    for k in range(verify_through + 1):
        got = convolve(coeffs, block, k)
        if got != at(target, k):
            raise ResidualMismatch(k, at(target, k), got)
    return result


def h0_by_enumeration(line, m):
    """h0(O(m)) on P(a, b), one step per lam: the pairs (lam, mu) >= 0 with lam*a + mu*b = m."""
    if m < 0:
        return 0
    a, b = line
    return sum(1 for lam in range(m // a + 1) if (m - lam * a) % b == 0)


def h1_by_enumeration(line, m):
    """h1(O(m)) on P(a, b), one step per lam: the pairs (lam, mu) < 0 with lam*a + mu*b = m."""
    if m >= 0:
        return 0
    a, b = line
    # lam*a > m: mu*b = m - lam*a < 0, so mu <= -1 if b divides it
    return sum(1 for lam in range(m // a + 1, 0) if (m - lam * a) % b == 0)


def serre_duality_by_enumeration(line, lo, hi, h1=h1_by_enumeration):
    """The Check of h0(m) = h1(-m - a - b) on [lo, hi], one pair of enumerations per m
    (``h1``, by default the enumeration, takes the line and the twist)."""
    shift = line.a + line.b
    for m in range(lo, hi + 1):
        if h0_by_enumeration(line, m) != h1(line, -m - shift):
            return Check("serre-duality", False, f"fails at m={m}")
    return Check("serre-duality", True, f"holds on [{lo}, {hi}]")


def character_value(chi, n):
    """chi(n) as a cyclotomic element: zeta_order^e for e = chi.exponents[n mod p], 0 where p | n."""
    e = chi.exponents[n % chi.modulus]
    if e is None:
        return CyclotomicElement.from_rational(chi.order, 0)
    return CyclotomicElement.zeta_power(chi.order, e)


def chi_exponents_by_pow(p, powers, N):
    """chi's exponent at each d < min(N + 1, p), None at d = 0, one pow per d:
    chi(d) = zeta^e for h^e = d^l, with {h^e mod p: e} = ``powers`` and l = (p - 1)/2^m."""
    l = (p - 1) // len(powers)
    return [powers[pow(d, l, p)] if d else None for d in range(min(N + 1, p))]


def character_power(chi, k):
    """chi^k, the exponents multiplied by k mod the order."""
    exponents = tuple(None if e is None else e * k % chi.order for e in chi.exponents)
    return DirichletCharacter(chi.modulus, chi.order, exponents)


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


def level_invariants_by_kind(group):
    """``levels.level_invariants`` as one walk per group over its own factorisation of the
    level, for its kind alone: mu, cusps, e2, e3 and the genus, nothing shared between kinds."""
    kind, n = group
    primes = factorize(n)
    e2 = e3 = 0
    if kind is GroupKind.GAMMA0:
        # mu = n prod (1 + 1/p); cusps = sum over d | n of phi(gcd(d, n/d)), whose
        # p-part is 2 p^((e-1)/2) for odd e and p^(e/2 - 1) (p + 1) for even e;
        # e2 = prod over odd p | n of 1 + (-1/p), e3 = prod over p | n of 1 + (-3/p)
        mu, cusps, e2, e3 = n, 1, int(n % 4 != 0), int(n % 9 != 0)
        for p, e in primes:
            mu = mu // p * (p + 1)
            cusps *= 2 * p ** (e // 2) if e % 2 else p ** (e // 2 - 1) * (p + 1)
            if p != 2:
                e2 *= 2 if p % 4 == 1 else 0
            e3 *= 1 if p == 3 else 2 if p % 3 == 1 else 0
        genus24 = 24 + 2 * mu - 6 * e2 - 8 * e3 - 12 * cusps
    else:
        # mu = [SL2(Z) : Gamma1(n)] = n^2 prod (1 - 1/p^2); pairs = sum over d | n
        # of phi(d) phi(n/d), twice the Gamma1(n) cusp count for n >= 5, whose
        # p-part is 2 phi(p^e) + (e - 1) p^(e-2) (p - 1)^2
        mu, pairs = n * n, 1
        for p, e in primes:
            mu = mu // (p * p) * (p * p - 1)
            phi = p ** (e - 1) * (p - 1)
            pairs *= 2 * phi + (e - 1) * phi * (p - 1) // p
        if kind is GroupKind.GAMMA_FULL:
            mu *= n  # = |SL2(Z/n)| = n^3 prod (1 - 1/p^2)
            cusps = 3 if n == 2 else mu // (2 * n)
        elif n > 4:
            cusps = pairs // 2
        else:  # Gamma1(2), Gamma1(3), Gamma1(4)
            cusps, e2, e3 = 3 if n == 4 else 2, int(n == 2), int(n == 3)
        genus24 = 24 + mu - 12 * cusps
    if (kind, n) in SMALL_LEVEL_WEIGHTS:
        genus24 = 0  # weighted projective lines
    g, rem = divmod(genus24, 24)
    assert rem == 0 and g >= 0, group
    return LevelInvariants(mu, Fraction(mu, 24), cusps, e2, e3, g)


def dimensions_by_weight(group, invariants, s1, n):
    """m_0..m_{n-1} and s_0..s_{n-1}, weight by weight, from ``invariants`` =
    (index, cusps, e2, e3, genus) and s_1: Riemann-Roch with every cusp regular,
    the classical Gamma0 formula, or monomial counts on the small levels."""
    key = (group.kind, group.level)
    if key in SMALL_LEVEL_WEIGHTS:
        line = WeightedLine(*SMALL_LEVEL_WEIGHTS[key])
        h0 = [h0_by_enumeration(line, k) for k in range(n)]
        return h0, [h0_by_enumeration(line, k - 2 - line.a - line.b) for k in range(n)]
    mu, cusps, e2, e3, g = invariants
    gamma0 = group.kind is GroupKind.GAMMA0
    m, s = [1], [0]
    for k in range(1, n):
        if gamma0:  # -I acts as -1: odd weights vanish
            m_k = 0 if k % 2 else (k - 1) * (g - 1) + k // 4 * e2 + k // 3 * e3 + k // 2 * cusps
        elif k == 1:
            m_k = cusps // 2 + s1  # every cusp of a representable group is regular
        else:  # deg(omega^k) = index * k / 24
            degree, rem = divmod(mu * k, 24)
            assert rem == 0
            m_k = degree + 1 - g
        assert m_k >= 0
        m.append(m_k)
        s.append(s1 if k == 1 else g if k == 2 else 0 if gamma0 and k % 2 else m_k - cusps)
    return m, s
