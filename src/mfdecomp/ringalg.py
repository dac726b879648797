"""Graded polynomial algebras over Q and F_p, with exact linear algebra.

Weighted polynomial rings, homogeneous elements, free-basis certificates and
regular-sequence checks, all in any number of variables and generators, and
the Weierstrass identity c4^3 - c6^2 = 1728*Delta.  Each level's ring and its
c4, c6 and Delta are written once, as strings over Q in
``WEIERSTRASS_PRESENTATIONS``; the F_2 and F_3 inputs are those strings read
mod p, where ``GradedAlgebra.coeff`` reduces p-integral coefficients and
rejects the rest; ``weierstrass_forms`` and ``regular_sequence_case`` parse
them.  ``parse_polynomial`` and ``read_presentation`` read a polynomial and a
presentation file.  A sequence is regular when each prefix's quotient has the
previous quotient's Hilbert function times (1 - t^deg f); a free basis over
k[g] is a basis of A/(g) for a regular sequence g.  With two variables and two
generators both checks stop sooner (``_horizon``).

Polynomials are read-only maps from exponent vectors to coefficients: ints
where integral and ``Fraction`` otherwise in characteristic 0, ints in
[0, p) in characteristic p.  Every rank comes from one incremental echelon,
whose rows hold the field's integers: ints in [0, p) over F_p, ints over Q.
A certificate's rank row is an element times a monomial, written straight
from the element's terms (over Q scaled to integers by ``_integral``) into
the numbering of its degree's monomials; ``matrix_rank`` is the one
converter of outside rows.  Each new row is cut to its first nonzero entry
and reduced by that column's pivot row, from that column on, mod p over F_p
and fraction-free over Q.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from itertools import count, dropwhile
from math import gcd, lcm
from operator import add, not_
from types import MappingProxyType
from typing import NamedTuple

from .arith import is_prime, parse_integer, read_lines
from .hilbert import times_denominator

__all__ = [
    "BasisCertificate",
    "GradedAlgebra",
    "InhomogeneousInput",
    "Polynomial",
    "PRESETS",
    "RegularSequenceVerdict",
    "SubringSpec",
    "matrix_rank",
    "parse_polynomial",
    "read_presentation",
    "regular_sequence_case",
    "verify_free_basis",
    "verify_regular_sequence",
    "weierstrass_forms",
    "weierstrass_identity_check",
]


class InhomogeneousInput(ValueError):
    pass


class GradedAlgebra(namedtuple("GradedAlgebra", "char variables")):
    """Free graded polynomial algebra: coefficient field Q (char 0) or F_p."""

    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks the fields too

    def __new__(cls, char: int, variables: tuple[tuple[str, int], ...]) -> "GradedAlgebra":
        if char != 0 and not is_prime(char):
            raise ValueError(f"characteristic must be 0 or a prime, got {char}")
        names, degrees = tuple(zip(*variables)) or ((), ())
        if any(deg <= 0 for deg in degrees):
            raise ValueError("variable degrees must be positive")
        for i, name in enumerate(names):
            if not name.isidentifier():
                raise ValueError(f"variable name {name!r} is not an identifier")
            if name in names[:i]:
                raise ValueError(f"variable {name!r} is declared twice")
        self = super().__new__(cls, char, variables)
        self.names, self.degrees = names, degrees  # the columns of variables, read per term
        return self

    def coeff(self, value) -> "Fraction | int":
        """The value in the coefficient field: an int in [0, p) in characteristic p;
        in characteristic 0 an int where integral and a ``Fraction`` otherwise."""
        p = self.char
        if type(value) is int:
            return value % p if p else value
        f = Fraction(value)
        if p == 0:
            return f.numerator if f.denominator == 1 else f
        if f.denominator % p == 0:
            raise ValueError(f"coefficient {f} is undefined in characteristic {p}")
        return f.numerator * pow(f.denominator, -1, p) % p


@lru_cache(maxsize=None)
def _graded_monomials(degrees: tuple[int, ...], d: int) -> tuple[tuple[int, ...], ...]:
    """Exponent vectors of weighted degree d, descending lexicographic order."""
    if not degrees:
        return ((),) if d == 0 else ()
    head, rest = degrees[0], degrees[1:]
    return tuple(
        (e, *tail)
        for e in range(d // head, -1, -1)
        for tail in _graded_monomials(rest, d - e * head)
    )


class Polynomial(namedtuple("Polynomial", "algebra terms")):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks the fields too
    __radd__ = __rmul__ = None  # no tuple arithmetic: 2 * f and (1,) + f raise TypeError

    def __new__(cls, algebra: GradedAlgebra, terms: Mapping = MappingProxyType({})):
        coeff = algebra.coeff
        cleaned = {mono: c for mono, c in ((m, coeff(c)) for m, c in terms.items()) if c != 0}
        # read-only, so that no caller can rewrite an element's coefficients
        return super().__new__(cls, algebra, MappingProxyType(cleaned))

    def __getnewargs__(self) -> tuple:
        """What copy and pickle rebuild from: a mappingproxy does not pickle."""
        return self.algebra, dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def degree_of(self, mono: tuple[int, ...]) -> int:
        return sum(e * d for e, d in zip(mono, self.algebra.degrees))

    def homogeneous_degree(self) -> int:
        """Common degree of all terms; raises for 0 or mixed degrees."""
        degs = {self.degree_of(m) for m in self.terms}
        if len(degs) != 1:
            raise InhomogeneousInput(
                f"expected a nonzero homogeneous polynomial, degrees {sorted(degs)}"
            )
        return degs.pop()

    def _check_same(self, other: "Polynomial") -> None:
        if self.algebra != other.algebra:
            raise ValueError("mixed algebras")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_same(other)
        acc = dict(self.terms)
        for m, c in other.terms.items():
            acc[m] = acc.get(m, 0) + c
        return Polynomial(self.algebra, acc)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scale(-1)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_same(other)
        acc: dict[tuple[int, ...], Fraction | int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                acc[m] = acc.get(m, 0) + c1 * c2
        return Polynomial(self.algebra, acc)

    def scale(self, factor) -> "Polynomial":
        return Polynomial(
            self.algebra, {m: c * self.algebra.coeff(factor) for m, c in self.terms.items()}
        )

    def power(self, n: int) -> "Polynomial":
        result = Polynomial(self.algebra, {(0,) * len(self.algebra.variables): 1})
        for _ in range(n):
            result = result * self
        return result


def parse_polynomial(algebra: GradedAlgebra, text: str) -> Polynomial:
    """Parse ``1/4*b2^2*b4^2 - 8*b4^3`` style input (no parentheses).

    Terms are separated by top-level + or -, each term is a '*'-joined
    product of constants ``a`` or ``a/b`` and ``var`` / ``var^exp`` factors,
    every number read by ``parse_integer``.  Whitespace is ignored anywhere.
    """
    s = "".join(text.split())
    if not s:
        raise ValueError("empty polynomial")
    # terms, each "-"-prefixed when negative; a leading sign leaves a first ""
    terms = s.replace("-", "+-").split("+")[1 if s[0] in "+-" else 0 :]
    if any(term in ("", "-") for term in terms):
        raise ValueError(f"malformed polynomial {text!r}")
    acc: dict[tuple[int, ...], Fraction | int] = {}
    for term in terms:
        coeff: Fraction | int = -1 if term[0] == "-" else 1
        mono = [0] * len(algebra.variables)
        for factor in term.lstrip("-").split("*"):
            name, caret, exp = factor.partition("^")
            if caret and not exp:
                raise ValueError(f"empty exponent in {factor!r}")
            if name in algebra.names:
                mono[algebra.names.index(name)] += parse_integer(exp) if exp else 1
                continue
            if exp:
                raise ValueError(f"unknown variable {name!r}")
            numerator, slash, denominator = name.partition("/")
            try:
                den = parse_integer(denominator) if slash else 1
                coeff *= Fraction(parse_integer(numerator), den)
            except ValueError:  # neither a variable nor a constant a or a/b
                raise ValueError(f"unknown variable {name!r}") from None
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {factor!r}") from None
        key = tuple(mono)  # each term is reduced as it is read: 1/2 fails in characteristic 2
        acc[key] = acc.get(key, 0) + algebra.coeff(coeff)
    return Polynomial(algebra, acc)


def read_presentation(text: str | bytes, source: str):
    """The presentation file ``source``, its text or bytes, as a ``PRESETS``
    entry: lines ``var name degree``, ``gen name = polynomial``, ``basis
    polynomial`` and at most one each of ``char p`` and ``bound d``, read by
    ``read_lines``, so an error in one line is prefixed ``source:lineno:``."""
    single: dict[str, int] = {}  # the "char" and "bound" lines, each at most once
    variables: list[tuple[str, int]] = []
    gens: list[tuple[int, str, str]] = []  # (line number, name, polynomial text)
    basis: list[tuple[int, str]] = []

    def read(lineno: int, line: str) -> None:
        head, *fields = line.split(maxsplit=1)  # the directive ends at any whitespace
        rest = "".join(fields)
        if head in single:
            raise ValueError(f"repeated {head!r} line")
        if head == "char":  # a composite one fails at its line
            single[head] = GradedAlgebra(parse_integer(rest), ()).char
        elif head == "bound":
            single[head] = _nonnegative_bound(parse_integer(rest))
        elif head == "var":
            if len(rest.split()) != 2:
                raise ValueError("expected 'var name degree'")
            name, deg = rest.split()
            variables.append((name, parse_integer(deg)))
            GradedAlgebra(0, tuple(variables))  # a bad degree or name fails at its line
        elif head == "gen":
            name, eq, expr = rest.partition("=")
            if not eq:
                raise ValueError("expected 'gen name = polynomial'")
            gens.append((lineno, name.strip(), expr.strip()))
        elif head == "basis":
            basis.append((lineno, rest))
        else:
            raise ValueError(f"unknown directive {head!r}")

    read_lines(text, source, read)
    for directive, lines in (("var", variables), ("gen", gens), ("basis", basis)):
        if not lines:
            raise ValueError(f"no {directive!r} line in {source}")
    algebra = GradedAlgebra(single.get("char", 0), tuple(variables))

    def parse(lineno: int, expr: str, gen: str | None = None) -> Polynomial:
        try:  # a zero or inhomogeneous polynomial fails here too
            f = parse_polynomial(algebra, expr)
            if gen is None:
                f.homogeneous_degree()
            else:  # a generator of degree 0 too, by SubringSpec's own check
                SubringSpec(((gen, f),))
        except ValueError as exc:
            raise ValueError(f"{source}:{lineno}: {exc}") from None
        return f

    spec = SubringSpec(tuple((name, parse(n, expr, name)) for n, name, expr in gens))
    return algebra, spec, [parse(*line) for line in basis], single.get("bound", FREE_BASIS_BOUND)


# ---------------------------------------------------------------------------
# Exact rank computation


def _row(f: Mapping, mono: tuple[int, ...], column: dict) -> list[int]:
    """The coordinates of f * x^mono (f: the terms of a homogeneous element)
    in the numbering ``column`` of their degree's monomials.  Distinct terms
    stay distinct, so each coefficient is written, not summed."""
    row = [0] * len(column)
    for m, c in f.items():
        row[column[tuple(map(add, m, mono))]] = c
    return row


class _Echelon:
    """Rows in echelon form over F_p (char p) or Q (char 0), one pivot row
    per leading column, each stored from its leading column on.

    Rows arrive as the field's integers: ints in [0, p) over F_p, ints over
    Q.  ``_row`` builds them so, and ``matrix_rank`` converts any other row.
    A new row is cut to its first nonzero entry and reduced by the pivot
    of that column, tail against tail, until it leads in a free column or
    vanishes.  Over F_p a row is reduced mod p and a stored row is scaled
    to leading entry 1.  Over Q rows stay integral: a row is reduced as
    c*row - x*pivot, and a stored row is divided by its content.
    """

    def __init__(self, char: int) -> None:
        self.char = char
        self.pivots: dict[int, list[int]] = {}  # leading column -> row from there on

    def __len__(self) -> int:
        return len(self.pivots)

    def add(self, row: list[int]) -> bool:
        """Reduce ``row``, the field's integers, against the pivots from left
        to right, store a nonzero remainder as a new pivot, and return
        whether the rank grew."""
        p, width = self.char, len(row)
        while row := list(dropwhile(not_, row)):  # the entries from the first nonzero on
            col, x = width - len(row), row[0]
            pivot = self.pivots.get(col)
            if pivot is None:
                if p:
                    inv = pow(x, -1, p)
                    row = [y * inv % p for y in row]
                else:
                    content = gcd(*row)
                    row = [y // content for y in row]
                self.pivots[col] = row
                return True
            if p:
                row = [(y - x * z) % p for y, z in zip(row, pivot)]
            else:
                c = pivot[0]
                row = [c * y - x * z for y, z in zip(row, pivot)]
        return False


def matrix_rank(algebra: GradedAlgebra, rows: list[list["Fraction | int"]]) -> int:
    """The rank of ``rows`` over ``algebra``'s field.  Each row is brought into
    the field by ``algebra.coeff`` and scaled by the lcm of its denominators,
    as ``_integral`` scales an element; a nonzero multiple changes no rank."""
    echelon = _Echelon(algebra.char)
    for row in rows:
        row = [algebra.coeff(x) for x in row]
        scale = lcm(*(x.denominator for x in row))
        echelon.add([int(x * scale) for x in row])
    return len(echelon)


# ---------------------------------------------------------------------------
# Free-basis certificates


class SubringSpec(namedtuple("SubringSpec", "generators")):
    """Generators of a subring of the ambient algebra: any number, each homogeneous."""

    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks the fields too

    def __new__(cls, generators: tuple[tuple[str, Polynomial], ...]) -> "SubringSpec":
        degrees = tuple(g.homogeneous_degree() for _, g in generators)
        for (name, _), deg in zip(generators, degrees):
            if deg <= 0:
                raise ValueError(f"subring generator {name} must have positive degree")
        self = super().__new__(cls, generators)
        self.degrees = degrees
        return self


#: Default degree bound of a free-basis certificate; two-variable checks stop
#: sooner (``_horizon``), and the certificate still states this bound.
FREE_BASIS_BOUND = 48


def _nonnegative_bound(bound: int) -> int:
    if bound < 0:
        raise ValueError(f"degree bound must be >= 0, got {bound}")
    return bound


class BasisCertificate(NamedTuple):
    ambient: GradedAlgebra
    subring: SubringSpec
    basis_degrees: tuple[int, ...]
    bound: int
    verdict: str  # "free" or "not free"
    failing_degree: int | None = None
    failure_kind: str | None = None  # "independence" or "spanning"

    @property
    def free(self) -> bool:
        return self.verdict == "free"


def _integral(p: Polynomial) -> Mapping:
    """The terms of ``p`` scaled by the lcm of its denominators, which changes
    no rank; ``p``'s own terms when they are integral, as over F_p."""
    scale = lcm(*(c.denominator for c in p.terms.values()))
    return p.terms if scale == 1 else p.scale(scale).terms


def _horizon(algebra: GradedAlgebra, degrees: tuple[int, ...], bound: int, top: int = 0) -> int:
    """The last degree that can decide a check through ``bound`` on elements
    of ``degrees`` with basis degrees up to ``top``.  With two variables, of
    degrees v_i, and two elements g_i, of degrees e_i, it is
    min(bound, max(e_1 + e_2 - 1, top)).  In that UFD a pair is regular
    exactly when coprime.  A common factor h makes g_1/h a kernel element of
    g_2 on A/(g_1), seen in degree e_1 + e_2 - deg h.  A coprime pair leaves
    A/(g) zero past e_1 + e_2 - v_1 - v_2, the degree of its Hilbert series
    (1 - t^e_1)(1 - t^e_2) / ((1 - t^v_1)(1 - t^v_2)), and no element of B
    lies past ``top``: every later degree passes."""
    if len(algebra.variables) == len(degrees) == 2:
        return min(bound, max(sum(degrees) - 1, top))
    return bound


def verify_free_basis(
    ambient: GradedAlgebra,
    subring: SubringSpec,
    basis: list[Polynomial],
    bound: int | None = None,
) -> BasisCertificate:
    """Certify that ``basis`` is a free module basis of ``ambient`` over the
    subring S generated by ``subring``, degree by degree up to ``bound``.

    With e the coefficients of H_A(t) * prod(1 - t^deg g_i), degree d needs
    e_d elements of B (fewer fail as "spanning", more as "independence")
    whose rows fill A_d with the rows g_i * monomial of the ideal (else
    "independence").  Given the lower degrees, (g)A_d is the image of the
    products S_+-monomial * b, so this is where those products first fail
    to be a basis of A_d, and the same way.  The check stops at ``_horizon``.
    """
    bound = _nonnegative_bound(FREE_BASIS_BOUND if bound is None else bound)
    basis_degrees = tuple(b.homogeneous_degree() for b in basis)
    gen_degrees = subring.degrees
    stop = _horizon(ambient, gen_degrees, bound, max(basis_degrees, default=0))
    components = [_graded_monomials(ambient.degrees, d) for d in range(stop + 1)]
    quotient = times_denominator(list(map(len, components)), gen_degrees, stop + 1)
    gens = [_integral(g) for _, g in subring.generators]
    basis = [_integral(b) for b in basis]
    one = (0,) * len(ambient.degrees)
    for d, (component, e_d) in enumerate(zip(components, quotient)):
        column = dict(zip(component, count()))
        echelon = _Echelon(ambient.char)
        for g, deg in zip(gens, gen_degrees):
            for mono in components[d - deg] if deg <= d else ():
                echelon.add(_row(g, mono, column))
        here = [b for b, bd in zip(basis, basis_degrees) if bd == d]
        for b in here:
            echelon.add(_row(b, one, column))
        if len(here) != e_d or len(echelon) < len(component):
            kind = "spanning" if len(here) < e_d else "independence"
            return BasisCertificate(ambient, subring, basis_degrees, bound, "not free", d, kind)
    return BasisCertificate(ambient, subring, basis_degrees, bound, "free")


# ---------------------------------------------------------------------------
# Regular sequences


class RegularSequenceVerdict(NamedTuple):
    regular: bool
    bound: int
    failing_index: int | None = None
    failing_degree: int | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.regular


def verify_regular_sequence(
    algebra: GradedAlgebra,
    elements: list[Polynomial],
    bound: int | None = None,
) -> RegularSequenceVerdict:
    """Check that ``elements`` is a regular sequence through degree ``bound``
    (default twice the sum of their degrees).

    With h_k the Hilbert function of A/(f_1, .., f_k) and e = deg f_k,
    multiplication by f_k on A/(f_1, .., f_{k-1}) is injective in degree d
    exactly when h_k(d + e) = h_{k-1}(d + e) - h_{k-1}(d), the coefficient of
    (1 - t^e) * H_{k-1}(t).  So a regular sequence has the quotient series
    H_A(t) * prod(1 - t^deg(f_i)) (Stanley), and the first degree where
    h_k differs from that coefficient locates the kernel.  Each degree keeps
    one echelon of the ideal across prefixes, so prefix k adds only the rows
    f_k * monomial, and h_k(d) is the monomial count less its rank, through
    ``_horizon``.
    """
    degrees = tuple(f.homogeneous_degree() for f in elements)
    bound = _nonnegative_bound(2 * sum(degrees) if bound is None else bound)

    stop = _horizon(algebra, degrees, bound)
    components = [_graded_monomials(algebra.degrees, d) for d in range(stop + 1)]
    columns = [dict(zip(component, count())) for component in components]
    h = [len(component) for component in components]
    ideal = [_Echelon(algebra.char) for _ in components]
    for k, (f, e) in enumerate(zip(map(_integral, elements), degrees)):
        expected = times_denominator(h, [e], stop + 1)
        for d in range(e, stop + 1):  # below e nothing changes
            for mono in components[d - e]:
                ideal[d].add(_row(f, mono, columns[d]))
            h[d] = len(components[d]) - len(ideal[d])
            if h[d] != expected[d]:
                return RegularSequenceVerdict(
                    False, bound, k, d - e,
                    f"multiplication by element {k} has a nontrivial kernel in "
                    f"degree {d - e} of the quotient",
                )
    return RegularSequenceVerdict(True, bound)


# ---------------------------------------------------------------------------
# Weierstrass identity and presets


def weierstrass_identity_check(
    c4: Polynomial, c6: Polynomial, delta: Polynomial
) -> bool:
    """c4^3 - c6^2 = 1728 * Delta, as an exact polynomial identity."""
    return (c4.power(3) - c6.power(2) - delta.scale(1728)).is_zero()


#: Each level's Weierstrass presentation over Q: (ring, c4, c6, Delta).
WEIERSTRASS_PRESENTATIONS = {
    "level2": (
        GradedAlgebra(0, (("b2", 2), ("b4", 4))),
        "b2^2 - 24*b4", "-1*b2^3 + 36*b2*b4", "1/4*b2^2*b4^2 - 8*b4^3",
    ),
    "level3": (
        GradedAlgebra(0, (("a1", 1), ("a3", 3))),
        "a1^4 - 24*a1*a3", "-1*a1^6 + 36*a1^3*a3 - 216*a3^2", "a1^3*a3^3 - 27*a3^4",
    ),
}


def _level_texts(level, names):
    """``level``'s variables, and ``names`` with "c4" and "delta" read as its strings."""
    algebra, c4, _, delta = WEIERSTRASS_PRESENTATIONS[level]
    return algebra.variables, tuple({"c4": c4, "delta": delta}.get(n, n) for n in names)


def _level_preset(char, level, basis_texts, gens=("c4", "delta")):
    variables, texts = _level_texts(level, gens)
    algebra = GradedAlgebra(char, variables)
    spec = SubringSpec(tuple((n, parse_polynomial(algebra, t)) for n, t in zip(gens, texts)))
    return algebra, spec, [parse_polynomial(algebra, t) for t in basis_texts], FREE_BASIS_BOUND


#: The four module-structure presets: (ring, subring, basis, degree bound), the
#: arguments of ``verify_free_basis``.
PRESETS = {
    # F_2[a1, a3] free of rank 4 over F_2[a1, Delta]
    "f2-rank4": _level_preset(2, "level3", ("1", "a3", "a3^2", "a3^3"), ("a1", "delta")),
    # F_3[b2, b4] free of rank 3 over F_3[b2, Delta]
    "f3-rank3": _level_preset(3, "level2", ("1", "b4", "b4^2"), ("b2", "delta")),
    # Q[b2, b4] free of rank 6 over Q[c4, Delta]
    "q-rank6": _level_preset(0, "level2", ("1", "b2", "b4", "b2*b4", "b4^2", "b2*b4^2")),
    # Q[a1, a3] free of rank 16 over Q[c4, Delta]
    "q-rank16": _level_preset(
        0, "level3", tuple(f"a1^{i}*a3^{j}" for i in range(4) for j in range(4))
    ),
}

#: Regular-sequence checks, (char, variables, elements, regular): (c4, Delta)
#: over F_2 and F_3, and a deliberately non-regular control, as b2^3 is a
#: multiple of c4 = b2^2 over F_3.
REGULAR_SEQUENCE_CASES = {
    "f2-c4-delta": (2, *_level_texts("level3", ("c4", "delta")), True),
    "f3-c4-delta": (3, *_level_texts("level2", ("c4", "delta")), True),
    "f3-negative-control": (3, *_level_texts("level2", ("c4", "b2^3")), False),
}


def weierstrass_forms(level: str) -> tuple[Polynomial, Polynomial, Polynomial]:
    """``level``'s c4, c6 and Delta over Q, parsed from ``WEIERSTRASS_PRESENTATIONS``."""
    algebra, *texts = WEIERSTRASS_PRESENTATIONS[level]
    return tuple(parse_polynomial(algebra, text) for text in texts)


def regular_sequence_case(name: str) -> tuple[GradedAlgebra, list[Polynomial], bool]:
    """``REGULAR_SEQUENCE_CASES[name]`` parsed: its ring, its elements, and whether they are regular."""
    char, variables, texts, regular = REGULAR_SEQUENCE_CASES[name]
    algebra = GradedAlgebra(char, variables)
    return algebra, [parse_polynomial(algebra, text) for text in texts], regular
