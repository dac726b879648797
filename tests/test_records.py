"""Every record type of the package is an immutable tuple that copies,
pickles and prints as before, and that checks its fields where it did."""

import copy
import pickle
from fractions import Fraction

import pytest

from mfdecomp import decomp, eisenstein, exactnum, hilbert, levels, ringalg
from mfdecomp.exactnum import CyclotomicElement, zeta
from mfdecomp.hilbert import TwistMultiset, WeightedLine
from mfdecomp.levels import CongruenceGroup, GroupKind, InvalidGroup
from mfdecomp.ringalg import (
    GradedAlgebra,
    InhomogeneousInput,
    Polynomial,
    SubringSpec,
    parse_polynomial,
)

G1_23 = CongruenceGroup(GroupKind.GAMMA1, 23)
F2_ALGEBRA = GradedAlgebra(2, (("x", 1), ("y", 2)))


def _instances() -> list:
    ambient, subring, basis, _ = ringalg.PRESETS["f3-rank3"]
    seq = decomp.omega_decomposition(G1_23)
    return [
        zeta(8),
        WeightedLine(4, 6),
        TwistMultiset([1, 0, 0, 2]),
        hilbert.Check("name", True, "detail"),
        G1_23,
        levels.level_invariants(G1_23),
        levels.Weight1Data.default(),
        eisenstein.odd_two_power_character(17),
        eisenstein.valuation_claim_check(17),
        eisenstein.hasse_lift(17, 10),
        seq,
        decomp.verify_consistency(seq),
        decomp.obstruction_search(13, 100),
        ambient,
        basis[1],
        subring,
        ringalg.verify_free_basis(ambient, subring, basis),
        ringalg.verify_regular_sequence(F2_ALGEBRA, [parse_polynomial(F2_ALGEBRA, "x")]),
    ]


INSTANCES = _instances()


def test_every_record_type_has_an_instance():
    records = {
        obj
        for module in (exactnum, hilbert, levels, eisenstein, decomp, ringalg)
        for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, tuple) and obj.__module__ == module.__name__
    }
    assert records == {type(x) for x in INSTANCES}
    assert len(records) == 18


@pytest.mark.parametrize("record", INSTANCES, ids=lambda x: type(x).__name__)
@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_records_survive_copy_and_pickle(record, clone):
    twin = clone(record)
    assert type(twin) is type(record)
    assert twin == record
    assert repr(twin) == repr(record)


def test_reprs_are_unchanged():
    assert repr(G1_23) == "CongruenceGroup(kind=<GroupKind.GAMMA1: 'g1'>, level=23)"
    assert repr(zeta(8)) == (
        "CyclotomicElement(order=8, coords=(Fraction(0, 1), Fraction(1, 1), "
        "Fraction(0, 1), Fraction(0, 1)))"
    )
    assert repr(CyclotomicElement.from_rational(4, Fraction(1, 2))) == (
        "CyclotomicElement(order=4, coords=(Fraction(1, 2), Fraction(0, 1)))"
    )
    algebra = "GradedAlgebra(char=3, variables=(('b2', 2), ('b4', 4)))"
    assert repr(ringalg.verify_free_basis(*ringalg.PRESETS["f3-rank3"])) == (
        f"BasisCertificate(ambient={algebra}, subring=SubringSpec(generators=(("
        f"'b2', Polynomial(algebra={algebra}, terms=mappingproxy({{(1, 0): 1}}))), "
        f"('delta', Polynomial(algebra={algebra}, terms=mappingproxy("
        "{(2, 2): 1, (0, 3): 1}))))), basis_degrees=(0, 4, 8), bound=48, "
        "verdict='free', failing_degree=None, failure_kind=None)"
    )


CONSTANT = Polynomial(F2_ALGEBRA, {(0, 0): 1})


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: CyclotomicElement(6, (0, 0, 0)), ValueError,
         "order must be a power of two >= 2, got 6"),
        (lambda: CyclotomicElement(8, (0,)), ValueError, "need 4 coordinates for order 8, got 1"),
        (lambda: WeightedLine(0, 3), ValueError, "weights must be positive, got (0, 3)"),
        (lambda: WeightedLine(2, -1), ValueError, "weights must be positive, got (2, -1)"),
        (lambda: TwistMultiset([0, -2]), ValueError, "multiplicities must be >= 0"),
        # a {shift: c} dict would otherwise give its keys as the multiplicities
        (lambda: TwistMultiset({0: 1, 3: 2}), TypeError,
         "multiplicities must be the sequence c_0..c_s, not a mapping"),
        (lambda: CongruenceGroup("g2", 11), InvalidGroup, "unknown group kind 'g2'"),
        (lambda: CongruenceGroup(GroupKind.GAMMA0, 1), InvalidGroup,
         "level must be >= 2, got 1"),
        (lambda: GradedAlgebra(4, (("x", 1),)), ValueError,
         "characteristic must be 0 or a prime, got 4"),
        (lambda: GradedAlgebra(0, (("x", 0),)), ValueError, "variable degrees must be positive"),
        (lambda: GradedAlgebra(0, (("1x", 1),)), ValueError,
         "variable name '1x' is not an identifier"),
        (lambda: GradedAlgebra(0, (("x", 1), ("x", 2))), ValueError,
         "variable 'x' is declared twice"),
        (lambda: Polynomial(F2_ALGEBRA, {(0, 1): Fraction(1, 2)}), ValueError,
         "coefficient 1/2 is undefined in characteristic 2"),
        (lambda: SubringSpec((("c", CONSTANT),)), ValueError,
         "subring generator c must have positive degree"),
        (lambda: SubringSpec((("z", Polynomial(F2_ALGEBRA)),)), InhomogeneousInput,
         "expected a nonzero homogeneous polynomial, degrees []"),
    ],
)
def test_constructors_reject_bad_fields(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message


def test_constructors_normalise_their_fields():
    assert TwistMultiset([1, 0, 0, 0, 0, 0]).multiplicities == (1,)
    assert Polynomial(F2_ALGEBRA, {(1, 0): 3, (0, 1): 2}).terms == {(1, 0): 1}
    assert TwistMultiset() == TwistMultiset([]) == TwistMultiset([0, 0])
    assert CongruenceGroup("g", 6).kind is GroupKind.GAMMA_FULL
    assert Polynomial(F2_ALGEBRA).is_zero()
    # the field is an immutable copy: nothing is shared with the caller's list
    given = [1, 2]
    mult = TwistMultiset(given)
    given[0] = 5
    assert mult.multiplicities == (1, 2)
    with pytest.raises(TypeError):
        mult.multiplicities[0] = 5


@pytest.mark.parametrize(
    "operation",
    [
        lambda: 2 * zeta(8),
        lambda: (1,) + zeta(8),
        lambda: 2 * CONSTANT,
        lambda: (1,) + CONSTANT,
    ],
    ids=["int-times-zeta", "tuple-plus-zeta", "int-times-poly", "tuple-plus-poly"],
)
def test_elements_have_no_tuple_arithmetic(operation):
    with pytest.raises(TypeError):
        operation()


def test_twist_multiset_pairs_come_from_items():
    mult = TwistMultiset([1, 0, 0, 2])
    assert list(mult.items()) == [(0, 1), (3, 2)]
    assert (mult[0], mult[3], mult[7], mult[-1]) == (1, 2, 0, 0)
    assert list(mult) == [(1, 0, 0, 2)]  # iterating a record gives its fields


@pytest.mark.parametrize(
    "replace, error, message",
    [
        (lambda: zeta(8)._replace(order=6), ValueError,
         "order must be a power of two >= 2, got 6"),
        (lambda: WeightedLine(4, 6)._replace(b=0), ValueError,
         "weights must be positive, got (4, 0)"),
        (lambda: TwistMultiset([1])._replace(multiplicities=[0, 0, -1]), ValueError,
         "multiplicities must be >= 0"),
        (lambda: TwistMultiset([1])._replace(multiplicities={0: 1}), TypeError,
         "multiplicities must be the sequence c_0..c_s, not a mapping"),
        (lambda: CongruenceGroup(GroupKind.GAMMA1, 5)._replace(level=1), InvalidGroup,
         "level must be >= 2, got 1"),
        (lambda: G1_23._replace(kind="g2"), InvalidGroup, "unknown group kind 'g2'"),
        (lambda: F2_ALGEBRA._replace(char=4), ValueError,
         "characteristic must be 0 or a prime, got 4"),
        (lambda: CONSTANT._replace(terms={(0, 1): Fraction(1, 2)}), ValueError,
         "coefficient 1/2 is undefined in characteristic 2"),
        (lambda: ringalg.PRESETS["f3-rank3"][1]._replace(generators=(("c", CONSTANT),)),
         ValueError, "subring generator c must have positive degree"),
    ],
    ids=[
        "CyclotomicElement", "WeightedLine", "TwistMultiset", "TwistMultiset-mapping",
        "CongruenceGroup", "CongruenceGroup-kind", "GradedAlgebra", "Polynomial", "SubringSpec",
    ],
)
def test_replace_checks_fields_like_the_constructor(replace, error, message):
    with pytest.raises(error) as info:
        replace()
    assert type(info.value) is error
    assert str(info.value) == message


def test_replace_normalises_like_the_constructor():
    poly = CONSTANT._replace(terms={(1, 0): 3, (0, 1): 2})
    assert poly == Polynomial(F2_ALGEBRA, {(1, 0): 1})
    assert dict(poly.terms) == {(1, 0): 1}
    with pytest.raises(TypeError):
        poly.terms[(0, 0)] = 1  # read-only, as the constructor leaves it
    assert TwistMultiset([1])._replace(multiplicities=[2, 0, 0, 0, 0]).multiplicities == (2,)
    assert G1_23._replace(level=7) == CongruenceGroup(GroupKind.GAMMA1, 7)
    assert G1_23._replace(kind="g0").kind is GroupKind.GAMMA0
