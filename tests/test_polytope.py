import random
from fractions import Fraction

import pytest

import toriccontact as tc
from toriccontact.errors import InvalidPolytopeError
from toriccontact.polytope import AffineFunction, LabelledPolytope

from conftest import rand_characteristic_simplex, rand_unimodular


def test_segment_vertices():
    seg = tc.segment()
    assert seg.vertices == ((Fraction(0),), (Fraction(1),))
    assert seg.is_simplex()
    assert seg.is_rational()


def test_unbounded_rejected():
    with pytest.raises(InvalidPolytopeError):
        LabelledPolytope(2, [
            AffineFunction((1, 0), 0),
            AffineFunction((0, 1), 0),
            AffineFunction((1, 1), 1),
        ])
    with pytest.raises(InvalidPolytopeError, match="unbounded"):
        LabelledPolytope(2, [   # half-strip 0 <= x <= 3, y >= 0
            AffineFunction((Fraction(1, 2), 0), 0),
            AffineFunction((Fraction(-1, 3), 0), 1),
            AffineFunction((0, Fraction(3, 4)), 0),
        ])


def test_empty_rejected():
    with pytest.raises(InvalidPolytopeError):
        LabelledPolytope(1, [
            AffineFunction((1,), -2),   # x >= 2
            AffineFunction((-1,), 1),   # x <= 1
        ])


def test_redundant_facet_rejected():
    with pytest.raises(InvalidPolytopeError):
        LabelledPolytope(1, [
            AffineFunction((1,), 0),
            AffineFunction((-1,), 1),
            AffineFunction((1,), 5),    # never tight on [0, 1]
        ])


def test_box_structure():
    box = tc.unit_box(2)
    assert len(box.vertices) == 4
    split = box.product_split()
    assert split == ((0, 1), (2, 3))
    assert not box.is_simplex()


def test_simplex_has_no_product_split():
    assert tc.standard_simplex(2).product_split() is None


def test_combinatorial_type_invariance():
    box = tc.unit_box(2)
    # same square with facets listed in another order and sheared coordinates
    other = LabelledPolytope(2, [
        AffineFunction((0, 1), 0),
        AffineFunction((1, 1), 0),
        AffineFunction((0, -1), 1),
        AffineFunction((-1, -1), 1),
    ])
    assert box.combinatorial_type() == other.combinatorial_type()
    assert box.combinatorial_type() != tc.standard_simplex(2).combinatorial_type()


def test_rescale_scales_constants_only():
    seg = tc.segment()
    scaled = seg.rescale(3)
    assert [f.normal for f in scaled.facets] == [f.normal for f in seg.facets]
    assert scaled.vertices == ((Fraction(0),), (Fraction(3),))


def test_product_coordinates_order():
    prod = tc.product(tc.segment(), tc.standard_simplex(2))
    assert prod.dim == 3
    assert len(prod.facets) == 5
    assert prod.facets[0].normal == (Fraction(1), Fraction(0), Fraction(0))


def test_characteristic_square_and_witness():
    res = tc.unit_box(2).is_characteristic()
    assert res.ok
    assert res.cone.dim == 3
    # the canonical Reeb vector slices the cone back to the square
    slc = tc.characteristic_polytope(res.cone, res.reeb)
    assert len(slc.polytope.vertices) == 4


def test_characteristic_scaled_simplex_labels():
    # a simplex's labels always form a basis of the lattice they span
    doubled = LabelledPolytope(1, [
        AffineFunction((2,), 0),
        AffineFunction((-2,), 2),
    ])
    assert doubled.is_characteristic().ok


def test_characteristic_fails_on_bad_labels():
    # one doubled label is non-primitive in the lattice the four labels span
    bad = LabelledPolytope(2, [
        AffineFunction((1, 0), 0),
        AffineFunction((-1, 0), 1),
        AffineFunction((0, 1), 0),
        AffineFunction((0, -2), 2),
    ])
    assert not bad.is_characteristic().ok


def test_random_simplices_are_characteristic():
    rng = random.Random(3)
    for _ in range(20):
        p = rand_characteristic_simplex(rng.randint(1, 2), rng)
        assert p.is_simplex()
        assert p.is_rational()
        assert p.is_characteristic().ok


def test_json_round_trip():
    p = tc.segment((1, 2))
    assert LabelledPolytope.from_json(p.to_json()) == p
