import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toriccontact as tc
from toriccontact.errors import InvalidPolytopeError
from toriccontact.polytope import AffineFunction, LabelledPolytope

from conftest import assert_same_as_validated, rand_characteristic_simplex


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


def test_repeated_facet_rejected():
    # [x, x, 1 - x] and [x, 2x, 1 - x]: two labels on the facet x = 0
    x, y = AffineFunction((1,), 0), AffineFunction((-1,), 1)
    for second in (x, AffineFunction((2,), 0)):
        with pytest.raises(InvalidPolytopeError, match="^facet 1 is redundant$"):
            LabelledPolytope(1, [x, second, y])
    with pytest.raises(InvalidPolytopeError, match="^facet 3 is redundant$"):
        LabelledPolytope(2, [   # the unit square with y >= 0 twice
            AffineFunction((1, 0), 0),
            AffineFunction((0, 1), 0),
            AffineFunction((-1, 0), 1),
            AffineFunction((0, 3), 0),
            AffineFunction((0, -1), 1),
        ])


def test_box_structure():
    box = tc.unit_box(2)
    assert len(box.vertices) == 4
    split = box.product_split()
    assert split == ((0, 1), (2, 3))
    assert not box.is_simplex()


def test_simplex_has_no_product_split():
    assert tc.standard_simplex(2).product_split() is None


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


# -- trusted constructors ------------------------------------------------------


def simplex_of(seed):
    rng = random.Random(seed)
    return rand_characteristic_simplex(rng.randint(1, 2), rng)


seeds = st.integers(0, 10**6)
scales = st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=20)


@given(seeds, seeds)
@settings(max_examples=25, deadline=None)
def test_trusted_product_matches_validated(s1, s2):
    p1, p2 = simplex_of(s1), simplex_of(s2)
    prod = tc.product(p1, p2)
    assert_same_as_validated(prod)
    # independent oracle: the vertices of a product are the pairs of vertices
    assert prod.vertices == tuple(sorted(a + b for a in p1.vertices for b in p2.vertices))


@given(seeds, scales)
@settings(max_examples=25, deadline=None)
def test_trusted_rescale_matches_validated(s, r):
    p = simplex_of(s)
    scaled = p.rescale(r)
    assert_same_as_validated(scaled)
    assert scaled.vertices == tuple(sorted(tuple(r * c for c in v) for v in p.vertices))


@given(seeds, seeds, seeds, st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
       st.integers(1, 4))
@settings(max_examples=15, deadline=None)
def test_trusted_nested_joins_match_validated(s1, s2, s3, l1, l2, l3, l4):
    if math.gcd(l1, l2) != 1 or math.gcd(l3, l4) != 1:
        return
    p1, p2, p3 = simplex_of(s1), simplex_of(s2), simplex_of(s3)
    if math.gcd(l1 * l3, l2) == 1 and math.gcd(l3, l2 * l4) == 1:
        left = tc.join_polytope(tc.join_polytope(p1, p2, l1, l2), p3, l3, l2 * l4)
        right = tc.join_polytope(p1, tc.join_polytope(p2, p3, l3, l4), l1 * l3, l2)
        assert left == right
        assert_same_as_validated(left)
        assert_same_as_validated(right)
    assert_same_as_validated(tc.join_polytope(tc.join_polytope(p1, p2, l1, l2), p3, l3, l4))
    assert_same_as_validated(tc.join_polytope(p1, tc.join_polytope(p2, p3, l3, l4), l1, l2))


def test_join_polytope_does_not_revalidate(monkeypatch):
    p1, p2 = tc.unit_box(2), tc.standard_simplex(2)
    calls = []
    validate = LabelledPolytope._validate

    def counted(self):
        calls.append(self)
        validate(self)

    monkeypatch.setattr(LabelledPolytope, "_validate", counted)
    joined = tc.join_polytope(p1, p2, 2, 3)
    assert len(joined.vertices) == 12
    assert calls == []
