import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import toriccontact as tc
from toriccontact.cone import proper_faces
from toriccontact.errors import (
    InvalidConeError,
    NotAReebVectorError,
    SymbolicReebUndecidableError,
)
from toriccontact.intlinalg import primitive_part

from conftest import apply_unimodular, rand_unimodular, simplex_product_cone


def brute_force_faces(cone):
    """Reference for ``proper_faces``: intersect the ray active sets over
    every nonempty ray subset (2^rays intersections)."""
    actives = cone.ray_active_sets
    seen = set()
    for size in range(1, len(actives) + 1):
        for combo in itertools.combinations(actives, size):
            seen.add(frozenset.intersection(*combo))
    seen.discard(frozenset())
    return sorted((tuple(sorted(s)) for s in seen), key=lambda t: (len(t), t))


def cube_cone(n):
    """Cone over the unit n-cube."""
    k = n + 1
    labels = []
    for j in range(n):
        labels.append(tuple(int(c == j) for c in range(k)))
        labels.append(tuple(-1 if c == j else int(c == n) for c in range(k)))
    return tc.Cone(k, tuple(labels))


# Cone over the Delzant hexagon -1 <= x, y, x + y <= 1.
HEXAGON_CONE = tc.Cone(
    3, ((1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1), (1, 1, 1), (-1, -1, 1))
)


@st.composite
def face_test_cones(draw):
    """GL(k, Z) images of product, cube and hexagon cones, and random
    strictly convex label sets, all with at most 16 rays."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("product", "cube", "hexagon", "random")))
    if kind == "product":
        a = draw(st.integers(1, 3))
        cone = simplex_product_cone(a, draw(st.integers(1, 3)))
    elif kind == "cube":
        cone = cube_cone(draw(st.integers(2, 4)))
    elif kind == "hexagon":
        cone = HEXAGON_CONE
    else:
        # A positive last entry keeps (0, ..., 0, 1) interior; rank k is
        # left to the strict-convexity filter.
        k = draw(st.integers(3, 4))
        labels = {
            primitive_part([rng.randint(-2, 2) for _ in range(k - 1)]
                           + [rng.randint(1, 3)])
            for _ in range(draw(st.integers(k, k + 4)))
        }
        cone = tc.Cone(k, tuple(sorted(labels)))
        assume(tc.is_strictly_convex(cone))
    return apply_unimodular(cone, rand_unimodular(cone.dim, rng))


def test_cone_validation():
    with pytest.raises(InvalidConeError):
        tc.Cone(2, ((2, 4),))  # not primitive
    with pytest.raises(InvalidConeError):
        tc.Cone(2, ((1, 0, 0),))  # wrong dimension


def test_strict_convexity(square_cone):
    assert tc.is_strictly_convex(square_cone)
    # half-space: contains a line
    assert not tc.is_strictly_convex(tc.Cone(2, ((1, 0),)))
    # rank full but rays only span a line
    assert not tc.is_strictly_convex(tc.Cone(2, ((1, 0), (-1, 0), (0, 1))))


def test_goodness_golden(square_cone, bad_cone):
    assert tc.is_good(square_cone).good
    res = tc.is_good(bad_cone)
    assert not res.good
    assert res.violating_face == (0, 1)
    assert res.invariant_factors == (1, 2)


def test_goodness_requires_convexity():
    half_plane = tc.Cone(2, ((1, 0),))
    for _ in range(2):  # the failure is not cached
        with pytest.raises(InvalidConeError):
            tc.is_good(half_plane)


def test_goodness_decided_once_per_cone(bad_cone):
    first = tc.is_good(bad_cone)
    assert tc.is_good(bad_cone) == first
    fresh = tc.is_good(tc.Cone(bad_cone.dim, bad_cone.labels))
    assert fresh == first
    assert (fresh.violating_face, fresh.invariant_factors) == ((0, 1), (1, 2))


@given(face_test_cones())
@settings(max_examples=60, deadline=None)
def test_proper_faces_match_brute_force(cone):
    assert proper_faces(cone) == brute_force_faces(cone)


@pytest.mark.parametrize(
    "cone, faces",
    [(cube_cone(5), 3**5 - 1), (simplex_product_cone(4, 4), (2**5 - 1) ** 2 - 1)],
    ids=["cube5", "delta4xdelta4"],
)
def test_face_counts_past_brute_force(cone, faces):
    # 32 and 25 rays: the 2^rays subset loop does not finish on these.
    assert len(proper_faces(cone)) == faces
    assert tc.is_good(cone).good


def test_goodness_unimodular_invariance(square_cone, bad_cone):
    rng = random.Random(11)
    for cone, expect in ((square_cone, True), (bad_cone, False)):
        for _ in range(10):
            u = rand_unimodular(cone.dim, rng)
            assert tc.is_good(apply_unimodular(cone, u)).good is expect


def test_sasaki_cone_membership(square_cone):
    assert tc.sasaki_cone_contains(square_cone, (0, 0, 1))
    assert tc.sasaki_cone_contains(square_cone, (Fraction(1, 3), Fraction(1, 2), 1))
    assert not tc.sasaki_cone_contains(square_cone, (1, 0, 0))
    assert not tc.sasaki_cone_contains(square_cone, (0, 0, -1))


def test_symbolic_membership(square_cone):
    # rank-1 symbolic vector: a positive multiple of a rational direction
    b = tc.ReebVector((0, 0, 2), symbolic=((Fraction(0), Fraction(0), Fraction(3)),))
    assert tc.sasaki_cone_contains(square_cone, b)
    assert tc.is_quasi_regular(square_cone, b)
    # genuinely irrational: sign test refuses, quasi-regularity decides
    b2 = tc.ReebVector((0, 0, 1), symbolic=((Fraction(1), Fraction(0), Fraction(0)),))
    with pytest.raises(SymbolicReebUndecidableError):
        tc.sasaki_cone_contains(square_cone, b2)
    assert not tc.is_quasi_regular(square_cone, b2)


def test_quasi_regular_rejects_outsiders(square_cone):
    with pytest.raises(NotAReebVectorError):
        tc.is_quasi_regular(square_cone, (0, 0, -1))


def test_half_space_cone_has_no_sasaki_cone():
    # No extreme rays, so a membership test over them would accept every b.
    half_space = tc.Cone(3, ((1, 0, 0),))
    irrational = tc.ReebVector((0, 0, 1), symbolic=((1, 0, 0),))
    for b in ((-1, 5, 0), irrational):
        with pytest.raises(InvalidConeError):
            tc.is_quasi_regular(half_space, b)
        with pytest.raises(InvalidConeError):
            tc.characteristic_polytope(half_space, b)


def test_characteristic_polytope_square(square_cone):
    slc = tc.characteristic_polytope(square_cone, (0, 0, 1))
    assert sorted(tuple(map(Fraction, v)) for v in slc.polytope.vertices) == [
        (Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(0)),
        (Fraction(1), Fraction(1)),
    ]
    assert slc.quotient_lattice.rank == 2
    assert not slc.normalized_direction


def test_characteristic_polytope_homothety(square_cone):
    # slicing at b/r equals rescaling the slice at b by r
    p1 = tc.characteristic_polytope(square_cone, (0, 0, 1)).polytope
    p2 = tc.characteristic_polytope(
        square_cone, (0, 0, Fraction(1, 3))
    ).polytope
    assert p2 == p1.rescale(3)


def test_characteristic_polytope_symbolic_normalizes(square_cone):
    b = tc.ReebVector((0, 0, 2), symbolic=((Fraction(0), Fraction(0), Fraction(3)),))
    slc = tc.characteristic_polytope(square_cone, b)
    assert slc.normalized_direction
    b2 = tc.ReebVector((0, 0, 1), symbolic=((Fraction(1), Fraction(0), Fraction(0)),))
    with pytest.raises(NotAReebVectorError):
        tc.characteristic_polytope(square_cone, b2)


def test_characteristic_polytope_outside_cone_rejected(square_cone):
    with pytest.raises(NotAReebVectorError):
        tc.characteristic_polytope(square_cone, (1, 0, 0))


def test_extreme_rays_square(square_cone):
    assert square_cone.extreme_rays == (
        (0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)
    )


def test_goodness_decision_is_exact_and_cheap(square_cone, bad_cone):
    import time

    tc.is_good(square_cone)  # warm caches
    t0 = time.perf_counter()
    fresh_bad = tc.Cone(bad_cone.dim, bad_cone.labels)
    assert not tc.is_good(fresh_bad).good
    t1 = time.perf_counter()
    fresh_sq = tc.Cone(square_cone.dim, square_cone.labels)
    assert tc.is_good(fresh_sq).good
    t2 = time.perf_counter()
    assert t1 - t0 < 0.01 and t2 - t1 < 0.01
