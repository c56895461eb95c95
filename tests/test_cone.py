import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import toriccontact as tc
from toriccontact.cone import proper_faces
from toriccontact.errors import (
    InvalidConeError,
    InvalidPolytopeError,
    NotAReebVectorError,
    SymbolicReebUndecidableError,
    ToricError,
)
from toriccontact.intlinalg import primitive_part
from toriccontact.polytope import AffineFunction, LabelledPolytope

from conftest import (
    apply_unimodular,
    assert_same_as_validated,
    rand_unimodular,
    simplex_product_cone,
)


def brute_force_faces(cone):
    """Reference for ``proper_faces``: intersect the ray active sets,
    recomputed from the labels, over every nonempty ray subset (2^rays
    intersections)."""
    actives = [frozenset(i for i, l in enumerate(cone.labels)
                         if sum(a * b for a, b in zip(l, r)) == 0)
               for r in cone.extreme_rays]
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


def _decision(decide, cone, b):
    """What ``decide(cone, b)`` returns, or the error type and message it raises."""
    try:
        return decide(cone, b)
    except ToricError as exc:
        return type(exc), str(exc)


def test_reeb_checks_keep_their_errors(square_cone):
    half_space = tc.Cone(3, ((1, 0, 0),))
    irrational = tc.ReebVector((0, 0, 1), symbolic=((1, 0, 0),))
    outside, zero, short = (0, 0, -1), (0, 0, 0), (0, 1)
    not_in = (NotAReebVectorError, "vector is not in the Sasaki cone")
    wrong_dim = (NotAReebVectorError, "Reeb vector has wrong dimension")
    expected = {
        tc.sasaki_cone_contains: {
            "half": (InvalidConeError, "Sasaki cone is defined for strictly convex cones"),
            "irrational": (SymbolicReebUndecidableError,
                           "sign of an irrational Reeb vector on the cone is undecidable"),
            "outside": False, "zero": False, "short": wrong_dim,
        },
        tc.is_quasi_regular: {
            "half": (InvalidConeError, "quasi-regularity is defined for strictly convex cones"),
            "irrational": False, "outside": not_in, "zero": False, "short": wrong_dim,
        },
        tc.characteristic_polytope: {
            "half": (InvalidConeError, "slicing requires a strictly convex cone"),
            "irrational": (NotAReebVectorError, "slicing requires a rational Reeb direction"),
            "outside": not_in, "zero": not_in, "short": wrong_dim,
        },
    }
    cases = {"half": (half_space, irrational), "irrational": (square_cone, irrational),
             "outside": (square_cone, outside), "zero": (square_cone, zero),
             "short": (square_cone, short)}
    for decide, outcomes in expected.items():
        for name, (cone, b) in cases.items():
            assert _decision(decide, cone, b) == outcomes[name], (decide.__name__, name)
    for b in ((-1, 5, 0), outside, zero):  # every vector, on a half-space cone
        for decide, outcomes in expected.items():
            assert _decision(decide, half_space, b) == outcomes["half"]


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


# -- slices built from the cone's rays -------------------------------------------


@st.composite
def sliced_cones(draw):
    """GL(k, Z) images of product, cube and hexagon cones with a Reeb vector
    b = sum c_i l_i, c_i > 0, and a nonnegative label combination to insert
    at a random position (a single label repeats it), or None."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("product", "cube", "hexagon")))
    if kind == "product":
        cone = simplex_product_cone(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    elif kind == "cube":
        cone = cube_cone(draw(st.integers(2, 4)))
    else:
        cone = HEXAGON_CONE
    cone = apply_unimodular(cone, rand_unimodular(cone.dim, rng))
    d = len(cone.labels)
    coeffs = [rng.randint(1, 3) for _ in range(d)]
    b = tuple(sum(c * l[j] for c, l in zip(coeffs, cone.labels)) for j in range(cone.dim))
    insert = draw(st.sampled_from((None, "combination", "repeat")))
    weights = None
    if insert == "repeat":
        repeated = rng.randrange(d)
        weights = [int(i == repeated) for i in range(d)]
    elif insert == "combination":
        weights = [rng.randint(0, 2) for _ in range(d)]
        weights[rng.randrange(d)] = 1
    return cone, b, weights, rng.randint(0, d)


def _outcome(build):
    """The error type and message ``build()`` raises, or None."""
    try:
        build()
    except ToricError as exc:
        return type(exc), str(exc)
    return None


@given(sliced_cones())
# A combination parallel to b: its slice label has a zero normal.
@example((tc.Cone(3, ((1, 0, 2), (-1, 1, -2), (2, 0, 5), (-2, 1, -5))),
          (-1, 4, -2), [1, 2, 2, 2], 4))
@settings(max_examples=40, deadline=None)
def test_trusted_slice_matches_validated(case):
    cone, b, weights, position = case
    poly = tc.characteristic_polytope(cone, b).polytope
    assert_same_as_validated(poly)
    if weights is None:
        return
    # Slice labels are linear in the cone label, so the inserted label's
    # slice label is the same combination of the slice labels.
    combo = [sum(w * l[j] for w, l in zip(weights, cone.labels)) for j in range(cone.dim)]
    g = math.gcd(*combo)
    labels = list(cone.labels)
    labels.insert(position, tuple(c // g for c in combo))
    inserted = tc.Cone(cone.dim, tuple(labels))
    normal = tuple(sum(w * f.normal[a] for w, f in zip(weights, poly.facets)) / g
                   for a in range(poly.dim))
    constant = sum(w * f.constant for w, f in zip(weights, poly.facets)) / g

    def validated():
        facets = list(poly.facets)
        facets.insert(position, AffineFunction(normal, constant))
        LabelledPolytope(poly.dim, facets)

    trusted = _outcome(lambda: tc.characteristic_polytope(inserted, b))
    assert trusted is not None
    if any(normal):
        assert trusted == _outcome(validated)
    else:
        # A label parallel to b vanishes on no ray: a redundant facet, which
        # no AffineFunction can stand for.
        assert trusted == (InvalidPolytopeError, f"facet {position} is redundant")


def test_characteristic_polytope_does_not_validate(monkeypatch, square_cone):
    calls = []
    validate = LabelledPolytope._validate

    def counted(self):
        calls.append(self)
        validate(self)

    monkeypatch.setattr(LabelledPolytope, "_validate", counted)
    slc = tc.characteristic_polytope(square_cone, (0, 0, 1))
    assert len(slc.polytope.vertices) == 4
    # (1, 1, 0) vanishes only on the ray (0, 0, 1); a repeated label is
    # rejected at its second occurrence.
    for labels, index in ((square_cone.labels + ((1, 1, 0),), 4),
                          (square_cone.labels[:1] + square_cone.labels, 1)):
        with pytest.raises(InvalidPolytopeError, match=f"^facet {index} is redundant$"):
            tc.characteristic_polytope(tc.Cone(3, labels), (0, 0, 1))
    assert calls == []
