import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toriccontact as tc
from toriccontact.errors import InvalidConeError, InvalidPartitionError
from toriccontact.intlinalg import primitive_part
from toriccontact.reduction import _partition_matches

from conftest import (
    apply_unimodular,
    rand_characteristic_product,
    rand_unimodular,
    simplex_product_cone,
)


def brute_force_partition(cone):
    """Reference for ``find_simplex_product_partition`` on a good cone: the
    first label bipartition, index 0 in group 1, matching the ray active
    sets (2^labels candidates)."""
    d = len(cone.labels)
    if d != cone.dim + 1:
        return None
    for size1 in range(2, d - 1):
        for group1 in itertools.combinations(range(d), size1):
            if group1[0] != 0:
                continue
            g1 = frozenset(group1)
            g2 = frozenset(range(d)) - g1
            if _partition_matches(cone.ray_active_sets, g1, g2):
                return tc.SimplexProductPartition(group1, tuple(sorted(g2)))
    return None


@st.composite
def good_cones(draw):
    """GL(k, Z) images of Delta_a x Delta_b cones with shuffled labels, and
    random good cones with k+1 labels in dimension k = 3 or 4."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        cone = simplex_product_cone(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
        labels = list(apply_unimodular(cone, rand_unimodular(cone.dim, rng)).labels)
        rng.shuffle(labels)
        return tc.Cone(cone.dim, tuple(labels))
    k = draw(st.integers(3, 4))
    while True:
        # A positive last entry keeps (0, ..., 0, 1) interior.
        labels = {
            primitive_part([rng.randint(-2, 2) for _ in range(k - 1)]
                           + [rng.randint(1, 3)])
            for _ in range(k + 1)
        }
        cone = tc.Cone(k, tuple(sorted(labels)))
        if (len(labels) == k + 1 and tc.is_strictly_convex(cone)
                and tc.is_good(cone).good):
            return cone


@settings(max_examples=80, deadline=None)
@given(good_cones())
def test_partition_matches_brute_force(cone):
    assert tc.find_simplex_product_partition(cone) == brute_force_partition(cone)


def test_square_cone_partition(square_cone):
    part = tc.find_simplex_product_partition(square_cone)
    assert part is not None
    assert part.group1 == (0, 1) and part.group2 == (2, 3)


def test_simplex_cone_has_no_partition():
    simplex_cone = tc.Cone(3, ((1, 0, 0), (0, 1, 0), (-1, -1, 1)))
    assert tc.find_simplex_product_partition(simplex_cone) is None


def test_partition_requires_good_cone(bad_cone):
    with pytest.raises(InvalidConeError):
        tc.find_simplex_product_partition(bad_cone)


def test_square_cone_certificate(square_cone):
    cert = tc.reduce_cone(square_cone)
    assert cert.b == (0, 0, 1)
    assert cert.a1 == (1, 1) and cert.a2 == (1, 1)
    # exact coefficient identity on both sides
    for group, coeffs in ((cert.partition.group1, cert.a1),
                          (cert.partition.group2, cert.a2)):
        combo = tuple(
            sum(c * square_cone.labels[i][r] for c, i in zip(coeffs, group))
            for r in range(3)
        )
        assert combo == cert.b
    assert cert.factor1.is_simplex() and cert.factor2.is_simplex()
    assert tc.decompose_as_join(cert) == ((1, 1), (1, 1))


def test_bad_partition_rejected(square_cone):
    with pytest.raises(InvalidPartitionError):
        tc.find_splitting_reeb(
            square_cone, tc.SimplexProductPartition((0, 2), (1, 3))
        )


def test_weighted_sphere_join_recovery():
    # the (1,2)-join of the round 3-sphere with the (3,1)-weighted 3-sphere
    quad = tc.Cone(2, ((1, 0), (0, 1)))
    p1 = tc.characteristic_polytope(quad, (Fraction(1), Fraction(1))).polytope
    p2 = tc.characteristic_polytope(quad, (Fraction(3), Fraction(1))).polytope
    res = tc.join_polytope(p1, p2, 1, 2).is_characteristic()
    assert res.ok
    cert = tc.reduce_cone(res.cone)
    assert cert is not None
    weights = sorted(tc.decompose_as_join(cert))
    assert weights == [(1, 1), (3, 1)]


def test_certificate_soundness_random():
    rng = random.Random(19)
    for _ in range(25):
        prod, res, *_ = rand_characteristic_product(rng)
        cone = res.cone
        u = rand_unimodular(cone.dim, rng)
        cone2 = apply_unimodular(cone, u)
        cert = tc.reduce_cone(cone2)
        assert cert is not None
        b = [Fraction(c) for c in cert.b]
        # b in the lattice and interior to the dual cone
        assert all(
            sum(r * c for r, c in zip(ray, cert.b)) > 0
            for ray in cone2.extreme_rays
        )
        assert tc.is_quasi_regular(cone2, b)
        slc = tc.characteristic_polytope(cone2, b)
        split = slc.polytope.product_split()
        assert split is not None
        assert cert.factor1.is_simplex() and cert.factor2.is_simplex()
        assert cert.factor1.is_rational() and cert.factor2.is_rational()
        assert cert.factor1.is_characteristic().ok
        assert cert.factor2.is_characteristic().ok
        assert all(a > 0 for a in cert.a1 + cert.a2)
