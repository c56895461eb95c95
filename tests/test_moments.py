import itertools
import math
import random
from fractions import Fraction

import toriccontact as tc
from toriccontact import moments


def test_segment_moments():
    seg = tc.segment()
    assert moments.volume(seg) == 1
    assert moments.monomial_moment(seg, (1,)) == Fraction(1, 2)
    assert moments.monomial_moment(seg, (2,)) == Fraction(1, 3)
    assert moments.monomial_moment(seg, (7,)) == Fraction(1, 8)


def test_square_moments():
    box = tc.unit_box(2)
    assert moments.volume(box) == 1
    assert moments.monomial_moment(box, (1, 0)) == Fraction(1, 2)
    assert moments.monomial_moment(box, (1, 1)) == Fraction(1, 4)
    assert moments.monomial_moment(box, (2, 2)) == Fraction(1, 9)


def test_simplex_moments():
    tri = tc.standard_simplex(2)
    assert moments.volume(tri) == Fraction(1, 2)
    assert moments.monomial_moment(tri, (1, 0)) == Fraction(1, 6)
    assert moments.monomial_moment(tri, (1, 1)) == Fraction(1, 24)


def test_boundary_measure_segment():
    # endpoint masses are 1/|label slope|
    seg = tc.segment((1, 2))
    assert moments.boundary_moment(seg, (0,)) == 1 + Fraction(1, 2)
    assert moments.boundary_moment(seg, (1,)) == Fraction(1, 2)  # only x=1 end


def test_boundary_measure_square():
    box = tc.unit_box(2)
    assert moments.boundary_moment(box, (0, 0)) == 4  # unit normals: perimeter
    assert moments.boundary_moment(box, (1, 0)) == 2
    # a non-primitive-scaled facet divides its sigma measure
    scaled = tc.LabelledPolytope(2, [
        tc.AffineFunction((2, 0), 0),
        tc.AffineFunction((-1, 0), 1),
        tc.AffineFunction((0, 1), 0),
        tc.AffineFunction((0, -1), 1),
    ])
    assert moments.boundary_moment(scaled, (0, 0)) == Fraction(7, 2)


def test_product_moments_factor():
    rng = random.Random(2)
    seg1 = tc.segment((1, 2))
    seg2 = tc.segment((3, 1))
    prod = tc.product(seg1, seg2)
    for _ in range(10):
        a1, a2 = rng.randint(0, 3), rng.randint(0, 3)
        assert moments.monomial_moment(prod, (a1, a2)) == moments.monomial_moment(
            seg1, (a1,)
        ) * moments.monomial_moment(seg2, (a2,))


def test_rescale_moment_homogeneity():
    tri = tc.standard_simplex(2)
    scaled = tri.rescale(3)
    for alpha in ((0, 0), (1, 0), (1, 1), (2, 1)):
        deg = sum(alpha)
        assert moments.monomial_moment(scaled, alpha) == (
            Fraction(3) ** (deg + 2) * moments.monomial_moment(tri, alpha)
        )


def test_polynomial_moment():
    seg = tc.segment()
    # integral of 3x^2 - x + 1 on [0,1] = 1 - 1/2 + 1 = 3/2
    coeffs = {(2,): Fraction(3), (1,): Fraction(-1), (0,): Fraction(1)}
    assert moments.polynomial_moment(seg, coeffs) == Fraction(3, 2)


def test_triangulation_covers_volume():
    rng = random.Random(8)
    from conftest import rand_characteristic_simplex

    for _ in range(10):
        p = rand_characteristic_simplex(2, rng)
        parts = moments.triangulate(p)
        assert sum(moments.simplex_volume(s) for s in parts) == moments.volume(p)


def test_batched_interior_moments_match_closed_forms():
    # int_{r Delta_n} x^alpha = r^(n+|alpha|) alpha! / (n+|alpha|)! and
    # int_{[0,1]^n} x^alpha = prod 1/(alpha_i+1), all from one call each
    for n, r in ((1, 1), (2, 3), (3, 2)):
        alphas = list(itertools.product(range(3), repeat=n))
        polys = [{a: Fraction(1)} for a in alphas] + [{alphas[1]: 2, alphas[-1]: -3}]
        simplex = [
            Fraction(r) ** (n + sum(a)) * math.prod(map(math.factorial, a))
            / math.factorial(n + sum(a))
            for a in alphas
        ]
        box = [math.prod(Fraction(1, ai + 1) for ai in a) for a in alphas]
        for poly, exact in ((tc.standard_simplex(n).rescale(r), simplex),
                            (tc.unit_box(n), box)):
            got = moments.polynomial_moments(poly, polys)
            assert got == exact + [2 * exact[1] - 3 * exact[-1]]


def test_batched_boundary_moments():
    box = tc.unit_box(2)
    polys = [{(0, 0): 1}, {(1, 0): 1}, {(0, 0): 2, (1, 0): -1}]
    assert moments.boundary_polynomial_moments(box, polys) == [4, 2, 6]
    seg = tc.segment((1, 2))
    assert moments.boundary_polynomial_moments(seg, [{(0,): 1}, {(1,): 1}]) == [
        Fraction(3, 2), Fraction(1, 2)]


def test_extremal_affine_function_triangulates_once(monkeypatch):
    calls = []
    real = moments.triangulate
    monkeypatch.setattr(moments, "triangulate",
                        lambda poly: calls.append(poly) or real(poly))
    tc.extremal_affine_function(tc.unit_box(2))
    assert len(calls) == 1
