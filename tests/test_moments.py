import itertools
import math
import random
from fractions import Fraction

import pytest

import toriccontact as tc
from toriccontact import moments
from toriccontact.errors import InvalidArgumentError, InvalidPolytopeError


def simplex_monomial_integrals(verts, alphas, measure):
    """Oracle: the integrals of the monomials x^alpha over a simplex of
    intrinsic dimension m, each expanded on its own in barycentric coordinates.

    With the vertices scaled to integers by the lcm q of their denominators,
    (q x)^alpha is expanded as a polynomial in lambda, q x = sum_j lambda_j q w_j,
    from the expansion of (q x)^alpha / (q x_i) for the last i with
    alpha_i > 0, and integrated by
    int_simplex lambda^beta = measure * m! * beta! / (m + |beta|)!.
    """
    m = len(verts) - 1
    q = math.lcm(*(Fraction(c).denominator for w in verts for c in w))
    scaled = [[int(c * q) for c in w] for w in verts]
    expansions = {tuple([0] * len(verts[0])): {tuple([0] * (m + 1)): 1}}

    def expand(alpha):
        if alpha not in expansions:
            i = max(k for k, a in enumerate(alpha) if a)
            terms = {}
            for beta, coeff in expand(alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]).items():
                for j in range(m + 1):
                    if scaled[j][i]:
                        key = beta[:j] + (beta[j] + 1,) + beta[j + 1:]
                        terms[key] = terms.get(key, 0) + coeff * scaled[j][i]
            expansions[alpha] = terms
        return expansions[alpha]

    out = []
    for alpha in alphas:
        d = sum(alpha)
        total = sum(coeff * math.prod(map(math.factorial, beta))
                    for beta, coeff in expand(tuple(alpha)).items())
        out.append(measure * Fraction(math.factorial(m) * total, math.factorial(m + d) * q ** d))
    return out


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


def _rand_rational(rng):
    return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4, 5, 7)))


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_integrate_matches_per_monomial_oracle(dim):
    # Every monomial of degree <= 6 over a seeded rational simplex: a
    # full-dimensional one with its volume (interior moments) and a
    # codimension-one one with a rational measure (boundary moments).
    rng = random.Random(100 + dim)
    alphas = [a for a in itertools.product(range(7), repeat=dim) if sum(a) <= 6]
    for m in (dim, dim - 1):
        measure = 0
        while not measure:
            s = tuple(tuple(_rand_rational(rng) for _ in range(dim)) for _ in range(m + 1))
            measure = (moments.simplex_volume(s) if m == dim
                       else Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        got = moments._integrate(dim, [(s, measure)], [{a: 1} for a in alphas])
        assert got == simplex_monomial_integrals(s, alphas, measure)


def test_moments_of_polytopes_match_per_monomial_oracle():
    rng = random.Random(5)
    box = tc.product(tc.segment((2, 3)), tc.standard_simplex(2)).rescale(Fraction(3, 5))
    polys = [{(rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)): _rand_rational(rng)
              for _ in range(4)} for _ in range(5)]
    alphas = sorted({a for p in polys for a in p})

    def oracle(pieces):
        moment = {}
        for s, w in pieces:
            for a, v in zip(alphas, simplex_monomial_integrals(s, alphas, w)):
                moment[a] = moment.get(a, 0) + v
        return [sum(c * moment[a] for a, c in p.items()) for p in polys]

    interior = [(s, moments.simplex_volume(s)) for s in moments.triangulate(box)]
    boundary = [piece for i in range(len(box.facets))
                for piece in moments._facet_simplices(box, i)]
    assert moments.polynomial_moments(box, polys) == oracle(interior)
    assert moments.boundary_polynomial_moments(box, polys) == oracle(boundary)


def test_exponents_are_validated():
    with pytest.raises(InvalidArgumentError):
        moments.monomial_moment(tc.segment(), (-1,))
    with pytest.raises(InvalidArgumentError):
        moments.monomial_moment(tc.unit_box(2), (-1, 2))
    with pytest.raises(InvalidArgumentError):
        moments.boundary_moment(tc.unit_box(2), (1, 0.5))
    with pytest.raises(InvalidPolytopeError, match="wrong dimension"):
        moments.monomial_moment(tc.unit_box(2), (1,))
    with pytest.raises(InvalidPolytopeError, match="wrong dimension"):
        moments.boundary_moment(tc.unit_box(2), (1,))
