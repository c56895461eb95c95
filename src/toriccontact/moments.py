"""Exact rational moments of labelled polytopes.

Interior moments use a boundary-fan triangulation from a base vertex, and
facet moments the same fan within each facet.  Both run on vertex indices
over the polytope's one cone enumeration, `LabelledPolytope._cone`: the
facets through each vertex are its recorded incidences, and a face is kept
when its integer rays have rank one more than its dimension, so no label is
evaluated and no rational point is hashed.  Facet moments use the boundary
measure dsigma = (Euclidean surface measure)/||n_i|| determined by the
wedge relation n_i ^ dsigma = -dmu, which stays rational because only
||n_i||^2 enters the simplex formula.  On each simplex, interior or facet,
one integer recursion for the complete homogeneous polynomials in the
vertices gives every requested monomial at once (Baldoni, Berline,
De Loera, Koeppe, Vergne, "How to integrate a polynomial over a simplex",
Math. Comp. 2011).

Every call triangulates once: the polytope once for interior moments, each
facet once for boundary moments, and every requested polynomial is then
integrated over the same simplices.  The single-monomial and
single-polynomial functions are views over ``polynomial_moments`` and
``boundary_polynomial_moments``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from . import intlinalg
from .errors import InvalidArgumentError, InvalidPolytopeError
from .polytope import LabelledPolytope

Point = tuple[Fraction, ...]
Monomial = tuple[int, ...]
Polynomial = Mapping[Monomial, Fraction]


def triangulate(poly: LabelledPolytope) -> list[tuple[Point, ...]]:
    """Full-dimensional simplices (n+1 vertices each) covering the polytope."""
    verts = poly.vertices
    return [tuple(verts[j] for j in s)
            for s in _triangulate_face(poly._cone, range(len(verts)), poly.dim)]


def _triangulate_face(cone, face: Sequence[int], rank: int) -> list[tuple[int, ...]]:
    """Fan, as tuples of vertex indices, from the least index in ``face``
    over the face's facets that miss it.  ``cone`` is the polytope's `_cone`:
    vertex j has the ray ``rays[j]`` and lies on the facets ``incidence[j]``,
    and vertices span an affine space of dimension r iff their rays have
    rank r + 1."""
    rays, incidence = cone
    if rank == 0:
        return [(face[0],)]
    v0 = face[0]
    simplices = []
    seen = set()
    for i in sorted(frozenset().union(*(incidence[j] for j in face)) - incidence[v0]):
        sub = tuple(j for j in face if i in incidence[j])
        if sub in seen or intlinalg.rational_rank([rays[j] for j in sub]) != rank:
            continue
        seen.add(sub)
        for s in _triangulate_face(cone, sub, rank - 1):
            simplices.append((v0,) + s)
    return simplices


def simplex_volume(verts: Sequence[Point]) -> Fraction:
    """Lebesgue volume of a full-dimensional simplex in its ambient space."""
    n = len(verts) - 1
    base = verts[0]
    rows = [[verts[j + 1][i] - base[i] for i in range(n)] for j in range(n)]
    return abs(intlinalg.determinant(rows)) / math.factorial(n)


def polynomial_moments(poly: LabelledPolytope,
                       polys: Iterable[Polynomial]) -> list[Fraction]:
    """Exact interior moments of several polynomials from one triangulation."""
    pieces = [(s, simplex_volume(s)) for s in triangulate(poly)]
    return _integrate(poly.dim, pieces, list(polys))


def boundary_polynomial_moments(poly: LabelledPolytope,
                                polys: Iterable[Polynomial]) -> list[Fraction]:
    """Exact moments over the whole boundary against dsigma, triangulating
    each facet once for all the polynomials."""
    pieces = [piece for i in range(len(poly.facets))
              for piece in _facet_simplices(poly, i)]
    return _integrate(poly.dim, pieces, list(polys))


def _facet_simplices(poly: LabelledPolytope,
                     facet_index: int) -> list[tuple[tuple[Point, ...], Fraction]]:
    """Simplices of one facet, each with its label-scaled sigma-measure."""
    f = poly.facets[facet_index]
    verts, incidence = poly.vertices, poly._cone[1]
    face = [j for j in range(len(verts)) if facet_index in incidence[j]]
    if not face:
        raise InvalidPolytopeError("facet carries no vertices")
    n = poly.dim
    norm2 = sum(c * c for c in f.normal)
    pieces = []
    for s in _triangulate_face(poly._cone, face, n - 1):
        simplex = tuple(verts[j] for j in s)
        base = simplex[0]
        rows = [
            [simplex[j + 1][i] - base[i] for i in range(n)]
            for j in range(n - 1)
        ]
        rows.append(list(f.normal))
        # sigma-measure of the facet simplex; n_i is orthogonal to the facet,
        # so the determinant factors as (Euclidean volume)*(n-1)!*||n_i||.
        measure = abs(intlinalg.determinant(rows)) / (norm2 * math.factorial(n - 1))
        pieces.append((simplex, measure))
    return pieces


def _integrate(dim: int, pieces, polys: list[Polynomial]) -> list[Fraction]:
    """Integrate each polynomial over the union of (simplex, measure) pieces.

    On a simplex with vertices w_0..w_m,
        int x^alpha = measure * m! * alpha! / (m + |alpha|)! * [t^alpha] h_|alpha|
    where h_d is the complete homogeneous polynomial of degree d in the
    linear forms <w_j, t>.  One recursion h_d += <w_j, t> h_(d-1), over the
    vertices and then the degrees in ascending order, yields every requested
    monomial of the simplex at once.  The vertices are scaled by the lcm q of
    their denominators, so the recursion runs in integers and the degree-d
    coefficients are divided by q**d at the end.  A key beyond the
    componentwise maximum of the requested exponents never reaches one of
    them and is dropped.
    """
    alphas = {alpha for p in polys for alpha in p}
    for alpha in alphas:
        if len(alpha) != dim:
            raise InvalidPolytopeError("monomial exponent has wrong dimension")
        if not all(isinstance(a, int) and a >= 0 for a in alpha):
            raise InvalidArgumentError("monomial exponents must be non-negative integers")
    if not alphas or not pieces:
        return [Fraction(0)] * len(polys)
    top = tuple(max(alpha[i] for alpha in alphas) for i in range(dim))
    degree = max(sum(alpha) for alpha in alphas)
    zero = tuple([0] * dim)
    sums = dict.fromkeys(alphas, Fraction(0))
    for verts, measure in pieces:
        q = math.lcm(*(c.denominator for w in verts for c in w))
        h: list[dict[Monomial, int]] = [{zero: 1}] + [{} for _ in range(degree)]
        for w in verts:
            form = [(i, c.numerator * (q // c.denominator)) for i, c in enumerate(w) if c]
            for d in range(1, degree + 1):
                hd = h[d]
                for key, coeff in h[d - 1].items():
                    for i, wi in form:
                        if key[i] < top[i]:
                            nk = key[:i] + (key[i] + 1,) + key[i + 1:]
                            hd[nk] = hd.get(nk, 0) + coeff * wi
        for alpha in alphas:
            d = sum(alpha)
            coeff = h[d].get(alpha)
            if coeff:
                sums[alpha] += measure * Fraction(coeff, q ** d)
    m = len(pieces[0][0]) - 1
    moment = {
        alpha: total * Fraction(
            math.factorial(m) * math.prod(math.factorial(a) for a in alpha),
            math.factorial(m + sum(alpha)))
        for alpha, total in sums.items()
    }
    return [sum((c * moment[alpha] for alpha, c in p.items()), Fraction(0))
            for p in polys]


def monomial_moment(poly: LabelledPolytope, alpha: Monomial) -> Fraction:
    """Exact interior moment integral of x^alpha over the polytope."""
    return polynomial_moment(poly, {tuple(alpha): 1})


def volume(poly: LabelledPolytope) -> Fraction:
    return monomial_moment(poly, tuple([0] * poly.dim))


def polynomial_moment(poly: LabelledPolytope, coeffs: Polynomial) -> Fraction:
    return polynomial_moments(poly, [coeffs])[0]


def facet_sigma_moment(poly: LabelledPolytope, facet_index: int,
                       alpha: Monomial) -> Fraction:
    """Moment of x^alpha over one facet against the label-scaled measure."""
    return _integrate(poly.dim, _facet_simplices(poly, facet_index), [{tuple(alpha): 1}])[0]


def boundary_moment(poly: LabelledPolytope, alpha: Monomial) -> Fraction:
    """Moment of x^alpha over the whole boundary against dsigma."""
    return boundary_polynomial_moment(poly, {tuple(alpha): 1})


def boundary_polynomial_moment(poly: LabelledPolytope, coeffs: Polynomial) -> Fraction:
    return boundary_polynomial_moments(poly, [coeffs])[0]
