"""Exact rational moments of labelled polytopes.

Interior moments use a boundary-fan triangulation from a base vertex and the
closed-form barycentric integral on each simplex; it reads the facets
through each vertex from the incidences that the vertex enumeration
recorded, without evaluating a label.  Facet moments use the boundary
measure dsigma = (Euclidean surface measure)/||n_i|| determined by the
wedge relation n_i ^ dsigma = -dmu, which stays rational because only
||n_i||^2 enters the simplex formula.

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
from .errors import InvalidPolytopeError
from .polytope import LabelledPolytope, _affine_rank

Point = tuple[Fraction, ...]
Monomial = tuple[int, ...]
Polynomial = Mapping[Monomial, Fraction]


def triangulate(poly: LabelledPolytope) -> list[tuple[Point, ...]]:
    """Full-dimensional simplices (n+1 vertices each) covering the polytope."""
    return _triangulate_face(poly._tight_facets, poly.vertices, poly.dim)


def _triangulate_face(tight, vset: Sequence[Point], rank: int) -> list[tuple[Point, ...]]:
    """Fan from the least of the sorted face vertices ``vset`` over the face's
    facets that miss it; ``tight`` maps a vertex to the facets through it."""
    if rank == 0:
        return [(vset[0],)]
    v0 = vset[0]
    simplices = []
    seen = set()
    for i in sorted(frozenset().union(*(tight[v] for v in vset)) - tight[v0]):
        sub = tuple(v for v in vset if i in tight[v])
        if sub in seen or _affine_rank(sub) != rank - 1:
            continue
        seen.add(sub)
        for s in _triangulate_face(tight, sub, rank - 1):
            simplices.append((v0,) + s)
    return simplices


def simplex_volume(verts: Sequence[Point]) -> Fraction:
    """Lebesgue volume of a full-dimensional simplex in its ambient space."""
    n = len(verts) - 1
    base = verts[0]
    rows = [[verts[j + 1][i] - base[i] for i in range(n)] for j in range(n)]
    return abs(intlinalg.determinant(rows)) / math.factorial(n)


def _simplex_monomial_integral(verts: Sequence[Point], alpha: Monomial,
                               measure: Fraction) -> Fraction:
    """Integral of x^alpha over a simplex of intrinsic dimension m.

    Uses int_simplex lambda^beta = measure * m! * beta! / (m + |beta|)!
    after expanding x = sum_j lambda_j w_j in barycentric coordinates.
    """
    m = len(verts) - 1
    terms: dict[tuple[int, ...], Fraction] = {tuple([0] * (m + 1)): Fraction(1)}
    for i, power in enumerate(alpha):
        for _ in range(power):
            new: dict[tuple[int, ...], Fraction] = {}
            for beta, coeff in terms.items():
                for j in range(m + 1):
                    wji = verts[j][i]
                    if wji == 0:
                        continue
                    nb = list(beta)
                    nb[j] += 1
                    key = tuple(nb)
                    new[key] = new.get(key, Fraction(0)) + coeff * wji
            terms = new
            if not terms:
                return Fraction(0)
    total_deg = sum(alpha)
    scale = measure * Fraction(math.factorial(m), math.factorial(m + total_deg))
    out = Fraction(0)
    for beta, coeff in terms.items():
        out += coeff * math.prod(math.factorial(b) for b in beta)
    return scale * out


def polynomial_moments(poly: LabelledPolytope,
                       polys: Iterable[Polynomial]) -> list[Fraction]:
    """Exact interior moments of several polynomials from one triangulation."""
    polys = list(polys)
    if any(len(alpha) != poly.dim for p in polys for alpha in p):
        raise InvalidPolytopeError("monomial exponent has wrong dimension")
    pieces = [(s, simplex_volume(s)) for s in triangulate(poly)]
    return _integrate(pieces, polys)


def boundary_polynomial_moments(poly: LabelledPolytope,
                                polys: Iterable[Polynomial]) -> list[Fraction]:
    """Exact moments over the whole boundary against dsigma, triangulating
    each facet once for all the polynomials."""
    pieces = [piece for i in range(len(poly.facets))
              for piece in _facet_simplices(poly, i)]
    return _integrate(pieces, list(polys))


def _facet_simplices(poly: LabelledPolytope,
                     facet_index: int) -> list[tuple[tuple[Point, ...], Fraction]]:
    """Simplices of one facet, each with its label-scaled sigma-measure."""
    f = poly.facets[facet_index]
    tight = poly._tight_facets
    fverts = [v for v in poly.vertices if facet_index in tight[v]]
    if not fverts:
        raise InvalidPolytopeError("facet carries no vertices")
    n = poly.dim
    norm2 = sum(c * c for c in f.normal)
    pieces = []
    for simplex in _triangulate_face(tight, fverts, n - 1):
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


def _integrate(pieces, polys: list[Polynomial]) -> list[Fraction]:
    """Integrate each polynomial over the union of (simplex, measure) pieces,
    each distinct monomial once per simplex."""
    moment = {
        alpha: sum((_simplex_monomial_integral(s, alpha, m) for s, m in pieces), Fraction(0))
        for alpha in {alpha for p in polys for alpha in p}
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
    return _integrate(_facet_simplices(poly, facet_index), [{tuple(alpha): 1}])[0]


def boundary_moment(poly: LabelledPolytope, alpha: Monomial) -> Fraction:
    """Moment of x^alpha over the whole boundary against dsigma."""
    return boundary_polynomial_moment(poly, {tuple(alpha): 1})


def boundary_polynomial_moment(poly: LabelledPolytope, coeffs: Polynomial) -> Fraction:
    return boundary_polynomial_moments(poly, [coeffs])[0]
