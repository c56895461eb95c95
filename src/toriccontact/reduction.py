"""Cone reducibility for product-of-simplices moment cones.

A good cone whose characteristic slices have the combinatorial type of a
product of two simplices admits a Reeb vector b in the lattice whose slice
splits as a product of labelled simplices; the toric contact structure is
then a join of two weighted projective spaces.  This module finds the facet
partition, the splitting Reeb vector with its integer coefficient
certificate, and the weighted-projective weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import cone as cone_mod
from . import intlinalg
from .cone import Cone, _dot, characteristic_polytope
from .errors import (
    InternalInconsistencyError,
    InvalidConeError,
    InvalidPartitionError,
)
from .polytope import AffineFunction, LabelledPolytope


@dataclass(frozen=True)
class SimplexProductPartition:
    """Facet index partition realizing the product-of-simplices structure."""

    group1: tuple[int, ...]
    group2: tuple[int, ...]

    def to_json(self) -> dict:
        return {"group1": list(self.group1), "group2": list(self.group2)}


@dataclass(frozen=True)
class SplittingCertificate:
    """Reeb vector b = sum_i a1_i l_i (group 1) = sum_j a2_j l_j (group 2).

    ``b`` is the exact integer combination; it is not re-divided by its
    content, so the coefficient identities hold verbatim.
    """

    b: tuple[int, ...]
    a1: tuple[int, ...]
    a2: tuple[int, ...]
    partition: SimplexProductPartition
    factor1: LabelledPolytope
    factor2: LabelledPolytope

    def to_json(self) -> dict:
        return {
            "b": list(self.b),
            "a1": list(self.a1),
            "a2": list(self.a2),
            "partition": self.partition.to_json(),
            "factors": [self.factor1.to_json(), self.factor2.to_json()],
        }


def find_simplex_product_partition(cone: Cone) -> Optional[SimplexProductPartition]:
    """Facet partition making every slice a product of two simplices.

    A product-of-simplices cone in dimension k has exactly k+1 labels and
    (n1+1)(n2+1) extreme rays, each ray omitting exactly one label from each
    group.  The k+1 labels satisfy one linear relation sum_i lam_i l_i = 0;
    pairing it with the ray that omits i in group 1 and j in group 2 gives
    lam_i <l_i, r> = -lam_j <l_j, r>, so every valid partition is the sign
    pattern of lam, with no zero entry.  Returns that partition (index 0 in
    group 1) when it matches the rays, or None when the cone is not of
    product type.
    """
    good = cone_mod.is_good(cone)
    if not good:
        raise InvalidConeError("reducibility pipeline requires a good cone")
    k, d = cone.dim, len(cone.labels)
    if d != k + 1:
        return None
    (lam,) = intlinalg.rational_kernel_basis(
        [[l[r] for l in cone.labels] for r in range(k)]
    )
    g1 = frozenset(i for i in range(d) if (lam[i] > 0) == (lam[0] > 0))
    g2 = frozenset(range(d)) - g1
    if min(len(g1), len(g2)) < 2 or not _partition_matches(cone.ray_active_sets, g1, g2):
        return None
    return SimplexProductPartition(tuple(sorted(g1)), tuple(sorted(g2)))


def _partition_matches(actives, g1: frozenset, g2: frozenset) -> bool:
    n1, n2 = len(g1) - 1, len(g2) - 1
    if len(actives) != (n1 + 1) * (n2 + 1):
        return False
    seen = set()
    for act in actives:
        miss1 = g1 - act
        miss2 = g2 - act
        if len(miss1) != 1 or len(miss2) != 1:
            return False
        if act != (g1 | g2) - miss1 - miss2:
            return False
        seen.add((next(iter(miss1)), next(iter(miss2))))
    return len(seen) == (n1 + 1) * (n2 + 1)


def find_splitting_reeb(cone: Cone, part: SimplexProductPartition) -> SplittingCertificate:
    """Solve sum a1_i l_i = sum a2_j l_j for the splitting Reeb vector.

    The coefficient kernel is one-dimensional for a genuine product type;
    signs are normalized so that b lies in the interior of the dual cone and
    all coefficients are positive, which the product structure guarantees.
    """
    k = cone.dim
    g1, g2 = part.group1, part.group2
    if sorted(g1 + g2) != list(range(len(cone.labels))) or min(len(g1), len(g2)) < 2:
        raise InvalidPartitionError("partition must split all facet indices, two per side")
    if not _partition_matches(cone.ray_active_sets, frozenset(g1), frozenset(g2)):
        raise InvalidPartitionError("partition does not match the ray combinatorics")
    cols = [list(cone.labels[i]) for i in g1] + [
        [-c for c in cone.labels[j]] for j in g2
    ]
    # kernel of the k x (k+1) matrix with those columns
    mat = [[cols[c][r] for c in range(len(cols))] for r in range(k)]
    kern = intlinalg.integer_kernel_basis(mat)
    if kern.rank != 1:
        raise InvalidPartitionError("coefficient kernel is not one-dimensional")
    coeff = kern.vectors[0]
    b = tuple(
        sum(coeff[p] * cone.labels[i][r] for p, i in enumerate(g1))
        for r in range(k)
    )
    if all(_dot(b, ray) < 0 for ray in cone.extreme_rays):
        coeff = tuple(-c for c in coeff)
        b = tuple(-c for c in b)
    if not all(_dot(b, ray) > 0 for ray in cone.extreme_rays):
        raise InternalInconsistencyError(
            "splitting vector fails positivity on an extreme ray"
        )
    a1 = tuple(coeff[: len(g1)])
    a2 = tuple(coeff[len(g1):])
    if any(a <= 0 for a in a1 + a2):
        raise InternalInconsistencyError("sign-incoherent splitting coefficients")

    factor1, factor2 = _slice_factors(cone, b, part)
    return SplittingCertificate(b, a1, a2, part, factor1, factor2)


def decompose_as_join(cert: SplittingCertificate) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Weight vectors of the two weighted-projective-space factors."""
    return (
        intlinalg.primitive_part(cert.a1),
        intlinalg.primitive_part(cert.a2),
    )


def reduce_cone(cone: Cone) -> Optional[SplittingCertificate]:
    """Full pipeline: partition search + splitting Reeb + factor simplices."""
    part = find_simplex_product_partition(cone)
    if part is None:
        return None
    return find_splitting_reeb(cone, part)


def _ray_centroid(cone: Cone, b: tuple[int, ...]) -> tuple[Fraction, ...]:
    """Centroid of the extreme rays rescaled to ``<x, b> = 1``.

    These are the vertices of the slice at b, and slice coordinates are an
    affine chart of that hyperplane, so this is the slice's vertex centroid
    ``interior_point()`` in the coordinates of the cone.
    """
    rays = cone.extreme_rays
    return tuple(
        sum(Fraction(r[j], _dot(b, r)) for r in rays) / len(rays)
        for j in range(cone.dim)
    )


def _slice_factors(cone: Cone, b: tuple[int, ...], part: SimplexProductPartition):
    """Project the characteristic slice at b onto its two simplex factors.

    A factor label is a slice label restricted to the directions along which
    the other group's labels are constant, anchored at the slice's vertex
    centroid.  A slice label's value there is its cone label's value at
    `_ray_centroid`, so the slice's vertices are never enumerated.  The
    factors are built through the public, validating constructor.
    """
    poly = characteristic_polytope(cone, [Fraction(c) for c in b]).polytope
    facets = list(poly.facets)
    centroid = _ray_centroid(cone, b)
    out = []
    for own, other in ((part.group1, part.group2), (part.group2, part.group1)):
        normals_other = [[int(c) for c in facets[j].normal] for j in other]
        directions = intlinalg.integer_kernel_basis(normals_other).vectors
        n_own = len(own) - 1
        if len(directions) != n_own:
            raise InternalInconsistencyError("factor direction space has wrong dimension")
        factor_facets = []
        for i in own:
            f = facets[i]
            normal = tuple(
                Fraction(sum(v[r] * f.normal[r] for r in range(poly.dim)))
                for v in directions
            )
            constant = _dot(centroid, cone.labels[i])
            factor_facets.append(AffineFunction(normal, constant))
        out.append(LabelledPolytope(n_own, tuple(factor_facets)))
    return out[0], out[1]

