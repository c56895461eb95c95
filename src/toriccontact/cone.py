"""Strictly convex rational polyhedral cones and their Sasaki-side decisions.

A cone is stored by its primitive integer inward normals (labels) with the
lattice implicitly Z^k.  Goodness is the saturation condition on every face
sublattice; faces are enumerated through the extreme-ray/facet incidence at
exact rational precision, and the decision is made once per cone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence, Union

from . import intlinalg
from .errors import (
    InvalidConeError,
    NotAReebVectorError,
    SymbolicReebUndecidableError,
)
from .polytope import (
    AffineFunction,
    LabelledPolytope,
    _extreme_rays,
    _reject_redundant,
    frac,
    frac_str,
)

RatVec = Sequence[Union[Fraction, int, str]]


@dataclass(frozen=True)
class Cone:
    """Candidate good cone ``{x : <x, l_i> >= 0}`` with primitive labels."""

    dim: int
    labels: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        labels = tuple(tuple(int(c) for c in l) for l in self.labels)
        object.__setattr__(self, "labels", labels)
        if not labels:
            raise InvalidConeError("cone needs at least one label")
        for l in labels:
            if len(l) != self.dim:
                raise InvalidConeError("label has wrong dimension")
            if not intlinalg.is_primitive(l):
                raise InvalidConeError(f"label {l} is not primitive")

    @cached_property
    def extreme_rays(self) -> tuple[tuple[int, ...], ...]:
        """Primitive generators of the extreme rays.

        Meaningful only for labels of rank ``dim``: for other cones the
        result may be empty or hold both signs of a lineality direction.
        The labels vanishing on each ray are recorded as `ray_active_sets`.
        """
        rays = _extreme_rays(self.labels, self.dim)
        self.__dict__["ray_active_sets"] = tuple(rays.values())
        return tuple(rays)

    @cached_property
    def ray_active_sets(self) -> tuple[frozenset[int], ...]:
        """Indices of the labels vanishing on each ray; set by `extreme_rays`."""
        self.extreme_rays
        return self.__dict__["ray_active_sets"]

    @cached_property
    def _goodness(self) -> GoodnessResult:
        # cached_property stores only returned values, so a cone that is not
        # strictly convex raises on every call.
        if not is_strictly_convex(self):
            raise InvalidConeError("goodness requires a strictly convex cone")
        for face in proper_faces(self):
            rows = [self.labels[i] for i in face]
            factors = intlinalg.smith_invariant_factors(rows)
            if any(f != 1 for f in factors):
                return GoodnessResult(False, face, tuple(factors))
        return GoodnessResult(True)

    def to_json(self) -> dict:
        return {"dim": self.dim, "labels": [list(l) for l in self.labels]}

    @classmethod
    def from_json(cls, data: dict) -> "Cone":
        return cls(data["dim"], tuple(tuple(l) for l in data["labels"]))


@dataclass(frozen=True)
class ReebVector:
    """Element of the torus Lie algebra, optionally with transcendental part.

    The vector is ``rational + sum_j tau_j * symbolic[j]`` for declared
    Q-linearly-independent transcendentals ``tau_j``.
    """

    rational: tuple[Fraction, ...]
    symbolic: tuple[tuple[Fraction, ...], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "rational", tuple(frac(c) for c in self.rational))
        object.__setattr__(
            self, "symbolic", tuple(tuple(frac(c) for c in col) for col in self.symbolic)
        )
        for col in self.symbolic:
            if len(col) != len(self.rational):
                raise InvalidConeError("symbolic column has wrong dimension")

    @property
    def is_rational(self) -> bool:
        return all(all(c == 0 for c in col) for col in self.symbolic)

    def coefficient_columns(self) -> list[tuple[Fraction, ...]]:
        return [self.rational, *self.symbolic]

    def rational_direction(self) -> Optional[tuple[Fraction, ...]]:
        """The rational direction when the coefficient matrix has rank <= 1.

        Returns ``None`` for genuinely irrational (rank >= 2) vectors.  The
        returned vector is only defined up to positive scale; the sign is the
        sign of the first nonzero column, which callers must still validate
        against the cone.
        """
        cols = [c for c in self.coefficient_columns() if any(e != 0 for e in c)]
        if not cols or (len(cols) > 1 and intlinalg.rational_rank(cols) > 1):
            return None
        return cols[0]

    def to_json(self) -> dict:
        out = {"rational": [frac_str(c) for c in self.rational]}
        if self.symbolic:
            out["symbolic"] = [[frac_str(c) for c in col] for col in self.symbolic]
        return out

    @classmethod
    def from_json(cls, data: dict) -> "ReebVector":
        return cls(
            tuple(frac(c) for c in data["rational"]),
            tuple(tuple(frac(c) for c in col) for col in data.get("symbolic", ())),
        )


@dataclass(frozen=True)
class GoodnessResult:
    good: bool
    violating_face: Optional[tuple[int, ...]] = None
    invariant_factors: Optional[tuple[int, ...]] = None

    def __bool__(self):
        return self.good


@dataclass(frozen=True)
class CharacteristicSlice:
    """Characteristic polytope of a cone at a Reeb vector."""

    polytope: LabelledPolytope
    quotient_lattice: intlinalg.LatticeBasis
    normalized_direction: bool = False


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def is_strictly_convex(cone: Cone) -> bool:
    """Labels span Q^k (no line in C) and the cone has nonempty interior."""
    if intlinalg.rational_rank(cone.labels) < cone.dim:
        return False
    rays = cone.extreme_rays
    if not rays:
        return False
    return intlinalg.rational_rank(rays) == cone.dim


def proper_faces(cone: Cone) -> list[tuple[int, ...]]:
    """Active label index sets of the faces of dimension 1 to ``dim - 1``.

    Each face is the positive hull of the extreme rays it contains, so the
    distinct faces are exactly the distinct intersections of ray active sets
    over nonempty ray subsets.  They are found by closure (Kaibel and Pfetsch
    2002): starting from the ray active sets, each newly found set is
    intersected with every ray active set until no new set appears, which
    costs #faces x #rays intersections.  The apex, whose active set is every
    label, is no such intersection; the whole cone has the empty active set,
    which is discarded.  Sorted by size, then lexicographically.
    """
    actives = set(cone.ray_active_sets)
    seen = set(actives)
    frontier = list(actives)
    while frontier:
        found = frontier.pop()
        for active in actives:
            inter = found & active
            if inter not in seen:
                seen.add(inter)
                frontier.append(inter)
    seen.discard(frozenset())
    return sorted((tuple(sorted(s)) for s in seen), key=lambda t: (len(t), t))


def is_good(cone: Cone) -> GoodnessResult:
    """Lerman's condition: every face sublattice is saturated in Z^k.

    Returns the first face, in ``proper_faces`` order, whose label rows have
    an invariant factor other than 1.  The result is cached on the cone;
    a cone that is not strictly convex raises ``InvalidConeError``.
    """
    return cone._goodness


def _reeb_direction(cone: Cone, b, convexity_message: str):
    """Coerce ``b`` on a strictly convex cone (else raise with the message)
    and return it, its rational direction (``None`` for zero or irrational
    vectors) and whether that direction is positive on every extreme ray."""
    if not is_strictly_convex(cone):
        raise InvalidConeError(convexity_message)
    b = _coerce_reeb(cone, b)
    vec = b.rational_direction()
    inside = vec is not None and all(_dot(r, vec) > 0 for r in cone.extreme_rays)
    return b, vec, inside


def sasaki_cone_contains(cone: Cone, b: Union[ReebVector, RatVec]) -> bool:
    """True iff ``<x, b> > 0`` for every nonzero ``x`` in the closure of C."""
    b, vec, inside = _reeb_direction(cone, b, "Sasaki cone is defined for strictly convex cones")
    if vec is None and not b.is_rational:
        raise SymbolicReebUndecidableError(
            "sign of an irrational Reeb vector on the cone is undecidable"
        )
    return inside


def is_quasi_regular(cone: Cone, b: Union[ReebVector, RatVec]) -> bool:
    """Quasi-regular iff the direction of b is rational (rank-1 coefficients).

    For a genuinely irrational vector (coefficient rank >= 2) the membership
    test is not sign-decidable over the rationals, but quasi-regularity is
    already settled: such a vector is irregular.
    """
    _, vec, inside = _reeb_direction(
        cone, b, "quasi-regularity is defined for strictly convex cones")
    if vec is None:
        return False
    if not inside:
        raise NotAReebVectorError("vector is not in the Sasaki cone")
    return True


def characteristic_polytope(cone: Cone, b: Union[ReebVector, RatVec]) -> CharacteristicSlice:
    """Slice ``P_b = C  ∩  {<x, b> = 1}`` in explicit affine coordinates.

    Symbolic vectors with a rational direction are normalized to that
    direction first (flagged in the result); genuinely irrational vectors
    are rejected.

    The slice is not validated as a polytope from its labels: the cone is
    strictly convex and b is positive on every extreme ray, so the slice is
    compact and full dimensional, and its vertices are the rays rescaled to
    ``<x, b> = 1``.  Facet i is then irredundant iff the rays on which label
    i vanishes have rank ``dim - 1`` and no earlier label vanishes on the
    same rays, which is decided over the integer rays before any slice
    label is built; a redundant label (one parallel to b vanishes on no ray)
    raises ``InvalidPolytopeError`` with the message and first index that
    full validation of the slice gives.
    """
    b, vec, inside = _reeb_direction(cone, b, "slicing requires a strictly convex cone")
    if vec is None and not b.is_rational:
        raise NotAReebVectorError("slicing requires a rational Reeb direction")
    if not inside:
        raise NotAReebVectorError("vector is not in the Sasaki cone")

    k = cone.dim
    b_int = intlinalg.primitive_part(vec)
    # Saturated integer basis of the hyperplane b^perp in t*, so the slice
    # coordinates carry the quotient lattice faithfully.
    directions = intlinalg.integer_kernel_basis([list(b_int)]).vectors
    norm2 = _dot(vec, vec)
    x0 = tuple(c / norm2 for c in vec)

    # Before any label is built: a label parallel to b would have a zero
    # normal, and is reported as the redundant facet it is.
    _reject_redundant(cone.extreme_rays, cone.ray_active_sets, len(cone.labels), k - 1)
    facets = []
    for l in cone.labels:
        normal = tuple(Fraction(_dot(v, l)) for v in directions)
        constant = _dot(x0, l)
        facets.append(AffineFunction(normal, constant))
    poly = LabelledPolytope._trusted(k - 1, facets)

    # Quotient lattice: image of Z^k under l -> (<v_a, l>)_a.
    images = [[directions[a][j] for a in range(k - 1)] for j in range(k)]
    basis = intlinalg.lattice_row_basis(images)
    return CharacteristicSlice(
        poly, intlinalg.LatticeBasis(k - 1, basis), not b.is_rational
    )


def _coerce_reeb(cone: Cone, b) -> ReebVector:
    if isinstance(b, ReebVector):
        vec = b
    else:
        vec = ReebVector(tuple(frac(c) for c in b))
    if len(vec.rational) != cone.dim:
        raise NotAReebVectorError("Reeb vector has wrong dimension")
    return vec
