"""Labelled polytopes given by their defining affine functions.

A labelled polytope is the compact region ``{x : l_i(x) >= 0}`` cut out by
affine functions ``l_i(x) = <x, normal_i> + constant_i`` together with the
functions themselves (the labels carry geometric meaning, so redundant
facets are rejected rather than pruned).  All data is rational and every
decision here is exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence, Union

from . import intlinalg
from .errors import InvalidArgumentError, InvalidPolytopeError

Rat = Union[Fraction, int, str]


def frac(x: Rat) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to Fraction."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


@dataclass(frozen=True)
class AffineFunction:
    """Affine label ``l(x) = <x, normal> + constant``.

    In the common convention ``l_i(x) = <x, n_i> - lambda_i`` the stored
    ``constant`` is ``-lambda_i``.
    """

    normal: tuple[Fraction, ...]
    constant: Fraction

    def __post_init__(self):
        object.__setattr__(self, "normal", tuple(frac(c) for c in self.normal))
        object.__setattr__(self, "constant", frac(self.constant))
        if all(c == 0 for c in self.normal):
            raise InvalidArgumentError("affine label must have a nonzero normal")

    def __call__(self, x: Sequence[Rat]) -> Fraction:
        return sum((n * frac(c) for n, c in zip(self.normal, x)), self.constant)

    def rescaled(self, r: Fraction) -> "AffineFunction":
        return AffineFunction(self.normal, r * self.constant)

    def as_vector(self) -> tuple[Fraction, ...]:
        """The label as a vector (normal..., constant) in Aff(A, R)."""
        return self.normal + (self.constant,)

    def to_json(self) -> dict:
        return {
            "normal": [frac_str(c) for c in self.normal],
            "constant": frac_str(self.constant),
        }

    @classmethod
    def from_json(cls, data: dict) -> "AffineFunction":
        return cls(tuple(frac(c) for c in data["normal"]), frac(data["constant"]))


class LabelledPolytope:
    """Compact full-dimensional polytope with one affine label per facet.

    Every instance is a validated polytope: compact, full dimensional, with
    no redundant facet. A facet is redundant when its label is not tight on
    a face of dimension ``dim - 1``, or when an earlier label is tight on
    the same face. The public constructor (and so `from_json`) checks this
    in full. `product` and `rescale` derive new polytopes from validated
    ones, which keeps those properties, and `cone.characteristic_polytope`
    decides them from the cone's extreme rays; all three build through
    `_trusted` without checking again. `vertices` is computed on first use
    either way.
    """

    def __init__(self, dim: int, facets: Iterable[AffineFunction]):
        self.dim = int(dim)
        self.facets = tuple(facets)
        if self.dim < 1:
            raise InvalidPolytopeError("dimension must be >= 1")
        for f in self.facets:
            if len(f.normal) != self.dim:
                raise InvalidPolytopeError("facet normal has wrong dimension")
        if len(self.facets) < self.dim + 1:
            raise InvalidPolytopeError("too few facets for a compact polytope")
        self._validate()

    @classmethod
    def _trusted(cls, dim: int, facets: Iterable[AffineFunction]) -> "LabelledPolytope":
        """A polytope whose facets are known to bound a valid polytope."""
        poly = cls.__new__(cls)
        poly.dim = dim
        poly.facets = tuple(facets)
        return poly

    # -- construction-time validation -------------------------------------

    def _validate(self):
        normals = [f.normal for f in self.facets]
        if intlinalg.rational_rank(normals) < self.dim:
            raise InvalidPolytopeError("normals do not span; region is unbounded")
        if _extreme_rays(normals, self.dim):
            # The recession cone {x : <n_i, x> >= 0} is pointed (rank-n
            # normals), so it is nonzero exactly when it has an extreme ray.
            raise InvalidPolytopeError("region is unbounded")
        verts = self.vertices
        if not verts:
            raise InvalidPolytopeError("region is empty")
        if _affine_rank(verts) < self.dim:
            raise InvalidPolytopeError("region has empty interior")
        _reject_redundant(
            (tuple(v for v in verts if f(v) == 0) for f in self.facets),
            _affine_rank, self.dim - 1,
        )

    # -- derived data ------------------------------------------------------

    @cached_property
    def vertices(self) -> tuple[tuple[Fraction, ...], ...]:
        """Exact vertex set, sorted for determinism."""
        n, d = self.dim, len(self.facets)
        found = set()
        for subset in itertools.combinations(range(d), n):
            rows = [self.facets[i].normal for i in subset]
            rhs = [-self.facets[i].constant for i in subset]
            # A square system of rank n is always consistent.
            rank, x = intlinalg._solve(rows, rhs)
            if rank == n and all(f(x) >= 0 for f in self.facets):
                found.add(x)
        return tuple(sorted(found))

    @cached_property
    def _float_labels(self) -> tuple[tuple[tuple[float, ...], ...], tuple[float, ...]]:
        """Normals and constants rounded to floats, for pointwise numerics."""
        return (tuple(tuple(float(c) for c in f.normal) for f in self.facets),
                tuple(float(f.constant) for f in self.facets))

    def is_simplex(self) -> bool:
        return len(self.facets) == self.dim + 1

    def interior_point(self) -> tuple[Fraction, ...]:
        """Vertex centroid (interior because the polytope is full dimensional)."""
        k = len(self.vertices)
        return tuple(sum(v[j] for v in self.vertices) / k for j in range(self.dim))

    # -- structure decisions -------------------------------------------------

    def product_split(self) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Partition of facet indices splitting every normal dependency.

        Returns ``None`` when no such partition exists (the polytope is not
        affinely a product).  The partition is computed as a separator of the
        linear matroid of the normals: ``I`` splits every rational dependency
        iff ``rank(I) + rank(I^c) = rank(all)``.
        """
        normals = [f.normal for f in self.facets]
        comps = _matroid_components(normals)
        if len(comps) < 2:
            return None
        first = tuple(sorted(comps[0]))
        rest = tuple(sorted(set(range(len(normals))) - set(first)))
        return first, rest

    def is_rational(self) -> bool:
        """Normals lie in a common lattice: the integer kernel of
        ``x -> sum x_i n_i`` must have rank >= d - dim(Aff) + 1 = d - n.

        Always True: validation guarantees rational normals of rank n, and
        the integer kernel of a rank-n integer matrix with d columns has
        rank exactly d - n.
        """
        return True

    def is_characteristic(self) -> "CharacteristicResult":
        """Decide whether the labels span a lattice with a good cone over P."""
        from . import cone as cone_mod

        vecs = [f.as_vector() for f in self.facets]
        k = self.dim + 1
        denom = math.lcm(*(c.denominator for v in vecs for c in v))
        ints = [[int(c * denom) for c in v] for v in vecs]
        basis = intlinalg.lattice_row_basis(ints)
        if len(basis) != k:
            # Labels span a lower-rank module: cannot be characteristic.
            return CharacteristicResult(False, None, None)
        coords = []
        for w in ints:
            z = intlinalg.solve_exact(
                [[basis[j][a] for j in range(k)] for a in range(k)], w
            )
            coords.append(tuple(int(c) for c in z))
        for z in coords:
            if not intlinalg.is_primitive(z):
                return CharacteristicResult(False, None, None)
        candidate = cone_mod.Cone(k, tuple(coords))
        result = cone_mod.is_good(candidate)
        if not result.good:
            return CharacteristicResult(False, None, None)
        # The canonical Reeb vector pairs to 1 with the embedded copy of P:
        # it is the constant function 1 in coordinates on the label lattice.
        one = [Fraction(0)] * (k - 1) + [Fraction(denom)]
        b = intlinalg.solve_exact(
            [[basis[j][a] for j in range(k)] for a in range(k)], one
        )
        return CharacteristicResult(True, candidate, tuple(b))

    # -- transformations ---------------------------------------------------

    def rescale(self, r: Rat) -> "LabelledPolytope":
        """The polytope r*P with the same normals; valid because r > 0."""
        r = frac(r)
        if r <= 0:
            raise InvalidArgumentError("rescale factor must be positive")
        return LabelledPolytope._trusted(self.dim, (f.rescaled(r) for f in self.facets))

    # -- equality / serialization -------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LabelledPolytope)
            and self.dim == other.dim
            and self.facets == other.facets
        )

    def __hash__(self):
        return hash((self.dim, self.facets))

    def __repr__(self):
        return f"LabelledPolytope(dim={self.dim}, facets={len(self.facets)})"

    def to_json(self) -> dict:
        return {"dim": self.dim, "facets": [f.to_json() for f in self.facets]}

    @classmethod
    def from_json(cls, data: dict) -> "LabelledPolytope":
        return cls(data["dim"], [AffineFunction.from_json(f) for f in data["facets"]])


@dataclass(frozen=True)
class CharacteristicResult:
    """Outcome of the characteristic-polytope test, with witness data."""

    ok: bool
    cone: Optional[object]  # cone.Cone when ok
    reeb: Optional[tuple[Fraction, ...]]  # canonical slice direction

    def __bool__(self) -> bool:
        return self.ok


def _reject_redundant(incidences, rank, full_rank: int) -> None:
    """Raise for the first facet that is redundant.

    ``incidences`` gives, facet by facet, the points of a fixed generating
    set that lie on it (vertices, or the rays of a cone over the polytope)
    as tuples in one canonical order.  A facet is redundant when its points
    have ``rank`` other than ``full_rank``, or when an earlier facet has the
    same points: two labels on one facet, of which the later is rejected.
    """
    seen = set()
    for i, points in enumerate(incidences):
        if points in seen or rank(points) != full_rank:
            raise InvalidPolytopeError(f"facet {i} is redundant")
        seen.add(points)


def _affine_rank(points) -> int:
    if not points:
        return -1
    base = points[0]
    diffs = [[c - b for c, b in zip(p, base)] for p in points[1:]]
    if not diffs:
        return 0
    return intlinalg.rational_rank(diffs)


def _extreme_rays(normals, dim: int) -> tuple[intlinalg.IntVector, ...]:
    """Primitive integer generators of the extreme rays of ``{x : <n_i, x> >= 0}``.

    Each candidate spans the one-dimensional kernel of some ``dim - 1``
    normals and is kept, with either sign, when it satisfies every inequality.
    For normals of rank ``dim`` these are exactly the extreme rays, and there
    are none iff the cone is the origin alone.
    """
    rays = set()
    for sub in itertools.combinations(normals, dim - 1):
        # In dimension 1 the only subset is empty and its kernel is all of Q.
        kern = intlinalg.rational_kernel_basis(sub or [[0] * dim])
        if len(kern) != 1:
            continue
        denom = math.lcm(*(c.denominator for c in kern[0]))
        g = intlinalg.primitive_part(
            [c.numerator * (denom // c.denominator) for c in kern[0]]
        )
        for cand in (g, tuple(-c for c in g)):
            if all(sum(a * b for a, b in zip(n, cand)) >= 0 for n in normals):
                rays.add(cand)
    return tuple(sorted(rays))


def _matroid_components(vectors) -> list[set[int]]:
    """Connected components of the linear matroid on ``vectors``.

    Components are the transitive closure of the fundamental circuits with
    respect to the greedy basis: each rational kernel basis vector of the
    matrix whose columns are ``vectors`` expands one dependent vector in that
    basis, and its support is a circuit.
    """
    n = len(vectors)
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    dim = len(vectors[0]) if vectors else 0
    columns = [[v[j] for v in vectors] for j in range(dim)]
    for circuit in intlinalg.rational_kernel_basis(columns):
        support = [i for i, c in enumerate(circuit) if c != 0]
        for i in support[1:]:
            parent[find(i)] = find(support[0])

    groups: dict[int, set[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), set()).add(i)
    return sorted(groups.values(), key=min)


# -- convenience constructors used across tests and the CLI ------------------


def segment(labels: Sequence[Rat] = (1, 1)) -> LabelledPolytope:
    """The unit segment with labels ``m1*x`` and ``m2*(1-x)``."""
    m1, m2 = (frac(x) for x in labels)
    return LabelledPolytope(
        1,
        [
            AffineFunction((m1,), Fraction(0)),
            AffineFunction((-m2,), m2),
        ],
    )


def unit_box(dim: int) -> LabelledPolytope:
    facets = []
    for j in range(dim):
        e = [Fraction(0)] * dim
        e[j] = Fraction(1)
        facets.append(AffineFunction(tuple(e), Fraction(0)))
        facets.append(AffineFunction(tuple(-c for c in e), Fraction(1)))
    return LabelledPolytope(dim, facets)


def standard_simplex(dim: int) -> LabelledPolytope:
    facets = []
    for j in range(dim):
        e = [Fraction(0)] * dim
        e[j] = Fraction(1)
        facets.append(AffineFunction(tuple(e), Fraction(0)))
    facets.append(AffineFunction((Fraction(-1),) * dim, Fraction(1)))
    return LabelledPolytope(dim, facets)


def product(p1: LabelledPolytope, p2: LabelledPolytope) -> LabelledPolytope:
    """Product polytope with factor-1 coordinates first and labels concatenated.

    The factors are validated polytopes, so their product is compact, full
    dimensional and irredundant too, and is built without checking again.
    """
    n1, n2 = p1.dim, p2.dim
    zeros1 = (Fraction(0),) * n2
    zeros2 = (Fraction(0),) * n1
    facets = [
        AffineFunction(f.normal + zeros1, f.constant) for f in p1.facets
    ] + [AffineFunction(zeros2 + f.normal, f.constant) for f in p2.facets]
    return LabelledPolytope._trusted(n1 + n2, facets)
