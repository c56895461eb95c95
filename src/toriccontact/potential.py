"""Symplectic potentials on labelled polytopes: Guillemin potential, Abreu
scalar curvature, the exact extremal affine function, the Donaldson integral
identity, and the averaging split of potentials on product polytopes.

Exact rational moments do all the linear algebra that must be exact (the
extremal affine function, boundary pairings, least-squares projections);
floating point enters only through pointwise curvature evaluation, which uses
fourth-order central finite differences of the inverse Hessian. Pointwise
evaluation reads the labels as float normal and constant arrays.

Importing this module loads numpy. sympy loads only where an expression is
parsed, differentiated or expanded: `expression_from_json`, a relative
potential with a non-zero closed form, and the exact polynomial paths of
`average_split`, `split_defect` and the Donaldson boundary pairing. The
canonical potential (`RelativePotential.zero`) needs no sympy.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from . import intlinalg, moments
from .errors import (
    InvalidArgumentError,
    InvalidPolytopeError,
    NotAProductError,
    NotConvexHereError,
    OutOfDomainError,
)
from .polytope import LabelledPolytope, frac, frac_str

if TYPE_CHECKING:
    import sympy as sp


# --------------------------------------------------------------------------
# expression trees


def _coords(dim: int) -> list[sp.Symbol]:
    import sympy as sp

    return [sp.Symbol(f"x{i}", real=True) for i in range(dim)]


def expression_from_json(node: dict, dim: int) -> sp.Expr:
    """Expression tree with node kinds const/coord/add/mul/pow/log."""
    import sympy as sp

    kind = node.get("kind")
    xs = _coords(dim)
    if kind == "const":
        return sp.Rational(Fraction(str(node["value"])))
    if kind == "coord":
        idx = int(node["index"])
        if not 0 <= idx < dim:
            raise InvalidArgumentError(f"coordinate index {idx} out of range")
        return xs[idx]
    if kind == "add":
        return sp.Add(*(expression_from_json(a, dim) for a in node["args"]))
    if kind == "mul":
        return sp.Mul(*(expression_from_json(a, dim) for a in node["args"]))
    if kind == "pow":
        base = expression_from_json(node["base"], dim)
        exponent = node["exponent"]
        if isinstance(exponent, dict):
            exponent = expression_from_json(exponent, dim)
        return sp.Pow(base, exponent)
    if kind == "log":
        return sp.log(expression_from_json(node["arg"], dim))
    raise InvalidArgumentError(f"unknown expression node kind {kind!r}")


class RelativePotential:
    """Relative part f of a symplectic potential u = u0 + f.

    Backed either by a closed-form expression (analytic derivatives) or by
    grid samples interpolated with a degree >= 5 spline so that the fourth
    derivative of the curvature pipeline exists. An exact rational zero
    (int, Fraction or sympy 0) is kept as a number: it evaluates without
    sympy, and `expr` builds sympy's 0 only when read.
    """

    def __init__(self, dim: int, expr: Optional[sp.Expr] = None,
                 spline=None, spline_degree: Optional[int] = None):
        self.dim = dim
        self._zero = isinstance(expr, numbers.Rational) and expr == 0
        self._expr = None
        self._spline = spline
        self.spline_degree = spline_degree
        if expr is not None and not self._zero:
            import sympy as sp

            xs = _coords(dim)
            self._expr = sp.sympify(expr, locals={s.name: s for s in xs})
            self._value = sp.lambdify(xs, self._expr, "numpy")
            self._hess = [
                [sp.lambdify(xs, sp.diff(self._expr, xi, xj), "numpy") for xj in xs]
                for xi in xs
            ]

    @property
    def expr(self) -> Optional[sp.Expr]:
        """The closed form as a sympy expression; None for a spline."""
        if self._zero:
            import sympy as sp

            return sp.Integer(0)
        return self._expr

    @classmethod
    def zero(cls, dim: int) -> "RelativePotential":
        return cls(dim, 0)

    @classmethod
    def from_expression(cls, dim: int, expr) -> "RelativePotential":
        if isinstance(expr, dict):
            expr = expression_from_json(expr, dim)
        return cls(dim, expr)

    @classmethod
    def from_grid_samples(cls, axes: Sequence[Sequence[float]],
                          values, degree: int = 5) -> "RelativePotential":
        """Tensor-grid samples on a box; 1D and 2D are supported."""
        from scipy import interpolate

        if degree < 5:
            raise InvalidArgumentError("interpolation degree must be >= 5")
        dim = len(axes)
        if dim == 1:
            spline = interpolate.make_interp_spline(
                np.asarray(axes[0], float), np.asarray(values, float), k=degree
            )
        elif dim == 2:
            spline = interpolate.RectBivariateSpline(
                np.asarray(axes[0], float), np.asarray(axes[1], float),
                np.asarray(values, float), kx=degree, ky=degree,
            )
        else:
            raise InvalidArgumentError("grid-sampled potentials support dim 1 or 2")
        return cls(dim, None, spline, degree)

    @property
    def is_polynomial(self) -> bool:
        if self._zero:
            return True
        return self._expr is not None and self._expr.is_polynomial(*_coords(self.dim))

    def value(self, x) -> float:
        if self._zero:
            return 0.0
        if self._expr is not None:
            return float(self._value(*x))
        return self._spline_eval(x, ())

    def hessian(self, x) -> np.ndarray:
        if self._zero:
            return np.zeros((self.dim, self.dim))
        if self._expr is not None:
            return np.array(
                [[float(self._hess[i][j](*x)) for j in range(self.dim)]
                 for i in range(self.dim)]
            )
        return np.array(
            [[self._spline_eval(x, (i, j)) for j in range(self.dim)]
             for i in range(self.dim)]
        )

    def _spline_eval(self, x, partial: tuple[int, ...]) -> float:
        if self.dim == 1:
            s = self._spline
            for _ in partial:
                s = s.derivative()
            return float(s(x[0]))
        dx = sum(1 for i in partial if i == 0)
        dy = sum(1 for i in partial if i == 1)
        return float(self._spline(x[0], x[1], dx=dx, dy=dy))


@dataclass
class SymplecticPotential:
    """u_f = u0 + f with u0 the canonical potential of the labelled polytope."""

    polytope: LabelledPolytope
    relative: RelativePotential

    def __post_init__(self):
        if self.relative.dim != self.polytope.dim:
            raise InvalidArgumentError("relative part has wrong dimension")

    @classmethod
    def canonical(cls, polytope: LabelledPolytope) -> "SymplecticPotential":
        return cls(polytope, RelativePotential.zero(polytope.dim))

    def value(self, x) -> float:
        v, _, _ = guillemin_eval(self.polytope, x)
        return v + self.relative.value(x)

    def hessian(self, x) -> np.ndarray:
        _, _, h = _guillemin_hessian(self.polytope, x)
        return h + self.relative.hessian(x)

    def convexity_margin(self, points) -> float:
        """Smallest Cholesky pivot of the Hessian over the sample points."""
        worst = math.inf
        for x in points:
            h = self.hessian(x)
            try:
                c = np.linalg.cholesky(h)
            except np.linalg.LinAlgError:
                return -math.inf
            worst = min(worst, float(np.min(np.diag(c)) ** 2))
        return worst


@dataclass(frozen=True)
class Grid:
    """Interior evaluation grid with a boundary margin."""

    points: tuple[tuple[float, ...], ...]
    spacing: float
    per_axis: int
    margin_cells: int

    @classmethod
    def interior(cls, poly: LabelledPolytope, per_axis: int,
                 margin_cells: int = 4) -> "Grid":
        if per_axis < 2:
            raise InvalidArgumentError("grid needs at least 2 points per axis")
        n = poly.dim
        verts = poly.vertices
        lo = [min(float(v[i]) for v in verts) for i in range(n)]
        hi = [max(float(v[i]) for v in verts) for i in range(n)]
        axes, spacings = [], []
        for i in range(n):
            width = hi[i] - lo[i]
            s = width / (per_axis - 1 + 2 * margin_cells)
            start = lo[i] + margin_cells * s
            axes.append([start + k * s for k in range(per_axis)])
            spacings.append(s)
        spacing = max(spacings)
        pts = []
        for idx in np.ndindex(*([per_axis] * n)):
            x = tuple(axes[i][idx[i]] for i in range(n))
            if all(float(f(x)) > 0 for f in poly.facets):
                pts.append(x)
        return cls(tuple(pts), spacing, per_axis, margin_cells)


@dataclass(frozen=True)
class ExtremalAffine:
    """Affine function c0 + <c, x>; unlike a facet label it may be constant."""

    normal: tuple[Fraction, ...]
    constant: Fraction

    def __call__(self, x):
        return sum((n * frac(c) for n, c in zip(self.normal, x)), self.constant)

    def to_json(self) -> dict:
        return {
            "normal": [frac_str(c) for c in self.normal],
            "constant": frac_str(self.constant),
        }


@dataclass(frozen=True)
class ExtremalReport:
    extremal_affine: ExtremalAffine
    residual_sup: float
    residual_l2: float
    grid_per_axis: int
    grid_margin_cells: int

    def to_json(self) -> dict:
        return {
            "extremal_affine": self.extremal_affine.to_json(),
            "residual_sup": self.residual_sup,
            "residual_l2": self.residual_l2,
            "grid": {"per_axis": self.grid_per_axis,
                     "margin_cells": self.grid_margin_cells},
        }


# --------------------------------------------------------------------------
# pointwise evaluation


def _label_values(poly: LabelledPolytope, x) -> tuple[np.ndarray, np.ndarray]:
    """The float normals (one row per facet) and the labels l_i(x) in floats."""
    normals, constants = poly._float_labels
    normals = np.array(normals)
    return normals, normals @ np.asarray(x, float) + constants


def _guillemin_hessian(poly: LabelledPolytope, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The float normals, the labels l_i(x) and the Hessian of u0 at x.

    The Hessian adds the facets' terms 1/2 n n^T / l in facet order, so it is
    exactly symmetric.
    """
    normals, ls = _label_values(poly, x)
    if not (ls > 0).all():
        raise OutOfDomainError("point is not strictly interior")
    hess = (0.5 * normals[:, :, None] * normals[:, None, :] / ls[:, None, None]).sum(axis=0)
    return normals, ls, hess


def guillemin_eval(poly: LabelledPolytope, x) -> tuple[float, np.ndarray, np.ndarray]:
    """Value, gradient and Hessian of u0 = 1/2 sum l_i log l_i at x."""
    normals, ls, hess = _guillemin_hessian(poly, x)
    logs = np.log(ls)
    value = float(np.sum(0.5 * ls * logs))
    grad = 0.5 * (logs + 1.0) @ normals
    return value, grad, hess


def _fd_step(poly: LabelledPolytope, x) -> float:
    normals, ls = _label_values(poly, x)
    nmax = np.sqrt((normals ** 2).sum(axis=1)).max()
    return float(ls.min() / (6.0 * nmax))


_D1 = {-2: 1.0 / 12, -1: -8.0 / 12, 1: 8.0 / 12, 2: -1.0 / 12}
_D2 = {-2: -1.0 / 12, -1: 16.0 / 12, 0: -30.0 / 12, 1: 16.0 / 12, 2: -1.0 / 12}


def abreu_scalar_curvature(u: SymplecticPotential, x,
                           step: Optional[float] = None) -> float:
    """R_u(x) = -sum_ij d^2 (H^-1)_ij / dx_i dx_j by 4th-order differences."""
    poly = u.polytope
    n = poly.dim
    x = np.asarray(x, float)
    h0 = u.hessian(tuple(x))
    try:
        np.linalg.cholesky(h0)
    except np.linalg.LinAlgError:
        raise NotConvexHereError("potential Hessian is not positive definite")
    h = step if step is not None else _fd_step(poly, x)
    if h <= 0:
        raise OutOfDomainError("point is not strictly interior")

    def g(point) -> np.ndarray:
        return np.linalg.inv(u.hessian(tuple(point)))

    total = 0.0
    for i in range(n):
        acc = 0.0
        for a, w in _D2.items():
            y = x.copy()
            y[i] += a * h
            acc += w * g(y)[i, i]
        total += acc / (h * h)
    for i in range(n):
        for j in range(i + 1, n):
            acc = 0.0
            for a, wa in _D1.items():
                for b, wb in _D1.items():
                    y = x.copy()
                    y[i] += a * h
                    y[j] += b * h
                    acc += wa * wb * g(y)[i, j]
            total += 2.0 * acc / (h * h)
    return -total


# --------------------------------------------------------------------------
# exact extremal affine function


def _affine_basis(n: int) -> list[dict]:
    basis = [{tuple([0] * n): Fraction(1)}]
    for i in range(n):
        alpha = [0] * n
        alpha[i] = 1
        basis.append({tuple(alpha): Fraction(1)})
    return basis


def extremal_affine_function(poly: LabelledPolytope) -> ExtremalAffine:
    """The unique affine R_E with int f R_E dmu = 2 int_boundary f dsigma
    for every affine f, solved exactly from rational moments."""
    basis = _affine_basis(poly.dim)
    m = len(basis)
    flat = moments.polynomial_moments(poly, [_poly_mul(a, b) for a in basis for b in basis])
    gram = [flat[a * m:(a + 1) * m] for a in range(m)]
    rhs = [2 * c for c in moments.boundary_polynomial_moments(poly, basis)]
    sol = intlinalg.solve_exact(gram, rhs)
    if sol is None:
        raise InvalidPolytopeError("degenerate moment system")
    return ExtremalAffine(tuple(sol[1:]), sol[0])


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for a, ca in p.items():
        for b, cb in q.items():
            key = tuple(x + y for x, y in zip(a, b))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return out


def extremality_residual(u: SymplecticPotential, grid: Grid) -> ExtremalReport:
    """Sup and rms norms of R_u - R_E over the grid."""
    re = extremal_affine_function(u.polytope)
    points = np.array(grid.points, float).reshape(len(grid.points), u.polytope.dim)
    re_values = points @ np.array([float(c) for c in re.normal]) + float(re.constant)
    arr = np.array([abreu_scalar_curvature(u, x) for x in grid.points]) - re_values
    return ExtremalReport(
        re,
        float(np.max(np.abs(arr))) if arr.size else 0.0,
        float(np.sqrt(np.mean(arr ** 2))) if arr.size else 0.0,
        grid.per_axis,
        grid.margin_cells,
    )


# --------------------------------------------------------------------------
# quadrature and the Donaldson identity


def _refine(simplices: list, levels: int) -> list:
    for _ in range(levels):
        new = []
        for s in simplices:
            if len(s) == 2:
                a, b = np.asarray(s[0]), np.asarray(s[1])
                m = (a + b) / 2
                new.append((tuple(a), tuple(m)))
                new.append((tuple(m), tuple(b)))
            elif len(s) == 3:
                a, b, c = (np.asarray(v) for v in s)
                ab, bc, ca = (a + b) / 2, (b + c) / 2, (c + a) / 2
                new.append((tuple(a), tuple(ab), tuple(ca)))
                new.append((tuple(ab), tuple(b), tuple(bc)))
                new.append((tuple(ca), tuple(bc), tuple(c)))
                new.append((tuple(ab), tuple(bc), tuple(ca)))
            else:
                raise InvalidArgumentError("quadrature supports dimension 1 or 2")
        simplices = new
    return simplices


def _simplex_measure(s) -> float:
    verts = [np.asarray(v, float) for v in s]
    m = len(verts) - 1
    edges = np.array([verts[j + 1] - verts[0] for j in range(m)])
    return abs(float(np.linalg.det(edges))) / math.factorial(m)


def _centroid_quadrature(simplices, fn: Callable) -> float:
    total = 0.0
    for s in simplices:
        c = np.mean(np.asarray(s, float), axis=0)
        total += _simplex_measure(s) * fn(tuple(c))
    return total


def donaldson_identity_check(u: SymplecticPotential, f: RelativePotential,
                             refine: int = 0) -> float:
    """Residual of int R_u f dmu = 2 int_bd f dsigma - int u^{ij} f_{ij} dmu.

    Both volume integrals use the centroid rule on a refined triangulation;
    the boundary pairing is exact for polynomial f.
    """
    poly = u.polytope
    if poly.dim > 2:
        raise InvalidArgumentError("quadrature supports dimension 1 or 2")
    base = [
        tuple(tuple(float(c) for c in v) for v in s)
        for s in moments.triangulate(poly)
    ]
    simplices = _refine(base, refine)

    def lhs_fn(x):
        return abreu_scalar_curvature(u, x) * f.value(x)

    def hess_fn(x):
        g = np.linalg.inv(u.hessian(x))
        return float(np.sum(g * f.hessian(x)))

    lhs = _centroid_quadrature(simplices, lhs_fn)
    boundary = _boundary_pairing(poly, f)
    rhs = 2.0 * boundary - _centroid_quadrature(simplices, hess_fn)
    return abs(lhs - rhs)


def _boundary_pairing(poly: LabelledPolytope, f: RelativePotential) -> float:
    if f.is_polynomial:
        coeffs = _poly_coeffs(f)
        return float(moments.boundary_polynomial_moment(poly, coeffs))
    total = 0.0
    for i in range(len(poly.facets)):
        for s, measure in moments._facet_simplices(poly, i):
            c = np.mean(np.asarray(s, float), axis=0)
            total += float(measure) * f.value(tuple(c))
    return total


def _poly_coeffs(f: RelativePotential) -> dict:
    import sympy as sp

    xs = _coords(f.dim)
    p = sp.Poly(sp.expand(f.expr), *xs)
    out = {}
    for mono, coeff in zip(p.monoms(), p.coeffs()):
        q = sp.Rational(coeff)
        out[tuple(int(e) for e in mono)] = Fraction(int(q.p), int(q.q))
    return out


# --------------------------------------------------------------------------
# averaging split on product polytopes


def average_split(f: RelativePotential, p1: LabelledPolytope,
                  p2: LabelledPolytope) -> tuple[RelativePotential, RelativePotential]:
    """Fiber averages f1(x) = avg_{P2} f(x, .) and f2(y) = avg_{P1} f(., y).

    Exact for polynomial f; other closed forms are averaged by quadrature and
    returned as degree-5 spline potentials (one-dimensional factors only).
    """
    n1, n2 = p1.dim, p2.dim
    if f.dim != n1 + n2:
        raise NotAProductError("function dimension does not match the product")
    if f.is_polynomial:
        coeffs = _poly_coeffs(f)
        vol1, *m1s = moments.polynomial_moments(
            p1, [{(0,) * n1: 1}] + [{alpha[:n1]: 1} for alpha in coeffs])
        vol2, *m2s = moments.polynomial_moments(
            p2, [{(0,) * n2: 1}] + [{alpha[n1:]: 1} for alpha in coeffs])
        c1: dict = {}
        c2: dict = {}
        for (alpha, c), m1, m2 in zip(coeffs.items(), m1s, m2s):
            a1, a2 = alpha[:n1], alpha[n1:]
            c1[a1] = c1.get(a1, Fraction(0)) + c * m2 / vol2
            c2[a2] = c2.get(a2, Fraction(0)) + c * m1 / vol1
        return (_poly_potential(n1, c1), _poly_potential(n2, c2))
    if n1 != 1 or n2 != 1:
        raise NotAProductError(
            "non-polynomial averaging is supported for 1D x 1D products only"
        )
    return (_average_numeric(f, p1, p2, first=True),
            _average_numeric(f, p1, p2, first=False))


def _poly_potential(dim: int, coeffs: dict) -> RelativePotential:
    import sympy as sp

    xs = _coords(dim)
    expr = sp.Integer(0)
    for alpha, c in coeffs.items():
        term = sp.Rational(c)
        for i, e in enumerate(alpha):
            term *= xs[i] ** e
        expr += term
    return RelativePotential(dim, sp.expand(expr))


def _average_numeric(f, p1, p2, first: bool, samples: int = 64) -> RelativePotential:
    own, other = (p1, p2) if first else (p2, p1)
    lo_o = min(float(v[0]) for v in other.vertices)
    hi_o = max(float(v[0]) for v in other.vertices)
    lo = min(float(v[0]) for v in own.vertices)
    hi = max(float(v[0]) for v in own.vertices)
    xs = np.linspace(lo, hi, samples)
    # midpoint rule along the fiber
    t = lo_o + (np.arange(samples) + 0.5) * (hi_o - lo_o) / samples
    vals = []
    for x in xs:
        pts = [(x, y) if first else (y, x) for y in t]
        vals.append(float(np.mean([f.value(p) for p in pts])))
    return RelativePotential.from_grid_samples([xs], vals, degree=5)


def split_defect(f: RelativePotential, f1: RelativePotential,
                 f2: RelativePotential, p1: LabelledPolytope,
                 p2: LabelledPolytope) -> float:
    """L2 distance of f - f1 - f2 to the split-affine functions on P1 x P2.

    Exact moment least squares for polynomial data; zero iff f splits as
    f1 + f2 up to affine summands.
    """
    from .polytope import product

    n1, n2 = p1.dim, p2.dim
    n = n1 + n2
    if not (f.is_polynomial and f1.is_polynomial and f2.is_polynomial):
        raise InvalidArgumentError("split defect requires polynomial data")
    big = product(p1, p2)
    g = dict(_poly_coeffs(f))
    for alpha, c in _poly_coeffs(f1).items():
        key = alpha + tuple([0] * n2)
        g[key] = g.get(key, Fraction(0)) - c
    for alpha, c in _poly_coeffs(f2).items():
        key = tuple([0] * n1) + alpha
        g[key] = g.get(key, Fraction(0)) - c
    basis = _affine_basis(n)
    m = len(basis)
    *flat, g2 = moments.polynomial_moments(
        big, [_poly_mul(a, b) for a in basis for b in basis]
        + [_poly_mul(g, a) for a in basis] + [_poly_mul(g, g)])
    gram = [flat[a * m:(a + 1) * m] for a in range(m)]
    s = flat[m * m:]
    sol = intlinalg.solve_exact(gram, s)
    if sol is None:
        raise InvalidPolytopeError("degenerate moment system")
    defect_sq = g2 - sum(c * sv for c, sv in zip(sol, s))
    return math.sqrt(max(float(defect_sq), 0.0))
