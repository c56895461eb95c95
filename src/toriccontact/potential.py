"""Symplectic potentials on labelled polytopes: Guillemin potential, Abreu
scalar curvature, the exact extremal affine function, the Donaldson integral
identity, and the averaging split of potentials on product polytopes.

Exact rational moments do all the linear algebra that must be exact (the
extremal affine function, boundary pairings, least-squares projections);
floating point enters only through curvature evaluation, which applies the
closed form of Abreu's curvature in the Hessian of the potential and its
third and fourth derivatives to all points at once, in fixed-size blocks.
It reads the labels as float normal and constant arrays.  `Grid.interior`
evaluates the labels on the whole mesh in floats and runs the exact rational
membership test only on points whose float value lies within its rounding
bound of zero, so its points are those of the exact test.

A polynomial relative potential is held as exact {exponent tuple: Fraction}
coefficients: a string or expression tree in integers, the coordinates,
+ - * /, and powers with non-negative integer exponents is parsed straight
into them, its partials are differentiated exactly once and evaluated in one
numpy pass, and `average_split`, `split_defect` and the Donaldson boundary
pairing integrate the coefficients.  Importing this module loads numpy.
sympy loads only for a closed form that is not such a polynomial (or is
given as a sympy object or in other syntax), for `expression_from_json`, and
when `RelativePotential.expr` is read, which builds the sympy expression of
a polynomial from its source.
"""

from __future__ import annotations

import ast
import itertools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
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


def _sympify(expr, dim: int) -> sp.Expr:
    import sympy as sp

    return sp.sympify(expr, locals={s.name: s for s in _coords(dim)})


def expression_from_json(node: dict, dim: int) -> sp.Expr:
    """Expression tree with node kinds const/coord/add/mul/pow/log."""
    import sympy as sp

    kind = node.get("kind")
    xs = _coords(dim)
    if kind == "const":
        return sp.Rational(frac(str(node["value"])))
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


# --------------------------------------------------------------------------
# exact polynomials: {exponent tuple: Fraction} without zero coefficients


# An expansion that may have more terms than this stays a sympy closed form:
# expanding a power of a sum such as (x0 + x1 + 1)**80 exactly takes seconds.
_MAX_TERMS = 1000


class _NotPolynomial(Exception):
    """Raised inside the polynomial parsers to hand the input to sympy."""


def _constant(dim: int, c) -> dict:
    return {(0,) * dim: Fraction(c)} if c else {}


def _coordinate(dim: int, i: int) -> dict:
    return {tuple(int(j == i) for j in range(dim)): Fraction(1)}


def _poly_add(p: dict, q: dict, sign: int = 1) -> dict:
    out = dict(p)
    for alpha, c in q.items():
        s = out.pop(alpha, 0) + sign * c
        if s:
            out[alpha] = s
    return out


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for a, ca in p.items():
        for b, cb in q.items():
            key = tuple(x + y for x, y in zip(a, b))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {alpha: c for alpha, c in out.items() if c}


def _parsed_mul(p: dict, q: dict) -> dict:
    if len(p) * len(q) > _MAX_TERMS:
        raise _NotPolynomial
    return _poly_mul(p, q)


def _parsed_pow(p: dict, e: int, dim: int) -> dict:
    if len(p) > 1 and math.comb(e + len(p) - 1, len(p) - 1) > _MAX_TERMS:
        raise _NotPolynomial
    out = _constant(dim, 1)
    while e:
        if e & 1:
            out = _poly_mul(out, p)
        e >>= 1
        if e:
            p = _poly_mul(p, p)
    return out


def _term_bound(expr) -> int:
    """An upper bound on the number of terms of a sympy polynomial expanded."""
    if expr.is_Add:
        return sum(map(_term_bound, expr.args))
    if expr.is_Mul:
        return math.prod(map(_term_bound, expr.args))
    if expr.is_Pow and expr.exp.is_Integer and expr.exp > 1:
        t = _term_bound(expr.base)
        return t if t == 1 or t > _MAX_TERMS else math.comb(int(expr.exp) + t - 1, t - 1)
    return 1


def _poly_diff(p: dict, i: int) -> dict:
    return {alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]: c * alpha[i]
            for alpha, c in p.items() if alpha[i]}


def _constant_value(p: dict) -> Fraction:
    """The value of a constant polynomial; `_NotPolynomial` for any other."""
    if any(any(alpha) for alpha in p):
        raise _NotPolynomial
    return next(iter(p.values()), Fraction(0))


def _parse_polynomial(text: str, dim: int) -> Optional[dict]:
    """`text` as a polynomial in x0..x{dim-1}, or None if it is not one in
    this grammar: integers, the coordinates, + - * /, unary + and -, and **
    with a non-negative integer exponent, dividing by non-zero constants only.
    sympy parses those to the same polynomial."""
    try:
        body = ast.parse(text, mode="eval").body
    except (SyntaxError, ValueError):
        return None
    coords = {f"x{i}": i for i in range(dim)}

    def walk(node) -> dict:
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return _constant(dim, node.value)
        if isinstance(node, ast.Name) and node.id in coords:
            return _coordinate(dim, coords[node.id])
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            return _poly_add({}, walk(node.operand), 1 if isinstance(node.op, ast.UAdd) else -1)
        if isinstance(node, ast.BinOp):
            op, left, right = node.op, walk(node.left), walk(node.right)
            if isinstance(op, (ast.Add, ast.Sub)):
                return _poly_add(left, right, 1 if isinstance(op, ast.Add) else -1)
            if isinstance(op, ast.Mult):
                return _parsed_mul(left, right)
            c = _constant_value(right)
            if isinstance(op, ast.Div) and c:
                return _poly_mul(left, _constant(dim, 1 / c))
            if isinstance(op, ast.Pow) and c.denominator == 1 and c >= 0:
                return _parsed_pow(left, int(c), dim)
        raise _NotPolynomial

    try:
        return walk(body)
    except (_NotPolynomial, RecursionError):
        return None


def _polynomial_from_json(node: dict, dim: int) -> Optional[dict]:
    """The tree as a polynomial when it is built from const, coord, add, mul
    and pow with a non-negative integer exponent; None otherwise, and on a
    malformed tree, which `expression_from_json` then reports."""

    def walk(node) -> dict:
        kind = node.get("kind")
        if kind == "const":
            return _constant(dim, frac(str(node["value"])))
        if kind == "coord":
            idx = int(node["index"])
            if 0 <= idx < dim:
                return _coordinate(dim, idx)
        elif kind == "add":
            return reduce(_poly_add, map(walk, node["args"]), {})
        elif kind == "mul":
            return reduce(_parsed_mul, map(walk, node["args"]), _constant(dim, 1))
        elif kind == "pow":
            e = node["exponent"]
            if type(e) is int and e >= 0:
                return _parsed_pow(walk(node["base"]), e, dim)
        raise _NotPolynomial

    try:
        return walk(node)
    except (_NotPolynomial, AttributeError, KeyError, TypeError, ValueError,
            RecursionError):
        return None


def _check_closed_form(expr, dim: int) -> tuple[sp.Expr, Optional[dict]]:
    """A sympy closed form in the coordinate symbols x_i, and its exact
    coefficients when it is a polynomial whose coefficients are rational or
    float (a float converts exactly) and whose expansion is bounded by
    `_MAX_TERMS` terms; otherwise None.  A name other than x0..x{dim-1}, or a
    non-finite constant, is an `InvalidArgumentError`."""
    import sympy as sp

    if not isinstance(expr, sp.Expr):
        return expr, None
    xs = {s.name: s for s in _coords(dim)}
    unknown = sorted(str(s) for s in expr.free_symbols if str(s) not in xs)
    if unknown:
        raise InvalidArgumentError(
            f"unknown name {', '.join(unknown)} in a relative potential; "
            f"its coordinates are {', '.join(xs)}")
    if expr.has(sp.zoo, sp.oo, -sp.oo, sp.nan):
        raise InvalidArgumentError("relative potential has a non-finite constant")
    expr = expr.xreplace({s: xs[str(s)] for s in expr.free_symbols})
    if not expr.is_polynomial(*xs.values()) or _term_bound(expr) > _MAX_TERMS:
        return expr, None
    poly = sp.Poly(expr, *xs.values())
    coeffs = {}
    for mono, c in zip(poly.monoms(), poly.coeffs()):
        if not (c.is_Rational or c.is_Float):
            return expr, None
        q = sp.Rational(c)
        if q:
            coeffs[tuple(int(e) for e in mono)] = Fraction(int(q.p), int(q.q))
    return expr, coeffs


def _monomial_table(polys: Sequence[dict], dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The monomials of `polys` as exponent rows (terms, dim), and the float
    coefficients of each polynomial as a column of a (terms, len(polys)) array."""
    rows: dict = {}
    for p in polys:
        for alpha in p:
            rows.setdefault(alpha, len(rows))
    exponents = np.array(list(rows), dtype=float).reshape(len(rows), dim)
    coeffs = np.zeros((len(rows), len(polys)))
    for j, p in enumerate(polys):
        for alpha, c in p.items():
            coeffs[rows[alpha], j] = float(c)
    return exponents, coeffs


def _evaluate(table: tuple[np.ndarray, np.ndarray], points: np.ndarray) -> np.ndarray:
    """Every polynomial of a `_monomial_table` at every row of `points`, as
    a (len(points), polys) array."""
    exponents, coeffs = table
    monomials = np.ones((len(points), len(exponents)))
    for i, column in enumerate(exponents.T):
        if column.any():
            monomials *= points[:, i, None] ** column
    return monomials @ coeffs


@dataclass(frozen=True)
class _Polynomial:
    """Exact coefficients for `RelativePotential`, and how to build their
    sympy expression if `expr` is read."""

    coeffs: dict
    make_expr: Callable[[], "sp.Expr"]


# Orders of the partial derivatives that the curvature reads from a potential.
_ORDERS = (2, 3, 4)


@lru_cache(maxsize=None)
def _partial_indices(n: int, k: int) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """The distinct k-th partials in n variables, as sorted index tuples, and
    for every index (i_1, ..., i_k) the position of its sorted tuple."""
    distinct = tuple(itertools.combinations_with_replacement(range(n), k))
    position = {d: pos for pos, d in enumerate(distinct)}
    full = np.empty((n,) * k, dtype=np.intp)
    for idx in np.ndindex(*full.shape):
        full[idx] = position[tuple(sorted(idx))]
    full.setflags(write=False)  # shared by every caller
    return distinct, full


def _all_partials(f, dim: int, diff: Callable) -> list:
    """Every distinct partial of f of the orders in `_ORDERS`, in
    `_partial_indices` order, each taken from one of the order below."""
    partials = {(): f}
    for k in range(1, _ORDERS[-1] + 1):
        for d in itertools.combinations_with_replacement(range(dim), k):
            partials[d] = diff(partials[d[:-1]], d[-1])
    return [partials[d] for k in _ORDERS for d in _partial_indices(dim, k)[0]]


class RelativePotential:
    """Relative part f of a symplectic potential u = u0 + f.

    Backed by exact polynomial coefficients, by a closed-form sympy
    expression that is not such a polynomial, or by grid samples
    interpolated with a degree >= 5 spline so that the fourth derivatives the
    curvature reads exist.  An expression is parsed at construction, so bad
    input fails there: a name other than the coordinates x0..x{dim-1} or a
    non-finite constant is an `InvalidArgumentError`.  A polynomial (from an
    int or Fraction, a string or tree in the grammar of `_parse_polynomial`,
    or a sympy polynomial with rational or float coefficients) of at most
    `_MAX_TERMS` terms evaluates without sympy, and `expr` builds its sympy
    expression only when read.  Any other closed form is differentiated and
    compiled when first evaluated.
    """

    def __init__(self, dim: int, expr: Optional[sp.Expr] = None,
                 spline=None, spline_degree: Optional[int] = None):
        self.dim = dim
        self._spline = spline
        self.spline_degree = spline_degree
        self._coeffs: Optional[dict] = None
        self._expr = None
        self._make_expr: Optional[Callable] = None
        if expr is None:
            return
        if isinstance(expr, _Polynomial):
            self._coeffs, self._make_expr = expr.coeffs, expr.make_expr
        elif isinstance(expr, numbers.Rational):
            self._coeffs = _constant(dim, Fraction(expr.numerator, expr.denominator))
            self._make_expr = lambda: _sympify(expr, dim)
        elif isinstance(expr, str) and (coeffs := _parse_polynomial(expr, dim)) is not None:
            self._coeffs, self._make_expr = coeffs, lambda: _sympify(expr, dim)
        else:
            self._expr, self._coeffs = _check_closed_form(_sympify(expr, dim), dim)

    @property
    def expr(self) -> Optional[sp.Expr]:
        """The closed form as a sympy expression; None for a spline."""
        if self._expr is None and self._make_expr is not None:
            self._expr = self._make_expr()
        return self._expr

    @classmethod
    def zero(cls, dim: int) -> "RelativePotential":
        return cls(dim, 0)

    @classmethod
    def from_expression(cls, dim: int, expr) -> "RelativePotential":
        if isinstance(expr, dict):
            coeffs = _polynomial_from_json(expr, dim)
            if coeffs is None:
                return cls(dim, expression_from_json(expr, dim))
            return cls(dim, _Polynomial(coeffs, lambda: expression_from_json(expr, dim)))
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
        """Whether f is held as exact polynomial coefficients."""
        return self._coeffs is not None

    @property
    def _zero(self) -> bool:
        return self._coeffs == {}

    def value(self, x) -> float:
        return float(self._values(np.asarray([x], float))[0])

    def hessian(self, x) -> np.ndarray:
        return self._partials(np.asarray([x], float))[0][0]

    @cached_property
    def _value_table(self) -> tuple[np.ndarray, np.ndarray]:
        return _monomial_table([self._coeffs], self.dim)

    @cached_property
    def _partial_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Every partial that `_partials` reads, differentiated exactly."""
        return _monomial_table(_all_partials(self._coeffs, self.dim, _poly_diff), self.dim)

    @cached_property
    def _value_fn(self) -> Callable:
        import sympy as sp

        return sp.lambdify(_coords(self.dim), self._expr, "numpy")

    @cached_property
    def _partials_fn(self) -> Callable:
        """One compiled function of the coordinates that gives every partial
        that `_partials` reads, for a closed form that is not a polynomial."""
        import sympy as sp

        xs = _coords(self.dim)
        return sp.lambdify(xs, _all_partials(self._expr, self.dim,
                                             lambda e, i: sp.diff(e, xs[i])), "numpy")

    def _values(self, points: np.ndarray) -> np.ndarray:
        """f at each row of `points`."""
        if self._coeffs is not None:
            return _evaluate(self._value_table, points)[:, 0]
        if self._expr is not None:
            return np.broadcast_to(np.asarray(self._value_fn(*points.T), float),
                                   (len(points),))
        return self._spline_eval(points, ())

    def _partials(self, points: np.ndarray) -> tuple[np.ndarray, ...]:
        """The partial derivative tensors of f of each order in `_ORDERS` at
        each row of `points`, of shape (len(points),) + (dim,) * order."""
        n, count = self.dim, len(points)
        if self._coeffs is not None:
            flat = _evaluate(self._partial_table, points)
        else:
            if self._expr is not None:
                columns = self._partials_fn(*points.T)
            else:
                columns = [self._spline_eval(points, d)
                           for k in _ORDERS for d in _partial_indices(n, k)[0]]
            flat = np.stack([np.broadcast_to(np.asarray(c, float), (count,))
                             for c in columns], axis=1)
        tensors, start = [], 0
        for k in _ORDERS:
            distinct, full = _partial_indices(n, k)
            tensors.append(flat[:, start + full])
            start += len(distinct)
        return tuple(tensors)

    def _spline_eval(self, points: np.ndarray, partial: tuple[int, ...]) -> np.ndarray:
        if self.dim == 1:
            s = self._spline.derivative(len(partial)) if partial else self._spline
            return s(points[:, 0])
        return self._spline(points[:, 0], points[:, 1], dx=partial.count(0),
                            dy=partial.count(1), grid=False)


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

    def hessian(self, x) -> np.ndarray:
        _, _, h = _guillemin_hessian(self.polytope, x)
        return h + self.relative.hessian(x)


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
        # The mesh in np.ndindex order, and every label on it in floats.  A
        # computed value further from 0 than its rounding bound (a generous
        # multiple of the sum-of-products error bound, plus the least normal
        # float for underflow) has the sign of the exact value; only points
        # with a value inside the bound get the exact test, on the float
        # point read as a rational.
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
        normals, constants = (np.array(a, float) for a in poly._float_labels)
        values = mesh @ normals.T + constants
        bound = (4 * (n + 2) * np.finfo(float).eps
                 * (np.abs(mesh) @ np.abs(normals).T + np.abs(constants))
                 + np.finfo(float).tiny)
        keep = (values > bound).all(axis=1)
        unsure = ~keep & ~(values < -bound).any(axis=1)
        pts = mesh.tolist()
        for k in np.flatnonzero(unsure):
            keep[k] = all(float(f(pts[k])) > 0 for f in poly.facets)
        return cls(tuple(tuple(x) for x, kept in zip(pts, keep) if kept),
                   spacing, per_axis, margin_cells)


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
    """Residual norms of R_u - R_E over a grid, with the diagnostics that
    explain a bad one: where |R_u - R_E| is largest, how close the points
    come to a facet (l_i / |n_i|) and how close the Hessian comes to
    singular. The diagnostics are None on an empty grid."""

    extremal_affine: ExtremalAffine
    residual_sup: float
    residual_l2: float
    grid_per_axis: int
    grid_margin_cells: int
    points: int
    argmax: Optional[tuple[float, ...]]
    min_facet_distance: Optional[float]
    min_hessian_eigenvalue: Optional[float]

    def to_json(self) -> dict:
        return {
            "extremal_affine": self.extremal_affine.to_json(),
            "residual_sup": self.residual_sup,
            "residual_l2": self.residual_l2,
            "grid": {"per_axis": self.grid_per_axis,
                     "margin_cells": self.grid_margin_cells},
            "diagnostics": {
                "points": self.points,
                "argmax": None if self.argmax is None else list(self.argmax),
                "min_facet_distance": self.min_facet_distance,
                "min_hessian_eigenvalue": self.min_hessian_eigenvalue,
            },
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


# Points per block of the batched curvature, so that its working memory (the
# fourth-derivative tensors, dim**4 floats a point) does not grow with the grid.
_BLOCK_POINTS = 4096


@dataclass(frozen=True)
class _CurvatureScan:
    """R_u at each point, with the least facet distance l_i / |n_i| and the
    least Hessian eigenvalue over the points (inf when there are none)."""

    curvature: np.ndarray
    min_facet_distance: float
    min_hessian_eigenvalue: float


def _curvature_scan(u: SymplecticPotential, points) -> _CurvatureScan:
    """Abreu's scalar curvature R_u = -sum_ab d_a d_b G_ab, G = H^-1, at the
    points (rows), in grid order.

    Since d_a d_b G = G H_a G H_b G + G H_b G H_a G - G H_ab G, with H_a and
    H_ab the derivatives of the Hessian H,

        R = sum_ab (G H_ab G)_ab - (G H_a G H_b G)_ab - (G H_b G H_a G)_ab.

    The canonical part gives H = 1/2 sum n n^T / l, H_a = -1/2 sum n n^T n_a
    / l^2 and H_ab = sum n n^T n_a n_b / l^3 over the facets; the relative
    part adds its own partials. The first point outside the polytope (some
    l_i <= 0 or NaN, `OutOfDomainError`) or with a Hessian that is not
    positive definite (`NotConvexHereError`) decides the error.
    """
    poly, n = u.polytope, u.polytope.dim
    normals, constants = (np.array(a, float) for a in poly._float_labels)
    m = len(constants)
    norms = np.sqrt((normals ** 2).sum(axis=1))
    # the outer powers n^(x)k of each normal, flattened into one row per facet
    outer, powers = normals, {}
    for k in range(2, _ORDERS[-1] + 1):
        outer = outer[..., None] * normals.reshape((m,) + (1,) * (k - 1) + (n,))
        powers[k] = outer.reshape(m, -1)
    pts = np.asarray(points, float).reshape(-1, n)
    curvature = np.empty(len(pts))
    min_distance = min_eigenvalue = math.inf
    for start in range(0, len(pts), _BLOCK_POINTS):
        x = pts[start:start + _BLOCK_POINTS]
        # one matrix-vector product per point, so l_i(x) rounds as in
        # `guillemin_eval` and the domain decisions agree with it
        ls = (normals @ x[:, :, None])[..., 0] + constants
        inside = (ls > 0).all(axis=1)
        stop = len(x) if inside.all() else int(inside.argmin())
        x, ls = x[:stop], ls[:stop]
        w = 1.0 / ls
        hess = ((0.5 * w) @ powers[2]).reshape(-1, n, n)
        d3 = ((-0.5 * w * w) @ powers[3]).reshape((-1,) + (n,) * 3)
        d4 = ((w * w * w) @ powers[4]).reshape((-1,) + (n,) * 4)
        if not u.relative._zero:
            f2, f3, f4 = u.relative._partials(x)
            hess, d3, d4 = hess + f2, d3 + f3, d4 + f4
        try:
            np.linalg.cholesky(hess)
        except np.linalg.LinAlgError:
            # every point checked here comes before the first one outside
            raise NotConvexHereError("potential Hessian is not positive definite") from None
        if stop < len(inside):
            raise OutOfDomainError("point is not strictly interior")
        g = np.linalg.inv(hess)
        e = np.einsum("pai,pijb->pajb", g, d3)  # e[p, a, j, b] = (G H_b)_aj
        v = np.einsum("paja->pj", e)
        curvature[start:start + stop] = (
            (np.einsum("pai,pijab->pjb", g, d4) * g).sum(axis=(1, 2))
            - np.einsum("pj,pjk,pk->p", v, g, v)
            - np.einsum("pajb,pjk,pbka->p", e, g, e)
        )
        min_distance = min(min_distance, float((ls / norms).min()))
        min_eigenvalue = min(min_eigenvalue, float(np.linalg.eigvalsh(hess)[:, 0].min()))
    return _CurvatureScan(curvature, min_distance, min_eigenvalue)


def abreu_scalar_curvature(u: SymplecticPotential, x) -> float:
    """R_u(x) = -sum_ab d_a d_b (H^-1)_ab at one point, in closed form."""
    return float(_curvature_scan(u, [x]).curvature[0])


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
    for every affine f, solved exactly from rational moments once per
    polytope object (`LabelledPolytope._extremal_affine` keeps it)."""
    return poly._extremal_affine


def _solve_extremal_affine(poly: LabelledPolytope) -> ExtremalAffine:
    basis = _affine_basis(poly.dim)
    m = len(basis)
    flat = moments.polynomial_moments(poly, [_poly_mul(a, b) for a in basis for b in basis])
    gram = [flat[a * m:(a + 1) * m] for a in range(m)]
    rhs = [2 * c for c in moments.boundary_polynomial_moments(poly, basis)]
    sol = intlinalg.solve_exact(gram, rhs)
    if sol is None:
        raise InvalidPolytopeError("degenerate moment system")
    return ExtremalAffine(tuple(sol[1:]), sol[0])


def extremality_residual(u: SymplecticPotential, grid: Grid) -> ExtremalReport:
    """Sup and rms norms of R_u - R_E over the grid, with diagnostics."""
    re = extremal_affine_function(u.polytope)
    points = np.array(grid.points, float).reshape(len(grid.points), u.polytope.dim)
    scan = _curvature_scan(u, points)
    re_values = points @ np.array([float(c) for c in re.normal]) + float(re.constant)
    arr = scan.curvature - re_values
    if not arr.size:
        return ExtremalReport(re, 0.0, 0.0, grid.per_axis, grid.margin_cells,
                              0, None, None, None)
    worst = int(np.argmax(np.abs(arr)))
    return ExtremalReport(
        re,
        float(np.max(np.abs(arr))),
        float(np.sqrt(np.mean(arr ** 2))),
        grid.per_axis,
        grid.margin_cells,
        len(arr),
        tuple(points[worst].tolist()),
        scan.min_facet_distance,
        scan.min_hessian_eigenvalue,
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
    centroids = np.array([np.mean(np.asarray(s, float), axis=0) for s in simplices])
    measures = np.array([_simplex_measure(s) for s in simplices])
    curvature = _curvature_scan(u, centroids).curvature
    inverse = np.linalg.inv(np.array([u.hessian(tuple(c)) for c in centroids]))
    pairing = (inverse * f._partials(centroids)[0]).sum(axis=(1, 2))
    lhs = float(measures @ (curvature * f._values(centroids)))
    boundary = _boundary_pairing(poly, f)
    rhs = 2.0 * boundary - float(measures @ pairing)
    return abs(lhs - rhs)


def _boundary_pairing(poly: LabelledPolytope, f: RelativePotential) -> float:
    if f.is_polynomial:
        return float(moments.boundary_polynomial_moment(poly, f._coeffs))
    total = 0.0
    for i in range(len(poly.facets)):
        for s, measure in moments._facet_simplices(poly, i):
            c = np.mean(np.asarray(s, float), axis=0)
            total += float(measure) * f.value(tuple(c))
    return total


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
        coeffs = f._coeffs
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
    """The polynomial with these coefficients; its sympy expression is built
    from them only if `expr` is read."""
    coeffs = {alpha: c for alpha, c in coeffs.items() if c}

    def make_expr() -> sp.Expr:
        import sympy as sp

        xs = _coords(dim)
        expr = sp.Integer(0)
        for alpha, c in coeffs.items():
            term = sp.Rational(c)
            for i, e in enumerate(alpha):
                term *= xs[i] ** e
            expr += term
        return sp.expand(expr)

    return RelativePotential(dim, _Polynomial(coeffs, make_expr))


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
    g = _poly_add(f._coeffs, {alpha + (0,) * n2: c for alpha, c in f1._coeffs.items()}, -1)
    g = _poly_add(g, {(0,) * n1 + alpha: c for alpha, c in f2._coeffs.items()}, -1)
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
