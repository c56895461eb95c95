import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from sympy.polys.matrices import DomainMatrix

import toriccontact as tc
from toriccontact import potential as pot
from toriccontact.errors import (
    InvalidArgumentError,
    NotConvexHereError,
    OutOfDomainError,
)

from conftest import rand_unimodular

X0 = sp.Symbol("x0", real=True)
X1 = sp.Symbol("x1", real=True)


def test_guillemin_segment():
    seg = tc.segment()
    v, g, h = tc.guillemin_eval(seg, (0.5,))
    assert abs(v - (-math.log(2) / 2)) < 1e-12
    assert abs(h[0, 0] - 2.0) < 1e-12
    with pytest.raises(OutOfDomainError):
        tc.guillemin_eval(seg, (1.0,))
    with pytest.raises(OutOfDomainError):
        tc.guillemin_eval(seg, (1.5,))


def test_guillemin_square_center():
    box = tc.unit_box(2)
    v, g, h = tc.guillemin_eval(box, (0.5, 0.5))
    assert abs(v - (-math.log(2))) < 1e-12
    assert np.allclose(h, np.diag([2.0, 2.0]))
    assert np.allclose(g, 0.0)


def guillemin_exact_labels(poly, x):
    """Reference: each label evaluated exactly in Fractions, then rounded once."""
    n = poly.dim
    value = 0.0
    grad = np.zeros(n)
    hess = np.zeros((n, n))
    for f in poly.facets:
        li = float(f(x))
        nv = np.array([float(c) for c in f.normal])
        value += 0.5 * li * math.log(li)
        grad += 0.5 * (math.log(li) + 1.0) * nv
        hess += 0.5 * np.outer(nv, nv) / li
    return value, grad, hess


def random_rational_polytope(rng):
    """A random characteristic simplex, product or cut square, translated by a
    rational vector, with every label scaled by its own positive rational."""
    from conftest import rand_characteristic_simplex

    kind = rng.randrange(3)
    if kind == 0:
        p = rand_characteristic_simplex(rng.randint(1, 3), rng)
    elif kind == 1:
        p = tc.product(rand_characteristic_simplex(1, rng),
                       rand_characteristic_simplex(rng.randint(1, 2), rng))
    else:
        a, b = Fraction(rng.randint(2, 9), 3), Fraction(rng.randint(2, 9), 4)
        cut = Fraction(rng.randint(1, 9), 10)
        p = tc.LabelledPolytope(2, [
            tc.AffineFunction((1, 0), 0), tc.AffineFunction((-1, 0), a),
            tc.AffineFunction((0, 1), 0), tc.AffineFunction((0, -1), b),
            tc.AffineFunction((-1, -1), a + b - cut * min(a, b)),
        ])
    t = [Fraction(rng.randint(-20, 20), rng.randint(1, 7)) for _ in range(p.dim)]
    facets = []
    for f in p.facets:
        r = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        shifted = f.constant - sum(nc * ti for nc, ti in zip(f.normal, t))
        facets.append(tc.AffineFunction(tuple(r * c for c in f.normal), r * shifted))
    return tc.LabelledPolytope(p.dim, facets)


def random_interior_point(poly, rng):
    weights = [rng.uniform(1.0, 2.0) for _ in poly.vertices]
    total = sum(weights)
    return tuple(sum(w * float(v[i]) for w, v in zip(weights, poly.vertices)) / total
                 for i in range(poly.dim))


def test_guillemin_float_labels_match_exact_labels():
    rng = random.Random(12)
    for _ in range(40):
        poly = random_rational_polytope(rng)
        for _ in range(5):
            x = random_interior_point(poly, rng)
            v, g, h = tc.guillemin_eval(poly, x)
            rv, rg, rh = guillemin_exact_labels(poly, x)
            # relative to the size of the summed terms, which may cancel
            ls = [float(f(x)) for f in poly.facets]
            normals = [np.array([float(c) for c in f.normal]) for f in poly.facets]
            v_scale = sum(abs(0.5 * li * math.log(li)) for li in ls)
            g_scale = sum(abs(0.5 * (math.log(li) + 1.0)) * np.linalg.norm(nv)
                          for li, nv in zip(ls, normals))
            h_scale = sum(0.5 * (nv @ nv) / li for li, nv in zip(ls, normals))
            assert abs(v - rv) <= 1e-12 * v_scale
            assert np.linalg.norm(g - rg) <= 1e-12 * g_scale
            assert np.linalg.norm(h - rh) <= 1e-12 * h_scale


def test_zero_relative_potential():
    for n in (1, 2, 3):
        z = tc.RelativePotential.zero(n)
        assert z.expr == 0 and z.expr == sp.Integer(0)
        assert z.is_polynomial
        assert z.value((0.3,) * n) == 0.0
        assert np.array_equal(z.hessian((0.3,) * n), np.zeros((n, n)))
    # canonical Hessians: the Guillemin Hessian plus nothing, bit for bit where
    # every normal is a signed unit vector (boxes and segments)
    rng = random.Random(5)
    for poly in (tc.segment(), tc.segment((1, 2)), tc.unit_box(2), tc.unit_box(3)):
        u = tc.SymplecticPotential.canonical(poly)
        for _ in range(5):
            x = random_interior_point(poly, rng)
            assert np.array_equal(u.hessian(x), guillemin_exact_labels(poly, x)[2])
    poly = tc.standard_simplex(2)
    u = tc.SymplecticPotential.canonical(poly)
    x = random_interior_point(poly, rng)
    assert np.array_equal(u.hessian(x), tc.guillemin_eval(poly, x)[2])


def test_hessian_path_matches_guillemin_eval():
    rng = random.Random(21)
    for _ in range(20):
        poly = random_rational_polytope(rng)
        u = tc.SymplecticPotential.canonical(poly)
        x = random_interior_point(poly, rng)
        assert np.array_equal(u.hessian(x), tc.guillemin_eval(poly, x)[2])
    u = tc.SymplecticPotential.canonical(tc.segment())
    for x in ((1.0,), (1.5,), (math.nan,)):
        with pytest.raises(OutOfDomainError):
            u.hessian(x)


def test_guillemin_derivatives_match_finite_differences():
    rng = random.Random(4)
    box = tc.unit_box(2)
    for _ in range(5):
        x = (rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8))
        _, g, h = tc.guillemin_eval(box, x)
        eps = 1e-5
        for i in range(2):
            xp = list(x); xm = list(x)
            xp[i] += eps; xm[i] -= eps
            vp = tc.guillemin_eval(box, xp)[0]
            vm = tc.guillemin_eval(box, xm)[0]
            assert abs((vp - vm) / (2 * eps) - g[i]) < 1e-8
            gp = tc.guillemin_eval(box, xp)[1]
            gm = tc.guillemin_eval(box, xm)[1]
            assert np.allclose((gp - gm) / (2 * eps), h[i], atol=1e-7)


def test_abreu_curvature_canonical():
    u = tc.SymplecticPotential.canonical(tc.segment())
    for x in (0.2, 0.41, 0.5, 0.77):
        assert abs(tc.abreu_scalar_curvature(u, (x,)) - 4.0) < 1e-9
    u2 = tc.SymplecticPotential.canonical(tc.unit_box(2))
    for x in ((0.3, 0.6), (0.5, 0.5), (0.82, 0.17)):
        assert abs(tc.abreu_scalar_curvature(u2, x) - 8.0) < 1e-8


def test_abreu_curvature_perturbation_continuity():
    seg = tc.segment()
    vals = []
    for eps in (0.0, 1e-3, 2e-3):
        rel = tc.RelativePotential(1, eps * X0 ** 2)
        u = tc.SymplecticPotential(seg, rel)
        vals.append(tc.abreu_scalar_curvature(u, (0.4,)))
    assert abs(vals[0] - 4.0) < 1e-9
    assert abs(vals[1] - vals[0]) < 0.1
    assert abs(vals[2] - vals[1]) >= abs(vals[1] - vals[0]) / 2


def test_abreu_rejects_nonconvex():
    # a large concave relative part destroys positivity near the center
    rel = tc.RelativePotential(1, -10 * X0 ** 2)
    u = tc.SymplecticPotential(tc.segment(), rel)
    with pytest.raises(NotConvexHereError):
        tc.abreu_scalar_curvature(u, (0.5,))


# Fourth-order central differences of the inverse Hessian: an oracle that
# shares no formula with the closed form.
FD_D1 = {-2: 1.0 / 12, -1: -8.0 / 12, 1: 8.0 / 12, 2: -1.0 / 12}
FD_D2 = {-2: -1.0 / 12, -1: 16.0 / 12, 0: -30.0 / 12, 1: 16.0 / 12, 2: -1.0 / 12}


def fd_curvature(u, x, shrink=1):
    """R_u(x) = -sum_ij d^2 (H^-1)_ij / dx_i dx_j by 4th-order differences
    with step min l_i / (6 max |n_i|), divided by `shrink`."""
    n = u.polytope.dim
    x = np.asarray(x, float)
    normals = np.array([[float(c) for c in f.normal] for f in u.polytope.facets])
    ls = np.array([float(f(tuple(x))) for f in u.polytope.facets])
    h = float(ls.min() / (6.0 * np.sqrt((normals ** 2).sum(axis=1)).max())) / shrink

    def g(point):
        return np.linalg.inv(u.hessian(tuple(point)))

    total = 0.0
    for i in range(n):
        acc = 0.0
        for a, w in FD_D2.items():
            y = x.copy()
            y[i] += a * h
            acc += w * g(y)[i, i]
        total += acc / (h * h)
    for i in range(n):
        for j in range(i + 1, n):
            acc = 0.0
            for a, wa in FD_D1.items():
                for b, wb in FD_D1.items():
                    y = x.copy()
                    y[i] += a * h
                    y[j] += b * h
                    acc += wa * wb * g(y)[i, j]
            total += 2.0 * acc / (h * h)
    return -total


def exact_curvature(poly, rel, point):
    """R = -sum_ab d_a d_b (Hess u)^-1_ab for u = 1/2 sum l log l + rel, with
    every derivative taken symbolically, at a rational point p.

    The second derivatives of (Hess u)^-1 at p depend only on the Taylor
    polynomial of degree 2 of Hess u at p, so the inverse is taken of that
    polynomial matrix in t = x - p, which keeps the expressions small.
    """
    n = poly.dim
    xs, ts = pot._coords(n), sp.symbols(f"t0:{n}")
    at_p = dict(zip(xs, (sp.Rational(c) for c in point)))
    ls = [sum(sp.Rational(c) * xi for c, xi in zip(f.normal, xs)) + sp.Rational(f.constant)
          for f in poly.facets]
    hess = sp.hessian(sum(l * sp.log(l) for l in ls) / 2 + rel, xs)

    def taylor2(h):
        grad = [sp.diff(h, xi) for xi in xs]
        return (h.subs(at_p) + sum(g.subs(at_p) * t for g, t in zip(grad, ts))
                + sum(sp.diff(grad[a], xs[b]).subs(at_p) * ts[a] * ts[b]
                      for a in range(n) for b in range(n)) / 2)

    jet = DomainMatrix.from_Matrix(hess.applyfunc(taylor2))
    adjugate = jet.adjugate().to_Matrix()
    det = jet.det().as_expr()

    def at_0(expr, *ts_):
        """d^k expr / dt_a ... at t = 0, from the coefficients of the polynomial."""
        term = sp.Mul(*ts_) if ts_ else sp.Integer(1)
        factor = 2 if len(ts_) == 2 and ts_[0] == ts_[1] else 1
        return factor * sp.Poly(expr, *ts).coeff_monomial(term)

    # d_a d_b (A / D) at t = 0 by the quotient rule, for A = adjugate[a, b]
    d0 = at_0(det)
    total = 0
    for a in range(n):
        for b in range(n):
            ta, tb, num = ts[a], ts[b], adjugate[a, b]
            total += (at_0(num, ta, tb) / d0
                      - (at_0(num, ta) * at_0(det, tb) + at_0(num, tb) * at_0(det, ta)) / d0 ** 2
                      - at_0(num) * at_0(det, ta, tb) / d0 ** 2
                      + 2 * at_0(num) * at_0(det, ta) * at_0(det, tb) / d0 ** 3)
    return -total


def fraction_inverse(m):
    """The inverse of a square matrix of Fractions, by Gauss-Jordan elimination."""
    n = len(m)
    rows = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(m)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return [r[n:] for r in rows]


def jet_curvature(poly, rel, point):
    """R = -sum_ab d_a d_b (Hess u)^-1_ab at a rational point p, for
    u = 1/2 sum l log l + rel with `rel` given as {exponents: Fraction}, in
    exact degree-2 Taylor jets in t = x - p.

    A jet is {monomial in t of degree <= 2: n x n matrix}.  Hess u has the
    jet of 1/2 sum n n^T / l(p + t), with 1/l = 1/l0 - <n,t>/l0^2 +
    <n,t>^2/l0^3, plus the Taylor polynomial of the Hessian of `rel`.  With
    H = H0 + D, G0 = H0^-1 by exact elimination and M = G0 D, the inverse is
    G0 - M G0 + M M G0 to degree 2.
    """
    n = len(point)
    p = [Fraction(c) for c in point]

    def mono(*idx):
        return tuple(sum(1 for i in idx if i == k) for k in range(n))

    def add(jet, key, a, b, value):
        jet.setdefault(key, [[Fraction(0)] * n for _ in range(n)])[a][b] += value

    def diff(q, i):
        return {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in q.items() if e[i]}

    def at_p(q):
        return sum((c * math.prod(pi ** ei for pi, ei in zip(p, e)) for e, c in q.items()),
                   Fraction(0))

    hess = {}
    for f in poly.facets:
        nu = [Fraction(c) for c in f.normal]
        l0 = sum(c * x for c, x in zip(nu, p)) + Fraction(f.constant)
        for a in range(n):
            for b in range(n):
                w = nu[a] * nu[b] / 2
                add(hess, mono(), a, b, w / l0)
                for c in range(n):
                    add(hess, mono(c), a, b, -w * nu[c] / l0 ** 2)
                    for d in range(n):
                        add(hess, mono(c, d), a, b, w * nu[c] * nu[d] / l0 ** 3)
    for a in range(n):
        for b in range(n):
            h = diff(diff(rel, a), b)
            add(hess, mono(), a, b, at_p(h))
            for c in range(n):
                add(hess, mono(c), a, b, at_p(diff(h, c)))
                for d in range(n):
                    add(hess, mono(c, d), a, b, at_p(diff(diff(h, c), d)) / 2)

    def mul(x, y):
        out = {}
        for kx, mx in x.items():
            for ky, my in y.items():
                key = tuple(i + j for i, j in zip(kx, ky))
                if sum(key) <= 2:
                    for a in range(n):
                        for b in range(n):
                            add(out, key, a, b, sum(mx[a][k] * my[k][b] for k in range(n)))
        return out

    g0 = {mono(): fraction_inverse(hess[mono()])}
    m = mul(g0, {k: v for k, v in hess.items() if sum(k)})
    inverse = {}
    for sign, jet in ((-1, mul(m, g0)), (1, mul(mul(m, m), g0))):
        for key, mat in jet.items():
            for a in range(n):
                for b in range(n):
                    add(inverse, key, a, b, sign * mat[a][b])
    # d_a d_b t_a t_b is 1 for a != b and 2 for a == b
    return -sum((1 + (a == b)) * inverse[mono(a, b)][a][b]
                for a in range(n) for b in range(n))


def rational_interior_point(poly, rng):
    weights = [rng.randint(1, 3) for _ in poly.vertices]
    return tuple(sum(w * v[i] for w, v in zip(weights, poly.vertices)) / sum(weights)
                 for i in range(poly.dim))


def convex_polynomial(poly, point, rng):
    """A quadratic-to-quartic polynomial, scaled so that u stays convex at
    `point` with room to spare."""
    xs = pot._coords(poly.dim)
    forms = [sum(rng.randint(-2, 2) * xi for xi in xs) + rng.randint(-1, 1) for _ in range(2)]
    expr = (forms[0] ** 2 + sp.Rational(1, 3) * forms[1] ** 3 + sp.Rational(1, 4) * forms[0] ** 4
            + rng.randint(0, 2) * xs[0] * xs[-1])
    expr = sp.expand(expr)
    canonical = tc.SymplecticPotential.canonical(poly).hessian(tuple(float(c) for c in point))
    scale = sp.Rational(1, 2)
    while True:
        rel = tc.RelativePotential(poly.dim, scale * expr)
        hess = canonical + rel.hessian(tuple(float(c) for c in point))
        if np.linalg.eigvalsh(hess)[0] > 0.5 * np.linalg.eigvalsh(canonical)[0]:
            return scale * expr
        scale /= 4


def trapezoid():
    return tc.LabelledPolytope(2, [
        tc.AffineFunction((1, 0), 0), tc.AffineFunction((-1, 0), 2),
        tc.AffineFunction((0, 1), 0), tc.AffineFunction((-1, -2), 4),
    ])


def coefficients(expr, n):
    """A sympy polynomial in x0..x{n-1} as {exponents: Fraction}."""
    return {e: Fraction(int(c.p), int(c.q))
            for e, c in sp.Poly(expr, *pot._coords(n)).terms() if c}


def test_closed_form_matches_exact_curvature():
    rng = random.Random(31)
    polys = [tc.segment((1, 2)), tc.segment((2, 3)), trapezoid(), tc.unit_box(3)]
    polys += [random_rational_polytope(rng) for _ in range(8)]
    worst = 0.0
    for k, poly in enumerate(polys):
        for with_relative in (False, True):
            point = rational_interior_point(poly, rng)
            rel = convex_polynomial(poly, point, rng) if with_relative else sp.Integer(0)
            exact = jet_curvature(poly, coefficients(rel, poly.dim), point)
            if k < 3:  # the segments and the trapezoid: the two oracles agree exactly
                assert exact_curvature(poly, rel, point) == sp.Rational(exact)
            exact = float(exact)
            u = tc.SymplecticPotential(poly, tc.RelativePotential(poly.dim, rel))
            got = tc.abreu_scalar_curvature(u, tuple(float(c) for c in point))
            worst = max(worst, abs(got - exact) / max(abs(exact), 1.0))
    assert worst < 1e-10, worst


def test_closed_form_matches_finite_differences():
    # within the differences' truncation error, estimated by halving the step
    # (a fourth-order error then falls 16-fold)
    rng = random.Random(8)
    for poly in (tc.segment((1, 2)), trapezoid(), random_rational_polytope(rng),
                 random_rational_polytope(rng), tc.unit_box(3)):
        point = rational_interior_point(poly, rng)
        x = tuple(float(c) for c in point)
        for rel in (sp.Integer(0), convex_polynomial(poly, point, rng)):
            u = tc.SymplecticPotential(poly, tc.RelativePotential(poly.dim, rel))
            closed = tc.abreu_scalar_curvature(u, x)
            fd, fd_half = fd_curvature(u, x), fd_curvature(u, x, shrink=2)
            truncation = abs(fd - fd_half) * 16 / 15
            assert abs(fd - closed) <= 1.5 * truncation + 1e-9 * max(abs(closed), 1.0)
            assert abs(fd_half - closed) <= abs(fd - closed) / 8 + 1e-9 * max(abs(closed), 1.0)
    # on segment(1, 2) at grid 8 the differences alone miss the default --tol
    u = tc.SymplecticPotential.canonical(tc.segment((1, 2)))
    x = tc.Grid.interior(u.polytope, 8).points[0]
    exact = float(exact_curvature(u.polytope, 0, (Fraction(x[0]),)))
    assert abs(fd_curvature(u, x) - exact) > 1e-6
    assert abs(tc.abreu_scalar_curvature(u, x) - exact) < 1e-12


def test_spline_relative_matches_sympy_twin():
    rng = random.Random(2)
    xs = np.linspace(0.0, 1.0, 41)
    f1 = sp.Rational(1, 20) * X0 ** 4 + X0 ** 2 / 2 - sp.Rational(1, 10) * X0 ** 3
    samples = sp.lambdify([X0], f1, "numpy")(xs)
    f2 = sp.Rational(1, 20) * X0 ** 4 + X0 * X1 / 10 + X1 ** 2 / 2 + sp.Rational(1, 30) * X1 ** 3
    grid = np.meshgrid(xs, xs, indexing="ij")
    samples2 = sp.lambdify([X0, X1], f2, "numpy")(*grid)
    for poly, spline, expr in (
        (tc.segment(), tc.RelativePotential.from_grid_samples([xs], samples), f1),
        (tc.unit_box(2), tc.RelativePotential.from_grid_samples([xs, xs], samples2), f2),
    ):
        twin = tc.RelativePotential(poly.dim, expr)
        points = [random_interior_point(poly, rng) for _ in range(5)]
        for x in points:
            assert abs(spline.value(x) - twin.value(x)) < 1e-12
            assert np.allclose(spline.hessian(x), twin.hessian(x), rtol=0, atol=1e-9)
        got = pot._curvature_scan(tc.SymplecticPotential(poly, spline), points).curvature
        want = pot._curvature_scan(tc.SymplecticPotential(poly, twin), points).curvature
        assert np.allclose(got, want, rtol=1e-7, atol=0)


def first_error(u, points):
    """The error of the first point that fails on its own, in order."""
    for x in points:
        try:
            tc.abreu_scalar_curvature(u, x)
        except (OutOfDomainError, NotConvexHereError) as exc:
            return type(exc)
    return None


def test_curvature_errors_follow_grid_order(monkeypatch):
    # -10 x^2 keeps u convex only near the ends of the segment
    u = tc.SymplecticPotential(tc.segment(), tc.RelativePotential(1, -10 * X0 ** 2))
    orders = [
        [(0.01,), (0.02,), (0.5,), (1.5,)],
        [(0.01,), (1.5,), (0.5,)],
        [(0.01,), (0.02,), (0.015,), (0.98,), (math.nan,), (0.5,)],
        [(0.5,), (math.nan,)],
        [(-0.2,), (0.5,)],
        [(0.01,), (0.02,), (0.99,)],
    ]
    for block in (pot._BLOCK_POINTS, 1, 2, 3):
        monkeypatch.setattr(pot, "_BLOCK_POINTS", block)
        for points in orders:
            grid = tc.Grid(tuple(points), 0.1, len(points), 0)
            expected = first_error(u, points)
            if expected is None:
                tc.extremality_residual(u, grid)
                continue
            with pytest.raises(expected):
                tc.extremality_residual(u, grid)
            with pytest.raises(expected):
                pot._curvature_scan(u, points)
    assert [first_error(u, p) for p in orders] == [
        NotConvexHereError, OutOfDomainError, OutOfDomainError, NotConvexHereError,
        OutOfDomainError, None]


def test_curvature_blocks_agree(monkeypatch):
    rng = random.Random(17)
    poly = random_rational_polytope(rng)
    point = rational_interior_point(poly, rng)
    u = tc.SymplecticPotential(poly, tc.RelativePotential(
        poly.dim, convex_polynomial(poly, point, rng)))
    points = [random_interior_point(poly, rng) for _ in range(11)]
    whole = pot._curvature_scan(u, points)
    monkeypatch.setattr(pot, "_BLOCK_POINTS", 4)
    blocked = pot._curvature_scan(u, points)
    assert np.allclose(blocked.curvature, whole.curvature, rtol=1e-13, atol=0)
    assert blocked.min_facet_distance == whole.min_facet_distance
    assert blocked.min_hessian_eigenvalue == pytest.approx(whole.min_hessian_eigenvalue, rel=1e-13)
    assert [tc.abreu_scalar_curvature(u, x) for x in points] == pytest.approx(
        list(whole.curvature), rel=1e-13)


def test_curvature_memory_does_not_grow_with_points():
    import tracemalloc

    u = tc.SymplecticPotential.canonical(tc.unit_box(3))
    rng = np.random.default_rng(3)
    extra = []
    for blocks in (2, 8):
        points = rng.uniform(0.1, 0.9, (blocks * pot._BLOCK_POINTS, 3))
        tracemalloc.start()
        try:
            scan = pot._curvature_scan(u, points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra.append(peak - scan.curvature.nbytes)
    # the working set is one block's, whatever the number of points
    assert extra[1] < 1.05 * extra[0] + 2 ** 16, extra


def _grid_oracle(poly, per_axis, margin_cells=4):
    """The mesh points, in np.ndindex order, at which every label is positive
    when the float point is read as a rational."""
    n = poly.dim
    axes = []
    for i in range(n):
        lo = min(float(v[i]) for v in poly.vertices)
        hi = max(float(v[i]) for v in poly.vertices)
        s = (hi - lo) / (per_axis - 1 + 2 * margin_cells)
        axes.append([lo + margin_cells * s + k * s for k in range(per_axis)])
    exact = [[Fraction(c) for c in axis] for axis in axes]
    points = []
    for idx in np.ndindex(*([per_axis] * n)):
        if all(f(tuple(exact[i][idx[i]] for i in range(n))) > 0 for f in poly.facets):
            points.append(tuple(axes[i][idx[i]] for i in range(n)))
    return tuple(points)


def _unimodular_image(poly, u):
    """The labelled polytope with labels l(U x), U in GL(n, Z)."""
    n = poly.dim
    return tc.LabelledPolytope(n, [
        tc.AffineFunction(tuple(sum(u[i][j] * f.normal[i] for i in range(n))
                                for j in range(n)), f.constant)
        for f in poly.facets])


def test_grid_membership_matches_exact_oracle(monkeypatch):
    rng = random.Random(3)
    polys = [tc.standard_simplex(2), tc.standard_simplex(2).rescale(Fraction(7, 3)),
             tc.standard_simplex(3), tc.standard_simplex(3).rescale(Fraction(5, 2))]
    for _ in range(3):
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        polys.append(tc.LabelledPolytope(2, [
            tc.AffineFunction((1, 0), 0), tc.AffineFunction((0, 1), 0),
            tc.AffineFunction((-a, -b), Fraction(rng.randint(1, 9), rng.randint(1, 3)))]))
    for shape in (tc.standard_simplex(2), tc.unit_box(2)):
        polys += [_unimodular_image(shape, rand_unimodular(2, rng)) for _ in range(3)]
    cases = [(poly, per_axis, _grid_oracle(poly, per_axis)) for poly in polys
             for per_axis in ((8, 16) if poly.dim == 2 else (5, 8))]
    exact_tests = []
    call = tc.AffineFunction.__call__
    monkeypatch.setattr(tc.AffineFunction, "__call__",
                        lambda f, x: exact_tests.append(x) or call(f, x))
    for poly, per_axis, oracle in cases:
        exact_tests.clear()
        assert tc.Grid.interior(poly, per_axis).points == oracle
        # points on a slanted facet land within the float bound and are
        # placed by the exact test
        if poly is polys[0] and per_axis == 16:
            assert exact_tests


def test_empty_grid():
    poly = tc.standard_simplex(3)
    grid = tc.Grid.interior(poly, 4)
    assert grid.points == ()
    report = tc.extremality_residual(tc.SymplecticPotential.canonical(poly), grid)
    assert (report.residual_sup, report.residual_l2) == (0.0, 0.0)
    assert report.to_json()["diagnostics"] == {
        "points": 0, "argmax": None, "min_facet_distance": None,
        "min_hessian_eigenvalue": None}


def test_extremal_report_diagnostics():
    for poly, rel in ((tc.segment((1, 2)), 0), (trapezoid(), X0 ** 2 / 10 + X0 * X1 / 20)):
        u = tc.SymplecticPotential(poly, tc.RelativePotential(poly.dim, rel))
        grid = tc.Grid.interior(poly, 8)
        report = tc.extremality_residual(u, grid)
        re = tc.extremal_affine_function(poly)
        residual = [tc.abreu_scalar_curvature(u, x) - float(re(x)) for x in grid.points]
        worst = max(range(len(residual)), key=lambda i: abs(residual[i]))
        assert report.points == len(grid.points) > 0
        assert report.argmax == grid.points[worst]
        assert report.residual_sup == pytest.approx(abs(residual[worst]), rel=1e-12)
        distances = [float(f(x)) / math.sqrt(sum(float(c) ** 2 for c in f.normal))
                     for x in grid.points for f in poly.facets]
        assert report.min_facet_distance == pytest.approx(min(distances), rel=1e-12)
        eigenvalues = [np.linalg.eigvalsh(u.hessian(x))[0] for x in grid.points]
        assert report.min_hessian_eigenvalue == pytest.approx(min(eigenvalues), rel=1e-12)
        body = report.to_json()
        assert body["diagnostics"] == {
            "points": report.points, "argmax": list(report.argmax),
            "min_facet_distance": report.min_facet_distance,
            "min_hessian_eigenvalue": report.min_hessian_eigenvalue}
        assert set(body) == {"extremal_affine", "residual_sup", "residual_l2", "grid",
                             "diagnostics"}


def test_extremal_affine_solved_once_per_polytope(monkeypatch):
    from toriccontact import moments

    solves = []
    real = moments.polynomial_moments
    monkeypatch.setattr(moments, "polynomial_moments",
                        lambda *a: solves.append(1) or real(*a))
    poly = tc.segment((1, 2))
    re = tc.extremal_affine_function(poly)
    report = tc.extremality_residual(tc.SymplecticPotential.canonical(poly),
                                     tc.Grid.interior(poly, 8))
    assert report.extremal_affine is re and len(solves) == 1
    # kept on the object, not keyed by equality
    twin = tc.segment((1, 2))
    assert twin == poly and tc.extremal_affine_function(twin) == re
    assert len(solves) == 2


def test_relative_potential_compiles_on_first_evaluation(monkeypatch):
    calls = []
    for name in ("lambdify", "diff"):
        real = getattr(sp, name)
        monkeypatch.setattr(sp, name, lambda *a, _real=real, _name=name, **k:
                            calls.append(_name) or _real(*a, **k))
    # a polynomial, as a string or a sympy object, is differentiated exactly
    for expr in ("x0**4 + x0*x1", X0 ** 4 + X0 * X1):
        rel = tc.RelativePotential(2, expr)
        u = tc.SymplecticPotential(tc.unit_box(2), rel)
        tc.abreu_scalar_curvature(u, (0.3, 0.4))
        rel.hessian((0.3, 0.4))
        rel.value((0.3, 0.4))
    assert calls == []
    with pytest.raises(sp.SympifyError):
        tc.RelativePotential(1, "x0 +")
    # any other closed form is compiled once, on first evaluation
    rel = tc.RelativePotential(2, sp.exp(X0) + X0 * X1)
    assert calls == []
    u = tc.SymplecticPotential(tc.unit_box(2), rel)
    tc.abreu_scalar_curvature(u, (0.3, 0.4))
    assert calls.count("lambdify") == 1
    tc.abreu_scalar_curvature(u, (0.5, 0.4))
    rel.hessian((0.3, 0.4))
    assert calls.count("lambdify") == 1
    rel.value((0.3, 0.4))
    assert calls.count("lambdify") == 2


def sympify(text, n):
    return sp.sympify(text, locals={s.name: s for s in pot._coords(n)})


def random_polynomial_text(rng, n, depth=3):
    """A random expression in the parser's grammar."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice([str(rng.randint(0, 9)), f"x{rng.randrange(n)}"])
    a, b = (random_polynomial_text(rng, n, depth - 1) for _ in range(2))
    return rng.choice([
        f"{a} + {b}", f"{a} - {b}", f"({a})*({b})", f"-({a})", f"+{a}",
        f"({a})/{rng.randint(1, 7)}", f"({a})/({rng.randint(1, 5)}*{rng.randint(1, 5)} - 30)",
        f"({a})**{rng.randint(0, 3)}", f"(({a})**2)**2", f"{a}*x0**2**1",
    ])


def test_polynomial_parser_matches_sympy():
    rng = random.Random(17)
    texts = [(2, t) for t in (  # the shapes the benchmark and the acceptance suite draw
        "1/3*x0**2 + 0/4*x0**4 + 4/5*x1**2 + 2/2*x1**4",
        "(-3/2)*x0**2 + (1/3)*x0**3 + (2/1)*x1**2 + (0/3)*x1**3 + (-2)*x0 + (3) + x0*x1",
        "(4/3)*x0**2 + (-4/1)*x0**3 + (1)*x0 + (-3)*x1 + (0)",
        "x0**4/20 + x0**2", "x0*x1", "1", "0", "x0 - x0", "-x0**2", "2**3*x0", "x0**0",
    )]
    texts += [(n, random_polynomial_text(rng, n)) for n in (1, 2, 3) for _ in range(40)]
    for n, text in texts:
        assert pot._parse_polynomial(text, n) == coefficients(sympify(text, n), n), text
        assert tc.RelativePotential(n, text).is_polynomial
    # other syntax goes to sympy, and gives its value, polynomial or not
    for text in ("log(x0)", "x0**-1", "x0**(1/2)", "0.5*x0", "x0^2", "2**-1*x0"):
        assert pot._parse_polynomial(text, 1) is None
        rel = tc.RelativePotential(1, text)
        want = sp.lambdify([X0], sympify(text, 1), "numpy")(0.3)
        assert abs(rel.value((0.3,)) - want) <= 1e-15 * abs(want)
        assert rel.is_polynomial == (text in ("0.5*x0", "x0^2", "2**-1*x0"))
    with pytest.raises(sp.SympifyError):
        tc.RelativePotential(1, "x0 +")
    # an expansion of more than 1000 terms stays a closed form, as text or in sympy
    assert tc.RelativePotential(2, "(x0 + x1 + 1)**40").is_polynomial  # 861 terms
    for expr in ("(x0 + x1 + 1)**80", (X0 + X1 + 1) ** 80):
        rel = tc.RelativePotential(2, expr)
        assert not rel.is_polynomial
        assert abs(rel.value((0.3, 0.4)) / 1.7 ** 80 - 1) < 1e-13
    # one term with a huge exponent stays exact; its float partials underflow
    assert tc.RelativePotential(1, "x0**(10**30)").hessian((0.5,))[0, 0] == 0.0


def test_unknown_names_and_non_finite_constants_are_rejected():
    for text in ("x1**2", "y", "zoo*x0", "x0**2/0", "0/0 + x0", "oo", "x0 + X"):
        with pytest.raises(InvalidArgumentError):
            tc.RelativePotential(1, text)
    with pytest.raises(InvalidArgumentError):
        tc.RelativePotential(1, X1 ** 2)
    # coordinates are matched by name, whatever their assumptions
    rel = tc.RelativePotential(2, sp.Symbol("x1") ** 2)
    assert rel.is_polynomial and rel.hessian((0.5, 0.5))[1, 1] == 2.0


def test_polynomial_partials_match_sympy():
    rng = random.Random(23)
    for n in (1, 2, 3):
        xs = pot._coords(n)
        distinct = list(itertools.chain.from_iterable(
            itertools.combinations_with_replacement(range(n), k) for k in pot._ORDERS))
        for _ in range(3):
            text = " + ".join(random_polynomial_text(rng, n, 2) for _ in range(3)) + " + x0**5"
            expr = sympify(text, n)
            columns = [sp.diff(expr, *(xs[i] for i in d)) for d in distinct]
            points = np.array([[rng.uniform(-2, 2) for _ in range(n)] for _ in range(6)])
            want = {d: np.broadcast_to(np.asarray(v, float), (6,)) for d, v in
                    zip(distinct, sp.lambdify(xs, columns, "numpy")(*points.T))}
            # bound: relative to the sum of the magnitudes of the terms
            scale = {d: sum(abs(float(c)) * np.prod(np.abs(points) ** e, axis=1)
                            for e, c in sp.Poly(column, *xs).terms())
                     for d, column in zip(distinct, columns)}
            rel = tc.RelativePotential(n, text)
            assert rel.is_polynomial
            for k, tensor in zip(pot._ORDERS, rel._partials(points)):
                for idx in itertools.product(range(n), repeat=k):
                    d = tuple(sorted(idx))
                    got = tensor[(slice(None),) + idx]
                    assert (np.abs(got - want[d]) <= 1e-12 * scale[d]).all(), (text, idx)
            value = sp.lambdify(xs, expr, "numpy")(*points.T)
            magnitude = sum(abs(float(c)) * np.prod(np.abs(points) ** e, axis=1)
                            for e, c in sp.Poly(expr, *xs).terms())
            assert (np.abs(rel._values(points) - value) <= 1e-12 * magnitude).all()


def test_extremal_affine_golden():
    assert tc.extremal_affine_function(tc.segment()).to_json() == {
        "normal": ["0"], "constant": "4"}
    assert tc.extremal_affine_function(tc.segment((1, 2))).to_json() == {
        "normal": ["-6"], "constant": "6"}
    assert tc.extremal_affine_function(tc.unit_box(2)).to_json() == {
        "normal": ["0", "0"], "constant": "8"}


def test_extremal_affine_rescale_law():
    rng = random.Random(9)
    from conftest import rand_characteristic_simplex

    for _ in range(5):
        p = rand_characteristic_simplex(rng.randint(1, 2), rng)
        r = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        re = tc.extremal_affine_function(p)
        re_s = tc.extremal_affine_function(p.rescale(r))
        assert re_s.constant == re.constant / r
        assert re_s.normal == tuple(c / (r * r) for c in re.normal)


def test_extremality_residual_zero_for_canonical():
    seg = tc.segment()
    u = tc.SymplecticPotential.canonical(seg)
    rep = tc.extremality_residual(u, tc.Grid.interior(seg, 64))
    assert rep.residual_sup < 1e-8
    rel = tc.RelativePotential(1, Fraction(1, 10) * X0 ** 3 * (1 - X0) ** 3)
    rep2 = tc.extremality_residual(
        tc.SymplecticPotential(seg, rel), tc.Grid.interior(seg, 64)
    )
    assert rep2.residual_sup > 1e-3


def test_donaldson_identity_segment():
    u = tc.SymplecticPotential.canonical(tc.segment())
    for expr in (sp.Integer(1), X0, X0 ** 2):
        f = tc.RelativePotential(1, expr)
        assert tc.donaldson_identity_check(u, f, refine=2) < 1e-10


def test_boundary_pairing_non_polynomial():
    # centroid rule on each facet simplex against dsigma, f = exp(x0)
    e = math.e
    for poly, expected in ((tc.segment(), 1 + e),
                           (tc.segment((2, 3)), 0.5 + e / 3),
                           (tc.unit_box(2), 1 + e + 2 * math.sqrt(e))):
        f = pot.RelativePotential(poly.dim, sp.exp(X0))
        assert not f.is_polynomial
        assert abs(pot._boundary_pairing(poly, f) - expected) < 1e-12


def test_donaldson_convergence_square():
    u = tc.SymplecticPotential.canonical(tc.unit_box(2))
    for expr in (X0 ** 2, X0 * X1):
        f = tc.RelativePotential(2, expr)
        res = [tc.donaldson_identity_check(u, f, refine=l) for l in range(4)]
        if all(r < 1e-12 for r in res):
            continue
        slope = (math.log(res[0]) - math.log(res[-1])) / (3 * math.log(2))
        assert slope >= 1.9


def test_abreu_separability():
    # R of the direct sum equals the sum of the factor curvatures
    seg = tc.segment()
    rel1 = tc.RelativePotential(1, Fraction(1, 20) * X0 ** 4)
    u1 = tc.SymplecticPotential(seg, rel1)
    r1 = tc.abreu_scalar_curvature(u1, (0.4,))
    rel2 = tc.RelativePotential(1, Fraction(1, 30) * X0 ** 3)
    u2 = tc.SymplecticPotential(seg, rel2)
    r2 = tc.abreu_scalar_curvature(u2, (0.7,))
    prod = tc.product(seg, seg)
    rel = tc.RelativePotential(
        2, Fraction(1, 20) * X0 ** 4 + Fraction(1, 30) * X1 ** 3
    )
    u = tc.SymplecticPotential(prod, rel)
    # the inverse Hessians are non-polynomial, so fourth-order finite
    # differences on the 1D and 2D grids differ by their truncation errors
    assert abs(tc.abreu_scalar_curvature(u, (0.4, 0.7)) - (r1 + r2)) < 1e-3


def test_abreu_separability_exact():
    # the closed form keeps R(u1 + u2) = R(u1) + R(u2) to rounding
    seg, rng = tc.segment((1, 2)), random.Random(6)
    f1, f2 = Fraction(1, 20) * X0 ** 4, Fraction(1, 30) * X0 ** 3 + X0 ** 2
    u1 = tc.SymplecticPotential(seg, tc.RelativePotential(1, f1))
    u2 = tc.SymplecticPotential(tc.segment(), tc.RelativePotential(1, f2))
    u = tc.SymplecticPotential(tc.product(seg, tc.segment()),
                               tc.RelativePotential(2, f1 + f2.subs(X0, X1)))
    for _ in range(5):
        x, y = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)
        r1 = tc.abreu_scalar_curvature(u1, (x,))
        r2 = tc.abreu_scalar_curvature(u2, (y,))
        assert abs(tc.abreu_scalar_curvature(u, (x, y)) - (r1 + r2)) < 1e-10 * max(abs(r1 + r2), 1.0)


def test_average_split_examples():
    seg = tc.segment()
    f = tc.RelativePotential(2, X0 ** 2 + X1 ** 2)
    f1, f2 = tc.average_split(f, seg, seg)
    assert sp.expand(f1.expr - (X0 ** 2 + sp.Rational(1, 3))) == 0
    assert sp.expand(f2.expr - (X0 ** 2 + sp.Rational(1, 3))) == 0
    f = tc.RelativePotential(2, X0 * X1)
    f1, f2 = tc.average_split(f, seg, seg)
    assert sp.expand(f1.expr - X0 / 2) == 0
    assert sp.expand(f2.expr - X0 / 2) == 0
    z = tc.RelativePotential(2, sp.Integer(0))
    z1, z2 = tc.average_split(z, seg, seg)
    assert z1.expr == 0 and z2.expr == 0


def test_split_defect():
    seg = tc.segment()
    f1 = tc.RelativePotential(1, X0 ** 2)
    f2 = tc.RelativePotential(1, X0 ** 3)
    exact = tc.RelativePotential(2, X0 ** 2 + X1 ** 3)
    assert tc.split_defect(exact, f1, f2, seg, seg) < 1e-12
    with_affine = tc.RelativePotential(2, X0 ** 2 + X1 ** 3 + 3 * X0 - X1 + 2)
    assert tc.split_defect(with_affine, f1, f2, seg, seg) < 1e-12
    fxy = tc.RelativePotential(2, X0 * X1)
    g1, g2 = tc.average_split(fxy, seg, seg)
    assert tc.split_defect(fxy, g1, g2, seg, seg) > 1e-3


def test_average_split_minimality():
    # the averaged pair minimizes the L2 distance among mean-matched competitors
    seg = tc.segment()
    f = tc.RelativePotential(2, X0 ** 2 * X1 + X1 ** 2)
    f1, f2 = tc.average_split(f, seg, seg)
    base = tc.split_defect(f, f1, f2, seg, seg)
    for eps in (Fraction(1, 10), Fraction(-1, 10)):
        pert = tc.RelativePotential(1, f1.expr + eps * X0 ** 2 - eps / 3)
        assert tc.split_defect(f, pert, f2, seg, seg) >= base - 1e-12


def test_spline_backed_potential():
    xs = np.linspace(0.0, 1.0, 41)
    vals = xs ** 2
    rel = tc.RelativePotential.from_grid_samples([xs], vals, degree=5)
    assert abs(rel.value((0.3,)) - 0.09) < 1e-9
    assert abs(rel.hessian((0.3,))[0, 0] - 2.0) < 1e-7
    with pytest.raises(InvalidArgumentError):
        tc.RelativePotential.from_grid_samples([xs], vals, degree=3)


def test_expression_tree_parsing():
    tree = {"kind": "add", "args": [
        {"kind": "mul", "args": [
            {"kind": "const", "value": "1/2"},
            {"kind": "pow", "base": {"kind": "coord", "index": 0}, "exponent": 2},
        ]},
        {"kind": "log", "arg": {"kind": "coord", "index": 0}},
    ]}
    rel = tc.RelativePotential.from_expression(1, tree)
    x = 0.37
    assert abs(rel.value((x,)) - (0.5 * x ** 2 + math.log(x))) < 1e-12
    zero_denominator = {"kind": "const", "value": "1/0"}
    for bad in ({"kind": "coord", "index": 5}, zero_denominator,
                {"kind": "log", "arg": zero_denominator}):
        with pytest.raises(InvalidArgumentError):
            tc.RelativePotential.from_expression(1, bad)


def test_grid_margins():
    seg = tc.segment()
    grid = tc.Grid.interior(seg, 256)
    assert len(grid.points) == 256
    lmin = min(min(float(f((x,))) for f in seg.facets) for (x,) in grid.points)
    assert lmin >= 4 * grid.spacing - 1e-12


def test_convexity_margin():
    u = tc.SymplecticPotential.canonical(tc.segment())
    grid = tc.Grid.interior(tc.segment(), 16)
    assert tc.extremality_residual(u, grid).min_hessian_eigenvalue > 0
    bad = tc.SymplecticPotential(tc.segment(), tc.RelativePotential(1, -10 * X0 ** 2))
    with pytest.raises(NotConvexHereError):
        tc.extremality_residual(bad, grid)
